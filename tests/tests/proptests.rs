//! Property-based tests on core data structures and invariants, across
//! crates.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR built from arbitrary triplets: SpMV matches a dense reference.
    #[test]
    fn csr_spmv_matches_dense(
        triplets in prop::collection::vec((0usize..8, 0usize..8, -10.0f64..10.0), 0..40),
        x in prop::collection::vec(-5.0f64..5.0, 8),
    ) {
        let a = linalg::CsrMatrix::from_triplets(8, 8, &triplets);
        let mut dense = vec![0.0f64; 64];
        for &(r, c, v) in &triplets {
            dense[r * 8 + c] += v;
        }
        let mut y_sparse = vec![0.0; 8];
        a.spmv(&x, &mut y_sparse);
        for r in 0..8 {
            let want: f64 = (0..8).map(|c| dense[r * 8 + c] * x[c]).sum();
            prop_assert!((y_sparse[r] - want).abs() < 1e-9);
        }
    }

    /// Transpose is an involution on arbitrary CSR matrices.
    #[test]
    fn csr_transpose_involution(
        triplets in prop::collection::vec((0usize..6, 0usize..9, -3.0f64..3.0), 0..30),
    ) {
        let a = linalg::CsrMatrix::from_triplets(6, 9, &triplets);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    /// FFT roundtrip is identity for arbitrary power-of-two signals.
    #[test]
    fn fft_roundtrip(
        re in prop::collection::vec(-100.0f64..100.0, 64),
        im in prop::collection::vec(-100.0f64..100.0, 64),
    ) {
        use beamline::cplx::C64;
        let input: Vec<C64> = re.iter().zip(&im).map(|(&a, &b)| C64::new(a, b)).collect();
        let mut data = input.clone();
        beamline::fft::fft_inplace(&mut data, false);
        beamline::fft::fft_inplace(&mut data, true);
        for (a, b) in data.iter().zip(&input) {
            prop_assert!((*a - *b).abs() < 1e-8);
        }
    }

    /// Tiled transpose equals naive for arbitrary sizes and tiles.
    #[test]
    fn transpose_tiled_equals_naive(n in 1usize..40, tile in 1usize..64) {
        use beamline::cplx::C64;
        let src: Vec<C64> = (0..n * n).map(|i| C64::new(i as f64, -(i as f64))).collect();
        let mut a = vec![C64::ZERO; n * n];
        let mut b = vec![C64::ZERO; n * n];
        beamline::transpose::transpose_naive(&src, &mut a, n);
        beamline::transpose::transpose_tiled(&src, &mut b, n, tile);
        prop_assert_eq!(a, b);
    }

    /// BFS trees validate on arbitrary graphs, from any reachable root.
    #[test]
    fn bfs_always_produces_valid_trees(
        edges in prop::collection::vec((0usize..30, 0usize..30), 1..120),
        seed in 0u64..1000,
    ) {
        let edges: Vec<(usize, usize)> =
            edges.into_iter().filter(|(u, v)| u != v).collect();
        prop_assume!(!edges.is_empty());
        let g = graphx::CsrGraph::from_edges(30, &edges);
        let root = g.non_isolated_vertex(seed);
        let td = graphx::bfs_top_down(&g, root);
        let dopt = graphx::bfs_direction_optimising(&g, root);
        prop_assert!(graphx::validate_tree(&g, root, &td));
        prop_assert!(graphx::validate_tree(&g, root, &dopt));
        prop_assert_eq!(td.reached, dopt.reached);
    }

    /// Rational fits of smooth sigmoids stay within tolerance anywhere in
    /// the fitted interval, for arbitrary interval placements.
    #[test]
    fn rational_fit_bounded_error(centre in -40.0f64..10.0, width in 20.0f64..80.0) {
        let f = move |v: f64| 1.0 / (1.0 + ((v - centre) / 7.0).exp());
        let r = cardioid::RationalApprox::fit(f, centre - width, centre + width, 8, 8, 320);
        let mut worst = 0.0f64;
        for i in 0..200 {
            let x = centre - width + 2.0 * width * i as f64 / 199.0;
            worst = worst.max((r.eval(x) - f(x)).abs());
        }
        prop_assert!(worst < 0.02, "worst abs err {}", worst);
    }

    /// The DES scheduler conserves jobs and respects capacity under any
    /// workload.
    #[test]
    fn scheduler_conserves_jobs(
        durations in prop::collection::vec(1.0f64..100.0, 1..60),
        seed in 0u64..50,
    ) {
        use icoe::cluster::simulate_pool;
        use sched::{Fcfs, Job, SchedPolicy, Sjf, SjfQuota};
        let gpus = 4usize;
        let jobs: Vec<Job> = durations
            .iter()
            .enumerate()
            .map(|(id, &d)| Job {
                id,
                arrival: (id as f64) * (seed as f64 % 7.0),
                duration: d,
                gpus: 1 + id % gpus,
            })
            .collect();
        for policy in [&Fcfs as &dyn SchedPolicy, &Sjf, &SjfQuota { quota: 4 }] {
            let m = simulate_pool(&jobs, gpus, policy);
            prop_assert_eq!(m.completed, jobs.len());
            prop_assert!(m.utilization <= 1.0 + 1e-9);
            let work: f64 = jobs.iter().map(|j| j.duration * j.gpus as f64).sum();
            prop_assert!(m.makespan + 1e-9 >= work / gpus as f64);
        }
    }

    /// Pair forces always obey Newton's third law (zero net force), for
    /// arbitrary particle placements.
    #[test]
    fn md_forces_sum_to_zero(
        coords in prop::collection::vec(0.5f64..9.5, 3..30),
    ) {
        let mut sys = md::System::empty(10.0);
        for c in coords.chunks_exact(3) {
            sys.push([c[0], c[1], c[2]], [0.0; 3], 1.0);
        }
        prop_assume!(sys.len() >= 2);
        let lj = md::LennardJones::martini();
        md::potential::compute_pair_forces_bruteforce(&mut sys, &lj);
        let fx: f64 = sys.fx.iter().sum();
        let fy: f64 = sys.fy.iter().sum();
        let fz: f64 = sys.fz.iter().sum();
        let scale = sys.fx.iter().map(|v| v.abs()).fold(1.0, f64::max);
        prop_assert!(fx.abs() < 1e-9 * scale && fy.abs() < 1e-9 * scale && fz.abs() < 1e-9 * scale);
    }

    /// Kernel cost is monotone in work: more flops or bytes never makes a
    /// kernel faster on any preset device.
    #[test]
    fn kernel_cost_is_monotone(
        flops in 0.0f64..1e12,
        bytes in 0.0f64..1e10,
        extra in 1.0f64..4.0,
    ) {
        use hetsim::{machines, KernelProfile};
        let gpu = &machines::sierra_node().node.gpus[0];
        let cpu = &machines::sierra_node().node.cpu;
        let base = KernelProfile::new("k").flops(flops).bytes_read(bytes);
        let more = KernelProfile::new("k").flops(flops * extra).bytes_read(bytes * extra);
        prop_assert!(more.time_on_gpu(gpu) >= base.time_on_gpu(gpu));
        prop_assert!(more.time_on_cpu(cpu, 16) >= base.time_on_cpu(cpu, 16));
    }

    /// AMR restrict(prolong(x)) == x for arbitrary coarse fields.
    #[test]
    fn amr_transfer_roundtrip(vals in prop::collection::vec(-10.0f64..10.0, 16)) {
        use amr::grid::{prolong_constant, restrict_average, BoxRegion, Patch};
        let cbox = BoxRegion::new((0, 0), (4, 4));
        let mut coarse = Patch::new(cbox, 0, 1);
        for (k, &v) in vals.iter().enumerate() {
            coarse.set(0, k / 4, k % 4, v);
        }
        let mut fine = Patch::new(cbox.refined(2), 0, 1);
        prolong_constant(&coarse, &mut fine, 2);
        let mut back = Patch::new(cbox, 0, 1);
        restrict_average(&fine, &mut back, 2);
        for k in 0..16 {
            prop_assert!((back.get(0, k / 4, k % 4) - vals[k]).abs() < 1e-12);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Parallel exclusive scan matches the serial definition for any input
    /// and thread count.
    #[test]
    fn scan_matches_definition(
        input in prop::collection::vec(-50.0f64..50.0, 0..5000),
        threads in 1usize..12,
    ) {
        let mut out = vec![0.0; input.len()];
        let total = portal::exclusive_scan(&input, &mut out, threads);
        let mut acc = 0.0;
        for (i, &v) in input.iter().enumerate() {
            prop_assert!((out[i] - acc).abs() < 1e-9, "index {}", i);
            acc += v;
        }
        prop_assert!((total - acc).abs() < 1e-9);
    }

    /// Connected components: every edge connects equal labels, and labels
    /// are component minima.
    #[test]
    fn cc_labels_are_consistent(
        edges in prop::collection::vec((0usize..25, 0usize..25), 0..80),
    ) {
        let edges: Vec<(usize, usize)> = edges.into_iter().filter(|(u, v)| u != v).collect();
        let g = graphx::CsrGraph::from_edges(25, &edges);
        let (labels, _) = graphx::connected_components(&g);
        for u in 0..g.n {
            for &v in g.neighbors(u) {
                prop_assert_eq!(labels[u], labels[v], "edge ({}, {})", u, v);
            }
            prop_assert!(labels[u] <= u, "label must be a component minimum");
        }
    }

    /// The DSL tape always agrees with tree evaluation on random
    /// single-variable expressions built from the full op set.
    #[test]
    fn dsl_tape_matches_tree(ops in prop::collection::vec(0u8..5, 1..12), v in -3.0f64..3.0) {
        use cardioid::Expr;
        // Build a nested expression deterministically from the op list.
        let mut e = Expr::var("v");
        for op in ops {
            e = match op {
                0 => Expr::Add(Box::new(e), Box::new(Expr::c(0.5))),
                1 => Expr::Mul(Box::new(e), Box::new(Expr::c(0.7))),
                2 => Expr::Tanh(Box::new(e)),
                3 => Expr::Neg(Box::new(e)),
                _ => Expr::Sub(Box::new(e), Box::new(Expr::var("v"))),
            };
        }
        let k = cardioid::Kernel::compile(&e, &["v"]);
        let tree = e.eval(&std::collections::HashMap::from([("v", v)]));
        prop_assert!((k.run(&[v]) - tree).abs() < 1e-12);
    }

    /// MD parallel (GPU-style) forces equal the serial Newton's-third-law
    /// path for arbitrary particle clouds.
    #[test]
    fn md_parallel_equals_serial(
        coords in prop::collection::vec(0.5f64..9.5, 6..45),
        threads in 1usize..8,
    ) {
        let build = || {
            let mut sys = md::System::empty(10.0);
            for c in coords.chunks_exact(3) {
                sys.push([c[0], c[1], c[2]], [0.0; 3], 1.0);
            }
            sys
        };
        let mut a = build();
        let mut b = build();
        prop_assume!(a.len() >= 2);
        let lj = md::LennardJones::martini();
        let nlist = md::NeighborList::build(&a, lj.cutoff, 0.4);
        let (e1, _) = md::potential::compute_pair_forces(&mut a, &nlist, &lj);
        let (e2, _) = md::potential::compute_pair_forces_parallel(&mut b, &nlist, &lj, threads);
        prop_assert!((e1 - e2).abs() < 1e-9 * e1.abs().max(1.0));
        for i in 0..a.len() {
            prop_assert!((a.fx[i] - b.fx[i]).abs() < 1e-9 * a.fx[i].abs().max(1.0));
        }
    }
}
