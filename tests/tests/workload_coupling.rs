//! Integration: cross-activity couplings the paper describes — the MuMMI
//! workflow (MD + scheduler), SW4 on the portability layer, and the
//! machine model's end-to-end consistency across activities.

use hetsim::{machines, Sim, Target};

/// MuMMI (Fig 4): micro MD simulations scheduled onto the node's GPUs;
/// physics and scheduling must both hold up.
#[test]
fn mummi_couples_md_and_scheduler() {
    use icoe::cluster::simulate_pool;
    use md::{Engine, LennardJones, System};
    use sched::{Job, SjfQuota};

    // Real micro simulations.
    let mut energies = Vec::new();
    for patch in 0..6u64 {
        let sys = System::lattice(64, 0.4, 0.6, patch + 1);
        let mut e = Engine::new(sys, LennardJones::martini(), 0.002, 0.4);
        let e0 = e.total_energy();
        for _ in 0..30 {
            e.step();
        }
        let drift = (e.total_energy() - e0).abs() / e0.abs().max(1.0);
        assert!(drift < 0.05, "patch {patch} energy drift {drift}");
        energies.push(e.total_energy());
    }
    assert!(energies.iter().all(|v| v.is_finite()));

    // Their scheduling on 4 GPUs.
    let jobs: Vec<Job> = (0..24)
        .map(|id| Job {
            id,
            arrival: 0.0,
            duration: 30.0 + (id % 5) as f64 * 80.0,
            gpus: 1,
        })
        .collect();
    let m = simulate_pool(&jobs, 4, &SjfQuota { quota: 8 });
    assert_eq!(m.completed, 24);
    assert!(m.utilization > 0.9, "{}", m.utilization);
}

/// SW4 numerics must be identical no matter which portal policy runs the
/// stencil (the performance-portability contract).
#[test]
fn seismic_identical_across_policies() {
    use seismic::{ElasticOperator, WaveSolver};

    let run = || {
        let op = ElasticOperator::new(16, 16, 16, 0.1, 2.0, 1.0, 1.0);
        let dt = WaveSolver::stable_dt(&op);
        let mut s = WaveSolver::new(op, dt);
        s.sources.push(seismic::solver::PointSource {
            i: 8,
            j: 8,
            k: 8,
            component: 0,
            amplitude: 1.0,
            t0: 4.0 * dt,
            sigma: 2.0 * dt,
        });
        s.run(20);
        s.displacement().to_vec()
    };
    // The solver itself is deterministic; and charging different policies
    // to the machine model never touches the field data.
    let a = run();
    let mut sim = Sim::new(machines::sierra_node());
    let op = ElasticOperator::new(16, 16, 16, 0.1, 2.0, 1.0, 1.0);
    seismic::KernelPath::Portal.charge(&mut sim, &op);
    seismic::KernelPath::NativeShared.charge(&mut sim, &op);
    let b = run();
    assert_eq!(a, b);
}

/// The machine model is shared state across every activity: charging one
/// activity's kernels must not corrupt another's accounting.
#[test]
fn shared_machine_model_accounting_is_additive() {
    let rec = hetsim::Recorder::enabled();
    let mut sim = Sim::new(machines::sierra_node()).with_recorder(rec.clone());
    let k1 = hetsim::KernelProfile::new("a").flops(1e9).bytes_read(1e8);
    let k2 = hetsim::KernelProfile::new("b").flops(2e9).bytes_read(2e8);
    let t1 = sim.launch(Target::gpu(0), &k1);
    let t2 = sim.launch(Target::gpu(0), &k2);
    assert!((sim.time(Target::gpu(0)) - (t1 + t2)).abs() < 1e-15);
    assert_eq!(rec.counter("launches"), 2.0);
    assert!((rec.counter("flops") - 3e9).abs() < 1.0);
    // Different GPU: independent stream.
    sim.launch(Target::gpu(1), &k1);
    assert!(sim.time(Target::gpu(1)) < sim.time(Target::gpu(0)));
}

/// Cardioid's DSL-lowered kernels drive the tissue model identically on
/// host threads (real execution) while the machine model prices devices.
#[test]
fn cardioid_dsl_feeds_tissue_and_cost_model() {
    use cardioid::{Monodomain, Placement};
    let mut tissue = Monodomain::new(16, 16, 0.2, 0.02, 8);
    tissue.stimulate(8, 8, 2, 60.0);
    for _ in 0..40 {
        tissue.step(true);
    }
    let activated = tissue.activated_fraction(-60.0);
    assert!(activated > 0.0);

    let mut sim = Sim::new(machines::sierra_node());
    let all_gpu = tissue.simulated_step_cost(&mut sim, Placement::AllGpu, true);
    let split = tissue.simulated_step_cost(&mut sim, Placement::SplitCpuGpu, true);
    assert!(split > all_gpu, "the data-migration lesson must hold");
}

/// LDA on dataflow matches the serial reference *and* ends with a model
/// that recovers planted topics — numerics and distribution compose.
#[test]
fn lda_distributed_equals_serial_and_recovers_topics() {
    use dataflow::StackConfig;
    use lda::{run_distributed, Corpus, CorpusParams, LdaModel};
    let corpus = Corpus::generate(CorpusParams::default(), 31);
    let machine = machines::sierra_nodes(8);
    let report = run_distributed(&corpus, &machine, StackConfig::optimized_stack(), 4, 12, 6);
    let mut serial = LdaModel::init(4, corpus.params.vocab, 0.1, 42);
    let mut bound = 0.0;
    for _ in 0..12 {
        bound = serial.em_iteration(&corpus, 6);
    }
    assert!((report.final_bound - bound).abs() < 1e-6 * bound.abs());
    assert!(report.model.topic_recovery(&corpus.true_topics) > 0.75);
}
