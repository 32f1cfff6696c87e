//! Experiment: portability-matrix — do the paper's headline conclusions
//! survive off Sierra? (ISSUE 9, ROADMAP item 4.)
//!
//! Every §4/§5 optimisation lesson was measured on one machine. This
//! experiment re-derives the five headline conclusions on each
//! [`hetsim::machines::MATRIX`] preset through the same cost closed forms
//! the per-experiment sweeps use, then classifies each conclusion as
//! **architecture-invariant** (the paper's advice transfers) or
//! **Sierra-specific** (the advice encodes the machine, not the method):
//!
//! | activity | probe |
//! |---|---|
//! | streams-pipeline | best chunked-stream speedup over serial staging |
//! | um-oversubscription | working-set knee (GiB) where steady passes stop being free |
//! | allreduce | flat vs hierarchical cost at 64 nodes x 256 MiB |
//! | cpu-gpu-split | best KAVG GPU fraction on a frac sweep |
//! | portal-overhead | the machine's portal-vs-native device factor |
//!
//! Probes share one warm [`Sim`] per machine and sweep footprints through
//! [`Sim::reset`] rather than rebuilding simulator state per cell — the
//! discipline that keeps a 5-machine matrix tractable (and exactly what
//! the `icoe::matrix` registry runner does one level up with reused
//! baseline cells).

use hetsim::machines::MATRIX;
use hetsim::obs::{Recorder, SpanKind};
use hetsim::{AllReduceAlgo, CollectiveKind, LinkKind, Loc, Machine, Network, OomPolicy, Sim, GIB};
use icoe::report::Table;
use icoe::ExpParams;
use portal::{Backend, Executor, PerItem, Staging};

const MIB: f64 = 1024.0 * 1024.0;
/// Same balanced-on-sierra workload as the `pipeline-overlap` experiment.
const PIPE_N: usize = 1 << 22;

fn pipe_workload() -> (PerItem, Staging) {
    (
        PerItem::new()
            .flops(550.0)
            .bytes_read(8.0)
            .bytes_written(8.0),
        Staging::new(8.0, 8.0),
    )
}

/// Best pipelined speedup over serial staging, and the chunk count that
/// achieves it. `None` on machines with no device to stage to.
fn pipeline_probe(m: &Machine) -> Option<(f64, usize)> {
    if m.node.gpus.is_empty() {
        return None;
    }
    let (item, stage) = pipe_workload();
    let serial =
        Executor::new(Sim::new(m.clone())).staged_cost(0, Backend::Native, &item, stage, PIPE_N);
    let mut best = (1.0f64, 1usize);
    for chunks in [2usize, 4, 8, 16, 32, 64, 256, 4096] {
        let dt = Executor::new(Sim::new(m.clone())).pipeline_cost(
            0,
            Backend::Native,
            &item,
            stage,
            PIPE_N,
            chunks,
        );
        if serial / dt > best.0 {
            best = (serial / dt, chunks);
        }
    }
    Some(best)
}

/// Copy-vs-compute balance of the pipeline workload on this machine.
fn pipeline_bottleneck(m: &Machine) -> &'static str {
    let link = m.host_gpu_link();
    let g = &m.node.gpus[0];
    let t_copy = 8.0 * PIPE_N as f64 / (link.bw_gbs * 1e9);
    let t_kernel = 550.0 * PIPE_N as f64 / (g.fp64_gflops * 1e9 * g.compute_efficiency);
    if t_copy > 1.25 * t_kernel {
        "copy-bound (host link)"
    } else if t_kernel > 1.25 * t_copy {
        "compute-bound (device)"
    } else {
        "balanced copy/compute"
    }
}

/// Largest working set (GiB of 1 GiB regions) whose steady-state sweep is
/// still free under `UnifiedSpill` — behaviourally measured, so the knee
/// follows the device capacity without reading the spec. The sweep reuses
/// `sim` across footprints via [`Sim::reset`].
fn um_knee_gib(sim: &mut Sim, cap_gib: f64) -> f64 {
    let mut knee = 0.0;
    for ratio in [0.5f64, 1.0, 1.5] {
        sim.reset();
        let n = (ratio * cap_gib).round().max(1.0) as usize;
        let ids: Vec<_> = (0..n)
            .map(|_| sim.alloc(Loc::Gpu(0), GIB).expect("spill bounded by DDR"))
            .collect();
        for id in &ids {
            sim.touch_mem(*id).expect("fault-in");
        }
        let t1 = sim.elapsed();
        for id in &ids {
            sim.touch_mem(*id).expect("steady touch");
        }
        if sim.elapsed() - t1 < 1e-12 {
            knee = n as f64;
        }
    }
    knee
}

/// Flat-over-hierarchical allreduce cost ratio at 64 nodes x 256 MiB.
fn allreduce_ratio(m: &Machine) -> f64 {
    let net = Network::for_machine(m, 64 * m.topology().ranks_per_node);
    net.collective_cost_with(AllReduceAlgo::Flat, CollectiveKind::AllReduce, 256.0 * MIB)
        / net.collective_cost_with(
            AllReduceAlgo::Hierarchical,
            CollectiveKind::AllReduce,
            256.0 * MIB,
        )
}

/// Best GPU fraction for the KAVG hybrid batch on a 17-point frac sweep.
fn split_best_frac(sim: &Sim) -> f64 {
    if sim.machine().node.gpus.is_empty() {
        return 0.0;
    }
    // KAVG's defining trick: K local passes over one staged batch, so the
    // staging bytes amortise and placement is decided by compute+memory
    // throughput (the paper's §4.1 compute-where-data-lives case), not by
    // the host link. K = 16 local steps.
    let base = mlsim::HybridWorkload::kavg_batch();
    let w = mlsim::HybridWorkload {
        flops_per_item: base.flops_per_item * 16.0,
        bytes_per_item: base.bytes_per_item * 16.0,
        ..base
    };
    let mut best = (f64::INFINITY, 0.0);
    for i in 0..=16 {
        let frac = i as f64 / 16.0;
        let t = mlsim::split_step_time(sim, &w, frac);
        if t < best.0 {
            best = (t, frac);
        }
    }
    best.1
}

fn migration_label(m: &Machine) -> &'static str {
    match m.host_gpu_link().kind {
        LinkKind::NvLink1 | LinkKind::NvLink2 => "NVLink migration",
        LinkKind::Coherent => "coherent-link migration",
        LinkKind::Pcie3 => "PCIe migration",
        _ => "local-bus migration",
    }
}

/// portability-matrix: probe every activity on every MATRIX machine, then
/// classify the paper's conclusions.
pub fn portability_matrix(rec: &mut Recorder, _params: &ExpParams) -> Vec<Table> {
    let mut t = Table::new(
        "portability matrix: activity x machine (speedup, winner, bottleneck)",
        &["activity", "machine", "headline", "winner", "bottleneck"],
    );

    // Per-machine probe results the classification phase consumes.
    struct Row {
        name: &'static str,
        gpus: usize,
        cap_gib: f64,
        pipeline: Option<(f64, usize)>,
        knee_gib: f64,
        hier_ratio: f64,
        best_frac: f64,
        device_pct: f64,
    }
    let mut rows = Vec::new();

    for &name in MATRIX {
        let span = rec.begin(format!("machine:{name}"), SpanKind::Phase);
        let m = hetsim::machines::preset(name).expect("MATRIX names are registered");
        // One warm simulator per machine: the UM sweep resets it per
        // footprint; the split sweep reads it as a pure cost oracle.
        let mut sim = Sim::new(m.clone()).with_oom_policy(OomPolicy::UnifiedSpill);

        let pipeline = pipeline_probe(&m);
        let cap_gib = m.node.gpus.first().map_or(0.0, |g| g.mem_capacity_gib);
        let knee_gib = if m.node.gpus.is_empty() {
            0.0
        } else {
            um_knee_gib(&mut sim, cap_gib)
        };
        sim.reset();
        let hier_ratio = allreduce_ratio(&m);
        let best_frac = split_best_frac(&sim);
        let b = m.backend();
        let device_pct = (b.device_factor - 1.0) * 100.0;

        match pipeline {
            Some((sp, c)) => t.row(&[
                "streams-pipeline".into(),
                name.into(),
                format!("{sp:.2}x @ C={c}"),
                if sp >= 1.3 {
                    format!("pipelined (C={c})")
                } else if sp > 1.0 {
                    "pipelined (marginal)".into()
                } else {
                    "serial".into()
                },
                pipeline_bottleneck(&m).into(),
            ]),
            None => t.row(&[
                "streams-pipeline".into(),
                name.into(),
                "n/a".into(),
                "n/a (host-only)".into(),
                "host cores".into(),
            ]),
        };
        t.row(&[
            "um-oversubscription".into(),
            name.into(),
            if knee_gib > 0.0 {
                format!("knee at {knee_gib:.0} GiB")
            } else {
                "n/a".into()
            },
            if knee_gib > 0.0 {
                "resident working set".into()
            } else {
                "n/a (host-only)".into()
            },
            if m.node.gpus.is_empty() {
                "host DDR".into()
            } else {
                migration_label(&m).into()
            },
        ]);
        t.row(&[
            "allreduce".into(),
            name.into(),
            format!("hier {hier_ratio:.2}x cheaper"),
            if hier_ratio > 1.2 {
                "hierarchical".into()
            } else {
                "flat (hierarchy degenerates)".into()
            },
            if hier_ratio > 1.2 {
                "inter-node fabric".into()
            } else {
                "fabric injection (1 rank/node)".into()
            },
        ]);
        t.row(&[
            "cpu-gpu-split".into(),
            name.into(),
            format!("best GPU frac {best_frac:.2}"),
            if best_frac >= 0.75 {
                "gpu-heavy".into()
            } else if best_frac <= 0.25 {
                "cpu-heavy".into()
            } else {
                "mixed".into()
            },
            if best_frac >= 0.75 {
                "host staging link".into()
            } else {
                "host cores".into()
            },
        ]);
        t.row(&[
            "portal-overhead".into(),
            name.into(),
            format!("+{device_pct:.0}% on device"),
            if b.device_factor > 1.02 {
                "native".into()
            } else {
                "portal (free)".into()
            },
            "toolchain maturity".into(),
        ]);

        rec.gauge(
            format!("matrix.{name}.pipeline_speedup"),
            pipeline.map_or(0.0, |p| p.0),
        );
        rec.gauge(format!("matrix.{name}.um_knee_gib"), knee_gib);
        rec.gauge(format!("matrix.{name}.hier_vs_flat"), hier_ratio);
        rec.gauge(format!("matrix.{name}.best_gpu_frac"), best_frac);
        rec.gauge(format!("matrix.{name}.portal_device_pct"), device_pct);
        rows.push(Row {
            name,
            gpus: m.node.gpu_count(),
            cap_gib,
            pipeline,
            knee_gib,
            hier_ratio,
            best_frac,
            device_pct,
        });
        rec.end(span);
    }

    // ------------------------------------------------- classification
    let span = rec.begin("classification", SpanKind::Phase);
    let get = |n: &str| rows.iter().find(|r| r.name == n).expect("matrix row");
    let sierra = get("sierra");
    let mut c = Table::new(
        "conclusion classification: Sierra-specific vs architecture-invariant",
        &["conclusion", "class", "evidence"],
    );
    let mut invariant = 0usize;
    let mut sierra_specific = 0usize;

    // 1. Hierarchical allreduce: must persist wherever ranks share a node
    //    (the Frontier-like fabric is the acceptance case).
    let frontier = get("frontier");
    let hier_invariant = sierra.hier_ratio > 1.5 && frontier.hier_ratio > 1.5;
    if hier_invariant {
        invariant += 1;
    } else {
        sierra_specific += 1;
    }
    c.row(&[
        "hierarchical allreduce beats flat".into(),
        if hier_invariant {
            "architecture-invariant (multi-rank nodes)".into()
        } else {
            "Sierra-specific".into()
        },
        format!(
            "sierra {:.2}x, frontier {:.2}x (degenerates to {:.2}x at 1 rank/node)",
            sierra.hier_ratio,
            frontier.hier_ratio,
            get("grace-hopper").hier_ratio
        ),
    ]);

    // 2. The UM knee is capacity-relative: measured knees must be ordered
    //    exactly like the machines' device capacities.
    let mut gpu_rows: Vec<&Row> = rows.iter().filter(|r| r.gpus > 0).collect();
    gpu_rows.sort_by(|a, b| a.cap_gib.total_cmp(&b.cap_gib));
    let knee_tracks = gpu_rows.windows(2).all(|w| w[0].knee_gib < w[1].knee_gib);
    if knee_tracks {
        invariant += 1;
    } else {
        sierra_specific += 1;
    }
    c.row(&[
        "UM knee sits at device capacity".into(),
        if knee_tracks {
            "architecture-invariant (knee moves with HBM size)".into()
        } else {
            "Sierra-specific".into()
        },
        gpu_rows
            .iter()
            .map(|r| format!("{} {:.0} GiB", r.name, r.knee_gib))
            .collect::<Vec<_>>()
            .join(", "),
    ]);

    // 3. The GPU-heavy KAVG split flips on the CPU-only ARM class.
    let flips = sierra.best_frac >= 0.75 && get("a64fx").best_frac == 0.0;
    if flips {
        sierra_specific += 1;
    } else {
        invariant += 1;
    }
    c.row(&[
        "KAVG wants a GPU-heavy split".into(),
        if flips {
            "Sierra-specific (flips to cpu-only on a64fx)".into()
        } else {
            "architecture-invariant".into()
        },
        format!(
            "best frac: sierra {:.2}, a64fx {:.2}",
            sierra.best_frac,
            get("a64fx").best_frac
        ),
    ]);

    // 4. "RAJA costs ~30%" is a Sierra calibration, not a law: the factor
    //    varies with toolchain maturity across the matrix.
    let spread = rows
        .iter()
        .filter(|r| r.gpus > 0)
        .any(|r| (r.device_pct - sierra.device_pct).abs() > 5.0);
    let portal_specific = (25.0..=35.0).contains(&sierra.device_pct) && spread;
    if portal_specific {
        sierra_specific += 1;
    } else {
        invariant += 1;
    }
    c.row(&[
        "portal abstraction costs ~30%".into(),
        if portal_specific {
            "Sierra-specific (calibration, not constant)".into()
        } else {
            "architecture-invariant".into()
        },
        rows.iter()
            .filter(|r| r.gpus > 0)
            .map(|r| format!("{} +{:.0}%", r.name, r.device_pct))
            .collect::<Vec<_>>()
            .join(", "),
    ]);

    // 5. Chunked streams beat serial staging on every machine with a
    //    device — the magnitude varies, the sign does not.
    let pipe_all = rows
        .iter()
        .filter_map(|r| r.pipeline)
        .all(|(sp, _)| sp > 1.0);
    if pipe_all {
        invariant += 1;
    } else {
        sierra_specific += 1;
    }
    c.row(&[
        "pipelining beats serial staging".into(),
        if pipe_all {
            "architecture-invariant (where a device exists)".into()
        } else {
            "Sierra-specific".into()
        },
        rows.iter()
            .filter_map(|r| r.pipeline.map(|(sp, _)| format!("{} {:.2}x", r.name, sp)))
            .collect::<Vec<_>>()
            .join(", "),
    ]);
    rec.end(span);

    rec.gauge("matrix.machines", MATRIX.len() as f64);
    rec.gauge("matrix.invariant_conclusions", invariant as f64);
    rec.gauge("matrix.sierra_specific_conclusions", sierra_specific as f64);
    vec![t, c]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_meets_the_acceptance_floor() {
        // ISSUE 9 acceptance: >= 1 Sierra-specific and >= 2
        // architecture-invariant conclusions from the re-run registry.
        let mut rec = Recorder::enabled();
        let tables = portability_matrix(&mut rec, &ExpParams::default());
        assert_eq!(tables.len(), 2);
        let inv = rec.gauge_value("matrix.invariant_conclusions").unwrap();
        let spec = rec
            .gauge_value("matrix.sierra_specific_conclusions")
            .unwrap();
        assert!(inv >= 2.0, "invariant conclusions {inv}");
        assert!(spec >= 1.0, "sierra-specific conclusions {spec}");
        assert_eq!(rec.gauge_value("matrix.machines"), Some(5.0));
    }

    #[test]
    fn hier_allreduce_win_persists_on_frontier_fabric() {
        let mut rec = Recorder::enabled();
        portability_matrix(&mut rec, &ExpParams::default());
        assert!(rec.gauge_value("matrix.sierra.hier_vs_flat").unwrap() > 1.5);
        assert!(rec.gauge_value("matrix.frontier.hier_vs_flat").unwrap() > 1.5);
    }

    #[test]
    fn um_knee_moves_with_per_machine_gpu_capacity() {
        let mut rec = Recorder::enabled();
        portability_matrix(&mut rec, &ExpParams::default());
        let knee = |n: &str| rec.gauge_value(&format!("matrix.{n}.um_knee_gib")).unwrap();
        assert_eq!(knee("sierra"), 16.0);
        assert!(knee("edge") < knee("sierra"));
        assert!(knee("sierra") < knee("frontier"));
        assert!(knee("frontier") < knee("grace-hopper"));
        assert_eq!(knee("a64fx"), 0.0, "no device, no knee");
    }

    #[test]
    fn split_winner_flips_on_the_arm_class() {
        let mut rec = Recorder::enabled();
        let tables = portability_matrix(&mut rec, &ExpParams::default());
        assert!(rec.gauge_value("matrix.sierra.best_gpu_frac").unwrap() >= 0.75);
        assert_eq!(rec.gauge_value("matrix.a64fx.best_gpu_frac"), Some(0.0));
        let split_class = tables[1]
            .rows
            .iter()
            .find(|r| r[0].contains("KAVG"))
            .expect("split conclusion row");
        assert!(
            split_class[1].contains("Sierra-specific"),
            "{}",
            split_class[1]
        );
    }

    #[test]
    fn matrix_covers_every_activity_on_every_machine() {
        let tables = portability_matrix(&mut Recorder::noop(), &ExpParams::default());
        assert_eq!(tables[0].rows.len(), 5 * MATRIX.len());
        for name in MATRIX {
            assert!(
                tables[0].rows.iter().any(|r| &r[1] == name),
                "{name} column missing"
            );
        }
    }
}
