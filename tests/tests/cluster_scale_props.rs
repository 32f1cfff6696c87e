//! Conformance properties for the ISSUE-10 incremental cluster simulator:
//! the indexed, delta-maintained serving loop ([`icoe::cluster::sim`])
//! must be **bitwise indistinguishable** from the retained naive
//! reference loop ([`xtests::simulate_cluster_reference`]) — same metrics to the
//! last mantissa bit — across every built-in policy, stream shape, and
//! park-governor setting. Float identity is deliberate: both loops must
//! execute the *same float operations in the same order* (placement
//! scans, energy integration, wait quantiles), so any drift means the
//! incremental state diverged from the world it summarizes.
//!
//! The sims run under `debug_assertions` here, which also arms the
//! in-loop sampled recount (`ClusterSim::aggregates_consistent`) — the
//! invariant that the cached free-capacity aggregates always match a
//! from-scratch per-node recount fires *during* these runs, not only at
//! the post-run check below.

use proptest::prelude::*;
use proptest::TestCaseError;

use icoe::cluster::{
    default_fleet, job_stream, simulate_cluster, ClusterConfig, ClusterJob, ClusterMetrics,
    ClusterSim, StreamConfig,
};
use icoe::hetsim::Recorder;
use sched::{EasyBackfill, Fcfs, GpuBinPack, SchedPolicy, Sjf, SjfQuota, SlaUrgency};
use xtests::simulate_cluster_reference;

fn builtins() -> Vec<Box<dyn SchedPolicy>> {
    vec![
        Box::new(Fcfs),
        Box::new(Sjf),
        Box::new(SjfQuota { quota: 8 }),
        Box::new(EasyBackfill),
        Box::new(GpuBinPack),
        Box::new(SlaUrgency),
    ]
}

/// The three stream shapes the cluster experiments draw from: steady
/// Poisson traffic, the morning-spike scenario, and a sparse overnight
/// trickle (long idle gaps, so the park governor actually parks).
fn streams(jobs: usize, mult: f64, seed: u64) -> Vec<(&'static str, Vec<ClusterJob>)> {
    let sparse = {
        let mut cfg = StreamConfig::baseline(jobs, seed);
        cfg.base_rate = 0.01;
        cfg
    };
    vec![
        ("baseline", job_stream(&StreamConfig::baseline(jobs, seed))),
        ("spiky", job_stream(&StreamConfig::spiky(jobs, mult, seed))),
        ("sparse", job_stream(&sparse)),
    ]
}

/// Bitwise equality on every metric field (stricter than `PartialEq`:
/// `-0.0 != 0.0`, and a NaN leak would be caught, not equated).
fn assert_bitwise(a: &ClusterMetrics, b: &ClusterMetrics, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.completed, b.completed, "completed: {}", ctx);
    prop_assert_eq!(a.sla_tracked, b.sla_tracked, "sla_tracked: {}", ctx);
    prop_assert_eq!(
        a.sla_violations,
        b.sla_violations,
        "sla_violations: {}",
        ctx
    );
    prop_assert_eq!(a.wakes, b.wakes, "wakes: {}", ctx);
    prop_assert_eq!(a.parks, b.parks, "parks: {}", ctx);
    for (name, x, y) in [
        (
            "sla_violation_rate",
            a.sla_violation_rate,
            b.sla_violation_rate,
        ),
        ("utilization", a.utilization, b.utilization),
        ("cpu_utilization", a.cpu_utilization, b.cpu_utilization),
        ("mean_wait", a.mean_wait, b.mean_wait),
        ("p50_wait", a.p50_wait, b.p50_wait),
        ("p99_wait", a.p99_wait, b.p99_wait),
        ("max_wait", a.max_wait, b.max_wait),
        ("makespan", a.makespan, b.makespan),
        ("joules", a.joules, b.joules),
    ] {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{} diverged ({} vs {}): {}",
            name,
            x,
            y,
            ctx
        );
    }
    Ok(())
}

fn small_stream() -> Vec<ClusterJob> {
    job_stream(&StreamConfig::spiky(150, 4.0, 5))
}

/// The conformance bar in miniature (the full sweep is the proptest
/// below): same stream, same policy, bitwise-equal metrics against the
/// retained naive loop.
#[test]
fn incremental_simulator_matches_the_naive_reference_bitwise() -> Result<(), TestCaseError> {
    let cfg = ClusterConfig::default_fleet();
    let jobs = small_stream();
    let rec = Recorder::noop();
    for p in [&Fcfs as &dyn SchedPolicy, &Sjf, &GpuBinPack, &SlaUrgency] {
        let fast = simulate_cluster(&cfg, &jobs, p, &rec);
        let naive = simulate_cluster_reference(&cfg, &jobs, p);
        assert_bitwise(&fast, &naive, p.name())?;
    }
    Ok(())
}

#[test]
fn nan_speed_nodes_lose_placement_deterministically() -> Result<(), TestCaseError> {
    // A node class whose speed got corrupted to NaN, listed *first* so
    // the old `partial_cmp(..).expect("finite")` comparator would have
    // panicked on it: every job must land on a sane node instead,
    // identically across runs. (In the grouped placement scan, the NaN
    // class forms the terminal speed group.)
    let mut fleet = default_fleet();
    let mut cursed = fleet[0].clone();
    cursed.count = 1;
    cursed.speed = f64::NAN;
    fleet.insert(0, cursed);
    let cfg = ClusterConfig {
        fleet,
        park_after_s: None,
    };
    let jobs = small_stream();
    let rec = Recorder::noop();
    let a = simulate_cluster(&cfg, &jobs, &Fcfs, &rec);
    let b = simulate_cluster(&cfg, &jobs, &Fcfs, &rec);
    assert_eq!(a, b, "NaN speeds must not break determinism");
    assert_eq!(a.completed, jobs.len());
    assert!(
        a.makespan.is_finite() && a.p99_wait.is_finite(),
        "jobs avoided the NaN-speed node: makespan {} p99 {}",
        a.makespan,
        a.p99_wait
    );
    // And it still matches the reference's ungrouped min_by scan.
    let naive = simulate_cluster_reference(&cfg, &jobs, &Fcfs);
    assert_bitwise(&a, &naive, "NaN-speed fleet")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole conformance bar: all six policies, three stream
    /// shapes, governor on and off — indexed metrics bitwise-equal to
    /// the naive rebuild-the-world reference.
    #[test]
    fn indexed_simulator_matches_reference_bitwise(
        jobs in 40usize..140,
        mult in 2.0f64..8.0,
        seed in 0u64..1_000,
        park_bit in 0usize..2,
    ) {
        let park = park_bit == 1;
        let mut cfg = ClusterConfig::default_fleet();
        cfg.park_after_s = if park { Some(90.0) } else { None };
        let rec = Recorder::noop();
        for (shape, stream) in streams(jobs, mult, seed) {
            for p in builtins() {
                let fast = simulate_cluster(&cfg, &stream, p.as_ref(), &rec);
                let naive = simulate_cluster_reference(&cfg, &stream, p.as_ref());
                let ctx = format!("{} / {} / park={}", shape, p.name(), park);
                assert_bitwise(&fast, &naive, &ctx)?;
            }
        }
    }

    /// The incremental free-capacity aggregates always match a
    /// from-scratch recount — checked in-loop by the sampled debug
    /// assertion while these (debug) runs execute, and explicitly on the
    /// final state here, including across warm reuse of the simulator.
    #[test]
    fn incremental_aggregates_match_recount(
        jobs in 40usize..160,
        mult in 2.0f64..8.0,
        seed in 0u64..1_000,
        park_bit in 0usize..2,
    ) {
        let park = park_bit == 1;
        let mut cfg = ClusterConfig::default_fleet();
        cfg.park_after_s = if park { Some(90.0) } else { None };
        let rec = Recorder::noop();
        let mut sim = ClusterSim::new(&cfg);
        prop_assert!(sim.aggregates_consistent(), "fresh state");
        for (shape, stream) in streams(jobs, mult, seed) {
            let cold = sim.run(&stream, &Fcfs, &rec);
            prop_assert!(sim.aggregates_consistent(), "after {} run", shape);
            // Warm reuse replays bitwise (shared buffers leak no state).
            let warm = sim.run(&stream, &Fcfs, &rec);
            prop_assert!(sim.aggregates_consistent(), "after warm {} run", shape);
            assert_bitwise(&cold, &warm, &format!("{} cold-vs-warm", shape))?;
        }
    }
}
