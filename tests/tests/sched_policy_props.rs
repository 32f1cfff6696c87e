//! Property-based tests for the `SchedPolicy` trait on the §4.7 GPU
//! pool (`icoe::cluster::simulate_pool`): every built-in policy upholds
//! the simulator invariants, and the classic policy orderings hold.

use icoe::cluster::simulate_pool;
use proptest::prelude::*;
use sched::{EasyBackfill, Fcfs, GpuBinPack, Job, SchedPolicy, Sjf, SjfQuota, SlaUrgency};

fn jobs_from(durations: &[f64], gaps: &[f64], widths: &[usize], gpus: usize) -> Vec<Job> {
    let mut t = 0.0;
    durations
        .iter()
        .zip(gaps)
        .zip(widths)
        .enumerate()
        .map(|(id, ((&d, &gap), &w))| {
            t += gap;
            Job {
                id,
                arrival: t,
                duration: d,
                gpus: 1 + w % gpus,
            }
        })
        .collect()
}

fn builtins() -> Vec<Box<dyn SchedPolicy>> {
    vec![
        Box::new(Fcfs),
        Box::new(Sjf),
        Box::new(SjfQuota { quota: 4 }),
        Box::new(EasyBackfill),
        Box::new(GpuBinPack),
        Box::new(SlaUrgency),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every built-in trait policy completes every job, never exceeds
    /// unit utilization, and cannot beat the work bound.
    #[test]
    fn every_builtin_upholds_the_simulator_invariants(
        durations in prop::collection::vec(0.5f64..80.0, 1..50),
        gaps in prop::collection::vec(0.0f64..10.0, 50),
        widths in prop::collection::vec(0usize..8, 50),
    ) {
        let gpus = 4usize;
        let jobs = jobs_from(&durations, &gaps, &widths, gpus);
        let work: f64 = jobs.iter().map(|j| j.duration * j.gpus as f64).sum();
        for p in builtins() {
            let m = simulate_pool(&jobs, gpus, p.as_ref());
            prop_assert_eq!(m.completed, jobs.len(), "{}", p.name());
            prop_assert!(m.utilization <= 1.0 + 1e-9, "{}", p.name());
            prop_assert!(
                m.makespan + 1e-9 >= work / gpus as f64,
                "{} beat the work bound", p.name()
            );
            prop_assert!(m.mean_wait <= m.max_wait + 1e-9);
        }
    }

    /// On a batch (everything arrives at once, uniform width), SJF is the
    /// mean-wait-optimal order — FCFS can never do better, and the quota
    /// variant sits between the two.
    #[test]
    fn fcfs_wait_dominates_sjf_quota_on_batches(
        durations in prop::collection::vec(1.0f64..100.0, 2..40),
    ) {
        let jobs: Vec<Job> = durations
            .iter()
            .enumerate()
            .map(|(id, &d)| Job { id, arrival: 0.0, duration: d, gpus: 1 })
            .collect();
        let fcfs = simulate_pool(&jobs, 1, &Fcfs);
        let quota = simulate_pool(&jobs, 1, &SjfQuota { quota: 1_000_000 });
        let sjf = simulate_pool(&jobs, 1, &Sjf);
        prop_assert!(
            fcfs.mean_wait + 1e-9 >= quota.mean_wait,
            "FCFS {} < SJF+Quota {}", fcfs.mean_wait, quota.mean_wait
        );
        prop_assert!(quota.mean_wait + 1e-9 >= sjf.mean_wait);
        // Same single-GPU batch: identical makespan no matter the order.
        prop_assert!((fcfs.makespan - sjf.makespan).abs() < 1e-9);
    }

    /// With capacity for every job at once, each work-conserving policy
    /// degenerates to start-on-arrival: zero waits and metrics identical
    /// across all six built-ins.
    #[test]
    fn abundant_capacity_makes_every_policy_equal(
        durations in prop::collection::vec(1.0f64..50.0, 1..20),
        gaps in prop::collection::vec(0.0f64..5.0, 20),
        widths in prop::collection::vec(0usize..4, 20),
    ) {
        let gpus = 4 * durations.len(); // everything fits simultaneously
        let jobs = jobs_from(&durations, &gaps, &widths, 4);
        let reference = simulate_pool(&jobs, gpus, &Fcfs);
        prop_assert!(reference.mean_wait.abs() < 1e-12, "no job ever waits");
        for p in builtins() {
            let m = simulate_pool(&jobs, gpus, p.as_ref());
            prop_assert_eq!(m.makespan.to_bits(), reference.makespan.to_bits(), "{}", p.name());
            prop_assert_eq!(m.mean_wait.to_bits(), reference.mean_wait.to_bits(), "{}", p.name());
            prop_assert_eq!(m.completed, reference.completed);
        }
    }
}
