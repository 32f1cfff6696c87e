//! Criterion benches for the ISSUE-10 incremental cluster serving loop.
//!
//! Four layers:
//!
//! * **Serving sweep** — full streams through `ClusterSim::run` across
//!   jobs 10k/100k × fleet 64/1000 nodes × FCFS/SJF/SLA-Urgency. The
//!   simulator is built once per cell and reused, so criterion times the
//!   warm steady state the incremental design optimizes for.
//! * **Flash crowd** — 1,800 single-GPU jobs at 1,000 jobs/s onto an idle
//!   1k-node fleet under SJF/SLA-Urgency/EASY-Backfill: the queue runs
//!   hundreds deep, so `SchedPolicy::select` (one `ClusterView::fits` per
//!   queued job, answered by the free-capacity index) dominates.
//! * **Million-job probe** — the acceptance bar of ISSUE 10: 1M jobs,
//!   FCFS, 1k-node fleet, measured directly (criterion's sample loop is
//!   wasteful at ~1 s/iteration) and reported as placed jobs per
//!   host-second on stderr. Expected ≥1M jobs/s in release on a modern
//!   host; the CI smoke enforces a conservative 100k floor via the
//!   `cluster-throughput` experiment.
//! * **Allocation audit** — the counting global allocator (the
//!   `benches/recorder.rs` harness extended to the serving loop)
//!   measures allocations across a *warm* 100k-job serve with a noop
//!   recorder under FCFS, SLA-Urgency and EASY-Backfill, and asserts the
//!   steady state rounds to **0 allocations per event** (< 0.01; the
//!   residue is rare calendar-bucket pool growth and the final
//!   wait-percentile sort).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bench::exps_cluster::{fleet_scaled, rate_for};
use criterion::{criterion_group, criterion_main, Criterion};
use hetsim::obs::Recorder;
use icoe::cluster::{job_stream, ClusterJob, ClusterSim, StreamConfig};
use sched::{EasyBackfill, Fcfs, SchedPolicy, Sjf, SlaUrgency};

/// System allocator wrapper that counts allocations, so the bench can
/// assert the serving loop's steady state stays off the allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
}

fn stream(jobs: usize, nodes: usize) -> Vec<ClusterJob> {
    let mut cfg = StreamConfig::baseline(jobs, 10);
    cfg.base_rate = rate_for(nodes);
    job_stream(&cfg)
}

/// Bench label suffix for a policy: `SLA-Urgency` -> `sla_urgency`.
fn policy_label(p: &dyn SchedPolicy) -> String {
    p.name().to_lowercase().replace('-', "_")
}

/// The serving sweep: jobs × fleet × policy, warm simulator per cell.
fn bench_serving(c: &mut Criterion) {
    let rec = Recorder::noop();
    for nodes in [64usize, 1000] {
        let fleet = fleet_scaled(nodes);
        for jobs_n in [10_000usize, 100_000] {
            let jobs = stream(jobs_n, nodes);
            for p in [&Fcfs as &dyn SchedPolicy, &Sjf, &SlaUrgency] {
                let mut sim = ClusterSim::new(&fleet);
                sim.run(&jobs, p, &rec); // warm the buffers out of the timing
                let label = format!(
                    "cluster/serve_j{}k_n{}_{}",
                    jobs_n / 1000,
                    nodes,
                    policy_label(p)
                );
                c.bench_function(&label, |b| {
                    b.iter(|| {
                        let m = sim.run(&jobs, p, &rec);
                        assert_eq!(m.completed, jobs.len());
                    })
                });
            }
        }
    }
}

/// The deep-queue cell: one flash crowd of single-GPU jobs, far more than
/// the fleet has GPUs, landing on an idle 1k-node fleet.
fn bench_burst(c: &mut Criterion) {
    let rec = Recorder::noop();
    let fleet = fleet_scaled(1000);
    let mut cfg = StreamConfig::baseline(1_800, 10);
    cfg.base_rate = 1_000.0;
    cfg.mix = [1.0, 0.0, 0.0, 0.0]; // GPU bursts only: one GPU each
    let jobs = job_stream(&cfg);
    for p in [&Sjf as &dyn SchedPolicy, &SlaUrgency, &EasyBackfill] {
        let mut sim = ClusterSim::new(&fleet);
        sim.run(&jobs, p, &rec); // warm the buffers out of the timing
        c.bench_function(
            &format!("cluster/burst_j1800_n1000_{}", policy_label(p)),
            |b| {
                b.iter(|| {
                    let m = sim.run(&jobs, p, &rec);
                    assert_eq!(m.completed, jobs.len());
                })
            },
        );
    }
}

/// The ISSUE-10 acceptance probe: 1M jobs, FCFS, 1k-node fleet, timed
/// directly on a warm simulator. Prints placed jobs per host-second.
fn million_job_probe(_c: &mut Criterion) {
    let fleet = fleet_scaled(1000);
    let jobs = stream(1_000_000, 1000);
    let rec = Recorder::noop();
    let mut sim = ClusterSim::new(&fleet);
    sim.run(&jobs, &Fcfs, &rec); // warm
    let start = Instant::now();
    let m = sim.run(&jobs, &Fcfs, &rec);
    let wall = start.elapsed().as_secs_f64().max(1e-12);
    assert_eq!(m.completed, jobs.len());
    eprintln!(
        "cluster/million_job_probe: {} jobs placed in {:.3} s -> {:.0} jobs/s \
         (acceptance bar: >= 1,000,000 jobs/s release)",
        m.completed,
        wall,
        m.completed as f64 / wall
    );
}

/// A multi-GPU flash crowd: one-, two- and four-GPU jobs arriving at 100
/// jobs/s on an idle 1k-node fleet, far faster than it drains them. The
/// queue runs deep behind wide heads that do not fit while narrower jobs
/// behind them do, so EASY-Backfill works out its shadow on most selects
/// (the steady stream's head almost never blocks).
fn crowd_stream() -> Vec<ClusterJob> {
    let mut cfg = StreamConfig::baseline(CROWD_JOBS, 10);
    cfg.base_rate = 100.0;
    cfg.mix = [0.5, 0.5, 0.0, 0.0]; // GPU bursts and 2-/4-GPU solves
    job_stream(&cfg)
}

const CROWD_JOBS: usize = 5_000;

/// The allocation audit: a warm serve must not touch the allocator in
/// its steady state (noop recorder). Asserted, not just reported: the
/// serving loop's "0 allocations per event" acceptance criterion. FCFS
/// places through the simulator's fallback query, SLA-Urgency pins
/// through `ClusterView::fastest_fit`, and EASY-Backfill works out its
/// shadow: each path, and the free-capacity index they keep current,
/// must stay off the allocator once the simulator is warm. The steady
/// stream covers the first two; the multi-GPU crowd is where EASY's head
/// blocks and its shadow is worked out.
fn allocation_audit(_c: &mut Criterion) {
    let fleet = fleet_scaled(1000);
    let rec = Recorder::noop();
    let steady = stream(100_000, 1000);
    let crowd = crowd_stream();
    let audits: [(&str, &[ClusterJob], &[&dyn SchedPolicy]); 2] = [
        ("steady", &steady, &[&Fcfs, &SlaUrgency, &EasyBackfill]),
        ("crowd", &crowd, &[&Fcfs, &EasyBackfill]),
    ];
    for (name, jobs, policies) in audits {
        let mut sim = ClusterSim::new(&fleet);
        for &p in policies {
            sim.run(jobs, p, &rec); // warm: buffers grown, arena sized

            // Arrive + Finish per job, plus the initial park sweep and
            // governor park checks — a conservative lower bound on events
            // processed.
            let events = (2 * jobs.len()) as f64;
            let before = ALLOCS.load(Ordering::Relaxed);
            let m = sim.run(jobs, p, &rec);
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            assert_eq!(m.completed, jobs.len());
            let per_event = allocs as f64 / events;
            eprintln!(
                "cluster/steady_state_allocs_{}{}: {allocs} allocations across {} events \
                 ({per_event:.4} allocs/event)",
                policy_label(p),
                if name == "steady" {
                    String::new()
                } else {
                    format!("_{name}")
                },
                events as u64
            );
            assert!(
                per_event < 0.01,
                "{} on the {name} stream: steady-state serving loop must stay off the \
                 allocator: {allocs} allocs / {events} events = {per_event:.4}",
                p.name()
            );
        }
    }
}

criterion_group! {
    name = benches;
    config = configure();
    targets = bench_serving, bench_burst, million_job_probe, allocation_audit
}
criterion_main!(benches);
