//! Criterion bench for the unified `hetsim::des` event kernel (ISSUE 8):
//! hierarchical allreduce expressed as events, swept over simulated rank
//! counts up to 1M. After the criterion cells a direct throughput probe
//! prints `des.ranks_per_s.r<N> <value>` lines — simulated ranks pushed
//! and popped per host wall-second; the EXPERIMENTS.md target is ≥1M
//! ranks/s at the 1M-rank point on a release build.
//!
//! The warm jittered batch (`des/jitter_batch_r4096`) is the shape one
//! simulated training step drives: 4,096 distinct rank-ready times inside
//! 5 µs, pushed in shuffled order into a kernel reused across rounds, so
//! the calendar width has already narrowed. Its probe prints
//! `des.ns_per_event.jitter_r4096 <ns>` (one push plus one pop per
//! event), and a counting global allocator asserts the warm rounds make
//! 0 allocations per event.
//!
//! The fleet-shaped churn (`des/fleet_churn`) is the sparse timeline the
//! cluster workloads drive: 1,500 pending events spread over half an hour
//! of simulated time at the default 1 s width, each pop scheduling a
//! replacement. Its probe prints `des.ns_per_event.churn <ns>` (one pop
//! plus one push per event) and asserts 0 allocations per warm pass.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use hetsim::des::EventKernel;

/// System allocator wrapper that counts allocations, so the bench can
/// assert the warm jittered rounds stay off the allocator.
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

/// Ranks per host (the sierra preset's GPU count).
const RANKS_PER_HOST: usize = 4;

#[derive(Debug, Clone, Copy)]
enum Ev {
    Ready(usize),
    HostDone,
    RoundDone,
}

/// One hierarchical allreduce round: every rank posts a gradient-ready
/// event, each host's last arrival schedules the intra-node reduction,
/// the last host schedules the inter-node phase. Returns events popped.
fn allreduce_round(ranks: usize, intra_s: f64, inter_s: f64) -> u64 {
    let hosts = ranks.div_ceil(RANKS_PER_HOST);
    let mut kernel: EventKernel<Ev> = EventKernel::new();
    let mut host_pending = vec![0usize; hosts];
    for r in 0..ranks {
        kernel.schedule((r % 7) as f64 * 0.5e-6, Ev::Ready(r));
        host_pending[r / RANKS_PER_HOST] += 1;
    }
    let mut hosts_pending = hosts;
    let mut popped = 0u64;
    while let Some((key, ev)) = kernel.pop() {
        popped += 1;
        match ev {
            Ev::Ready(r) => {
                let h = r / RANKS_PER_HOST;
                host_pending[h] -= 1;
                if host_pending[h] == 0 {
                    kernel.schedule(key.time + intra_s, Ev::HostDone);
                }
            }
            Ev::HostDone => {
                hosts_pending -= 1;
                if hosts_pending == 0 {
                    kernel.schedule(key.time + inter_s, Ev::RoundDone);
                }
            }
            Ev::RoundDone => break,
        }
    }
    popped
}

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
}

/// Criterion cells: one allreduce round per iteration at each rank count.
fn bench_rank_sweep(c: &mut Criterion) {
    for ranks in [1024usize, 65536, 1 << 20] {
        c.bench_function(&format!("des/hier_allreduce_r{ranks}"), |b| {
            b.iter(|| allreduce_round(ranks, 1e-3, 3e-3));
        });
    }
}

/// The headline gauge: simulated ranks per host wall-second, printed in
/// the greppable `des.ranks_per_s.r<N> <value>` form.
fn bench_ranks_per_s(c: &mut Criterion) {
    for ranks in [65536usize, 1 << 20] {
        let rounds = if ranks >= 1 << 20 { 3 } else { 10 };
        let start = Instant::now();
        let mut popped = 0u64;
        for _ in 0..rounds {
            popped += allreduce_round(ranks, 1e-3, 3e-3);
        }
        let wall = start.elapsed().as_secs_f64().max(1e-12);
        let rps = (ranks * rounds) as f64 / wall;
        eprintln!("des.ranks_per_s.r{ranks} {rps:.0}  ({popped} events in {wall:.3} s)");
    }
    // Keep the harness shape: one trivial criterion cell so the group is
    // never empty even if the sweep above is trimmed.
    c.bench_function("des/kernel_push_pop_1k", |b| {
        b.iter(|| {
            let mut k: EventKernel<u32> = EventKernel::new();
            for i in 0..1024u32 {
                k.schedule((i % 13) as f64, i);
            }
            let mut n = 0u32;
            while k.pop().is_some() {
                n += 1;
            }
            n
        });
    });
}

/// Rank-ready events per jittered round.
const JITTER_RANKS: usize = 4096;
/// The rank-ready delays span this window, seconds.
const JITTER_WINDOW: f64 = 5e-6;

/// `JITTER_RANKS` distinct delays on an even grid over `JITTER_WINDOW`,
/// dealt to ranks by a fixed Fisher-Yates shuffle (SplitMix64 draws).
fn jitter_delays() -> Vec<f64> {
    let mut delays: Vec<f64> = (0..JITTER_RANKS)
        .map(|k| JITTER_WINDOW * (k as f64 + 0.5) / JITTER_RANKS as f64)
        .collect();
    let mut state = 42u64;
    for i in (1..JITTER_RANKS).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        delays.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    delays
}

/// One round on a warm kernel: every rank-ready event is scheduled 1 ms
/// past the clock plus its delay, then all are popped. Returns events
/// popped.
fn jitter_round(kernel: &mut EventKernel<u32>, delays: &[f64]) -> u64 {
    let base = kernel.now() + 1e-3;
    for (rank, dt) in delays.iter().enumerate() {
        kernel.schedule(base + dt, rank as u32);
    }
    let mut popped = 0;
    while kernel.pop().is_some() {
        popped += 1;
    }
    popped
}

/// The warm jittered batch: the criterion cell, the greppable
/// ns-per-event probe, and the allocation check.
fn bench_jitter_batch(c: &mut Criterion) {
    let delays = jitter_delays();
    let mut kernel: EventKernel<u32> = EventKernel::new();
    for _ in 0..8 {
        jitter_round(&mut kernel, &delays); // narrow the width, warm the pools
    }
    c.bench_function(&format!("des/jitter_batch_r{JITTER_RANKS}"), |b| {
        b.iter(|| jitter_round(&mut kernel, &delays));
    });

    let rounds = 200;
    let before = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    let mut events = 0u64;
    for _ in 0..rounds {
        events += jitter_round(&mut kernel, &delays);
    }
    let wall = start.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(events, (rounds * JITTER_RANKS) as u64);
    eprintln!(
        "des.ns_per_event.jitter_r{JITTER_RANKS} {:.1}  ({events} events in {wall:.3} s)",
        wall * 1e9 / events as f64
    );
    eprintln!("des/jitter_steady_state_allocs: {allocs} allocations across {events} events");
    assert_eq!(
        allocs, 0,
        "warm jittered rounds must stay off the allocator: {allocs} allocs / {events} events"
    );
}

/// Pending events of the churn: about what a 1k-node fleet keeps
/// scheduled (a finish per running job, park checks).
const CHURN_PENDING: usize = 1500;
/// Events per churn pass.
const CHURN_EVENTS: usize = 100_000;

/// Job runtimes, 5 s to half an hour (the fleet stream's classes), drawn
/// by SplitMix64: the first `CHURN_PENDING` seed the queue, the rest are
/// the replacements' delays.
fn churn_durations() -> Vec<f64> {
    let mut state = 97u64;
    (0..CHURN_PENDING + CHURN_EVENTS)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            5.0 + 1795.0 * ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

/// One churn pass from a reset kernel: each event popped schedules a
/// replacement. Returns events popped.
fn churn(kernel: &mut EventKernel<u32>, durations: &[f64]) -> u64 {
    kernel.reset();
    for (i, d) in durations[..CHURN_PENDING].iter().enumerate() {
        kernel.schedule(*d, i as u32);
    }
    for (i, d) in durations[CHURN_PENDING..].iter().enumerate() {
        let (key, _) = kernel.pop().expect("the churn keeps events pending");
        kernel.schedule(key.time + d, i as u32);
    }
    CHURN_EVENTS as u64
}

/// The fleet-shaped churn: the criterion cell, the greppable
/// ns-per-event probe, and the allocation check.
fn bench_fleet_churn(c: &mut Criterion) {
    let durations = churn_durations();
    let mut kernel: EventKernel<u32> = EventKernel::new();
    for _ in 0..2 {
        churn(&mut kernel, &durations); // size the ring and its buckets
    }
    c.bench_function("des/fleet_churn", |b| {
        b.iter(|| churn(&mut kernel, &durations));
    });

    let passes = 5;
    let before = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    let mut events = 0u64;
    for _ in 0..passes {
        events += churn(&mut kernel, &durations);
    }
    let wall = start.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    eprintln!(
        "des.ns_per_event.churn {:.1}  ({events} events in {wall:.3} s)",
        wall * 1e9 / events as f64
    );
    eprintln!("des/churn_steady_state_allocs: {allocs} allocations across {events} events");
    assert_eq!(
        allocs, 0,
        "warm churn passes must stay off the allocator: {allocs} allocs / {events} events"
    );
}

criterion_group! {
    name = benches;
    config = configure();
    targets = bench_rank_sweep, bench_ranks_per_s, bench_jitter_batch, bench_fleet_churn
}
criterion_main!(benches);
