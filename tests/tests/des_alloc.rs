//! A warm `hetsim::des` kernel does not touch the allocator: ring buckets,
//! the head and the overflow keep their buffers across rounds, so the
//! steady state of both event shapes the workspace drives allocates
//! nothing. This file is its own test binary because it installs a
//! counting global allocator.
//!
//! * the node-step round: 4,096 rank-ready events at distinct times
//!   inside 5 µs, pushed in shuffled order, then drained, round after
//!   round on one kernel;
//! * the fleet-shaped churn: ~1,500 pending events over half an hour of
//!   simulated time at the default width, each pop scheduling a
//!   replacement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use hetsim::des::EventKernel;

/// Counts allocations made by a thread while it is armed, so allocations
/// by the test harness's other threads never enter the count.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note_alloc() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` upholds the `GlobalAlloc` contract; counting touches only an
// atomic and a const-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `realloc`'s contract, and `ptr` came
        // from `System` via this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocs_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

/// SplitMix64, so the inputs depend on the seed and nothing else.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const RANKS: usize = 4096;

/// One node-step round on `kernel`: every rank-ready event 1 ms past the
/// clock plus its delay, then all popped.
fn jitter_round(kernel: &mut EventKernel<u32>, delays: &[f64]) {
    let base = kernel.now() + 1e-3;
    for (rank, dt) in delays.iter().enumerate() {
        kernel.schedule(base + dt, rank as u32);
    }
    let mut popped = 0;
    while kernel.pop().is_some() {
        popped += 1;
    }
    assert_eq!(popped, delays.len());
}

#[test]
fn warm_jitter_rounds_allocate_nothing() {
    let mut rng = SplitMix(42);
    let mut delays: Vec<f64> = (0..RANKS)
        .map(|k| 5e-6 * (k as f64 + 0.5) / RANKS as f64)
        .collect();
    for i in (1..RANKS).rev() {
        delays.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let mut kernel = EventKernel::new();
    for _ in 0..16 {
        jitter_round(&mut kernel, &delays); // narrow the width, size the ring
    }
    let allocs = allocs_of(|| {
        for _ in 0..32 {
            jitter_round(&mut kernel, &delays);
        }
    });
    assert_eq!(allocs, 0, "{allocs} allocations across 32 warm rounds");
}

const PENDING: usize = 1500;
const CHURN: usize = 20_000;

/// One churn pass from a reset kernel: `PENDING` events scheduled, then
/// each pop schedules a replacement `durations[i]` seconds past it.
fn churn(kernel: &mut EventKernel<u32>, durations: &[f64]) {
    kernel.reset();
    for (i, d) in durations[..PENDING].iter().enumerate() {
        kernel.schedule(*d, i as u32);
    }
    for (i, d) in durations[PENDING..].iter().enumerate() {
        let (key, _) = kernel.pop().expect("the churn keeps events pending");
        kernel.schedule(key.time + d, i as u32);
    }
    assert_eq!(kernel.len(), PENDING);
}

#[test]
fn warm_fleet_churn_allocates_nothing() {
    // Job runtimes of the fleet stream's classes: 5 s to half an hour.
    let mut rng = SplitMix(97);
    let durations: Vec<f64> = (0..PENDING + CHURN)
        .map(|_| 5.0 + 1795.0 * rng.unit())
        .collect();
    let mut kernel = EventKernel::new();
    for _ in 0..2 {
        churn(&mut kernel, &durations); // size the ring and its buckets
    }
    let allocs = allocs_of(|| churn(&mut kernel, &durations));
    assert_eq!(allocs, 0, "{allocs} allocations across {CHURN} warm events");
}
