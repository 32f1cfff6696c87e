//! Warm `Sim` calls with an enabled recorder do not touch the allocator:
//! a launch, a blocking or asynchronous transfer, and a unified-memory
//! touch that migrates pages. Kernel names are interned under the span's
//! own lock, track, metric and transfer names are cached symbols, the
//! migration plan fills a buffer the `Sim` reuses, and `Recorder::reset`
//! keeps every buffer. This file is its own test binary because it
//! installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hetsim::{
    machines, KernelProfile, Loc, OomPolicy, Recorder, Sim, StreamId, Target, TransferKind, GIB,
};

/// Counts allocations made by a thread while it is armed, so allocations
/// by the test harness's other threads (and other tests) never enter the
/// count.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

/// The allocations `f` makes on this thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(Cell::get) - before
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

const LAUNCHES: usize = 256;
const TRANSFERS: usize = 256;
/// Unified-memory regions of 1 GiB: 1.5x a sierra GPU's 16 GiB, so every
/// touch of a sequential sweep migrates.
const REGIONS: usize = 24;

/// A sierra node under unified-memory spill with an enabled recorder.
fn um_sim(rec: &Recorder) -> Sim {
    Sim::new(machines::sierra_node())
        .with_oom_policy(OomPolicy::UnifiedSpill)
        .with_recorder(rec.clone())
}

#[test]
fn warm_launch_on_allocates_nothing() {
    let rec = Recorder::enabled();
    let mut sim = Sim::new(machines::sierra_node()).with_recorder(rec.clone());
    let streams = [0, 1].map(|index| StreamId {
        target: Target::gpu(0),
        index,
    });
    let kernels = [
        KernelProfile::new("fwd").flops(1e9).bytes_read(1e8),
        KernelProfile::new("bwd").flops(2e9).bytes_read(2e8),
    ];
    // Every (stream, kernel) pair in turn.
    let launch_all = |sim: &mut Sim| {
        for i in 0..LAUNCHES {
            sim.launch_on(streams[i % 2], &kernels[(i / 2) % 2]);
        }
    };

    launch_all(&mut sim);
    rec.reset();

    let allocs = allocs_in(|| launch_all(&mut sim));
    assert_eq!(
        allocs, 0,
        "{allocs} allocations across {LAUNCHES} warm launches"
    );
    // The launches were recorded, not skipped.
    assert_eq!(rec.span_count(), LAUNCHES);
    assert_eq!(rec.counter("launches"), LAUNCHES as f64);
}

#[test]
fn warm_transfer_allocates_nothing() {
    let rec = Recorder::enabled();
    let mut sim = um_sim(&rec);
    // Both directions over the host link, and a device-local copy.
    let routes = [
        (Loc::Host, Loc::Gpu(0)),
        (Loc::Gpu(0), Loc::Host),
        (Loc::Gpu(0), Loc::Gpu(0)),
    ];
    let transfer_all = |sim: &mut Sim| {
        for i in 0..TRANSFERS {
            let (src, dst) = routes[i % routes.len()];
            sim.transfer(src, dst, 64e6, TransferKind::Memcpy);
        }
    };

    transfer_all(&mut sim);
    rec.reset();

    let allocs = allocs_in(|| transfer_all(&mut sim));
    assert_eq!(
        allocs, 0,
        "{allocs} allocations across {TRANSFERS} warm transfers"
    );
    assert_eq!(rec.span_count(), TRANSFERS);
    assert_eq!(rec.counter("transfers"), TRANSFERS as f64);
}

#[test]
fn warm_transfer_async_allocates_nothing() {
    let rec = Recorder::enabled();
    let mut sim = um_sim(&rec);
    let streams = [1, 2].map(|index| StreamId {
        target: Target::gpu(0),
        index,
    });
    let transfer_all = |sim: &mut Sim| {
        for i in 0..TRANSFERS {
            let (src, dst) = if i % 2 == 0 {
                (Loc::Host, Loc::Gpu(0))
            } else {
                (Loc::Gpu(0), Loc::Host)
            };
            let done = sim.transfer_async(src, dst, 32e6, TransferKind::Memcpy, streams[i % 2]);
            sim.wait_event(streams[(i + 1) % 2], done);
        }
    };

    transfer_all(&mut sim);
    rec.reset();

    let allocs = allocs_in(|| transfer_all(&mut sim));
    assert_eq!(
        allocs, 0,
        "{allocs} allocations across {TRANSFERS} warm async transfers"
    );
    assert_eq!(rec.span_count(), TRANSFERS);
}

#[test]
fn warm_migrating_touch_allocates_nothing() {
    let rec = Recorder::enabled();
    let mut sim = um_sim(&rec);
    let ids: Vec<_> = (0..REGIONS)
        .map(|_| sim.alloc(Loc::Gpu(0), GIB).expect("fits on the host"))
        .collect();
    // A sequential sweep over 1.5x the device: LRU evicts every region
    // before its next touch, so each touch faults in and evicts.
    let sweep = |sim: &mut Sim| {
        for &id in &ids {
            let dt = sim.touch_mem(id).expect("spills to the host");
            assert!(dt > 0.0, "every touch of the sweep migrates");
        }
    };

    // Two sweeps: the first fills the device, the second is the steady
    // shape (one page-in and one eviction per touch).
    sweep(&mut sim);
    sweep(&mut sim);
    rec.reset();

    let allocs = allocs_in(|| sweep(&mut sim));
    assert_eq!(
        allocs, 0,
        "{allocs} allocations across {REGIONS} warm migrating touches"
    );
    assert_eq!(rec.span_count(), 2 * REGIONS);
}
