//! A warm `Sim::launch_on` with an enabled recorder does not touch the
//! allocator: the kernel name is interned under the span's own lock, the
//! track and metric names are cached symbols, and `Recorder::reset` keeps
//! every buffer. This file is its own test binary because it installs a
//! counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use hetsim::{machines, KernelProfile, Recorder, Sim, StreamId, Target};

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

const LAUNCHES: usize = 256;

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

    ARMED.with(|a| a.set(true));
    launch_all(&mut sim);
    ARMED.with(|a| a.set(false));

    let allocs = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        allocs, 0,
        "{allocs} allocations across {LAUNCHES} warm launches"
    );
    // The launches were recorded, not skipped.
    assert_eq!(rec.span_count(), LAUNCHES);
    assert_eq!(rec.counter("launches"), LAUNCHES as f64);
}
