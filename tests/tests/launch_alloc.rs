//! The workspace's allocation bars under `cargo test`: warm hot paths
//! with an enabled recorder do not touch the allocator. This file is its
//! own test binary because it installs a counting global allocator.
//!
//! * `Sim`: a launch, a blocking or asynchronous transfer, and a
//!   unified-memory touch that migrates pages. Kernel names are interned
//!   under the span's own lock, track, metric and transfer names are
//!   cached symbols, the migration plan fills a buffer the `Sim` reuses,
//!   and `Recorder::reset` keeps every buffer.
//!   A node-step-shaped cycle (allocate, touch and free a working set
//!   1.5x the device) reuses its regions' and locations' map slots.
//! * `Network`: a hierarchical allreduce, whose span name and `nic<r>.inj`
//!   track names are interned when the recorder is attached, and
//!   point-to-point flows, whose `p2p:<src>-><dst>` names are interned on
//!   each route's first flow.
//! * the `hetsim::des` kernel: ring buckets, the head and the overflow
//!   keep their buffers across rounds, so the steady state of both event
//!   shapes the workspace drives allocates nothing — the node-step round
//!   (4,096 rank-ready events at distinct times inside 5 µs, pushed in
//!   shuffled order, then drained, round after round on one kernel) and
//!   the fleet-shaped churn (~1,500 pending events over half an hour of
//!   simulated time at the default width, each pop scheduling a
//!   replacement).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hetsim::des::EventKernel;
use hetsim::{
    machines, AllReduceAlgo, CollectiveKind, KernelProfile, Loc, Network, OomPolicy, Recorder, Sim,
    StreamId, Target, TransferKind, GIB,
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
// `System` upholds the `GlobalAlloc` contract; counting touches only
// const-initialised thread-locals, which do not allocate.
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
const COLLECTIVES: usize = 64;
/// Unified-memory regions of 1 GiB: 1.5x a sierra GPU's 16 GiB, so every
/// touch of a sequential sweep migrates.
const REGIONS: usize = 24;
/// Measured alloc-touch-free cycles of `REGIONS` regions.
const CYCLES: usize = 4;
/// Ranks of the point-to-point exchange: every one shows a NIC track.
const P2P_RANKS: usize = 8;
const EXCHANGES: usize = 64;

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

#[test]
fn warm_alloc_touch_free_cycle_allocates_nothing() {
    let rec = Recorder::enabled();
    let mut sim = um_sim(&rec);
    let mut ids = Vec::with_capacity(REGIONS);
    // node-step's memory phase: the working set is allocated, swept once
    // (every touch migrates) and freed, step after step.
    let cycle = |sim: &mut Sim, ids: &mut Vec<_>| {
        ids.clear();
        for _ in 0..REGIONS {
            ids.push(sim.alloc(Loc::Gpu(0), GIB).expect("fits on the host"));
        }
        for &id in ids.iter() {
            sim.touch_mem(id).expect("spills to the host");
        }
        for &id in ids.iter() {
            sim.free(id);
        }
    };

    cycle(&mut sim, &mut ids);
    rec.reset();

    let allocs = allocs_in(|| {
        for _ in 0..CYCLES {
            cycle(&mut sim, &mut ids);
        }
    });
    assert_eq!(
        allocs, 0,
        "{allocs} allocations across {CYCLES} warm alloc-touch-free cycles"
    );
    assert_eq!(sim.mem().live_regions(), 0);
    assert_eq!(sim.mem().in_use(Loc::Gpu(0)), 0.0);
    // Every touch migrated: a page-in, plus an eviction once the device
    // is full.
    assert!(rec.span_count() >= CYCLES * REGIONS);
}

#[test]
fn warm_ip2p_allocates_nothing() {
    let rec = Recorder::enabled();
    let net = Network::for_machine(&machines::sierra(), P2P_RANKS).with_recorder(rec.clone());
    // Every rank sends to its two ring neighbours.
    let exchange = |net: &Network| {
        for src in 0..P2P_RANKS {
            for dst in [(src + 1) % P2P_RANKS, (src + P2P_RANKS - 1) % P2P_RANKS] {
                net.ip2p(src, dst, 1e6, None);
            }
        }
    };

    exchange(&net);
    rec.reset();

    let allocs = allocs_in(|| {
        for _ in 0..EXCHANGES {
            exchange(&net);
        }
    });
    assert_eq!(
        allocs, 0,
        "{allocs} allocations across {EXCHANGES} warm neighbour exchanges"
    );
    // One span per flow, under its route's name.
    let spans = rec.spans();
    assert_eq!(spans.len(), EXCHANGES * 2 * P2P_RANKS);
    assert_eq!(spans[0].name, "p2p:0->1");
    assert_eq!(spans[1].name, format!("p2p:0->{}", P2P_RANKS - 1));
    assert_eq!(rec.counter("net.p2p"), (EXCHANGES * 2 * P2P_RANKS) as f64);
}

#[test]
fn warm_hierarchical_allreduce_allocates_nothing() {
    let rec = Recorder::enabled();
    let net = Network::for_machine(&machines::sierra(), 64)
        .with_algo(AllReduceAlgo::Hierarchical)
        .with_recorder(rec.clone());
    // Blocking and non-blocking issues alternate.
    let reduce_all = |net: &Network| {
        for i in 0..COLLECTIVES {
            if i % 2 == 0 {
                net.collective(CollectiveKind::AllReduce, 64e6);
            } else {
                net.icollective(CollectiveKind::AllReduce, 64e6, None);
            }
        }
    };

    reduce_all(&net);
    rec.reset();

    let allocs = allocs_in(|| reduce_all(&net));
    assert_eq!(
        allocs, 0,
        "{allocs} allocations across {COLLECTIVES} warm hierarchical allreduces"
    );
    // One span per NIC track shown, under the hierarchical name.
    let spans = rec.spans();
    assert_eq!(spans.len(), COLLECTIVES * 8);
    for (i, span) in spans.iter().enumerate() {
        assert_eq!(span.name, "allreduce.hier");
        assert_eq!(span.track, format!("nic{}.inj", i % 8));
    }
    assert_eq!(rec.counter("net.allreduce"), COLLECTIVES as f64);
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
const JITTER_ROUNDS: usize = 200;

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
    let allocs = allocs_in(|| {
        for _ in 0..JITTER_ROUNDS {
            jitter_round(&mut kernel, &delays);
        }
    });
    assert_eq!(
        allocs, 0,
        "{allocs} allocations across {JITTER_ROUNDS} warm rounds"
    );
}

const PENDING: usize = 1500;
const CHURN: usize = 100_000;

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
    let allocs = allocs_in(|| churn(&mut kernel, &durations));
    assert_eq!(allocs, 0, "{allocs} allocations across {CHURN} warm events");
}
