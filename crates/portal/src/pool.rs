//! Umpire-like memory pools.
//!
//! §4.10.5: "all data is allocated from memory pools that Umpire provides,
//! which amortizes the cost of these allocations." A raw `cudaMalloc` costs
//! tens of microseconds and synchronises the device; a pool hit costs
//! almost nothing. The pool tracks a free list per size class and reports
//! statistics so SAMRAI-style amortisation claims can be benchmarked.

use std::collections::BTreeMap;

use hetsim::obs::Recorder;
use parking_lot::Mutex;

/// Memory space an allocation lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    Host,
    Device,
    /// CUDA unified (managed) memory.
    Unified,
}

impl Space {
    /// Cost in seconds of a *fresh* OS/driver allocation in this space.
    pub fn raw_alloc_cost(&self) -> f64 {
        match self {
            // malloc + page faults on first touch.
            Space::Host => 2e-6,
            // cudaMalloc synchronises the device.
            Space::Device => 80e-6,
            // cudaMallocManaged is costlier still.
            Space::Unified => 120e-6,
        }
    }

    /// Cost of handing out a pooled block.
    pub fn pooled_alloc_cost(&self) -> f64 {
        0.2e-6
    }
}

/// Allocation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolStats {
    pub allocs: u64,
    pub pool_hits: u64,
    pub raw_allocs: u64,
    /// Bytes in blocks currently handed out to callers.
    pub bytes_live: u64,
    /// Bytes parked on the free lists, still owned by the pool. A freed
    /// device block is *not* returned to the driver — Umpire keeps it —
    /// so it still occupies device memory.
    pub bytes_cached: u64,
    /// Peak pool footprint: the maximum of `bytes_live + bytes_cached`
    /// ever observed. This is what capacity planning must budget for,
    /// not the live watermark alone.
    pub bytes_high_water: u64,
    /// Cached blocks released back to the driver to make room under a
    /// capacity bound (the Umpire "coalesce/release" path).
    pub trims: u64,
    /// Bytes released by those trims.
    pub bytes_trimmed: u64,
    /// Allocations that could not fit under the capacity bound even after
    /// trimming and fell back to host memory (graceful degradation, the
    /// §4.10.1 shape: run slower rather than abort).
    pub host_spills: u64,
    /// Bytes currently handed out as host-spilled blocks. These do *not*
    /// count against [`PoolStats::footprint`], which tracks the pool's own
    /// space.
    pub bytes_spilled: u64,
    /// Simulated seconds spent in allocation calls.
    pub alloc_seconds: f64,
}

impl PoolStats {
    /// Total bytes the pool currently owns (live + cached).
    pub fn footprint(&self) -> u64 {
        self.bytes_live + self.bytes_cached
    }
}

/// A size-class pool for one memory space.
#[derive(Debug)]
pub struct Pool {
    space: Space,
    /// Optional bound on [`PoolStats::footprint`] (live + cached bytes).
    /// `None` preserves the historical unbounded behaviour.
    capacity: Option<u64>,
    inner: Mutex<PoolInner>,
    recorder: Recorder,
}

#[derive(Debug, Default)]
struct PoolInner {
    /// Free blocks by rounded size class.
    free: BTreeMap<u64, u64>,
    /// Outstanding (handed-out) blocks by size class. [`Block`] is `Copy`,
    /// so nothing stops a caller freeing the same handle twice; this count
    /// is how the pool catches it instead of silently inflating the free
    /// list.
    outstanding: BTreeMap<u64, u64>,
    /// Outstanding host-spilled blocks by size class, tracked separately so
    /// the double-free check still works for them.
    outstanding_spilled: BTreeMap<u64, u64>,
    stats: PoolStats,
}

/// Round a request up to its size class (next power of two, min 256 B).
fn size_class(bytes: u64) -> u64 {
    bytes.max(256).next_power_of_two()
}

/// A pooled allocation handle. Return it with [`Pool::free`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    pub class: u64,
    pub space: Space,
    /// True when the capacity bound forced this block to host memory
    /// instead of the pool's own space. Kernels touching it pay link
    /// bandwidth instead of HBM bandwidth — slower, but the run survives.
    pub spilled: bool,
}

impl Pool {
    pub fn new(space: Space) -> Pool {
        Pool {
            space,
            capacity: None,
            inner: Mutex::new(PoolInner::default()),
            recorder: Recorder::noop(),
        }
    }

    /// Bound the pool's footprint (live + cached) to `bytes` (builder
    /// form). When an allocation would exceed the bound the pool first
    /// trims cached blocks back to the driver; if the *live* bytes alone
    /// still do not fit, the block spills to host memory and is marked
    /// [`Block::spilled`] — graceful degradation instead of an abort.
    pub fn with_capacity(mut self, bytes: u64) -> Pool {
        self.capacity = Some(bytes);
        self
    }

    /// The configured footprint bound, if any.
    pub fn capacity(&self) -> Option<u64> {
        self.capacity
    }

    /// Attach an observability recorder (builder form): allocation traffic
    /// and the hit-rate gauge are published under `pool.*`.
    pub fn with_recorder(mut self, recorder: Recorder) -> Pool {
        self.recorder = recorder;
        self
    }

    /// Attach an observability recorder in place.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    pub fn space(&self) -> Space {
        self.space
    }

    /// Allocate `bytes`; returns the handle and the simulated cost paid.
    ///
    /// Under a capacity bound ([`Pool::with_capacity`]) a fresh allocation
    /// that would push the footprint over the limit first trims cached
    /// blocks (releasing them to the driver, as Umpire's `release()` does);
    /// if live bytes alone still exceed the bound, the block is handed out
    /// from *host* memory instead and marked [`Block::spilled`].
    pub fn alloc(&self, bytes: u64) -> (Block, f64) {
        let class = size_class(bytes);
        let mut g = self.inner.lock();
        g.stats.allocs += 1;

        // Pool hit: cached -> live, footprint unchanged, never violates the
        // capacity bound.
        let hit = matches!(g.free.get(&class), Some(n) if *n > 0);
        if hit {
            *g.free.get_mut(&class).unwrap() -= 1;
            g.stats.pool_hits += 1;
            g.stats.bytes_cached -= class;
            let cost = self.space.pooled_alloc_cost();
            *g.outstanding.entry(class).or_insert(0) += 1;
            g.stats.alloc_seconds += cost;
            g.stats.bytes_live += class;
            g.stats.bytes_high_water = g.stats.bytes_high_water.max(g.stats.footprint());
            self.publish(&g, cost, true, false);
            return (
                Block {
                    class,
                    space: self.space,
                    spilled: false,
                },
                cost,
            );
        }

        // Fresh block: grows the footprint; enforce the bound.
        if let Some(cap) = self.capacity {
            // Step 1 — trim cached blocks back to the driver until the new
            // block fits (largest classes first: fewest releases).
            while g.stats.footprint() + class > cap && g.stats.bytes_cached > 0 {
                let victim = *g
                    .free
                    .iter()
                    .rev()
                    .find(|(_, n)| **n > 0)
                    .map(|(c, _)| c)
                    .expect("bytes_cached > 0 implies a non-empty free list");
                *g.free.get_mut(&victim).unwrap() -= 1;
                g.stats.bytes_cached -= victim;
                g.stats.trims += 1;
                g.stats.bytes_trimmed += victim;
            }
            // Step 2 — still does not fit: spill the block to host.
            if g.stats.bytes_live + class > cap {
                let cost = Space::Host.raw_alloc_cost();
                g.stats.host_spills += 1;
                g.stats.bytes_spilled += class;
                *g.outstanding_spilled.entry(class).or_insert(0) += 1;
                g.stats.alloc_seconds += cost;
                self.publish(&g, cost, false, true);
                return (
                    Block {
                        class,
                        space: self.space,
                        spilled: true,
                    },
                    cost,
                );
            }
        }

        g.stats.raw_allocs += 1;
        let cost = self.space.raw_alloc_cost();
        *g.outstanding.entry(class).or_insert(0) += 1;
        g.stats.alloc_seconds += cost;
        g.stats.bytes_live += class;
        g.stats.bytes_high_water = g.stats.bytes_high_water.max(g.stats.footprint());
        self.publish(&g, cost, false, false);
        (
            Block {
                class,
                space: self.space,
                spilled: false,
            },
            cost,
        )
    }

    /// Publish the per-allocation metrics under one recorder lock (no-op
    /// when the recorder is the default noop handle).
    fn publish(&self, g: &PoolInner, cost: f64, hit: bool, spilled: bool) {
        let Some(mut batch) = self.recorder.batch() else {
            return;
        };
        batch.incr("pool.allocs", 1.0);
        if hit {
            batch.incr("pool.hits", 1.0);
        } else if spilled {
            batch.incr("pool.host_spills", 1.0);
        } else {
            batch.incr("pool.raw_allocs", 1.0);
        }
        batch.incr("pool.alloc_seconds", cost);
        batch.gauge(
            "pool.hit_rate",
            g.stats.pool_hits as f64 / g.stats.allocs as f64,
        );
        batch.gauge("pool.bytes_live", g.stats.bytes_live as f64);
        batch.gauge("pool.bytes_cached", g.stats.bytes_cached as f64);
        batch.gauge("pool.bytes_spilled", g.stats.bytes_spilled as f64);
    }

    /// Return a block to the pool (it stays cached for reuse, and keeps
    /// counting against [`PoolStats::footprint`] via `bytes_cached`).
    ///
    /// # Panics
    ///
    /// [`Block`] is `Copy`, so the type system cannot stop a handle being
    /// freed twice. Before this check, a double free silently inflated
    /// the free list (one real block, two cached entries) and made
    /// `bytes_live` drift low. The pool now tracks outstanding blocks per
    /// size class and panics on a free with none outstanding.
    pub fn free(&self, block: Block) {
        assert_eq!(block.space, self.space, "block returned to wrong pool");
        let mut g = self.inner.lock();
        if block.spilled {
            // Host-spilled blocks go straight back to the OS; they never
            // enter the device free list.
            match g.outstanding_spilled.get_mut(&block.class) {
                Some(n) if *n > 0 => *n -= 1,
                _ => panic!(
                    "double free: no outstanding spilled {}-byte block in the {:?} pool",
                    block.class, self.space
                ),
            }
            g.stats.bytes_spilled -= block.class;
            if self.recorder.is_enabled() {
                self.recorder
                    .gauge("pool.bytes_spilled", g.stats.bytes_spilled as f64);
            }
            return;
        }
        match g.outstanding.get_mut(&block.class) {
            Some(n) if *n > 0 => *n -= 1,
            _ => panic!(
                "double free: no outstanding {}-byte block in the {:?} pool",
                block.class, self.space
            ),
        }
        *g.free.entry(block.class).or_insert(0) += 1;
        g.stats.bytes_live -= block.class;
        g.stats.bytes_cached += block.class;
        if self.recorder.is_enabled() {
            self.recorder
                .gauge("pool.bytes_live", g.stats.bytes_live as f64);
            self.recorder
                .gauge("pool.bytes_cached", g.stats.bytes_cached as f64);
        }
    }

    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }

    /// Fraction of allocations served from the pool.
    pub fn hit_rate(&self) -> f64 {
        let s = self.stats();
        if s.allocs == 0 {
            0.0
        } else {
            s.pool_hits as f64 / s.allocs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_round_up() {
        assert_eq!(size_class(1), 256);
        assert_eq!(size_class(256), 256);
        assert_eq!(size_class(257), 512);
        assert_eq!(size_class(1 << 20), 1 << 20);
    }

    #[test]
    fn first_alloc_is_raw_second_is_pooled() {
        let p = Pool::new(Space::Device);
        let (b, c1) = p.alloc(1000);
        p.free(b);
        let (_, c2) = p.alloc(900); // same class
        assert!(c1 > 10.0 * c2, "raw {c1} pooled {c2}");
        assert_eq!(p.stats().pool_hits, 1);
    }

    #[test]
    fn steady_state_hit_rate_approaches_one() {
        // The SAMRAI pattern: per-timestep temporaries of repeating sizes.
        let p = Pool::new(Space::Device);
        for _ in 0..100 {
            let (a, _) = p.alloc(4096);
            let (b, _) = p.alloc(16384);
            p.free(a);
            p.free(b);
        }
        assert!(p.hit_rate() > 0.98);
    }

    #[test]
    fn high_water_tracks_peak() {
        let p = Pool::new(Space::Host);
        let (a, _) = p.alloc(1 << 20);
        let (b, _) = p.alloc(1 << 20);
        p.free(a);
        p.free(b);
        let s = p.stats();
        assert_eq!(s.bytes_high_water, 2 << 20);
        assert_eq!(s.bytes_live, 0);
        // Freed blocks stay pool-owned: the footprint has not shrunk.
        assert_eq!(s.bytes_cached, 2 << 20);
        assert_eq!(s.footprint(), 2 << 20);
    }

    #[test]
    fn high_water_includes_pool_held_bytes() {
        // Regression: a cached block still occupies device memory. Alloc
        // 1 MiB, free it (pool keeps it), then alloc 2 MiB of a different
        // class: the real footprint peaks at 3 MiB, not the 2 MiB the old
        // live-only watermark reported.
        let p = Pool::new(Space::Device);
        let (a, _) = p.alloc(1 << 20);
        p.free(a);
        let _ = p.alloc(2 << 20);
        let s = p.stats();
        assert_eq!(s.bytes_live, 2 << 20);
        assert_eq!(s.bytes_cached, 1 << 20);
        assert_eq!(
            s.bytes_high_water,
            3 << 20,
            "watermark must budget cached blocks"
        );
    }

    #[test]
    fn cached_bytes_move_between_free_list_and_live() {
        let p = Pool::new(Space::Device);
        let (a, _) = p.alloc(4096);
        assert_eq!(p.stats().bytes_cached, 0);
        p.free(a);
        assert_eq!(p.stats().bytes_cached, 4096);
        assert_eq!(p.stats().bytes_live, 0);
        let (_b, _) = p.alloc(4096); // pool hit: cached -> live
        let s = p.stats();
        assert_eq!(s.bytes_cached, 0);
        assert_eq!(s.bytes_live, 4096);
        assert_eq!(
            s.bytes_high_water, 4096,
            "recycling must not grow the watermark"
        );
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_of_a_copied_handle_panics() {
        // Regression: `Block` is `Copy`; freeing the same handle twice used
        // to silently add a phantom block to the free list.
        let p = Pool::new(Space::Device);
        let (b, _) = p.alloc(1024);
        p.free(b);
        p.free(b);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn freeing_a_never_allocated_class_panics() {
        let p = Pool::new(Space::Host);
        let (_b, _) = p.alloc(300); // class 512
        p.free(Block {
            class: 1 << 16,
            space: Space::Host,
            spilled: false,
        });
    }

    #[test]
    fn recorder_sees_cached_bytes_gauge() {
        let rec = Recorder::enabled();
        let p = Pool::new(Space::Device).with_recorder(rec.clone());
        let (a, _) = p.alloc(8192);
        p.free(a);
        assert_eq!(rec.gauge_value("pool.bytes_cached"), Some(8192.0));
        assert_eq!(rec.gauge_value("pool.bytes_live"), Some(0.0));
    }

    #[test]
    fn recorder_publishes_traffic_and_hit_rate() {
        let rec = Recorder::enabled();
        let p = Pool::new(Space::Device).with_recorder(rec.clone());
        let (a, _) = p.alloc(4096);
        p.free(a);
        p.alloc(4096);
        assert_eq!(rec.counter("pool.allocs"), 2.0);
        assert_eq!(rec.counter("pool.hits"), 1.0);
        assert_eq!(rec.counter("pool.raw_allocs"), 1.0);
        assert_eq!(rec.gauge_value("pool.hit_rate"), Some(0.5));
        assert!(rec.counter("pool.alloc_seconds") > 0.0);
    }

    #[test]
    #[should_panic(expected = "wrong pool")]
    fn cross_pool_free_panics() {
        let host = Pool::new(Space::Host);
        let dev = Pool::new(Space::Device);
        let (b, _) = host.alloc(128);
        dev.free(b);
    }

    #[test]
    fn capacity_bound_trims_cached_blocks_first() {
        // 2 MiB bound: a cached 1 MiB block is released to the driver to
        // make room for a fresh 2 MiB request — no spill needed.
        let p = Pool::new(Space::Device).with_capacity(2 << 20);
        let (a, _) = p.alloc(1 << 20);
        p.free(a);
        assert_eq!(p.stats().bytes_cached, 1 << 20);
        let (b, _) = p.alloc(2 << 20);
        assert!(!b.spilled, "trimming should have made room");
        let s = p.stats();
        assert_eq!(s.trims, 1);
        assert_eq!(s.bytes_trimmed, 1 << 20);
        assert_eq!(s.bytes_cached, 0);
        assert_eq!(s.host_spills, 0);
        assert!(s.footprint() <= 2 << 20);
    }

    #[test]
    fn capacity_overflow_spills_to_host() {
        // 1 MiB bound with 1 MiB live: the second block cannot fit even
        // after trimming, so it degrades to host memory instead of
        // aborting (the §4.10.1 shape).
        let p = Pool::new(Space::Device).with_capacity(1 << 20);
        let (a, _) = p.alloc(1 << 20);
        let (b, _) = p.alloc(1 << 20);
        assert!(!a.spilled);
        assert!(b.spilled, "over-capacity block must degrade to host");
        let s = p.stats();
        assert_eq!(s.host_spills, 1);
        assert_eq!(s.bytes_spilled, 1 << 20);
        assert!(s.footprint() <= 1 << 20, "bound must hold");
        p.free(b);
        assert_eq!(p.stats().bytes_spilled, 0);
        p.free(a);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn spilled_block_double_free_panics() {
        let p = Pool::new(Space::Device).with_capacity(256);
        let (a, _) = p.alloc(256);
        let (b, _) = p.alloc(256);
        assert!(b.spilled);
        p.free(b);
        let _keep = a;
        p.free(b);
    }

    #[test]
    fn footprint_never_exceeds_capacity_under_churn() {
        let cap = 4 << 20;
        let p = Pool::new(Space::Device).with_capacity(cap);
        let mut live = Vec::new();
        for i in 0..64u64 {
            let (b, _) = p.alloc(((i % 5) + 1) << 19);
            live.push(b);
            assert!(p.stats().footprint() <= cap, "bound violated at step {i}");
            if i % 3 == 0 {
                if let Some(b) = live.pop() {
                    p.free(b);
                }
            }
        }
        assert!(p.stats().bytes_high_water <= cap);
        for b in live {
            p.free(b);
        }
    }

    #[test]
    fn recorder_sees_spill_traffic() {
        let rec = Recorder::enabled();
        let p = Pool::new(Space::Device)
            .with_capacity(1 << 20)
            .with_recorder(rec.clone());
        let (_a, _) = p.alloc(1 << 20);
        let (b, _) = p.alloc(1 << 20);
        assert!(b.spilled);
        assert_eq!(rec.counter("pool.host_spills"), 1.0);
        assert_eq!(
            rec.gauge_value("pool.bytes_spilled"),
            Some((1 << 20) as f64)
        );
    }

    #[test]
    fn pooling_amortises_device_allocation_cost() {
        // Quantifies the §4.10.5 claim: pooled timestep allocation cost is a
        // tiny fraction of repeated cudaMalloc.
        let pooled = Pool::new(Space::Device);
        let mut pooled_cost = 0.0;
        for _ in 0..1000 {
            let (b, c) = pooled.alloc(1 << 16);
            pooled_cost += c;
            pooled.free(b);
        }
        let raw_cost = 1000.0 * Space::Device.raw_alloc_cost();
        assert!(raw_cost / pooled_cost > 50.0);
    }
}
