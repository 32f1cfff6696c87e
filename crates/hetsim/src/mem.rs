//! Per-location memory-capacity accounting and the unified-memory
//! oversubscription model.
//!
//! Device-memory capacity is the paper's single most recurring constraint:
//! hypre's BoomerAMG solve *requires* unified memory because coarse-grid
//! hierarchies overflow the 16 GiB V100 (§4.10.1), SAMRAI's optimization
//! work was mostly about avoiding unnecessary UM traffic (§4.10.5), and
//! VBL's data layout was driven by the 64 KiB page-migration granularity
//! (§4.11). Before this module, `GpuSpec::mem_capacity_gib` was pure
//! decoration — nothing ever enforced it, so every experiment silently
//! "fit".
//!
//! [`MemTracker`] is the pure allocator: per-[`Loc`] `in_use` /
//! `high_water` accounting against capacities read from [`Machine`] specs,
//! with an [`OomPolicy`] deciding what happens under pressure:
//!
//! * [`OomPolicy::Fail`] — `cudaMalloc` semantics: an allocation that does
//!   not fit returns [`OomError`] instead of silently succeeding;
//! * [`OomPolicy::UnifiedSpill`] — `cudaMallocManaged` oversubscription:
//!   allocations are born host-resident (first-touch), faults migrate
//!   pages in over the host↔GPU link, and LRU pages are evicted
//!   page-granularly when the device fills — the §4.10.1 thrash cliff;
//! * [`OomPolicy::NvmeSpill`] — explicit staging: allocations are
//!   device-resident, and LRU victims are staged out to node-local NVMe
//!   when present (an error when the machine has none — no phantom
//!   routes).
//!
//! The tracker never advances clocks itself. Every mutating call appends
//! the [`Migration`]s it implied to a caller's buffer; [`crate::Sim`]
//! reuses one buffer and charges them to
//! the copy engines (so spills contend with async copies and appear as
//! `Transfer` spans on `gpu0.h2d` / `gpu0.d2h` timeline tracks) and
//! publishes `mem.<loc>.bytes` / `mem.<loc>.high_water` gauges. Use
//! [`crate::Sim::alloc`] / [`crate::Sim::touch_mem`] / [`crate::Sim::free`]
//! for the integrated path; drive a bare `MemTracker` only in tests.
//!
//! # Thrash model
//!
//! With a working set `W` streamed sequentially over a device of capacity
//! `C` under LRU, every touch misses once `W > C` (the classic sequential
//! -flooding worst case): each pass migrates `W` bytes in *and* evicts `W`
//! bytes out, so per-pass time jumps from ~0 (resident) to
//! `2 · migration_time(link, W)` — the cliff the `um-oversubscription`
//! experiment reproduces and checks.

use std::collections::hash_map::Entry;
use std::fmt;

use crate::fast_hash::FastMap;
use crate::sim::{Loc, TransferKind};
use crate::spec::Machine;
use crate::unified::PAGE_BYTES;
use crate::GIB;

/// Accounting slack for f64 byte arithmetic (well under one page).
const EPS: f64 = 1e-6;

/// What happens when an allocation or fault-in would exceed a location's
/// capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OomPolicy {
    /// `cudaMalloc` semantics: the allocation returns [`OomError`].
    #[default]
    Fail,
    /// `cudaMallocManaged` oversubscription (§4.10.1): allocations are
    /// born host-resident; touches fault pages in over the host↔GPU link
    /// ([`crate::unified::migration_time`]) and evict LRU pages back to
    /// host when the device is full.
    UnifiedSpill,
    /// Explicit staging to node-local NVMe when present: allocations are
    /// device-resident and LRU victims are staged out over the NVMe link.
    /// Machines without NVMe return [`OomError`] instead of routing over a
    /// phantom link.
    NvmeSpill,
}

impl OomPolicy {
    pub fn as_str(&self) -> &'static str {
        match self {
            OomPolicy::Fail => "fail",
            OomPolicy::UnifiedSpill => "unified-spill",
            OomPolicy::NvmeSpill => "nvme-spill",
        }
    }
}

/// An allocation or fault-in did not fit and the policy offered no way out.
#[derive(Debug, Clone, PartialEq)]
pub struct OomError {
    /// The location that ran out.
    pub loc: Loc,
    /// Bytes the failing operation needed at `loc`.
    pub requested: f64,
    /// Bytes in use at `loc` when the operation failed.
    pub in_use: f64,
    /// Capacity of `loc` in bytes.
    pub capacity: f64,
    /// Policy in force at the time.
    pub policy: OomPolicy,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of memory on {}: requested {:.3} GiB with {:.3} GiB in use of {:.3} GiB (policy {})",
            self.loc.label(),
            self.requested / GIB,
            self.in_use / GIB,
            self.capacity / GIB,
            self.policy.as_str(),
        )
    }
}

impl std::error::Error for OomError {}

/// Handle to a tracked allocation. `Copy`, so a double [`MemTracker::free`]
/// is caught at run time (it panics, mirroring `portal::Pool`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemId(u64);

/// One data movement implied by an allocator decision. The tracker only
/// *plans* these; [`crate::Sim`] charges them to streams and copy engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Migration {
    pub src: Loc,
    pub dst: Loc,
    pub bytes: f64,
    /// [`TransferKind::Unified`] for UM page traffic,
    /// [`TransferKind::Memcpy`] for explicit NVMe staging.
    pub kind: TransferKind,
}

/// One tracked allocation.
#[derive(Debug, Clone)]
struct Region {
    /// Where the allocation wants to live (what [`MemTracker::alloc`] was
    /// given).
    home: Loc,
    /// Where spilled (non-resident) bytes live.
    spill: Loc,
    bytes: f64,
    /// Bytes currently resident at `home`; the rest are at `spill`.
    resident: f64,
    /// LRU stamp: the tracker tick of the last alloc/touch.
    last_touch: u64,
}

/// Per-location allocation tracker: `alloc` / `free` / `touch`, `in_use`
/// and `high_water` per [`Loc`], capacities from [`Machine`] specs, and an
/// [`OomPolicy`] for pressure. See the module docs for the model.
#[derive(Debug, Clone, Default)]
pub struct MemTracker {
    policy: OomPolicy,
    /// Capacity per location, bytes. Missing entries are unbounded.
    caps: FastMap<Loc, f64>,
    in_use: FastMap<Loc, f64>,
    high_water: FastMap<Loc, f64>,
    /// Every location with a capacity or a use entry, in label order.
    locs: Vec<Loc>,
    regions: FastMap<u64, Region>,
    tick: u64,
    next_id: u64,
}

impl MemTracker {
    /// An unbounded tracker (every location infinite) — set capacities
    /// with [`MemTracker::with_capacity`] in tests.
    pub fn new(policy: OomPolicy) -> MemTracker {
        MemTracker {
            policy,
            ..MemTracker::default()
        }
    }

    /// Capacities read from the machine's specs: host DDR from
    /// `CpuSpec::mem_capacity_gib`, each GPU's HBM from
    /// `GpuSpec::mem_capacity_gib`, NVMe from `NodeConfig::nvme` (zero
    /// when absent), and zero for the NIC (it has no allocatable memory).
    pub fn for_machine(m: &Machine, policy: OomPolicy) -> MemTracker {
        let mut t =
            MemTracker::new(policy).with_capacity(Loc::Host, m.node.cpu.mem_capacity_gib * GIB);
        for (i, g) in m.node.gpus.iter().enumerate() {
            t = t.with_capacity(Loc::Gpu(i), g.mem_capacity_gib * GIB);
        }
        t.with_capacity(
            Loc::Nvme,
            m.node.nvme.map(|(cap_gib, _)| cap_gib * GIB).unwrap_or(0.0),
        )
        .with_capacity(Loc::Nic, 0.0)
    }

    /// Builder: bound `loc` at `bytes` capacity.
    pub fn with_capacity(mut self, loc: Loc, bytes: f64) -> MemTracker {
        if self.caps.insert(loc, bytes).is_none() {
            note_loc(&mut self.locs, loc);
        }
        self
    }

    pub fn policy(&self) -> OomPolicy {
        self.policy
    }

    pub fn set_policy(&mut self, policy: OomPolicy) {
        self.policy = policy;
    }

    /// Capacity of `loc` in bytes (infinite when unconstrained).
    pub fn capacity(&self, loc: Loc) -> f64 {
        self.caps.get(&loc).copied().unwrap_or(f64::INFINITY)
    }

    /// Bytes currently occupying `loc` (resident homes plus spilled-in
    /// bytes from elsewhere).
    pub fn in_use(&self, loc: Loc) -> f64 {
        self.in_use.get(&loc).copied().unwrap_or(0.0)
    }

    /// Peak `in_use` ever observed at `loc` (monotone).
    pub fn high_water(&self, loc: Loc) -> f64 {
        self.high_water.get(&loc).copied().unwrap_or(0.0)
    }

    /// Number of live (allocated, unfreed) regions.
    pub fn live_regions(&self) -> usize {
        self.regions.len()
    }

    /// Total size of a live allocation.
    pub fn bytes_of(&self, id: MemId) -> Option<f64> {
        self.regions.get(&id.0).map(|r| r.bytes)
    }

    /// Bytes of a live allocation currently resident at its home location.
    pub fn resident_of(&self, id: MemId) -> Option<f64> {
        self.regions.get(&id.0).map(|r| r.resident)
    }

    /// The location a live allocation was made at.
    pub fn home_of(&self, id: MemId) -> Option<Loc> {
        self.regions.get(&id.0).map(|r| r.home)
    }

    /// Where a live allocation's spilled bytes go.
    pub fn spill_of(&self, id: MemId) -> Option<Loc> {
        self.regions.get(&id.0).map(|r| r.spill)
    }

    /// Every location with a configured capacity or a use entry, in label
    /// order (for gauge publication).
    pub fn locs(&self) -> &[Loc] {
        &self.locs
    }

    /// Where pressure at `loc` may spill under the current policy, if
    /// anywhere.
    fn spill_target(&self, loc: Loc) -> Option<Loc> {
        match (self.policy, loc) {
            (OomPolicy::UnifiedSpill, Loc::Gpu(_)) => Some(Loc::Host),
            (OomPolicy::NvmeSpill, Loc::Gpu(_) | Loc::Host) if self.capacity(Loc::Nvme) > 0.0 => {
                Some(Loc::Nvme)
            }
            _ => None,
        }
    }

    fn spill_kind(&self) -> TransferKind {
        match self.policy {
            OomPolicy::NvmeSpill => TransferKind::Memcpy,
            _ => TransferKind::Unified,
        }
    }

    fn oom(&self, loc: Loc, requested: f64) -> OomError {
        OomError {
            loc,
            requested,
            in_use: self.in_use(loc),
            capacity: self.capacity(loc),
            policy: self.policy,
        }
    }

    fn add_use(&mut self, loc: Loc, bytes: f64) {
        let u = self.use_entry(loc);
        *u += bytes;
        let u = *u;
        let hw = self.high_water.entry(loc).or_insert(0.0);
        *hw = hw.max(u);
    }

    fn sub_use(&mut self, loc: Loc, bytes: f64) {
        let u = self.use_entry(loc);
        *u = (*u - bytes).max(0.0);
    }

    /// `loc`'s in-use bytes, opening the entry (and noting the location)
    /// on first use.
    fn use_entry(&mut self, loc: Loc) -> &mut f64 {
        match self.in_use.entry(loc) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                note_loc(&mut self.locs, loc);
                e.insert(0.0)
            }
        }
    }

    fn insert(&mut self, region: Region) -> MemId {
        let id = self.next_id;
        self.next_id += 1;
        self.regions.insert(id, region);
        MemId(id)
    }

    /// Evict LRU resident pages from `loc` until `need` more bytes fit (or
    /// until no victims remain, when `strict` is false), appending the
    /// evictions to `moves`. Page-granular: eviction amounts round up to
    /// 64 KiB multiples, capped at each victim's residency. Errors when the
    /// policy offers no spill target (`strict`) or the spill target itself
    /// overflows.
    fn make_room(
        &mut self,
        loc: Loc,
        need: f64,
        exclude: Option<MemId>,
        strict: bool,
        moves: &mut Vec<Migration>,
    ) -> Result<(), OomError> {
        let mut deficit = self.in_use(loc) + need - self.capacity(loc);
        if deficit <= EPS {
            return Ok(());
        }
        let Some(target) = self.spill_target(loc) else {
            return if strict {
                Err(self.oom(loc, need))
            } else {
                Ok(())
            };
        };
        let kind = self.spill_kind();
        while deficit > EPS {
            // LRU victim: the least recently touched region with resident
            // bytes at `loc` (never the region being faulted in). Every
            // alloc and touch takes a fresh tick, so `last_touch` is unique
            // and the victim does not depend on the order `regions`
            // iterates in; keep it so.
            let victim = self
                .regions
                .iter()
                .filter(|(id, r)| r.home == loc && r.resident > EPS && Some(MemId(**id)) != exclude)
                .min_by_key(|(_, r)| r.last_touch)
                .map(|(id, r)| (*id, r.resident, r.spill));
            let Some((vid, vres, vspill)) = victim else {
                return if strict {
                    Err(self.oom(loc, need))
                } else {
                    Ok(())
                };
            };
            debug_assert_eq!(vspill, target, "victim spill target drifted from policy");
            let evict = page_ceil(deficit).min(vres);
            if self.in_use(target) + evict > self.capacity(target) + EPS {
                // The backing store itself is full (e.g. NVMe smaller than
                // the overflow): genuine OOM at the spill target.
                return Err(self.oom(target, evict));
            }
            if let Some(r) = self.regions.get_mut(&vid) {
                r.resident = (r.resident - evict).max(0.0);
            }
            self.sub_use(loc, evict);
            self.add_use(target, evict);
            moves.push(Migration {
                src: loc,
                dst: target,
                bytes: evict,
                kind,
            });
            deficit -= evict;
        }
        Ok(())
    }

    /// Allocate `bytes` at `loc`. Under [`OomPolicy::Fail`] and
    /// [`OomPolicy::NvmeSpill`] the region is born resident (evicting LRU
    /// victims first under `NvmeSpill`); under [`OomPolicy::UnifiedSpill`]
    /// a GPU allocation is born host-resident (`cudaMallocManaged`
    /// first-touch) and pays nothing until touched. Returns the handle and
    /// appends the migrations the decision implied to `moves`.
    pub fn alloc(
        &mut self,
        loc: Loc,
        bytes: f64,
        moves: &mut Vec<Migration>,
    ) -> Result<MemId, OomError> {
        assert!(
            bytes >= 0.0 && bytes.is_finite(),
            "allocation size must be finite and non-negative, got {bytes}"
        );
        self.tick += 1;
        let tick = self.tick;
        if self.policy == OomPolicy::UnifiedSpill && matches!(loc, Loc::Gpu(_)) {
            // Managed memory: pages are created in host DDR and migrate on
            // first GPU touch, so the *host* capacity bounds the alloc.
            if self.in_use(Loc::Host) + bytes > self.capacity(Loc::Host) + EPS {
                return Err(self.oom(Loc::Host, bytes));
            }
            self.add_use(Loc::Host, bytes);
            let id = self.insert(Region {
                home: loc,
                spill: Loc::Host,
                bytes,
                resident: 0.0,
                last_touch: tick,
            });
            return Ok(id);
        }
        self.make_room(loc, bytes, None, true, moves)?;
        self.add_use(loc, bytes);
        let spill = self.spill_target(loc).unwrap_or(loc);
        let id = self.insert(Region {
            home: loc,
            spill,
            bytes,
            resident: bytes,
            last_touch: tick,
        });
        Ok(id)
    }

    /// Touch an allocation from its home location, faulting any spilled
    /// bytes back in (evicting LRU victims page-granularly to make room).
    /// If the region itself exceeds capacity, the overflow streams through
    /// the device and straight back out — self-thrash — and is charged
    /// both ways. Appends the migrations to charge to `moves`; appending
    /// none means the touch was resident and free (the SAMRAI lesson).
    ///
    /// # Panics
    ///
    /// Panics on a freed or unknown [`MemId`] (use-after-free).
    pub fn touch(&mut self, id: MemId, moves: &mut Vec<Migration>) -> Result<(), OomError> {
        self.tick += 1;
        let tick = self.tick;
        let Some(r) = self.regions.get_mut(&id.0) else {
            panic!("touch of freed or unknown MemId {id:?}");
        };
        r.last_touch = tick;
        let (home, spill, bytes, resident) = (r.home, r.spill, r.bytes, r.resident);
        let missing = bytes - resident;
        if missing <= EPS {
            return Ok(());
        }
        let kind = self.spill_kind();
        self.make_room(home, missing, Some(id), false, moves)?;
        let room = (self.capacity(home) - self.in_use(home)).max(0.0);
        let bring_in = missing.min(room);
        // Every missing byte crosses the link (it was touched)...
        moves.push(Migration {
            src: spill,
            dst: home,
            bytes: missing,
            kind,
        });
        // ...but bytes beyond capacity bounce straight back out.
        let overflow = missing - bring_in;
        if overflow > EPS {
            moves.push(Migration {
                src: home,
                dst: spill,
                bytes: overflow,
                kind,
            });
        }
        self.sub_use(spill, bring_in);
        self.add_use(home, bring_in);
        if let Some(r) = self.regions.get_mut(&id.0) {
            r.resident = (resident + bring_in).min(bytes);
        }
        Ok(())
    }

    /// Free a live allocation, releasing its bytes at both its home and
    /// spill locations. Returns the region size.
    ///
    /// # Panics
    ///
    /// [`MemId`] is `Copy`, so the type system cannot stop a double free;
    /// freeing an unknown or already-freed id panics (mirroring
    /// `portal::Pool::free`).
    pub fn free(&mut self, id: MemId) -> f64 {
        let Some(r) = self.regions.remove(&id.0) else {
            panic!("double free or unknown MemId {id:?} in MemTracker::free");
        };
        self.sub_use(r.home, r.resident);
        self.sub_use(r.spill, r.bytes - r.resident);
        r.bytes
    }
}

/// Round `bytes` up to a whole number of 64 KiB UM pages.
fn page_ceil(bytes: f64) -> f64 {
    (bytes / PAGE_BYTES).ceil() * PAGE_BYTES
}

/// Add a location to the label-ordered `locs`, unless it is there.
fn note_loc(locs: &mut Vec<Loc>, loc: Loc) {
    if let Err(at) = locs.binary_search_by(|l| l.label_key().cmp(&loc.label_key())) {
        locs.insert(at, loc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;

    const C: f64 = 16.0 * GIB;

    /// [`MemTracker::alloc`] with its migrations in a fresh list.
    fn alloc(
        t: &mut MemTracker,
        loc: Loc,
        bytes: f64,
    ) -> Result<(MemId, Vec<Migration>), OomError> {
        let mut moves = Vec::new();
        t.alloc(loc, bytes, &mut moves).map(|id| (id, moves))
    }

    /// [`MemTracker::touch`] with its migrations in a fresh list.
    fn touch(t: &mut MemTracker, id: MemId) -> Result<Vec<Migration>, OomError> {
        let mut moves = Vec::new();
        t.touch(id, &mut moves).map(|()| moves)
    }

    fn gpu_tracker(policy: OomPolicy) -> MemTracker {
        MemTracker::for_machine(&machines::sierra_node(), policy)
    }

    #[test]
    fn capacities_come_from_machine_specs() {
        let t = gpu_tracker(OomPolicy::Fail);
        assert_eq!(t.capacity(Loc::Gpu(0)), C);
        assert_eq!(t.capacity(Loc::Host), 256.0 * GIB);
        assert_eq!(t.capacity(Loc::Nvme), 1_600.0 * GIB);
        assert_eq!(t.capacity(Loc::Nic), 0.0);
        // Machines without NVMe get a zero-capacity NVMe, not a phantom.
        let t = MemTracker::for_machine(&machines::ea_minsky(), OomPolicy::Fail);
        assert_eq!(t.capacity(Loc::Nvme), 0.0);
    }

    #[test]
    fn fail_policy_rejects_over_capacity_allocs() {
        let mut t = gpu_tracker(OomPolicy::Fail);
        let (a, moves) = alloc(&mut t, Loc::Gpu(0), 10.0 * GIB).unwrap();
        assert!(moves.is_empty());
        let err = alloc(&mut t, Loc::Gpu(0), 10.0 * GIB).unwrap_err();
        assert_eq!(err.loc, Loc::Gpu(0));
        assert_eq!(err.requested, 10.0 * GIB);
        assert_eq!(err.in_use, 10.0 * GIB);
        assert_eq!(err.capacity, C);
        assert!(err.to_string().contains("out of memory on gpu0"));
        // Freeing makes the same allocation fit again.
        assert_eq!(t.free(a), 10.0 * GIB);
        assert!(alloc(&mut t, Loc::Gpu(0), 10.0 * GIB).is_ok());
    }

    #[test]
    fn high_water_survives_frees() {
        let mut t = gpu_tracker(OomPolicy::Fail);
        let (a, _) = alloc(&mut t, Loc::Gpu(0), 12.0 * GIB).unwrap();
        t.free(a);
        assert_eq!(t.in_use(Loc::Gpu(0)), 0.0);
        assert_eq!(t.high_water(Loc::Gpu(0)), 12.0 * GIB);
    }

    #[test]
    fn unified_spill_allocs_are_born_on_host_and_fault_in() {
        let mut t = gpu_tracker(OomPolicy::UnifiedSpill);
        let (a, moves) = alloc(&mut t, Loc::Gpu(0), 4.0 * GIB).unwrap();
        assert!(moves.is_empty(), "managed alloc pays nothing up front");
        assert_eq!(t.in_use(Loc::Gpu(0)), 0.0);
        assert_eq!(t.in_use(Loc::Host), 4.0 * GIB);
        let moves = touch(&mut t, a).unwrap();
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].src, Loc::Host);
        assert_eq!(moves[0].dst, Loc::Gpu(0));
        assert_eq!(moves[0].bytes, 4.0 * GIB);
        assert_eq!(moves[0].kind, TransferKind::Unified);
        assert_eq!(t.in_use(Loc::Gpu(0)), 4.0 * GIB);
        assert_eq!(t.in_use(Loc::Host), 0.0);
        // Resident touches are free (the SAMRAI lesson).
        assert!(touch(&mut t, a).unwrap().is_empty());
    }

    #[test]
    fn unified_spill_evicts_lru_page_granularly() {
        let mut t = gpu_tracker(OomPolicy::UnifiedSpill);
        let (a, _) = alloc(&mut t, Loc::Gpu(0), 10.0 * GIB).unwrap();
        let (b, _) = alloc(&mut t, Loc::Gpu(0), 10.0 * GIB).unwrap();
        touch(&mut t, a).unwrap();
        let moves = touch(&mut t, b).unwrap();
        // Fitting b's 10 GiB into the 6 GiB left evicts 4 GiB of a (LRU).
        let evicted: f64 = moves
            .iter()
            .filter(|m| m.src == Loc::Gpu(0))
            .map(|m| m.bytes)
            .sum();
        assert!(
            (evicted - 4.0 * GIB).abs() <= PAGE_BYTES,
            "evicted {evicted}"
        );
        assert!(t.in_use(Loc::Gpu(0)) <= C + 1.0);
        assert_eq!(t.resident_of(b), Some(10.0 * GIB));
        let a_res = t.resident_of(a).unwrap();
        assert!(
            (a_res - 6.0 * GIB).abs() <= PAGE_BYTES,
            "a resident {a_res}"
        );
        // Touching a again faults its evicted tail back and evicts from b.
        let moves = touch(&mut t, a).unwrap();
        assert!(!moves.is_empty());
        assert_eq!(t.resident_of(a), Some(10.0 * GIB));
        assert!(t.in_use(Loc::Gpu(0)) <= C + 1.0);
    }

    #[test]
    fn region_larger_than_capacity_self_thrashes() {
        let mut t = gpu_tracker(OomPolicy::UnifiedSpill);
        let (a, _) = alloc(&mut t, Loc::Gpu(0), 24.0 * GIB).unwrap();
        let moves = touch(&mut t, a).unwrap();
        // All 24 GiB cross the link; 8 GiB bounce straight back out.
        let inbound: f64 = moves
            .iter()
            .filter(|m| m.dst == Loc::Gpu(0))
            .map(|m| m.bytes)
            .sum();
        let outbound: f64 = moves
            .iter()
            .filter(|m| m.src == Loc::Gpu(0))
            .map(|m| m.bytes)
            .sum();
        assert_eq!(inbound, 24.0 * GIB);
        assert_eq!(outbound, 8.0 * GIB);
        assert_eq!(t.resident_of(a), Some(C));
        assert!(t.in_use(Loc::Gpu(0)) <= C + 1.0);
        // And it pays again every touch: the thrash cliff.
        let again: f64 = touch(&mut t, a).unwrap().iter().map(|m| m.bytes).sum();
        assert!(again > 0.0);
    }

    #[test]
    fn nvme_spill_stages_victims_to_nvme() {
        let mut t = gpu_tracker(OomPolicy::NvmeSpill);
        let (_a, moves) = alloc(&mut t, Loc::Gpu(0), 12.0 * GIB).unwrap();
        assert!(moves.is_empty());
        let (_b, moves) = alloc(&mut t, Loc::Gpu(0), 12.0 * GIB).unwrap();
        // 8 GiB of the LRU region staged out to NVMe, explicit memcpy.
        let staged: f64 = moves
            .iter()
            .filter(|m| m.dst == Loc::Nvme)
            .map(|m| m.bytes)
            .sum();
        assert!((staged - 8.0 * GIB).abs() <= PAGE_BYTES);
        assert!(moves.iter().all(|m| m.kind == TransferKind::Memcpy));
        assert!(t.in_use(Loc::Gpu(0)) <= C + 1.0);
        assert!((t.in_use(Loc::Nvme) - staged).abs() < 1.0);
    }

    #[test]
    fn nvme_spill_without_nvme_is_an_error_not_a_phantom_route() {
        let mut t = MemTracker::for_machine(&machines::ea_minsky(), OomPolicy::NvmeSpill);
        assert!(alloc(&mut t, Loc::Gpu(0), 12.0 * GIB).is_ok());
        let err = alloc(&mut t, Loc::Gpu(0), 12.0 * GIB).unwrap_err();
        assert_eq!(err.loc, Loc::Gpu(0));
        assert_eq!(err.policy, OomPolicy::NvmeSpill);
    }

    #[test]
    fn unbounded_tracker_accepts_anything() {
        let mut t = MemTracker::new(OomPolicy::Fail);
        let (a, _) = alloc(&mut t, Loc::Gpu(0), 1e18).unwrap();
        assert_eq!(t.in_use(Loc::Gpu(0)), 1e18);
        t.free(a);
        assert_eq!(t.in_use(Loc::Gpu(0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut t = gpu_tracker(OomPolicy::Fail);
        let (a, _) = alloc(&mut t, Loc::Gpu(0), GIB).unwrap();
        t.free(a);
        t.free(a);
    }

    #[test]
    #[should_panic(expected = "freed or unknown MemId")]
    fn touch_after_free_panics() {
        let mut t = gpu_tracker(OomPolicy::UnifiedSpill);
        let (a, _) = alloc(&mut t, Loc::Gpu(0), GIB).unwrap();
        t.free(a);
        let _ = touch(&mut t, a);
    }

    #[test]
    fn nic_has_no_allocatable_memory() {
        let mut t = gpu_tracker(OomPolicy::Fail);
        assert!(alloc(&mut t, Loc::Nic, 1.0).is_err());
    }
}
