//! Property-based invariants for the `hetsim::mem` allocation tracker:
//! capacity bounds hold under every interleaving of alloc/touch/free,
//! high-water marks are monotone, and the UnifiedSpill thrash cost grows
//! with the oversubscription ratio (ISSUE 3 satellite).

use hetsim::{machines, Loc, MemId, MemTracker, OomPolicy, GIB};
use proptest::prelude::*;

/// A random program over one GPU's tracker: op 0 = alloc, 1 = touch a
/// live region, 2 = free a live region. `bytes` is in MiB so programs
/// straddle the 16 GiB HBM capacity within a few dozen steps.
type Op = (u8, u64, usize);

fn tracker(policy: OomPolicy) -> MemTracker {
    MemTracker::for_machine(&machines::sierra_node(), policy)
}

const MIB: f64 = 1024.0 * 1024.0;
const EPS: f64 = 1e-3;

/// Drive `ops` against `t`, keeping a shadow list of live ids and the
/// total bytes ever alloc'd/freed. Returns (allocated, freed).
fn drive(t: &mut MemTracker, ops: &[Op], live: &mut Vec<MemId>) -> (f64, f64) {
    let (mut allocated, mut freed) = (0.0, 0.0);
    for &(op, mib, pick) in ops {
        let bytes = mib as f64 * MIB;
        match op {
            0 => {
                if let Ok(id) = t.alloc(Loc::Gpu(0), bytes, &mut Vec::new()) {
                    allocated += bytes;
                    live.push(id);
                }
            }
            1 => {
                if !live.is_empty() {
                    let id = live[pick % live.len()];
                    // Touch may legitimately fail only under Fail policy
                    // semantics; under spill policies it must succeed.
                    let _ = t.touch(id, &mut Vec::new());
                }
            }
            _ => {
                if !live.is_empty() {
                    let id = live.swap_remove(pick % live.len());
                    freed += t.free(id);
                }
            }
        }
    }
    (allocated, freed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under `Fail`, bytes in use never exceed capacity at any location,
    /// and free never returns more than was allocated.
    #[test]
    fn fail_policy_never_exceeds_capacity(
        ops in prop::collection::vec((0u8..3, 1u64..4096, 0usize..64), 1..60),
    ) {
        let mut t = tracker(OomPolicy::Fail);
        let mut live = Vec::new();
        let mut freed_total = 0.0;
        let mut alloc_total = 0.0;
        for &(op, mib, pick) in &ops {
            let (a, f) = drive(&mut t, &[(op, mib, pick)], &mut live);
            alloc_total += a;
            freed_total += f;
            for &loc in t.locs() {
                prop_assert!(
                    t.in_use(loc) <= t.capacity(loc) + EPS,
                    "{loc:?} over capacity: {} > {}",
                    t.in_use(loc),
                    t.capacity(loc)
                );
            }
            prop_assert!(freed_total <= alloc_total + EPS, "freed more than allocated");
        }
    }

    /// `free <= alloc` and the books balance: after freeing everything,
    /// every location returns to zero bytes in use.
    #[test]
    fn books_balance_after_freeing_everything(
        policy_pick in 0u8..3,
        ops in prop::collection::vec((0u8..3, 1u64..4096, 0usize..64), 1..60),
    ) {
        let policy = match policy_pick {
            0 => OomPolicy::Fail,
            1 => OomPolicy::UnifiedSpill,
            _ => OomPolicy::NvmeSpill,
        };
        let mut t = tracker(policy);
        let mut live = Vec::new();
        let (allocated, mut freed) = drive(&mut t, &ops, &mut live);
        for id in live.drain(..) {
            freed += t.free(id);
        }
        prop_assert!((allocated - freed).abs() <= EPS, "alloc {allocated} != freed {freed}");
        prop_assert_eq!(t.live_regions(), 0);
        for &loc in t.locs() {
            prop_assert!(t.in_use(loc).abs() <= EPS, "{loc:?} left {} bytes", t.in_use(loc));
        }
    }

    /// High-water marks are monotone over the life of a tracker and always
    /// dominate current use.
    #[test]
    fn high_water_is_monotone_and_dominates_use(
        policy_pick in 0u8..3,
        ops in prop::collection::vec((0u8..3, 1u64..4096, 0usize..64), 1..60),
    ) {
        let policy = match policy_pick {
            0 => OomPolicy::Fail,
            1 => OomPolicy::UnifiedSpill,
            _ => OomPolicy::NvmeSpill,
        };
        let mut t = tracker(policy);
        let mut live = Vec::new();
        let locs = t.locs().to_vec();
        let mut last = vec![0.0f64; locs.len()];
        for &(op, mib, pick) in &ops {
            drive(&mut t, &[(op, mib, pick)], &mut live);
            for (i, &loc) in locs.iter().enumerate() {
                let hw = t.high_water(loc);
                prop_assert!(hw >= last[i] - EPS, "{loc:?} high-water went backwards");
                prop_assert!(hw + EPS >= t.in_use(loc), "{loc:?} high-water below in-use");
                last[i] = hw;
            }
        }
    }

    /// Under `UnifiedSpill`, eviction keeps resident GPU bytes within
    /// capacity no matter how oversubscribed the touch pattern is, and
    /// every region's resident bytes never exceed its size.
    #[test]
    fn unified_spill_keeps_resident_bytes_within_capacity(
        ops in prop::collection::vec((0u8..3, 64u64..4096, 0usize..64), 1..60),
    ) {
        let mut t = tracker(OomPolicy::UnifiedSpill);
        let mut live = Vec::new();
        for &(op, mib, pick) in &ops {
            drive(&mut t, &[(op, mib, pick)], &mut live);
            prop_assert!(
                t.in_use(Loc::Gpu(0)) <= t.capacity(Loc::Gpu(0)) + EPS,
                "eviction failed to bound residency: {} > {}",
                t.in_use(Loc::Gpu(0)),
                t.capacity(Loc::Gpu(0))
            );
            for &id in &live {
                let r = t.resident_of(id).unwrap();
                let b = t.bytes_of(id).unwrap();
                prop_assert!(r >= -EPS && r <= b + EPS, "resident {r} outside [0, {b}]");
            }
        }
    }

    /// The spill cost of one full sequential sweep is monotone in the
    /// oversubscription ratio: touching a strictly larger working set can
    /// never cost fewer migrated bytes.
    #[test]
    fn spill_traffic_is_monotone_in_oversubscription(
        extra in prop::collection::vec(1u64..16, 1..6),
    ) {
        // Working sets of 16, 16+e1, 16+e1+e2, ... GiB on a 16 GiB GPU.
        let mut sizes = vec![16u64];
        for e in extra {
            sizes.push(sizes.last().unwrap() + e);
        }
        let mut last_cost = -1.0f64;
        for n in sizes {
            let mut t = tracker(OomPolicy::UnifiedSpill);
            let ids: Vec<_> = (0..n)
                .map(|_| t.alloc(Loc::Gpu(0), GIB, &mut Vec::new()).unwrap())
                .collect();
            // Cold pass to reach steady state, then one measured sweep.
            let mut moves = Vec::new();
            for id in &ids {
                t.touch(*id, &mut moves).unwrap();
            }
            moves.clear();
            for id in &ids {
                t.touch(*id, &mut moves).unwrap();
            }
            let moved: f64 = moves.iter().map(|m| m.bytes).sum();
            prop_assert!(
                moved >= last_cost - EPS,
                "sweep of {n} GiB moved {moved} B, less than a smaller set ({last_cost} B)"
            );
            last_cost = moved;
        }
    }
}
