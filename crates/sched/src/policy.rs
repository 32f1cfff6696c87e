//! The pluggable scheduling-policy API.
//!
//! A [`SchedPolicy`] looks at a [`ClusterView`] — the waiting queue, the
//! running set, and per-node free resources — and picks the next job to
//! launch as a [`Decision`]. The four policies of the §4.7 study (FCFS,
//! SJF, SJF+Quota, EASY backfill) live here as concrete types, joined by
//! two fleet-scale policies: GPU-aware bin packing ([`GpuBinPack`]) and
//! least-slack SLA urgency ([`SlaUrgency`]).
//!
//! Contract: the simulator calls [`SchedPolicy::select`] repeatedly at
//! each event time until it returns `None`; after every accepted pick it
//! calls [`SchedPolicy::on_select`] with the still-intact queue so ageing
//! policies can update bypass counts before the entry is removed.

use std::cell::RefCell;
use std::cmp::Ordering;

use crate::workload::Job;

/// Order two node speeds *descending* (fastest first) with NaN sorted
/// last. A plain `total_cmp` on the flipped operands would do the
/// opposite — IEEE total order ranks positive NaN above `+inf`, so a
/// node whose speed got corrupted to NaN would win every placement.
/// Every descending-speed preference routes through this instead: it
/// orders [`FreeCapacity`]'s speed groups, which SLA-Urgency's pin and
/// `icoe::cluster`'s placement fallback search, so a NaN speed
/// deterministically loses.
pub fn desc_speed_nan_last(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

/// What a policy sees about one waiting job.
///
/// `duration` is the job's estimated runtime on a *reference* node; the
/// cluster layer rescales it by the chosen node's relative speed at
/// placement time. `deadline` is an absolute SLA deadline
/// (`f64::INFINITY` = best-effort job, no SLA).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobInfo {
    pub id: usize,
    pub arrival: f64,
    pub duration: f64,
    /// GPUs demanded (0 = a CPU-only job).
    pub gpus: usize,
    /// CPU cores demanded (0 for a §4.7 pool job, where only GPUs are
    /// modelled).
    pub cores: usize,
    pub deadline: f64,
}

impl JobInfo {
    /// Lift a classic pool job: no core demand, no SLA.
    pub fn from_job(j: &Job) -> JobInfo {
        JobInfo {
            id: j.id,
            arrival: j.arrival,
            duration: j.duration,
            gpus: j.gpus,
            cores: 0,
            deadline: f64::INFINITY,
        }
    }

    /// Slack until the SLA deadline if the job started right now.
    pub fn slack(&self, now: f64) -> f64 {
        self.deadline - now - self.duration
    }
}

/// A queue entry: the job plus how many later arrivals overtook it
/// (the ageing input for quota policies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedJob {
    pub job: JobInfo,
    pub bypassed: usize,
}

/// A running job as policies see it (enough for backfill shadow
/// computation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningJob {
    /// Absolute finish time.
    pub finish: f64,
    pub gpus: usize,
    pub cores: usize,
}

/// One schedulable node of a heterogeneous fleet.
///
/// `speed` is the relative service rate versus the reference node: a job
/// with `duration` d runs for `d / speed` seconds here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeView {
    pub id: usize,
    /// Machine-class index (GPU/no-GPU, big/small — see `icoe::cluster`).
    pub class: usize,
    pub gpus_free: usize,
    pub cores_free: usize,
    pub gpus_total: usize,
    pub cores_total: usize,
    pub speed: f64,
    /// Whether the node currently runs any job. Placing work on an idle
    /// node may wake it from a low-power state (energy + latency cost).
    pub busy: bool,
}

impl NodeView {
    /// Can `job` start on this node right now?
    pub fn fits(&self, job: &JobInfo) -> bool {
        job.gpus <= self.gpus_free && job.cores <= self.cores_free
    }

    /// Free GPUs left over if `job` were placed here.
    pub fn gpu_leftover(&self, job: &JobInfo) -> usize {
        self.gpus_free - job.gpus
    }
}

/// An exact index of a node bank's free capacity: answers whether a job
/// fits on some node right now, and where, without visiting the nodes.
///
/// * **Where.** The nodes are grouped by speed, fastest first in
///   [`desc_speed_nan_last`] order, and each group gets a segment tree
///   over its nodes in id order. Every tree node holds, per (power tier,
///   free-GPU level), one more than the most free cores of any node below
///   it in that state (0: none). [`FreeCapacity::fastest_fit`] and
///   [`FreeCapacity::fastest_best_fit`] descend one tree in O(log n),
///   pruning exactly.
/// * **Whether.** The trees' root slots hold the most free cores per
///   free-GPU level over the whole bank. Folding them over both tiers and
///   every group, then taking suffix maxima over the levels, gives for each
///   `g` the most free cores of any node with at least `g` free GPUs, so
///   [`FreeCapacity::fits`] is one compare.
///
/// [`FreeCapacity::update`] is the one entry point for every change of a
/// node's state: it rewrites two slots along one leaf-to-root path, and
/// touches the suffix maxima only when a root slot moves.
///
/// Each group's tree holds 4 × (its nodes, rounded up to a power of two)
/// × 2 × (its most GPUs + 1) cells, whatever its nodes' core counts;
/// [`FreeCapacity::max_cells`] bounds the sum. Build one for a hand-made
/// bank with [`FreeCapacity::of`]; a simulator keeps one current by
/// calling `update` whenever a node is placed on, finishes a job, parks or
/// wakes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FreeCapacity {
    /// `reach[g]`: one more than the most free cores of any node with at
    /// least `g` free GPUs (0: none), folded from the trees' root slots.
    reach: Vec<usize>,
    /// Speed groups, fastest first.
    groups: Vec<SpeedGroup>,
    /// Where each node of the indexed bank (by position) sits.
    seats: Vec<Seat>,
    /// Node ids in leaf order, group after group.
    ids: Vec<usize>,
    /// Every group's segment tree, one after the other.
    tree: Vec<u32>,
}

/// One speed group's segment tree inside `FreeCapacity::tree`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpeedGroup {
    /// Offset of the group's first leaf in `ids`.
    first: usize,
    /// Leaves: the group's nodes, rounded up to a power of two.
    width: usize,
    /// Free-GPU levels per power tier: the group's most GPUs, plus one.
    levels: usize,
    /// Offset of the group's tree in `tree`. Tree node `k` (root 1, the
    /// children of `k` are `2k` and `2k + 1`, leaf `i` is `width + i`)
    /// holds `2 * levels` slots from `base + 2 * levels * k`: the awake
    /// tier's levels, then the parked tier's.
    base: usize,
}

impl SpeedGroup {
    #[inline]
    fn slots(&self, k: usize) -> std::ops::Range<usize> {
        let at = self.base + 2 * self.levels * k;
        at..at + 2 * self.levels
    }
}

/// Where one node sits in the index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Seat {
    group: u32,
    leaf: u32,
    /// The node's slot: `parked as usize * levels + gpus_free`.
    slot: u32,
}

impl FreeCapacity {
    /// The index of `nodes` as they stand, every node awake.
    pub fn of(nodes: &[NodeView]) -> FreeCapacity {
        let mut index = FreeCapacity::default();
        index.rebuild(nodes, |_| false);
        index
    }

    /// The most tree cells an index of `nodes` nodes with at most `gpus`
    /// GPUs each can hold (`None`: more than `usize`).
    pub fn max_cells(nodes: usize, gpus: usize) -> Option<usize> {
        // A group of n nodes has fewer than 2n leaves, so its tree holds
        // fewer than 4n nodes of 2 × (gpus + 1) slots each.
        nodes.checked_mul(8)?.checked_mul(gpus.checked_add(1)?)
    }

    /// Re-index `nodes` from scratch, reusing this index's buffers.
    /// `parked(i)` tells whether the node at position `i` is parked.
    ///
    /// Panics if the index size overflows `usize` or a node has 2^32 - 1
    /// cores or more; a simulator bounds its nodes' GPU and core counts
    /// before building one.
    pub fn rebuild(&mut self, nodes: &[NodeView], parked: impl Fn(usize) -> bool) {
        let levels = nodes
            .iter()
            .map(|n| n.gpus_total.max(n.gpus_free).saturating_add(1))
            .max()
            .unwrap_or(0);
        assert!(
            nodes
                .iter()
                .all(|n| n.cores_total.max(n.cores_free) < u32::MAX as usize),
            "free-capacity index holds at most 2^32 - 2 cores per node"
        );
        self.reach.clear();
        self.reach.resize(levels, 0);

        // Speed groups: positions in (speed, id, position) order, cut
        // wherever the speed changes. `ids` holds the positions until the
        // leaves are filled.
        self.ids.clear();
        self.ids.extend(0..nodes.len());
        self.ids.sort_unstable_by(|&a, &b| {
            desc_speed_nan_last(nodes[a].speed, nodes[b].speed)
                .then(nodes[a].id.cmp(&nodes[b].id))
                .then(a.cmp(&b))
        });
        self.groups.clear();
        self.seats.clear();
        self.seats.resize(nodes.len(), Seat::default());
        let mut size = 0usize;
        let mut first = 0;
        while first < nodes.len() {
            let speed = nodes[self.ids[first]].speed;
            let members = self.ids[first..]
                .iter()
                .take_while(|&&p| desc_speed_nan_last(nodes[p].speed, speed) == Ordering::Equal)
                .count();
            let group = SpeedGroup {
                first,
                width: members.next_power_of_two(),
                levels: self.ids[first..first + members]
                    .iter()
                    .map(|&p| nodes[p].gpus_total.max(nodes[p].gpus_free) + 1)
                    .max()
                    .unwrap_or(1),
                base: size,
            };
            for (leaf, &p) in self.ids[first..first + members].iter().enumerate() {
                self.seats[p] = Seat {
                    group: self.groups.len() as u32,
                    leaf: leaf as u32,
                    slot: (parked(p) as usize * group.levels + nodes[p].gpus_free) as u32,
                };
            }
            size = (4 * group.width)
                .checked_mul(group.levels)
                .and_then(|s| s.checked_add(size))
                .expect("free-capacity index size overflows usize");
            self.groups.push(group);
            first += members;
        }
        self.tree.clear();
        self.tree.resize(size, 0);
        for (p, seat) in self.seats.iter().enumerate() {
            let g = self.groups[seat.group as usize];
            let leaf = g.slots(g.width + seat.leaf as usize);
            self.tree[leaf.start + seat.slot as usize] = nodes[p].cores_free as u32 + 1;
        }
        for g in &self.groups {
            for k in (1..g.width).rev() {
                for s in 0..2 * g.levels {
                    let (l, r) = (g.slots(2 * k).start + s, g.slots(2 * k + 1).start + s);
                    self.tree[g.slots(k).start + s] = self.tree[l].max(self.tree[r]);
                }
            }
        }
        for id in &mut self.ids {
            *id = nodes[*id].id;
        }
        self.refold();
    }

    /// Can `job` start on some indexed node right now? Exactly
    /// `nodes.iter().any(|n| n.fits(job))` over the indexed bank.
    #[inline]
    pub fn fits(&self, job: &JobInfo) -> bool {
        self.reach.get(job.gpus).is_some_and(|&r| r > job.cores)
    }

    /// The id of the lowest-id node `job` fits on in the fastest speed
    /// group that has one. Exactly
    /// `nodes.iter().filter(|n| n.fits(job)).min_by(|a, b|
    /// desc_speed_nan_last(a.speed, b.speed).then(a.id.cmp(&b.id)))`.
    pub fn fastest_fit(&self, job: &JobInfo) -> Option<usize> {
        self.groups.iter().find_map(|g| {
            if job.gpus >= g.levels {
                return None;
            }
            // Any slot of either tier at `job.gpus` free GPUs or more.
            self.descend(g, |k| {
                self.tree[g.slots(k)]
                    .chunks_exact(g.levels)
                    .any(|tier| tier[job.gpus..].iter().any(|&v| v as usize > job.cores))
            })
        })
    }

    /// The id of the node the simulator places `job` on when no policy
    /// pins it: in the fastest speed group that has a fitting node, an
    /// awake one before a parked one, then the fewest free GPUs, then the
    /// lowest id. Exactly the minimum of
    /// `(desc_speed_nan_last speed, parked, gpus_free, id)` over the
    /// fitting nodes.
    pub fn fastest_best_fit(&self, job: &JobInfo) -> Option<usize> {
        self.groups.iter().find_map(|g| {
            if job.gpus >= g.levels {
                return None;
            }
            let root = &self.tree[g.slots(1)];
            // Slots in (tier, level) order: the first that fits is the
            // smallest (parked, gpus_free) in the group.
            let slot = (0..2)
                .flat_map(|tier| tier * g.levels + job.gpus..(tier + 1) * g.levels)
                .find(|&s| root[s] as usize > job.cores)?;
            self.descend(g, |k| {
                self.tree[g.slots(k).start + slot] as usize > job.cores
            })
        })
    }

    /// The id at the leftmost leaf of `g` whose path satisfies `hit`
    /// (asked of a tree node, true if some leaf below it qualifies).
    #[inline]
    fn descend(&self, g: &SpeedGroup, hit: impl Fn(usize) -> bool) -> Option<usize> {
        if !hit(1) {
            return None;
        }
        let mut k = 1;
        while k < g.width {
            k = 2 * k + !hit(2 * k) as usize;
        }
        Some(self.ids[g.first + k - g.width])
    }

    /// The node at position `node` of the indexed bank now has
    /// `gpus_free` GPUs and `cores_free` cores free and is `parked` or
    /// awake. The GPUs stay within the node's group's levels and the cores
    /// within a slot's `u32`.
    #[inline]
    pub fn update(&mut self, node: usize, gpus_free: usize, cores_free: usize, parked: bool) {
        let seat = self.seats[node];
        let g = self.groups[seat.group as usize];
        assert!(
            gpus_free < g.levels && cores_free < u32::MAX as usize,
            "node {node} has {gpus_free} GPUs and {cores_free} cores free, past its index"
        );
        let leaf = g.slots(g.width + seat.leaf as usize).start;
        let (was, now) = (seat.slot as usize, parked as usize * g.levels + gpus_free);
        if (was, self.tree[leaf + was] as usize) == (now, cores_free + 1) {
            return;
        }
        let root = g.slots(1).start;
        let before = [self.tree[root + was], self.tree[root + now]];
        self.seats[node].slot = now as u32;
        self.tree[leaf + was] = 0;
        self.tree[leaf + now] = cores_free as u32 + 1;
        // Re-derive both slots up the path until neither moves.
        let mut k = (g.width + seat.leaf as usize) / 2;
        while k > 0 {
            let (at, l, r) = (
                g.slots(k).start,
                g.slots(2 * k).start,
                g.slots(2 * k + 1).start,
            );
            let mut moved = false;
            for s in [was, now] {
                let v = self.tree[l + s].max(self.tree[r + s]);
                moved |= self.tree[at + s] != v;
                self.tree[at + s] = v;
            }
            if !moved {
                break;
            }
            k /= 2;
        }
        // Both root slots are final here, so one re-fold answers for both.
        let distinct = 1 + (was != now) as usize;
        for (s, old) in [was, now].into_iter().zip(before).take(distinct) {
            let (old, new) = (old as usize, self.tree[root + s] as usize);
            let level = s % g.levels;
            if new > old {
                // Raise the suffix maxima until one already covers `new`.
                for r in self.reach[..=level].iter_mut().rev() {
                    if *r >= new {
                        break;
                    }
                    *r = new;
                }
            } else if new < old && self.reach[level] == old {
                self.refold();
            }
        }
    }

    /// Re-derive `reach` from every group's root slots, both tiers.
    fn refold(&mut self) {
        self.reach.fill(0);
        for g in &self.groups {
            for tier in self.tree[g.slots(1)].chunks_exact(g.levels) {
                for (r, &v) in self.reach.iter_mut().zip(tier) {
                    *r = (*r).max(v as usize);
                }
            }
        }
        let mut above = 0;
        for r in self.reach.iter_mut().rev() {
            above = above.max(*r);
            *r = above;
        }
    }
}

/// The scheduling state a policy decides on: queue, running set, and —
/// in cluster mode — per-node free resources.
#[derive(Debug, Clone, Copy)]
pub struct ClusterView<'a> {
    pub now: f64,
    /// Waiting jobs in arrival (FIFO) order.
    pub queue: &'a [QueuedJob],
    pub running: &'a [RunningJob],
    /// Free GPUs summed over the whole pool/fleet.
    pub free_gpus: usize,
    pub total_gpus: usize,
    /// Per-node state. The simulator always fills it (a single GPU pool
    /// is one node).
    pub nodes: &'a [NodeView],
    /// The free-capacity index of `nodes`, which [`ClusterView::fits`]
    /// and [`ClusterView::fastest_fit`] answer from: a view that lists
    /// nodes carries an index of them, built by [`FreeCapacity::of`] or
    /// kept current by [`FreeCapacity::update`]. A view built by hand may
    /// leave `nodes` empty and this `None` to describe an aggregated
    /// pool, which `fits` then checks against `free_gpus`.
    pub capacity: Option<&'a FreeCapacity>,
}

impl ClusterView<'_> {
    /// Can `job` start right now somewhere? One compare against the
    /// free-capacity index (or `free_gpus` for an aggregated pool), never
    /// a scan of the nodes.
    #[inline]
    pub fn fits(&self, job: &JobInfo) -> bool {
        debug_assert!(
            self.capacity.is_some() || self.nodes.is_empty(),
            "a view that lists nodes carries their FreeCapacity"
        );
        match self.capacity {
            Some(index) => index.fits(job),
            None => job.gpus <= self.free_gpus,
        }
    }

    /// The id of the lowest-id node `job` fits on in the fastest speed
    /// group that has one: [`FreeCapacity::fastest_fit`], an O(log n)
    /// descent of the index rather than a scan of the nodes. An
    /// aggregated pool lists no nodes, so it has none.
    #[inline]
    pub fn fastest_fit(&self, job: &JobInfo) -> Option<usize> {
        self.capacity?.fastest_fit(job)
    }
}

/// A policy's verdict: launch queue entry `queue_idx`, optionally pinned
/// to a specific node (`None` = let the simulator place it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    pub queue_idx: usize,
    pub node: Option<usize>,
}

impl Decision {
    /// Pick a queue entry and leave placement to the simulator.
    pub fn pick(queue_idx: usize) -> Decision {
        Decision {
            queue_idx,
            node: None,
        }
    }
}

/// A pluggable scheduling policy.
pub trait SchedPolicy {
    /// Display name for tables and gauges.
    fn name(&self) -> &str;

    /// Choose the next job to launch, or `None` to wait for the next
    /// event. Called repeatedly at one event time until it declines.
    fn select(&self, view: &ClusterView) -> Option<Decision>;

    /// Ageing hook: called with the still-intact queue and the index
    /// about to be removed, *before* removal. The default does nothing;
    /// [`SjfQuota`] bumps `bypassed` for every job ahead of a
    /// non-starved pick.
    fn on_select(&self, queue: &mut [QueuedJob], chosen: usize) {
        let _ = (queue, chosen);
    }
}

/// References to policies are policies (lets `&dyn SchedPolicy` flow
/// through `impl SchedPolicy` parameters).
impl<P: SchedPolicy + ?Sized> SchedPolicy for &P {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn select(&self, view: &ClusterView) -> Option<Decision> {
        (**self).select(view)
    }

    fn on_select(&self, queue: &mut [QueuedJob], chosen: usize) {
        (**self).on_select(queue, chosen)
    }
}

/// Strict first-come-first-served: the queue head blocks everyone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fcfs;

impl SchedPolicy for Fcfs {
    fn name(&self) -> &str {
        "FCFS"
    }

    fn select(&self, view: &ClusterView) -> Option<Decision> {
        let head = view.queue.first()?;
        if view.fits(&head.job) {
            Some(Decision::pick(0))
        } else {
            None
        }
    }
}

/// Shortest job first: pick the shortest queued job that fits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sjf;

impl SchedPolicy for Sjf {
    fn name(&self) -> &str {
        "SJF"
    }

    fn select(&self, view: &ClusterView) -> Option<Decision> {
        view.queue
            .iter()
            .enumerate()
            .filter(|(_, q)| view.fits(&q.job))
            // total_cmp: a NaN duration sorts after +inf, so a corrupt
            // estimate queues last instead of panicking the simulator.
            .min_by(|a, b| a.1.job.duration.total_cmp(&b.1.job.duration))
            .map(|(i, _)| Decision::pick(i))
    }
}

/// SJF with an ageing quota: a job bypassed by `quota` shorter jobs is
/// promoted to the queue head (starvation bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SjfQuota {
    pub quota: usize,
}

impl SchedPolicy for SjfQuota {
    fn name(&self) -> &str {
        "SJF+Quota"
    }

    fn select(&self, view: &ClusterView) -> Option<Decision> {
        // Starved jobs first (FIFO among them).
        if let Some(i) = view
            .queue
            .iter()
            .position(|q| q.bypassed >= self.quota && view.fits(&q.job))
        {
            return Some(Decision::pick(i));
        }
        view.queue
            .iter()
            .enumerate()
            .filter(|(_, q)| view.fits(&q.job))
            .min_by(|a, b| a.1.job.duration.total_cmp(&b.1.job.duration))
            .map(|(i, _)| Decision::pick(i))
    }

    fn on_select(&self, queue: &mut [QueuedJob], chosen: usize) {
        // A starved pick (bypassed >= quota) jumps the queue without
        // penalising the jobs ahead of it: only a shortest-first pick
        // ages the queue.
        if queue[chosen].bypassed < self.quota {
            for q in &mut queue[..chosen] {
                q.bypassed += 1;
            }
        }
    }
}

/// EASY backfilling: FCFS head reservation; later jobs may start early
/// only if they cannot delay the head job's earliest possible start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EasyBackfill;

impl SchedPolicy for EasyBackfill {
    fn name(&self) -> &str {
        "EASY-Backfill"
    }

    fn select(&self, view: &ClusterView) -> Option<Decision> {
        let head = view.queue.first()?;
        if view.fits(&head.job) {
            return Some(Decision::pick(0));
        }
        // Backfill: the first queued job (FCFS order behind the head)
        // that fits now and either finishes before the shadow or fits in
        // the capacity left over once the head starts. The shadow is
        // worked out only once some candidate fits: behind a blocked head
        // in a deep queue, most calls find none.
        let mut shadow = None;
        let idx = view.queue.iter().skip(1).position(|q| {
            view.fits(&q.job) && {
                let (at, extra) = *shadow.get_or_insert_with(|| head_shadow(view, head.job.gpus));
                view.now + q.job.duration <= at + 1e-12 || q.job.gpus <= extra
            }
        })?;
        Some(Decision::pick(idx + 1))
    }
}

thread_local! {
    /// [`head_shadow`]'s `(finish, running index, gpus)` scratch, kept
    /// across calls so a warm serve works out shadows without allocating.
    static SHADOW_SCRATCH: RefCell<Vec<(f64, usize, usize)>> = const { RefCell::new(Vec::new()) };
}

/// EASY's shadow time: when will a head job needing `head_need` GPUs be
/// able to start, and how many GPUs are spare once it does? Computed over
/// aggregate GPU counts (in cluster mode this is the usual conservative
/// approximation). Running jobs release their GPUs in finish order, ties
/// in running-set order.
fn head_shadow(view: &ClusterView, head_need: usize) -> (f64, usize) {
    SHADOW_SCRATCH.with_borrow_mut(|finishes| {
        finishes.clear();
        finishes.extend(
            view.running
                .iter()
                .enumerate()
                .map(|(i, r)| (r.finish, i, r.gpus)),
        );
        // The index breaks ties, so the unstable sort (which needs no
        // buffer) yields the stable order.
        finishes.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut avail = view.free_gpus;
        for &(f, _, g) in finishes.iter() {
            avail += g;
            if avail >= head_need {
                return (f, avail - head_need);
            }
        }
        (f64::INFINITY, 0)
    })
}

/// GPU-aware bin packing: launch the *widest* fitting job first (ties:
/// shortest duration, then FIFO) and pin it to the compatible node with
/// the fewest leftover GPUs (best fit), preferring already-busy nodes so
/// idle nodes can stay in their low-power state. In a view without nodes
/// the pin degenerates to `None` and only the width-first order remains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpuBinPack;

impl SchedPolicy for GpuBinPack {
    fn name(&self) -> &str {
        "GPU-BinPack"
    }

    fn select(&self, view: &ClusterView) -> Option<Decision> {
        let (i, q) = view
            .queue
            .iter()
            .enumerate()
            .filter(|(_, q)| view.fits(&q.job))
            .min_by(|a, b| {
                b.1.job
                    .gpus
                    .cmp(&a.1.job.gpus)
                    .then(a.1.job.duration.total_cmp(&b.1.job.duration))
            })?;
        let node = view
            .nodes
            .iter()
            .filter(|n| n.fits(&q.job))
            .min_by_key(|n| {
                (
                    !n.busy as usize,
                    n.gpu_leftover(&q.job),
                    n.cores_free.saturating_sub(q.job.cores),
                    n.id,
                )
            })
            .map(|n| n.id);
        Some(Decision { queue_idx: i, node })
    }
}

/// SLA urgency (least slack first): launch the fitting job whose deadline
/// slack (`deadline - now - duration`) is smallest; best-effort jobs
/// (infinite deadline) queue FIFO behind every deadline job. Placement
/// pins the fastest compatible node, lowest id first, to protect the SLA
/// — energy be damned, which is exactly the trade the policy shoot-out
/// measures. The pin is [`ClusterView::fastest_fit`], answered by the
/// free-capacity index without visiting the nodes; in a view without
/// nodes it is `None`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlaUrgency;

impl SchedPolicy for SlaUrgency {
    fn name(&self) -> &str {
        "SLA-Urgency"
    }

    fn select(&self, view: &ClusterView) -> Option<Decision> {
        let (i, q) = view
            .queue
            .iter()
            .enumerate()
            .filter(|(_, q)| view.fits(&q.job))
            // total_cmp: a NaN slack (corrupt duration/deadline) sorts
            // after +inf — behind every best-effort job.
            .min_by(|a, b| a.1.job.slack(view.now).total_cmp(&b.1.job.slack(view.now)))?;
        Some(Decision {
            queue_idx: i,
            node: view.fastest_fit(&q.job),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: usize, duration: f64, gpus: usize) -> QueuedJob {
        QueuedJob {
            job: JobInfo {
                id,
                arrival: 0.0,
                duration,
                gpus,
                cores: 0,
                deadline: f64::INFINITY,
            },
            bypassed: 0,
        }
    }

    fn pool_view<'a>(queue: &'a [QueuedJob], free: usize, total: usize) -> ClusterView<'a> {
        ClusterView {
            now: 0.0,
            queue,
            running: &[],
            free_gpus: free,
            total_gpus: total,
            nodes: &[],
            capacity: None,
        }
    }

    #[test]
    fn fcfs_only_considers_the_head() {
        let q = [job(0, 10.0, 4), job(1, 1.0, 1)];
        let v = pool_view(&q, 2, 4);
        assert_eq!(Fcfs.select(&v), None, "head needs 4, only 2 free");
        let v = pool_view(&q, 4, 4);
        assert_eq!(Fcfs.select(&v), Some(Decision::pick(0)));
    }

    #[test]
    fn sjf_picks_the_shortest_fitting_job() {
        let q = [job(0, 10.0, 4), job(1, 5.0, 1), job(2, 1.0, 4)];
        let v = pool_view(&q, 2, 4);
        assert_eq!(Sjf.select(&v), Some(Decision::pick(1)));
    }

    #[test]
    fn quota_promotes_starved_jobs_and_ages_only_non_starved_picks() {
        let p = SjfQuota { quota: 2 };
        let mut q = vec![job(0, 100.0, 1), job(1, 1.0, 1)];
        q[0].bypassed = 2; // starved
        let v = pool_view(&q, 4, 4);
        let d = p.select(&v).expect("fits");
        assert_eq!(d.queue_idx, 0, "starved job jumps the SJF order");
        // Starved pick: nobody ahead, and on_select must not age anyone.
        p.on_select(&mut q, 0);
        assert_eq!(q[1].bypassed, 0);
        // Non-starved pick at index 1 ages index 0.
        let mut q2 = vec![job(0, 100.0, 1), job(1, 1.0, 1)];
        p.on_select(&mut q2, 1);
        assert_eq!(q2[0].bypassed, 1);
        assert_eq!(q2[1].bypassed, 0);
    }

    #[test]
    fn binpack_prefers_wide_jobs_and_packed_nodes() {
        let q = [job(0, 1.0, 1), job(1, 5.0, 4)];
        let nodes = [
            NodeView {
                id: 0,
                class: 0,
                gpus_free: 8,
                cores_free: 16,
                gpus_total: 8,
                cores_total: 16,
                speed: 1.0,
                busy: false,
            },
            NodeView {
                id: 1,
                class: 0,
                gpus_free: 4,
                cores_free: 16,
                gpus_total: 8,
                cores_total: 16,
                speed: 1.0,
                busy: true,
            },
        ];
        let v = ClusterView {
            now: 0.0,
            queue: &q,
            running: &[],
            free_gpus: 12,
            total_gpus: 16,
            nodes: &nodes,
            capacity: Some(&FreeCapacity::of(&nodes)),
        };
        let d = GpuBinPack.select(&v).expect("fits");
        assert_eq!(d.queue_idx, 1, "the 4-GPU job goes first");
        assert_eq!(d.node, Some(1), "busy best-fit node wins");
    }

    #[test]
    fn sla_urgency_orders_by_slack_and_pins_the_fastest_node() {
        let mut q = [job(0, 10.0, 1), job(1, 10.0, 1)];
        q[0].job.deadline = 100.0;
        q[1].job.deadline = 15.0; // slack 5 — most urgent
        let nodes = [
            NodeView {
                id: 0,
                class: 0,
                gpus_free: 2,
                cores_free: 8,
                gpus_total: 2,
                cores_total: 8,
                speed: 0.5,
                busy: false,
            },
            NodeView {
                id: 1,
                class: 1,
                gpus_free: 2,
                cores_free: 8,
                gpus_total: 2,
                cores_total: 8,
                speed: 2.0,
                busy: false,
            },
        ];
        let v = ClusterView {
            now: 0.0,
            queue: &q,
            running: &[],
            free_gpus: 4,
            total_gpus: 4,
            nodes: &nodes,
            capacity: Some(&FreeCapacity::of(&nodes)),
        };
        let d = SlaUrgency.select(&v).expect("fits");
        assert_eq!(d.queue_idx, 1);
        assert_eq!(d.node, Some(1), "fastest node protects the deadline");
    }

    #[test]
    fn nan_duration_jobs_sort_last_deterministically() {
        // total_cmp puts NaN after +inf: a job whose runtime estimate got
        // corrupted queues behind everything, FIFO among fellow NaNs.
        let q = [
            job(0, f64::NAN, 1),
            job(1, 5.0, 1),
            job(2, f64::INFINITY, 1),
        ];
        let v = pool_view(&q, 4, 4);
        assert_eq!(Sjf.select(&v), Some(Decision::pick(1)));
        assert_eq!(SjfQuota { quota: 9 }.select(&v), Some(Decision::pick(1)));
        assert_eq!(GpuBinPack.select(&v).map(|d| d.queue_idx), Some(1));
        // All-NaN queue: min_by keeps the first minimum — arrival order.
        let q = [job(0, f64::NAN, 1), job(1, f64::NAN, 1)];
        let v = pool_view(&q, 4, 4);
        assert_eq!(Sjf.select(&v), Some(Decision::pick(0)));
        // A NaN slack (deadline - now - NaN duration) loses to infinite
        // slack too.
        let q = [job(0, f64::NAN, 1), job(1, 5.0, 1)];
        let v = pool_view(&q, 4, 4);
        assert_eq!(SlaUrgency.select(&v).map(|d| d.queue_idx), Some(1));
    }

    #[test]
    fn nan_speed_node_is_never_preferred() {
        let slow = NodeView {
            id: 0,
            class: 0,
            gpus_free: 2,
            cores_free: 8,
            gpus_total: 2,
            cores_total: 8,
            speed: f64::NAN,
            busy: false,
        };
        let fast = NodeView {
            id: 1,
            speed: 0.25,
            ..slow
        };
        let q = [job(0, 10.0, 1)];
        let v = ClusterView {
            now: 0.0,
            queue: &q,
            running: &[],
            free_gpus: 4,
            total_gpus: 4,
            nodes: &[slow, fast],
            capacity: Some(&FreeCapacity::of(&[slow, fast])),
        };
        let d = SlaUrgency.select(&v).expect("fits");
        assert_eq!(d.node, Some(1), "NaN speed must lose placement");
        // And the comparator itself documents the full order.
        let mut speeds = [1.0, f64::NAN, 2.0, f64::INFINITY];
        speeds.sort_by(|a, b| desc_speed_nan_last(*a, *b));
        assert!(speeds[0].is_infinite() && speeds[1] == 2.0 && speeds[2] == 1.0);
        assert!(speeds[3].is_nan());
    }

    fn node(id: usize, gpus: usize, cores: usize) -> NodeView {
        NodeView {
            id,
            class: 0,
            gpus_free: gpus,
            cores_free: cores,
            gpus_total: gpus,
            cores_total: cores,
            speed: 1.0,
            busy: false,
        }
    }

    #[test]
    fn an_empty_bank_fits_nothing() {
        // Not even a job demanding nothing: there is no node to run it.
        let empty = FreeCapacity::of(&[]);
        let demand = job(0, 1.0, 0).job;
        assert!(!empty.fits(&demand));
        assert_eq!(empty.fastest_fit(&demand), None);
        assert_eq!(empty.fastest_best_fit(&demand), None);
    }

    /// Speeds the proptest draws from: repeats across classes, a NaN, and
    /// both zeros (which `desc_speed_nan_last` orders apart).
    const SPEEDS: [f64; 6] = [1.0, 0.5, f64::NAN, 0.0, -0.0, 2.0];

    /// Check `index` against node scans of `nodes` for every demand,
    /// CPU-only jobs and jobs too big for every node included.
    fn matches_the_node_scan(
        index: &FreeCapacity,
        nodes: &[NodeView],
        parked: &[bool],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let mut rebuilt = FreeCapacity::default();
        rebuilt.rebuild(nodes, |i| parked[i]);
        proptest::prop_assert_eq!(index, &rebuilt);
        let max_gpus = nodes.iter().map(|n| n.gpus_total).max().unwrap_or(0);
        let max_cores = nodes.iter().map(|n| n.cores_total).max().unwrap_or(0);
        let tier = |n: &NodeView| parked[nodes.iter().position(|m| m.id == n.id).expect("listed")];
        for gpus in 0..=max_gpus + 1 {
            for cores in 0..=max_cores + 1 {
                let demand = JobInfo {
                    gpus,
                    cores,
                    ..job(0, 1.0, 0).job
                };
                let fitting = || nodes.iter().filter(|n| n.fits(&demand));
                let any = fitting().next().is_some();
                // SLA-Urgency's pin, as it was written over the nodes.
                let pin = fitting()
                    .min_by(|a, b| desc_speed_nan_last(a.speed, b.speed).then(a.id.cmp(&b.id)))
                    .map(|n| n.id);
                // The simulator's fallback, as the reference loop writes it.
                let fallback = fitting()
                    .min_by(|a, b| {
                        desc_speed_nan_last(a.speed, b.speed).then_with(|| {
                            (tier(a), a.gpu_leftover(&demand), a.id).cmp(&(
                                tier(b),
                                b.gpu_leftover(&demand),
                                b.id,
                            ))
                        })
                    })
                    .map(|n| n.id);
                let ctx = format!("{gpus} GPUs, {cores} cores");
                proptest::prop_assert_eq!(index.fits(&demand), any, "{}", ctx);
                proptest::prop_assert_eq!(index.fastest_fit(&demand), pin, "{}", ctx);
                proptest::prop_assert_eq!(index.fastest_best_fit(&demand), fallback, "{}", ctx);
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The incrementally patched index equals one rebuilt from the
        /// nodes and their parked flags, and answers every demand exactly
        /// like the node scans it replaces, over random heterogeneous
        /// banks and random place, finish, park and wake deltas.
        #[test]
        fn patched_free_capacity_matches_the_node_scan(
            shapes in proptest::prelude::prop::collection::vec(
                (0usize..6, 0usize..12, 0usize..SPEEDS.len()),
                1..16,
            ),
            reversed_ids in 0u8..2,
            deltas in proptest::prelude::prop::collection::vec(
                (0usize..16, 0u8..4, 0usize..4, 0usize..8),
                0..60,
            ),
        ) {
            let len = shapes.len();
            let mut nodes: Vec<NodeView> = shapes
                .iter()
                .enumerate()
                .map(|(i, &(gpus, cores, speed))| NodeView {
                    speed: SPEEDS[speed],
                    ..node(if reversed_ids == 1 { len - 1 - i } else { i }, gpus, cores)
                })
                .collect();
            let mut parked = vec![false; len];
            let mut index = FreeCapacity::of(&nodes);
            matches_the_node_scan(&index, &nodes, &parked)?;
            for (k, op, gpus, cores) in deltas {
                let i = k % len;
                let n = &mut nodes[i];
                match op {
                    // Place.
                    0 if n.gpus_free >= gpus && n.cores_free >= cores => {
                        n.gpus_free -= gpus;
                        n.cores_free -= cores;
                    }
                    // Finish.
                    1 if n.gpus_free + gpus <= n.gpus_total && n.cores_free + cores <= n.cores_total => {
                        n.gpus_free += gpus;
                        n.cores_free += cores;
                    }
                    // Park, wake.
                    2 => parked[i] = true,
                    3 => parked[i] = false,
                    _ => continue,
                }
                index.update(i, n.gpus_free, n.cores_free, parked[i]);
                matches_the_node_scan(&index, &nodes, &parked)?;
            }
        }
    }

    #[test]
    fn dyn_references_are_policies_too() {
        let p: &dyn SchedPolicy = &Fcfs;
        let q = [job(0, 1.0, 1)];
        let v = pool_view(&q, 1, 1);
        assert_eq!(p.select(&v), Some(Decision::pick(0)));
        assert_eq!(p.name(), "FCFS");
    }
}
