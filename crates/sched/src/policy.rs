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

use std::cmp::Ordering;

use crate::workload::Job;

/// Order two node speeds *descending* (fastest first) with NaN sorted
/// last. A plain `total_cmp` on the flipped operands would do the
/// opposite — IEEE total order ranks positive NaN above `+inf`, so a
/// node whose speed got corrupted to NaN would win every placement.
/// Every descending-speed preference in the built-in policies (and in
/// `icoe::cluster`'s placement fallback) routes through this instead, so
/// a NaN speed deterministically loses.
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
    /// is one node); a view built by hand may leave it empty to describe
    /// an aggregated pool, which [`ClusterView::fits`] then checks
    /// against `free_gpus`.
    pub nodes: &'a [NodeView],
}

impl ClusterView<'_> {
    /// Can `job` start right now somewhere?
    pub fn fits(&self, job: &JobInfo) -> bool {
        if self.nodes.is_empty() {
            job.gpus <= self.free_gpus
        } else {
            self.nodes.iter().any(|n| n.fits(job))
        }
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
        // Shadow time: when will the head job be able to start? Computed
        // over aggregate GPU counts (in cluster mode this is the usual
        // conservative approximation).
        let mut finishes: Vec<(f64, usize)> =
            view.running.iter().map(|r| (r.finish, r.gpus)).collect();
        finishes.sort_by(|a, b| a.0.total_cmp(&b.0));
        let head_need = head.job.gpus;
        let mut avail = view.free_gpus;
        let mut shadow = f64::INFINITY;
        let mut extra_at_shadow = 0usize;
        for &(f, g) in &finishes {
            avail += g;
            if avail >= head_need {
                shadow = f;
                extra_at_shadow = avail - head_need;
                break;
            }
        }
        // Backfill: the first queued job (FCFS order behind the head)
        // that fits now and either finishes before the shadow or fits in
        // the capacity left over once the head starts.
        let idx = view.queue.iter().enumerate().skip(1).position(|(_, q)| {
            view.fits(&q.job)
                && (view.now + q.job.duration <= shadow + 1e-12 || q.job.gpus <= extra_at_shadow)
        })?;
        Some(Decision::pick(idx + 1))
    }
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
/// pins the fastest compatible node to protect the SLA — energy be
/// damned, which is exactly the trade the policy shoot-out measures.
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
        let node = view
            .nodes
            .iter()
            .filter(|n| n.fits(&q.job))
            .min_by(|a, b| desc_speed_nan_last(a.speed, b.speed).then(a.id.cmp(&b.id)))
            .map(|n| n.id);
        Some(Decision { queue_idx: i, node })
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
        };
        let d = SlaUrgency.select(&v).expect("fits");
        assert_eq!(d.node, Some(1), "NaN speed must lose placement");
        // And the comparator itself documents the full order.
        let mut speeds = [1.0, f64::NAN, 2.0, f64::INFINITY];
        speeds.sort_by(|a, b| desc_speed_nan_last(*a, *b));
        assert!(speeds[0].is_infinite() && speeds[1] == 2.0 && speeds[2] == 1.0);
        assert!(speeds[3].is_nan());
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
