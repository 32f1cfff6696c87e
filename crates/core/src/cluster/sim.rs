//! The event-driven cluster simulator: a heterogeneous fleet with
//! per-node power states serving a job stream under any [`SchedPolicy`].
//!
//! The simulator owns three event kinds — job arrival, job finish, and
//! node park. Finishes and parks live on the shared
//! [`hetsim::des::EventKernel`] (earliest `(time, seq)` first); arrivals
//! ride a cursor over the time-sorted job slice, merged against the
//! queue head per batch — same total order, but the calendar only ever
//! holds live finishes and park checks, so it stays cache-resident at
//! million-job scale. After every event batch the simulator asks the
//! policy's `select` repeatedly until it declines.
//!
//! Since ISSUE 10 the scheduler state is **incrementally maintained**
//! (the million-job serving tentpole): where the original loop rebuilt a
//! fresh `Vec<NodeView>`, re-cloned the running set, and re-summed
//! `free_gpus` on *every* `select` call, [`ClusterSim`] keeps
//!
//! * a persistent [`NodeView`] bank patched in place by place / finish
//!   deltas (the `TrackBank` intern-once discipline from `hetsim::des`
//!   applied to scheduler state: resolve once, then every update is an
//!   array store);
//! * the running set in policy-visible order with a job→slot index, so a
//!   finish is one `swap_remove` instead of an O(running) scan;
//! * the queue as a dense vector behind a head cursor, so the FCFS-shaped
//!   head removal is O(1) and mid-queue removal is one `memmove`;
//! * cached `free_gpus` / capacity aggregates, updated by the same deltas
//!   (debug builds periodically recount from scratch and assert equality);
//! * a [`FreeCapacity`] index of the nodes' free counts and power
//!   states: one segment tree per speed group, patched along one
//!   leaf-to-root path on every place, finish, park and wake. The
//!   `ClusterView::fits` every policy asks per queued job is one compare
//!   against the per-level maxima folded from the trees' roots, and both
//!   placement searches descend one group's tree in O(log n) instead of
//!   visiting nodes: SLA-Urgency's
//!   pin ([`ClusterView::fastest_fit`]) and the simulator's own fallback
//!   for policies that do not pin ([`FreeCapacity::fastest_best_fit`]:
//!   fastest speed group, awake before parked, fewest free GPUs, lowest
//!   id);
//! * reusable scratch buffers (event batch, waits, the event calendar), so
//!   the steady-state loop allocates nothing per event.
//!
//! Placement rescales the job's reference duration by the node's relative
//! speed; waking a parked node charges the class's boot latency to the
//! job's wait. Per-node energy is integrated lazily: each node carries a
//! `power_mark`, advanced (and its joules charged at the power state in
//! force) whenever the node's state changes.
//!
//! Every metric is **bitwise identical** to the retained naive reference
//! loop (`simulate_cluster_reference` in the `xtests` crate), pinned by
//! `tests/tests/cluster_scale_props.rs` across all six built-in policies.
//!
//! This is the only loop that drives [`SchedPolicy::select`]: the §4.7
//! single-GPU-pool study runs on it too, as a fleet of one node
//! ([`super::pool::simulate_pool`]).

use hetsim::des::{total_order_key, EventKernel};
use hetsim::obs::{quantile, Recorder, SpanKind};
use sched::{ClusterView, FreeCapacity, JobInfo, NodeView, QueuedJob, RunningJob, SchedPolicy};

use super::machine::MachineClass;
use super::stream::ClusterJob;

/// Fleet plus operating policy knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub fleet: Vec<MachineClass>,
    /// Power governor: a node idle this long is powered off (`None` =
    /// nodes never park, the classic always-on machine room).
    pub park_after_s: Option<f64>,
}

impl ClusterConfig {
    /// The default fleet with a 2-minute park governor.
    pub fn default_fleet() -> ClusterConfig {
        ClusterConfig {
            fleet: super::machine::default_fleet(),
            park_after_s: Some(120.0),
        }
    }
}

/// What one simulated serving run produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterMetrics {
    pub completed: usize,
    /// Jobs that carried a finite SLA deadline.
    pub sla_tracked: usize,
    pub sla_violations: usize,
    /// `sla_violations / sla_tracked` (0 when nothing is tracked).
    pub sla_violation_rate: f64,
    /// Busy GPU-seconds over total GPU-seconds to the makespan.
    pub utilization: f64,
    /// Busy core-seconds over total core-seconds to the makespan.
    pub cpu_utilization: f64,
    pub mean_wait: f64,
    pub p50_wait: f64,
    pub p99_wait: f64,
    /// The longest wait (0 when nothing ran).
    pub max_wait: f64,
    pub makespan: f64,
    /// Fleet energy to the makespan, joules.
    pub joules: f64,
    /// Parked-node wakes (each charged its class's boot latency).
    pub wakes: usize,
    /// Idle nodes powered off by the governor.
    pub parks: usize,
}

/// Events carry **slice indices** into the job list, never `ClusterJob::id`
/// (the historical id-as-index coupling broke on non-contiguous ids; see
/// `shuffled_ids_*` tests).
#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrive(u32),
    Finish {
        node: u32,
        /// Index into the `jobs` slice (== running-slot key).
        job: u32,
    },
    /// Park check scheduled when a node went idle at `idle_stamp`; fires
    /// only if the node is still in that same idle stretch.
    Park {
        node: u32,
        idle_stamp: f64,
    },
}

/// Per-node state the policies never see: power bookkeeping and the
/// park governor inputs. Resource counts live in the [`NodeView`] bank —
/// one source of truth, borrowed directly by every `ClusterView`.
#[derive(Debug, Clone)]
struct NodeAux {
    wake_s: f64,
    on: bool,
    idle_since: f64,
    power_mark: f64,
    joules: f64,
    running: u32,
}

/// Most tree cells the fleet's [`FreeCapacity`] index may hold, as
/// bounded by [`FreeCapacity::max_cells`] from the fleet's node count and
/// its most GPUs per node (64 MiB of 4-byte cells at most). Core counts
/// do not size the index; a node's cores need only fit a tree slot.
const MAX_INDEX_CELLS: usize = 1 << 24;

/// Sampling period (events) for the debug-build aggregate recount.
#[cfg(debug_assertions)]
const CHECK_EVERY: u64 = 1024;

/// A reusable cluster simulator: fleet state, event queue, and scratch
/// buffers built once and recycled across [`ClusterSim::run`] calls, so a
/// measurement loop's steady state touches the allocator zero times per
/// event (asserted by `benches/cluster.rs` under the counting allocator).
pub struct ClusterSim {
    fleet: Vec<MachineClass>,
    park_after_s: Option<f64>,
    /// The persistent policy-visible node bank (resource source of truth).
    views: Vec<NodeView>,
    aux: Vec<NodeAux>,
    total_gpus: usize,
    total_cores: usize,
    /// Cached aggregate: sum of `views[i].gpus_free`.
    free_gpus: usize,
    /// Free-capacity index over `views` and the nodes' power states,
    /// patched on every place, finish, park and wake.
    capacity: FreeCapacity,
    events: EventKernel<Ev>,
    /// Waiting jobs in arrival order, dense behind `head` (the policy
    /// sees `&queue[head..]`; head removal is a cursor bump).
    queue: Vec<QueuedJob>,
    /// Slice index of each queue entry (parallel to `queue`).
    queue_jobs: Vec<u32>,
    head: usize,
    /// Running jobs in policy-visible order (push + `swap_remove`).
    running: Vec<RunningJob>,
    /// Slice index of each running entry (parallel to `running`).
    running_jobs: Vec<u32>,
    /// Slice index → position in `running` (u32::MAX = not running).
    job_slot: Vec<u32>,
    waits: Vec<f64>,
    /// Scratch for one same-time event batch.
    batch: Vec<Ev>,
    #[cfg(debug_assertions)]
    events_seen: u64,
}

impl ClusterSim {
    /// Build the fleet state for `cfg`. All allocation-heavy setup happens
    /// here (and on the first `run` as buffers grow to the stream's peak);
    /// later runs reuse every buffer.
    pub fn new(cfg: &ClusterConfig) -> ClusterSim {
        let fleet = cfg.fleet.clone();
        let mut views: Vec<NodeView> = Vec::new();
        let mut aux: Vec<NodeAux> = Vec::new();
        let (mut nodes, mut max_gpus) = (0usize, 0usize);
        for (ci, c) in fleet.iter().enumerate() {
            nodes = nodes.saturating_add(c.count);
            max_gpus = max_gpus.max(c.gpus_per_node);
            assert!(
                FreeCapacity::max_cells(nodes, max_gpus)
                    .is_some_and(|cells| cells <= MAX_INDEX_CELLS),
                "class {} ({} GPUs, {} cores per node) grows the free-capacity index \
                 past {MAX_INDEX_CELLS} cells",
                c.name,
                c.gpus_per_node,
                c.cores_per_node
            );
            assert!(
                c.cores_per_node < u32::MAX as usize,
                "class {} ({} cores per node) has more cores than a free-capacity \
                 slot holds",
                c.name,
                c.cores_per_node
            );
            for _ in 0..c.count {
                let id = views.len();
                views.push(NodeView {
                    id,
                    class: ci,
                    gpus_free: c.gpus_per_node,
                    cores_free: c.cores_per_node,
                    gpus_total: c.gpus_per_node,
                    cores_total: c.cores_per_node,
                    speed: c.speed,
                    busy: false,
                });
                aux.push(NodeAux {
                    wake_s: c.wake_s,
                    on: true,
                    idle_since: 0.0,
                    power_mark: 0.0,
                    joules: 0.0,
                    running: 0,
                });
            }
        }
        assert!(views.len() < u32::MAX as usize, "fleet too large");
        let total_gpus: usize = views.iter().map(|n| n.gpus_total).sum();
        let total_cores: usize = views.iter().map(|n| n.cores_total).sum();
        let free_gpus = total_gpus;
        let capacity = FreeCapacity::of(&views);
        ClusterSim {
            fleet,
            park_after_s: cfg.park_after_s,
            views,
            aux,
            total_gpus,
            total_cores,
            free_gpus,
            capacity,
            events: EventKernel::new(),
            queue: Vec::new(),
            queue_jobs: Vec::new(),
            head: 0,
            running: Vec::new(),
            running_jobs: Vec::new(),
            job_slot: Vec::new(),
            waits: Vec::new(),
            batch: Vec::new(),
            #[cfg(debug_assertions)]
            events_seen: 0,
        }
    }

    /// Rewind every clock and counter to the fresh-fleet state, keeping
    /// all buffer capacity (the reuse discipline of `hetsim::des`).
    fn reset(&mut self, jobs: usize) {
        for (ni, (v, a)) in self.views.iter_mut().zip(&mut self.aux).enumerate() {
            // A finished run leaves every node idle, so only the nodes it
            // left parked move in the index.
            if v.gpus_free != v.gpus_total || v.cores_free != v.cores_total || !a.on {
                self.capacity.update(ni, v.gpus_total, v.cores_total, false);
            }
            v.gpus_free = v.gpus_total;
            v.cores_free = v.cores_total;
            v.busy = false;
            a.on = true;
            a.idle_since = 0.0;
            a.power_mark = 0.0;
            a.joules = 0.0;
            a.running = 0;
        }
        self.free_gpus = self.total_gpus;
        self.events.reset();
        self.queue.clear();
        self.queue_jobs.clear();
        self.head = 0;
        self.running.clear();
        self.running_jobs.clear();
        self.job_slot.clear();
        self.job_slot.resize(jobs, u32::MAX);
        self.waits.clear();
        self.waits.reserve(jobs);
        self.batch.clear();
    }

    /// Charge node `ni`'s energy at its current power state up to `now`.
    #[inline]
    fn integrate(&mut self, ni: usize, now: f64) {
        let v = &self.views[ni];
        let a = &mut self.aux[ni];
        let frac = if v.cores_total == 0 {
            0.0
        } else {
            (v.cores_total - v.cores_free) as f64 / v.cores_total as f64
        };
        let busy_gpus = v.gpus_total - v.gpus_free;
        let w = self.fleet[v.class].power.node_watts(a.on, frac, busy_gpus);
        a.joules += w * (now - a.power_mark);
        a.power_mark = now;
    }

    /// Bring node `ni`'s entry in the free-capacity index up to date with
    /// its view and power state.
    #[inline]
    fn reindex(&mut self, ni: usize) {
        let v = &self.views[ni];
        self.capacity
            .update(ni, v.gpus_free, v.cores_free, !self.aux[ni].on);
    }

    /// From-scratch recount of the incremental aggregates: cached
    /// `free_gpus` vs a fresh per-node sum, the free-capacity index vs
    /// one rebuilt from the node bank and the nodes' power states (every
    /// tree slot, both tiers), busy flags vs running counts, and
    /// the job→slot index vs the running set. Debug builds assert
    /// this periodically from the event loop (every `CHECK_EVERY`
    /// events) and once at end of run; the conformance suite
    /// (`tests/tests/cluster_scale_props.rs`) checks it explicitly.
    pub fn aggregates_consistent(&self) -> bool {
        let free: usize = self.views.iter().map(|v| v.gpus_free).sum();
        let running_gpus: usize = self.running.iter().map(|r| r.gpus).sum();
        let busy_ok = self
            .views
            .iter()
            .zip(&self.aux)
            .all(|(v, a)| v.busy == (a.running > 0));
        let slots_ok = self
            .running_jobs
            .iter()
            .enumerate()
            .all(|(pos, &j)| self.job_slot[j as usize] == pos as u32);
        let mut rebuilt = FreeCapacity::default();
        rebuilt.rebuild(&self.views, |i| !self.aux[i].on);
        free == self.free_gpus
            && self.total_gpus - free == running_gpus
            && self.capacity == rebuilt
            && busy_ok
            && slots_ok
    }

    #[inline]
    fn debug_check(&mut self) {
        #[cfg(debug_assertions)]
        {
            self.events_seen += 1;
            if self.events_seen.is_multiple_of(CHECK_EVERY) {
                debug_assert!(
                    self.aggregates_consistent(),
                    "incremental aggregates diverged from recount"
                );
            }
        }
    }

    /// Serve `jobs` on the fleet under `policy`, recording `cluster.*`
    /// gauges/counters and a `cluster`-track span into `rec` (skipped
    /// entirely — including the span-name formatting — when `rec` is a
    /// noop).
    ///
    /// Panics if some job fits no node of the fleet (it could never
    /// run), or if `jobs` is not sorted by arrival time (the shape
    /// [`super::stream::job_stream`] always produces).
    pub fn run(
        &mut self,
        jobs: &[ClusterJob],
        policy: &dyn SchedPolicy,
        rec: &Recorder,
    ) -> ClusterMetrics {
        assert!(jobs.len() < u32::MAX as usize, "job stream too large");
        self.reset(jobs.len());
        // Every node is at full capacity right after the reset, so the
        // index's one compare tells whether a job can ever run.
        for j in jobs {
            assert!(
                self.capacity.fits(&job_info(j)),
                "job {} ({} GPUs, {} cores) fits no node of the fleet",
                j.id,
                j.gpus,
                j.cores
            );
        }

        // Arrivals are NOT scheduled on the event queue: `job_stream`
        // hands them out time-sorted, so a cursor merge against the
        // queue head reproduces the reference pop order exactly (at
        // equal times arrivals carried the smallest `seq`s there, so
        // they always drained first) while keeping the calendar down to
        // live finishes and park checks — cache-resident, where a
        // million pre-scheduled arrivals made every bucket probe a miss.
        let mut next_arrival = 0usize;
        for w in jobs.windows(2) {
            assert!(
                w[0].arrival.total_cmp(&w[1].arrival) != std::cmp::Ordering::Greater,
                "cluster job streams must be sorted by arrival time"
            );
        }
        // The whole fleet starts on and idle: the governor's first sweep.
        if let Some(d) = self.park_after_s {
            for ni in 0..self.views.len() {
                self.events.schedule(
                    d,
                    Ev::Park {
                        node: ni as u32,
                        idle_stamp: 0.0,
                    },
                );
            }
        }

        let mut completed = 0usize;
        let mut sla_tracked = 0usize;
        let mut sla_violations = 0usize;
        let mut busy_gpu_s = 0.0f64;
        let mut busy_core_s = 0.0f64;
        let mut wakes = 0usize;
        let mut parks = 0usize;
        let mut makespan = 0.0f64;

        loop {
            // Next batch time: earliest of the arrival cursor and the
            // queue head (ties go to the arrival, which held the smaller
            // `seq` in the reference order). `total_cmp` so a NaN finish
            // time loses to any real arrival instead of poisoning `min`.
            let ev_key = self.events.peek_key();
            let now = match (jobs.get(next_arrival), ev_key) {
                (None, None) => break,
                (Some(j), None) => j.arrival,
                (None, Some(k)) => k.time,
                (Some(j), Some(k)) => {
                    if j.arrival.total_cmp(&k.time) != std::cmp::Ordering::Greater {
                        j.arrival
                    } else {
                        k.time
                    }
                }
            };
            makespan = makespan.max(now);
            // Drain simultaneous events into the reusable scratch batch so
            // one scheduling pass sees them all (and an event scheduled
            // *by* this batch never joins it, whatever its timestamp).
            // Arrivals first — the reference's seq order for time ties.
            self.batch.clear();
            while next_arrival < jobs.len() && jobs[next_arrival].arrival <= now {
                self.batch.push(Ev::Arrive(next_arrival as u32));
                next_arrival += 1;
            }
            while let Some(k) = self.events.peek_key() {
                if k.time > now {
                    break;
                }
                self.batch.push(self.events.pop().expect("peeked").1);
            }
            debug_assert!(!self.batch.is_empty(), "batch time chosen from nothing");
            for bi in 0..self.batch.len() {
                let ev = self.batch[bi];
                self.debug_check();
                match ev {
                    Ev::Arrive(i) => {
                        self.queue.push(QueuedJob {
                            job: job_info(&jobs[i as usize]),
                            bypassed: 0,
                        });
                        self.queue_jobs.push(i);
                    }
                    Ev::Finish { node, job } => {
                        let ni = node as usize;
                        let j = &jobs[job as usize];
                        self.integrate(ni, now);
                        let v = &mut self.views[ni];
                        v.gpus_free += j.gpus;
                        v.cores_free += j.cores;
                        self.reindex(ni);
                        self.free_gpus += j.gpus;
                        let a = &mut self.aux[ni];
                        a.running -= 1;
                        if a.running == 0 {
                            self.views[ni].busy = false;
                            a.idle_since = now;
                            if let Some(d) = self.park_after_s {
                                self.events.schedule(
                                    now + d,
                                    Ev::Park {
                                        node,
                                        idle_stamp: now,
                                    },
                                );
                            }
                        }
                        // O(1) removal via the job→slot index; the moved
                        // tail entry inherits the vacated slot, exactly
                        // like the old id-scan + swap_remove.
                        let pos = self.job_slot[job as usize] as usize;
                        debug_assert!(pos != u32::MAX as usize, "finishing job is running");
                        self.running.swap_remove(pos);
                        self.running_jobs.swap_remove(pos);
                        self.job_slot[job as usize] = u32::MAX;
                        if pos < self.running.len() {
                            self.job_slot[self.running_jobs[pos] as usize] = pos as u32;
                        }
                        completed += 1;
                        if j.deadline.is_finite() {
                            sla_tracked += 1;
                            if now > j.deadline + 1e-9 {
                                sla_violations += 1;
                            }
                        }
                    }
                    Ev::Park { node, idle_stamp } => {
                        let ni = node as usize;
                        let a = &self.aux[ni];
                        if a.on && a.running == 0 && a.idle_since == idle_stamp {
                            self.integrate(ni, now);
                            self.aux[ni].on = false;
                            self.reindex(ni);
                            parks += 1;
                        }
                    }
                }
            }

            // Scheduling pass: ask the policy until it declines. The view
            // is a cheap borrow of the incremental state — no per-decision
            // rebuild.
            loop {
                if self.head == self.queue.len() {
                    break;
                }
                let view = ClusterView {
                    now,
                    queue: &self.queue[self.head..],
                    running: &self.running,
                    free_gpus: self.free_gpus,
                    total_gpus: self.total_gpus,
                    nodes: &self.views,
                    capacity: Some(&self.capacity),
                };
                let Some(d) = policy.select(&view) else { break };
                let qlen = self.queue.len() - self.head;
                if d.queue_idx >= qlen {
                    break; // defensive: a buggy policy must not wedge the sim
                }
                let at = self.head + d.queue_idx;
                let job = self.queue[at].job;
                let job_idx = self.queue_jobs[at];
                // Respect the policy's pin when valid, else place on the
                // fastest fitting node (prefer awake ones, then best fit,
                // then lowest id), found by the index.
                let target = d
                    .node
                    .filter(|&ni| ni < self.views.len() && self.views[ni].fits(&job))
                    .or_else(|| self.capacity.fastest_best_fit(&job));
                let Some(ni) = target else { break };
                policy.on_select(&mut self.queue[self.head..], d.queue_idx);
                if d.queue_idx == 0 {
                    self.head += 1;
                    // Amortized compaction keeps the dead prefix bounded.
                    if self.head >= 64 && self.head * 2 >= self.queue.len() {
                        self.queue.drain(..self.head);
                        self.queue_jobs.drain(..self.head);
                        self.head = 0;
                    }
                } else {
                    self.queue.remove(at);
                    self.queue_jobs.remove(at);
                }

                self.integrate(ni, now);
                let a = &mut self.aux[ni];
                let start = if a.on {
                    now
                } else {
                    a.on = true;
                    wakes += 1;
                    now + a.wake_s
                };
                let v = &mut self.views[ni];
                v.gpus_free -= job.gpus;
                v.cores_free -= job.cores;
                v.busy = true;
                self.reindex(ni);
                self.free_gpus -= job.gpus;
                self.aux[ni].running += 1;
                let runtime = job.duration / self.views[ni].speed;
                let finish = start + runtime;
                self.waits.push(start - job.arrival);
                busy_gpu_s += runtime * job.gpus as f64;
                busy_core_s += runtime * job.cores as f64;
                self.job_slot[job_idx as usize] = self.running.len() as u32;
                self.running.push(RunningJob {
                    finish,
                    gpus: job.gpus,
                    cores: job.cores,
                });
                self.running_jobs.push(job_idx);
                self.events.schedule(
                    finish,
                    Ev::Finish {
                        node: ni as u32,
                        job: job_idx,
                    },
                );
            }
            if completed == jobs.len() {
                // Only governor park checks remain; the serving run is over
                // and `makespan` is the last job's finish.
                break;
            }
        }
        assert!(
            self.head == self.queue.len(),
            "drained event queue with jobs still queued"
        );
        assert_eq!(completed, jobs.len());
        debug_assert!(self.aggregates_consistent());

        for ni in 0..self.views.len() {
            self.integrate(ni, makespan);
        }
        let joules: f64 = self.aux.iter().map(|a| a.joules).sum();
        // Integer keys: no float compare per step, and the order (equal
        // keys are bitwise-equal waits) is the stable `total_cmp` one.
        self.waits.sort_unstable_by_key(|&w| total_order_key(w));
        let waits = &self.waits;
        let pct = |q: f64| quantile(waits, q);
        let span = makespan.max(1e-9);
        let m = ClusterMetrics {
            completed,
            sla_tracked,
            sla_violations,
            sla_violation_rate: if sla_tracked == 0 {
                0.0
            } else {
                sla_violations as f64 / sla_tracked as f64
            },
            utilization: busy_gpu_s / (self.total_gpus.max(1) as f64 * span),
            cpu_utilization: busy_core_s / (self.total_cores.max(1) as f64 * span),
            mean_wait: waits.iter().sum::<f64>() / waits.len().max(1) as f64,
            p50_wait: pct(0.50),
            p99_wait: pct(0.99),
            max_wait: waits.last().copied().unwrap_or(0.0),
            makespan,
            joules,
            wakes,
            parks,
        };

        // The noop-recorder path publishes nothing — not even the
        // formatted span name (the old unconditional `format!` allocated
        // on every run of an instrument-free measurement loop).
        if rec.is_enabled() {
            rec.record_span(
                format!("cluster:{}", policy.name()),
                SpanKind::Phase,
                "cluster",
                0.0,
                makespan,
            );
            rec.incr("cluster.jobs_completed", m.completed as f64);
            rec.incr("cluster.sla_violations", m.sla_violations as f64);
            rec.incr("cluster.node_wakes", m.wakes as f64);
            rec.incr("cluster.node_parks", m.parks as f64);
            rec.gauge("cluster.sla_violation_rate", m.sla_violation_rate);
            rec.gauge("cluster.utilization", m.utilization);
            rec.gauge("cluster.cpu_utilization", m.cpu_utilization);
            rec.gauge("cluster.p50_wait_s", m.p50_wait);
            rec.gauge("cluster.p99_wait_s", m.p99_wait);
            rec.gauge("cluster.joules", m.joules);
            rec.gauge("cluster.makespan_s", m.makespan);
        }
        m
    }
}

/// What a policy sees of `j`.
fn job_info(j: &ClusterJob) -> JobInfo {
    JobInfo {
        id: j.id,
        arrival: j.arrival,
        duration: j.duration,
        gpus: j.gpus,
        cores: j.cores,
        deadline: j.deadline,
    }
}

/// Serve `jobs` on the configured fleet under `policy`, recording
/// `cluster.*` gauges/counters and a `cluster`-track span into `rec`.
///
/// One-shot wrapper over [`ClusterSim`]; measurement loops that re-serve
/// streams on the same fleet should hold a `ClusterSim` and call
/// [`ClusterSim::run`] to reuse its buffers.
///
/// Panics if some job fits no node of the fleet (it could never run).
pub fn simulate_cluster(
    cfg: &ClusterConfig,
    jobs: &[ClusterJob],
    policy: &dyn SchedPolicy,
    rec: &Recorder,
) -> ClusterMetrics {
    ClusterSim::new(cfg).run(jobs, policy, rec)
}

#[cfg(test)]
mod tests {
    use super::super::stream::{job_stream, StreamConfig};
    use super::*;
    use sched::{EasyBackfill, Fcfs, GpuBinPack, Sjf, SjfQuota, SlaUrgency};

    fn small_stream() -> Vec<ClusterJob> {
        job_stream(&StreamConfig::spiky(150, 4.0, 5))
    }

    #[test]
    fn every_builtin_policy_completes_the_stream() {
        let cfg = ClusterConfig::default_fleet();
        let jobs = small_stream();
        let policies: Vec<Box<dyn SchedPolicy>> = vec![
            Box::new(Fcfs),
            Box::new(Sjf),
            Box::new(SjfQuota { quota: 8 }),
            Box::new(EasyBackfill),
            Box::new(GpuBinPack),
            Box::new(SlaUrgency),
        ];
        for p in &policies {
            let rec = Recorder::noop();
            let m = simulate_cluster(&cfg, &jobs, p.as_ref(), &rec);
            assert_eq!(m.completed, jobs.len(), "{}", p.name());
            assert!(m.utilization <= 1.0 + 1e-9, "{}", p.name());
            assert!(m.cpu_utilization <= 1.0 + 1e-9, "{}", p.name());
            assert!(m.joules > 0.0);
            assert!(m.makespan >= jobs.last().expect("jobs").arrival);
            assert!(m.sla_tracked > 0 && m.sla_tracked <= m.completed);
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let cfg = ClusterConfig::default_fleet();
        let jobs = small_stream();
        let rec = Recorder::noop();
        let a = simulate_cluster(&cfg, &jobs, &GpuBinPack, &rec);
        let b = simulate_cluster(&cfg, &jobs, &GpuBinPack, &rec);
        assert_eq!(a, b);
    }

    /// Bitwise field-level equality (stricter than `PartialEq`: `-0.0`
    /// and `0.0` differ, and the comparison would catch a NaN leak).
    fn assert_bitwise_eq(a: &ClusterMetrics, b: &ClusterMetrics, ctx: &str) {
        assert_eq!(
            (a.completed, a.sla_tracked, a.sla_violations),
            (b.completed, b.sla_tracked, b.sla_violations),
            "{ctx}"
        );
        assert_eq!((a.wakes, a.parks), (b.wakes, b.parks), "{ctx}");
        for (name, x, y) in [
            (
                "sla_violation_rate",
                a.sla_violation_rate,
                b.sla_violation_rate,
            ),
            ("utilization", a.utilization, b.utilization),
            ("cpu_utilization", a.cpu_utilization, b.cpu_utilization),
            ("mean_wait", a.mean_wait, b.mean_wait),
            ("p50_wait", a.p50_wait, b.p50_wait),
            ("p99_wait", a.p99_wait, b.p99_wait),
            ("max_wait", a.max_wait, b.max_wait),
            ("makespan", a.makespan, b.makespan),
            ("joules", a.joules, b.joules),
        ] {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: {name} diverged ({x} vs {y})"
            );
        }
    }

    #[test]
    fn reused_simulator_replays_bitwise() {
        // A warm ClusterSim (buffers grown, event calendar warm) must be
        // indistinguishable from a fresh one — the reuse contract the
        // 0-alloc bench leans on.
        let cfg = ClusterConfig::default_fleet();
        let jobs = small_stream();
        let rec = Recorder::noop();
        let mut sim = ClusterSim::new(&cfg);
        let first = sim.run(&jobs, &SlaUrgency, &rec);
        let second = sim.run(&jobs, &SlaUrgency, &rec);
        let fresh = simulate_cluster(&cfg, &jobs, &SlaUrgency, &rec);
        assert_bitwise_eq(&first, &second, "warm replay");
        assert_bitwise_eq(&first, &fresh, "warm vs fresh");
    }

    #[test]
    fn shuffled_non_contiguous_ids_schedule_identically() {
        // The id-as-index regression (ISSUE 10 satellite): `Ev::Finish`
        // used to carry `job.id` and index the jobs slice with it, which
        // silently required ids == positions. Relabelled ids must neither
        // panic nor change any metric (no policy reads ids).
        let cfg = ClusterConfig::default_fleet();
        let jobs = small_stream();
        let mut relabelled = jobs.clone();
        let n = relabelled.len();
        for (i, j) in relabelled.iter_mut().enumerate() {
            // Non-contiguous, decreasing, and far out of slice range.
            j.id = 10_000 + 7 * (n - i);
        }
        let rec = Recorder::noop();
        for p in [&Fcfs as &dyn SchedPolicy, &Sjf, &SlaUrgency] {
            let base = simulate_cluster(&cfg, &jobs, p, &rec);
            let shuffled = simulate_cluster(&cfg, &relabelled, p, &rec);
            assert_bitwise_eq(&base, &shuffled, p.name());
        }
    }

    #[test]
    fn duplicate_ids_complete_correctly() {
        // Even all-identical ids are fine now: the running set is keyed
        // by slice position, not id (the old loop's position scan would
        // have freed the wrong entry).
        let cfg = ClusterConfig::default_fleet();
        let mut jobs = small_stream();
        for j in &mut jobs {
            j.id = 42;
        }
        let rec = Recorder::noop();
        let m = simulate_cluster(&cfg, &jobs, &Sjf, &rec);
        assert_eq!(m.completed, jobs.len());
    }

    #[test]
    fn parking_saves_energy_on_a_sparse_stream() {
        let mut cfg = ClusterConfig::default_fleet();
        let mut calm = StreamConfig::baseline(60, 9);
        calm.base_rate = 0.01; // long idle gaps between jobs
        let jobs = job_stream(&calm);
        let rec = Recorder::noop();
        cfg.park_after_s = Some(60.0);
        let parked = simulate_cluster(&cfg, &jobs, &GpuBinPack, &rec);
        cfg.park_after_s = None;
        let always_on = simulate_cluster(&cfg, &jobs, &GpuBinPack, &rec);
        assert!(parked.parks > 0);
        assert_eq!(always_on.parks, 0);
        assert_eq!(always_on.wakes, 0);
        assert!(
            parked.joules < 0.8 * always_on.joules,
            "parking should cut energy: {} vs {}",
            parked.joules,
            always_on.joules
        );
    }

    #[test]
    fn wakes_charge_boot_latency_to_waits() {
        // One job arriving long after the governor parked the fleet must
        // wait out the boot.
        let cfg = ClusterConfig {
            fleet: super::super::machine::default_fleet(),
            park_after_s: Some(10.0),
        };
        let jobs = vec![ClusterJob {
            id: 0,
            class: super::super::stream::TaskClass::GpuBurst,
            arrival: 1_000.0,
            duration: 50.0,
            gpus: 1,
            cores: 2,
            deadline: f64::INFINITY,
        }];
        let rec = Recorder::noop();
        let m = simulate_cluster(&cfg, &jobs, &Fcfs, &rec);
        assert_eq!(m.wakes, 1);
        assert!(m.p50_wait >= 59.0, "boot latency charged: {}", m.p50_wait);
    }

    #[test]
    fn nearest_rank_pins_p50_and_p99_on_a_known_sample() {
        // The wait quantiles delegate to the one shared
        // `hetsim::obs::quantile`; this pin guards the delegation keeps
        // the nearest-rank semantics the cluster experiments gate on.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        // Rank ceil(0.5 * 10) = 5 -> the 5th smallest, not the 6th the
        // old round((n-1) * q) formula picked.
        assert_eq!(quantile(&v, 0.50), 5.0);
        // Rank ceil(0.99 * 10) = 10 -> the maximum.
        assert_eq!(quantile(&v, 0.99), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // Rank 50 of 50, not 49: the tail value itself.
        let mut fifty: Vec<f64> = (1..=50).map(f64::from).collect();
        fifty.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(quantile(&fifty, 0.99), 50.0);
    }

    #[test]
    fn gauges_and_timeline_track_are_published() {
        let cfg = ClusterConfig::default_fleet();
        let jobs = job_stream(&StreamConfig::baseline(80, 2));
        let rec = Recorder::enabled();
        simulate_cluster(&cfg, &jobs, &SlaUrgency, &rec);
        assert!(rec
            .gauges()
            .iter()
            .any(|(k, _)| k.as_str() == "cluster.joules"));
        assert!(rec
            .gauges()
            .iter()
            .any(|(k, _)| k.as_str() == "cluster.sla_violation_rate"));
        assert!(rec.counter("cluster.jobs_completed") > 0.0);
        let tl = rec.render_timeline(60);
        assert!(tl.contains("cluster"), "timeline track present:\n{tl}");
    }

    /// The default fleet plus one node of a CPU-only class with `cores`
    /// cores.
    fn fleet_with_smp(cores: usize) -> ClusterConfig {
        let mut fleet = super::super::machine::default_fleet();
        let mut huge = fleet[0].clone();
        huge.name = "huge-smp";
        huge.count = 1;
        huge.gpus_per_node = 0;
        huge.cores_per_node = cores;
        fleet.push(huge);
        ClusterConfig {
            fleet,
            park_after_s: None,
        }
    }

    #[test]
    fn a_billion_core_node_builds_and_serves() {
        // Core counts do not size the free-capacity index, so a node
        // claiming a billion cores costs what any node does.
        let jobs = vec![ClusterJob {
            id: 0,
            class: super::super::stream::TaskClass::GpuSolve,
            arrival: 0.0,
            duration: 10.0,
            gpus: 0,
            cores: 1 << 29,
            deadline: f64::INFINITY,
        }];
        let m = simulate_cluster(&fleet_with_smp(1 << 30), &jobs, &Fcfs, &Recorder::noop());
        assert_eq!(m.completed, 1);
        assert_eq!(m.max_wait, 0.0);
    }

    #[test]
    #[should_panic(
        expected = "class huge-smp (4294967295 cores per node) has more cores than a \
                    free-capacity slot holds"
    )]
    fn core_counts_past_a_slot_are_rejected_up_front() {
        ClusterSim::new(&fleet_with_smp(u32::MAX as usize));
    }

    #[test]
    #[should_panic(
        expected = "class gpu-slab (4096 GPUs, 44 cores per node) grows the free-capacity index"
    )]
    fn oversized_gpu_counts_are_rejected_up_front() {
        // Every speed group's tree keeps two slots per free-GPU level for
        // each of its nodes: a thousand nodes of 4,096 GPUs would take
        // some 64 MiB of tree.
        let mut fleet = super::super::machine::default_fleet();
        let mut slab = fleet[0].clone();
        slab.name = "gpu-slab";
        slab.count = 1000;
        slab.gpus_per_node = 4096;
        fleet.push(slab);
        ClusterSim::new(&ClusterConfig {
            fleet,
            park_after_s: None,
        });
    }

    #[test]
    #[should_panic(expected = "fits no node")]
    fn impossible_jobs_are_rejected_up_front() {
        let cfg = ClusterConfig::default_fleet();
        let jobs = vec![ClusterJob {
            id: 0,
            class: super::super::stream::TaskClass::GpuSolve,
            arrival: 0.0,
            duration: 10.0,
            gpus: 64,
            cores: 0,
            deadline: f64::INFINITY,
        }];
        simulate_cluster(&cfg, &jobs, &Fcfs, &Recorder::noop());
    }
}
