//! Shared oracles for the cross-crate integration tests in `tests/tests`.
//!
//! [`simulate_cluster_reference`] is the retained naive reference loop for
//! the cluster simulator: the pre-incremental `simulate_cluster`
//! scheduling loop, kept verbatim (minus recorder publishing, which never
//! touched the metrics). It rebuilds a fresh `Vec<NodeView>` and re-clones
//! the running set on every `policy.select` call, re-sums `free_gpus` per
//! decision, removes queue entries by `Vec::remove`, and finds finishing
//! jobs with an O(running) position scan. Quadratic-plus in jobs, which
//! is why it lives here as the conformance oracle rather than in the
//! library: `icoe::cluster::ClusterSim` must produce **bitwise identical**
//! [`ClusterMetrics`] on any stream (pinned by
//! `tests/tests/cluster_scale_props.rs`).
//!
//! One knowing limitation kept on purpose: this loop indexes the `jobs`
//! slice with `job.id` (the historical id-as-index coupling the indexed
//! simulator fixes), so it is only callable on streams whose ids equal
//! slice positions — the shape `job_stream` produces and the conformance
//! suite draws.

use icoe::cluster::{ClusterConfig, ClusterJob, ClusterMetrics, MachineClass};
use icoe::hetsim::des::EventKernel;
use icoe::hetsim::obs::quantile;
use icoe::sched::policy::desc_speed_nan_last;
use icoe::sched::{
    ClusterView, FreeCapacity, JobInfo, NodeView, QueuedJob, RunningJob, SchedPolicy,
};

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrive(usize),
    Finish { node: usize, job: usize },
    Park { node: usize, idle_stamp: f64 },
}

struct NodeState {
    class: usize,
    speed: f64,
    wake_s: f64,
    gpus_total: usize,
    cores_total: usize,
    gpus_free: usize,
    cores_free: usize,
    running: usize,
    on: bool,
    idle_since: f64,
    power_mark: f64,
    joules: f64,
}

impl NodeState {
    fn view(&self, id: usize) -> NodeView {
        NodeView {
            id,
            class: self.class,
            gpus_free: self.gpus_free,
            cores_free: self.cores_free,
            gpus_total: self.gpus_total,
            cores_total: self.cores_total,
            speed: self.speed,
            busy: self.running > 0,
        }
    }
}

/// The naive per-decision-rebuild serving loop. Requires `jobs[i].id == i`
/// (see the module doc); panics if some job fits no node of the fleet.
pub fn simulate_cluster_reference(
    cfg: &ClusterConfig,
    jobs: &[ClusterJob],
    policy: &dyn SchedPolicy,
) -> ClusterMetrics {
    for (i, j) in jobs.iter().enumerate() {
        assert_eq!(j.id, i, "the reference loop needs id-as-index streams");
    }
    let fleet = &cfg.fleet;
    let mut nodes: Vec<NodeState> = Vec::new();
    for (ci, c) in fleet.iter().enumerate() {
        for _ in 0..c.count {
            nodes.push(NodeState {
                class: ci,
                speed: c.speed,
                wake_s: c.wake_s,
                gpus_total: c.gpus_per_node,
                cores_total: c.cores_per_node,
                gpus_free: c.gpus_per_node,
                cores_free: c.cores_per_node,
                running: 0,
                on: true,
                idle_since: 0.0,
                power_mark: 0.0,
                joules: 0.0,
            });
        }
    }
    let total_gpus: usize = nodes.iter().map(|n| n.gpus_total).sum();
    let total_cores: usize = nodes.iter().map(|n| n.cores_total).sum();
    for j in jobs {
        assert!(
            nodes
                .iter()
                .any(|n| j.gpus <= n.gpus_total && j.cores <= n.cores_total),
            "job {} ({} GPUs, {} cores) fits no node of the fleet",
            j.id,
            j.gpus,
            j.cores
        );
    }

    let mut events: EventKernel<Ev> = EventKernel::new();
    for (i, j) in jobs.iter().enumerate() {
        events.schedule(j.arrival, Ev::Arrive(i));
    }
    if let Some(d) = cfg.park_after_s {
        for ni in 0..nodes.len() {
            events.schedule(
                d,
                Ev::Park {
                    node: ni,
                    idle_stamp: 0.0,
                },
            );
        }
    }

    let mut queue: Vec<QueuedJob> = Vec::new();
    let mut running: Vec<(usize, RunningJob)> = Vec::new();
    let mut waits: Vec<f64> = Vec::with_capacity(jobs.len());
    let mut completed = 0usize;
    let mut sla_tracked = 0usize;
    let mut sla_violations = 0usize;
    let mut busy_gpu_s = 0.0f64;
    let mut busy_core_s = 0.0f64;
    let mut wakes = 0usize;
    let mut parks = 0usize;
    let mut makespan = 0.0f64;

    let integrate = |n: &mut NodeState, power: &[MachineClass], now: f64| {
        let frac = if n.cores_total == 0 {
            0.0
        } else {
            (n.cores_total - n.cores_free) as f64 / n.cores_total as f64
        };
        let busy_gpus = n.gpus_total - n.gpus_free;
        let w = power[n.class].power.node_watts(n.on, frac, busy_gpus);
        n.joules += w * (now - n.power_mark);
        n.power_mark = now;
    };

    while let Some((key, head)) = events.pop() {
        let now = key.time;
        makespan = makespan.max(now);
        let mut batch = vec![head];
        while let Some(k) = events.peek_key() {
            if k.time > now {
                break;
            }
            batch.push(events.pop().expect("peeked").1);
        }
        for ev in batch {
            match ev {
                Ev::Arrive(i) => {
                    let j = &jobs[i];
                    queue.push(QueuedJob {
                        job: JobInfo {
                            id: j.id,
                            arrival: j.arrival,
                            duration: j.duration,
                            gpus: j.gpus,
                            cores: j.cores,
                            deadline: j.deadline,
                        },
                        bypassed: 0,
                    });
                }
                Ev::Finish { node, job } => {
                    let j = &jobs[job];
                    let n = &mut nodes[node];
                    integrate(n, fleet, now);
                    n.gpus_free += j.gpus;
                    n.cores_free += j.cores;
                    n.running -= 1;
                    if n.running == 0 {
                        n.idle_since = now;
                        if let Some(d) = cfg.park_after_s {
                            events.schedule(
                                now + d,
                                Ev::Park {
                                    node,
                                    idle_stamp: now,
                                },
                            );
                        }
                    }
                    let pos = running
                        .iter()
                        .position(|&(id, _)| id == job)
                        .expect("finishing job is running");
                    running.swap_remove(pos);
                    completed += 1;
                    if j.deadline.is_finite() {
                        sla_tracked += 1;
                        if now > j.deadline + 1e-9 {
                            sla_violations += 1;
                        }
                    }
                }
                Ev::Park { node, idle_stamp } => {
                    let n = &mut nodes[node];
                    if n.on && n.running == 0 && n.idle_since == idle_stamp {
                        integrate(n, fleet, now);
                        n.on = false;
                        parks += 1;
                    }
                }
            }
        }

        loop {
            if queue.is_empty() {
                break;
            }
            let node_views: Vec<NodeView> =
                nodes.iter().enumerate().map(|(i, n)| n.view(i)).collect();
            let free_gpus = nodes.iter().map(|n| n.gpus_free).sum();
            let run_view: Vec<RunningJob> = running.iter().map(|&(_, r)| r).collect();
            let view = ClusterView {
                now,
                queue: &queue,
                running: &run_view,
                free_gpus,
                total_gpus,
                nodes: &node_views,
                capacity: Some(&FreeCapacity::of(&node_views)),
            };
            let Some(d) = policy.select(&view) else { break };
            if d.queue_idx >= queue.len() {
                break; // defensive: a buggy policy must not wedge the sim
            }
            let job = queue[d.queue_idx].job;
            let target = d
                .node
                .filter(|&ni| ni < node_views.len() && node_views[ni].fits(&job))
                .or_else(|| {
                    node_views
                        .iter()
                        .filter(|n| n.fits(&job))
                        .min_by(|a, b| {
                            desc_speed_nan_last(a.speed, b.speed).then_with(|| {
                                (!nodes[a.id].on as usize, a.gpu_leftover(&job), a.id).cmp(&(
                                    !nodes[b.id].on as usize,
                                    b.gpu_leftover(&job),
                                    b.id,
                                ))
                            })
                        })
                        .map(|n| n.id)
                });
            let Some(ni) = target else { break };
            policy.on_select(&mut queue, d.queue_idx);
            queue.remove(d.queue_idx);

            let n = &mut nodes[ni];
            integrate(n, fleet, now);
            let start = if n.on {
                now
            } else {
                n.on = true;
                wakes += 1;
                now + n.wake_s
            };
            n.gpus_free -= job.gpus;
            n.cores_free -= job.cores;
            n.running += 1;
            let runtime = job.duration / n.speed;
            let finish = start + runtime;
            waits.push(start - job.arrival);
            busy_gpu_s += runtime * job.gpus as f64;
            busy_core_s += runtime * job.cores as f64;
            running.push((
                job.id,
                RunningJob {
                    finish,
                    gpus: job.gpus,
                    cores: job.cores,
                },
            ));
            events.schedule(
                finish,
                Ev::Finish {
                    node: ni,
                    job: job.id,
                },
            );
        }
        if completed == jobs.len() {
            break;
        }
    }
    assert!(
        queue.is_empty(),
        "drained event queue with jobs still queued"
    );
    assert_eq!(completed, jobs.len());

    for n in &mut nodes {
        integrate(n, fleet, makespan);
    }
    let joules: f64 = nodes.iter().map(|n| n.joules).sum();
    waits.sort_by(|a, b| a.total_cmp(b));
    let pct = |q: f64| quantile(&waits, q);
    let span = makespan.max(1e-9);
    ClusterMetrics {
        completed,
        sla_tracked,
        sla_violations,
        sla_violation_rate: if sla_tracked == 0 {
            0.0
        } else {
            sla_violations as f64 / sla_tracked as f64
        },
        utilization: busy_gpu_s / (total_gpus.max(1) as f64 * span),
        cpu_utilization: busy_core_s / (total_cores.max(1) as f64 * span),
        mean_wait: waits.iter().sum::<f64>() / waits.len().max(1) as f64,
        p50_wait: pct(0.50),
        p99_wait: pct(0.99),
        max_wait: waits.last().copied().unwrap_or(0.0),
        makespan,
        joules,
        wakes,
        parks,
    }
}
