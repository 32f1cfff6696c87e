//! `fleet-steady` and `fleet-burst`: one warm `ClusterSim` on a
//! 1,000-node fleet serving seeded job streams under FCFS, SJF,
//! SLA-Urgency and EASY-Backfill, one policy after the other.
//!
//! The steady stream keeps the queue about one job deep, so `ClusterSim`
//! bookkeeping and the `des` calendar dominate (the node scan does for
//! SLA-Urgency). The burst workload serves flash crowds instead: each
//! lands on an idle fleet, thousands of single-GPU jobs within about two
//! seconds, far more than the fleet has GPUs. The queue peaks at hundreds
//! of jobs and drains as jobs finish, and `SchedPolicy::select` over the
//! deep queue dominates. The same two layers are used in opposite
//! proportions, so a select-side gain shows on the burst and a
//! bookkeeping gain on the steady stream.
//!
//! Every flash-crowd job takes one GPU, so each finish places exactly one
//! queued job and the queue depth the policies scan is the same for every
//! seed; the seed moves arrivals and durations, hence every metric. A
//! burst built from the default mix would not do: its heavy-tailed
//! multi-GPU solves set how deep the queue gets, and the work of a pass
//! would swing by a third from seed to seed.

use std::cell::Cell;
use std::time::Instant;

use bench::exps_cluster::{fleet_scaled, rate_for};
use icoe::cluster::{job_stream, ClusterJob, ClusterMetrics, ClusterSim, StreamConfig};
use icoe::hetsim::Recorder;
use icoe::sched::{
    ClusterView, Decision, EasyBackfill, Fcfs, QueuedJob, SchedPolicy, Sjf, SlaUrgency,
};

use crate::{host, stats, Layers, Tally, Workload, WorkloadName};

const NODES: usize = 1000;
/// A tenth of the million-job probe of `benches/cluster.rs`: one policy's
/// run takes about a tenth of a second, so a run holds some forty passes
/// and each unit's best time is one the host's neighbours left alone. With
/// 500k jobs a run held nine passes, and its pass time spread by 15 %.
const STEADY_JOBS: usize = 100_000;
/// Flash crowds per burst pass, each served from an idle fleet.
const FLASHES: usize = 4;
const FLASH_JOBS: usize = 1_800;
/// Arrival rate within a flash crowd, jobs per simulated second.
const FLASH_RATE: f64 = 1_000.0;
/// Only `GpuBurst` (one GPU, 20-90 s): weights over `TaskClass::ALL`.
const FLASH_MIX: [f64; 4] = [1.0, 0.0, 0.0, 0.0];

/// The policies served, under the names the per-layer metrics use.
pub const POLICIES: [(&str, &dyn SchedPolicy); 4] = [
    ("fcfs", &Fcfs),
    ("sjf", &Sjf),
    ("sla_urgency", &SlaUrgency),
    ("easy_backfill", &EasyBackfill),
];

/// Recorded digests, one `workload seed digest` line each, written by
/// `perfbench digest`. A seed without a line is checked only for
/// repeatability.
const DIGESTS: &str = include_str!("../digests.txt");

pub struct Fleet {
    name: WorkloadName,
    seed: u64,
    /// The streams a pass serves, each under every policy: one steady
    /// stream, or `FLASHES` flash crowds.
    streams: Vec<Vec<ClusterJob>>,
    sim: ClusterSim,
    /// Digests of the first pass, stream-major: every later pass must
    /// match.
    reference: Option<Vec<u64>>,
}

fn stream_configs(name: WorkloadName, seed: u64) -> Vec<StreamConfig> {
    match name {
        WorkloadName::FleetBurst => (0..FLASHES as u64)
            .map(|k| {
                let sub_seed = seed.wrapping_mul(FLASHES as u64).wrapping_add(k);
                let mut cfg = StreamConfig::baseline(FLASH_JOBS, sub_seed);
                cfg.base_rate = FLASH_RATE;
                cfg.mix = FLASH_MIX;
                cfg
            })
            .collect(),
        _ => {
            let mut cfg = StreamConfig::baseline(STEADY_JOBS, seed);
            cfg.base_rate = rate_for(NODES);
            vec![cfg]
        }
    }
}

/// Equal digests mean bitwise-equal metrics: every field, floats by bits.
fn metrics_digest(m: &ClusterMetrics) -> u64 {
    let words = [
        m.completed as u64,
        m.sla_tracked as u64,
        m.sla_violations as u64,
        m.wakes as u64,
        m.parks as u64,
        m.sla_violation_rate.to_bits(),
        m.utilization.to_bits(),
        m.cpu_utilization.to_bits(),
        m.mean_wait.to_bits(),
        m.p50_wait.to_bits(),
        m.p99_wait.to_bits(),
        m.makespan.to_bits(),
        m.joules.to_bits(),
    ];
    stats::fnv1a(words.iter().flat_map(|w| w.to_le_bytes()))
}

fn combine(digests: &[u64]) -> u64 {
    stats::fnv1a(digests.iter().flat_map(|d| d.to_le_bytes()))
}

fn recorded_digest(name: WorkloadName, seed: u64) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields[..] {
            [w, s, d] if w == name.as_str() && s.parse() == Ok(seed) => {
                u64::from_str_radix(d, 16).ok()
            }
            _ => None,
        }
    })
}

/// A delegating policy that times every `select` and sums the queue
/// depth it saw. It changes no decision, which the oracle checks.
struct TimedPolicy<'a> {
    inner: &'a dyn SchedPolicy,
    ns: Cell<u64>,
    calls: Cell<u64>,
    queued: Cell<u64>,
}

impl SchedPolicy for TimedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select(&self, view: &ClusterView) -> Option<Decision> {
        let t = Instant::now();
        let d = self.inner.select(view);
        self.ns.set(self.ns.get() + t.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        self.queued.set(self.queued.get() + view.queue.len() as u64);
        d
    }

    fn on_select(&self, queue: &mut [QueuedJob], chosen: usize) {
        self.inner.on_select(queue, chosen)
    }
}

impl Fleet {
    /// Combined digest of one untimed pass (a line of `digests.txt`).
    pub fn digest(&mut self) -> u64 {
        let mut got = Vec::new();
        self.serve_all(&mut got, &mut Vec::new());
        combine(&got)
    }

    /// Serve every stream under every policy, pushing each run's digest
    /// onto `got` and its processor time onto `units`.
    fn serve_all(&mut self, got: &mut Vec<u64>, units: &mut Vec<f64>) {
        let noop = Recorder::noop();
        for jobs in &self.streams {
            for (_, policy) in POLICIES {
                let t = host::process_cpu_s();
                let m = self.sim.run(jobs, policy, &noop);
                units.push(host::process_cpu_s() - t);
                got.push(metrics_digest(&m));
            }
        }
    }

    fn judge(&mut self, tally: &mut Tally, got: Vec<u64>, pass: &str) {
        let want = self.reference.get_or_insert(got.clone());
        let recorded = recorded_digest(self.name, self.seed);
        let recorded_ok = recorded.is_none_or(|d| d == combine(want));
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            let policy = POLICIES[i % POLICIES.len()].0;
            tally.check(1, recorded_ok && g == w, || {
                format!(
                    "{} seed {} {pass} pass, stream {}: {policy} digest {g:016x}, \
                     first pass {w:016x}, recorded combined digest {:?}",
                    self.name.as_str(),
                    self.seed,
                    i / POLICIES.len(),
                    recorded.map(|d| format!("{d:016x}"))
                )
            });
        }
    }
}

/// Per-policy sums over the streams of a traced pass.
#[derive(Default)]
struct PolicyTrace {
    run_ns: f64,
    select_ns: f64,
    calls: u64,
    queued: u64,
    placed: u64,
}

impl Workload for Fleet {
    fn setup(name: WorkloadName, seed: u64) -> Result<(Fleet, Layers), String> {
        let configs = stream_configs(name, seed);
        let t = host::process_cpu_s();
        let streams: Vec<Vec<ClusterJob>> = configs.iter().map(job_stream).collect();
        let stream_gen_s = host::process_cpu_s() - t;
        let t = host::process_cpu_s();
        let mut sim = ClusterSim::new(&fleet_scaled(NODES));
        let sim_new_s = host::process_cpu_s() - t;
        // Warm-up: grow the simulator's buffers before anything is timed.
        for jobs in &streams {
            sim.run(jobs, &Fcfs, &Recorder::noop());
        }
        let fleet = Fleet {
            name,
            seed,
            streams,
            sim,
            reference: None,
        };
        let layers = Layers::from([
            ("cluster.stream_gen_s".to_string(), stream_gen_s),
            ("cluster.sim_new_s".to_string(), sim_new_s),
        ]);
        Ok((fleet, layers))
    }

    /// One unit per stream and policy.
    fn pass(&mut self, tally: &mut Tally, units: &mut Vec<f64>) -> f64 {
        let mut got = Vec::new();
        self.serve_all(&mut got, units);
        self.judge(tally, got, "untraced");
        let jobs: usize = self.streams.iter().map(Vec::len).sum();
        (POLICIES.len() * jobs) as f64
    }

    fn traced_pass(
        &mut self,
        tally: &mut Tally,
        layers: &mut Layers,
        floor_ns: f64,
        _: f64,
    ) -> f64 {
        let start = host::process_cpu_s();
        let noop = Recorder::noop();
        let mut got = Vec::new();
        let mut traces: [PolicyTrace; 4] = Default::default();
        for jobs in &self.streams {
            for ((_, policy), trace) in POLICIES.iter().zip(&mut traces) {
                let timed = TimedPolicy {
                    inner: *policy,
                    ns: Cell::new(0),
                    calls: Cell::new(0),
                    queued: Cell::new(0),
                };
                let t = Instant::now();
                let m = self.sim.run(jobs, &timed, &noop);
                trace.run_ns += t.elapsed().as_nanos() as f64;
                got.push(metrics_digest(&m));
                trace.select_ns += timed.ns.get() as f64;
                trace.calls += timed.calls.get();
                trace.queued += timed.queued.get();
                trace.placed += m.completed as u64;
            }
        }
        for ((name, _), trace) in POLICIES.iter().zip(&traces) {
            let calls = trace.calls;
            let select_ns = stats::ns_per_call(trace.select_ns, calls, floor_ns);
            let mut put = |metric: &str, v: f64| layers.insert(format!("{metric}.{name}"), v);
            put("cluster.run_s", trace.run_ns * 1e-9);
            put("sched.select_ns", select_ns);
            put("sched.select_calls", calls as f64);
            put(
                "sched.queue_len_mean",
                trace.queued as f64 / calls.max(1) as f64,
            );
            put(
                "sched.select_share",
                100.0 * select_ns * calls as f64 / trace.run_ns,
            );
            // Each call reads the timer twice; neither reading is bookkeeping.
            put(
                "cluster.bookkeeping_ns_per_job",
                stats::self_ns_per_item(
                    trace.run_ns,
                    trace.select_ns + calls as f64 * floor_ns,
                    trace.placed,
                ),
            );
        }
        let traced_s = host::process_cpu_s() - start;
        self.judge(tally, got, "traced");
        traced_s
    }
}
