//! Experiments: cluster-spike and cluster-policies — the §4.7 scheduler
//! study lifted from one GPU pool to the heterogeneous fleet of
//! `icoe::cluster`.
//!
//! Both experiments serve the same kind of stochastic stream (Poisson
//! base + sparse overnight window + morning load spike, heavy-tailed
//! solve durations, per-job SLA deadlines) on the default four-class
//! fleet with a park-when-idle power governor:
//!
//! * **cluster-spike** sweeps the spike multiplier and asks which
//!   policies *survive* it: SLA violation rate and p99 wait as the spike
//!   grows from none to 8x.
//! * **cluster-policies** is the shoot-out table: every built-in
//!   [`SchedPolicy`] on the x6 spike scenario, scored on SLA violation
//!   rate against fleet energy. The `pareto` column marks the policies
//!   no other policy dominates on (SLA rate, joules) — the two-objective
//!   frontier operations actually picks from.
//!
//! Both honour `--param seed=<u64>` (stream redraw) and
//! `--param scale=<f64>` (job-count multiplier); defaults regenerate the
//! golden documents byte-identically.

use std::time::Instant;

use hetsim::obs::{Recorder, SpanKind};
use icoe::cluster::{
    job_stream, simulate_cluster, ClusterConfig, ClusterMetrics, ClusterSim, StreamConfig,
};
use icoe::report::Table;
use icoe::ExpParams;
use sched::{EasyBackfill, Fcfs, GpuBinPack, SchedPolicy, Sjf, SjfQuota, SlaUrgency};

/// Golden job count for the spike sweep (per cell, before `scale`).
const SPIKE_JOBS: usize = 400;
/// Golden job count for the shoot-out (before `scale`).
const SHOOTOUT_JOBS: usize = 600;
/// Spike multiplier of the shoot-out scenario.
const SHOOTOUT_MULT: f64 = 6.0;

fn policies() -> Vec<Box<dyn SchedPolicy>> {
    vec![
        Box::new(Fcfs),
        Box::new(Sjf),
        Box::new(SjfQuota { quota: 8 }),
        Box::new(EasyBackfill),
        Box::new(GpuBinPack),
        Box::new(SlaUrgency),
    ]
}

fn pct(x: f64) -> String {
    format!("{:.1}", 100.0 * x)
}

fn mj(joules: f64) -> String {
    format!("{:.1}", joules / 1e6)
}

/// Record the spike windows of `cfg` as spans on the `cluster` timeline
/// track so `--timeline` shows where the load modulation sat.
fn record_spike_spans(rec: &Recorder, cfg: &StreamConfig) {
    for s in &cfg.spikes {
        let name = if s.rate_mult >= 1.0 {
            format!("spike x{:.0}", s.rate_mult)
        } else {
            format!("sparse x{:.2}", s.rate_mult)
        };
        rec.record_span(name, SpanKind::Phase, "cluster", s.start, s.end);
    }
}

/// cluster-spike: survival sweep — policy quality as the morning spike
/// multiplier grows.
pub fn cluster_spike(rec: &mut Recorder, params: &ExpParams) -> Vec<Table> {
    let fleet = ClusterConfig::default_fleet();
    let jobs_n = params.scaled(SPIKE_JOBS);
    let mut t = Table::new(
        "cluster-spike: SLA violations (%) and p99 wait (s) as the load spike grows \
         (default fleet, park governor 120 s)",
        &[
            "spike",
            "policy",
            "SLA viol %",
            "p99 wait (s)",
            "GPU util %",
            "energy (MJ)",
        ],
    );
    for mult in [1.0f64, 4.0, 8.0] {
        let phase = rec.begin(format!("spike-x{mult:.0}"), SpanKind::Phase);
        let cfg = StreamConfig::spiky(jobs_n, mult, params.seed());
        let jobs = job_stream(&cfg);
        for p in policies() {
            let m = simulate_cluster(&fleet, &jobs, p.as_ref(), rec);
            t.row(&[
                format!("x{mult:.0}"),
                p.name().to_string(),
                pct(m.sla_violation_rate),
                format!("{:.0}", m.p99_wait),
                pct(m.utilization),
                mj(m.joules),
            ]);
        }
        if (mult - SHOOTOUT_MULT).abs() < 2.5 {
            record_spike_spans(rec, &cfg);
        }
        rec.end(phase);
    }
    rec.gauge("cluster.spike_jobs", jobs_n as f64);
    vec![t]
}

/// Non-dominated policies on (SLA violation rate, joules): `true` where
/// no other entry is at least as good on both and better on one.
fn pareto_front(points: &[(f64, f64)]) -> Vec<bool> {
    points
        .iter()
        .enumerate()
        .map(|(i, &(s, j))| {
            !points
                .iter()
                .enumerate()
                .any(|(k, &(os, oj))| k != i && os <= s && oj <= j && (os < s || oj < j))
        })
        .collect()
}

/// cluster-policies: the shoot-out table on the x6 spike scenario.
pub fn cluster_policies(rec: &mut Recorder, params: &ExpParams) -> Vec<Table> {
    let fleet = ClusterConfig::default_fleet();
    let cfg = StreamConfig::spiky(params.scaled(SHOOTOUT_JOBS), SHOOTOUT_MULT, params.seed());
    let jobs = job_stream(&cfg);
    record_spike_spans(rec, &cfg);

    let phase = rec.begin("shoot-out", SpanKind::Phase);
    let mut results: Vec<(String, ClusterMetrics)> = Vec::new();
    for p in policies() {
        let m = simulate_cluster(&fleet, &jobs, p.as_ref(), rec);
        // Per-policy gauges: the `cluster.*` set written by the simulator
        // is overwritten on every run; these persist side by side.
        let key = p.name().to_lowercase().replace(['-', '+'], "_");
        rec.gauge(
            format!("cluster.{key}.sla_violation_rate"),
            m.sla_violation_rate,
        );
        rec.gauge(format!("cluster.{key}.joules"), m.joules);
        results.push((p.name().to_string(), m));
    }
    rec.end(phase);

    let front = pareto_front(
        &results
            .iter()
            .map(|(_, m)| (m.sla_violation_rate, m.joules))
            .collect::<Vec<_>>(),
    );
    rec.gauge(
        "cluster.pareto_front",
        front.iter().filter(|&&b| b).count() as f64,
    );

    let mut t = Table::new(
        "cluster-policies: shoot-out on the x6 spike stream — SLA versus energy \
         (pareto marks the non-dominated frontier)",
        &[
            "policy",
            "done",
            "SLA viol %",
            "GPU util %",
            "p50 wait (s)",
            "p99 wait (s)",
            "energy (MJ)",
            "wakes",
            "pareto",
        ],
    );
    for ((name, m), on_front) in results.iter().zip(&front) {
        t.row(&[
            name.clone(),
            format!("{}", m.completed),
            pct(m.sla_violation_rate),
            pct(m.utilization),
            format!("{:.0}", m.p50_wait),
            format!("{:.0}", m.p99_wait),
            mj(m.joules),
            format!("{}", m.wakes),
            if *on_front {
                "*".to_string()
            } else {
                String::new()
            },
        ]);
    }
    vec![t]
}

/// The default fleet's class mix scaled to exactly `nodes` total nodes:
/// every class count is multiplied by `nodes / 48` (the default fleet
/// size) and the integer remainder lands on the last (CPU-efficiency)
/// class. Deterministic, so the same `nodes` always builds the same
/// fleet — the shape `benches/cluster.rs` sweeps.
pub fn fleet_scaled(nodes: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::default_fleet();
    let base_total: usize = cfg.fleet.iter().map(|c| c.count).sum();
    assert!(nodes >= base_total, "scaled fleet smaller than the default");
    let mult = nodes / base_total;
    let mut placed = 0usize;
    for c in &mut cfg.fleet {
        c.count *= mult;
        placed += c.count;
    }
    cfg.fleet.last_mut().expect("nonempty fleet").count += nodes - placed;
    cfg
}

/// Per-node arrival rate matched to the default calibration (0.12 jobs/s
/// onto 48 nodes), so a scaled fleet sees the same relative load.
/// Shared with `benches/cluster.rs`, which sweeps the same cells.
pub fn rate_for(nodes: usize) -> f64 {
    0.12 * nodes as f64 / 48.0
}

/// cluster-throughput: the ISSUE-10 scale probe — serve streams across
/// job count × fleet size × policy on the incremental simulator.
///
/// Mirrors `rank-throughput`'s output split: every in-document figure
/// (completions, utilization, waits, makespan) is a deterministic
/// function of the stream and fleet, so the golden document is
/// byte-identical run to run; the wall-clock placement rate goes to
/// **stderr only** as a `cluster.jobs_per_s <value>` line the CI smoke
/// greps against a conservative floor. The release criterion bench
/// (`benches/cluster.rs`) sweeps the same cells to 1M jobs.
pub fn cluster_throughput(rec: &mut Recorder, params: &ExpParams) -> Vec<Table> {
    let sweep = rec.begin("throughput-sweep", SpanKind::Phase);
    let mut t = Table::new(
        "cluster-throughput: incremental serving across job count x fleet size x policy \
         (deterministic metrics; wall-clock jobs/s on stderr)",
        &[
            "jobs",
            "nodes",
            "policy",
            "done",
            "GPU util %",
            "p99 wait (s)",
            "makespan (s)",
        ],
    );
    let noop = Recorder::noop();
    let mut total_placed = 0u64;
    let mut wall_s = 0.0f64;
    for nodes in [64usize, 1000] {
        let fleet = fleet_scaled(nodes);
        // One simulator per fleet, reused across cells: after the first
        // run its buffers are warm and the serving loop stops touching
        // the allocator (the bench asserts this with a counting
        // allocator; here it keeps the probe honest about steady state).
        let mut sim = ClusterSim::new(&fleet);
        for jobs_n in [1_000usize, 4_000] {
            let jobs_n = params.scaled(jobs_n);
            let mut scfg = StreamConfig::baseline(jobs_n, params.seed());
            scfg.base_rate = rate_for(nodes);
            let jobs = job_stream(&scfg);
            for p in [&Fcfs as &dyn SchedPolicy, &Sjf, &SlaUrgency] {
                let start = Instant::now();
                let m = sim.run(&jobs, p, &noop);
                wall_s += start.elapsed().as_secs_f64();
                total_placed += m.completed as u64;
                t.row(&[
                    jobs_n.to_string(),
                    nodes.to_string(),
                    p.name().to_string(),
                    format!("{}", m.completed),
                    pct(m.utilization),
                    format!("{:.0}", m.p99_wait),
                    format!("{:.0}", m.makespan),
                ]);
            }
        }
        // Deterministic placement figures per fleet size (the last
        // serving run's shape, stable across hosts).
        let probe = {
            let mut scfg = StreamConfig::baseline(params.scaled(4_000), params.seed());
            scfg.base_rate = rate_for(nodes);
            let jobs = job_stream(&scfg);
            sim.run(&jobs, &Fcfs, &noop)
        };
        rec.gauge(format!("cluster.tp.util.n{nodes}"), probe.utilization);
        rec.gauge(format!("cluster.tp.p99_wait_s.n{nodes}"), probe.p99_wait);
    }
    rec.incr("cluster.tp.jobs_placed", total_placed as f64);
    rec.end(sweep);

    // Wall-clock throughput is machine-dependent: stderr only, never the
    // document (golden byte-identity). The CI smoke greps this line.
    let jobs_per_s = total_placed as f64 / wall_s.max(1e-12);
    eprintln!(
        "cluster-throughput: {total_placed} jobs placed in {} serving wall",
        icoe::report::fmt_time(wall_s),
    );
    eprintln!("cluster.jobs_per_s {jobs_per_s:.0}");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_fleets_hit_the_exact_node_count() {
        for nodes in [48usize, 64, 100, 1000] {
            let cfg = fleet_scaled(nodes);
            let total: usize = cfg.fleet.iter().map(|c| c.count).sum();
            assert_eq!(total, nodes);
            // Every class keeps a presence (the heterogeneity survives).
            assert!(cfg.fleet.iter().all(|c| c.count > 0));
        }
    }

    #[test]
    fn throughput_document_carries_only_simulated_metrics() {
        let mut rec = Recorder::enabled();
        let tables = cluster_throughput(&mut rec, &ExpParams::default());
        assert_eq!(tables.len(), 1);
        // 2 fleets x 2 job counts x 3 policies.
        assert_eq!(tables[0].rows.len(), 12);
        assert!(rec.gauge_value("cluster.tp.util.n1000").is_some());
        assert!(rec.counter("cluster.tp.jobs_placed") >= 30_000.0);
        // No wall-clock metric leaks into the recorder (golden safety).
        assert!(rec.gauge_value("cluster.jobs_per_s").is_none());
    }

    #[test]
    fn pareto_front_marks_exactly_the_non_dominated() {
        // b dominates a; c and d trade off; e is equal to c (both stay).
        let pts = [
            (0.5, 10.0),
            (0.4, 9.0),
            (0.1, 20.0),
            (0.6, 1.0),
            (0.1, 20.0),
        ];
        assert_eq!(pareto_front(&pts), vec![false, true, true, true, true]);
    }

    #[test]
    fn shootout_keeps_at_least_two_policies_on_the_frontier() {
        // The acceptance criterion of PR 6: the spike scenario must show a
        // genuine SLA-vs-energy trade-off, not one policy dominating all.
        let mut rec = Recorder::enabled();
        cluster_policies(&mut rec, &ExpParams::default());
        let front = rec
            .gauge_value("cluster.pareto_front")
            .expect("gauge written");
        assert!(front >= 2.0, "pareto front collapsed: {front}");
    }
}
