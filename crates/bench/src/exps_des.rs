//! Experiment: rank-throughput — how many simulated ranks per host-second
//! the unified `hetsim::des` event kernel drives through a hierarchical
//! allreduce (ISSUE 8).
//!
//! The tentpole of ISSUE 8 moved all three timelines (`Sim` stream/engine
//! clocks, `Network` NIC fronts, the scheduler heaps) onto one
//! discrete-event kernel. This experiment is the kernel's scale probe:
//! a hierarchical allreduce expressed *as events* — every rank posts a
//! gradient-ready event, each host's last arrival schedules an intra-node
//! reduction, the last host schedules the inter-node phase — popped from
//! the calendar queue until the round completes.
//!
//! Two kinds of output, deliberately separated:
//!
//! * **Simulated metrics** (tables, counters, gauges) are deterministic —
//!   completion times come from the analytic network model, event counts
//!   from the round structure — so the experiment document stays
//!   byte-identical run to run (the golden contract).
//! * **Wall-clock throughput** (simulated ranks per host-second) goes to
//!   **stderr only**, like the BFS wall times in `table2`: a
//!   `des.ranks_per_s <value>` line the CI smoke greps against a
//!   conservative floor. The criterion bench `benches/des.rs` sweeps the
//!   same round to 1M ranks in release mode (see EXPERIMENTS.md).

use std::time::Instant;

use hetsim::des::EventKernel;
use hetsim::machines;
use hetsim::obs::{Recorder, SpanKind};
use hetsim::{AllReduceAlgo, CollectiveKind, Network};
use icoe::report::Table;

/// Ranks per host, the sierra preset's GPU count.
const RANKS_PER_HOST: usize = 4;
/// Gradient payload per round (bytes): LBANN-like 64 MiB.
const BYTES: f64 = 64.0 * 1024.0 * 1024.0;
/// Rounds per cell — enough pops to time, few enough for debug builds.
const ROUNDS: usize = 4;

/// One hierarchical-allreduce round on the event kernel.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Rank `r`'s gradient became available.
    Ready(usize),
    /// A host finished its intra-node reduction.
    HostDone,
    /// The inter-node exchange finished; the round is over.
    RoundDone,
}

/// Drive `rounds` hierarchical allreduce rounds over `ranks` ranks
/// through the kernel. Returns `(events_popped, last_completion_time)` —
/// both deterministic functions of the inputs.
fn run_rounds(ranks: usize, rounds: usize, intra_s: f64, inter_s: f64) -> (u64, f64) {
    let hosts = ranks.div_ceil(RANKS_PER_HOST);
    let mut kernel: EventKernel<Ev> = EventKernel::new();
    let mut host_pending = vec![0usize; hosts];
    let mut popped = 0u64;
    let mut done_at = 0.0f64;
    let mut round_start = 0.0f64;
    for _ in 0..rounds {
        // Deterministic per-rank jitter: gradients trickle in over 3 µs.
        for r in 0..ranks {
            kernel.schedule(round_start + (r % 7) as f64 * 0.5e-6, Ev::Ready(r));
            host_pending[r / RANKS_PER_HOST] += 1;
        }
        let mut hosts_pending = hosts;
        while let Some((key, ev)) = kernel.pop() {
            popped += 1;
            match ev {
                Ev::Ready(r) => {
                    let h = r / RANKS_PER_HOST;
                    host_pending[h] -= 1;
                    if host_pending[h] == 0 {
                        kernel.schedule(key.time + intra_s, Ev::HostDone);
                    }
                }
                Ev::HostDone => {
                    hosts_pending -= 1;
                    if hosts_pending == 0 {
                        kernel.schedule(key.time + inter_s, Ev::RoundDone);
                    }
                }
                Ev::RoundDone => {
                    done_at = key.time;
                    break;
                }
            }
        }
        round_start = done_at;
    }
    (popped, done_at)
}

/// rank-throughput: sweep simulated rank counts through the kernel,
/// reporting deterministic event/latency figures in the document and the
/// wall-clock ranks-per-host-second gauge on stderr.
pub fn rank_throughput(rec: &mut Recorder) -> Vec<Table> {
    let m = machines::sierra_node();
    let sweep = rec.begin("rank-sweep", SpanKind::Phase);
    let mut t = Table::new(
        "rank-throughput: hierarchical allreduce on the des kernel (4 ranks/host, 64 MiB, 4 rounds)",
        &[
            "ranks",
            "hosts",
            "events/round",
            "sim round (ms)",
            "model hier allreduce (ms)",
        ],
    );
    let mut total_ranks = 0u64;
    let mut total_events = 0u64;
    let wall_start = Instant::now();
    for ranks in [1024usize, 4096, 16384, 65536] {
        let hosts = ranks.div_ceil(RANKS_PER_HOST);
        // The analytic model prices the phases the event round replays:
        // intra-node NVLink ring, inter-node pipelined tree.
        let net = Network::for_machine(&m, ranks);
        let model_s = net.collective_cost_with(
            AllReduceAlgo::Hierarchical,
            CollectiveKind::AllReduce,
            BYTES,
        );
        // Split the model cost over the two event phases 1:3 (the
        // inter-node tree dominates at these scales).
        let (events, round_end) = run_rounds(ranks, ROUNDS, 0.25 * model_s, 0.75 * model_s);
        let sim_round_s = round_end / ROUNDS as f64;
        total_ranks += (ranks * ROUNDS) as u64;
        total_events += events;
        rec.gauge(format!("des.sim_round_ms.r{ranks}"), sim_round_s * 1e3);
        t.row(&[
            ranks.to_string(),
            hosts.to_string(),
            (events / ROUNDS as u64).to_string(),
            format!("{:.3}", sim_round_s * 1e3),
            format!("{:.3}", model_s * 1e3),
        ]);
    }
    let wall_s = wall_start.elapsed().as_secs_f64().max(1e-12);
    rec.incr("des.events_processed", total_events as f64);
    rec.incr("des.ranks_simulated", total_ranks as f64);
    rec.end(sweep);

    // Wall-clock throughput is machine-dependent: stderr only, never the
    // document (golden byte-identity). The CI smoke greps this line.
    let ranks_per_s = total_ranks as f64 / wall_s;
    eprintln!(
        "rank-throughput: {total_ranks} simulated ranks ({total_events} events) in {} wall",
        icoe::report::fmt_time(wall_s),
    );
    eprintln!("des.ranks_per_s {ranks_per_s:.0}");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_pop_every_scheduled_event_once() {
        let ranks = 256;
        let (popped, end) = run_rounds(ranks, 2, 1e-3, 3e-3);
        // Per round: ranks Ready + hosts HostDone + 1 RoundDone.
        let hosts = ranks.div_ceil(RANKS_PER_HOST);
        assert_eq!(popped, 2 * (ranks + hosts + 1) as u64);
        // Two rounds, each ≥ intra + inter after the last jitter arrival.
        assert!(end >= 2.0 * (1e-3 + 3e-3));
    }

    #[test]
    fn simulated_round_times_are_deterministic() {
        let a = run_rounds(1024, 3, 0.5e-3, 1.5e-3);
        let b = run_rounds(1024, 3, 0.5e-3, 1.5e-3);
        assert_eq!(a, b, "same inputs must replay bitwise");
    }

    #[test]
    fn experiment_document_carries_only_simulated_metrics() {
        let mut rec = Recorder::enabled();
        let tables = rank_throughput(&mut rec);
        assert_eq!(tables.len(), 1);
        // Deterministic gauges/counters present; no wall-clock metric
        // leaks into the recorder (that would break golden byte-identity).
        assert!(rec.gauge_value("des.sim_round_ms.r1024").is_some());
        assert_eq!(
            rec.counter("des.ranks_simulated"),
            (4 * (1024 + 4096 + 16384 + 65536)) as f64
        );
        assert!(rec.gauge_value("des.ranks_per_s").is_none());
    }
}
