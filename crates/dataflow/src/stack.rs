//! Software-stack descriptions and the phase-time ledger.

use hetsim::{CollectiveKind, Network};

/// Shuffle implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShuffleAlgo {
    /// Stock Spark: hash shuffle with per-partition spill files and full
    /// serialisation of every record.
    Standard,
    /// The iCoE adaptive shuffle (memory-optimised data shuffling,
    /// refs [20, 21]): batches, reuses buffers, and overlaps with compute.
    Adaptive,
}

/// All-to-one aggregation implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateAlgo {
    /// Driver collects from every executor (flat).
    Flat,
    /// Tree aggregation (log-depth).
    Tree,
}

/// A named software stack: which JVM and which algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackConfig {
    pub name: &'static str,
    /// Multiplier on compute time from JVM overheads (GC pauses, lock
    /// contention, boxing). 1.0 = ideal native.
    pub jvm_overhead: f64,
    /// Serialisation cost in seconds per byte moved.
    pub serde_s_per_byte: f64,
    pub shuffle: ShuffleAlgo,
    pub aggregate: AggregateAlgo,
}

impl StackConfig {
    /// Stock open-source Spark on the default JVM.
    pub fn default_stack() -> StackConfig {
        StackConfig {
            name: "default",
            jvm_overhead: 1.65,
            serde_s_per_byte: 1.2e-9,
            shuffle: ShuffleAlgo::Standard,
            aggregate: AggregateAlgo::Flat,
        }
    }

    /// The iCoE-optimised stack: OpenJ9-style JVM + adaptive shuffle +
    /// scalable aggregation.
    pub fn optimized_stack() -> StackConfig {
        StackConfig {
            name: "optimized",
            jvm_overhead: 1.15,
            serde_s_per_byte: 0.35e-9,
            shuffle: ShuffleAlgo::Adaptive,
            aggregate: AggregateAlgo::Tree,
        }
    }

    /// Time to shuffle `bytes_per_rank` over `net`.
    pub fn shuffle_time(&self, net: &Network, bytes_per_rank: f64) -> f64 {
        let serde = 2.0 * bytes_per_rank * self.serde_s_per_byte;
        match self.shuffle {
            // Spill to disk + no overlap: wire and serde serialise, plus a
            // constant-factor penalty for small spill files.
            ShuffleAlgo::Standard => {
                let wire = net.collective(CollectiveKind::AllToAll, bytes_per_rank);
                1.6 * wire + serde
            }
            // Batched, buffer-reusing: the exchange is issued *non-blocking*
            // on the NIC injection tracks and serialisation runs under it —
            // only the slower of the two legs is exposed.
            ShuffleAlgo::Adaptive => {
                let issued_at = net.now();
                let done = net.icollective(CollectiveKind::AllToAll, bytes_per_rank, None);
                (done.time - issued_at).max(serde)
            }
        }
    }

    /// Time to aggregate `bytes_per_rank` to one place over `net`.
    pub fn aggregate_time(&self, net: &Network, bytes_per_rank: f64) -> f64 {
        let serde = bytes_per_rank * self.serde_s_per_byte;
        match self.aggregate {
            AggregateAlgo::Flat => net.collective(CollectiveKind::Reduce, bytes_per_rank) + serde,
            AggregateAlgo::Tree => {
                net.collective(CollectiveKind::TreeReduce, bytes_per_rank) + serde
            }
        }
    }
}

/// Per-phase accumulated simulated seconds (the Fig 2 breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    pub compute: f64,
    pub shuffle: f64,
    pub aggregate: f64,
    pub broadcast: f64,
}

impl PhaseTimes {
    pub fn total(&self) -> f64 {
        self.compute + self.shuffle + self.aggregate + self.broadcast
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::spec::NetworkSpec;

    fn net(ranks: usize) -> Network {
        Network::new(
            NetworkSpec {
                injection_bw_gbs: 25.0,
                latency_us: 1.5,
                gpudirect: false,
            },
            ranks,
        )
    }

    #[test]
    fn optimized_shuffle_is_faster() {
        let n = net(32);
        let d = StackConfig::default_stack();
        let o = StackConfig::optimized_stack();
        let bytes = 256e6;
        assert!(o.shuffle_time(&n, bytes) < 0.5 * d.shuffle_time(&n, bytes));
    }

    #[test]
    fn adaptive_shuffle_is_nonblocking_and_hides_the_faster_leg() {
        let rec = hetsim::Recorder::enabled();
        let n = net(32).with_recorder(rec.clone());
        let o = StackConfig::optimized_stack();
        let bytes = 256e6;
        let wire = n.collective_cost(CollectiveKind::AllToAll, bytes);
        let serde = 2.0 * bytes * o.serde_s_per_byte;
        let t = o.shuffle_time(&n, bytes);
        // Exposed time == max(wire, serde): the exchange overlapped serde.
        assert!((t - wire.max(serde)).abs() < 1e-9, "{t}");
        // And the exchange actually rode the NIC injection tracks.
        assert!(n.now() > 0.0);
        assert_eq!(rec.counter("net.alltoall"), 1.0);
        assert_eq!(rec.counter("net.ops"), 1.0);
    }

    #[test]
    fn tree_aggregate_scales_better_than_flat() {
        let d = StackConfig::default_stack();
        let o = StackConfig::optimized_stack();
        let bytes = 64e6;
        let t32_flat = d.aggregate_time(&net(32), bytes);
        let t256_flat = d.aggregate_time(&net(256), bytes);
        let t32_tree = o.aggregate_time(&net(32), bytes);
        let t256_tree = o.aggregate_time(&net(256), bytes);
        // Flat blows up ~8x from 32 to 256 ranks; tree grows ~log.
        assert!(t256_flat / t32_flat > 4.0);
        assert!(t256_tree / t32_tree < 2.0);
    }

    #[test]
    fn jvm_overhead_ordering() {
        assert!(
            StackConfig::default_stack().jvm_overhead > StackConfig::optimized_stack().jvm_overhead
        );
    }

    #[test]
    fn phase_total_sums_components() {
        let p = PhaseTimes {
            compute: 1.0,
            shuffle: 2.0,
            aggregate: 3.0,
            broadcast: 0.5,
        };
        assert_eq!(p.total(), 6.5);
    }
}
