//! The Table 2 machine-throughput model.
//!
//! Distributed BFS throughput is bounded by three resources:
//!
//! 1. **DRAM random access** when the partition fits in memory — pointer
//!    chasing wastes most of each cache line, so the achieved fraction of
//!    stream bandwidth is about a percent;
//! 2. **NVMe streaming** when the graph is semi-external (HavoqGT's
//!    signature mode; how Catalyst and the final system ran scales 40-42);
//! 3. **network all-to-all** for the frontier exchange across nodes.
//!
//! GTEPS is the min of the three. The efficiency constants are calibrated
//! once against the paper's single-node 2011 rows and held fixed for every
//! other machine.

use hetsim::{CollectiveKind, Event, Machine, Network};

use crate::bfs::BfsResult;
use crate::rmat::CsrGraph;

/// Fraction of DRAM stream bandwidth achieved by random edge access.
pub const DRAM_RANDOM_EFF: f64 = 0.012;
/// Fraction of NVMe bandwidth achieved by semi-external edge streaming.
pub const NVME_STREAM_EFF: f64 = 0.5;
/// Fraction of injection bandwidth achieved by the frontier all-to-all.
pub const NET_EFF: f64 = 0.017;
/// Bytes touched per traversed edge.
pub const BYTES_PER_EDGE: f64 = 16.0;
/// Bytes crossing the network per traversed edge (packed updates).
pub const NET_BYTES_PER_EDGE: f64 = 8.0;
/// Storage bytes per vertex: vertex state plus its 16 edges (~9 B each,
/// delta-encoded).
pub const BYTES_PER_VERTEX_STORED: f64 = 150.0;

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    pub machine: &'static str,
    pub year: u32,
    pub nodes: usize,
    pub scale: u32,
    pub gteps: f64,
    /// Whether the run is semi-external (NVMe-resident edges).
    pub semi_external: bool,
}

/// Largest Graph500 scale that fits on the machine (DRAM + NVMe).
pub fn max_scale(machine: &Machine) -> u32 {
    let per_node = machine.node.cpu.mem_capacity_gib * 1024.0 * 1024.0 * 1024.0
        + machine
            .node
            .nvme
            .map(|(cap_gib, _)| cap_gib * 1024.0 * 1024.0 * 1024.0)
            .unwrap_or(0.0);
    let total = per_node * machine.nodes as f64;
    (total / BYTES_PER_VERTEX_STORED).log2().floor() as u32
}

/// Model GTEPS for a BFS at `scale` on `machine`.
pub fn machine_gteps(machine: &Machine, scale: u32) -> Table2Row {
    let vertices = 2f64.powi(scale as i32);
    let graph_bytes = vertices * BYTES_PER_VERTEX_STORED;
    let dram_bytes =
        machine.node.cpu.mem_capacity_gib * 1024.0 * 1024.0 * 1024.0 * machine.nodes as f64;
    let semi_external = graph_bytes > dram_bytes;

    // Per-node edge-processing rate.
    let node_rate = if semi_external {
        let (_, nvme_bw) = machine.node.nvme.unwrap_or((0.0, 0.3));
        nvme_bw * 1e9 * NVME_STREAM_EFF / BYTES_PER_EDGE
    } else {
        machine.node.cpu.mem_bw_gbs * 1e9 * DRAM_RANDOM_EFF / BYTES_PER_EDGE
    };
    let compute_bound = node_rate * machine.nodes as f64;

    // Network bound (only binds with > 1 node).
    let teps = if machine.nodes > 1 {
        let net_bound = machine.nodes as f64 * machine.network.injection_bw_gbs * 1e9 * NET_EFF
            / NET_BYTES_PER_EDGE;
        compute_bound.min(net_bound)
    } else {
        compute_bound
    };

    Table2Row {
        machine: machine.name,
        year: machine.year,
        nodes: machine.nodes,
        scale,
        gteps: teps / 1e9,
        semi_external,
    }
}

/// Cyclic (round-robin) vertex partition over `ranks` owners — HavoqGT's
/// delegate-free base layout. Vertex `v` lives on rank `v % ranks` at local
/// index `v / ranks`; [`VertexPartition::to_global`] inverts exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexPartition {
    pub ranks: usize,
}

impl VertexPartition {
    pub fn new(ranks: usize) -> VertexPartition {
        VertexPartition {
            ranks: ranks.max(1),
        }
    }

    /// Which rank owns global vertex `v`.
    pub fn owner(&self, v: usize) -> usize {
        v % self.ranks
    }

    /// Owner-local index of global vertex `v`.
    pub fn to_local(&self, v: usize) -> usize {
        v / self.ranks
    }

    /// Global id of `(rank, local)` — inverse of `owner` + `to_local`.
    pub fn to_global(&self, rank: usize, local: usize) -> usize {
        local * self.ranks + rank
    }
}

/// A distributed BFS run: the (real) traversal result plus the modelled
/// cost of its per-level frontier exchanges.
#[derive(Debug, Clone)]
pub struct DistBfs {
    pub result: BfsResult,
    /// Cross-rank parent updates, in wire bytes ([`NET_BYTES_PER_EDGE`] each).
    pub exchanged_bytes: f64,
    /// Completion time of the last frontier exchange (levels chain on the
    /// NIC tracks via events, so this is the network-side critical path).
    pub comm_time: f64,
}

/// Level-synchronous distributed BFS: the traversal really runs (the parent
/// tree is exact and [`crate::bfs::validate_tree`]-able), while every
/// level's frontier exchange is issued as a **non-blocking all-to-all** on
/// `net`, chained level-to-level through [`Event`]s — the pattern HavoqGT
/// uses to keep the fabric busy while the next frontier is being scanned.
pub fn distributed_bfs(g: &CsrGraph, root: usize, net: &Network) -> DistBfs {
    let part = VertexPartition::new(net.ranks);
    let mut parent: Vec<Option<usize>> = vec![None; g.n];
    parent[root] = Some(root);
    let mut frontier = vec![root];
    let mut levels = 0usize;
    let mut edges_examined = 0u64;
    let mut reached = 1usize;
    let mut exchanged_bytes = 0.0;
    let mut gate: Option<Event> = None;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        let mut remote_updates = 0u64;
        for &u in &frontier {
            for &v in g.neighbors(u) {
                edges_examined += 1;
                if parent[v].is_none() {
                    parent[v] = Some(u);
                    reached += 1;
                    if part.owner(v) != part.owner(u) {
                        remote_updates += 1;
                    }
                    next.push(v);
                }
            }
        }
        // Exchange this level's cross-rank updates; the next level's
        // exchange cannot start before this one completes.
        let wire = remote_updates as f64 * NET_BYTES_PER_EDGE;
        let bytes_per_rank = wire / net.ranks as f64;
        gate = Some(net.icollective(CollectiveKind::AllToAll, bytes_per_rank, gate));
        exchanged_bytes += wire;
        levels += 1;
        frontier = next;
    }
    DistBfs {
        result: BfsResult {
            parent,
            levels,
            edges_examined,
            reached,
        },
        exchanged_bytes,
        comm_time: gate.map(|e| e.time).unwrap_or(0.0),
    }
}

/// Regenerate all six Table 2 rows (paper scales retained).
pub fn table2() -> Vec<Table2Row> {
    use hetsim::machines::*;
    vec![
        machine_gteps(&kraken(), 34),
        machine_gteps(&leviathan(), 36),
        machine_gteps(&hyperion(), 36),
        machine_gteps(&bertha(), 37),
        machine_gteps(&catalyst(), 40),
        machine_gteps(&sierra_nodes(2048), 42),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_is_monotone_in_time_for_scalable_machines() {
        let rows = table2();
        assert_eq!(rows.len(), 6);
        // The headline trajectory: 2011 single node ~0.05 to final ~67.
        assert!(rows[0].gteps < 0.2, "{:?}", rows[0]);
        assert!(rows[5].gteps > 20.0, "{:?}", rows[5]);
        assert!(rows[5].gteps / rows[0].gteps > 300.0);
    }

    #[test]
    fn single_node_rows_are_dram_bound_and_order_of_paper() {
        let rows = table2();
        // Kraken/Leviathan ~0.053 in the paper; we land in the same decade.
        for r in &rows[0..2] {
            assert!(r.gteps > 0.01 && r.gteps < 0.2, "{r:?}");
        }
    }

    #[test]
    fn catalyst_and_final_system_run_semi_external() {
        let rows = table2();
        let catalyst = &rows[4];
        let fin = &rows[5];
        assert!(catalyst.semi_external, "{catalyst:?}");
        assert!(fin.semi_external, "{fin:?}");
        // Paper: 4.175 and 67.258.
        assert!(
            catalyst.gteps > 1.0 && catalyst.gteps < 12.0,
            "{catalyst:?}"
        );
        assert!(fin.gteps > 25.0 && fin.gteps < 150.0, "{fin:?}");
    }

    #[test]
    fn hyperion_is_network_bound() {
        let rows = table2();
        let hyp = &rows[2];
        // 64 nodes do not deliver 64x a single node.
        let single = rows[0].gteps;
        assert!(hyp.gteps < 30.0 * single, "{hyp:?} vs single {single}");
        assert!(hyp.gteps > rows[0].gteps);
    }

    #[test]
    fn max_scale_grows_with_machine_storage() {
        use hetsim::machines::*;
        let s_kraken = max_scale(&kraken());
        let s_catalyst = max_scale(&catalyst());
        let s_final = max_scale(&sierra_nodes(2048));
        assert!(s_kraken < s_catalyst);
        assert!(s_catalyst < s_final);
        // Ballpark the paper's scale column.
        assert!((s_kraken as i32 - 34).abs() <= 2, "{s_kraken}");
        assert!((s_final as i32 - 42).abs() <= 5, "{s_final}");
    }

    fn fabric(ranks: usize) -> Network {
        Network::new(
            hetsim::spec::NetworkSpec {
                injection_bw_gbs: 25.0,
                latency_us: 1.5,
                gpudirect: false,
            },
            ranks,
        )
    }

    #[test]
    fn vertex_partition_round_trips() {
        for ranks in [1usize, 2, 3, 7, 64] {
            let p = VertexPartition::new(ranks);
            for v in 0..1000 {
                let (r, l) = (p.owner(v), p.to_local(v));
                assert!(r < ranks);
                assert_eq!(p.to_global(r, l), v, "ranks={ranks} v={v}");
            }
            // Locals are dense per rank: the first `ranks` vertices map to
            // local 0 on distinct owners.
            for v in 0..ranks {
                assert_eq!(p.to_local(v), 0);
            }
        }
        // Degenerate input is clamped, not a divide-by-zero.
        assert_eq!(VertexPartition::new(0).ranks, 1);
    }

    #[test]
    fn distributed_bfs_matches_shared_memory_traversal() {
        use crate::bfs::{bfs_top_down, validate_tree};
        use crate::rmat::{CsrGraph, RmatParams};
        let g = CsrGraph::rmat(10, RmatParams::default(), 42);
        let root = g.non_isolated_vertex(7);
        let rec = hetsim::Recorder::enabled();
        let net = fabric(16).with_recorder(rec.clone());
        let d = distributed_bfs(&g, root, &net);
        let s = bfs_top_down(&g, root);
        assert_eq!(
            d.result.parent, s.parent,
            "partitioning must not change the tree"
        );
        assert_eq!(d.result.levels, s.levels);
        assert_eq!(d.result.reached, s.reached);
        assert!(validate_tree(&g, root, &d.result));
        // One chained exchange per level, riding the NIC tracks.
        assert_eq!(rec.counter("net.ops") as usize, d.result.levels);
        assert!(d.comm_time > 0.0);
        assert!((net.now() - d.comm_time).abs() < 1e-15);
    }

    #[test]
    fn more_ranks_cut_more_edges() {
        use crate::rmat::{CsrGraph, RmatParams};
        let g = CsrGraph::rmat(10, RmatParams::default(), 42);
        let root = g.non_isolated_vertex(7);
        let few = distributed_bfs(&g, root, &fabric(2));
        let many = distributed_bfs(&g, root, &fabric(64));
        assert!(
            many.exchanged_bytes >= few.exchanged_bytes,
            "{} vs {}",
            many.exchanged_bytes,
            few.exchanged_bytes
        );
        // Single "rank": everything is local, nothing crosses the wire.
        let solo = distributed_bfs(&g, root, &fabric(1));
        assert_eq!(solo.exchanged_bytes, 0.0);
    }

    #[test]
    fn nvme_lets_larger_graphs_run() {
        // The §4.4 claim: NVMe + CPUs run larger problems (and faster than
        // not running at all).
        use hetsim::machines::*;
        let with_nvme = max_scale(&catalyst());
        let mut no_nvme = catalyst();
        no_nvme.node.nvme = None;
        let without = max_scale(&no_nvme);
        assert!(with_nvme > without);
    }
}

#[cfg(test)]
mod diag {
    #[test]
    #[ignore]
    fn print_table() {
        for r in super::table2() {
            println!("{:?}", r);
        }
    }
}
