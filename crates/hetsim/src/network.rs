//! Event-driven multi-node interconnect and collective models.
//!
//! The distributed results in the paper — SparkPlug LDA's shuffle/aggregate
//! costs (Fig 2), LBANN's allreduce-dominated scaling (Fig 3), Graph500-style
//! BFS (Table 2), and KAVG's model averaging (§4.5) — all reduce to a handful
//! of collectives over a fat-tree fabric. Costs use the standard
//! latency-bandwidth (Hockney) model with ring/tree algorithm shapes.
//!
//! # v2: NIC tracks, non-blocking issue, hierarchy, congestion, stragglers
//!
//! The first version of this module was a closed-form calculator: every call
//! returned a duration and nothing else. That cannot express the two effects
//! the at-scale results hinge on — *overlap* (gradient allreduce hidden under
//! backprop, shuffle hidden under serialisation) and *contention* (concurrent
//! flows sharing a link). This version keeps every closed-form query
//! bit-for-bit intact and layers an event-driven machine on top, mirroring
//! the copy-engine design in [`crate::sim`]:
//!
//! * **NIC injection tracks** — one busy-until clock per rank (track
//!   `nic<r>.inj` on timelines), exactly analogous to the `gpu0.h2d` /
//!   `gpu0.d2h` engine tracks. A collective joins *every* rank's NIC front;
//!   a point-to-point flow occupies the source NIC only (ingress is not
//!   modelled — these are *injection* tracks).
//! * **Non-blocking issue** — [`Network::icollective`] / [`Network::ip2p`]
//!   return [`Event`]s on the same simulated clock as
//!   [`crate::Sim::transfer_async`], so network completion chains with
//!   kernel and transfer events without any glue.
//! * **Hierarchical allreduce** — intra-node ring over the NVLink peer link
//!   followed by an inter-node pipelined binomial tree over the fabric
//!   ([`Network::hierarchical_allreduce_cost`]), selected with
//!   [`AllReduceAlgo::Hierarchical`] + [`Network::with_topology`].
//! * **Congestion** — concurrent point-to-point flows split injection
//!   bandwidth: a flow issued while `k` flows are in flight pays its
//!   bandwidth term `(1 + k)` times. Already-issued flows never change, so
//!   adding traffic can only ever slow the *new* flow down (monotone by
//!   construction). Collectives are not entered in the flow table: they join
//!   all NIC fronts, so no p2p flow can be concurrent with one.
//! * **Stragglers** — an optional deterministic per-rank slowdown
//!   ([`StragglerSpec`]): rank `r` runs at `1 + (severity-1)·u(seed, r)`
//!   where `u` is a splitmix64 hash in `[0,1)`. A collective is gated by its
//!   slowest participant. `severity = 1.0` multiplies by exactly `1.0`, so
//!   the baseline is reproduced bit-for-bit.

use std::sync::Mutex;

use serde::Serialize;

use crate::des::TrackBank;
use crate::fast_hash::FastMap;
use crate::obs::{Batch, Recorder, SpanKind, Sym};
use crate::sim::Event;
use crate::spec::{Machine, NetworkSpec, TopologySpec};

/// Collective operations used by the workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CollectiveKind {
    /// Ring allreduce of `bytes` per rank.
    AllReduce,
    /// Personalised all-to-all (`bytes` = data each rank sends in total).
    AllToAll,
    /// Reduce-to-root (`bytes` per rank).
    Reduce,
    /// Tree reduce (log-depth aggregation; Spark `treeAggregate`).
    TreeReduce,
    /// Broadcast from root (`bytes` total).
    Broadcast,
    /// Gather-to-root (`bytes` per rank).
    Gather,
}

impl CollectiveKind {
    /// Every variant, for exhaustiveness-style tests and sweeps.
    pub const ALL: &'static [CollectiveKind] = &[
        CollectiveKind::AllReduce,
        CollectiveKind::AllToAll,
        CollectiveKind::Reduce,
        CollectiveKind::TreeReduce,
        CollectiveKind::Broadcast,
        CollectiveKind::Gather,
    ];

    pub fn as_str(&self) -> &'static str {
        match self {
            CollectiveKind::AllReduce => "allreduce",
            CollectiveKind::AllToAll => "alltoall",
            CollectiveKind::Reduce => "reduce",
            CollectiveKind::TreeReduce => "treereduce",
            CollectiveKind::Broadcast => "broadcast",
            CollectiveKind::Gather => "gather",
        }
    }
}

/// Which algorithm an allreduce uses (other collectives are flat-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum AllReduceAlgo {
    /// Single flat ring over the fabric — the v1 model, and the default.
    #[default]
    Flat,
    /// NVLink ring inside each node, pipelined binomial tree between node
    /// leaders. Requires a [`TopologySpec`]; degenerates to [`Self::Flat`]
    /// without one.
    Hierarchical,
}

impl AllReduceAlgo {
    pub fn as_str(&self) -> &'static str {
        match self {
            AllReduceAlgo::Flat => "flat",
            AllReduceAlgo::Hierarchical => "hier",
        }
    }
}

/// Deterministic per-rank slowdown model (OS noise, thermal throttling, a
/// flaky link — the reasons real 2048-GPU runs never see ideal scaling).
///
/// Rank `r`'s work is multiplied by `1 + (severity - 1) · u(seed, r)` with
/// `u ∈ [0, 1)` a splitmix64 hash — so factors lie in `[1, severity)`,
/// every rank is reproducible from the seed alone, and `severity = 1.0`
/// yields a factor of exactly `1.0` (bit-for-bit baseline).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StragglerSpec {
    /// Seed for the per-rank hash; same seed ⇒ same stragglers.
    pub seed: u64,
    /// Worst-case slowdown factor; `1.0` disables the model exactly.
    pub severity: f64,
}

impl StragglerSpec {
    pub fn new(seed: u64, severity: f64) -> StragglerSpec {
        StragglerSpec { seed, severity }
    }

    /// Slowdown factor for `rank`, in `[1, severity)`.
    pub fn factor(&self, rank: usize) -> f64 {
        1.0 + (self.severity - 1.0) * unit_hash(self.seed, rank as u64)
    }

    /// The gating factor for a collective: its slowest participant.
    pub fn max_factor(&self, ranks: usize) -> f64 {
        (0..ranks).map(|r| self.factor(r)).fold(1.0, f64::max)
    }
}

/// splitmix64 finaliser — a tiny, well-mixed, dependency-free hash.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash `(seed, rank)` to a uniform f64 in `[0, 1)`.
fn unit_hash(seed: u64, rank: u64) -> f64 {
    let mixed = splitmix64(seed ^ rank.wrapping_mul(0xA24B_AED4_963E_E407));
    (mixed >> 11) as f64 / (1u64 << 53) as f64
}

/// Mutable event-driven state: the NIC clocks, the flow table and the
/// point-to-point span names.
#[derive(Debug, Default, Clone)]
struct NetState {
    /// Busy-until clock per rank's NIC injection track (lazily grown) —
    /// a dense [`TrackBank`] on the unified `des` clock storage, the same
    /// structure-of-arrays bank `Sim` keeps its stream/engine clocks in.
    nic: TrackBank,
    /// In-flight point-to-point flows as `(start, end)` intervals.
    flows: Vec<(f64, f64)>,
    /// `p2p:<src>-><dst>` span names by `(src, dst)`, formatted and
    /// interned once per attached recorder (cleared when another is
    /// attached; kept across [`Network::reset`]).
    p2p_syms: FastMap<(usize, usize), Sym>,
}

/// How many `nic<r>.inj` tracks emit timeline spans. Runs with thousands of
/// ranks would otherwise drown the timeline; eight tracks are enough to
/// *see* the joint-front behaviour (the same reason a node has a handful of
/// copy-engine tracks, not one per allocation).
const NIC_SPAN_TRACKS: usize = 8;

/// The track names of the ranks below [`NIC_SPAN_TRACKS`].
const NIC_TRACKS: [&str; NIC_SPAN_TRACKS] = [
    "nic0.inj", "nic1.inj", "nic2.inj", "nic3.inj", "nic4.inj", "nic5.inj", "nic6.inj", "nic7.inj",
];

/// A collective's span name, by [`CollectiveKind`] in declaration order,
/// then by [`AllReduceAlgo`]: flat, hierarchical.
const COLLECTIVE_SPANS: [[&str; 2]; 6] = [
    ["allreduce", "allreduce.hier"],
    ["alltoall", "alltoall.hier"],
    ["reduce", "reduce.hier"],
    ["treereduce", "treereduce.hier"],
    ["broadcast", "broadcast.hier"],
    ["gather", "gather.hier"],
];

/// The operation kinds `net.<kind>` counts with a pre-interned name:
/// point-to-point messages, then every [`CollectiveKind`].
const NET_KINDS: [&str; 7] = [
    "p2p",
    "allreduce",
    "alltoall",
    "reduce",
    "treereduce",
    "broadcast",
    "gather",
];

/// Pre-interned `net.*` counter names, NIC track names and collective
/// span names, rebuilt whenever a recorder is attached; inert
/// ([`Sym::NOOP`]) when tracing is off.
#[derive(Debug, Clone, Copy)]
struct NetSyms {
    ops: Sym,
    bytes: Sym,
    seconds: Sym,
    /// `net.<kind>` for each of [`NET_KINDS`], in order.
    kinds: [Sym; NET_KINDS.len()],
    /// [`NIC_TRACKS`], in order.
    nics: [Sym; NIC_SPAN_TRACKS],
    /// [`COLLECTIVE_SPANS`], in order.
    spans: [[Sym; 2]; COLLECTIVE_SPANS.len()],
}

impl NetSyms {
    /// Every name inert, as a disabled recorder has them.
    const NOOP: NetSyms = NetSyms {
        ops: Sym::NOOP,
        bytes: Sym::NOOP,
        seconds: Sym::NOOP,
        kinds: [Sym::NOOP; NET_KINDS.len()],
        nics: [Sym::NOOP; NIC_SPAN_TRACKS],
        spans: [[Sym::NOOP; 2]; COLLECTIVE_SPANS.len()],
    };

    fn for_recorder(rec: &Recorder) -> NetSyms {
        let Some(mut b) = rec.batch() else {
            return NetSyms::NOOP;
        };
        NetSyms {
            ops: b.intern("net.ops"),
            bytes: b.intern("net.bytes"),
            seconds: b.intern("net.seconds"),
            kinds: NET_KINDS.map(|kind| b.intern(&format!("net.{kind}"))),
            nics: NIC_TRACKS.map(|track| b.intern(track)),
            spans: COLLECTIVE_SPANS.map(|names| names.map(|name| b.intern(name))),
        }
    }

    /// The span name of `kind` under `algo`.
    fn span(&self, algo: AllReduceAlgo, kind: CollectiveKind) -> Sym {
        self.spans[kind as usize][algo as usize]
    }
}

/// A network of `ranks` endpoints over `spec`.
#[derive(Debug, Serialize)]
pub struct Network {
    pub spec: NetworkSpec,
    pub ranks: usize,
    /// Intra-node shape for hierarchical collectives (None ⇒ flat only).
    topology: Option<TopologySpec>,
    /// Default allreduce algorithm for [`Network::collective`].
    algo: AllReduceAlgo,
    /// Optional deterministic straggler model.
    straggler: Option<StragglerSpec>,
    /// Interior-mutable so the (logically read-only) cost queries
    /// [`Network::collective`] / [`Network::ip2p`] can advance the NIC
    /// clocks.
    state: Mutex<NetState>,
    recorder: Recorder,
    /// The `net.*` counter, NIC track and collective span names,
    /// interned once per attached recorder.
    syms: NetSyms,
}

impl Clone for Network {
    fn clone(&self) -> Network {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        Network {
            spec: self.spec.clone(),
            ranks: self.ranks,
            topology: self.topology.clone(),
            algo: self.algo,
            straggler: self.straggler,
            state: Mutex::new(state.clone()),
            recorder: self.recorder.clone(),
            syms: self.syms,
        }
    }
}

/// Identity is the configuration (spec + ranks + topology + algorithm +
/// straggler model); clocks are diagnostics and do not participate in
/// equality.
impl PartialEq for Network {
    fn eq(&self, other: &Network) -> bool {
        self.spec == other.spec
            && self.ranks == other.ranks
            && self.topology == other.topology
            && self.algo == other.algo
            && self.straggler == other.straggler
    }
}

impl Network {
    pub fn new(spec: NetworkSpec, ranks: usize) -> Network {
        Network {
            spec,
            ranks: ranks.max(1),
            topology: None,
            algo: AllReduceAlgo::Flat,
            straggler: None,
            state: Mutex::new(NetState::default()),
            recorder: Recorder::noop(),
            syms: NetSyms::NOOP,
        }
    }

    /// Build a network over `ranks` endpoints of `machine`, inheriting its
    /// fabric spec and intra-node topology (so hierarchical collectives are
    /// one `with_algo` away).
    pub fn for_machine(machine: &Machine, ranks: usize) -> Network {
        Network::new(machine.network.clone(), ranks).with_topology(machine.topology())
    }

    /// Attach an observability recorder (builder form).
    pub fn with_recorder(mut self, recorder: Recorder) -> Network {
        self.set_recorder(recorder);
        self
    }

    /// Attach an observability recorder in place, interning the `net.*`
    /// counter, NIC track and collective span names on it.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.syms = NetSyms::for_recorder(&recorder);
        self.state
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .p2p_syms
            .clear();
        self.recorder = recorder;
    }

    /// Attach an intra-node topology, enabling hierarchical collectives.
    pub fn with_topology(mut self, topology: TopologySpec) -> Network {
        self.topology = Some(topology);
        self
    }

    /// Select the default allreduce algorithm used by [`Network::collective`].
    pub fn with_algo(mut self, algo: AllReduceAlgo) -> Network {
        self.algo = algo;
        self
    }

    /// Attach a deterministic straggler model (builder form).
    pub fn with_stragglers(mut self, straggler: StragglerSpec) -> Network {
        self.straggler = Some(straggler);
        self
    }

    /// The configured intra-node topology, if any.
    pub fn topology(&self) -> Option<&TopologySpec> {
        self.topology.as_ref()
    }

    /// The configured default allreduce algorithm.
    pub fn algo(&self) -> AllReduceAlgo {
        self.algo
    }

    /// The configured straggler model, if any.
    pub fn straggler(&self) -> Option<StragglerSpec> {
        self.straggler
    }

    /// Clear the NIC clocks and the flow table, keeping the topology
    /// and recorder — and scrub this network's `net.*` counters/gauges from
    /// the recorder so a reused recorder cannot leak stale network metrics
    /// into the next measurement.
    pub fn reset(&self) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.nic = TrackBank::new();
        s.flows.clear();
        drop(s);
        self.recorder.remove_prefixed("net.");
    }

    /// The network's simulated frontier: the latest NIC busy-until clock
    /// (0.0 before any traffic).
    pub fn now(&self) -> f64 {
        let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.nic.frontier()
    }

    /// Busy-until clock of `rank`'s NIC injection track.
    pub fn nic_time(&self, rank: usize) -> f64 {
        let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.nic.time(rank)
    }

    /// Count one operation on the recorder: `net.ops` and `net.<kind>`
    /// by message, `net.bytes` by injected volume (every rank's payload),
    /// `net.seconds` by simulated duration. A hierarchical allreduce counts
    /// **once**, not once per phase — Fig 2 / Fig 3 message counts must
    /// stay comparable across algorithms.
    ///
    /// Returns the open batch (`None` when tracing is off), so the caller
    /// records the operation's spans under the same lock.
    fn note(&self, kind: &str, msgs: u64, volume: f64, seconds: f64) -> Option<Batch<'_>> {
        // One lock, pre-interned names for every known kind: no hash
        // lookup and no per-op format allocation on the injection path.
        let mut batch = self.recorder.batch()?;
        batch.incr(self.syms.ops, msgs as f64);
        batch.incr(self.syms.bytes, volume);
        batch.incr(self.syms.seconds, seconds);
        match NET_KINDS.iter().position(|&k| k == kind) {
            Some(i) => batch.incr(self.syms.kinds[i], msgs as f64),
            None => batch.incr(format!("net.{kind}"), msgs as f64),
        }
        Some(batch)
    }

    fn alpha(&self) -> f64 {
        self.spec.latency_us * 1e-6
    }

    fn beta(&self) -> f64 {
        1.0 / (self.spec.injection_bw_gbs * 1e9)
    }

    // ------------------------------------------------- closed-form queries

    /// Point-to-point message time (pure closed form: no NIC occupancy, no
    /// congestion — use [`Network::ip2p`] for the event-driven path).
    pub fn p2p(&self, bytes: f64) -> f64 {
        let t = self.alpha() + bytes * self.beta();
        self.note("p2p", 1, bytes, t);
        t
    }

    /// Pure cost query (no counter side effects) for the flat algorithms.
    pub fn collective_cost(&self, kind: CollectiveKind, bytes: f64) -> f64 {
        let n = self.ranks as f64;
        if self.ranks == 1 {
            return 0.0;
        }
        let (alpha, beta) = (self.alpha(), self.beta());
        let logn = n.log2().ceil();
        match kind {
            // Ring allreduce: 2(n-1) steps, each moving bytes/n.
            CollectiveKind::AllReduce => 2.0 * (n - 1.0) * (alpha + (bytes / n) * beta),
            // Pairwise exchange: n-1 steps of bytes/n each.
            CollectiveKind::AllToAll => (n - 1.0) * (alpha + (bytes / n) * beta),
            // Flat reduce to root: root receives from every rank.
            CollectiveKind::Reduce => (n - 1.0) * alpha + (n - 1.0) * bytes * beta,
            // Binomial-tree reduce: log(n) rounds of the full payload.
            CollectiveKind::TreeReduce => logn * (alpha + bytes * beta),
            CollectiveKind::Broadcast => logn * (alpha + bytes * beta),
            CollectiveKind::Gather => (n - 1.0) * alpha + (n - 1.0) * bytes * beta,
        }
    }

    /// Pure cost query under an explicit algorithm choice. Only the
    /// allreduce has a hierarchical form; everything else (and a network
    /// with no topology) falls back to the flat cost.
    pub fn collective_cost_with(
        &self,
        algo: AllReduceAlgo,
        kind: CollectiveKind,
        bytes: f64,
    ) -> f64 {
        match (algo, kind) {
            (AllReduceAlgo::Hierarchical, CollectiveKind::AllReduce)
                if self.topology.is_some() && self.ranks > 1 =>
            {
                self.hierarchical_allreduce_cost(bytes)
            }
            _ => self.collective_cost(kind, bytes),
        }
    }

    /// Two-level allreduce cost: ring reduce-scatter + allgather among the
    /// `R` ranks of each node over the intra link, then a pipelined binomial
    /// tree among node leaders over the fabric, each rank driving its own
    /// `bytes/R` shard (the rail-per-GPU assumption — Sierra-class nodes put
    /// an IB rail next to each GPU pair, so shards cross concurrently):
    ///
    /// ```text
    /// t = 2(R-1)(α_nv + (B/R)β_nv)                      intra-node ring
    ///   + 2·ceil(log2 N)·α_ib + 2·((N-1)/N)·(B/R)·β_ib   inter-node tree
    /// ```
    ///
    /// The inter-node stage is *pipelined* — reduce-scatter along the tree
    /// then allgather back — so its bandwidth term is volume-optimal
    /// (`2(N-1)/N` shard traversals) while its latency term is log-depth.
    /// A naive binomial tree would pay `log2(N)` full-shard traversals and
    /// lose to the flat ring on bandwidth at scale.
    pub fn hierarchical_allreduce_cost(&self, bytes: f64) -> f64 {
        let Some(topo) = &self.topology else {
            return self.collective_cost(CollectiveKind::AllReduce, bytes);
        };
        if self.ranks == 1 {
            return 0.0;
        }
        let r = topo.ranks_per_node.clamp(1, self.ranks);
        let nodes = self.ranks.div_ceil(r);
        let rf = r as f64;
        let shard = bytes / rf;
        let mut t = 0.0;
        if r > 1 {
            let a_i = topo.intra_link.latency_us * 1e-6;
            let b_i = 1.0 / (topo.intra_link.bw_gbs * 1e9);
            t += 2.0 * (rf - 1.0) * (a_i + shard * b_i);
        }
        if nodes > 1 {
            let nf = nodes as f64;
            t += 2.0 * nf.log2().ceil() * self.alpha()
                + 2.0 * ((nf - 1.0) / nf) * shard * self.beta();
        }
        t
    }

    /// Effective aggregate bandwidth of the allreduce (bytes reduced/s),
    /// useful for scaling-efficiency plots.
    pub fn allreduce_bw(&self, bytes: f64) -> f64 {
        let t = self.collective_cost(CollectiveKind::AllReduce, bytes);
        if t == 0.0 {
            f64::INFINITY
        } else {
            bytes / t
        }
    }

    // -------------------------------------------------- blocking frontends

    /// Time for one collective under the configured default algorithm;
    /// `bytes` is the per-rank payload. Blocking form of
    /// [`Network::icollective`]: issues the operation on the NIC tracks and
    /// returns its duration.
    pub fn collective(&self, kind: CollectiveKind, bytes: f64) -> f64 {
        self.collective_with(self.algo, kind, bytes)
    }

    /// Blocking collective under an explicit algorithm choice.
    pub fn collective_with(&self, algo: AllReduceAlgo, kind: CollectiveKind, bytes: f64) -> f64 {
        self.issue_collective(algo, kind, bytes, None).1
    }

    // ---------------------------------------------- non-blocking frontends

    /// Issue a collective without waiting: all NIC injection tracks are
    /// joined (a collective cannot start before every participant is free
    /// — and cannot finish before its slowest straggler), and the returned
    /// [`Event`] completes when the operation does. Chain it with kernel or
    /// copy-engine events via `after`.
    pub fn icollective(&self, kind: CollectiveKind, bytes: f64, after: Option<Event>) -> Event {
        self.icollective_with(self.algo, kind, bytes, after)
    }

    /// Non-blocking collective under an explicit algorithm choice.
    pub fn icollective_with(
        &self,
        algo: AllReduceAlgo,
        kind: CollectiveKind,
        bytes: f64,
        after: Option<Event>,
    ) -> Event {
        let (_, _, end) = self.issue_collective(algo, kind, bytes, after);
        Event::at(end)
    }

    /// Issue a point-to-point flow from `src` to `dst` without waiting.
    ///
    /// The flow occupies `src`'s NIC injection track and contends with every
    /// other in-flight p2p flow active at its start instant: with `k` such
    /// flows the bandwidth term is paid `(1 + k)` times (equal-share link
    /// splitting). Already-issued flows are never revised, so added traffic
    /// only ever penalises the *new* flow.
    pub fn ip2p(&self, src: usize, dst: usize, bytes: f64, after: Option<Event>) -> Event {
        let src = src.min(self.ranks.saturating_sub(1));
        let dst = dst.min(self.ranks.saturating_sub(1));
        let (start, end, name) = {
            let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
            s.nic.ensure(self.ranks);
            let start = s.nic.time(src).max(after.map(|e| e.time).unwrap_or(0.0));
            // Flows that ended before every NIC front can never overlap a
            // future issue; prune them so the table stays small.
            let min_front = s.nic.min_front();
            s.flows.retain(|f| f.1 > min_front);
            let active = s
                .flows
                .iter()
                .filter(|f| f.0 <= start && f.1 > start)
                .count();
            let mut dur = self.alpha() + bytes * self.beta() * (1.0 + active as f64);
            if let Some(st) = self.straggler {
                dur *= st.factor(src);
            }
            let end = start + dur;
            s.flows.push((start, end));
            s.nic.set(src, end);
            (start, end, s.p2p_syms.get(&(src, dst)).copied())
        };
        let Some(mut batch) = self.note("p2p", 1, bytes, end - start) else {
            return Event::at(end);
        };
        if src < NIC_SPAN_TRACKS {
            let name = name.unwrap_or_else(|| {
                let sym = batch.intern(&format!("p2p:{src}->{dst}"));
                // First sight of the route: the one nested lock, taken
                // in the recorder-then-state order nothing else reverses.
                let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
                s.p2p_syms.insert((src, dst), sym);
                sym
            });
            batch.record_span(name, SpanKind::Transfer, self.syms.nics[src], start, end);
        }
        Event::at(end)
    }

    /// Shared issue path for blocking and non-blocking collectives.
    /// Returns `(start, duration, end)` with `end = start + duration`, so
    /// a non-blocking issue waited immediately costs exactly what the
    /// blocking call reports.
    fn issue_collective(
        &self,
        algo: AllReduceAlgo,
        kind: CollectiveKind,
        bytes: f64,
        after: Option<Event>,
    ) -> (f64, f64, f64) {
        let n = self.ranks as f64;
        let (start, dur) = {
            let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
            s.nic.ensure(self.ranks);
            let front = s.nic.frontier();
            let start = front.max(after.map(|e| e.time).unwrap_or(0.0));
            let mut dur = if self.ranks == 1 {
                0.0
            } else {
                self.collective_cost_with(algo, kind, bytes)
            };
            if let Some(st) = self.straggler {
                dur *= st.max_factor(self.ranks);
            }
            let end = start + dur;
            // The collective joins every NIC front: a barrier on the
            // shared clock bank.
            s.nic.join_all(end);
            (start, dur)
        };
        let end = start + dur;
        let batch = if self.ranks == 1 {
            // Counted as one (free) operation, exactly as v1 did.
            self.note(kind.as_str(), 1, 0.0, 0.0)
        } else {
            // One collective, once — a hierarchical allreduce does NOT count
            // its intra/inter phases separately. Collective volume: every
            // rank injects its payload.
            self.note(kind.as_str(), 1, bytes * n, dur)
        };
        if let Some(mut batch) = batch.filter(|_| dur > 0.0) {
            let name = self.syms.span(algo, kind);
            for &track in &self.syms.nics[..self.ranks.min(NIC_SPAN_TRACKS)] {
                batch.record_span(name, SpanKind::Collective, track, start, end);
            }
        }
        (start, dur, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{LinkKind, LinkSpec};

    #[test]
    fn interned_names_match_the_kinds_and_ranks_they_stand_for() {
        for &kind in CollectiveKind::ALL {
            let [flat, hier] = COLLECTIVE_SPANS[kind as usize];
            assert_eq!(flat, kind.as_str());
            assert_eq!(
                hier,
                format!("{}.{}", kind.as_str(), AllReduceAlgo::Hierarchical.as_str())
            );
        }
        for (rank, track) in NIC_TRACKS.iter().enumerate() {
            assert_eq!(*track, format!("nic{rank}.inj"));
        }
    }

    fn net(ranks: usize) -> Network {
        Network::new(
            NetworkSpec {
                injection_bw_gbs: 25.0,
                latency_us: 1.5,
                gpudirect: true,
            },
            ranks,
        )
    }

    fn nvlink() -> TopologySpec {
        TopologySpec {
            ranks_per_node: 4,
            intra_link: LinkSpec {
                kind: LinkKind::NvLink2,
                bw_gbs: 68.0,
                latency_us: 6.0,
            },
        }
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let n = net(1);
        assert_eq!(n.collective(CollectiveKind::AllReduce, 1e9), 0.0);
    }

    #[test]
    fn counters_track_volume_and_reset() {
        use crate::obs::Recorder;
        let rec = Recorder::enabled();
        let n = net(8).with_recorder(rec.clone());
        n.collective(CollectiveKind::AllReduce, 1e6);
        n.p2p(500.0);
        assert_eq!(rec.counter("net.allreduce"), 1.0);
        assert_eq!(rec.counter("net.p2p"), 1.0);
        assert_eq!(rec.counter("net.ops"), 2.0);
        let bytes = rec.counter("net.bytes");
        assert!((bytes - (8.0 * 1e6 + 500.0)).abs() < 1e-6, "{bytes}");
        assert!(rec.counter("net.seconds") > 0.0);
        n.reset();
        assert!(rec.counters().keys().all(|k| !k.starts_with("net.")));
    }

    #[test]
    fn recorder_sees_collective_volume() {
        use crate::obs::Recorder;
        let rec = Recorder::enabled();
        let n = net(4).with_recorder(rec.clone());
        n.collective(CollectiveKind::TreeReduce, 1000.0);
        n.collective(CollectiveKind::TreeReduce, 1000.0);
        assert_eq!(rec.counter("net.ops"), 2.0);
        assert_eq!(rec.counter("net.treereduce"), 2.0);
        assert_eq!(rec.counter("net.bytes"), 8000.0);
    }

    #[test]
    fn reset_scrubs_recorder_net_namespace() {
        use crate::obs::Recorder;
        let rec = Recorder::enabled();
        rec.incr("flops", 5.0);
        let n = net(4).with_recorder(rec.clone());
        n.collective(CollectiveKind::AllReduce, 1e6);
        assert!(rec.counter("net.ops") > 0.0);
        assert!(rec.counter("net.bytes") > 0.0);
        n.reset();
        // net.* gone from the recorder...
        assert_eq!(rec.counter("net.ops"), 0.0);
        assert_eq!(rec.counter("net.bytes"), 0.0);
        assert_eq!(rec.counter("net.allreduce"), 0.0);
        // ...while foreign namespaces survive.
        assert_eq!(rec.counter("flops"), 5.0);
        // And the NIC clocks restarted.
        assert_eq!(n.now(), 0.0);
    }

    #[test]
    fn equality_ignores_activity() {
        let a = net(8);
        let b = net(8);
        a.ip2p(0, 1, 100.0, None);
        assert_eq!(a, b);
        // A clone carries the activity along: the NIC clocks.
        assert!(a.nic_time(0) > 0.0);
        assert_eq!(a.clone().nic_time(0), a.nic_time(0));
    }

    #[test]
    fn tree_reduce_beats_flat_reduce_at_scale() {
        // The SparkPlug fix (§4.4): "more scalable all-to-one operations".
        let n = net(256);
        let flat = n.collective(CollectiveKind::Reduce, 1e6);
        let tree = n.collective(CollectiveKind::TreeReduce, 1e6);
        assert!(tree < flat / 10.0, "tree {tree} flat {flat}");
    }

    #[test]
    fn ring_allreduce_bandwidth_term_stays_bounded() {
        // Ring allreduce moves ~2x the payload regardless of rank count.
        let small = net(4).collective(CollectiveKind::AllReduce, 1e9);
        let big = net(1024).collective(CollectiveKind::AllReduce, 1e9);
        assert!(big < 1.5 * small, "big {big} small {small}");
    }

    #[test]
    fn latency_dominates_small_messages_at_scale() {
        let n = net(1024);
        let t = n.collective(CollectiveKind::AllReduce, 8.0);
        // 2 * 1023 * 1.5us of pure latency.
        assert!(t > 3e-3);
    }

    #[test]
    fn alltoall_scales_worse_than_allreduce_in_latency() {
        let n = net(512);
        let a2a = n.collective(CollectiveKind::AllToAll, 1e3);
        let ar = n.collective(CollectiveKind::AllReduce, 1e3);
        // Same asymptotics here (n-1 vs 2(n-1) steps), but a2a moves unique
        // data so it cannot be reduced in flight; keep the sanity ordering.
        assert!(a2a < ar * 1.01);
    }

    // ------------------------------------------------------- v2 behaviour

    #[test]
    fn nonblocking_collective_advances_every_nic_front() {
        let n = net(4);
        let ev = n.icollective(CollectiveKind::AllReduce, 1e6, None);
        assert!(ev.time > 0.0);
        for r in 0..4 {
            assert_eq!(n.nic_time(r), ev.time, "rank {r} joined the front");
        }
        assert_eq!(n.now(), ev.time);
        // A second collective queues strictly after the first.
        let ev2 = n.icollective(CollectiveKind::AllReduce, 1e6, None);
        assert!(ev2.time > ev.time);
        assert!((ev2.time - 2.0 * ev.time).abs() < 1e-12);
    }

    #[test]
    fn after_event_defers_the_start() {
        let n = net(4);
        let gate = Event::at(0.5);
        let ev = n.icollective(CollectiveKind::AllReduce, 1e6, Some(gate));
        let dur = n.clone_fresh().collective(CollectiveKind::AllReduce, 1e6);
        assert!((ev.time - (0.5 + dur)).abs() < 1e-12);
    }

    #[test]
    fn p2p_occupies_source_nic_only() {
        let n = net(4);
        let ev = n.ip2p(1, 3, 1e6, None);
        assert_eq!(n.nic_time(1), ev.time);
        assert_eq!(n.nic_time(3), 0.0, "ingress is not modelled");
        assert_eq!(n.nic_time(0), 0.0);
    }

    #[test]
    fn concurrent_flows_split_bandwidth() {
        let solo = {
            let n = net(4);
            n.ip2p(0, 1, 8e6, None).time
        };
        let n = net(4);
        let _bg = n.ip2p(2, 3, 64e6, None); // long-lived background flow
                                            // nic0 is free at t=0, so the flow's end time IS its duration.
        let contended = n.ip2p(0, 1, 8e6, None).time;
        // One concurrent flow ⇒ bandwidth term doubles (latency unchanged).
        let alpha = 1.5e-6;
        let expect = alpha + 2.0 * (solo - alpha);
        assert!(
            (contended - expect).abs() < 1e-12,
            "{contended} vs {expect}"
        );
    }

    #[test]
    fn hierarchical_beats_flat_on_sierra_like_fabric_at_scale() {
        // 64 nodes x 4 GPUs, 256 MiB gradients — the Fig 3 regime.
        let bytes = 256.0 * 1024.0 * 1024.0;
        let n = net(256).with_topology(nvlink());
        let flat = n.collective_cost_with(AllReduceAlgo::Flat, CollectiveKind::AllReduce, bytes);
        let hier = n.collective_cost_with(
            AllReduceAlgo::Hierarchical,
            CollectiveKind::AllReduce,
            bytes,
        );
        assert!(hier < flat / 1.5, "hier {hier} flat {flat}");
        // And the phases add up: intra ring + pipelined inter tree.
        let r = 4.0;
        let nodes = 64.0f64;
        let intra = 2.0 * (r - 1.0) * (6e-6 + (bytes / r) / 68e9);
        let inter =
            2.0 * nodes.log2().ceil() * 1.5e-6 + 2.0 * ((nodes - 1.0) / nodes) * (bytes / r) / 25e9;
        assert!((hier - (intra + inter)).abs() < 1e-12);
    }

    #[test]
    fn hierarchical_counts_once_per_collective_not_per_phase() {
        use crate::obs::Recorder;
        let rec = Recorder::enabled();
        let n = net(16)
            .with_topology(nvlink())
            .with_algo(AllReduceAlgo::Hierarchical)
            .with_recorder(rec.clone());
        n.collective(CollectiveKind::AllReduce, 1e6);
        assert_eq!(rec.counter("net.ops"), 1.0, "two phases, ONE collective");
        assert_eq!(rec.counter("net.allreduce"), 1.0);
        let bytes = rec.counter("net.bytes");
        assert!((bytes - 16.0 * 1e6).abs() < 1e-6, "volume counted once");
    }

    #[test]
    fn straggler_severity_one_is_bitwise_baseline() {
        let base = net(32);
        let strag = net(32).with_stragglers(StragglerSpec::new(7, 1.0));
        for kind in CollectiveKind::ALL {
            let a = base.collective(*kind, 123456.0);
            let b = strag.collective(*kind, 123456.0);
            assert_eq!(a.to_bits(), b.to_bits(), "{kind:?}");
        }
        assert_eq!(
            base.ip2p(0, 1, 4096.0, None).time.to_bits(),
            strag.ip2p(0, 1, 4096.0, None).time.to_bits()
        );
    }

    #[test]
    fn stragglers_gate_collectives_by_slowest_rank() {
        let sev = 3.0;
        let st = StragglerSpec::new(42, sev);
        let n = net(64).with_stragglers(st);
        let plain = net(64);
        let slow = n.collective(CollectiveKind::AllReduce, 1e7);
        let fast = plain.collective(CollectiveKind::AllReduce, 1e7);
        let f = st.max_factor(64);
        assert!(f > 1.0 && f < sev);
        assert!((slow - fast * f).abs() < 1e-12);
        // Determinism: same seed, same factors.
        assert_eq!(
            StragglerSpec::new(42, sev).max_factor(64).to_bits(),
            f.to_bits()
        );
    }

    #[test]
    fn collective_kind_as_str_is_exhaustive_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for k in CollectiveKind::ALL {
            let s = k.as_str();
            assert!(!s.is_empty());
            assert!(seen.insert(s), "duplicate as_str {s}");
        }
        assert_eq!(seen.len(), CollectiveKind::ALL.len());
        assert_eq!(CollectiveKind::ALL.len(), 6, "update ALL on new variants");
    }

    #[test]
    fn allreduce_bw_has_a_small_message_latency_floor() {
        let n = net(64);
        // At zero payload the cost is pure latency: 2(n-1)·alpha.
        let floor = n.collective_cost(CollectiveKind::AllReduce, 0.0);
        assert!((floor - 2.0 * 63.0 * 1.5e-6).abs() < 1e-15);
        // So tiny messages see a vanishing fraction of injection bandwidth,
        // and effective bandwidth grows with message size.
        let small = n.allreduce_bw(8.0);
        let big = n.allreduce_bw(256.0 * 1024.0 * 1024.0);
        assert!(small < 1e-3 * 25e9, "{small}");
        assert!(small < big);
        assert!(big < 25e9);
    }

    #[test]
    fn nic_spans_land_on_injection_tracks() {
        use crate::obs::Recorder;
        let rec = Recorder::enabled();
        let n = net(4).with_recorder(rec.clone());
        n.icollective(CollectiveKind::AllReduce, 1e6, None);
        n.ip2p(0, 2, 1e5, None);
        let spans = rec.spans();
        assert!(spans
            .iter()
            .any(|s| s.track == "nic0.inj" && s.kind == SpanKind::Collective));
        assert!(spans.iter().any(|s| s.track == "nic3.inj"));
        assert!(spans
            .iter()
            .any(|s| s.track == "nic0.inj" && s.name == "p2p:0->2"));
    }

    impl Network {
        /// Test helper: same configuration, fresh clocks.
        fn clone_fresh(&self) -> Network {
            let n = self.clone();
            n.reset();
            n
        }
    }
}
