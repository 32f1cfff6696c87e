//! The simulation engine: virtual clocks per execution stream and per
//! copy engine, transfers, and events. Activity counts (launches, flops,
//! bytes per route) go to the attached [`Recorder`].
//!
//! [`Sim`] owns one [`Machine`] (usually a single node — multi-node effects
//! go through [`crate::network`]) plus two families of clocks:
//!
//! * **execution streams** ([`StreamId`]) — CUDA-stream analogues that
//!   kernels advance;
//! * **copy engines** ([`Engine`]) — the per-direction DMA engines
//!   (`gpu0.h2d`, `gpu0.d2h`, `host.dma`) that transfers occupy. Copies
//!   sharing one engine serialise at full link bandwidth, which is exactly
//!   how hardware DMA contention behaves to first order.
//!
//! Launching a kernel advances the stream it runs on; a synchronous
//! [`Sim::transfer`] joins both endpoints' default streams (the blocking
//! `cudaMemcpy` shape); an asynchronous [`Sim::transfer_async`] only
//! occupies its issuing stream and the copy engine, returning an [`Event`]
//! so dependency chains are explicit (`cudaMemcpyAsync` + events). `sync`
//! joins every stream *and* engine the way `cudaDeviceSynchronize` does.
//! The result is a deterministic, replayable timeline from which every
//! paper figure — including the §4 compute/transfer-overlap lessons — can
//! be regenerated.

use std::cell::RefCell;

use crate::des::TrackBank;
use crate::fast_hash::FastMap;
use crate::kernel::KernelProfile;
use crate::mem::{MemId, MemTracker, Migration, OomError, OomPolicy};
use crate::obs::{Batch, Recorder, SpanKind, Sym};
use crate::spec::{LinkKind, LinkSpec, Machine};

/// Where data lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loc {
    /// Host DDR.
    Host,
    /// Device memory of GPU `i`.
    Gpu(usize),
    /// Node-local NVMe.
    Nvme,
    /// The network adapter (for GPUDirect modelling).
    Nic,
}

impl Loc {
    /// Metric/gauge label, e.g. `host`, `gpu0`, `nvme`, `nic`.
    pub fn label(&self) -> String {
        match self {
            Loc::Host => "host".to_string(),
            Loc::Gpu(i) => format!("gpu{i}"),
            Loc::Nvme => "nvme".to_string(),
            Loc::Nic => "nic".to_string(),
        }
    }

    /// Sort key ordering locations exactly as their [`Loc::label`]s sort,
    /// built without allocating: the label's bytes, zero-padded (`gpu`
    /// plus at most 20 digits fits).
    pub fn label_key(&self) -> [u8; 23] {
        use std::io::Write;
        let mut key = [0u8; 23];
        let mut w = &mut key[..];
        let written = match self {
            Loc::Host => w.write_all(b"host"),
            Loc::Gpu(i) => write!(w, "gpu{i}"),
            Loc::Nvme => w.write_all(b"nvme"),
            Loc::Nic => w.write_all(b"nic"),
        };
        written.expect("a label fits its key");
        key
    }
}

/// What executes a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// `threads` host cores.
    Cpu { threads: usize },
    /// GPU `id`.
    Gpu { id: usize },
}

impl Target {
    /// All host cores of the current machine (resolved at launch).
    pub fn cpu_all() -> Target {
        Target::Cpu {
            threads: usize::MAX,
        }
    }

    pub fn cpu(threads: usize) -> Target {
        Target::Cpu { threads }
    }

    pub fn gpu(id: usize) -> Target {
        Target::Gpu { id }
    }
}

/// An execution stream (CUDA-stream analogue). Stream 0 of each target is
/// the default stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId {
    pub target: Target,
    pub index: usize,
}

impl StreamId {
    pub fn default_for(target: Target) -> StreamId {
        StreamId { target, index: 0 }
    }

    /// Human-readable track label, e.g. `gpu0.s1` or `cpu.s0`.
    pub fn label(&self) -> String {
        match self.target {
            Target::Cpu { .. } => format!("cpu.s{}", self.index),
            Target::Gpu { id } => format!("gpu{}.s{}", id, self.index),
        }
    }
}

/// A target's default stream — lets [`Sim::launch_on`] (and the stream-based
/// APIs of higher layers) accept a bare [`Target`].
impl From<Target> for StreamId {
    fn from(target: Target) -> StreamId {
        StreamId::default_for(target)
    }
}

/// Where a target's local memory lives: GPUs own their device memory, CPU
/// targets resolve to host DDR. Lets transfer APIs accept a [`Target`].
impl From<Target> for Loc {
    fn from(target: Target) -> Loc {
        match target {
            Target::Cpu { .. } => Loc::Host,
            Target::Gpu { id } => Loc::Gpu(id),
        }
    }
}

/// One DMA engine: the hardware track a copy occupies. V100-class GPUs
/// expose one copy engine per direction, so H2D and D2H proceed
/// concurrently with each other and with compute, while two copies in the
/// *same* direction serialise — the first-order contention model behind
/// every §4 overlap lesson.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Host-to-device engine of GPU `i` (also serves Nvme/Nic -> GPU).
    H2d(usize),
    /// Device-to-host engine of GPU `i` (also serves peer and local device
    /// copies, and GPU -> Nvme/Nic).
    D2h(usize),
    /// Host-side DMA for routes not touching a GPU (host<->host,
    /// host<->NVMe, host<->NIC).
    HostDma,
}

impl Engine {
    /// Which engine a `src -> dst` copy occupies.
    pub fn for_route(src: Loc, dst: Loc) -> Engine {
        match (src, dst) {
            // The source device's engine pushes peer, local, and outbound
            // copies; anything landing on a GPU from elsewhere rides the
            // destination's H2D engine.
            (Loc::Gpu(i), _) => Engine::D2h(i),
            (_, Loc::Gpu(i)) => Engine::H2d(i),
            _ => Engine::HostDma,
        }
    }

    /// Timeline track label, e.g. `gpu0.h2d`, `gpu1.d2h`, `host.dma`.
    pub fn label(&self) -> String {
        match self {
            Engine::H2d(i) => format!("gpu{i}.h2d"),
            Engine::D2h(i) => format!("gpu{i}.d2h"),
            Engine::HostDma => "host.dma".to_string(),
        }
    }
}

/// A completion handle on the simulated clock (CUDA-event analogue).
///
/// Returned by [`Sim::transfer_async`] and [`Sim::record`]; consumed by
/// [`Sim::wait_event`]. Events are plain timestamps, so they stay valid
/// across clones of the [`Sim`] and compose with ordinary comparisons.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Event {
    /// Simulated second at which the recorded work completes.
    pub time: f64,
}

impl Event {
    /// An event that is already complete at `time` (mainly for tests and
    /// for seeding dependency chains).
    pub fn at(time: f64) -> Event {
        Event { time }
    }
}

/// Kind of host<->device transfer path (§4.11 compares these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferKind {
    /// Plain `cudaMemcpy` over the host-GPU link.
    Memcpy,
    /// Unified-memory page migration: the same link but page-granular with
    /// per-page fault cost (see [`crate::unified`]).
    Unified,
    /// GPUDirect RDMA: NIC <-> GPU without staging through host memory.
    GpuDirect,
}

/// Stand-in NVMe bandwidth (GB/s) used when a transfer touches
/// [`Loc::Nvme`] on a machine whose `node.nvme` is `None`. Taking this
/// link is a modelling smell, so the `Sim` fires its
/// `sim.phantom_link_hits` counter once per distinct offending route
/// (see [`Sim::phantom_link_hits`]) — in every build profile, making the
/// phantom visible in any gated document rather than panicking debug
/// runs and hiding silently in release sweeps. The figure is deliberately
/// pessimal (a slow SATA-class device) so a phantom route can never
/// flatter a result.
pub const PHANTOM_NVME_BW_GBS: f64 = 0.5;

/// Pre-interned symbols for the recorder names `Sim` touches on every
/// kernel launch / transfer — rebuilt whenever a recorder is attached,
/// inert ([`Sym::NOOP`]) when tracing is off.
#[derive(Debug, Clone, Copy)]
struct HotSyms {
    launches: Sym,
    flops: Sym,
    kernel_bytes: Sym,
    transfers: Sym,
}

impl HotSyms {
    fn for_recorder(rec: &Recorder) -> HotSyms {
        HotSyms {
            launches: rec.intern("launches"),
            flops: rec.intern("flops"),
            kernel_bytes: rec.intern("kernel.bytes"),
            transfers: rec.intern("transfers"),
        }
    }
}

/// One clock of the node: an execution stream or a copy engine. The key
/// under which [`Sim`] interns a clock's slot in its [`TrackBank`] (see
/// [`crate::des`]) — streams and engines share one dense bank, so the
/// wall clock is a single frontier fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SimTrack {
    Stream(StreamId),
    Engine(Engine),
}

impl SimTrack {
    /// Timeline track label, e.g. `gpu0.s1` or `gpu0.h2d`.
    fn label(&self) -> String {
        match self {
            SimTrack::Stream(s) => s.label(),
            SimTrack::Engine(e) => e.label(),
        }
    }
}

/// The per-node simulator.
#[derive(Debug, Clone)]
pub struct Sim {
    machine: Machine,
    /// Busy-until clocks of every stream and copy engine, on the unified
    /// event kernel's dense track storage, one per slot. Times are
    /// **absolute** simulated seconds (the `des` clock contract); copies
    /// sharing an engine queue FIFO behind its track.
    clocks: TrackBank,
    /// Each clock's slot in `clocks` and `track_syms`, interned on first
    /// touch and kept across [`Sim::reset`].
    slots: FastMap<SimTrack, usize>,
    /// Each slot's interned timeline label (`gpu0.s0`, `gpu0.h2d`, …),
    /// formatted on the clock's first span under the attached recorder.
    track_syms: Vec<Option<Sym>>,
    /// Observability sink; [`Recorder::noop`] by default, so the hot paths
    /// pay one branch when tracing is off.
    recorder: Recorder,
    /// Hot metric names, interned once per attached recorder.
    hot_syms: HotSyms,
    /// `mem.<loc>.bytes` / `mem.<loc>.high_water` gauge names, interned
    /// per location on first publication to the attached recorder.
    mem_syms: Vec<(Loc, Sym, Sym)>,
    /// `xfer <src>-><dst> (<bytes> B)` span names, keyed by route and the
    /// bytes' bits, formatted and interned once per attached recorder.
    xfer_syms: FastMap<(Loc, Loc, u64), Sym>,
    /// Per-location memory-capacity accounting (capacities from the
    /// machine's specs; [`OomPolicy::Fail`] by default).
    mem: MemTracker,
    /// The migrations of the last `alloc` or `touch_mem`
    /// (`charge_planned`), reused so a warm migrating touch does
    /// not allocate.
    moves: Vec<Migration>,
    /// Distinct `(src, dst)` routes costed over the
    /// [`PHANTOM_NVME_BW_GBS`] stand-in because the machine has no NVMe.
    /// Interior-mutable: routes are noted from `&self` cost paths.
    phantom_routes: RefCell<Vec<(Loc, Loc)>>,
}

impl Sim {
    pub fn new(machine: Machine) -> Sim {
        let mem = MemTracker::for_machine(&machine, OomPolicy::default());
        let recorder = Recorder::noop();
        Sim {
            machine,
            clocks: TrackBank::new(),
            slots: FastMap::default(),
            track_syms: Vec::new(),
            hot_syms: HotSyms::for_recorder(&recorder),
            mem_syms: Vec::new(),
            xfer_syms: FastMap::default(),
            recorder,
            mem,
            moves: Vec::new(),
            phantom_routes: RefCell::new(Vec::new()),
        }
    }

    /// Attach an observability recorder (builder form).
    pub fn with_recorder(mut self, recorder: Recorder) -> Sim {
        self.set_recorder(recorder);
        self
    }

    /// Choose the out-of-memory policy (builder form).
    pub fn with_oom_policy(mut self, policy: OomPolicy) -> Sim {
        self.mem.set_policy(policy);
        self
    }

    /// Choose the out-of-memory policy in place.
    pub fn set_oom_policy(&mut self, policy: OomPolicy) {
        self.mem.set_policy(policy);
    }

    /// The memory-capacity tracker (in-use / high-water per [`Loc`]).
    pub fn mem(&self) -> &MemTracker {
        &self.mem
    }

    /// Attach an observability recorder in place. Re-interns the hot
    /// metric names and drops cached track symbols — symbols are per
    /// recorder (see [`Sym`]).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.hot_syms = HotSyms::for_recorder(&recorder);
        self.mem_syms.clear();
        self.xfer_syms.clear();
        self.track_syms.fill(None);
        self.recorder = recorder;
    }

    /// The slot of one (resolved) clock, interning it on first sight (the
    /// `des` intern-once discipline).
    fn slot(&mut self, track: SimTrack) -> usize {
        let next = self.slots.len();
        let slot = *self.slots.entry(track).or_insert(next);
        if slot == next {
            self.clocks.ensure(next + 1);
            self.track_syms.push(None);
        }
        slot
    }

    /// Busy-until time of one clock, 0.0 (and left unregistered) if it was
    /// never touched.
    fn time_of(&self, track: SimTrack) -> f64 {
        self.slots.get(&track).map_or(0.0, |&i| self.clocks.time(i))
    }

    /// Interned timeline label of the clock `track` at `slot`, formatted
    /// and interned through `batch` only on its first span under the
    /// attached recorder.
    fn track_sym(
        track_syms: &mut [Option<Sym>],
        batch: &mut Batch<'_>,
        slot: usize,
        track: SimTrack,
    ) -> Sym {
        *track_syms[slot].get_or_insert_with(|| batch.intern(&track.label()))
    }

    /// The attached recorder (a no-op handle unless one was set).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    fn resolve_threads(&self, t: Target) -> Target {
        match t {
            Target::Cpu { threads } => Target::Cpu {
                threads: threads.min(self.machine.node.cpu.cores()),
            },
            g => g,
        }
    }

    /// Canonical stream key: `Target::cpu_all()` (`threads: usize::MAX`)
    /// resolves to the machine's core count, so every API addresses the
    /// same clock entry regardless of how the caller spelled the target.
    fn resolve_stream(&self, s: StreamId) -> StreamId {
        StreamId {
            target: self.resolve_threads(s.target),
            ..s
        }
    }

    /// Time to run `k` on `target` without advancing any clock.
    pub fn cost(&self, target: Target, k: &KernelProfile) -> f64 {
        match self.resolve_threads(target) {
            Target::Cpu { threads } => k.time_on_cpu(&self.machine.node.cpu, threads),
            Target::Gpu { id } => {
                let gpu = &self.machine.node.gpus[id];
                k.time_on_gpu(gpu)
            }
        }
    }

    /// Launch `k` on the default stream of `target`; returns elapsed seconds.
    pub fn launch(&mut self, target: impl Into<Target>, k: &KernelProfile) -> f64 {
        self.launch_on(
            StreamId::default_for(self.resolve_threads(target.into())),
            k,
        )
    }

    /// Launch `k` on a specific stream (or the default stream of a bare
    /// [`Target`]); returns elapsed seconds.
    pub fn launch_on(&mut self, stream: impl Into<StreamId>, k: &KernelProfile) -> f64 {
        let stream = self.resolve_stream(stream.into());
        let dt = self.cost(stream.target, k);
        let clock = SimTrack::Stream(stream);
        let slot = self.slot(clock);
        let start = self.clocks.time(slot);
        self.clocks.set(slot, start + dt);
        if let Some(mut batch) = self.recorder.batch() {
            // Hot path: one lock, interned track + metric symbols, and the
            // kernel name interned under that lock — no label formatting,
            // no per-span `String` allocation.
            let track = Self::track_sym(&mut self.track_syms, &mut batch, slot, clock);
            batch.record_span(k.name.as_str(), SpanKind::Kernel, track, start, start + dt);
            batch.incr(self.hot_syms.launches, 1.0);
            batch.incr(self.hot_syms.flops, k.flops);
            batch.incr(self.hot_syms.kernel_bytes, k.bytes());
        }
        dt
    }

    /// Bandwidth of the node-local NVMe, GB/s.
    ///
    /// Transfers touching [`Loc::Nvme`] on machines with `node.nvme =
    /// None` used to route silently over a phantom 0.5 GB/s link
    /// (`unwrap_or((0.0, 0.5))`), and a later `debug_assert!` fix made
    /// debug and release runs disagree about whether such a sweep even
    /// completes. Now both profiles take the documented
    /// [`PHANTOM_NVME_BW_GBS`] stand-in and the route is surfaced via
    /// the `sim.phantom_link_hits` counter ([`Sim::link_for`] notes it
    /// once per distinct route). Capacity-aware callers should use the
    /// [`Sim::alloc`] path, where a missing NVMe is a proper
    /// [`OomError`].
    fn nvme_bw(&self) -> f64 {
        match self.machine.node.nvme {
            Some((_, bw)) => bw,
            None => PHANTOM_NVME_BW_GBS,
        }
    }

    /// Record that a transfer was costed over the stand-in NVMe link:
    /// fires the `sim.phantom_link_hits` counter once per distinct
    /// `(src, dst)` route per `Sim` (until [`Sim::reset`]), so a sweep
    /// hammering one bogus route reports one hit, not millions.
    fn note_phantom_route(&self, src: Loc, dst: Loc) {
        let mut seen = self.phantom_routes.borrow_mut();
        if !seen.contains(&(src, dst)) {
            seen.push((src, dst));
            self.recorder.incr("sim.phantom_link_hits", 1.0);
        }
    }

    /// Distinct `(src, dst)` routes that have been costed over the
    /// [`PHANTOM_NVME_BW_GBS`] stand-in link because this machine
    /// declares no NVMe. Zero on healthy configurations.
    pub fn phantom_link_hits(&self) -> usize {
        self.phantom_routes.borrow().len()
    }

    /// The "link" a same-location copy uses: the local memory system. A
    /// copy reads *and* writes the same memory, so the achievable copy
    /// bandwidth is half the stream bandwidth (the classic
    /// `cudaMemcpyDeviceToDevice` figure); latency is one call / launch.
    fn local_link(&self, loc: Loc) -> LinkSpec {
        match loc {
            Loc::Host => LinkSpec {
                kind: LinkKind::Local,
                bw_gbs: 0.5 * self.machine.node.cpu.mem_bw_gbs,
                latency_us: 0.5,
            },
            Loc::Gpu(i) => {
                let gpu = &self.machine.node.gpus[i];
                LinkSpec {
                    kind: LinkKind::Local,
                    bw_gbs: 0.5 * gpu.mem_bw_gbs,
                    latency_us: gpu.launch_overhead_us,
                }
            }
            Loc::Nvme => LinkSpec {
                kind: LinkKind::Local,
                bw_gbs: 0.5 * self.nvme_bw(),
                latency_us: 80.0,
            },
            // A NIC has no memory of its own worth modelling; treat a
            // NIC-local move as a fabric bounce.
            Loc::Nic => LinkSpec {
                kind: LinkKind::Fabric,
                bw_gbs: self.machine.network.injection_bw_gbs,
                latency_us: self.machine.network.latency_us,
            },
        }
    }

    fn link_for(&self, src: Loc, dst: Loc, kind: TransferKind) -> LinkSpec {
        if (src == Loc::Nvme || dst == Loc::Nvme) && self.machine.node.nvme.is_none() {
            self.note_phantom_route(src, dst);
        }
        if kind == TransferKind::GpuDirect {
            // GPUDirect is an RDMA path between a NIC and device memory;
            // Host->Host GpuDirect (and friends) is a modelling bug.
            let gpu_nic = matches!(
                (src, dst),
                (Loc::Gpu(_), Loc::Nic) | (Loc::Nic, Loc::Gpu(_))
            );
            debug_assert!(
                gpu_nic,
                "GpuDirect only routes Gpu<->Nic pairs, got {src:?} -> {dst:?}"
            );
            if gpu_nic {
                // GPUDirect skips host staging, so its small-message
                // latency is low — but the RDMA read path of the era
                // sustained far less bandwidth than the pipelined staged
                // copy (§4.11's measured crossover).
                return LinkSpec {
                    kind: LinkKind::GpuDirect,
                    bw_gbs: 0.2 * self.machine.network.injection_bw_gbs,
                    latency_us: 2.0,
                };
            }
            // Release builds: fall through to the staged route.
        }
        // Same-location "transfers" (Host->Host, Gpu(i)->Gpu(i)) never
        // touch an interconnect: cost them at local memory bandwidth
        // rather than the host<->GPU fallthrough link.
        if src == dst {
            return self.local_link(src);
        }
        match (src, dst) {
            (Loc::Gpu(_), Loc::Gpu(_)) => self
                .machine
                .node
                .peer_link
                .clone()
                .unwrap_or_else(|| self.machine.host_gpu_link()),
            (Loc::Nvme, _) | (_, Loc::Nvme) => LinkSpec {
                kind: LinkKind::Pcie3,
                bw_gbs: self.nvme_bw(),
                latency_us: 80.0,
            },
            (Loc::Nic, _) | (_, Loc::Nic) => LinkSpec {
                kind: LinkKind::Fabric,
                bw_gbs: self.machine.network.injection_bw_gbs,
                latency_us: self.machine.network.latency_us,
            },
            _ => self.machine.host_gpu_link(),
        }
    }

    /// Time to move `bytes` from `src` to `dst` without advancing clocks.
    pub fn transfer_cost(&self, src: Loc, dst: Loc, bytes: f64, kind: TransferKind) -> f64 {
        let link = self.link_for(src, dst, kind);
        match kind {
            TransferKind::Unified => crate::unified::migration_time(&link, bytes),
            _ => link.transfer_time(bytes),
        }
    }

    /// Move `bytes`, advancing the default streams of both endpoints (and
    /// the copy engine on the route) to a common completion time — the
    /// blocking `cudaMemcpy` shape. Returns elapsed seconds.
    pub fn transfer(&mut self, src: Loc, dst: Loc, bytes: f64, kind: TransferKind) -> f64 {
        let dt = self.transfer_cost(src, dst, bytes, kind);
        let engine = Engine::for_route(src, dst);
        let a = self.slot(SimTrack::Stream(self.loc_stream(src)));
        let b = self.slot(SimTrack::Stream(self.loc_stream(dst)));
        let e = self.slot(SimTrack::Engine(engine));
        let start = self
            .clocks
            .time(a)
            .max(self.clocks.time(b))
            .max(self.clocks.time(e));
        let done = start + dt;
        for slot in [a, b, e] {
            self.clocks.set(slot, done);
        }
        self.account_transfer(src, dst, bytes, engine, e, start, done);
        dt
    }

    /// Queue a copy of `bytes` on `stream` without stalling any other
    /// stream — the `cudaMemcpyAsync` shape behind every §4 overlap lesson.
    ///
    /// Semantics (all on the simulated clock):
    ///
    /// * the copy starts once both the issuing `stream` has reached it
    ///   (stream order) *and* the copy engine on the route is free —
    ///   copies sharing one engine/link serialise at full bandwidth;
    /// * the engine and the issuing stream advance to the completion time
    ///   (later work queued on `stream` waits, exactly like CUDA stream
    ///   ordering), but the *other* endpoint's streams are untouched;
    /// * the returned [`Event`] marks completion; make dependents call
    ///   [`Sim::wait_event`] on it.
    pub fn transfer_async(
        &mut self,
        src: Loc,
        dst: Loc,
        bytes: f64,
        kind: TransferKind,
        stream: impl Into<StreamId>,
    ) -> Event {
        let stream = self.resolve_stream(stream.into());
        let dt = self.transfer_cost(src, dst, bytes, kind);
        let engine = Engine::for_route(src, dst);
        let s = self.slot(SimTrack::Stream(stream));
        let e = self.slot(SimTrack::Engine(engine));
        let start = self.clocks.time(s).max(self.clocks.time(e));
        let done = start + dt;
        self.clocks.set(s, done);
        self.clocks.set(e, done);
        self.account_transfer(src, dst, bytes, engine, e, start, done);
        Event { time: done }
    }

    /// Shared counter + span bookkeeping for both transfer shapes. Spans
    /// land on the track of `engine` (clock slot `slot`: `gpu0.h2d`,
    /// `gpu0.d2h`, `host.dma`), so `--timeline` shows copies overlapping
    /// kernels on distinct rows.
    fn account_transfer(
        &mut self,
        src: Loc,
        dst: Loc,
        bytes: f64,
        engine: Engine,
        slot: usize,
        start: f64,
        done: f64,
    ) {
        let Some(mut batch) = self.recorder.batch() else {
            return;
        };
        let metric = match (src, dst) {
            (Loc::Host, Loc::Gpu(_)) => "bytes_h2d",
            (Loc::Gpu(_), Loc::Host) => "bytes_d2h",
            (Loc::Gpu(_), Loc::Gpu(_)) => "bytes_d2d",
            (Loc::Nvme, _) | (_, Loc::Nvme) => "bytes_nvme",
            _ => "bytes_other",
        };
        let track = Self::track_sym(
            &mut self.track_syms,
            &mut batch,
            slot,
            SimTrack::Engine(engine),
        );
        let name = *self
            .xfer_syms
            .entry((src, dst, bytes.to_bits()))
            .or_insert_with(|| batch.intern(&format!("xfer {src:?}->{dst:?} ({bytes:.0} B)")));
        batch.record_span(name, SpanKind::Transfer, track, start, done);
        batch.incr(self.hot_syms.transfers, 1.0);
        batch.incr(metric, bytes);
    }

    fn loc_stream(&self, loc: Loc) -> StreamId {
        match loc {
            Loc::Gpu(id) => StreamId::default_for(Target::Gpu { id }),
            _ => StreamId::default_for(Target::Cpu {
                threads: self.machine.node.cpu.cores(),
            }),
        }
    }

    /// Current time of one stream.
    pub fn stream_time(&self, s: StreamId) -> f64 {
        self.time_of(SimTrack::Stream(s))
    }

    /// Busy-until time of one copy engine.
    pub fn engine_time(&self, e: Engine) -> f64 {
        self.time_of(SimTrack::Engine(e))
    }

    /// Current time of the default stream of `target`.
    pub fn time(&self, target: Target) -> f64 {
        self.stream_time(StreamId::default_for(self.resolve_threads(target)))
    }

    /// Wall clock: the max over all streams and copy engines (one
    /// frontier fold over the unified track bank).
    pub fn elapsed(&self) -> f64 {
        self.clocks.frontier()
    }

    /// Join all streams *and* copy-engine tracks at the current wall clock
    /// (device-synchronize: in-flight async copies complete too).
    pub fn sync_all(&mut self) -> f64 {
        let t = self.elapsed();
        self.clocks.join_all(t);
        t
    }

    /// Make `waiter` wait until `event` stream's current time (CUDA event
    /// wait on another stream's head).
    ///
    /// Both sides resolve their thread counts first (bugfix: a
    /// `Target::cpu_all()` key previously never matched the resolved key
    /// `launch` writes, so the wait was silently a no-op).
    pub fn wait(&mut self, waiter: StreamId, event: StreamId) {
        let waiter = self.resolve_stream(waiter);
        let event = self.resolve_stream(event);
        let t = self.stream_time(event);
        let w = self.slot(SimTrack::Stream(waiter));
        self.clocks.set(w, t.max(self.clocks.time(w)));
    }

    /// Record an [`Event`] at `stream`'s current head (CUDA
    /// `cudaEventRecord`): it completes when everything queued on `stream`
    /// so far has.
    pub fn record(&self, stream: impl Into<StreamId>) -> Event {
        let stream = self.resolve_stream(stream.into());
        Event {
            time: self.stream_time(stream),
        }
    }

    /// Make `waiter` wait until `event` completes (CUDA
    /// `cudaStreamWaitEvent`): its clock advances to the event time if it
    /// is behind, and is untouched otherwise.
    pub fn wait_event(&mut self, waiter: impl Into<StreamId>, event: Event) {
        let waiter = self.resolve_stream(waiter.into());
        let w = self.slot(SimTrack::Stream(waiter));
        self.clocks.set(w, self.clocks.time(w).max(event.time));
    }

    /// Advance the default stream of `target` by `dt` seconds (used by
    /// higher layers to charge abstraction overheads).
    pub fn advance(&mut self, target: Target, dt: f64) {
        self.advance_stream(StreamId::default_for(target), dt);
    }

    /// Advance one specific stream by `dt` seconds.
    pub fn advance_stream(&mut self, stream: impl Into<StreamId>, dt: f64) {
        let stream = self.resolve_stream(stream.into());
        let slot = self.slot(SimTrack::Stream(stream));
        self.clocks.set(slot, self.clocks.time(slot) + dt);
    }

    /// Reset all clocks and memory accounting, keeping the machine,
    /// recorder and OOM policy (interned track ids survive, per
    /// the `des` reset discipline) — and scrub this sim's `sim.*` /
    /// `mem.*` counters and gauges from the recorder, exactly as
    /// [`crate::Network::reset`] scrubs `net.*`. Before the scrub, a
    /// reused recorder leaked stale `mem.<loc>.high_water` gauges (and
    /// `sim.phantom_link_hits` counts) across sweep iterations.
    pub fn reset(&mut self) {
        self.clocks.reset_times();
        self.mem = MemTracker::for_machine(&self.machine, self.mem.policy());
        self.phantom_routes.borrow_mut().clear();
        self.recorder.remove_prefixed("sim.");
        self.recorder.remove_prefixed("mem.");
    }

    // --------------------------------------------- memory-capacity model

    /// Allocate `bytes` at `loc` under the current [`OomPolicy`],
    /// enforcing the machine's capacity specs (see [`crate::mem`]).
    ///
    /// Any migrations the decision implies (NVMe staging of LRU victims)
    /// are charged as blocking transfers: they occupy the copy engines on
    /// the route, contend with async copies, and appear as `Transfer`
    /// spans on the engine timeline tracks. Publishes `mem.<loc>.bytes`
    /// and `mem.<loc>.high_water` gauges when a recorder is attached.
    pub fn alloc(&mut self, loc: Loc, bytes: f64) -> Result<MemId, OomError> {
        let (id, _) = self.charge_planned(|mem, moves| mem.alloc(loc, bytes, moves))?;
        self.publish_mem();
        Ok(id)
    }

    /// Touch allocation `id` from its home location, faulting spilled
    /// bytes back in (page-granular LRU eviction per the policy). Returns
    /// the simulated seconds of migration traffic charged — zero when the
    /// data was already resident (the SAMRAI lesson: keep data on the
    /// device as long as possible).
    pub fn touch_mem(&mut self, id: MemId) -> Result<f64, OomError> {
        let ((), dt) = self.charge_planned(|mem, moves| mem.touch(id, moves))?;
        if dt > 0.0 {
            self.publish_mem();
        }
        Ok(dt)
    }

    /// Free allocation `id`, releasing its bytes at both its home and
    /// spill locations. Panics on double free (mirroring `portal::Pool`).
    pub fn free(&mut self, id: MemId) {
        self.mem.free(id);
        self.publish_mem();
    }

    /// Run one `mem` decision with the reused migration buffer, then
    /// charge the migrations it planned as blocking transfers. Returns the
    /// decision's value and the summed transfer seconds; an error charges
    /// nothing.
    fn charge_planned<T>(
        &mut self,
        plan: impl FnOnce(&mut MemTracker, &mut Vec<Migration>) -> Result<T, OomError>,
    ) -> Result<(T, f64), OomError> {
        let mut moves = std::mem::take(&mut self.moves);
        moves.clear();
        let planned = plan(&mut self.mem, &mut moves).map(|value| {
            let dt = moves
                .iter()
                .map(|m| self.transfer(m.src, m.dst, m.bytes, m.kind))
                .sum();
            (value, dt)
        });
        self.moves = moves;
        planned
    }

    /// Publish `mem.<loc>.bytes` / `mem.<loc>.high_water` gauges for every
    /// tracked location, under one recorder lock.
    fn publish_mem(&mut self) {
        let Some(mut batch) = self.recorder.batch() else {
            return;
        };
        for &loc in self.mem.locs() {
            let (bytes, high_water) = Self::mem_gauge_syms(&mut self.mem_syms, &mut batch, loc);
            batch.gauge(bytes, self.mem.in_use(loc));
            batch.gauge(high_water, self.mem.high_water(loc));
        }
    }

    /// The gauge symbols of `loc`, formatted and interned through `batch`
    /// only the first time `loc` is published to the attached recorder.
    fn mem_gauge_syms(
        mem_syms: &mut Vec<(Loc, Sym, Sym)>,
        batch: &mut Batch<'_>,
        loc: Loc,
    ) -> (Sym, Sym) {
        if let Some(&(_, bytes, high_water)) = mem_syms.iter().find(|e| e.0 == loc) {
            return (bytes, high_water);
        }
        let label = loc.label();
        let bytes = batch.intern(&format!("mem.{label}.bytes"));
        let high_water = batch.intern(&format!("mem.{label}.high_water"));
        mem_syms.push((loc, bytes, high_water));
        (bytes, high_water)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;

    fn sim() -> Sim {
        Sim::new(machines::sierra_node())
    }

    #[test]
    fn launch_advances_only_target_stream() {
        let mut s = sim();
        let k = KernelProfile::new("k").flops(1e9);
        s.launch(Target::gpu(0), &k);
        assert!(s.time(Target::gpu(0)) > 0.0);
        assert_eq!(s.time(Target::gpu(1)), 0.0);
        assert_eq!(s.time(Target::cpu_all()), 0.0);
    }

    #[test]
    fn transfer_joins_both_endpoints() {
        let rec = Recorder::enabled();
        let mut s = sim().with_recorder(rec.clone());
        let dt = s.transfer(Loc::Host, Loc::Gpu(0), 1e9, TransferKind::Memcpy);
        assert!(dt > 0.0);
        assert!((s.time(Target::gpu(0)) - s.time(Target::cpu_all())).abs() < 1e-15);
        assert_eq!(rec.counter("bytes_h2d"), 1e9);
    }

    #[test]
    fn streams_overlap_and_sync_joins() {
        let mut s = sim();
        let k = KernelProfile::new("k").bytes_read(1e9);
        let s0 = StreamId {
            target: Target::gpu(0),
            index: 0,
        };
        let s1 = StreamId {
            target: Target::gpu(0),
            index: 1,
        };
        let a = s.launch_on(s0, &k);
        let b = s.launch_on(s1, &k);
        // Overlapped: wall clock is max, not sum.
        assert!((s.elapsed() - a.max(b)).abs() < 1e-12);
        s.sync_all();
        assert_eq!(s.stream_time(s0), s.stream_time(s1));
    }

    #[test]
    fn gpudirect_wins_small_device_to_nic_messages() {
        // §4.11: staged copies overtake GPUDirect beyond a few hundred bytes
        // (D->H) / few KB (H->D); below that GPUDirect's low setup latency
        // wins.
        let s = sim();
        let small = 256.0;
        let direct = s.transfer_cost(Loc::Gpu(0), Loc::Nic, small, TransferKind::GpuDirect);
        let staged = s.transfer_cost(Loc::Gpu(0), Loc::Host, small, TransferKind::Memcpy)
            + s.transfer_cost(Loc::Host, Loc::Nic, small, TransferKind::Memcpy);
        assert!(direct < staged);
    }

    #[test]
    fn staged_copy_wins_large_messages() {
        let s = sim();
        let big = 16.0 * 1024.0 * 1024.0;
        let direct = s.transfer_cost(Loc::Gpu(0), Loc::Nic, big, TransferKind::GpuDirect);
        let staged = s.transfer_cost(Loc::Gpu(0), Loc::Host, big, TransferKind::Memcpy);
        // NVLink (68 GB/s) beats the NIC (25 GB/s) once bandwidth dominates.
        assert!(staged < direct);
    }

    #[test]
    fn wait_orders_streams() {
        let mut s = sim();
        let k = KernelProfile::new("k").flops(1e10);
        let gpu = StreamId::default_for(Target::gpu(0));
        let cpu = StreamId::default_for(Target::cpu(44));
        s.launch_on(gpu, &k);
        s.wait(cpu, gpu);
        assert!((s.stream_time(cpu) - s.stream_time(gpu)).abs() < 1e-15);
    }

    #[test]
    fn recorder_sees_launches_and_transfers() {
        use crate::obs::{Recorder, SpanKind};
        let rec = Recorder::enabled();
        let mut s = sim().with_recorder(rec.clone());
        let k = KernelProfile::new("axpy").flops(2e9).bytes_read(1e9);
        let dt = s.launch(Target::gpu(0), &k);
        s.transfer(Loc::Host, Loc::Gpu(0), 1e6, TransferKind::Memcpy);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "axpy");
        assert_eq!(spans[0].kind, SpanKind::Kernel);
        assert_eq!(spans[0].track, "gpu0.s0");
        assert!((spans[0].end - spans[0].start - dt).abs() < 1e-15);
        assert_eq!(spans[1].kind, SpanKind::Transfer);
        assert_eq!(rec.counter("launches"), 1.0);
        assert_eq!(rec.counter("flops"), 2e9);
        assert_eq!(rec.counter("bytes_h2d"), 1e6);
    }

    #[test]
    fn target_converts_to_stream_and_loc() {
        let mut s = sim();
        let k = KernelProfile::new("k").flops(1e9);
        // `launch_on` accepts a bare Target via Into<StreamId>.
        s.launch_on(Target::gpu(1), &k);
        assert!(s.time(Target::gpu(1)) > 0.0);
        assert_eq!(StreamId::from(Target::gpu(2)).index, 0);
        assert_eq!(Loc::from(Target::gpu(3)), Loc::Gpu(3));
        assert_eq!(Loc::from(Target::cpu(4)), Loc::Host);
        assert_eq!(StreamId::default_for(Target::gpu(0)).label(), "gpu0.s0");
        assert_eq!(
            StreamId {
                target: Target::cpu(8),
                index: 2
            }
            .label(),
            "cpu.s2"
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut s = sim();
        s.launch(Target::gpu(0), &KernelProfile::new("k").flops(1e9));
        s.transfer_async(
            Loc::Host,
            Loc::Gpu(0),
            1e6,
            TransferKind::Memcpy,
            Target::cpu_all(),
        );
        s.alloc(Loc::Gpu(0), 1e9).expect("fits");
        s.reset();
        assert_eq!(s.elapsed(), 0.0);
        assert_eq!(s.engine_time(Engine::H2d(0)), 0.0);
        assert_eq!(s.mem().in_use(Loc::Gpu(0)), 0.0);
        assert_eq!(s.mem().high_water(Loc::Gpu(0)), 0.0);
        assert_eq!(s.mem().live_regions(), 0);
    }

    #[test]
    fn clocks_intern_once() {
        let mut s = sim();
        let (s0, s1) = (
            StreamId::default_for(Target::gpu(0)),
            StreamId {
                target: Target::gpu(0),
                index: 1,
            },
        );
        s.advance_stream(s0, 1.0);
        s.advance_stream(s0, 3.0);
        s.transfer_async(Loc::Host, Loc::Gpu(0), 1e6, TransferKind::Memcpy, s0);
        assert_eq!(
            s.slots.len(),
            2,
            "one slot per clock, however often touched"
        );
        assert!(s.stream_time(s0) > 4.0);
        // An unknown clock reads idle without being registered.
        assert_eq!(s.stream_time(s1), 0.0);
        assert_eq!(s.engine_time(Engine::D2h(0)), 0.0);
        assert_eq!(s.slots.len(), 2);
        // Reset zeroes the clocks but keeps every slot.
        let slots = s.slots.clone();
        s.reset();
        assert_eq!(s.stream_time(s0), 0.0);
        assert_eq!(s.slots, slots);
        assert_eq!(s.clocks.len(), 2);
    }

    // ------------------------------------------------- copy-engine model

    #[test]
    fn async_transfer_does_not_stall_other_streams() {
        let rec = Recorder::enabled();
        let mut s = sim().with_recorder(rec.clone());
        let copy_q = StreamId {
            target: Target::cpu_all(),
            index: 1,
        };
        let ev = s.transfer_async(Loc::Host, Loc::Gpu(0), 1e9, TransferKind::Memcpy, copy_q);
        assert!(ev.time > 0.0);
        // Neither default stream moved; only the issuing queue + engine.
        assert_eq!(s.time(Target::gpu(0)), 0.0);
        assert_eq!(s.time(Target::cpu_all()), 0.0);
        assert_eq!(
            s.stream_time(StreamId {
                target: Target::cpu(44),
                index: 1
            }),
            ev.time
        );
        assert_eq!(s.engine_time(Engine::H2d(0)), ev.time);
        assert_eq!(rec.counter("bytes_h2d"), 1e9);
    }

    #[test]
    fn async_copy_overlaps_compute_on_the_default_stream() {
        let bytes = 64.0 * 1024.0 * 1024.0;
        let k = KernelProfile::new("k").flops(1e10).parallelism(1e7);
        // Serial: copy joins both default streams, then the kernel runs.
        let mut serial = sim();
        serial.transfer(Loc::Host, Loc::Gpu(0), bytes, TransferKind::Memcpy);
        serial.launch(Target::gpu(0), &k);
        // Overlapped: the copy rides the H2D engine while the kernel runs.
        let mut ovl = sim();
        let copy_q = StreamId {
            target: Target::gpu(0),
            index: 1,
        };
        let ev = ovl.transfer_async(Loc::Host, Loc::Gpu(0), bytes, TransferKind::Memcpy, copy_q);
        ovl.launch(Target::gpu(0), &k);
        ovl.wait_event(StreamId::default_for(Target::gpu(0)), ev);
        assert!(
            ovl.elapsed() < serial.elapsed(),
            "overlap {} >= serial {}",
            ovl.elapsed(),
            serial.elapsed()
        );
        // The gain is bounded by the shorter phase.
        let t_x = ovl.transfer_cost(Loc::Host, Loc::Gpu(0), bytes, TransferKind::Memcpy);
        let t_k = ovl.cost(Target::gpu(0), &k);
        assert!(serial.elapsed() - ovl.elapsed() <= t_x.min(t_k) + 1e-12);
    }

    #[test]
    fn same_direction_copies_serialize_on_one_engine() {
        let mut s = sim();
        let bytes = 1e8;
        let q1 = StreamId {
            target: Target::gpu(0),
            index: 1,
        };
        let q2 = StreamId {
            target: Target::gpu(0),
            index: 2,
        };
        let dt = s.transfer_cost(Loc::Host, Loc::Gpu(0), bytes, TransferKind::Memcpy);
        let e1 = s.transfer_async(Loc::Host, Loc::Gpu(0), bytes, TransferKind::Memcpy, q1);
        let e2 = s.transfer_async(Loc::Host, Loc::Gpu(0), bytes, TransferKind::Memcpy, q2);
        // Distinct issuing streams, same engine: FIFO at full bandwidth.
        assert!((e1.time - dt).abs() < 1e-12);
        assert!((e2.time - 2.0 * dt).abs() < 1e-12);
    }

    #[test]
    fn opposite_directions_ride_separate_engines() {
        let rec = Recorder::enabled();
        let mut s = sim().with_recorder(rec.clone());
        let bytes = 1e8;
        let up = StreamId {
            target: Target::gpu(0),
            index: 1,
        };
        let down = StreamId {
            target: Target::gpu(0),
            index: 2,
        };
        let e1 = s.transfer_async(Loc::Host, Loc::Gpu(0), bytes, TransferKind::Memcpy, up);
        let e2 = s.transfer_async(Loc::Gpu(0), Loc::Host, bytes, TransferKind::Memcpy, down);
        // Full-duplex NVLink: both complete in one copy time.
        assert!((e1.time - e2.time).abs() < 1e-12);
        assert_eq!(rec.counter("bytes_h2d"), bytes);
        assert_eq!(rec.counter("bytes_d2h"), bytes);
    }

    #[test]
    fn sync_transfers_contend_with_async_copies_for_the_engine() {
        let mut s = sim();
        let bytes = 1e9;
        let q = StreamId {
            target: Target::gpu(0),
            index: 1,
        };
        let ev = s.transfer_async(Loc::Host, Loc::Gpu(0), bytes, TransferKind::Memcpy, q);
        // A blocking memcpy on the same engine queues behind the async one.
        let dt = s.transfer(Loc::Host, Loc::Gpu(0), bytes, TransferKind::Memcpy);
        assert!((s.time(Target::gpu(0)) - (ev.time + dt)).abs() < 1e-12);
    }

    #[test]
    fn record_and_wait_event_order_streams() {
        let mut s = sim();
        let k = KernelProfile::new("k").flops(1e10);
        let compute = StreamId {
            target: Target::gpu(0),
            index: 1,
        };
        s.launch_on(compute, &k);
        let ev = s.record(compute);
        assert_eq!(ev.time, s.stream_time(compute));
        let other = StreamId {
            target: Target::gpu(0),
            index: 2,
        };
        s.wait_event(other, ev);
        assert_eq!(s.stream_time(other), ev.time);
        // Waiting on an already-past event is a no-op.
        s.wait_event(other, Event::at(0.0));
        assert_eq!(s.stream_time(other), ev.time);
    }

    #[test]
    fn sync_all_joins_copy_engines_too() {
        let mut s = sim();
        let q = StreamId {
            target: Target::gpu(0),
            index: 1,
        };
        let ev = s.transfer_async(Loc::Host, Loc::Gpu(0), 2e9, TransferKind::Memcpy, q);
        let t = s.sync_all();
        assert!((t - ev.time).abs() < 1e-15);
        assert_eq!(s.engine_time(Engine::H2d(0)), t);
        assert_eq!(s.stream_time(q), t, "sync joins the issuing queue too");
    }

    #[test]
    fn engine_labels_and_routes() {
        assert_eq!(Engine::for_route(Loc::Host, Loc::Gpu(2)), Engine::H2d(2));
        assert_eq!(Engine::for_route(Loc::Gpu(1), Loc::Host), Engine::D2h(1));
        assert_eq!(Engine::for_route(Loc::Gpu(0), Loc::Gpu(3)), Engine::D2h(0));
        assert_eq!(Engine::for_route(Loc::Nic, Loc::Gpu(0)), Engine::H2d(0));
        assert_eq!(Engine::for_route(Loc::Host, Loc::Nvme), Engine::HostDma);
        assert_eq!(Engine::H2d(0).label(), "gpu0.h2d");
        assert_eq!(Engine::D2h(1).label(), "gpu1.d2h");
        assert_eq!(Engine::HostDma.label(), "host.dma");
    }

    #[test]
    fn async_spans_land_on_engine_tracks() {
        use crate::obs::Recorder;
        let rec = Recorder::enabled();
        let mut s = sim().with_recorder(rec.clone());
        let q = StreamId {
            target: Target::gpu(0),
            index: 1,
        };
        s.transfer_async(Loc::Host, Loc::Gpu(0), 1e6, TransferKind::Memcpy, q);
        s.transfer_async(Loc::Gpu(0), Loc::Host, 1e6, TransferKind::Memcpy, q);
        let spans = rec.spans();
        assert_eq!(spans[0].track, "gpu0.h2d");
        assert_eq!(spans[1].track, "gpu0.d2h");
        assert_eq!(rec.counter("transfers"), 2.0);
    }

    // ------------------------------------- same-location / GpuDirect fixes

    #[test]
    fn same_location_copies_cost_memory_bandwidth_not_the_link() {
        let s = sim();
        let bytes = 1e9;
        // Host->Host runs at half DDR stream bandwidth (read + write)...
        let h2h = s.transfer_cost(Loc::Host, Loc::Host, bytes, TransferKind::Memcpy);
        let ddr_copy = bytes / (0.5 * s.machine().node.cpu.mem_bw_gbs * 1e9);
        assert!(
            (h2h - ddr_copy).abs() / ddr_copy < 0.01,
            "h2h {h2h} vs {ddr_copy}"
        );
        // ...which beats a bounce over the 68 GB/s NVLink.
        let link = s.transfer_cost(Loc::Host, Loc::Gpu(0), bytes, TransferKind::Memcpy);
        assert!(h2h < link);
        // Gpu(i)->Gpu(i) runs at half HBM bandwidth, far above the peer link.
        let d2d_local = s.transfer_cost(Loc::Gpu(0), Loc::Gpu(0), bytes, TransferKind::Memcpy);
        let d2d_peer = s.transfer_cost(Loc::Gpu(0), Loc::Gpu(1), bytes, TransferKind::Memcpy);
        let hbm_copy = bytes / (0.5 * 900.0 * 1e9);
        assert!((d2d_local - hbm_copy).abs() / hbm_copy < 0.01);
        assert!(d2d_local < d2d_peer, "local {d2d_local} vs peer {d2d_peer}");
    }

    #[test]
    fn same_location_copy_occupies_a_single_engine() {
        let mut s = sim();
        let dt = s.transfer(Loc::Gpu(0), Loc::Gpu(0), 1e9, TransferKind::Memcpy);
        assert!((s.engine_time(Engine::D2h(0)) - dt).abs() < 1e-15);
        assert_eq!(s.engine_time(Engine::H2d(0)), 0.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "GpuDirect only routes Gpu<->Nic")]
    fn gpudirect_between_host_and_host_is_rejected() {
        let s = sim();
        s.transfer_cost(Loc::Host, Loc::Host, 1e6, TransferKind::GpuDirect);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "GpuDirect only routes Gpu<->Nic")]
    fn gpudirect_between_host_and_gpu_is_rejected() {
        let s = sim();
        s.transfer_cost(Loc::Host, Loc::Gpu(0), 1e6, TransferKind::GpuDirect);
    }

    // ------------------------------------------------ clock/route bugfixes

    #[test]
    fn wait_resolves_cpu_all_stream_keys() {
        // Regression: `wait` did not resolve_threads either side, so a
        // `Target::cpu_all()` waiter (threads = usize::MAX) wrote a stream
        // key that `launch`/`time` (which resolve to the core count) never
        // read — the wait was silently a no-op.
        let mut s = sim();
        let k = KernelProfile::new("k").flops(1e10);
        let gpu = StreamId::default_for(Target::gpu(0));
        s.launch_on(gpu, &k);
        let waiter = StreamId::default_for(Target::cpu_all());
        s.wait(waiter, gpu);
        assert!(s.time(Target::cpu_all()) > 0.0, "wait was a no-op");
        assert!((s.time(Target::cpu_all()) - s.stream_time(gpu)).abs() < 1e-15);
        // And the event side resolves too: waiting *on* a cpu_all stream
        // that was advanced through the resolved key still observes it.
        let mut s = sim();
        s.launch(Target::cpu_all(), &k);
        let gpu_q = StreamId::default_for(Target::gpu(1));
        s.wait(gpu_q, StreamId::default_for(Target::cpu_all()));
        assert!((s.stream_time(gpu_q) - s.time(Target::cpu_all())).abs() < 1e-15);
    }

    #[test]
    fn phantom_nvme_route_fires_the_counter_once_per_route() {
        // Regression: machines with `node.nvme = None` silently routed
        // NVMe transfers over a phantom 0.5 GB/s link; later the
        // debug_assert fix made debug and release sweeps diverge. Both
        // profiles now take the documented stand-in and surface it as
        // `sim.phantom_link_hits` — once per distinct route, however
        // often the route is costed.
        let rec = crate::obs::Recorder::enabled();
        let s = Sim::new(machines::ea_minsky()).with_recorder(rec.clone());
        assert_eq!(s.phantom_link_hits(), 0);
        let dt = s.transfer_cost(Loc::Host, Loc::Nvme, 1e9, TransferKind::Memcpy);
        assert!(
            (dt - 1.0 / PHANTOM_NVME_BW_GBS).abs() < 0.01,
            "stand-in bandwidth used: {dt}"
        );
        s.transfer_cost(Loc::Host, Loc::Nvme, 2e9, TransferKind::Memcpy);
        s.transfer_cost(Loc::Host, Loc::Nvme, 4e9, TransferKind::Memcpy);
        assert_eq!(s.phantom_link_hits(), 1, "one route, one hit");
        assert_eq!(rec.counter("sim.phantom_link_hits"), 1.0);
        // A second offending route (the local-copy case that also used to
        // panic debug builds) fires exactly once more.
        s.transfer_cost(Loc::Nvme, Loc::Nvme, 1e9, TransferKind::Memcpy);
        s.transfer_cost(Loc::Nvme, Loc::Nvme, 1e9, TransferKind::Memcpy);
        assert_eq!(s.phantom_link_hits(), 2);
        assert_eq!(rec.counter("sim.phantom_link_hits"), 2.0);
    }

    #[test]
    fn declared_nvme_never_counts_phantom_hits() {
        // sierra declares a real NVMe: no phantom route, no counter.
        let rec = crate::obs::Recorder::enabled();
        let s = sim().with_recorder(rec.clone());
        s.transfer_cost(Loc::Host, Loc::Nvme, 1e9, TransferKind::Memcpy);
        s.transfer_cost(Loc::Nvme, Loc::Nvme, 1e9, TransferKind::Memcpy);
        assert_eq!(s.phantom_link_hits(), 0);
        assert_eq!(rec.counter("sim.phantom_link_hits"), 0.0);
    }

    #[test]
    fn reset_clears_phantom_route_memory() {
        let mut s = Sim::new(machines::ea_minsky());
        s.transfer_cost(Loc::Host, Loc::Nvme, 1e9, TransferKind::Memcpy);
        assert_eq!(s.phantom_link_hits(), 1);
        s.reset();
        assert_eq!(s.phantom_link_hits(), 0);
    }

    #[test]
    fn reset_scrubs_sim_and_mem_metrics_from_the_recorder() {
        // Regression: `reset()` cleared clocks, counters, and phantom
        // routes but left `sim.*` counters and `mem.<loc>.*` gauges in an
        // attached recorder — unlike `Network::reset`, which scrubs
        // `net.*`. A sweep reusing one recorder leaked iteration 1's
        // high-water marks into every later document.
        let rec = crate::obs::Recorder::enabled();
        let mut s = Sim::new(machines::ea_minsky()).with_recorder(rec.clone());
        s.transfer_cost(Loc::Host, Loc::Nvme, 1e9, TransferKind::Memcpy);
        s.alloc(Loc::Gpu(0), 1e9).expect("fits");
        assert_eq!(rec.counter("sim.phantom_link_hits"), 1.0);
        assert!(rec.gauge_value("mem.gpu0.high_water").is_some());
        // An unrelated namespace must survive the scrub.
        rec.gauge("net.unrelated", 7.0);
        s.reset();
        assert_eq!(
            rec.counter("sim.phantom_link_hits"),
            0.0,
            "sim.* counters scrubbed"
        );
        assert_eq!(
            rec.gauge_value("mem.gpu0.high_water"),
            None,
            "mem.* gauges scrubbed"
        );
        assert_eq!(
            rec.gauge_value("mem.gpu0.bytes"),
            None,
            "mem.* usage gauges scrubbed"
        );
        assert_eq!(rec.gauge_value("net.unrelated"), Some(7.0));
    }

    #[test]
    fn mem_gauges_follow_a_newly_attached_recorder() {
        // The interned gauge names are per recorder: after a swap, the
        // gauges must land in the new recorder under their names.
        let first = crate::obs::Recorder::enabled();
        let mut s = sim().with_recorder(first.clone());
        let a = s.alloc(Loc::Gpu(0), 1e9).expect("fits");
        let second = crate::obs::Recorder::enabled();
        second.gauge("net.unrelated", 7.0); // shift the new symbol ids
        s.set_recorder(second.clone());
        s.alloc(Loc::Gpu(0), 2e9).expect("fits");
        assert_eq!(second.gauge_value("mem.gpu0.bytes"), Some(3e9));
        assert_eq!(second.gauge_value("mem.gpu0.high_water"), Some(3e9));
        assert_eq!(second.gauge_value("net.unrelated"), Some(7.0));
        s.free(a);
        assert_eq!(second.gauge_value("mem.gpu0.bytes"), Some(2e9));
        assert_eq!(first.gauge_value("mem.gpu0.bytes"), Some(1e9));
    }

    #[test]
    fn label_key_sorts_like_the_label() {
        let mut by_key = [
            Loc::Nvme,
            Loc::Gpu(10),
            Loc::Host,
            Loc::Gpu(2),
            Loc::Nic,
            Loc::Gpu(usize::MAX),
            Loc::Gpu(0),
        ];
        let mut by_label = by_key;
        by_key.sort_by_key(Loc::label_key);
        by_label.sort_by_key(Loc::label);
        assert_eq!(by_key, by_label);
    }

    #[test]
    fn nvme_transfer_uses_the_declared_bandwidth() {
        // sierra declares (1600 GiB, 2.0 GB/s): 1 GB takes ~0.5 s.
        let s = sim();
        let dt = s.transfer_cost(Loc::Host, Loc::Nvme, 1e9, TransferKind::Memcpy);
        assert!((dt - 0.5).abs() / 0.5 < 0.01, "dt {dt}");
    }

    // ------------------------------------------- memory-capacity accounting

    #[test]
    fn fail_policy_alloc_errors_instead_of_silently_fitting() {
        use crate::GIB;
        let mut s = sim(); // OomPolicy::Fail by default
        let a = s.alloc(Loc::Gpu(0), 12.0 * GIB).expect("fits");
        let err = s.alloc(Loc::Gpu(0), 12.0 * GIB).unwrap_err();
        assert_eq!(err.loc, Loc::Gpu(0));
        assert_eq!(s.mem().in_use(Loc::Gpu(0)), 12.0 * GIB);
        s.free(a);
        assert_eq!(s.mem().in_use(Loc::Gpu(0)), 0.0);
        assert_eq!(s.mem().high_water(Loc::Gpu(0)), 12.0 * GIB);
        // A failed alloc never advanced any clock.
        assert_eq!(s.elapsed(), 0.0);
    }

    #[test]
    fn unified_spill_faults_ride_the_copy_engines_and_publish_gauges() {
        use crate::mem::OomPolicy;
        use crate::obs::Recorder;
        use crate::GIB;
        let rec = Recorder::enabled();
        let mut s = sim()
            .with_recorder(rec.clone())
            .with_oom_policy(OomPolicy::UnifiedSpill);
        let a = s.alloc(Loc::Gpu(0), 10.0 * GIB).unwrap();
        let b = s.alloc(Loc::Gpu(0), 10.0 * GIB).unwrap();
        let t_a = s.touch_mem(a).unwrap();
        assert!(t_a > 0.0, "first touch faults 10 GiB in");
        let t_b = s.touch_mem(b).unwrap();
        assert!(t_b > t_a, "b pays its fault-in plus a's eviction");
        // Eviction traffic occupied gpu0.d2h; faults occupied gpu0.h2d.
        assert!(s.engine_time(Engine::H2d(0)) > 0.0);
        assert!(s.engine_time(Engine::D2h(0)) > 0.0);
        let spans = rec.spans();
        assert!(spans.iter().any(|sp| sp.track == "gpu0.h2d"));
        assert!(spans.iter().any(|sp| sp.track == "gpu0.d2h"));
        // Gauges track residency and the (monotone) high water.
        let bytes = rec.gauge_value("mem.gpu0.bytes").unwrap();
        assert!(bytes <= 16.0 * GIB + 1.0, "resident {bytes}");
        let hw = rec.gauge_value("mem.gpu0.high_water").unwrap();
        assert!(hw <= 16.0 * GIB + 1.0 && hw > 0.0);
        // Resident re-touch is free: no new spans, no clock motion.
        let before = s.elapsed();
        assert_eq!(s.touch_mem(b).unwrap(), 0.0);
        assert_eq!(s.elapsed(), before);
    }

    #[test]
    fn um_faults_queue_behind_async_copies_and_block_both_streams() {
        // A fault-in charged by `touch_mem` is a blocking `Unified`
        // transfer: it waits FIFO behind an async copy on gpu0.h2d, costs
        // exactly the `Unified` route, and joins both default streams.
        use crate::mem::OomPolicy;
        let mut s = sim().with_oom_policy(OomPolicy::UnifiedSpill);
        let q = StreamId {
            target: Target::gpu(0),
            index: 1,
        };
        let ev = s.transfer_async(Loc::Host, Loc::Gpu(0), 1e9, TransferKind::Memcpy, q);
        let id = s.alloc(Loc::Gpu(0), 64e6).unwrap();
        let dt = s.touch_mem(id).unwrap();
        let um = s.transfer_cost(Loc::Host, Loc::Gpu(0), 64e6, TransferKind::Unified);
        assert_eq!(dt, um);
        assert!((s.engine_time(Engine::H2d(0)) - (ev.time + dt)).abs() < 1e-12);
        assert_eq!(s.time(Target::gpu(0)), s.engine_time(Engine::H2d(0)));
        assert_eq!(s.time(Target::cpu_all()), s.time(Target::gpu(0)));
    }

    #[test]
    fn nvme_spill_stages_over_the_nvme_link() {
        use crate::mem::OomPolicy;
        use crate::GIB;
        let rec = Recorder::enabled();
        let mut s = sim()
            .with_recorder(rec.clone())
            .with_oom_policy(OomPolicy::NvmeSpill);
        let _a = s.alloc(Loc::Gpu(0), 12.0 * GIB).unwrap();
        let _b = s.alloc(Loc::Gpu(0), 12.0 * GIB).unwrap();
        // 8 GiB staged out to NVMe at alloc time, counted and charged.
        assert!(rec.counter("bytes_nvme") >= 8.0 * GIB);
        assert!(s.elapsed() > 0.0);
        assert!(s.mem().in_use(Loc::Gpu(0)) <= 16.0 * GIB + 1.0);
    }
}
