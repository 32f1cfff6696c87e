//! Structured tracing + metrics — the observability layer.
//!
//! The paper's §4.10.6 tools story (hardware-counter access, Performance
//! Co-Pilot, "finally being able to *see* where node time goes") is
//! reproduced here as a first-class subsystem:
//!
//! * **hierarchical spans** — experiment → phase → kernel/transfer, each
//!   with a parent id, a track (stream label, `dma`, `wall`) and a start /
//!   end timestamp (simulated seconds for device work, wall seconds for
//!   harness scopes);
//! * **a metrics registry** — monotonic counters (flops, bytes moved,
//!   launches, collective volume) and gauges (pool hit-rate, bytes live);
//! * **pluggable sinks** — a human ASCII timeline
//!   ([`Recorder::render_timeline`]), JSON-lines ([`Recorder::to_jsonl`]),
//!   and a `BENCH_<exp>.json` summary writer
//!   ([`Recorder::write_bench_summary`]).
//!
//! Everything hangs off a [`Recorder`] handle. A recorder is either
//! **enabled** (an `Arc<Mutex<_>>` of shared state — clones observe the
//! same stream, so it can be threaded through `Sim`, `Executor`, `Pool`
//! and worker threads alike) or a **no-op** ([`Recorder::noop`]): a bare
//! `None` whose every method is an inlined early-return, so instrumented
//! hot paths cost one branch when observability is off.
//!
//! ## Hot-path storage: interned symbols, not `String`s
//!
//! `Sim::launch_on` records one span and three counters per kernel; a
//! sweep experiment issues hundreds of thousands of those. Storing a
//! fresh `String` name + `String` track per span (and `BTreeMap<String,
//! f64>` metric keys) made allocation the dominant recorder cost. The
//! state therefore interns every name into a per-recorder symbol table
//! ([`Sym`], a `u32` index): spans store two `u32`s, counters and gauges
//! live in plain `Vec<Option<f64>>` slots indexed by symbol, and a name
//! allocates exactly once — the first time the recorder sees it. Sorted
//! views (`counters()`, `to_jsonl()`, `summary_json()`, `hot_list()`,
//! `render_timeline()`) materialise lazily from a cached name-sorted
//! symbol index, and render **byte-identical** output to the historical
//! `BTreeMap`-backed implementation (pinned by regression tests).
//!
//! Every entry point that takes a name ([`Recorder::record_span`],
//! [`Recorder::incr`], [`Recorder::gauge`], [`Recorder::begin`]) accepts
//! any [`Name`]: a string, interned under the same lock acquisition that
//! records the event, or a [`Sym`] pre-interned once with
//! [`Recorder::intern`], which skips even the hash lookup. A caller with
//! several writes to make (a launch's span and counters) takes the lock
//! once with [`Recorder::batch`], whose [`Batch`] has the same writes.
//!
//! ```
//! use hetsim::obs::{Recorder, SpanKind};
//!
//! let rec = Recorder::enabled();
//! let root = rec.begin("experiment", SpanKind::Experiment);
//! rec.record_span("axpy", SpanKind::Kernel, "gpu0.s0", 0.0, 1e-3);
//! rec.incr("flops", 2.0e9);
//! rec.end(root);
//! assert_eq!(rec.spans().len(), 2);
//! assert_eq!(rec.counter("flops"), 2.0e9);
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::fast_hash::FastMap;

pub mod json;

/// What a span measures; drives rendering and summary grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A whole `experiments <id>` run (wall clock).
    Experiment,
    /// A named phase inside an experiment or solver (either clock).
    Phase,
    /// One kernel launch (simulated seconds).
    Kernel,
    /// One host<->device / NVMe / NIC transfer (simulated seconds).
    Transfer,
    /// A network collective (simulated seconds).
    Collective,
    /// Anything else.
    Other,
}

impl SpanKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::Experiment => "experiment",
            SpanKind::Phase => "phase",
            SpanKind::Kernel => "kernel",
            SpanKind::Transfer => "transfer",
            SpanKind::Collective => "collective",
            SpanKind::Other => "other",
        }
    }
}

/// An interned name: a cheap, `Copy` index into one recorder's symbol
/// table.
///
/// Symbols are **per recorder** — a `Sym` obtained from one enabled
/// recorder is meaningless on another. [`Recorder::intern`] on a disabled
/// recorder returns the inert [`Sym::NOOP`], which every entry point
/// ignores, so hot paths can cache symbols unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The inert symbol handed out by disabled recorders.
    pub const NOOP: Sym = Sym(u32::MAX);

    #[inline]
    fn is_noop(self) -> bool {
        self.0 == u32::MAX
    }
}

/// A span, track or metric name as the recorder's entry points take it:
/// any string (`&str`, `String`, `&String`), interned on the call, or a
/// [`Sym`] pre-interned with [`Recorder::intern`]. Sealed: those two
/// forms are the whole contract.
pub trait Name: sealed::Sealed {}

impl<T: sealed::Sealed> Name for T {}

mod sealed {
    use super::Sym;

    /// How a [`super::Name`] reaches the symbol table.
    pub enum Key<'a> {
        Str(&'a str),
        Sym(Sym),
    }

    pub trait Sealed {
        fn key(&self) -> Key<'_>;
    }

    impl<T: AsRef<str>> Sealed for T {
        #[inline]
        fn key(&self) -> Key<'_> {
            Key::Str(self.as_ref())
        }
    }

    impl Sealed for Sym {
        #[inline]
        fn key(&self) -> Key<'_> {
            Key::Sym(*self)
        }
    }
}

/// Per-recorder string interner: name → dense `u32`, alloc-once.
#[derive(Debug)]
struct Interner {
    /// Symbol id → name.
    names: Vec<String>,
    /// Name → symbol id (the only per-new-name allocation site).
    lookup: FastMap<String, u32>,
}

impl Interner {
    fn with_capacity(cap: usize) -> Interner {
        Interner {
            names: Vec::with_capacity(cap),
            lookup: FastMap::with_capacity_and_hasher(cap, Default::default()),
        }
    }

    /// Intern `s`, allocating only on first sight. Returns (id, was_new).
    fn intern(&mut self, s: &str) -> (u32, bool) {
        if let Some(&id) = self.lookup.get(s) {
            return (id, false);
        }
        let id = self.names.len() as u32;
        assert!(id < u32::MAX, "interner overflow");
        self.names.push(s.to_string());
        self.lookup.insert(s.to_string(), id);
        (id, true)
    }

    #[inline]
    fn resolve(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

/// One recorded span, as seen through [`Recorder::spans`]. Names are
/// materialised to `String`s at snapshot time; internal storage is
/// symbol-indexed (see [`Sym`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique (per recorder) id, in begin order.
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    pub name: String,
    pub kind: SpanKind,
    /// Row the span renders on: a stream label (`gpu0.s0`), `dma`, `net`,
    /// or `wall` for harness scopes.
    pub track: String,
    pub start: f64,
    pub end: f64,
}

impl SpanRecord {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Internal span storage: two `u32` symbols instead of two `String`s.
#[derive(Debug, Clone, Copy)]
struct RawSpan {
    id: u64,
    parent: Option<u64>,
    name: u32,
    kind: SpanKind,
    track: u32,
    start: f64,
    end: f64,
}

/// Handle returned by [`Recorder::begin`]; close it with [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span stays open (and keeps parenting children) until end() is called"]
pub struct OpenSpan {
    id: Option<u64>,
}

/// Initial capacities: one experiment's worth of spans / metrics without
/// reallocating ([`Recorder::reset`] keeps the buffers, so a reused
/// recorder settles at its high-water mark).
const SPANS_CAP: usize = 1024;
const OPEN_CAP: usize = 16;
const SYMS_CAP: usize = 64;

#[derive(Debug)]
struct ObsState {
    epoch: Instant,
    interner: Interner,
    spans: Vec<RawSpan>,
    /// Stack of open span ids (the innermost is the current parent).
    open: Vec<u64>,
    next_id: u64,
    /// Metric slots indexed by symbol id; `None` = never written.
    counters: Vec<Option<f64>>,
    gauges: Vec<Option<f64>>,
    /// All symbol ids, sorted by name — the lazy materialisation index
    /// behind every sorted view. Rebuilt only when `sorted_dirty`.
    sorted_syms: Vec<u32>,
    sorted_dirty: bool,
    /// Interned id of the `"wall"` track used by `begin`.
    wall_sym: u32,
}

impl ObsState {
    fn new() -> ObsState {
        let mut interner = Interner::with_capacity(SYMS_CAP);
        let (wall_sym, _) = interner.intern("wall");
        ObsState {
            epoch: Instant::now(),
            interner,
            spans: Vec::with_capacity(SPANS_CAP),
            open: Vec::with_capacity(OPEN_CAP),
            next_id: 0,
            counters: Vec::with_capacity(SYMS_CAP),
            gauges: Vec::with_capacity(SYMS_CAP),
            sorted_syms: Vec::with_capacity(SYMS_CAP),
            sorted_dirty: true,
            wall_sym,
        }
    }

    /// Clear all recorded data but keep every buffer (and the symbol
    /// table) allocated — the reuse path behind [`Recorder::reset`].
    fn clear(&mut self) {
        self.epoch = Instant::now();
        self.spans.clear();
        self.open.clear();
        self.next_id = 0;
        for slot in &mut self.counters {
            *slot = None;
        }
        for slot in &mut self.gauges {
            *slot = None;
        }
        // The interner (and therefore the sorted index) survives: symbol
        // ids are not observable through the public API, and keeping the
        // table is exactly the buffer reuse we want on hot reset paths.
    }

    fn wall(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    #[inline]
    fn intern(&mut self, s: &str) -> u32 {
        let (id, new) = self.interner.intern(s);
        if new {
            self.sorted_dirty = true;
        }
        id
    }

    /// The symbol id behind `name`: a string is interned here, under the
    /// caller's lock; `None` for the inert [`Sym::NOOP`].
    #[inline]
    fn id(&mut self, name: &impl Name) -> Option<u32> {
        match name.key() {
            sealed::Key::Str(s) => Some(self.intern(s)),
            sealed::Key::Sym(sym) if sym.is_noop() => None,
            sealed::Key::Sym(sym) => Some(sym.0),
        }
    }

    /// The name-sorted symbol index, rebuilt only after new interns.
    fn ensure_sorted(&mut self) {
        if !self.sorted_dirty {
            return;
        }
        self.sorted_syms.clear();
        self.sorted_syms.extend(0..self.interner.len() as u32);
        let names = &self.interner.names;
        self.sorted_syms
            .sort_unstable_by(|&a, &b| names[a as usize].cmp(&names[b as usize]));
        self.sorted_dirty = false;
    }

    #[inline]
    fn slot(vec: &mut Vec<Option<f64>>, id: u32) -> &mut Option<f64> {
        let i = id as usize;
        if vec.len() <= i {
            vec.resize(i + 1, None);
        }
        &mut vec[i]
    }

    /// Name-sorted `(name, value)` pairs of one metric family — the
    /// canonical iteration order every sink renders in (identical to the
    /// historical `BTreeMap<String, f64>` order).
    fn sorted_metrics<'a>(
        sorted_syms: &'a [u32],
        interner: &'a Interner,
        slots: &'a [Option<f64>],
    ) -> impl Iterator<Item = (&'a str, f64)> + 'a {
        sorted_syms.iter().filter_map(move |&id| {
            let v = slots.get(id as usize).copied().flatten()?;
            Some((interner.resolve(id), v))
        })
    }

    fn push_span(
        &mut self,
        name: u32,
        kind: SpanKind,
        track: u32,
        start: f64,
        end: f64,
        open: bool,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied();
        self.spans.push(RawSpan {
            id,
            parent,
            name,
            kind,
            track,
            start,
            end,
        });
        if open {
            self.open.push(id);
        }
        id
    }
}

/// A run of writes to one enabled [`Recorder`] under a single lock
/// acquisition, from [`Recorder::batch`]: a hot path that records a span
/// and several metrics (`Sim::launch_on`, `Network`'s per-operation
/// counters, `Sim`'s memory gauges) pays one lock instead of one per
/// write. The recorder's single-shot writes are each a one-write batch,
/// so both forms store exactly the same thing.
///
/// The lock is held until the batch drops; no method of its recorder may
/// run meanwhile (the lock is not re-entrant).
#[derive(Debug)]
pub struct Batch<'a> {
    state: MutexGuard<'a, ObsState>,
}

impl Batch<'_> {
    /// [`Recorder::intern`] under the batch's lock.
    #[inline]
    pub fn intern(&mut self, name: &str) -> Sym {
        Sym(self.state.intern(name))
    }

    /// [`Recorder::record_span`] under the batch's lock.
    #[inline]
    pub fn record_span(
        &mut self,
        name: impl Name,
        kind: SpanKind,
        track: impl Name,
        start: f64,
        end: f64,
    ) {
        let s = &mut *self.state;
        let (Some(name), Some(track)) = (s.id(&name), s.id(&track)) else {
            return;
        };
        s.push_span(name, kind, track, start, end, false);
    }

    /// [`Recorder::incr`] under the batch's lock.
    #[inline]
    pub fn incr(&mut self, name: impl Name, delta: f64) {
        let s = &mut *self.state;
        let Some(id) = s.id(&name) else { return };
        let slot = ObsState::slot(&mut s.counters, id);
        *slot = Some(slot.unwrap_or(0.0) + delta);
    }

    /// [`Recorder::gauge`] under the batch's lock.
    #[inline]
    pub fn gauge(&mut self, name: impl Name, value: f64) {
        let s = &mut *self.state;
        let Some(id) = s.id(&name) else { return };
        *ObsState::slot(&mut s.gauges, id) = Some(value);
    }
}

/// The cheap-clone observability handle.
///
/// All methods take `&self`; an enabled recorder synchronises internally so
/// it can be shared across the worker threads of a `portal` `forall`.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<ObsState>>>,
}

impl Recorder {
    /// A disabled recorder: every method is a no-op costing one branch.
    #[inline]
    pub fn noop() -> Recorder {
        Recorder { inner: None }
    }

    /// An enabled recorder with empty state.
    pub fn enabled() -> Recorder {
        Recorder {
            inner: Some(Arc::new(Mutex::new(ObsState::new()))),
        }
    }

    /// Whether anything will actually be recorded. Hot paths should guard
    /// any string formatting behind this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    #[inline]
    fn with<R>(&self, f: impl FnOnce(&mut ObsState) -> R) -> Option<R> {
        let mut batch = self.batch()?;
        Some(f(&mut batch.state))
    }

    /// Take the recorder's lock once for a run of writes: the returned
    /// [`Batch`] has the same `intern`, `record_span`, `incr` and `gauge`
    /// as the recorder, and holds the lock until it is dropped. `None` on
    /// a disabled recorder.
    ///
    /// The lock is not re-entrant: no method of this recorder (or of a
    /// clone of it) may run while the batch lives, or the thread
    /// deadlocks. Intern through the batch instead.
    #[inline]
    pub fn batch(&self) -> Option<Batch<'_>> {
        let inner = self.inner.as_ref()?;
        Some(Batch {
            state: inner.lock().unwrap_or_else(|e| e.into_inner()),
        })
    }

    // ----------------------------------------------------------- symbols

    /// Intern `name` into this recorder's symbol table, so a hot caller
    /// can pass the returned [`Sym`] to any entry point and skip the hash
    /// lookup. Costs one hash lookup (one allocation the first time a name
    /// is seen); on a disabled recorder returns the inert [`Sym::NOOP`].
    pub fn intern(&self, name: &str) -> Sym {
        self.batch().map_or(Sym::NOOP, |mut b| b.intern(name))
    }

    // ------------------------------------------------------------- spans

    /// Open a wall-clock span; it parents every span recorded until
    /// [`Recorder::end`]. Returns a no-op handle on a disabled recorder.
    pub fn begin(&self, name: impl Name, kind: SpanKind) -> OpenSpan {
        let id = self
            .with(|s| {
                let name = s.id(&name)?;
                let start = s.wall();
                let wall = s.wall_sym;
                Some(s.push_span(name, kind, wall, start, f64::NAN, true))
            })
            .flatten();
        OpenSpan { id }
    }

    /// Close a span opened with [`Recorder::begin`], stamping its wall end
    /// time. Closing out of order also closes any children left open.
    pub fn end(&self, span: OpenSpan) {
        let Some(id) = span.id else { return };
        self.with(|s| {
            let now = s.wall();
            while let Some(top) = s.open.pop() {
                if let Some(rec) = s.spans.iter_mut().find(|r| r.id == top) {
                    if rec.end.is_nan() {
                        rec.end = now;
                    }
                }
                if top == id {
                    break;
                }
            }
        });
    }

    /// Record a closed span with explicit timestamps (the hot-path form:
    /// `Sim` knows a kernel's start and duration on the simulated clock).
    /// The currently open span, if any, becomes its parent.
    ///
    /// One lock acquisition, string names included; allocation-free after
    /// the first sighting of `name` and `track`.
    pub fn record_span(
        &self,
        name: impl Name,
        kind: SpanKind,
        track: impl Name,
        start: f64,
        end: f64,
    ) {
        if let Some(mut b) = self.batch() {
            b.record_span(name, kind, track, start, end);
        }
    }

    /// Snapshot of all recorded spans (open spans have `end = NaN`).
    /// Names materialise to `String`s here; sinks below render straight
    /// from the interned storage instead of calling this.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.with(|s| {
            s.spans
                .iter()
                .map(|r| SpanRecord {
                    id: r.id,
                    parent: r.parent,
                    name: s.interner.resolve(r.name).to_string(),
                    kind: r.kind,
                    track: s.interner.resolve(r.track).to_string(),
                    start: r.start,
                    end: r.end,
                })
                .collect()
        })
        .unwrap_or_default()
    }

    /// Number of recorded spans (no materialisation).
    pub fn span_count(&self) -> usize {
        self.with(|s| s.spans.len()).unwrap_or(0)
    }

    // ----------------------------------------------------------- metrics

    /// Add `delta` to counter `name` (creating it at 0).
    #[inline]
    pub fn incr(&self, name: impl Name, delta: f64) {
        if let Some(mut b) = self.batch() {
            b.incr(name, delta);
        }
    }

    /// Set gauge `name` to its latest value.
    #[inline]
    pub fn gauge(&self, name: impl Name, value: f64) {
        if let Some(mut b) = self.batch() {
            b.gauge(name, value);
        }
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> f64 {
        self.with(|s| {
            s.interner
                .lookup
                .get(name)
                .and_then(|&id| s.counters.get(id as usize).copied().flatten())
                .unwrap_or(0.0)
        })
        .unwrap_or(0.0)
    }

    /// Latest value of a gauge.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.with(|s| {
            s.interner
                .lookup
                .get(name)
                .and_then(|&id| s.gauges.get(id as usize).copied().flatten())
        })
        .flatten()
    }

    /// Snapshot of every counter, in name order.
    pub fn counters(&self) -> BTreeMap<String, f64> {
        self.metric_map(|s| &s.counters)
    }

    /// Snapshot of every gauge, in name order.
    pub fn gauges(&self) -> BTreeMap<String, f64> {
        self.metric_map(|s| &s.gauges)
    }

    fn metric_map(&self, pick: impl Fn(&ObsState) -> &Vec<Option<f64>>) -> BTreeMap<String, f64> {
        self.with(|s| {
            s.ensure_sorted();
            ObsState::sorted_metrics(&s.sorted_syms, &s.interner, pick(s))
                .map(|(k, v)| (k.to_string(), v))
                .collect()
        })
        .unwrap_or_default()
    }

    /// Clear spans and metrics, keeping the recorder enabled — and keeping
    /// every internal buffer (span vector, metric slots, symbol table)
    /// allocated, so reset-per-iteration measurement loops do not churn
    /// the allocator.
    pub fn reset(&self) {
        self.with(|s| s.clear());
    }

    /// Drop every counter and gauge whose name starts with `prefix`.
    ///
    /// Subsystems that own a metric namespace (e.g. `net.*` for
    /// [`crate::Network`]) call this from their own `reset()` so a reused
    /// recorder does not leak stale values into the next measurement.
    /// Spans are untouched — they are a log, not a live registry.
    pub fn remove_prefixed(&self, prefix: &str) {
        self.with(|s| {
            for (i, name) in s.interner.names.iter().enumerate() {
                if name.starts_with(prefix) {
                    if let Some(slot) = s.counters.get_mut(i) {
                        *slot = None;
                    }
                    if let Some(slot) = s.gauges.get_mut(i) {
                        *slot = None;
                    }
                }
            }
        });
    }

    // ------------------------------------------------------------- sinks

    /// Busy seconds per kernel-span name, descending (the profiler's hot
    /// list). Aggregates over interned ids under the lock — one `String`
    /// per **unique** kernel name in the result, not one per span.
    pub fn hot_list(&self) -> Vec<(String, f64)> {
        self.with(|s| {
            // Dense per-symbol accumulation (no hashing, no cloning).
            let mut busy = vec![0.0f64; s.interner.len()];
            let mut seen = vec![false; s.interner.len()];
            for r in &s.spans {
                if r.kind == SpanKind::Kernel && r.end.is_finite() {
                    busy[r.name as usize] += r.end - r.start;
                    seen[r.name as usize] = true;
                }
            }
            // Materialise in name order first so the stable value sort
            // breaks ties exactly like the historical BTreeMap path.
            s.ensure_sorted();
            let mut out: Vec<(String, f64)> = s
                .sorted_syms
                .iter()
                .filter(|&&id| seen[id as usize])
                .map(|&id| (s.interner.resolve(id).to_string(), busy[id as usize]))
                .collect();
            // NaN-last: a span with a corrupt timestamp must sink to the
            // bottom of the profile, not tie-freeze mid-list (the old
            // `partial_cmp(..).unwrap_or(Equal)` pinned NaN wherever the
            // stable sort found it).
            out.sort_by(|a, b| crate::des::desc_nan_last(a.1, b.1));
            out
        })
        .unwrap_or_default()
    }

    /// ASCII timeline: one row per track, `width` characters across the
    /// largest finite end time. Wall-clock scopes render on their own
    /// `wall` row, so mixed clocks stay legible. Renders from interned
    /// storage — no per-span `String` clones.
    pub fn render_timeline(&self, width: usize) -> String {
        self.with(|s| {
            let t_end = s
                .spans
                .iter()
                .filter(|r| r.end.is_finite())
                .fold(0.0f64, |m, r| m.max(r.end))
                .max(1e-300);
            // Unique track symbols, in track-name order.
            s.ensure_sorted();
            let mut on_track = vec![false; s.interner.len()];
            for r in &s.spans {
                on_track[r.track as usize] = true;
            }
            let mut out = String::new();
            for &track in s.sorted_syms.iter().filter(|&&id| on_track[id as usize]) {
                let mut row = vec![b'.'; width];
                for (i, r) in s.spans.iter().enumerate() {
                    if r.track != track || !r.end.is_finite() {
                        continue;
                    }
                    let a = ((r.start / t_end) * width as f64) as usize;
                    let b = (((r.end / t_end) * width as f64).ceil() as usize).min(width);
                    let mark = b"#*+=%@"[i % 6];
                    for c in row.iter_mut().take(b).skip(a.min(width)) {
                        *c = mark;
                    }
                }
                out.push_str(&format!(
                    "{:<10} |{}|\n",
                    s.interner.resolve(track),
                    String::from_utf8_lossy(&row)
                ));
            }
            out
        })
        .unwrap_or_default()
    }

    /// JSON-lines sink: one object per span, then one per counter and
    /// gauge. Parses back with [`json::parse`] line by line.
    pub fn to_jsonl(&self) -> String {
        self.with(|s| {
            let mut out = String::new();
            for r in &s.spans {
                let parent = match r.parent {
                    Some(p) => p.to_string(),
                    None => "null".to_string(),
                };
                out.push_str(&format!(
                    "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":{},\"kind\":{},\"track\":{},\"start\":{},\"end\":{}}}\n",
                    r.id,
                    parent,
                    json::escape(s.interner.resolve(r.name)),
                    json::escape(r.kind.as_str()),
                    json::escape(s.interner.resolve(r.track)),
                    json::num(r.start),
                    json::num(r.end),
                ));
            }
            s.ensure_sorted();
            for (k, v) in ObsState::sorted_metrics(&s.sorted_syms, &s.interner, &s.counters) {
                out.push_str(&format!(
                    "{{\"type\":\"counter\",\"name\":{},\"value\":{}}}\n",
                    json::escape(k),
                    json::num(v)
                ));
            }
            for (k, v) in ObsState::sorted_metrics(&s.sorted_syms, &s.interner, &s.gauges) {
                out.push_str(&format!(
                    "{{\"type\":\"gauge\",\"name\":{},\"value\":{}}}\n",
                    json::escape(k),
                    json::num(v)
                ));
            }
            out
        })
        .unwrap_or_default()
    }

    /// One-document JSON summary for `BENCH_<experiment>.json`.
    pub fn summary_json(&self, experiment: &str) -> String {
        let hot = self.hot_list();
        self.with(|s| {
            let busy: f64 = s
                .spans
                .iter()
                .filter(|r| r.kind == SpanKind::Kernel && r.end.is_finite())
                .map(|r| r.end - r.start)
                .sum();
            let wall = s
                .spans
                .iter()
                .filter(|r| r.kind == SpanKind::Experiment && r.end.is_finite())
                .map(|r| r.end - r.start)
                .fold(0.0f64, f64::max);
            let mut out = String::from("{");
            out.push_str(&format!("\"experiment\":{},", json::escape(experiment)));
            out.push_str("\"schema\":\"icoe-bench-v1\",");
            out.push_str(&format!("\"wall_s\":{},", json::num(wall)));
            out.push_str(&format!("\"span_count\":{},", s.spans.len()));
            out.push_str(&format!("\"kernel_busy_s\":{},", json::num(busy)));
            out.push_str("\"counters\":{");
            s.ensure_sorted();
            for (i, (k, v)) in
                ObsState::sorted_metrics(&s.sorted_syms, &s.interner, &s.counters).enumerate()
            {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}:{}", json::escape(k), json::num(v)));
            }
            out.push_str("},\"gauges\":{");
            for (i, (k, v)) in
                ObsState::sorted_metrics(&s.sorted_syms, &s.interner, &s.gauges).enumerate()
            {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}:{}", json::escape(k), json::num(v)));
            }
            out.push_str("},\"hot\":[");
            for (i, (name, secs)) in hot.iter().take(10).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{},{}]", json::escape(name), json::num(*secs)));
            }
            out.push_str("]}");
            out
        })
        .unwrap_or_else(|| {
            format!(
                "{{\"experiment\":{},\"schema\":\"icoe-bench-v1\",\"wall_s\":0,\"span_count\":0,\"kernel_busy_s\":0,\"counters\":{{}},\"gauges\":{{}},\"hot\":[]}}",
                json::escape(experiment)
            )
        })
    }

    /// Write `BENCH_<experiment>.json` into `dir`; returns the path.
    pub fn write_bench_summary(
        &self,
        experiment: &str,
        dir: &std::path::Path,
    ) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{experiment}.json"));
        std::fs::write(&path, self.summary_json(experiment))?;
        Ok(path)
    }
}

/// Nearest-rank quantile of an ascending-sorted sample: the value at
/// 1-based rank `ceil(q * n)`, i.e. the smallest observation with at
/// least a `q` fraction of the sample at or below it. Empty samples
/// report 0.
///
/// This is the **one** quantile in the workspace — every wait/latency
/// report routes through it. The previous per-crate copies used a
/// `round((n - 1) * q)` index that both interpolated the rank and rounded
/// it to-nearest, which biases tail quantiles low: p99 of 50 samples
/// landed on rank 49 instead of 50, under-reporting exactly the spike
/// waits the cluster experiments gate on.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    debug_assert!(
        sorted
            .windows(2)
            .all(|w| w[0].total_cmp(&w[1]) != std::cmp::Ordering::Greater),
        "quantile wants an ascending-sorted sample"
    );
    // Clamp hostile fractions to the sample's support instead of
    // asserting: p0 (and anything below, or NaN) is the minimum, p100
    // and above the maximum. A NaN `q` would otherwise cast to rank 0
    // in release builds and read past the front of the slice logic.
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_records_nothing() {
        let r = Recorder::noop();
        let s = r.begin("root", SpanKind::Experiment);
        r.record_span("k", SpanKind::Kernel, "gpu0.s0", 0.0, 1.0);
        r.incr("flops", 1e9);
        r.gauge("g", 2.0);
        r.end(s);
        assert!(!r.is_enabled());
        assert!(r.spans().is_empty());
        assert_eq!(r.counter("flops"), 0.0);
        assert_eq!(r.gauge_value("g"), None);
        // Pre-interned names are inert too.
        let sym = r.intern("anything");
        assert_eq!(sym, Sym::NOOP);
        r.incr(sym, 1.0);
        r.gauge(sym, 1.0);
        r.record_span(sym, SpanKind::Kernel, sym, 0.0, 1.0);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn spans_nest_under_the_open_scope() {
        let r = Recorder::enabled();
        let root = r.begin("exp", SpanKind::Experiment);
        let phase = r.begin("phase-a", SpanKind::Phase);
        r.record_span("k1", SpanKind::Kernel, "gpu0.s0", 0.0, 1.0);
        r.end(phase);
        r.record_span("k2", SpanKind::Kernel, "gpu0.s0", 1.0, 2.0);
        r.end(root);
        let spans = r.spans();
        assert_eq!(spans.len(), 4);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span");
        assert_eq!(by_name("exp").parent, None);
        assert_eq!(by_name("phase-a").parent, Some(by_name("exp").id));
        assert_eq!(by_name("k1").parent, Some(by_name("phase-a").id));
        assert_eq!(by_name("k2").parent, Some(by_name("exp").id));
        // Every scope got a finite end stamp, and children close before
        // parents on the wall clock.
        assert!(spans.iter().all(|s| s.end.is_finite()));
        assert!(by_name("phase-a").end <= by_name("exp").end);
    }

    #[test]
    fn ending_a_parent_closes_forgotten_children() {
        let r = Recorder::enabled();
        let root = r.begin("root", SpanKind::Experiment);
        let _leaked = r.begin("child", SpanKind::Phase);
        r.end(root); // child never explicitly ended
        assert!(r.spans().iter().all(|s| s.end.is_finite()));
    }

    #[test]
    fn span_ids_are_ordered_by_begin_time() {
        let r = Recorder::enabled();
        for i in 0..5 {
            r.record_span(
                format!("k{i}"),
                SpanKind::Kernel,
                "t",
                i as f64,
                i as f64 + 0.5,
            );
        }
        let spans = r.spans();
        assert!(spans.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(r.span_count(), 5);
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let r = Recorder::enabled();
        r.incr("flops", 1.0);
        r.incr("flops", 2.5);
        r.gauge("hit_rate", 0.3);
        r.gauge("hit_rate", 0.9);
        assert_eq!(r.counter("flops"), 3.5);
        assert_eq!(r.gauge_value("hit_rate"), Some(0.9));
        r.reset();
        assert_eq!(r.counter("flops"), 0.0);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn sym_api_matches_string_api() {
        let r = Recorder::enabled();
        let flops = r.intern("flops");
        let k = r.intern("kern");
        let t = r.intern("gpu0.s0");
        r.incr(flops, 2.0);
        r.incr("flops", 1.0);
        r.record_span(k, SpanKind::Kernel, t, 0.0, 1.0);
        // A symbol and a string name can mix within one span.
        r.record_span(String::from("kern"), SpanKind::Kernel, t, 1.0, 2.0);
        assert_eq!(r.counter("flops"), 3.0);
        let spans = r.spans();
        assert_eq!(spans[0].name, "kern");
        assert_eq!(spans[0].track, "gpu0.s0");
        assert_eq!(spans[1].name, "kern");
        // Interning the same name twice returns the same symbol.
        assert_eq!(r.intern("flops"), flops);
        let hit = r.intern("hit_rate");
        r.gauge(hit, 0.5);
        assert_eq!(r.gauge_value("hit_rate"), Some(0.5));
        // A symbol from a disabled recorder is ignored by an enabled one.
        r.incr(Sym::NOOP, 1.0);
        r.record_span(Sym::NOOP, SpanKind::Kernel, t, 2.0, 3.0);
        assert_eq!(r.span_count(), 2);
        assert_eq!(r.begin(Sym::NOOP, SpanKind::Phase).id, None);
    }

    #[test]
    fn batched_writes_match_single_shot_writes() {
        // The same writes, once as single-shot calls and once in two
        // batches, leave the same spans, metrics and rendered sinks.
        // Every name is first seen inside a batch, so those interns run
        // under the batch's own lock.
        let single = Recorder::enabled();
        let flops = single.intern("flops");
        single.record_span("axpy", SpanKind::Kernel, "gpu0.s0", 0.0, 1e-3);
        single.incr(flops, 2e9);
        single.incr("launches", 1.0);
        single.gauge("mem.gpu0.bytes", 4.0);
        single.record_span("xfer", SpanKind::Transfer, "gpu0.h2d", 1e-3, 3e-3);
        single.incr("bytes_h2d", 8.0);
        single.incr(flops, 1e9);
        single.gauge("mem.gpu0.bytes", 2.0);
        single.gauge("mem.gpu0.high_water", 4.0);
        single.record_span("axpy", SpanKind::Kernel, "gpu0.s1", 2e-3, 4e-3);

        let batched = Recorder::enabled();
        {
            let mut b = batched.batch().expect("an enabled recorder batches");
            let flops = b.intern("flops");
            b.record_span("axpy", SpanKind::Kernel, "gpu0.s0", 0.0, 1e-3);
            b.incr(flops, 2e9);
            b.incr("launches", 1.0);
            b.gauge("mem.gpu0.bytes", 4.0);
        }
        {
            let mut b = batched.batch().expect("an enabled recorder batches");
            let track = b.intern("gpu0.h2d");
            b.record_span(String::from("xfer"), SpanKind::Transfer, track, 1e-3, 3e-3);
            b.incr("bytes_h2d", 8.0);
            b.incr("flops", 1e9);
            let bytes = b.intern("mem.gpu0.bytes");
            b.gauge(bytes, 2.0);
            b.gauge("mem.gpu0.high_water", 4.0);
            b.incr(Sym::NOOP, 1.0);
            b.record_span(Sym::NOOP, SpanKind::Kernel, track, 0.0, 1.0);
        }
        // A single-shot write after a batch drops takes the lock again.
        batched.record_span("axpy", SpanKind::Kernel, "gpu0.s1", 2e-3, 4e-3);

        assert_eq!(batched.spans(), single.spans());
        assert_eq!(batched.counters(), single.counters());
        assert_eq!(batched.gauges(), single.gauges());
        assert_eq!(batched.hot_list(), single.hot_list());
        assert_eq!(batched.render_timeline(60), single.render_timeline(60));
        assert_eq!(batched.to_jsonl(), single.to_jsonl());
        assert_eq!(batched.summary_json("batch"), single.summary_json("batch"));
        assert_eq!(batched.intern("flops"), single.intern("flops"));
        assert!(Recorder::noop().batch().is_none());
    }

    #[test]
    fn interner_allocates_once_per_unique_name() {
        let r = Recorder::enabled();
        for i in 0..1000 {
            r.record_span(
                "axpy",
                SpanKind::Kernel,
                "gpu0.s0",
                i as f64,
                i as f64 + 0.5,
            );
            r.incr("launches", 1.0);
        }
        let inner = r.inner.as_ref().expect("enabled");
        let s = inner.lock().unwrap();
        // 1000 spans, but only 3 interned names ("wall" is pre-interned).
        assert_eq!(s.spans.len(), 1000);
        assert_eq!(s.interner.len(), 4, "names: wall, axpy, gpu0.s0, launches");
    }

    #[test]
    fn reset_keeps_buffers_and_symbol_table_allocated() {
        let r = Recorder::enabled();
        for i in 0..500 {
            r.record_span(format!("k{}", i % 7), SpanKind::Kernel, "t", 0.0, 1.0);
            r.incr("flops", 1.0);
            r.gauge("g", i as f64);
        }
        let (span_cap, syms) = {
            let s = r.inner.as_ref().unwrap().lock().unwrap();
            (s.spans.capacity(), s.interner.len())
        };
        assert!(span_cap >= 500);
        r.reset();
        {
            let s = r.inner.as_ref().unwrap().lock().unwrap();
            assert_eq!(s.spans.len(), 0, "reset clears the span log");
            assert_eq!(
                s.spans.capacity(),
                span_cap,
                "reset must reuse the span buffer, not reallocate"
            );
            assert_eq!(
                s.interner.len(),
                syms,
                "reset keeps the symbol table (buffer reuse)"
            );
            assert!(s.counters.iter().all(|v| v.is_none()));
            assert!(s.gauges.iter().all(|v| v.is_none()));
        }
        // And the recorder still behaves like a fresh one observably.
        assert_eq!(r.counter("flops"), 0.0);
        assert_eq!(r.gauge_value("g"), None);
        assert!(r.spans().is_empty());
        r.incr("flops", 2.0);
        assert_eq!(r.counter("flops"), 2.0);
    }

    #[test]
    fn remove_prefixed_scrubs_one_namespace_only() {
        let r = Recorder::enabled();
        r.incr("net.ops", 3.0);
        r.incr("net.bytes", 1e6);
        r.gauge("net.allreduce.bw_gbs", 12.0);
        r.incr("flops", 7.0);
        r.gauge("mem.gpu0.bytes", 42.0);
        let span = r.begin("keepme", SpanKind::Phase);
        r.end(span);
        r.remove_prefixed("net.");
        assert_eq!(r.counter("net.ops"), 0.0);
        assert_eq!(r.counter("net.bytes"), 0.0);
        assert_eq!(r.gauge_value("net.allreduce.bw_gbs"), None);
        // Other namespaces and the span log survive.
        assert_eq!(r.counter("flops"), 7.0);
        assert_eq!(r.gauge_value("mem.gpu0.bytes"), Some(42.0));
        assert_eq!(r.spans().len(), 1);
        // Snapshots hide the scrubbed names entirely.
        assert!(!r.counters().contains_key("net.ops"));
        assert!(!r.gauges().contains_key("net.allreduce.bw_gbs"));
    }

    #[test]
    fn clones_share_state_across_threads() {
        let r = Recorder::enabled();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let rc = r.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        rc.incr("hits", 1.0);
                    }
                });
            }
        });
        assert_eq!(r.counter("hits"), 8000.0);
    }

    #[test]
    fn hot_list_ranks_kernel_spans_only() {
        let r = Recorder::enabled();
        r.record_span("big", SpanKind::Kernel, "gpu0.s0", 0.0, 5.0);
        r.record_span("small", SpanKind::Kernel, "gpu0.s0", 5.0, 6.0);
        r.record_span("xfer", SpanKind::Transfer, "dma", 0.0, 9.0);
        let hot = r.hot_list();
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].0, "big");
    }

    #[test]
    fn hot_list_sinks_nan_durations_last() {
        // A span with a NaN *start* but finite end survives the
        // finite-end filter and aggregates to a NaN busy time. The old
        // `partial_cmp(..).unwrap_or(Equal)` comparator froze it wherever
        // the stable sort found it (here: at the top); NaN-last ordering
        // must sink it below every real measurement.
        let r = Recorder::enabled();
        r.record_span("corrupt", SpanKind::Kernel, "gpu0.s0", f64::NAN, 1.0);
        r.record_span("real", SpanKind::Kernel, "gpu0.s0", 0.0, 2.0);
        r.record_span("tiny", SpanKind::Kernel, "gpu0.s0", 2.0, 2.5);
        let hot = r.hot_list();
        assert_eq!(hot.len(), 3);
        assert_eq!(hot[0].0, "real");
        assert_eq!(hot[1].0, "tiny");
        assert_eq!(hot[2].0, "corrupt");
        assert!(hot[2].1.is_nan());
    }

    #[test]
    fn quantile_pins_nearest_rank_semantics() {
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
        let fifty: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(quantile(&fifty, 0.99), 50.0);
    }

    /// p0/p100 regression (ISSUE 9 satellite): the extremes pin to the
    /// sample's min/max, out-of-range and NaN fractions clamp to the
    /// same endpoints, and the degenerate slices stay total.
    #[test]
    fn quantile_clamps_p0_p100_and_hostile_fractions() {
        let v = [3.0, 7.0, 9.0];
        assert_eq!(quantile(&v, 0.0), 3.0, "p0 is the minimum");
        assert_eq!(quantile(&v, 1.0), 9.0, "p100 is the maximum");
        assert_eq!(quantile(&v, -0.25), 3.0, "below-range clamps to p0");
        assert_eq!(quantile(&v, 1.75), 9.0, "above-range clamps to p100");
        assert_eq!(quantile(&v, f64::NAN), 3.0, "NaN fraction degrades to p0");
        assert_eq!(quantile(&[], 0.0), 0.0);
        assert_eq!(quantile(&[], 1.0), 0.0);
        assert_eq!(quantile(&[42.0], 0.0), 42.0);
        assert_eq!(quantile(&[42.0], 1.0), 42.0);
    }

    /// The naive reference implementations hot_list / render_timeline had
    /// before interning: clone every span, aggregate through
    /// `BTreeMap<String, _>`. The interned fast paths must stay
    /// byte-identical to these.
    fn naive_hot_list(spans: &[SpanRecord]) -> Vec<(String, f64)> {
        let mut agg: BTreeMap<String, f64> = BTreeMap::new();
        for s in spans {
            if s.kind == SpanKind::Kernel && s.end.is_finite() {
                *agg.entry(s.name.clone()).or_insert(0.0) += s.end - s.start;
            }
        }
        let mut out: Vec<(String, f64)> = agg.into_iter().collect();
        out.sort_by(|a, b| crate::des::desc_nan_last(a.1, b.1));
        out
    }

    fn naive_timeline(spans: &[SpanRecord], width: usize) -> String {
        let t_end = spans
            .iter()
            .filter(|s| s.end.is_finite())
            .fold(0.0f64, |m, s| m.max(s.end))
            .max(1e-300);
        let mut tracks: Vec<String> = spans.iter().map(|s| s.track.clone()).collect();
        tracks.sort();
        tracks.dedup();
        let mut out = String::new();
        for track in tracks {
            let mut row = vec![b'.'; width];
            for (i, s) in spans.iter().enumerate() {
                if s.track != track || !s.end.is_finite() {
                    continue;
                }
                let a = ((s.start / t_end) * width as f64) as usize;
                let b = (((s.end / t_end) * width as f64).ceil() as usize).min(width);
                let mark = b"#*+=%@"[i % 6];
                for c in row.iter_mut().take(b).skip(a.min(width)) {
                    *c = mark;
                }
            }
            out.push_str(&format!(
                "{track:<10} |{}|\n",
                String::from_utf8_lossy(&row)
            ));
        }
        out
    }

    #[test]
    fn interned_sinks_match_naive_reference_byte_for_byte() {
        let r = Recorder::enabled();
        // A messy mix: duplicate names, value ties (to exercise stable
        // tie-breaking), multiple tracks interned out of name order, an
        // open (NaN-ended) span, and names needing JSON escapes.
        r.record_span("zeta", SpanKind::Kernel, "gpu1.s0", 0.0, 2.0);
        r.record_span("axpy", SpanKind::Kernel, "gpu0.s0", 0.0, 1.0);
        r.record_span("axpy", SpanKind::Kernel, "gpu0.s0", 1.0, 2.0);
        r.record_span("beta", SpanKind::Kernel, "cpu.s0", 0.0, 2.0); // ties zeta
        r.record_span("xfer \"q\"", SpanKind::Transfer, "dma", 0.5, 1.5);
        let open = r.begin("open-phase", SpanKind::Phase);
        r.incr("flops", 1e9);
        r.gauge("hit_rate", 0.75);
        let spans = r.spans();
        assert_eq!(r.hot_list(), naive_hot_list(&spans), "hot_list regressed");
        for width in [1, 7, 40, 100] {
            assert_eq!(
                r.render_timeline(width),
                naive_timeline(&spans, width),
                "render_timeline({width}) regressed"
            );
        }
        r.end(open);
    }

    #[test]
    fn timeline_renders_one_row_per_track() {
        let r = Recorder::enabled();
        r.record_span("a", SpanKind::Kernel, "gpu0.s0", 0.0, 1.0);
        r.record_span("b", SpanKind::Kernel, "cpu.s0", 0.5, 2.0);
        r.record_span("x", SpanKind::Transfer, "dma", 0.0, 0.25);
        let tl = r.render_timeline(40);
        assert_eq!(tl.lines().count(), 3);
        assert!(tl.contains("gpu0.s0") && tl.contains("cpu.s0") && tl.contains("dma"));
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let r = Recorder::enabled();
        let root = r.begin("exp \"quoted\"", SpanKind::Experiment);
        r.record_span("k", SpanKind::Kernel, "gpu0.s0", 0.125, 0.5);
        r.end(root);
        r.incr("flops", 1e9);
        r.gauge("hit_rate", 0.75);
        let jsonl = r.to_jsonl();
        let mut spans = 0;
        let mut saw_counter = false;
        let mut saw_gauge = false;
        for line in jsonl.lines() {
            let v = json::parse(line).expect("line parses");
            match v.get("type").and_then(json::Value::as_str) {
                Some("span") => {
                    spans += 1;
                    if v.get("name").and_then(json::Value::as_str) == Some("k") {
                        assert_eq!(v.get("start").and_then(json::Value::as_f64), Some(0.125));
                        assert_eq!(v.get("end").and_then(json::Value::as_f64), Some(0.5));
                        assert_eq!(v.get("kind").and_then(json::Value::as_str), Some("kernel"));
                    }
                    if v.get("name").and_then(json::Value::as_str) == Some("exp \"quoted\"") {
                        assert!(v.get("parent").expect("key").is_null());
                    }
                }
                Some("counter") => {
                    saw_counter = true;
                    assert_eq!(v.get("name").and_then(json::Value::as_str), Some("flops"));
                    assert_eq!(v.get("value").and_then(json::Value::as_f64), Some(1e9));
                }
                Some("gauge") => {
                    saw_gauge = true;
                    assert_eq!(v.get("value").and_then(json::Value::as_f64), Some(0.75));
                }
                other => panic!("unexpected record type {other:?}"),
            }
        }
        assert_eq!(spans, 2);
        assert!(saw_counter && saw_gauge);
    }

    #[test]
    fn bench_summary_is_valid_json_with_expected_fields() {
        let r = Recorder::enabled();
        let root = r.begin("fig8", SpanKind::Experiment);
        r.record_span("spmv", SpanKind::Kernel, "gpu0.s0", 0.0, 0.5);
        r.incr("flops", 4.0e9);
        r.end(root);
        let doc = json::parse(&r.summary_json("fig8")).expect("summary parses");
        assert_eq!(
            doc.get("experiment").and_then(json::Value::as_str),
            Some("fig8")
        );
        assert_eq!(
            doc.get("span_count").and_then(json::Value::as_f64),
            Some(2.0)
        );
        assert_eq!(
            doc.get("kernel_busy_s").and_then(json::Value::as_f64),
            Some(0.5)
        );
        let counters = doc.get("counters").expect("counters");
        assert_eq!(
            counters.get("flops").and_then(json::Value::as_f64),
            Some(4.0e9)
        );
        let hot = doc.get("hot").and_then(json::Value::as_array).expect("hot");
        assert_eq!(hot.len(), 1);
    }
}
