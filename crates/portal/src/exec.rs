//! Execution policies and the `forall` engine.

use std::ops::Range;

use hetsim::obs::Recorder;
use hetsim::{CostTerms, KernelProfile, LaunchClass, Loc, Sim, StreamId, Target, TransferKind};

/// Where a loop executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Sequential host loop.
    Seq,
    /// `n` host threads (OpenMP-style fork-join).
    Threads(usize),
    /// Plain device kernel on GPU `gpu`.
    Device { gpu: usize },
    /// Device kernel that stages tiles through shared memory (§4.9).
    DeviceShared { gpu: usize },
    /// Device kernel reading through the texture path (§4.7).
    DeviceTexture { gpu: usize },
}

impl Policy {
    pub fn device(gpu: usize) -> Policy {
        Policy::Device { gpu }
    }

    pub fn is_device(&self) -> bool {
        matches!(
            self,
            Policy::Device { .. } | Policy::DeviceShared { .. } | Policy::DeviceTexture { .. }
        )
    }

    fn target(&self, _sim: &Sim) -> Target {
        match *self {
            Policy::Seq => Target::cpu(1),
            Policy::Threads(n) => Target::cpu(n),
            Policy::Device { gpu }
            | Policy::DeviceShared { gpu }
            | Policy::DeviceTexture { gpu } => Target::gpu(gpu),
        }
    }

    fn host_threads(&self, sim: &Sim) -> usize {
        match *self {
            Policy::Seq => 1,
            Policy::Threads(n) => n.max(1),
            // Device loops still execute on the host for verifiability; use
            // every core so real wall time stays low.
            _ => sim.machine().node.cpu.cores(),
        }
    }
}

/// How the kernel was authored. The portable abstraction pays the paper's
/// measured penalty: sw4lite saw RAJA within ~30 % of CUDA on device
/// (§4.9); host-side lambda overhead is small.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Hand-written CUDA / plain loops.
    #[default]
    Native,
    /// RAJA-style portable abstraction.
    Portal,
}

impl Backend {
    /// Time multiplier relative to a native kernel, at the paper's own
    /// Sierra calibration (1.3 on device, 1.05 on host). Prefer
    /// [`Backend::penalty_on`] where a machine is in hand — on Sierra the
    /// two agree exactly.
    pub fn penalty(&self, policy: Policy) -> f64 {
        match (self, policy.is_device()) {
            (Backend::Native, _) => 1.0,
            (Backend::Portal, true) => 1.3,
            (Backend::Portal, false) => 1.05,
        }
    }

    /// Time multiplier relative to a native kernel on a specific machine:
    /// the per-architecture generalization of the paper's single RAJA
    /// figure, from [`hetsim::Machine::backend`]'s calibration table.
    pub fn penalty_on(&self, machine: &hetsim::Machine, policy: Policy) -> f64 {
        match self {
            Backend::Native => 1.0,
            Backend::Portal => {
                let b = machine.backend();
                if policy.is_device() {
                    b.device_factor
                } else {
                    b.host_factor
                }
            }
        }
    }
}

/// Per-iteration cost description; multiplied by the trip count to build a
/// [`KernelProfile`].
///
/// This is a thin wrapper over [`hetsim::CostTerms`] — the *same* builder
/// core `KernelProfile` is made from — so the two cost APIs cannot drift.
/// `PerItem` derefs to its terms, so field reads (`item.flops`) keep
/// working.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PerItem {
    pub terms: CostTerms,
}

impl std::ops::Deref for PerItem {
    type Target = CostTerms;

    fn deref(&self) -> &CostTerms {
        &self.terms
    }
}

impl From<CostTerms> for PerItem {
    fn from(terms: CostTerms) -> PerItem {
        PerItem { terms }
    }
}

impl PerItem {
    pub fn new() -> PerItem {
        PerItem {
            terms: CostTerms::new(),
        }
    }

    pub fn flops(self, f: f64) -> Self {
        PerItem {
            terms: self.terms.flops(f),
        }
    }

    pub fn bytes_read(self, b: f64) -> Self {
        PerItem {
            terms: self.terms.bytes_read(b),
        }
    }

    pub fn bytes_written(self, b: f64) -> Self {
        PerItem {
            terms: self.terms.bytes_written(b),
        }
    }

    pub fn bandwidth_eff(self, e: f64) -> Self {
        PerItem {
            terms: self.terms.bandwidth_eff(e),
        }
    }

    pub fn compute_eff(self, e: f64) -> Self {
        PerItem {
            terms: self.terms.compute_eff(e),
        }
    }

    /// Expand to a kernel profile for `n` iterations under `policy` — a
    /// thin scaling wrapper over [`KernelProfile::from_terms`].
    pub fn profile(&self, name: &str, n: usize, policy: Policy) -> KernelProfile {
        let nf = n as f64;
        let mut k = KernelProfile::from_terms(name, self.terms.scaled(nf)).parallelism(nf);
        match policy {
            Policy::Seq => k = k.launch_class(LaunchClass::HostSerial),
            Policy::Threads(_) => k = k.launch_class(LaunchClass::HostParallel),
            Policy::Device { .. } => {}
            Policy::DeviceShared { .. } => k = k.shared_mem(true),
            Policy::DeviceTexture { .. } => k = k.texture(true),
        }
        k
    }
}

/// Runs loops for real while charging a [`Sim`].
#[derive(Debug)]
pub struct Executor {
    sim: Sim,
}

impl Executor {
    pub fn new(sim: Sim) -> Executor {
        Executor { sim }
    }

    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    pub fn sim_mut(&mut self) -> &mut Sim {
        &mut self.sim
    }

    /// Attach an observability recorder to the underlying [`Sim`].
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.sim.set_recorder(recorder);
    }

    /// The underlying sim's recorder handle.
    pub fn recorder(&self) -> &Recorder {
        self.sim.recorder()
    }

    /// Reset the underlying sim's clocks and memory accounting, keeping
    /// the machine and recorder.
    pub fn reset(&mut self) {
        self.sim.reset();
    }

    /// Simulated seconds elapsed so far.
    pub fn elapsed(&self) -> f64 {
        self.sim.elapsed()
    }

    /// A device [`Pool`](crate::Pool) bounded by GPU `gpu`'s memory
    /// capacity from the underlying machine spec, sharing this executor's
    /// recorder. With the bound in place, over-subscribed allocations trim
    /// the pool's cache and then degrade to host memory instead of
    /// pretending the device is infinite (the §4.10.1 shape).
    ///
    /// # Panics
    ///
    /// Panics if `gpu` is out of range for the machine.
    pub fn device_pool(&self, gpu: usize) -> crate::Pool {
        let spec = &self.sim.machine().node.gpus[gpu];
        let cap = (spec.mem_capacity_gib * hetsim::GIB) as u64;
        crate::Pool::new(crate::Space::Device)
            .with_capacity(cap)
            .with_recorder(self.sim.recorder().clone())
    }

    fn charge(
        &mut self,
        name: &str,
        n: usize,
        policy: Policy,
        backend: Backend,
        item: &PerItem,
    ) -> f64 {
        let profile = item.profile(name, n, policy);
        let target = policy.target(&self.sim);
        let base = self.sim.launch(target, &profile);
        let dt = base * backend.penalty_on(self.sim.machine(), policy);
        // `launch` advanced the stream by the unpenalised time; charge the
        // abstraction overhead on top.
        self.sim.advance(target, dt - base);
        if let Some(mut batch) = self.sim.recorder().batch() {
            batch.incr("portal.launches", 1.0);
            batch.incr("portal.items", n as f64);
            batch.incr("portal.overhead_s", dt - base);
        }
        dt
    }

    /// Read-only `forall`: run `f(i)` for `i in 0..n`. Returns simulated
    /// seconds.
    pub fn forall<F>(
        &mut self,
        policy: Policy,
        backend: Backend,
        item: &PerItem,
        n: usize,
        f: F,
    ) -> f64
    where
        F: Fn(usize) + Sync,
    {
        let threads = policy.host_threads(&self.sim);
        run_parallel(n, threads, &f);
        self.charge("forall", n, policy, backend, item)
    }

    /// `forall` over a mutable slice: `f(i, &mut out[i])`. The common "one
    /// output element per iteration" pattern, race-free by construction.
    pub fn forall_mut<T, F>(
        &mut self,
        policy: Policy,
        backend: Backend,
        item: &PerItem,
        out: &mut [T],
        f: F,
    ) -> f64
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let threads = policy.host_threads(&self.sim);
        let n = out.len();
        run_parallel_chunks(out, threads, |base, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                f(base + off, slot);
            }
        });
        self.charge("forall_mut", n, policy, backend, item)
    }

    /// Sum-reduction `forall`: returns `(sum of f(i), simulated seconds)`.
    pub fn forall_reduce_sum<F>(
        &mut self,
        policy: Policy,
        backend: Backend,
        item: &PerItem,
        n: usize,
        f: F,
    ) -> (f64, f64)
    where
        F: Fn(usize) -> f64 + Sync,
    {
        let threads = policy.host_threads(&self.sim);
        let sum = reduce_parallel(n, threads, &f);
        let dt = self.charge("reduce_sum", n, policy, backend, item);
        (sum, dt)
    }
}

/// The contiguous chunks every parallel loop of this crate splits `0..n`
/// into: `threads` chunks of `n.div_ceil(threads)` items (the trailing
/// ones may be empty), or `None` — run serially — for one thread or fewer
/// than `cutoff` items.
pub(crate) fn chunks(
    n: usize,
    threads: usize,
    cutoff: usize,
) -> Option<impl Iterator<Item = Range<usize>> + Clone> {
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n < cutoff {
        return None;
    }
    let chunk = n.div_ceil(threads);
    Some((0..threads).map(move |t| (t * chunk).min(n)..((t + 1) * chunk).min(n)))
}

/// The crate's one fork-join: `f(part)` for each part on its own scoped
/// thread, the results in part order. A worker's panic resumes on the
/// caller.
pub(crate) fn fork_join<P, R, F>(parts: impl Iterator<Item = P>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    let f = &f;
    std::thread::scope(|s| {
        let workers: Vec<_> = parts.map(|p| s.spawn(move || f(p))).collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// The non-empty `chunks` of `out`, each with its index range.
pub(crate) fn chunks_mut<T>(
    out: &mut [T],
    chunks: impl Iterator<Item = Range<usize>>,
) -> impl Iterator<Item = (Range<usize>, &mut [T])> {
    let mut rest = out;
    chunks.filter(|r| !r.is_empty()).map(move |r| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
        rest = tail;
        (r, head)
    })
}

/// Run `f(i)` for all i in 0..n across `threads` host threads.
pub fn run_parallel<F>(n: usize, threads: usize, f: &F)
where
    F: Fn(usize) + Sync,
{
    match chunks(n, threads, 1024) {
        None => (0..n).for_each(f),
        Some(chunks) => {
            fork_join(chunks.filter(|r| !r.is_empty()), |r| r.for_each(f));
        }
    }
}

/// Split `out` into per-thread chunks and run `f(base_index, chunk)`.
pub fn run_parallel_chunks<T, F>(out: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    match chunks(out.len(), threads, 1024) {
        None => f(0, out),
        Some(chunks) => {
            fork_join(chunks_mut(out, chunks), |(r, part)| f(r.start, part));
        }
    }
}

/// Deterministic parallel sum of `f(i)` for i in 0..n.
///
/// Partial sums are accumulated per fixed-size chunk and then added in chunk
/// order, so the result does not depend on thread scheduling.
pub fn reduce_parallel<F>(n: usize, threads: usize, f: &F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    let Some(chunks) = chunks(n, threads, 1024) else {
        return (0..n).map(f).sum();
    };
    let partials = fork_join(chunks, |r| {
        let mut acc = 0.0;
        for i in r {
            acc += f(i);
        }
        acc
    });
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::machines;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn exec() -> Executor {
        Executor::new(Sim::new(machines::sierra_node()))
    }

    #[test]
    fn forall_visits_every_index() {
        let mut e = exec();
        let count = AtomicU64::new(0);
        e.forall(
            Policy::Threads(8),
            Backend::Native,
            &PerItem::new(),
            10_000,
            |_| {
                count.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(count.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn forall_mut_writes_every_slot() {
        let mut e = exec();
        let mut v = vec![0usize; 5000];
        e.forall_mut(
            Policy::device(0),
            Backend::Portal,
            &PerItem::new(),
            &mut v,
            |i, s| {
                *s = i * 2;
            },
        );
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn reduction_matches_serial() {
        let mut e = exec();
        let item = PerItem::new().flops(1.0).bytes_read(8.0);
        let (par, _) =
            e.forall_reduce_sum(Policy::Threads(16), Backend::Native, &item, 100_000, |i| {
                i as f64
            });
        let serial: f64 = (0..100_000).map(|i| i as f64).sum();
        assert_eq!(par, serial);
    }

    #[test]
    fn metrics_aggregate_across_forall_worker_threads() {
        // The multi-threaded story: worker threads share the recorder's
        // state through cheap clones, and the engine's own metrics land in
        // the same registry.
        let mut e = exec();
        let rec = Recorder::enabled();
        e.set_recorder(rec.clone());
        let n = 10_000;
        let rc = rec.clone();
        e.forall(
            Policy::Threads(8),
            Backend::Native,
            &PerItem::new().flops(1.0),
            n,
            move |_| rc.incr("app.items_seen", 1.0),
        );
        assert_eq!(rec.counter("app.items_seen"), n as f64);
        assert_eq!(rec.counter("portal.launches"), 1.0);
        assert_eq!(rec.counter("portal.items"), n as f64);
        assert_eq!(
            rec.counter("launches"),
            1.0,
            "sim-level launch counted once"
        );
        assert_eq!(rec.spans().len(), 1, "one kernel span for the whole forall");
    }

    #[test]
    fn executor_reset_and_counters_mirror_sim() {
        let rec = Recorder::enabled();
        let mut e = exec();
        e.set_recorder(rec.clone());
        e.forall(
            Policy::device(0),
            Backend::Native,
            &PerItem::new().flops(4.0),
            5000,
            |_| {},
        );
        assert_eq!(rec.counter("launches"), 1.0);
        assert_eq!(rec.counter("flops"), 4.0 * 5000.0);
        assert!(e.elapsed() > 0.0);
        e.reset();
        assert_eq!(e.elapsed(), 0.0);
        assert_eq!(e.sim().elapsed(), 0.0);
    }

    #[test]
    fn per_item_is_a_thin_wrapper_over_cost_terms() {
        let item = PerItem::from(CostTerms::new().flops(3.0).bytes_read(8.0));
        // Deref keeps field reads working.
        assert_eq!(item.flops, 3.0);
        let k = item.profile("k", 100, Policy::device(0));
        assert_eq!(k.flops, 300.0);
        assert_eq!(k.bytes_read, 800.0);
        assert_eq!(k.parallelism, 100.0);
        assert_eq!(k.terms(), item.terms.scaled(100.0));
    }

    #[test]
    fn portal_backend_costs_more_on_device() {
        let item = PerItem::new()
            .flops(10.0)
            .bytes_read(24.0)
            .bytes_written(8.0);
        let n = 1 << 20;
        let mut e1 = exec();
        let t_native = e1.forall(Policy::device(0), Backend::Native, &item, n, |_| {});
        let mut e2 = exec();
        let t_portal = e2.forall(Policy::device(0), Backend::Portal, &item, n, |_| {});
        let ratio = t_portal / t_native;
        assert!((ratio - 1.3).abs() < 0.01, "{ratio}");
    }

    #[test]
    fn shared_memory_policy_is_faster_for_stencils() {
        // §4.9: sw4lite stencil kernels improved ~2x with shared memory.
        let item = PerItem::new()
            .flops(50.0)
            .bytes_read(72.0)
            .bytes_written(8.0);
        let n = 1 << 22;
        let mut e1 = exec();
        let plain = e1.forall(Policy::device(0), Backend::Native, &item, n, |_| {});
        let mut e2 = exec();
        let tiled = e2.forall(
            Policy::DeviceShared { gpu: 0 },
            Backend::Native,
            &item,
            n,
            |_| {},
        );
        assert!(plain / tiled > 1.5, "{}", plain / tiled);
    }

    #[test]
    fn device_beats_serial_host_on_streaming_loop() {
        let item = PerItem::new()
            .flops(2.0)
            .bytes_read(16.0)
            .bytes_written(8.0);
        let n = 1 << 22;
        let mut e1 = exec();
        let dev = e1.forall(Policy::device(0), Backend::Native, &item, n, |_| {});
        let mut e2 = exec();
        let seq = e2.forall(Policy::Seq, Backend::Native, &item, n, |_| {});
        assert!(seq / dev > 5.0);
    }

    #[test]
    fn tiny_loops_lose_on_device_launch_overhead() {
        // The ParaDyn problem (§4.8): many small loops => launch-bound.
        let item = PerItem::new().flops(2.0).bytes_read(16.0);
        let n = 64;
        let mut e1 = exec();
        let mut dev = 0.0;
        for _ in 0..100 {
            dev += e1.forall(Policy::device(0), Backend::Native, &item, n, |_| {});
        }
        let mut e2 = exec();
        let mut host = 0.0;
        for _ in 0..100 {
            host += e2.forall(Policy::Threads(4), Backend::Native, &item, n, |_| {});
        }
        assert!(dev > 2.0 * host, "dev {dev} host {host}");
    }

    #[test]
    fn merged_loop_beats_many_small_launches() {
        // The ParaDyn fix: merging loops amortises launch overhead.
        let item = PerItem::new().flops(2.0).bytes_read(16.0);
        let mut e1 = exec();
        let mut many = 0.0;
        for _ in 0..50 {
            many += e1.forall(Policy::device(0), Backend::Native, &item, 1000, |_| {});
        }
        let mut e2 = exec();
        let merged = e2.forall(Policy::device(0), Backend::Native, &item, 50_000, |_| {});
        assert!(many > 5.0 * merged, "many {many} merged {merged}");
    }
}

/// Host<->device traffic of a staged loop, in bytes per item: what must
/// cross the link before ([`Staging::h2d_per_item`]) and after
/// ([`Staging::d2h_per_item`]) the kernel. Distinct from the kernel's own
/// [`PerItem`] device-memory traffic — a stencil may read each staged byte
/// many times from HBM.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Staging {
    /// Input bytes copied host -> device per item.
    pub h2d_per_item: f64,
    /// Output bytes copied device -> host per item.
    pub d2h_per_item: f64,
}

impl Staging {
    pub fn new(h2d_per_item: f64, d2h_per_item: f64) -> Staging {
        Staging {
            h2d_per_item,
            d2h_per_item,
        }
    }
}

/// How many chunks may be resident on the device at once in
/// [`Executor::forall_pipelined`]: classic double buffering. Chunk `c`'s
/// upload waits until chunk `c - PIPELINE_BUFFERS`'s kernel has freed its
/// staging buffer.
pub const PIPELINE_BUFFERS: usize = 2;

impl Executor {
    /// Serial staged loop: upload all input, run the kernel, download all
    /// output — each step blocking, the `cudaMemcpy` baseline every §4
    /// pipelining lesson starts from. Runs `f(i, &mut out[i])` for real on
    /// the host like [`Executor::forall_mut`]. Returns simulated seconds.
    pub fn forall_staged<T, F>(
        &mut self,
        gpu: usize,
        backend: Backend,
        item: &PerItem,
        stage: Staging,
        out: &mut [T],
        f: F,
    ) -> f64
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let threads = Policy::Device { gpu }.host_threads(&self.sim);
        run_parallel_chunks(out, threads, |base, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                f(base + off, slot);
            }
        });
        self.staged_cost(gpu, backend, item, stage, out.len())
    }

    /// Simulated cost of [`Executor::forall_staged`] for `n` items without
    /// running any host work: the blocking upload / kernel / download
    /// sequence, charged identically. This is the auto-tuner's serial
    /// baseline objective (`icoe::tune`).
    pub fn staged_cost(
        &mut self,
        gpu: usize,
        backend: Backend,
        item: &PerItem,
        stage: Staging,
        n: usize,
    ) -> f64 {
        let nf = n as f64;
        let mut dt = 0.0;
        if stage.h2d_per_item > 0.0 {
            dt += self.sim.transfer(
                Loc::Host,
                Loc::Gpu(gpu),
                nf * stage.h2d_per_item,
                TransferKind::Memcpy,
            );
        }
        dt += self.charge("forall_mut", n, Policy::Device { gpu }, backend, item);
        if stage.d2h_per_item > 0.0 {
            dt += self.sim.transfer(
                Loc::Gpu(gpu),
                Loc::Host,
                nf * stage.d2h_per_item,
                TransferKind::Memcpy,
            );
        }
        dt
    }

    /// Chunked H2D / compute / D2H double buffering — the §4 CUDA-streams
    /// optimisation (overlapped halo exchange, copy-engine concurrency
    /// behind the SAMRAI/MFEM/Ardra speedups) as a loop policy.
    ///
    /// The index space is split into `chunks` chunks. Chunk `c + 1`'s
    /// input crosses the `gpu<N>.h2d` copy engine while chunk `c` computes
    /// on the default stream and chunk `c - 1` drains back over
    /// `gpu<N>.d2h`; [`PIPELINE_BUFFERS`] bounds how far uploads may run
    /// ahead (double buffering). With enough chunks and copy time ≈
    /// compute time the three tracks run concurrently and total time drops
    /// from `h2d + k + d2h` toward `max(h2d, k, d2h)`; with too many
    /// chunks, per-chunk copy latency and kernel-launch overhead win and
    /// the pipeline loses again — the classic crossover the
    /// `pipeline-overlap` experiment sweeps.
    ///
    /// Runs `f(i, &mut out[i])` for real on the host (chunk by chunk, all
    /// cores), like [`Executor::forall_mut`]. Returns the simulated
    /// seconds from first upload to last download.
    pub fn forall_pipelined<T, F>(
        &mut self,
        gpu: usize,
        backend: Backend,
        item: &PerItem,
        stage: Staging,
        out: &mut [T],
        chunks: usize,
        f: F,
    ) -> f64
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let n = out.len();
        if n == 0 {
            return 0.0;
        }
        let chunks = chunks.clamp(1, n);
        let chunk_len = n.div_ceil(chunks);
        let threads = self.sim.machine().node.cpu.cores();

        // Run the real computation on the host, chunk by chunk (the same
        // chunk boundaries the simulated schedule charges below).
        let mut rest = out;
        let mut base = 0usize;
        while !rest.is_empty() {
            let take = chunk_len.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            run_parallel_chunks(head, threads, |off, slab| {
                for (k, slot) in slab.iter_mut().enumerate() {
                    f(base + off + k, slot);
                }
            });
            rest = tail;
            base += take;
        }
        self.pipeline_cost(gpu, backend, item, stage, n, chunks)
    }

    /// Simulated cost of [`Executor::forall_pipelined`] for `n` items in
    /// `chunks` chunks, without running any host work: the full chunked
    /// H2D / compute / D2H schedule is charged to the sim's streams and
    /// copy engines exactly as `forall_pipelined` charges it. This is the
    /// auto-tuner's pipeline objective (`icoe::tune`), where the chunk
    /// count is a searched knob rather than a hand-picked constant.
    pub fn pipeline_cost(
        &mut self,
        gpu: usize,
        backend: Backend,
        item: &PerItem,
        stage: Staging,
        n: usize,
        chunks: usize,
    ) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let chunks = chunks.clamp(1, n);
        let chunk_len = n.div_ceil(chunks);
        let penalty = backend.penalty_on(self.sim.machine(), Policy::Device { gpu });

        let compute = StreamId::default_for(Target::gpu(gpu));
        let h2d_q = StreamId {
            target: Target::gpu(gpu),
            index: 1,
        };
        let d2h_q = StreamId {
            target: Target::gpu(gpu),
            index: 2,
        };

        // The pipeline's own start: nothing can begin before the upload
        // queue and engine are free.
        let start = self
            .sim
            .stream_time(h2d_q)
            .max(self.sim.engine_time(hetsim::Engine::H2d(gpu)));
        let mut kernel_done: Vec<hetsim::Event> = Vec::with_capacity(chunks);
        let mut last = hetsim::Event::at(start);

        let mut left = n;
        let mut c = 0usize;
        while left > 0 {
            let take = chunk_len.min(left);
            // Double buffering: chunk c reuses the staging buffer chunk
            // c - PIPELINE_BUFFERS computed out of.
            if c >= PIPELINE_BUFFERS {
                let ev = kernel_done[c - PIPELINE_BUFFERS];
                self.sim.wait_event(h2d_q, ev);
            }
            let takef = take as f64;
            let ev_in = if stage.h2d_per_item > 0.0 {
                self.sim.transfer_async(
                    Loc::Host,
                    Loc::Gpu(gpu),
                    takef * stage.h2d_per_item,
                    TransferKind::Memcpy,
                    h2d_q,
                )
            } else {
                self.sim.record(h2d_q)
            };
            self.sim.wait_event(compute, ev_in);
            let profile = item.profile("forall_pipelined", take, Policy::Device { gpu });
            let base_dt = self.sim.launch_on(compute, &profile);
            if penalty > 1.0 {
                self.sim.advance_stream(compute, base_dt * (penalty - 1.0));
            }
            let ev_k = self.sim.record(compute);
            kernel_done.push(ev_k);
            last = if stage.d2h_per_item > 0.0 {
                self.sim.wait_event(d2h_q, ev_k);
                self.sim.transfer_async(
                    Loc::Gpu(gpu),
                    Loc::Host,
                    takef * stage.d2h_per_item,
                    TransferKind::Memcpy,
                    d2h_q,
                )
            } else {
                ev_k
            };
            left -= take;
            c += 1;
        }
        let dt = last.time - start;
        if let Some(mut batch) = self.sim.recorder().batch() {
            batch.incr("portal.pipelines", 1.0);
            batch.incr("portal.pipeline.chunks", c as f64);
            batch.incr("portal.items", n as f64);
        }
        dt
    }

    /// Nested 2-D kernel (RAJA `kernel` analogue): run `f(i, j)` over the
    /// `ni x nj` index space in `tile x tile` blocks. Tiling matters on
    /// both targets — cache blocking on the host, shared-memory staging on
    /// the device — and the policy decides which cost model applies.
    pub fn kernel2d<F>(
        &mut self,
        policy: Policy,
        backend: Backend,
        item: &PerItem,
        (ni, nj): (usize, usize),
        tile: usize,
        f: F,
    ) -> f64
    where
        F: Fn(usize, usize) + Sync,
    {
        let tile = tile.max(1);
        let tiles_i = ni.div_ceil(tile);
        let tiles_j = nj.div_ceil(tile);
        let n_tiles = tiles_i * tiles_j;
        let threads = policy.host_threads(&self.sim);
        // Parallelise over tiles; each tile runs its block serially (the
        // thread-block structure of the device kernel).
        run_parallel(n_tiles, threads, &|t| {
            let ti = t / tiles_j;
            let tj = t % tiles_j;
            for i in (ti * tile)..((ti + 1) * tile).min(ni) {
                for j in (tj * tile)..((tj + 1) * tile).min(nj) {
                    f(i, j);
                }
            }
        });
        self.charge("kernel2d", ni * nj, policy, backend, item)
    }
}

#[cfg(test)]
mod pipeline_tests {
    use super::*;
    use hetsim::{machines, Sim};

    fn exec() -> Executor {
        Executor::new(Sim::new(machines::sierra_node()))
    }

    /// A workload where per-chunk copy time ≈ kernel time on sierra:
    /// 8 B/item over NVLink2 (68 GB/s) is ~0.118 ns/item; 550 flops/item
    /// against the V100's effective fp64 rate (7.8 Tflop/s x 0.6) is
    /// ~0.118 ns/item too. The three pipeline tracks are then balanced and
    /// the textbook `3T -> T(1 + 2/C)` shape appears.
    fn balanced() -> (PerItem, Staging) {
        let item = PerItem::new()
            .flops(550.0)
            .bytes_read(8.0)
            .bytes_written(8.0);
        (item, Staging::new(8.0, 8.0))
    }

    #[test]
    fn device_pool_is_bounded_by_the_machine_spec() {
        let e = exec();
        let pool = e.device_pool(0);
        let hbm = e.sim().machine().node.gpus[0].mem_capacity_gib * hetsim::GIB;
        assert_eq!(pool.capacity(), Some(hbm as u64));
        // Filling the device past its HBM capacity degrades to host
        // instead of silently fitting.
        let chunk = 1u64 << 30;
        let mut spills = 0;
        for _ in 0..20 {
            let (b, _) = pool.alloc(chunk);
            if b.spilled {
                spills += 1;
            }
        }
        assert_eq!(spills, 4, "16 GiB HBM fits 16 of 20 x 1 GiB blocks");
    }

    #[test]
    fn pipelined_writes_every_slot() {
        let mut e = exec();
        let (item, stage) = balanced();
        let mut v = vec![0usize; 100_000];
        e.forall_pipelined(0, Backend::Native, &item, stage, &mut v, 7, |i, s| {
            *s = i * 3 + 1;
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 3 + 1));
    }

    #[test]
    fn staged_and_pipelined_agree_numerically() {
        let (item, stage) = balanced();
        let n = 50_000;
        let mut a = vec![0.0f64; n];
        let mut b = vec![0.0f64; n];
        let f = |i: usize, s: &mut f64| *s = (i as f64).sqrt();
        exec().forall_staged(0, Backend::Native, &item, stage, &mut a, f);
        exec().forall_pipelined(0, Backend::Native, &item, stage, &mut b, 8, f);
        assert_eq!(a, b);
    }

    #[test]
    fn four_chunk_pipeline_beats_serial_staging_by_1_3x() {
        // Acceptance criterion: with copy ~ compute, >= 4 chunks must beat
        // the blocking upload/kernel/download baseline by >= 1.3x. The
        // model predicts ~2x (3T vs 1.5T) minus per-chunk overheads.
        let (item, stage) = balanced();
        let n = 1 << 22;
        let mut v = vec![0u8; n];
        let serial = exec().forall_staged(0, Backend::Native, &item, stage, &mut v, |_, _| {});
        let piped = exec().forall_pipelined(0, Backend::Native, &item, stage, &mut v, 4, |_, _| {});
        let speedup = serial / piped;
        assert!(
            speedup >= 1.3,
            "speedup {speedup} (serial {serial}, piped {piped})"
        );
    }

    #[test]
    fn more_chunks_help_until_latency_bites() {
        let (item, stage) = balanced();
        let n = 1 << 22;
        let mut v = vec![0u8; n];
        let mut t = |chunks| {
            exec().forall_pipelined(0, Backend::Native, &item, stage, &mut v, chunks, |_, _| {})
        };
        let t1 = t(1);
        let t4 = t(4);
        let t16 = t(16);
        // Per-chunk launch overhead (5 us) + copy latency (8 us) eventually
        // dominate: thousands of tiny chunks must lose to a modest count.
        let t4096 = t(4096);
        assert!(t4 < t1, "t4 {t4} t1 {t1}");
        assert!(t16 < t4, "t16 {t16} t4 {t4}");
        assert!(t4096 > t16, "t4096 {t4096} t16 {t16}");
    }

    #[test]
    fn timeline_shows_h2d_overlapping_kernels_on_distinct_tracks() {
        let mut e = exec();
        let rec = Recorder::enabled();
        e.set_recorder(rec.clone());
        let (item, stage) = balanced();
        let mut v = vec![0u8; 1 << 20];
        e.forall_pipelined(0, Backend::Native, &item, stage, &mut v, 6, |_, _| {});
        let spans = rec.spans();
        let h2d: Vec<_> = spans.iter().filter(|s| s.track == "gpu0.h2d").collect();
        let d2h: Vec<_> = spans.iter().filter(|s| s.track == "gpu0.d2h").collect();
        let kern: Vec<_> = spans.iter().filter(|s| s.track == "gpu0.s0").collect();
        assert_eq!(h2d.len(), 6);
        assert_eq!(d2h.len(), 6);
        assert_eq!(kern.len(), 6);
        // Overlap: some upload must be in flight while some kernel runs.
        let overlapping = h2d
            .iter()
            .any(|u| kern.iter().any(|k| u.start < k.end && k.start < u.end));
        assert!(overlapping, "no h2d span overlaps any kernel span");
        assert_eq!(rec.counter("portal.pipelines"), 1.0);
        assert_eq!(rec.counter("portal.pipeline.chunks"), 6.0);
    }

    #[test]
    fn empty_and_single_chunk_edge_cases() {
        let (item, stage) = balanced();
        let mut empty: Vec<u8> = vec![];
        assert_eq!(
            exec().forall_pipelined(0, Backend::Native, &item, stage, &mut empty, 4, |_, _| {}),
            0.0
        );
        // chunks = 0 clamps to 1 and still works.
        let mut one = vec![0u8; 10];
        let dt = exec().forall_pipelined(0, Backend::Native, &item, stage, &mut one, 0, |i, s| {
            *s = i as u8
        });
        assert!(dt > 0.0);
        assert_eq!(one[9], 9);
    }

    #[test]
    fn cost_only_helpers_match_the_real_loops_exactly() {
        // The auto-tuner evaluates `pipeline_cost` / `staged_cost` instead
        // of running host work; both must charge bit-identical schedules.
        let (item, stage) = balanced();
        let n = 1 << 20;
        let mut v = vec![0u8; n];
        let full = exec().forall_pipelined(0, Backend::Native, &item, stage, &mut v, 8, |_, _| {});
        let cost = exec().pipeline_cost(0, Backend::Native, &item, stage, n, 8);
        assert_eq!(full, cost);
        let full_s = exec().forall_staged(0, Backend::Native, &item, stage, &mut v, |_, _| {});
        let cost_s = exec().staged_cost(0, Backend::Native, &item, stage, n);
        assert_eq!(full_s, cost_s);
    }

    #[test]
    fn single_chunk_pipeline_matches_serial_within_tolerance() {
        // With one chunk there is nothing to overlap; the pipeline
        // degenerates to upload -> kernel -> download, same as staged.
        let (item, stage) = balanced();
        let n = 1 << 20;
        let mut v = vec![0u8; n];
        let serial = exec().forall_staged(0, Backend::Native, &item, stage, &mut v, |_, _| {});
        let piped = exec().forall_pipelined(0, Backend::Native, &item, stage, &mut v, 1, |_, _| {});
        let rel = (serial - piped).abs() / serial;
        assert!(rel < 1e-9, "serial {serial} piped {piped}");
    }
}

#[cfg(test)]
mod kernel2d_tests {
    use super::*;
    use hetsim::{machines, Sim};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn exec() -> Executor {
        Executor::new(Sim::new(machines::sierra_node()))
    }

    #[test]
    fn visits_every_index_exactly_once() {
        let mut e = exec();
        let (ni, nj) = (37, 53); // deliberately not tile multiples
        let hits = AtomicU64::new(0);
        let sum = AtomicU64::new(0);
        e.kernel2d(
            Policy::Threads(8),
            Backend::Native,
            &PerItem::new(),
            (ni, nj),
            16,
            |i, j| {
                hits.fetch_add(1, Ordering::Relaxed);
                sum.fetch_add((i * nj + j) as u64, Ordering::Relaxed);
            },
        );
        assert_eq!(hits.load(Ordering::Relaxed) as usize, ni * nj);
        let expect: u64 = (0..(ni * nj) as u64).sum();
        assert_eq!(sum.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn device_shared_tiling_is_cheaper_for_stencil_like_items() {
        let item = PerItem::new()
            .flops(10.0)
            .bytes_read(40.0)
            .bytes_written(8.0);
        let mut e1 = exec();
        let plain = e1.kernel2d(
            Policy::device(0),
            Backend::Native,
            &item,
            (1024, 1024),
            32,
            |_, _| {},
        );
        let mut e2 = exec();
        let tiled = e2.kernel2d(
            Policy::DeviceShared { gpu: 0 },
            Backend::Native,
            &item,
            (1024, 1024),
            32,
            |_, _| {},
        );
        assert!(tiled < plain, "{tiled} vs {plain}");
    }
}
