//! `node-step`: one `hetsim::Sim` on the sierra preset under
//! `OomPolicy::UnifiedSpill`, with an enabled `Recorder`, runs repeated
//! simulated training steps. Inside `regen` an outside timer only sees
//! whole experiments; here each call into `des`, `sim`, `mem`, `network`
//! and `obs` is timed on its own.
//!
//! One step: allocate and touch a working set 1.5x the device memory (so
//! unified memory thrashes), copy a batch host-to-device, launch forward
//! and backward kernels on two streams, start a hierarchical allreduce
//! over 4,096 ranks, push and pop the 4,096 rank-ready events on a
//! `des::EventKernel`, copy results back and synchronise. Each step also
//! runs a small staged `portal` loop, which executes on the host for real.

use std::time::Instant;

use icoe::hetsim::{
    machines, AllReduceAlgo, CollectiveKind, Event, EventKernel, KernelProfile, Loc, MemId,
    Network, OomPolicy, Recorder, Sim, StreamId, Target, TransferKind, GIB,
};
use icoe::portal::{Backend, Executor, PerItem, Staging};

use crate::{host, stats, Layers, Tally, Workload, WorkloadName};

/// Ranks in the step's allreduce, one rank-ready event each.
const RANKS: usize = 4096;
/// Steps per pass.
const STEPS: usize = 1000;
/// Steps per timed unit of a pass.
const BLOCK: usize = 10;
/// Items of the step's staged portal loop: under 1,024, so the loop runs
/// on the calling thread.
const PORTAL_ITEMS: usize = 512;
/// Working set over device memory: above 1, every step thrashes.
const WORKING_SET: f64 = 1.5;
const REGION: f64 = GIB;
const MIB: f64 = 1024.0 * 1024.0;

/// The step's inputs, drawn from the seed. The seed sizes the kernels and
/// deals the rank delays out of a fixed grid; copy and message sizes are
/// fixed. A pass's host cost then does not move with the seed, which it
/// did by a tenth when the sizes and delays were drawn too.
struct Plan {
    regions: usize,
    fwd: KernelProfile,
    bwd: KernelProfile,
    /// Per-rank delay of the rank-ready event after the allreduce ends.
    jitter: Vec<f64>,
}

const H2D: f64 = 256.0 * MIB;
const D2H: f64 = 64.0 * MIB;
const GRAD: f64 = 128.0 * MIB;
/// Largest rank-ready delay after the allreduce ends, seconds.
const MAX_JITTER: f64 = 5e-6;

impl Plan {
    fn new(seed: u64, device_bytes: f64) -> Plan {
        let mut rng = SplitMix(seed);
        let elems = 1e8 * (1.0 + rng.unit());
        let mut jitter: Vec<f64> = (0..RANKS)
            .map(|k| MAX_JITTER * (k as f64 + 0.5) / RANKS as f64)
            .collect();
        // Fisher-Yates: the seed picks which rank gets which delay.
        for i in (1..RANKS).rev() {
            jitter.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        Plan {
            regions: (WORKING_SET * device_bytes / REGION).round() as usize,
            fwd: KernelProfile::new("fwd")
                .flops(40.0 * elems)
                .bytes_read(8.0 * elems)
                .bytes_written(4.0 * elems),
            bwd: KernelProfile::new("bwd")
                .flops(80.0 * elems)
                .bytes_read(12.0 * elems)
                .bytes_written(8.0 * elems),
            jitter,
        }
    }
}

/// SplitMix64, so the inputs depend on the seed and nothing else.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Default)]
struct Timer {
    ns: f64,
    calls: u64,
}

/// Outside timers around each layer's calls; when off, calls go straight
/// through.
#[derive(Default)]
struct Probe {
    on: bool,
    des: Timer,
    launch: Timer,
    transfer: Timer,
    touch: Timer,
    collective: Timer,
    portal: Timer,
}

/// Run `f`, adding its wall time and `calls` to `timer` when `on`.
#[inline]
fn timed<R>(on: bool, timer: &mut Timer, calls: u64, f: impl FnOnce() -> R) -> R {
    if !on {
        return f();
    }
    let t = Instant::now();
    let r = f();
    timer.ns += t.elapsed().as_nanos() as f64;
    timer.calls += calls;
    r
}

fn stream(index: usize) -> StreamId {
    StreamId {
        target: Target::gpu(0),
        index,
    }
}

pub struct NodeStep {
    sim: Sim,
    net: Network,
    exec: Executor,
    items: Vec<f64>,
    kernel: EventKernel<u32>,
    rec: Recorder,
    plan: Plan,
    ids: Vec<MemId>,
    /// Final simulated clock (bits) of the first pass: every later pass,
    /// traced or not, must end at exactly the same time.
    reference: Option<u64>,
    /// Spans the enabled recorder took in the last untraced pass.
    spans: usize,
}

impl NodeStep {
    fn step(&mut self, probe: &mut Probe) -> Result<(), String> {
        let on = probe.on;
        let (s1, s2) = (stream(1), stream(2));
        self.ids.clear();
        for _ in 0..self.plan.regions {
            let id = self
                .sim
                .alloc(Loc::Gpu(0), REGION)
                .map_err(|e| e.to_string())?;
            self.ids.push(id);
        }
        for &id in &self.ids {
            timed(on, &mut probe.touch, 1, || self.sim.touch_mem(id)).map_err(|e| e.to_string())?;
        }
        let plan = &self.plan;
        let h2d = timed(on, &mut probe.transfer, 1, || {
            self.sim
                .transfer_async(Loc::Host, Loc::Gpu(0), H2D, TransferKind::Memcpy, s1)
        });
        self.sim.wait_event(s2, h2d);
        timed(on, &mut probe.launch, 1, || {
            self.sim.launch_on(s1, &plan.fwd)
        });
        timed(on, &mut probe.launch, 1, || {
            self.sim.launch_on(s2, &plan.bwd)
        });
        let ready = self.sim.record(s2);
        let reduced = timed(on, &mut probe.collective, 1, || {
            self.net.icollective_with(
                AllReduceAlgo::Hierarchical,
                CollectiveKind::AllReduce,
                GRAD,
                Some(ready),
            )
        });
        let kernel = &mut self.kernel;
        let (popped, last) = timed(on, &mut probe.des, RANKS as u64, || {
            for (rank, dt) in plan.jitter.iter().enumerate() {
                kernel.schedule(reduced.time + dt, rank as u32);
            }
            let (mut popped, mut last) = (0usize, reduced.time);
            while let Some((key, _)) = kernel.pop() {
                popped += 1;
                last = key.time;
            }
            (popped, last)
        });
        if popped != RANKS {
            return Err(format!("popped {popped} of {RANKS} rank-ready events"));
        }
        self.sim.wait_event(s1, Event::at(last));
        timed(on, &mut probe.transfer, 1, || {
            self.sim
                .transfer_async(Loc::Gpu(0), Loc::Host, D2H, TransferKind::Memcpy, s1)
        });
        self.sim.sync_all();
        let (item, stage) = (
            PerItem::new().flops(64.0).bytes_read(8.0),
            Staging::new(8.0, 8.0),
        );
        let (exec, items) = (&mut self.exec, &mut self.items);
        timed(on, &mut probe.portal, 1, || {
            exec.forall_staged(0, Backend::Native, &item, stage, items, |i, x| {
                *x = i as f64 * 0.5
            })
        });
        if let Some(i) = (0..PORTAL_ITEMS).find(|&i| self.items[i] != i as f64 * 0.5) {
            return Err(format!("portal loop left item {i} at {}", self.items[i]));
        }
        self.items.fill(0.0);
        for &id in &self.ids {
            self.sim.free(id);
        }
        Ok(())
    }

    /// `STEPS` steps from reset clocks, pushing the processor time of each
    /// block of `BLOCK` steps onto `units`; returns the final simulated
    /// time's bits.
    fn run_steps(&mut self, probe: &mut Probe, units: &mut Vec<f64>) -> Result<u64, String> {
        self.sim.reset();
        self.net.reset();
        self.kernel.reset();
        self.rec.reset();
        for _ in 0..STEPS / BLOCK {
            let t = host::process_cpu_s();
            for _ in 0..BLOCK {
                self.step(probe)?;
            }
            units.push(host::process_cpu_s() - t);
        }
        Ok(self.sim.elapsed().to_bits())
    }

    fn judge(&mut self, tally: &mut Tally, result: Result<u64, String>, pass: &str) {
        match result {
            Ok(clock) => {
                let want = *self.reference.get_or_insert(clock);
                tally.check(STEPS as u64, clock == want, || {
                    format!(
                        "{pass} pass ended at simulated {} s, first pass at {} s",
                        f64::from_bits(clock),
                        f64::from_bits(want)
                    )
                });
            }
            Err(e) => tally.check(STEPS as u64, false, || format!("{pass} pass failed: {e}")),
        }
    }

    fn attach(&mut self, rec: Recorder) {
        self.sim.set_recorder(rec.clone());
        self.net.set_recorder(rec);
    }
}

impl Workload for NodeStep {
    fn setup(_name: WorkloadName, seed: u64) -> Result<(NodeStep, Layers), String> {
        let machine = machines::preset("sierra").ok_or("no sierra preset")?;
        let sim = Sim::new(machine.clone()).with_oom_policy(OomPolicy::UnifiedSpill);
        let plan = Plan::new(seed, sim.mem().capacity(Loc::Gpu(0)));
        let mut node = NodeStep {
            sim,
            net: Network::for_machine(&machine, RANKS),
            exec: Executor::new(Sim::new(machine.clone())),
            items: vec![0.0; PORTAL_ITEMS],
            kernel: EventKernel::new(),
            rec: Recorder::enabled(),
            plan,
            ids: Vec::new(),
            reference: None,
            spans: 0,
        };
        node.attach(node.rec.clone());
        // Warm-up: one step grows the calendar, track and span buffers.
        node.step(&mut Probe::default())?;
        Ok((node, Layers::new()))
    }

    fn pass(&mut self, tally: &mut Tally, units: &mut Vec<f64>) -> f64 {
        let result = self.run_steps(&mut Probe::default(), units);
        self.spans = self.rec.span_count();
        self.judge(tally, result, "untraced");
        STEPS as f64
    }

    fn traced_pass(
        &mut self,
        tally: &mut Tally,
        layers: &mut Layers,
        floor_ns: f64,
        plain_s: f64,
    ) -> f64 {
        // The same steps with a noop recorder: the enabled-minus-noop time
        // per span recorded is the cost of `obs`.
        self.attach(Recorder::noop());
        let t = host::process_cpu_s();
        let result = self.run_steps(&mut Probe::default(), &mut Vec::new());
        let noop_s = host::process_cpu_s() - t;
        self.judge(tally, result, "noop-recorder");
        self.attach(self.rec.clone());

        let mut probe = Probe {
            on: true,
            ..Probe::default()
        };
        let t = host::process_cpu_s();
        let result = self.run_steps(&mut probe, &mut Vec::new());
        let traced_s = host::process_cpu_s() - t;
        self.judge(tally, result, "traced");

        let per_call = |timer: &Timer| stats::ns_per_call(timer.ns, timer.calls, floor_ns);
        // One timed interval covers all the step's events, so its floor
        // is negligible per event.
        layers.insert(
            "des.ns_per_event".to_string(),
            stats::ns_per_call(probe.des.ns, probe.des.calls, 0.0),
        );
        layers.insert("sim.launch_ns".to_string(), per_call(&probe.launch));
        layers.insert("sim.transfer_ns".to_string(), per_call(&probe.transfer));
        layers.insert("mem.touch_ns".to_string(), per_call(&probe.touch));
        layers.insert(
            "network.collective_ns".to_string(),
            per_call(&probe.collective),
        );
        layers.insert("portal.staged_ns".to_string(), per_call(&probe.portal));
        layers.insert(
            "obs.ns_per_span".to_string(),
            stats::ns_per_call((plain_s - noop_s) * 1e9, self.spans as u64, 0.0),
        );
        traced_s
    }
}
