//! The repository benchmark: one single-threaded, closed-loop program
//! over the public APIs of `icoe` (`exp`, `cluster`), `sched`, `hetsim`
//! (`des`, `sim`, `mem`, `network`, `obs`) and `portal` (through the
//! experiments). Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <regen|fleet-steady|fleet-burst|node-step> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run builds its inputs from the seed (set-up, repeated and timed),
//! then runs closed-loop passes for `--seconds`, each checked by the
//! workload's oracle. It prints a `fingerprint {...}` line and, last, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics of untraced passes.
//! `--trace 1` alternates an untraced pass with a traced one, which times
//! each layer's public calls from outside, and reports the per-layer
//! metrics plus the tracing overhead (traced minus untraced pass time).
//! Names and units are in `metrics.rs` and `BENCHMARK.json`.
//!
//! Set-up and pass times are processor seconds of the whole process,
//! every thread included (`host::process_cpu_s`), not wall seconds: the
//! benchmark runs on a few cores of a shared host, where the wall clock
//! also measures whatever else runs there. Per-call layer timers, too
//! short for a system call each, read `Instant`. `--seconds` is wall time.
//!
//! A pass is a fixed list of units (one experiment, one policy's serving
//! run, one block of simulated steps), each timed on its own. Neighbours
//! on the host slow a unit by 10-30 % for a while and then let go, so a
//! pass's total swings with them; the fastest time of each unit over the
//! run's passes does not. `pass_cpu_s` is the sum of those best unit
//! times: what one pass costs when nothing else gets in the way.
//!
//! The run pins itself, and so every thread the library starts, to one
//! processor. The portal loops of `regen` start dozens of short threads
//! per chunk; left to wake one another across processors they spent a
//! sixth more processor time, and spread twice as wide, as on one.
//!
//! Two helpers work on saved outputs and seeds:
//!
//! ```text
//! perfbench compare --base RUN... [--head RUN...]      # medians, quartiles, spreads
//! perfbench digest --workload fleet-steady --seed N    # a line for digests.txt
//! ```

mod compare;
mod fleet;
mod host;
mod metrics;
mod node_step;
mod regen;
mod stats;

use std::collections::BTreeMap;
use std::time::Instant;

/// Seed used when `--seed` is not given. The fleet and node-step
/// workloads were also checked on seed 97, held out while tuning.
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 10.0;
/// Set-up runs at least this many times, and more (up to the cap) while
/// the repetitions total under `SETUP_MIN_TOTAL_S`; the median is
/// reported.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 50;
const SETUP_MIN_TOTAL_S: f64 = 2.0;

const USAGE: &str = "usage: perfbench --workload <regen|fleet-steady|fleet-burst|node-step> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       \
                     perfbench compare --base RUN... [--head RUN...]\n       \
                     perfbench digest --workload <fleet-steady|fleet-burst> --seed N";

/// Named measurements of one pass or one set-up.
pub type Layers = BTreeMap<String, f64>;

/// Operations attempted and failed against the workload's oracle.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count `ops` operations, all failed unless `ok`; a failure is named
    /// on stderr.
    pub fn check(&mut self, ops: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            eprintln!("perfbench: oracle mismatch: {}", what());
        }
    }
}

/// One workload of the benchmark.
pub trait Workload: Sized {
    /// Build the inputs from `seed` and warm the program's state; timed
    /// sub-steps go into the returned map.
    fn setup(name: WorkloadName, seed: u64) -> Result<(Self, Layers), String>;

    /// One untraced pass, pushing the processor time of each of its units
    /// onto `units`, the same units in the same order on every pass;
    /// returns the operations done (experiments, placed jobs or simulated
    /// steps).
    fn pass(&mut self, tally: &mut Tally, units: &mut Vec<f64>) -> f64;

    /// One traced pass, timing each layer's calls into `layers`. Gets the
    /// timer floor and the processor time of the untraced pass just
    /// measured; returns the traced pass's processor time.
    fn traced_pass(
        &mut self,
        tally: &mut Tally,
        layers: &mut Layers,
        floor_ns: f64,
        plain_s: f64,
    ) -> f64;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    Regen,
    FleetSteady,
    FleetBurst,
    NodeStep,
}

impl WorkloadName {
    const ALL: [WorkloadName; 4] = [
        WorkloadName::Regen,
        WorkloadName::FleetSteady,
        WorkloadName::FleetBurst,
        WorkloadName::NodeStep,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::Regen => "regen",
            WorkloadName::FleetSteady => "fleet-steady",
            WorkloadName::FleetBurst => "fleet-burst",
            WorkloadName::NodeStep => "node-step",
        }
    }
}

struct Options {
    workload: WorkloadName,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = DEFAULT_SECONDS;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        WorkloadName::ALL
                            .into_iter()
                            .find(|w| w.as_str() == value)
                            .ok_or_else(|| format!("unknown workload '{value}'"))?,
                    )
                }
                "--seed" => {
                    seed = value
                        .parse()
                        .map_err(|_| format!("--seed wants an unsigned integer, got '{value}'"))?
                }
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| {
                            format!("--seconds wants a positive number, got '{value}'")
                        })?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace wants 0 or 1, got '{value}'")),
                    }
                }
                _ => return Err(format!("unknown argument '{flag}'")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::run(&args[1..]),
        Some("digest") => digest(&args[1..]),
        _ => run(&args),
    };
    std::process::exit(code);
}

fn run(args: &[String]) -> i32 {
    let opts = match Options::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    println!("fingerprint {}", host::Fingerprint::current().to_json());
    if let Err(e) = host::pin_to_one_cpu() {
        eprintln!("perfbench: {e}");
        return 1;
    }
    let result = match opts.workload {
        WorkloadName::Regen => measure::<regen::Regen>(&opts),
        WorkloadName::FleetSteady | WorkloadName::FleetBurst => measure::<fleet::Fleet>(&opts),
        WorkloadName::NodeStep => measure::<node_step::NodeStep>(&opts),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            0
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

/// Set up `SETUP_MIN_REPS` or more times and keep the last instance;
/// returns it with the median set-up time and median sub-step times.
fn set_up<W: Workload>(opts: &Options) -> Result<(W, f64, Layers), String> {
    let mut times = Vec::new();
    let mut parts = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_TOTAL_S && times.len() < SETUP_MAX_REPS)
    {
        // Free the previous instance first, so repetitions do not stack.
        drop(last.take());
        let t = host::process_cpu_s();
        let (work, layers) = W::setup(opts.workload, opts.seed)?;
        times.push(host::process_cpu_s() - t);
        parts.push(layers);
        last = Some(work);
    }
    let work = last.expect("set up at least once");
    Ok((work, stats::median(&times), stats::median_by_key(&parts)))
}

fn measure<W: Workload>(opts: &Options) -> Result<String, String> {
    let floor_ns = stats::timer_floor_ns();
    let (mut work, setup_s, setup_layers) = set_up::<W>(opts)?;
    let mut tally = Tally::default();
    let mut samples = Vec::new();
    let mut best: Vec<f64> = Vec::new();
    let mut units = Vec::new();
    let mut ops: f64;
    let start = Instant::now();
    loop {
        units.clear();
        let t = host::process_cpu_s();
        ops = work.pass(&mut tally, &mut units);
        let plain_s = host::process_cpu_s() - t;
        stats::keep_best(&mut best, &units)?;
        if opts.trace {
            let mut m = Layers::new();
            let traced_s = work.traced_pass(&mut tally, &mut m, floor_ns, plain_s);
            m.insert("trace.overhead_s".to_string(), traced_s - plain_s);
            samples.push(m);
        }
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let mut values = stats::median_by_key(&samples);
    if opts.trace {
        values.extend(setup_layers);
    } else {
        let pass_s: f64 = best.iter().sum();
        values.insert("pass_cpu_s".to_string(), pass_s);
        values.insert("ops_per_cpu_s".to_string(), ops / pass_s);
        values.insert("setup_s".to_string(), setup_s);
        let rss = host::peak_rss_mb().ok_or("peak RSS needs /proc/self/status")?;
        values.insert("peak_rss_mb".to_string(), rss);
    }
    metrics::result_line(opts.trace, &tally, &values)
}

/// `perfbench digest`: print the combined digest of one fleet pass.
fn digest(args: &[String]) -> i32 {
    let opts = match Options::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench digest: {e}\n{USAGE}");
            return 2;
        }
    };
    if !matches!(
        opts.workload,
        WorkloadName::FleetSteady | WorkloadName::FleetBurst
    ) {
        eprintln!("perfbench digest: only the fleet workloads record digests");
        return 2;
    }
    match fleet::Fleet::setup(opts.workload, opts.seed) {
        Ok((mut fleet, _)) => {
            println!(
                "{} {} {:016x}",
                opts.workload.as_str(),
                opts.seed,
                fleet.digest()
            );
            0
        }
        Err(e) => {
            eprintln!("perfbench digest: {e}");
            1
        }
    }
}
