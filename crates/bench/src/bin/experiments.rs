//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments list                     show the index (id + paper artifact)
//! experiments <id> [flags]             one experiment
//! experiments all  [flags]             everything, in paper order
//! experiments matrix [flags]           the registry across every MATRIX
//!                                      machine preset (portability smoke):
//!                                      machine-sensitive experiments re-run
//!                                      per column, the rest reuse their
//!                                      sierra baseline cells; exits 1 on any
//!                                      failed cell or phantom_link_hits
//!
//! flags:
//!   --json               print the structured JSON document instead of text
//!   --timeline           print the ASCII span timeline to stderr
//!   --bench-dir <dir>    also write BENCH_<id>.json into <dir>
//!   --jobs <n>           run `all` on an n-worker thread pool
//!                        (default: available parallelism). Output is
//!                        emitted in paper order and is byte-identical to
//!                        --jobs 1.
//!   --param k=v          typed experiment parameters (repeatable):
//!                        seed=<u64>, scale=<f64>, machine=<preset>.
//!                        Defaults regenerate the golden documents
//!                        byte-identically.
//! ```
//!
//! Every run happens under a root span `exp:<id>` on an enabled
//! [`hetsim::obs::Recorder`]; `--json` emits the
//! `icoe-experiment-v1` document (tables + counters + gauges).
//!
//! `all` fans the independent experiments out over `icoe::par`'s
//! scoped-thread pool: each experiment runs on its own
//! recorder, its stdout/stderr are buffered, and results are emitted
//! strictly in registration (= paper) order — so parallelism is purely a
//! wall-clock optimisation, never an output change. A panicking
//! experiment is reported with its id on stderr (exit 1) while every
//! other experiment still completes.

use hetsim::obs::Recorder;
use icoe::par::{ExpOutput, ExpRun};
use icoe::{ExpParams, Registry};

struct Opts {
    json: bool,
    timeline: bool,
    bench_dir: Option<std::path::PathBuf>,
    jobs: usize,
    params: ExpParams,
}

fn main() {
    let mut ids: Vec<String> = Vec::new();
    let mut opts = Opts {
        json: false,
        timeline: false,
        bench_dir: None,
        jobs: icoe::par::default_jobs(),
        params: ExpParams::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--timeline" => opts.timeline = true,
            "--bench-dir" => match args.next() {
                Some(d) => opts.bench_dir = Some(d.into()),
                None => {
                    eprintln!("--bench-dir needs a directory argument");
                    std::process::exit(2);
                }
            },
            "--jobs" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => opts.jobs = n,
                _ => {
                    eprintln!("--jobs needs a positive integer argument");
                    std::process::exit(2);
                }
            },
            "--param" => match args.next() {
                Some(pair) => {
                    if let Err(e) = opts.params.set_pair(&pair) {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                }
                None => {
                    eprintln!(
                        "--param needs a key=value argument (seed=<u64>, scale=<f64>, machine=<preset>)"
                    );
                    std::process::exit(2);
                }
            },
            other if other.starts_with('-') => {
                eprintln!(
                    "unknown flag '{other}'; flags: --json --timeline --bench-dir <dir> --jobs <n> --param k=v"
                );
                std::process::exit(2);
            }
            other => ids.push(other.to_string()),
        }
    }

    let reg = bench::registry();
    match ids.first().map(String::as_str).unwrap_or("list") {
        "list" => {
            println!("available experiments (see DESIGN.md section 3):\n");
            let width = reg.ids().iter().map(|i| i.len()).max().unwrap_or(0);
            for e in reg.iter() {
                println!("  {:width$}  {}", e.id(), e.paper_artifact());
            }
            println!(
                "\nusage: experiments <id> | all | matrix  [--json] [--timeline] [--bench-dir <dir>] [--jobs <n>] [--param k=v]"
            );
        }
        "all" => run_all(&reg, &opts),
        "matrix" => run_matrix_cmd(&reg, &opts),
        id => {
            if reg.get(id).is_some() {
                run_one(&reg, id, &opts);
            } else {
                eprintln!("unknown experiment '{id}'; try `experiments list`");
                std::process::exit(1);
            }
        }
    }
}

/// Run every experiment — serially for `--jobs 1`, on the thread pool
/// otherwise. Either way the emission order (and every byte of it)
/// is the registry's paper order.
fn run_all(reg: &Registry, opts: &Opts) {
    if opts.jobs <= 1 {
        for id in reg.ids() {
            if !opts.json {
                println!("\n################ {id} ################\n");
            }
            run_one(reg, id, opts);
        }
        return;
    }
    let ids: Vec<&'static str> = reg.ids();
    let runs: Vec<ExpRun> = reg.run_ids_parallel_with(&ids, opts.jobs, &opts.params);
    let mut failed: Vec<&str> = Vec::new();
    for run in &runs {
        match &run.outcome {
            Ok(out) => {
                if !opts.json {
                    println!("\n################ {} ################\n", run.id);
                }
                emit(run.id, out, opts);
            }
            Err(msg) => {
                failed.push(run.id);
                eprintln!("experiment '{}' failed: {msg}", run.id);
            }
        }
    }
    if !failed.is_empty() {
        eprintln!(
            "{} experiment(s) failed: {}",
            failed.len(),
            failed.join(", ")
        );
        std::process::exit(1);
    }
}

/// Run the whole registry across the portability-matrix presets and
/// summarise each column. One line per machine; `--json` makes the lines
/// JSON objects. Any failed cell or phantom-route hit fails the run.
fn run_matrix_cmd(reg: &Registry, opts: &Opts) {
    let machines = hetsim::machines::MATRIX;
    let matrix = reg.run_matrix(machines, opts.jobs, &opts.params);
    let mut bad = false;
    for col in &matrix.columns {
        let (ran, reused, failed) = col.tally();
        let phantom = col.phantom_hits();
        bad |= failed > 0 || phantom > 0.0;
        if opts.json {
            println!(
                "{{\"machine\":\"{}\",\"ran\":{ran},\"reused\":{reused},\"failed\":{failed},\"phantom_link_hits\":{phantom}}}",
                col.machine
            );
        } else {
            println!(
                "{:<14} ran {ran:>2}  reused {reused:>2}  failed {failed}  phantom_link_hits {phantom}",
                col.machine
            );
        }
        for cell in &col.cells {
            if cell.is_err() {
                eprintln!("  cell '{}' failed on {}", cell.id(), col.machine);
            }
        }
    }
    if bad {
        eprintln!("portability matrix has failing or phantom-routed cells");
        std::process::exit(1);
    }
}

fn run_one(reg: &Registry, id: &str, opts: &Opts) {
    let start = std::time::Instant::now();
    let mut rec = Recorder::enabled();
    let report = reg
        .run_with_params(id, &mut rec, &opts.params)
        .expect("id validated by caller");
    let out = ExpOutput {
        report,
        recorder: rec,
        elapsed_s: start.elapsed().as_secs_f64(),
    };
    emit(id, &out, opts);
}

/// The single sink both the serial and the parallel path go through:
/// document/text to stdout, timeline + summaries as side channels.
fn emit(id: &str, out: &ExpOutput, opts: &Opts) {
    if opts.json {
        println!(
            "{}",
            icoe::exp::document_json(id, &out.report, &out.recorder, out.elapsed_s)
        );
    } else {
        print!("{}", out.report.render_text());
    }
    if opts.timeline {
        eprint!("{}", out.recorder.render_timeline(100));
    }
    if let Some(dir) = &opts.bench_dir {
        match out.recorder.write_bench_summary(id, dir) {
            Ok(path) => eprintln!("[wrote {}]", path.display()),
            Err(e) => {
                eprintln!("failed to write bench summary for {id}: {e}");
                std::process::exit(1);
            }
        }
    }
    if !opts.json {
        eprintln!("[{id} regenerated in {:.2} s]", out.elapsed_s);
    }
}
