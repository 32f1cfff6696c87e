//! `icoe::par` — the parallel experiment engine.
//!
//! The `experiments` harness regenerates ~21 independent paper artifacts;
//! running them strictly one after another makes tier-1 wall-clock scale
//! linearly with every new experiment. Experiments share **no mutable
//! state** — each gets its own [`Recorder`], its own simulators, its own
//! seeds — so running them concurrently and emitting the buffered results
//! in registration order is *provably* byte-identical to the serial path
//! (and the conformance suite asserts exactly that, see
//! `tests/tests/golden_determinism.rs` and `par_props.rs`).
//!
//! Scheduling is a pool of scoped threads sharing one task cursor:
//!
//! * each idle worker takes the next task (registry index) from one
//!   atomic counter, so every index is handed out exactly once and a
//!   long-running experiment never holds up tasks queued behind it on
//!   some other worker;
//! * results land in a slot-per-task vector, preserving registration
//!   order no matter which worker ran what.
//!
//! Panics are isolated per task: one exploding experiment is captured as
//! an [`ExpRun`] failure with its id, and every other experiment still
//! completes — the engine never aborts the batch.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hetsim::obs::Recorder;

use crate::exp::{ExpParams, Registry, Report};

/// Run `f(0..n)` on a pool of `jobs` scoped threads, each taking the next
/// index from one shared cursor, and return the results **in index
/// order**. `jobs <= 1` (or `n <= 1`) degenerates to a plain serial loop
/// — same results, same order.
pub fn run_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let (f, next, slots) = (&f, &next, &slots);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(move || loop {
                // Relaxed: the cursor publishes no data. Each index is
                // handed out once by the read-modify-write, and results
                // travel through the slots' mutexes and the scope's join.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(i);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
            });
        }
    });
    slots
        .iter()
        .map(|m| {
            m.lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("every index ran exactly once")
        })
        .collect()
}

/// Everything one successfully-run experiment produced: its report, the
/// private recorder it filled, and its own wall-clock.
pub struct ExpOutput {
    pub report: Report,
    pub recorder: Recorder,
    pub elapsed_s: f64,
}

/// One experiment's outcome from a parallel batch, in registration order.
pub struct ExpRun {
    pub id: &'static str,
    /// `Err(panic message)` if the experiment panicked; the rest of the
    /// batch still completes.
    pub outcome: Result<ExpOutput, String>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Registry {
    /// Run a subset of experiments concurrently on `jobs` workers, each under a root span `exp:<id>` on its **own** enabled
    /// [`Recorder`], and return the outcomes in `ids` order.
    ///
    /// Unknown ids and panicking experiments surface as `Err` outcomes;
    /// they never take the rest of the batch down.
    pub fn run_ids_parallel(&self, ids: &[&'static str], jobs: usize) -> Vec<ExpRun> {
        self.run_ids_parallel_with(ids, jobs, &ExpParams::default())
    }

    /// [`Registry::run_ids_parallel`] with explicit [`ExpParams`]
    /// (the `--param k=v` path of the binary); every experiment of the
    /// batch sees the same parameters.
    pub fn run_ids_parallel_with(
        &self,
        ids: &[&'static str],
        jobs: usize,
        params: &ExpParams,
    ) -> Vec<ExpRun> {
        run_indexed(ids.len(), jobs, |i| {
            let id = ids[i];
            if self.get(id).is_none() {
                return ExpRun {
                    id,
                    outcome: Err(format!("unknown experiment '{id}'")),
                };
            }
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut rec = Recorder::enabled();
                let t0 = std::time::Instant::now();
                let report = self
                    .run_with_params(id, &mut rec, params)
                    .expect("id checked above");
                ExpOutput {
                    report,
                    recorder: rec,
                    elapsed_s: t0.elapsed().as_secs_f64(),
                }
            }))
            .map_err(panic_message);
            ExpRun { id, outcome }
        })
    }

    /// Run **every** registered experiment concurrently on `jobs`
    /// workers; outcomes come back in registration (= paper) order, so
    /// emitting them sequentially is byte-identical to the serial path.
    pub fn run_all_parallel(&self, jobs: usize) -> Vec<ExpRun> {
        let ids: Vec<&'static str> = self.iter().map(|e| e.id()).collect();
        self.run_ids_parallel(&ids, jobs)
    }
}

/// The harness-wide default worker count: the machine's available
/// parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::FnExperiment;
    use crate::report::Table;

    fn toy_registry(n: usize) -> Registry {
        // Leak the id strings: Experiment ids are &'static str by design.
        let mut r = Registry::new();
        for i in 0..n {
            let id: &'static str = Box::leak(format!("toy{i}").into_boxed_str());
            r.register(FnExperiment {
                id,
                paper_artifact: "Fig. 0",
                f: |rec, _| {
                    rec.incr("ran", 1.0);
                    let mut t = Table::new("t", &["v"]);
                    t.row_strs(&["1"]);
                    Report::new(vec![t])
                },
            });
        }
        r
    }

    #[test]
    fn run_indexed_hands_out_every_index_exactly_once() {
        for (n, jobs) in [(0, 1), (1, 4), (7, 2), (21, 4), (100, 8)] {
            let seen: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            run_indexed(n, jobs, |i| seen[i].fetch_add(1, Ordering::SeqCst));
            assert!(
                seen.iter().all(|c| c.load(Ordering::SeqCst) == 1),
                "n={n} jobs={jobs}: counts {seen:?}"
            );
        }
    }

    #[test]
    fn run_indexed_preserves_order_for_any_jobs() {
        for jobs in [1, 2, 4, 8, 33] {
            let out = run_indexed(17, jobs, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_indexed_actually_runs_concurrent_workers() {
        // With 4 workers and tasks that block until at least 2 workers
        // have arrived, completion proves genuine concurrency.
        let arrived = AtomicUsize::new(0);
        let out = run_indexed(4, 4, |i| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let t0 = std::time::Instant::now();
            while arrived.load(Ordering::SeqCst) < 2 {
                if t0.elapsed().as_secs() > 5 {
                    panic!("no second worker after 5s — pool is serial?");
                }
                std::thread::yield_now();
            }
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn parallel_registry_runs_match_serial_documents() {
        let reg = toy_registry(9);
        for jobs in [1, 2, 4] {
            let runs = reg.run_all_parallel(jobs);
            assert_eq!(runs.len(), 9);
            for (i, run) in runs.iter().enumerate() {
                assert_eq!(run.id, format!("toy{i}"), "order preserved");
                let out = run.outcome.as_ref().expect("no panics");
                assert_eq!(out.recorder.counter("ran"), 1.0);
                assert_eq!(out.report.tables.len(), 1);
                // Root span exp:<id> present, exactly like Registry::run.
                assert_eq!(out.recorder.spans()[0].name, format!("exp:toy{i}"));
            }
        }
    }

    #[test]
    fn a_panicking_experiment_is_isolated_and_reported() {
        let mut reg = toy_registry(4);
        reg.register(FnExperiment {
            id: "boom",
            paper_artifact: "Fig. ∞",
            f: |_, _| panic!("deliberate test explosion"),
        });
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the backtrace
        let runs = reg.run_all_parallel(4);
        std::panic::set_hook(prev);
        assert_eq!(runs.len(), 5);
        let boom = runs.iter().find(|r| r.id == "boom").expect("reported");
        let msg = boom.outcome.as_ref().err().expect("panic captured");
        assert!(msg.contains("deliberate test explosion"), "msg: {msg}");
        for r in runs.iter().filter(|r| r.id != "boom") {
            assert!(r.outcome.is_ok(), "{} should have completed", r.id);
        }
    }

    #[test]
    fn unknown_ids_error_without_sinking_the_batch() {
        let reg = toy_registry(2);
        let runs = reg.run_ids_parallel(&["toy1", "nope", "toy0"], 2);
        assert_eq!(runs[0].id, "toy1");
        assert!(runs[0].outcome.is_ok());
        assert!(runs[1].outcome.is_err());
        assert!(runs[2].outcome.is_ok());
    }
}
