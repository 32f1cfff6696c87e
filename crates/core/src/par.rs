//! `icoe::par` — the work-stealing parallel experiment engine.
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
//! Scheduling is a classic work-stealing pool over scoped threads:
//!
//! * tasks (registry indices) are dealt round-robin into one deque per
//!   worker;
//! * a worker pops from the **front** of its own deque (cache-friendly
//!   FIFO of its dealt share) and, when empty, steals from the **back**
//!   of the most-loaded victim — so long-running experiments do not
//!   serialise the tail of the schedule;
//! * results land in a slot-per-task vector, preserving registration
//!   order no matter which worker ran what.
//!
//! Panics are isolated per task: one exploding experiment is captured as
//! an [`ExpRun`] failure with its id, and every other experiment still
//! completes — the engine never aborts the batch.

use std::collections::VecDeque;
use std::sync::Mutex;

use hetsim::obs::Recorder;

use crate::exp::{ExpParams, Registry, Report};

/// Tasks-to-workers deal with per-worker deques and back-stealing.
///
/// Indices `0..n` are dealt round-robin; [`StealQueue::pop`] serves a
/// worker its own front first and steals from the most-loaded victim's
/// back otherwise. Every index is handed out exactly once.
pub struct StealQueue {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl StealQueue {
    /// Deal `n` task indices round-robin across `workers` deques.
    pub fn new(n: usize, workers: usize) -> StealQueue {
        let workers = workers.max(1);
        let mut deques: Vec<VecDeque<usize>> = (0..workers)
            .map(|_| VecDeque::with_capacity(n / workers + 1))
            .collect();
        for i in 0..n {
            deques[i % workers].push_back(i);
        }
        StealQueue {
            deques: deques.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Next task for `worker`: own front, else steal the back of the
    /// victim with the most remaining work. `None` = everything drained.
    pub fn pop(&self, worker: usize) -> Option<usize> {
        if let Some(i) = self.lock(worker).pop_front() {
            return Some(i);
        }
        loop {
            // Pick the most-loaded victim under a racy scan; re-check
            // under its lock. Retry while any deque looks non-empty.
            let victim = (0..self.deques.len())
                .filter(|&w| w != worker)
                .max_by_key(|&w| self.lock(w).len())?;
            // NB: bind before matching — a guard in the match scrutinee
            // would live through the arms and self-deadlock on re-lock.
            let stolen = self.lock(victim).pop_back();
            match stolen {
                Some(i) => return Some(i),
                None => {
                    // The victim drained between scan and steal; if every
                    // deque is now empty we are done.
                    if (0..self.deques.len()).all(|w| self.lock(w).is_empty()) {
                        return None;
                    }
                }
            }
        }
    }

    fn lock(&self, w: usize) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
        self.deques[w].lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Run `f(0..n)` on a work-stealing pool of `jobs` scoped threads and
/// return the results **in index order**. `jobs <= 1` (or `n <= 1`)
/// degenerates to a plain serial loop — same results, same order.
pub fn run_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 {
        return (0..n).map(f).collect();
    }
    let queue = StealQueue::new(n, jobs);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let f = &f;
    let queue = &queue;
    let slots = &slots;
    std::thread::scope(|scope| {
        for w in 0..jobs {
            scope.spawn(move || {
                while let Some(i) = queue.pop(w) {
                    let v = f(i);
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
                }
            });
        }
    });
    slots
        .iter()
        .map(|m| {
            m.lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("every dealt task ran exactly once")
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
    /// Run a subset of experiments concurrently on `jobs` work-stealing
    /// workers, each under a root span `exp:<id>` on its **own** enabled
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
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn steal_queue_hands_out_every_index_exactly_once() {
        for (n, workers) in [(0, 1), (1, 4), (7, 2), (21, 4), (100, 8)] {
            let q = StealQueue::new(n, workers);
            let seen = Mutex::new(vec![0usize; n]);
            std::thread::scope(|s| {
                for w in 0..workers {
                    let q = &q;
                    let seen = &seen;
                    s.spawn(move || {
                        while let Some(i) = q.pop(w) {
                            seen.lock().unwrap()[i] += 1;
                        }
                    });
                }
            });
            let seen = seen.into_inner().unwrap();
            assert!(
                seen.iter().all(|&c| c == 1),
                "n={n} workers={workers}: counts {seen:?}"
            );
        }
    }

    #[test]
    fn idle_workers_steal_from_loaded_victims() {
        // Worker 1 never pops its own share; worker 0 must drain
        // everything (its own deque first, then steals).
        let q = StealQueue::new(10, 2);
        let mut got = Vec::new();
        while let Some(i) = q.pop(0) {
            got.push(i);
        }
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(q.pop(1), None);
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
