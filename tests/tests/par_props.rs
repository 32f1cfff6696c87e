//! The work-stealing experiment engine: at 2 and 8 workers every
//! experiment's structured JSON document comes back in paper order,
//! byte-identical to the committed golden (the serial document
//! `golden_determinism.rs` writes), plus a panic-isolation check that one
//! failing experiment never takes the rest of the batch down. One worker
//! is the serial path of the panic-isolation test and the golden pass;
//! four workers run the matrix's sierra column (`machine_matrix.rs`).

use icoe::exp::document_json;
use icoe::{FnExperiment, Registry, Report, Table};
use xtests::golden;

/// For every jobs value the schedule (and hence the worker interleaving)
/// differs, but the per-experiment documents must not: each one is
/// byte-identical to the serial golden, in registration (= paper) order.
#[test]
fn any_worker_count_matches_the_serial_documents() {
    for jobs in [2usize, 8] {
        let runs = bench::registry().run_all_parallel(jobs);
        assert_eq!(runs.len(), bench::ALL.len(), "jobs={jobs}");
        for (run, &id) in runs.iter().zip(bench::ALL) {
            assert_eq!(
                run.id, id,
                "jobs={jobs}: emission order must be paper order"
            );
            let out = run
                .outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("{id} failed under jobs={jobs}: {e}"));
            let doc = document_json(id, &out.report, &out.recorder, 0.0);
            golden::assert_matches(id, &format!("jobs={jobs}"), &doc);
        }
    }
}

const BOOM: &str = "par_props: deliberate test panic";

fn quiet_exp(id: &'static str) -> FnExperiment {
    FnExperiment {
        id,
        paper_artifact: "Test fixture",
        f: |rec, _params| {
            rec.incr("work", 1.0);
            let mut t = Table::new("fixture", &["k", "v"]);
            t.row_strs(&["work", "1"]);
            Report::new(vec![t])
        },
    }
}

/// One panicking experiment in the middle of a batch is reported as an
/// `Err` outcome carrying its panic message, while every other experiment
/// still completes with a full report + recorder — on both the serial
/// fallback (jobs=1) and the work-stealing pool (jobs=4).
#[test]
fn a_panicking_experiment_never_takes_the_batch_down() {
    let mut reg = Registry::new();
    reg.register(quiet_exp("ok_a"));
    reg.register(FnExperiment {
        id: "boom",
        paper_artifact: "Test fixture",
        f: |_, _| panic!("{BOOM}"),
    });
    reg.register(quiet_exp("ok_b"));

    // Silence only our own deliberate panic; anything else still prints.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|info| {
        let ours = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains(BOOM));
        if !ours {
            eprintln!("{info}");
        }
    }));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for jobs in [1usize, 4] {
            let runs = reg.run_all_parallel(jobs);
            assert_eq!(runs.len(), 3, "jobs={jobs}");
            assert_eq!(runs[0].id, "ok_a");
            assert_eq!(runs[1].id, "boom");
            assert_eq!(runs[2].id, "ok_b");
            for run in [&runs[0], &runs[2]] {
                let out = run
                    .outcome
                    .as_ref()
                    .unwrap_or_else(|e| panic!("jobs={jobs}: {} failed: {e}", run.id));
                assert_eq!(out.report.tables.len(), 1, "jobs={jobs}");
                assert_eq!(out.recorder.counter("work"), 1.0, "jobs={jobs}");
                assert_eq!(out.recorder.span_count(), 1, "jobs={jobs}: root span only");
            }
            let err = runs[1]
                .outcome
                .as_ref()
                .err()
                .unwrap_or_else(|| panic!("jobs={jobs}: boom should fail"));
            assert!(
                err.contains(BOOM),
                "jobs={jobs}: error should carry the panic message, got {err:?}"
            );
        }
    }));
    std::panic::set_hook(prev);
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}
