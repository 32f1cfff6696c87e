//! Cross-machine portability smoke: the registry must run to completion
//! on **every** machine preset — not just the five MATRIX columns — with
//! no panics and no phantom-route hits, and the `sierra` baseline column
//! must be bitwise-identical to the committed golden documents, in paper
//! order (machine parameterisation is an extension, never a perturbation,
//! of the single-machine paths).
//!
//! One `run_matrix` call covers all of it: the baseline column re-executes
//! the full registry on sierra, every other column re-executes only the
//! machine-sensitive experiments (`pipeline-overlap`, `um-oversubscription`,
//! `collective-overlap`) and reuses the baseline cells for the rest — the
//! design that keeps a 16-preset sweep inside a unit-test budget. The same
//! matrix's per-column summary lines (what `experiments matrix` prints)
//! are checked here too.

use hetsim::machines::preset_names;
use icoe::exp::document_json;
use icoe::{Cell, ExpParams};
use xtests::golden;

#[test]
fn registry_survives_every_preset_and_sierra_matches_the_goldens() {
    let reg = bench::registry();
    let names = preset_names();
    assert_eq!(names[0], "sierra", "sierra anchors the baseline column");
    let matrix = reg.run_matrix(&names, 4, &ExpParams::default());
    assert_eq!(matrix.columns.len(), names.len());

    let sensitive = [
        "pipeline-overlap",
        "um-oversubscription",
        "collective-overlap",
    ];
    for (i, col) in matrix.columns.iter().enumerate() {
        let (ran, reused, failed) = col.tally();
        assert_eq!(failed, 0, "failing cells on {}", col.machine);
        assert_eq!(
            col.phantom_hits(),
            0.0,
            "{} costed a transfer over undeclared hardware",
            col.machine
        );
        if i == 0 {
            assert_eq!((ran, reused), (bench::ALL.len(), 0));
        } else {
            assert_eq!(ran, sensitive.len(), "{} re-ran the wrong set", col.machine);
            for cell in &col.cells {
                match cell {
                    Cell::Ran(run) => assert!(sensitive.contains(&run.id)),
                    Cell::Reused { id, baseline } => {
                        assert!(!sensitive.contains(id));
                        assert_eq!(matrix.baseline().cells[*baseline].id(), *id);
                    }
                }
            }
        }
    }

    // Each column's summary line, as `experiments matrix` prints it.
    let all = bench::ALL.len();
    for (i, col) in matrix.columns.iter().enumerate() {
        let want = if i == 0 {
            format!("sierra         ran {all}  reused  0  failed 0  phantom_link_hits 0")
        } else {
            format!(
                "{:<14} ran  3  reused {:>2}  failed 0  phantom_link_hits 0",
                col.machine,
                all - sensitive.len()
            )
        };
        assert_eq!(col.summary(false), want);
    }
    assert_eq!(
        matrix.baseline().summary(true),
        format!(
            "{{\"machine\":\"sierra\",\"ran\":{all},\"reused\":0,\"failed\":0,\"phantom_link_hits\":0}}"
        )
    );

    // The sierra column IS the single-machine suite, byte for byte, in
    // paper order.
    let baseline = &matrix.baseline().cells;
    assert_eq!(baseline.len(), all);
    for (cell, &id) in baseline.iter().zip(bench::ALL) {
        let Cell::Ran(run) = cell else {
            panic!("baseline reuses nothing")
        };
        assert_eq!(run.id, id, "sierra column out of paper order");
        let out = run.outcome.as_ref().expect("baseline cell succeeded");
        let doc = document_json(run.id, &out.report, &out.recorder, 0.0);
        golden::assert_matches(id, "sierra matrix cell", &doc);
    }
}
