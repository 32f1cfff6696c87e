//! Golden-file conformance suite: one serial pass over the registry, each
//! experiment under a fresh enabled recorder, and every structured JSON
//! document must be byte-identical to the snapshot committed under
//! `tests/golden/<id>.json`. This pins down the whole stack — table cell
//! formatting, counter/gauge names and values, span bookkeeping — so a
//! seed change or an accidental wall-clock leak into a table shows up as
//! a first-diverging-line diff rather than flaky artifact files.
//!
//! Regenerate the snapshots after an intentional output change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p xtests --test golden_determinism
//! ```
//!
//! Wall time is the one legitimately nondeterministic input, so the
//! comparison fixes `elapsed_s = 0.0`; experiments that *measure* host
//! kernels report those numbers on stderr, never in tables (see
//! `bench::exps_core::table2` and `bench::exps_apps::cardioid`).
//!
//! This is the suite's one enabled-recorder serial pass, shared by its
//! tests. The parallel engine's passes (`par_props.rs` at 2 and 8
//! workers, `machine_matrix.rs`'s sierra column at 4, the binary's
//! `all --jobs 4` in `crates/bench/tests/cli.rs`) compare their documents with the same committed files, so re-running
//! the registry is byte-stable at every worker count.

use hetsim::obs::Recorder;
use icoe::exp::document_json;
use std::path::Path;
use std::sync::OnceLock;
use xtests::golden;

/// The suite's one serial registry pass, run once and shared by the
/// tests below: each experiment's canonical document, in paper order.
fn serial_documents() -> &'static [(&'static str, String)] {
    static DOCS: OnceLock<Vec<(&'static str, String)>> = OnceLock::new();
    DOCS.get_or_init(|| {
        bench::ALL
            .iter()
            .map(|&id| {
                let mut rec = Recorder::enabled();
                let report = bench::run_with_recorder(id, &mut rec)
                    .unwrap_or_else(|| panic!("{id} not registered"));
                (id, document_json(id, &report, &rec, 0.0))
            })
            .collect()
    })
}

/// The committed-golden contract: each document of the serial pass is
/// exactly the checked-in snapshot. `UPDATE_GOLDEN=1` rewrites the
/// snapshots instead of comparing.
#[test]
fn every_experiment_document_matches_its_committed_golden_file() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    for (id, doc) in serial_documents() {
        if update {
            let path = golden::path(id);
            std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir tests/golden");
            std::fs::write(&path, format!("{doc}\n")).expect("write golden file");
        } else {
            golden::assert_matches(id, "regenerated", doc);
        }
    }
}

/// Every document of the serial pass is schema-tagged and carries its
/// tables and a metrics section.
#[test]
fn documents_carry_tables_and_metrics_for_every_experiment() {
    for (id, doc) in serial_documents() {
        assert!(
            doc.contains("\"schema\":\"icoe-experiment-v1\""),
            "{id} document missing schema tag"
        );
        assert!(doc.contains("\"tables\":["), "{id} document has no tables");
        assert!(
            doc.contains("\"gauges\":{"),
            "{id} document has no metrics section"
        );
    }
}

/// No stale snapshots: every file in tests/golden/ names a registered
/// experiment (catches renamed/removed experiments leaving orphans).
#[test]
fn golden_directory_has_no_orphan_snapshots() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    for entry in std::fs::read_dir(&dir).expect("tests/golden is committed") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        let id = name
            .strip_suffix(".json")
            .unwrap_or_else(|| panic!("unexpected file in tests/golden: {name}"));
        assert!(
            bench::ALL.contains(&id),
            "tests/golden/{name} does not match any registered experiment"
        );
    }
}
