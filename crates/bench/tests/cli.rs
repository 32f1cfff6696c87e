//! End-to-end tests of the `experiments` binary: structured JSON output
//! and the `BENCH_<id>.json` summary sink (ISSUE acceptance criteria).

use std::path::Path;
use std::process::Command;

use hetsim::obs::json;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

/// Cheap ids that exercise four different exps modules.
const JSON_IDS: &[&str] = &["table1", "machines", "fig8", "pipeline-overlap"];

#[test]
fn json_flag_emits_a_parsable_experiment_document() {
    for id in JSON_IDS {
        let out = bin().args([id, "--json"]).output().expect("binary runs");
        assert!(out.status.success(), "{id} exited nonzero: {out:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        let doc = json::parse(stdout.trim()).unwrap_or_else(|e| panic!("{id}: bad JSON: {e}"));
        assert_eq!(
            doc.get("experiment").and_then(json::Value::as_str),
            Some(*id)
        );
        assert_eq!(
            doc.get("schema").and_then(json::Value::as_str),
            Some("icoe-experiment-v1")
        );
        let tables = doc
            .get("tables")
            .and_then(json::Value::as_array)
            .expect("tables");
        assert!(!tables.is_empty(), "{id} produced no tables");
        let span_count = doc
            .get("span_count")
            .and_then(json::Value::as_f64)
            .expect("span_count");
        assert!(span_count >= 1.0, "{id} ran without a root span");
    }
}

#[test]
fn fig8_bench_dir_writes_a_valid_summary() {
    let dir = std::env::temp_dir().join(format!("icoe-bench-cli-{}", std::process::id()));
    let out = bin()
        .args(["fig8", "--json", "--bench-dir"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "fig8 exited nonzero: {out:?}");
    let path = dir.join("BENCH_fig8.json");
    let text = std::fs::read_to_string(&path).expect("summary file written");
    let doc = json::parse(&text).expect("summary parses");
    assert_eq!(
        doc.get("experiment").and_then(json::Value::as_str),
        Some("fig8")
    );
    assert_eq!(
        doc.get("schema").and_then(json::Value::as_str),
        Some("icoe-bench-v1")
    );
    assert!(
        doc.get("wall_s")
            .and_then(json::Value::as_f64)
            .expect("wall_s")
            > 0.0
    );
    let gauges = doc.get("gauges").expect("gauges");
    assert!(
        gauges
            .get("fig8.total_speedup")
            .and_then(json::Value::as_f64)
            .expect("speedup gauge")
            > 1.0,
        "GPU should beat one P8 thread"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pipeline_overlap_timeline_shows_copy_engine_tracks() {
    let out = bin()
        .args(["pipeline-overlap", "--timeline"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "pipeline-overlap exited nonzero: {out:?}"
    );
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    for track in ["gpu0.h2d", "gpu0.d2h", "gpu0.s0"] {
        assert!(
            stderr.contains(track),
            "timeline missing track {track}:\n{stderr}"
        );
    }
}

#[test]
fn um_oversubscription_timeline_shows_um_migrations_on_copy_engines() {
    // ISSUE 3 acceptance: UM migrations appear as engine-track spans on
    // `--timeline` output, and the memory gauges ride into the summary.
    let dir = std::env::temp_dir().join(format!("icoe-bench-um-{}", std::process::id()));
    let out = bin()
        .args(["um-oversubscription", "--json", "--timeline", "--bench-dir"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "um-oversubscription exited nonzero: {out:?}"
    );
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    for track in ["gpu0.h2d", "gpu0.d2h"] {
        assert!(
            stderr.contains(track),
            "timeline missing track {track}:\n{stderr}"
        );
    }
    let text = std::fs::read_to_string(dir.join("BENCH_um-oversubscription.json"))
        .expect("summary file written");
    let doc = json::parse(&text).expect("summary parses");
    let gauges = doc.get("gauges").expect("gauges");
    let cliff = gauges
        .get("um.cliff_ratio_1_5x")
        .and_then(json::Value::as_f64)
        .expect("cliff gauge");
    assert!(cliff >= 3.0, "1.5x oversubscription cliff only {cliff}x");
    assert!(
        gauges.get("mem.gpu0.high_water").is_some(),
        "mem gauges missing from summary"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn collective_overlap_timeline_shows_nic_injection_tracks() {
    // ISSUE 4 acceptance: non-blocking collectives and congested p2p
    // flows land on per-rank `nic<r>.inj` tracks, and the headline
    // overlapped-vs-flat speedup gauge rides into the summary.
    let dir = std::env::temp_dir().join(format!("icoe-bench-net-{}", std::process::id()));
    let out = bin()
        .args(["collective-overlap", "--json", "--timeline", "--bench-dir"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "collective-overlap exited nonzero: {out:?}"
    );
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    for track in ["nic0.inj", "nic1.inj"] {
        assert!(
            stderr.contains(track),
            "timeline missing track {track}:\n{stderr}"
        );
    }
    let text = std::fs::read_to_string(dir.join("BENCH_collective-overlap.json"))
        .expect("summary file written");
    let doc = json::parse(&text).expect("summary parses");
    let gauges = doc.get("gauges").expect("gauges");
    let speedup = gauges
        .get("collective.speedup_64n_256m")
        .and_then(json::Value::as_f64)
        .expect("speedup gauge");
    assert!(
        speedup >= 1.5,
        "overlapped hier allreduce only {speedup}x over flat blocking"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn list_enumerates_the_registry_with_artifacts() {
    let out = bin().arg("list").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    for id in bench::ALL {
        assert!(stdout.contains(id), "list missing id {id}");
    }
    assert!(
        stdout.contains("Fig. 8"),
        "list missing paper artifact column"
    );
}

#[test]
fn unknown_id_exits_nonzero() {
    let out = bin().arg("nope").output().expect("binary runs");
    assert!(!out.status.success());
}

/// Zero out every `"elapsed_s":<number>` field as the golden documents
/// do — wall time is the one legitimately nondeterministic byte sequence
/// in a document stream.
fn normalize_elapsed(s: &str) -> String {
    const KEY: &str = "\"elapsed_s\":";
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find(KEY) {
        let tail = &rest[at + KEY.len()..];
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(tail.len());
        out.push_str(&rest[..at]);
        out.push_str(KEY);
        out.push_str(&json::num(0.0));
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// `all --json --jobs 4` emits exactly one document per registered
/// experiment, in paper order, each — modulo wall time — byte-identical
/// to its committed golden under `tests/golden/`, which is the serial
/// (`--jobs 1`) document.
#[test]
fn all_json_jobs4_is_byte_identical_to_jobs1_in_paper_order() {
    let out = bin()
        .args(["all", "--json", "--jobs", "4"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "--jobs 4 exited nonzero: {out:?}");
    let stream = normalize_elapsed(&String::from_utf8(out.stdout).expect("utf8"));
    let docs: Vec<&str> = stream.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(docs.len(), bench::ALL.len(), "one JSON document per id");
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    for (doc, &id) in docs.iter().zip(bench::ALL) {
        let path = golden_dir.join(format!("{id}.json"));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {} ({e})", path.display()));
        assert!(
            *doc == golden.trim_end_matches('\n'),
            "document {id} of the --jobs 4 stream differs from {} (stale golden? \
             regenerate with UPDATE_GOLDEN=1 cargo test -p xtests --test golden_determinism)",
            path.display()
        );
    }
}

#[test]
fn bad_jobs_argument_exits_with_usage_error() {
    for args in [&["all", "--jobs", "0"][..], &["all", "--jobs"][..]] {
        let out = bin().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--jobs"),
            "{args:?} should explain the flag"
        );
    }
}
