//! The committed golden documents under `tests/golden/`: one
//! `icoe-experiment-v1` document per registered experiment, wall time
//! zeroed, written by the serial registry pass of
//! `tests/tests/golden_determinism.rs`. Every test that re-runs the
//! registry (the parallel engine at several worker counts, the matrix's
//! sierra column) compares its documents with these files, so a stale
//! golden fails each of them with the regeneration command.

use std::path::{Path, PathBuf};

/// How to rewrite the goldens after an intentional output change.
pub const REGENERATE: &str = "UPDATE_GOLDEN=1 cargo test -p xtests --test golden_determinism";

/// The committed snapshot file for one experiment id.
pub fn path(id: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{id}.json"))
}

/// The committed document for one experiment id, without its trailing
/// newline.
pub fn read(id: &str) -> String {
    let path = path(id);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} for '{id}' ({e}); regenerate with {REGENERATE}",
            path.display()
        )
    });
    text.trim_end_matches('\n').to_string()
}

/// Largest char boundary <= `i` (documents contain multi-byte glyphs).
fn floor_boundary(s: &str, mut i: usize) -> usize {
    i = i.min(s.len());
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

fn window(s: &str, at: usize) -> &str {
    let lo = floor_boundary(s, at.saturating_sub(60));
    let hi = floor_boundary(s, at + 60);
    &s[lo..hi]
}

/// Assert that `doc`, produced by `label` (e.g. "jobs=8"), is exactly the
/// committed golden of `id`; on mismatch, panic naming the first diverging
/// line with a byte window into it (documents are one long line).
pub fn assert_matches(id: &str, label: &str, doc: &str) {
    let golden = read(id);
    if golden == doc {
        return;
    }
    let (mut gl, mut dl) = (golden.lines(), doc.lines());
    let mut lineno = 0usize;
    loop {
        lineno += 1;
        let (g, d) = (gl.next(), dl.next());
        if g == d {
            if g.is_none() {
                panic!("{id}: {label} differs from the golden only in trailing whitespace");
            }
            continue;
        }
        let g = g.unwrap_or("<end of document>");
        let d = d.unwrap_or("<end of document>");
        let at = g
            .bytes()
            .zip(d.bytes())
            .position(|(p, q)| p != q)
            .unwrap_or(g.len().min(d.len()));
        panic!(
            "{id}: {label} diverges from the committed golden at line {lineno}, byte {at}\n  \
             golden: ...{}...\n  {label}: ...{}...\n\
             (intentional change? regenerate with {REGENERATE})",
            window(g, at),
            window(d, at),
        );
    }
}
