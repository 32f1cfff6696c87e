//! `perfbench compare`: medians, quartiles and spreads over saved runs
//! (each file the standard output of one run), optionally against a
//! second set. Results whose host fingerprints differ are refused: a
//! number compares only with one taken on the same host, toolchain and
//! build profile. The commit may differ; it is printed.

use std::collections::BTreeMap;

use icoe::hetsim::obs::json::{self, Value};

use crate::stats;

const USAGE: &str = "usage: perfbench compare --base RUN... [--head RUN...]";

/// One saved run.
struct Saved {
    /// The fingerprint without its commit.
    host: String,
    commit: String,
    /// name -> (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
}

fn load(path: &str) -> Result<Saved, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let stamp = text
        .lines()
        .find_map(|l| l.strip_prefix("fingerprint "))
        .ok_or_else(|| format!("{path}: no fingerprint line"))?;
    let stamp = json::parse(stamp).map_err(|e| format!("{path}: fingerprint: {e}"))?;
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    let result = json::parse(last).map_err(|e| format!("{path}: result line: {e}"))?;
    let Some(Value::Obj(fields)) = result.get("metrics") else {
        return Err(format!("{path}: the result line has no metrics"));
    };
    let field = |key: &str| match stamp.get(key) {
        Some(Value::Str(s)) => s.clone(),
        Some(Value::Num(n)) => n.to_string(),
        _ => "?".to_string(),
    };
    let metrics = fields
        .iter()
        .filter_map(|(name, m)| {
            let value = m.get("value")?.as_f64()?;
            let unit = m.get("unit")?.as_str()?;
            Some((name.clone(), (value, unit.to_string())))
        })
        .collect();
    Ok(Saved {
        host: format!(
            "nproc {}, {}, {}",
            field("nproc"),
            field("rustc"),
            field("profile")
        ),
        commit: field("commit"),
        metrics,
    })
}

pub fn run(args: &[String]) -> i32 {
    let mut files: [Vec<&str>; 2] = [Vec::new(), Vec::new()];
    let mut side = None;
    for a in args {
        match (a.as_str(), side) {
            ("--base", _) => side = Some(0),
            ("--head", _) => side = Some(1),
            (file, Some(i)) => files[i].push(file),
            (_, None) => {
                eprintln!("{USAGE}");
                return 2;
            }
        }
    }
    if files[0].is_empty() {
        eprintln!("{USAGE}");
        return 2;
    }
    let load_all = |set: &[&str]| set.iter().map(|f| load(f)).collect::<Result<Vec<_>, _>>();
    let (base, head) = match (load_all(&files[0]), load_all(&files[1])) {
        (Ok(b), Ok(h)) => (b, h),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return 1;
        }
    };
    let host = &base[0].host;
    if let Some(other) = base.iter().chain(&head).find(|s| s.host != *host) {
        eprintln!(
            "perfbench compare: refusing to compare results from different hosts:\n  {host}\n  {}",
            other.host
        );
        return 2;
    }
    println!("host: {host}");
    for (label, set) in [("base", &base), ("head", &head)] {
        let mut commits: Vec<&str> = set.iter().map(|s| s.commit.as_str()).collect();
        commits.sort_unstable();
        commits.dedup();
        if !set.is_empty() {
            println!("{label}: {} runs of {}", set.len(), commits.join(", "));
        }
    }
    print!(
        "{:<46} {:>6} {:>14} {:>14} {:>14} {:>8}",
        "metric", "unit", "median", "q1", "q3", "spread"
    );
    println!(
        "{}",
        if head.is_empty() {
            ""
        } else {
            "    head median  head/base"
        }
    );
    for (name, (_, unit)) in &base[0].metrics {
        let values = |set: &[Saved]| -> Vec<f64> {
            set.iter()
                .filter_map(|s| s.metrics.get(name).map(|m| m.0))
                .collect()
        };
        let b = values(&base);
        let mid = stats::median(&b);
        let (q1, q3) = stats::quartiles(&b).unwrap_or((mid, mid));
        let spread =
            stats::relative_spread(&b).map_or("-".to_string(), |s| format!("{:.2}%", 100.0 * s));
        print!("{name:<46} {unit:>6} {mid:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8}");
        let h = values(&head);
        if !h.is_empty() {
            let hm = stats::median(&h);
            print!(" {hm:>14.6} {:>10.4}", hm / mid);
        }
        println!();
    }
    0
}
