//! The benchmark's own arithmetic: order statistics over repeated
//! measurements, per-call attribution of layer calls timed from outside,
//! and the digest that pins simulator outputs.

use std::collections::BTreeMap;
use std::time::Instant;

/// Median of `xs` (the mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(xs, n=4)` computes them (its default
/// "exclusive" method), the rule the benchmark's spread is judged by.
/// `None` for fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let len = v.len() as i64;
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median: the
/// run-to-run spread a metric's bound has to cover.
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let mid = median(xs);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// Fold one pass's unit times into the best time of each unit so far.
/// Every pass must time the same number of units.
pub fn keep_best(best: &mut Vec<f64>, units: &[f64]) -> Result<(), String> {
    if best.is_empty() {
        best.extend_from_slice(units);
    } else if best.len() != units.len() {
        return Err(format!(
            "a pass timed {} units, the first {}",
            units.len(),
            best.len()
        ));
    } else {
        for (b, u) in best.iter_mut().zip(units) {
            *b = b.min(*u);
        }
    }
    if best.is_empty() {
        return Err("a pass timed no units".to_string());
    }
    Ok(())
}

/// Per-key medians over several measurement maps; a key missing from
/// some maps takes the median of the maps that have it.
pub fn median_by_key(samples: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut by_key: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for sample in samples {
        for (k, v) in sample {
            by_key.entry(k).or_default().push(*v);
        }
    }
    by_key
        .into_iter()
        .map(|(k, v)| (k.to_string(), median(&v)))
        .collect()
}

/// Mean nanoseconds per call of a layer timed from outside: the summed
/// intervals over the call count, less `floor_ns`, what one timed
/// interval over-reports ([`timer_floor_ns`]). Never negative; 0 for a
/// layer that was never called.
pub fn ns_per_call(total_ns: f64, calls: u64, floor_ns: f64) -> f64 {
    if calls == 0 {
        return 0.0;
    }
    (total_ns / calls as f64 - floor_ns).max(0.0)
}

/// Self time per item of a timed parent call: its duration less the
/// time its timed children took, over the items it produced. This is how
/// `ClusterSim` bookkeeping per placed job is derived: run time minus
/// `select` time. Never negative; 0 for no items.
pub fn self_ns_per_item(parent_ns: f64, children_ns: f64, items: u64) -> f64 {
    if items == 0 {
        return 0.0;
    }
    ((parent_ns - children_ns) / items as f64).max(0.0)
}

/// What one timed interval over-reports: the median of 1,001
/// back-to-back `Instant` readings.
pub fn timer_floor_ns() -> f64 {
    let samples: Vec<f64> = (0..1001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(relative_spread(&ten), Some(1.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: on tiny
        // samples the exclusive method extrapolates past the data.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn per_call_division_takes_off_the_timer_floor() {
        assert_eq!(ns_per_call(1_000.0, 10, 20.0), 80.0);
        assert_eq!(ns_per_call(100.0, 10, 20.0), 0.0, "never negative");
        assert_eq!(ns_per_call(5.0, 0, 0.0), 0.0, "no calls, no cost");
    }

    #[test]
    fn bookkeeping_is_run_minus_select_per_job() {
        // A 1 ms run with 0.25 ms inside select, 1,000 jobs: 750 ns each.
        assert_eq!(self_ns_per_item(1e6, 2.5e5, 1_000), 750.0);
        assert_eq!(self_ns_per_item(1e3, 2e3, 10), 0.0, "never negative");
        assert_eq!(self_ns_per_item(1e3, 0.0, 0), 0.0);
    }

    #[test]
    fn best_unit_times_fold_elementwise() {
        let mut best = Vec::new();
        keep_best(&mut best, &[3.0, 1.0]).unwrap();
        keep_best(&mut best, &[2.0, 4.0]).unwrap();
        assert_eq!(best, [2.0, 1.0]);
        assert!(keep_best(&mut best, &[1.0]).is_err(), "unit count changed");
        assert!(keep_best(&mut Vec::new(), &[]).is_err(), "no units");
    }

    #[test]
    fn per_key_medians_skip_missing_keys() {
        let a = BTreeMap::from([("x".to_string(), 1.0), ("y".to_string(), 5.0)]);
        let b = BTreeMap::from([("x".to_string(), 3.0)]);
        let m = median_by_key(&[a, b]);
        assert_eq!(m["x"], 2.0);
        assert_eq!(m["y"], 5.0);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(*b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
