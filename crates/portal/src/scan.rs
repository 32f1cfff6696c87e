//! Parallel scans and min/max reductions (the rest of RAJA's reducer
//! family used by the iCoE codes: CFL reductions in CleverLeaf/SW4, max
//! errors in solvers, compaction scans in MD neighbor builds).

use crate::exec::{chunks, chunks_mut, fork_join};

/// Deterministic parallel exclusive prefix sum (Blelloch two-pass over
/// chunks). `out[i] = sum of in[0..i]`; returns the total.
pub fn exclusive_scan(input: &[f64], out: &mut [f64], threads: usize) -> f64 {
    assert_eq!(input.len(), out.len());
    let n = input.len();
    let Some(chunks) = chunks(n, threads, 2048) else {
        let mut acc = 0.0;
        for i in 0..n {
            out[i] = acc;
            acc += input[i];
        }
        return acc;
    };
    // Pass 1: per-chunk sums.
    let sums = fork_join(chunks.clone(), |r| input[r].iter().sum::<f64>());
    // Chunk offsets (serial over `threads` entries).
    let mut offsets = vec![0.0f64; sums.len()];
    let mut acc = 0.0;
    for (offset, sum) in offsets.iter_mut().zip(&sums) {
        *offset = acc;
        acc += sum;
    }
    // Pass 2: local scans with offsets.
    fork_join(chunks_mut(out, chunks).zip(offsets), |((r, part), base)| {
        let mut local = base;
        for (o, &v) in part.iter_mut().zip(&input[r]) {
            *o = local;
            local += v;
        }
    });
    acc
}

/// Parallel min-reduction of `f(i)` over `0..n` (deterministic: min is
/// associative and commutative).
pub fn reduce_min<F>(n: usize, threads: usize, f: &F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    reduce_by(n, threads, f, f64::INFINITY, f64::min)
}

/// Parallel max-reduction of `f(i)` over `0..n`.
pub fn reduce_max<F>(n: usize, threads: usize, f: &F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    reduce_by(n, threads, f, f64::NEG_INFINITY, f64::max)
}

fn reduce_by<F>(n: usize, threads: usize, f: &F, init: f64, op: fn(f64, f64) -> f64) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    let Some(chunks) = chunks(n, threads, 1024) else {
        return (0..n).map(f).fold(init, op);
    };
    let partials = fork_join(chunks, |r| {
        let mut acc = init;
        for i in r {
            acc = op(acc, f(i));
        }
        acc
    });
    partials.into_iter().fold(init, op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_matches_serial_reference() {
        let n = 10_000;
        let input: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let mut par = vec![0.0; n];
        let mut ser = vec![0.0; n];
        let t_par = exclusive_scan(&input, &mut par, 8);
        let t_ser = exclusive_scan(&input, &mut ser, 1);
        assert_eq!(par, ser);
        assert!((t_par - t_ser).abs() < 1e-9);
    }

    #[test]
    fn scan_of_ones_is_indices() {
        let input = vec![1.0; 5000];
        let mut out = vec![0.0; 5000];
        let total = exclusive_scan(&input, &mut out, 4);
        assert_eq!(total, 5000.0);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as f64);
        }
    }

    #[test]
    fn empty_scan_is_zero() {
        let mut out: Vec<f64> = vec![];
        assert_eq!(exclusive_scan(&[], &mut out, 4), 0.0);
    }

    #[test]
    fn min_max_reductions() {
        let vals: Vec<f64> = (0..50_000)
            .map(|i| ((i * 37) % 1000) as f64 - 321.0)
            .collect();
        let vs = &vals;
        let mn = reduce_min(vals.len(), 8, &|i| vs[i]);
        let mx = reduce_max(vals.len(), 8, &|i| vs[i]);
        assert_eq!(mn, -321.0);
        assert_eq!(mx, 678.0);
    }

    #[test]
    fn reductions_match_serial_for_odd_sizes() {
        for n in [1usize, 2, 1023, 1025, 4097] {
            let f = |i: usize| ((i * 1103515245 + 12345) % 1000) as f64;
            assert_eq!(
                reduce_min(n, 8, &f),
                (0..n).map(f).fold(f64::INFINITY, f64::min)
            );
            assert_eq!(
                reduce_max(n, 8, &f),
                (0..n).map(f).fold(f64::NEG_INFINITY, f64::max)
            );
        }
    }
}
