//! Order statistics the benchmark reports: medians, quartiles and the tail
//! percentile that still has enough samples beyond it to mean something.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the benchmark's own spread figures match an external check.
///
/// # Panics
///
/// Panics with fewer than two samples or a NaN sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        // Python's arithmetic: rank j = i·(n+1) div 4 clamped to [1, n-1],
        // then interpolate (or extrapolate, at the clamp) by delta/4.
        let im = (i + 1) * (n + 1);
        let j = (im / 4).clamp(1, n - 1);
        let delta = im as f64 - (j * 4) as f64;
        *q = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice, a NaN sample or `p` outside `(0, 100]`.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    assert!(p > 0 && p <= 100, "percentile must be in (0, 100]");
    let sorted = sorted(values);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The highest whole percentile in `[50, 99]` that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples strictly beyond its nearest rank, or
/// `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| n - nearest_rank(n, p) >= TAIL_MIN_BEYOND)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: u32) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    ((p as usize * n).div_ceil(100)).max(1)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistic of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // Small samples extrapolate at the clamp, as Python does:
        // quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50), 3.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p91 only 9.
        assert_eq!(tail_percentile(100), Some(90));
        // 144 samples: p93 is rank 134 (10 beyond); p94 is rank 136 (8).
        assert_eq!(tail_percentile(144), Some(93));
        // 1000 samples reach p99 (rank 990, 10 beyond).
        assert_eq!(tail_percentile(1000), Some(99));
        // 20 samples: the median (rank 10) leaves 10 beyond.
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        for n in 20..2000 {
            let p = tail_percentile(n).expect("n >= 20 always has a tail");
            assert!(n - nearest_rank(n, p) >= TAIL_MIN_BEYOND);
            if p < 99 {
                assert!(n - nearest_rank(n, p + 1) < TAIL_MIN_BEYOND);
            }
        }
    }
}
