//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank definition: the p-th percentile of
//! `n` sorted samples is the sample at rank `ceil(p/100 · n)`. A tail
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it, so one outlier can never be the whole tail.

/// Samples that must lie strictly beyond a tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// The smallest sample count for which percentile `p` is a valid tail.
#[must_use]
pub fn min_samples(p: f64) -> usize {
    (MIN_BEYOND..).find(|&n| beyond(n, p) >= MIN_BEYOND).expect("every p < 100 has a valid count")
}

/// The nearest-rank percentile of already sorted samples (NaN when empty).
#[must_use]
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The nearest-rank percentile `p` as a tail: `None` unless at least
/// [`MIN_BEYOND`] samples lie beyond it.
#[must_use]
pub fn tail(sorted: &[f64], p: f64) -> Option<f64> {
    (beyond(sorted.len(), p) >= MIN_BEYOND).then(|| nearest_rank(sorted, p))
}

/// Sorts samples ascending (times are never NaN).
#[must_use]
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of unsorted samples.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values.to_vec()), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 75.0), 8.0);
        assert_eq!(nearest_rank(&v, 99.0), 10.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
        assert!(nearest_rank(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(75.0), 40);
        assert_eq!(min_samples(99.0), 1000);
        assert_eq!(min_samples(50.0), 20);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(beyond(40, 75.0), 10);
        assert_eq!(tail(&v, 75.0), Some(30.0));
        assert_eq!(tail(&v[..39], 75.0), None);
        assert_eq!(tail(&v, 99.0), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&many, 99.0), Some(990.0));
    }
}
