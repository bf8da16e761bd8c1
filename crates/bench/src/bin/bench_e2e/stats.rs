//! Summary statistics over measured samples.

/// A percentile other than the median is reported only when at least this
/// many samples lie above it; otherwise the tail it names is a handful of
/// outliers, not a distribution.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count); 0 for
/// no values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `p`-quantile (`0 < p < 1`) of `values`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 above it: reported.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // p99 of 999 samples has 9 above it: withheld.
        assert_eq!(percentile(&v[..999], 0.99), None);
        // p90 needs 100 samples, p50 needs 20.
        assert_eq!(percentile(&v[..100], 0.90), Some(90.0));
        assert_eq!(percentile(&v[..99], 0.90), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }
}
