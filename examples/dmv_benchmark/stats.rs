//! Order statistics over exact samples: percentiles with the
//! ten-samples-beyond rule, and the quartile spread the acceptance
//! check is defined on.

/// Samples that must lie beyond a percentile before it is reported
/// (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice, together with the
/// number of samples strictly beyond its rank. `None` on empty input.
pub fn percentile(sorted: &[u64], p: f64) -> Option<(u64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some((sorted[rank - 1], sorted.len() - rank))
}

/// [`percentile`], but only when at least [`MIN_BEYOND`] samples lie
/// beyond it — a p99 of 200 samples is two data points, not a metric.
pub fn supported_percentile(sorted: &[u64], p: f64) -> Option<u64> {
    percentile(sorted, p).filter(|&(_, beyond)| beyond >= MIN_BEYOND).map(|(v, _)| v)
}

/// Median of unsorted values (mean of the middle pair when even).
/// NaN on empty input.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of integer samples as `f64`.
pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// Quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the acceptance check is stated in those terms. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a metric's bound is compared against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some((50, 50)));
        assert_eq!(percentile(&v, 0.99), Some((99, 1)));
        assert_eq!(percentile(&v, 1.0), Some((100, 0)));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7], 0.99), Some((7, 0)));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        let v: Vec<u64> = (1..=1000).collect();
        // p99 of 1000: rank 990, exactly ten beyond.
        assert_eq!(supported_percentile(&v, 0.99), Some(990));
        // One sample fewer and the p99 is no longer supported ...
        assert_eq!(supported_percentile(&v[..999], 0.99), None);
        // ... while the p90 of the same samples still is.
        assert_eq!(supported_percentile(&v[..999], 0.90), Some(900));
        // ~200 update samples: a p99 has two samples beyond it.
        assert_eq!(supported_percentile(&v[..200], 0.99), None);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(median_u64(&[10, 30]), 20.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some([1.5, 4.0, 12.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
