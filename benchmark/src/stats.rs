//! Order statistics for the timed passes.

/// Ops per timed pass in a full run. A pass reports p95, and a
/// percentile is only reported when at least ten samples lie beyond it:
/// 200 is the smallest round count for which p95 qualifies.
pub const MIN_OPS_PER_PASS: usize = 200;

/// The tail percentile every pass reports.
pub const TAIL_PERCENTILE: f64 = 95.0;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile.
#[cfg(test)]
fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Median (mean of the two middle samples when the count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles by the method of Python's `statistics.quantiles(v, n=4)`
/// (exclusive), which is what the benchmark driver and `spread.py` use:
/// the i-th quartile sits at position `i·(n+1)/4`, interpolated, and
/// positions outside the data extrapolate from the nearest pair.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (n, m) = (v.len(), v.len() + 1);
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Spread of the per-pass values as a share of their median: the
/// distance between the first and third quartile over the median. With
/// three passes that is `(max − min) / median`. 0 for fewer than two
/// values or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    ratio(q3 - q1, q2.abs())
}

/// `num / den`, or 0 when the layer did no work on this workload.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        // Five samples: p50 is the third, p95 the fifth.
        let w = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&w, 50.0), 3.0);
        assert_eq!(percentile(&w, 95.0), 5.0);
    }

    #[test]
    fn a_full_pass_has_ten_samples_beyond_its_tail_percentile() {
        assert_eq!(samples_beyond(MIN_OPS_PER_PASS, TAIL_PERCENTILE), 10);
        // One op fewer and the rule fails; p99 would need 1000 ops.
        assert!(samples_beyond(MIN_OPS_PER_PASS - 1, TAIL_PERCENTILE) < 10);
        assert_eq!(samples_beyond(MIN_OPS_PER_PASS, 99.0), 2);
        assert_eq!(samples_beyond(1000, 99.0), 10);
    }

    #[test]
    fn median_of_passes_ignores_the_disturbed_one() {
        assert_eq!(median(&[7.9, 31.0, 7.8]), 7.9);
        assert_eq!(median(&[2.0, 4.0]), 3.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([9, 10, 12], n=4) == [9.0, 10.0, 12.0]
        assert_eq!(quartiles(&[12.0, 9.0, 10.0]), [9.0, 10.0, 12.0]);
        // statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[2.0, 4.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn spread_is_interquartile_range_over_median() {
        assert_eq!(spread(&[9.0, 10.0, 12.0]), 0.3);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), 1.0);
        assert_eq!(spread(&[4.0]), 0.0);
        assert_eq!(spread(&[]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
