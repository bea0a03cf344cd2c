//! Order statistics over timing samples.

/// Sort a sample in place (NaN-free by construction: samples are durations
/// and ratios of positive durations).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

/// The `p`-quantile (0 ≤ p ≤ 1) by linear interpolation between closest
/// ranks. An empty sample has none: publishing one as 0 would read as a
/// latency of 0, so it is a bug of the caller and panics.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(values), p)
}

pub fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "order statistic of an empty sample");
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the "exclusive" method) computes them — the driver's spread rule.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (v[0], v[0]);
    }
    let q = |i: usize| {
        // position i·(n+1)/4 on 1-based ranks, clamped into the sample
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(3))
}

/// Inter-quartile range as a share of the median.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.95), 96.0);
        assert_eq!(percentile(&v, 1.0), 101.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn an_empty_sample_has_no_median() {
        median(&[]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        let (q1, q3) = quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]);
        assert!((q1 - 15.0).abs() < 1e-12 && (q3 - 120.0).abs() < 1e-12);
        assert!((iqr_over_median(&v) - 1.0).abs() < 1e-12);
    }
}
