//! Order statistics for timings and run-to-run spreads.
//!
//! Latency percentiles use the nearest-rank definition, so a reported
//! percentile is always a measured sample. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (its default "exclusive"
//! method), the definition the benchmark's run-to-run spread check uses.

/// Samples that must lie beyond a reported tail percentile before it is
/// given a bound (the highest percentile with at least this many samples
/// beyond it is the bounded tail).
pub const MIN_TAIL_SAMPLES: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the two middle samples
/// of an even-sized set. `NaN` for an empty set.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The arithmetic mean (`NaN` for an empty set).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The 1-based nearest rank of percentile `p` (in `(0, 1]`) among `n`
/// samples: `ceil(p·n)`, clamped to `1..=n`.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank percentile `p` (in `(0, 1]`): the smallest sample
/// with at least a share `p` of the samples at or below it. `NaN` for an
/// empty set.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    v[nearest_rank(v.len(), p) - 1]
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// Whether percentile `p` of `n` samples has at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it.
pub fn tail_is_supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_TAIL_SAMPLES
}

/// Cut points dividing `values` into `groups` equal-probability groups,
/// exactly as Python's `statistics.quantiles(values, n=groups)` with its
/// default `method="exclusive"` computes them.
///
/// # Panics
///
/// Panics when `groups < 1` or fewer than two values are given.
pub fn quantiles(values: &[f64], groups: usize) -> Vec<f64> {
    assert!(groups >= 1, "need at least one group");
    let data = sorted(values);
    let ld = data.len();
    assert!(ld >= 2, "quantiles need at least two values");
    let m = ld + 1;
    (1..groups)
        .map(|i| {
            let j = (i * m / groups).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * groups) as f64;
            (data[j - 1] * (groups as f64 - delta) + data[j] * delta) / groups as f64
        })
        .collect()
}

/// The distance between the first and third quartile as a share of the
/// median — the run-to-run spread every end-to-end bound is set against.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let q = quantiles(values, 4);
    (q[2] - q[0]) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles_are_samples() {
        let v = one_to(10);
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.01), 1.0);
        // Order of input does not matter.
        assert_eq!(percentile(&[9.0, 2.0, 5.0, 1.0], 0.75), 5.0);
        let hundred = one_to(100);
        assert_eq!(percentile(&hundred, 0.9), 90.0);
        assert_eq!(percentile(&hundred, 0.99), 99.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(beyond(100, 0.9), 10);
        assert!(tail_is_supported(100, 0.9));
        // ceil(0.9 * 99) = 90, so only 9 samples lie beyond.
        assert_eq!(beyond(99, 0.9), 9);
        assert!(!tail_is_supported(99, 0.9));
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(tail_is_supported(1000, 0.99));
        assert!(!tail_is_supported(999, 0.99));
        assert_eq!(beyond(0, 0.9), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quantiles(&one_to(10), 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quantiles(&one_to(5), 4), vec![1.5, 3.0, 4.5]);
        // statistics.quantiles([2, 1], n=4) == [0.75, 1.5, 2.25]: on tiny
        // sets the exclusive method extrapolates past the data.
        assert_eq!(quantiles(&[2.0, 1.0], 4), vec![0.75, 1.5, 2.25]);
    }

    #[test]
    fn quartile_spread_is_iqr_over_median() {
        // (8.25 - 2.75) / 5.5
        assert_eq!(quartile_spread(&one_to(10)), 1.0);
        let steady = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let spread = quartile_spread(&steady);
        assert!(spread > 0.0 && spread < 0.01, "spread {spread}");
    }
}
