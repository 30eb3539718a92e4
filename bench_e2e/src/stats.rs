//! Order statistics and the naming rule shared by metrics and workloads.

/// Samples that must lie beyond a percentile before it is reported
/// (choosing-metrics §1): with fewer, the tail value is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The 90th percentile (nearest rank), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it — i.e. below 100 samples.
pub fn p90(xs: &[f64]) -> Option<f64> {
    let rank = (xs.len() * 9).div_ceil(10);
    if xs.len() - rank < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(xs, n=4)` gives (the
/// exclusive method) — the spread the benchmark's bounds are held against.
/// 0 for fewer than two samples.
pub fn quartile_spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v).abs()
}

/// Metric and workload names: a letter or digit first, then at most 63 more
/// of `[A-Za-z0-9_.-]` (the `BENCHMARK.json` contract).
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90(&xs), None, "99 samples leave 9 beyond the 90th percentile");
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(p90(&xs), Some(90.0));
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(p90(&xs), Some(180.0));
        assert_eq!(p90(&[]), None);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((quartile_spread(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
    }

    #[test]
    fn names_follow_the_contract_charset() {
        for ok in ["cold_fit", "fl.round.exchange_s", "tensor.gemm.cnn_gflops", "9lives", "a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_lead", ".lead", "has space", "slash/y", "pct%", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
