//! Order statistics for host-time samples, and the percentile rule.

/// Percentiles a report may quote, lowest first, in tenths of a percent so
/// the rule below is exact integer arithmetic.
const LADDER_PER_MILLE: [usize; 5] = [500, 900, 950, 990, 999];

/// Samples that must lie beyond a quoted percentile for it to mean anything.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`, to a
/// tenth of a percent; the rank is computed in integers).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let per_mille = (p * 10.0).round() as usize;
    let rank = (per_mille * sorted.len()).div_ceil(1_000);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (sorts in place).
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    percentile(samples, 50.0)
}

/// The percentile rule: the highest percentile of the ladder that still has
/// at least ten samples beyond it; the median when even p90 does not.
pub fn highest_supported_percentile(n: usize) -> f64 {
    let per_mille = LADDER_PER_MILLE
        .iter()
        .copied()
        .rev()
        .find(|p| n * (1_000 - p) >= MIN_BEYOND * 1_000)
        .unwrap_or(LADDER_PER_MILLE[0]);
    per_mille as f64 / 10.0
}

/// Whether `n` samples support quoting percentile `p` under the rule.
pub fn supports(n: usize, p: f64) -> bool {
    p <= highest_supported_percentile(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Ranks are exact where 0.9 * 100 or 99.9 * 10 would round up in f64.
        let k: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&k, 99.9), 999.0);
        assert_eq!(percentile(&k, 90.0), 900.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(
            median(&mut [4.0, 1.0, 3.0, 2.0]),
            2.0,
            "nearest rank on even n rounds down"
        );
    }

    #[test]
    fn rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(5), 50.0);
        assert_eq!(highest_supported_percentile(99), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(199), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(999), 95.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        assert!(supports(120, 90.0) && !supports(120, 95.0));
    }
}
