//! Order statistics for the benchmark's samples.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by the nearest-rank rule, or
/// `None` for an empty sample. Sorts a copy; NaNs are not expected.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = nearest_rank(q, sorted.len());
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

/// 1-based nearest rank of the `q`-quantile among `n` sorted samples. The
/// small epsilon keeps `q·n` that is integral up to rounding on that integer.
fn nearest_rank(q: f64, n: usize) -> usize {
    (q.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil().max(1.0) as usize
}

/// The median of `samples` (mean of the two middle values for an even count),
/// or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// The highest percentile, at most `cap`, that leaves at least
/// [`TAIL_SAMPLES_BEYOND`] of `n` samples beyond it: `1 − 10/n`, capped.
/// `None` when fewer than 20 samples would put it below the median.
pub fn tail_quantile(n: usize, cap: f64) -> Option<f64> {
    if n < 2 * TAIL_SAMPLES_BEYOND {
        return None;
    }
    Some((1.0 - TAIL_SAMPLES_BEYOND as f64 / n as f64).min(cap))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // p99 needs 1,000 samples; fewer report the highest percentile that
        // still has ten beyond it, and more never exceed the cap.
        assert_eq!(tail_quantile(1000, 0.99), Some(0.99));
        assert!((tail_quantile(500, 0.99).unwrap() - 0.98).abs() < 1e-12);
        assert!((tail_quantile(100, 0.99).unwrap() - 0.9).abs() < 1e-12);
        assert_eq!(tail_quantile(1_000_000, 0.99), Some(0.99));
        assert_eq!(tail_quantile(19, 0.99), None);
        for n in [20, 37, 999, 1000, 4321] {
            let q = tail_quantile(n, 0.99).unwrap();
            let beyond = n - nearest_rank(q, n);
            assert!(beyond >= TAIL_SAMPLES_BEYOND, "n={n}: {beyond} beyond p{q}");
        }
    }

    #[test]
    fn nearest_rank_quantile() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.99), Some(99.0));
        assert_eq!(quantile(&samples, 0.5), Some(50.0));
        assert_eq!(quantile(&samples, 1.0), Some(100.0));
        assert_eq!(quantile(&samples, 0.0), Some(1.0));
    }
}
