//! Order statistics over wall-clock samples.

/// A percentile above the median is reported only when at least this
/// many samples lie beyond its rank, so a tail figure is never read off
/// one or two outliers.
pub const TAIL_SAMPLES: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`:
/// the smallest sample with at least `p`% of the samples at or below it.
///
/// Returns `None` for an empty sample, for `p` outside `(0, 100]`, and
/// for a percentile above the median with fewer than [`TAIL_SAMPLES`]
/// samples beyond its rank. The median of a non-empty sample is always
/// returned.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // `p * n` first keeps the rank exact for whole-number products.
    let rank = ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n);
    if p > 50.0 && n - rank < TAIL_SAMPLES {
        return None;
    }
    sorted.get(rank - 1).copied()
}

/// The nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The arithmetic mean, `None` for an empty sample.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helper has to sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&ramp(10)), Some(5.0));
        assert_eq!(median(&ramp(11)), Some(6.0));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_its_rank() {
        assert_eq!(percentile(&ramp(10), 90.0), None);
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(12_000), 99.0), Some(11_880.0));
    }

    #[test]
    fn out_of_range_percentiles_are_refused() {
        assert_eq!(percentile(&ramp(100), 0.0), None);
        assert_eq!(percentile(&ramp(100), 100.5), None);
        assert_eq!(percentile(&ramp(100), f64::NAN), None);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
