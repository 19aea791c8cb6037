//! Sample summaries: the median, and the highest percentile that still has
//! at least ten samples beyond it.

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples a tail percentile must have beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median and tail of one sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)` of the highest percentile with at least
    /// [`MIN_BEYOND`] samples above it; `None` when the sample is too small.
    pub tail: Option<(f64, f64)>,
}

/// Nearest-rank percentile `p` (0–100) of a non-empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (the mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The highest percentile of [`TAIL_LADDER`] with at least `MIN_BEYOND`
/// samples strictly beyond its rank, and its value.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= MIN_BEYOND).then(|| (p, sorted[rank - 1]))
    })
}

/// Summarize a non-empty sample.
pub fn summarize(samples: &[f64]) -> Summary {
    Summary { n: samples.len(), p50: median(samples), tail: tail(samples) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 10 samples: even p75 leaves only 2 beyond it.
        assert_eq!(tail(&ramp(10)), None);
        // 40 samples: p75 is rank 30, exactly 10 beyond; p90 leaves 4.
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        // 100 samples: p90 is rank 90 with 10 beyond; p95 leaves 5.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 1000 samples: p99 is rank 990 with 10 beyond; p99.9 leaves 1.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 999 samples: p99 is rank 990 with only 9 beyond, so p95.
        assert_eq!(tail(&ramp(999)), Some((95.0, 950.0)));
    }

    #[test]
    fn no_tail_for_empty_or_tiny_samples() {
        assert_eq!(tail(&[]), None);
        assert_eq!(summarize(&[5.0]), Summary { n: 1, p50: 5.0, tail: None });
    }

    #[test]
    fn nearest_rank_percentile() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
    }
}
