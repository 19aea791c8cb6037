//! Descriptive statistics: means, variances, percentiles and five-number
//! summaries matching the paper's Table 6 ("Summary Stats of Dataset").

use serde::{Deserialize, Serialize};

/// Arithmetic mean. Returns `None` on an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Unbiased sample variance (divides by `n - 1`). `None` if `n < 2`.
pub fn variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    let ss: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    Some(ss / (xs.len() - 1) as f64)
}

/// Sample standard deviation. `None` if `n < 2`.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Population variance (divides by `n`). `None` on an empty slice.
pub fn variance_population(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    let ss: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    Some(ss / xs.len() as f64)
}

/// Percentile with linear interpolation between order statistics (the
/// "type 7" definition used by R's `quantile` default and NumPy).
///
/// `p` in `[0, 100]`. Returns `None` on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    assert!((0.0..=100.0).contains(&p), "percentile requires p in [0,100], got {p}");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    Some(percentile_sorted(&sorted, p))
}

/// Percentile of an already ascending-sorted slice (no allocation).
///
/// # Panics
///
/// Panics if the slice is empty or `p` is outside `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile_sorted on empty slice");
    percentile_of(sorted.len(), p, |i| sorted[i])
}

/// [`percentile_sorted`] over `n ≥ 1` ascending order statistics read
/// through `at`: one interpolation for every representation of a sample,
/// so a sample kept as counts yields its expanded slice's bits.
pub(crate) fn percentile_of(n: usize, p: f64, at: impl Fn(usize) -> f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "p must be in [0,100], got {p}");
    if n == 1 {
        return at(0);
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        at(lo)
    } else {
        let w = rank - lo as f64;
        at(lo) * (1.0 - w) + at(hi) * w
    }
}

/// Median (50th percentile). `None` on an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// Five-number summary plus mean, mirroring R's `summary()` output and the
/// paper's Table 6 layout (Min / 1st Qu. / Median / Mean / 3rd Qu. / Max).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Smallest observation.
    pub min: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
    /// Number of observations.
    pub n: usize,
}

impl Summary {
    /// Compute the summary of a sample. Returns `None` on an empty slice.
    pub fn of(xs: &[f64]) -> Option<Self> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in Summary input"));
        Some(Summary {
            min: sorted[0],
            q1: percentile_sorted(&sorted, 25.0),
            median: percentile_sorted(&sorted, 50.0),
            mean: mean(xs).expect("nonempty"),
            q3: percentile_sorted(&sorted, 75.0),
            max: *sorted.last().expect("nonempty"),
            n: xs.len(),
        })
    }

    /// Interquartile range `q3 - q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Weighted mean of `(value, weight)` pairs; `None` if total weight is 0.
pub fn weighted_mean(pairs: &[(f64, f64)]) -> Option<f64> {
    let wsum: f64 = pairs.iter().map(|&(_, w)| w).sum();
    if wsum <= 0.0 {
        return None;
    }
    Some(pairs.iter().map(|&(x, w)| x * w).sum::<f64>() / wsum)
}

/// Geometric mean of strictly positive samples. `None` if empty or any
/// sample is non-positive.
pub fn geometric_mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((variance_population(&xs).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_yield_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(variance(&[1.0]), None);
        assert_eq!(median(&[]), None);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(geometric_mean(&[]), None);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(percentile(&xs, 50.0), Some(2.5));
        assert_eq!(percentile(&xs, 25.0), Some(1.75));
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[42.0], 13.0), Some(42.0));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn summary_matches_r_layout() {
        let xs = [1.0, 76.0, 1989.0, 8591.0, 953287.0];
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 953287.0);
        assert_eq!(s.median, 1989.0);
        assert_eq!(s.n, 5);
        assert!(s.q1 <= s.median && s.median <= s.q3);
        assert!((s.iqr() - (s.q3 - s.q1)).abs() < 1e-12);
    }

    #[test]
    fn weighted_mean_basic() {
        assert_eq!(weighted_mean(&[(1.0, 1.0), (3.0, 3.0)]), Some(2.5));
        assert_eq!(weighted_mean(&[(1.0, 0.0)]), None);
    }

    #[test]
    fn geometric_mean_basic() {
        assert!((geometric_mean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[1.0, -1.0]), None);
    }

    #[test]
    #[should_panic]
    fn percentile_rejects_out_of_range_p() {
        percentile(&[1.0], 101.0);
    }
}
