//! Boxplot statistics (Tukey's schematic plot), as used throughout the
//! paper's Figs. 11, 12 and 18.

use serde::{Deserialize, Serialize};

use crate::desc::{mean, percentile_sorted};

/// The quantities a boxplot renders: quartiles, whiskers (1.5 × IQR rule)
/// and the outliers beyond them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoxplotStats {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Arithmetic mean (the paper overlays means on several boxplots).
    pub mean: f64,
    /// Lowest observation within `q1 - 1.5 * IQR`.
    pub whisker_lo: f64,
    /// Highest observation within `q3 + 1.5 * IQR`.
    pub whisker_hi: f64,
    /// Observations outside the whiskers.
    pub outliers: Vec<f64>,
    /// Sample size.
    pub n: usize,
}

impl BoxplotStats {
    /// Compute boxplot statistics. Returns `None` on an empty sample.
    pub fn of(xs: &[f64]) -> Option<Self> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in boxplot input"));
        let q1 = percentile_sorted(&sorted, 25.0);
        let q3 = percentile_sorted(&sorted, 75.0);
        // Interpolation can round the quartiles of two values an ulp
        // apart past each other; a negative IQR would put the lower fence
        // above every value, so order them first.
        let (q1, q3) = if q3 < q1 { (q3, q1) } else { (q1, q3) };
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let whisker_lo = sorted
            .iter()
            .copied()
            .find(|&x| x >= lo_fence)
            .expect("at least the median is inside the fences");
        let whisker_hi = sorted
            .iter()
            .rev()
            .copied()
            .find(|&x| x <= hi_fence)
            .expect("at least the median is inside the fences");
        let outliers = sorted.iter().copied().filter(|&x| x < lo_fence || x > hi_fence).collect();
        Some(BoxplotStats {
            q1,
            median: percentile_sorted(&sorted, 50.0),
            q3,
            mean: mean(xs).expect("nonempty"),
            whisker_lo,
            whisker_hi,
            outliers,
            n: xs.len(),
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Fraction of observations flagged as outliers.
    pub fn outlier_fraction(&self) -> f64 {
        self.outliers.len() as f64 / self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxplot_no_outliers() {
        let xs: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        let b = BoxplotStats::of(&xs).unwrap();
        assert_eq!(b.median, 5.0);
        assert_eq!(b.q1, 3.0);
        assert_eq!(b.q3, 7.0);
        assert_eq!(b.whisker_lo, 1.0);
        assert_eq!(b.whisker_hi, 9.0);
        assert!(b.outliers.is_empty());
    }

    #[test]
    fn boxplot_flags_outliers() {
        let mut xs: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        xs.push(100.0);
        let b = BoxplotStats::of(&xs).unwrap();
        assert_eq!(b.outliers, vec![100.0]);
        assert!(b.whisker_hi <= 9.0 + 1e-12);
        assert!((b.outlier_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn boxplot_constant_sample() {
        let b = BoxplotStats::of(&[5.0; 4]).unwrap();
        assert_eq!(b.q1, 5.0);
        assert_eq!(b.q3, 5.0);
        assert_eq!(b.whisker_lo, 5.0);
        assert_eq!(b.whisker_hi, 5.0);
        assert!(b.outliers.is_empty());
    }

    #[test]
    fn quartiles_an_ulp_apart_stay_ordered() {
        // Interpolating these two puts the 25th percentile one ulp above
        // the 75th.
        let xs = [0.8333333333333333, 0.8333333333333334];
        let b = BoxplotStats::of(&xs).unwrap();
        assert!(b.q1 <= b.median && b.median <= b.q3, "{b:?}");
        assert!(b.iqr() >= 0.0);
        assert_eq!((b.whisker_lo, b.whisker_hi), (xs[0], xs[1]));
        assert!(b.outliers.is_empty());
    }

    #[test]
    fn empty_sample_is_none() {
        assert!(BoxplotStats::of(&[]).is_none());
    }
}
