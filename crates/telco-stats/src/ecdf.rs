//! Empirical cumulative distribution functions.
//!
//! The paper plots ECDFs throughout (Figs. 8, 10, 13, 16). `Ecdf` stores the
//! sorted sample once and answers `F(x)` and quantile queries in `O(log n)`.
//! `CountEcdf` keeps a sample of whole numbers (durations in milliseconds,
//! as the operator's probes record them) as one count per distinct value,
//! and answers the same queries with the same bits.

use serde::{Deserialize, Serialize};

use crate::desc::{percentile_of, percentile_sorted};

/// An empirical CDF over a real-valued sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build an ECDF from a sample (copied and sorted).
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or contains NaN.
    pub fn new(sample: &[f64]) -> Self {
        assert!(!sample.is_empty(), "Ecdf requires a nonempty sample");
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in Ecdf sample"));
        Ecdf { sorted }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x) = P(X <= x)`, the fraction of observations `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point gives the count of elements <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Quantile (inverse CDF) with linear interpolation; `p` in `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile requires p in [0,1]");
        percentile_sorted(&self.sorted, p * 100.0)
    }

    /// Median of the sample.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Minimum observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum observation.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("nonempty")
    }

    /// The underlying sorted sample.
    pub fn sorted_values(&self) -> &[f64] {
        &self.sorted
    }

    /// Step points `(x_i, i/n)` for plotting. Duplicated x values are merged,
    /// keeping the highest step, so the output is strictly increasing in x.
    pub fn step_points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut pts: Vec<(f64, f64)> = Vec::with_capacity(self.sorted.len());
        for (i, &x) in self.sorted.iter().enumerate() {
            let y = (i + 1) as f64 / n;
            match pts.last_mut() {
                Some(last) if last.0 == x => last.1 = y,
                _ => pts.push((x, y)),
            }
        }
        pts
    }

    /// Evaluate the ECDF on a fixed grid of `n_points` equally spaced x
    /// values between min and max — the series a plotting frontend consumes.
    pub fn grid(&self, n_points: usize) -> Vec<(f64, f64)> {
        assert!(n_points >= 2, "grid needs at least 2 points");
        let (lo, hi) = (self.min(), self.max());
        (0..n_points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n_points - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }

    /// Two-sample Kolmogorov–Smirnov statistic `sup |F1 - F2|` against
    /// another ECDF. Useful for comparing simulated and target shapes.
    pub fn ks_statistic(&self, other: &Ecdf) -> f64 {
        let mut d: f64 = 0.0;
        for &x in &self.sorted {
            d = d.max((self.eval(x) - other.eval(x)).abs());
        }
        for &x in &other.sorted {
            d = d.max((self.eval(x) - other.eval(x)).abs());
        }
        d
    }
}

/// An empirical CDF over a sample of whole numbers, kept as the count of
/// each distinct value: its size follows the range of the values, not the
/// number of observations. `len`, `eval`, `quantile`, `median`, `min` and
/// `max` equal [`Ecdf`]'s over the expanded sample bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountEcdf {
    /// `(value, count)` pairs: values strictly ascending, counts non-zero.
    counts: Vec<(u32, u64)>,
}

impl CountEcdf {
    /// Build from `(value, count)` pairs in ascending value order. Pairs
    /// with a zero count are dropped.
    ///
    /// # Panics
    ///
    /// Panics if every count is zero, or if the values do not strictly
    /// ascend.
    pub fn from_counts(pairs: impl IntoIterator<Item = (u32, u64)>) -> Self {
        let counts: Vec<(u32, u64)> = pairs.into_iter().filter(|&(_, c)| c > 0).collect();
        assert!(!counts.is_empty(), "CountEcdf requires a nonempty sample");
        assert!(
            counts.windows(2).all(|w| w[0].0 < w[1].0),
            "CountEcdf::from_counts requires strictly ascending values"
        );
        CountEcdf { counts }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.counts.iter().map(|&(_, c)| c).sum::<u64>() as usize
    }

    /// Whether the sample is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// `F(x) = P(X <= x)`, the fraction of observations `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        let at_most: u64 =
            self.counts.iter().take_while(|&&(v, _)| f64::from(v) <= x).map(|&(_, c)| c).sum();
        at_most as f64 / self.len() as f64
    }

    /// Quantile (inverse CDF) with linear interpolation; `p` in `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile requires p in [0,1]");
        percentile_of(self.len(), p * 100.0, |i| self.order_statistic(i))
    }

    /// Median of the sample.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Minimum observation.
    pub fn min(&self) -> f64 {
        f64::from(self.counts[0].0)
    }

    /// Maximum observation.
    pub fn max(&self) -> f64 {
        f64::from(self.counts.last().expect("nonempty").0)
    }

    /// The `(value, count)` pairs, ascending.
    pub fn counts(&self) -> &[(u32, u64)] {
        &self.counts
    }

    /// The `i`-th smallest observation (0-based; the largest past the end).
    fn order_statistic(&self, i: usize) -> f64 {
        let mut seen = 0u64;
        for &(v, c) in &self.counts {
            seen += c;
            if (i as u64) < seen {
                return f64::from(v);
            }
        }
        self.max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_basic_steps() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(99.0), 1.0);
    }

    #[test]
    fn eval_with_duplicates() {
        let e = Ecdf::new(&[1.0, 1.0, 1.0, 2.0]);
        assert_eq!(e.eval(1.0), 0.75);
        assert_eq!(e.eval(1.5), 0.75);
        assert_eq!(e.eval(2.0), 1.0);
    }

    #[test]
    fn quantile_and_median() {
        let e = Ecdf::new(&[10.0, 20.0, 30.0]);
        assert_eq!(e.median(), 20.0);
        assert_eq!(e.quantile(0.0), 10.0);
        assert_eq!(e.quantile(1.0), 30.0);
    }

    #[test]
    fn step_points_merge_duplicates() {
        let e = Ecdf::new(&[1.0, 1.0, 2.0]);
        let pts = e.step_points();
        assert_eq!(pts, vec![(1.0, 2.0 / 3.0), (2.0, 1.0)]);
    }

    #[test]
    fn grid_endpoints() {
        let e = Ecdf::new(&[0.0, 1.0, 2.0, 3.0]);
        let g = e.grid(4);
        assert_eq!(g.first().unwrap().0, 0.0);
        assert_eq!(g.last().unwrap(), &(3.0, 1.0));
    }

    #[test]
    fn ks_identical_is_zero_and_disjoint_is_one() {
        let a = Ecdf::new(&[1.0, 2.0, 3.0]);
        let b = Ecdf::new(&[1.0, 2.0, 3.0]);
        assert_eq!(a.ks_statistic(&b), 0.0);
        let c = Ecdf::new(&[10.0, 11.0]);
        assert_eq!(a.ks_statistic(&c), 1.0);
    }

    #[test]
    #[should_panic]
    fn empty_sample_rejected() {
        Ecdf::new(&[]);
    }

    #[test]
    fn count_ecdf_matches_the_expanded_sample() {
        let c = CountEcdf::from_counts([(0, 2), (3, 0), (7, 1), (40, 3)]);
        let e = Ecdf::new(&[0.0, 0.0, 7.0, 40.0, 40.0, 40.0]);
        assert_eq!(c.len(), e.len());
        assert_eq!(c.counts(), &[(0, 2), (7, 1), (40, 3)]);
        for p in [0.0, 0.1, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(c.quantile(p).to_bits(), e.quantile(p).to_bits(), "p = {p}");
        }
        for x in [-1.0, 0.0, 6.5, 7.0, 40.0, 41.0, f64::NAN] {
            assert_eq!(c.eval(x).to_bits(), e.eval(x).to_bits(), "x = {x}");
        }
        assert_eq!((c.min(), c.max()), (0.0, 40.0));
    }

    #[test]
    #[should_panic]
    fn count_ecdf_rejects_an_empty_sample() {
        CountEcdf::from_counts([(5, 0)]);
    }

    #[test]
    #[should_panic]
    fn count_ecdf_rejects_unordered_values() {
        CountEcdf::from_counts([(5, 1), (5, 1)]);
    }
}
