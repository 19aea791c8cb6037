//! Regression trees and random forests.
//!
//! Appendix B of the paper benchmarks its linear models against a Random
//! Forest (Breiman 2001), finding "comparable performance in terms of
//! RMSE and MAE". This is a dependency-free CART implementation with
//! bootstrap aggregation and per-split feature subsampling, deterministic
//! given its seed.
//!
//! Split search runs on rank-encoded columns: each feature is encoded once
//! as its ascending distinct values plus a `u32` rank per row. A node's
//! candidate thresholds are the order statistics of its values at a
//! quantile grid, read off a rank histogram (or off the node's sorted
//! ranks when the column has more distinct values than the node has rows),
//! and every distinct threshold is scored in one pass over the node's
//! rows.

use serde::{Deserialize, Serialize};

use crate::regression::Design;

/// Forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestOptions {
    /// Number of bagged trees.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_leaf: usize,
    /// Fraction of features considered at each split.
    pub feature_fraction: f64,
    /// Candidate split thresholds per feature (quantile grid).
    pub n_thresholds: usize,
    /// RNG seed (bootstrap + feature subsampling).
    pub seed: u64,
}

impl Default for ForestOptions {
    fn default() -> Self {
        ForestOptions {
            n_trees: 30,
            max_depth: 8,
            min_leaf: 10,
            feature_fraction: 0.7,
            n_thresholds: 8,
            seed: 0xF0E5,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Index of the `<=` child in the node arena.
        left: usize,
        /// Index of the `>` child.
        right: usize,
    },
}

/// A single CART regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Predict for one feature row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    idx = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty (never after fitting).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// The design's features encoded for split search, column-major: each
/// column's distinct values ascending, and each row's rank among them, so
/// `ranks[f][i] <= r` exactly when row `i`'s value is `<= distinct[f][r]`.
struct RankedColumns {
    distinct: Vec<Vec<f64>>,
    ranks: Vec<Vec<u32>>,
}

impl RankedColumns {
    fn encode(design: &Design) -> Self {
        assert!(u32::try_from(design.n()).is_ok(), "too many rows to rank-encode");
        let (distinct, ranks) = (0..design.width())
            .map(|f| {
                let column: Vec<f64> = design.rows().map(|(row, _)| row[f]).collect();
                assert!(!column.iter().any(|v| v.is_nan()), "forest features must not be NaN");
                let mut distinct = column.clone();
                distinct.sort_by(f64::total_cmp);
                // `dedup` compares with `==`, so -0.0 and 0.0 share a rank,
                // as the `<=` split test cannot tell them apart.
                distinct.dedup();
                let ranks =
                    column.iter().map(|v| distinct.partition_point(|d| d < v) as u32).collect();
                (distinct, ranks)
            })
            .unzip();
        RankedColumns { distinct, ranks }
    }
}

/// A candidate split of one feature at one node.
#[derive(Debug, Clone, Copy)]
struct Cut {
    /// Threshold, as a rank into the feature's distinct values.
    rank: u32,
    /// Node rows on the `<=` side.
    n_left: usize,
}

/// Buffers one fit reuses at every node.
#[derive(Default)]
struct Scratch {
    /// Node rows per rank of one column (the histogram route).
    counts: Vec<usize>,
    /// The node's ranks of one column, sorted (the sort route).
    sorted: Vec<u32>,
    /// One feature's distinct candidate thresholds, ascending.
    cuts: Vec<Cut>,
    /// Per cut: Σy and Σy² of the `<=` side, then of the `>` side.
    sums: Vec<[f64; 4]>,
    /// Features already scored at the current node.
    scored: Vec<bool>,
}

/// Grows one tree depth-first, left before right, into a node arena.
struct TreeBuilder<'a> {
    cols: &'a RankedColumns,
    y: &'a [f64],
    opts: &'a ForestOptions,
    rng: &'a mut SplitMix,
    scratch: &'a mut Scratch,
    nodes: Vec<Node>,
}

impl TreeBuilder<'_> {
    fn leaf(&mut self, value: f64) -> usize {
        self.nodes.push(Node::Leaf { value });
        self.nodes.len() - 1
    }

    /// Recursively grow a node over `indices`; returns the node's index.
    fn grow(&mut self, indices: &mut [usize], depth: usize) -> usize {
        let y = self.y;
        let mean = indices.iter().map(|&i| y[i]).sum::<f64>() / indices.len() as f64;
        if depth >= self.opts.max_depth || indices.len() < 2 * self.opts.min_leaf {
            return self.leaf(mean);
        }

        let n_features = self.cols.ranks.len();
        let k =
            ((n_features as f64 * self.opts.feature_fraction).ceil() as usize).clamp(1, n_features);
        let mut best: Option<(usize, u32, f64)> = None; // (feature, threshold rank, gain)
        let parent_ss: f64 = indices.iter().map(|&i| (y[i] - mean) * (y[i] - mean)).sum();

        self.scratch.scored.clear();
        self.scratch.scored.resize(n_features, false);
        for _ in 0..k {
            let feature = (self.rng.next() as usize) % n_features;
            // A repeated draw would rescore the same gains, and none of
            // them can beat the best kept so far by the strict `>`.
            if std::mem::replace(&mut self.scratch.scored[feature], true) {
                continue;
            }
            self.score_feature(feature, indices, parent_ss, &mut best);
        }

        let Some((feature, rank, _)) = best else {
            return self.leaf(mean);
        };

        // Partition indices in place.
        let ranks = &self.cols.ranks[feature];
        let mid = partition(indices, |&i| ranks[i] <= rank);
        if mid == 0 || mid == indices.len() {
            return self.leaf(mean);
        }
        // Reserve this node's slot, then grow children.
        let me = self.leaf(mean); // placeholder
        let (l, r) = indices.split_at_mut(mid);
        let left = self.grow(l, depth + 1);
        let right = self.grow(r, depth + 1);
        let threshold = self.cols.distinct[feature][rank as usize];
        self.nodes[me] = Node::Split { feature, threshold, left, right };
        me
    }

    /// Score every candidate threshold of `feature` over the node, keeping
    /// the strict first maximum of the gain in `best`.
    fn score_feature(
        &mut self,
        feature: usize,
        indices: &[usize],
        parent_ss: f64,
        best: &mut Option<(usize, u32, f64)>,
    ) {
        let ranks = &self.cols.ranks[feature];
        let n = indices.len();
        let s = &mut *self.scratch;
        s.cuts.clear();

        // The quantile grid: sorted positions ⌊(n−1)·t/(T+1)⌋, t = 1..=T.
        let positions = (1..=self.opts.n_thresholds).map(|t| {
            let q = t as f64 / (self.opts.n_thresholds + 1) as f64;
            ((n - 1) as f64 * q) as usize
        });
        let n_distinct = self.cols.distinct[feature].len();
        if n_distinct <= n {
            // Histogram route: count the node's rows per rank, then walk
            // the ranks up to each position.
            s.counts.clear();
            s.counts.resize(n_distinct, 0);
            for &i in indices {
                s.counts[ranks[i] as usize] += 1;
            }
            let (mut rank, mut through) = (0, s.counts[0]); // rows with rank <= `rank`
            for pos in positions {
                while through <= pos {
                    rank += 1;
                    through += s.counts[rank];
                }
                s.cuts.push(Cut { rank: rank as u32, n_left: through });
            }
        } else {
            // Sort route: more distinct values than rows.
            s.sorted.clear();
            s.sorted.extend(indices.iter().map(|&i| ranks[i]));
            s.sorted.sort_unstable();
            for pos in positions {
                let rank = s.sorted[pos];
                s.cuts.push(Cut { rank, n_left: s.sorted.partition_point(|&r| r <= rank) });
            }
        }
        // Equal thresholds score equal gains, so only the first can win;
        // a cut that leaves a child under `min_leaf` rows is skipped, and
        // one with an empty `>` side has a NaN gain, which never wins.
        s.cuts.dedup_by_key(|c| c.rank);
        let min_leaf = self.opts.min_leaf;
        s.cuts.retain(|c| c.n_left < n && c.n_left >= min_leaf && n - c.n_left >= min_leaf);
        if s.cuts.is_empty() {
            return;
        }

        // One pass over the node: each cut's sums accumulate in
        // node-index order, as a scan per threshold would add them.
        s.sums.clear();
        s.sums.resize(s.cuts.len(), [0.0; 4]);
        for &i in indices {
            let (r, yi) = (ranks[i], self.y[i]);
            let yy = yi * yi;
            for (cut, sum) in s.cuts.iter().zip(s.sums.iter_mut()) {
                if r <= cut.rank {
                    sum[0] += yi;
                    sum[1] += yy;
                } else {
                    sum[2] += yi;
                    sum[3] += yy;
                }
            }
        }
        for (cut, [s_l, ss_l, s_r, ss_r]) in s.cuts.iter().zip(&s.sums) {
            let (n_l, n_r) = (cut.n_left as f64, (n - cut.n_left) as f64);
            // Score the split: total within-child sum of squares.
            let within = (ss_l - s_l * s_l / n_l) + (ss_r - s_r * s_r / n_r);
            let gain = parent_ss - within;
            if best.is_none_or(|(_, _, g)| gain > g) && gain > 1e-12 {
                *best = Some((feature, cut.rank, gain));
            }
        }
    }
}

fn partition<T, F: Fn(&T) -> bool>(xs: &mut [T], pred: F) -> usize {
    let mut store = 0;
    for i in 0..xs.len() {
        if pred(&xs[i]) {
            xs.swap(i, store);
            store += 1;
        }
    }
    store
}

/// A bagged ensemble of regression trees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
}

/// Fit-quality metrics for comparing against the linear models
/// (Appendix B compares RMSE and MAE).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitQuality {
    /// Root mean squared error.
    pub rmse: f64,
    /// Mean absolute error.
    pub mae: f64,
    /// R² of predictions.
    pub r_squared: f64,
}

impl RandomForest {
    /// Fit a forest on a populated regression design.
    ///
    /// # Panics
    ///
    /// Panics if the design has no observations or a NaN feature.
    pub fn fit(design: &Design, opts: ForestOptions) -> Self {
        assert!(design.n() > 0, "cannot fit a forest on an empty design");
        let cols = RankedColumns::encode(design);
        let y: Vec<f64> = design.rows().map(|(_, y)| y).collect();
        let n = y.len();
        let mut rng = SplitMix::new(opts.seed);
        let mut scratch = Scratch::default();
        let trees = (0..opts.n_trees)
            .map(|_| {
                // Bootstrap sample with replacement.
                let mut indices: Vec<usize> = (0..n).map(|_| (rng.next() as usize) % n).collect();
                let mut builder = TreeBuilder {
                    cols: &cols,
                    y: &y,
                    opts: &opts,
                    rng: &mut rng,
                    scratch: &mut scratch,
                    nodes: Vec::new(),
                };
                builder.grow(&mut indices, 0);
                RegressionTree { nodes: builder.nodes }
            })
            .collect();
        RandomForest { trees }
    }

    /// Predict one feature row (mean over trees).
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict(row)).sum::<f64>() / self.trees.len() as f64
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the forest has no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Evaluate on a design (typically the training design, as in the
    /// paper's in-sample comparison).
    pub fn evaluate(&self, design: &Design) -> FitQuality {
        let n = design.n() as f64;
        let mut se = 0.0;
        let mut ae = 0.0;
        let mut ys = Vec::with_capacity(design.n());
        let mut preds = Vec::with_capacity(design.n());
        for (row, y) in design.rows() {
            let p = self.predict(row);
            se += (y - p) * (y - p);
            ae += (y - p).abs();
            ys.push(y);
            preds.push(p);
        }
        FitQuality {
            rmse: (se / n).sqrt(),
            mae: ae / n,
            r_squared: crate::corr::r_squared_of_predictions(&ys, &preds).unwrap_or(0.0),
        }
    }
}

/// SplitMix64: tiny deterministic RNG (keeps this crate dependency-free).
struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regression::{ols, Value};

    /// A nonlinear target the linear model cannot represent but a forest
    /// can: y = step(x1 > 0.5) * 4 + x2.
    fn nonlinear_design(n: usize) -> Design {
        let mut d = Design::new().numeric("x1").numeric("x2");
        let mut rng = SplitMix::new(7);
        for _ in 0..n {
            let x1 = (rng.next() % 1000) as f64 / 1000.0;
            let x2 = (rng.next() % 1000) as f64 / 1000.0;
            let y = if x1 > 0.5 { 4.0 } else { 0.0 } + x2;
            d.add(&[Value::Num(x1), Value::Num(x2)], y);
        }
        d
    }

    #[test]
    fn forest_learns_a_step_function() {
        let d = nonlinear_design(2000);
        let forest = RandomForest::fit(&d, ForestOptions::default());
        let q = forest.evaluate(&d);
        assert!(q.rmse < 0.5, "RMSE {}", q.rmse);
        assert!(q.r_squared > 0.9, "R² {}", q.r_squared);
        // Spot predictions on both sides of the step.
        assert!(forest.predict(&[0.9, 0.0]) > 3.0);
        assert!(forest.predict(&[0.1, 0.0]) < 1.0);
    }

    #[test]
    fn forest_beats_linear_model_on_nonlinear_data() {
        let mut d = Design::new().intercept().numeric("x1").numeric("x2");
        let base = nonlinear_design(2000);
        for (row, y) in base.rows() {
            d.add(&[Value::Num(row[0]), Value::Num(row[1])], y);
        }
        let linear = ols(&d).unwrap();
        let forest = RandomForest::fit(&base, ForestOptions::default());
        let fq = forest.evaluate(&base);
        assert!(
            fq.rmse < linear.rmse,
            "forest RMSE {} should beat linear {}",
            fq.rmse,
            linear.rmse
        );
    }

    #[test]
    fn fitting_is_deterministic() {
        let d = nonlinear_design(500);
        let a = RandomForest::fit(&d, ForestOptions::default());
        let b = RandomForest::fit(&d, ForestOptions::default());
        assert_eq!(a, b);
        let opts = ForestOptions { seed: 99, ..Default::default() };
        let c = RandomForest::fit(&d, opts);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn depth_and_leaf_limits_respected() {
        let d = nonlinear_design(300);
        let opts = ForestOptions { n_trees: 3, max_depth: 2, min_leaf: 50, ..Default::default() };
        let forest = RandomForest::fit(&d, opts);
        // Depth 2 → at most 7 nodes per tree.
        for tree in &forest.trees {
            assert!(tree.len() <= 7, "tree has {} nodes", tree.len());
        }
    }

    #[test]
    fn constant_target_yields_constant_prediction() {
        let mut d = Design::new().numeric("x");
        for i in 0..100 {
            d.add(&[Value::Num(i as f64)], 5.0);
        }
        let forest = RandomForest::fit(&d, ForestOptions::default());
        assert!((forest.predict(&[42.0]) - 5.0).abs() < 1e-9);
        assert_eq!(forest.evaluate(&d).rmse, 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_design_rejected() {
        let d = Design::new().numeric("x");
        RandomForest::fit(&d, ForestOptions::default());
    }

    /// The CART the rank kernel replaced: at every node, one sorted `f64`
    /// copy of each drawn feature and one scan of the node per quantile
    /// threshold. The kernel must reproduce its trees exactly.
    mod reference {
        use super::super::*;

        pub fn fit(design: &Design, opts: ForestOptions) -> RandomForest {
            assert!(design.n() > 0, "cannot fit a forest on an empty design");
            let x: Vec<Vec<f64>> = design.rows().map(|(row, _)| row.to_vec()).collect();
            let y: Vec<f64> = design.rows().map(|(_, y)| y).collect();
            let n = x.len();
            let mut rng = SplitMix::new(opts.seed);
            let trees = (0..opts.n_trees)
                .map(|_| {
                    let mut indices: Vec<usize> =
                        (0..n).map(|_| (rng.next() as usize) % n).collect();
                    let mut nodes = Vec::new();
                    build_node(&x, &y, &mut indices, 0, &opts, &mut rng, &mut nodes);
                    RegressionTree { nodes }
                })
                .collect();
            RandomForest { trees }
        }

        fn build_node(
            x: &[Vec<f64>],
            y: &[f64],
            indices: &mut [usize],
            depth: usize,
            opts: &ForestOptions,
            rng: &mut SplitMix,
            nodes: &mut Vec<Node>,
        ) -> usize {
            let mean = indices.iter().map(|&i| y[i]).sum::<f64>() / indices.len() as f64;
            if depth >= opts.max_depth || indices.len() < 2 * opts.min_leaf {
                nodes.push(Node::Leaf { value: mean });
                return nodes.len() - 1;
            }

            let n_features = x[0].len();
            let k =
                ((n_features as f64 * opts.feature_fraction).ceil() as usize).clamp(1, n_features);
            let mut best: Option<(usize, f64, f64)> = None;
            let parent_ss: f64 = indices.iter().map(|&i| (y[i] - mean) * (y[i] - mean)).sum();

            for _ in 0..k {
                let feature = (rng.next() as usize) % n_features;
                let mut values: Vec<f64> = indices.iter().map(|&i| x[i][feature]).collect();
                values.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
                for t in 1..=opts.n_thresholds {
                    let q = t as f64 / (opts.n_thresholds + 1) as f64;
                    let threshold = values[((values.len() - 1) as f64 * q) as usize];
                    let (mut n_l, mut s_l, mut ss_l) = (0.0, 0.0, 0.0);
                    let (mut n_r, mut s_r, mut ss_r) = (0.0, 0.0, 0.0);
                    for &i in indices.iter() {
                        if x[i][feature] <= threshold {
                            n_l += 1.0;
                            s_l += y[i];
                            ss_l += y[i] * y[i];
                        } else {
                            n_r += 1.0;
                            s_r += y[i];
                            ss_r += y[i] * y[i];
                        }
                    }
                    if (n_l as usize) < opts.min_leaf || (n_r as usize) < opts.min_leaf {
                        continue;
                    }
                    let within = (ss_l - s_l * s_l / n_l) + (ss_r - s_r * s_r / n_r);
                    let gain = parent_ss - within;
                    if best.is_none_or(|(_, _, g)| gain > g) && gain > 1e-12 {
                        best = Some((feature, threshold, gain));
                    }
                }
            }

            let Some((feature, threshold, _)) = best else {
                nodes.push(Node::Leaf { value: mean });
                return nodes.len() - 1;
            };
            let mid = partition(indices, |&i| x[i][feature] <= threshold);
            if mid == 0 || mid == indices.len() {
                nodes.push(Node::Leaf { value: mean });
                return nodes.len() - 1;
            }
            let me = nodes.len();
            nodes.push(Node::Leaf { value: mean });
            let (l, r) = indices.split_at_mut(mid);
            let li = build_node(x, y, l, depth + 1, opts, rng, nodes);
            let ri = build_node(x, y, r, depth + 1, opts, rng, nodes);
            nodes[me] = Node::Split { feature, threshold, left: li, right: ri };
            me
        }
    }

    /// Fit with the kernel and the reference; the trees and the in-sample
    /// fit quality must be identical.
    fn assert_matches_reference(d: &Design, opts: ForestOptions) {
        let fast = RandomForest::fit(d, opts);
        let slow = reference::fit(d, opts);
        assert_eq!(fast, slow, "trees differ under {opts:?}");
        let (a, b) = (fast.evaluate(d), slow.evaluate(d));
        assert_eq!(
            [a.rmse.to_bits(), a.mae.to_bits(), a.r_squared.to_bits()],
            [b.rmse.to_bits(), b.mae.to_bits(), b.r_squared.to_bits()],
            "fit quality differs under {opts:?}"
        );
    }

    /// One generated feature column.
    #[derive(Debug, Clone, Copy)]
    enum Column {
        Constant,
        /// A 0/1 dummy.
        Binary,
        /// Values from a small pool, so most rows share a value; the pool
        /// holds ±0.0 and ±∞.
        LowCardinality,
        /// Almost every row distinct: more values than a deep node has
        /// rows, so splits below the root take the sort route.
        Continuous,
    }

    /// A random design from `seed`: `n` rows over `kinds` columns, with a
    /// target that steps on the first column and takes few values, so
    /// gains often tie.
    fn random_design(seed: u64, n: usize, kinds: &[Column]) -> Design {
        const POOL: [f64; 8] = [-0.0, 0.0, 1.0, 2.5, -3.0, f64::INFINITY, f64::NEG_INFINITY, 7.0];
        let mut d =
            kinds.iter().enumerate().fold(Design::new(), |d, (c, _)| d.numeric(&format!("x{c}")));
        let mut rng = SplitMix::new(seed);
        let mut row = Vec::with_capacity(kinds.len());
        for _ in 0..n {
            row.clear();
            for kind in kinds {
                let r = rng.next();
                row.push(Value::Num(match kind {
                    Column::Constant => 4.0,
                    Column::Binary => (r % 2) as f64,
                    Column::LowCardinality => POOL[(r % 5 + r % 3) as usize],
                    Column::Continuous => (r >> 11) as f64 / (1u64 << 53) as f64,
                }));
            }
            let step = match row[0] {
                Value::Num(v) if v > 0.5 => 2.0,
                _ => 0.0,
            };
            d.add(&row, step + (rng.next() % 3) as f64);
        }
        d
    }

    #[test]
    fn kernel_matches_reference_on_the_paper_design_shape() {
        // The shape of the §6.3 forest design: a constant intercept, nine
        // dummies, a 21-value count and a 307-value population, with
        // enough rows that both order-statistic routes run.
        let mut d = Design::new().intercept();
        for c in 0..9 {
            d = d.numeric(&format!("dummy{c}"));
        }
        d = d.numeric("daily").numeric("population");
        let mut rng = SplitMix::new(11);
        for _ in 0..3_000 {
            let mut row: Vec<Value> = (0..9)
                .map(|_| Value::Num(f64::from(u8::from(rng.next().is_multiple_of(4)))))
                .collect();
            let daily = (rng.next() % 21) as f64;
            let population = (rng.next() % 307) as f64 * 1_000.0;
            row.extend([Value::Num(daily), Value::Num(population)]);
            let y = (daily + 1.0).ln() - population / 3e5 + (rng.next() % 5) as f64 * 0.1;
            d.add(&row, y);
        }
        assert_matches_reference(&d, ForestOptions { n_trees: 4, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_feature_rejected() {
        let mut d = Design::new().numeric("x");
        d.add(&[Value::Num(f64::NAN)], 1.0);
        RandomForest::fit(&d, ForestOptions::default());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn kernel_matches_reference(
            seed in 0u64..u64::MAX,
            n in 1usize..240,
            kinds in proptest::collection::vec(0u8..4, 1..7),
            max_depth in 0usize..7,
            min_leaf in 0usize..14,
            n_thresholds in proptest::prop_oneof![
                proptest::Just(1usize),
                proptest::Just(20usize),
                2usize..20,
            ],
            n_trees in 1usize..4,
            feature_fraction in 0.05f64..1.0,
        ) {
            let kinds: Vec<Column> = kinds
                .iter()
                .map(|k| [Column::Constant, Column::Binary, Column::LowCardinality, Column::Continuous][*k as usize])
                .collect();
            let d = random_design(seed, n, &kinds);
            let opts = ForestOptions { n_trees, max_depth, min_leaf, feature_fraction, n_thresholds, seed };
            assert_matches_reference(&d, opts);
        }
    }
}
