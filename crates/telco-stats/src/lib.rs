//! # telco-stats
//!
//! Self-contained statistics library backing the handover study's analyses.
//! No external numeric dependencies: special functions, descriptive
//! statistics, ECDFs, histograms, correlation, OLS regression with
//! categorical covariates, quantile regression, one-way ANOVA with Tukey's
//! HSD, and the Kruskal–Wallis test — everything §6.3 and Appendix B of
//! *Through the Telco Lens* (IMC '24) require.
//!
//! ## Example
//!
//! ```
//! use telco_stats::regression::{Design, Value, ols};
//!
//! // Model log(HOF rate) ~ HO type, as in the paper's Table 4.
//! let mut d = Design::new().intercept().categorical(
//!     "HO type",
//!     &["Intra 4G/5G-NSA", "4G/5G-NSA->3G", "4G/5G-NSA->2G"],
//! );
//! // Toy observations: intra HOs fail rarely, vertical HOs often.
//! for i in 0..50 {
//!     let jitter = (i % 5) as f64 * 0.01;
//!     d.add(&[Value::Cat(0)], -2.8 + jitter);
//!     d.add(&[Value::Cat(1)], 2.3 + jitter);
//!     d.add(&[Value::Cat(2)], 4.0 + jitter);
//! }
//! let fit = ols(&d).unwrap();
//! let to3g = fit.coefficient("HO type: 4G/5G-NSA->3G").unwrap();
//! assert!(to3g.estimate > 4.0 && to3g.p_value < 1e-6);
//! ```

// telco-lint: deny-nondeterminism
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anova;
pub mod boxplot;
pub mod corr;
pub mod desc;
pub mod ecdf;
pub mod forest;
pub mod hist;
pub mod kruskal;
pub mod linalg;
pub mod quantile_reg;
pub mod regression;
pub mod special;

pub use anova::{one_way_anova, tukey_hsd, AnovaResult};
pub use boxplot::BoxplotStats;
pub use corr::{linear_fit, pearson, r_squared, spearman};
pub use desc::{mean, median, percentile, std_dev, variance, Summary};
pub use ecdf::{CountEcdf, Ecdf};
pub use forest::{ForestOptions, RandomForest};
pub use hist::{BinnedSamples, Histogram, LogBins};
pub use kruskal::{kruskal_wallis, KruskalResult};
pub use quantile_reg::{quantile_regression, QuantileFit, QuantileOptions};
pub use regression::{ols, Coefficient, Design, FitError, OlsFit, Value};
