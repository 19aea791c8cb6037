//! # telco-analytics
//!
//! The paper's analyses (§§4–6 and Appendix B of *Through the Telco Lens*,
//! IMC '24) implemented over simulated study data: data-heterogeneity
//! profiling (Table 1, Figs. 3–4), geodemographics (Figs. 5–6), the
//! geo-temporal and per-type handover characterization (Table 2,
//! Figs. 7–9), mobility metrics (Figs. 10, 13), manufacturer impact
//! (Fig. 11), HOF patterns and causes (Figs. 12, 14, 15), the statistical
//! models of §6.3 (Tables 3–9, Fig. 16), and the vendor appendix
//! (Figs. 17–18).
//!
//! ## Example
//!
//! ```
//! use telco_analytics::Study;
//! use telco_sim::SimConfig;
//!
//! let mut cfg = SimConfig::tiny();
//! cfg.n_ues = 800;
//! let study = Study::run(cfg);
//! let table2 = study.ho_types();
//! assert!(table2.intra_share() > 0.5); // horizontal HOs dominate
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod bitset;
pub(crate) mod counts;
pub mod frame;
pub mod geodemo;
pub mod handovers;
pub mod heterogeneity;
pub mod hof;
pub mod manufacturer;
pub mod mobility_analysis;
pub mod modeling;
pub mod pingpong;
pub mod study;
pub mod sweep;
pub mod tables;
pub mod timeseries;
pub mod vendor_analysis;

pub use frame::{Enriched, FramePass, FrameWindow, SectorDayFrame, SectorDayObs};
pub use geodemo::{HoDensity, HoDensityPass, PopulationInference, PopulationPass};
pub use handovers::{
    DistrictDistribution, DistrictPass, DurationAnalysis, DurationPass, HoTypePass, HoTypeTable,
};
pub use heterogeneity::{DatasetStats, DeploymentEvolution, DeviceMix, RatUsage};
pub use hof::{CauseAnalysis, CausePass, HofPatterns, HofPatternsPass};
pub use manufacturer::{ManufacturerImpact, ManufacturerPass};
pub use mobility_analysis::{HofVsMobility, MobilityEcdfs};
pub use modeling::{HofModels, ModelingOptions};
pub use pingpong::{PingPongAnalysis, PingPongPass};
pub use study::{join, splits, Study, StudyPasses, SweepOutputs};
pub use sweep::{
    restore_pass, snapshot_pass, AnalysisPass, Sweep, SweepCtx, TraceCounts, TraceCountsPass,
};
pub use tables::TextTable;
pub use timeseries::TemporalEvolution;
pub use vendor_analysis::{VendorAnalysis, VendorPass};
