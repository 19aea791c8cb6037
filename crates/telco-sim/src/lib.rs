//! # telco-sim
//!
//! The deterministic, event-driven simulation engine that generates the
//! paper's datasets: per-UE-day trajectories walked against the radio
//! topology, every connected-mode sector crossing executed through the
//! Fig. 1 handover state machine with calibrated vertical-fallback,
//! failure, and duration models, observed by the MME/MSC/SGSN/SGW probe.
//!
//! ## Example
//!
//! ```
//! use telco_sim::{run_study, SimConfig};
//!
//! let data = run_study(SimConfig::tiny());
//! assert!(!data.trace.is_empty());
//! // Same config, same bits: runs are pure functions of the config.
//! let again = run_study(SimConfig::tiny());
//! assert_eq!(
//!     data.trace.as_dataset().unwrap().records(),
//!     again.trace.as_dataset().unwrap().records(),
//! );
//! ```

// telco-lint: deny-nondeterminism
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod load;
pub mod output;
pub mod runner;
pub mod steal;
pub mod world;

pub use config::{CoverageConfig, SessionConfig, SimConfig};
pub use engine::{sample_points, sample_points_into, simulate_ue_day, SimScratch};
pub use output::{RatLedger, SimOutput, UeDayMobility};
pub use runner::{
    run_on_world, run_on_world_chunked, run_on_world_spilled, run_on_world_spilled_chunked,
    run_shard, run_study, run_study_spilled, RunnerMode, RunnerStats, StudyData, DEFAULT_UE_CHUNK,
    MERGE_FAN_IN, SEQUENTIAL_UE_THRESHOLD,
};
pub use steal::{collect_runs, StealCursor};
pub use telco_trace::source::{SpilledTrace, TraceSource};
pub use world::{SectorLists, UeAttrs, World};
