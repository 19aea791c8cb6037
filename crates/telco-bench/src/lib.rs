//! # telco-bench
//!
//! Shared fixture for the Criterion kernel benches (`benches/kernels.rs`):
//! the hot paths below any layer the repository benchmark (`perfbench/`)
//! times — a batch of UE-days, the handover state machine, the trace
//! codec, serving-sector lookups, and the OLS/ANOVA/ECDF kernels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::OnceLock;

use telco_analytics::Study;
use telco_sim::SimConfig;

/// The benchmark study: a one-week, 2k-UE run shared by every benchmark
/// (simulated once per process).
pub fn fixture_study() -> &'static Study {
    static CELL: OnceLock<Study> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut cfg = SimConfig::tiny();
        cfg.n_ues = 2_000;
        cfg.n_days = 7;
        cfg.threads = 0;
        Study::run(cfg)
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn fixture_builds() {
        assert!(super::fixture_study().data().trace.len() > 1000);
    }
}
