//! The `Study` orchestrator: run a simulation once, then fill **every**
//! record-derived analysis in a single shared sweep of the trace.
//!
//! The first call to any swept getter triggers one [`Sweep`] that runs
//! the [`StudyPasses`] composite — eight record analyses plus the daily
//! sector frame as one visitor — so a full study traverses the trace
//! once whether it lives in memory or spilled on disk. The trace counts,
//! Figs. 6, 9 and 17 and the full-period frame are sums of the daily
//! frame's cells, derived from it at `end`; above one thread, the frame's
//! merge and `end` run beside the other analyses'. Analyses that read
//! only the world or the mobility output (device mix, RAT usage,
//! deployment evolution, mobility ECDFs) never touch the trace at all.

use serde::Serialize;
use telco_sim::{run_study, SimConfig, StudyData};
use telco_trace::snap::{SnapError, SnapReader, SnapWriter};

use crate::frame::{FramePass, FromDailyFrame, SectorDayFrame};
use crate::geodemo::{HoDensity, PopulationInference, PopulationPass};
use crate::handovers::{
    DistrictDistribution, DurationAnalysis, DurationPass, HoTypePass, HoTypeTable,
};
use crate::heterogeneity::{DatasetStats, DeploymentEvolution, DeviceMix, RatUsage};
use crate::hof::{CauseAnalysis, CausePass, HofPatterns, HofPatternsPass};
use crate::manufacturer::{ManufacturerImpact, ManufacturerPass};
use crate::mobility_analysis::{HofVsMobility, MobilityEcdfs};
use crate::modeling::{HofModels, ModelingOptions};
use crate::pingpong::{PingPongAnalysis, PingPongPass};
use crate::sweep::{
    resolve_threads, restore_pass, snapshot_pass, AnalysisPass, Sweep, SweepCtx, TraceCounts,
};
use crate::timeseries::{TemporalEvolution, TemporalPass};
use crate::vendor_analysis::VendorAnalysis;

/// Everything one shared sweep produces: the full set of record-derived
/// analyses plus both sector frames. Serializes (for the query front of
/// `telco-serve` and the batch-equivalence goldens) with one stable field
/// name per analysis.
#[derive(Serialize)]
pub struct SweepOutputs {
    /// Whole-trace counters (record totals, failure count).
    pub trace_counts: TraceCounts,
    /// Table 2.
    pub ho_types: HoTypeTable,
    /// Fig. 8.
    pub durations: DurationAnalysis,
    /// Fig. 9.
    pub district_distribution: DistrictDistribution,
    /// Fig. 5.
    pub population_inference: PopulationInference,
    /// Fig. 6.
    pub ho_density: HoDensity,
    /// Fig. 7.
    pub temporal_evolution: TemporalEvolution,
    /// Fig. 11.
    pub manufacturer_impact: ManufacturerImpact,
    /// Fig. 12.
    pub hof_patterns: HofPatterns,
    /// Figs. 14–15.
    pub causes: CauseAnalysis,
    /// The §7 ping-pong lens.
    pub pingpong: PingPongAnalysis,
    /// Figs. 17–18.
    pub vendor_analysis: VendorAnalysis,
    /// The daily sector frame.
    pub frame: SectorDayFrame,
    /// The full-period sector frame used by the §6.3 models.
    pub period_frame: SectorDayFrame,
}

/// The composite pass behind [`Study`]: every record analysis and the
/// daily sector frame as one visitor, so the sweep driver feeds each
/// record to all of them during a single traversal. Its `end` derives the
/// outputs that are sums of the daily frame's cells.
///
/// Above one sweep thread, `merge` and `end` run in two groups at once:
/// the daily frame (its grid merge, then `finish` and the five outputs
/// derived from it) on a scoped worker, the eight record analyses on the
/// calling thread. The frame chain is the longer group, so more groups
/// would not shorten the tail. Each sub-pass still merges in span order
/// and ends from its own state, so the outputs are the same bytes at
/// every thread count.
#[derive(Default)]
pub struct StudyPasses {
    ho_types: HoTypePass,
    durations: DurationPass,
    population: PopulationPass,
    temporal: TemporalPass,
    manufacturer: ManufacturerPass,
    hof_patterns: HofPatternsPass,
    causes: CausePass,
    pingpong: PingPongPass,
    frame: FramePass,
}

impl AnalysisPass for StudyPasses {
    type Output = SweepOutputs;

    fn begin(&mut self, ctx: &SweepCtx) {
        self.ho_types.begin(ctx);
        self.durations.begin(ctx);
        self.population.begin(ctx);
        self.temporal.begin(ctx);
        self.manufacturer.begin(ctx);
        self.hof_patterns.begin(ctx);
        self.causes.begin(ctx);
        self.pingpong.begin(ctx);
        self.frame.begin(ctx);
    }

    fn record(&mut self, r: &telco_trace::record::HoRecord, e: &crate::frame::Enriched) {
        self.ho_types.record(r, e);
        self.durations.record(r, e);
        self.population.record(r, e);
        self.temporal.record(r, e);
        self.manufacturer.record(r, e);
        self.hof_patterns.record(r, e);
        self.causes.record(r, e);
        self.pingpong.record(r, e);
        self.frame.record(r, e);
    }

    // telco-lint: deny-alloc(begin)
    fn record_columns(
        &mut self,
        batch: &telco_trace::columnar::ColumnBatch,
        e: &crate::frame::Enriched,
    ) {
        // One tight column scan per sub-pass: each accumulator's state
        // stays hot through its own loop instead of the whole composite's
        // working set being dragged through the cache per record, and the
        // sub-passes that read only a couple of columns skip the rest of
        // the batch entirely.
        self.ho_types.record_columns(batch, e);
        self.durations.record_columns(batch, e);
        self.population.record_columns(batch, e);
        self.temporal.record_columns(batch, e);
        self.manufacturer.record_columns(batch, e);
        self.hof_patterns.record_columns(batch, e);
        self.causes.record_columns(batch, e);
        self.pingpong.record_columns(batch, e);
        self.frame.record_columns(batch, e);
    }
    // telco-lint: deny-alloc(end)

    fn merge(&mut self, other: Self, ctx: &SweepCtx) {
        join(
            splits(ctx),
            || self.frame.merge(other.frame, ctx),
            || {
                self.ho_types.merge(other.ho_types, ctx);
                self.durations.merge(other.durations, ctx);
                self.population.merge(other.population, ctx);
                self.temporal.merge(other.temporal, ctx);
                self.manufacturer.merge(other.manufacturer, ctx);
                self.hof_patterns.merge(other.hof_patterns, ctx);
                self.causes.merge(other.causes, ctx);
                self.pingpong.merge(other.pingpong, ctx);
            },
        );
    }

    fn end(self, ctx: &SweepCtx) -> SweepOutputs {
        let (
            (trace_counts, district_distribution, ho_density, vendor_analysis, period_frame, frame),
            (
                ho_types,
                durations,
                population_inference,
                temporal_evolution,
                manufacturer_impact,
                hof_patterns,
                causes,
                pingpong,
            ),
        ) = join(
            splits(ctx),
            || {
                let frame = self.frame.end(ctx);
                (
                    TraceCounts::from_daily_frame(&frame, ctx),
                    DistrictDistribution::from_daily_frame(&frame, ctx),
                    HoDensity::from_daily_frame(&frame, ctx),
                    VendorAnalysis::from_daily_frame(&frame, ctx),
                    frame.full_period(ctx.config.n_days),
                    frame,
                )
            },
            || {
                (
                    self.ho_types.end(ctx),
                    self.durations.end(ctx),
                    self.population.end(ctx),
                    self.temporal.end(ctx),
                    self.manufacturer.end(ctx),
                    self.hof_patterns.end(ctx),
                    self.causes.end(ctx),
                    self.pingpong.end(ctx),
                )
            },
        );
        SweepOutputs {
            trace_counts,
            ho_types,
            durations,
            district_distribution,
            population_inference,
            ho_density,
            temporal_evolution,
            manufacturer_impact,
            hof_patterns,
            causes,
            pingpong,
            vendor_analysis,
            frame,
            period_frame,
        }
    }

    const SNAPSHOT_VERSION: u16 = 4;

    /// The composite embeds one full frame (magic + version + CRC) per
    /// sub-pass, so a version bump in any single analysis invalidates a
    /// stale composite snapshot with a precise per-pass error instead of
    /// silently misparsing the neighbors' bytes.
    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_bytes(&snapshot_pass(&self.ho_types));
        w.put_bytes(&snapshot_pass(&self.durations));
        w.put_bytes(&snapshot_pass(&self.population));
        w.put_bytes(&snapshot_pass(&self.temporal));
        w.put_bytes(&snapshot_pass(&self.manufacturer));
        w.put_bytes(&snapshot_pass(&self.hof_patterns));
        w.put_bytes(&snapshot_pass(&self.causes));
        w.put_bytes(&snapshot_pass(&self.pingpong));
        w.put_bytes(&snapshot_pass(&self.frame));
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        restore_pass(&mut self.ho_types, r.get_bytes()?)?;
        restore_pass(&mut self.durations, r.get_bytes()?)?;
        restore_pass(&mut self.population, r.get_bytes()?)?;
        restore_pass(&mut self.temporal, r.get_bytes()?)?;
        restore_pass(&mut self.manufacturer, r.get_bytes()?)?;
        restore_pass(&mut self.hof_patterns, r.get_bytes()?)?;
        restore_pass(&mut self.causes, r.get_bytes()?)?;
        restore_pass(&mut self.pingpong, r.get_bytes()?)?;
        restore_pass(&mut self.frame, r.get_bytes()?)
    }
}

/// Whether work under `ctx` splits in two groups (the composite's merge
/// and `end`, a served view's JSON): only when the sweep runs on more
/// than one thread, resolved as [`Sweep::run`] resolves it, so a
/// one-thread sweep spawns nothing.
pub fn splits(ctx: &SweepCtx) -> bool {
    resolve_threads(ctx.config) > 1
}

/// Run `a` on a scoped worker while this thread runs `b` when
/// `parallel`, else both here, `a` first. The two share no state, so the
/// results are the same either way. A panic in the worker resurfaces
/// here with its own payload.
pub fn join<A: Send, B>(
    parallel: bool,
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B,
) -> (A, B) {
    if !parallel {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let worker = scope.spawn(a);
        let b = b();
        (worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)), b)
    })
}

/// A completed study plus its analyses, all filled by one shared sweep on
/// first use. The sweep runs on `SimConfig::threads` threads (0 = the
/// available parallelism); above one, the spans fold in parallel and the
/// [`StudyPasses`] merge and `end` split in two.
pub struct Study {
    data: StudyData,
    sweep: std::sync::OnceLock<SweepOutputs>,
}

impl Study {
    /// Run a simulation and wrap it.
    pub fn run(config: SimConfig) -> Self {
        Self::from_data(run_study(config))
    }

    /// Wrap an existing study.
    pub fn from_data(data: StudyData) -> Self {
        Study { data, sweep: std::sync::OnceLock::new() }
    }

    /// The underlying simulation output.
    pub fn data(&self) -> &StudyData {
        &self.data
    }

    /// The shared sweep results (one trace traversal, computed once).
    pub fn sweep(&self) -> &SweepOutputs {
        self.sweep.get_or_init(|| {
            Sweep::new(&self.data)
                .run(StudyPasses::default)
                .unwrap_or_else(|issue| panic!("study sweep failed: {issue:?}"))
        })
    }

    /// Whole-trace counters (record totals per type, failure count).
    pub fn trace_counts(&self) -> &TraceCounts {
        &self.sweep().trace_counts
    }

    /// The sector-day frame (filled by the shared sweep).
    pub fn frame(&self) -> &SectorDayFrame {
        &self.sweep().frame
    }

    /// The full-period sector frame used by the regression models: one
    /// observation per (sector, study period, HO type) — the
    /// scale-equivalent of the paper's sector-day unit given ~3,000×
    /// fewer UEs (see DESIGN.md). Comes from the same sweep as
    /// [`Study::frame`], never a second traversal.
    pub fn period_frame(&self) -> &SectorDayFrame {
        &self.sweep().period_frame
    }

    /// Table 1 — dataset statistics (no trace scan: sealed counts only).
    pub fn dataset_stats(&self) -> DatasetStats {
        DatasetStats::compute(&self.data)
    }

    /// Table 2 — HO type × device type shares.
    pub fn ho_types(&self) -> &HoTypeTable {
        &self.sweep().ho_types
    }

    /// Fig. 3a — deployment evolution.
    pub fn deployment_evolution(&self) -> DeploymentEvolution {
        DeploymentEvolution::compute(&self.data)
    }

    /// Fig. 3b — RAT usage and traffic shares.
    pub fn rat_usage(&self) -> RatUsage {
        RatUsage::compute(&self.data)
    }

    /// Fig. 4 — device mix.
    pub fn device_mix(&self) -> DeviceMix {
        DeviceMix::compute(&self.data)
    }

    /// Fig. 5 — population inference vs census.
    pub fn population_inference(&self) -> &PopulationInference {
        &self.sweep().population_inference
    }

    /// Fig. 6 — HO density vs population density.
    pub fn ho_density(&self) -> &HoDensity {
        &self.sweep().ho_density
    }

    /// Fig. 7 — temporal evolution.
    pub fn temporal_evolution(&self) -> &TemporalEvolution {
        &self.sweep().temporal_evolution
    }

    /// Fig. 8 — duration ECDFs.
    pub fn durations(&self) -> &DurationAnalysis {
        &self.sweep().durations
    }

    /// Fig. 9 — district distribution of HO types.
    pub fn district_distribution(&self) -> &DistrictDistribution {
        &self.sweep().district_distribution
    }

    /// Fig. 10 — mobility ECDFs.
    pub fn mobility(&self) -> MobilityEcdfs {
        MobilityEcdfs::compute(&self.data)
    }

    /// Fig. 11 — manufacturer impact (device threshold scaled to the run).
    pub fn manufacturer_impact(&self) -> &ManufacturerImpact {
        &self.sweep().manufacturer_impact
    }

    /// Fig. 12 — hourly HOF patterns.
    pub fn hof_patterns(&self) -> &HofPatterns {
        &self.sweep().hof_patterns
    }

    /// Fig. 13 — HOF rate vs mobility.
    pub fn hof_vs_mobility(&self) -> HofVsMobility {
        HofVsMobility::compute(&self.data)
    }

    /// Figs. 14–15 — cause analysis.
    pub fn causes(&self) -> &CauseAnalysis {
        &self.sweep().causes
    }

    /// Tables 4–9 + Fig. 16 — the §6.3 statistical models, computed on the
    /// full-period frame so per-cell HOF rates are well resolved.
    pub fn models(&self) -> HofModels {
        HofModels::compute(self.period_frame(), ModelingOptions::default())
    }

    /// Figs. 17–18 — vendor analysis.
    pub fn vendor_analysis(&self) -> &VendorAnalysis {
        &self.sweep().vendor_analysis
    }

    /// Ping-pong handover analysis (§7's operator-side PP-HO lens).
    pub fn pingpong(&self) -> &PingPongAnalysis {
        &self.sweep().pingpong
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telco_sim::TraceSource;
    use telco_trace::dataset::SignalingDataset;

    #[test]
    fn study_end_to_end_smoke() {
        let mut cfg = SimConfig::tiny();
        cfg.n_ues = 1_200;
        cfg.n_days = 3;
        let study = Study::run(cfg);
        // Exercise the full API surface once.
        assert!(study.dataset_stats().daily_hos > 0.0);
        assert!(study.ho_types().intra_share() > 0.5);
        assert!(study.rat_usage().epc_time_share > 0.5);
        assert!(study.device_mix().type_shares[0] > 0.3);
        assert!(study.ho_density().pearson > 0.0);
        assert!(study.durations().intra.as_ref().is_some_and(|e| e.len() > 10));
        assert!(study.causes().principal_share() > 0.5);
        assert!(!study.frame().is_empty());
        let models = study.models();
        assert!(models.anova_ho_type.p_value < 0.05);
    }

    #[test]
    fn only_a_multi_thread_sweep_splits_the_composite() {
        let mut config = SimConfig::tiny();
        let world = telco_sim::World::build(&config);
        for (threads, split) in [(1, false), (2, true), (8, true)] {
            config.threads = threads;
            assert_eq!(splits(&SweepCtx { world: &world, config: &config }), split, "{threads}");
        }
        let here = std::thread::current().id();
        assert_eq!(join(false, || std::thread::current().id(), || 1), (here, 1));
        let (worker, one) = join(true, || std::thread::current().id(), || 1);
        assert_ne!(worker, here);
        assert_eq!(one, 1);
    }

    #[test]
    fn an_empty_trace_sweeps_to_empty_outputs() {
        let mut config = SimConfig::tiny();
        config.n_ues = 50;
        let mut data = run_study(config);
        data.trace = TraceSource::in_memory(SignalingDataset::new(data.config.n_days));
        for threads in [1, 2] {
            data.config.threads = threads;
            let out = Sweep::new(&data).run(StudyPasses::default).unwrap();
            assert_eq!(out.trace_counts.records, 0);
            assert!(out.durations.intra.is_none() && out.durations.to3g.is_none());
            assert!(out.frame.is_empty() && out.period_frame.is_empty());
        }
    }

    #[test]
    fn a_worker_panic_resurfaces_with_its_message() {
        let payload =
            std::panic::catch_unwind(|| join(true, || panic!("frame chain failed"), || ()))
                .unwrap_err();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(message, Some("frame chain failed"));
    }

    #[test]
    fn full_study_is_one_shared_sweep() {
        let mut cfg = SimConfig::tiny();
        cfg.n_ues = 800;
        cfg.n_days = 2;
        let dir = std::env::temp_dir().join(format!("telco_one_sweep_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spilled = Study::from_data(telco_sim::run_study_spilled(cfg.clone(), &dir).unwrap());
        for (label, study) in [("in memory", Study::run(cfg)), ("spilled", spilled)] {
            let trace = &study.data().trace;
            let (sweeps_before, batches_before) = (trace.sweeps(), trace.column_batches());
            // Touch every analysis the repro pipeline renders, including
            // both frames and the models built on the period frame.
            let _ = study.trace_counts();
            let _ = study.dataset_stats();
            let _ = study.ho_types();
            let _ = study.deployment_evolution();
            let _ = study.rat_usage();
            let _ = study.device_mix();
            let _ = study.population_inference();
            let _ = study.ho_density();
            let _ = study.temporal_evolution();
            let _ = study.durations();
            let _ = study.district_distribution();
            let _ = study.mobility();
            let _ = study.manufacturer_impact();
            let _ = study.hof_patterns();
            let _ = study.hof_vs_mobility();
            let _ = study.causes();
            let _ = study.models();
            let _ = study.vendor_analysis();
            let _ = study.pingpong();
            let _ = study.frame();
            let _ = study.period_frame();
            let sweeps = trace.sweeps() - sweeps_before;
            assert_eq!(sweeps, 1, "{label}: full study took {sweeps} trace traversals, expected 1");
            assert!(
                trace.column_batches() > batches_before,
                "{label}: the sweep fell back from column batches to rows"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
