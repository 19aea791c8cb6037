//! `paper_tables`: config → every rendered table and figure of the paper
//! (the `repro all` set) on the small preset, out of core. One operation
//! simulates at `nproc` threads into a spilled v3 trace, sweeps it once,
//! fits the §6.3 models and renders every table.
//!
//! Gate: each operation's rendered text equals the reference rendered in
//! set-up from the in-memory study.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use telco_analytics::{HofModels, Study};
use telco_sim::{run_study_spilled, SimConfig, StudyData};
use telco_trace::SignalingDataset;

use crate::spans::{self, Tracer};
use crate::{in_memory_study, repeat_setup, timed_phases, Bench, Report, Round, OP_SPAN};

pub fn run(b: &Bench, tracer: &Arc<Tracer>) -> (Report, Vec<f64>) {
    let mut config = b.config(false);
    config.threads = b.nproc;
    let (reference, setup_s) = repeat_setup(|| reference_tables(&config, tracer));
    let mut report = Report::default();

    let mut op = 0u64;
    let mut last: Option<Study> = None;
    let timed = timed_phases(b, tracer, |t| {
        op += 1;
        last = None;
        let dir = b.scratch("spill");
        let t0 = Instant::now();
        let (tables, study, spilled_s) = t.span(OP_SPAN, None, Some(op), |root| {
            config_to_tables(&config, &dir, t, root, Some(op))
        });
        let secs = t0.elapsed().as_secs_f64();
        report.check(tables == reference, || format!("operation {op}: rendered tables differ"));
        let records_per_s = study.data().trace.len() as f64 / spilled_s;
        last = Some(study);
        Round { op_s: vec![secs], records_per_s }
    });
    report.timed = timed;

    if b.traced {
        let study = last.expect("at least one operation ran");
        probe_trace(b, tracer, study.data(), &mut report);
        let spans = tracer.spans();
        for (metric, span) in [
            ("telco-sim.world_build_s", "telco-sim.world_build"),
            ("telco-sim.run_s", "telco-sim.run"),
            ("telco-sim.spilled_study_s", "telco-sim.spilled_study"),
            ("telco-analytics.sweep_mt_s", "telco-analytics.sweep_mt"),
            ("telco-analytics.sweep_s", "telco-analytics.sweep"),
            ("telco-analytics.models_s", "telco-analytics.models"),
            ("telco-analytics.render_s", "telco-analytics.render"),
        ] {
            report.layer_median(metric, &spans::durations(&spans, span));
        }
        report.layer("telco-sim.ue_days", study.data().output.runner.ue_days as f64);
        report.layer("telco-sim.records", study.data().trace.len() as f64);
        report.span_layers(&spans);
    }
    (report, setup_s)
}

/// Set-up: the reference tables from the in-memory study (which also warms
/// the simulation, sweep and model code before anything is timed).
fn reference_tables(config: &SimConfig, t: &Tracer) -> String {
    let study = Study::from_data(in_memory_study(config, t));
    render(&study, &study.models())
}

/// One operation: simulate out of core, sweep, model, render. Also returns
/// the seconds the out-of-core stage (simulate, encode, spill) took.
fn config_to_tables(
    config: &SimConfig,
    dir: &std::path::Path,
    t: &Tracer,
    root: Option<u64>,
    op: Option<u64>,
) -> (String, Study, f64) {
    let t0 = Instant::now();
    let data = t.span("telco-sim.spilled_study", root, op, |_| {
        run_study_spilled(config.clone(), dir).expect("spilled simulation inside the checkout")
    });
    let spilled_s = t0.elapsed().as_secs_f64();
    let study = Study::from_data(data);
    let sweep =
        if config.threads > 1 { "telco-analytics.sweep_mt" } else { "telco-analytics.sweep" };
    t.span(sweep, root, op, |_| {
        study.sweep();
    });
    let models = t.span("telco-analytics.models", root, op, |_| study.models());
    let tables = t.span("telco-analytics.render", root, op, |_| render(&study, &models));
    (tables, study, spilled_s)
}

/// Traced-run probe of the trace layer on the last operation's dataset:
/// decode with no pass attached, then encode the same records as v3.
fn probe_trace(b: &Bench, t: &Tracer, data: &StudyData, report: &mut Report) {
    let batches_before = data.trace.column_batches();
    let mut seen = 0u64;
    let t0 = Instant::now();
    t.span("telco-trace.decode", None, None, |_| {
        data.trace
            .for_each_columns(|batch| seen += batch.len() as u64)
            .expect("decode spilled trace")
    });
    let decode_s = t0.elapsed().as_secs_f64();
    report.check(seen == data.trace.len(), || {
        format!("decode saw {seen} of {} records", data.trace.len())
    });
    report.layer("telco-trace.decode_s", decode_s);
    report.layer("telco-trace.decode_records_per_s", seen as f64 / decode_s);
    report
        .layer("telco-trace.column_batches", (data.trace.column_batches() - batches_before) as f64);

    let mut records = Vec::with_capacity(seen as usize);
    data.trace
        .for_each_chunk(|chunk| records.extend_from_slice(chunk))
        .expect("read spilled trace");
    let dataset = SignalingDataset::from_records(data.trace.days(), records);
    let path = b.scratch("encode").join("probe.tlho");
    let t0 = Instant::now();
    t.span("telco-trace.encode", None, None, |_| {
        telco_trace::store::write_file_v3(&dataset, &path).expect("encode v3 inside the checkout")
    });
    let encode_s = t0.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    report.layer("telco-trace.encode_s", encode_s);
    report.layer("telco-trace.encoded_bytes", bytes as f64);
    report.layer("telco-trace.bytes_per_record", bytes as f64 / dataset.len().max(1) as f64);
}

/// Every table and figure `repro all` renders, in its order (the headline
/// and ablation summaries aside).
pub fn render(study: &Study, models: &HofModels) -> String {
    let mut out = String::new();
    let mut put = |s: &dyn std::fmt::Display| {
        let _ = writeln!(out, "{s}");
    };
    put(&study.dataset_stats().table());
    put(&study.ho_types().table());
    put(&HofModels::table3());
    put(&study.deployment_evolution().table());
    put(&study.rat_usage().table());
    put(&study.device_mix().table_manufacturers());
    put(&study.device_mix().table_rat_support());
    put(&study.population_inference().table());
    put(&study.ho_density().table());
    put(&study.temporal_evolution().table());
    put(&study.durations().table());
    put(&study.district_distribution().table());
    put(&study.mobility().table());
    put(&study.manufacturer_impact().table());
    put(&study.hof_patterns().table());
    put(&study.hof_vs_mobility().table());
    let causes = study.causes();
    put(&causes.table_shares());
    put(&causes.table_durations());
    put(&causes.table_stacked());
    put(&models.table4());
    put(&HofModels::regression_table(&models.full_model, "Table 5"));
    put(&models.table6());
    put(&HofModels::regression_table(&models.no_2g_model, "Table 7"));
    put(&HofModels::quantile_table(&models.quantile_filtered, "Table 8"));
    put(&HofModels::quantile_table(&models.quantile_all, "Table 9"));
    let mut fig16 = String::new();
    for (label, panel) in [
        ("all", &models.ecdf_all),
        ("non-zero", &models.ecdf_nonzero),
        ("filtered", &models.ecdf_filtered),
    ] {
        for (ty, ecdf) in panel.iter().enumerate() {
            if let Some(e) = ecdf {
                let _ = writeln!(
                    fig16,
                    "{label} {ty}: {} {} {}",
                    e.median(),
                    e.quantile(0.90),
                    e.len()
                );
            }
        }
    }
    put(&fig16);
    put(&study.pingpong().table());
    put(&study.vendor_analysis().table_shares());
    put(&study.vendor_analysis().table_boxplots());
    out
}
