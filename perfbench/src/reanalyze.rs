//! `reanalyze`: re-run the full analysis over a sealed trace. Set-up
//! simulates the medium preset and seals it as a v3 trace; the operations
//! alternate one `Sweep::run(StudyPasses::default)` at one thread and one at
//! `nproc` threads, and each timed round is one such pair.
//!
//! Gates: every sweep sees the sealed record count and advances
//! `column_batches()` (no silent fallback to row dispatch); once per run,
//! untimed, the `SweepOutputs` JSON at one thread and at `nproc` threads
//! must equal the in-memory study's.

use std::sync::Arc;
use std::time::Instant;

use telco_analytics::timeseries::TemporalPass;
use telco_analytics::{
    AnalysisPass, CausePass, DistrictPass, DurationPass, Enriched, FramePass, FrameWindow,
    HoDensityPass, HoTypePass, HofPatternsPass, ManufacturerPass, PingPongPass, PopulationPass,
    StudyPasses, Sweep, SweepCtx, TraceCountsPass, VendorPass,
};
use telco_sim::{SimConfig, StudyData, TraceSource};
use telco_trace::store::{TraceWriter, DEFAULT_CHUNK_RECORDS};

use crate::spans::{self, Tracer};
use crate::{
    in_memory_study, outputs_digest, repeat_setup, timed_phases, Bench, Report, Round, OP_SPAN,
    PASSES,
};

/// The sealed trace and what its outputs must be.
struct Sealed {
    data: StudyData,
    /// Digest and length of the in-memory study's `SweepOutputs` JSON.
    reference: (u64, usize),
}

pub fn run(b: &Bench, tracer: &Arc<Tracer>) -> (Report, Vec<f64>) {
    let config = b.config(true);
    let (mut sealed, setup_s) = repeat_setup(|| seal(b, &config, tracer));
    let records = sealed.data.trace.len();
    let mut report = Report::default();

    let data = &mut sealed.data;
    let mut op = 0u64;
    let timed = timed_phases(b, tracer, |t| {
        op += 1;
        // Wall time of the sweep at one thread and at nproc threads.
        let mut secs = [0.0; 2];
        t.span(OP_SPAN, None, Some(op), |root| {
            let kinds = [(1, "telco-analytics.sweep"), (b.nproc, "telco-analytics.sweep_mt")];
            for (i, (threads, span)) in kinds.into_iter().enumerate() {
                data.config.threads = threads;
                let batches = data.trace.column_batches();
                let t1 = Instant::now();
                let out =
                    t.span(span, root, Some(op), |_| Sweep::new(data).run(StudyPasses::default));
                secs[i] = t1.elapsed().as_secs_f64();
                let seen = out.as_ref().map_or(0, |o| o.trace_counts.records);
                report.check(seen == records && data.trace.column_batches() > batches, || {
                    format!(
                        "round {op}: swept {seen} of {records} records at {threads} thread(s), \
                         or without column batches"
                    )
                });
            }
        });
        // `op_p50_ms` is the one-thread sweep, `records_per_s` the nproc one.
        Round { op_s: vec![secs[0]], records_per_s: records as f64 / secs[1] }
    });
    let one = records as f64 / crate::stats::median(&timed.op_s);
    let mt = crate::stats::median(&timed.records_per_s);
    let n = timed.op_s.len();
    report.notes.push(format!("sweep_records_per_s: {one:.0} records/s (median of {n} sweeps)"));
    report.notes.push(format!("sweep_mt_records_per_s: {mt:.0} records/s (median of {n} sweeps)"));
    report.timed = timed;

    // Untimed, once per run: one thread, nproc threads and the reference agree.
    for threads in [1, b.nproc] {
        data.config.threads = threads;
        let json = Sweep::new(data).run(StudyPasses::default).map(|o| outputs_digest(&o));
        report.check(json.as_ref().ok() == Some(&sealed.reference), || {
            format!("SweepOutputs JSON at {threads} thread(s) differs from the in-memory study's")
        });
    }

    if b.traced {
        data.config.threads = 1;
        probe(data, tracer, &mut report);
        let spans = tracer.spans();
        for (metric, span) in [
            ("telco-sim.world_build_s", "telco-sim.world_build"),
            ("telco-sim.run_s", "telco-sim.run"),
            ("telco-trace.encode_s", "telco-trace.encode"),
            ("telco-analytics.sweep_s", "telco-analytics.sweep"),
            ("telco-analytics.sweep_mt_s", "telco-analytics.sweep_mt"),
        ] {
            report.layer_median(metric, &spans::durations(&spans, span));
        }
        let swept = spans::durations(&spans, "telco-analytics.sweep");
        if let (false, Some(&decode)) =
            (swept.is_empty(), report.layers.get("telco-trace.decode_s"))
        {
            report.layer("telco-analytics.analyze_self_s", crate::stats::median(&swept) - decode);
        }
        report.layer("telco-sim.ue_days", data.output.runner.ue_days as f64);
        report.layer("telco-sim.records", records as f64);
        report.span_layers(&spans);
    }
    (report, setup_s)
}

/// Set-up: simulate the preset in memory, seal its records as a v3 trace
/// in the chunk size the out-of-core runner writes, take the in-memory
/// study's outputs as the reference, and warm up with one untimed sweep at
/// each thread count.
fn seal(b: &Bench, config: &SimConfig, t: &Tracer) -> Sealed {
    let mut in_memory = in_memory_study(config, t);
    let dataset = in_memory.trace.as_dataset().expect("an in-memory trace");
    let path = b.scratch("sealed").join("study-trace.tlho");
    t.span("telco-trace.encode", None, None, |_| -> std::io::Result<()> {
        let mut writer = TraceWriter::create(&path, dataset.days)?;
        for chunk in dataset.records().chunks(DEFAULT_CHUNK_RECORDS) {
            writer.write_chunk(chunk)?;
        }
        writer.finish().map(drop)
    })
    .expect("seal the trace inside the checkout");
    let (days, records) = (dataset.days, dataset.len() as u64);

    in_memory.config.threads = 1;
    let reference =
        outputs_digest(&Sweep::new(&in_memory).run(StudyPasses::default).expect("in-memory sweep"));

    let StudyData { config, world, output, .. } = in_memory;
    let mut data =
        StudyData { config, world, output, trace: TraceSource::spilled(path, days, records) };
    for threads in [1, b.nproc] {
        data.config.threads = threads;
        Sweep::new(&data).run(StudyPasses::default).expect("warm-up sweep");
    }
    Sealed { data, reference }
}

/// Traced-run probes at one thread: decode with no pass, each pass on its
/// own, the composite's `end`, and the fold of per-chunk partials.
fn probe(one: &StudyData, t: &Tracer, report: &mut Report) {
    let batches_before = one.trace.column_batches();
    let mut seen = 0u64;
    let t0 = Instant::now();
    t.span("telco-trace.decode", None, None, |_| {
        one.trace.for_each_columns(|batch| seen += batch.len() as u64).expect("decode sealed trace")
    });
    let decode_s = t0.elapsed().as_secs_f64();
    report.layer("telco-trace.decode_s", decode_s);
    report.layer("telco-trace.decode_records_per_s", seen as f64 / decode_s);
    report
        .layer("telco-trace.column_batches", (one.trace.column_batches() - batches_before) as f64);

    let sweeps = [
        pass_sweep(one, TraceCountsPass::default),
        pass_sweep(one, HoTypePass::default),
        pass_sweep(one, DurationPass::default),
        pass_sweep(one, DistrictPass::default),
        pass_sweep(one, PopulationPass::default),
        pass_sweep(one, HoDensityPass::default),
        pass_sweep(one, TemporalPass::default),
        pass_sweep(one, ManufacturerPass::default),
        pass_sweep(one, HofPatternsPass::default),
        pass_sweep(one, CausePass::default),
        pass_sweep(one, PingPongPass::default),
        pass_sweep(one, VendorPass::default),
        pass_sweep(one, || FramePass::new(FrameWindow::Daily)),
        pass_sweep(one, || FramePass::new(FrameWindow::FullPeriod)),
    ];
    for (name, secs) in PASSES.iter().zip(sweeps) {
        report.layer(&format!("telco-analytics.pass.{name}_s"), secs - decode_s);
    }

    // The composite driven by hand: every column batch becomes its own
    // partial folded into the base in order, as the chunk-parallel sweep
    // folds them; then `end`.
    let ctx = SweepCtx { world: &one.world, config: &one.config };
    let enriched = Enriched::new(&one.world);
    let mut base = StudyPasses::default();
    base.begin(&ctx);
    let mut merge_s = 0.0;
    one.trace
        .for_each_columns(|batch| {
            let mut part = StudyPasses::default();
            part.begin(&ctx);
            part.record_columns(batch, &enriched);
            let t0 = Instant::now();
            t.span("telco-analytics.merge", None, None, |_| base.merge(part, &ctx));
            merge_s += t0.elapsed().as_secs_f64();
        })
        .expect("decode sealed trace");
    report.layer("telco-analytics.merge_s", merge_s);
    let t0 = Instant::now();
    let outputs = t.span("telco-analytics.end", None, None, |_| base.end(&ctx));
    report.layer("telco-analytics.end_s", t0.elapsed().as_secs_f64());
    report.check(outputs.trace_counts.records == one.trace.len(), || {
        "hand-driven composite saw a different record count".into()
    });
}

/// Wall time of one single-pass sweep.
fn pass_sweep<P: AnalysisPass + Send>(data: &StudyData, make: impl Fn() -> P + Sync) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(Sweep::new(data).run(make).expect("single-pass sweep"));
    t0.elapsed().as_secs_f64()
}
