//! `perfbench` — the repository benchmark. Drives the workspace only
//! through its public crate APIs, times each operation, checks every
//! operation's output, and prints one JSON result line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--preset default|tiny]
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of a separate traced run,
//! whose spans are also written to `.bench_out/`. See `README.md`.

#![forbid(unsafe_code)]

mod paper_tables;
mod reanalyze;
mod serve_ingest;
mod spans;
mod stats;
mod store;

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use spans::Tracer;
use telco_analytics::SweepOutputs;
use telco_sim::{run_on_world, SimConfig, StudyData, TraceSource, World};

/// Set-ups per run; `setup_s` is their median, which leaves out a cold first
/// set-up (the first is up to 25% slower on `reanalyze` and `serve_ingest`).
const SETUP_REPS: usize = 3;

/// Workload names, as `BENCHMARK.json` declares them.
const WORKLOADS: [&str; 3] = ["paper_tables", "reanalyze", "serve_ingest"];

/// The end-to-end metrics every workload reports, with their units.
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_p50_ms", "ms"), ("records_per_s", "1/s")];

/// The fourteen analyses of the study composite, by `SweepOutputs` field.
pub const PASSES: [&str; 14] = [
    "trace_counts",
    "ho_types",
    "durations",
    "district_distribution",
    "population_inference",
    "ho_density",
    "temporal_evolution",
    "manufacturer_impact",
    "hof_patterns",
    "causes",
    "pingpong",
    "vendor_analysis",
    "frame",
    "period_frame",
];

/// The per-layer metrics of a traced run, with their units. A layer a
/// workload does not exercise reports 0.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("telco-sim.world_build_s", "s"),
        ("telco-sim.run_s", "s"),
        ("telco-sim.spilled_study_s", "s"),
        ("telco-sim.ue_days", "count"),
        ("telco-sim.records", "count"),
        ("telco-trace.encode_s", "s"),
        ("telco-trace.encoded_bytes", "bytes"),
        ("telco-trace.bytes_per_record", "B/record"),
        ("telco-trace.decode_s", "s"),
        ("telco-trace.decode_records_per_s", "1/s"),
        ("telco-trace.column_batches", "count"),
        ("telco-analytics.sweep_s", "s"),
        ("telco-analytics.sweep_mt_s", "s"),
        ("telco-analytics.analyze_self_s", "s"),
        ("telco-analytics.end_s", "s"),
        ("telco-analytics.merge_s", "s"),
        ("telco-analytics.models_s", "s"),
        ("telco-analytics.render_s", "s"),
        ("telco-analytics.restore_s", "s"),
        ("telco-analytics.outputs_json_s", "s"),
        ("telco-analytics.outputs_json_bytes", "bytes"),
        ("telco-store.put_s", "s"),
        ("telco-store.commit_s", "s"),
        ("telco-store.delete_s", "s"),
        ("telco-store.bytes_written", "bytes"),
        ("telco-store.objects_committed", "count"),
        ("telco-serve.open_s", "s"),
        ("telco-serve.ingest_day_s", "s"),
        ("telco-serve.ingest_self_s", "s"),
        ("telco-serve.build_view_s", "s"),
        ("telco-serve.publish_s", "s"),
        ("telco-serve.view_bytes", "bytes"),
        ("telco-serve.delta_snapshot_bytes", "bytes"),
        ("telco-serve.baseline_snapshot_bytes", "bytes"),
        ("telco-serve.snapshot_to_trace_ratio", "ratio"),
        ("telco-serve.handle_status_s", "s"),
        ("telco-serve.handle_section_s", "s"),
        ("telco-serve.handle_window_s", "s"),
        ("telco-serve.handle_outputs_s", "s"),
        ("telco-serve.response_bytes_bulk", "bytes"),
        ("telco-serve.query_small_p50_ms", "ms"),
        ("telco-serve.query_small_p99_ms", "ms"),
        ("telco-serve.query_bulk_p50_ms", "ms"),
        ("loadgen.send_lag_p99_ms", "ms"),
        ("loadgen.queries_sent", "count"),
        ("loadgen.queries_failed", "count"),
        ("perfbench.op_s", "s"),
        ("perfbench.tracing_overhead", "ratio"),
    ]
    .iter()
    .map(|&(name, unit)| (name.to_string(), unit))
    .collect();
    m.extend(PASSES.iter().map(|p| (format!("telco-analytics.pass.{p}_s"), "s")));
    m.extend(LAYERS.iter().map(|l| (format!("{l}.self_s"), "s")));
    m
}

/// The layers whose self time per operation the traced run reports;
/// `perfbench` is the operation's own time outside every layer call. The
/// trace layer runs inside the simulation and sweep calls, and the load
/// generator beside the operations, so neither has self time of its own
/// within an operation.
pub const LAYERS: [&str; 5] =
    ["telco-sim", "telco-analytics", "telco-store", "telco-serve", "perfbench"];

/// Which configuration scale a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// The presets each workload names (small, or medium for reanalysis).
    Default,
    /// `SimConfig::tiny` everywhere: the smoke test's scale.
    Tiny,
}

/// Everything a workload needs to know about its run.
pub struct Bench {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub preset: Preset,
    pub nproc: usize,
    /// Scratch directory for spills and stores, removed at exit.
    pub work: PathBuf,
}

impl Bench {
    /// The workload's configuration: `small` unless the workload names
    /// another preset, with the run's seed.
    pub fn config(&self, medium: bool) -> SimConfig {
        let mut config = match (self.preset, medium) {
            (Preset::Tiny, _) => SimConfig::tiny(),
            (Preset::Default, false) => SimConfig::small(),
            (Preset::Default, true) => SimConfig::medium(),
        };
        config.seed = self.seed;
        config
    }

    /// A fresh, empty scratch directory under the run's work directory.
    pub fn scratch(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory in the checkout");
        dir
    }
}

/// What a workload's run produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted and failed (including failed correctness gates).
    pub attempted: u64,
    pub failed: u64,
    /// What the timed phase measured.
    pub timed: Timed,
    /// Per-layer values measured by the traced run.
    pub layers: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Count one operation and whether it passed its gate.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Median of `samples` under `name`, when there are any.
    pub fn layer_median(&mut self, name: &str, samples: &[f64]) {
        if !samples.is_empty() {
            self.layer(name, stats::median(samples));
        }
    }

    /// Per-layer figures every traced run derives from its spans: the
    /// median traced operation, each layer's self time per operation, and
    /// the traced round time against the untraced one. Every span of an
    /// operation must hang under that operation's root span, so the layers'
    /// self times account for the whole operation.
    pub fn span_layers(&mut self, spans: &[spans::Span]) {
        let traced = spans::durations(spans, OP_SPAN);
        if traced.is_empty() {
            return;
        }
        self.layer("perfbench.op_s", stats::median(&traced));
        let [off, on] = &self.timed.round_s;
        if !off.is_empty() && !on.is_empty() {
            let overhead = stats::median(on) / stats::median(off) - 1.0;
            self.layer("perfbench.tracing_overhead", overhead);
        }
        let detached = spans::detached(spans, OP_SPAN);
        self.check(detached.is_empty(), || {
            format!("{} spans lie outside their operation's root span", detached.len())
        });
        let ops = traced.len() as f64;
        for (layer, secs) in spans::op_self_time_by_layer(spans) {
            self.layer(&format!("{layer}.self_s"), secs / ops);
        }
    }
}

/// Name of the root span of every timed operation.
pub const OP_SPAN: &str = "perfbench.op";

/// Build the world and simulate `config` in memory: the reference path
/// every workload's correctness gate compares against.
pub fn in_memory_study(config: &SimConfig, t: &Tracer) -> StudyData {
    let world = t.span("telco-sim.world_build", None, None, |_| World::build(config));
    let mut output = t.span("telco-sim.run", None, None, |_| run_on_world(&world, config));
    let trace = TraceSource::in_memory(std::mem::take(&mut output.dataset));
    StudyData { config: config.clone(), world, output, trace }
}

/// Digest and length of a JSON text, to compare outputs without keeping
/// the text.
pub fn digest(json: &str) -> (u64, usize) {
    let mut h = DefaultHasher::new();
    json.hash(&mut h);
    (h.finish(), json.len())
}

/// [`digest`] of the canonical JSON of a sweep's outputs.
pub fn outputs_digest(outputs: &SweepOutputs) -> (u64, usize) {
    digest(&serde_json::to_string(outputs).expect("SweepOutputs serializes"))
}

/// Run `setup` [`SETUP_REPS`] times and keep the last state; returns the
/// state and every set-up's wall time.
pub fn repeat_setup<S>(mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous state first so set-ups never overlap in memory.
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), times)
}

/// What one round measured.
pub struct Round {
    /// Wall time of each operation that `op_p50_ms` covers.
    pub op_s: Vec<f64>,
    /// Records per second of the workload's throughput stage, for
    /// `records_per_s`.
    pub records_per_s: f64,
}

/// What the timed phase measured with tracing off, and the round times
/// with tracing off and on.
#[derive(Default)]
pub struct Timed {
    pub op_s: Vec<f64>,
    pub records_per_s: Vec<f64>,
    /// Each round's peak resident set, MB.
    pub rss_mb: Vec<f64>,
    /// Wall time of each round, untraced and traced.
    pub round_s: [Vec<f64>; 2],
}

/// Run `round` until `seconds` have passed (at least once). The peak
/// resident set is reset before and read after every round.
fn timed_loop(seconds: f64, mut round: impl FnMut() -> Round, into: &mut Timed, traced: bool) {
    let t0 = Instant::now();
    loop {
        reset_peak_rss();
        let t1 = Instant::now();
        let r = round();
        into.round_s[usize::from(traced)].push(t1.elapsed().as_secs_f64());
        if !traced {
            into.rss_mb.push(peak_rss_mb());
            into.op_s.extend(r.op_s);
            into.records_per_s.push(r.records_per_s);
        }
        if t0.elapsed().as_secs_f64() >= seconds {
            return;
        }
    }
}

/// The timed phase. An untraced run times rounds with tracing off for the
/// whole run. A traced run spends the first half untraced and the second
/// half traced, so it can report its own tracing overhead.
pub fn timed_phases(
    b: &Bench,
    tracer: &Arc<Tracer>,
    mut round: impl FnMut(&Arc<Tracer>) -> Round,
) -> Timed {
    let off = Arc::new(Tracer::new(false));
    let mut timed = Timed::default();
    let untraced = if b.traced { b.seconds / 2.0 } else { b.seconds };
    timed_loop(untraced, || round(&off), &mut timed, false);
    if b.traced {
        timed_loop(b.seconds / 2.0, || round(tracer), &mut timed, true);
    }
    timed
}

/// `VmHWM` (peak resident set) of this process in MB: the peak since the
/// last [`reset_peak_rss`].
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset `VmHWM` to the current resident set, so the peak that follows
/// belongs to the round alone. Where the kernel refuses, the peak is the
/// process's peak so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    preset: Preset,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let traced = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let preset = match map.get("--preset").copied().unwrap_or("default") {
        "default" => Preset::Default,
        "tiny" => Preset::Tiny,
        other => return Err(format!("--preset must be default or tiny, not {other:?}")),
    };
    if let Some(unknown) = map
        .keys()
        .find(|k| !["--workload", "--seed", "--seconds", "--trace", "--preset"].contains(k))
    {
        return Err(format!("unknown flag {unknown}"));
    }
    Ok(Args { workload, seed, seconds, traced, preset })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--preset default|tiny]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let bench = Bench {
        work: PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            args.workload,
            std::process::id()
        )),
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        preset: args.preset,
        nproc,
    };
    let tracer = Arc::new(Tracer::new(bench.traced));
    let started = Instant::now();
    let (report, setup_s) = match bench.workload.as_str() {
        "paper_tables" => paper_tables::run(&bench, &tracer),
        "reanalyze" => reanalyze::run(&bench, &tracer),
        _ => serve_ingest::run(&bench, &tracer),
    };
    let _ = std::fs::remove_dir_all(&bench.work);
    let _ = std::fs::remove_dir(".bench_work");

    let spans = tracer.spans();
    if bench.traced {
        let out = Path::new(".bench_out");
        let path = out.join(format!("spans-{}-seed{}.jsonl", bench.workload, bench.seed));
        let written = std::fs::create_dir_all(out)
            .and_then(|()| std::fs::write(&path, spans::to_jsonl(&spans)));
        match written {
            Ok(()) => eprintln!("perfbench: {} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", path.display()),
        }
    }

    let preset = match bench.preset {
        Preset::Default if bench.workload == "reanalyze" => "medium",
        Preset::Default => "small",
        Preset::Tiny => "tiny",
    };
    println!(
        "# perfbench header: workload={} preset={preset} seed={} seconds={} traced={} \
         hardware_threads={nproc} git_rev={} attempted={} failed={} wall_s={:.1}",
        bench.workload,
        bench.seed,
        bench.seconds,
        bench.traced,
        git_rev(),
        report.attempted,
        report.failed,
        started.elapsed().as_secs_f64()
    );
    for note in &report.notes {
        println!("# {note}");
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if bench.traced {
        for (name, unit) in per_layer_metrics() {
            let value = report.layers.get(&name).copied().unwrap_or(0.0);
            metrics.push((name, value, unit));
        }
        for name in report.layers.keys() {
            assert!(
                metrics.iter().any(|(m, _, _)| m == name),
                "workload reported undeclared per-layer metric {name}"
            );
        }
    } else {
        let timed = &report.timed;
        let setup = stats::summarize(&setup_s);
        let ops = stats::summarize(&timed.op_s);
        println!("# setup_s: {}", describe(&setup, 1.0, "s"));
        println!("# op: {}", describe(&ops, 1e3, "ms"));
        let each = |v: &[f64], scale: f64| {
            v.iter().map(|x| format!("{:.3}", x * scale)).collect::<Vec<_>>().join(" ")
        };
        println!("# setup_s each: {}", each(&setup_s, 1.0));
        println!("# op_ms each: {}", each(&timed.op_s, 1e3));
        println!("# round records_per_s each: {}", each(&timed.records_per_s, 1.0));
        println!("# round peak_rss_mb each: {}", each(&timed.rss_mb, 1.0));
        for (name, unit) in END_TO_END {
            let value = match name {
                "setup_s" => setup.p50,
                // The timed phase's peak. Per round it swings with where the
                // allocator's per-thread arenas put memory (300-440 MB on one
                // `paper_tables` seed); nearly every run has a round at the top.
                "peak_rss_mb" => timed.rss_mb.iter().copied().fold(0.0, f64::max),
                "op_p50_ms" => ops.p50 * 1e3,
                _ => stats::median(&timed.records_per_s),
            };
            metrics.push((name.to_string(), value, unit));
        }
    }
    for (name, value, unit) in &metrics {
        println!("# {name} = {value} {unit}");
    }
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    line.push_str("}}");
    println!("{line}");
}

/// One summary as text: median, sample count and the tail percentile.
fn describe(s: &stats::Summary, scale: f64, unit: &str) -> String {
    let tail = match s.tail {
        Some((p, v)) => format!("p{p} {:.3} {unit}", v * scale),
        None => format!("no percentile with >= {} samples beyond it", stats::MIN_BEYOND),
    };
    format!("p50 {:.3} {unit}, n={}, {tail}", s.p50 * scale, s.n)
}
