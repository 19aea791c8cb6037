//! `repro bench-study` — measure the single-sweep analysis engine: the
//! full [`StudyPasses`] composite (every record analysis plus both
//! sector frames in one visitor) across a {1, 2, 4, 8}-thread scaling
//! matrix per preset, the spilled span-parallel sweep (columnar v3
//! trace) across the same matrix, a decode-vs-analyze breakdown of the
//! out-of-core path, and the traversal count of a full study. Writes the
//! numbers to `BENCH_study.json` at the repo root.
//!
//! The matrix is honest about hardware: `hardware_threads` is the real
//! available parallelism, matrix entries requesting more threads than
//! exist are flagged `oversubscribed`, and the headline
//! `speedup_8_over_1` is reported as `null` (with a `parallel_warning`)
//! rather than pretending an oversubscribed number demonstrates scaling.
//!
//! Every measured sweep must take the column fast path: the run aborts
//! if `TraceSource::column_batches()` stayed flat, so a silent fallback
//! to row-at-a-time dispatch can never masquerade as a columnar number.

use std::path::Path;
use std::time::Instant;

use telco_analytics::{Study, StudyPasses, Sweep};
use telco_sim::{run_study, run_study_spilled, SimConfig, StudyData};
use telco_trace::io::RECORD_BYTES;

/// The thread counts every preset is swept at.
pub const THREAD_MATRIX: [usize; 4] = [1, 2, 4, 8];

/// Single-thread sweep throughput of the row-at-a-time engine this
/// columnar execution model replaced (records/s, committed
/// `BENCH_study.json` as of PR 5) — the "before" each run's matrix
/// baseline is compared against.
const ROW_PATH_BASELINE: [(&str, u64); 2] = [("small", 2_194_805), ("medium", 1_947_592)];

struct Measurement {
    secs: f64,
    bytes: u64,
    records: u64,
}

impl Measurement {
    fn json(&self) -> String {
        format!(
            "{{\"secs\": {:.4}, \"mb_per_sec\": {:.1}, \"records_per_sec\": {:.0}}}",
            self.secs,
            self.bytes as f64 / self.secs / 1e6,
            self.records as f64 / self.secs
        )
    }
}

/// Log a best time and report it against `bytes`/`records`.
fn report(what: &str, secs: f64, bytes: u64, records: u64) -> Measurement {
    eprintln!(
        "bench-study: {what}: {secs:.4}s ({:.1} MB/s, {:.0} records/s)",
        bytes as f64 / secs / 1e6,
        records as f64 / secs
    );
    Measurement { secs, bytes, records }
}

/// Best-of-`iters` wall time of `f`, reported against `bytes`/`records`.
fn measure(what: &str, bytes: u64, records: u64, iters: usize, mut f: impl FnMut()) -> Measurement {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    report(what, best, bytes, records)
}

/// Best-of-`iters` wall time of the composite sweep of `data` at each
/// thread count of [`THREAD_MATRIX`], as `(threads, oversubscribed,
/// measurement)`. Each iteration runs every count once, in turn, so a
/// host-speed regime lasting seconds spreads over all the counts instead
/// of landing on one, and the best-of-N cancels it.
fn sweep_matrix(
    what: &str,
    data: &mut StudyData,
    bytes: u64,
    iters: usize,
    hardware_threads: usize,
) -> Vec<(usize, bool, Measurement)> {
    let records = data.trace.len();
    let mut best = [f64::INFINITY; THREAD_MATRIX.len()];
    for _ in 0..iters {
        for (best, &threads) in best.iter_mut().zip(&THREAD_MATRIX) {
            data.config.threads = threads;
            let batches_before = data.trace.column_batches();
            let t0 = Instant::now();
            let seen =
                Sweep::new(data).run(StudyPasses::default).expect("sweep").trace_counts.records;
            *best = best.min(t0.elapsed().as_secs_f64());
            assert_eq!(seen, records);
            assert!(
                data.trace.column_batches() > batches_before,
                "{what} @ {threads} thread(s) silently fell back to row dispatch"
            );
        }
    }
    THREAD_MATRIX
        .iter()
        .zip(best)
        .map(|(&threads, secs)| {
            let oversubscribed = threads > hardware_threads;
            let tag = if oversubscribed { " (oversubscribed)" } else { "" };
            let m = report(&format!("{what} @ {threads} thread(s){tag}"), secs, bytes, records);
            (threads, oversubscribed, m)
        })
        .collect()
}

/// One preset's full measurement block, as a JSON object string.
fn run_preset(
    config: SimConfig,
    preset_name: &str,
    iters: usize,
    hardware_threads: usize,
    spill_dir: Option<&Path>,
) -> String {
    eprintln!(
        "bench-study: preset {preset_name}, simulating {} UEs × {} days (best of {iters})...",
        config.n_ues, config.n_days
    );
    let mut data = run_study(config.clone());
    let records = data.trace.len() as u64;
    let bytes = records * RECORD_BYTES as u64;
    eprintln!("bench-study: {records} records ({:.1} MB framed)", bytes as f64 / 1e6);

    // One untimed warmup traversal first. The very first sweep of a
    // process pays costs no steady-state traversal repays — page faults
    // on the accumulators' freshly mapped heap and the allocator's mmap
    // threshold still training on MB-scale alloc/free cycles — worth
    // ~30% on this preset. Throughput is a steady-state claim, so the
    // timed iterations start warm.
    data.config.threads = 1;
    let warm = Sweep::new(&data).run(StudyPasses::default).expect("warmup sweep");
    assert_eq!(warm.trace_counts.records, records);

    // The scaling matrix: the same composite sweep at each thread count.
    // threads == 1 takes the sequential path (no worker spawn at all), so
    // the curve's baseline is the true single-thread cost.
    let matrix =
        sweep_matrix(&format!("{preset_name} sweep"), &mut data, bytes, iters, hardware_threads);
    // Claim a speedup only from honest entries: the largest in-hardware
    // thread count against the single-thread baseline.
    let speedup = matrix
        .iter()
        .rfind(|(threads, oversubscribed, _)| *threads > 1 && !oversubscribed)
        .map(|(threads, _, m)| (*threads, matrix[0].2.secs / m.secs));
    match &speedup {
        Some((threads, s)) => {
            eprintln!("bench-study: {preset_name}: {s:.2}x speedup at {threads} threads")
        }
        None => eprintln!(
            "bench-study: {preset_name}: single hardware thread — no parallel speedup to claim"
        ),
    }

    // The spilled variant streams the sealed columnar v3 trace.
    let tmp;
    let dir = match spill_dir {
        Some(dir) => dir,
        None => {
            tmp = std::env::temp_dir().join("telco-bench-study");
            &tmp
        }
    };
    std::fs::create_dir_all(dir).expect("create spill dir");
    let mut spilled_data = run_study_spilled(config, dir).expect("spilled study");
    assert!(spilled_data.trace.is_spilled());
    assert_eq!(spilled_data.trace.len() as u64, records);

    // Decode-vs-analyze breakdown: stream the sealed v3 trace into column
    // batches with no analysis attached, then with the full composite.
    // The gap is what the ~15 passes cost on top of pure decode — the
    // number that says whether the next optimization belongs in the codec
    // or in the passes.
    let decode_only = measure("spilled v3 decode only (no passes)", bytes, records, iters, || {
        let mut seen = 0u64;
        spilled_data.trace.for_each_columns(|batch| seen += batch.len() as u64).expect("decode");
        assert_eq!(seen, records);
    });

    // The spilled span-parallel sweep across the same thread matrix:
    // threads == 1 streams the whole file on the calling thread, > 1
    // gives each worker a reader that decodes only its own span's
    // chunks. Byte-identity across the matrix is pinned by the golden
    // tests; here we measure and cross-check the counts.
    let spilled_matrix = sweep_matrix(
        &format!("{preset_name} spilled v3 sweep"),
        &mut spilled_data,
        bytes,
        iters,
        hardware_threads,
    );
    let spilled = &spilled_matrix[0].2;
    let analyze_secs = (spilled.secs - decode_only.secs).max(0.0);
    eprintln!(
        "bench-study: {preset_name} spilled breakdown: decode {:.4}s + analyze {:.4}s \
         ({:.0}% of the sweep is analysis)",
        decode_only.secs,
        analyze_secs,
        100.0 * analyze_secs / spilled.secs.max(1e-12)
    );
    let spilled_speedup = spilled_matrix
        .iter()
        .rfind(|(threads, oversubscribed, _)| *threads > 1 && !oversubscribed)
        .map(|(threads, _, m)| (*threads, spilled_matrix[0].2.secs / m.secs));

    // Traversal count of a full study: touch every analysis the repro
    // pipeline renders and count trace sweeps (acceptance: ≤ 2, down
    // from ~15 one-scan-per-analysis).
    let sweeps_before = spilled_data.trace.sweeps();
    let study = Study::from_data(spilled_data);
    let _ = study.dataset_stats();
    let _ = study.ho_types();
    let _ = study.durations();
    let _ = study.district_distribution();
    let _ = study.population_inference();
    let _ = study.ho_density();
    let _ = study.temporal_evolution();
    let _ = study.manufacturer_impact();
    let _ = study.hof_patterns();
    let _ = study.causes();
    let _ = study.pingpong();
    let _ = study.vendor_analysis();
    let _ = study.models();
    let full_study_traversals = study.data().trace.sweeps() - sweeps_before;
    eprintln!("bench-study: full study = {full_study_traversals} trace traversal(s)");
    assert!(full_study_traversals <= 2, "full study exceeded the 2-traversal budget");
    if spill_dir.is_none() {
        let _ = std::fs::remove_dir_all(dir);
    }

    let rows_of = |matrix: &[(usize, bool, Measurement)]| -> String {
        matrix
            .iter()
            .map(|(threads, oversubscribed, m)| {
                format!(
                    "      {{\"threads\": {threads}, \"oversubscribed\": {oversubscribed}, \
                     \"secs\": {:.4}, \"mb_per_sec\": {:.1}, \"records_per_sec\": {:.0}, \
                     \"speedup_over_1\": {:.2}}}",
                    m.secs,
                    m.bytes as f64 / m.secs / 1e6,
                    m.records as f64 / m.secs,
                    matrix[0].2.secs / m.secs
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let speedup_json = |speedup: &Option<(usize, f64)>| match speedup {
        Some((threads, s)) => format!("{{\"threads\": {threads}, \"speedup\": {s:.2}}}"),
        None => "null".to_string(),
    };
    // The row-engine number this preset swept at before columnar
    // execution, so before/after lives in the same artifact.
    let before_json = ROW_PATH_BASELINE.iter().find(|(name, _)| *name == preset_name).map_or(
        "null".to_string(),
        |(_, rps)| {
            format!(
                "{{\"records_per_sec\": {rps}, \"speedup_now\": {:.2}}}",
                matrix[0].2.records as f64 / matrix[0].2.secs / *rps as f64
            )
        },
    );
    format!(
        "    {{\n      \"preset\": \"{preset_name}\",\n      \"records\": {records},\n      \
         \"payload_bytes\": {bytes},\n      \
         \"single_thread_row_baseline\": {before_json},\n      \
         \"scaling\": [\n{}\n      ],\n      \
         \"honest_speedup\": {},\n      \
         \"sweep_spilled_streaming_v3\": {},\n      \
         \"spilled_decode_only\": {},\n      \
         \"spilled_analyze_secs\": {analyze_secs:.4},\n      \
         \"spilled_scaling\": [\n{}\n      ],\n      \
         \"spilled_honest_speedup\": {},\n      \
         \"full_study_traversals\": {full_study_traversals}\n    }}",
        rows_of(&matrix),
        speedup_json(&speedup),
        spilled.json(),
        decode_only.json(),
        rows_of(&spilled_matrix),
        speedup_json(&spilled_speedup),
    )
}

/// Run the benchmark over `presets` and write `BENCH_study.json`.
pub fn run(presets: Vec<(SimConfig, &str)>, iters: usize, spill_dir: Option<&Path>) {
    let hardware_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let max_requested = THREAD_MATRIX.iter().copied().max().unwrap_or(1);
    let parallel_warning = if hardware_threads < max_requested {
        format!(
            "\n  \"parallel_warning\": \"only {hardware_threads} hardware thread(s) available; \
             matrix entries above that are oversubscribed and do not demonstrate parallel \
             scaling — the >1x targets are hardware-ceiling-limited on this machine\",",
        )
    } else {
        String::new()
    };
    eprintln!("bench-study: {hardware_threads} hardware thread(s), matrix {THREAD_MATRIX:?}");

    let blocks: Vec<String> = presets
        .into_iter()
        .map(|(config, name)| run_preset(config, name, iters, hardware_threads, spill_dir))
        .collect();

    // The vendored serde_json is a stand-in, so format by hand.
    let json = format!(
        "{{\n  \"iters\": {iters},\n  \"hardware_threads\": {hardware_threads},\
         {parallel_warning}\n  \"thread_matrix\": {THREAD_MATRIX:?},\n  \
         \"presets\": [\n{}\n  ]\n}}\n",
        blocks.join(",\n")
    );
    std::fs::write("BENCH_study.json", &json).expect("write BENCH_study.json");
    eprintln!("bench-study: wrote BENCH_study.json");
}
