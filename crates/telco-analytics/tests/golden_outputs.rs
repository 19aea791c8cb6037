//! Golden-output regression suite: pins the paper-table outputs of a
//! fixed-seed study against checked-in JSON snapshots, so any refactor
//! that drifts a tracked metric — record counts, type mix, HOF rate,
//! cause ranking, §6.3 model fits — fails loudly instead of silently
//! rewriting the reproduction's numbers.
//!
//! To refresh after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p telco-analytics --test golden_outputs
//! ```
//!
//! then review the diff of `tests/goldens/` like any other code change.

use telco_analytics::Study;
use telco_signaling::causes::PrincipalCause;
use telco_sim::SimConfig;

/// Serialize the tracked metrics of a study, deterministically. The
/// vendored serde_json is a stand-in, so the JSON is formatted by hand;
/// floats use `{:?}` (shortest round-trip form), which is stable for a
/// bit-identical simulation.
fn golden_json(preset: &str, study: &Study) -> String {
    let cfg = &study.data().config;
    let stats = study.dataset_stats();
    let trace_counts = *study.trace_counts();
    let counts = trace_counts.by_type;
    let ho_types = study.ho_types();
    let causes = study.causes();

    // Top-5 principal causes by mean daily share (slot 8 is the long
    // tail), ranked descending with the slot index breaking ties.
    let mut ranked: Vec<usize> = (0..causes.shares.len()).collect();
    ranked
        .sort_by(|&a, &b| causes.shares[b].partial_cmp(&causes.shares[a]).unwrap().then(a.cmp(&b)));
    let cause_label = |slot: usize| -> String {
        if slot < 8 {
            PrincipalCause::ALL[slot].to_string()
        } else {
            "long tail".to_string()
        }
    };
    let top5: Vec<String> = ranked
        .iter()
        .take(5)
        .map(|&slot| {
            format!(
                "    {{\"cause\": \"{}\", \"share\": {:?}}}",
                cause_label(slot),
                causes.shares[slot]
            )
        })
        .collect();

    let fmt_f64_row =
        |row: &[f64]| row.iter().map(|v| format!("{v:?}")).collect::<Vec<_>>().join(", ");
    let share_rows: Vec<String> =
        ho_types.share.iter().map(|row| format!("      [{}]", fmt_f64_row(row))).collect();

    format!(
        "{{\n  \"config\": {{\"preset\": \"{preset}\", \"seed\": {}, \"ues\": {}, \
         \"days\": {}}},\n  \
         \"dataset_stats\": {{\n    \"districts\": {},\n    \"sites\": {},\n    \
         \"sectors\": {},\n    \"ues\": {},\n    \"daily_hos\": {:?},\n    \
         \"days\": {},\n    \"daily_trace_bytes\": {}\n  }},\n  \
         \"records\": {},\n  \"counts_by_type\": [{}, {}, {}],\n  \
         \"hof_rate\": {:?},\n  \
         \"ho_types\": {{\n    \"type_totals\": [{}],\n    \"device_totals\": [{}],\n    \
         \"share\": [\n{}\n    ]\n  }},\n  \
         \"cause_top5\": [\n{}\n  ]\n}}\n",
        cfg.seed,
        cfg.n_ues,
        cfg.n_days,
        stats.districts,
        stats.sites,
        stats.sectors,
        stats.ues,
        stats.daily_hos,
        stats.days,
        stats.daily_trace_bytes,
        trace_counts.records,
        counts[0],
        counts[1],
        counts[2],
        trace_counts.hof_rate(),
        fmt_f64_row(&ho_types.type_totals),
        fmt_f64_row(&ho_types.device_totals),
        share_rows.join(",\n"),
        top5.join(",\n")
    )
}

fn check_golden(preset: &str, config: SimConfig) {
    let study = Study::run(config);
    check_file(&format!("study_{preset}.json"), &golden_json(preset, &study));
}

/// Compare `actual` with `tests/goldens/<file>`, or rewrite the file
/// under `UPDATE_GOLDENS`.
fn check_file(file: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens").join(file);

    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("golden updated: {}", path.display());
        return;
    }

    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run `UPDATE_GOLDENS=1 cargo test -p \
             telco-analytics --test golden_outputs` to create it",
            path.display()
        )
    });
    if actual != expected {
        // Point at the first drifting line, then fail with both payloads.
        for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
            if a != e {
                eprintln!("golden drift at {}:{}", path.display(), i + 1);
                eprintln!("  expected: {e}");
                eprintln!("  actual:   {a}");
                break;
            }
        }
        panic!(
            "`{file}` drifted from its golden ({}).\n\
             If the change is intentional, refresh with UPDATE_GOLDENS=1 and \
             review the diff.\n--- expected ---\n{expected}\n--- actual ---\n{actual}",
            path.display()
        );
    }
}

#[test]
fn golden_study_tiny() {
    check_golden("tiny", SimConfig::tiny());
}

/// The §6.3 / Appendix-B models of the tiny golden study, at full
/// precision: every coefficient row, test statistic, summary, ECDF panel
/// and the Random-Forest fit quality. Floats print in their shortest
/// round-trip form, so one bit of drift in any fit fails the test.
#[test]
fn golden_models_tiny() {
    let models = Study::run(SimConfig::tiny()).models();
    let actual = serde_json::to_string_pretty(&models).expect("models serialize") + "\n";
    check_file("models_tiny.json", &actual);
}

/// The tiny golden, reproduced from a spilled trace: the same study run
/// out-of-core and swept chunk-by-chunk from disk must print the exact
/// same bytes as the in-memory sweep.
#[test]
fn golden_study_tiny_spilled_streaming() {
    let expected = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/study_tiny.json"),
    )
    .expect("tiny golden must exist (UPDATE_GOLDENS=1 on golden_study_tiny)");

    let dir = std::env::temp_dir().join("telco_golden_spill");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let data = telco_sim::run_study_spilled(SimConfig::tiny(), &dir).expect("spilled study");
    assert!(data.trace.is_spilled(), "study must stream from disk");
    let study = Study::from_data(data);
    assert_eq!(golden_json("tiny", &study), expected, "spilled sweep drifted from the golden");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte-identity matrix: the same fixed-seed study run fully in memory
/// and spilled through columnar trace files must print the exact same
/// golden bytes at every thread count. The on-disk codec and the sweep
/// partitioning are transport details — neither may leak into a tracked
/// metric.
#[test]
fn golden_study_tiny_codec_matrix() {
    let expected = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/study_tiny.json"),
    )
    .expect("tiny golden must exist (UPDATE_GOLDENS=1 on golden_study_tiny)");

    let dir = std::env::temp_dir().join("telco_golden_codec_matrix");
    let _ = std::fs::remove_dir_all(&dir);

    for threads in [1usize, 2, 8] {
        let mut cfg = SimConfig::tiny();
        cfg.threads = threads;

        let in_memory = Study::run(cfg.clone());
        assert_eq!(
            golden_json("tiny", &in_memory),
            expected,
            "in-memory study with {threads} threads drifted from the golden"
        );

        let sub = dir.join(format!("t{threads}"));
        std::fs::create_dir_all(&sub).unwrap();
        let data = telco_sim::run_study_spilled(cfg, &sub).expect("spilled study");
        assert!(data.trace.is_spilled(), "spilled study must stream from disk");
        let study = Study::from_data(data);
        assert_eq!(
            golden_json("tiny", &study),
            expected,
            "spilled study with {threads} threads drifted from the golden"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tiny golden, reproduced by span-parallel sweeps of the in-memory
/// trace: one accumulator per span, merged in span order, must be
/// byte-identical to the sequential result at every thread count.
#[test]
fn golden_study_tiny_parallel_sweep() {
    let expected = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/study_tiny.json"),
    )
    .expect("tiny golden must exist (UPDATE_GOLDENS=1 on golden_study_tiny)");

    for threads in [2, 8] {
        let mut cfg = SimConfig::tiny();
        cfg.threads = threads;
        let study = Study::run(cfg);
        assert_eq!(
            golden_json("tiny", &study),
            expected,
            "parallel sweep with {threads} threads drifted from the golden"
        );
    }
}

/// The tiny golden, reproduced by the incremental ingest service: the
/// same fixed-seed study fed day-by-day through the snapshot commit
/// protocol ([`telco_serve::IngestEngine`]) must serve a full view
/// byte-identical to the one-shot batch sweep, and its tracked metrics
/// must print the exact same golden bytes. This gates the serve path on
/// the same pinned numbers as every other execution strategy.
#[test]
fn golden_study_tiny_incremental_ingest() {
    let expected = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/study_tiny.json"),
    )
    .expect("tiny golden must exist (UPDATE_GOLDENS=1 on golden_study_tiny)");

    let dir = std::env::temp_dir().join("telco_golden_ingest");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Box::new(telco_store::DirStore::create(&dir).unwrap());
    let mut engine =
        telco_serve::IngestEngine::open(SimConfig::tiny(), store, telco_serve::DEFAULT_WINDOW)
            .expect("open ingest engine");
    while engine.ingest_next_day().expect("ingest day").is_some() {}

    // The served full view must match the batch sweep byte-for-byte...
    let batch = Study::run(SimConfig::tiny());
    let batch_json = serde_json::to_string(batch.sweep()).expect("batch sweep outputs serialize");
    let view = engine.build_view().expect("served view");
    assert_eq!(
        view.full.as_deref(),
        Some(batch_json.as_str()),
        "served study drifted from the one-shot batch study"
    );

    // ...and the batch study those bytes mirror must still be golden.
    assert_eq!(
        golden_json("tiny", &batch),
        expected,
        "batch study behind the ingest comparison drifted from the golden"
    );
}

#[test]
fn golden_tracks_real_drift() {
    // The suite must fail when a tracked metric moves: a different seed
    // must not reproduce the tiny golden.
    let mut cfg = SimConfig::tiny();
    cfg.seed ^= 1;
    let study = Study::run(cfg);
    let drifted = golden_json("tiny", &study);
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/study_tiny.json");
    if let Ok(expected) = std::fs::read_to_string(&path) {
        assert_ne!(drifted, expected, "golden failed to discriminate a perturbed study");
    }
}

/// The tiny golden, reproduced by the sharded orchestrator: the study
/// split into 4 UE shards, run by an in-process worker fleet, merged
/// out-of-core from the shard store, and swept from the sealed study
/// trace must print the exact same golden bytes. This is the
/// merged-study entry point ([`telco_orchestrator::open_study`])
/// feeding the full analytics pipeline.
#[test]
fn golden_study_tiny_orchestrated() {
    use telco_orchestrator::{
        orchestrate, store_manifest, DirStore, Launcher, Manifest, OrchestrateOptions, PlanOptions,
    };

    let expected = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/study_tiny.json"),
    )
    .expect("tiny golden must exist (UPDATE_GOLDENS=1 on golden_study_tiny)");

    let dir = std::env::temp_dir().join("telco_golden_orchestrated");
    let _ = std::fs::remove_dir_all(&dir);
    let store = std::sync::Arc::new(DirStore::create(&dir).unwrap());
    let manifest = Manifest::plan(
        SimConfig::tiny(),
        &PlanOptions { shards: 4, scenario: "tiny".into(), ..PlanOptions::default() },
    )
    .unwrap();
    store_manifest(store.as_ref(), &manifest).unwrap();
    orchestrate(store.clone(), &OrchestrateOptions::new(Launcher::InProcess))
        .expect("orchestrated study");

    // Analyze the sealed store sequentially and through the span-parallel
    // spilled sweep: both must reproduce the sequential in-memory golden
    // byte-for-byte.
    for threads in [1usize, 2, 8] {
        let mut data = telco_orchestrator::open_study(store.as_ref()).expect("open sealed study");
        assert!(data.trace.is_spilled(), "orchestrated studies stream from the store");
        data.config.threads = threads;
        let study = Study::from_data(data);
        assert_eq!(
            golden_json("tiny", &study),
            expected,
            "orchestrated study @ {threads} thread(s) drifted from the golden"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Record-level fingerprint of one simulated study: the record count,
/// the records per day, the length and CRC-32 of the sealed v3 stream,
/// and a CRC-32 over every mobility row. One record or row that moves,
/// by a single bit, changes a checksum.
fn trace_fingerprint(name: &str, config: SimConfig) -> String {
    use telco_trace::crc32::Crc32;
    use telco_trace::store::TraceWriter;

    let world = telco_sim::World::build(&config);
    let output = telco_sim::run_on_world(&world, &config);
    let dataset = &output.dataset;

    let mut per_day = vec![0u64; config.n_days as usize];
    for r in dataset.records() {
        per_day[r.day() as usize] += 1;
    }
    let mut writer = TraceWriter::new(Vec::new(), config.n_days).expect("v3 header");
    writer.write_dataset(dataset).expect("v3 encode");
    let stream = writer.finish().expect("v3 trailer");

    let mut mobility = Crc32::new();
    for m in &output.mobility {
        mobility.update(&m.ue.0.to_le_bytes());
        mobility.update(&m.day.to_le_bytes());
        mobility.update(&m.sectors.to_le_bytes());
        mobility.update(&m.gyration_km.to_bits().to_le_bytes());
        mobility.update(&m.hos.to_le_bytes());
        mobility.update(&m.hofs.to_le_bytes());
        mobility.update(&m.messages.to_le_bytes());
    }

    let per_day: Vec<String> = per_day.iter().map(u64::to_string).collect();
    format!(
        "  \"{name}\": {{\n    \"records\": {},\n    \"per_day\": [{}],\n    \
         \"v3_bytes\": {},\n    \"v3_crc32\": \"{:08x}\",\n    \
         \"mobility_rows\": {},\n    \"mobility_crc32\": \"{:08x}\"\n  }}",
        dataset.len(),
        per_day.join(", "),
        stream.len(),
        telco_trace::crc32::crc32(&stream),
        output.mobility.len(),
        mobility.finish()
    )
}

/// Pins the simulated trace record by record, on the tiny world and on
/// the default country and topology (whose dense site grid the tiny
/// world does not exercise). Any change to where a UE is served, or to
/// what a handover records, moves a checksum here, even when the
/// aggregates of `study_tiny.json` happen to hold.
#[test]
fn golden_trace_fingerprint() {
    let default_world = SimConfig { n_ues: 200, n_days: 2, threads: 1, ..SimConfig::small() };
    let actual = format!(
        "{{\n{},\n{}\n}}\n",
        trace_fingerprint("tiny", SimConfig::tiny()),
        trace_fingerprint("small_200ues_2days", default_world)
    );
    check_file("trace_fingerprint.json", &actual);
}

/// The byte length and CRC-32 of the served JSON of every section of one
/// study sweep, and of the whole. One bit of drift in any figure, either
/// sector frame or the ping-pong lens moves a checksum here.
fn sweep_sections(name: &str, outputs: &telco_analytics::SweepOutputs) -> String {
    fn pin(section: &str, value: &impl serde::Serialize) -> String {
        let json = serde_json::to_string(value).expect("section serializes");
        format!(
            "    \"{section}\": {{\"bytes\": {}, \"crc32\": \"{:08x}\"}}",
            json.len(),
            telco_trace::crc32::crc32(json.as_bytes())
        )
    }
    let rows = [
        pin("trace_counts", &outputs.trace_counts),
        pin("ho_types", &outputs.ho_types),
        pin("durations", &outputs.durations),
        pin("district_distribution", &outputs.district_distribution),
        pin("population_inference", &outputs.population_inference),
        pin("ho_density", &outputs.ho_density),
        pin("temporal_evolution", &outputs.temporal_evolution),
        pin("manufacturer_impact", &outputs.manufacturer_impact),
        pin("hof_patterns", &outputs.hof_patterns),
        pin("causes", &outputs.causes),
        pin("pingpong", &outputs.pingpong),
        pin("vendor_analysis", &outputs.vendor_analysis),
        pin("frame", &outputs.frame),
        pin("period_frame", &outputs.period_frame),
        pin("whole", outputs),
    ];
    format!("  \"{name}\": {{\n{}\n  }}", rows.join(",\n"))
}

/// Pins every served section of the sequential in-memory sweep, on the
/// tiny world and on 200 UEs × 2 days of the default country, and
/// requires the span-parallel sweep of the spilled tiny trace to match.
#[test]
fn golden_sweep_sections() {
    let tiny = SimConfig { threads: 1, ..SimConfig::tiny() };
    let default_world = SimConfig { n_ues: 200, n_days: 2, threads: 1, ..SimConfig::small() };
    let tiny_sections = sweep_sections("tiny", Study::run(tiny.clone()).sweep());
    let actual = format!(
        "{{\n{tiny_sections},\n{}\n}}\n",
        sweep_sections("small_200ues_2days", Study::run(default_world).sweep())
    );
    check_file("sweep_sections.json", &actual);

    let dir = std::env::temp_dir().join("telco_golden_sections");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let data = telco_sim::run_study_spilled(SimConfig { threads: 2, ..tiny }, &dir)
        .expect("spilled study");
    assert!(data.trace.is_spilled(), "study must stream from disk");
    assert_eq!(
        sweep_sections("tiny", Study::from_data(data).sweep()),
        tiny_sections,
        "2-thread spilled sweep drifted from the in-memory sections"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
