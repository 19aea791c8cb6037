//! The span-parallel sweep: one accumulator per span, and span seams that
//! neither lose nor repeat a chunk, even when the spilled trace is damaged.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use telco_analytics::{StudyPasses, Sweep, TraceCountsPass};
use telco_sim::{run_study, SimConfig, StudyData, TraceSource};
use telco_trace::store::{TraceWriter, CHUNK_MAGIC, FRAME_HEADER_BYTES, HEADER_BYTES};

/// Seal the study's in-memory records at `path` as a v3 trace of
/// `chunk`-record chunks.
fn seal(data: &StudyData, path: &Path, chunk: usize) {
    let dataset = data.trace.as_dataset().expect("in-memory study");
    let mut writer = TraceWriter::create(path, dataset.days).unwrap();
    for records in dataset.records().chunks(chunk) {
        writer.write_chunk(records).unwrap();
    }
    writer.finish().unwrap();
}

/// The study with its trace streamed from `path`, declaring the in-memory
/// record count whatever damage the file has taken since.
fn spilled(data: &StudyData, path: &Path) -> StudyData {
    StudyData {
        config: data.config.clone(),
        world: data.world.clone(),
        output: data.output.clone(),
        trace: TraceSource::spilled(path, data.trace.days(), data.trace.len()),
    }
}

/// Byte offset of every chunk frame of a clean v3 trace.
fn frame_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut at = HEADER_BYTES;
    while bytes[at..].starts_with(&CHUNK_MAGIC) {
        offsets.push(at);
        let len = u32::from_be_bytes(bytes[at + 12..at + 16].try_into().unwrap()) as usize;
        at += FRAME_HEADER_BYTES + len;
    }
    offsets
}

/// One `Sweep::run` builds at most one accumulator per thread — not one
/// per study day or per chunk — on in-memory and spilled sources alike.
#[test]
fn sweep_builds_one_accumulator_per_span() {
    let mut cfg = SimConfig::tiny();
    cfg.n_days = 4;
    let mut in_memory = run_study(cfg);
    let dir = std::env::temp_dir().join("telco_span_sweep_count");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.tlho");
    seal(&in_memory, &path, 64);
    let mut on_disk = spilled(&in_memory, &path);
    let records = in_memory.trace.len();
    assert!(records.div_ceil(64) > 30, "the spilled trace needs many more chunks than threads");

    for threads in [2usize, 3] {
        for data in [&mut in_memory, &mut on_disk] {
            data.config.threads = threads;
            let made = AtomicUsize::new(0);
            let counts = Sweep::new(data)
                .run(|| {
                    made.fetch_add(1, Ordering::Relaxed);
                    TraceCountsPass::default()
                })
                .unwrap();
            assert_eq!(counts.records, records);
            let made = made.load(Ordering::Relaxed);
            assert!(
                made <= threads,
                "{threads} thread(s) built {made} accumulators (spilled: {})",
                data.trace.is_spilled()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Damaged spilled traces give every thread count the one-span sweep's
/// bytes: each worker's reader meets the same skipped chunks, resyncs and
/// truncation, so the spans still tile the healthy chunks exactly.
#[test]
fn damaged_spilled_spans_match_the_sequential_sweep() {
    let data = run_study(SimConfig::tiny());
    let dir = std::env::temp_dir().join("telco_span_sweep_damage");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let records = data.trace.len();

    let few = dir.join("few-chunks.tlho");
    seal(&data, &few, (records as usize).div_ceil(2));
    let clean = dir.join("clean.tlho");
    seal(&data, &clean, (records as usize / 16).max(1));
    let bytes = std::fs::read(&clean).unwrap();
    let frames = frame_offsets(&bytes);
    assert!(frames.len() >= 12, "only {} chunks", frames.len());

    let mut crc_flip = bytes.clone();
    crc_flip[frames[3] + FRAME_HEADER_BYTES + 7] ^= 0x40;
    let mut bad_magic = bytes.clone();
    bad_magic[frames[5]..frames[5] + 4].copy_from_slice(b"XXXX");
    let truncated = bytes[..frames[frames.len() - 3] + FRAME_HEADER_BYTES + 9].to_vec();

    let mut cases = vec![("fewer chunks than threads", few, false)];
    for (name, damaged) in [
        ("crc-flipped payload", crc_flip),
        ("bad frame magic", bad_magic),
        ("truncated tail", truncated),
    ] {
        let path = dir.join(format!("{}.tlho", name.replace(' ', "-")));
        std::fs::write(&path, damaged).unwrap();
        cases.push((name, path, true));
    }

    for (name, path, damaged) in cases {
        let mut study = spilled(&data, &path);
        let mut one_thread = None;
        for threads in [1usize, 2, 3, 8] {
            study.config.threads = threads;
            let before = study.trace.sweeps();
            let outputs = Sweep::new(&study).run(StudyPasses::default).expect("sweep");
            assert_eq!(study.trace.sweeps(), before + 1, "{name} @ {threads} threads");
            let swept = outputs.trace_counts.records;
            assert_eq!(swept < records, damaged, "{name} @ {threads} threads: swept {swept}");
            let json = serde_json::to_string(&outputs).unwrap();
            let expected = one_thread.get_or_insert_with(|| json.clone());
            assert_eq!(json, *expected, "{name} @ {threads} threads differs from one thread");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
