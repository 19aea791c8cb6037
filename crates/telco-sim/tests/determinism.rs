//! Determinism matrix: the work-stealing runner must produce byte-identical
//! records and mobility rows for every (thread count, chunk size)
//! combination — whether runs stay in memory or spill to disk — with only
//! the ledger's floating-point sums allowed to regroup (compared under a
//! documented relative tolerance).

use telco_sim::{
    run_on_world_chunked, run_on_world_spilled_chunked, RunnerMode, SimConfig, World, MERGE_FAN_IN,
};
use telco_trace::store::{TraceWriter, DEFAULT_CHUNK_RECORDS};
use telco_trace::SignalingDataset;

/// The canonical encoding of a dataset: its records in
/// `DEFAULT_CHUNK_RECORDS` chunks, the layout the spilled runner seals.
fn canonical(dataset: &SignalingDataset) -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new(), dataset.days).expect("trace header");
    for chunk in dataset.records().chunks(DEFAULT_CHUNK_RECORDS) {
        writer.write_chunk(chunk).expect("trace encode");
    }
    writer.finish().expect("trace trailer")
}

/// Relative tolerance for ledger sums: f64 addition is not associative, so
/// chunked accumulation orders differ from the sequential (day, ue) order.
const LEDGER_RTOL: f64 = 1e-9;

fn assert_ledger_close(a: &[f64; 4], b: &[f64; 4], what: &str) {
    for i in 0..4 {
        let tol = LEDGER_RTOL * a[i].abs().max(1.0);
        assert!(
            (a[i] - b[i]).abs() <= tol,
            "{what}[{i}] diverged: {} vs {} (tol {tol})",
            a[i],
            b[i]
        );
    }
}

#[test]
fn runner_matrix_is_deterministic() {
    let mut cfg = SimConfig::tiny();
    cfg.n_ues = 150;
    cfg.n_days = 2;
    cfg.threads = 1;
    let world = World::build(&cfg);

    // Reference: the sequential path.
    let reference = run_on_world_chunked(&world, &cfg, 32);
    assert_eq!(reference.runner.mode, RunnerMode::Sequential);
    assert_eq!(reference.mobility.len(), 150 * 2);

    for threads in [2usize, 3, 8] {
        for chunk in [1usize, 7, 64] {
            let mut par_cfg = cfg.clone();
            par_cfg.threads = threads;
            let out = run_on_world_chunked(&world, &par_cfg, chunk);
            let label = format!("threads={threads} chunk={chunk}");

            assert_eq!(out.runner.mode, RunnerMode::WorkStealing, "{label}");
            assert_eq!(out.runner.threads, threads, "{label}");
            assert_eq!(out.runner.chunk_ues, chunk, "{label}");
            assert_eq!(out.runner.work_items, 150usize.div_ceil(chunk) * 2, "{label}");
            assert_eq!(out.runner.ue_days, 300, "{label}");

            // Records and mobility rows: byte-identical.
            assert_eq!(
                out.dataset.records(),
                reference.dataset.records(),
                "{label}: records diverged"
            );
            assert_eq!(out.mobility, reference.mobility, "{label}: mobility diverged");

            // Ledger: identical up to floating-point regrouping.
            assert_ledger_close(&reference.ledger.attach_ms, &out.ledger.attach_ms, "attach_ms");
            assert_ledger_close(&reference.ledger.ul_mb, &out.ledger.ul_mb, "ul_mb");
            assert_ledger_close(&reference.ledger.dl_mb, &out.ledger.dl_mb, "dl_mb");
        }
    }
}

#[test]
fn spilled_matrix_matches_in_memory_byte_for_byte() {
    // The sealed trace of the spill-to-disk path must be the canonical
    // encoding of the in-memory dataset, byte for byte, for every chunk
    // size and thread count: the runs round-trip through chunk files and
    // the per-day merges, and the records regroup into full chunks across
    // day boundaries. Chunk size 1 gives 150 runs a day, more than
    // MERGE_FAN_IN, so each day first merges 23 of them into one
    // intermediate, then merges it with the other 127.
    let mut cfg = SimConfig::tiny();
    cfg.n_ues = 150;
    cfg.n_days = 2;
    cfg.threads = 1;
    let world = World::build(&cfg);
    let reference = run_on_world_chunked(&world, &cfg, 32);
    let reference_bytes = canonical(&reference.dataset);
    const { assert!(150 > MERGE_FAN_IN) };

    let dir = std::env::temp_dir().join("telco_determinism_spill");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    for chunk in [1usize, 7, 32] {
        for threads in [1usize, 2, 8] {
            let label = format!("chunk={chunk} threads={threads}");
            let mut cfg = cfg.clone();
            cfg.threads = threads;
            let in_memory = run_on_world_chunked(&world, &cfg, chunk);
            assert_eq!(
                canonical(&in_memory.dataset),
                reference_bytes,
                "{label}: in-memory diverged"
            );

            let sub = dir.join(format!("c{chunk}-t{threads}"));
            std::fs::create_dir_all(&sub).unwrap();
            let (out, trace) = run_on_world_spilled_chunked(&world, &cfg, chunk, &sub)
                .expect("spilled run failed");
            assert_eq!(out.runner.mode, RunnerMode::Spilled, "{label}");
            assert_eq!(out.runner.work_items, 150usize.div_ceil(chunk) * 2, "{label}");
            assert!(trace.is_spilled(), "{label}");
            let sealed = sub.join("study-trace.tlho");
            assert!(
                std::fs::read(&sealed).unwrap() == reference_bytes,
                "{label}: sealed trace is not the canonical encoding"
            );
            assert_eq!(trace.len(), reference.dataset.len() as u64, "{label}");
            assert_eq!(out.mobility, reference.mobility, "{label}: mobility diverged");
            // Nothing else left behind: runs and merge intermediates are
            // consumed as each day merges.
            let left: Vec<_> =
                std::fs::read_dir(&sub).unwrap().map(|e| e.unwrap().path()).collect();
            assert_eq!(left, vec![sealed], "{label}: spill dir not drained");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fixed_chunk_is_bitwise_stable_across_thread_counts() {
    // With the chunk size held fixed, even the ledger must be bitwise
    // identical across thread counts: the merge happens in canonical chunk
    // order, so the accumulation order does not depend on scheduling.
    let mut cfg = SimConfig::tiny();
    cfg.n_ues = 150;
    cfg.n_days = 2;
    cfg.threads = 2;
    let world = World::build(&cfg);
    let two = run_on_world_chunked(&world, &cfg, 16);
    for threads in [3usize, 8] {
        let mut par_cfg = cfg.clone();
        par_cfg.threads = threads;
        let out = run_on_world_chunked(&world, &par_cfg, 16);
        assert_eq!(out.dataset.records(), two.dataset.records());
        assert_eq!(out.mobility, two.mobility);
        assert_eq!(out.ledger, two.ledger, "ledger must be bitwise stable at fixed chunk");
    }
}
