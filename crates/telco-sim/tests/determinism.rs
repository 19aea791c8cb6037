//! Determinism matrix: the work-stealing runner must produce byte-identical
//! records and mobility rows for every (thread count, chunk size)
//! combination — whether runs stay in memory or spill to disk — with only
//! the ledger's floating-point sums allowed to regroup (compared under a
//! documented relative tolerance).

use telco_sim::{run_on_world_chunked, run_on_world_spilled_chunked, RunnerMode, SimConfig, World};
use telco_trace::store::TraceWriter;
use telco_trace::SignalingDataset;

/// The dataset as a sealed trace stream: the byte form the matrices
/// compare.
fn encode(dataset: &SignalingDataset) -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new(), dataset.days).expect("trace header");
    writer.write_dataset(dataset).expect("trace encode");
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
    // The spill-to-disk path must be indistinguishable from the in-memory
    // path at the byte level: same encoded trace for every thread count,
    // whether the runs lived in RAM or round-tripped through chunk files
    // and the on-disk merge.
    let mut cfg = SimConfig::tiny();
    cfg.n_ues = 150;
    cfg.n_days = 2;
    cfg.threads = 1;
    let world = World::build(&cfg);
    let reference = run_on_world_chunked(&world, &cfg, 32);
    let reference_bytes = encode(&reference.dataset);

    let dir = std::env::temp_dir().join("telco_determinism_spill");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    for threads in [1usize, 2, 8] {
        for (mode, label) in [("memory", "in-memory"), ("spilled", "spilled")] {
            let mut cfg = cfg.clone();
            cfg.threads = threads;
            let out = if mode == "spilled" {
                let sub = dir.join(format!("t{threads}"));
                std::fs::create_dir_all(&sub).unwrap();
                let out = run_on_world_spilled_chunked(&world, &cfg, 32, &sub)
                    .expect("spilled run failed");
                assert_eq!(out.runner.mode, RunnerMode::Spilled, "threads={threads}");
                // Nothing left behind: runs and merge intermediates are
                // consumed as the merge drains them.
                assert_eq!(
                    std::fs::read_dir(&sub).unwrap().count(),
                    0,
                    "threads={threads}: spill dir not drained"
                );
                out
            } else {
                run_on_world_chunked(&world, &cfg, 32)
            };
            assert_eq!(
                encode(&out.dataset),
                reference_bytes,
                "threads={threads} {label}: encoded trace diverged"
            );
            assert_eq!(
                out.mobility, reference.mobility,
                "threads={threads} {label}: mobility diverged"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spilled_multi_pass_merge_is_identical() {
    // Chunk size 1 on 150 UEs × 2 days produces 300 run files — more than
    // the merge fan-in would ever see in one pass if it were small; here
    // it exercises the many-runs regime of the external merge.
    let mut cfg = SimConfig::tiny();
    cfg.n_ues = 150;
    cfg.n_days = 2;
    cfg.threads = 4;
    let world = World::build(&cfg);
    let reference = run_on_world_chunked(&world, &cfg, 1);
    let dir = std::env::temp_dir().join("telco_determinism_spill_many");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spilled = run_on_world_spilled_chunked(&world, &cfg, 1, &dir).expect("spilled run failed");
    assert_eq!(encode(&spilled.dataset), encode(&reference.dataset));
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
