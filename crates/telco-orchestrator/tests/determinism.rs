//! The orchestrated determinism matrix: every (shard count, pool size)
//! combination must reproduce the single-process study — identical
//! record stream, identical mobility rows, core counters exact, ledger
//! equal up to documented float regrouping — and, within one manifest,
//! the merged study file must be byte-identical across pool sizes.

mod common;

use common::*;
use telco_orchestrator::{open_study, orchestrate};
use telco_sim::RunnerMode;
use telco_trace::store::TraceWriter;
use telco_trace::SignalingDataset;

/// The dataset as a sealed trace stream: the byte form the matrix
/// compares.
fn encode(dataset: &SignalingDataset) -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new(), dataset.days).expect("trace header");
    writer.write_dataset(dataset).expect("trace encode");
    writer.finish().expect("trace trailer")
}

#[test]
fn shard_pool_matrix_reproduces_the_sequential_study() {
    let cfg = test_cfg();
    let reference = baseline(&cfg);
    let reference_bytes = encode(&reference.dataset);

    for shards in [1usize, 4, 16] {
        // The merged study *file* is chunk-topology-dependent (the merge
        // passes the tail through raw), so byte-compare files only within
        // one manifest; across shard counts, compare the record stream.
        let mut file_bytes: Option<Vec<u8>> = None;
        for pool in [1usize, 2, 4] {
            let label = format!("shards={shards} pool={pool}");
            let store = planned_store(&format!("matrix_s{shards}_p{pool}"), &cfg, shards, u32::MAX);
            let report = orchestrate(store.clone(), &in_process(pool)).expect(&label);
            assert_eq!(report.total, shards, "{label}");
            assert_eq!(report.skipped, 0, "{label}");
            assert_eq!(report.dispatched, shards as u32, "{label}");
            assert_eq!(report.retried, 0, "{label}");

            let merged = study_dataset(store.as_ref());
            assert_eq!(
                encode(&merged),
                reference_bytes,
                "{label}: record stream diverged from the sequential study"
            );

            let bytes = study_bytes(store.as_ref());
            match &file_bytes {
                None => file_bytes = Some(bytes),
                Some(first) => {
                    assert_eq!(&bytes, first, "{label}: study file bytes changed with pool size")
                }
            }

            let study = open_study(store.as_ref()).expect(&label);
            assert_eq!(study.output.runner.mode, RunnerMode::Orchestrated, "{label}");
            assert_eq!(study.output.mobility, reference.mobility, "{label}: mobility diverged");
            assert_eq!(study.output.core, reference.core, "{label}: core counters diverged");
            assert_ledger_close(
                &reference.ledger.attach_ms,
                &study.output.ledger.attach_ms,
                &format!("{label} attach_ms"),
            );
            assert_ledger_close(
                &reference.ledger.ul_mb,
                &study.output.ledger.ul_mb,
                &format!("{label} ul_mb"),
            );
            assert_ledger_close(
                &reference.ledger.dl_mb,
                &study.output.ledger.dl_mb,
                &format!("{label} dl_mb"),
            );
            assert!(study.trace.is_spilled(), "{label}: orchestrated studies stream out-of-core");
            assert_eq!(study.trace.len(), reference.dataset.records().len() as u64, "{label}");
        }
    }
}

#[test]
fn day_sliced_plans_also_reproduce_the_study() {
    // Day slicing multiplies entries (slices × shards) and exercises the
    // day-major leg of the canonical merge order.
    let cfg = test_cfg();
    let reference_bytes = encode(&baseline(&cfg).dataset);
    let store = planned_store("daysliced", &cfg, 3, 1);
    let report = orchestrate(store.clone(), &in_process(2)).unwrap();
    assert_eq!(report.total, 6, "2 day slices x 3 UE shards");
    assert_eq!(encode(&study_dataset(store.as_ref())), reference_bytes);
}

#[test]
fn subprocess_fleet_matches_in_process_fleet() {
    // The production launcher: real worker subprocesses, same bytes.
    let cfg = test_cfg();
    let reference_bytes = encode(&baseline(&cfg).dataset);
    let store = planned_store("subproc", &cfg, 4, u32::MAX);
    let report = orchestrate(store.clone(), &subprocess(2)).unwrap();
    assert_eq!(report.dispatched, 4);
    assert_eq!(report.retried, 0);
    assert_eq!(encode(&study_dataset(store.as_ref())), reference_bytes);

    let in_proc = planned_store("subproc_ref", &cfg, 4, u32::MAX);
    orchestrate(in_proc.clone(), &in_process(2)).unwrap();
    assert_eq!(
        study_bytes(store.as_ref()),
        study_bytes(in_proc.as_ref()),
        "same manifest, different launcher: study file must be byte-identical"
    );
}
