//! Shared fixtures for the orchestrator integration suites.
// Each suite is its own binary and uses a different helper subset.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::Arc;

use telco_orchestrator::{
    store_manifest, DirStore, Launcher, Manifest, OrchestrateOptions, PlanOptions, PoolOptions,
    ShardStore, STUDY_TRACE,
};
use telco_sim::{run_shard, SimConfig, SimOutput, World};
use telco_trace::store::TraceReader;

/// Relative tolerance for ledger sums (repo convention: f64 addition is
/// not associative, so shard-order accumulation may regroup).
pub const LEDGER_RTOL: f64 = 1e-9;

pub fn assert_ledger_close(a: &[f64; 4], b: &[f64; 4], what: &str) {
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

/// Small-but-nontrivial study config shared by the suites.
pub fn test_cfg() -> SimConfig {
    let mut cfg = SimConfig::tiny();
    cfg.n_ues = 120;
    cfg.n_days = 2;
    cfg.threads = 1;
    cfg
}

/// The single-process reference: one full-range shard is exactly the
/// sequential runner (proven in telco-sim's shard test).
pub fn baseline(cfg: &SimConfig) -> SimOutput {
    let world = World::build(cfg);
    run_shard(&world, cfg, 0..cfg.n_days, 0..cfg.n_ues)
}

/// Fresh store under a unique temp dir, with the plan already stored.
pub fn planned_store(
    tag: &str,
    cfg: &SimConfig,
    shards: usize,
    days_per_slice: u32,
) -> Arc<DirStore> {
    let dir = temp_dir(tag);
    let store = DirStore::create(dir).unwrap();
    let manifest =
        Manifest::plan(cfg.clone(), &PlanOptions { shards, days_per_slice, scenario: tag.into() })
            .unwrap();
    store_manifest(&store, &manifest).unwrap();
    Arc::new(store)
}

pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("telco_orch_it_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// In-process fleet with fast retry backoff (tests only).
pub fn in_process(pool_size: usize) -> OrchestrateOptions {
    OrchestrateOptions {
        launcher: Launcher::InProcess,
        pool: PoolOptions { pool_size, backoff_ms: 5, ..PoolOptions::default() },
        faults: Vec::new(),
    }
}

/// Subprocess fleet running the real `telco-worker` binary.
pub fn subprocess(pool_size: usize) -> OrchestrateOptions {
    OrchestrateOptions {
        launcher: Launcher::Subprocess {
            program: PathBuf::from(env!("CARGO_BIN_EXE_telco-worker")),
            prefix: Vec::new(),
        },
        pool: PoolOptions { pool_size, backoff_ms: 5, ..PoolOptions::default() },
        faults: Vec::new(),
    }
}

/// Raw bytes of the sealed study trace.
pub fn study_bytes(store: &dyn ShardStore) -> Vec<u8> {
    std::fs::read(store.local_path(STUDY_TRACE).expect("study trace exists")).unwrap()
}

/// Decoded record stream of the sealed study trace.
pub fn study_dataset(store: &dyn ShardStore) -> telco_trace::dataset::SignalingDataset {
    let path = store.local_path(STUDY_TRACE).expect("study trace exists");
    TraceReader::open(&path).unwrap().read_to_dataset_strict().unwrap()
}

/// Count `"event":"<kind>"` lines in the orchestrator log.
pub fn log_count(store: &dyn ShardStore, kind: &str) -> usize {
    let Some(path) = store.local_path(telco_orchestrator::EVENT_LOG) else { return 0 };
    let log = std::fs::read_to_string(path).unwrap_or_default();
    let needle = format!("\"event\":\"{kind}\"");
    log.lines().filter(|l| l.contains(&needle)).count()
}
