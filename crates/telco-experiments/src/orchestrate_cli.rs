//! The sharded-sweep subcommands of `repro`:
//!
//! ```text
//! repro plan --dir <store> [--tiny|--small|--medium] [--shards N]
//!            [--days-per-slice D] [--scenario NAME]
//! repro worker --dir <store> --entry N [--fault <spec>]
//! repro orchestrate --dir <store> [--pool N] [--retries R]
//!                   [--timeout-ms T] [--in-process] [--analyze]
//!                   [--threads N]
//! ```
//!
//! `plan` writes the manifest into a fresh (or existing) shard store;
//! `orchestrate` dispatches incomplete shards to a bounded fleet of
//! `repro worker` subprocesses (itself, re-invoked), merges the shard
//! traces into one sealed study, and is safe to re-run after any crash —
//! it skips every shard whose artifacts validate. `worker` is the
//! subprocess entry point and mirrors the standalone `telco-worker`
//! binary. See EXPERIMENTS.md ("paper-scale sharded run") for the
//! walkthrough.

use telco_orchestrator::{
    load_manifest, open_study, orchestrate, run_entry, store_manifest, DirStore, FaultSpec,
    Launcher, Manifest, OrchestrateError, OrchestrateOptions, PlanOptions, PoolOptions,
    WorkerError, EXIT_INJECTED,
};
use telco_sim::SimConfig;

/// Run a sharded-sweep subcommand; returns the process exit code.
pub fn run(cmd: &str, args: &[String]) -> i32 {
    match cmd {
        "plan" => run_plan(args),
        "worker" => run_worker(args),
        "orchestrate" => run_orchestrate(args),
        _ => unreachable!("dispatcher only routes the three subcommands"),
    }
}

/// Pull the value following `flag` out of `args`.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn store_at(args: &[String], create: bool) -> Result<DirStore, i32> {
    let Some(dir) = flag_value(args, "--dir") else {
        eprintln!("repro: --dir <store> is required");
        return Err(2);
    };
    let store = if create { DirStore::create(&dir) } else { DirStore::open(&dir) };
    store.map_err(|e| {
        eprintln!("repro: cannot open shard store {dir}: {e}");
        1
    })
}

fn run_plan(args: &[String]) -> i32 {
    let mut config = SimConfig::default_study();
    let mut preset = "default";
    if has_flag(args, "--tiny") {
        config = SimConfig::tiny();
        preset = "tiny";
    } else if has_flag(args, "--small") {
        config = SimConfig::small();
        preset = "small";
    } else if has_flag(args, "--medium") {
        config = SimConfig::medium();
        preset = "medium";
    }
    let mut opts = PlanOptions {
        scenario: flag_value(args, "--scenario").unwrap_or_else(|| preset.to_string()),
        ..PlanOptions::default()
    };
    if let Some(shards) = flag_value(args, "--shards").and_then(|v| v.parse().ok()) {
        opts.shards = shards;
    }
    if let Some(dps) = flag_value(args, "--days-per-slice").and_then(|v| v.parse().ok()) {
        opts.days_per_slice = dps;
    }

    let store = match store_at(args, true) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let manifest = match Manifest::plan(config, &opts) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("repro: {e}");
            return 2;
        }
    };
    if let Err(e) = store_manifest(&store, &manifest) {
        eprintln!("repro: cannot store manifest: {e}");
        return 1;
    }
    println!(
        "planned {} shards ({} UEs x {} days, {} UE-days), scenario {:?}, manifest hash {}",
        manifest.entries.len(),
        manifest.config.n_ues,
        manifest.config.n_days,
        manifest.planned_ue_days(),
        manifest.scenario,
        telco_orchestrator::manifest::hash_hex(manifest.manifest_hash()),
    );
    0
}

fn run_worker(args: &[String]) -> i32 {
    let store = match store_at(args, false) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let Some(entry) = flag_value(args, "--entry").and_then(|v| v.parse().ok()) else {
        eprintln!("repro: worker needs --entry <index>");
        return 2;
    };
    let fault = match flag_value(args, "--fault") {
        Some(spec) => match FaultSpec::parse(&spec) {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!("repro: {e}");
                return 2;
            }
        },
        None => None,
    };
    let manifest = match load_manifest(&store) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("repro: {e}");
            return 1;
        }
    };
    match run_entry(&manifest, entry, &store, fault) {
        Ok(marker) => {
            eprintln!("shard {entry} sealed: {} records, {} chunks", marker.records, marker.chunks);
            0
        }
        Err(WorkerError::InjectedCrash) => EXIT_INJECTED,
        Err(e) => {
            eprintln!("repro: shard {entry} failed: {e}");
            1
        }
    }
}

fn run_orchestrate(args: &[String]) -> i32 {
    let store = match store_at(args, false) {
        Ok(s) => std::sync::Arc::new(s),
        Err(code) => return code,
    };
    let launcher = if has_flag(args, "--in-process") {
        Launcher::InProcess
    } else {
        // The fleet is this very binary re-invoked as `repro worker`.
        let program = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("repro: cannot locate own executable for the worker fleet: {e}");
                return 1;
            }
        };
        Launcher::Subprocess { program, prefix: vec!["worker".to_string()] }
    };
    let mut pool = PoolOptions::default();
    if let Some(n) = flag_value(args, "--pool").and_then(|v| v.parse().ok()) {
        pool.pool_size = n;
    }
    if let Some(r) = flag_value(args, "--retries").and_then(|v| v.parse().ok()) {
        pool.retries = r;
    }
    if let Some(t) = flag_value(args, "--timeout-ms").and_then(|v| v.parse().ok()) {
        pool.timeout_ms = t;
    }
    let opts = OrchestrateOptions { launcher, pool, faults: Vec::new() };

    let report = match orchestrate(store.clone(), &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}", failure_message(&e));
            return 1;
        }
    };
    if report.reused_study {
        println!("study already sealed ({} records); nothing to do", report.records);
    } else {
        println!(
            "orchestrated {} shards ({} skipped as complete, {} dispatched, {} retries): \
             {} records sealed",
            report.total, report.skipped, report.dispatched, report.retried, report.records
        );
    }

    if has_flag(args, "--analyze") {
        let mut data = match open_study(store.as_ref()) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("repro: cannot open sealed study: {e}");
                return 1;
            }
        };
        // Analytics sweep the sealed trace with the span-parallel
        // out-of-core sweep; `--threads N` overrides the planned
        // config (0 = available parallelism), byte-identical either way.
        if let Some(n) = flag_value(args, "--threads").and_then(|v| v.parse().ok()) {
            data.config.threads = n;
        }
        let study = telco_analytics::Study::from_data(data);
        println!("{}", study.dataset_stats().table());
        println!("{}", study.ho_types().table());
    }
    0
}

/// What `orchestrate` prints when it fails: the error, and a resume hint
/// unless the stored plan itself is unusable (its error says to re-plan,
/// and re-running would only fail the same way).
fn failure_message(e: &OrchestrateError) -> String {
    match e {
        OrchestrateError::Manifest(_) => format!("repro: orchestration failed: {e}"),
        _ => format!(
            "repro: orchestration failed: {e}\n\
             repro: re-run the same command to resume from the completed shards"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retired_trace_version_asks_to_replan_not_resume() {
        let dir = std::env::temp_dir().join("telco_cli_retired_manifest");
        let _ = std::fs::remove_dir_all(&dir);
        let store = std::sync::Arc::new(DirStore::create(&dir).unwrap());
        let mut manifest = Manifest::plan(SimConfig::tiny(), &PlanOptions::default()).unwrap();
        manifest.trace_version = 3;
        store_manifest(store.as_ref(), &manifest).unwrap();

        let err = orchestrate(store, &OrchestrateOptions::new(Launcher::InProcess)).unwrap_err();
        let message = failure_message(&err);
        assert_eq!(
            message,
            "repro: orchestration failed: trace_version 3 is no longer supported (only v4); \
             re-plan the study"
        );
        assert!(!message.contains("resume"), "{message}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
