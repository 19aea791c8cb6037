//! The orchestrator proper: scan the store for completed shards,
//! dispatch only what's missing, merge the fleet's output into one
//! sealed study, and publish the study-level completion marker.
//!
//! Resumability is a consequence of the completion protocol, not a
//! feature bolted on: every invocation re-derives "what is done" from
//! the artifacts themselves (marker hash + full stream validation), so
//! a crashed orchestrator, a killed worker, or a torn shard file all
//! converge to the same answer — re-dispatch exactly the shards whose
//! evidence doesn't hold up, touch nothing that does.

use std::io::Write;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use telco_sim::{RunnerMode, RunnerStats, SimOutput, StudyData, TraceSource, World, MERGE_FAN_IN};
use telco_trace::dataset::SignalingDataset;
use telco_trace::probe::validate_stream;
use telco_trace::store::{merge_sorted_readers_to_writer, TraceReader, TraceWriter};

use crate::manifest::{hash_hex, Manifest, ManifestError, MANIFEST_NAME};
use crate::pool::{DispatchOutcome, Launcher, PoolOptions, WorkerPool};
use crate::store::{get_string, put_bytes, ShardStore};
use crate::worker::{marker_name, sidecar_name, trace_name, FaultSpec, ShardMarker, ShardSidecar};

/// Store name of the merged study trace.
pub const STUDY_TRACE: &str = "study-trace.tlho";

/// Store name of the merged study sidecar (mobility, ledger, core).
pub const STUDY_SIDECAR: &str = "study.side.json";

/// Store name of the study-level completion marker — written last, so
/// its presence (with a matching manifest hash) means the whole run,
/// merge included, finished.
pub const STUDY_MARKER: &str = "study.ok.json";

/// The study-level completion marker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StudyMarker {
    /// Hex [`Manifest::manifest_hash`] the study was merged from.
    pub manifest_hash: String,
    /// Records in the merged trace.
    pub records: u64,
    /// Chunk frames in the merged trace.
    pub chunks: u32,
}

/// The merged study sidecar: the fleet's non-trace outputs folded into
/// sequential-run form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudySidecar {
    /// Hex manifest hash, pairing the sidecar with its marker.
    pub manifest_hash: String,
    /// All mobility rows, sorted (day, UE) — the sequential runner's
    /// emission order.
    pub mobility: Vec<telco_sim::UeDayMobility>,
    /// RAT ledger summed over every shard.
    pub ledger: telco_sim::RatLedger,
    /// Core counters summed over every shard.
    pub core: telco_signaling::entities::CoreNetwork,
}

/// Orchestration knobs.
#[derive(Debug, Clone)]
pub struct OrchestrateOptions {
    /// How workers run (subprocess fleet or in-process threads).
    pub launcher: Launcher,
    /// Pool sizing, timeout, and retry policy.
    pub pool: PoolOptions,
    /// Injected faults, entry index → fault, first attempt only (test
    /// harness; empty in production).
    pub faults: Vec<(usize, FaultSpec)>,
}

impl OrchestrateOptions {
    /// Production defaults over a given launcher.
    pub fn new(launcher: Launcher) -> Self {
        OrchestrateOptions { launcher, pool: PoolOptions::default(), faults: Vec::new() }
    }
}

/// What one orchestrator invocation did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrchestrateReport {
    /// Entries in the manifest.
    pub total: usize,
    /// Entries already complete when the run started (resume skips).
    pub skipped: usize,
    /// Worker launches this invocation (first attempts + retries).
    pub dispatched: u32,
    /// Launches beyond first attempts.
    pub retried: u32,
    /// Records in the sealed study trace.
    pub records: u64,
    /// Whether a valid sealed study already existed and the whole run
    /// (dispatch *and* merge) was skipped.
    pub reused_study: bool,
}

/// Why orchestration failed.
#[derive(Debug)]
pub enum OrchestrateError {
    /// The manifest is missing or malformed.
    Manifest(ManifestError),
    /// Storage failed.
    Io(std::io::Error),
    /// Entries exhausted every attempt (ascending indexes).
    ShardsFailed(Vec<usize>),
    /// The merged study contradicts the shard markers — a bug or a
    /// concurrently-mutated store; nothing was published.
    Mismatch(String),
    /// The study artifacts are missing or fail validation (for
    /// [`open_study`]).
    StudyInvalid(String),
}

impl From<std::io::Error> for OrchestrateError {
    fn from(e: std::io::Error) -> Self {
        OrchestrateError::Io(e)
    }
}

impl From<ManifestError> for OrchestrateError {
    fn from(e: ManifestError) -> Self {
        OrchestrateError::Manifest(e)
    }
}

impl std::fmt::Display for OrchestrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrchestrateError::Manifest(e) => write!(f, "{e}"),
            OrchestrateError::Io(e) => write!(f, "store I/O failed: {e}"),
            OrchestrateError::ShardsFailed(idx) => {
                write!(f, "shards failed after all retries: {idx:?}")
            }
            OrchestrateError::Mismatch(why) => write!(f, "merge mismatch: {why}"),
            OrchestrateError::StudyInvalid(why) => write!(f, "study not usable: {why}"),
        }
    }
}

impl std::error::Error for OrchestrateError {}

/// Store the manifest as [`MANIFEST_NAME`] (staged + committed).
pub fn store_manifest(store: &dyn ShardStore, manifest: &Manifest) -> std::io::Result<()> {
    put_bytes(store, MANIFEST_NAME, manifest.to_json().as_bytes())
}

/// Load the manifest from the store.
pub fn load_manifest(store: &dyn ShardStore) -> Result<Manifest, OrchestrateError> {
    let json = get_string(store, MANIFEST_NAME)?;
    Ok(Manifest::from_json(&json)?)
}

/// Decide whether shard `index` is complete, from evidence alone.
///
/// Complete means all of: the marker parses and carries this manifest's
/// entry hash; the sidecar parses and carries the same hash; and the
/// trace stream validates end-to-end (sealed trailer, every CRC good)
/// with day span and counts matching marker and manifest. A
/// valid trailer alone is *not* enough — a flipped byte mid-payload
/// leaves the trailer intact, which is exactly what the `corrupt` fault
/// injects — so the authoritative check reads every chunk.
pub fn shard_complete(
    manifest: &Manifest,
    index: usize,
    store: &dyn ShardStore,
) -> Result<(), String> {
    let expected = hash_hex(manifest.entry_hash(index).ok_or_else(|| format!("no entry {index}"))?);

    let marker_json =
        get_string(store, &marker_name(index)).map_err(|e| format!("no completion marker: {e}"))?;
    let marker: ShardMarker =
        serde_json::from_str(&marker_json).map_err(|e| format!("marker does not parse: {e}"))?;
    if marker.entry != index {
        return Err(format!("marker is for entry {}, not {index}", marker.entry));
    }
    if marker.entry_hash != expected {
        return Err(format!(
            "marker hash {} does not match entry hash {expected}",
            marker.entry_hash
        ));
    }

    let side_json =
        get_string(store, &sidecar_name(index)).map_err(|e| format!("no sidecar: {e}"))?;
    let sidecar: ShardSidecar =
        serde_json::from_str(&side_json).map_err(|e| format!("sidecar does not parse: {e}"))?;
    if sidecar.entry_hash != expected {
        return Err("sidecar hash does not match entry hash".into());
    }

    let trace = store.get(&trace_name(index)).map_err(|e| format!("no trace: {e}"))?;
    let summary =
        validate_stream(trace).map_err(|issue| format!("trace invalid: {:?}", issue.error))?;
    if summary.days != manifest.config.n_days {
        return Err(format!(
            "trace spans {} days, study spans {}",
            summary.days, manifest.config.n_days
        ));
    }
    if summary.records != marker.records || summary.chunks != u64::from(marker.chunks) {
        return Err(format!(
            "trace has {} records / {} chunks, marker claims {} / {}",
            summary.records, summary.chunks, marker.records, marker.chunks
        ));
    }
    Ok(())
}

/// Whether a sealed study for exactly this manifest already exists and
/// validates. `Ok` carries its marker.
fn study_complete(manifest: &Manifest, store: &dyn ShardStore) -> Result<StudyMarker, String> {
    let expected = hash_hex(manifest.manifest_hash());
    let marker_json =
        get_string(store, STUDY_MARKER).map_err(|e| format!("no study marker: {e}"))?;
    let marker: StudyMarker = serde_json::from_str(&marker_json)
        .map_err(|e| format!("study marker does not parse: {e}"))?;
    if marker.manifest_hash != expected {
        return Err("study was merged from a different manifest".into());
    }
    let trace = store.get(STUDY_TRACE).map_err(|e| format!("no study trace: {e}"))?;
    let summary = validate_stream(trace)
        .map_err(|issue| format!("study trace invalid: {:?}", issue.error))?;
    if summary.records != marker.records || summary.chunks != u64::from(marker.chunks) {
        return Err("study trace does not match its marker".into());
    }
    let side_json =
        get_string(store, STUDY_SIDECAR).map_err(|e| format!("no study sidecar: {e}"))?;
    let sidecar: StudySidecar = serde_json::from_str(&side_json)
        .map_err(|e| format!("study sidecar does not parse: {e}"))?;
    if sidecar.manifest_hash != expected {
        return Err("study sidecar is from a different manifest".into());
    }
    Ok(marker)
}

/// Run (or resume) the sharded sweep described by the store's manifest:
/// dispatch incomplete shards to the worker fleet, then merge every
/// shard trace into the sealed study and publish sidecar + marker.
///
/// Idempotent end to end: a second invocation over a completed store
/// validates the sealed study and returns without dispatching or
/// merging; an invocation over a partial store re-runs exactly the
/// shards whose artifacts fail [`shard_complete`].
pub fn orchestrate(
    store: Arc<dyn ShardStore>,
    opts: &OrchestrateOptions,
) -> Result<OrchestrateReport, OrchestrateError> {
    let manifest = Arc::new(load_manifest(store.as_ref())?);
    let total = manifest.entries.len();
    let pool = WorkerPool::new(Arc::clone(&manifest), Arc::clone(&store), opts.launcher.clone(), {
        opts.pool.clone()
    });

    // A sealed study for this exact manifest short-circuits everything.
    if let Ok(marker) = study_complete(&manifest, store.as_ref()) {
        pool.log_event(&format!("{{\"event\":\"study-reused\",\"records\":{}}}", marker.records));
        return Ok(OrchestrateReport {
            total,
            skipped: total,
            dispatched: 0,
            retried: 0,
            records: marker.records,
            reused_study: true,
        });
    }

    // Evidence scan: which shards are already done?
    let mut jobs = Vec::new();
    for index in 0..total {
        if shard_complete(&manifest, index, store.as_ref()).is_err() {
            // Clear a stale marker so a crash mid-retry can't leave an
            // old seal next to a half-rewritten trace.
            store.delete(&marker_name(index))?;
            jobs.push(index);
        }
    }
    let skipped = total - jobs.len();
    pool.log_event(&format!(
        "{{\"event\":\"run-start\",\"total\":{total},\"skipped\":{skipped},\"jobs\":{}}}",
        jobs.len()
    ));

    let manifest_for_validate = Arc::clone(&manifest);
    let store_for_validate = Arc::clone(&store);
    let validate = move |index: usize| {
        shard_complete(&manifest_for_validate, index, store_for_validate.as_ref())
    };
    let DispatchOutcome { completed: _, failed, dispatches, retries } =
        pool.dispatch(&jobs, &opts.faults, &validate);
    if !failed.is_empty() {
        return Err(OrchestrateError::ShardsFailed(failed));
    }

    // Merge every shard (store-backed fan-in reduction; shard files are
    // kept — they are the resume evidence and the re-merge inputs).
    let (records, chunks) = merge_all_shards(&manifest, store.as_ref())?;
    let claimed: u64 = (0..total)
        .map(|index| {
            let marker_json = get_string(store.as_ref(), &marker_name(index))?;
            let marker: ShardMarker = serde_json::from_str(&marker_json)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            Ok::<u64, std::io::Error>(marker.records)
        })
        .sum::<Result<u64, _>>()?;
    if claimed != records {
        return Err(OrchestrateError::Mismatch(format!(
            "shard markers claim {claimed} records, merge produced {records}"
        )));
    }

    publish_study_sidecar(&manifest, store.as_ref())?;
    let study_marker =
        StudyMarker { manifest_hash: hash_hex(manifest.manifest_hash()), records, chunks };
    let marker_json = serde_json::to_string(&study_marker)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    put_bytes(store.as_ref(), STUDY_MARKER, marker_json.as_bytes())?;
    pool.log_event(&format!("{{\"event\":\"study-sealed\",\"records\":{records}}}"));

    Ok(OrchestrateReport {
        total,
        skipped,
        dispatched: dispatches,
        retried: retries,
        records,
        reused_study: false,
    })
}

/// Fan-in reduce all shard traces into [`STUDY_TRACE`]. Returns the
/// merged (records, chunks). Intermediate `merge-*` objects are deleted
/// as consumed; shard traces are never deleted.
fn merge_all_shards(
    manifest: &Manifest,
    store: &dyn ShardStore,
) -> Result<(u64, u32), OrchestrateError> {
    let invalid = |e: telco_trace::io::CodecError| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}"))
    };
    let mut names: Vec<String> = (0..manifest.entries.len()).map(trace_name).collect();
    let mut level = 0usize;
    loop {
        let final_pass = names.len() <= MERGE_FAN_IN;
        let mut next = Vec::new();
        let mut sealed = (0u64, 0u32);
        for (g, group) in names.chunks(MERGE_FAN_IN).enumerate() {
            let out = if final_pass {
                STUDY_TRACE.to_string()
            } else {
                format!("merge-l{level}-{g:04}.tlho")
            };
            let mut readers = Vec::with_capacity(group.len());
            for name in group {
                readers.push(TraceReader::new(store.get(name)?).map_err(invalid)?);
            }
            let mut writer = TraceWriter::new(store.put(&out)?, manifest.config.n_days)?;
            let records = merge_sorted_readers_to_writer(readers, &mut writer)?;
            let chunks = writer.chunks_written();
            let mut sink = writer.finish()?;
            sink.flush()?;
            drop(sink);
            store.commit(&out)?;
            for name in group.iter().filter(|n| n.starts_with("merge-")) {
                store.delete(name)?;
            }
            sealed = (records, chunks);
            next.push(out);
        }
        if final_pass {
            return Ok(sealed);
        }
        names = next;
        level += 1;
    }
}

/// Fold every shard sidecar into the study sidecar and publish it.
fn publish_study_sidecar(
    manifest: &Manifest,
    store: &dyn ShardStore,
) -> Result<(), OrchestrateError> {
    let mut mobility = Vec::new();
    let mut ledger = telco_sim::RatLedger::default();
    let mut core = telco_signaling::entities::CoreNetwork::new();
    for index in 0..manifest.entries.len() {
        let side_json = get_string(store, &sidecar_name(index))?;
        let sidecar: ShardSidecar = serde_json::from_str(&side_json).map_err(|e| {
            OrchestrateError::Mismatch(format!("sidecar {index} does not parse: {e}"))
        })?;
        mobility.extend(sidecar.mobility);
        ledger.merge(&sidecar.ledger);
        core.merge(&sidecar.core);
    }
    // (day, UE) is the sequential runner's emission order, so downstream
    // mobility analyses see exactly the rows a single-process run yields.
    mobility.sort_by_key(|m| (m.day, m.ue));
    let sidecar =
        StudySidecar { manifest_hash: hash_hex(manifest.manifest_hash()), mobility, ledger, core };
    let json = serde_json::to_string(&sidecar)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    put_bytes(store, STUDY_SIDECAR, json.as_bytes())?;
    Ok(())
}

/// Open a sealed orchestrated study as a [`StudyData`], validating the
/// study marker against the manifest first. The trace streams from the
/// store's local file (out-of-core, like a spilled run); the sidecar
/// supplies mobility, ledger, and core outputs.
pub fn open_study(store: &dyn ShardStore) -> Result<StudyData, OrchestrateError> {
    let manifest = load_manifest(store)?;
    let marker = study_complete(&manifest, store).map_err(OrchestrateError::StudyInvalid)?;
    let side_json = get_string(store, STUDY_SIDECAR)?;
    let sidecar: StudySidecar = serde_json::from_str(&side_json)
        .map_err(|e| OrchestrateError::StudyInvalid(format!("sidecar: {e}")))?;
    let path = store.local_path(STUDY_TRACE).ok_or_else(|| {
        OrchestrateError::StudyInvalid("store has no local study trace to stream".into())
    })?;

    let config = manifest.config.clone();
    let world = World::build(&config);
    let ue_days = manifest.planned_ue_days() as usize;
    let chunk_ues = manifest.entries.iter().map(|e| e.ue_hi - e.ue_lo).max().unwrap_or(1).max(1);
    let output = SimOutput {
        dataset: SignalingDataset::new(config.n_days),
        mobility: sidecar.mobility,
        ledger: sidecar.ledger,
        core: sidecar.core,
        runner: RunnerStats {
            mode: RunnerMode::Orchestrated,
            threads: 1,
            chunk_ues,
            work_items: manifest.entries.len(),
            ue_days,
        },
    };
    let trace = TraceSource::spilled(path, config.n_days, marker.records);
    Ok(StudyData { config, world, output, trace })
}
