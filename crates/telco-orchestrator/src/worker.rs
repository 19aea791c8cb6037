//! The shard worker: runs one manifest entry and publishes its
//! artifacts, with injectable faults for the resilience test harness.
//!
//! A worker publishes three objects per entry, in a fixed order that
//! *is* the completion protocol:
//!
//! 1. `shard-NNNNN.tlho` — the shard trace, staged while writing and
//!    committed only after the `TEND` trailer is sealed;
//! 2. `shard-NNNNN.side.json` — the sidecar with the non-trace outputs
//!    (mobility rows, RAT ledger, core counters);
//! 3. `shard-NNNNN.ok.json` — the completion marker, written *last*,
//!    keyed by the manifest entry hash.
//!
//! A shard counts as complete only if the marker exists with the right
//! hash *and* the trace stream validates end-to-end (valid trailer,
//! every CRC good, counts matching the marker). The marker alone is
//! deliberately insufficient: the fault hooks below produce exactly the
//! pathologies — truncated tail, flipped byte — where a marker survives
//! but the stream must not pass.
//!
//! Fault hooks are driven by a `--fault` flag or the
//! [`WORKER_FAULT_ENV`] environment variable, and exist purely so the
//! integration suite can prove the orchestrator's detect-and-retry
//! story against real subprocess crashes rather than mocks.

use std::io::Write;

use serde::{Deserialize, Serialize};

use telco_signaling::entities::CoreNetwork;
use telco_sim::{run_shard, RatLedger, UeDayMobility, World};
use telco_trace::store::TraceWriter;

use crate::manifest::{hash_hex, Manifest};
use crate::store::{put_bytes, ShardStore};

/// Environment variable carrying a fault spec (the `--fault` flag takes
/// precedence). Lets the harness inject faults through orchestrators
/// that don't know they are under test.
pub const WORKER_FAULT_ENV: &str = "TELCO_WORKER_FAULT";

/// Process exit code a worker uses for an *injected* crash, so tests
/// can tell harness-made failures from real ones.
pub const EXIT_INJECTED: i32 = 17;

/// Store name of a shard's trace.
pub fn trace_name(index: usize) -> String {
    format!("shard-{index:05}.tlho")
}

/// Store name of a shard's sidecar (non-trace outputs).
pub fn sidecar_name(index: usize) -> String {
    format!("shard-{index:05}.side.json")
}

/// Store name of a shard's completion marker.
pub fn marker_name(index: usize) -> String {
    format!("shard-{index:05}.ok.json")
}

/// An injected failure mode (test harness only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Exit nonzero (without committing anything) after writing K chunk
    /// frames of the trace.
    CrashAfterChunks(u32),
    /// Write and commit the full trace, then truncate the committed
    /// file mid-chunk — a torn tail under a name that looks published.
    TruncateTail,
    /// Write and commit the full trace, then flip one byte in the
    /// middle of the committed file, before writing the marker.
    FlipByte,
    /// Sleep this many milliseconds before simulating (for the
    /// per-worker timeout path).
    Stall(u64),
}

impl FaultSpec {
    /// Parse `crash:K`, `truncate`, `corrupt`, or `stall:MS`.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        if let Some(k) = spec.strip_prefix("crash:") {
            return k
                .parse()
                .map(FaultSpec::CrashAfterChunks)
                .map_err(|_| format!("bad crash chunk count in {spec:?}"));
        }
        if let Some(ms) = spec.strip_prefix("stall:") {
            return ms
                .parse()
                .map(FaultSpec::Stall)
                .map_err(|_| format!("bad stall milliseconds in {spec:?}"));
        }
        match spec {
            "truncate" => Ok(FaultSpec::TruncateTail),
            "corrupt" => Ok(FaultSpec::FlipByte),
            other => Err(format!(
                "unknown fault {other:?} (expected crash:K, truncate, corrupt, or stall:MS)"
            )),
        }
    }
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSpec::CrashAfterChunks(k) => write!(f, "crash:{k}"),
            FaultSpec::TruncateTail => write!(f, "truncate"),
            FaultSpec::FlipByte => write!(f, "corrupt"),
            FaultSpec::Stall(ms) => write!(f, "stall:{ms}"),
        }
    }
}

/// The completion marker: what a finished worker claims about its shard.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMarker {
    /// Entry index this marker seals.
    pub entry: usize,
    /// Hex [`Manifest::entry_hash`] of the entry as the worker saw it.
    pub entry_hash: String,
    /// Records in the shard trace.
    pub records: u64,
    /// Chunk frames in the shard trace.
    pub chunks: u32,
}

/// The sidecar: every non-trace output of the shard, in shard-local
/// form (mobility rows day-major/UE-ascending; ledger and core counters
/// summed over the shard only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSidecar {
    /// Entry index this sidecar belongs to.
    pub entry: usize,
    /// Hex entry hash, so a stale sidecar can never pair with a fresh
    /// trace.
    pub entry_hash: String,
    /// Per-UE-day mobility rows of the shard.
    pub mobility: Vec<UeDayMobility>,
    /// RAT attach/traffic ledger summed over the shard.
    pub ledger: RatLedger,
    /// Core-network message counters summed over the shard.
    pub core: CoreNetwork,
}

/// Why a worker run failed.
#[derive(Debug)]
pub enum WorkerError {
    /// The manifest has no such entry.
    BadEntry(usize),
    /// A fault hook fired (`crash:K`): the worker must exit nonzero.
    InjectedCrash,
    /// A fault hook needed a local file but the store has none.
    FaultNeedsLocalStore,
    /// Storage or serialization failed.
    Io(std::io::Error),
}

impl From<std::io::Error> for WorkerError {
    fn from(e: std::io::Error) -> Self {
        WorkerError::Io(e)
    }
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::BadEntry(i) => write!(f, "manifest has no entry {i}"),
            WorkerError::InjectedCrash => write!(f, "injected crash fired"),
            WorkerError::FaultNeedsLocalStore => {
                write!(f, "truncate/corrupt faults need a store with local paths")
            }
            WorkerError::Io(e) => write!(f, "worker I/O failed: {e}"),
        }
    }
}

impl std::error::Error for WorkerError {}

/// Run one manifest entry end-to-end: simulate the shard, stream its
/// sorted records into a staged trace, seal and commit it, publish the
/// sidecar, and finally the completion marker. Returns the marker it
/// published.
///
/// With a `fault`, the corresponding pathology is produced instead (see
/// [`FaultSpec`]); `crash:K` returns [`WorkerError::InjectedCrash`]
/// with the staged trace abandoned uncommitted, while `truncate` /
/// `corrupt` damage the *committed* trace and then publish marker and
/// sidecar as if nothing happened — the parent's validation, not the
/// worker's honesty, must catch those.
pub fn run_entry(
    manifest: &Manifest,
    index: usize,
    store: &dyn ShardStore,
    fault: Option<FaultSpec>,
) -> Result<ShardMarker, WorkerError> {
    let entry = manifest.entries.get(index).ok_or(WorkerError::BadEntry(index))?.clone();
    let entry_hash = hash_hex(manifest.entry_hash(index).ok_or(WorkerError::BadEntry(index))?);

    if let Some(FaultSpec::Stall(ms)) = fault {
        // telco-lint: allow(nondet): harness-only stall fault; the sleep never shapes trace bytes
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    // The world is a pure function of the config: every worker builds an
    // identical copy. At paper scale this is the term to optimize (build
    // once per process, run many entries); correctness never depends on it.
    let world = World::build(&manifest.config);
    let out =
        run_shard(&world, &manifest.config, entry.day_lo..entry.day_hi, entry.ue_lo..entry.ue_hi);

    // Stream the sorted shard records into the staged trace, one chunk
    // per study day (mirroring TraceWriter::write_dataset, unrolled here
    // so the crash fault can count committed chunk frames).
    let trace = trace_name(index);
    let mut writer = TraceWriter::new(store.put(&trace)?, manifest.config.n_days)?;
    let records = out.dataset.records();
    let mut start = 0usize;
    while start < records.len() {
        let day = records[start].day();
        let mut end = start + 1;
        while end < records.len() && records[end].day() == day {
            end += 1;
        }
        writer.write_chunk(&records[start..end])?;
        start = end;
        if let Some(FaultSpec::CrashAfterChunks(k)) = fault {
            if writer.chunks_written() >= k {
                // Abandon the staged trace: no trailer, no commit, no
                // marker. The parent sees only a nonzero exit.
                return Err(WorkerError::InjectedCrash);
            }
        }
    }
    if let Some(FaultSpec::CrashAfterChunks(k)) = fault {
        if writer.chunks_written() >= k {
            return Err(WorkerError::InjectedCrash);
        }
    }
    let marker = ShardMarker {
        entry: index,
        entry_hash: entry_hash.clone(),
        records: writer.records_written(),
        chunks: writer.chunks_written(),
    };
    let mut sink = writer.finish()?;
    sink.flush()?;
    drop(sink);
    store.commit(&trace)?;

    // Post-commit damage faults: the trace is published and sealed; now
    // tear it, then lie about completion.
    match fault {
        Some(FaultSpec::TruncateTail) => damage_committed(store, &trace, Damage::Truncate)?,
        Some(FaultSpec::FlipByte) => damage_committed(store, &trace, Damage::Flip)?,
        _ => {}
    }

    let sidecar = ShardSidecar {
        entry: index,
        entry_hash: entry_hash.clone(),
        mobility: out.mobility,
        ledger: out.ledger,
        core: out.core,
    };
    let side_json = serde_json::to_string(&sidecar)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    put_bytes(store, &sidecar_name(index), side_json.as_bytes())?;

    let marker_json = serde_json::to_string(&marker)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    put_bytes(store, &marker_name(index), marker_json.as_bytes())?;
    Ok(marker)
}

enum Damage {
    Truncate,
    Flip,
}

/// Damage a committed trace in place (fault harness only; needs a store
/// with local paths).
fn damage_committed(store: &dyn ShardStore, name: &str, damage: Damage) -> Result<(), WorkerError> {
    let path = store.local_path(name).ok_or(WorkerError::FaultNeedsLocalStore)?;
    let len = std::fs::metadata(&path)?.len();
    match damage {
        Damage::Truncate => {
            // Cut mid-chunk: drop the 20-byte trailer plus a prefix of
            // the final chunk, leaving a stream that simply stops.
            let cut = len.saturating_sub(37).max(1);
            let file = std::fs::OpenOptions::new().write(true).open(&path)?;
            file.set_len(cut)?;
        }
        Damage::Flip => {
            let mut bytes = std::fs::read(&path)?;
            let mid = bytes.len() / 2;
            if let Some(b) = bytes.get_mut(mid) {
                *b ^= 0xFF;
            }
            std::fs::write(&path, bytes)?;
        }
    }
    Ok(())
}
