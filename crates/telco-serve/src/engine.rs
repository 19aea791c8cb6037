//! The snapshot-native ingest engine: days arrive one at a time, each is
//! folded into a live [`StudyPasses`] composite through the same
//! [`AnalysisPass::merge`] the parallel sweep uses, and every fold is
//! made durable through a staged-write/atomic-commit snapshot protocol
//! so a crashed ingest restarts from its last committed day without
//! replaying history.
//!
//! # Commit protocol (per day `d`, with `k = d` days already committed)
//!
//! 1. Simulate day `d` ([`telco_sim::run_shard`]) and fold its records
//!    into a fresh delta composite.
//! 2. Stage + commit `day-<d>.snap` (the delta's snapshot frame).
//! 3. Merge the delta into the live baseline; stage + commit
//!    `baseline-<d+1>.snap`.
//! 4. Stage + commit `state.json` naming `d+1` committed days — **the**
//!    atomic commit point: every object it references was committed
//!    before it.
//! 5. Garbage-collect the previous baseline and day partials that fell
//!    out of the retention window.
//!
//! A crash anywhere in 1–4 leaves `state.json` at `k`: reopening
//! restores `baseline-<k>.snap` and re-ingests day `k`. The simulation
//! is a pure function of the config and the snapshot codec is
//! deterministic, so the re-run reproduces the interrupted day's bytes
//! exactly and the recovered store converges on the uninterrupted one.
//! Orphaned objects from the crashed attempt (a `day-<k>.snap` or
//! `baseline-<k+1>.snap` that never got a state commit) are deleted on
//! reopen and rewritten identically by the retry.

use std::borrow::Borrow;
use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use telco_analytics::{
    join, restore_pass, snapshot_pass, splits, AnalysisPass, Enriched, StudyPasses, SweepCtx,
    SweepOutputs,
};
use telco_sim::{run_shard, SimConfig, TraceSource, World};
use telco_store::{get_bytes, get_string, put_bytes, ObjectStore};
use telco_trace::snap::SnapError;

use crate::fault;

/// Name of the commit-point object: a small JSON record of how many days
/// are durably folded, plus the config they were folded under.
pub const STATE_OBJECT: &str = "state.json";

/// Default number of trailing per-day partials retained for sliding
/// window queries (the paper's figures use daily and weekly views).
pub const DEFAULT_WINDOW: u32 = 7;

fn day_object(day: u32) -> String {
    format!("day-{day:05}.snap")
}

fn baseline_object(days: u32) -> String {
    format!("baseline-{days:05}.snap")
}

/// Parse `name` as `<prefix><number>.snap`, returning the number.
fn object_number(name: &str, prefix: &str) -> Option<u32> {
    name.strip_prefix(prefix)?.strip_suffix(".snap")?.parse().ok()
}

/// Errors from opening or advancing an ingest.
#[derive(Debug)]
pub enum ServeError {
    /// Store I/O failed.
    Io(std::io::Error),
    /// A persisted snapshot frame was corrupt, truncated, or stale.
    Snap {
        /// The store object the frame was read from.
        object: String,
        /// What was wrong with it.
        error: SnapError,
    },
    /// The state object (or a serialized view) was not valid JSON.
    Json(String),
    /// The trace fold reported a chunk issue (cannot happen for the
    /// in-memory day traces the engine builds, but the sweep API
    /// surfaces it).
    Sweep(String),
    /// The store was written under a different simulation config.
    ConfigMismatch(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "store I/O: {e}"),
            ServeError::Snap { object, error } => {
                write!(f, "snapshot {object}: {error}")?;
                if let SnapError::BadVersion { expected, found } = error {
                    let by = if found < expected { "an older" } else { "a newer" };
                    write!(f, " ({by} build wrote this store; re-ingest into a fresh store)")?;
                }
                Ok(())
            }
            ServeError::Json(e) => write!(f, "state JSON: {e}"),
            ServeError::Sweep(e) => write!(f, "day fold: {e}"),
            ServeError::ConfigMismatch(e) => write!(f, "config mismatch: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

#[derive(Serialize, Deserialize)]
struct ServeState {
    committed_days: u32,
    config: SimConfig,
}

/// What one committed day looked like, for progress reporting.
#[derive(Debug, Clone, Copy)]
pub struct IngestReport {
    /// The study day just folded (0-based).
    pub day: u32,
    /// Handover records that day contributed.
    pub records: u64,
}

/// The immutable, query-ready face of the ingest at one commit point:
/// everything the query front serves is precomputed here, so answering a
/// query never touches the engine (or any lock the fold holds).
#[derive(Debug, Clone, Default)]
pub struct ServedView {
    /// Days durably folded into the baseline.
    pub committed_days: u32,
    /// Days the configured stream will eventually deliver.
    pub total_days: u32,
    /// Records folded so far.
    pub records: u64,
    /// Failed handovers among them.
    pub failures: u64,
    /// Canonical JSON of the full [`SweepOutputs`] over all committed
    /// days — byte-identical to serializing a one-shot batch study of
    /// the same days. `None` until the first day commits.
    pub full: Option<String>,
    /// [`SweepOutputs`] over the most recent committed day only.
    pub last_day: Option<String>,
    /// [`SweepOutputs`] over exactly the last `min(7, committed_days)`
    /// days; `None` when fewer than that are retained.
    pub last_week: Option<String>,
    /// Trailing committed days whose partials the ingest retains: a
    /// window longer than this (and than `committed_days`) is refused.
    pub retained_days: u32,
    /// The full view split by top-level analysis, for `table`/`figure`
    /// queries: `(field name, compact JSON)` in [`SweepOutputs`] field
    /// order.
    pub sections: Vec<(String, String)>,
}

/// The ingest engine: owns the world, the live composite accumulator,
/// the snapshot store, and the retained per-day partials.
pub struct IngestEngine {
    config: SimConfig,
    world: World,
    store: Box<dyn ObjectStore>,
    live: StudyPasses,
    committed_days: u32,
    window: u32,
    /// Trailing per-day partial snapshots, oldest first, at most
    /// `window` entries — the raw material of sliding-window views.
    partials: VecDeque<(u32, Vec<u8>)>,
}

impl IngestEngine {
    /// Open (or create) an ingest over `store`. A store with a committed
    /// state resumes from its last commit point: the baseline snapshot
    /// is restored, retained partials are reloaded, and leftovers from a
    /// crashed attempt are garbage-collected. `window` is the number of
    /// trailing day partials to retain (clamped to ≥ 1).
    pub fn open(
        config: SimConfig,
        store: Box<dyn ObjectStore>,
        window: u32,
    ) -> Result<Self, ServeError> {
        let window = window.max(1);
        let world = World::build(&config);
        let mut committed_days = 0;
        if store.exists(STATE_OBJECT)? {
            let state: ServeState =
                serde_json::from_str(&get_string(store.as_ref(), STATE_OBJECT)?)
                    .map_err(|e| ServeError::Json(e.to_string()))?;
            if state.config != config {
                return Err(ServeError::ConfigMismatch(format!(
                    "store was ingested with seed {} / {} UEs / {} days, asked to continue \
                     with seed {} / {} UEs / {} days",
                    state.config.seed,
                    state.config.n_ues,
                    state.config.n_days,
                    config.seed,
                    config.n_ues,
                    config.n_days,
                )));
            }
            committed_days = state.committed_days;
        }

        let live = if committed_days > 0 {
            let name = baseline_object(committed_days);
            restore_object(&name, &get_bytes(store.as_ref(), &name)?)?
        } else {
            let mut live = StudyPasses::default();
            live.begin(&SweepCtx { world: &world, config: &config });
            live
        };

        let mut partials = VecDeque::new();
        for day in committed_days.saturating_sub(window)..committed_days {
            let name = day_object(day);
            if store.exists(&name)? {
                partials.push_back((day, get_bytes(store.as_ref(), &name)?));
            }
        }

        let engine = IngestEngine { config, world, store, live, committed_days, window, partials };
        engine.gc()?;
        Ok(engine)
    }

    /// The config this ingest runs under.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Days durably committed so far.
    pub fn committed_days(&self) -> u32 {
        self.committed_days
    }

    /// Days the configured stream delivers in total.
    pub fn total_days(&self) -> u32 {
        self.config.n_days
    }

    /// The backing snapshot store.
    pub fn store(&self) -> &dyn ObjectStore {
        self.store.as_ref()
    }

    fn ctx(&self) -> SweepCtx<'_> {
        SweepCtx { world: &self.world, config: &self.config }
    }

    /// Ingest the next pending day through the full commit protocol.
    /// Returns `Ok(None)` once the configured stream is exhausted.
    ///
    /// # Errors
    ///
    /// Store I/O or snapshot-codec failures; the in-memory fold itself
    /// cannot fail.
    pub fn ingest_next_day(&mut self) -> Result<Option<IngestReport>, ServeError> {
        let day = self.committed_days;
        if day >= self.config.n_days {
            return Ok(None);
        }

        // 1. Simulate the day and fold it into a fresh delta composite.
        //    `run_shard` emits exactly the day-`d` slice of the full
        //    study's trace, in trace order, so this fold sequence is a
        //    span sweep's fold with its seams at midnight.
        let mut shard = run_shard(&self.world, &self.config, day..day + 1, 0..self.world.n_ues());
        let records = shard.dataset.len() as u64;
        let trace = TraceSource::in_memory(std::mem::take(&mut shard.dataset));
        let ctx = SweepCtx { world: &self.world, config: &self.config };
        let enriched = Enriched::new(&self.world);
        let mut delta = StudyPasses::default();
        delta.begin(&ctx);
        trace
            .for_each_columns(|batch| delta.record_columns(batch, &enriched))
            .map_err(|issue| ServeError::Sweep(format!("{issue:?}")))?;

        // 2. Commit the day partial.
        let delta_bytes = snapshot_pass(&delta);
        put_bytes(self.store.as_ref(), &day_object(day), &delta_bytes)?;
        fault::maybe_crash("after-partial", day);

        // 3. Fold into the baseline and commit the folded snapshot under
        //    its new day count (never overwriting the one `state.json`
        //    still points at).
        self.live.merge(delta, &ctx);
        put_bytes(self.store.as_ref(), &baseline_object(day + 1), &snapshot_pass(&self.live))?;
        fault::maybe_crash("after-baseline", day);

        // 4. The atomic commit point.
        self.committed_days = day + 1;
        self.partials.push_back((day, delta_bytes));
        while self.partials.len() > self.window as usize {
            self.partials.pop_front();
        }
        self.write_state()?;

        // 5. Drop what the new state no longer references.
        self.gc()?;
        Ok(Some(IngestReport { day, records }))
    }

    fn write_state(&self) -> Result<(), ServeError> {
        let state = ServeState { committed_days: self.committed_days, config: self.config.clone() };
        let json = serde_json::to_string(&state).map_err(|e| ServeError::Json(e.to_string()))?;
        Ok(put_bytes(self.store.as_ref(), STATE_OBJECT, json.as_bytes())?)
    }

    /// Delete every snapshot object the current commit point does not
    /// reference: superseded baselines, partials past the retention
    /// window, and orphans of a crashed uncommitted attempt.
    fn gc(&self) -> Result<(), ServeError> {
        let keep_from = self.committed_days.saturating_sub(self.window);
        for name in self.store.list()? {
            if let Some(days) = object_number(&name, "baseline-") {
                if days != self.committed_days {
                    self.store.delete(&name)?;
                }
            } else if let Some(day) = object_number(&name, "day-") {
                if day < keep_from || day >= self.committed_days {
                    self.store.delete(&name)?;
                }
            }
        }
        Ok(())
    }

    /// Finish [`SweepOutputs`] from the snapshot object `name`: restore it
    /// into a fresh composite and end that. The live accumulator is never
    /// consumed: views are always derived from snapshot bytes, the same
    /// bytes a restart restores, so every view doubles as a self-test of
    /// the codec.
    fn outputs_from(&self, name: &str) -> Result<SweepOutputs, ServeError> {
        let bytes = get_bytes(self.store.as_ref(), name)?;
        Ok(restore_object(name, &bytes)?.end(&self.ctx()))
    }

    /// How many trailing committed days have their partial retained, with
    /// no gap back from the newest.
    fn retained_days(&self) -> u32 {
        let newest_first = (0..self.committed_days).rev();
        self.partials
            .iter()
            .rev()
            .zip(newest_first)
            .take_while(|((day, _), want)| day == want)
            .count() as u32
    }

    /// [`SweepOutputs`] over exactly the last `min(days, committed)`
    /// days, folded from their retained partials: the oldest is restored
    /// and each later one merged into it; `None` when nothing is committed
    /// or fewer of those days are retained.
    fn window_outputs(&self, days: u32) -> Result<Option<SweepOutputs>, ServeError> {
        let days = days.min(self.committed_days);
        if days == 0 || days > self.retained_days() {
            return Ok(None);
        }
        let ctx = self.ctx();
        let mut window = self
            .partials
            .iter()
            .skip(self.partials.len() - days as usize)
            .map(|(day, bytes)| restore_object(&day_object(*day), bytes));
        let Some(oldest) = window.next() else { return Ok(None) };
        let mut acc = oldest?;
        for partial in window {
            acc.merge(partial?, &ctx);
        }
        Ok(Some(acc.end(&ctx)))
    }

    /// Build the query-ready view of the current commit point. Called by
    /// the ingest loop after each committed day — queries only ever read
    /// a previously built view, so their staleness is bounded by one
    /// day-fold and they never contend with it.
    ///
    /// The full view is restored from the baseline snapshot the day just
    /// committed, read back through the store. Every view is serialized
    /// the same way: each top-level analysis into its section, above one
    /// sweep thread in two groups at once (`sections_of`), and the
    /// view's JSON assembled from the sections. The full view keeps its
    /// sections for section queries.
    pub fn build_view(&self) -> Result<ServedView, ServeError> {
        let mut view = ServedView {
            committed_days: self.committed_days,
            total_days: self.config.n_days,
            retained_days: self.retained_days(),
            ..ServedView::default()
        };
        if self.committed_days == 0 {
            return Ok(view);
        }
        let parallel = splits(&self.ctx());
        {
            // Scoped, so the restored study is freed before the window
            // folds build theirs.
            let outputs = self.outputs_from(&baseline_object(self.committed_days))?;
            view.records = outputs.trace_counts.records;
            view.failures = outputs.trace_counts.failures;
            view.sections = sections_of(&outputs, parallel)?;
        }
        view.full = Some(join_sections(view.sections.iter().collect()));
        let window_json = |days| -> Result<Option<String>, ServeError> {
            let Some(outputs) = self.window_outputs(days)? else { return Ok(None) };
            let sections = sections_of(&outputs, parallel)?;
            drop(outputs);
            Ok(Some(join_sections(sections)))
        };
        view.last_day = window_json(1)?;
        view.last_week = window_json(7)?;
        Ok(view)
    }
}

/// Restore a composite from the bytes of the snapshot object `name`; an
/// error names the object.
fn restore_object(name: &str, bytes: &[u8]) -> Result<StudyPasses, ServeError> {
    let mut passes = StudyPasses::default();
    restore_pass(&mut passes, bytes)
        .map_err(|error| ServeError::Snap { object: name.to_string(), error })?;
    Ok(passes)
}

fn to_json<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, ServeError> {
    serde_json::to_string(value).map_err(|e| ServeError::Json(e.to_string()))
}

/// Split a [`SweepOutputs`] into `(top-level field, compact JSON)` pairs,
/// in declaration order: the one path every served view's JSON takes.
///
/// When `parallel`, the daily sector frame is written on a scoped worker
/// while this thread writes the other thirteen sections. The two sector
/// frames are most of the bytes (small preset: 30 of 38 MB), integers
/// and enum names; the other twelve sections write in about a
/// millisecond, so the full-period frame (a quarter of the daily frame's
/// time) goes with them and the two groups take about as long. At one
/// thread all fourteen are written here, in declaration order, and
/// nothing spawns.
fn sections_of(o: &SweepOutputs, parallel: bool) -> Result<Vec<(String, String)>, ServeError> {
    macro_rules! sections {
        ($($field:ident),* $(,)?) => {
            || -> Result<Vec<(String, String)>, ServeError> {
                Ok(vec![$((stringify!($field).to_string(), to_json(&o.$field)?)),*])
            }
        };
    }
    let head = sections!(
        trace_counts,
        ho_types,
        durations,
        district_distribution,
        population_inference,
        ho_density,
        temporal_evolution,
        manufacturer_impact,
        hof_patterns,
        causes,
        pingpong,
        vendor_analysis,
    );
    let frame = sections!(frame);
    let period_frame = sections!(period_frame);
    let (head, frame, period_frame) = if parallel {
        let (frame, (head, period_frame)) = join(true, frame, || (head(), period_frame()));
        (head, frame, period_frame)
    } else {
        (head(), frame(), period_frame())
    };
    let mut sections = head?;
    sections.extend(frame?);
    sections.extend(period_frame?);
    Ok(sections)
}

/// The compact JSON object with `sections` as its members, in order: what
/// serializing the whole [`SweepOutputs`] writes, without writing it again.
/// Sections passed by value are freed as soon as they are copied in.
fn join_sections<S: Borrow<(String, String)>>(sections: Vec<S>) -> String {
    let len: usize = sections
        .iter()
        .map(|section| {
            let (name, json) = section.borrow();
            name.len() + json.len() + 4
        })
        .sum();
    let mut full = String::with_capacity(len + 1);
    for section in sections {
        let (name, json) = section.borrow();
        full.push(if full.is_empty() { '{' } else { ',' });
        full.push('"');
        full.push_str(name);
        full.push_str("\":");
        full.push_str(json);
    }
    full.push('}');
    full
}

#[cfg(test)]
mod tests {
    use super::*;
    use telco_store::DirStore;
    use telco_trace::snap::{decode_frame, encode_frame};

    fn temp_store(tag: &str) -> Box<dyn ObjectStore> {
        let dir = std::env::temp_dir().join(format!("telco_serve_engine_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        Box::new(DirStore::create(dir).unwrap())
    }

    fn test_config() -> SimConfig {
        let mut cfg = SimConfig::tiny();
        cfg.n_ues = 120;
        cfg.n_days = 3;
        cfg
    }

    #[test]
    fn ingest_commits_and_exhausts() {
        let mut engine = IngestEngine::open(test_config(), temp_store("basic"), 7).unwrap();
        let mut total = 0;
        while let Some(report) = engine.ingest_next_day().unwrap() {
            assert_eq!(report.day + 1, engine.committed_days());
            assert!(report.records > 0);
            total += report.records;
        }
        assert_eq!(engine.committed_days(), 3);
        let view = engine.build_view().unwrap();
        assert_eq!(view.records, total);
        assert!(view.full.is_some() && view.last_day.is_some() && view.last_week.is_some());
        // The store holds exactly one baseline, the retained partials,
        // and the state object.
        let names = engine.store().list().unwrap();
        assert!(names.contains(&"baseline-00003.snap".to_string()), "{names:?}");
        assert!(!names.contains(&"baseline-00002.snap".to_string()), "{names:?}");
    }

    #[test]
    fn window_retention_gcs_old_partials() {
        let mut engine = IngestEngine::open(test_config(), temp_store("window"), 1).unwrap();
        while engine.ingest_next_day().unwrap().is_some() {}
        let names = engine.store().list().unwrap();
        assert!(names.contains(&"day-00002.snap".to_string()), "{names:?}");
        assert!(!names.contains(&"day-00000.snap".to_string()), "{names:?}");
        assert!(!names.contains(&"day-00001.snap".to_string()), "{names:?}");
    }

    #[test]
    fn reopen_resumes_from_commit_point() {
        let dir = std::env::temp_dir().join("telco_serve_engine_resume");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = test_config();
        let mut first =
            IngestEngine::open(cfg.clone(), Box::new(DirStore::create(&dir).unwrap()), 7).unwrap();
        first.ingest_next_day().unwrap().unwrap();
        drop(first);
        let mut second =
            IngestEngine::open(cfg, Box::new(DirStore::open(&dir).unwrap()), 7).unwrap();
        assert_eq!(second.committed_days(), 1);
        assert_eq!(second.ingest_next_day().unwrap().unwrap().day, 1);
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let dir = std::env::temp_dir().join("telco_serve_engine_mismatch");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = test_config();
        let mut engine =
            IngestEngine::open(cfg.clone(), Box::new(DirStore::create(&dir).unwrap()), 7).unwrap();
        engine.ingest_next_day().unwrap();
        drop(engine);
        let mut other = cfg;
        other.seed ^= 1;
        let err = IngestEngine::open(other, Box::new(DirStore::open(&dir).unwrap()), 7)
            .err()
            .expect("mismatched config must not resume");
        assert!(matches!(err, ServeError::ConfigMismatch(_)), "{err}");
    }

    #[test]
    fn a_baseline_with_a_hostile_length_is_refused_at_open() {
        let dir = std::env::temp_dir().join("telco_serve_engine_hostile");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = test_config();
        let mut engine =
            IngestEngine::open(cfg.clone(), Box::new(DirStore::create(&dir).unwrap()), 7).unwrap();
        engine.ingest_next_day().unwrap();
        drop(engine);
        // A CRC-clean baseline whose first analysis claims 2^40 days.
        let mut hostile = telco_trace::snap::SnapWriter::new();
        hostile.put_varint(1 << 40);
        let mut composite = telco_trace::snap::SnapWriter::new();
        composite.put_bytes(&encode_frame(
            <telco_analytics::HoTypePass as AnalysisPass>::SNAPSHOT_VERSION,
            &hostile.into_bytes(),
        ));
        let store = DirStore::open(&dir).unwrap();
        let name = baseline_object(1);
        let framed = encode_frame(StudyPasses::SNAPSHOT_VERSION, &composite.into_bytes());
        put_bytes(&store, &name, &framed).unwrap();
        let err = IngestEngine::open(cfg, Box::new(store), 7)
            .err()
            .expect("a hostile baseline must not restore");
        assert!(
            matches!(&err, ServeError::Snap { object, error: SnapError::Truncated } if *object == name),
            "{err}"
        );
    }

    #[test]
    fn stale_baseline_is_refused_by_name() {
        let dir = std::env::temp_dir().join("telco_serve_engine_stale");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = test_config();
        let mut engine =
            IngestEngine::open(cfg.clone(), Box::new(DirStore::create(&dir).unwrap()), 7).unwrap();
        engine.ingest_next_day().unwrap();
        drop(engine);
        // Re-frame the committed baseline as the previous build's version
        // 3, whose duration samples were raw floats.
        let store = DirStore::open(&dir).unwrap();
        let name = baseline_object(1);
        let bytes = get_bytes(&store, &name).unwrap();
        let payload = decode_frame(StudyPasses::SNAPSHOT_VERSION, &bytes).unwrap();
        put_bytes(&store, &name, &encode_frame(3, payload)).unwrap();
        let err = IngestEngine::open(cfg, Box::new(store), 7)
            .err()
            .expect("a version-3 baseline must not restore");
        assert!(
            matches!(
                &err,
                ServeError::Snap { object, error: SnapError::BadVersion { expected: 4, found: 3 } }
                    if *object == name
            ),
            "{err}"
        );
        let message = err.to_string();
        assert!(message.contains("baseline-00001.snap") && message.contains("older"), "{message}");
    }

    #[test]
    fn corrupt_day_partial_fails_the_view_by_name() {
        let dir = std::env::temp_dir().join("telco_serve_engine_corrupt_partial");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = test_config();
        let mut engine =
            IngestEngine::open(cfg.clone(), Box::new(DirStore::create(&dir).unwrap()), 7).unwrap();
        engine.ingest_next_day().unwrap();
        engine.ingest_next_day().unwrap();
        drop(engine);
        // Flip one payload byte of the newest retained partial; reopening
        // reloads it without decoding, so the window fold meets it.
        let store = DirStore::open(&dir).unwrap();
        let name = day_object(1);
        let mut bytes = get_bytes(&store, &name).unwrap();
        bytes[20] ^= 0x01;
        put_bytes(&store, &name, &bytes).unwrap();
        let engine = IngestEngine::open(cfg, Box::new(store), 7).unwrap();
        let err = engine.build_view().expect_err("a corrupt partial must fail the view");
        assert!(
            matches!(&err, ServeError::Snap { object, error: SnapError::BadCrc } if *object == name),
            "{err}"
        );
        assert!(err.to_string().contains("day-00001.snap"), "{err}");
    }
}
