//! Where a study's handover records live: the [`TraceSource`]
//! abstraction over an in-memory [`SignalingDataset`] and a spilled
//! trace file on disk.
//!
//! Every analysis traversal goes through this type, which instruments
//! the two contracts the analytics layer is built on:
//!
//! - **one shared sweep** — [`TraceSource::sweeps`] counts record
//!   traversals, so tests can assert that a full study scans the trace
//!   once instead of once per analysis;
//! - **bounded memory on the spilled path** — [`TraceSource::for_each_chunk`]
//!   streams a spilled trace chunk-by-chunk through a reused buffer and
//!   never materializes a full-trace `Vec<HoRecord>`.
//!
//! A parallel traversal cuts the trace into contiguous [`Span`]s
//! ([`TraceSource::spans`]) and sweeps each on its own worker
//! ([`TraceSource::for_each_columns_in`]).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::columnar::{decode_columns, ColumnBatch};
use crate::dataset::SignalingDataset;
use crate::io::CodecError;
use crate::record::HoRecord;
use crate::store::{ChunkIssue, TraceReader};

/// Records per column batch when transposing an in-memory dataset for
/// the columnar sweep: large enough to amortize the per-batch pass
/// fan-out, small enough that a batch's hot columns stay cache-resident
/// while ~15 passes scan it (~31 B/record across all columns → ~500 KiB
/// per batch).
pub const COLUMN_BATCH_RECORDS: usize = 1 << 14;

/// A sealed trace file on disk, with the span and record count its
/// trailer declared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpilledTrace {
    /// The trace file.
    pub path: PathBuf,
    /// Study-day span of the trace.
    pub days: u32,
    /// Total records in the trace.
    pub records: u64,
}

/// A contiguous run of a trace, by offset among its healthy records: the
/// records at offsets `start..end`. On a spilled trace the unit is the
/// chunk — a chunk belongs to the span that holds its first record's
/// offset — so a span's edges snap to chunk boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Offset of the span's first record.
    pub start: u64,
    /// Offset one past the span's last record; [`u64::MAX`] leaves the
    /// span open-ended.
    pub end: u64,
}

impl Span {
    /// The whole trace.
    pub const ALL: Span = Span { start: 0, end: u64::MAX };
}

#[derive(Debug)]
enum SourceKind {
    InMemory(SignalingDataset),
    Spilled(SpilledTrace),
}

/// The record store behind a study: either the in-memory dataset the
/// runner produced, or a spilled trace streamed from disk. Carries a
/// traversal counter so the "one shared sweep" contract is testable.
#[derive(Debug)]
pub struct TraceSource {
    kind: SourceKind,
    sweeps: AtomicU64,
    /// Column batches served by the fast path ([`TraceSource::for_each_columns`]
    /// and [`TraceSource::for_each_columns_in`]) — lets tests and the
    /// benchmark assert the columnar path was exercised rather than
    /// silently falling back to rows.
    column_batches: AtomicU64,
}

// telco-lint: audited-atomics(begin): `sweeps` and `column_batches` are monotonic instrumentation counters —
// nothing synchronizes through them. Relaxed RMWs on a single location are totally ordered, and the tests
// that assert on the totals read them after every traversal thread has joined (a happens-before edge the
// join itself provides), so no stronger ordering would change any observable count.
impl Clone for TraceSource {
    fn clone(&self) -> Self {
        TraceSource {
            kind: match &self.kind {
                SourceKind::InMemory(d) => SourceKind::InMemory(d.clone()),
                SourceKind::Spilled(s) => SourceKind::Spilled(s.clone()),
            },
            sweeps: AtomicU64::new(self.sweeps.load(Ordering::Relaxed)),
            column_batches: AtomicU64::new(self.column_batches.load(Ordering::Relaxed)),
        }
    }
}

impl TraceSource {
    /// A source serving records from memory.
    pub fn in_memory(dataset: SignalingDataset) -> Self {
        TraceSource {
            kind: SourceKind::InMemory(dataset),
            sweeps: AtomicU64::new(0),
            column_batches: AtomicU64::new(0),
        }
    }

    /// A source streaming records from a sealed trace file.
    pub fn spilled(path: impl Into<PathBuf>, days: u32, records: u64) -> Self {
        TraceSource {
            kind: SourceKind::Spilled(SpilledTrace { path: path.into(), days, records }),
            sweeps: AtomicU64::new(0),
            column_batches: AtomicU64::new(0),
        }
    }

    /// Study-day span of the trace.
    pub fn days(&self) -> u32 {
        match &self.kind {
            SourceKind::InMemory(d) => d.days,
            SourceKind::Spilled(s) => s.days,
        }
    }

    /// Total records (for a spilled source, the count its trailer sealed).
    pub fn len(&self) -> u64 {
        match &self.kind {
            SourceKind::InMemory(d) => d.len() as u64,
            SourceKind::Spilled(s) => s.records,
        }
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether records live on disk rather than in memory.
    pub fn is_spilled(&self) -> bool {
        matches!(self.kind, SourceKind::Spilled(_))
    }

    /// The in-memory dataset, if this source holds one.
    pub fn as_dataset(&self) -> Option<&SignalingDataset> {
        match &self.kind {
            SourceKind::InMemory(d) => Some(d),
            SourceKind::Spilled(_) => None,
        }
    }

    /// Average records per day.
    pub fn daily_mean(&self) -> f64 {
        let days = self.days();
        if days == 0 {
            return 0.0;
        }
        self.len() as f64 / days as f64
    }

    /// How many record traversals this source has served — the number
    /// the scan-count regression asserts on.
    pub fn sweeps(&self) -> u64 {
        self.sweeps.load(Ordering::Relaxed)
    }

    /// How many column batches the fast path has served (0 means every
    /// traversal went through materialized rows).
    pub fn column_batches(&self) -> u64 {
        self.column_batches.load(Ordering::Relaxed)
    }

    /// Record one traversal made of [`TraceSource::for_each_columns_in`]
    /// calls, which do not count themselves: a sweep over many spans is
    /// still one traversal.
    pub fn note_sweep(&self) {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
    }

    /// Traverse the trace once, in timestamp order, handing `f` one
    /// decoded [`ColumnBatch`] at a time — the native input of the
    /// columnar analysis sweep. A spilled source decodes straight into
    /// the batch (no per-record row construction); an in-memory source
    /// transposes fixed-size record windows through one reused batch.
    /// Error semantics match [`TraceSource::for_each_chunk`]: damaged
    /// chunks are skipped, I/O failure aborts.
    pub fn for_each_columns(&self, f: impl FnMut(&ColumnBatch)) -> Result<(), ChunkIssue> {
        self.note_sweep();
        self.for_each_columns_in(Span::ALL, f)
    }

    /// Cut the trace into `n` (at least one) contiguous spans balanced by
    /// record count, in trace order. The last span is open-ended, so the
    /// spans cover every healthy record whatever count a spilled trace
    /// sealed.
    pub fn spans(&self, n: usize) -> Vec<Span> {
        let n = n.max(1) as u64;
        let total = u128::from(self.len());
        // `total * k / n` never exceeds `total`, so narrowing is lossless.
        let cut = |k: u64| (total * u128::from(k) / u128::from(n)) as u64;
        (0..n)
            .map(|k| Span { start: cut(k), end: if k + 1 == n { u64::MAX } else { cut(k + 1) } })
            .collect()
    }

    /// Traverse one [`Span`] in timestamp order, handing `f` one decoded
    /// [`ColumnBatch`] at a time like [`TraceSource::for_each_columns`],
    /// but without counting a sweep ([`TraceSource::note_sweep`]). An
    /// in-memory source transposes the span's records in fixed-size
    /// windows. A spilled source opens its own reader and walks the file
    /// from the start: frames before the span are CRC-checked but not
    /// decoded, so every span meets the same damage, resyncs and sequence
    /// checks as a whole-trace read, and the spans of
    /// [`TraceSource::spans`] tile the healthy chunks exactly. Damaged
    /// chunks are skipped, I/O failure aborts.
    pub fn for_each_columns_in(
        &self,
        span: Span,
        mut f: impl FnMut(&ColumnBatch),
    ) -> Result<(), ChunkIssue> {
        let mut batch = ColumnBatch::new();
        let mut batches = 0u64;
        let result = match &self.kind {
            SourceKind::InMemory(d) => {
                let records = d.records();
                let at = |offset: u64| {
                    usize::try_from(offset).map_or(records.len(), |o| o.min(records.len()))
                };
                let span_records = records.get(at(span.start)..at(span.end)).unwrap_or(&[]);
                // telco-lint: deny-panic(begin)
                for window in span_records.chunks(COLUMN_BATCH_RECORDS) {
                    batch.clear();
                    batch.extend_from_rows(window);
                    batches += 1;
                    f(&batch);
                }
                // telco-lint: deny-panic(end)
                Ok(())
            }
            SourceKind::Spilled(s) => {
                let open = |e| ChunkIssue { chunk: 0, offset: 0, error: e };
                let mut reader = TraceReader::open(&s.path).map_err(open)?;
                let mut payload = Vec::new();
                // Offset of the next healthy chunk's first record: the key
                // every span's reader computes identically.
                let mut offset = 0u64;
                // telco-lint: deny-panic(begin)
                loop {
                    if offset >= span.end {
                        break Ok(());
                    }
                    match reader.next_chunk_raw(&mut payload) {
                        None => break Ok(()),
                        Some(Ok(raw)) => {
                            let first = offset;
                            offset += u64::from(raw.count);
                            if first >= span.start
                                && decode_columns(&payload, raw.count as usize, &mut batch).is_ok()
                            {
                                batches += 1;
                                f(&batch);
                            }
                        }
                        // Skip-and-report recovery: corruption already
                        // cost exactly one chunk; an I/O error means the
                        // medium itself failed, so abort.
                        Some(Err(issue)) if matches!(issue.error, CodecError::Io(_)) => {
                            break Err(issue)
                        }
                        Some(Err(_)) => {}
                    }
                }
                // telco-lint: deny-panic(end)
            }
        };
        self.column_batches.fetch_add(batches, Ordering::Relaxed);
        result
    }

    /// Traverse the trace once, in timestamp order, handing `f` one
    /// decoded chunk at a time. An in-memory source yields its records
    /// as one borrowed slice; a spilled source streams chunk-by-chunk
    /// through a reused buffer with bounded memory. Damaged chunks in a
    /// spilled trace are skipped (already recorded by the writer-side
    /// checks); only an underlying I/O failure aborts the traversal.
    pub fn for_each_chunk(&self, mut f: impl FnMut(&[HoRecord])) -> Result<(), ChunkIssue> {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        match &self.kind {
            SourceKind::InMemory(d) => {
                f(d.records());
                Ok(())
            }
            SourceKind::Spilled(s) => {
                let open = |e| ChunkIssue { chunk: 0, offset: 0, error: e };
                let mut reader = TraceReader::open(&s.path).map_err(open)?;
                let mut buf: Vec<HoRecord> = Vec::new();
                while let Some(chunk) = reader.next_chunk_into(&mut buf) {
                    match chunk {
                        Ok(()) => f(&buf),
                        // Skip-and-report recovery: corruption already
                        // cost exactly one chunk; an I/O error means the
                        // medium itself failed, so abort.
                        Err(issue) if matches!(issue.error, CodecError::Io(_)) => {
                            return Err(issue)
                        }
                        Err(_) => {}
                    }
                }
                Ok(())
            }
        }
    }
}
// telco-lint: audited-atomics(end)

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::HoOutcome;
    use crate::store::{write_file_v3, TraceWriter};
    use telco_devices::population::UeId;
    use telco_topology::elements::SectorId;
    use telco_topology::rat::Rat;

    fn rec(ts: u64, ue: u32) -> HoRecord {
        HoRecord {
            timestamp_ms: ts,
            ue: UeId(ue),
            source_sector: SectorId(1),
            target_sector: SectorId(2),
            source_rat: Rat::G4,
            target_rat: Rat::G4,
            outcome: HoOutcome::Success,
            cause: None,
            duration_ms: 50,
            srvcc: false,
            messages: 12,
        }
    }

    fn sample(days: u32, n: u64) -> SignalingDataset {
        let records =
            (0..n).map(|i| rec(i * 7_000_000 % (days as u64 * 86_400_000), i as u32)).collect();
        SignalingDataset::from_records(days, records)
    }

    #[test]
    fn in_memory_chunks_cover_everything_and_count_sweeps() {
        let d = sample(2, 100);
        let src = TraceSource::in_memory(d.clone());
        assert_eq!(src.sweeps(), 0);
        let mut seen = 0u64;
        src.for_each_chunk(|recs| seen += recs.len() as u64).unwrap();
        assert_eq!(seen, 100);
        assert_eq!(src.sweeps(), 1);
        assert_eq!(src.len(), 100);
        assert_eq!(src.days(), 2);
        assert!(!src.is_spilled());
        assert_eq!(src.as_dataset(), Some(&d));
    }

    #[test]
    fn spilled_chunks_match_in_memory() {
        let d = sample(3, 500);
        let dir = std::env::temp_dir().join("telco_source_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.tlho");
        write_file_v3(&d, &path).unwrap();
        let src = TraceSource::spilled(&path, 3, d.len() as u64);
        assert!(src.is_spilled());
        assert_eq!(src.len(), d.len() as u64);
        let mut streamed = Vec::new();
        src.for_each_chunk(|recs| streamed.extend_from_slice(recs)).unwrap();
        assert_eq!(&streamed[..], d.records());
        assert_eq!(src.sweeps(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spans_tile_the_trace() {
        let d = sample(3, 40_000);
        let dir = std::env::temp_dir().join("telco_source_spans_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.tlho");
        let mut writer = TraceWriter::create(&path, 3).unwrap();
        for chunk in d.records().chunks(1_000) {
            writer.write_chunk(chunk).unwrap();
        }
        writer.finish().unwrap();

        for src in
            [TraceSource::in_memory(d.clone()), TraceSource::spilled(&path, 3, d.len() as u64)]
        {
            for n in [1, 2, 3, 7] {
                let spans = src.spans(n);
                assert_eq!(spans.len(), n);
                let mut streamed = Vec::new();
                for &span in &spans {
                    src.for_each_columns_in(span, |batch| streamed.extend(batch.rows())).unwrap();
                }
                assert_eq!(&streamed[..], d.records(), "{n} span(s)");
            }
            assert_eq!(src.sweeps(), 0, "a span is not a sweep");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unopenable_spilled_trace_reports_the_open_error() {
        let path = std::env::temp_dir().join("telco_source_no_such_trace.tlho");
        let _ = std::fs::remove_file(&path);
        let src = TraceSource::spilled(&path, 3, 1_000);
        assert_eq!(src.spans(2).len(), 2, "spans are cut from the sealed count alone");
        let issue = src.for_each_columns_in(src.spans(2)[0], |_| {}).unwrap_err();
        assert_eq!(issue.error, CodecError::Io(std::io::ErrorKind::NotFound));
    }

    #[test]
    fn clone_preserves_counter_value() {
        let src = TraceSource::in_memory(sample(1, 10));
        src.for_each_chunk(|_| {}).unwrap();
        let cloned = src.clone();
        assert_eq!(cloned.sweeps(), 1);
    }

    #[test]
    fn column_traversal_matches_rows_in_memory_and_spilled() {
        let d = sample(3, 40_000); // > COLUMN_BATCH_RECORDS → several batches
        let dir = std::env::temp_dir().join("telco_source_columns_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.tlho");
        crate::store::write_file_v3(&d, &path).unwrap();

        for src in
            [TraceSource::in_memory(d.clone()), TraceSource::spilled(&path, 3, d.len() as u64)]
        {
            assert_eq!(src.column_batches(), 0);
            let mut streamed = Vec::new();
            src.for_each_columns(|batch| streamed.extend(batch.rows())).unwrap();
            assert_eq!(&streamed[..], d.records());
            assert_eq!(src.sweeps(), 1);
            assert!(src.column_batches() > 0, "fast-path counter must tick");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn note_sweep_counts_one_traversal() {
        let src = TraceSource::in_memory(sample(1, 10));
        src.note_sweep();
        assert_eq!(src.sweeps(), 1);
        assert_eq!(src.column_batches(), 0);
    }
}
