// telco-lint: deny-nondeterminism
//! The single-sweep streaming analysis engine.
//!
//! Every record-scanning analysis is an [`AnalysisPass`]: an accumulator
//! with `begin → record* → end` lifecycle plus a deterministic `merge`
//! for partitioned parallel sweeps. The [`Sweep`] driver runs any pass
//! (or a composite of many) in **one** shared traversal of the study's
//! [`telco_sim::TraceSource`], feeding it [`ColumnBatch`]es — the native
//! decode target of the v3 columnar trace format — so the hot passes
//! scan struct-of-arrays column slices instead of dispatching per row.
//!
//! # Execution
//!
//! One driver serves every source and thread count. It cuts the trace
//! into `threads` contiguous spans balanced by record count
//! ([`TraceSource::spans`](telco_sim::TraceSource::spans)), folds each
//! span into **one** accumulator on its own worker, merges the partials
//! in span order, and calls `end` once. A one-span sweep runs on the
//! calling thread, so the sequential sweep is the same code. Above one
//! thread, the study composite ([`crate::StudyPasses`]) also splits its
//! own `merge` and `end` across two threads.
//!
//! - **In-memory** sources split by record index; each worker transposes
//!   its span window-by-window through its own batch.
//! - **Spilled** sources split at chunk granularity: each worker opens
//!   its own reader and walks the file from the start, CRC-checking the
//!   frames before its span without decoding them and decoding the
//!   chunks inside it. Every reader meets the same damage, resyncs and
//!   sequence checks as a sequential read, so the spans tile the healthy
//!   chunks exactly. The prefix walks cost CPU, not wall-clock: they run
//!   while the earlier spans are swept.
//!
//! # Determinism of the span merge
//!
//! Span boundaries depend only on the sealed record count and the thread
//! count, and the partials fold in span order, so which worker finished
//! first can never reach the merge sequence. Pass authors keep the fold
//! exact by obeying the [`AnalysisPass::merge`] contract: accumulate only
//! order-robust state during `record` (integer counters, integer-valued
//! `f64` sums — exact under regrouping below 2^53 — set unions, and
//! sample vectors concatenated in trace order) and defer every
//! order-sensitive computation (ratios, sorts, ECDFs, world joins) to
//! `end`. Seams fall at arbitrary record (or chunk) boundaries and move
//! with the thread count, and every shipped pass is exact at any split
//! point: the only boundary-sensitive accumulator (ping-pong chain
//! stitching) keeps explicit first/last edge state precisely so its
//! merge is exact wherever the seam lands.

use telco_sim::{SimConfig, StudyData, World};
use telco_trace::columnar::ColumnBatch;
use telco_trace::record::HoRecord;
use telco_trace::snap::{decode_frame, encode_frame, SnapError, SnapReader, SnapWriter};
use telco_trace::source::Span;
use telco_trace::store::ChunkIssue;

use crate::frame::{DerivedPass, Enriched, FromDailyFrame, SectorDayFrame};

/// Shared context handed to every pass hook: the world for joins and the
/// config for scale parameters. Never carries the trace — records only
/// flow through [`AnalysisPass::record`].
pub struct SweepCtx<'a> {
    /// The simulated world (topology, census, device catalog).
    pub world: &'a World,
    /// The study configuration.
    pub config: &'a SimConfig,
}

/// A streaming analysis: an accumulator over one trace traversal.
///
/// Lifecycle: `begin(ctx)` once, `record(r, e)` per handover record in
/// timestamp order, `end(ctx)` once to produce the output. A parallel
/// sweep runs one instance per span of the trace and folds them in span
/// order with `merge`.
pub trait AnalysisPass {
    /// The finished analysis this pass produces.
    type Output;

    /// Reset and size the accumulator. Called once before any records;
    /// allocate only empty per-record state here — world-derived
    /// contributions belong in [`AnalysisPass::end`] so partition merges
    /// stay purely additive.
    fn begin(&mut self, _ctx: &SweepCtx) {}

    /// Fold one handover record into the accumulator.
    fn record(&mut self, r: &HoRecord, e: &Enriched);

    /// Fold a decoded column batch — what the driver feeds. Overriding it
    /// with tight scans over the column slices the pass needs (and
    /// nothing else) is the columnar fast path. The default materializes
    /// each row through [`ColumnBatch::rows`] and loops
    /// [`AnalysisPass::record`]; overrides must be record-for-record
    /// equivalent to that loop.
    #[inline]
    // telco-lint: deny-alloc(begin)
    fn record_columns(&mut self, batch: &ColumnBatch, e: &Enriched) {
        for r in batch.rows() {
            self.record(&r, e);
        }
    }
    // telco-lint: deny-alloc(end)

    /// Fold another instance of this pass into `self`. `other` saw a
    /// later, disjoint span of the trace (the driver merges in span
    /// order). The fold must be deterministic: the result may depend on
    /// which records each side saw, never on hash-iteration or thread
    /// order.
    fn merge(&mut self, other: Self, ctx: &SweepCtx)
    where
        Self: Sized;

    /// Finish the analysis: ratios, sorts, ECDFs, and world joins.
    fn end(self, ctx: &SweepCtx) -> Self::Output;

    /// Version tag of this pass's snapshot encoding. Bump it whenever
    /// the byte layout written by [`AnalysisPass::snapshot`] changes so
    /// stale persisted state fails loudly instead of restoring garbage.
    const SNAPSHOT_VERSION: u16;

    /// Serialize the accumulator state into `w`.
    ///
    /// The encoding must be **deterministic** (two accumulators holding
    /// the same logical state produce identical bytes — sort any
    /// hash-ordered collection before encoding) and **self-sufficient**:
    /// it captures sizes and construction parameters, so restoring into
    /// a default-constructed instance rebuilds this one exactly.
    fn snapshot(&self, w: &mut SnapWriter);

    /// Overwrite the accumulator from bytes written by
    /// [`AnalysisPass::snapshot`]. After a successful restore the pass
    /// behaves exactly as the snapshotted one: it can keep recording,
    /// [`AnalysisPass::merge`] deltas, and [`AnalysisPass::end`].
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] when the payload is truncated or malformed.
    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError>;
}

/// Snapshot a pass into a self-describing frame: magic, the pass's
/// [`AnalysisPass::SNAPSHOT_VERSION`], the payload, and a CRC-32 over
/// both (see [`telco_trace::snap`]).
pub fn snapshot_pass<P: AnalysisPass>(pass: &P) -> Vec<u8> {
    let mut w = SnapWriter::new();
    pass.snapshot(&mut w);
    encode_frame(P::SNAPSHOT_VERSION, &w.into_bytes())
}

/// Restore a pass from a frame written by [`snapshot_pass`], verifying
/// magic, version, CRC, and full payload consumption.
///
/// # Errors
///
/// Any [`SnapError`]: corrupted or truncated frames, a version other
/// than the pass's current one, or undecoded trailing payload bytes.
pub fn restore_pass<P: AnalysisPass>(pass: &mut P, bytes: &[u8]) -> Result<(), SnapError> {
    let payload = decode_frame(P::SNAPSHOT_VERSION, bytes)?;
    let mut r = SnapReader::new(payload);
    pass.restore(&mut r)?;
    r.finish()
}

/// The sweep driver: one shared traversal of a study's trace feeding any
/// pass, cut into one span per configured thread.
pub struct Sweep<'a> {
    data: &'a StudyData,
}

impl<'a> Sweep<'a> {
    /// A sweep over the study's trace.
    pub fn new(data: &'a StudyData) -> Self {
        Sweep { data }
    }

    /// Run one pass (or composite) in a single trace traversal. `make`
    /// builds one accumulator per span, so at most `threads` per run.
    ///
    /// # Errors
    ///
    /// Fails only when a spilled trace hits an underlying I/O error;
    /// damaged chunks are skipped (skip-and-report, as everywhere else in
    /// the trace layer).
    pub fn run<P, F>(&self, make: F) -> Result<P::Output, ChunkIssue>
    where
        P: AnalysisPass + Send,
        F: Fn() -> P + Sync,
    {
        let ctx = SweepCtx { world: &self.data.world, config: &self.data.config };
        let trace = &self.data.trace;
        let enriched = Enriched::new(ctx.world);
        let spans = trace.spans(resolve_threads(&self.data.config));
        trace.note_sweep();
        let sweep_span = |span: Span| -> Result<P, ChunkIssue> {
            let mut pass = make();
            pass.begin(&ctx);
            // telco-lint: deny-panic(begin)
            trace.for_each_columns_in(span, |batch| pass.record_columns(batch, &enriched))?;
            // telco-lint: deny-panic(end)
            Ok(pass)
        };
        let partials: Vec<Result<P, ChunkIssue>> = match spans.as_slice() {
            [span] => vec![sweep_span(*span)],
            _ => std::thread::scope(|scope| {
                let sweep_span = &sweep_span;
                let workers: Vec<_> =
                    spans.iter().map(|&span| scope.spawn(move || sweep_span(span))).collect();
                workers.into_iter().map(|w| w.join().expect("sweep worker panicked")).collect()
            }),
        };

        // telco-lint: deny-nondeterminism(begin)
        // Fold the partials in span order, so the merge sequence replays
        // the trace order whichever worker finished first; the first I/O
        // failure in trace order wins.
        let mut partials = partials.into_iter();
        let mut folded = partials.next().expect("spans() yields at least one span")?;
        for partial in partials {
            folded.merge(partial?, &ctx);
        }
        // telco-lint: deny-nondeterminism(end)
        Ok(folded.end(&ctx))
    }
}

/// The sweep's thread count: `config.threads`, or the available
/// parallelism when it is 0.
pub(crate) fn resolve_threads(config: &SimConfig) -> usize {
    if config.threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        config.threads
    }
}

/// Whole-trace counters every summary needs: record totals per handover
/// type and the failure count. Replaces the `SignalingDataset` accessors
/// (`len`, `counts_by_type`, `hof_rate`) for studies whose trace may live
/// on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize)]
pub struct TraceCounts {
    /// Total handover records swept.
    pub records: u64,
    /// Records per handover type (`HoType::index()` order).
    pub by_type: [u64; 3],
    /// Failed handovers among them.
    pub failures: u64,
    /// Study-day span (for daily normalization).
    pub days: u32,
}

impl TraceCounts {
    /// Failures per handover.
    pub fn hof_rate(&self) -> f64 {
        if self.records == 0 {
            return 0.0;
        }
        self.failures as f64 / self.records as f64
    }

    /// Average records per study day.
    pub fn daily_mean(&self) -> f64 {
        if self.days == 0 {
            return 0.0;
        }
        self.records as f64 / self.days as f64
    }
}

impl FromDailyFrame for TraceCounts {
    fn from_daily_frame(frame: &SectorDayFrame, ctx: &SweepCtx) -> Self {
        let mut counts = TraceCounts { days: ctx.config.n_days, ..TraceCounts::default() };
        for o in frame.observations() {
            counts.records += u64::from(o.hos);
            counts.by_type[o.ho_type.index()] += u64::from(o.hos);
            counts.failures += u64::from(o.hofs);
        }
        counts
    }
}

/// The [`TraceCounts`] pass: the daily frame, summed at `end`.
pub type TraceCountsPass = DerivedPass<TraceCounts>;

#[cfg(test)]
mod tests {
    use super::*;
    use telco_sim::{run_study, run_study_spilled, SimConfig};

    #[test]
    fn trace_counts_match_dataset() {
        let data = run_study(SimConfig::tiny());
        let counts = Sweep::new(&data).run(TraceCountsPass::default).unwrap();
        let dataset = data.trace.as_dataset().unwrap();
        assert_eq!(counts.records, dataset.len() as u64);
        assert_eq!(counts.by_type, dataset.counts_by_type());
        assert_eq!(counts.hof_rate(), dataset.hof_rate());
        assert_eq!(counts.daily_mean(), dataset.daily_mean());
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let mut seq_cfg = SimConfig::tiny();
        seq_cfg.threads = 1;
        let mut par_cfg = seq_cfg.clone();
        par_cfg.threads = 4;
        let seq = run_study(seq_cfg);
        let par = run_study(par_cfg);
        let a = Sweep::new(&seq).run(TraceCountsPass::default).unwrap();
        let b = Sweep::new(&par).run(TraceCountsPass::default).unwrap();
        assert_eq!(a, b);
        // One traversal each, whichever mode ran.
        assert_eq!(seq.trace.sweeps(), 1);
        assert_eq!(par.trace.sweeps(), 1);
    }

    #[test]
    fn spilled_sweep_streams_the_same_counts() {
        let mut cfg = SimConfig::tiny();
        cfg.n_ues = 150;
        let in_mem = run_study(cfg.clone());
        let dir = std::env::temp_dir().join("telco_sweep_spill_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spilled = run_study_spilled(cfg, &dir).unwrap();
        let a = Sweep::new(&in_mem).run(TraceCountsPass::default).unwrap();
        let b = Sweep::new(&spilled).run(TraceCountsPass::default).unwrap();
        assert_eq!(a, b);
        assert_eq!(spilled.trace.sweeps(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
