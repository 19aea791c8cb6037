//! The study runner: orchestrates a full multi-day, multi-UE simulation,
//! optionally in parallel.
//!
//! Parallel runs use *work stealing over a shared cursor*: the `(day,
//! UE-chunk)` space is flattened into a single atomic counter that worker
//! threads drain with `fetch_add`, so a straggler chunk (a dense urban
//! commuter cohort, say) never idles the other workers the way static
//! per-thread UE ranges did. Every `(UE, day)` pair derives its own RNG
//! stream from the master seed, so execution order is irrelevant to the
//! output — only the merge order must be canonical. Each work item emits a
//! timestamp-sorted run tagged with its chunk index; runs are merged
//! day-major with a k-way heap merge whose ties break on run order, which
//! reproduces the sequential path's append-then-stable-sort byte for byte.

use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};

use crossbeam::thread;

use telco_devices::population::UeId;
use telco_trace::dataset::SignalingDataset;
use telco_trace::record::HoRecord;
use telco_trace::source::TraceSource;
use telco_trace::store::{
    reduce_runs, write_file_v3, SortedMerge, TraceReader, TraceWriter, DEFAULT_CHUNK_RECORDS,
};

use crate::config::SimConfig;
use crate::engine::{simulate_ue_day, SimScratch};
use crate::output::SimOutput;
use crate::steal::{collect_runs, DayGate, StealCursor};
use crate::world::World;

/// Below this UE count the runner stays sequential: thread spawn and merge
/// overhead dwarfs the work itself. Benchmarks check
/// [`RunnerStats::mode`] so they never mistake this path for the parallel
/// one.
pub const SEQUENTIAL_UE_THRESHOLD: usize = 64;

/// Default UEs per work item. Small enough that the `(day, chunk)` grid
/// offers plenty of stealable items even for the tiny presets, large
/// enough that the per-item output setup/merge cost stays negligible.
pub const DEFAULT_UE_CHUNK: usize = 32;

/// Which scheduling path [`run_on_world`] took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunnerMode {
    /// Single-threaded day-major loop (threads ≤ 1 or a tiny population).
    #[default]
    Sequential,
    /// Work-stealing workers draining the shared `(day, chunk)` cursor.
    WorkStealing,
    /// Work-stealing workers spilling per-item sorted runs to disk as
    /// chunk files (out-of-core). Each day's runs are k-way merged into
    /// the sealed trace as soon as the day's last item is spilled, while
    /// the other workers simulate later days.
    Spilled,
    /// A fleet of worker *processes* each ran one manifest shard and the
    /// shard traces were merged out-of-core (the `telco-orchestrator`
    /// crate).
    Orchestrated,
}

/// Scheduling metadata of a finished run, recorded on
/// [`SimOutput::runner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunnerStats {
    /// The path that executed.
    pub mode: RunnerMode,
    /// Worker threads used (1 for the sequential path).
    pub threads: usize,
    /// UEs per work item (the whole population for the sequential path).
    pub chunk_ues: usize,
    /// Total work items drained.
    pub work_items: usize,
    /// UE-days simulated.
    pub ue_days: usize,
}

/// A completed study: the world it ran against plus everything it
/// produced. The handover trace lives behind [`StudyData::trace`] — in
/// memory for [`run_study`], on disk for [`run_study_spilled`] — and the
/// remaining side outputs (mobility ledger, RAT ledger, core counters)
/// stay on [`StudyData::output`].
#[derive(Debug, Clone)]
pub struct StudyData {
    /// The configuration the study ran with.
    pub config: SimConfig,
    /// The immutable world.
    pub world: World,
    /// The non-trace simulation outputs (mobility, ledger, core
    /// counters); its `dataset` is empty — the trace is in
    /// [`StudyData::trace`].
    pub output: SimOutput,
    /// The handover trace, in memory or spilled to disk.
    pub trace: TraceSource,
}

/// Build the world and run the full study described by `config`.
pub fn run_study(config: SimConfig) -> StudyData {
    let world = World::build(&config);
    let mut output = run_on_world(&world, &config);
    let dataset = std::mem::take(&mut output.dataset);
    StudyData { config, world, output, trace: TraceSource::in_memory(dataset) }
}

/// [`run_study`] in out-of-core mode ([`run_on_world_spilled`]): per-item
/// runs spill to `spill_dir` as chunk files, and each day's runs are
/// merged into the sealed trace `spill_dir/study-trace.tlho` as soon as
/// the day's last item is spilled, while the other workers simulate later
/// days. [`StudyData::trace`] then streams that file chunk by chunk — the
/// full trace is never materialized in memory. The file is byte-identical
/// to [`run_study`]'s dataset written in [`DEFAULT_CHUNK_RECORDS`] chunks;
/// `spill_dir` must exist and outlive the returned study.
pub fn run_study_spilled(config: SimConfig, spill_dir: &Path) -> io::Result<StudyData> {
    let world = World::build(&config);
    let (output, trace) = run_on_world_spilled(&world, &config, spill_dir)?;
    Ok(StudyData { config, world, output, trace })
}

/// Run the simulation over an already-built world.
pub fn run_on_world(world: &World, config: &SimConfig) -> SimOutput {
    run_on_world_chunked(world, config, DEFAULT_UE_CHUNK)
}

/// [`run_on_world`] with an explicit work-item granularity. The records
/// and mobility rows are byte-identical for every `chunk_ues` and thread
/// count; only the ledger's floating-point sums regroup (equal within
/// ~1e-12 relative — see the determinism-matrix test).
pub fn run_on_world_chunked(world: &World, config: &SimConfig, chunk_ues: usize) -> SimOutput {
    assert!(chunk_ues > 0, "chunk size must be positive");
    let threads = if config.threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        config.threads
    };
    let n_ues = world.n_ues();
    let n_days = config.n_days;
    let ue_days = n_ues * n_days as usize;

    if threads <= 1 || n_ues < SEQUENTIAL_UE_THRESHOLD {
        let mut out = SimOutput::new(n_days);
        let mut scratch = SimScratch::new();
        for day in 0..n_days {
            for ue in 0..n_ues {
                simulate_ue_day(world, config, UeId(ue as u32), day, &mut scratch, &mut out);
            }
        }
        out.dataset.sort();
        out.runner = RunnerStats {
            mode: RunnerMode::Sequential,
            threads: 1,
            chunk_ues: n_ues.max(1),
            work_items: n_days as usize,
            ue_days,
        };
        return out;
    }

    // The flattened work-item space, day-major: item i covers day
    // i / chunks_per_day and UEs [chunk·chunk_ues, …) of chunk
    // i % chunks_per_day. Day-major order makes the canonical run order
    // equal to the sequential loop's insertion order.
    let chunks_per_day = n_ues.div_ceil(chunk_ues);
    let n_items = chunks_per_day * n_days as usize;
    let cursor = StealCursor::new(n_items);

    let per_worker: Vec<Vec<(usize, SimOutput)>> = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cursor = &cursor;
                s.spawn(move |_| {
                    let mut scratch = SimScratch::new();
                    let mut produced: Vec<(usize, SimOutput)> = Vec::new();
                    while let Some(item) = cursor.claim() {
                        let day = (item / chunks_per_day) as u32;
                        let chunk = item % chunks_per_day;
                        let lo = chunk * chunk_ues;
                        let hi = (lo + chunk_ues).min(n_ues);
                        let mut out = SimOutput::new(n_days);
                        for ue in lo..hi {
                            simulate_ue_day(
                                world,
                                config,
                                UeId(ue as u32),
                                day,
                                &mut scratch,
                                &mut out,
                            );
                        }
                        // Emit a sorted run; the stable sort keeps equal
                        // timestamps in UE order within the chunk.
                        out.dataset.sort();
                        produced.push((item, out));
                    }
                    produced
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("simulation worker panicked")).collect()
    })
    .expect("simulation scope panicked");

    // Canonical merge: runs ordered by item index (day-major, then chunk)
    // equal the sequential insertion order, so the tie-breaking k-way
    // merge reproduces the sequential stable sort exactly. Mobility rows
    // concatenate into (day, UE) order with no sort at all.
    let runs = collect_runs(per_worker);

    let mut merged = SimOutput::new(n_days);
    merged.mobility.reserve(ue_days);
    let mut datasets: Vec<SignalingDataset> = Vec::with_capacity(runs.len());
    for (_, run) in runs {
        datasets.push(run.dataset);
        merged.mobility.extend(run.mobility);
        merged.ledger.merge(&run.ledger);
        merged.core.merge(&run.core);
    }
    merged.dataset = SignalingDataset::merge_sorted_runs(n_days, datasets);
    merged.runner = RunnerStats {
        mode: RunnerMode::WorkStealing,
        threads,
        chunk_ues,
        work_items: n_items,
        ue_days,
    };
    merged
}

/// Run one *shard* of a study: the UE range `ues` over the day range
/// `days`, sequentially, against the full-study `world` and `config`.
/// This is the unit of work a sharded orchestrator hands to a worker
/// process.
///
/// The day span of the output dataset stays `config.n_days` — a shard is
/// a window into the full study's timeline, not a shorter study — so
/// per-UE-day RNG streams, timestamps, and day numbering are exactly
/// those of the unsharded run. The loop is day-major and the final sort
/// is stable, so records of this shard appear in the same relative order
/// the sequential full run would emit them: equal-timestamp records are
/// same-day (timestamps encode the day) and tie-break by insertion
/// order, i.e. ascending UE. Concatenating shard outputs in ascending
/// UE-range order and stable-merging by timestamp therefore reproduces
/// the sequential study byte for byte — the determinism argument the
/// orchestrator's test matrix pins down.
pub fn run_shard(
    world: &World,
    config: &SimConfig,
    days: std::ops::Range<u32>,
    ues: std::ops::Range<usize>,
) -> SimOutput {
    let n_ues = world.n_ues();
    let days = days.start.min(config.n_days)..days.end.min(config.n_days);
    let ues = ues.start.min(n_ues)..ues.end.min(n_ues);
    let ue_days = ues.len() * days.len();
    let mut out = SimOutput::new(config.n_days);
    let mut scratch = SimScratch::new();
    for day in days.clone() {
        for ue in ues.clone() {
            simulate_ue_day(world, config, UeId(ue as u32), day, &mut scratch, &mut out);
        }
    }
    out.dataset.sort();
    out.runner = RunnerStats {
        mode: RunnerMode::Sequential,
        threads: 1,
        chunk_ues: ues.len().max(1),
        work_items: days.len(),
        ue_days,
    };
    out
}

/// Open-file fan-in of the on-disk merge. A day with more run files than
/// this (medium has 250 a day) first merges its excess runs into one
/// intermediate file, so a merge never holds more open — far below a
/// typical 1024-descriptor ulimit.
pub const MERGE_FAN_IN: usize = 128;

/// [`run_on_world`] in spill-to-disk mode: each work item's sorted run is
/// written to `spill_dir` as a chunk file instead of held in RAM, and each
/// day's runs are k-way merged into the sealed trace
/// `spill_dir/study-trace.tlho` as soon as the day's last item is
/// spilled, on the worker that spilled it, while the other workers
/// simulate later days. Returns the side outputs (mobility, ledger,
/// core; `dataset` left empty) and the sealed trace.
///
/// A day's records come only from that day's items and sort before every
/// later day's (the engine clamps every timestamp inside its day), so the
/// sealed stream is the concatenation of per-day merges, each in item
/// order with index tie-breaks — the
/// [`SignalingDataset::merge_sorted_runs`] contract. The records go out
/// in full [`DEFAULT_CHUNK_RECORDS`] chunks across day boundaries, so the
/// file is byte-identical to the in-memory dataset written as
/// `records.chunks(DEFAULT_CHUNK_RECORDS)`, for any thread count and
/// chunk size. One day merges at a time, holding at most
/// [`MERGE_FAN_IN`] run files open; run files and merge intermediates
/// are deleted as they are consumed. `spill_dir` must exist.
///
/// The first spill or merge error stops the run: no worker claims another
/// item, no later day is merged, and the returned error names the run
/// file or the sealed file. The sealed file is then left without its
/// trailer, which readers report as missing.
pub fn run_on_world_spilled(
    world: &World,
    config: &SimConfig,
    spill_dir: &Path,
) -> io::Result<(SimOutput, TraceSource)> {
    run_on_world_spilled_chunked(world, config, DEFAULT_UE_CHUNK, spill_dir)
}

/// [`run_on_world_spilled`] with an explicit work-item granularity.
///
/// Unlike the in-memory path there is no sequential fallback: the whole
/// point is bounding memory, so even `threads == 1` runs the item grid
/// and spills every run.
pub fn run_on_world_spilled_chunked(
    world: &World,
    config: &SimConfig,
    chunk_ues: usize,
    spill_dir: &Path,
) -> io::Result<(SimOutput, TraceSource)> {
    assert!(chunk_ues > 0, "chunk size must be positive");
    let threads = if config.threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        config.threads
    };
    let n_ues = world.n_ues();
    let n_days = config.n_days;
    let ue_days = n_ues * n_days as usize;
    let chunks_per_day = n_ues.div_ceil(chunk_ues).max(1);
    let n_items = chunks_per_day * n_days as usize;
    let cursor = StealCursor::new(n_items);

    let sealed_path = spill_dir.join("study-trace.tlho");
    let sealed = SealedTrace::create(&sealed_path, n_days)?;
    let gate = DayGate::new(n_days as usize, chunks_per_day, sealed);
    let merge_day = |sealed: &mut SealedTrace, day: usize| {
        let items = day * chunks_per_day..(day + 1) * chunks_per_day;
        let runs = items.map(|item| run_path(spill_dir, item)).collect();
        sealed.merge_day(runs, spill_dir).map_err(|e| {
            io::Error::new(e.kind(), format!("{}: merging day {day}: {e}", sealed_path.display()))
        })
    };

    // Workers drain the same (day, chunk) grid as the in-memory path, but
    // each finished run goes straight to disk: the SimOutput they keep
    // carries only the small per-item side state (mobility, ledger, core).
    let per_worker: Vec<io::Result<Vec<(usize, SimOutput)>>> = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (cursor, gate, merge_day) = (&cursor, &gate, &merge_day);
                s.spawn(move |_| -> io::Result<Vec<(usize, SimOutput)>> {
                    let mut scratch = SimScratch::new();
                    let mut produced: Vec<(usize, SimOutput)> = Vec::new();
                    while let Some(item) = cursor.claim() {
                        let day = item / chunks_per_day;
                        let chunk = item % chunks_per_day;
                        let lo = chunk * chunk_ues;
                        let hi = (lo + chunk_ues).min(n_ues);
                        let mut out = SimOutput::new(n_days);
                        for ue in lo..hi {
                            simulate_ue_day(
                                world,
                                config,
                                UeId(ue as u32),
                                day as u32,
                                &mut scratch,
                                &mut out,
                            );
                        }
                        out.dataset.sort();
                        let run = run_path(spill_dir, item);
                        let spilled = write_file_v3(&out.dataset, &run)
                            .map_err(named(&run))
                            .and_then(|()| gate.spilled(day, merge_day));
                        if let Err(e) = spilled {
                            // The first error stops the run: no more
                            // claims, and no later day is merged.
                            cursor.abort();
                            gate.abort();
                            return Err(e);
                        }
                        out.dataset = SignalingDataset::new(n_days);
                        produced.push((item, out));
                    }
                    Ok(produced)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("simulation worker panicked")).collect()
    })
    .expect("simulation scope panicked");

    let mut collected: Vec<Vec<(usize, SimOutput)>> = Vec::with_capacity(per_worker.len());
    for worker in per_worker {
        collected.push(worker?);
    }
    // Every worker has joined: merge the days whose last item lost the
    // race for the merger, then seal.
    let records = gate.finish(merge_day)?.finish().map_err(named(&sealed_path))?;

    let mut merged = SimOutput::new(n_days);
    merged.mobility.reserve(ue_days);
    for (_, run) in collect_runs(collected) {
        merged.mobility.extend(run.mobility);
        merged.ledger.merge(&run.ledger);
        merged.core.merge(&run.core);
    }
    merged.runner =
        RunnerStats { mode: RunnerMode::Spilled, threads, chunk_ues, work_items: n_items, ue_days };
    Ok((merged, TraceSource::spilled(sealed_path, n_days, records)))
}

/// The run file of work item `item`.
fn run_path(spill_dir: &Path, item: usize) -> PathBuf {
    spill_dir.join(format!("run-{item:06}.tmp-trace"))
}

/// The day merger's state: the sealed trace, and the merged records of
/// its next, still partial chunk, which carry over into the next day.
struct SealedTrace {
    writer: TraceWriter<BufWriter<File>>,
    days: u32,
    /// Fewer than [`DEFAULT_CHUNK_RECORDS`] records.
    pending: Vec<HoRecord>,
}

impl SealedTrace {
    /// Create the sealed trace at `path`; an error names the file.
    fn create(path: &Path, days: u32) -> io::Result<Self> {
        let writer = TraceWriter::create(path, days).map_err(named(path))?;
        Ok(SealedTrace { writer, days, pending: Vec::with_capacity(DEFAULT_CHUNK_RECORDS) })
    }

    /// Append the stable merge of one day's run files, given in item
    /// order, writing each chunk as it fills; then delete the files. More
    /// than [`MERGE_FAN_IN`] runs are first reduced under `spill_dir`.
    fn merge_day(&mut self, runs: Vec<PathBuf>, spill_dir: &Path) -> io::Result<()> {
        let runs = reduce_runs(self.days, runs, spill_dir, MERGE_FAN_IN)?;
        let mut readers = Vec::with_capacity(runs.len());
        for path in &runs {
            readers.push(TraceReader::open(path).map_err(invalid)?);
        }
        let mut merge = SortedMerge::new(readers).map_err(invalid)?;
        while let Some(record) = merge.next().map_err(invalid)? {
            self.pending.push(record);
            if self.pending.len() == DEFAULT_CHUNK_RECORDS {
                self.writer.write_chunk(&self.pending)?;
                self.pending.clear();
            }
        }
        for path in &runs {
            std::fs::remove_file(path)?;
        }
        Ok(())
    }

    /// Write the last, partial chunk and the trailer; return the record
    /// count.
    fn finish(mut self) -> io::Result<u64> {
        if !self.pending.is_empty() {
            self.writer.write_chunk(&self.pending)?;
        }
        let records = self.writer.records_written();
        self.writer.finish()?;
        Ok(records)
    }
}

/// An I/O error with `path` named in its message.
fn named(path: &Path) -> impl FnOnce(io::Error) -> io::Error + '_ {
    move |e| io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// A decode error of a file the run wrote itself, as an I/O error.
fn invalid(e: impl std::error::Error + Send + Sync + 'static) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use telco_signaling::messages::HoType;

    #[test]
    fn parallel_equals_sequential() {
        let mut cfg = SimConfig::tiny();
        cfg.n_ues = 120;
        cfg.n_days = 2;
        let world = World::build(&cfg);

        let mut seq_cfg = cfg.clone();
        seq_cfg.threads = 1;
        let seq = run_on_world(&world, &seq_cfg);
        assert_eq!(seq.runner.mode, RunnerMode::Sequential);

        let mut par_cfg = cfg.clone();
        par_cfg.threads = 4;
        let par = run_on_world(&world, &par_cfg);
        assert_eq!(par.runner.mode, RunnerMode::WorkStealing);
        assert_eq!(par.runner.threads, 4);

        assert_eq!(seq.dataset.records(), par.dataset.records());
        assert_eq!(seq.mobility, par.mobility);
        // Ledger sums are merged in chunk order; floating-point addition
        // is not associative, so compare to relative precision.
        for i in 0..4 {
            let (a, b) = (seq.ledger.attach_ms[i], par.ledger.attach_ms[i]);
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "attach[{i}]: {a} vs {b}");
        }
    }

    #[test]
    fn study_covers_all_days() {
        let data = run_study(SimConfig::tiny());
        let dataset = data.trace.as_dataset().expect("run_study keeps the trace in memory");
        let days: std::collections::HashSet<u32> =
            dataset.records().iter().map(|r| r.day()).collect();
        assert!(days.contains(&0));
        assert!(days.len() as u32 <= data.config.n_days);
        // The trace moved out of the sim output and into the source.
        assert!(data.output.dataset.is_empty());
        assert_eq!(data.trace.len(), dataset.len() as u64);
        // Mobility rows exist for every (ue, day).
        assert_eq!(data.output.mobility.len(), data.config.n_ues * data.config.n_days as usize);
        assert_eq!(data.output.runner.ue_days, data.config.n_ues * data.config.n_days as usize);
    }

    #[test]
    fn tiny_study_has_sane_ho_mix() {
        let data = run_study(SimConfig::tiny());
        let counts = data.trace.as_dataset().expect("in-memory trace").counts_by_type();
        let total: u64 = counts.iter().sum();
        assert!(total > 100, "too few handovers: {total}");
        let intra = counts[HoType::Intra4g5g.index()] as f64 / total as f64;
        assert!(intra > 0.75, "intra share {intra} too low");
    }

    #[test]
    fn spilled_study_streams_identical_records() {
        let mut cfg = SimConfig::tiny();
        cfg.n_ues = 120;
        cfg.n_days = 2;
        cfg.threads = 2;
        let in_mem = run_study(cfg.clone());

        let dir = std::env::temp_dir().join("telco_runner_study_spill_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spilled = run_study_spilled(cfg, &dir).unwrap();
        assert!(spilled.trace.is_spilled());
        assert_eq!(spilled.output.runner.mode, RunnerMode::Spilled);
        assert_eq!(spilled.trace.len(), in_mem.trace.len());
        assert_eq!(spilled.output.mobility, in_mem.output.mobility);

        let mut streamed = Vec::new();
        spilled.trace.for_each_chunk(|recs| streamed.extend_from_slice(recs)).unwrap();
        assert_eq!(&streamed[..], in_mem.trace.as_dataset().unwrap().records());
        // Only the sealed study trace remains in the spill dir.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["study-trace.tlho".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilled_equals_in_memory() {
        let mut cfg = SimConfig::tiny();
        cfg.n_ues = 120;
        cfg.n_days = 2;
        cfg.threads = 4;
        let world = World::build(&cfg);
        let in_mem = run_on_world(&world, &cfg);

        let dir = std::env::temp_dir().join("telco_runner_spill_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (spilled, trace) = run_on_world_spilled(&world, &cfg, &dir).unwrap();
        assert_eq!(spilled.runner.mode, RunnerMode::Spilled);
        assert!(spilled.dataset.is_empty());
        let mut streamed = Vec::new();
        trace.for_each_chunk(|recs| streamed.extend_from_slice(recs)).unwrap();
        assert_eq!(&streamed[..], in_mem.dataset.records());
        assert_eq!(spilled.mobility, in_mem.mobility);
        assert_eq!(spilled.core, in_mem.core);
        // All run files and intermediates consumed; the sealed trace stays.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_error_stops_the_run_and_names_the_file() {
        // 150 UEs × 2 days at one UE per item: a 300-item grid.
        let mut cfg = SimConfig::tiny();
        cfg.n_ues = 150;
        cfg.n_days = 2;
        cfg.threads = 2;
        let world = World::build(&cfg);
        let dir = std::env::temp_dir().join("telco_runner_spill_error_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A directory where item 3's run file goes: creating it fails.
        let blocker = run_path(&dir, 3);
        std::fs::create_dir(&blocker).unwrap();

        let err = run_on_world_spilled_chunked(&world, &cfg, 1, &dir).unwrap_err();
        assert!(err.to_string().contains(&blocker.display().to_string()), "unnamed: {err}");
        // The first error stopped the cursor: the other worker did not
        // drain the grid. (Day 0 never completes, so nothing merged.)
        let runs = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "tmp-trace"))
            .count();
        assert!(runs < 150, "{runs} of 299 run files written after the failure");
        // No sealed trace validates.
        let sealed = dir.join("study-trace.tlho");
        if sealed.exists() {
            let issue = telco_trace::validate_file(&sealed).unwrap_err();
            assert_eq!(issue.error, telco_trace::CodecError::MissingTrailer);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_trace_chunks_canonically_across_days() {
        use telco_signaling::causes::{CauseCode, PrincipalCause};
        use telco_topology::elements::SectorId;
        use telco_topology::rat::Rat;
        use telco_trace::HoOutcome;

        let record = |timestamp_ms: u64, ue: u32| HoRecord {
            timestamp_ms,
            ue: UeId(ue),
            source_sector: SectorId(ue % 97),
            target_sector: SectorId(ue % 89),
            source_rat: Rat::G4,
            target_rat: if ue % 7 == 1 { Rat::G3 } else { Rat::G4 },
            outcome: if ue % 11 == 1 { HoOutcome::Failure } else { HoOutcome::Success },
            cause: (ue % 11 == 1).then(|| CauseCode::principal(PrincipalCause::TargetLoadTooHigh)),
            duration_ms: 40 + ue % 13,
            srvcc: false,
            messages: 12,
        };
        let dir = std::env::temp_dir().join("telco_runner_sealed_chunks_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Three days of three runs, 30,000 records a day: the first full
        // chunk ends inside day 2. Runs share timestamps, so ties must
        // break in run order.
        let days = 3u32;
        let path = dir.join("sealed.tlho");
        let mut sealed = SealedTrace::create(&path, days).unwrap();
        let mut all: Vec<HoRecord> = Vec::new();
        for day in 0..days {
            let base = u64::from(day) * 86_400_000;
            let mut day_records = Vec::new();
            let mut runs = Vec::new();
            for run in 0..3u32 {
                let records: Vec<HoRecord> = (0..10_000u32)
                    .map(|i| record(base + u64::from(i / 2 * 5 + run), run * 100_000 + i))
                    .collect();
                let run_file = dir.join(format!("run-{day}-{run}.tmp-trace"));
                day_records.extend_from_slice(&records);
                write_file_v3(&SignalingDataset::from_records(days, records), &run_file).unwrap();
                runs.push(run_file);
            }
            sealed.merge_day(runs, &dir).unwrap();
            day_records.sort_by_key(|r| r.timestamp_ms);
            all.extend(day_records);
        }
        assert_eq!(sealed.finish().unwrap(), all.len() as u64);

        let mut canonical = TraceWriter::new(Vec::new(), days).unwrap();
        for chunk in all.chunks(DEFAULT_CHUNK_RECORDS) {
            canonical.write_chunk(chunk).unwrap();
        }
        assert!(std::fs::read(&path).unwrap() == canonical.finish().unwrap());
        // The run files are consumed.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shards_reassemble_the_sequential_study() {
        let mut cfg = SimConfig::tiny();
        cfg.n_ues = 120;
        cfg.n_days = 2;
        cfg.threads = 1;
        let world = World::build(&cfg);
        let full = run_on_world(&world, &cfg);

        // Three uneven UE shards over all days, merged in shard order,
        // must reproduce the sequential run exactly (stable merge ties
        // break in shard order = UE order = sequential insertion order).
        let bounds = [0usize, 50, 51, 120];
        let mut datasets = Vec::new();
        let mut mobility = Vec::new();
        let mut ue_days = 0;
        for w in bounds.windows(2) {
            let shard = run_shard(&world, &cfg, 0..cfg.n_days, w[0]..w[1]);
            ue_days += shard.runner.ue_days;
            datasets.push(shard.dataset);
            mobility.extend(shard.mobility);
        }
        let merged = SignalingDataset::merge_sorted_runs(cfg.n_days, datasets);
        assert_eq!(merged.records(), full.dataset.records());
        assert_eq!(ue_days, 240);
        // Shard mobility rows are (day, ue)-sortable back into the
        // sequential order (each shard emits day-major, UE-ascending).
        mobility.sort_by_key(|m| (m.day, m.ue));
        assert_eq!(mobility, full.mobility);

        // Day-sliced shards (split the time axis instead) reassemble too:
        // per-day shard outputs concatenate in day order.
        let mut day_datasets = Vec::new();
        for day in 0..cfg.n_days {
            let shard = run_shard(&world, &cfg, day..day + 1, 0..cfg.n_ues);
            day_datasets.push(shard.dataset);
        }
        let day_merged = SignalingDataset::merge_sorted_runs(cfg.n_days, day_datasets);
        assert_eq!(day_merged.records(), full.dataset.records());

        // Out-of-range requests clamp instead of panicking.
        let empty = run_shard(&world, &cfg, 5..9, 500..600);
        assert!(empty.dataset.is_empty());
        assert_eq!(empty.runner.ue_days, 0);
    }

    #[test]
    fn small_populations_run_sequentially_even_with_threads() {
        let mut cfg = SimConfig::tiny();
        cfg.n_ues = SEQUENTIAL_UE_THRESHOLD - 1;
        cfg.n_days = 1;
        cfg.threads = 4;
        let world = World::build(&cfg);
        let out = run_on_world(&world, &cfg);
        assert_eq!(out.runner.mode, RunnerMode::Sequential);
        assert_eq!(out.runner.threads, 1);
    }
}
