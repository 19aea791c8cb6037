//! Property-based coverage of the snapshot codec every pass now carries:
//!
//! 1. **Round-trip identity** — `restore(snapshot(s))` reproduces `s`
//!    exactly: both its output (serialized JSON oracle) and its snapshot
//!    bytes (`snapshot(restore(snapshot(s))) == snapshot(s)`), so the
//!    encoding is a fixed point and deterministic across instances.
//! 2. **Merge-after-restore** — splitting an arbitrary trace at an
//!    arbitrary day boundary, snapshotting the prefix accumulator,
//!    restoring it into a fresh instance, and merging the suffix delta
//!    must match merging without any snapshot in between. This is the
//!    exact sequence the ingest service replays on crash recovery; a
//!    codec that dropped or reordered state would diverge here long
//!    before a golden noticed.
//!
//! Mirrors `columnar_props.rs`: one tiny shared world, arbitrary records
//! clamped onto its entity ranges, 256 cases per property unless
//! `PROPTEST_CASES` says otherwise (CI runs 4096). The passes derived
//! from the daily frame hold and snapshot only the frame's state, so the
//! frame cases cover them.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use proptest::prelude::*;
use serde::Serialize;

use telco_analytics::frame::{Enriched, FramePass, FrameWindow};
use telco_analytics::geodemo::PopulationPass;
use telco_analytics::handovers::{DurationPass, HoTypePass};
use telco_analytics::hof::{CausePass, HofPatternsPass};
use telco_analytics::manufacturer::ManufacturerPass;
use telco_analytics::pingpong::PingPongPass;
use telco_analytics::study::StudyPasses;
use telco_analytics::sweep::{restore_pass, snapshot_pass, AnalysisPass, SweepCtx};
use telco_analytics::timeseries::TemporalPass;
use telco_devices::population::UeId;
use telco_signaling::causes::CauseCode;
use telco_sim::{SimConfig, World};
use telco_topology::elements::SectorId;
use telco_topology::rat::Rat;
use telco_trace::columnar::ColumnBatch;
use telco_trace::record::{HoOutcome, HoRecord};
use telco_trace::snap::{encode_frame, SnapWriter};

/// One tiny world shared by every case: passes join records against the
/// topology and UE catalog, so record ids must name real entities.
fn world() -> &'static (World, SimConfig) {
    static CELL: OnceLock<(World, SimConfig)> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut cfg = SimConfig::tiny();
        cfg.n_ues = 400;
        cfg.n_days = 3;
        (World::build(&cfg), cfg)
    })
}

fn arb_rat() -> impl Strategy<Value = Rat> {
    prop_oneof![Just(Rat::G2), Just(Rat::G3), Just(Rat::G4), Just(Rat::G5Nr)]
}

/// An arbitrary record whose ids are reduced onto the shared world's
/// entity ranges inside the test body (strategies are built before the
/// world exists).
fn arb_record() -> impl Strategy<Value = HoRecord> {
    (
        0u64..(3 * 86_400_000),
        0u32..u32::MAX,
        0u32..u32::MAX,
        0u32..u32::MAX,
        arb_rat(),
        arb_rat(),
        proptest::bool::ANY,
        1u16..1050,
        prop_oneof![0u32..20_000, 0u32..=u32::MAX],
        proptest::bool::ANY,
        0u16..40,
    )
        .prop_map(
            |(ts, ue, src, tgt, source_rat, target_rat, failed, cause, dur, srvcc, msgs)| {
                HoRecord {
                    timestamp_ms: ts,
                    ue: UeId(ue),
                    source_sector: SectorId(src),
                    target_sector: SectorId(tgt),
                    source_rat,
                    target_rat,
                    outcome: if failed { HoOutcome::Failure } else { HoOutcome::Success },
                    cause: failed.then_some(CauseCode(cause)),
                    duration_ms: dur,
                    srvcc,
                    messages: msgs,
                }
            },
        )
}

/// Clamp ids onto the world's dense entity ranges and sort by timestamp
/// (traces are timestamp-ordered by construction; the ping-pong pass
/// depends on it).
fn materialize(mut records: Vec<HoRecord>, world: &World) -> Vec<HoRecord> {
    let n_ues = world.ues.len() as u32;
    let n_sectors = world.topology.sectors().len() as u32;
    for r in &mut records {
        r.ue = UeId(r.ue.0 % n_ues);
        r.source_sector = SectorId(r.source_sector.0 % n_sectors);
        r.target_sector = SectorId(r.target_sector.0 % n_sectors);
    }
    records.sort_by_key(|r| r.timestamp_ms);
    records
}

/// Feed `records` into a fresh pass (begin + record).
fn fill<P, F>(make: &F, ctx: &SweepCtx, enriched: &Enriched, records: &[HoRecord]) -> P
where
    P: AnalysisPass,
    F: Fn() -> P,
{
    let mut pass = make();
    pass.begin(ctx);
    for r in records {
        pass.record(r, enriched);
    }
    pass
}

fn output_json<P: AnalysisPass>(pass: P, ctx: &SweepCtx) -> String
where
    P::Output: Serialize,
{
    serde_json::to_string(&pass.end(ctx)).expect("serializable output")
}

/// Property 1: snapshot → restore reproduces the pass exactly — same
/// output bytes AND same re-snapshot bytes (the codec is a fixed point).
fn check_round_trip<P, F>(make: F, records: &[HoRecord])
where
    P: AnalysisPass,
    P::Output: Serialize,
    F: Fn() -> P,
{
    let (world, config) = world();
    let ctx = SweepCtx { world, config };
    let enriched = Enriched::new(world);

    let original = fill(&make, &ctx, &enriched, records);
    let bytes = snapshot_pass(&original);

    let mut restored = make();
    restore_pass(&mut restored, &bytes).expect("snapshot restores into a default instance");
    assert_eq!(
        snapshot_pass(&restored),
        bytes,
        "re-snapshotting a restored pass must reproduce the original bytes"
    );
    assert_eq!(
        output_json(restored, &ctx),
        output_json(original, &ctx),
        "restored pass must produce the original output"
    );
}

/// Property 2: merging a delta into a restored baseline equals merging
/// it into the live baseline — the crash-recovery path of the ingest
/// service changes nothing.
fn check_merge_after_restore<P, F>(make: F, records: &[HoRecord], split: usize)
where
    P: AnalysisPass,
    P::Output: Serialize,
    F: Fn() -> P,
{
    let (world, config) = world();
    let ctx = SweepCtx { world, config };
    let enriched = Enriched::new(world);
    let split = split.min(records.len());

    let baseline = fill(&make, &ctx, &enriched, &records[..split]);
    let bytes = snapshot_pass(&baseline);

    // Control: merge without any snapshot in between.
    let mut direct = baseline;
    direct.merge(fill(&make, &ctx, &enriched, &records[split..]), &ctx);

    // Recovery path: restore the baseline from bytes, then merge the
    // same delta (rebuilt independently — deltas are deterministic).
    let mut recovered = make();
    restore_pass(&mut recovered, &bytes).expect("baseline restores");
    recovered.merge(fill(&make, &ctx, &enriched, &records[split..]), &ctx);

    assert_eq!(
        output_json(recovered, &ctx),
        output_json(direct, &ctx),
        "merge after snapshot/restore must equal merge without it"
    );
}

macro_rules! snapshot_case {
    ($round_trip:ident, $merge:ident, $make:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::default())]

            #[test]
            fn $round_trip(records in proptest::collection::vec(arb_record(), 0..300)) {
                let records = materialize(records, &world().0);
                check_round_trip($make, &records);
            }

            #[test]
            fn $merge(
                records in proptest::collection::vec(arb_record(), 0..300),
                split in 0usize..300,
            ) {
                let records = materialize(records, &world().0);
                check_merge_after_restore($make, &records, split);
            }
        }
    };
}

snapshot_case!(ho_types_snapshot_round_trips, ho_types_merge_after_restore, HoTypePass::default);
snapshot_case!(
    durations_snapshot_round_trips,
    durations_merge_after_restore,
    DurationPass::default
);
snapshot_case!(
    population_snapshot_round_trips,
    population_merge_after_restore,
    PopulationPass::default
);
snapshot_case!(temporal_snapshot_round_trips, temporal_merge_after_restore, TemporalPass::default);
snapshot_case!(manufacturer_snapshot_round_trips, manufacturer_merge_after_restore, || {
    ManufacturerPass::new(2)
});
snapshot_case!(
    hof_patterns_snapshot_round_trips,
    hof_patterns_merge_after_restore,
    HofPatternsPass::default
);
snapshot_case!(causes_snapshot_round_trips, causes_merge_after_restore, CausePass::default);
snapshot_case!(pingpong_snapshot_round_trips, pingpong_merge_after_restore, PingPongPass::default);
snapshot_case!(frame_daily_snapshot_round_trips, frame_daily_merge_after_restore, || {
    FramePass::new(FrameWindow::Daily)
});
snapshot_case!(frame_period_snapshot_round_trips, frame_period_merge_after_restore, || {
    FramePass::new(FrameWindow::FullPeriod)
});
snapshot_case!(
    study_composite_snapshot_round_trips,
    study_composite_merge_after_restore,
    StudyPasses::default
);

/// The daily frame's snapshot as a `BTreeMap` per-cell count encodes it:
/// the window tag, the grid's bounds, each touched grid cell as its
/// sector-major index gap and six counters, then the spill cells (a
/// sector or day past the grid) by packed key.
fn frame_oracle(records: &[HoRecord], n_sectors: u32, n_days: u32) -> Vec<u8> {
    let mut grid: BTreeMap<u64, [(u32, u32); 3]> = BTreeMap::new();
    let mut spill: BTreeMap<u64, [(u32, u32); 3]> = BTreeMap::new();
    for r in records {
        let (sector, day) = (r.source_sector.0, r.day());
        let group = if sector < n_sectors && day < n_days {
            grid.entry(u64::from(sector) * u64::from(n_days) + u64::from(day))
        } else {
            spill.entry((u64::from(sector) << 32) | u64::from(day))
        }
        .or_default();
        let cell = &mut group[r.ho_type().index()];
        cell.0 += 1;
        cell.1 += u32::from(r.is_failure());
    }
    let put_group = |w: &mut SnapWriter, group: &[(u32, u32); 3]| {
        for &(hos, hofs) in group {
            w.put_varint(u64::from(hos));
            w.put_varint(u64::from(hofs));
        }
    };
    let mut w = SnapWriter::new();
    w.put_u8(0);
    w.put_u32(n_sectors);
    w.put_u32(n_days);
    w.put_varint(grid.len() as u64);
    let mut prev = 0;
    for (&idx, group) in &grid {
        w.put_varint(idx - prev);
        put_group(&mut w, group);
        prev = idx;
    }
    w.put_varint(spill.len() as u64);
    for (&key, group) in &spill {
        w.put_varint(key);
        put_group(&mut w, group);
    }
    encode_frame(FramePass::SNAPSHOT_VERSION, &w.into_bytes())
}

/// The pieces of `len` records between the given cut points (each taken
/// modulo `len + 1`).
fn pieces(len: usize, cuts: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&cut| cut % (len + 1)).collect();
    bounds.extend([0, len]);
    bounds.sort_unstable();
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// A begun daily frame fed `records` in pieces cut at `cuts`,
/// alternately one `record` at a time and as one column batch.
fn fed_frame(
    ctx: &SweepCtx,
    enriched: &Enriched,
    records: &[HoRecord],
    cuts: &[usize],
) -> FramePass {
    let mut pass = FramePass::new(FrameWindow::Daily);
    pass.begin(ctx);
    for (i, piece) in pieces(records.len(), cuts).into_iter().enumerate() {
        let piece = &records[piece];
        if i % 2 == 0 {
            for r in piece {
                pass.record(r, enriched);
            }
        } else {
            let mut batch = ColumnBatch::new();
            batch.extend_from_rows(piece);
            pass.record_columns(&batch, enriched);
        }
    }
    pass
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn frame_counts_every_cell_once_in_any_order_and_bracketing(
        records in proptest::collection::vec((arb_record(), 0u32..8, 0u64..5), 0..300),
        feed_cuts in proptest::collection::vec(0usize..300, 0..6),
        partial_cuts in proptest::collection::vec(0usize..300, 0..4),
    ) {
        let (world, config) = world();
        let ctx = SweepCtx { world, config };
        let enriched = Enriched::new(world);
        let n_sectors = world.topology.sectors().len() as u32;
        // Unsorted, on days 0..5 of a 3-day grid. One record in eight
        // lies past the grid's sectors; three in eight share a few
        // sectors, so partials and reopened days hold the same cells.
        let records: Vec<HoRecord> = records
            .into_iter()
            .map(|(mut r, pick, day)| {
                let raw = r.source_sector.0;
                r.source_sector = SectorId(match pick {
                    0 => n_sectors + raw % 8,
                    1..=3 => raw % 8,
                    _ => raw % n_sectors,
                });
                r.timestamp_ms = r.timestamp_ms % 86_400_000 + day * 86_400_000;
                r
            })
            .collect();
        let oracle = frame_oracle(&records, n_sectors, config.n_days);
        let partials = pieces(records.len(), &partial_cuts);
        let fed = |piece: &std::ops::Range<usize>| {
            fed_frame(&ctx, &enriched, &records[piece.clone()], &feed_cuts)
        };

        let left = partials
            .iter()
            .map(fed)
            .reduce(|mut earlier, later| {
                earlier.merge(later, &ctx);
                earlier
            })
            .expect("at least one partial");
        prop_assert_eq!(snapshot_pass(&left), oracle.clone());

        let right = partials
            .iter()
            .map(|piece| {
                let mut restored = FramePass::default();
                restore_pass(&mut restored, &snapshot_pass(&fed(piece))).expect("partial restores");
                restored
            })
            .rev()
            .reduce(|later, mut earlier| {
                earlier.merge(later, &ctx);
                earlier
            })
            .expect("at least one partial");
        prop_assert_eq!(snapshot_pass(&right), oracle);
    }
}
