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
use telco_trace::record::{HoOutcome, HoRecord};

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
