//! Property-based equivalence of the two `AnalysisPass` record paths:
//! feeding a pass arbitrary records one row at a time (`record`) must
//! produce output byte-identical (as serialized JSON) to feeding the same
//! records through column batches split at arbitrary boundaries
//! (`record_columns`). Every pass that overrides the columnar hook is
//! covered — a drift between the two paths would silently corrupt the
//! columnar sweep while all goldens (which exercise only one path per
//! run) kept passing. The passes derived from the daily frame count
//! through the frame's hooks, so the frame cases cover them
//! (`derivation_props.rs` checks the derivations).

use std::sync::OnceLock;

use proptest::prelude::*;
use serde::Serialize;

use telco_analytics::frame::{Enriched, FramePass, FrameWindow};
use telco_analytics::geodemo::PopulationPass;
use telco_analytics::handovers::{DurationPass, HoTypePass};
use telco_analytics::hof::{CausePass, HofPatternsPass};
use telco_analytics::manufacturer::ManufacturerPass;
use telco_analytics::pingpong::PingPongPass;
use telco_analytics::sweep::{AnalysisPass, SweepCtx};
use telco_analytics::timeseries::TemporalPass;
use telco_devices::population::UeId;
use telco_signaling::causes::CauseCode;
use telco_sim::{SimConfig, World};
use telco_topology::elements::SectorId;
use telco_topology::rat::Rat;
use telco_trace::columnar::ColumnBatch;
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

/// Run one pass both ways over the same records and return the two
/// serialized outputs. The columnar side sees the records split into
/// batches of `chunk_len` so window boundaries land in arbitrary places,
/// mirroring how the sweep's spans and a spilled trace's chunks slice a
/// trace.
fn both_paths<P, F>(make: F, records: &[HoRecord], chunk_len: usize) -> (String, String)
where
    P: AnalysisPass,
    P::Output: Serialize,
    F: Fn() -> P,
{
    let (world, config) = world();
    let ctx = SweepCtx { world, config };
    let enriched = Enriched::new(world);

    let mut rows = make();
    rows.begin(&ctx);
    for r in records {
        rows.record(r, &enriched);
    }
    let row_out = serde_json::to_string(&rows.end(&ctx)).expect("serializable output");

    let mut cols = make();
    cols.begin(&ctx);
    let mut batch = ColumnBatch::new();
    for window in records.chunks(chunk_len.max(1)) {
        batch.clear();
        batch.extend_from_rows(window);
        cols.record_columns(&batch, &enriched);
    }
    let col_out = serde_json::to_string(&cols.end(&ctx)).expect("serializable output");

    (row_out, col_out)
}

macro_rules! equivalence_case {
    ($name:ident, $make:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn $name(
                records in proptest::collection::vec(arb_record(), 0..300),
                chunk_len in 1usize..80,
            ) {
                let records = materialize(records, &world().0);
                let (rows, cols) = both_paths($make, &records, chunk_len);
                prop_assert_eq!(rows, cols);
            }
        }
    };
}

equivalence_case!(ho_types_columns_match_rows, HoTypePass::default);
equivalence_case!(durations_columns_match_rows, DurationPass::default);
equivalence_case!(population_columns_match_rows, PopulationPass::default);
equivalence_case!(temporal_columns_match_rows, TemporalPass::default);
equivalence_case!(manufacturer_columns_match_rows, || ManufacturerPass::new(2));
equivalence_case!(hof_patterns_columns_match_rows, HofPatternsPass::default);
equivalence_case!(causes_columns_match_rows, CausePass::default);
equivalence_case!(pingpong_columns_match_rows, PingPongPass::default);
equivalence_case!(frame_daily_columns_match_rows, || FramePass::new(FrameWindow::Daily));
equivalence_case!(frame_period_columns_match_rows, || FramePass::new(FrameWindow::FullPeriod));
