//! The analyses derived from the daily sector frame, against direct
//! per-record counts. The trace counts, Fig. 6 (HO density), Fig. 9
//! (district shares), Fig. 17 (vendor shares) and the full-period frame
//! are sums of the daily frame's `(sector, day, type)` cells, so each must
//! equal what one loop over the records counts. Those loops are the
//! oracles here.
//!
//! Records run to day 6 of the 3-day study, so some land in the frame's
//! spill map and in later full-period windows. They reach the passes
//! through column batches cut at arbitrary points, as a sweep's spans and
//! a spilled trace's chunks cut them. The case count follows
//! `PROPTEST_CASES`.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use proptest::prelude::*;

use telco_analytics::frame::{Enriched, FramePass, FrameWindow};
use telco_analytics::geodemo::HoDensityPass;
use telco_analytics::handovers::DistrictPass;
use telco_analytics::sweep::{AnalysisPass, SweepCtx, TraceCounts, TraceCountsPass};
use telco_analytics::vendor_analysis::VendorPass;
use telco_devices::population::UeId;
use telco_signaling::causes::CauseCode;
use telco_sim::{SimConfig, World};
use telco_topology::elements::SectorId;
use telco_topology::rat::Rat;
use telco_trace::columnar::ColumnBatch;
use telco_trace::record::{HoOutcome, HoRecord};

/// Days the arbitrary records span: more than the study's three.
const RECORD_DAYS: u64 = 7;

/// One tiny 3-day world shared by every case: the derivations join
/// sectors against the topology, so record ids must name real entities.
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

/// Arbitrary records sorted by timestamp, with ids reduced onto the shared
/// world's entity ranges.
fn arb_records() -> impl Strategy<Value = Vec<HoRecord>> {
    let record = (
        0u64..(RECORD_DAYS * 86_400_000),
        0u32..u32::MAX,
        0u32..u32::MAX,
        arb_rat(),
        proptest::bool::ANY,
        1u16..1050,
        prop_oneof![0u32..20_000, 0u32..=u32::MAX],
    );
    proptest::collection::vec(record, 0..300).prop_map(|rows| {
        let world = &world().0;
        let n_ues = world.ues.len() as u32;
        let n_sectors = world.topology.sectors().len() as u32;
        let mut records: Vec<HoRecord> = rows
            .into_iter()
            .map(|(ts, ue, sector, target_rat, failed, cause, dur)| HoRecord {
                timestamp_ms: ts,
                ue: UeId(ue % n_ues),
                source_sector: SectorId(sector % n_sectors),
                target_sector: SectorId((sector / 7) % n_sectors),
                source_rat: Rat::G4,
                target_rat,
                outcome: if failed { HoOutcome::Failure } else { HoOutcome::Success },
                cause: failed.then_some(CauseCode(cause)),
                duration_ms: dur,
                srvcc: false,
                messages: 8,
            })
            .collect();
        records.sort_by_key(|r| r.timestamp_ms);
        records
    })
}

/// Sweep `records` into a fresh pass through column batches of
/// `chunk_len` rows.
fn swept<P: AnalysisPass>(mut pass: P, records: &[HoRecord], chunk_len: usize) -> P::Output {
    let (world, config) = world();
    let ctx = SweepCtx { world, config };
    let enriched = Enriched::new(world);
    pass.begin(&ctx);
    let mut batch = ColumnBatch::new();
    for rows in records.chunks(chunk_len) {
        batch.clear();
        batch.extend_from_rows(rows);
        pass.record_columns(&batch, &enriched);
    }
    pass.end(&ctx)
}

/// Each count's share of their sum (at least 1), as the analyses divide.
fn shares<const N: usize>(counts: [u64; N]) -> [f64; N] {
    let total = counts.iter().sum::<u64>().max(1) as f64;
    counts.map(|c| c as f64 / total)
}

/// Handovers per district of the source sector.
fn district_counts(records: &[HoRecord]) -> Vec<[u64; 3]> {
    let world = &world().0;
    let mut counts = vec![[0u64; 3]; world.country.districts().len()];
    for r in records {
        let district = world.topology.sector_district(r.source_sector);
        counts[district.0 as usize][r.ho_type().index()] += 1;
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn trace_counts_match_a_direct_count(records in arb_records(), chunk_len in 1usize..80) {
        let mut direct = TraceCounts { days: world().1.n_days, ..TraceCounts::default() };
        for r in &records {
            direct.records += 1;
            direct.by_type[r.ho_type().index()] += 1;
            direct.failures += u64::from(r.is_failure());
        }
        prop_assert_eq!(swept(TraceCountsPass::default(), &records, chunk_len), direct);
    }

    #[test]
    fn district_shares_match_a_direct_count(records in arb_records(), chunk_len in 1usize..80) {
        let counts = district_counts(&records);
        let direct: Vec<_> = world()
            .0
            .country
            .districts()
            .iter()
            .map(|d| {
                let [intra, to3g, to2g] = shares(counts[d.id.0 as usize]);
                (d.id, intra, to3g, to2g)
            })
            .collect();
        prop_assert_eq!(swept(DistrictPass::default(), &records, chunk_len).per_district, direct);
    }

    #[test]
    fn ho_density_matches_a_direct_count(records in arb_records(), chunk_len in 1usize..80) {
        let (world, config) = world();
        let counts = district_counts(&records);
        let days = f64::from(config.n_days);
        let direct: Vec<_> = world
            .country
            .districts()
            .iter()
            .map(|d| {
                let hos: u64 = counts[d.id.0 as usize].iter().sum();
                (d.id, hos as f64 / days / d.area_km2, d.population_density())
            })
            .collect();
        prop_assert_eq!(swept(HoDensityPass::default(), &records, chunk_len).per_district, direct);
    }

    #[test]
    fn vendor_shares_match_a_direct_count(records in arb_records(), chunk_len in 1usize..80) {
        let topology = &world().0.topology;
        let mut counts = [[0u64; 4]; 3];
        for r in &records {
            counts[r.ho_type().index()][topology.sector(r.source_sector).vendor.index()] += 1;
        }
        let derived = swept(VendorPass::default(), &records, chunk_len);
        prop_assert_eq!(derived.hos_by_type, counts.map(shares));
    }

    /// Both frame windows against a direct `(sector, day / window_days,
    /// type)` count, with `daily_hos` the window total over `window_days`
    /// (at least 1).
    #[test]
    fn frame_windows_match_a_direct_count(records in arb_records(), chunk_len in 1usize..80) {
        let n_days = world().1.n_days;
        for (window, window_days) in [(FrameWindow::Daily, 1), (FrameWindow::FullPeriod, n_days)] {
            let mut cells: BTreeMap<(u32, u32, usize), (u32, u32)> = BTreeMap::new();
            let mut totals: BTreeMap<(u32, u32), u32> = BTreeMap::new();
            for r in &records {
                let key = (r.source_sector.0, r.day() / window_days);
                let cell = cells.entry((key.0, key.1, r.ho_type().index())).or_default();
                cell.0 += 1;
                cell.1 += u32::from(r.is_failure());
                *totals.entry(key).or_default() += 1;
            }
            let direct: Vec<_> = cells
                .into_iter()
                .map(|((sector, w, ty), (hos, hofs))| {
                    (sector, w, ty, hos, hofs, (totals[&(sector, w)] / window_days).max(1))
                })
                .collect();
            let frame = swept(FramePass::new(window), &records, chunk_len);
            let derived: Vec<_> = frame
                .observations()
                .iter()
                .map(|o| (o.sector.0, o.day, o.ho_type.index(), o.hos, o.hofs, o.daily_hos))
                .collect();
            prop_assert_eq!((window, derived), (window, direct));
        }
    }
}
