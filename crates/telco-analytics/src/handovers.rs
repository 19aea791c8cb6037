//! §5.2 — Horizontal vs vertical handovers: the Table 2 type × device-type
//! breakdown and the Fig. 8 duration ECDFs as streaming [`AnalysisPass`]es,
//! and the Fig. 9 per-district distribution of handover types, derived
//! from the daily sector frame.

use serde::{Deserialize, Serialize};

use telco_devices::types::DeviceType;
use telco_geo::district::DistrictId;
use telco_signaling::messages::HoType;
use telco_stats::desc::{mean, std_dev};
use telco_stats::ecdf::CountEcdf;
use telco_trace::columnar::{ColumnBatch, FLAG_FAILURE};
use telco_trace::record::HoRecord;
use telco_trace::snap::{SnapError, SnapReader, SnapWriter};

use crate::counts::MsCounts;
use crate::frame::{DerivedPass, Enriched, FromDailyFrame, SectorDayFrame};
use crate::sweep::{AnalysisPass, SweepCtx};
use crate::tables::{num, pct, TextTable};

/// Table 2 — handover shares per type and device type, with daily
/// variability (± std across study days).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HoTypeTable {
    /// `share[device][ho_type]`: share of ALL handovers.
    pub share: [[f64; 3]; 3],
    /// Daily standard deviation of each share.
    pub share_std: [[f64; 3]; 3],
    /// Column totals per HO type.
    pub type_totals: [f64; 3],
    /// Row totals per device type.
    pub device_totals: [f64; 3],
}

impl HoTypeTable {
    /// Share of all handovers that are horizontal.
    pub fn intra_share(&self) -> f64 {
        self.type_totals[HoType::Intra4g5g.index()]
    }

    /// Render as the paper's Table 2.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 2: Handover shares per type and device type (% of all HOs)",
            &["Device type", "Intra 4G/5G-NSA", "->3G", "->2G", "All"],
        );
        for dev in DeviceType::ALL {
            let i = dev.index();
            t.row(&[
                dev.to_string(),
                format!("{} ± {}", pct(self.share[i][0], 2), pct(self.share_std[i][0], 2)),
                format!("{} ± {}", pct(self.share[i][1], 2), pct(self.share_std[i][1], 2)),
                pct(self.share[i][2], 4),
                pct(self.device_totals[i], 2),
            ]);
        }
        t.row(&[
            "All devices".to_string(),
            pct(self.type_totals[0], 2),
            pct(self.type_totals[1], 2),
            pct(self.type_totals[2], 4),
            "100%".to_string(),
        ]);
        t
    }
}

/// Streaming accumulator for [`HoTypeTable`]: per-day type × device counts.
#[derive(Debug, Default)]
pub struct HoTypePass {
    /// `counts[day][device][type]`.
    counts: Vec<[[u64; 3]; 3]>,
}

impl AnalysisPass for HoTypePass {
    type Output = HoTypeTable;

    fn begin(&mut self, ctx: &SweepCtx) {
        self.counts = vec![[[0u64; 3]; 3]; ctx.config.n_days.max(1) as usize];
    }

    fn record(&mut self, r: &HoRecord, e: &Enriched) {
        let d = (r.day() as usize).min(self.counts.len() - 1);
        self.counts[d][e.device_type(r).index()][r.ho_type().index()] += 1;
    }

    // telco-lint: deny-alloc(begin)
    fn record_columns(&mut self, batch: &ColumnBatch, e: &Enriched) {
        let last = self.counts.len().saturating_sub(1);
        let rows = batch.timestamps().iter().zip(batch.ues()).zip(batch.target_rats());
        for ((&ts, &ue), &rat) in rows {
            let d = ((ts / 86_400_000) as usize).min(last);
            if let Some(day) = self.counts.get_mut(d) {
                day[e.device_of(ue).index()][HoType::from_target_rat(rat).index()] += 1;
            }
        }
    }
    // telco-lint: deny-alloc(end)

    fn merge(&mut self, other: Self, _ctx: &SweepCtx) {
        for (day, theirs) in self.counts.iter_mut().zip(other.counts) {
            for (row, t_row) in day.iter_mut().zip(theirs) {
                for (c, t) in row.iter_mut().zip(t_row) {
                    *c += t;
                }
            }
        }
    }

    fn end(self, _ctx: &SweepCtx) -> HoTypeTable {
        // Daily shares, then mean ± std across days.
        let mut daily_shares: Vec<[[f64; 3]; 3]> = Vec::with_capacity(self.counts.len());
        for day in &self.counts {
            let total: u64 = day.iter().flatten().sum();
            if total == 0 {
                continue;
            }
            let mut s = [[0.0; 3]; 3];
            for dev in 0..3 {
                for ty in 0..3 {
                    s[dev][ty] = day[dev][ty] as f64 / total as f64;
                }
            }
            daily_shares.push(s);
        }
        let mut share = [[0.0; 3]; 3];
        let mut share_std = [[0.0; 3]; 3];
        for dev in 0..3 {
            for ty in 0..3 {
                let series: Vec<f64> = daily_shares.iter().map(|s| s[dev][ty]).collect();
                share[dev][ty] = mean(&series).unwrap_or(0.0);
                share_std[dev][ty] = std_dev(&series).unwrap_or(0.0);
            }
        }
        let mut type_totals = [0.0; 3];
        let mut device_totals = [0.0; 3];
        for dev in 0..3 {
            for ty in 0..3 {
                type_totals[ty] += share[dev][ty];
                device_totals[dev] += share[dev][ty];
            }
        }
        HoTypeTable { share, share_std, type_totals, device_totals }
    }

    const SNAPSHOT_VERSION: u16 = 1;

    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_varint(self.counts.len() as u64);
        for day in &self.counts {
            for row in day {
                for &c in row {
                    w.put_varint(c);
                }
            }
        }
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        // Nine varints a day, so no more days than a ninth of the bytes.
        let days = r.get_count(9)?;
        self.counts = vec![[[0u64; 3]; 3]; days];
        for day in &mut self.counts {
            for row in day {
                for c in row {
                    *c = r.get_varint()?;
                }
            }
        }
        Ok(())
    }
}

/// Fig. 8 — signaling-duration ECDFs per handover type (successes only),
/// over whole milliseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurationAnalysis {
    /// ECDF of intra 4G/5G-NSA durations.
    pub intra: Option<CountEcdf>,
    /// ECDF of →3G durations.
    pub to3g: Option<CountEcdf>,
    /// ECDF of →2G durations.
    pub to2g: Option<CountEcdf>,
}

impl DurationAnalysis {
    /// Render median / p95 per type.
    pub fn table(&self) -> TextTable {
        let mut t =
            TextTable::new("Fig 8: HO duration per type (ms)", &["HO type", "median", "p95"]);
        for (ho_type, ecdf) in HoType::ALL.into_iter().zip([&self.intra, &self.to3g, &self.to2g]) {
            if let Some(e) = ecdf {
                t.row(&[ho_type.to_string(), num(e.median(), 0), num(e.quantile(0.95), 0)]);
            }
        }
        t
    }
}

/// Streaming accumulator for [`DurationAnalysis`]: per type, the number
/// of successful handovers at each whole millisecond. Its state follows
/// the range of the durations, not the record count, and the ECDFs at
/// [`AnalysisPass::end`] walk the counts instead of sorting a sample.
#[derive(Debug, Default)]
pub struct DurationPass {
    per_type: [MsCounts; 3],
}

impl AnalysisPass for DurationPass {
    type Output = DurationAnalysis;

    fn record(&mut self, r: &HoRecord, _e: &Enriched) {
        if !r.is_failure() {
            self.per_type[r.ho_type().index()].add(r.duration_ms);
        }
    }

    // telco-lint: deny-alloc(begin)
    fn record_columns(&mut self, batch: &ColumnBatch, _e: &Enriched) {
        let rows = batch.target_rats().iter().zip(batch.flags()).zip(batch.durations());
        for ((&rat, &flags), &duration) in rows {
            if flags & FLAG_FAILURE == 0 {
                self.per_type[HoType::from_target_rat(rat).index()].add(duration);
            }
        }
    }
    // telco-lint: deny-alloc(end)

    fn merge(&mut self, other: Self, _ctx: &SweepCtx) {
        for (mine, theirs) in self.per_type.iter_mut().zip(other.per_type) {
            mine.merge(theirs);
        }
    }

    fn end(self, _ctx: &SweepCtx) -> DurationAnalysis {
        let [intra, to3g, to2g] = self.per_type.map(|counts| counts.ecdf());
        DurationAnalysis { intra, to3g, to2g }
    }

    const SNAPSHOT_VERSION: u16 = 2;

    fn snapshot(&self, w: &mut SnapWriter) {
        for counts in &self.per_type {
            counts.snapshot(w);
        }
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        for counts in &mut self.per_type {
            counts.restore(r)?;
        }
        Ok(())
    }
}

/// Fig. 9 — distribution of handover-type shares across districts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistrictDistribution {
    /// Per district: `(district, intra share, →3G share, →2G share)`.
    pub per_district: Vec<(DistrictId, f64, f64, f64)>,
    /// Maximum intra share across districts (paper: 99.92%).
    pub max_intra_share: f64,
    /// Mean →3G share among the 6% least densely populated districts
    /// (paper: 26.5%).
    pub least_dense_to3g_mean: f64,
    /// Maximum →3G share across districts (paper: 58.1%).
    pub max_to3g_share: f64,
}

impl DistrictDistribution {
    /// Render summary.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new("Fig 9: HO types across districts", &["Metric", "Value"]);
        t.row_strs(&["Max district intra share", &pct(self.max_intra_share, 2)]);
        t.row_strs(&[
            "Mean ->3G share, 6% least-dense districts",
            &pct(self.least_dense_to3g_mean, 1),
        ]);
        t.row_strs(&["Max district ->3G share", &pct(self.max_to3g_share, 1)]);
        t
    }
}

impl FromDailyFrame for DistrictDistribution {
    fn from_daily_frame(frame: &SectorDayFrame, ctx: &SweepCtx) -> Self {
        // Per-district type counts, keyed by source-sector district.
        let mut counts = vec![[0u64; 3]; ctx.world.country.districts().len()];
        for o in frame.observations() {
            let d = ctx.world.topology.sector_district(o.sector);
            if let Some(row) = counts.get_mut(d.0 as usize) {
                row[o.ho_type.index()] += u64::from(o.hos);
            }
        }
        let per_district: Vec<(DistrictId, f64, f64, f64)> = ctx
            .world
            .country
            .districts()
            .iter()
            .map(|d| {
                let c = counts[d.id.0 as usize];
                let total = (c[0] + c[1] + c[2]).max(1) as f64;
                (d.id, c[0] as f64 / total, c[1] as f64 / total, c[2] as f64 / total)
            })
            .collect();
        // The 6% least densely populated districts.
        let least = ctx.world.census.least_dense(0.06);
        let least_to3g: Vec<f64> =
            least.iter().map(|row| per_district[row.district.0 as usize].2).collect();
        DistrictDistribution {
            max_intra_share: per_district.iter().map(|x| x.1).fold(0.0, f64::max),
            least_dense_to3g_mean: mean(&least_to3g).unwrap_or(0.0),
            max_to3g_share: per_district.iter().map(|x| x.2).fold(0.0, f64::max),
            per_district,
        }
    }
}

/// The [`DistrictDistribution`] pass: the daily frame, summed per
/// district at `end`.
pub type DistrictPass = DerivedPass<DistrictDistribution>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Sweep;
    use telco_sim::{run_study, SimConfig, StudyData};

    fn study() -> &'static StudyData {
        static CELL: std::sync::OnceLock<StudyData> = std::sync::OnceLock::new();
        CELL.get_or_init(|| {
            let mut cfg = SimConfig::tiny();
            cfg.n_ues = 800;
            cfg.threads = 0;
            run_study(cfg)
        })
    }

    #[test]
    fn type_table_shares_sum_to_one() {
        let t = Sweep::new(study()).run(HoTypePass::default).unwrap();
        let total: f64 = t.type_totals.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "totals {total}");
        assert!(t.intra_share() > 0.8);
        // Smartphones dominate handovers.
        assert!(t.device_totals[0] > 0.6);
        assert_eq!(t.table().len(), 4);
    }

    #[test]
    fn duration_ordering_matches_paper() {
        let d = Sweep::new(study()).run(DurationPass::default).unwrap();
        let intra_med = d.intra.as_ref().expect("successful intra HOs").median();
        assert!((20.0..90.0).contains(&intra_med), "intra median {intra_med}");
        if let Some(e3) = &d.to3g {
            assert!(e3.median() > 4.0 * intra_med, "3G must be ~10× slower");
        }
    }

    #[test]
    fn district_distribution_varies() {
        let d = Sweep::new(study()).run(DistrictPass::default).unwrap();
        assert!(d.max_intra_share > 0.9);
        assert!(
            d.least_dense_to3g_mean
                > d.per_district.iter().map(|x| x.2).sum::<f64>() / d.per_district.len() as f64,
            "least-dense districts must lean more on 3G"
        );
    }

    #[test]
    fn a_duration_of_u32_max_stays_out_of_the_dense_counts() {
        let s = study();
        let ctx = SweepCtx { world: &s.world, config: &s.config };
        let enriched = Enriched::new(&s.world);
        let record = HoRecord {
            timestamp_ms: 0,
            ue: telco_devices::population::UeId(0),
            source_sector: telco_topology::elements::SectorId(0),
            target_sector: telco_topology::elements::SectorId(1),
            source_rat: telco_topology::rat::Rat::G4,
            target_rat: telco_topology::rat::Rat::G4,
            outcome: telco_trace::record::HoOutcome::Success,
            cause: None,
            duration_ms: u32::MAX,
            srvcc: false,
            messages: 8,
        };
        let mut batch = ColumnBatch::new();
        batch.push_row(&record);
        batch.push_row(&HoRecord { duration_ms: 43, ..record });
        let mut pass = DurationPass::default();
        pass.begin(&ctx);
        pass.record_columns(&batch, &enriched);
        pass.record(&record, &enriched);
        assert!(pass.per_type[0].dense_len() <= crate::counts::DENSE_CAP as usize);
        let intra = pass.end(&ctx).intra.expect("three successes");
        assert_eq!(intra.counts(), &[(43, 1), (u32::MAX, 2)]);
        assert_eq!(intra.median(), f64::from(u32::MAX));
    }

    #[test]
    fn hostile_day_count_is_refused_before_allocating() {
        let mut w = SnapWriter::new();
        w.put_varint(1 << 40);
        let bytes = telco_trace::snap::encode_frame(HoTypePass::SNAPSHOT_VERSION, &w.into_bytes());
        assert_eq!(
            crate::sweep::restore_pass(&mut HoTypePass::default(), &bytes),
            Err(SnapError::Truncated)
        );
    }
}
