//! §5.1 — Geo-temporal analysis (Fig. 7): weekly handover and
//! active-sector curves at 30-minute granularity, split urban/rural and
//! normalized by the period maximum (as the MNO's privacy rules require).

use serde::{Deserialize, Serialize};

use telco_geo::postcode::AreaType;
use telco_mobility::schedule::DayOfWeek;
use telco_stats::corr::pearson;
use telco_trace::columnar::ColumnBatch;
use telco_trace::record::HoRecord;
use telco_trace::snap::{SnapError, SnapReader, SnapWriter};

use crate::bitset::IdSet;
use crate::frame::Enriched;
use crate::sweep::{AnalysisPass, SweepCtx};
use crate::tables::{num, TextTable};

/// 30-minute slots per week.
pub const SLOTS_PER_WEEK: usize = 48 * 7;

/// One weekly curve: average, minimum and maximum across the study's weeks
/// for each 30-minute slot of the week.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeeklyCurve {
    /// Mean value per slot of week.
    pub mean: Vec<f64>,
    /// Minimum across weeks.
    pub min: Vec<f64>,
    /// Maximum across weeks.
    pub max: Vec<f64>,
}

impl WeeklyCurve {
    fn from_weeks(weeks: &[Vec<f64>]) -> Self {
        let n = SLOTS_PER_WEEK;
        let mut mean = vec![0.0; n];
        let mut min = vec![f64::INFINITY; n];
        let mut max = vec![0.0f64; n];
        for week in weeks {
            for (i, &v) in week.iter().enumerate() {
                mean[i] += v;
                min[i] = min[i].min(v);
                max[i] = max[i].max(v);
            }
        }
        let k = weeks.len().max(1) as f64;
        for v in &mut mean {
            *v /= k;
        }
        for v in &mut min {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        WeeklyCurve { mean, min, max }
    }

    /// Normalize all three series by the global maximum of `mean`.
    fn normalize(&mut self) {
        let peak = self.mean.iter().copied().fold(0.0f64, f64::max).max(1e-9);
        for series in [&mut self.mean, &mut self.min, &mut self.max] {
            for v in series.iter_mut() {
                *v /= peak;
            }
        }
    }

    /// Value at `(day-of-week, slot-of-day)`.
    pub fn at(&self, day: DayOfWeek, slot: usize) -> f64 {
        self.mean[day.index() * 48 + slot]
    }

    /// The slot-of-week index with maximum mean.
    pub fn peak_slot(&self) -> usize {
        (0..SLOTS_PER_WEEK)
            .max_by(|&a, &b| self.mean[a].partial_cmp(&self.mean[b]).expect("finite"))
            .expect("nonempty")
    }
}

/// Fig. 7 — temporal evolution of HOs (top) and active sectors (bottom),
/// urban and rural.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemporalEvolution {
    /// Normalized HO counts, urban.
    pub hos_urban: WeeklyCurve,
    /// Normalized HO counts, rural.
    pub hos_rural: WeeklyCurve,
    /// Normalized active-sector counts, urban.
    pub active_urban: WeeklyCurve,
    /// Normalized active-sector counts, rural.
    pub active_rural: WeeklyCurve,
    /// Share of all HOs occurring in urban areas (paper: 78%).
    pub urban_ho_share: f64,
    /// Pearson correlation between HO counts and active sectors (paper:
    /// 0.9).
    pub ho_active_correlation: f64,
    /// Sunday-vs-Friday peak drop (paper: ≈33%).
    pub sunday_vs_friday_drop: f64,
    /// Ratio of the 8:00 weekday level to the 6:00 level (paper: ×3).
    pub morning_surge: f64,
}

impl TemporalEvolution {
    /// Render the summary statistics (the curves themselves are series).
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Fig 7: Temporal evolution of HOs & active sectors",
            &["Metric", "Value"],
        );
        t.row_strs(&["Urban share of HOs", &num(100.0 * self.urban_ho_share, 1)]);
        t.row_strs(&["Pearson(HOs, active sectors)", &num(self.ho_active_correlation, 3)]);
        t.row_strs(&["Sunday vs Friday peak drop", &num(100.0 * self.sunday_vs_friday_drop, 1)]);
        t.row_strs(&["Morning surge 6:00→8:00 (×)", &num(self.morning_surge, 2)]);
        let peak = self.hos_urban.peak_slot();
        t.row_strs(&[
            "Urban peak (day, slot)",
            &format!("{} {:02}:{:02}", DayOfWeek::ALL[peak / 48], (peak % 48) / 2, (peak % 2) * 30),
        ]);
        t
    }
}

/// Streaming accumulator for [`TemporalEvolution`]. Postcodes lacking
/// reliable census data are dropped, as in the paper (§5.1 footnote).
/// Merges add integer counts and union active-sector sets slot by slot,
/// so a merge at any split point gives exactly the sequential result.
#[derive(Debug, Default)]
pub struct TemporalPass {
    n_weeks: usize,
    /// `ho_weeks[area][week][slot_of_week]`, integer-valued counts.
    ho_weeks: [Vec<Vec<f64>>; 2],
    /// Active sectors: distinct sectors with ≥1 HO per slot (sector ids
    /// are dense, so a bitmap beats hashing in the record loop).
    active: Vec<[IdSet; 2]>,
    urban_total: u64,
    total: u64,
}

impl TemporalPass {
    #[inline]
    fn observe(&mut self, ts: u64, sector: u32, e: &Enriched) {
        if !e.reliable_of(sector) {
            return;
        }
        let area = e.area_of(sector);
        let day = (ts / 86_400_000) as u32;
        let week = (day / 7) as usize;
        if week >= self.n_weeks {
            return;
        }
        let slot_of_week = (day % 7) as usize * 48 + ((ts % 86_400_000) / 1_800_000) as usize;
        let ai = area.index().min(1);
        if let Some(week_slots) = self.ho_weeks[ai].get_mut(week) {
            if let Some(v) = week_slots.get_mut(slot_of_week) {
                *v += 1.0;
            }
        }
        if let Some(sets) = self.active.get_mut(week * SLOTS_PER_WEEK + slot_of_week) {
            sets[ai].insert(sector);
        }
        self.total += 1;
        if area == AreaType::Urban {
            self.urban_total += 1;
        }
    }
}

impl AnalysisPass for TemporalPass {
    type Output = TemporalEvolution;

    fn begin(&mut self, ctx: &SweepCtx) {
        self.n_weeks = ctx.config.n_days.div_ceil(7).max(1) as usize;
        self.ho_weeks = [
            vec![vec![0.0; SLOTS_PER_WEEK]; self.n_weeks],
            vec![vec![0.0; SLOTS_PER_WEEK]; self.n_weeks],
        ];
        self.active = Vec::new();
        self.active.resize_with(self.n_weeks * SLOTS_PER_WEEK, Default::default);
        self.urban_total = 0;
        self.total = 0;
    }

    fn record(&mut self, r: &HoRecord, e: &Enriched) {
        self.observe(r.timestamp_ms, r.source_sector.0, e);
    }

    // telco-lint: deny-alloc(begin)
    fn record_columns(&mut self, batch: &ColumnBatch, e: &Enriched) {
        for (&ts, &sector) in batch.timestamps().iter().zip(batch.source_sectors()) {
            self.observe(ts, sector, e);
        }
    }
    // telco-lint: deny-alloc(end)

    fn merge(&mut self, other: Self, _ctx: &SweepCtx) {
        for (mine, theirs) in self.ho_weeks.iter_mut().zip(other.ho_weeks) {
            for (week, t_week) in mine.iter_mut().zip(theirs) {
                for (v, t) in week.iter_mut().zip(t_week) {
                    *v += t;
                }
            }
        }
        for (mine, theirs) in self.active.iter_mut().zip(other.active) {
            for (set, t) in mine.iter_mut().zip(theirs) {
                set.union(&t);
            }
        }
        self.urban_total += other.urban_total;
        self.total += other.total;
    }

    fn end(self, _ctx: &SweepCtx) -> TemporalEvolution {
        let n_weeks = self.n_weeks;
        let active_weeks: [Vec<Vec<f64>>; 2] = [0, 1].map(|ai| {
            (0..n_weeks)
                .map(|w| {
                    (0..SLOTS_PER_WEEK)
                        .map(|s| self.active[w * SLOTS_PER_WEEK + s][ai].len() as f64)
                        .collect()
                })
                .collect()
        });

        let mut hos_urban = WeeklyCurve::from_weeks(&self.ho_weeks[0]);
        let mut hos_rural = WeeklyCurve::from_weeks(&self.ho_weeks[1]);
        let mut active_urban = WeeklyCurve::from_weeks(&active_weeks[0]);
        let mut active_rural = WeeklyCurve::from_weeks(&active_weeks[1]);

        // Correlation before normalization (it is scale-free anyway).
        let combined_hos: Vec<f64> =
            (0..SLOTS_PER_WEEK).map(|i| hos_urban.mean[i] + hos_rural.mean[i]).collect();
        let combined_active: Vec<f64> =
            (0..SLOTS_PER_WEEK).map(|i| active_urban.mean[i] + active_rural.mean[i]).collect();
        let correlation = pearson(&combined_hos, &combined_active).unwrap_or(0.0);

        let peak_of_day = |day: DayOfWeek| -> f64 {
            (0..48).map(|s| combined_hos[day.index() * 48 + s]).fold(0.0f64, f64::max)
        };
        let friday = peak_of_day(DayOfWeek::Friday);
        let sunday = peak_of_day(DayOfWeek::Sunday);
        // Average weekday 6:00 vs 8:00 levels.
        let weekday_level =
            |slot: usize| -> f64 { (0..5).map(|d| combined_hos[d * 48 + slot]).sum::<f64>() / 5.0 };
        let morning_surge = weekday_level(16) / weekday_level(12).max(1e-9);

        hos_urban.normalize();
        hos_rural.normalize();
        active_urban.normalize();
        active_rural.normalize();

        TemporalEvolution {
            hos_urban,
            hos_rural,
            active_urban,
            active_rural,
            urban_ho_share: self.urban_total as f64 / self.total.max(1) as f64,
            ho_active_correlation: correlation,
            sunday_vs_friday_drop: 1.0 - sunday / friday.max(1e-9),
            morning_surge,
        }
    }

    const SNAPSHOT_VERSION: u16 = 2;

    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_varint(self.n_weeks as u64);
        for area in &self.ho_weeks {
            w.put_varint(area.len() as u64);
            for week in area {
                w.put_f64s(week);
            }
        }
        w.put_varint(self.active.len() as u64);
        for slot in &self.active {
            for set in slot {
                set.snapshot(w);
            }
        }
        w.put_varint(self.urban_total);
        w.put_varint(self.total);
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.n_weeks = r.get_len()?;
        for area in &mut self.ho_weeks {
            let weeks = r.get_count(1)?;
            *area = Vec::with_capacity(weeks);
            for _ in 0..weeks {
                area.push(r.get_f64s()?);
            }
        }
        // Two sets of at least a byte each per slot.
        let slots = r.get_count(2)?;
        self.active = Vec::new();
        self.active.resize_with(slots, Default::default);
        for slot in &mut self.active {
            for set in slot {
                set.restore(r)?;
            }
        }
        self.urban_total = r.get_varint()?;
        self.total = r.get_varint()?;
        // `end` indexes every slot of every week, so the shapes must agree.
        let slots = self.n_weeks.checked_mul(SLOTS_PER_WEEK);
        let weeks_fit = self.ho_weeks.iter().all(|area| {
            area.len() == self.n_weeks && area.iter().all(|week| week.len() == SLOTS_PER_WEEK)
        });
        if !weeks_fit || slots != Some(self.active.len()) {
            return Err(SnapError::Malformed("temporal grid shape"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Sweep;
    use telco_sim::{run_study, SimConfig};

    fn evolution() -> TemporalEvolution {
        // A one-week study so every day of week is populated.
        let mut cfg = SimConfig::tiny();
        cfg.n_ues = 600;
        cfg.n_days = 7;
        let data = run_study(cfg);
        Sweep::new(&data).run(TemporalPass::default).unwrap()
    }

    #[test]
    fn urban_dominates_handovers() {
        let e = evolution();
        assert!(e.urban_ho_share > 0.55, "urban HO share {} too low", e.urban_ho_share);
    }

    #[test]
    fn hos_and_active_sectors_correlate() {
        let e = evolution();
        assert!(e.ho_active_correlation > 0.6, "corr {}", e.ho_active_correlation);
    }

    #[test]
    fn weekday_peak_in_business_hours() {
        let e = evolution();
        let peak = e.hos_urban.peak_slot();
        let day = peak / 48;
        let slot = peak % 48;
        assert!(day < 5, "peak on a weekend day {day}");
        assert!((12..36).contains(&slot), "peak slot {slot} outside daytime");
    }

    #[test]
    fn sunday_quieter_than_friday() {
        let e = evolution();
        assert!(e.sunday_vs_friday_drop > 0.1, "Sunday drop {}", e.sunday_vs_friday_drop);
    }

    #[test]
    fn morning_surge_exists() {
        let e = evolution();
        assert!(e.morning_surge > 1.5, "surge ×{}", e.morning_surge);
    }

    #[test]
    fn curves_normalized_to_unit_peak() {
        let e = evolution();
        let m = e.hos_urban.mean.iter().copied().fold(0.0f64, f64::max);
        assert!((m - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hostile_lengths_are_refused_before_allocating() {
        let restore = |payload: Vec<u8>| {
            let bytes = telco_trace::snap::encode_frame(TemporalPass::SNAPSHOT_VERSION, &payload);
            crate::sweep::restore_pass(&mut TemporalPass::default(), &bytes)
        };
        // The weeks of the urban area, then the active-sector slots.
        for zeros in [1, 3] {
            let mut w = SnapWriter::new();
            for _ in 0..zeros {
                w.put_varint(0);
            }
            w.put_varint(1 << 40);
            assert_eq!(restore(w.into_bytes()), Err(SnapError::Truncated), "{zeros}");
        }
    }
}
