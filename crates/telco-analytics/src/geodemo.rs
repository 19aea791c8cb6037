//! §4.3 — Geodemographic segmentation: population inference from
//! night-time connectivity (Fig. 5) as a streaming pass, and the
//! HO-density vs population-density relationship (Fig. 6), derived from
//! the daily sector frame.

use serde::{Deserialize, Serialize};

use telco_geo::district::DistrictId;
use telco_stats::corr::{pearson, r_squared};
use telco_trace::columnar::ColumnBatch;
use telco_trace::hash::{FxHashMap, FxHashSet};
use telco_trace::record::HoRecord;
use telco_trace::snap::{SnapError, SnapReader, SnapWriter};

use crate::frame::{DerivedPass, Enriched, FromDailyFrame, SectorDayFrame};
use crate::sweep::{AnalysisPass, SweepCtx};
use crate::tables::{num, TextTable};

/// Fig. 5 — census population vs population inferred from the MNO data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationInference {
    /// Per district: `(census population, inferred UE count)`.
    pub per_district: Vec<(DistrictId, u64, u64)>,
    /// R² of the linear census ~ inferred relationship (paper: 0.92).
    pub r_squared: f64,
    /// UEs whose home could be inferred.
    pub inferred_ues: usize,
}

/// Night window for home inference (§4.3: 00:00–08:00).
const NIGHT_END_HOUR: u32 = 8;

/// Days of distinct presence a UE needs before its home is inferred
/// (paper: 14 of 28; scaled down to half the study for short runs).
pub const DEFAULT_MIN_DAYS: u32 = 14;

impl PopulationInference {
    /// Render summary.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Fig 5: Census vs inferred population (district level)",
            &["Metric", "Value"],
        );
        t.row_strs(&["R² (census ~ inferred)", &num(self.r_squared, 3)]);
        t.row_strs(&["UEs with inferred home", &self.inferred_ues.to_string()]);
        t.row_strs(&["Districts", &self.per_district.len().to_string()]);
        t
    }
}

/// Streaming accumulator for [`PopulationInference`]: infers each UE's home
/// district from its main night-time cell site, requiring presence on
/// `min_days` distinct days (paper: 14 of 28), then compares district
/// aggregates against the census in [`AnalysisPass::end`].
///
/// This is the hash-heaviest pass of a full study (three map operations
/// per record), so all three accumulators are flat [`FxHashMap`]s over
/// packed integer keys — one cheap multiply-xor probe each — instead of
/// nested SipHash maps.
#[derive(Debug)]
pub struct PopulationPass {
    min_days: u32,
    /// `ue << 16 | district` → night dwell count.
    per_ue: FxHashMap<u64, u32>,
    /// `ue << 32 | day` pairs the UE was seen on.
    ue_days: FxHashSet<u64>,
    /// `ue << 32 | day` → district of the first recorded source sector
    /// that day.
    first_of_day: FxHashMap<u64, u16>,
}

impl PopulationPass {
    /// A pass with the given presence threshold (see [`DEFAULT_MIN_DAYS`]).
    pub fn new(min_days: u32) -> Self {
        PopulationPass {
            min_days,
            per_ue: FxHashMap::default(),
            ue_days: FxHashSet::default(),
            first_of_day: FxHashMap::default(),
        }
    }

    #[inline]
    fn observe(&mut self, ue: u32, district: u16, day: u32, hour: u32) {
        let ue_day = (u64::from(ue) << 32) | u64::from(day);
        if hour < NIGHT_END_HOUR {
            let key = (u64::from(ue) << 16) | u64::from(district);
            *self.per_ue.entry(key).or_insert(0) += 1;
            self.ue_days.insert(ue_day);
        }
        // Night handovers are sparse for static UEs; the paper uses *all*
        // night-time connectivity. Our equivalent observable is the UE's
        // home anchor expressed through its mobility rows: UEs with no
        // night records fall back to the most-visited district overall —
        // approximated by their first recorded source sector of each day.
        self.first_of_day.entry(ue_day).or_insert(district);
    }
}

impl Default for PopulationPass {
    fn default() -> Self {
        PopulationPass::new(DEFAULT_MIN_DAYS)
    }
}

impl AnalysisPass for PopulationPass {
    type Output = PopulationInference;

    fn record(&mut self, r: &HoRecord, e: &Enriched) {
        self.observe(r.ue.0, e.district(r).0, r.day(), r.hour());
    }

    // telco-lint: deny-alloc(begin)
    fn record_columns(&mut self, batch: &ColumnBatch, e: &Enriched) {
        let rows = batch.timestamps().iter().zip(batch.ues()).zip(batch.source_sectors());
        for ((&ts, &ue), &sector) in rows {
            let day = (ts / 86_400_000) as u32;
            let hour = ((ts % 86_400_000) / 3_600_000) as u32;
            self.observe(ue, e.district_of(sector).0, day, hour);
        }
    }
    // telco-lint: deny-alloc(end)

    fn merge(&mut self, other: Self, _ctx: &SweepCtx) {
        for (key, c) in other.per_ue {
            *self.per_ue.entry(key).or_insert(0) += c;
        }
        self.ue_days.extend(other.ue_days);
        // Partitions arrive in trace order, so an existing entry always
        // predates `other`'s and wins the "first of the day" race.
        for (key, district) in other.first_of_day {
            self.first_of_day.entry(key).or_insert(district);
        }
    }

    fn end(self, ctx: &SweepCtx) -> PopulationInference {
        let mut per_ue = self.per_ue;
        let mut ue_days = self.ue_days;
        for (&ue_day, &district) in &self.first_of_day {
            let ue = (ue_day >> 32) as u32;
            *per_ue.entry((u64::from(ue) << 16) | u64::from(district)).or_insert(0) += 1;
            ue_days.insert(ue_day);
        }

        // Distinct active days per UE.
        let mut days_per_ue: FxHashMap<u32, u32> = FxHashMap::default();
        for &ue_day in &ue_days {
            *days_per_ue.entry((ue_day >> 32) as u32).or_insert(0) += 1;
        }

        // Best district per UE; ties break toward the lowest district
        // id, not hash order. Dwell counts are ≥ 1, so (0, MAX) can
        // never be mistaken for a real observation.
        let mut best: FxHashMap<u32, (u32, u16)> = FxHashMap::default();
        for (&key, &count) in &per_ue {
            let (ue, district) = ((key >> 16) as u32, (key & 0xFFFF) as u16);
            let entry = best.entry(ue).or_insert((0, u16::MAX));
            if count > entry.0 || (count == entry.0 && district < entry.1) {
                *entry = (count, district);
            }
        }

        let scaled_min = self.min_days.min(ctx.config.n_days / 2);
        let mut inferred: FxHashMap<u16, u64> = FxHashMap::default();
        let mut inferred_ues = 0usize;
        for (&ue, &(_, district)) in &best {
            if days_per_ue.get(&ue).copied().unwrap_or(0) < scaled_min {
                continue;
            }
            *inferred.entry(district).or_insert(0) += 1;
            inferred_ues += 1;
        }

        let per_district: Vec<(DistrictId, u64, u64)> = ctx
            .world
            .country
            .districts()
            .iter()
            .map(|d| (d.id, d.population, inferred.get(&d.id.0).copied().unwrap_or(0)))
            .collect();
        let census: Vec<f64> = per_district.iter().map(|&(_, c, _)| c as f64).collect();
        let inferred_v: Vec<f64> = per_district.iter().map(|&(_, _, i)| i as f64).collect();
        PopulationInference {
            r_squared: r_squared(&inferred_v, &census).unwrap_or(0.0),
            per_district,
            inferred_ues,
        }
    }

    const SNAPSHOT_VERSION: u16 = 1;

    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_u32(self.min_days);
        // Hash maps encode in sorted-key order so identical logical
        // state always yields identical bytes, whatever the insertion
        // history of either map.
        let mut per_ue: Vec<(u64, u32)> = self.per_ue.iter().map(|(&k, &v)| (k, v)).collect();
        per_ue.sort_unstable_by_key(|&(k, _)| k);
        w.put_varint(per_ue.len() as u64);
        for (key, dwell) in per_ue {
            w.put_varint(key);
            w.put_varint(u64::from(dwell));
        }
        let mut ue_days: Vec<u64> = self.ue_days.iter().copied().collect();
        ue_days.sort_unstable();
        w.put_u64s(&ue_days);
        let mut first: Vec<(u64, u16)> = self.first_of_day.iter().map(|(&k, &v)| (k, v)).collect();
        first.sort_unstable_by_key(|&(k, _)| k);
        w.put_varint(first.len() as u64);
        for (key, district) in first {
            w.put_varint(key);
            w.put_u16(district);
        }
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.min_days = r.get_u32()?;
        // Two varints per entry.
        let n = r.get_count(2)?;
        self.per_ue = FxHashMap::default();
        self.per_ue.reserve(n);
        for _ in 0..n {
            let key = r.get_varint()?;
            let dwell = u32::try_from(r.get_varint()?)
                .map_err(|_| SnapError::Malformed("dwell count overflow"))?;
            self.per_ue.insert(key, dwell);
        }
        let days = r.get_u64s()?;
        self.ue_days = FxHashSet::default();
        self.ue_days.reserve(days.len());
        self.ue_days.extend(days);
        // A varint and a u16 per entry.
        let n = r.get_count(3)?;
        self.first_of_day = FxHashMap::default();
        self.first_of_day.reserve(n);
        for _ in 0..n {
            let key = r.get_varint()?;
            let district = r.get_u16()?;
            self.first_of_day.insert(key, district);
        }
        Ok(())
    }
}

/// Fig. 6 — daily handovers per km² vs population density, per district.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HoDensity {
    /// Per district: `(district, daily HOs per km², residents per km²)`.
    pub per_district: Vec<(DistrictId, f64, f64)>,
    /// Pearson correlation between the two densities (paper: 0.97).
    pub pearson: f64,
    /// Maximum district HO density (the capital's urban core in the
    /// paper: 2.1M/km² daily).
    pub max_density: f64,
    /// Minimum district HO density (paper: 60/km²).
    pub min_density: f64,
    /// District-level mean HO density (paper: 13.1k/km²).
    pub mean_density: f64,
}

impl HoDensity {
    /// Ratio between mean and minimum densities (the paper's ">200× lower
    /// than the mean" contrast).
    pub fn mean_to_min_ratio(&self) -> f64 {
        if self.min_density > 0.0 {
            self.mean_density / self.min_density
        } else {
            f64::INFINITY
        }
    }

    /// Render summary.
    pub fn table(&self) -> TextTable {
        let mut t =
            TextTable::new("Fig 6: Daily HOs per km² vs population density", &["Metric", "Value"]);
        t.row_strs(&["Pearson(HO density, pop density)", &num(self.pearson, 3)]);
        t.row_strs(&["Max district HO density (/km²/day)", &num(self.max_density, 1)]);
        t.row_strs(&["Min district HO density (/km²/day)", &num(self.min_density, 3)]);
        t.row_strs(&["Mean district HO density (/km²/day)", &num(self.mean_density, 1)]);
        t
    }
}

impl FromDailyFrame for HoDensity {
    fn from_daily_frame(frame: &SectorDayFrame, ctx: &SweepCtx) -> Self {
        let mut per_district_hos = vec![0u64; ctx.world.country.districts().len()];
        for o in frame.observations() {
            let d = ctx.world.topology.sector_district(o.sector);
            if let Some(count) = per_district_hos.get_mut(d.0 as usize) {
                *count += u64::from(o.hos);
            }
        }
        let days = ctx.config.n_days.max(1) as f64;
        let per_district: Vec<(DistrictId, f64, f64)> = ctx
            .world
            .country
            .districts()
            .iter()
            .map(|d| {
                let hos_per_km2 = per_district_hos[d.id.0 as usize] as f64 / days / d.area_km2;
                (d.id, hos_per_km2, d.population_density())
            })
            .collect();
        let ho: Vec<f64> = per_district.iter().map(|&(_, h, _)| h).collect();
        let pop: Vec<f64> = per_district.iter().map(|&(_, _, p)| p).collect();
        let mean = ho.iter().sum::<f64>() / ho.len().max(1) as f64;
        HoDensity {
            pearson: pearson(&ho, &pop).unwrap_or(0.0),
            max_density: ho.iter().copied().fold(0.0, f64::max),
            min_density: ho.iter().copied().fold(f64::INFINITY, f64::min),
            mean_density: mean,
            per_district,
        }
    }
}

/// The [`HoDensity`] pass: the daily frame, summed per district at `end`.
pub type HoDensityPass = DerivedPass<HoDensity>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Sweep;
    use telco_sim::{run_study, SimConfig, StudyData};

    fn study() -> StudyData {
        run_study(SimConfig::tiny())
    }

    #[test]
    fn population_inference_correlates_with_census() {
        let s = study();
        let inf = Sweep::new(&s).run(PopulationPass::default).unwrap();
        assert!(inf.inferred_ues > 0, "no homes inferred");
        assert!(inf.r_squared > 0.5, "census correlation too weak: R² = {}", inf.r_squared);
    }

    #[test]
    fn ho_density_positively_correlates() {
        let s = study();
        let d = Sweep::new(&s).run(HoDensityPass::default).unwrap();
        assert!(d.pearson > 0.5, "Pearson {}", d.pearson);
        assert!(d.max_density > d.mean_density);
        assert!(d.mean_density >= d.min_density);
        assert_eq!(d.per_district.len(), s.world.country.districts().len());
    }

    #[test]
    fn tables_render() {
        let s = study();
        let sweep = Sweep::new(&s);
        assert!(sweep.run(PopulationPass::default).unwrap().table().to_string().contains("R²"));
        assert!(sweep.run(HoDensityPass::default).unwrap().table().to_string().contains("Pearson"));
    }

    #[test]
    fn hostile_lengths_are_refused_before_allocating() {
        let restore = |payload: Vec<u8>| {
            let bytes = telco_trace::snap::encode_frame(PopulationPass::SNAPSHOT_VERSION, &payload);
            crate::sweep::restore_pass(&mut PopulationPass::default(), &bytes)
        };
        // The dwell map, then (after no dwells and no UE-days) the
        // first-of-day map.
        for zeros in [0, 2] {
            let mut w = SnapWriter::new();
            w.put_u32(5);
            for _ in 0..zeros {
                w.put_varint(0);
            }
            w.put_varint(1 << 40);
            assert_eq!(restore(w.into_bytes()), Err(SnapError::Truncated), "{zeros}");
        }
    }
}
