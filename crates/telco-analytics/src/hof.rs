//! §6.1 / §6.2 — HOF patterns (Fig. 12) and the cause analysis
//! (Figs. 14–15), as streaming passes.

use serde::{Deserialize, Serialize};

use telco_devices::types::{DeviceType, Manufacturer};
use telco_geo::postcode::AreaType;
use telco_signaling::causes::{CauseCode, PrincipalCause};
use telco_signaling::messages::HoType;
use telco_stats::boxplot::BoxplotStats;
use telco_stats::ecdf::CountEcdf;
use telco_trace::columnar::{ColumnBatch, FLAG_FAILURE};
use telco_trace::hash::FxHashSet;
use telco_trace::record::HoRecord;
use telco_trace::snap::{SnapError, SnapReader, SnapWriter};

use crate::bitset::IdSet;
use crate::counts::MsCounts;
use crate::frame::Enriched;
use crate::sweep::{AnalysisPass, SweepCtx};
use crate::tables::{num, pct, TextTable};

/// Fig. 12 — hourly HOF counts, urban vs rural, normalized by the number
/// of active sectors in each class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HofPatterns {
    /// Per hour (0..24): boxplot of daily normalized HOF counts, urban.
    pub urban: Vec<Option<BoxplotStats>>,
    /// Per hour: boxplot of daily normalized HOF counts, rural.
    pub rural: Vec<Option<BoxplotStats>>,
    /// Ratio of rural to urban median normalized HOFs during the morning
    /// peak [7:00–8:00) (paper: rural is 32.4% higher).
    pub rural_morning_excess: f64,
}

impl HofPatterns {
    /// Render per-hour medians.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Fig 12: HOFs per hour, normalized by active sectors",
            &["Hour", "Urban median", "Rural median"],
        );
        for hour in 0..24 {
            t.row(&[
                format!("{hour:02}:00"),
                self.urban[hour].as_ref().map_or("-".into(), |b| num(b.median, 4)),
                self.rural[hour].as_ref().map_or("-".into(), |b| num(b.median, 4)),
            ]);
        }
        t
    }
}

/// Streaming accumulator for [`HofPatterns`]: per (day, hour, area) HOF
/// counts and active-sector sets. Merges add counts and union sets slot
/// by slot, so they are exact at any split point.
#[derive(Debug, Default)]
pub struct HofPatternsPass {
    hofs: Vec<[u32; 2]>,
    active: Vec<[IdSet; 2]>,
}

impl HofPatternsPass {
    #[inline]
    fn observe(&mut self, ts: u64, sector: u32, fail: bool, e: &Enriched) {
        let day = (ts / 86_400_000) as usize;
        let hour = ((ts % 86_400_000) / 3_600_000) as usize;
        let idx = day * 24 + hour;
        if idx >= self.hofs.len() {
            return;
        }
        let ai = e.area_of(sector).index();
        self.active[idx][ai].insert(sector);
        if fail {
            self.hofs[idx][ai] += 1;
        }
    }
}

impl AnalysisPass for HofPatternsPass {
    type Output = HofPatterns;

    fn begin(&mut self, ctx: &SweepCtx) {
        let slots = ctx.config.n_days.max(1) as usize * 24;
        self.hofs = vec![[0u32; 2]; slots];
        self.active = Vec::new();
        self.active.resize_with(slots, Default::default);
    }

    fn record(&mut self, r: &HoRecord, e: &Enriched) {
        self.observe(r.timestamp_ms, r.source_sector.0, r.is_failure(), e);
    }

    // telco-lint: deny-alloc(begin)
    fn record_columns(&mut self, batch: &ColumnBatch, e: &Enriched) {
        let rows = batch.timestamps().iter().zip(batch.source_sectors()).zip(batch.flags());
        for ((&ts, &sector), &flags) in rows {
            self.observe(ts, sector, flags & FLAG_FAILURE != 0, e);
        }
    }
    // telco-lint: deny-alloc(end)

    fn merge(&mut self, other: Self, _ctx: &SweepCtx) {
        for (mine, theirs) in self.hofs.iter_mut().zip(other.hofs) {
            for (c, t) in mine.iter_mut().zip(theirs) {
                *c += t;
            }
        }
        for (mine, theirs) in self.active.iter_mut().zip(other.active) {
            for (set, t) in mine.iter_mut().zip(theirs) {
                set.union(&t);
            }
        }
    }

    fn end(self, ctx: &SweepCtx) -> HofPatterns {
        let n_days = ctx.config.n_days.max(1) as usize;
        // Normalized per-day samples per hour.
        let mut urban_samples: Vec<Vec<f64>> = vec![Vec::new(); 24];
        let mut rural_samples: Vec<Vec<f64>> = vec![Vec::new(); 24];
        for day in 0..n_days {
            for hour in 0..24 {
                let idx = day * 24 + hour;
                for (ai, samples) in [(0, &mut urban_samples), (1, &mut rural_samples)] {
                    let n_active = self.active[idx][ai].len();
                    if n_active > 0 {
                        samples[hour].push(self.hofs[idx][ai] as f64 / n_active as f64);
                    }
                }
            }
        }
        let median_at = |samples: &[Vec<f64>], hour: usize| -> f64 {
            BoxplotStats::of(&samples[hour]).map_or(0.0, |b| b.median)
        };
        let urban_peak = median_at(&urban_samples, 7);
        let rural_peak = median_at(&rural_samples, 7);
        HofPatterns {
            rural_morning_excess: if urban_peak > 0.0 {
                rural_peak / urban_peak - 1.0
            } else {
                f64::INFINITY
            },
            urban: urban_samples.iter().map(|s| BoxplotStats::of(s)).collect(),
            rural: rural_samples.iter().map(|s| BoxplotStats::of(s)).collect(),
        }
    }

    const SNAPSHOT_VERSION: u16 = 2;

    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_varint(self.hofs.len() as u64);
        for slot in &self.hofs {
            for &c in slot {
                w.put_varint(u64::from(c));
            }
        }
        w.put_varint(self.active.len() as u64);
        for slot in &self.active {
            for set in slot {
                set.snapshot(w);
            }
        }
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        // Two varints, or two sets of at least a byte each, per slot.
        let slots = r.get_count(2)?;
        self.hofs = vec![[0u32; 2]; slots];
        for slot in &mut self.hofs {
            for c in slot {
                *c = u32::try_from(r.get_varint()?)
                    .map_err(|_| SnapError::Malformed("hof count overflow"))?;
            }
        }
        let slots = r.get_count(2)?;
        self.active = Vec::new();
        self.active.resize_with(slots, Default::default);
        for slot in &mut self.active {
            for set in slot {
                set.restore(r)?;
            }
        }
        Ok(())
    }
}

/// Figs. 14–15 — the cause analysis: shares per cause, durations per
/// cause, and the conditioned (stacked-bar) splits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CauseAnalysis {
    /// Share of total HOFs per principal cause (index = cause number − 1)
    /// plus the long tail in slot 8 — mean over days.
    pub shares: [f64; 9],
    /// Daily min of each share.
    pub shares_min: [f64; 9],
    /// Daily max of each share.
    pub shares_max: [f64; 9],
    /// Share of all HOFs occurring on →3G handovers (paper: 75%).
    pub to3g_failure_share: f64,
    /// Share on →2G (paper: 0.03%).
    pub to2g_failure_share: f64,
    /// Distinct cause codes observed (paper collects 1k+).
    pub distinct_causes: usize,
    /// Duration ECDF per principal cause, over whole milliseconds (None
    /// when unobserved).
    pub durations: Vec<Option<CountEcdf>>,
    /// Cause shares conditioned on area type (`[area][cause]`).
    pub by_area: [[f64; 9]; 2],
    /// Cause shares conditioned on device type (`[device][cause]`).
    pub by_device: [[f64; 9]; 3],
    /// Cause shares for the top-5 smartphone manufacturers
    /// (`[mfr index in TOP5][cause]`).
    pub by_top5_manufacturer: Vec<(Manufacturer, [f64; 9])>,
}

fn cause_slot(cause: CauseCode) -> usize {
    cause.as_principal().map_or(8, |p| p.index())
}

impl CauseAnalysis {
    /// Combined share of the 8 principal causes (paper: 92%).
    pub fn principal_share(&self) -> f64 {
        self.shares[..8].iter().sum()
    }

    /// Render Fig. 14a.
    pub fn table_shares(&self) -> TextTable {
        let mut t = TextTable::new(
            "Fig 14a: HOF cause shares (% of all HOFs)",
            &["Cause", "mean", "min", "max"],
        );
        for c in PrincipalCause::ALL {
            let i = c.index();
            t.row(&[
                format!("#{} {}", c.number(), c.description()),
                pct(self.shares[i], 1),
                pct(self.shares_min[i], 1),
                pct(self.shares_max[i], 1),
            ]);
        }
        t.row(&[
            "Long tail (vendor sub-causes)".to_string(),
            pct(self.shares[8], 1),
            pct(self.shares_min[8], 1),
            pct(self.shares_max[8], 1),
        ]);
        t
    }

    /// Render Fig. 14b.
    pub fn table_durations(&self) -> TextTable {
        let mut t = TextTable::new(
            "Fig 14b: HO signaling time per failure cause (ms)",
            &["Cause", "median", "p95"],
        );
        for c in PrincipalCause::ALL {
            if let Some(e) = &self.durations[c.index()] {
                t.row(&[format!("#{}", c.number()), num(e.median(), 0), num(e.quantile(0.95), 0)]);
            }
        }
        t
    }

    /// Render Fig. 15 (conditioned stacked bars, as rows).
    pub fn table_stacked(&self) -> TextTable {
        let mut t = TextTable::new(
            "Fig 15: Cause mix by area / device type / top-5 manufacturer",
            &["Split", "#1", "#2", "#3", "#4", "#5", "#6", "#7", "#8", "tail"],
        );
        let mut push = |label: String, s: &[f64; 9]| {
            let mut row = vec![label];
            row.extend(s.iter().map(|&v| pct(v, 1)));
            t.row(&row);
        };
        push("Urban".into(), &self.by_area[AreaType::Urban.index()]);
        push("Rural".into(), &self.by_area[AreaType::Rural.index()]);
        for d in DeviceType::ALL {
            push(d.to_string(), &self.by_device[d.index()]);
        }
        for (m, s) in &self.by_top5_manufacturer {
            push(m.to_string(), s);
        }
        t
    }
}

/// Streaming accumulator for [`CauseAnalysis`]. Only failure records
/// contribute; successes fall through [`AnalysisPass::record`] untouched.
/// Per-manufacturer cells sit in a flat catalog-indexed vector and the
/// distinct-cause set uses [`FxHashSet`], so the failure loop hashes one
/// `u16` per record at most.
#[derive(Debug, Default)]
pub struct CausePass {
    daily: Vec<[u64; 9]>,
    daily_total: Vec<u64>,
    by_type: [u64; 3],
    seen: FxHashSet<u16>,
    /// Per principal cause, failures at each whole millisecond.
    durations: [MsCounts; 8],
    by_area: [[u64; 9]; 2],
    by_device: [[u64; 9]; 3],
    /// `Manufacturer::index()` → per-cause-slot failure counts.
    by_mfr: Vec<[u64; 9]>,
    total_failures: u64,
}

impl CausePass {
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn observe_failure(
        &mut self,
        ue: u32,
        sector: u32,
        day: u32,
        cause: CauseCode,
        ho_type: HoType,
        duration: u32,
        e: &Enriched,
    ) {
        let slot = cause_slot(cause);
        let day = (day as usize).min(self.daily.len().saturating_sub(1));
        if let Some(cells) = self.daily.get_mut(day) {
            cells[slot] += 1;
        }
        if let Some(total) = self.daily_total.get_mut(day) {
            *total += 1;
        }
        self.by_type[ho_type.index()] += 1;
        self.seen.insert(cause.0);
        if let Some(counts) = self.durations.get_mut(slot) {
            counts.add(duration);
        }
        self.by_area[e.area_of(sector).index()][slot] += 1;
        self.by_device[e.device_of(ue).index()][slot] += 1;
        let mfr = e.manufacturer_of(ue);
        if Manufacturer::TOP5_SMARTPHONE.contains(&mfr) {
            let idx = e.manufacturer_idx_of(ue);
            if idx >= self.by_mfr.len() {
                self.by_mfr.resize(idx + 1, [0; 9]);
            }
            self.by_mfr[idx][slot] += 1;
        }
        self.total_failures += 1;
    }
}

impl AnalysisPass for CausePass {
    type Output = CauseAnalysis;

    fn begin(&mut self, ctx: &SweepCtx) {
        let n_days = ctx.config.n_days.max(1) as usize;
        self.daily = vec![[0u64; 9]; n_days];
        self.daily_total = vec![0u64; n_days];
    }

    fn record(&mut self, r: &HoRecord, e: &Enriched) {
        if !r.is_failure() {
            return;
        }
        let cause = r.cause.expect("failures carry a cause");
        self.observe_failure(
            r.ue.0,
            r.source_sector.0,
            r.day(),
            cause,
            r.ho_type(),
            r.duration_ms,
            e,
        );
    }

    // telco-lint: deny-alloc(begin)
    fn record_columns(&mut self, batch: &ColumnBatch, e: &Enriched) {
        let rows = batch
            .timestamps()
            .iter()
            .zip(batch.ues())
            .zip(batch.source_sectors())
            .zip(batch.target_rats())
            .zip(batch.flags())
            .zip(batch.causes())
            .zip(batch.durations());
        for ((((((&ts, &ue), &sector), &rat), &flags), &cause), &duration) in rows {
            if flags & FLAG_FAILURE == 0 {
                continue;
            }
            self.observe_failure(
                ue,
                sector,
                (ts / 86_400_000) as u32,
                CauseCode(cause),
                HoType::from_target_rat(rat),
                duration,
                e,
            );
        }
    }
    // telco-lint: deny-alloc(end)

    fn merge(&mut self, other: Self, _ctx: &SweepCtx) {
        for (mine, theirs) in self.daily.iter_mut().zip(other.daily) {
            for (c, t) in mine.iter_mut().zip(theirs) {
                *c += t;
            }
        }
        for (mine, theirs) in self.daily_total.iter_mut().zip(other.daily_total) {
            *mine += theirs;
        }
        for (mine, theirs) in self.by_type.iter_mut().zip(other.by_type) {
            *mine += theirs;
        }
        self.seen.extend(other.seen);
        for (mine, theirs) in self.durations.iter_mut().zip(other.durations) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.by_area.iter_mut().zip(other.by_area) {
            for (c, t) in mine.iter_mut().zip(theirs) {
                *c += t;
            }
        }
        for (mine, theirs) in self.by_device.iter_mut().zip(other.by_device) {
            for (c, t) in mine.iter_mut().zip(theirs) {
                *c += t;
            }
        }
        if self.by_mfr.len() < other.by_mfr.len() {
            self.by_mfr.resize(other.by_mfr.len(), [0; 9]);
        }
        for (mine, theirs) in self.by_mfr.iter_mut().zip(other.by_mfr) {
            for (c, t) in mine.iter_mut().zip(theirs) {
                *c += t;
            }
        }
        self.total_failures += other.total_failures;
    }

    fn end(self, _ctx: &SweepCtx) -> CauseAnalysis {
        let n_days = self.daily.len();
        // Daily shares, then mean/min/max.
        let mut shares = [0.0; 9];
        let mut shares_min = [f64::INFINITY; 9];
        let mut shares_max = [0.0f64; 9];
        let mut active_days = 0usize;
        for day in 0..n_days {
            if self.daily_total[day] == 0 {
                continue;
            }
            active_days += 1;
            for c in 0..9 {
                let s = self.daily[day][c] as f64 / self.daily_total[day] as f64;
                shares[c] += s;
                shares_min[c] = shares_min[c].min(s);
                shares_max[c] = shares_max[c].max(s);
            }
        }
        for c in 0..9 {
            shares[c] /= active_days.max(1) as f64;
            if !shares_min[c].is_finite() {
                shares_min[c] = 0.0;
            }
        }

        let normalize = |counts: [u64; 9]| -> [f64; 9] {
            let t: u64 = counts.iter().sum();
            let mut out = [0.0; 9];
            if t > 0 {
                for c in 0..9 {
                    out[c] = counts[c] as f64 / t as f64;
                }
            }
            out
        };
        let mut top5: Vec<(Manufacturer, [f64; 9])> = Manufacturer::TOP5_SMARTPHONE
            .iter()
            .filter_map(|m| {
                let counts = self.by_mfr.get(m.index())?;
                // A manufacturer enters only once it has observed
                // failures, matching the old lazily-created map cells.
                (counts.iter().sum::<u64>() > 0).then(|| (*m, normalize(*counts)))
            })
            .collect();
        top5.sort_by_key(|(m, _)| m.index());

        let total_failures = self.total_failures;
        CauseAnalysis {
            shares,
            shares_min,
            shares_max,
            to3g_failure_share: self.by_type[HoType::To3g.index()] as f64
                / total_failures.max(1) as f64,
            to2g_failure_share: self.by_type[HoType::To2g.index()] as f64
                / total_failures.max(1) as f64,
            distinct_causes: self.seen.len(),
            durations: self.durations.iter().map(MsCounts::ecdf).collect(),
            by_area: [normalize(self.by_area[0]), normalize(self.by_area[1])],
            by_device: [
                normalize(self.by_device[0]),
                normalize(self.by_device[1]),
                normalize(self.by_device[2]),
            ],
            by_top5_manufacturer: top5,
        }
    }

    const SNAPSHOT_VERSION: u16 = 2;

    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_varint(self.daily.len() as u64);
        for day in &self.daily {
            for &c in day {
                w.put_varint(c);
            }
        }
        w.put_u64s(&self.daily_total);
        for &c in &self.by_type {
            w.put_varint(c);
        }
        // Sorted so the set's insertion history never reaches the bytes.
        let mut seen: Vec<u16> = self.seen.iter().copied().collect();
        seen.sort_unstable();
        w.put_varint(seen.len() as u64);
        for code in seen {
            w.put_u16(code);
        }
        for counts in &self.durations {
            counts.snapshot(w);
        }
        for area in &self.by_area {
            for &c in area {
                w.put_varint(c);
            }
        }
        for device in &self.by_device {
            for &c in device {
                w.put_varint(c);
            }
        }
        w.put_varint(self.by_mfr.len() as u64);
        for mfr in &self.by_mfr {
            for &c in mfr {
                w.put_varint(c);
            }
        }
        w.put_varint(self.total_failures);
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        // Nine varints a day, so no more days than a ninth of the bytes.
        let days = r.get_count(9)?;
        self.daily = vec![[0u64; 9]; days];
        for day in &mut self.daily {
            for c in day {
                *c = r.get_varint()?;
            }
        }
        self.daily_total = r.get_u64s()?;
        for c in &mut self.by_type {
            *c = r.get_varint()?;
        }
        let n = r.get_count(2)?;
        self.seen = FxHashSet::default();
        self.seen.reserve(n);
        for _ in 0..n {
            self.seen.insert(r.get_u16()?);
        }
        for counts in &mut self.durations {
            counts.restore(r)?;
        }
        for area in &mut self.by_area {
            for c in area {
                *c = r.get_varint()?;
            }
        }
        for device in &mut self.by_device {
            for c in device {
                *c = r.get_varint()?;
            }
        }
        let mfrs = r.get_count(9)?;
        self.by_mfr = vec![[0u64; 9]; mfrs];
        for mfr in &mut self.by_mfr {
            for c in mfr {
                *c = r.get_varint()?;
            }
        }
        self.total_failures = r.get_varint()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Sweep;
    use telco_sim::{run_study, SimConfig, StudyData};

    fn study() -> &'static StudyData {
        static CELL: std::sync::OnceLock<StudyData> = std::sync::OnceLock::new();
        CELL.get_or_init(|| {
            let mut cfg = SimConfig::tiny();
            cfg.n_ues = 2_000;
            cfg.n_days = 3;
            cfg.threads = 0;
            run_study(cfg)
        })
    }

    fn causes() -> CauseAnalysis {
        Sweep::new(study()).run(CausePass::default).unwrap()
    }

    #[test]
    fn cause_shares_concentrate_in_principals() {
        let c = causes();
        let total: f64 = c.shares.iter().sum();
        assert!((total - 1.0).abs() < 0.05, "shares sum {total}");
        assert!(c.principal_share() > 0.8, "principal causes carry {}", c.principal_share());
        assert!(c.distinct_causes > 8, "only {} distinct causes", c.distinct_causes);
    }

    #[test]
    fn three_g_failures_dominate() {
        let c = causes();
        assert!(c.to3g_failure_share > 0.5, "→3G failure share {}", c.to3g_failure_share);
        assert!(c.to2g_failure_share < 0.05);
    }

    #[test]
    fn cause_durations_ranked_like_fig14b() {
        let c = causes();
        // #3 aborts before signaling: zero median when observed.
        if let Some(e3) = &c.durations[PrincipalCause::InvalidTargetSector.index()] {
            assert_eq!(e3.median(), 0.0);
        }
        // #8 sits at the relocation timer when observed.
        if let Some(e8) = &c.durations[PrincipalCause::RelocationTimeout.index()] {
            assert!(e8.median() > 9_000.0);
        }
    }

    #[test]
    fn hof_patterns_have_peaks() {
        let h = Sweep::new(study()).run(HofPatternsPass::default).unwrap();
        // Some daytime hour must carry more normalized HOFs than 03:00.
        let night = h.urban[3].as_ref().map_or(0.0, |b| b.median);
        let day_max =
            (7..20).filter_map(|hr| h.urban[hr].as_ref().map(|b| b.median)).fold(0.0f64, f64::max);
        assert!(day_max >= night, "daytime {day_max} vs night {night}");
        assert!(h.table().len() == 24);
    }

    #[test]
    fn stacked_table_renders_all_rows() {
        let t = causes().table_stacked();
        assert!(t.len() >= 5, "expected at least area + device rows, got {}", t.len());
    }

    /// Restore `payload` into a fresh pass of type `P`, framed at its
    /// snapshot version.
    fn restore_payload<P: AnalysisPass + Default>(payload: Vec<u8>) -> Result<(), SnapError> {
        let bytes = telco_trace::snap::encode_frame(P::SNAPSHOT_VERSION, &payload);
        crate::sweep::restore_pass(&mut P::default(), &bytes)
    }

    #[test]
    fn hostile_lengths_are_refused_before_allocating() {
        let huge = 1u64 << 40;
        // HofPatternsPass: the hour slots, then the active-sector slots.
        let mut w = SnapWriter::new();
        w.put_varint(huge);
        assert_eq!(restore_payload::<HofPatternsPass>(w.into_bytes()), Err(SnapError::Truncated));
        let mut w = SnapWriter::new();
        w.put_varint(0);
        w.put_varint(huge);
        assert_eq!(restore_payload::<HofPatternsPass>(w.into_bytes()), Err(SnapError::Truncated));

        // CausePass: its days, distinct causes, first duration counts and
        // manufacturers, each after a valid all-zero prefix (no days, no
        // daily totals, three by-type counters, no causes, eight empty
        // duration samples, 45 area and device counters).
        for (zeros, field) in [(0, "days"), (5, "causes"), (6, "durations"), (59, "manufacturers")]
        {
            let mut w = SnapWriter::new();
            for _ in 0..zeros {
                w.put_varint(0);
            }
            w.put_varint(huge);
            assert_eq!(
                restore_payload::<CausePass>(w.into_bytes()),
                Err(SnapError::Truncated),
                "hostile {field} length"
            );
        }
    }
}
