//! Record enrichment and the sector-day observation frame.
//!
//! Most analyses join the handover trace against the topology, the device
//! catalog and the census. [`Enriched`] provides those joins per record;
//! [`SectorDayFrame`] is the §6.3 reshape — one observation per
//! `(source sector, day, HO type)` with the covariates of Table 3. The
//! frame is built by [`FramePass`] inside the shared analysis sweep, so a
//! full study never re-scans the trace for it. It is the one counter of
//! those cells: the analyses that are sums of them (the trace counts,
//! Figs. 6, 9 and 17, and the full-period frame) are derived from the
//! finished frame through [`FromDailyFrame`], not counted again.

use std::marker::PhantomData;

use serde::{Deserialize, Serialize};

use telco_devices::population::UeId;
use telco_devices::types::{DeviceType, Manufacturer};
use telco_geo::district::{DistrictId, Region};
use telco_geo::postcode::AreaType;
use telco_signaling::messages::HoType;
use telco_sim::World;
use telco_topology::elements::SectorId;
use telco_topology::vendor::Vendor;
use telco_trace::columnar::{ColumnBatch, FLAG_FAILURE};
use telco_trace::hash::FxHashMap;
use telco_trace::record::HoRecord;
use telco_trace::snap::{SnapError, SnapReader, SnapWriter};

use crate::sweep::{AnalysisPass, SweepCtx};

/// Per-record join helpers over the simulated world. Only the world is
/// needed — enrichment never touches the trace itself, which is what lets
/// every pass share one traversal.
///
/// Construction flattens the multi-hop world joins (sector → site →
/// postcode → district, UE → catalog entry) into dense lookup tables
/// indexed by the raw sector/UE ids, built once per sweep in
/// `O(sectors + UEs)`. The per-record joins the passes perform millions
/// of times then cost one bounds-checked array load instead of two or
/// three pointer chases — the `*_of` accessors are what the column-scan
/// pass implementations use. Ids outside the tables (impossible for a
/// well-formed world; conceivable for a corrupt-but-CRC-clean trace)
/// fall back to the original world join, preserving its behavior
/// exactly.
pub struct Enriched<'a> {
    world: &'a World,
    /// Sector → urban/rural of its postcode, indexed by `SectorId.0`.
    sector_area: Vec<AreaType>,
    /// Sector → district, indexed by `SectorId.0`.
    sector_district: Vec<DistrictId>,
    /// Sector → census reliability of its postcode, indexed by `SectorId.0`.
    sector_reliable: Vec<bool>,
    /// UE → device type, indexed by `UeId.0`.
    ue_device: Vec<DeviceType>,
    /// UE → manufacturer, indexed by `UeId.0`.
    ue_mfr: Vec<Manufacturer>,
    /// UE → `Manufacturer::index()`, cached because that index is a
    /// linear scan of the catalog — far too slow for a per-record loop.
    ue_mfr_idx: Vec<u8>,
    /// UE → home district, indexed by `UeId.0`.
    ue_home_district: Vec<DistrictId>,
}

impl<'a> Enriched<'a> {
    /// Wrap a world, building the flat join tables.
    pub fn new(world: &'a World) -> Self {
        let topo = &world.topology;
        let n_sectors = topo.sectors().len();
        let mut sector_area = Vec::with_capacity(n_sectors);
        let mut sector_district = Vec::with_capacity(n_sectors);
        let mut sector_reliable = Vec::with_capacity(n_sectors);
        for s in topo.sectors() {
            let pc = world.country.postcode(topo.sector_postcode(s.id));
            sector_area.push(pc.area_type);
            sector_reliable.push(pc.census_reliable);
            sector_district.push(topo.sector_district(s.id));
        }
        let n_ues = world.ues.len();
        let mut ue_device = Vec::with_capacity(n_ues);
        let mut ue_mfr = Vec::with_capacity(n_ues);
        let mut ue_mfr_idx = Vec::with_capacity(n_ues);
        let mut ue_home_district = Vec::with_capacity(n_ues);
        for ue in &world.ues {
            ue_device.push(ue.device_type);
            ue_mfr.push(ue.manufacturer);
            ue_mfr_idx.push(ue.manufacturer.index() as u8);
            ue_home_district.push(world.country.postcode(ue.home_postcode).district);
        }
        Enriched {
            world,
            sector_area,
            sector_district,
            sector_reliable,
            ue_device,
            ue_mfr,
            ue_mfr_idx,
            ue_home_district,
        }
    }

    /// Urban/rural classification of a source sector by raw id.
    #[inline]
    pub fn area_of(&self, sector: u32) -> AreaType {
        match self.sector_area.get(sector as usize) {
            Some(&a) => a,
            None => {
                let pc = self.world.topology.sector_postcode(SectorId(sector));
                self.world.country.postcode(pc).area_type
            }
        }
    }

    /// District of a source sector by raw id.
    #[inline]
    pub fn district_of(&self, sector: u32) -> DistrictId {
        match self.sector_district.get(sector as usize) {
            Some(&d) => d,
            None => self.world.topology.sector_district(SectorId(sector)),
        }
    }

    /// Whether the census entry behind a sector's postcode is reliable.
    #[inline]
    pub fn reliable_of(&self, sector: u32) -> bool {
        match self.sector_reliable.get(sector as usize) {
            Some(&ok) => ok,
            None => {
                let pc = self.world.topology.sector_postcode(SectorId(sector));
                self.world.country.postcode(pc).census_reliable
            }
        }
    }

    /// Device type of a UE by raw id.
    #[inline]
    pub fn device_of(&self, ue: u32) -> DeviceType {
        match self.ue_device.get(ue as usize) {
            Some(&d) => d,
            None => self.world.ue(UeId(ue)).device_type,
        }
    }

    /// Manufacturer of a UE by raw id.
    #[inline]
    pub fn manufacturer_of(&self, ue: u32) -> Manufacturer {
        match self.ue_mfr.get(ue as usize) {
            Some(&m) => m,
            None => self.world.ue(UeId(ue)).manufacturer,
        }
    }

    /// `Manufacturer::index()` of a UE's manufacturer by raw id (cached).
    #[inline]
    pub fn manufacturer_idx_of(&self, ue: u32) -> usize {
        match self.ue_mfr_idx.get(ue as usize) {
            Some(&i) => i as usize,
            None => self.world.ue(UeId(ue)).manufacturer.index(),
        }
    }

    /// Home district of a UE by raw id.
    #[inline]
    pub fn home_district_of(&self, ue: u32) -> DistrictId {
        match self.ue_home_district.get(ue as usize) {
            Some(&d) => d,
            None => self.world.country.postcode(self.world.ue(UeId(ue)).home_postcode).district,
        }
    }

    /// Urban/rural classification of the record's source sector.
    #[inline]
    pub fn area(&self, r: &HoRecord) -> AreaType {
        self.area_of(r.source_sector.0)
    }

    /// District of the record's source sector.
    #[inline]
    pub fn district(&self, r: &HoRecord) -> DistrictId {
        self.district_of(r.source_sector.0)
    }

    /// Device type of the record's UE.
    #[inline]
    pub fn device_type(&self, r: &HoRecord) -> DeviceType {
        self.device_of(r.ue.0)
    }
}

/// One observation of the §6.3 reshape: the daily HOF rate of one source
/// sector for one handover type, with the Table 3 covariates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SectorDayObs {
    /// Source sector.
    pub sector: SectorId,
    /// Study day (or window index for windowed frames).
    pub day: u32,
    /// Handover type of the cell.
    pub ho_type: HoType,
    /// Handovers of this type from this sector this day.
    pub hos: u32,
    /// Failures among them.
    pub hofs: u32,
    /// Total daily handovers of the sector across all types ("Number of
    /// HOs per day" covariate).
    pub daily_hos: u32,
    /// Urban/rural classification.
    pub area: AreaType,
    /// Antenna vendor.
    pub vendor: Vendor,
    /// Sector region.
    pub region: Region,
    /// District population.
    pub district_population: u64,
}

impl SectorDayObs {
    /// HOF rate in percent.
    pub fn hof_rate_pct(&self) -> f64 {
        if self.hos == 0 {
            0.0
        } else {
            100.0 * self.hofs as f64 / self.hos as f64
        }
    }
}

/// The full sector-day observation table.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SectorDayFrame {
    observations: Vec<SectorDayObs>,
}

impl SectorDayFrame {
    /// All observations.
    pub fn observations(&self) -> &[SectorDayObs] {
        &self.observations
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Whether the frame is empty.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Observations of one handover type.
    pub fn of_type(&self, ho_type: HoType) -> impl Iterator<Item = &SectorDayObs> + '_ {
        self.observations.iter().filter(move |o| o.ho_type == ho_type)
    }

    /// The paper's outlier filter (Table 5 footnote, scaled): keep cells
    /// with HOF rate below `max_rate_pct` and daily HOs within
    /// `[min_daily, max_daily]`.
    pub fn filtered(
        &self,
        max_rate_pct: f64,
        min_daily: u32,
        max_daily: u32,
    ) -> Vec<&SectorDayObs> {
        self.observations
            .iter()
            .filter(|o| {
                o.hof_rate_pct() < max_rate_pct
                    && o.daily_hos >= min_daily
                    && o.daily_hos <= max_daily
            })
            .collect()
    }

    /// The full-period frame of this daily frame: its cells summed per
    /// `(sector, day / n_days, type)`, with `daily_hos` the window total
    /// divided by `n_days` (at least 1). Days past the study land in later
    /// windows. The daily sort order makes every window a run of
    /// neighbouring observations, so the result keeps that order.
    pub(crate) fn full_period(&self, n_days: u32) -> SectorDayFrame {
        let n_days = n_days.max(1);
        let window = |o: &SectorDayObs| (o.sector, o.day / n_days);
        let mut observations = Vec::new();
        for run in self.observations.chunk_by(|a, b| window(a) == window(b)) {
            let mut group = CellGroup::default();
            for o in run {
                let cell = &mut group[o.ho_type.index()];
                cell.0 += o.hos;
                cell.1 += o.hofs;
            }
            let total: u32 = group.iter().map(|c| c.0).sum();
            for (ho_type, (hos, hofs)) in HoType::ALL.into_iter().zip(group) {
                if hos > 0 {
                    observations.push(SectorDayObs {
                        day: run[0].day / n_days,
                        ho_type,
                        hos,
                        hofs,
                        daily_hos: (total / n_days).max(1),
                        ..run[0]
                    });
                }
            }
        }
        SectorDayFrame { observations }
    }
}

/// One `(sector, day)` group of the frame accumulator: `(hos, hofs)` per
/// handover type. The day total — the `daily_hos` covariate — is the sum
/// across types, derived at `finish` instead of being tracked in a second
/// map.
type CellGroup = [(u32, u32); HoType::ALL.len()];

/// Streaming aggregation state of the §6.3 reshape: `(hos, hofs)` per
/// `(source sector, day, HO type)`, independent of how many records flow
/// through.
///
/// This is the hottest per-record loop in the analytics layer (a
/// stream-to-frame aggregate is essentially this plus the codec), so
/// the layout is chosen for one array or hash operation per record: a
/// dense `sector × day` grid, and an [`FxHashMap`] keyed by the packed
/// `sector << 32 | day` word for cells outside it, whose value carries
/// all three per-type cells inline.
#[derive(Default)]
pub(crate) struct FrameBuilder {
    /// Dense-grid bounds: sector ids `< n_sectors` and days `< n_days`
    /// index `dense` arithmetically; everything else (and every cell when
    /// no grid was provisioned) goes through `spill`.
    n_sectors: u32,
    n_days: u32,
    /// `sector * n_days + day` → per-type `(hos, hofs)` cells.
    dense: Vec<CellGroup>,
    /// `sector << 32 | day` → cells outside the dense grid.
    spill: FxHashMap<u64, CellGroup>,
}

impl FrameBuilder {
    /// A builder with a preallocated `n_sectors × n_days` grid so the hot
    /// loop indexes arithmetically instead of hashing. The grid is the
    /// whole topology × study period, so in practice every record lands
    /// in it; `spill` only exists so ids outside the provisioned world
    /// still aggregate identically.
    pub(crate) fn with_grid(n_sectors: usize, n_days: u32) -> Self {
        let n_days = n_days.max(1);
        FrameBuilder {
            n_sectors: n_sectors as u32,
            n_days,
            dense: vec![CellGroup::default(); n_sectors * n_days as usize],
            spill: FxHashMap::default(),
        }
    }

    #[inline]
    fn cell_group(&mut self, sector: u32, day: u32) -> &mut CellGroup {
        if sector < self.n_sectors && day < self.n_days {
            let idx = sector as usize * self.n_days as usize + day as usize;
            if let Some(group) = self.dense.get_mut(idx) {
                return group;
            }
        }
        let key = (u64::from(sector) << 32) | u64::from(day);
        self.spill.entry(key).or_default()
    }

    #[inline]
    pub(crate) fn add(&mut self, r: &HoRecord) {
        let group = self.cell_group(r.source_sector.0, r.day());
        let cell = &mut group[r.ho_type().index()];
        cell.0 += 1;
        cell.1 += u32::from(r.is_failure());
    }

    /// Fold a column batch: same cells as [`FrameBuilder::add`] per row,
    /// reading only the three columns the frame actually needs.
    #[inline]
    pub(crate) fn add_columns(&mut self, batch: &ColumnBatch) {
        let rows = batch
            .timestamps()
            .iter()
            .zip(batch.source_sectors())
            .zip(batch.target_rats())
            .zip(batch.flags());
        for (((&ts, &sector), &rat), &flags) in rows {
            let group = self.cell_group(sector, (ts / 86_400_000) as u32);
            let cell = &mut group[HoType::from_target_rat(rat).index()];
            cell.0 += 1;
            cell.1 += u32::from(flags & FLAG_FAILURE != 0);
        }
    }

    // telco-lint: deny-nondeterminism(begin)
    /// Fold another builder's cells into this one. Both stores hold
    /// purely additive counters and the dense/spill split is a pure
    /// function of (sector, day) shared by both sides, so the fold is
    /// order-independent and a partitioned parallel sweep merges to the
    /// sequential result.
    pub(crate) fn merge(&mut self, other: FrameBuilder) {
        debug_assert_eq!(self.dense.len(), other.dense.len(), "merging mismatched frame grids");
        for (mine, theirs) in self.dense.iter_mut().zip(other.dense) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                m.0 += t.0;
                m.1 += t.1;
            }
        }
        for (k, v) in other.spill {
            // telco-lint: allow(nondet): additive counter fold; visit order cannot affect sums
            let group = self.spill.entry(k).or_default();
            for (mine, theirs) in group.iter_mut().zip(v) {
                mine.0 += theirs.0;
                mine.1 += theirs.1;
            }
        }
    }
    // telco-lint: deny-nondeterminism(end)

    /// Encode the accumulator: the grid's bounds, then each touched
    /// group (one with any non-zero counter) as its index gap from the
    /// previous touched group (the first from 0) and its six counters,
    /// then the spill cells in sorted key order. A day's fold touches
    /// about 1% of a study's grid, so its snapshot follows what it
    /// counted, and the bytes never depend on hash-insertion history.
    pub(crate) fn snapshot(&self, w: &mut SnapWriter) {
        let put_group = |w: &mut SnapWriter, group: &CellGroup| {
            for &(hos, hofs) in group {
                w.put_varint(u64::from(hos));
                w.put_varint(u64::from(hofs));
            }
        };
        let touched = |group: &CellGroup| group.iter().any(|&(hos, hofs)| hos != 0 || hofs != 0);
        w.put_u32(self.n_sectors);
        w.put_u32(self.n_days);
        w.put_varint(self.dense.iter().filter(|group| touched(group)).count() as u64);
        let mut prev = 0;
        for (idx, group) in self.dense.iter().enumerate().filter(|(_, group)| touched(group)) {
            w.put_varint((idx - prev) as u64);
            put_group(w, group);
            prev = idx;
        }
        let mut spill: Vec<(u64, CellGroup)> = self.spill.iter().map(|(&k, &v)| (k, v)).collect();
        spill.sort_unstable_by_key(|&(k, _)| k);
        w.put_varint(spill.len() as u64);
        for (key, group) in &spill {
            w.put_varint(*key);
            put_group(w, group);
        }
    }

    /// Decode a snapshot into a zeroed `n_sectors × n_days` grid holding
    /// the touched groups, and the spill map.
    ///
    /// # Errors
    ///
    /// [`SnapError::Malformed`] for a touched index that is not ascending,
    /// overflows or lies past the grid, and for a counter past `u32`,
    /// plus the reader's own errors.
    pub(crate) fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let get_group = |r: &mut SnapReader| -> Result<CellGroup, SnapError> {
            let mut group = CellGroup::default();
            for cell in &mut group {
                for counter in [&mut cell.0, &mut cell.1] {
                    *counter = u32::try_from(r.get_varint()?)
                        .map_err(|_| SnapError::Malformed("cell count overflow"))?;
                }
            }
            Ok(group)
        };
        self.n_sectors = r.get_u32()?;
        self.n_days = r.get_u32()?;
        let cells = (self.n_sectors as usize)
            .checked_mul(self.n_days as usize)
            .ok_or(SnapError::Malformed("frame grid size"))?;
        // Ask the allocator for the grid first, so a header naming one it
        // cannot provide is refused instead of aborting. Then take it
        // zeroed, which leaves the untouched cells' pages unmapped, where
        // filling a reservation would write every cell.
        Vec::<CellGroup>::new()
            .try_reserve_exact(cells)
            .map_err(|_| SnapError::Malformed("frame grid size"))?;
        self.dense = vec![CellGroup::default(); cells];
        let mut idx = 0usize;
        for i in 0..r.get_len()? {
            let gap = r.get_len()?;
            if i > 0 && gap == 0 {
                return Err(SnapError::Malformed("frame groups not ascending"));
            }
            idx = idx.checked_add(gap).ok_or(SnapError::Malformed("frame group past the grid"))?;
            let slot =
                self.dense.get_mut(idx).ok_or(SnapError::Malformed("frame group past the grid"))?;
            *slot = get_group(r)?;
        }
        let n = r.get_len()?;
        self.spill = FxHashMap::default();
        self.spill.reserve(n.min(r.remaining()));
        for _ in 0..n {
            let key = r.get_varint()?;
            self.spill.insert(key, get_group(r)?);
        }
        Ok(())
    }

    /// The daily frame: one observation per `(sector, day, type)` cell
    /// with handovers, sorted by sector, day and type.
    pub(crate) fn finish(self, world: &World) -> SectorDayFrame {
        let FrameBuilder { n_days, dense, spill, .. } = self;
        let mut observations: Vec<SectorDayObs> = Vec::with_capacity(spill.len());
        let mut emit = |sector: u32, day: u32, group: &CellGroup| {
            let total: u32 = group.iter().map(|c| c.0).sum();
            if total == 0 {
                return;
            }
            let sector_id = SectorId(sector);
            let pc = world.topology.sector_postcode(sector_id);
            let postcode = world.country.postcode(pc);
            let district = world.country.district(postcode.district);
            for (type_idx, &(hos, hofs)) in group.iter().enumerate() {
                if hos == 0 {
                    continue;
                }
                observations.push(SectorDayObs {
                    sector: sector_id,
                    day,
                    ho_type: HoType::ALL[type_idx],
                    hos,
                    hofs,
                    daily_hos: total,
                    area: postcode.area_type,
                    vendor: world.topology.sector(sector_id).vendor,
                    region: district.region,
                    district_population: district.population,
                });
            }
        };
        for (idx, group) in dense.iter().enumerate() {
            let (sector, day) = (idx as u32 / n_days, idx as u32 % n_days);
            emit(sector, day, group);
        }
        for (&key, group) in &spill {
            emit((key >> 32) as u32, key as u32, group);
        }
        // A cell lives in exactly one store, so the sort canonicalizes the
        // dense/spill interleaving without any dedup concern.
        observations.sort_by_key(|o| (o.sector.0, o.day, o.ho_type.index()));
        SectorDayFrame { observations }
    }
}

/// The [`SectorDayFrame`] as a sweep pass. Both windows count the same
/// daily cells; `FullPeriod` sums them per study period at `end` for the
/// §6.3 models.
#[derive(Default)]
pub struct FramePass {
    window: FrameWindow,
    builder: FrameBuilder,
}

/// Window mode of a [`FramePass`], resolved against the study config at
/// `end` time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrameWindow {
    /// One observation per `(sector, day, type)`.
    #[default]
    Daily,
    /// One observation per `(sector, study period, type)`.
    FullPeriod,
}

impl FramePass {
    /// A pass with the given window mode.
    pub fn new(window: FrameWindow) -> Self {
        FramePass { window, builder: FrameBuilder::default() }
    }
}

impl AnalysisPass for FramePass {
    type Output = SectorDayFrame;

    fn begin(&mut self, ctx: &SweepCtx) {
        self.builder =
            FrameBuilder::with_grid(ctx.world.topology.sectors().len(), ctx.config.n_days);
    }

    fn record(&mut self, r: &HoRecord, _e: &Enriched) {
        self.builder.add(r);
    }

    // telco-lint: deny-alloc(begin)
    fn record_columns(&mut self, batch: &ColumnBatch, _e: &Enriched) {
        self.builder.add_columns(batch);
    }
    // telco-lint: deny-alloc(end)

    fn merge(&mut self, other: Self, _ctx: &SweepCtx) {
        self.builder.merge(other.builder);
    }

    fn end(self, ctx: &SweepCtx) -> SectorDayFrame {
        let daily = self.builder.finish(ctx.world);
        match self.window {
            FrameWindow::Daily => daily,
            FrameWindow::FullPeriod => daily.full_period(ctx.config.n_days),
        }
    }

    const SNAPSHOT_VERSION: u16 = 3;

    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_u8(match self.window {
            FrameWindow::Daily => 0,
            FrameWindow::FullPeriod => 1,
        });
        self.builder.snapshot(w);
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.window = match r.get_u8()? {
            0 => FrameWindow::Daily,
            1 => FrameWindow::FullPeriod,
            _ => return Err(SnapError::Malformed("frame window tag")),
        };
        self.builder.restore(r)
    }
}

/// An analysis computed from the finished daily [`SectorDayFrame`]
/// instead of from records: a projection of its `(sector, day, type)`
/// cells.
pub trait FromDailyFrame {
    /// Derive the analysis from the daily frame.
    fn from_daily_frame(frame: &SectorDayFrame, ctx: &SweepCtx) -> Self;
}

/// A sweep pass for an analysis derived from the daily frame: it counts
/// the daily [`FramePass`] cells, and its `end` derives `T` from the
/// finished frame. Its state and snapshot are the daily frame's.
pub struct DerivedPass<T> {
    frame: FramePass,
    output: PhantomData<fn() -> T>,
}

impl<T> Default for DerivedPass<T> {
    fn default() -> Self {
        DerivedPass { frame: FramePass::default(), output: PhantomData }
    }
}

impl<T: FromDailyFrame> AnalysisPass for DerivedPass<T> {
    type Output = T;

    fn begin(&mut self, ctx: &SweepCtx) {
        self.frame.begin(ctx);
    }

    fn record(&mut self, r: &HoRecord, e: &Enriched) {
        self.frame.record(r, e);
    }

    // telco-lint: deny-alloc(begin)
    fn record_columns(&mut self, batch: &ColumnBatch, e: &Enriched) {
        self.frame.record_columns(batch, e);
    }
    // telco-lint: deny-alloc(end)

    fn merge(&mut self, other: Self, ctx: &SweepCtx) {
        self.frame.merge(other.frame, ctx);
    }

    fn end(self, ctx: &SweepCtx) -> T {
        T::from_daily_frame(&self.frame.end(ctx), ctx)
    }

    const SNAPSHOT_VERSION: u16 = FramePass::SNAPSHOT_VERSION;

    fn snapshot(&self, w: &mut SnapWriter) {
        self.frame.snapshot(w);
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.frame.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Sweep;
    use telco_sim::{run_study, SimConfig, StudyData};

    fn study() -> StudyData {
        run_study(SimConfig::tiny())
    }

    fn frame(s: &StudyData, window: FrameWindow) -> SectorDayFrame {
        Sweep::new(s).run(|| FramePass::new(window)).unwrap()
    }

    #[test]
    fn frame_covers_every_record() {
        let s = study();
        let frame = frame(&s, FrameWindow::Daily);
        let d = s.trace.as_dataset().unwrap();
        let total_hos: u32 = frame.observations().iter().map(|o| o.hos).sum();
        assert_eq!(total_hos as usize, d.len());
        let total_hofs: u32 = frame.observations().iter().map(|o| o.hofs).sum();
        assert_eq!(total_hofs as usize, d.failures().count());
    }

    #[test]
    fn daily_totals_are_consistent() {
        let s = study();
        for o in frame(&s, FrameWindow::Daily).observations() {
            assert!(o.daily_hos >= o.hos, "cell exceeds its sector-day total");
            assert!(o.hofs <= o.hos);
        }
    }

    #[test]
    fn enrichment_matches_world() {
        let s = study();
        let e = Enriched::new(&s.world);
        for r in s.trace.as_dataset().unwrap().records().iter().take(50) {
            let pc = s.world.topology.sector_postcode(r.source_sector);
            assert_eq!(e.area(r), s.world.country.postcode(pc).area_type);
            assert_eq!(e.device_type(r), s.world.ue(r.ue).device_type);
        }
    }

    #[test]
    fn filter_bounds_apply() {
        let s = study();
        for o in frame(&s, FrameWindow::Daily).filtered(50.0, 2, 10_000) {
            assert!(o.hof_rate_pct() < 50.0);
            assert!(o.daily_hos >= 2);
        }
    }

    #[test]
    fn observations_sorted_and_deterministic() {
        let s = study();
        let a = frame(&s, FrameWindow::Daily);
        let b = frame(&s, FrameWindow::Daily);
        assert_eq!(a.observations(), b.observations());
        assert!(a
            .observations()
            .windows(2)
            .all(|w| (w[0].sector.0, w[0].day) <= (w[1].sector.0, w[1].day)));
    }

    #[test]
    fn a_day_snapshots_only_the_groups_it_touched() {
        let s = study();
        let mut config = s.config.clone();
        config.n_days = 28;
        let ctx = SweepCtx { world: &s.world, config: &config };
        let enriched = Enriched::new(&s.world);
        let mut pass = FramePass::new(FrameWindow::Daily);
        pass.begin(&ctx);
        let day: Vec<&HoRecord> =
            s.trace.as_dataset().unwrap().records().iter().filter(|r| r.day() == 0).collect();
        for r in &day {
            pass.record(r, &enriched);
        }
        let touched: std::collections::BTreeSet<u32> =
            day.iter().map(|r| r.source_sector.0).collect();
        let bytes = crate::sweep::snapshot_pass(&pass);
        assert!(
            bytes.len() <= 64 + 16 * touched.len(),
            "{} B for {} touched groups of a {}-group grid",
            bytes.len(),
            touched.len(),
            s.world.topology.sectors().len() * 28
        );
        let mut restored = FramePass::default();
        crate::sweep::restore_pass(&mut restored, &bytes).unwrap();
        assert_eq!(crate::sweep::snapshot_pass(&restored), bytes);
        assert_eq!(restored.end(&ctx).observations(), pass.end(&ctx).observations());
    }

    /// A `FrameBuilder` payload over a 2 × 3 grid whose touched groups
    /// sit at the given index gaps, each holding one handover.
    fn grid_payload(gaps: &[u64]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u32(2);
        w.put_u32(3);
        w.put_varint(gaps.len() as u64);
        for &gap in gaps {
            w.put_varint(gap);
            for counter in [1, 0, 0, 0, 0, 0] {
                w.put_varint(counter);
            }
        }
        w.put_varint(0);
        w.into_bytes()
    }

    fn restore_builder(payload: &[u8]) -> Result<FrameBuilder, SnapError> {
        let mut builder = FrameBuilder::default();
        let mut r = SnapReader::new(payload);
        builder.restore(&mut r)?;
        r.finish()?;
        Ok(builder)
    }

    #[test]
    fn restore_refuses_groups_off_the_grid() {
        let builder = restore_builder(&grid_payload(&[0, 5])).unwrap();
        assert_eq!(builder.dense.len(), 6);
        assert_eq!(builder.dense[5][0], (1, 0));
        let past = Some(SnapError::Malformed("frame group past the grid"));
        assert_eq!(restore_builder(&grid_payload(&[6])).err(), past);
        assert_eq!(restore_builder(&grid_payload(&[3, 3])).err(), past);
        assert_eq!(restore_builder(&grid_payload(&[1, u64::MAX])).err(), past);
        assert_eq!(
            restore_builder(&grid_payload(&[2, 0])).err(),
            Some(SnapError::Malformed("frame groups not ascending"))
        );
    }

    #[test]
    fn restore_refuses_a_grid_the_allocator_cannot_provide() {
        let mut w = SnapWriter::new();
        w.put_u8(0);
        w.put_u32(u32::MAX);
        w.put_u32(u32::MAX);
        w.put_varint(0);
        w.put_varint(0);
        let bytes = telco_trace::snap::encode_frame(FramePass::SNAPSHOT_VERSION, &w.into_bytes());
        assert_eq!(
            crate::sweep::restore_pass(&mut FramePass::default(), &bytes),
            Err(SnapError::Malformed("frame grid size"))
        );
    }

    #[test]
    fn period_frame_sums_the_daily_frame() {
        let s = study();
        let mut summed: std::collections::BTreeMap<(u32, usize), (u32, u32)> = Default::default();
        for o in frame(&s, FrameWindow::Daily).observations() {
            let cell = summed.entry((o.sector.0, o.ho_type.index())).or_default();
            cell.0 += o.hos;
            cell.1 += o.hofs;
        }
        let period = frame(&s, FrameWindow::FullPeriod);
        assert_eq!(period.len(), summed.len());
        for o in period.observations() {
            assert_eq!(o.day, 0, "one window spans the whole study");
            assert_eq!(summed[&(o.sector.0, o.ho_type.index())], (o.hos, o.hofs));
        }
    }
}
