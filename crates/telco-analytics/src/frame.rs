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

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap};
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

/// A closed day's touched groups as `(sector, group)`, ascending by
/// sector.
type DayCells = Vec<(u32, CellGroup)>;

/// Whether any counter of a group is non-zero. The accumulator keeps
/// only touched groups; a snapshot writes only them.
#[inline]
fn touched(group: &CellGroup) -> bool {
    group.iter().any(|&(hos, hofs)| hos != 0 || hofs != 0)
}

fn add_group(into: &mut CellGroup, from: &CellGroup) {
    for (mine, theirs) in into.iter_mut().zip(from) {
        mine.0 += theirs.0;
        mine.1 += theirs.1;
    }
}

/// Two sector-sorted lists of one day as one, the groups of a sector
/// both hold summed.
fn merge_cells(a: DayCells, b: DayCells) -> DayCells {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let mut b = b.into_iter().peekable();
    for (sector, mut group) in a {
        while let Some(earlier) = b.next_if(|&(s, _)| s < sector) {
            merged.push(earlier);
        }
        if let Some((_, theirs)) = b.next_if(|&(s, _)| s == sector) {
            add_group(&mut group, &theirs);
        }
        merged.push((sector, group));
    }
    merged.extend(b);
    merged
}

/// The packed spill key of a cell.
fn spill_key(sector: u32, day: u32) -> u64 {
    (u64::from(sector) << 32) | u64::from(day)
}

/// Streaming aggregation state of the §6.3 reshape: `(hos, hofs)` per
/// `(source sector, day, HO type)`, sized by the groups the records
/// touched, never by the `sector × day` grid.
///
/// This is the hottest per-record loop in the analytics layer, so the
/// open day (the day of the latest in-grid record) counts into a
/// per-sector slab: one array operation per record, plus one push onto
/// the day's touched list when a sector's group is first hit. A record
/// of another day closes the open day into its sector-sorted `(sector,
/// group)` list, merge-adding when that day was closed before, so any
/// record order counts right; a merge, a snapshot and `finish` see the
/// open day too. Cells outside the grid (a sector `≥ n_sectors` or a
/// day `≥ n_days`) go to an [`FxHashMap`] keyed by the packed `sector <<
/// 32 | day` word. A grid cell lives in its day's list, in the slab while
/// its day is open, or in both when that day reopened, and is then
/// summed; a spill cell lives in the map alone.
#[derive(Default)]
pub(crate) struct FrameBuilder {
    /// Grid bounds: cells with sector `< n_sectors` and day `< n_days`
    /// are kept per day; everything else (and every cell when no grid was
    /// set) goes through `spill`.
    n_sectors: u32,
    n_days: u32,
    /// The day `slab` counts. Only meaningful while `touched` is
    /// non-empty; an open day with nothing touched is no day at all.
    open_day: u32,
    /// The open day's groups, indexed by sector. It grows with the
    /// largest sector recorded (never past `n_sectors`) and is zeroed
    /// cell by cell when the day closes, so it is reused across days.
    slab: Vec<CellGroup>,
    /// The sectors whose `slab` group the open day touched, in arrival
    /// order. Its capacity is kept at `slab.len()`, and a sector is
    /// pushed once per open day, so a push never reallocates.
    touched: Vec<u32>,
    /// Closed days → their touched groups.
    days: BTreeMap<u32, DayCells>,
    /// `sector << 32 | day` → cells outside the grid.
    spill: FxHashMap<u64, CellGroup>,
}

impl FrameBuilder {
    /// A builder over an `n_sectors × n_days` grid (at least one day).
    /// It allocates nothing until records arrive.
    pub(crate) fn new(n_sectors: usize, n_days: u32) -> Self {
        FrameBuilder {
            n_sectors: u32::try_from(n_sectors).unwrap_or(u32::MAX),
            n_days: n_days.max(1),
            ..FrameBuilder::default()
        }
    }

    // telco-lint: deny-alloc(begin)
    #[inline]
    fn cell_group(&mut self, sector: u32, day: u32) -> &mut CellGroup {
        let s = sector as usize;
        if day == self.open_day && s < self.slab.len() {
            let group = &mut self.slab[s];
            if !touched(group) {
                self.touched.push(sector); // telco-lint: allow(alloc): reserved to the slab's length, and a sector is pushed once per open day
            }
            return group;
        }
        self.cell_group_cold(sector, day)
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
    // telco-lint: deny-alloc(end)

    /// The slow path of [`FrameBuilder::cell_group`]: a cell outside the
    /// grid, a record of another day than the open one, or a sector past
    /// the slab, which grows to cover it (at least doubling, capped at
    /// the grid).
    #[cold]
    #[inline(never)]
    fn cell_group_cold(&mut self, sector: u32, day: u32) -> &mut CellGroup {
        if sector >= self.n_sectors || day >= self.n_days {
            return self.spill.entry(spill_key(sector, day)).or_default();
        }
        if day != self.open_day {
            self.close_day();
            self.open_day = day;
        }
        let s = sector as usize;
        if s >= self.slab.len() {
            let len = (s + 1).max(2 * self.slab.len()).min(self.n_sectors as usize);
            self.slab.resize(len, CellGroup::default());
            self.touched.reserve(len - self.touched.len());
        }
        self.cell_group(sector, day)
    }

    /// The open day's touched groups, ascending by sector.
    fn open_cells(&self) -> DayCells {
        let mut sectors = self.touched.clone();
        sectors.sort_unstable();
        sectors.into_iter().map(|s| (s, self.slab[s as usize])).collect()
    }

    /// Move the open day's groups into its closed list and zero them in
    /// the slab.
    fn close_day(&mut self) {
        if self.touched.is_empty() {
            return;
        }
        self.touched.sort_unstable();
        let cells = self.touched.iter().map(|&s| (s, std::mem::take(&mut self.slab[s as usize])));
        let cells = cells.collect();
        self.touched.clear();
        self.add_day(self.open_day, cells);
    }

    /// Fold a sector-sorted list into day `day`: it becomes the day's
    /// list, or is merge-added into the one already there.
    fn add_day(&mut self, day: u32, cells: DayCells) {
        let list = self.days.entry(day).or_default();
        *list = merge_cells(std::mem::take(list), cells);
    }

    // telco-lint: deny-nondeterminism(begin)
    /// Fold another builder's cells into this one, keyed by `(sector,
    /// day)` against this builder's grid, so two builders whose grids
    /// differ still count each cell where it belongs. Equal grids — every
    /// sweep — move each closed day list whole and merge-add the one day
    /// two adjacent spans share. All counters are additive, so the fold
    /// is order-independent and a partitioned parallel sweep merges to
    /// the sequential result.
    pub(crate) fn merge(&mut self, mut other: FrameBuilder) {
        self.close_day();
        other.close_day();
        // Cells of `other` that need routing one by one, as `(day,
        // sector, group)`; they hold distinct keys, as every store does.
        let mut strays: Vec<(u32, u32, CellGroup)> = Vec::new();
        for (day, cells) in other.days {
            let inside =
                day < self.n_days && cells.last().is_some_and(|&(s, _)| s < self.n_sectors);
            if inside {
                self.add_day(day, cells);
            } else {
                strays.extend(cells.into_iter().map(|(sector, group)| (day, sector, group)));
            }
        }
        // telco-lint: allow(nondet): collected, then sorted before any cell lands in a day list
        strays.extend(
            other.spill.into_iter().map(|(key, group)| (key as u32, (key >> 32) as u32, group)),
        );
        strays.sort_unstable_by_key(|&(day, sector, _)| (day, sector));
        let mut inside: Vec<(u32, u32, CellGroup)> = Vec::new();
        for (day, sector, group) in strays {
            if sector >= self.n_sectors || day >= self.n_days {
                add_group(self.spill.entry(spill_key(sector, day)).or_default(), &group);
            } else if touched(&group) {
                inside.push((day, sector, group));
            }
        }
        for run in inside.chunk_by(|a, b| a.0 == b.0) {
            self.add_day(run[0].0, run.iter().map(|&(_, sector, group)| (sector, group)).collect());
        }
    }
    // telco-lint: deny-nondeterminism(end)

    /// How many grid cells the accumulator holds: every closed group, and
    /// every open one that does not reopen a closed group.
    fn grid_cells(&self) -> usize {
        let closed = self.days.get(&self.open_day);
        let reopened = self.touched.iter().filter(|&&sector| {
            closed.is_some_and(|cells| cells.binary_search_by_key(&sector, |&(s, _)| s).is_ok())
        });
        self.days.values().map(Vec::len).sum::<usize>() + self.touched.len() - reopened.count()
    }

    /// Visit every grid cell, the open day's included, as `(sector, day,
    /// group)` in sector-major order: a k-way merge of the day lists by
    /// sector, ties in day order. It reads each list once, front to back,
    /// and holds nothing the size of the cells. The open day, when it
    /// reopened a closed list, merges in after that list, and the two
    /// groups of a sector there are summed.
    fn for_each_sector_major(&self, mut visit: impl FnMut(u32, u32, &CellGroup)) {
        let open = self.open_cells();
        let mut sources: Vec<(u32, &[(u32, CellGroup)])> =
            self.days.iter().map(|(&day, cells)| (day, cells.as_slice())).collect();
        if !open.is_empty() {
            let at = sources.partition_point(|&(day, _)| day <= self.open_day);
            sources.insert(at, (self.open_day, &open));
        }
        // Each source's next sector; equal sectors pop in source order,
        // which is day order.
        let mut heads: BinaryHeap<Reverse<(u32, usize)>> = sources
            .iter()
            .enumerate()
            .filter_map(|(i, &(_, cells))| Some(Reverse((cells.first()?.0, i))))
            .collect();
        let mut pending: Option<(u32, u32, CellGroup)> = None;
        while let Some(mut head) = heads.peek_mut() {
            let Reverse((sector, i)) = *head;
            let (day, cells) = &mut sources[i];
            let Some((&(_, group), rest)) = cells.split_first() else { break };
            *cells = rest;
            match rest.first() {
                Some(&(next, _)) => *head = Reverse((next, i)),
                None => {
                    PeekMut::pop(head);
                }
            }
            match &mut pending {
                Some((s, d, sum)) if (*s, *d) == (sector, *day) => add_group(sum, &group),
                _ => {
                    if let Some((s, d, sum)) = pending.replace((sector, *day, group)) {
                        visit(s, d, &sum);
                    }
                }
            }
        }
        if let Some((s, d, sum)) = pending {
            visit(s, d, &sum);
        }
    }

    /// Encode the accumulator: the grid's bounds, then each touched
    /// group in sector-major order (index `sector × n_days + day`) as its
    /// index gap from the previous touched group (the first from 0) and
    /// its six counters, then the spill cells in sorted key order. The
    /// bytes follow the touched groups and never depend on the order the
    /// records arrived in or on hash-insertion history.
    pub(crate) fn snapshot(&self, w: &mut SnapWriter) {
        let put_group = |w: &mut SnapWriter, group: &CellGroup| {
            for &(hos, hofs) in group {
                w.put_varint(u64::from(hos));
                w.put_varint(u64::from(hofs));
            }
        };
        w.put_u32(self.n_sectors);
        w.put_u32(self.n_days);
        w.put_varint(self.grid_cells() as u64);
        let mut prev = 0;
        self.for_each_sector_major(|sector, day, group| {
            let idx = u64::from(sector) * u64::from(self.n_days) + u64::from(day);
            w.put_varint(idx - prev);
            put_group(w, group);
            prev = idx;
        });
        let mut spill: Vec<(u64, CellGroup)> = self.spill.iter().map(|(&k, &v)| (k, v)).collect();
        spill.sort_unstable_by_key(|&(k, _)| k);
        w.put_varint(spill.len() as u64);
        for (key, group) in &spill {
            w.put_varint(*key);
            put_group(w, group);
        }
    }

    /// Decode a snapshot straight into closed day lists and the spill
    /// map. The groups arrive in sector-major order, so each day's list
    /// fills ascending by sector; nothing is allocated for the grid the
    /// header names, only for the groups the payload holds.
    ///
    /// # Errors
    ///
    /// [`SnapError::Malformed`] for a grid too large to index, a touched
    /// index that is not ascending, overflows or lies past the grid, a
    /// spill cell inside the grid, and a counter past `u32`, plus the
    /// reader's own errors.
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
        *self = FrameBuilder { n_sectors: r.get_u32()?, n_days: r.get_u32()?, ..Self::default() };
        let (n_sectors, n_days) = (self.n_sectors as usize, self.n_days as usize);
        // The gaps index the grid as one array of groups, so a header
        // naming a grid no array could hold is malformed.
        let cells = n_sectors
            .checked_mul(n_days)
            .filter(|&cells| std::alloc::Layout::array::<CellGroup>(cells).is_ok())
            .ok_or(SnapError::Malformed("frame grid size"))?;
        let mut idx = 0usize;
        for i in 0..r.get_len()? {
            let gap = r.get_len()?;
            if i > 0 && gap == 0 {
                return Err(SnapError::Malformed("frame groups not ascending"));
            }
            idx = idx
                .checked_add(gap)
                .filter(|&idx| idx < cells)
                .ok_or(SnapError::Malformed("frame group past the grid"))?;
            let group = get_group(r)?;
            if touched(&group) {
                let (sector, day) = ((idx / n_days) as u32, (idx % n_days) as u32);
                self.days.entry(day).or_default().push((sector, group));
            }
        }
        let n = r.get_len()?;
        self.spill.reserve(n.min(r.remaining()));
        for _ in 0..n {
            let key = r.get_varint()?;
            if key >> 32 < u64::from(self.n_sectors) && (key as u32) < self.n_days {
                return Err(SnapError::Malformed("frame spill cell inside the grid"));
            }
            self.spill.insert(key, get_group(r)?);
        }
        Ok(())
    }

    /// The daily frame: one observation per `(sector, day, type)` cell
    /// with handovers, sorted by sector, day and type. The grid cells
    /// come out of [`FrameBuilder::for_each_sector_major`] in that order
    /// already; only spill cells need a sort to interleave.
    pub(crate) fn finish(mut self, world: &World) -> SectorDayFrame {
        self.close_day();
        let mut observations: Vec<SectorDayObs> = Vec::new();
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
        self.for_each_sector_major(&mut emit);
        if !self.spill.is_empty() {
            for (&key, group) in &self.spill {
                emit((key >> 32) as u32, key as u32, group);
            }
            // A cell lives in exactly one store, so the keys are distinct.
            observations.sort_unstable_by_key(|o| (o.sector.0, o.day, o.ho_type.index()));
        }
        SectorDayFrame { observations }
    }

    /// Heap bytes the accumulator holds (the day map's nodes aside).
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slab.capacity() * size_of::<CellGroup>()
            + self.touched.capacity() * size_of::<u32>()
            + self.days.values().map(|cells| cells.capacity()).sum::<usize>()
                * size_of::<(u32, CellGroup)>()
            + self.spill.capacity() * size_of::<(u64, CellGroup)>()
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
        self.builder = FrameBuilder::new(ctx.world.topology.sectors().len(), ctx.config.n_days);
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
    use telco_topology::rat::Rat;
    use telco_trace::record::HoOutcome;

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
        // The restored partial holds its touched groups, not the grid.
        let group_bytes = std::mem::size_of::<(u32, CellGroup)>();
        let grid_bytes = s.world.topology.sectors().len() * 28 * std::mem::size_of::<CellGroup>();
        let heap = restored.builder.heap_bytes();
        assert!(
            heap <= 2 * group_bytes * touched.len().max(4),
            "{heap} B on the heap for {} touched groups of a {grid_bytes} B grid",
            touched.len()
        );
        assert_eq!(restored.end(&ctx).observations(), pass.end(&ctx).observations());
    }

    #[test]
    fn merging_a_smaller_grid_keys_cells_by_sector_and_day() {
        let s = study();
        let mut config = s.config.clone();
        config.n_days = 3;
        let ctx = SweepCtx { world: &s.world, config: &config };
        // A daily frame whose header names a one-day grid over the
        // world's sectors, holding one handover of sector 5 on day 0.
        let mut w = SnapWriter::new();
        w.put_u8(0);
        w.put_u32(s.world.topology.sectors().len() as u32);
        w.put_u32(1);
        w.put_varint(1);
        w.put_varint(5);
        for counter in [1, 0, 0, 0, 0, 0] {
            w.put_varint(counter);
        }
        w.put_varint(0);
        let bytes = telco_trace::snap::encode_frame(FramePass::SNAPSHOT_VERSION, &w.into_bytes());
        let mut restored = FramePass::default();
        crate::sweep::restore_pass(&mut restored, &bytes).unwrap();
        let mut pass = FramePass::new(FrameWindow::Daily);
        pass.begin(&ctx);
        pass.merge(restored, &ctx);
        let cells: Vec<(u32, u32, u32)> =
            pass.end(&ctx).observations().iter().map(|o| (o.sector.0, o.day, o.hos)).collect();
        assert_eq!(cells, [(5, 0, 1)]);
    }

    /// A builder's grid cells in sector-major order.
    fn grid_of(builder: &FrameBuilder) -> Vec<(u32, u32, CellGroup)> {
        let mut cells = Vec::new();
        builder.for_each_sector_major(|sector, day, group| cells.push((sector, day, *group)));
        cells
    }

    #[test]
    fn merging_a_larger_grid_spills_the_cells_past_this_one() {
        let one = [(1, 0), (0, 0), (0, 0)];
        // A successful intra 4G/5G handover.
        let record = |sector: u32, day: u64| HoRecord {
            timestamp_ms: day * 86_400_000,
            ue: UeId(0),
            source_sector: SectorId(sector),
            target_sector: SectorId(0),
            source_rat: Rat::G4,
            target_rat: Rat::G4,
            outcome: HoOutcome::Success,
            cause: None,
            duration_ms: 40,
            srvcc: false,
            messages: 6,
        };
        let mut small = FrameBuilder::new(6, 1);
        small.add(&record(5, 0));
        let mut large = FrameBuilder::new(10, 3);
        for (sector, day) in [(5, 0), (2, 0), (7, 0), (5, 2)] {
            large.add(&record(sector, day));
        }
        small.merge(large);
        let mut doubled = one;
        add_group(&mut doubled, &one);
        assert_eq!(grid_of(&small), [(2, 0, one), (5, 0, doubled)]);
        let mut spill: Vec<_> = small.spill.into_iter().collect();
        spill.sort_unstable();
        assert_eq!(spill, [(spill_key(5, 2), one), (spill_key(7, 0), one)]);
    }

    /// A `FrameBuilder` payload over a 2 × 3 grid whose touched groups
    /// sit at the given index gaps, and whose spill cells at the given
    /// keys, each holding one handover.
    fn grid_payload(gaps: &[u64], spill: &[u64]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u32(2);
        w.put_u32(3);
        for (count, varints) in [(gaps.len(), gaps), (spill.len(), spill)] {
            w.put_varint(count as u64);
            for &varint in varints {
                w.put_varint(varint);
                for counter in [1, 0, 0, 0, 0, 0] {
                    w.put_varint(counter);
                }
            }
        }
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
        let one = [(1, 0), (0, 0), (0, 0)];
        let builder = restore_builder(&grid_payload(&[0, 5], &[3 << 32])).unwrap();
        // Index 5 of the 2 × 3 grid is sector 1, day 2; the spill cell is
        // sector 3, day 0.
        assert_eq!(grid_of(&builder), [(0, 0, one), (1, 2, one)]);
        assert_eq!(builder.spill.get(&(3 << 32)), Some(&one));
        let past = Some(SnapError::Malformed("frame group past the grid"));
        assert_eq!(restore_builder(&grid_payload(&[6], &[])).err(), past);
        assert_eq!(restore_builder(&grid_payload(&[3, 3], &[])).err(), past);
        assert_eq!(restore_builder(&grid_payload(&[1, u64::MAX], &[])).err(), past);
        assert_eq!(
            restore_builder(&grid_payload(&[2, 0], &[])).err(),
            Some(SnapError::Malformed("frame groups not ascending"))
        );
        assert_eq!(
            restore_builder(&grid_payload(&[], &[(1 << 32) | 2])).err(),
            Some(SnapError::Malformed("frame spill cell inside the grid"))
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
