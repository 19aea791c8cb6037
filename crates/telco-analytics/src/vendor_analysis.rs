//! Appendix B — vendor and area effects (Figs. 17 and 18): vendor shares
//! per region and per handover type, and HOF-rate boxplots per vendor and
//! per area, derived from the daily sector frame.

use serde::{Deserialize, Serialize};

use telco_geo::district::Region;
use telco_geo::postcode::AreaType;
use telco_stats::boxplot::BoxplotStats;
use telco_topology::vendor::Vendor;

use crate::frame::{DerivedPass, FromDailyFrame, SectorDayFrame};
use crate::sweep::SweepCtx;
use crate::tables::{num, pct, TextTable};

/// Figs. 17–18 — vendor/area breakdowns.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VendorAnalysis {
    /// Vendor share of deployed sectors per region (`[region][vendor]`).
    pub sectors_by_region: [[f64; 4]; 4],
    /// Vendor share of handovers per handover type (`[ho_type][vendor]`).
    pub hos_by_type: [[f64; 4]; 3],
    /// HOF-rate (%) boxplots per vendor over sector-day cells.
    pub hof_by_vendor: Vec<Option<BoxplotStats>>,
    /// HOF-rate (%) boxplots per area type.
    pub hof_by_area: Vec<Option<BoxplotStats>>,
}

impl FromDailyFrame for VendorAnalysis {
    fn from_daily_frame(frame: &SectorDayFrame, ctx: &SweepCtx) -> Self {
        let world = ctx.world;
        // Fig. 17 top: sectors per region.
        let mut reg_counts = [[0u64; 4]; 4];
        for s in world.topology.sectors() {
            let district = world.topology.sector_district(s.id);
            let region = world.country.district(district).region;
            reg_counts[region.index()][s.vendor.index()] += 1;
        }
        let mut sectors_by_region = [[0.0; 4]; 4];
        for r in 0..4 {
            let total: u64 = reg_counts[r].iter().sum();
            for v in 0..4 {
                sectors_by_region[r][v] = reg_counts[r][v] as f64 / total.max(1) as f64;
            }
        }

        // Fig. 17 bottom: handovers per type by source-sector vendor. Fig.
        // 18: HOF-rate distributions by vendor / area over cells with
        // enough handovers to make the rate meaningful.
        let mut type_counts = [[0u64; 4]; 3];
        let mut by_vendor: [Vec<f64>; 4] = Default::default();
        let mut by_area: [Vec<f64>; 2] = Default::default();
        for o in frame.observations() {
            type_counts[o.ho_type.index()][o.vendor.index()] += u64::from(o.hos);
            if o.hos >= 3 {
                by_vendor[o.vendor.index()].push(o.hof_rate_pct());
                by_area[o.area.index()].push(o.hof_rate_pct());
            }
        }
        let mut hos_by_type = [[0.0; 4]; 3];
        for t in 0..3 {
            let total: u64 = type_counts[t].iter().sum();
            for v in 0..4 {
                hos_by_type[t][v] = type_counts[t][v] as f64 / total.max(1) as f64;
            }
        }
        VendorAnalysis {
            sectors_by_region,
            hos_by_type,
            hof_by_vendor: by_vendor.iter().map(|v| BoxplotStats::of(v)).collect(),
            hof_by_area: by_area.iter().map(|v| BoxplotStats::of(v)).collect(),
        }
    }
}

impl VendorAnalysis {
    /// Render Fig. 17.
    pub fn table_shares(&self) -> TextTable {
        let mut t = TextTable::new(
            "Fig 17: Vendor share per region (sectors) and per HO type (HOs)",
            &["Split", "V1", "V2", "V3", "V4"],
        );
        for region in Region::ALL {
            let s = self.sectors_by_region[region.index()];
            t.row(&[region.to_string(), pct(s[0], 1), pct(s[1], 1), pct(s[2], 1), pct(s[3], 1)]);
        }
        for (i, label) in ["Intra 4G/5G-NSA HOs", "->3G HOs", "->2G HOs"].iter().enumerate() {
            let s = self.hos_by_type[i];
            t.row(&[label.to_string(), pct(s[0], 1), pct(s[1], 1), pct(s[2], 1), pct(s[3], 1)]);
        }
        t
    }

    /// Render Fig. 18.
    pub fn table_boxplots(&self) -> TextTable {
        let mut t = TextTable::new(
            "Fig 18: HOF rate (%) per vendor and per area (sector-day cells)",
            &["Group", "median", "mean", "p75"],
        );
        for v in Vendor::ALL {
            if let Some(b) = &self.hof_by_vendor[v.index()] {
                t.row(&[v.to_string(), num(b.median, 3), num(b.mean, 3), num(b.q3, 3)]);
            }
        }
        for a in [AreaType::Urban, AreaType::Rural] {
            if let Some(b) = &self.hof_by_area[a.index()] {
                t.row(&[a.to_string(), num(b.median, 3), num(b.mean, 3), num(b.q3, 3)]);
            }
        }
        t
    }
}

/// The [`VendorAnalysis`] pass: the daily frame, summed per type and
/// vendor and read as boxplots at `end`.
pub type VendorPass = DerivedPass<VendorAnalysis>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Sweep;
    use telco_sim::{run_study, SimConfig};

    fn analysis() -> VendorAnalysis {
        let mut cfg = SimConfig::tiny();
        cfg.n_ues = 1_500;
        cfg.n_days = 3;
        Sweep::new(&run_study(cfg)).run(VendorPass::default).unwrap()
    }

    #[test]
    fn region_shares_normalize() {
        let a = analysis();
        for r in 0..4 {
            let sum: f64 = a.sectors_by_region[r].iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "region {r}: {sum}");
        }
    }

    #[test]
    fn v3_concentrates_in_west() {
        let a = analysis();
        let west = a.sectors_by_region[Region::West.index()][Vendor::V3.index()];
        let capital = a.sectors_by_region[Region::Capital.index()][Vendor::V3.index()];
        assert!(west > capital, "V3 west {west} vs capital {capital}");
    }

    #[test]
    fn vendor_hof_ordering_visible() {
        let a = analysis();
        let v1 = a.hof_by_vendor[Vendor::V1.index()].as_ref().map(|b| b.mean);
        let v3 = a.hof_by_vendor[Vendor::V3.index()].as_ref().map(|b| b.mean);
        if let (Some(v1), Some(v3)) = (v1, v3) {
            assert!(v3 > v1, "V3 mean {v3} should exceed V1 {v1}");
        }
    }

    #[test]
    fn rural_cells_fail_more() {
        let a = analysis();
        let urban = a.hof_by_area[AreaType::Urban.index()].as_ref().map(|b| b.mean);
        let rural = a.hof_by_area[AreaType::Rural.index()].as_ref().map(|b| b.mean);
        if let (Some(u), Some(r)) = (urban, rural) {
            assert!(r > u * 0.8, "rural mean {r} vs urban {u}");
        }
    }

    #[test]
    fn tables_render() {
        let a = analysis();
        assert!(a.table_shares().to_string().contains("V3"));
        assert!(a.table_boxplots().to_string().contains("median"));
    }
}
