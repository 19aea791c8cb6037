//! Ping-pong handover analysis.
//!
//! A ping-pong (PP) handover occurs when a UE is handed from a source to a
//! target sector and back to the source within a short predefined window
//! (§7, footnote 10 — the operator-side studies of Féher et al. and Zidic
//! et al. that the paper positions itself against). PP HOs are wasted
//! signaling; operators tune hysteresis and time-to-trigger to suppress
//! them. This analysis measures their prevalence in a study trace.

use serde::{Deserialize, Serialize};

use telco_devices::population::UeId;
use telco_devices::types::Manufacturer;
use telco_trace::columnar::ColumnBatch;
use telco_trace::record::HoRecord;
use telco_trace::snap::{SnapError, SnapReader, SnapWriter};

use crate::frame::Enriched;
use crate::sweep::{AnalysisPass, SweepCtx};
use crate::tables::{num, pct, TextTable};

/// The conventional PP detection window, ms (Zidic et al. use 5 s).
pub const DEFAULT_WINDOW_MS: u64 = 5_000;

/// Ping-pong statistics over a study trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PingPongAnalysis {
    /// Detection window used, ms.
    pub window_ms: u64,
    /// Total handovers inspected.
    pub total_hos: u64,
    /// Handovers that complete a ping-pong pair (the "return leg").
    pub pingpong_hos: u64,
    /// PP rate among all handovers.
    pub rate: f64,
    /// PP rate per manufacturer, sorted by manufacturer index (only
    /// manufacturers with ≥ 100 HOs).
    pub by_manufacturer: Vec<(Manufacturer, f64)>,
    /// Mean time between the out and return legs, ms.
    pub mean_return_ms: f64,
}

impl PingPongAnalysis {
    /// Render as a table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!("Ping-pong handovers (window {} ms)", self.window_ms),
            &["Metric", "Value"],
        );
        t.row_strs(&["Total HOs", &self.total_hos.to_string()]);
        t.row_strs(&["Ping-pong return legs", &self.pingpong_hos.to_string()]);
        t.row_strs(&["PP rate", &pct(self.rate, 2)]);
        t.row_strs(&["Mean return time (ms)", &num(self.mean_return_ms, 0)]);
        for (m, r) in &self.by_manufacturer {
            t.row(&[format!("PP rate: {m}"), pct(*r, 2)]);
        }
        t
    }
}

/// One handover leg: (timestamp, source sector, target sector).
type Leg = (u64, u32, u32);

/// The per-UE edge slot for `ue`, growing the table if the trace names a
/// UE the world didn't (the fold then still stitches it correctly).
#[inline]
fn leg_slot(legs: &mut Vec<Option<Leg>>, ue: usize) -> &mut Option<Leg> {
    if ue >= legs.len() {
        legs.resize(ue + 1, None);
    }
    &mut legs[ue]
}

/// Encode a per-UE edge table. Trailing absent slots are trimmed so the
/// bytes depend only on the legs actually observed, not on how far the
/// table happened to grow.
fn snapshot_legs(legs: &[Option<Leg>], w: &mut SnapWriter) {
    let used = legs.iter().rposition(Option::is_some).map_or(0, |i| i + 1);
    w.put_varint(used as u64);
    for leg in &legs[..used] {
        match leg {
            None => w.put_bool(false),
            Some((ts, src, tgt)) => {
                w.put_bool(true);
                w.put_varint(*ts);
                w.put_u32(*src);
                w.put_u32(*tgt);
            }
        }
    }
}

fn restore_legs(r: &mut SnapReader) -> Result<Vec<Option<Leg>>, SnapError> {
    let n = r.get_len()?;
    let mut legs = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        legs.push(if r.get_bool()? {
            Some((r.get_varint()?, r.get_u32()?, r.get_u32()?))
        } else {
            None
        });
    }
    Ok(legs)
}

/// Streaming accumulator for [`PingPongAnalysis`]: for each UE, a handover
/// A→B followed within the window by B→A counts the return leg as a
/// ping-pong. Records arrive timestamp-sorted by construction; merging
/// partitions stitches pairs across the boundary by checking each UE's
/// first handover of the later span against its last of the earlier one —
/// exact at any split point, which is what lets the span-parallel sweep
/// fold this pass.
///
/// Per-UE edges and per-manufacturer counters live in flat vectors
/// (UE ids and the manufacturer catalog are both dense), so the hot loop
/// performs no hashing at all.
#[derive(Debug)]
pub struct PingPongPass {
    window_ms: u64,
    /// First handover per UE in this span, indexed by UE id.
    first: Vec<Option<Leg>>,
    /// Last handover per UE in this span, indexed by UE id.
    last: Vec<Option<Leg>>,
    total: u64,
    pingpong: u64,
    return_sum: f64,
    /// Per manufacturer (catalog index order): (HOs, ping-pongs).
    per_mfr: Vec<(u64, u64)>,
}

impl PingPongPass {
    /// A pass with an explicit detection window.
    pub fn new(window_ms: u64) -> Self {
        PingPongPass {
            window_ms,
            first: Vec::new(),
            last: Vec::new(),
            total: 0,
            pingpong: 0,
            return_sum: 0.0,
            per_mfr: vec![(0, 0); Manufacturer::ALL.len()],
        }
    }

    #[inline]
    fn observe(&mut self, ue: u32, ts: u64, src: u32, tgt: u32, e: &Enriched) {
        self.total += 1;
        let mfr_idx = e.manufacturer_idx_of(ue);
        if mfr_idx >= self.per_mfr.len() {
            self.per_mfr.resize(mfr_idx + 1, (0, 0));
        }
        self.per_mfr[mfr_idx].0 += 1;
        let prev = leg_slot(&mut self.last, ue as usize);
        if let Some((prev_ts, prev_src, prev_tgt)) = *prev {
            let is_return =
                src == prev_tgt && tgt == prev_src && ts.saturating_sub(prev_ts) <= self.window_ms;
            if is_return {
                self.pingpong += 1;
                self.per_mfr[mfr_idx].1 += 1;
                self.return_sum += (ts - prev_ts) as f64;
            }
        }
        *prev = Some((ts, src, tgt));
        let opening = leg_slot(&mut self.first, ue as usize);
        if opening.is_none() {
            *opening = Some((ts, src, tgt));
        }
    }
}

impl Default for PingPongPass {
    fn default() -> Self {
        PingPongPass::new(DEFAULT_WINDOW_MS)
    }
}

impl AnalysisPass for PingPongPass {
    type Output = PingPongAnalysis;

    fn record(&mut self, r: &HoRecord, e: &Enriched) {
        self.observe(r.ue.0, r.timestamp_ms, r.source_sector.0, r.target_sector.0, e);
    }

    // telco-lint: deny-alloc(begin)
    fn record_columns(&mut self, batch: &ColumnBatch, e: &Enriched) {
        let rows = batch
            .timestamps()
            .iter()
            .zip(batch.ues())
            .zip(batch.source_sectors())
            .zip(batch.target_sectors());
        for (((&ts, &ue), &src), &tgt) in rows {
            self.observe(ue, ts, src, tgt, e);
        }
    }
    // telco-lint: deny-alloc(end)

    fn merge(&mut self, other: Self, ctx: &SweepCtx) {
        self.total += other.total;
        self.pingpong += other.pingpong;
        self.return_sum += other.return_sum;
        if self.per_mfr.len() < other.per_mfr.len() {
            self.per_mfr.resize(other.per_mfr.len(), (0, 0));
        }
        for (mine, theirs) in self.per_mfr.iter_mut().zip(&other.per_mfr) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
        // Boundary stitch: `other`'s first leg per UE may return `self`'s
        // last one.
        for (ue, leg) in other.first.iter().enumerate() {
            let Some((ts, src, tgt)) = *leg else { continue };
            let Some(Some((prev_ts, prev_src, prev_tgt))) = self.last.get(ue).copied() else {
                continue;
            };
            let is_return =
                src == prev_tgt && tgt == prev_src && ts.saturating_sub(prev_ts) <= self.window_ms;
            if is_return {
                self.pingpong += 1;
                self.return_sum += (ts - prev_ts) as f64;
                let mfr = ctx.world.ue(UeId(ue as u32)).manufacturer;
                if let Some(counts) = self.per_mfr.get_mut(mfr.index()) {
                    counts.1 += 1;
                }
            }
        }
        // `other` is later in trace order: its last legs supersede ours,
        // and its first legs only fill UEs we never saw.
        if self.last.len() < other.last.len() {
            self.last.resize(other.last.len(), None);
        }
        for (mine, theirs) in self.last.iter_mut().zip(other.last) {
            if theirs.is_some() {
                *mine = theirs;
            }
        }
        if self.first.len() < other.first.len() {
            self.first.resize(other.first.len(), None);
        }
        for (mine, theirs) in self.first.iter_mut().zip(other.first) {
            if mine.is_none() {
                *mine = theirs;
            }
        }
    }

    fn end(self, _ctx: &SweepCtx) -> PingPongAnalysis {
        // Catalog order by construction — no post-sort needed.
        let by_manufacturer: Vec<(Manufacturer, f64)> = self
            .per_mfr
            .iter()
            .enumerate()
            .filter(|&(_, &(n, _))| n >= 100)
            .filter_map(|(i, &(n, pp))| {
                Manufacturer::ALL.get(i).map(|&m| (m, pp as f64 / n as f64))
            })
            .collect();

        PingPongAnalysis {
            window_ms: self.window_ms,
            total_hos: self.total,
            pingpong_hos: self.pingpong,
            rate: self.pingpong as f64 / self.total.max(1) as f64,
            by_manufacturer,
            mean_return_ms: if self.pingpong > 0 {
                self.return_sum / self.pingpong as f64
            } else {
                0.0
            },
        }
    }

    const SNAPSHOT_VERSION: u16 = 1;

    fn snapshot(&self, w: &mut SnapWriter) {
        w.put_varint(self.window_ms);
        snapshot_legs(&self.first, w);
        snapshot_legs(&self.last, w);
        w.put_varint(self.total);
        w.put_varint(self.pingpong);
        w.put_f64(self.return_sum);
        w.put_varint(self.per_mfr.len() as u64);
        for &(hos, pps) in &self.per_mfr {
            w.put_varint(hos);
            w.put_varint(pps);
        }
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.window_ms = r.get_varint()?;
        self.first = restore_legs(r)?;
        self.last = restore_legs(r)?;
        self.total = r.get_varint()?;
        self.pingpong = r.get_varint()?;
        self.return_sum = r.get_f64()?;
        let n = r.get_len()?;
        self.per_mfr = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            self.per_mfr.push((r.get_varint()?, r.get_varint()?));
        }
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
            cfg.n_ues = 1_500;
            cfg.threads = 0;
            run_study(cfg)
        })
    }

    fn pingpong() -> PingPongAnalysis {
        Sweep::new(study()).run(PingPongPass::default).unwrap()
    }

    #[test]
    fn pingpongs_exist_and_are_minority() {
        let pp = pingpong();
        assert!(pp.total_hos > 1_000);
        assert!(pp.pingpong_hos > 0, "chatty manufacturers must produce ping-pongs");
        assert!(pp.rate < 0.35, "PP rate {} implausibly high", pp.rate);
        assert!(pp.mean_return_ms <= DEFAULT_WINDOW_MS as f64);
    }

    #[test]
    fn window_zero_finds_only_instant_returns() {
        let sweep = Sweep::new(study());
        let strict = sweep.run(|| PingPongPass::new(1)).unwrap();
        let loose = sweep.run(|| PingPongPass::new(60_000)).unwrap();
        assert!(strict.pingpong_hos <= loose.pingpong_hos);
    }

    #[test]
    fn parallel_stitch_matches_sequential() {
        // Same trace swept with 1 thread and with day partitioning: the
        // boundary stitch must recover every cross-midnight ping-pong.
        let mut cfg = SimConfig::tiny();
        cfg.n_ues = 1_000;
        cfg.threads = 1;
        let seq = run_study(cfg.clone());
        cfg.threads = 4;
        let par = run_study(cfg);
        let a = Sweep::new(&seq).run(PingPongPass::default).unwrap();
        let b = Sweep::new(&par).run(PingPongPass::default).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn chatty_manufacturers_pingpong_more() {
        let pp = pingpong();
        let get =
            |m: Manufacturer| pp.by_manufacturer.iter().find(|(x, _)| *x == m).map(|(_, r)| *r);
        if let (Some(simcom), Some(apple)) = (get(Manufacturer::Simcom), get(Manufacturer::Apple)) {
            assert!(simcom > apple, "Simcom PP rate {simcom} should exceed Apple's {apple}");
        }
    }

    #[test]
    fn table_renders() {
        assert!(pingpong().table().to_string().contains("PP rate"));
    }
}
