//! Simulation outputs: everything the analyses consume.

use serde::{Deserialize, Serialize};

use telco_devices::population::UeId;
use telco_signaling::entities::CoreNetwork;
use telco_topology::rat::Rat;
use telco_trace::dataset::SignalingDataset;

use crate::runner::RunnerStats;

/// One UE-day row of the mobility ledger: the §3.3 metrics plus handover
/// accounting (feeds Figs. 10 and 13).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UeDayMobility {
    /// The UE.
    pub ue: UeId,
    /// Zero-based study day.
    pub day: u32,
    /// Distinct radio sectors communicated with.
    pub sectors: u16,
    /// Radius of gyration, km.
    pub gyration_km: f32,
    /// Handovers recorded (EPC view).
    pub hos: u16,
    /// Handover failures.
    pub hofs: u16,
    /// Signaling messages exchanged across all handovers.
    pub messages: u32,
}

impl UeDayMobility {
    /// Daily HOF rate of the UE (0 when no handovers happened).
    pub fn hof_rate(&self) -> f64 {
        if self.hos == 0 {
            0.0
        } else {
            self.hofs as f64 / self.hos as f64
        }
    }
}

/// Attach-time and traffic-volume ledger per RAT (feeds Fig. 3b).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RatLedger {
    /// Attach time per RAT, ms (indexed by `Rat::index()`).
    pub attach_ms: [f64; 4],
    /// Uplink volume per RAT, MB.
    pub ul_mb: [f64; 4],
    /// Downlink volume per RAT, MB.
    pub dl_mb: [f64; 4],
}

impl RatLedger {
    /// Add attach time and the corresponding traffic share.
    pub fn add(&mut self, rat: Rat, attach_ms: f64, ul_mb: f64, dl_mb: f64) {
        let i = rat.index();
        self.attach_ms[i] += attach_ms;
        self.ul_mb[i] += ul_mb;
        self.dl_mb[i] += dl_mb;
    }

    /// Merge another ledger.
    pub fn merge(&mut self, other: &RatLedger) {
        for i in 0..4 {
            self.attach_ms[i] += other.attach_ms[i];
            self.ul_mb[i] += other.ul_mb[i];
            self.dl_mb[i] += other.dl_mb[i];
        }
    }

    /// Attach-time share per RAT (sums to 1; zeros if no time recorded).
    pub fn time_shares(&self) -> [f64; 4] {
        normalize(self.attach_ms)
    }

    /// Uplink traffic share per RAT.
    pub fn ul_shares(&self) -> [f64; 4] {
        normalize(self.ul_mb)
    }

    /// Downlink traffic share per RAT.
    pub fn dl_shares(&self) -> [f64; 4] {
        normalize(self.dl_mb)
    }

    /// Combined 4G + 5G-NSA attach-time share (the paper cannot split the
    /// two through the EPC — §4.1).
    pub fn epc_time_share(&self) -> f64 {
        let s = self.time_shares();
        s[Rat::G4.index()] + s[Rat::G5Nr.index()]
    }
}

fn normalize(v: [f64; 4]) -> [f64; 4] {
    let sum: f64 = v.iter().sum();
    if sum <= 0.0 {
        return [0.0; 4];
    }
    [v[0] / sum, v[1] / sum, v[2] / sum, v[3] / sum]
}

/// The complete output of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimOutput {
    /// The handover trace.
    pub dataset: SignalingDataset,
    /// Per-UE-day mobility rows.
    pub mobility: Vec<UeDayMobility>,
    /// Attach-time / traffic ledger.
    pub ledger: RatLedger,
    /// Core-network message accounting (the probe view).
    pub core: CoreNetwork,
    /// How the runner produced this output (which scheduling path ran,
    /// with how many threads and work items), so a test can assert which
    /// path ran.
    pub runner: RunnerStats,
}

impl SimOutput {
    /// Empty output covering `days` study days.
    pub fn new(days: u32) -> Self {
        SimOutput {
            dataset: SignalingDataset::new(days),
            mobility: Vec::new(),
            ledger: RatLedger::default(),
            core: CoreNetwork::new(),
            runner: RunnerStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hof_rate_handles_zero_hos() {
        let row = UeDayMobility {
            ue: UeId(1),
            day: 0,
            sectors: 1,
            gyration_km: 0.0,
            hos: 0,
            hofs: 0,
            messages: 0,
        };
        assert_eq!(row.hof_rate(), 0.0);
    }

    #[test]
    fn ledger_shares_normalize() {
        let mut l = RatLedger::default();
        l.add(Rat::G4, 82.0, 90.0, 97.0);
        l.add(Rat::G3, 9.0, 5.0, 2.0);
        l.add(Rat::G2, 9.0, 5.0, 1.0);
        let s = l.time_shares();
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((l.epc_time_share() - 0.82).abs() < 1e-9);
        assert!(l.ul_shares()[Rat::G4.index()] > 0.8);
    }

    #[test]
    fn empty_ledger_shares_are_zero() {
        let l = RatLedger::default();
        assert_eq!(l.time_shares(), [0.0; 4]);
    }
}
