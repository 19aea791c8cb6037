//! Trace record schemas.
//!
//! The mobility-management signaling dataset captures six variables per
//! handover (§3.1): (i) millisecond timestamp, (ii) result, (iii) duration,
//! (iv) failure cause code, (v) anonymized user ID, and (vi) source/target
//! radio sectors with their RATs. [`HoRecord`] is that row, plus two
//! enrichments the simulation can afford (SRVCC flag and message count,
//! used for signaling-volume analyses).

use serde::{Deserialize, Serialize};

use telco_devices::population::UeId;
use telco_signaling::causes::CauseCode;
use telco_signaling::messages::HoType;
use telco_topology::elements::SectorId;
use telco_topology::rat::Rat;

/// The outcome of a handover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum HoOutcome {
    /// Completed successfully.
    Success,
    /// Failed (the cause code says why).
    Failure,
}

/// One row of the mobility-management signaling dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HoRecord {
    /// Milliseconds since the study start (Mon 2024-01-29 00:00).
    pub timestamp_ms: u64,
    /// Anonymized user identifier.
    pub ue: UeId,
    /// Source radio sector.
    pub source_sector: SectorId,
    /// Target radio sector.
    pub target_sector: SectorId,
    /// RAT of the source sector (4G or 5G-NR anchor; the EPC view).
    pub source_rat: Rat,
    /// RAT of the target sector.
    pub target_rat: Rat,
    /// Success or failure.
    pub outcome: HoOutcome,
    /// Failure cause code; `None` on success.
    pub cause: Option<CauseCode>,
    /// Handover signaling duration in whole milliseconds, the granularity
    /// the operator's probes record.
    pub duration_ms: u32,
    /// Whether the handover was an SRVCC voice-continuity procedure.
    pub srvcc: bool,
    /// Number of signaling messages exchanged.
    pub messages: u16,
}

impl HoRecord {
    /// The handover type implied by the target RAT.
    pub fn ho_type(&self) -> HoType {
        HoType::from_target_rat(self.target_rat)
    }

    /// Whether the handover failed.
    pub fn is_failure(&self) -> bool {
        self.outcome == HoOutcome::Failure
    }

    /// Zero-based study day of the record.
    pub fn day(&self) -> u32 {
        (self.timestamp_ms / 86_400_000) as u32
    }

    /// Hour of day (0..24).
    pub fn hour(&self) -> u32 {
        ((self.timestamp_ms % 86_400_000) / 3_600_000) as u32
    }

    /// 30-minute slot of day (0..48).
    pub fn slot(&self) -> u32 {
        ((self.timestamp_ms % 86_400_000) / 1_800_000) as u32
    }
}

/// Daily radio-network-topology record (§3.1): one row per deployed sector
/// per capture day.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TopologyRecord {
    /// Capture day (zero-based study day).
    pub day: u32,
    /// Sector identifier.
    pub sector: SectorId,
    /// RAT of the sector.
    pub rat: Rat,
    /// Longitude of the hosting site (synthetic degrees).
    pub lon: f64,
    /// Latitude of the hosting site (synthetic degrees).
    pub lat: f64,
    /// Postcode of the area the site is installed in.
    pub postcode: u32,
}

/// Devices-catalog record (§3.1): the TAC → attributes join row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceRecord {
    /// Type allocation code.
    pub tac: u32,
    /// Manufacturer name.
    pub manufacturer: String,
    /// Device type name.
    pub device_type: String,
    /// Highest supported generation (2..=5).
    pub max_generation: u8,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(ts: u64) -> HoRecord {
        HoRecord {
            timestamp_ms: ts,
            ue: UeId(1),
            source_sector: SectorId(10),
            target_sector: SectorId(20),
            source_rat: Rat::G4,
            target_rat: Rat::G3,
            outcome: HoOutcome::Success,
            cause: None,
            duration_ms: 412,
            srvcc: false,
            messages: 12,
        }
    }

    #[test]
    fn time_derivations() {
        // Day 2, 07:30:00.500.
        let ts = 2 * 86_400_000 + 7 * 3_600_000 + 30 * 60_000 + 500;
        let r = record(ts);
        assert_eq!(r.day(), 2);
        assert_eq!(r.hour(), 7);
        assert_eq!(r.slot(), 15);
    }

    #[test]
    fn ho_type_follows_target() {
        let mut r = record(0);
        assert_eq!(r.ho_type(), HoType::To3g);
        r.target_rat = Rat::G4;
        assert_eq!(r.ho_type(), HoType::Intra4g5g);
        r.target_rat = Rat::G2;
        assert_eq!(r.ho_type(), HoType::To2g);
    }

    #[test]
    fn record_is_compact() {
        // Records are produced by the billion at paper scale; keep the
        // in-memory row within a cache line.
        assert!(std::mem::size_of::<HoRecord>() <= 64);
    }

    #[test]
    fn failure_flag() {
        let mut r = record(0);
        assert!(!r.is_failure());
        r.outcome = HoOutcome::Failure;
        assert!(r.is_failure());
    }
}
