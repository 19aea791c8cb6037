//! The in-memory signaling dataset: the collection of handover records a
//! study run produces, with the slicing operations every analysis needs.

use serde::{Deserialize, Serialize};

use telco_devices::population::UeId;
use telco_signaling::messages::HoType;

use crate::record::HoRecord;

/// The mobility-management signaling dataset of one study run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SignalingDataset {
    /// Number of study days covered.
    pub days: u32,
    records: Vec<HoRecord>,
}

impl SignalingDataset {
    /// Empty dataset covering `days` study days.
    pub fn new(days: u32) -> Self {
        SignalingDataset { days, records: Vec::new() }
    }

    /// Build from records (takes ownership; sorts by timestamp).
    pub fn from_records(days: u32, mut records: Vec<HoRecord>) -> Self {
        records.sort_by_key(|r| r.timestamp_ms);
        SignalingDataset { days, records }
    }

    /// Append a record (no sorting; callers appending out of order must
    /// call [`SignalingDataset::sort`] before range queries).
    pub fn push(&mut self, record: HoRecord) {
        self.records.push(record);
    }

    /// Extend with many records.
    pub fn extend(&mut self, records: impl IntoIterator<Item = HoRecord>) {
        self.records.extend(records);
    }

    /// Sort records by timestamp.
    pub fn sort(&mut self) {
        self.records.sort_by_key(|r| r.timestamp_ms);
    }

    /// All records.
    pub fn records(&self) -> &[HoRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records of one study day.
    pub fn day(&self, day: u32) -> impl Iterator<Item = &HoRecord> + '_ {
        self.records.iter().filter(move |r| r.day() == day)
    }

    /// Records of one handover type.
    pub fn of_type(&self, ho_type: HoType) -> impl Iterator<Item = &HoRecord> + '_ {
        self.records.iter().filter(move |r| r.ho_type() == ho_type)
    }

    /// Failures only.
    pub fn failures(&self) -> impl Iterator<Item = &HoRecord> + '_ {
        self.records.iter().filter(|r| r.is_failure())
    }

    /// Records of one UE.
    pub fn of_ue(&self, ue: UeId) -> impl Iterator<Item = &HoRecord> + '_ {
        self.records.iter().filter(move |r| r.ue == ue)
    }

    /// Overall handover-failure rate.
    pub fn hof_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.failures().count() as f64 / self.records.len() as f64
    }

    /// Handover counts per type, ordered as [`HoType::ALL`].
    pub fn counts_by_type(&self) -> [u64; 3] {
        let mut counts = [0u64; 3];
        for r in &self.records {
            counts[r.ho_type().index()] += 1;
        }
        counts
    }

    /// Average records per day.
    pub fn daily_mean(&self) -> f64 {
        if self.days == 0 {
            return 0.0;
        }
        self.records.len() as f64 / self.days as f64
    }

    /// Merge another dataset (same day span) into this one.
    ///
    /// # Panics
    ///
    /// Panics if the day spans differ.
    pub fn merge(&mut self, other: SignalingDataset) {
        assert_eq!(self.days, other.days, "cannot merge datasets of different spans");
        self.records.extend(other.records);
    }

    /// Reserve room for `additional` more records.
    pub fn reserve(&mut self, additional: usize) {
        self.records.reserve(additional);
    }

    /// K-way merge of timestamp-sorted runs into one sorted dataset —
    /// O(N log k) instead of the O(N log N) of concatenate-and-sort.
    ///
    /// Ties break on run index, so the result is exactly the stable
    /// timestamp sort of the runs' concatenation: callers that order runs
    /// canonically (e.g. the parallel study runner, day-major) get output
    /// byte-identical to a sequential append-then-stable-sort.
    ///
    /// # Panics
    ///
    /// Panics if a run's day span differs from `days` or a run is not
    /// sorted (debug builds only).
    pub fn merge_sorted_runs(days: u32, runs: Vec<SignalingDataset>) -> Self {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let total = runs.iter().map(|r| r.len()).sum();
        let mut records: Vec<HoRecord> = Vec::with_capacity(total);
        let mut cursors = vec![0usize; runs.len()];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::with_capacity(runs.len());
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.days, days, "cannot merge runs of different spans");
            debug_assert!(
                run.records.windows(2).all(|w| w[0].timestamp_ms <= w[1].timestamp_ms),
                "run {i} is not timestamp-sorted"
            );
            if let Some(first) = run.records.first() {
                heap.push(Reverse((first.timestamp_ms, i)));
            }
        }
        while let Some(Reverse((_, i))) = heap.pop() {
            records.push(runs[i].records[cursors[i]]);
            cursors[i] += 1;
            if let Some(next) = runs[i].records.get(cursors[i]) {
                heap.push(Reverse((next.timestamp_ms, i)));
            }
        }
        SignalingDataset { days, records }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::HoOutcome;
    use telco_signaling::causes::{CauseCode, PrincipalCause};
    use telco_topology::elements::SectorId;
    use telco_topology::rat::Rat;

    fn rec(ts: u64, ue: u32, target: Rat, fail: bool) -> HoRecord {
        HoRecord {
            timestamp_ms: ts,
            ue: UeId(ue),
            source_sector: SectorId(1),
            target_sector: SectorId(2),
            source_rat: Rat::G4,
            target_rat: target,
            outcome: if fail { HoOutcome::Failure } else { HoOutcome::Success },
            cause: fail.then(|| CauseCode::principal(PrincipalCause::TargetLoadTooHigh)),
            duration_ms: 50,
            srvcc: false,
            messages: 12,
        }
    }

    fn dataset() -> SignalingDataset {
        SignalingDataset::from_records(
            2,
            vec![
                rec(100, 1, Rat::G4, false),
                rec(86_400_001, 1, Rat::G3, true),
                rec(50, 2, Rat::G4, false),
                rec(86_400_100, 2, Rat::G2, false),
            ],
        )
    }

    #[test]
    fn from_records_sorts() {
        let d = dataset();
        assert!(d.records().windows(2).all(|w| w[0].timestamp_ms <= w[1].timestamp_ms));
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn day_filter() {
        let d = dataset();
        assert_eq!(d.day(0).count(), 2);
        assert_eq!(d.day(1).count(), 2);
        assert_eq!(d.day(2).count(), 0);
    }

    #[test]
    fn type_counts_and_hof_rate() {
        let d = dataset();
        assert_eq!(d.counts_by_type(), [2, 1, 1]);
        assert_eq!(d.hof_rate(), 0.25);
        assert_eq!(d.failures().count(), 1);
        assert_eq!(d.daily_mean(), 2.0);
    }

    #[test]
    fn ue_filter() {
        let d = dataset();
        assert_eq!(d.of_ue(UeId(1)).count(), 2);
        assert_eq!(d.of_ue(UeId(9)).count(), 0);
    }

    #[test]
    fn merge_same_span() {
        let mut a = dataset();
        let b = dataset();
        a.merge(b);
        assert_eq!(a.len(), 8);
    }

    #[test]
    #[should_panic]
    fn merge_rejects_span_mismatch() {
        let mut a = dataset();
        a.merge(SignalingDataset::new(7));
    }

    #[test]
    fn merge_sorted_runs_equals_stable_sort_of_concatenation() {
        // Interleaved timestamps with cross-run ties: the merge must keep
        // equal timestamps in run order (stable-sort equivalence).
        let runs = vec![
            SignalingDataset::from_records(
                2,
                vec![rec(100, 1, Rat::G4, false), rec(300, 2, Rat::G3, true)],
            ),
            SignalingDataset::new(2),
            SignalingDataset::from_records(
                2,
                vec![rec(50, 3, Rat::G4, false), rec(100, 4, Rat::G4, false)],
            ),
            SignalingDataset::from_records(2, vec![rec(100, 5, Rat::G2, false)]),
        ];
        let mut reference: Vec<HoRecord> =
            runs.iter().flat_map(|r| r.records().iter().copied()).collect();
        reference.sort_by_key(|r| r.timestamp_ms);
        let merged = SignalingDataset::merge_sorted_runs(2, runs);
        assert_eq!(merged.records(), &reference[..]);
        assert_eq!(merged.len(), 5);
        // The ties at t=100 stayed in run order: UE 1, then 4, then 5.
        let tied: Vec<u32> =
            merged.records().iter().filter(|r| r.timestamp_ms == 100).map(|r| r.ue.0).collect();
        assert_eq!(tied, vec![1, 4, 5]);
    }

    #[test]
    fn merge_sorted_runs_of_nothing_is_empty() {
        let merged = SignalingDataset::merge_sorted_runs(3, Vec::new());
        assert!(merged.is_empty());
        assert_eq!(merged.days, 3);
    }

    #[test]
    #[should_panic]
    fn merge_sorted_runs_rejects_span_mismatch() {
        SignalingDataset::merge_sorted_runs(2, vec![SignalingDataset::new(7)]);
    }

    #[test]
    fn empty_dataset_rates() {
        let d = SignalingDataset::new(0);
        assert_eq!(d.hof_rate(), 0.0);
        assert_eq!(d.daily_mean(), 0.0);
        assert!(d.is_empty());
    }
}
