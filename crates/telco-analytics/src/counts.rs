//! Exact per-millisecond counts for the duration analyses (Figs. 8, 14b).
//!
//! Traces record durations in whole milliseconds, as the operator's probes
//! do, so a duration sample is exactly a count per millisecond: its size
//! follows the range of the durations (a few thousand distinct values),
//! not the number of handovers. A dense vector counts the values below
//! [`DENSE_CAP`] and grows to the largest one seen; the rare values at or
//! past the cap go to an ordered map, so a CRC-clean trace holding
//! `u32::MAX` costs one map entry, not gigabytes of counters.
//!
//! Merge adds counts. A snapshot lists the non-zero counts in ascending
//! order as (gap from the previous value, count) pairs, so two equal
//! samples encode identically whatever their history.

use std::collections::BTreeMap;

use telco_stats::ecdf::CountEcdf;
use telco_trace::snap::{SnapError, SnapReader, SnapWriter};

/// Values below this many milliseconds are counted densely: at most
/// 512 KiB of counters for one sample, reached only by a duration past a
/// minute.
pub(crate) const DENSE_CAP: u32 = 1 << 16;

/// A multiset of whole-millisecond durations.
#[derive(Debug, Clone, Default)]
pub(crate) struct MsCounts {
    /// `dense[ms]` for `ms < DENSE_CAP`, as long as the largest one seen.
    dense: Vec<u64>,
    /// Counts of the values at or past [`DENSE_CAP`].
    sparse: BTreeMap<u32, u64>,
}

impl MsCounts {
    /// Length of the dense part.
    #[cfg(test)]
    pub(crate) fn dense_len(&self) -> usize {
        self.dense.len()
    }

    /// Count one observation of `ms`.
    #[inline]
    pub(crate) fn add(&mut self, ms: u32) {
        match self.dense.get_mut(ms as usize) {
            Some(count) => *count += 1,
            None => self.add_n(ms, 1),
        }
    }

    /// Count `n` observations of `ms`, growing the dense part or entering
    /// the sparse one.
    #[cold]
    fn add_n(&mut self, ms: u32, n: u64) {
        if ms >= DENSE_CAP {
            *self.sparse.entry(ms).or_insert(0) += n;
            return;
        }
        let at = ms as usize;
        if at >= self.dense.len() {
            self.dense.resize(at + 1, 0);
        }
        if let Some(count) = self.dense.get_mut(at) {
            *count += n;
        }
    }

    /// The non-zero counts, ascending by value.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        let dense = self.dense.iter().enumerate().filter(|&(_, &c)| c > 0);
        dense.map(|(ms, &c)| (ms as u32, c)).chain(self.sparse.iter().map(|(&ms, &c)| (ms, c)))
    }

    /// Add every count of `other`.
    pub(crate) fn merge(&mut self, other: MsCounts) {
        if self.dense.len() < other.dense.len() {
            self.dense.resize(other.dense.len(), 0);
        }
        for (mine, theirs) in self.dense.iter_mut().zip(&other.dense) {
            *mine += theirs;
        }
        for (ms, n) in other.sparse {
            *self.sparse.entry(ms).or_insert(0) += n;
        }
    }

    /// The sample's ECDF, or `None` when it is empty.
    pub(crate) fn ecdf(&self) -> Option<CountEcdf> {
        self.iter().next().is_some().then(|| CountEcdf::from_counts(self.iter()))
    }

    /// Encode: the number of distinct values, then each as its gap from
    /// the previous one (the first from 0) and its count.
    pub(crate) fn snapshot(&self, w: &mut SnapWriter) {
        w.put_varint(self.iter().count() as u64);
        let mut prev = 0;
        for (ms, n) in self.iter() {
            w.put_varint(u64::from(ms - prev));
            w.put_varint(n);
            prev = ms;
        }
    }

    /// Decode, replacing the current contents.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] for more pairs than the payload holds,
    /// [`SnapError::Malformed`] for values that do not ascend or pass
    /// `u32::MAX` and for zero counts, plus the reader's own errors.
    pub(crate) fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        *self = MsCounts::default();
        let mut ms = 0u64;
        for i in 0..r.get_count(2)? {
            let gap = r.get_varint()?;
            if i > 0 && gap == 0 {
                return Err(SnapError::Malformed("duration counts not ascending"));
            }
            ms = ms.checked_add(gap).ok_or(SnapError::Malformed("duration past u32"))?;
            let value = u32::try_from(ms).map_err(|_| SnapError::Malformed("duration past u32"))?;
            let n = r.get_varint()?;
            if n == 0 {
                return Err(SnapError::Malformed("zero duration count"));
            }
            self.add_n(value, n);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(counts: &MsCounts) -> Vec<u8> {
        let mut w = SnapWriter::new();
        counts.snapshot(&mut w);
        w.into_bytes()
    }

    fn restored(bytes: &[u8]) -> Result<MsCounts, SnapError> {
        let mut counts = MsCounts::default();
        let mut r = SnapReader::new(bytes);
        counts.restore(&mut r)?;
        r.finish()?;
        Ok(counts)
    }

    #[test]
    fn counts_round_trip_and_merge_by_addition() {
        let mut a = MsCounts::default();
        for ms in [0, 43, 43, 41, DENSE_CAP - 1, DENSE_CAP, u32::MAX] {
            a.add(ms);
        }
        let mut b = MsCounts::default();
        for ms in [43, 9_000, u32::MAX] {
            b.add(ms);
        }
        let back = restored(&encoded(&a)).unwrap();
        assert_eq!(back.iter().collect::<Vec<_>>(), a.iter().collect::<Vec<_>>());
        a.merge(b);
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            vec![
                (0, 1),
                (41, 1),
                (43, 3),
                (9_000, 1),
                (DENSE_CAP - 1, 1),
                (DENSE_CAP, 1),
                (u32::MAX, 2)
            ]
        );
        assert_eq!(a.ecdf().map(|e| e.len()), Some(10));
        assert!(MsCounts::default().ecdf().is_none());
    }

    #[test]
    fn dense_part_stays_below_the_cap() {
        let mut counts = MsCounts::default();
        counts.add(u32::MAX);
        counts.add(DENSE_CAP);
        assert!(counts.dense.is_empty());
        counts.add(7);
        assert_eq!(counts.dense.len(), 8);
        let back = restored(&encoded(&counts)).unwrap();
        assert!(back.dense.len() <= DENSE_CAP as usize);
        assert_eq!(back.sparse.len(), 2);
    }

    #[test]
    fn restore_refuses_hostile_pairs() {
        let payload = |pairs: &[(u64, u64)], n: u64| {
            let mut w = SnapWriter::new();
            w.put_varint(n);
            for &(gap, count) in pairs {
                w.put_varint(gap);
                w.put_varint(count);
            }
            w.into_bytes()
        };
        assert_eq!(restored(&payload(&[], 1 << 40)).err(), Some(SnapError::Truncated));
        assert_eq!(
            restored(&payload(&[(5, 1), (0, 1)], 2)).err(),
            Some(SnapError::Malformed("duration counts not ascending"))
        );
        assert_eq!(
            restored(&payload(&[(u64::from(u32::MAX), 1), (1, 1)], 2)).err(),
            Some(SnapError::Malformed("duration past u32"))
        );
        assert_eq!(
            restored(&payload(&[(3, 0)], 1)).err(),
            Some(SnapError::Malformed("zero duration count"))
        );
    }
}
