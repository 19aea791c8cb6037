//! A dense id set for "distinct sectors seen" accumulators.
//!
//! Sector ids are dense (`0..n_sectors`), so a word-packed bitmap beats a
//! hash set in the sweep hot loops: insertion is one shift/or with no
//! hashing or probing, cardinality is a popcount fold, and merge is a
//! word-wise OR. Words grow on demand, so an empty set costs nothing and
//! a set only pays for the highest id it ever saw.
//!
//! A snapshot lists the ids, not the words: a slot of one day sees about
//! 1% of the sectors, so its ids take a tenth of the bytes of its words
//! or less, and a set's snapshot follows how many ids it holds, not how
//! high they reach.

use telco_trace::snap::{SnapError, SnapReader, SnapWriter};

/// A grow-on-demand bitmap over `u32` ids with set semantics.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdSet {
    words: Vec<u64>,
}

impl IdSet {
    /// Mark `id` as present.
    #[inline]
    pub(crate) fn insert(&mut self, id: u32) {
        let word = (id / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        if let Some(w) = self.words.get_mut(word) {
            *w |= 1u64 << (id % 64);
        }
    }

    /// Number of distinct ids inserted.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The ids present, ascending.
    fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let base = i as u32 * 64;
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    base + bit
                })
            })
        })
    }

    /// Set union: absorb every id present in `other`.
    pub(crate) fn union(&mut self, other: &IdSet) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (mine, theirs) in self.words.iter_mut().zip(&other.words) {
            *mine |= theirs;
        }
    }

    /// Encode into a snapshot: the id count, then each id's gap from the
    /// previous one (the first from 0), ascending. Two sets holding the
    /// same ids encode identically whatever their capacity history.
    pub(crate) fn snapshot(&self, w: &mut SnapWriter) {
        w.put_varint(self.len() as u64);
        let mut prev = 0;
        for id in self.ids() {
            w.put_varint(u64::from(id - prev));
            prev = id;
        }
    }

    /// Decode from a snapshot, replacing the current contents.
    ///
    /// # Errors
    ///
    /// [`SnapError::Malformed`] for ids that are not ascending or that
    /// pass `u32::MAX`, plus the reader's own errors.
    pub(crate) fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let n = r.get_len()?;
        self.words.clear();
        let mut id = 0u64;
        for i in 0..n {
            let gap = r.get_varint()?;
            if i > 0 && gap == 0 {
                return Err(SnapError::Malformed("id set not ascending"));
            }
            id = id.checked_add(gap).ok_or(SnapError::Malformed("id past u32"))?;
            self.insert(u32::try_from(id).map_err(|_| SnapError::Malformed("id past u32"))?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_len_union() {
        let mut a = IdSet::default();
        assert_eq!(a.len(), 0);
        a.insert(0);
        a.insert(63);
        a.insert(64);
        a.insert(64); // idempotent
        assert_eq!(a.len(), 3);
        let mut b = IdSet::default();
        b.insert(64);
        b.insert(1000);
        a.union(&b);
        assert_eq!(a.len(), 4);
    }

    fn snapshot_of(set: &IdSet) -> Vec<u8> {
        let mut w = SnapWriter::new();
        set.snapshot(&mut w);
        w.into_bytes()
    }

    #[test]
    fn snapshot_round_trips_ids() {
        for ids in [&[][..], &[0], &[63, 64], &[1_000_000]] {
            let mut set = IdSet::default();
            for &id in ids {
                set.insert(id);
            }
            let bytes = snapshot_of(&set);
            let mut restored = IdSet { words: vec![u64::MAX; 3] };
            let mut r = SnapReader::new(&bytes);
            restored.restore(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(restored.ids().collect::<Vec<_>>(), ids);
            assert_eq!(snapshot_of(&restored), bytes, "{ids:?}");
        }
        // One id far out costs its varint, not the 15,626 words below it.
        let mut far = IdSet::default();
        far.insert(1_000_000);
        assert_eq!(snapshot_of(&far).len(), 4);
    }

    #[test]
    fn restore_refuses_ids_past_u32() {
        let mut w = SnapWriter::new();
        w.put_varint(2);
        w.put_varint(5);
        w.put_varint(u64::from(u32::MAX));
        let bytes = w.into_bytes();
        let err = IdSet::default().restore(&mut SnapReader::new(&bytes));
        assert_eq!(err, Err(SnapError::Malformed("id past u32")));

        let mut w = SnapWriter::new();
        w.put_varint(2);
        w.put_varint(u64::MAX);
        w.put_varint(u64::MAX);
        let bytes = w.into_bytes();
        let err = IdSet::default().restore(&mut SnapReader::new(&bytes));
        assert_eq!(err, Err(SnapError::Malformed("id past u32")));
    }

    #[test]
    fn restore_refuses_repeated_ids() {
        let mut w = SnapWriter::new();
        w.put_varint(2);
        w.put_varint(7);
        w.put_varint(0);
        let bytes = w.into_bytes();
        let err = IdSet::default().restore(&mut SnapReader::new(&bytes));
        assert_eq!(err, Err(SnapError::Malformed("id set not ascending")));
    }
}
