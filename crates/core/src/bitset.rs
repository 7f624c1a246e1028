//! Set of run-local member indices of one share group, one word wide.
//!
//! A shared graphlet is owned by a subset of the queries in a share group
//! (§4.3 chooses that subset per burst), so "a subset of the members" is
//! the value the replay, the optimizer and the compiled tables pass
//! around most. Workloads reach hundreds of queries (§3.3), but a share
//! group holds at most [`QSet::CAPACITY`] of them — `workload::analyze`
//! opens another group for the next one — so the set is one `u64`:
//! `Copy`, and every set operation is a word operation.

use crate::checkpoint::{CheckpointError, Dec, Enc};
use std::fmt;
use std::ops::{BitAnd, BitOr, Not};

/// Set of run-local query indices below [`QSet::CAPACITY`].
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct QSet(pub(crate) u64);

impl QSet {
    /// Members a share group — and so a set — can hold.
    pub const CAPACITY: usize = u64::BITS as usize;

    /// Empty set.
    pub const fn new() -> Self {
        QSet(0)
    }

    /// Set containing `0..k`.
    pub fn all(k: usize) -> Self {
        (0..k).collect()
    }

    /// Inserts index `i`; returns true if newly inserted.
    ///
    /// # Panics
    /// If `i` is not below [`QSet::CAPACITY`].
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < Self::CAPACITY, "member {i} of a one-word share group");
        let had = self.contains(i);
        self.0 |= 1 << i;
        !had
    }

    /// Removes index `i`.
    pub fn remove(&mut self, i: usize) {
        if i < Self::CAPACITY {
            self.0 &= !(1 << i);
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        i < Self::CAPACITY && self.0 >> i & 1 == 1
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates member indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            let b = bits.trailing_zeros() as usize;
            bits &= bits.wrapping_sub(1);
            (b < Self::CAPACITY).then_some(b)
        })
    }

    /// True iff `self ⊆ other`.
    pub fn is_subset(&self, other: &QSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &QSet) {
        self.0 |= other.0;
    }

    /// True iff the sets intersect.
    pub fn intersects(&self, other: &QSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Serializes the set as the one-word array every checkpoint format
    /// has held for a group of at most 64 members: `len = 1`, the word.
    pub(crate) fn encode(&self, e: &mut Enc) {
        e.usize(1);
        e.u64(self.0);
    }

    /// Mirror of [`encode`](Self::encode); a longer array is no set of a
    /// share group.
    pub(crate) fn decode(d: &mut Dec<'_>) -> Result<QSet, CheckpointError> {
        match d.seq_len()? {
            0 => Ok(QSet(0)),
            1 => Ok(QSet(d.u64()?)),
            n => Err(CheckpointError::Corrupt(format!(
                "member set of {n} words, a share group is one wide"
            ))),
        }
    }
}

impl BitAnd for QSet {
    type Output = QSet;
    fn bitand(self, o: QSet) -> QSet {
        QSet(self.0 & o.0)
    }
}

impl BitOr for QSet {
    type Output = QSet;
    fn bitor(self, o: QSet) -> QSet {
        QSet(self.0 | o.0)
    }
}

impl Not for QSet {
    type Output = QSet;
    fn not(self) -> QSet {
        QSet(!self.0)
    }
}

impl fmt::Debug for QSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for QSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = QSet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = QSet::new();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(63));
        assert!(s.contains(3) && s.contains(63) && !s.contains(4));
        assert_eq!(s.len(), 2);
        s.remove(3);
        assert!(!s.contains(3));
        assert_eq!(s.len(), 1);
        s.remove(999); // no-op
        assert!(!s.contains(999));
    }

    #[test]
    #[should_panic(expected = "member 64")]
    fn insert_past_capacity_panics() {
        QSet::new().insert(QSet::CAPACITY);
    }

    #[test]
    fn all_and_iter() {
        let s = QSet::all(5);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert!(!s.is_empty());
        assert!(QSet::new().is_empty());
        assert_eq!(QSet::all(QSet::CAPACITY).len(), QSet::CAPACITY);
        assert_eq!(QSet::all(QSet::CAPACITY).iter().last(), Some(63));
    }

    #[test]
    fn subset_union_intersect() {
        let a: QSet = [1, 2].into_iter().collect();
        let b: QSet = [1, 2, 60].into_iter().collect();
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.intersects(&b));
        let c: QSet = [63].into_iter().collect();
        assert!(!a.intersects(&c));
        let mut u = a;
        u.union_with(&c);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 63]);
        assert_eq!(u, a | c);
        assert_eq!(b & !a, [60].into_iter().collect());
    }

    /// The bytes are the one-word `Vec<u64>` encoding of every format
    /// version so far; anything longer is corrupt.
    #[test]
    fn encoding_is_pinned_and_one_word() {
        let mut e = Enc::new();
        QSet::all(5).encode(&mut e);
        let bytes = e.finish();
        let pinned = [1, 0, 0, 0, 0, 0, 0, 0, 0x1f, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(bytes, pinned);
        assert_eq!(QSet::decode(&mut Dec::new(&bytes)).unwrap(), QSet::all(5));
        let mut e = Enc::new();
        e.usize(2);
        e.u64(1);
        e.u64(1);
        let two = QSet::decode(&mut Dec::new(&e.finish()));
        assert!(matches!(two, Err(CheckpointError::Corrupt(_))), "{two:?}");
    }
}
