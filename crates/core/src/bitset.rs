//! Small bitset over run-local query indices.
//!
//! A shared graphlet is owned by a subset of the queries in a share group
//! (§4.3 chooses that subset per burst). Workloads reach hundreds of
//! queries (§3.3), so the set is a growable word-array bitset.

use std::fmt;

/// Set of run-local query indices.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct QSet {
    words: Vec<u64>,
}

impl QSet {
    /// Empty set.
    pub const fn new() -> Self {
        QSet { words: Vec::new() }
    }

    /// Set containing `0..k`.
    pub fn all(k: usize) -> Self {
        let mut s = QSet::new();
        for i in 0..k {
            s.insert(i);
        }
        s
    }

    /// Inserts index `i`; returns true if newly inserted.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes index `i`.
    pub fn remove(&mut self, i: usize) {
        let (w, b) = (i / 64, i % 64);
        if w < self.words.len() {
            self.words[w] &= !(1 << b);
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        self.words.get(w).is_some_and(|x| x & (1 << b) != 0)
    }

    /// Members `0..64` as a bit mask — the whole set for groups of at
    /// most 64 members, which is what the cell replay works on.
    #[inline]
    pub fn low_word(&self) -> u64 {
        self.words.first().copied().unwrap_or(0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates member indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// True iff `self ⊆ other`.
    pub fn is_subset(&self, other: &QSet) -> bool {
        self.words.iter().enumerate().all(|(i, &w)| {
            let o = other.words.get(i).copied().unwrap_or(0);
            w & !o == 0
        })
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &QSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (i, &w) in other.words.iter().enumerate() {
            self.words[i] |= w;
        }
    }

    /// True iff the sets intersect.
    pub fn intersects(&self, other: &QSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Serializes the word array verbatim (checkpoint codec). Words are
    /// not trimmed: `QSet` equality compares the raw vectors, so a
    /// restored set must reproduce them bit-for-bit.
    pub(crate) fn encode(&self, e: &mut crate::checkpoint::Enc) {
        e.usize(self.words.len());
        for &w in &self.words {
            e.u64(w);
        }
    }

    /// Mirror of [`encode`](Self::encode).
    pub(crate) fn decode(
        d: &mut crate::checkpoint::Dec<'_>,
    ) -> Result<QSet, crate::checkpoint::CheckpointError> {
        let n = d.seq_len()?;
        let mut words = Vec::with_capacity(n);
        for _ in 0..n {
            words.push(d.u64()?);
        }
        Ok(QSet { words })
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
        assert!(s.insert(100));
        assert!(s.contains(3) && s.contains(100) && !s.contains(4));
        assert_eq!(s.len(), 2);
        s.remove(3);
        assert!(!s.contains(3));
        assert_eq!(s.len(), 1);
        s.remove(999); // no-op
    }

    #[test]
    fn all_and_iter() {
        let s = QSet::all(5);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert!(!s.is_empty());
        assert!(QSet::new().is_empty());
    }

    #[test]
    fn subset_union_intersect() {
        let a: QSet = [1, 2].into_iter().collect();
        let b: QSet = [1, 2, 70].into_iter().collect();
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.intersects(&b));
        let c: QSet = [65].into_iter().collect();
        assert!(!a.intersects(&c));
        let mut u = a.clone();
        u.union_with(&c);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 65]);
    }
}
