//! The snapshot table `S` (Algorithm 1).
//!
//! A snapshot is a variable whose value is an intermediate trend aggregate
//! *per query* (Def. 8 / Def. 9). Values are fixed at creation time and
//! never change, so linear expressions over snapshots can be evaluated
//! lazily at any later point (end-of-type accumulation, graphlet close,
//! split) and still agree.

use crate::agg::NodeVal;
use crate::checkpoint::{codec_struct, CheckpointError};
use crate::expr::{LinearExpr, SnapId};

/// Run-local table mapping `(snapshot, member query)` to a value
/// (paper: "hash table of snapshots S"). Member queries are indexed densely
/// within the run's share group.
#[derive(Clone, Debug, Default)]
pub struct SnapTable {
    k: usize,
    vals: Vec<NodeVal>, // row-major: [snap * k + q]
}

impl SnapTable {
    /// Creates a table for `k` member queries.
    pub fn new(k: usize) -> Self {
        SnapTable {
            k,
            vals: Vec::new(),
        }
    }

    /// Number of snapshots created so far (`s` in Table 2).
    pub fn len(&self) -> usize {
        self.vals.len().checked_div(self.k).unwrap_or(0)
    }

    /// True iff no snapshot has been created.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Forgets every snapshot, keeping the table's capacity (a recycled
    /// run starts with an empty table).
    pub fn clear(&mut self) {
        self.vals.clear();
    }

    /// Creates a snapshot from its per-query values (`values.len() == k`).
    pub fn create(&mut self, values: Vec<NodeVal>) -> SnapId {
        assert_eq!(values.len(), self.k, "snapshot arity mismatch");
        let id = self.len() as SnapId;
        self.vals.extend(values);
        id
    }

    /// Creates a snapshot whose value is zero for every member; the
    /// caller writes the members it covers with [`set`](Self::set). The
    /// run's hot path creates snapshots this way — the row lives in the
    /// table from the start, so no per-snapshot `Vec` is allocated.
    pub fn create_row(&mut self) -> SnapId {
        let id = self.len() as SnapId;
        self.vals.resize(self.vals.len() + self.k, NodeVal::ZERO);
        id
    }

    /// Writes member `q`'s value of a snapshot made by
    /// [`create_row`](Self::create_row), before anything reads it.
    #[inline]
    pub fn set(&mut self, x: SnapId, q: usize, v: NodeVal) {
        self.vals[x as usize * self.k + q] = v;
    }

    /// Value of snapshot `x` for member query `q`.
    #[inline]
    pub fn value(&self, x: SnapId, q: usize) -> NodeVal {
        self.vals[x as usize * self.k + q]
    }

    /// Evaluates a linear expression for member query `q`.
    #[inline]
    pub fn eval(&self, e: &LinearExpr, q: usize) -> NodeVal {
        e.eval(|x| self.value(x, q))
    }

    /// Approximate footprint in bytes (memory metric, §6.1).
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<SnapTable>() + self.vals.len() * std::mem::size_of::<NodeVal>()
    }

    /// Checks a decoded table against the run's member count `k`: a blob
    /// carrying a different arity, or a partial row, is corrupt and must
    /// fail here, not index out of bounds at the first
    /// [`value`](Self::value) lookup.
    pub(crate) fn check_arity(&self, k: usize) -> Result<(), CheckpointError> {
        let n = self.vals.len();
        if self.k != k {
            Err(CheckpointError::Corrupt(format!(
                "snapshot table arity {}, run has {k} members",
                self.k
            )))
        } else if k > 0 && !n.is_multiple_of(k) {
            Err(CheckpointError::Corrupt(format!(
                "snapshot table of {n} values is not a multiple of arity {k}"
            )))
        } else {
            Ok(())
        }
    }
}

// Arity, then the row-major value array. Snapshot values are immutable,
// so this is the entire state.
codec_struct!(SnapTable { k, vals });

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_types::TrendVal as T;

    fn cv(c: u64) -> NodeVal {
        NodeVal {
            count: T(c),
            sum: T::ZERO,
            cnt: T::ZERO,
        }
    }

    #[test]
    fn create_and_lookup() {
        let mut s = SnapTable::new(2);
        assert!(s.is_empty());
        let x = s.create(vec![cv(2), cv(1)]);
        let y = s.create(vec![cv(34), cv(19)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.value(x, 0), cv(2));
        assert_eq!(s.value(x, 1), cv(1));
        assert_eq!(s.value(y, 0), cv(34));
        assert!(s.mem_bytes() > 0);
    }

    #[test]
    fn eval_resolves_per_query() {
        // Paper Table 4: snapshot x has value 2 for q1, 1 for q2; the shared
        // expression 8x then resolves to 16 / 8.
        let mut s = SnapTable::new(2);
        let x = s.create(vec![cv(2), cv(1)]);
        let mut e = LinearExpr::snapshot(x);
        for _ in 0..3 {
            let d = e.clone();
            e.add_assign(&d); // double
        }
        assert_eq!(s.eval(&e, 0).count, T(16));
        assert_eq!(s.eval(&e, 1).count, T(8));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let mut s = SnapTable::new(3);
        s.create(vec![cv(1)]);
    }
}
