//! Linear snapshot expressions.
//!
//! Within a shared graphlet, the intermediate aggregate of an event is not a
//! number (it differs per query) but a *linear form* over snapshot
//! variables: `c + Σᵢ aᵢ·xᵢ` (§3.3, "hash table of snapshot coefficients";
//! e.g. `count(b6) = 4x + z` in Fig. 5(c)).
//!
//! Because the propagated state also carries `sum`/`cnt` dimensions
//! ([`crate::agg::NodeVal`]), each term tracks three coefficients: `a`
//! multiplies the snapshot's own (count, sum, cnt) vector, while `b_sum` /
//! `b_cnt` capture the count→sum / count→cnt flow introduced by target-type
//! events (the `w·count` term of [`crate::agg::NodeVal::propagate`]).
//!
//! Terms are kept in a sorted small vector: expressions typically hold a
//! handful of snapshots (`s` in the paper's cost model), and merging two
//! sorted vectors is cheaper than hashing at that size.

use crate::agg::NodeVal;
use crate::checkpoint::{codec_struct, CheckpointError};
use hamlet_types::TrendVal;

/// Identifier of a snapshot variable within one run.
pub type SnapId = u32;

/// One `coef · snapshot` term.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Term {
    /// Snapshot variable.
    pub snap: SnapId,
    /// Coefficient on the snapshot's full (count, sum, cnt) vector.
    pub a: TrendVal,
    /// Extra count→sum coefficient (from `w · count` contributions).
    pub b_sum: TrendVal,
    /// Extra count→cnt coefficient (from target-type count contributions).
    pub b_cnt: TrendVal,
}

/// True iff every snapshot id in `sub` also appears in `sup` (both sorted).
fn is_id_subset(sub: &[Term], sup: &[Term]) -> bool {
    let mut i = 0;
    'outer: for t in sub {
        while i < sup.len() {
            match sup[i].snap.cmp(&t.snap) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// A linear form `const + Σ term` over snapshot variables.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LinearExpr {
    /// Constant part.
    pub c: NodeVal,
    /// Snapshot terms, sorted by `snap`, no zero-coefficient entries.
    pub terms: Vec<Term>,
}

impl LinearExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        LinearExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: NodeVal) -> Self {
        LinearExpr {
            c,
            terms: Vec::new(),
        }
    }

    /// The expression `1 · x` for snapshot `x`.
    pub fn snapshot(x: SnapId) -> Self {
        LinearExpr {
            c: NodeVal::ZERO,
            terms: vec![Term {
                snap: x,
                a: TrendVal::ONE,
                b_sum: TrendVal::ZERO,
                b_cnt: TrendVal::ZERO,
            }],
        }
    }

    /// Number of snapshot terms (the paper's `s` per expression).
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Adds the term `1 · x` in place — equivalent to
    /// `add_assign(&LinearExpr::snapshot(x))` but without materialising
    /// the one-term expression. The hot uniform-burst path calls this
    /// once per event.
    pub fn add_snapshot(&mut self, x: SnapId) {
        self.add_snapshot_scaled(x, TrendVal::ONE);
    }

    /// Adds the term `coef · x` in place.
    pub fn add_snapshot_scaled(&mut self, x: SnapId, coef: TrendVal) {
        if coef.is_zero() {
            return;
        }
        match self.terms.binary_search_by(|t| t.snap.cmp(&x)) {
            Ok(i) => {
                let t = &mut self.terms[i];
                t.a += coef;
                if t.a.is_zero() && t.b_sum.is_zero() && t.b_cnt.is_zero() {
                    self.terms.remove(i);
                }
            }
            Err(i) => self.terms.insert(
                i,
                Term {
                    snap: x,
                    a: coef,
                    b_sum: TrendVal::ZERO,
                    b_cnt: TrendVal::ZERO,
                },
            ),
        }
    }

    /// Running-sum update of one uniform shared event, in place:
    /// `S ← S + propagate(S + 1·x (+ 1·unit), w, is_target)` — Eq. 2 with
    /// the graphlet snapshot `x`, the unit snapshot and the in-graphlet
    /// prefix `S` as predecessors. Equal, term for term, to composing
    /// `clone`, [`add_snapshot`](Self::add_snapshot),
    /// [`propagate_mut`](Self::propagate_mut) and
    /// [`add_assign`](Self::add_assign), but allocates nothing once the
    /// term vector holds `x` and `unit`.
    pub fn absorb_event(&mut self, x: SnapId, unit: Option<SnapId>, w: TrendVal, is_target: bool) {
        for id in std::iter::once(x).chain(unit) {
            if let Err(i) = self.terms.binary_search_by(|t| t.snap.cmp(&id)) {
                let zero = TrendVal::ZERO;
                self.terms.insert(
                    i,
                    Term {
                        snap: id,
                        a: zero,
                        b_sum: zero,
                        b_cnt: zero,
                    },
                );
            }
        }
        self.c.add(NodeVal::propagate(self.c, false, w, is_target));
        let two = TrendVal(2);
        let mut any_zero = false;
        for t in &mut self.terms {
            // The event's own term: predecessor coefficient, propagated.
            let a = if t.snap == x || Some(t.snap) == unit {
                t.a + TrendVal::ONE
            } else {
                t.a
            };
            // S + propagate(pred): each coefficient doubles its prefix
            // share and takes the event's flow from `a`.
            t.b_sum = two * t.b_sum + w * a;
            t.b_cnt = two * t.b_cnt + if is_target { a } else { TrendVal::ZERO };
            t.a += a;
            any_zero |= t.a.is_zero() && t.b_sum.is_zero() && t.b_cnt.is_zero();
        }
        if any_zero {
            self.terms
                .retain(|t| !(t.a.is_zero() && t.b_sum.is_zero() && t.b_cnt.is_zero()));
        }
    }

    /// Resets the expression to `1 · z`, keeping the term vector's
    /// capacity (a *fold*: `z` holds the old expression's value per
    /// member, see [`crate::run`]).
    pub fn reset_to_snapshot(&mut self, z: SnapId) {
        self.c = NodeVal::ZERO;
        self.terms.clear();
        self.terms.push(Term {
            snap: z,
            a: TrendVal::ONE,
            b_sum: TrendVal::ZERO,
            b_cnt: TrendVal::ZERO,
        });
    }

    /// Multiplies the whole expression by the ring scalar `m`. Terms whose
    /// coefficients all wrap to zero are dropped (the sorted-no-zero
    /// invariant).
    pub fn scale(&mut self, m: TrendVal) {
        self.c.scale(m);
        if m.is_zero() {
            self.terms.clear();
            return;
        }
        for t in &mut self.terms {
            t.a = m * t.a;
            t.b_sum = m * t.b_sum;
            t.b_cnt = m * t.b_cnt;
        }
        self.terms
            .retain(|t| !(t.a.is_zero() && t.b_sum.is_zero() && t.b_cnt.is_zero()));
    }

    /// True iff the expression is identically zero.
    pub fn is_zero(&self) -> bool {
        self.c.is_zero() && self.terms.is_empty()
    }

    /// Adds `other` into `self` (merge of sorted term lists).
    pub fn add_assign(&mut self, other: &LinearExpr) {
        self.c.add(other.c);
        if other.terms.is_empty() {
            return;
        }
        if self.terms.is_empty() {
            self.terms = other.terms.clone();
            return;
        }
        // In-place fast path: every incoming snapshot id is already
        // present. This is the steady state of a graphlet's running sum
        // (each event's expression references the same graphlet and unit
        // snapshots), where the general merge below would allocate a new
        // term vector per event.
        if is_id_subset(&other.terms, &self.terms) {
            let mut i = 0;
            let mut any_zero = false;
            for r in &other.terms {
                while self.terms[i].snap != r.snap {
                    i += 1;
                }
                let t = &mut self.terms[i];
                t.a += r.a;
                t.b_sum += r.b_sum;
                t.b_cnt += r.b_cnt;
                any_zero |= t.a.is_zero() && t.b_sum.is_zero() && t.b_cnt.is_zero();
            }
            if any_zero {
                self.terms
                    .retain(|t| !(t.a.is_zero() && t.b_sum.is_zero() && t.b_cnt.is_zero()));
            }
            return;
        }
        let mut merged = Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut i, mut j) = (0, 0);
        while i < self.terms.len() && j < other.terms.len() {
            let (l, r) = (self.terms[i], other.terms[j]);
            match l.snap.cmp(&r.snap) {
                std::cmp::Ordering::Less => {
                    merged.push(l);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(r);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let t = Term {
                        snap: l.snap,
                        a: l.a + r.a,
                        b_sum: l.b_sum + r.b_sum,
                        b_cnt: l.b_cnt + r.b_cnt,
                    };
                    if !(t.a.is_zero() && t.b_sum.is_zero() && t.b_cnt.is_zero()) {
                        merged.push(t);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.terms[i..]);
        merged.extend_from_slice(&other.terms[j..]);
        self.terms = merged;
    }

    /// Component-wise sum.
    pub fn plus(mut self, other: &LinearExpr) -> LinearExpr {
        self.add_assign(other);
        self
    }

    /// Applies the per-event propagation map of
    /// [`NodeVal::propagate`] symbolically: with `P` the (already summed)
    /// predecessor expression — including the unit-snapshot term when the
    /// event may start a trend — the event's expression is
    ///
    /// ```text
    /// count = P.count
    /// sum   = P.sum + w · P.count
    /// cnt   = P.cnt + [target] · P.count
    /// ```
    pub fn propagate(mut self, w: TrendVal, is_target: bool) -> LinearExpr {
        self.propagate_mut(w, is_target);
        self
    }

    /// In-place [`propagate`](Self::propagate) for reusable buffers.
    pub fn propagate_mut(&mut self, w: TrendVal, is_target: bool) {
        self.c.sum += w * self.c.count;
        if is_target {
            self.c.cnt += self.c.count;
        }
        for t in &mut self.terms {
            t.b_sum += w * t.a;
            if is_target {
                t.b_cnt += t.a;
            }
        }
    }

    /// Evaluates the expression for one member query given its snapshot
    /// values (`resolve(x)` maps a snapshot id to that query's value).
    pub fn eval(&self, resolve: impl Fn(SnapId) -> NodeVal) -> NodeVal {
        let mut out = self.c;
        for t in &self.terms {
            let s = resolve(t.snap);
            out.count += t.a * s.count;
            out.sum += t.a * s.sum + t.b_sum * s.count;
            out.cnt += t.a * s.cnt + t.b_cnt * s.count;
        }
        out
    }

    /// Approximate heap + inline footprint in bytes (memory metric, §6.1).
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<LinearExpr>() + self.terms.len() * std::mem::size_of::<Term>()
    }

    /// Checks a decoded expression against the restored snapshot table's
    /// size: a term referencing a snapshot beyond it is corrupt and must
    /// fail here, not index out of bounds at the first evaluation.
    pub(crate) fn check_snaps(&self, num_snaps: usize) -> Result<(), CheckpointError> {
        match self.terms.iter().find(|t| t.snap as usize >= num_snaps) {
            Some(t) => Err(CheckpointError::Corrupt(format!(
                "expression references snapshot {} of {num_snaps}",
                t.snap
            ))),
            None => Ok(()),
        }
    }
}

// The constant, then the sorted term list verbatim: decoding reproduces
// it bit for bit.
codec_struct!(Term {
    snap,
    a,
    b_sum,
    b_cnt
});
codec_struct!(LinearExpr { c, terms });

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_types::TrendVal as T;

    fn nv(count: u64, sum: u64, cnt: u64) -> NodeVal {
        NodeVal {
            count: T(count),
            sum: T(sum),
            cnt: T(cnt),
        }
    }

    #[test]
    fn zero_and_constant() {
        assert!(LinearExpr::zero().is_zero());
        let e = LinearExpr::constant(nv(2, 0, 0));
        assert!(!e.is_zero());
        assert_eq!(e.eval(|_| unreachable!()), nv(2, 0, 0));
    }

    #[test]
    fn add_merges_sorted_terms() {
        let a = LinearExpr::snapshot(1).plus(&LinearExpr::snapshot(3));
        let b = LinearExpr::snapshot(2).plus(&LinearExpr::snapshot(3));
        let c = a.plus(&b);
        assert_eq!(c.num_terms(), 3);
        assert_eq!(c.terms[0].snap, 1);
        assert_eq!(c.terms[1].snap, 2);
        assert_eq!(c.terms[2].snap, 3);
        assert_eq!(c.terms[2].a, T(2));
    }

    #[test]
    fn cancelling_terms_are_dropped() {
        let mut neg = LinearExpr::snapshot(5);
        neg.terms[0].a = T(0) - T(1);
        let sum = LinearExpr::snapshot(5).plus(&neg);
        assert!(sum.is_zero());
    }

    #[test]
    fn table3_shared_propagation() {
        // Paper Table 3: b3..b6 in graphlet B3 with snapshot x.
        // count(b3)=x, count(b4)=2x, count(b5)=4x, count(b6)=8x.
        let x = 7; // arbitrary snapshot id
        let mut prefix = LinearExpr::zero(); // Σ counts of prior events in graphlet
        let mut counts = Vec::new();
        for _ in 0..4 {
            let pred = LinearExpr::snapshot(x).plus(&prefix);
            let e = pred.propagate(T::ZERO, false);
            prefix.add_assign(&e);
            counts.push(e);
        }
        let sx = nv(2, 0, 0); // x = 2 for q1 (Table 4)
        let got: Vec<u64> = counts.iter().map(|e| e.eval(|_| sx).count.0).collect();
        assert_eq!(got, vec![2, 4, 8, 16]); // x, 2x, 4x, 8x with x=2
        let sx2 = nv(1, 0, 0); // x = 1 for q2
        let got: Vec<u64> = counts.iter().map(|e| e.eval(|_| sx2).count.0).collect();
        assert_eq!(got, vec![1, 2, 4, 8]);
    }

    #[test]
    fn propagate_carries_sum_and_cnt() {
        // One snapshot x, event of target type with attr w=10.
        let pred = LinearExpr::snapshot(0);
        let e = pred.propagate(T(10), true);
        // For S(x) = (count=3, sum=4, cnt=5):
        // count = 3, sum = 4 + 10·3 = 34, cnt = 5 + 3 = 8.
        let v = e.eval(|_| nv(3, 4, 5));
        assert_eq!(v, nv(3, 34, 8));
    }

    #[test]
    fn eval_mixed_terms_and_const() {
        // e = const(1,0,0) + 2·x0 + 1·x1 with b_sum on x1.
        let mut e = LinearExpr::constant(nv(1, 0, 0));
        e.add_assign(&LinearExpr::snapshot(0));
        e.add_assign(&LinearExpr::snapshot(0));
        e.add_assign(&LinearExpr::snapshot(1).propagate(T(5), false));
        let vals = [nv(10, 0, 0), nv(100, 0, 0)];
        let v = e.eval(|s| vals[s as usize]);
        assert_eq!(v.count, T(1 + 2 * 10 + 100));
        assert_eq!(v.sum, T(5 * 100));
    }

    #[test]
    fn mem_bytes_grows_with_terms() {
        let a = LinearExpr::zero();
        let b = LinearExpr::snapshot(0).plus(&LinearExpr::snapshot(1));
        assert!(b.mem_bytes() > a.mem_bytes());
    }
}
