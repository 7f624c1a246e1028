//! General trend aggregation queries (§5): disjunction and conjunction.
//!
//! `COUNT(P1 ∨ P2)` and `COUNT(P1 ∧ P2)` are computed from the counts of
//! the sub-patterns, which are evaluated (and shared) as ordinary queries:
//!
//! ```text
//! COUNT(P1 ∨ P2) = C1' + C2' + C1,2
//! COUNT(P1 ∧ P2) = C1'·C2' + C1'·C1,2 + C2'·C1,2 + (C1,2 choose 2)
//! ```
//!
//! with `C1' = C1 − C1,2`, `C2' = C2 − C1,2` and `C1,2` the count of trends
//! matched by both branches. Deciding `C1,2` for arbitrary branch patterns
//! requires a pattern-intersection construction; this implementation covers
//! the two cases that arise in practice — identical branches
//! (`C1,2 = C1`) and branches over differing type sets (`C1,2 = 0`) — and
//! rejects the rest (ARCHITECTURE.md, "Deviations from the paper").
//!
//! Negation (`SEQ(P1, NOT N, P2)`) is handled natively inside the run
//! engine via blocking watermarks (see [`crate::run`]), not here.

use hamlet_query::{AggFunc, Pattern, Query, QueryId};
use hamlet_types::TrendVal;
use std::fmt;

/// How two branch counts combine.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CombineKind {
    /// Disjunction (`P1 ∨ P2`).
    Or,
    /// Conjunction (`P1 ∧ P2`).
    And,
}

/// A decomposed general query: two branch queries plus a combiner.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// Left branch (same clauses as the original, pattern = `P1`).
    pub left: Query,
    /// Right branch (pattern = `P2`).
    pub right: Query,
    /// Combination rule.
    pub kind: CombineKind,
    /// True iff the branch patterns are identical (`C1,2 = C1`).
    pub same_pattern: bool,
}

/// Why a general query cannot be decomposed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GeneralError {
    /// Disjunction/conjunction only support `COUNT(*)` (the paper's §5
    /// formulas are trend counts).
    NonCountAggregate,
    /// Branch patterns overlap on some but not all types, so `C1,2` is not
    /// derivable without a pattern-intersection construction.
    AmbiguousOverlap,
    /// `OR`/`AND` nested below the top level.
    NestedGeneralOperator,
}

impl fmt::Display for GeneralError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeneralError::NonCountAggregate => {
                write!(f, "OR/AND queries support COUNT(*) only")
            }
            GeneralError::AmbiguousOverlap => write!(
                f,
                "OR/AND branches must be identical or type-disjoint to derive C1,2"
            ),
            GeneralError::NestedGeneralOperator => {
                write!(f, "OR/AND must be the top-level pattern operator")
            }
        }
    }
}

impl std::error::Error for GeneralError {}

fn contains_general(p: &Pattern) -> bool {
    match p {
        Pattern::Type(_) => false,
        Pattern::Kleene(i) | Pattern::Not(i) => contains_general(i),
        Pattern::Seq(ps) => ps.iter().any(contains_general),
        Pattern::Or(_, _) | Pattern::And(_, _) => true,
    }
}

/// Decomposes a top-level `OR`/`AND` query into branch queries with fresh
/// ids `left_id` and `right_id`. Returns `Ok(None)` for ordinary queries.
pub fn decompose(
    q: &Query,
    left_id: QueryId,
    right_id: QueryId,
) -> Result<Option<Decomposition>, GeneralError> {
    let (p1, p2, kind) = match &q.pattern {
        Pattern::Or(a, b) => (a, b, CombineKind::Or),
        Pattern::And(a, b) => (a, b, CombineKind::And),
        other => {
            if contains_general(other) {
                return Err(GeneralError::NestedGeneralOperator);
            }
            return Ok(None);
        }
    };
    if contains_general(p1) || contains_general(p2) {
        return Err(GeneralError::NestedGeneralOperator);
    }
    if q.agg != AggFunc::CountStar {
        return Err(GeneralError::NonCountAggregate);
    }
    let same = p1 == p2;
    if !same {
        let t1 = p1.event_types();
        let t2 = p2.event_types();
        if t1.intersection(&t2).next().is_some() {
            return Err(GeneralError::AmbiguousOverlap);
        }
    }
    let mk = |id: QueryId, p: &Pattern| {
        let mut sub = q.clone();
        sub.id = id;
        sub.pattern = p.clone();
        sub
    };
    Ok(Some(Decomposition {
        left: mk(left_id, p1),
        right: mk(right_id, p2),
        kind,
        same_pattern: same,
    }))
}

/// `c·(c−1)/2` in the ring: one of the factors is even before wrapping, so
/// divide that one. (Exact for true counts below 2⁶⁴; ARCHITECTURE.md,
/// "Deviations from the paper".)
fn choose2(c: TrendVal) -> TrendVal {
    if c.0.is_multiple_of(2) {
        TrendVal(c.0 / 2) * (c - TrendVal::ONE)
    } else {
        c * TrendVal((c.0.wrapping_sub(1)) / 2)
    }
}

/// Combines branch counts into the general query's count (§5 formulas).
pub fn combine(kind: CombineKind, c1: TrendVal, c2: TrendVal, same_pattern: bool) -> TrendVal {
    let c12 = if same_pattern { c1 } else { TrendVal::ZERO };
    let c1p = c1 - c12;
    let c2p = c2 - c12;
    match kind {
        CombineKind::Or => c1p + c2p + c12,
        CombineKind::And => c1p * c2p + c1p * c12 + c2p * c12 + choose2(c12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_query::Window;
    use hamlet_types::EventTypeId;

    const A: EventTypeId = EventTypeId(0);
    const B: EventTypeId = EventTypeId(1);
    const C: EventTypeId = EventTypeId(2);
    const D: EventTypeId = EventTypeId(3);

    fn seq(a: EventTypeId, b: EventTypeId) -> Pattern {
        Pattern::seq(vec![Pattern::Type(a), Pattern::plus(Pattern::Type(b))])
    }

    #[test]
    fn ordinary_query_passes_through() {
        let q = Query::count_star(0, seq(A, B), Window::tumbling(10));
        assert!(decompose(&q, QueryId(10), QueryId(11)).unwrap().is_none());
    }

    #[test]
    fn or_decomposes_disjoint_branches() {
        let p = Pattern::Or(Box::new(seq(A, B)), Box::new(seq(C, D)));
        let q = Query::count_star(0, p, Window::tumbling(10));
        let d = decompose(&q, QueryId(10), QueryId(11)).unwrap().unwrap();
        assert_eq!(d.kind, CombineKind::Or);
        assert!(!d.same_pattern);
        assert_eq!(d.left.id, QueryId(10));
        assert_eq!(d.right.pattern, seq(C, D));
    }

    #[test]
    fn overlapping_branches_rejected() {
        let p = Pattern::Or(Box::new(seq(A, B)), Box::new(seq(C, B)));
        let q = Query::count_star(0, p, Window::tumbling(10));
        assert!(matches!(
            decompose(&q, QueryId(10), QueryId(11)),
            Err(GeneralError::AmbiguousOverlap)
        ));
    }

    #[test]
    fn identical_branches_allowed() {
        let p = Pattern::Or(Box::new(seq(A, B)), Box::new(seq(A, B)));
        let q = Query::count_star(0, p, Window::tumbling(10));
        let d = decompose(&q, QueryId(10), QueryId(11)).unwrap().unwrap();
        assert!(d.same_pattern);
        // COUNT(P ∨ P) = C.
        assert_eq!(
            combine(CombineKind::Or, TrendVal(7), TrendVal(7), true),
            TrendVal(7)
        );
    }

    #[test]
    fn nested_or_rejected() {
        let p = Pattern::seq(vec![
            Pattern::Type(A),
            Pattern::Or(Box::new(Pattern::Type(B)), Box::new(Pattern::Type(C))),
        ]);
        // Bypass Query::count_star validation-compatible constructor.
        let q = Query::new(
            QueryId(0),
            p,
            AggFunc::CountStar,
            vec![],
            vec![],
            vec![],
            vec![],
            Window::tumbling(10),
        )
        .unwrap();
        assert!(matches!(
            decompose(&q, QueryId(10), QueryId(11)),
            Err(GeneralError::NestedGeneralOperator)
        ));
    }

    #[test]
    fn or_and_combination_formulas() {
        // Disjoint branches: OR adds, AND multiplies.
        assert_eq!(
            combine(CombineKind::Or, TrendVal(3), TrendVal(4), false),
            TrendVal(7)
        );
        assert_eq!(
            combine(CombineKind::And, TrendVal(3), TrendVal(4), false),
            TrendVal(12)
        );
        // Identical branches: AND pairs distinct trends: C(7,2) = 21.
        assert_eq!(
            combine(CombineKind::And, TrendVal(7), TrendVal(7), true),
            TrendVal(21)
        );
    }

    #[test]
    fn choose2_handles_parity() {
        assert_eq!(choose2(TrendVal(6)), TrendVal(15));
        assert_eq!(choose2(TrendVal(7)), TrendVal(21));
        assert_eq!(choose2(TrendVal(0)), TrendVal(0));
        assert_eq!(choose2(TrendVal(1)), TrendVal(0));
    }

    #[test]
    fn non_count_aggregate_rejected() {
        let p = Pattern::Or(Box::new(seq(A, B)), Box::new(seq(C, D)));
        let q = Query::new(
            QueryId(0),
            p,
            AggFunc::Sum(B, 0),
            vec![],
            vec![],
            vec![],
            vec![],
            Window::tumbling(10),
        )
        .unwrap();
        assert!(matches!(
            decompose(&q, QueryId(10), QueryId(11)),
            Err(GeneralError::NonCountAggregate)
        ));
    }
}
