//! SHARON-style shared online event *sequence* aggregation (§6.1, \[35\]).
//!
//! SHARON computes sequence aggregates online but does not support Kleene
//! closure. Following the paper's methodology, each Kleene sub-pattern `E+`
//! is flattened into a family of fixed-length sequence queries
//! `SEQ(…, E×j, …)` for `j = 1..l`, where `l` estimates the longest match.
//! The family shares prefixes, so one dynamic program of `l` Kleene
//! positions per query evaluates all of it — at `O(l)` cost per `E` event,
//! which is exactly the overhead that makes SHARON orders of magnitude
//! slower on Kleene workloads (Fig. 9). Matches longer than `l` are
//! undercounted — SHARON's inherent limitation.

use crate::windowed::{Unit, Windowed};
use hamlet_core::agg::NodeVal;
use hamlet_core::executor::{AggValue, WindowResult};
use hamlet_query::{AggFunc, Pattern, Query};
use hamlet_types::{Event, EventTypeId, GroupKey, TrendVal, Ts, TypeRegistry};
use std::fmt;
use std::sync::Arc;

/// Construction errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SharonError {
    /// The flattening only supports `SEQ` chains of types with exactly one
    /// `E+` (the workload shape of §6.1) and `COUNT(*)`.
    Unsupported(String),
}

impl fmt::Display for SharonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SharonError::Unsupported(m) => write!(f, "SHARON flattening: {m}"),
        }
    }
}

impl std::error::Error for SharonError {}

/// One flattened query, the unit a [`SharonEngine`] evaluates: a chain
/// of positions; `kleene` marks the block of `l` positions that encodes
/// `E×1 … E×l`. A window instance holds one dynamic-program cell per
/// position.
pub struct FlatQuery {
    query: Arc<Query>,
    /// Position types: prefix types, then `l` copies of the Kleene type,
    /// then suffix types.
    positions: Vec<EventTypeId>,
    /// Index range of the Kleene block.
    kleene: std::ops::Range<usize>,
}

/// The SHARON baseline engine.
pub type SharonEngine = Windowed<FlatQuery>;

fn flatten_pattern(p: &Pattern) -> Result<(Vec<EventTypeId>, usize), SharonError> {
    // Returns (type chain with the Kleene type appearing once, index of the
    // Kleene element).
    let parts: Vec<&Pattern> = match p {
        Pattern::Seq(ps) => ps.iter().collect(),
        other => vec![other],
    };
    let mut chain = Vec::new();
    let mut kleene_at = None;
    for part in parts {
        match part {
            Pattern::Type(t) => chain.push(*t),
            Pattern::Kleene(inner) => match &**inner {
                Pattern::Type(t) => {
                    if kleene_at.is_some() {
                        return Err(SharonError::Unsupported(
                            "multiple Kleene sub-patterns".into(),
                        ));
                    }
                    kleene_at = Some(chain.len());
                    chain.push(*t);
                }
                _ => return Err(SharonError::Unsupported("nested Kleene patterns".into())),
            },
            _ => {
                return Err(SharonError::Unsupported(
                    "only SEQ chains of types with one E+ are flattenable".into(),
                ))
            }
        }
    }
    let k = kleene_at.ok_or_else(|| SharonError::Unsupported("no Kleene sub-pattern".into()))?;
    Ok((chain, k))
}

impl SharonEngine {
    /// Flattens the workload with maximum Kleene length `max_len` (`l`,
    /// at least 1).
    pub fn new(
        reg: Arc<TypeRegistry>,
        queries: Vec<Query>,
        max_len: usize,
    ) -> Result<Self, SharonError> {
        if max_len == 0 {
            return Err(SharonError::Unsupported(
                "the longest Kleene match l must be at least 1".into(),
            ));
        }
        let flats = queries
            .into_iter()
            .map(|q| {
                if q.agg != AggFunc::CountStar {
                    return Err(SharonError::Unsupported(
                        "flattening implemented for COUNT(*)".into(),
                    ));
                }
                let (chain, kat) = flatten_pattern(&q.pattern)?;
                let mut positions = Vec::with_capacity(chain.len() + max_len - 1);
                positions.extend_from_slice(&chain[..kat]);
                let kleene_ty = chain[kat];
                let kleene = positions.len()..positions.len() + max_len;
                positions.extend(std::iter::repeat_n(kleene_ty, max_len));
                positions.extend_from_slice(&chain[kat + 1..]);
                let (attrs, window) = (q.partition_attrs(), q.window);
                let flat = FlatQuery {
                    query: Arc::new(q),
                    positions,
                    kleene,
                };
                Ok((flat, attrs, window))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Windowed::over(reg, flats))
    }
}

impl Unit for FlatQuery {
    type State = Vec<NodeVal>;

    fn accepts(&self, e: &Event) -> bool {
        self.positions.contains(&e.ty) && self.query.selects(e)
    }

    fn open(&self) -> Vec<NodeVal> {
        vec![NodeVal::ZERO; self.positions.len()]
    }

    fn fold(&self, dp: &mut Vec<NodeVal>, e: &Event) {
        // Fixed-length sequence DP: scan positions from the back so one
        // event extends each flattened query at most once. The first
        // suffix position accepts any Kleene length `j`, so it sums over
        // the whole block (prefix sharing across the flattened family).
        for i in (0..dp.len()).rev() {
            if self.positions[i] != e.ty {
                continue;
            }
            let inc = if i == 0 {
                NodeVal {
                    count: TrendVal::ONE,
                    ..NodeVal::ZERO
                }
            } else if i == self.kleene.end {
                let mut s = NodeVal::ZERO;
                for j in self.kleene.clone() {
                    s.add(dp[j]);
                }
                s
            } else {
                dp[i - 1]
            };
            dp[i].add(inc);
        }
    }

    fn emit(&mut self, dp: Vec<NodeVal>, key: &GroupKey, start: Ts, out: &mut Vec<WindowResult>) {
        // Total = Σ over flattened queries: sequences ending at the last
        // position of each `SEQ(…, E×j, …)`.
        let total: TrendVal = if self.kleene.end == self.positions.len() {
            dp[self.kleene.clone()].iter().map(|v| v.count).sum()
        } else {
            // A suffix exists; only full chains count. The suffix block
            // is shared across j, so the final position holds the total.
            dp[self.positions.len() - 1].count
        };
        out.push(WindowResult {
            query: self.query.id,
            group_key: key.clone(),
            window_start: start,
            value: AggValue::Count(total.0),
        });
    }

    /// The dp tables per flattened query — the memory blow-up of Fig. 10.
    fn bytes(&self, dp: &Vec<NodeVal>) -> usize {
        dp.len() * std::mem::size_of::<NodeVal>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_query::{QueryId, Window};
    use hamlet_types::AttrValue;

    fn registry() -> (Arc<TypeRegistry>, EventTypeId, EventTypeId, EventTypeId) {
        let mut reg = TypeRegistry::new();
        let a = reg.register("A", &["g"]);
        let b = reg.register("B", &["g"]);
        let c = reg.register("C", &["g"]);
        (Arc::new(reg), a, b, c)
    }

    fn seq(a: EventTypeId, b: EventTypeId) -> Pattern {
        Pattern::seq(vec![Pattern::Type(a), Pattern::plus(Pattern::Type(b))])
    }

    fn ev(ty: EventTypeId, t: u64) -> Event {
        Event::new(Ts(t), ty, vec![AttrValue::Int(0)])
    }

    fn total(engine: &mut SharonEngine, evs: &[Event]) -> u64 {
        let mut out = Vec::new();
        for e in evs {
            out.extend(engine.process(e));
        }
        out.extend(engine.flush());
        out.iter().map(|r| r.value.as_count()).sum()
    }

    #[test]
    fn flattened_count_matches_kleene_when_l_large() {
        let (reg, a, b, _) = registry();
        let q = Query::count_star(0, seq(a, b), Window::tumbling(100));
        let mut eng = SharonEngine::new(reg, vec![q], 16).unwrap();
        // a, b, b, b → 7 trends (non-empty subsets of 3 b's).
        let evs = vec![ev(a, 1), ev(b, 2), ev(b, 3), ev(b, 4)];
        assert_eq!(total(&mut eng, &evs), 7);
    }

    #[test]
    fn undercounts_when_l_too_small() {
        let (reg, a, b, _) = registry();
        let q = Query::count_star(0, seq(a, b), Window::tumbling(100));
        let mut eng = SharonEngine::new(reg, vec![q], 2).unwrap();
        // With l = 2 only subsets of size ≤ 2 count: C(3,1)+C(3,2) = 6.
        let evs = vec![ev(a, 1), ev(b, 2), ev(b, 3), ev(b, 4)];
        assert_eq!(total(&mut eng, &evs), 6);
    }

    #[test]
    fn suffix_chain_counts_full_sequences() {
        let (reg, a, b, c) = registry();
        let p = Pattern::seq(vec![
            Pattern::Type(a),
            Pattern::plus(Pattern::Type(b)),
            Pattern::Type(c),
        ]);
        let q = Query::count_star(0, p, Window::tumbling(100));
        let mut eng = SharonEngine::new(reg, vec![q], 8).unwrap();
        // a b b c → sequences (a,b2,c), (a,b3,c), (a,b2,b3,c) = 3.
        let evs = vec![ev(a, 1), ev(b, 2), ev(b, 3), ev(c, 4)];
        assert_eq!(total(&mut eng, &evs), 3);
    }

    #[test]
    fn pure_kleene_pattern() {
        let (reg, _, b, _) = registry();
        let q = Query::count_star(0, Pattern::plus(Pattern::Type(b)), Window::tumbling(100));
        let mut eng = SharonEngine::new(reg, vec![q], 8).unwrap();
        // b b b → 7 non-empty ordered subsets.
        let evs = vec![ev(b, 1), ev(b, 2), ev(b, 3)];
        assert_eq!(total(&mut eng, &evs), 7);
    }

    #[test]
    fn unsupported_patterns_rejected() {
        let (reg, a, b, c) = registry();
        let nested = Pattern::plus(Pattern::seq(vec![Pattern::Type(a), Pattern::Type(b)]));
        let q = Query::count_star(0, nested, Window::tumbling(10));
        assert!(SharonEngine::new(reg.clone(), vec![q], 4).is_err());
        let no_kleene = Pattern::seq(vec![Pattern::Type(a), Pattern::Type(c)]);
        let q = Query::count_star(0, no_kleene, Window::tumbling(10));
        assert!(SharonEngine::new(reg, vec![q], 4).is_err());
    }

    /// `l` = 0 would flatten `E+` into no sequence at all: rejected.
    #[test]
    fn zero_max_len_is_an_error() {
        let (reg, a, b, _) = registry();
        let q = Query::count_star(0, seq(a, b), Window::tumbling(10));
        assert!(matches!(
            SharonEngine::new(reg, vec![q], 0),
            Err(SharonError::Unsupported(_))
        ));
    }

    #[test]
    fn results_match_query_ids() {
        let (reg, a, b, c) = registry();
        let q1 = Query::count_star(4, seq(a, b), Window::tumbling(100));
        let q2 = Query::count_star(9, seq(c, b), Window::tumbling(100));
        let mut eng = SharonEngine::new(reg, vec![q1, q2], 8).unwrap();
        let evs = vec![ev(a, 1), ev(c, 2), ev(b, 3)];
        let mut out = Vec::new();
        for e in &evs {
            out.extend(eng.process(e));
        }
        out.extend(eng.flush());
        out.sort_by_key(|r| r.query);
        assert_eq!(out[0].query, QueryId(4));
        assert_eq!(out[0].value, AggValue::Count(1));
        assert_eq!(out[1].query, QueryId(9));
        assert_eq!(out[1].value, AggValue::Count(1));
    }
}
