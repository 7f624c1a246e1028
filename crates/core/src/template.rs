//! Query templates and the merged workload template (§3.1).
//!
//! A pattern compiles to a Finite-State-Automaton-like *query template*
//! whose states are event types: a transition `E1 → E2` means events of
//! type `E1` precede events of type `E2` in a trend (`E1 ∈ pt(E2, q)`,
//! Example 2). A whole share group compiles to one *merged template* where
//! each type appears once and each transition is labeled with the set of
//! queries it holds for (Fig. 3(b)).

use crate::bitset::QSet;
use hamlet_query::{Pattern, Query};
use hamlet_types::EventTypeId;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Errors raised while compiling a pattern to a template.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TemplateError {
    /// `OR`/`AND` patterns must be decomposed (via [`crate::general`])
    /// before template construction (§5 computes them from sub-pattern
    /// counts).
    UnsupportedOperator(&'static str),
    /// Negation nested somewhere other than directly inside the top-level
    /// `SEQ`.
    NestedNegation,
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateError::UnsupportedOperator(op) => write!(
                f,
                "{op} patterns must be decomposed before template construction"
            ),
            TemplateError::NestedNegation => {
                write!(f, "NOT is only supported directly inside the top-level SEQ")
            }
        }
    }
}

impl std::error::Error for TemplateError {}

/// Where a negated sub-pattern sits relative to the positive components.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NegKind {
    /// `SEQ(NOT N, P)` — a match of `N` forbids trends starting later in
    /// the window.
    Leading {
        /// Start types of the following positive component.
        succ: BTreeSet<EventTypeId>,
    },
    /// `SEQ(P1, NOT N, P2)` — a match of `N` severs connections from
    /// earlier `P1` matches to later `P2` matches (§5).
    Gap {
        /// End types of the preceding positive component.
        pred: BTreeSet<EventTypeId>,
        /// Start types of the following positive component.
        succ: BTreeSet<EventTypeId>,
    },
    /// `SEQ(P, NOT N)` — a match of `N` invalidates trends completed
    /// before it.
    Trailing,
}

/// A negation constraint extracted from the pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NegConstraint {
    /// The negated event type.
    pub neg_ty: EventTypeId,
    /// Position of the negation.
    pub kind: NegKind,
}

/// Automaton fragment used during recursive construction.
#[derive(Clone, Debug, Default)]
struct Frag {
    states: BTreeSet<EventTypeId>,
    start: BTreeSet<EventTypeId>,
    end: BTreeSet<EventTypeId>,
    edges: BTreeSet<(EventTypeId, EventTypeId)>,
}

/// Per-query template: predecessor types, start/end types, negations.
#[derive(Clone, Debug)]
pub struct QueryTemplate {
    /// Positive event types (automaton states).
    pub states: BTreeSet<EventTypeId>,
    /// Types that may begin a trend (`start(q)`).
    pub start: BTreeSet<EventTypeId>,
    /// Types that may end a trend (`end(q)`).
    pub end: BTreeSet<EventTypeId>,
    /// Transitions `(pred, succ)`; `succ`'s predecessor types are read off
    /// these (`pt(E, q)`).
    pub edges: BTreeSet<(EventTypeId, EventTypeId)>,
    /// Negation constraints (§5).
    pub negations: Vec<NegConstraint>,
}

impl QueryTemplate {
    /// Compiles a (positive, possibly negation-carrying) pattern.
    pub fn build(pattern: &Pattern) -> Result<QueryTemplate, TemplateError> {
        let mut negations = Vec::new();
        let frag = build_frag(pattern, &mut negations, true)?;
        Ok(QueryTemplate {
            states: frag.states,
            start: frag.start,
            end: frag.end,
            edges: frag.edges,
            negations,
        })
    }

    /// Predecessor types of `ty` (`pt(ty, q)`, Example 2).
    pub fn pred_types(&self, ty: EventTypeId) -> BTreeSet<EventTypeId> {
        self.edges
            .iter()
            .filter(|(_, s)| *s == ty)
            .map(|(p, _)| *p)
            .collect()
    }
}

fn build_frag(
    p: &Pattern,
    negs: &mut Vec<NegConstraint>,
    top: bool,
) -> Result<Frag, TemplateError> {
    match p {
        Pattern::Type(t) => Ok(Frag {
            states: [*t].into(),
            start: [*t].into(),
            end: [*t].into(),
            edges: BTreeSet::new(),
        }),
        Pattern::Kleene(inner) => {
            let mut f = build_frag(inner, negs, false)?;
            // Loop back: every end type connects to every start type,
            // yielding the self-loop for E+ and the B→A loop for
            // (SEQ(A, B+))+ (Example 10).
            let loops: Vec<_> = f
                .end
                .iter()
                .flat_map(|e| f.start.iter().map(move |s| (*e, *s)))
                .collect();
            f.edges.extend(loops);
            Ok(f)
        }
        Pattern::Seq(parts) => {
            let mut acc: Option<Frag> = None;
            let mut pending_negs: Vec<EventTypeId> = Vec::new();
            for part in parts {
                if let Pattern::Not(inner) = part {
                    let Pattern::Type(nt) = &**inner else {
                        return Err(TemplateError::NestedNegation);
                    };
                    pending_negs.push(*nt);
                    continue;
                }
                let f = build_frag(part, negs, false)?;
                match acc {
                    None => {
                        for nt in pending_negs.drain(..) {
                            negs.push(NegConstraint {
                                neg_ty: nt,
                                kind: NegKind::Leading {
                                    succ: f.start.clone(),
                                },
                            });
                        }
                        acc = Some(f);
                    }
                    Some(mut a) => {
                        for nt in pending_negs.drain(..) {
                            negs.push(NegConstraint {
                                neg_ty: nt,
                                kind: NegKind::Gap {
                                    pred: a.end.clone(),
                                    succ: f.start.clone(),
                                },
                            });
                        }
                        // Chain: end(prev) × start(next).
                        let cross: Vec<_> = a
                            .end
                            .iter()
                            .flat_map(|e| f.start.iter().map(move |s| (*e, *s)))
                            .collect();
                        a.edges.extend(cross);
                        a.edges.extend(f.edges.iter().copied());
                        a.states.extend(f.states.iter().copied());
                        a.end = f.end;
                        acc = Some(a);
                    }
                }
            }
            let mut a = acc.ok_or(TemplateError::UnsupportedOperator("empty SEQ"))?;
            for nt in pending_negs {
                negs.push(NegConstraint {
                    neg_ty: nt,
                    kind: NegKind::Trailing,
                });
            }
            // Negations are only extracted at the top-level SEQ; deeper
            // SEQ nesting with NOT was rejected above.
            let _ = top;
            a.states = a.states.into_iter().collect();
            Ok(a)
        }
        Pattern::Or(_, _) => Err(TemplateError::UnsupportedOperator("OR")),
        Pattern::And(_, _) => Err(TemplateError::UnsupportedOperator("AND")),
        Pattern::Not(_) => Err(TemplateError::NestedNegation),
    }
}

/// The merged template of a share group (Fig. 3(b)): one state per event
/// type, transitions labeled with query sets, plus the per-type metadata
/// the run engine reads on the hot path, all in run-local dense indices.
#[derive(Clone, Debug)]
pub struct MergedTemplate {
    /// Event types appearing (positively or negated) in the group, in
    /// dense local order.
    pub types: Vec<EventTypeId>,
    local: HashMap<EventTypeId, usize>,
    /// Number of member queries.
    pub k: usize,
    /// `pt[type][q]` — local predecessor types of `type` for member `q`.
    pub pt: Vec<Vec<Vec<usize>>>,
    /// Members whose pattern contains the type positively.
    pub involved: Vec<QSet>,
    /// Members for which the type is negated.
    pub neg_involved: Vec<QSet>,
    /// Members for which the type starts trends.
    pub start: Vec<QSet>,
    /// Members for which the type ends trends.
    pub end: Vec<QSet>,
    /// Members whose template has a self-loop on the type (Kleene).
    pub self_loop: Vec<QSet>,
    /// Types whose `E+` is *sharable* (Def. 4): self-loop in ≥ 2 members.
    pub sharable: Vec<bool>,
    /// Per-member compiled templates (negations, full edge sets).
    pub per_query: Vec<QueryTemplate>,
}

impl MergedTemplate {
    /// Merges the templates of `queries` (their order defines member
    /// indices).
    ///
    /// # Panics
    /// On more than [`QSet::CAPACITY`] queries: a share group is one word
    /// wide, and [`crate::workload::analyze`] never asks for a wider one.
    pub fn build(queries: &[&Query]) -> Result<MergedTemplate, TemplateError> {
        let k = queries.len();
        let per_query: Vec<QueryTemplate> = queries
            .iter()
            .map(|q| QueryTemplate::build(&q.pattern))
            .collect::<Result<_, _>>()?;

        // Dense local type ids over all positive + negated types.
        let mut local: HashMap<EventTypeId, usize> = HashMap::new();
        let mut types: Vec<EventTypeId> = Vec::new();
        let mut intern = |t: EventTypeId, types: &mut Vec<EventTypeId>| {
            *local.entry(t).or_insert_with(|| {
                types.push(t);
                types.len() - 1
            })
        };
        for tpl in &per_query {
            for &t in &tpl.states {
                intern(t, &mut types);
            }
            for n in &tpl.negations {
                intern(n.neg_ty, &mut types);
            }
        }
        let nt = types.len();
        let mut pt = vec![vec![Vec::new(); k]; nt];
        let mut involved = vec![QSet::new(); nt];
        let mut neg_involved = vec![QSet::new(); nt];
        let mut start = vec![QSet::new(); nt];
        let mut end = vec![QSet::new(); nt];
        let mut self_loop = vec![QSet::new(); nt];

        for (qi, tpl) in per_query.iter().enumerate() {
            for &t in &tpl.states {
                involved[local[&t]].insert(qi);
            }
            for &t in &tpl.start {
                start[local[&t]].insert(qi);
            }
            for &t in &tpl.end {
                end[local[&t]].insert(qi);
            }
            for &(p, s) in &tpl.edges {
                let (pl, sl) = (local[&p], local[&s]);
                if pl == sl {
                    self_loop[sl].insert(qi);
                }
                if !pt[sl][qi].contains(&pl) {
                    pt[sl][qi].push(pl);
                }
            }
            for n in &tpl.negations {
                neg_involved[local[&n.neg_ty]].insert(qi);
            }
        }
        for preds in pt.iter_mut().flatten() {
            preds.sort_unstable();
        }
        let sharable = self_loop.iter().map(|s| s.len() >= 2).collect();
        Ok(MergedTemplate {
            types,
            local,
            k,
            pt,
            involved,
            neg_involved,
            start,
            end,
            self_loop,
            sharable,
            per_query,
        })
    }

    /// Local index of a global event type, if it appears in the group.
    #[inline]
    pub fn local(&self, t: EventTypeId) -> Option<usize> {
        self.local.get(&t).copied()
    }

    /// Number of local types.
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// Average number of predecessor types per type per query — the cost
    /// factor `p` of Table 2.
    pub fn avg_pred_types(&self) -> f64 {
        let mut total = 0usize;
        let mut cells = 0usize;
        for per_type in &self.pt {
            for preds in per_type {
                if !preds.is_empty() {
                    total += preds.len();
                    cells += 1;
                }
            }
        }
        if cells == 0 {
            0.0
        } else {
            total as f64 / cells as f64
        }
    }

    /// The transition relation with query-set labels, for inspection and
    /// tests (Fig. 3(b)).
    pub fn labeled_edges(&self) -> BTreeMap<(EventTypeId, EventTypeId), Vec<usize>> {
        let mut out: BTreeMap<(EventTypeId, EventTypeId), Vec<usize>> = BTreeMap::new();
        for (sl, per_q) in self.pt.iter().enumerate() {
            for (qi, preds) in per_q.iter().enumerate() {
                for &pl in preds {
                    out.entry((self.types[pl], self.types[sl]))
                        .or_default()
                        .push(qi);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_query::Window;

    const A: EventTypeId = EventTypeId(0);
    const B: EventTypeId = EventTypeId(1);
    const C: EventTypeId = EventTypeId(2);
    const N: EventTypeId = EventTypeId(3);

    fn q(id: u32, p: Pattern) -> Query {
        Query::count_star(id, p, Window::tumbling(100))
    }

    fn seq_a_bplus() -> Pattern {
        Pattern::seq(vec![Pattern::Type(A), Pattern::plus(Pattern::Type(B))])
    }

    fn seq_c_bplus() -> Pattern {
        Pattern::seq(vec![Pattern::Type(C), Pattern::plus(Pattern::Type(B))])
    }

    #[test]
    fn figure3a_template_of_q1() {
        // SEQ(A, B+): pt(B) = {A, B}, pt(A) = ∅, start = {A}, end = {B}.
        let tpl = QueryTemplate::build(&seq_a_bplus()).unwrap();
        assert_eq!(tpl.pred_types(B), [A, B].into());
        assert_eq!(tpl.pred_types(A), BTreeSet::new());
        assert_eq!(tpl.start, [A].into());
        assert_eq!(tpl.end, [B].into());
    }

    #[test]
    fn example10_nested_kleene_template() {
        // (SEQ(A, B+))+ adds the loop B → A (Fig. 8).
        let p = Pattern::plus(seq_a_bplus());
        let tpl = QueryTemplate::build(&p).unwrap();
        assert_eq!(tpl.pred_types(A), [B].into());
        assert_eq!(tpl.pred_types(B), [A, B].into());
        assert_eq!(tpl.start, [A].into());
        assert_eq!(tpl.end, [B].into());
    }

    #[test]
    fn negation_positions() {
        // SEQ(NOT N, A, NOT N?, B+, NOT N) — use three distinct spots.
        let p = Pattern::seq(vec![
            Pattern::Not(Box::new(Pattern::Type(N))),
            Pattern::Type(A),
            Pattern::plus(Pattern::Type(B)),
            Pattern::Not(Box::new(Pattern::Type(N))),
        ]);
        let tpl = QueryTemplate::build(&p).unwrap();
        assert_eq!(tpl.negations.len(), 2);
        assert!(matches!(tpl.negations[0].kind, NegKind::Leading { .. }));
        assert!(matches!(tpl.negations[1].kind, NegKind::Trailing));

        let p = Pattern::seq(vec![
            Pattern::Type(A),
            Pattern::Not(Box::new(Pattern::Type(N))),
            Pattern::plus(Pattern::Type(B)),
        ]);
        let tpl = QueryTemplate::build(&p).unwrap();
        assert_eq!(tpl.negations.len(), 1);
        match &tpl.negations[0].kind {
            NegKind::Gap { pred, succ } => {
                assert_eq!(pred, &[A].into());
                assert_eq!(succ, &[B].into());
            }
            other => panic!("expected Gap, got {other:?}"),
        }
    }

    #[test]
    fn or_rejected_until_decomposed() {
        let p = Pattern::Or(Box::new(seq_a_bplus()), Box::new(seq_c_bplus()));
        assert!(matches!(
            QueryTemplate::build(&p),
            Err(TemplateError::UnsupportedOperator("OR"))
        ));
    }

    #[test]
    fn figure3b_merged_template() {
        // Workload Q = {q1: SEQ(A,B+), q2: SEQ(C,B+)}: B's self-loop is
        // labeled {q1, q2}; A→B labeled {q1}; C→B labeled {q2}.
        let q1 = q(1, seq_a_bplus());
        let q2 = q(2, seq_c_bplus());
        let m = MergedTemplate::build(&[&q1, &q2]).unwrap();
        assert_eq!(m.k, 2);
        let bl = m.local(B).unwrap();
        assert!(m.sharable[bl]);
        assert!(!m.sharable[m.local(A).unwrap()]);
        let edges = m.labeled_edges();
        assert_eq!(edges[&(B, B)], vec![0, 1]);
        assert_eq!(edges[&(A, B)], vec![0]);
        assert_eq!(edges[&(C, B)], vec![1]);
        assert!(m.start[m.local(A).unwrap()].contains(0));
        assert!(!m.start[m.local(A).unwrap()].contains(1));
        assert!(m.end[bl].contains(0) && m.end[bl].contains(1));
        assert!(m.avg_pred_types() > 0.0);
        assert_eq!(m.num_types(), 3);
    }

    #[test]
    fn merged_template_tracks_negated_types() {
        let q1 = q(
            1,
            Pattern::seq(vec![
                Pattern::Type(A),
                Pattern::plus(Pattern::Type(B)),
                Pattern::Not(Box::new(Pattern::Type(N))),
            ]),
        );
        let q2 = q(2, seq_c_bplus());
        let m = MergedTemplate::build(&[&q1, &q2]).unwrap();
        let nl = m.local(N).unwrap();
        assert!(m.neg_involved[nl].contains(0));
        assert!(!m.neg_involved[nl].contains(1));
        assert!(m.involved[nl].is_empty());
    }
}
