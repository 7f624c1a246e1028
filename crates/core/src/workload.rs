//! Workload analysis: breaking a query workload into *share groups*
//! (sets of sharable queries, Def. 5) at compile time (§3.1 step 1).
//!
//! Two queries are sharable when (i) their patterns contain a common
//! sharable Kleene sub-pattern `E+` (Def. 4), (ii) their aggregation
//! functions can be shared, (iii) their windows are compatible, and
//! (iv) their grouping attributes coincide.
//!
//! Deviations from the paper (ARCHITECTURE.md, "Deviations from the
//! paper"): window compatibility here means *equal* `(WITHIN, SLIDE)`
//! rather than merely overlapping — the paper's pane mechanism does not
//! specify how trend aggregates are stitched across panes of different
//! windows, so we share only among aligned windows. Queries that fail any condition run in
//! singleton groups (GRETA-style non-shared execution). And a share group
//! holds at most [`QSet::CAPACITY`] members, so that a subset of them is
//! one machine word everywhere below: the next sharable query opens
//! another group.

use crate::bitset::QSet;
use crate::template::{MergedTemplate, TemplateError};
use hamlet_query::{AggFunc, Query, Window};
use hamlet_types::EventTypeId;
use std::fmt;
use std::sync::Arc;

/// Aggregate "skeleton" of a share group: the propagation dimensions all
/// members agree on.
#[derive(Clone, Debug, PartialEq)]
pub enum AggSkeleton {
    /// `COUNT(*)` members only: just the trend count.
    CountOnly,
    /// `COUNT(E)` / `SUM(E.attr)` / `AVG(E.attr)` members: ring-linear
    /// count/sum/cnt propagation over the target type (and attribute, if
    /// any member reads one).
    Linear {
        /// The target event type `E`.
        ty: EventTypeId,
        /// The attribute slot read by `SUM`/`AVG` members, if any.
        attr: Option<usize>,
    },
    /// `MIN`/`MAX` members: lattice propagation; never executed via shared
    /// graphlets (the lattice is not ring-linear; ARCHITECTURE.md,
    /// "Deviations from the paper").
    MinMax {
        /// The target event type.
        ty: EventTypeId,
        /// The attribute slot.
        attr: usize,
        /// `true` for MIN, `false` for MAX.
        is_min: bool,
    },
}

impl AggSkeleton {
    /// Skeleton implied by a single aggregation function.
    pub fn of(agg: &AggFunc) -> AggSkeleton {
        match agg {
            AggFunc::CountStar => AggSkeleton::CountOnly,
            AggFunc::CountType(t) => AggSkeleton::Linear { ty: *t, attr: None },
            AggFunc::Sum(t, a) | AggFunc::Avg(t, a) => AggSkeleton::Linear {
                ty: *t,
                attr: Some(*a),
            },
            AggFunc::Min(t, a) => AggSkeleton::MinMax {
                ty: *t,
                attr: *a,
                is_min: true,
            },
            AggFunc::Max(t, a) => AggSkeleton::MinMax {
                ty: *t,
                attr: *a,
                is_min: false,
            },
        }
    }

    /// Merges another member's skeleton into this one, filling in the
    /// attribute slot if needed. Assumes sharability was already checked.
    fn absorb(&mut self, other: &AggSkeleton) {
        if let (AggSkeleton::Linear { attr, .. }, AggSkeleton::Linear { attr: Some(a2), .. }) =
            (&mut *self, other)
        {
            attr.get_or_insert(*a2);
        }
    }

    /// True iff the shared (snapshot-expression) execution path supports
    /// this skeleton.
    pub fn supports_sharing(&self) -> bool {
        !matches!(self, AggSkeleton::MinMax { .. })
    }
}

/// One set of sharable queries, with its merged template.
pub struct ShareGroup {
    /// Member queries in dense member order (member index = position).
    pub queries: Vec<Arc<Query>>,
    /// The group's window (all members agree).
    pub window: Window,
    /// Stream-partitioning attributes (group-by + equivalence).
    pub partition_attrs: Vec<Arc<str>>,
    /// Merged template (Fig. 3(b)).
    pub template: Arc<MergedTemplate>,
    /// Aggregation skeleton.
    pub skeleton: AggSkeleton,
}

impl fmt::Debug for ShareGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShareGroup")
            .field(
                "members",
                &self.queries.iter().map(|q| q.id).collect::<Vec<_>>(),
            )
            .field("window", &self.window)
            .field("skeleton", &self.skeleton)
            .finish()
    }
}

/// Compile-time plan for the whole workload.
#[derive(Debug)]
pub struct WorkloadPlan {
    /// Share groups; singleton groups hold non-sharable queries.
    pub groups: Vec<ShareGroup>,
}

impl WorkloadPlan {
    /// Number of groups with more than one member.
    pub fn num_shared_groups(&self) -> usize {
        self.groups.iter().filter(|g| g.queries.len() > 1).count()
    }
}

/// Errors from workload analysis.
#[derive(Debug)]
pub enum WorkloadError {
    /// A pattern failed template compilation.
    Template(hamlet_query::QueryId, TemplateError),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Template(q, e) => write!(f, "query {q:?}: {e}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

fn windows_compatible(a: &Query, b: &Query) -> bool {
    a.window == b.window
}

fn grouping_equal(a: &Query, b: &Query) -> bool {
    a.partition_attrs() == b.partition_attrs()
}

fn kleene_overlap(a: &Query, b: &Query) -> bool {
    let ka = a.pattern.kleene_types();
    let kb = b.pattern.kleene_types();
    ka.intersection(&kb).next().is_some()
}

/// Def. 5 for a pair of queries.
pub fn sharable(a: &Query, b: &Query) -> bool {
    kleene_overlap(a, b)
        && a.agg.sharable_with(&b.agg)
        && windows_compatible(a, b)
        && grouping_equal(a, b)
}

/// Greedily clusters the workload into share groups and builds each
/// group's merged template (§3.1 steps 1–2).
///
/// Clustering is greedy-first-fit: a query joins the first group where it
/// is pairwise sharable with *every* member (aggregate sharability is not
/// transitive — e.g. `COUNT(E)` shares with both `SUM(E.a1)` and
/// `SUM(E.a2)`, which do not share with each other) and that is not full
/// ([`QSet::CAPACITY`] members; the split is by arrival order).
pub fn analyze(queries: &[Arc<Query>]) -> Result<WorkloadPlan, WorkloadError> {
    let mut buckets: Vec<Vec<Arc<Query>>> = Vec::new();
    for q in queries {
        let mut placed = false;
        for bucket in &mut buckets {
            if bucket.len() < QSet::CAPACITY && bucket.iter().all(|m| sharable(m, q)) {
                bucket.push(q.clone());
                placed = true;
                break;
            }
        }
        if !placed {
            buckets.push(vec![q.clone()]);
        }
    }

    let mut groups = Vec::with_capacity(buckets.len());
    for bucket in buckets {
        let refs: Vec<&Query> = bucket.iter().map(|q| q.as_ref()).collect();
        let template =
            MergedTemplate::build(&refs).map_err(|e| WorkloadError::Template(bucket[0].id, e))?;
        let mut skeleton = AggSkeleton::of(&bucket[0].agg);
        for m in &bucket[1..] {
            skeleton.absorb(&AggSkeleton::of(&m.agg));
        }
        groups.push(ShareGroup {
            window: bucket[0].window,
            partition_attrs: bucket[0].partition_attrs(),
            template: Arc::new(template),
            skeleton,
            queries: bucket,
        });
    }
    Ok(WorkloadPlan { groups })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_query::Pattern;

    const A: EventTypeId = EventTypeId(0);
    const B: EventTypeId = EventTypeId(1);
    const C: EventTypeId = EventTypeId(2);

    fn seq(first: EventTypeId, kleene: EventTypeId) -> Pattern {
        Pattern::seq(vec![
            Pattern::Type(first),
            Pattern::plus(Pattern::Type(kleene)),
        ])
    }

    fn q(id: u32, p: Pattern, w: Window) -> Arc<Query> {
        Arc::new(Query::count_star(id, p, w))
    }

    #[test]
    fn fig3b_workload_forms_one_group() {
        let w = Window::tumbling(100);
        let plan = analyze(&[q(1, seq(A, B), w), q(2, seq(C, B), w)]).unwrap();
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.groups[0].queries.len(), 2);
        assert_eq!(plan.num_shared_groups(), 1);
        let tpl = &plan.groups[0].template;
        assert!(tpl.sharable[tpl.local(B).unwrap()]);
    }

    #[test]
    fn different_windows_do_not_share() {
        let plan = analyze(&[
            q(1, seq(A, B), Window::tumbling(100)),
            q(2, seq(C, B), Window::tumbling(200)),
        ])
        .unwrap();
        assert_eq!(plan.groups.len(), 2);
        assert_eq!(plan.num_shared_groups(), 0);
    }

    #[test]
    fn disjoint_kleene_types_do_not_share() {
        let w = Window::tumbling(100);
        let plan = analyze(&[q(1, seq(A, B), w), q(2, seq(B, C), w)]).unwrap();
        assert_eq!(plan.groups.len(), 2);
    }

    #[test]
    fn different_grouping_does_not_share() {
        let w = Window::tumbling(100);
        let q1 = q(1, seq(A, B), w);
        let mut q2v = Query::count_star(2, seq(C, B), w);
        q2v.group_by = vec![Arc::from("district")];
        let plan = analyze(&[q1, Arc::new(q2v)]).unwrap();
        assert_eq!(plan.groups.len(), 2);
    }

    #[test]
    fn agg_skeletons() {
        assert_eq!(AggSkeleton::of(&AggFunc::CountStar), AggSkeleton::CountOnly);
        assert_eq!(
            AggSkeleton::of(&AggFunc::Avg(B, 3)),
            AggSkeleton::Linear {
                ty: B,
                attr: Some(3)
            }
        );
        assert!(!AggSkeleton::of(&AggFunc::Min(B, 0)).supports_sharing());
        assert!(AggSkeleton::of(&AggFunc::CountStar).supports_sharing());
    }

    #[test]
    fn count_type_absorbs_attr_from_sum() {
        let w = Window::tumbling(100);
        let mk = |id, agg| {
            Arc::new(
                Query::new(
                    hamlet_query::QueryId(id),
                    seq(A, B),
                    agg,
                    vec![],
                    vec![],
                    vec![],
                    vec![],
                    w,
                )
                .unwrap(),
            )
        };
        let plan = analyze(&[mk(1, AggFunc::CountType(B)), mk(2, AggFunc::Sum(B, 1))]).unwrap();
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(
            plan.groups[0].skeleton,
            AggSkeleton::Linear {
                ty: B,
                attr: Some(1)
            }
        );
    }

    #[test]
    fn sum_on_different_attrs_splits_groups() {
        let w = Window::tumbling(100);
        let mk = |id, agg| {
            Arc::new(
                Query::new(
                    hamlet_query::QueryId(id),
                    seq(A, B),
                    agg,
                    vec![],
                    vec![],
                    vec![],
                    vec![],
                    w,
                )
                .unwrap(),
            )
        };
        let plan = analyze(&[mk(1, AggFunc::Sum(B, 0)), mk(2, AggFunc::Sum(B, 1))]).unwrap();
        assert_eq!(plan.groups.len(), 2);
    }
}
