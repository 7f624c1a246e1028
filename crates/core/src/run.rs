//! The per-window evaluation engine: the HAMLET graph of one share group
//! over one stream partition and one window instance.
//!
//! Events arrive in *bursts* (maximal runs of one event type, Def. 10).
//! For each burst the caller (executor + optimizer) supplies the sharing
//! decision — which members process the burst in a shared graphlet versus
//! per-query solo graphlets (§4.2). The run maintains:
//!
//! * `cum[type][member]` — the resolved per-member sum of intermediate
//!   aggregates of all *closed* graphlets of each type. Snapshot values and
//!   external predecessor contributions are read off these (Def. 8:
//!   `value(x, q) = Σ sum(G_E', q)`).
//! * one *active* graphlet per type: either a shared graphlet whose events
//!   carry [`LinearExpr`] aggregates over snapshots, or per-member solo
//!   graphlets with numeric aggregates (§3.2), or both (when the optimizer
//!   shares only a subset of the queries, §4.3).
//! * the snapshot table `S` (Algorithm 1).
//!
//! Because `fcount(q) = Σ count(e, q)` over end-type events (Eq. 3), the
//! final aggregate per member is just the end-type totals of `cum` at
//! window close — no per-event result bookkeeping is needed.
//!
//! # What a burst is, and the `sp ≤ 3` invariant
//!
//! A burst reaches [`Run::replay`] in the representation its type was
//! buffered in ([`GroupRuntime::burst_repr`], a function of the compiled
//! group alone), and that representation is the replay's only switch: a
//! bare count where every event applies the same map (closed form), the
//! events themselves where — and only where — an edge predicate needs
//! pairwise scans (the per-event loop, with everything only it uses, in
//! the child module `run/edge.rs`), and otherwise a column of [`Cell`]s
//! — per event the set of members whose selections accept it and the one
//! number the skeleton reads — which `replay_cells` walks once, with
//! everything constant over the burst computed before the loop and no
//! allocation inside it. A share group is at most [`QSet::CAPACITY`]
//! members wide (`workload::analyze` splits there), so every member set
//! in this file — the sharing decision, a graphlet's owners, a cell's
//! mask, the compiled per-type tables — is one `Copy` word.
//!
//! In the shared graphlet the cell replay keeps the running sum
//! `sum_exprs` at **no more than three terms**. A *uniform* event (every
//! sharing member accepts it) updates the sum in place over the graphlet
//! snapshot `x` and the unit snapshot. A *diverging* event needs an
//! event-level snapshot `z` (Def. 9) for the members that accept it; the
//! per-event loop appends `1·z` to the sum, which therefore grows by a
//! term per diverging event and makes every later evaluation
//! O(snapshots so far). The replay **folds** instead: `z`'s row holds,
//! for every sharing member, the running sum's current value plus (if
//! the member accepts the event) the event's own propagated value, and
//! the sum is reset to `1·z`. That is Fig. 6(f)'s "one consolidated
//! snapshot" — there taken when solo graphlets merge — applied at every
//! diverging event: the graphlet's history so far is replaced by its
//! value per member, which snapshots exist to hold. Nothing is lost
//! (`eval` of the folded sum equals `eval` of the unfolded one, member
//! by member); a diverging event costs O(sharing members), a uniform
//! one O(1); `sp` in Eq. 8 is bounded by 3 (fold snapshot, `x`, unit);
//! and an event no sharing member accepts contributes the zero
//! expression and creates no snapshot at all.

mod edge;

use crate::agg::{ring_of_attr, MmVal, NodeVal};
use crate::bitset::QSet;
use crate::burst::{Burst, BurstRepr, Cell};
use crate::expr::{LinearExpr, SnapId};
use crate::snapshot::SnapTable;
use crate::template::{MergedTemplate, NegKind};
use crate::workload::{AggSkeleton, ShareGroup};
use edge::StoredEvent;
use hamlet_query::{CompiledSelection, EdgePredicate, Query};
use hamlet_types::{Event, TrendVal};
use std::collections::HashMap;
use std::sync::Arc;

/// Immutable per-group runtime info shared by all of the group's runs:
/// the merged template plus per-(type, member) predicate tables.
pub struct GroupRuntime {
    /// The merged template.
    pub template: Arc<MergedTemplate>,
    /// Member queries in dense member order.
    pub queries: Vec<Arc<Query>>,
    /// Aggregation skeleton.
    pub skeleton: AggSkeleton,
    /// `sel[type][member]` — selection predicates on that type, compiled
    /// to the Int/Float fast form so the per-event hot loop avoids enum
    /// dispatch ([`CompiledSelection`]).
    pub sel: Vec<Vec<Vec<CompiledSelection>>>,
    /// `edge[type][member]` — edge predicates whose head is that type.
    pub edge: Vec<Vec<Vec<EdgePredicate>>>,
    /// Per type: true iff any member has an edge predicate on it (forces
    /// event storage and pairwise scans).
    pub type_any_edge: Vec<bool>,
    /// Negation constraints indexed by the *negated* type:
    /// `(member, kind)` pairs in local type indices.
    pub negs: Vec<Vec<(usize, LocalNegKind)>>,
    /// `relevant[type]` = `involved ∪ neg_involved`: the members whose
    /// graphlets of *other* types a burst of the type deactivates.
    pub relevant: Vec<QSet>,
    /// `candidates[type]` — the members that may share a burst of the
    /// type (involved, Kleene self-loop, linear skeleton).
    pub candidates: Vec<QSet>,
    /// `sel_members[type]` — the members with a selection on the type.
    pub(crate) sel_members: Vec<QSet>,
    /// [`GroupRuntime::burst_repr`] per type.
    pub(crate) repr: Vec<BurstRepr>,
    /// Average predecessor types per type per query (`p` of Table 2).
    p: f64,
}

/// [`NegKind`] with local type indices.
#[derive(Clone, Debug)]
pub enum LocalNegKind {
    /// Blocks trend starts after the match.
    Leading,
    /// Severs `pred → succ` connections across the match.
    Gap {
        /// Local predecessor types.
        pred: Vec<usize>,
        /// Local successor types.
        succ: Vec<usize>,
    },
    /// Invalidates results accumulated before the match.
    Trailing,
}

impl GroupRuntime {
    /// Builds the runtime tables for a share group.
    pub fn new(group: &ShareGroup) -> Arc<GroupRuntime> {
        let tpl = group.template.clone();
        let nt = tpl.num_types();
        let k = tpl.k;
        let mut sel = vec![vec![Vec::new(); k]; nt];
        let mut edge = vec![vec![Vec::new(); k]; nt];
        let mut negs: Vec<Vec<(usize, LocalNegKind)>> = vec![Vec::new(); nt];
        for (qi, q) in group.queries.iter().enumerate() {
            for s in &q.selections {
                if let Some(tl) = tpl.local(s.ty) {
                    sel[tl][qi].push(CompiledSelection::new(s));
                }
            }
            for e in &q.edges {
                if let Some(tl) = tpl.local(e.ty) {
                    edge[tl][qi].push(e.clone());
                }
            }
            for n in &tpl.per_query[qi].negations {
                // hamlet-lint: allow(panic-hygiene) -- the group template interns every negated type at construction
                let nl = tpl.local(n.neg_ty).expect("negated type interned");
                let kind = match &n.kind {
                    NegKind::Leading { .. } => LocalNegKind::Leading,
                    NegKind::Gap { pred, succ } => LocalNegKind::Gap {
                        pred: pred.iter().filter_map(|t| tpl.local(*t)).collect(),
                        succ: succ.iter().filter_map(|t| tpl.local(*t)).collect(),
                    },
                    NegKind::Trailing => LocalNegKind::Trailing,
                };
                negs[nl].push((qi, kind));
            }
        }
        let type_any_edge = edge
            .iter()
            .map(|per_q| per_q.iter().any(|v| !v.is_empty()))
            .collect();
        let relevant = (0..nt)
            .map(|tl| tpl.involved[tl] | tpl.neg_involved[tl])
            .collect();
        let candidates = if group.skeleton.supports_sharing() {
            (0..nt)
                .map(|tl| tpl.involved[tl] & tpl.self_loop[tl])
                .collect()
        } else {
            vec![QSet::new(); nt]
        };
        let sel_members = sel
            .iter()
            .map(|per_q| (0..k).filter(|&q| !per_q[q].is_empty()).collect())
            .collect();
        let mut rt = GroupRuntime {
            p: tpl.avg_pred_types().max(1.0),
            template: tpl,
            queries: group.queries.clone(),
            skeleton: group.skeleton.clone(),
            sel,
            edge,
            type_any_edge,
            negs,
            relevant,
            candidates,
            sel_members,
            repr: Vec::new(),
        };
        rt.repr = (0..nt).map(|tl| rt.resolve_repr(tl)).collect();
        Arc::new(rt)
    }

    /// Number of members.
    #[inline]
    pub fn k(&self) -> usize {
        self.template.k
    }

    /// True iff every burst of this group is *uniform*: each event applies
    /// the same linear map regardless of its content, so a pending burst is
    /// fully described by its length and [`Run::replay`] advances it with
    /// the closed form of the internal `Run::advance_closed_form`
    /// helper. Requires the weight-free
    /// `CountOnly` skeleton, no edge predicates, no selection predicates,
    /// and no negation constraints anywhere in the template. The engine
    /// checks this once at build time and buffers such groups' bursts as a
    /// bare count instead of cloned events.
    pub fn uniform_bursts(&self) -> bool {
        matches!(self.skeleton, AggSkeleton::CountOnly)
            && !self.type_any_edge.iter().any(|&b| b)
            && self.sel.iter().all(|per_q| per_q.iter().all(Vec::is_empty))
            && self.negs.iter().all(Vec::is_empty)
    }

    /// True iff every event of a burst of type `tl` applies the same
    /// linear map to every involved member, so the burst advances in
    /// closed form whatever it is buffered as: a weight-free `CountOnly`
    /// skeleton, no edge predicates anywhere in the template, and no
    /// selection on `tl` among the involved members.
    fn closed_form(&self, tl: usize) -> bool {
        matches!(self.skeleton, AggSkeleton::CountOnly)
            && !self.type_any_edge.iter().any(|&b| b)
            && !self.sel_members[tl].intersects(&self.template.involved[tl])
    }

    /// Skeleton weight of an event: the ring embedding of the target
    /// attribute (0 when the event is not of the target type or no
    /// attribute is read).
    #[inline]
    pub(crate) fn weight(&self, e: &Event) -> (TrendVal, bool) {
        match &self.skeleton {
            AggSkeleton::CountOnly => (TrendVal::ZERO, false),
            AggSkeleton::Linear { ty, attr } => {
                if e.ty == *ty {
                    let w = attr
                        .and_then(|a| e.attr(a))
                        .map(|v| ring_of_attr(v.as_f64()))
                        .unwrap_or(TrendVal::ZERO);
                    (w, true)
                } else {
                    (TrendVal::ZERO, false)
                }
            }
            AggSkeleton::MinMax { .. } => (TrendVal::ZERO, false),
        }
    }

    /// True iff member `q`'s selection predicates accept `e` (type `tl`).
    #[inline]
    pub(crate) fn selects(&self, tl: usize, q: usize, e: &Event) -> bool {
        self.sel[tl][q].iter().all(|p| p.matches(e))
    }
}

/// A shared graphlet (Def. 7): one symbolic propagation for its member set.
struct SharedGraphlet {
    members: QSet,
    /// Graphlet-level snapshot (Def. 8).
    x: SnapId,
    /// Unit snapshot carrying per-member trend-start indicators (handles
    /// start-type divergence among members without leaving the shared
    /// path).
    unit: Option<SnapId>,
    /// Σ of member events' expressions (doubles as the self-loop
    /// predecessor prefix and the close-time resolution source).
    sum_exprs: LinearExpr,
    /// Events in this graphlet (`g`).
    size: u64,
}

/// A per-member (non-shared) graphlet (§3.2).
#[derive(Clone)]
struct SoloGraphlet {
    sum: NodeVal,
    mm: MmVal,
    alive: bool,
    size: u64,
}

impl SoloGraphlet {
    fn new(mm_identity: MmVal) -> SoloGraphlet {
        SoloGraphlet {
            sum: NodeVal::ZERO,
            mm: mm_identity,
            alive: false,
            size: 0,
        }
    }
}

/// Active graphlets of one type.
#[derive(Default)]
struct Active {
    shared: Option<SharedGraphlet>,
    solo: Vec<Option<SoloGraphlet>>,
}

/// Counters exposed for the evaluation section's figures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Graphlet-level snapshots created (Def. 8).
    pub graphlet_snapshots: u64,
    /// Event-level snapshots created (Def. 9).
    pub event_snapshots: u64,
    /// Graphlets opened (shared + solo).
    pub graphlets: u64,
    /// Solo → shared transitions (§4.2 "decision to merge").
    pub merges: u64,
    /// Shared → solo transitions (§4.2 "decision to split").
    pub splits: u64,
    /// Bursts processed with sharing.
    pub shared_bursts: u64,
    /// Bursts processed without sharing.
    pub solo_bursts: u64,
    /// Events processed.
    pub events: u64,
}

impl RunStats {
    /// Accumulates another run's counters.
    pub fn add(&mut self, o: &RunStats) {
        self.graphlet_snapshots += o.graphlet_snapshots;
        self.event_snapshots += o.event_snapshots;
        self.graphlets += o.graphlets;
        self.merges += o.merges;
        self.splits += o.splits;
        self.shared_bursts += o.shared_bursts;
        self.solo_bursts += o.solo_bursts;
        self.events += o.events;
    }

    /// Total snapshots (both levels).
    pub fn snapshots(&self) -> u64 {
        self.graphlet_snapshots + self.event_snapshots
    }

    /// Serializes the counters (checkpoint codec). Kept unrolled, one
    /// call per field, so the decode mirror below is positionally
    /// auditable (and checked by hamlet-lint's codec-symmetry rule).
    pub(crate) fn encode(&self, e: &mut crate::checkpoint::Enc) {
        e.u64(self.graphlet_snapshots);
        e.u64(self.event_snapshots);
        e.u64(self.graphlets);
        e.u64(self.merges);
        e.u64(self.splits);
        e.u64(self.shared_bursts);
        e.u64(self.solo_bursts);
        e.u64(self.events);
    }

    /// Mirror of [`encode`](Self::encode).
    pub(crate) fn decode(
        d: &mut crate::checkpoint::Dec<'_>,
    ) -> Result<RunStats, crate::checkpoint::CheckpointError> {
        Ok(RunStats {
            graphlet_snapshots: d.u64()?,
            event_snapshots: d.u64()?,
            graphlets: d.u64()?,
            merges: d.u64()?,
            splits: d.u64()?,
            shared_bursts: d.u64()?,
            solo_bursts: d.u64()?,
            events: d.u64()?,
        })
    }
}

/// Final per-member aggregate of a finished window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemberOutput {
    /// Ring-valued (count, sum, cnt) totals.
    pub raw: NodeVal,
    /// Lattice value for `MIN`/`MAX` members (identity otherwise).
    pub mm: f64,
}

/// Inputs the dynamic optimizer reads before deciding on a burst (§4.1).
#[derive(Clone, Debug, Default)]
pub struct BurstCtx {
    /// Events per window so far (`n`).
    pub n: u64,
    /// Events in the currently active graphlet of the type (`g`).
    pub g: u64,
    /// Snapshot terms currently propagated in the active shared graphlet
    /// (`sp`).
    pub sp: usize,
    /// Average predecessor types per type per query (`p`).
    pub p: f64,
    /// Whether the active graphlet of this type is currently shared.
    pub currently_shared: bool,
    /// Per candidate member: events of the burst whose predicate outcome
    /// diverges from the other candidates (drives `sc`, Def. 9).
    pub diverging: Vec<u64>,
    /// Per candidate member: whether edge predicates force event-level
    /// snapshots on every event.
    pub has_edge: Vec<bool>,
    /// Candidate member indices (involved, Kleene self-loop, linear agg).
    pub candidates: Vec<usize>,
}

/// The evaluation state of one (share group × partition × window instance).
pub struct Run {
    rt: Arc<GroupRuntime>,
    k: usize,
    n_events: u64,
    cum: Vec<Vec<NodeVal>>,
    mm_cum: Vec<Vec<MmVal>>,
    alive_cum: Vec<Vec<bool>>,
    start_blocked: Vec<bool>,
    gap_blocked: HashMap<(usize, usize, usize), NodeVal>,
    result_blocked: Vec<NodeVal>,
    snaps: SnapTable,
    active: Vec<Active>,
    stored: Vec<Vec<StoredEvent>>,
    stats: RunStats,
    mm_identity: MmVal,
    is_min: bool,
    /// Reused expression buffer of the per-event loop's uniform shared
    /// path — scratch only, never serialized.
    pred_scratch: LinearExpr,
}

impl Run {
    /// Creates an empty run.
    pub fn new(rt: Arc<GroupRuntime>) -> Run {
        let nt = rt.template.num_types();
        let k = rt.k();
        let (mm_identity, is_min) = match rt.skeleton {
            AggSkeleton::MinMax { is_min, .. } => (
                if is_min {
                    MmVal::MIN_IDENTITY
                } else {
                    MmVal::MAX_IDENTITY
                },
                is_min,
            ),
            _ => (MmVal::MIN_IDENTITY, true),
        };
        Run {
            k,
            n_events: 0,
            cum: vec![vec![NodeVal::ZERO; k]; nt],
            mm_cum: vec![vec![mm_identity; k]; nt],
            alive_cum: vec![vec![false; k]; nt],
            start_blocked: vec![false; k],
            gap_blocked: HashMap::new(),
            result_blocked: vec![NodeVal::ZERO; k],
            snaps: SnapTable::new(k),
            active: (0..nt)
                .map(|_| Active {
                    shared: None,
                    solo: vec![None; k],
                })
                .collect(),
            stored: (0..nt).map(|_| Vec::new()).collect(),
            stats: RunStats::default(),
            rt,
            mm_identity,
            is_min,
            pred_scratch: LinearExpr::zero(),
        }
    }

    /// Puts every field back to what [`Run::new`] gives it for the same
    /// runtime, keeping every buffer's capacity: a finished run handed
    /// back to its group's slab is the next window's empty run, and
    /// re-using it allocates nothing.
    pub(crate) fn recycle(&mut self) {
        self.n_events = 0;
        self.cum.iter_mut().for_each(|v| v.fill(NodeVal::ZERO));
        (self.mm_cum.iter_mut()).for_each(|v| v.fill(self.mm_identity));
        self.alive_cum.iter_mut().for_each(|v| v.fill(false));
        self.start_blocked.fill(false);
        self.gap_blocked.clear();
        self.result_blocked.fill(NodeVal::ZERO);
        self.snaps.clear();
        for a in &mut self.active {
            a.shared = None;
            a.solo.fill(None);
        }
        self.stored.iter_mut().for_each(Vec::clear);
        self.stats = RunStats::default();
    }

    /// Re-points the run at a freshly compiled runtime of the *same*
    /// shape (identical template type count and member count). Used by
    /// runtime query churn when a share group survives a workload change
    /// unchanged: the group is recompiled (so the engine's structures
    /// match a fresh build of the new workload exactly), and the live
    /// runs adopt the recompiled runtime. The runtime is deterministic
    /// from the group's members, so the swap cannot change behavior.
    pub(crate) fn retarget(&mut self, rt: Arc<GroupRuntime>) {
        debug_assert_eq!(self.rt.template.num_types(), rt.template.num_types());
        debug_assert_eq!(self.rt.k(), rt.k());
        self.rt = rt;
    }

    /// The group runtime the run evaluates.
    pub fn runtime(&self) -> &GroupRuntime {
        &self.rt
    }

    /// Events processed so far (`n`).
    pub fn n_events(&self) -> u64 {
        self.n_events
    }

    /// Run statistics.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Number of snapshots in the table.
    pub fn num_snapshots(&self) -> usize {
        self.snaps.len()
    }

    /// Collects the cheap structural optimizer inputs for a burst of local
    /// type `tl` — everything except the divergence counts (§4.1). O(k).
    pub fn burst_shape(&self, tl: usize) -> BurstCtx {
        let mut ctx = BurstCtx::default();
        self.burst_shape_into(tl, &mut ctx);
        ctx
    }

    /// [`burst_shape`](Self::burst_shape) into a reused context: once its
    /// vectors have grown to the group's width, a decision allocates
    /// nothing.
    pub fn burst_shape_into(&self, tl: usize, ctx: &mut BurstCtx) {
        let cands = self.rt.candidates[tl];
        ctx.candidates.clear();
        ctx.candidates.extend(cands.iter());
        ctx.has_edge.clear();
        ctx.has_edge
            .extend(cands.iter().map(|q| !self.rt.edge[tl][q].is_empty()));
        ctx.diverging.clear();
        ctx.diverging.resize(cands.len(), 0);
        (ctx.g, ctx.sp, ctx.currently_shared) = match &self.active[tl].shared {
            Some(sh) => (sh.size, sh.sum_exprs.num_terms(), true),
            None => {
                let solos = self.active[tl].solo.iter().flatten();
                (solos.map(|s| s.size).max().unwrap_or(0), 0, false)
            }
        };
        ctx.n = self.n_events;
        ctx.p = self.rt.p;
    }

    /// Processes one complete burst of local type `tl`.
    ///
    /// `shared_members` is the optimizer's choice of queries that share the
    /// burst (the Kleene candidates among them do); everyone else in
    /// `involved[tl]` processes the burst solo. Passing an empty set yields
    /// pure GRETA-style non-shared execution. The burst itself is the only
    /// switch: a count advances in closed form, a cell column in closed
    /// form or through `replay_cells`, events — what a type with an edge
    /// predicate buffers, and what the test oracle hands in — through the
    /// per-event loop of `run/edge.rs`.
    pub fn replay(&mut self, tl: usize, burst: Burst<'_>, shared_members: QSet) {
        let b = burst.len();
        if b == 0 {
            return;
        }
        // One runtime handle per burst; everything below borrows from it.
        let rt = self.rt.clone();
        let tpl = &rt.template;

        // Deactivate other types' graphlets for affected members
        // (Algorithm 1 lines 4–6). Conservative: type relevance, not
        // per-event match, triggers deactivation — early closure is always
        // correct, it only forgoes some sharing.
        let relevant = rt.relevant[tl];
        for ty in (0..tpl.num_types()).filter(|&ty| ty != tl) {
            let shared = self.active[ty].shared.as_ref();
            if shared.is_some_and(|sh| sh.members.intersects(&relevant)) {
                self.close_shared(ty);
            }
            for q in relevant.iter() {
                self.close_solo(ty, q);
            }
        }

        // Negation constraints fire before positive processing (§5): the
        // negated match blocks connections across it.
        if !tpl.neg_involved[tl].is_empty() {
            self.apply_negations(&rt, tl, &burst);
        }

        if tpl.involved[tl].is_empty() {
            return;
        }

        // Effective sharing set: candidates with a Kleene self-loop and a
        // linear skeleton; sharing needs ≥ 2 members (Def. 4).
        let mut share = shared_members & rt.candidates[tl];
        if share.len() < 2 {
            share = QSet::new();
        }

        self.transition_graphlets(&rt, tl, share);
        if share.is_empty() {
            self.stats.solo_bursts += 1;
        } else {
            self.stats.shared_bursts += 1;
        }

        match burst {
            Burst::Cells(cells) if !rt.closed_form(tl) => self.replay_cells(&rt, tl, cells, share),
            Burst::Events(events) => {
                for e in events {
                    self.process_event(&rt, tl, e, share);
                }
            }
            // Cells of a closed-form type, or a count: those exist only
            // for uniform groups, where the closed form's preconditions
            // hold by construction.
            Burst::Cells(_) | Burst::Count(_) => self.advance_closed_form(&rt, tl, b, share),
        }
        self.n_events += b;
        self.stats.events += b;
    }

    /// [`replay`](Self::replay) of `events`, encoded first the way the
    /// executor buffers a burst of their type.
    pub fn process_burst(&mut self, tl: usize, events: &[Event], shared_members: &QSet) {
        debug_assert!(events
            .iter()
            .all(|e| { self.rt.template.local(e.ty) == Some(tl) }));
        let rt = self.rt.clone();
        let mut cells = Vec::new();
        self.replay(tl, rt.burst_of(tl, events, &mut cells), *shared_members)
    }

    /// Replays a column of cells of local type `tl` (no edge predicates)
    /// — the one replay loop of such types. The shared graphlet runs
    /// first, event by event; the solo members follow one at a time
    /// (they are independent of each other and of the shared path), each
    /// with everything constant over the burst computed once: the
    /// external predecessor sum, the start flag, the lattice predecessors.
    /// Nothing in here allocates.
    fn replay_cells(&mut self, rt: &GroupRuntime, tl: usize, cells: &[Cell], share: QSet) {
        let tpl = &rt.template;
        let minmax = matches!(rt.skeleton, AggSkeleton::MinMax { .. });
        let is_target =
            matches!(&rt.skeleton, AggSkeleton::Linear { ty, .. } if tpl.types[tl] == *ty);
        // `Cell::val` is the ring weight unless the skeleton is a lattice.
        let weight = |c: &Cell| TrendVal(if minmax { 0 } else { c.val });
        let starts = self.starts(tpl, tl);

        if !share.is_empty() {
            // hamlet-lint: allow(panic-hygiene) -- a non-empty share set implies the shared graphlet was created when the burst opened
            let sh = self.active[tl].shared.as_mut().expect("shared graphlet");
            let (x, unit) = (sh.x, sh.unit);
            for c in cells {
                let (w, m) = (weight(c), c.mask & share);
                if m == share {
                    // Eq. 2 symbolically: preds = x (+ unit) + the
                    // in-graphlet prefix, then the propagation map.
                    sh.sum_exprs.absorb_event(x, unit, w, is_target);
                } else if !m.is_empty() {
                    // Diverging event: fold. One event-level snapshot
                    // (Def. 9) takes, per sharing member, the running
                    // sum's value plus — if the member accepts the event
                    // — the event's own propagated value, and becomes the
                    // whole running sum.
                    let z = self.snaps.create_row();
                    for q in share.iter() {
                        let mut v = self.snaps.eval(&sh.sum_exprs, q);
                        if m.contains(q) {
                            let pred = self.snaps.value(x, q).plus(v);
                            v.add(NodeVal::propagate(pred, starts.contains(q), w, is_target));
                        }
                        self.snaps.set(z, q, v);
                    }
                    sh.sum_exprs.reset_to_snapshot(z);
                    self.stats.event_snapshots += 1;
                }
                // An event no sharing member accepts contributes zero.
            }
            sh.size += cells.len() as u64;
        }

        for q in (tpl.involved[tl] & !share).iter() {
            if self.active[tl].solo[q].is_none() {
                self.active[tl].solo[q] = Some(SoloGraphlet::new(self.mm_identity));
                self.stats.graphlets += 1;
            }
            let ext = self.external_pred(tl, q);
            let start = starts.contains(q);
            let self_loop = tpl.self_loop[tl].contains(q);
            // Lattice predecessors in closed graphlets (the active one of
            // this type is folded in per event).
            let (mut mm_ext, mut alive_ext) = (self.mm_identity, start);
            for &p in &tpl.pt[tl][q] {
                mm_ext.fold(self.mm_cum[p][q].0, self.is_min);
                alive_ext |= self.alive_cum[p][q];
            }
            let is_min = self.is_min;
            // hamlet-lint: allow(panic-hygiene) -- opened just above if it was not already active
            let solo = self.active[tl].solo[q].as_mut().expect("solo graphlet");
            for c in cells.iter().filter(|c| c.mask.contains(q)) {
                let mut pred = ext;
                if self_loop {
                    pred.add(solo.sum);
                }
                solo.sum
                    .add(NodeVal::propagate(pred, start, weight(c), is_target));
                solo.size += 1;
                if minmax {
                    let (mut mm, mut alive) = (mm_ext, alive_ext);
                    if self_loop {
                        mm.fold(solo.mm.0, is_min);
                        alive |= solo.alive;
                    }
                    if alive {
                        mm.fold(f64::from_bits(c.val), is_min);
                        solo.mm.fold(mm.0, is_min);
                        solo.alive = true;
                    }
                }
            }
        }
    }

    /// The members for which an event of local type `tl` starts a trend
    /// now: the type's start set less the members a leading negation has
    /// blocked.
    fn starts(&self, tpl: &MergedTemplate, tl: usize) -> QSet {
        (tpl.start[tl].iter())
            .filter(|&q| !self.start_blocked[q])
            .collect()
    }

    /// Closed-form burst advance for predicate-free COUNT(*) bursts
    /// ([`GroupRuntime::closed_form`]).
    ///
    /// When the skeleton carries no weight (`CountOnly` makes
    /// [`GroupRuntime::weight`] return `(0, false)` for every event), the
    /// template has no edge predicates anywhere (so nothing is
    /// event-stored or pairwise-scanned), and every involved member's
    /// selection on `tl` is empty, each event of the burst applies the
    /// same linear map:
    ///
    /// - shared graphlet: `S ← 2·S + P` with `P = x (+ unit)`, so after
    ///   `b` events `S = 2ᵇ·S₀ + (2ᵇ−1)·P`;
    /// - self-loop solo member: `sum ← 2·sum + step` with
    ///   `step = external_pred (+1 on count if a start type)`, same form;
    /// - non-self-loop solo member: `sum ← sum + b·step`.
    ///
    /// All arithmetic is in the wrapping `u64` ring, where the `2ᵇ`
    /// scalars are exact (`b ≥ 64 ⇒ 2ᵇ ≡ 0`), so the result is
    /// bit-identical to the per-event loop — asserted against
    /// `Run::process_burst_slow` (`reference.rs`) in tests.
    fn advance_closed_form(&mut self, rt: &GroupRuntime, tl: usize, b: u64, share: QSet) {
        let tpl = &rt.template;
        let starts = self.starts(tpl, tl);
        // 2ᵇ and 2ᵇ−1 in the wrapping ring.
        let m = TrendVal(if b >= 64 { 0 } else { 1u64 << b });
        let g = m - TrendVal::ONE;
        if !share.is_empty() {
            // hamlet-lint: allow(panic-hygiene) -- a non-empty share set implies the shared graphlet was created when the burst opened
            let sh = self.active[tl].shared.as_mut().expect("shared graphlet");
            let (x, unit) = (sh.x, sh.unit);
            sh.sum_exprs.scale(m);
            sh.sum_exprs.add_snapshot_scaled(x, g);
            if let Some(u) = unit {
                sh.sum_exprs.add_snapshot_scaled(u, g);
            }
            sh.size += b;
        }
        for q in (tpl.involved[tl] & !share).iter() {
            if self.active[tl].solo[q].is_none() {
                self.active[tl].solo[q] = Some(SoloGraphlet::new(self.mm_identity));
                self.stats.graphlets += 1;
            }
            let mut step = self.external_pred(tl, q);
            if starts.contains(q) {
                step.count += TrendVal::ONE;
            }
            // hamlet-lint: allow(panic-hygiene) -- a solo query reaching here implies its solo graphlet was created when the burst opened
            let solo = self.active[tl].solo[q].as_mut().expect("solo graphlet");
            if tpl.self_loop[tl].contains(q) {
                solo.sum.scale(m);
                solo.sum.add_scaled(step, g);
            } else {
                solo.sum.add_scaled(step, TrendVal(b));
            }
            solo.size += b;
        }
    }

    /// Applies Leading/Gap/Trailing negation effects of a burst of negated
    /// type `tl` (§5).
    fn apply_negations(&mut self, rt: &GroupRuntime, tl: usize, burst: &Burst<'_>) {
        // The negated sub-pattern may carry selection predicates.
        let hit = |q: usize| match burst {
            Burst::Count(_) => true,
            Burst::Cells(cells) => cells.iter().any(|c| c.mask.contains(q)),
            Burst::Events(events) => events.iter().any(|e| rt.selects(tl, q, e)),
        };
        for (q, kind) in &rt.negs[tl] {
            if !hit(*q) {
                continue;
            }
            match kind {
                LocalNegKind::Leading => self.start_blocked[*q] = true,
                LocalNegKind::Gap { pred, succ } => {
                    for &p in pred {
                        for &s in succ {
                            let v = self.cum[p][*q];
                            self.gap_blocked.insert((*q, p, s), v);
                        }
                    }
                }
                LocalNegKind::Trailing => {
                    self.result_blocked[*q] = self.result_total(*q);
                }
            }
        }
    }

    /// Current Σ of end-type totals for member `q` (Eq. 3 over `cum`).
    fn result_total(&self, q: usize) -> NodeVal {
        let tpl = &self.rt.template;
        let mut out = NodeVal::ZERO;
        for ty in 0..tpl.num_types() {
            if tpl.end[ty].contains(q) {
                out.add(self.cum[ty][q]);
                // Include active graphlets (they haven't been folded yet).
                if let Some(sh) = &self.active[ty].shared {
                    if sh.members.contains(q) {
                        out.add(self.snaps.eval(&sh.sum_exprs, q));
                    }
                }
                if let Some(solo) = &self.active[ty].solo[q] {
                    out.add(solo.sum);
                }
            }
        }
        out
    }

    /// Opens/closes graphlets of type `tl` so the active configuration
    /// matches the sharing decision (§4.2 split & merge).
    fn transition_graphlets(&mut self, rt: &GroupRuntime, tl: usize, share: QSet) {
        let keep_shared = self.active[tl]
            .shared
            .as_ref()
            .is_some_and(|sh| sh.members == share);
        if !keep_shared && self.active[tl].shared.is_some() {
            // Split (or re-form with a different member set).
            self.close_shared(tl);
            self.stats.splits += 1;
        }
        if !share.is_empty() && self.active[tl].shared.is_none() {
            // Merge: members' solo graphlets collapse into cum, and one
            // consolidated graphlet-level snapshot is created (Fig. 6(f)).
            let mut was_solo = false;
            for q in share.iter() {
                if self.active[tl].solo[q].is_some() {
                    self.close_solo(tl, q);
                    was_solo = true;
                }
            }
            if was_solo {
                self.stats.merges += 1;
            }
            self.open_shared(rt, tl, share);
        }
        // Solo members keep (or lazily open) their graphlets in the
        // replay; members newly covered by the shared graphlet must not
        // also run solo.
        for q in share.iter() {
            self.close_solo(tl, q);
        }
    }

    /// Creates a shared graphlet with its graphlet-level snapshot
    /// (Algorithm 1 lines 7–13).
    fn open_shared(&mut self, rt: &GroupRuntime, tl: usize, members: QSet) {
        let tpl = &rt.template;
        let x = self.snaps.create_row();
        for q in members.iter() {
            let scan_self = !rt.edge[tl][q].is_empty();
            let mut v = NodeVal::ZERO;
            for &p in &tpl.pt[tl][q] {
                if p == tl && scan_self {
                    // Self contributions come from pairwise scans instead.
                    continue;
                }
                let blocked = self
                    .gap_blocked
                    .get(&(q, p, tl))
                    .copied()
                    .unwrap_or(NodeVal::ZERO);
                v.add(self.cum[p][q].minus(blocked));
            }
            self.snaps.set(x, q, v);
        }
        self.stats.graphlet_snapshots += 1;
        self.stats.graphlets += 1;
        // Unit snapshot: per-member trend-start indicator (1 iff the type
        // starts trends for the member and no leading negation blocks it).
        let starts = self.starts(tpl, tl) & members;
        let unit = (!starts.is_empty()).then(|| {
            let u = self.snaps.create_row();
            for q in starts.iter() {
                let one = NodeVal {
                    count: TrendVal::ONE,
                    ..NodeVal::ZERO
                };
                self.snaps.set(u, q, one);
            }
            u
        });
        self.active[tl].shared = Some(SharedGraphlet {
            members,
            x,
            unit,
            sum_exprs: LinearExpr::zero(),
            size: 0,
        });
    }

    /// Resolves a shared graphlet's totals per member into `cum` and drops
    /// its symbolic state ("the snapshot is replaced by its value",
    /// Fig. 6(d)).
    fn close_shared(&mut self, tl: usize) {
        if let Some(sh) = self.active[tl].shared.take() {
            for q in sh.members.iter() {
                let v = self.snaps.eval(&sh.sum_exprs, q);
                self.cum[tl][q].add(v);
                // Shared graphlets exist only for linear skeletons; the
                // lattice dimensions stay untouched.
            }
        }
    }

    /// Folds a solo graphlet into `cum` / lattice accumulators.
    fn close_solo(&mut self, tl: usize, q: usize) {
        if let Some(solo) = self.active[tl].solo[q].take() {
            self.cum[tl][q].add(solo.sum);
            self.mm_cum[tl][q].fold(solo.mm.0, self.is_min);
            self.alive_cum[tl][q] |= solo.alive;
        }
    }

    /// External (non-self or fully resolved) predecessor contribution for
    /// member `q` at type `tl`, honoring gap negations (§5).
    fn external_pred(&self, tl: usize, q: usize) -> NodeVal {
        let tpl = &self.rt.template;
        let scan_self = !self.rt.edge[tl][q].is_empty();
        let mut v = NodeVal::ZERO;
        for &p in &tpl.pt[tl][q] {
            if p == tl {
                if scan_self {
                    continue; // covered by the pairwise scan
                }
                // Closed same-type graphlets; the active one is added by
                // the caller (prefix / sum_exprs).
                v.add(self.cum[p][q]);
                continue;
            }
            let blocked = self
                .gap_blocked
                .get(&(q, p, tl))
                .copied()
                .unwrap_or(NodeVal::ZERO);
            v.add(self.cum[p][q].minus(blocked));
        }
        v
    }

    /// Closes all graphlets and returns the per-member window outputs
    /// (Eq. 3 over end-type totals, minus trailing-negation blocks).
    pub fn finalize(&mut self) -> Vec<MemberOutput> {
        let mut out = Vec::with_capacity(self.k);
        self.finalize_into(&mut out);
        out
    }

    /// [`finalize`](Self::finalize) into a reused buffer (cleared first):
    /// the engine finalizes every expiring run through one.
    pub fn finalize_into(&mut self, out: &mut Vec<MemberOutput>) {
        for ty in 0..self.active.len() {
            self.close_shared(ty);
            for q in 0..self.k {
                self.close_solo(ty, q);
            }
        }
        let tpl = &self.rt.template;
        out.clear();
        out.extend((0..self.k).map(|q| {
            let mut raw = NodeVal::ZERO;
            let mut mm = self.mm_identity;
            for ty in 0..tpl.num_types() {
                if tpl.end[ty].contains(q) {
                    raw.add(self.cum[ty][q]);
                    mm.fold(self.mm_cum[ty][q].0, self.is_min);
                }
            }
            MemberOutput {
                raw: raw.minus(self.result_blocked[q]),
                mm: mm.0,
            }
        }));
    }

    /// Serializes the run's complete evaluation state (checkpoint codec):
    /// per-type/member cumulative totals, negation blocks, the snapshot
    /// table, active shared/solo graphlets (symbolic expressions
    /// included), stored events for edge-predicate scans, and counters.
    /// The immutable [`GroupRuntime`] is *not* serialized — the decoder
    /// receives it from the freshly compiled engine and only the mutable
    /// state travels.
    pub(crate) fn encode(&self, e: &mut crate::checkpoint::Enc) {
        let nt = self.rt.template.num_types();
        e.usize(self.k);
        e.usize(nt);
        e.u64(self.n_events);
        for per_ty in &self.cum {
            for v in per_ty {
                v.encode(e);
            }
        }
        for per_ty in &self.mm_cum {
            for v in per_ty {
                e.f64(v.0);
            }
        }
        for per_ty in &self.alive_cum {
            for &v in per_ty {
                e.bool(v);
            }
        }
        for &b in &self.start_blocked {
            e.bool(b);
        }
        // HashMap: impose the canonical key order so the encoding is
        // deterministic (checkpoint → restore → checkpoint is
        // byte-identical).
        let mut gaps: Vec<(&(usize, usize, usize), &NodeVal)> = self.gap_blocked.iter().collect();
        gaps.sort_by_key(|(k, _)| **k);
        e.usize(gaps.len());
        for ((q, p, s), v) in gaps {
            e.usize(*q);
            e.usize(*p);
            e.usize(*s);
            v.encode(e);
        }
        for v in &self.result_blocked {
            v.encode(e);
        }
        self.snaps.encode(e);
        for a in &self.active {
            match &a.shared {
                None => e.some(false),
                Some(sh) => {
                    e.some(true);
                    sh.members.encode(e);
                    e.u32(sh.x);
                    match sh.unit {
                        None => e.some(false),
                        Some(u) => {
                            e.some(true);
                            e.u32(u);
                        }
                    }
                    sh.sum_exprs.encode(e);
                    e.u64(sh.size);
                }
            }
            for solo in &a.solo {
                match solo {
                    None => e.some(false),
                    Some(s) => {
                        e.some(true);
                        s.sum.encode(e);
                        e.f64(s.mm.0);
                        e.bool(s.alive);
                        e.u64(s.size);
                    }
                }
            }
        }
        for per_ty in &self.stored {
            e.usize(per_ty.len());
            for se in per_ty {
                se.encode(e);
            }
        }
        self.stats.encode(e);
    }

    /// Mirror of [`encode`](Self::encode): rebuilds a run over the given
    /// (freshly compiled) runtime.
    pub(crate) fn decode(
        d: &mut crate::checkpoint::Dec<'_>,
        rt: Arc<GroupRuntime>,
    ) -> Result<Run, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::CheckpointError;
        let mut run = Run::new(rt);
        let nt = run.rt.template.num_types();
        let (k_enc, nt_enc) = (d.usize()?, d.usize()?);
        if k_enc != run.k || nt_enc != nt {
            return Err(CheckpointError::WorkloadMismatch(format!(
                "run shape ({k_enc} members × {nt_enc} types) vs compiled ({} × {nt})",
                run.k
            )));
        }
        run.n_events = d.u64()?;
        for per_ty in &mut run.cum {
            for v in per_ty.iter_mut() {
                *v = NodeVal::decode(d)?;
            }
        }
        for per_ty in &mut run.mm_cum {
            for v in per_ty.iter_mut() {
                *v = MmVal(d.f64()?);
            }
        }
        for per_ty in &mut run.alive_cum {
            for v in per_ty.iter_mut() {
                *v = d.bool()?;
            }
        }
        for b in &mut run.start_blocked {
            *b = d.bool()?;
        }
        let n_gaps = d.seq_len()?;
        for _ in 0..n_gaps {
            let key = (d.usize()?, d.usize()?, d.usize()?);
            run.gap_blocked.insert(key, NodeVal::decode(d)?);
        }
        for v in &mut run.result_blocked {
            *v = NodeVal::decode(d)?;
        }
        run.snaps = SnapTable::decode(d, run.k)?;
        for a in &mut run.active {
            a.shared = if d.some()? {
                let members = QSet::decode(d)?;
                let num_snaps = run.snaps.len();
                let snap_id = |id: SnapId| {
                    if (id as usize) < num_snaps {
                        Ok(id)
                    } else {
                        Err(crate::checkpoint::CheckpointError::Corrupt(format!(
                            "graphlet references snapshot {id} of {num_snaps}"
                        )))
                    }
                };
                let x = snap_id(d.u32()?)?;
                let unit = if d.some()? {
                    Some(snap_id(d.u32()?)?)
                } else {
                    None
                };
                let sum_exprs = LinearExpr::decode(d, num_snaps)?;
                let size = d.u64()?;
                Some(SharedGraphlet {
                    members,
                    x,
                    unit,
                    sum_exprs,
                    size,
                })
            } else {
                None
            };
            for solo in a.solo.iter_mut() {
                *solo = if d.some()? {
                    Some(SoloGraphlet {
                        sum: NodeVal::decode(d)?,
                        mm: MmVal(d.f64()?),
                        alive: d.bool()?,
                        size: d.u64()?,
                    })
                } else {
                    None
                };
            }
        }
        for per_ty in &mut run.stored {
            let n = d.seq_len()?;
            for _ in 0..n {
                per_ty.push(StoredEvent::decode(d, run.snaps.len())?);
            }
        }
        run.stats = RunStats::decode(d)?;
        Ok(run)
    }

    /// Approximate state footprint in bytes (§6.1 memory metric: stored
    /// events, snapshot expressions, snapshot values, per-member totals).
    pub fn mem_bytes(&self) -> usize {
        let mut b = std::mem::size_of::<Run>();
        b += self.cum.len() * self.k * std::mem::size_of::<NodeVal>() * 3; // cum + mm + alive (approx)
        b += self.snaps.mem_bytes();
        for a in &self.active {
            if let Some(sh) = &a.shared {
                b += sh.sum_exprs.mem_bytes();
            }
            b += a.solo.iter().flatten().count() * std::mem::size_of::<SoloGraphlet>();
        }
        b + (self.stored.iter().flatten())
            .map(StoredEvent::mem_bytes)
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_query::{Pattern, Window};
    use hamlet_types::{EventTypeId, Ts};

    const A: EventTypeId = EventTypeId(0);
    const B: EventTypeId = EventTypeId(1);
    const C: EventTypeId = EventTypeId(2);

    fn ev(ty: EventTypeId, t: u64) -> Event {
        Event::new(Ts(t), ty, vec![])
    }

    fn seq(first: EventTypeId, kleene: EventTypeId) -> Pattern {
        Pattern::seq(vec![
            Pattern::Type(first),
            Pattern::plus(Pattern::Type(kleene)),
        ])
    }

    fn rt_two_queries() -> Arc<GroupRuntime> {
        let q1 = Arc::new(Query::count_star(1, seq(A, B), Window::tumbling(1000)));
        let q2 = Arc::new(Query::count_star(2, seq(C, B), Window::tumbling(1000)));
        let plan = crate::workload::analyze(&[q1, q2]).unwrap();
        assert_eq!(plan.groups.len(), 1);
        GroupRuntime::new(&plan.groups[0])
    }

    /// Drives the paper's running example (Fig. 4(b): a1 a2 c1 | b1..b3)
    /// and checks count(b3) per query (Example 4: 2 for q1, 1 for q2).
    #[test]
    fn example4_counts_shared() {
        let rt = rt_two_queries();
        let tl = |t| rt.template.local(t).unwrap();
        let mut run = Run::new(rt.clone());
        let all = QSet::all(2);
        run.process_burst(tl(A), &[ev(A, 1), ev(A, 2)], &all);
        run.process_burst(tl(C), &[ev(C, 3)], &all);
        run.process_burst(tl(B), &[ev(B, 4)], &all);
        let out = run.finalize();
        // One B event: count(b,q1) = a1+a2 = 2; count(b,q2) = c1 = 1.
        assert_eq!(out[0].raw.count, TrendVal(2));
        assert_eq!(out[1].raw.count, TrendVal(1));
    }

    /// The closed-form COUNT(*) burst advance must leave the run in a
    /// bit-identical state to the per-event loop — checked on the full
    /// serialized state, across share/solo bursts and a ≥ 64-event burst
    /// that exercises the `2ᵇ ≡ 0` wrapping edge of the ring scalars.
    #[test]
    fn burst_fast_path_matches_event_loop() {
        let rt = rt_two_queries();
        let tl = |t| rt.template.local(t).unwrap();
        let bs = |ty: EventTypeId, t0: u64, n: u64| -> Vec<Event> {
            (0..n).map(|i| ev(ty, t0 + i)).collect()
        };
        let stream: Vec<(usize, Vec<Event>, QSet)> = vec![
            (tl(A), bs(A, 1, 2), QSet::all(2)),
            (tl(C), bs(C, 3, 1), QSet::all(2)),
            (tl(B), bs(B, 4, 1), QSet::all(2)),
            (tl(B), bs(B, 5, 70), QSet::all(2)),
            (tl(A), bs(A, 80, 3), QSet::new()),
            (tl(B), bs(B, 90, 5), QSet::new()),
            (tl(B), bs(B, 100, 64), QSet::all(2)),
        ];
        let mut fast = Run::new(rt.clone());
        let mut slow = Run::new(rt.clone());
        for (ty, burst, share) in &stream {
            fast.process_burst(*ty, burst, share);
            slow.process_burst_slow(*ty, burst, share);
        }
        assert_eq!(fast.n_events(), slow.n_events());
        assert_eq!(fast.stats().events, slow.stats().events);
        assert_eq!(fast.stats().graphlets, slow.stats().graphlets);
        let bytes = |r: &Run| {
            let mut e = crate::checkpoint::Enc::new();
            r.encode(&mut e);
            e.finish()
        };
        assert_eq!(bytes(&fast), bytes(&slow));
        assert_eq!(fast.finalize(), slow.finalize());
    }

    const D: EventTypeId = EventTypeId(3);
    const N: EventTypeId = EventTypeId(4);

    /// One random share group around `B+`: skeleton `skel` (0 `CountOnly`,
    /// 1 `Linear`, 2 `MinMax`), 2–5 members with their own head / tail
    /// types (so `B` starts trends for some members only), Leading / Gap /
    /// Trailing negations of `N`, and per-member selections on `B` and
    /// `N` including none and all-reject.
    fn random_group(next: &mut impl FnMut() -> u64, skel: u64) -> Arc<GroupRuntime> {
        use hamlet_query::{AggFunc, CmpOp, QueryId, SelectionPredicate};
        let ty = |t| Pattern::Type(t);
        let not_n = || Pattern::Not(Box::new(Pattern::Type(N)));
        let bs = || Pattern::plus(Pattern::Type(B));
        let is_max = next().is_multiple_of(2);
        let members: Vec<Arc<Query>> = (0..2 + next() % 4)
            .map(|i| {
                // Lattice values cannot be un-blocked: no negation there.
                let pattern = match next() % if skel == 2 { 4 } else { 7 } {
                    0 => bs(),
                    1 => Pattern::seq(vec![ty(A), bs()]),
                    2 => Pattern::seq(vec![ty(C), bs()]),
                    3 => Pattern::seq(vec![ty(A), bs(), ty(D)]),
                    4 => Pattern::seq(vec![not_n(), ty(A), bs()]),
                    5 => Pattern::seq(vec![ty(A), not_n(), bs()]),
                    _ => Pattern::seq(vec![ty(C), bs(), not_n()]),
                };
                let agg = match (skel, next() % 3) {
                    (0, _) => AggFunc::CountStar,
                    (1, 0) => AggFunc::Sum(B, 0),
                    (1, 1) => AggFunc::Avg(B, 0),
                    (1, _) => AggFunc::CountType(B),
                    _ if is_max => AggFunc::Max(B, 0),
                    _ => AggFunc::Min(B, 0),
                };
                let mut selections = Vec::new();
                for ty in [B, N] {
                    let (op, cut) = match next() % 4 {
                        0 => continue,
                        1 => (CmpOp::Lt, (next() % 10) as f64),
                        2 => (CmpOp::Ge, (next() % 10) as f64),
                        _ => (CmpOp::Lt, -1.0), // rejects every event
                    };
                    selections.push(SelectionPredicate {
                        ty,
                        attr: 0,
                        op,
                        value: hamlet_types::AttrValue::Float(cut),
                    });
                }
                let w = Window::tumbling(1000);
                let q = Query::new(
                    QueryId(i as u32),
                    pattern,
                    agg,
                    selections,
                    vec![],
                    vec![],
                    vec![],
                    w,
                );
                Arc::new(q.unwrap())
            })
            .collect();
        let plan = crate::workload::analyze(&members).unwrap();
        assert_eq!(
            plan.groups.len(),
            1,
            "every member has B+ and a compatible aggregate"
        );
        GroupRuntime::new(&plan.groups[0])
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The cell replay (masks, hoisted burst invariants, folding) and
        /// the per-event loop over the raw events with its unfolded
        /// expressions agree on every output, for random groups × random
        /// bursts × a random sharing set per burst — and the replay keeps
        /// its promises: a running sum never carries more than three
        /// terms, and an event creates a snapshot exactly when some but
        /// not all sharing members accept it (an all-reject event
        /// creates none).
        #[test]
        fn cell_replay_matches_event_loop(seed in 0u64..u64::MAX, skel in 0u64..3) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            let mut s = seed | 1;
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s >> 11
            };
            let rt = random_group(&mut next, skel);
            let (k, nt) = (rt.k(), rt.template.num_types());
            let mut fast = Run::new(rt.clone());
            let mut slow = Run::new(rt.clone());
            for burst_no in 0..14u64 {
                // Mostly the Kleene type, so graphlets grow across bursts.
                let tl = if next().is_multiple_of(3) { (next() % nt as u64) as usize } else { rt.template.local(B).unwrap() };
                prop_assert_eq!(rt.burst_repr(tl), BurstRepr::Cells);
                let events: Vec<Event> = (0..1 + next() % 8)
                    .map(|i| {
                        let v = hamlet_types::AttrValue::Float((next() % 10) as f64);
                        Event::new(Ts(burst_no * 10 + i), rt.template.types[tl], vec![v])
                    })
                    .collect();
                let shared: QSet = (0..k).filter(|_| !next().is_multiple_of(3)).collect();

                // What the replay may fold: events some but not all of the
                // effective sharing set accept.
                let share = shared & rt.candidates[tl];
                let share = if share.len() < 2 { QSet::new() } else { share };
                let partial = events
                    .iter()
                    .map(|e| rt.cell(tl, e).mask & share)
                    .filter(|&m| !m.is_empty() && m != share)
                    .count() as u64;

                let before = fast.stats().event_snapshots;
                fast.process_burst(tl, &events, &shared);
                slow.process_burst_slow(tl, &events, &shared);
                prop_assert_eq!(fast.stats().event_snapshots - before, partial);
                prop_assert!(fast.burst_shape(tl).sp <= 3);
                prop_assert_eq!(fast.burst_shape(tl).g, slow.burst_shape(tl).g);
            }
            prop_assert_eq!(fast.n_events(), slow.n_events());
            let (f, s) = (*fast.stats(), *slow.stats());
            prop_assert!(f.event_snapshots <= s.event_snapshots);
            prop_assert_eq!(
                RunStats { event_snapshots: 0, ..f },
                RunStats { event_snapshots: 0, ..s }
            );
            prop_assert_eq!(fast.finalize(), slow.finalize());
        }
    }

    /// A run that has been through everything a run can hold — shared and
    /// solo graphlets, a split and a merge, a gap-negation block, stored
    /// edge-predicate events, snapshots, a pending burst — is, recycled,
    /// the run `Run::new` builds: same record bytes, same accounted size.
    #[test]
    fn recycled_run_is_a_fresh_run() {
        use crate::burst::{Chunk, FlushEnv, RunState};
        use hamlet_query::{AggFunc, CmpOp, EdgePredicate, QueryId};
        let edge = EdgePredicate {
            ty: B,
            cur_attr: 0,
            op: CmpOp::Ge,
            prev_attr: 0,
        };
        let q = |id, pattern, edges| {
            let w = Window::tumbling(1000);
            let q = Query::new(
                QueryId(id),
                pattern,
                AggFunc::CountStar,
                vec![],
                edges,
                vec![],
                vec![],
                w,
            );
            Arc::new(q.unwrap())
        };
        let gap = Pattern::seq(vec![
            Pattern::Type(A),
            Pattern::Not(Box::new(Pattern::Type(N))),
            Pattern::plus(Pattern::Type(B)),
        ]);
        let members = [
            q(0, seq(A, B), vec![]),
            q(1, seq(C, B), vec![edge]),
            q(2, gap, vec![]),
            q(3, seq(C, B), vec![]),
        ];
        let plan = crate::workload::analyze(&members).unwrap();
        assert_eq!(plan.groups.len(), 1);
        let rt = GroupRuntime::new(&plan.groups[0]);
        let tl = |t| rt.template.local(t).unwrap();
        let evs = |ty: EventTypeId, t0: u64, n: u64| -> Vec<Event> {
            let v = |i| hamlet_types::AttrValue::Float(((t0 + i) % 3) as f64);
            (0..n)
                .map(|i| Event::new(Ts(t0 + i), ty, vec![v(i)]))
                .collect()
        };

        let mut rs = RunState::new(rt.clone());
        let fresh_bytes = rs.accounted;
        let all = QSet::all(4);
        rs.run.process_burst(tl(A), &evs(A, 0, 2), &all);
        rs.run.process_burst(tl(C), &evs(C, 2, 1), &all);
        rs.run.process_burst(tl(B), &evs(B, 3, 4), &all); // shared
        rs.run.process_burst(tl(B), &evs(B, 7, 3), &QSet::new()); // split
        rs.run.process_burst(tl(B), &evs(B, 10, 3), &all); // merge
        rs.run.process_burst(tl(N), &evs(N, 13, 1), &all); // blocks q2's gap
        rs.run.process_burst(tl(B), &evs(B, 14, 2), &all);
        let st = *rs.run.stats();
        assert!(st.shared_bursts > 0 && st.solo_bursts > 0, "{st:?}");
        assert!(
            st.splits > 0 && st.merges > 0 && st.snapshots() > 0,
            "{st:?}"
        );
        assert!(!rs.run.gap_blocked.is_empty(), "the negation blocked");
        assert!(!rs.run.stored[tl(B)].is_empty(), "edge events are stored");
        // …and a pending burst of events on top.
        let (seg, mut bytes) = (evs(B, 20, 2), rs.run.mem_bytes());
        rs.accounted = bytes;
        let cfg = crate::executor::EngineConfig::default();
        let mut env = FlushEnv {
            cfg: &cfg,
            estimator: &mut crate::optimizer::DivergenceEstimator::new(
                rt.template.num_types(),
                4,
                0.5,
            ),
            stats: &mut crate::executor::EngineStats::default(),
            ctx: &mut BurstCtx::default(),
            bytes: &mut bytes,
        };
        let range = [(0, 0), (1, 0)];
        rs.append(tl(B), 2, Chunk::Events(&seg, &range), None, &mut env);
        assert_eq!((bytes, rs.accounted), (rs.mem_bytes(), rs.mem_bytes()));
        assert!(bytes > fresh_bytes);

        rs.recycle();
        let record = |rs: &RunState| {
            let mut e = crate::checkpoint::Enc::new();
            rs.encode(&mut e);
            e.finish()
        };
        let fresh = RunState::new(rt.clone());
        assert_eq!(record(&rs), record(&fresh));
        assert_eq!(rs.accounted, fresh_bytes);
        assert_eq!(rs.mem_bytes(), fresh.mem_bytes());
        // It runs like one, too.
        let mut new = Run::new(rt.clone());
        for run in [&mut rs.run, &mut new] {
            run.process_burst(tl(A), &evs(A, 0, 1), &all);
            run.process_burst(tl(B), &evs(B, 1, 5), &all);
        }
        assert_eq!(rs.run.finalize(), new.finalize());
    }

    #[test]
    fn shared_equals_solo_counts() {
        // The same stream processed fully shared and fully solo must agree
        // bit-exactly.
        let rt = rt_two_queries();
        let tl = |t| rt.template.local(t).unwrap();
        let stream: Vec<(usize, Vec<Event>)> = vec![
            (tl(A), vec![ev(A, 1), ev(A, 2)]),
            (tl(C), vec![ev(C, 3)]),
            (tl(B), vec![ev(B, 4), ev(B, 5), ev(B, 6), ev(B, 7)]),
            (tl(A), vec![ev(A, 8)]),
            (tl(C), vec![ev(C, 9)]),
            (tl(B), vec![ev(B, 10), ev(B, 11)]),
        ];
        let mut shared = Run::new(rt.clone());
        let mut solo = Run::new(rt.clone());
        for (ty, burst) in &stream {
            shared.process_burst(*ty, burst, &QSet::all(2));
            solo.process_burst(*ty, burst, &QSet::new());
        }
        assert_eq!(shared.finalize(), solo.finalize());
        assert!(shared.stats().shared_bursts > 0);
        assert!(solo.stats().solo_bursts > 0);
    }

    #[test]
    fn table3_graphlet_counts() {
        // Fig. 5(a)/Table 3: after a1 a2 c1, four B events share graphlet
        // B3 via snapshot x. Final counts: q1 ends at B → Σ count(b_i, q1)
        // = x+2x+4x+8x = 15x with x=2 → 30; q2: 15·1 = 15.
        let rt = rt_two_queries();
        let tl = |t| rt.template.local(t).unwrap();
        let mut run = Run::new(rt.clone());
        let all = QSet::all(2);
        run.process_burst(tl(A), &[ev(A, 1), ev(A, 2)], &all);
        run.process_burst(tl(C), &[ev(C, 3)], &all);
        run.process_burst(tl(B), &[ev(B, 4), ev(B, 5), ev(B, 6), ev(B, 7)], &all);
        assert_eq!(run.num_snapshots(), 1); // only the graphlet snapshot x
        let out = run.finalize();
        assert_eq!(out[0].raw.count, TrendVal(30));
        assert_eq!(out[1].raw.count, TrendVal(15));
    }

    #[test]
    fn mid_stream_split_preserves_results() {
        // Share the first B burst; the second B burst (next pane, no
        // intervening events — the graphlet is still active, Def. 6) is
        // processed solo, forcing a split (Fig. 6(d)). Totals must match
        // the fully solo execution.
        let rt = rt_two_queries();
        let tl = |t| rt.template.local(t).unwrap();
        let stream: Vec<(usize, Vec<Event>)> = vec![
            (tl(A), vec![ev(A, 1)]),
            (tl(C), vec![ev(C, 2)]),
            (tl(B), vec![ev(B, 3), ev(B, 4)]),
            (tl(B), vec![ev(B, 6), ev(B, 7)]),
        ];
        let mut dynamic = Run::new(rt.clone());
        let mut solo = Run::new(rt.clone());
        for (i, (ty, burst)) in stream.iter().enumerate() {
            let share = if i < 3 { QSet::all(2) } else { QSet::new() };
            dynamic.process_burst(*ty, burst, &share);
            solo.process_burst(*ty, burst, &QSet::new());
        }
        assert!(dynamic.stats().splits > 0);
        assert_eq!(dynamic.finalize(), solo.finalize());
    }

    #[test]
    fn shared_sum_and_cnt_dimensions_agree_with_solo() {
        // SUM/COUNT(E) propagate through the same shared expressions; the
        // skeleton carries the (attr, type) dims for every member.
        let mk = |id: u32, first: EventTypeId| {
            Arc::new(
                Query::new(
                    hamlet_query::QueryId(id),
                    seq(first, B),
                    hamlet_query::AggFunc::Sum(B, 0),
                    vec![],
                    vec![],
                    vec![],
                    vec![],
                    Window::tumbling(1000),
                )
                .unwrap(),
            )
        };
        let plan = crate::workload::analyze(&[mk(1, A), mk(2, C)]).unwrap();
        assert_eq!(plan.groups.len(), 1);
        let rt = GroupRuntime::new(&plan.groups[0]);
        let tl = |t| rt.template.local(t).unwrap();
        let evv = |ty, t, v: f64| Event::new(Ts(t), ty, vec![hamlet_types::AttrValue::Float(v)]);
        let stream: Vec<(usize, Vec<Event>)> = vec![
            (tl(A), vec![evv(A, 1, 0.0)]),
            (tl(C), vec![evv(C, 2, 0.0)]),
            (tl(B), vec![evv(B, 3, 1.5), evv(B, 4, 2.5), evv(B, 5, 4.0)]),
        ];
        let mut shared = Run::new(rt.clone());
        let mut solo = Run::new(rt.clone());
        for (ty, burst) in &stream {
            shared.process_burst(*ty, burst, &QSet::all(2));
            solo.process_burst(*ty, burst, &QSet::new());
        }
        let a = shared.finalize();
        let b = solo.finalize();
        assert_eq!(a, b);
        // Hand check: trends over {b3,b4,b5} (7 subsets); SUM over all
        // events in all trends: each b appears in 4 trends → 4·(1.5+2.5+4)
        // = 32 (fixed point ×1e6).
        assert_eq!(a[0].raw.sum, crate::agg::ring_of_attr(32.0));
        assert_eq!(a[0].raw.cnt, TrendVal(12)); // 3 events × 4 trends each
    }

    #[test]
    fn start_type_divergence_handled_by_unit_snapshot() {
        // q1 = B+ (B starts trends), q2 = SEQ(A, B+) (B does not): the
        // shared graphlet must apply the +1 start increment only for q1 —
        // via the per-member unit snapshot.
        let q1 = Arc::new(Query::count_star(
            1,
            Pattern::plus(Pattern::Type(B)),
            Window::tumbling(1000),
        ));
        let q2 = Arc::new(Query::count_star(2, seq(A, B), Window::tumbling(1000)));
        let plan = crate::workload::analyze(&[q1, q2]).unwrap();
        assert_eq!(plan.groups.len(), 1);
        let rt = GroupRuntime::new(&plan.groups[0]);
        let tl = |t| rt.template.local(t).unwrap();
        let mut shared = Run::new(rt.clone());
        let mut solo = Run::new(rt.clone());
        let stream: Vec<(usize, Vec<Event>)> = vec![
            (tl(A), vec![ev(A, 1)]),
            (tl(B), vec![ev(B, 2), ev(B, 3), ev(B, 4)]),
        ];
        for (ty, burst) in &stream {
            shared.process_burst(*ty, burst, &QSet::all(2));
            solo.process_burst(*ty, burst, &QSet::new());
        }
        let a = shared.finalize();
        assert_eq!(a, solo.finalize());
        // q1: all non-empty subsets of 3 B's = 7. q2: 7 (one A × subsets).
        assert_eq!(a[0].raw.count, TrendVal(7));
        assert_eq!(a[1].raw.count, TrendVal(7));
        // The shared burst stayed fully shared (no event-level snapshots).
        assert_eq!(shared.stats().event_snapshots, 0);
        assert!(shared.stats().graphlet_snapshots >= 1);
    }

    #[test]
    fn selection_divergence_creates_event_snapshots() {
        use hamlet_query::{CmpOp, SelectionPredicate};
        let mk = |id: u32, first: EventTypeId, cut: f64| {
            let mut q = Query::count_star(id, seq(first, B), Window::tumbling(1000));
            q.selections.push(SelectionPredicate {
                ty: B,
                attr: 0,
                op: CmpOp::Lt,
                value: hamlet_types::AttrValue::Float(cut),
            });
            Arc::new(q)
        };
        let plan = crate::workload::analyze(&[mk(1, A, 5.0), mk(2, C, 2.0)]).unwrap();
        let rt = GroupRuntime::new(&plan.groups[0]);
        let tl = |t| rt.template.local(t).unwrap();
        let evv = |ty, t, v: f64| Event::new(Ts(t), ty, vec![hamlet_types::AttrValue::Float(v)]);
        let mut shared = Run::new(rt.clone());
        let mut solo = Run::new(rt.clone());
        let stream: Vec<(usize, Vec<Event>)> = vec![
            (tl(A), vec![evv(A, 1, 0.0)]),
            (tl(C), vec![evv(C, 2, 0.0)]),
            // v=1 accepted by both; v=3 only q1; v=9 by neither.
            (tl(B), vec![evv(B, 3, 1.0), evv(B, 4, 3.0), evv(B, 5, 9.0)]),
        ];
        for (ty, burst) in &stream {
            shared.process_burst(*ty, burst, &QSet::all(2));
            solo.process_burst(*ty, burst, &QSet::new());
        }
        assert!(shared.stats().event_snapshots > 0, "Def. 9 exercised");
        assert_eq!(shared.finalize(), solo.finalize());
    }

    #[test]
    fn mid_stream_merge_preserves_results() {
        // Start solo, then merge into a shared graphlet (Fig. 6(f)).
        let rt = rt_two_queries();
        let tl = |t| rt.template.local(t).unwrap();
        let stream: Vec<(usize, Vec<Event>)> = vec![
            (tl(A), vec![ev(A, 1)]),
            (tl(C), vec![ev(C, 2)]),
            (tl(B), vec![ev(B, 3), ev(B, 4)]),
            (tl(B), vec![ev(B, 6), ev(B, 7)]),
        ];
        let mut dynamic = Run::new(rt.clone());
        let mut solo = Run::new(rt.clone());
        for (i, (ty, burst)) in stream.iter().enumerate() {
            let share = if i >= 3 { QSet::all(2) } else { QSet::new() };
            dynamic.process_burst(*ty, burst, &share);
            solo.process_burst(*ty, burst, &QSet::new());
        }
        assert!(dynamic.stats().merges > 0);
        assert_eq!(dynamic.finalize(), solo.finalize());
    }
}
