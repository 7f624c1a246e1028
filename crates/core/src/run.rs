//! The per-window evaluation engine: the HAMLET graph of one share group
//! over one stream partition and one window instance.
//!
//! Events arrive in *bursts* (maximal runs of one event type, Def. 10).
//! For each burst the caller (executor + optimizer) supplies the sharing
//! decision — which members process the burst in a shared graphlet versus
//! per-query solo graphlets (§4.2). The run maintains:
//!
//! * per type and member, the *closed total* — the resolved sum of
//!   intermediate aggregates of all *closed* graphlets of the type.
//!   Snapshot values and external predecessor contributions are read off
//!   these (Def. 8: `value(x, q) = Σ sum(G_E', q)`). A run holds them in a
//!   row per type it has touched; an untouched type's totals are zero.
//! * one *active* graphlet per type: either a shared graphlet whose events
//!   carry [`LinearExpr`] aggregates over snapshots, or per-member solo
//!   graphlets with numeric aggregates (§3.2), or both (when the optimizer
//!   shares only a subset of the queries, §4.3).
//! * the snapshot table `S` (Algorithm 1).
//!
//! Because `fcount(q) = Σ count(e, q)` over end-type events (Eq. 3), the
//! final aggregate per member is just the end-type closed totals at
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
use crate::burst::{Burst, BurstRepr, Cell, Selections};
use crate::checkpoint::{codec_struct, decode_into, CheckpointError, Codec, Dec, Enc};
use crate::expr::{LinearExpr, SnapId};
use crate::snapshot::SnapTable;
use crate::template::{MergedTemplate, NegKind};
use crate::workload::{AggSkeleton, ShareGroup};
use edge::StoredEvent;
use hamlet_query::{CompiledSelection, EdgePredicate, Query};
use hamlet_types::{Event, TrendVal};
use std::collections::HashMap;
use std::iter::repeat_n;
use std::mem::replace;
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
    /// Negation constraints indexed by the *negated* type:
    /// `(member, kind)` pairs in local type indices.
    pub negs: Vec<Vec<(usize, LocalNegKind)>>,
    /// `candidates[type]` — the members that may share a burst of the
    /// type (involved, Kleene self-loop, linear skeleton).
    pub candidates: Vec<QSet>,
    /// `sel_members[type]` — the members with a selection on the type.
    pub(crate) sel_members: Vec<QSet>,
    /// `edge_members[type]` — the members with an edge predicate on it
    /// (a type with any buffers its events and scans them pairwise).
    pub(crate) edge_members: Vec<QSet>,
    /// [`GroupRuntime::burst_repr`] per type.
    pub(crate) repr: Vec<BurstRepr>,
    /// Per type, how [`Run::replay`] advances a burst: `Count` where it
    /// does so in closed form, otherwise its `repr`.
    advance: Vec<BurstRepr>,
    /// Per type, the selection table its cells are read off — the
    /// workload's, shared by every group that buffers the type as cells
    /// (empty for the other types).
    pub(crate) sels: Vec<Arc<Selections>>,
    /// Per type, member `q`'s selections as bits of that table's word
    /// row: `need[tl][q * words..][..words]`.
    pub(crate) need: Vec<Vec<u64>>,
    /// Per type, the index of a cell's value in the type's row.
    pub(crate) val: Vec<usize>,
    /// The lattice identity every `MIN`/`MAX` total starts from (the
    /// `MIN` one for the other skeletons, whose lattice is unread).
    mm_identity: MmVal,
    /// Whether the lattice folds by `MIN` (else `MAX`).
    is_min: bool,
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
    /// Builds the runtime tables for a share group, its cells read off
    /// a selection table of its own (a workload's groups share one:
    /// [`crate::burst::compile_groups`]).
    pub fn new(group: &ShareGroup) -> Arc<GroupRuntime> {
        let (mut rts, _) = crate::burst::compile_groups(std::slice::from_ref(group));
        // hamlet-lint: allow(panic-hygiene) -- one group in, one runtime out
        rts.pop().expect("one runtime per group")
    }

    /// The runtime of `group` without its selection table
    /// ([`GroupRuntime::bind`] attaches one).
    pub(crate) fn unbound(group: &ShareGroup) -> GroupRuntime {
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
        let edge_members: Vec<QSet> = edge
            .iter()
            .map(|per_q| (0..k).filter(|&q| !per_q[q].is_empty()).collect())
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
        let (mm_identity, is_min) = match group.skeleton {
            AggSkeleton::MinMax { is_min: false, .. } => (MmVal::MAX_IDENTITY, false),
            _ => (MmVal::MIN_IDENTITY, true),
        };
        let mut rt = GroupRuntime {
            template: tpl,
            queries: group.queries.clone(),
            skeleton: group.skeleton.clone(),
            sel,
            edge,
            negs,
            candidates,
            sel_members,
            edge_members,
            repr: Vec::new(),
            advance: Vec::new(),
            sels: Vec::new(),
            need: Vec::new(),
            val: Vec::new(),
            mm_identity,
            is_min,
        };
        rt.repr = (0..nt).map(|tl| rt.resolve_repr(tl)).collect();
        rt.advance = (0..nt)
            .map(|tl| match rt.closed_form(tl) {
                true => BurstRepr::Count,
                false => rt.repr[tl],
            })
            .collect();
        rt
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
            && self.edge_members.iter().all(QSet::is_empty)
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
            && self.edge_members.iter().all(QSet::is_empty)
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

    /// The optimizer inputs of a burst of local type `tl`, into a reused
    /// context: how the replay advances the burst, the type's candidates
    /// and the members among them with an edge predicate, and a zeroed
    /// divergence slot per candidate. Once the slots have grown to the
    /// group's width, a decision allocates nothing.
    pub(crate) fn burst_shape_into(&self, tl: usize, ctx: &mut BurstCtx) {
        ctx.candidates = self.candidates[tl];
        ctx.edge = self.candidates[tl] & self.edge_members[tl];
        ctx.diverging.clear();
        ctx.diverging.resize(ctx.candidates.len(), 0);
        ctx.repr = self.advance[tl];
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
}

/// Member `q`'s cell of a held type (§3.2): the total, lattice value and
/// alive flag (the lattice value extends a trend) of the type's closed
/// graphlets, and the same three of the member's solo graphlet — open iff
/// `q` is in its row's `solos`.
#[derive(Clone, Copy, Default)]
struct Member {
    total: NodeVal,
    mm: MmVal,
    alive: bool,
    solo: NodeVal,
    solo_mm: MmVal,
    solo_alive: bool,
}

/// A held type's row: its shared graphlet, if open, and the members whose
/// solo graphlet is open — every walk over a type's solo graphlets walks
/// that set. Its `k` [`Member`] cells sit at its index in `Run::cells`.
#[derive(Default)]
struct Row {
    shared: Option<SharedGraphlet>,
    solos: QSet,
}

codec_struct!(SharedGraphlet {
    members,
    x,
    unit,
    sum_exprs
});

impl SharedGraphlet {
    /// Fails unless every snapshot the graphlet names is one of the run's
    /// `num_snaps` (checked after a plain decode, before any lookup).
    fn check_snaps(&self, num_snaps: usize) -> Result<(), CheckpointError> {
        for id in [Some(self.x), self.unit].into_iter().flatten() {
            if id as usize >= num_snaps {
                return Err(CheckpointError::Corrupt(format!(
                    "graphlet references snapshot {id} of {num_snaps}"
                )));
            }
        }
        self.sum_exprs.check_snaps(num_snaps)
    }
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
}

codec_struct!(RunStats {
    graphlet_snapshots,
    event_snapshots,
    graphlets,
    merges,
    splits,
    shared_bursts,
    solo_bursts,
    events,
});

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
    /// How [`Run::replay`] advances the burst: [`BurstRepr::Count`] where
    /// it does so in closed form (a count, or cells of a type
    /// `GroupRuntime::closed_form` holds for), otherwise how the burst is
    /// buffered.
    pub repr: BurstRepr,
    /// The members that may share the burst (involved, Kleene self-loop,
    /// linear aggregate).
    pub candidates: QSet,
    /// The candidates whose edge predicates force an event-level snapshot
    /// on every event.
    pub edge: QSet,
    /// Per candidate, in ascending member order: events of the burst whose
    /// predicate outcome diverges from the other candidates (drives `sc`,
    /// Def. 9).
    pub diverging: Vec<u64>,
}

/// A set of a run's local types, one bit per type. A template of more
/// than 64 types has no bit for some of them, so there every set holds
/// all types from the start and is walked in full. Recorded as its word.
#[derive(Clone, Copy, Debug, PartialEq)]
struct TypeSet(u64);

codec_struct!(TypeSet { 0 });

impl TypeSet {
    /// The empty set of a template of `nt` types.
    fn empty(nt: usize) -> TypeSet {
        TypeSet(if nt > 64 { u64::MAX } else { 0 })
    }

    fn add(&mut self, ty: usize) {
        if ty < 64 {
            self.0 |= 1 << ty;
        }
    }

    /// Removes `ty` from a set of a template of `nt` types: a no-op past
    /// 64 types, whose sets hold every type for good, so a run's sets are
    /// a function of what it holds and its record re-encodes to its bytes.
    fn remove(&mut self, ty: usize, nt: usize) {
        if nt <= 64 {
            self.0 &= !(1 << ty);
        }
    }

    /// The set's types of a template of `nt` types, ascending.
    fn iter(self, nt: usize) -> impl Iterator<Item = usize> {
        let low = QSet(self.0).iter().take_while(move |&ty| ty < nt);
        low.chain(64..nt.max(64))
    }
}

/// [`Run::index`]'s entry for a type without a row.
const NO_ROW: u8 = u8::MAX;

/// A run's row store, `Run::rows` and `Run::cells`, with room for some
/// number of rows.
type Store = (Vec<Row>, Vec<Member>);

/// Empty row stores left by a share group's runs, by the rows they have
/// room for: a run whose store is full takes a bigger one from here and
/// leaves its old one, and a finished run leaves its own, so a warm
/// group's runs allocate no rows while each holds room only for about
/// the rows it uses. Like a free slab slot, not state.
#[derive(Default)]
pub(crate) struct Stores(Vec<Vec<Store>>);

impl Stores {
    /// A spare store with room for exactly `rows` (≥ 1) rows.
    fn take(&mut self, rows: usize) -> Option<Store> {
        self.0.get_mut(rows - 1)?.pop()
    }

    fn put(&mut self, store: Store) {
        if let Some(at) = store.0.capacity().checked_sub(1) {
            self.0.resize_with(self.0.len().max(at + 1), Vec::new);
            self.0[at].push(store);
        }
    }
}

/// The evaluation state of one (share group × partition × window instance).
///
/// A run of a high-cardinality stream lives for a burst or two and touches
/// one or two of its template's types, so a run holds a `Row` and its
/// `k` `Member` cells only for the types in `written` (whose closed
/// totals may differ from the identity) or `open` (exactly the types
/// with an open graphlet), in the order it first touched them: `index`
/// finds a type's row, and every other type reads as the zero total, the
/// lattice identity and no graphlet without touching memory. Within an
/// open type, what a run walks per member is walked over the
/// members whose solo graphlet is open (`Row::solos`), so a burst closes
/// what it closes, not every open type × every member. The row store has
/// room for the rows held rounded up to a power of two, or past 16 rows
/// to an even count (at most every type): a function of the rows alone,
/// so a restored run measures what the cut one did, few moves while a
/// run grows, and at most one spare row once rows are many. A full store
/// is traded for a bigger one from the group's [`Stores`] while they are
/// lent to the run, and allocated otherwise.
pub struct Run {
    rt: Arc<GroupRuntime>,
    /// Per type below the 64th, the index of its row (or [`NO_ROW`]); a
    /// type past it, whose row every run holds, has the row of its index.
    index: [u8; 64],
    rows: Vec<Row>,
    /// `k` cells per row: member `q` of row `r` at `r * k + q`.
    cells: Vec<Member>,
    start_blocked: QSet,
    gap_blocked: HashMap<(usize, usize, usize), NodeVal>,
    /// Empty until a trailing negation blocks, then one total per member.
    result_blocked: Vec<NodeVal>,
    snaps: SnapTable,
    stored: Vec<Vec<StoredEvent>>,
    stats: RunStats,
    open: TypeSet,
    written: TypeSet,
    /// The group's spare stores while they are lent to the run.
    spare: Option<Box<Stores>>,
}

impl Run {
    /// Creates an empty run.
    pub fn new(rt: Arc<GroupRuntime>) -> Run {
        let nt = rt.template.num_types();
        let mut run = Run {
            index: [NO_ROW; 64],
            rows: Vec::new(),
            cells: Vec::new(),
            start_blocked: QSet::new(),
            gap_blocked: HashMap::new(),
            result_blocked: Vec::new(),
            snaps: SnapTable::new(rt.k()),
            stored: (0..nt).map(|_| Vec::new()).collect(),
            stats: RunStats::default(),
            rt,
            open: TypeSet::empty(nt),
            written: TypeSet::empty(nt),
            spare: None,
        };
        run.fill_rows();
        run
    }

    /// Puts every field back to what [`Run::new`] gives it for the same
    /// runtime, keeping every buffer's capacity but the row store's, which
    /// goes to the lent [`Stores`]: a finished run handed back to its
    /// group's slab is the next window's empty run, and re-using it
    /// allocates nothing.
    pub(crate) fn recycle(&mut self) {
        let nt = self.nt();
        self.index = [NO_ROW; 64];
        self.rows.clear();
        self.cells.clear();
        self.move_store(0);
        self.start_blocked = QSet::new();
        self.gap_blocked.clear();
        self.result_blocked.clear();
        self.snaps.clear();
        self.stored.iter_mut().for_each(Vec::clear);
        self.stats = RunStats::default();
        (self.open, self.written) = (TypeSet::empty(nt), TypeSet::empty(nt));
        self.fill_rows();
    }

    fn nt(&self) -> usize {
        self.rt.template.num_types()
    }

    fn held(&self) -> TypeSet {
        TypeSet(self.written.0 | self.open.0)
    }

    /// The index of held type `ty`'s row.
    fn at(&self, ty: usize) -> usize {
        self.index.get(ty).map_or(ty, |&r| r as usize)
    }

    /// The index of `ty`'s row, if the run holds one.
    fn row_of(&self, ty: usize) -> Option<usize> {
        Some(self.at(ty)).filter(|&r| r < self.rows.len())
    }

    /// Appends an empty row for each held type without one (a template of
    /// more than 64 types holds them all from the start).
    fn fill_rows(&mut self) {
        let held = self.held().iter(self.nt());
        let rows = self.rows.len() + held.filter(|&ty| self.row_of(ty).is_none()).count();
        if rows > self.rows.capacity() {
            self.move_store(rows);
        }
        for ty in self.held().iter(self.nt()) {
            if self.row_of(ty).is_none() {
                self.push_row(ty);
            }
        }
    }

    /// Moves the rows into a store with room for `rows` rows, rounded up
    /// as [`Run`] says — a lent spare of that size, else a new one — and
    /// the old store to the lent spares (dropped if none are lent). `rows`
    /// 0 leaves none.
    fn move_store(&mut self, rows: usize) {
        let k = self.rt.k();
        let rows = match rows {
            0 => 0,
            1..=16 => rows.next_power_of_two(),
            _ => rows.next_multiple_of(2),
        }
        .min(self.nt());
        let spare = (self.spare.as_mut().filter(|_| rows > 0)).and_then(|s| s.take(rows));
        let (mut new_rows, mut new_cells) =
            spare.unwrap_or_else(|| (Vec::with_capacity(rows), Vec::with_capacity(rows * k)));
        new_rows.append(&mut self.rows);
        new_cells.append(&mut self.cells);
        let old_rows = replace(&mut self.rows, new_rows);
        let old = (old_rows, replace(&mut self.cells, new_cells));
        if let Some(s) = &mut self.spare {
            s.put(old);
        }
    }

    /// Swaps `stores` into the run: lent to it on the first call, taken
    /// back on the second.
    pub(crate) fn lend(&mut self, stores: &mut Option<Box<Stores>>) {
        std::mem::swap(&mut self.spare, stores);
    }

    /// Opens `ty`: its row, appended empty unless held.
    fn open_row(&mut self, ty: usize) -> usize {
        self.open.add(ty);
        self.row_of(ty).unwrap_or_else(|| self.push_row(ty))
    }

    /// Appends an empty row for `ty`, in a bigger store if this one is
    /// full.
    fn push_row(&mut self, ty: usize) -> usize {
        let (k, mm) = (self.rt.k(), self.rt.mm_identity);
        if self.rows.len() == self.rows.capacity() {
            self.move_store(self.rows.len() + 1);
        }
        if let Some(r) = self.index.get_mut(ty) {
            *r = self.rows.len() as u8;
        }
        self.rows.push(Row::default());
        let mut blank = Member::default();
        (blank.mm, blank.solo_mm) = (mm, mm);
        self.cells.extend(repeat_n(blank, k));
        self.rows.len() - 1
    }

    /// Member `q`'s cell of type `ty`, if the run holds the type.
    fn cell(&self, ty: usize, q: usize) -> Option<&Member> {
        let at = self.row_of(ty)? * self.rt.k() + q;
        Some(&self.cells[at])
    }

    /// Member `q`'s closed total of type `ty`.
    fn total(&self, ty: usize, q: usize) -> NodeVal {
        self.cell(ty, q).map_or(NodeVal::ZERO, |c| c.total)
    }

    /// Type `ty`'s open shared graphlet.
    fn shared(&self, ty: usize) -> Option<&SharedGraphlet> {
        self.row_of(ty).and_then(|r| self.rows[r].shared.as_ref())
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

    /// Run statistics.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Number of snapshots in the table.
    pub fn num_snapshots(&self) -> usize {
        self.snaps.len()
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
        let relevant = tpl.involved[tl] | tpl.neg_involved[tl];
        for ty in self.open.iter(tpl.num_types()).filter(|&ty| ty != tl) {
            if (self.shared(ty)).is_some_and(|sh| sh.members.intersects(&relevant)) {
                self.close_shared(ty);
            }
            self.close_solos(ty, relevant);
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
                // The uniform shared path's expression buffer, reused
                // over the burst.
                let mut scratch = LinearExpr::zero();
                for e in events {
                    self.process_event(&rt, tl, e, share, &mut scratch);
                }
            }
            // Cells of a closed-form type, or a count: those exist only
            // for uniform groups, where the closed form's preconditions
            // hold by construction.
            Burst::Cells(_) | Burst::Count(_) => self.advance_closed_form(&rt, tl, b, share),
        }
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
            let r = self.at(tl);
            // hamlet-lint: allow(panic-hygiene) -- a non-empty share set implies the shared graphlet was created when the burst opened
            let sh = self.rows[r].shared.as_mut().expect("shared graphlet");
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
        }

        for q in (tpl.involved[tl] & !share).iter() {
            self.open_solo(tl, q);
            let ext = self.external_pred(tl, q);
            let start = starts.contains(q);
            let self_loop = tpl.self_loop[tl].contains(q);
            // Lattice predecessors in closed graphlets (the active one of
            // this type is folded in per event).
            let (mut mm_ext, mut alive_ext) = (self.rt.mm_identity, start);
            for c in tpl.pt[tl][q].iter().filter_map(|&p| self.cell(p, q)) {
                mm_ext.fold(c.mm.0, rt.is_min);
                alive_ext |= c.alive;
            }
            let (is_min, at) = (rt.is_min, self.at(tl) * rt.k() + q);
            let solo = &mut self.cells[at];
            for c in cells.iter().filter(|c| c.mask.contains(q)) {
                let mut pred = ext;
                if self_loop {
                    pred.add(solo.solo);
                }
                solo.solo
                    .add(NodeVal::propagate(pred, start, weight(c), is_target));
                if minmax {
                    let (mut mm, mut alive) = (mm_ext, alive_ext);
                    if self_loop {
                        mm.fold(solo.solo_mm.0, is_min);
                        alive |= solo.solo_alive;
                    }
                    if alive {
                        mm.fold(f64::from_bits(c.val), is_min);
                        solo.solo_mm.fold(mm.0, is_min);
                        solo.solo_alive = true;
                    }
                }
            }
        }
    }

    /// The members for which an event of local type `tl` starts a trend
    /// now: the type's start set less the members a leading negation has
    /// blocked.
    fn starts(&self, tpl: &MergedTemplate, tl: usize) -> QSet {
        tpl.start[tl] & !self.start_blocked
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
            let r = self.at(tl);
            // hamlet-lint: allow(panic-hygiene) -- a non-empty share set implies the shared graphlet was created when the burst opened
            let sh = self.rows[r].shared.as_mut().expect("shared graphlet");
            let (x, unit) = (sh.x, sh.unit);
            sh.sum_exprs.scale(m);
            sh.sum_exprs.add_snapshot_scaled(x, g);
            if let Some(u) = unit {
                sh.sum_exprs.add_snapshot_scaled(u, g);
            }
        }
        for q in (tpl.involved[tl] & !share).iter() {
            self.open_solo(tl, q);
            let mut step = self.external_pred(tl, q);
            if starts.contains(q) {
                step.count += TrendVal::ONE;
            }
            let at = self.at(tl) * rt.k() + q;
            let solo = &mut self.cells[at].solo;
            if tpl.self_loop[tl].contains(q) {
                solo.scale(m);
                solo.add_scaled(step, g);
            } else {
                solo.add_scaled(step, TrendVal(b));
            }
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
                LocalNegKind::Leading => _ = self.start_blocked.insert(*q),
                LocalNegKind::Gap { pred, succ } => {
                    for &p in pred {
                        for &s in succ {
                            let v = self.total(p, *q);
                            self.gap_blocked.insert((*q, p, s), v);
                        }
                    }
                }
                LocalNegKind::Trailing => {
                    self.result_blocked.resize(rt.k(), NodeVal::ZERO);
                    self.result_blocked[*q] = self.result_total(*q);
                }
            }
        }
    }

    /// Current Σ of end-type totals for member `q` (Eq. 3 over the closed
    /// totals and the open graphlets).
    fn result_total(&self, q: usize) -> NodeVal {
        let (tpl, k) = (&self.rt.template, self.rt.k());
        let mut out = NodeVal::ZERO;
        for ty in self.held().iter(tpl.num_types()) {
            if tpl.end[ty].contains(q) {
                let r = self.at(ty);
                let (row, cell) = (&self.rows[r], &self.cells[r * k + q]);
                out.add(cell.total);
                // Include active graphlets (they haven't been folded yet).
                if let Some(sh) = &row.shared {
                    if sh.members.contains(q) {
                        out.add(self.snaps.eval(&sh.sum_exprs, q));
                    }
                }
                if row.solos.contains(q) {
                    out.add(cell.solo);
                }
            }
        }
        out
    }

    /// Opens/closes graphlets of type `tl` so the active configuration
    /// matches the sharing decision (§4.2 split & merge).
    fn transition_graphlets(&mut self, rt: &GroupRuntime, tl: usize, share: QSet) {
        let shared = self.shared(tl).map(|sh| sh.members);
        if shared.is_some_and(|members| members != share) {
            // Split (or re-form with a different member set).
            self.close_shared(tl);
            self.stats.splits += 1;
        }
        // Merge: members' solo graphlets collapse into the closed totals,
        // and one consolidated graphlet-level snapshot is created (Fig.
        // 6(f)). Solo members keep (or lazily open) their graphlets in the
        // replay; members covered by the shared graphlet must not also
        // run solo.
        let merge = !share.is_empty() && shared != Some(share);
        let solos = self.row_of(tl).map_or(QSet::new(), |r| self.rows[r].solos);
        if merge && share.intersects(&solos) {
            self.stats.merges += 1;
        }
        self.close_solos(tl, share);
        if merge {
            self.open_shared(rt, tl, share);
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
                v.add(self.total(p, q).minus(blocked));
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
        let r = self.open_row(tl);
        self.rows[r].shared = Some(SharedGraphlet {
            members,
            x,
            unit,
            sum_exprs: LinearExpr::zero(),
        });
    }

    /// Opens member `q`'s solo graphlet of type `tl` unless it is open.
    fn open_solo(&mut self, tl: usize, q: usize) {
        let r = self.open_row(tl);
        if self.rows[r].solos.insert(q) {
            let cell = &mut self.cells[r * self.rt.k() + q];
            (cell.solo, cell.solo_mm, cell.solo_alive) =
                (NodeVal::ZERO, self.rt.mm_identity, false);
            self.stats.graphlets += 1;
        }
    }

    /// Resolves a shared graphlet's totals per member into its row's
    /// closed totals and drops its symbolic state ("the snapshot is
    /// replaced by its value", Fig. 6(d)).
    fn close_shared(&mut self, tl: usize) {
        let Some(r) = self.row_of(tl) else { return };
        if let Some(sh) = self.rows[r].shared.take() {
            for q in sh.members.iter() {
                let v = self.snaps.eval(&sh.sum_exprs, q);
                self.cells[r * self.rt.k() + q].total.add(v);
                // Shared graphlets exist only for linear skeletons; the
                // lattice dimensions stay untouched.
            }
            self.written.add(tl);
            self.vacate(tl);
        }
    }

    /// Folds the open solo graphlets of type `tl` among `members` into
    /// its row's closed totals and lattice values.
    fn close_solos(&mut self, tl: usize, members: QSet) {
        let Some(r) = self.row_of(tl) else { return };
        let row = &mut self.rows[r];
        let closing = row.solos & members;
        if closing.is_empty() {
            return;
        }
        row.solos = row.solos & !closing;
        for q in closing.iter() {
            let cell = &mut self.cells[r * self.rt.k() + q];
            cell.total.add(cell.solo);
            cell.mm.fold(cell.solo_mm.0, self.rt.is_min);
            cell.alive |= cell.solo_alive;
        }
        self.written.add(tl);
        self.vacate(tl);
    }

    /// Drops `tl` from `open` once it holds no graphlet.
    fn vacate(&mut self, tl: usize) {
        let row = &self.rows[self.at(tl)];
        if row.shared.is_none() && row.solos.is_empty() {
            self.open.remove(tl, self.nt());
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
                v.add(self.total(p, q));
                continue;
            }
            let blocked = self
                .gap_blocked
                .get(&(q, p, tl))
                .copied()
                .unwrap_or(NodeVal::ZERO);
            v.add(self.total(p, q).minus(blocked));
        }
        v
    }

    /// Closes all graphlets and returns the per-member window outputs
    /// (Eq. 3 over end-type totals, minus trailing-negation blocks).
    pub fn finalize(&mut self) -> Vec<MemberOutput> {
        let mut out = Vec::with_capacity(self.rt.k());
        self.finalize_into(&mut out);
        out
    }

    /// [`finalize`](Self::finalize) into a reused buffer (cleared first):
    /// the engine finalizes every expiring run through one.
    pub fn finalize_into(&mut self, out: &mut Vec<MemberOutput>) {
        let (nt, k) = (self.nt(), self.rt.k());
        for ty in self.open.iter(nt) {
            self.close_shared(ty);
            self.close_solos(ty, !QSet::new());
        }
        let tpl = &self.rt.template;
        out.clear();
        out.extend((0..k).map(|q| {
            let mut raw = NodeVal::ZERO;
            let mut mm = self.rt.mm_identity;
            for ty in self.held().iter(nt).filter(|&ty| tpl.end[ty].contains(q)) {
                let cell = &self.cells[self.at(ty) * k + q];
                raw.add(cell.total);
                mm.fold(cell.mm.0, self.rt.is_min);
            }
            let blocked = self.result_blocked.get(q).copied();
            MemberOutput {
                raw: raw.minus(blocked.unwrap_or(NodeVal::ZERO)),
                mm: mm.0,
            }
        }));
    }

    /// Serializes the run as its difference from [`Run::new`] over the
    /// same runtime (checkpoint codec): the shape, the `written` and
    /// `open` type sets, the totals of the written types, the negation
    /// blocks where any is set, the snapshot table, the graphlets of the
    /// open types, the stored events of the types that hold some, and the
    /// counters. The immutable [`GroupRuntime`] is *not* serialized — the
    /// decoder receives it from the freshly compiled engine and only the
    /// mutable state travels.
    pub(crate) fn encode(&self, e: &mut Enc) {
        let (nt, k) = (self.nt(), self.rt.k());
        (k, nt).encode(e);
        (self.written, self.open).encode(e);
        let cells = |ty| &self.cells[self.at(ty) * k..][..k];
        for ty in self.written.iter(nt) {
            cells(ty).iter().for_each(|c| c.total.encode(e));
        }
        for ty in self.written.iter(nt) {
            cells(ty).iter().for_each(|c| c.mm.encode(e));
        }
        for ty in self.written.iter(nt) {
            cells(ty).iter().for_each(|c| c.alive.encode(e));
        }
        if e.some(!self.start_blocked.is_empty()) {
            (0..k).for_each(|q| e.bool(self.start_blocked.contains(q)));
        }
        // HashMap: impose the canonical key order so the encoding is
        // deterministic (checkpoint → restore → checkpoint is
        // byte-identical).
        let mut gaps: Vec<_> = self.gap_blocked.iter().map(|(k, v)| (*k, *v)).collect();
        gaps.sort_by_key(|&(k, _)| k);
        gaps.encode(e);
        if e.some(self.result_blocked.iter().any(|v| *v != NodeVal::ZERO)) {
            self.result_blocked.iter().for_each(|v| v.encode(e));
        }
        self.snaps.encode(e);
        for ty in self.open.iter(nt) {
            let row = &self.rows[self.at(ty)];
            row.shared.encode(e);
            for (q, c) in cells(ty).iter().enumerate() {
                let solo = (c.solo, c.solo_mm, c.solo_alive);
                row.solos.contains(q).then_some(solo).encode(e);
            }
        }
        for stored in &self.stored {
            if e.some(!stored.is_empty()) {
                stored.encode(e);
            }
        }
        self.stats.encode(e);
    }

    /// Mirror of [`encode`](Self::encode): rebuilds a run over the given
    /// (freshly compiled) runtime, every part the record leaves out as
    /// [`Run::new`] makes it. What the record holds is decoded plainly,
    /// then checked against that runtime — its shape, its type sets, and
    /// every snapshot id against the restored table — before anything
    /// indexes by it. The decoded run's `written` set is the record's,
    /// and it holds a row for exactly those types and the open ones;
    /// `open` and each type's open members follow exactly from the
    /// graphlets it holds. `dense` reads the run of `HMEN` v4–v6 /
    /// `HMDL` v1–v3: every type written and open, every section present,
    /// and three fields since dropped (the header's event count, each
    /// graphlet's size), which it reads past.
    pub(crate) fn decode(
        d: &mut Dec<'_>,
        rt: Arc<GroupRuntime>,
        dense: bool,
    ) -> Result<Run, CheckpointError> {
        let mut run = Run::new(rt);
        let (k, nt) = (run.rt.k(), run.nt());
        let (k_enc, nt_enc): (usize, usize) = Codec::decode(d)?;
        if k_enc != k || nt_enc != nt {
            return Err(CheckpointError::WorkloadMismatch(format!(
                "run shape ({k_enc} members × {nt_enc} types) vs compiled ({k} × {nt})"
            )));
        }
        d.skip_word(dense)?;
        // Every type of the template (a template has at least one).
        let full = TypeSet(u64::MAX >> (64 - nt.clamp(1, 64)));
        let (written, open): (TypeSet, TypeSet) = match dense {
            true => (full, full),
            false => Codec::decode(d)?,
        };
        // Past 64 types both sets hold every type for good.
        if (written.0 | open.0) & !full.0 != 0 || nt > 64 && (written, open) != (full, full) {
            return Err(CheckpointError::Corrupt(format!(
                "type sets {written:?} / {open:?} do not fit a {nt}-type template"
            )));
        }
        // The written types' rows, which are all the run holds so far.
        run.written = written;
        run.fill_rows();
        decode_into(d, run.cells.iter_mut().map(|c| &mut c.total))?;
        decode_into(d, run.cells.iter_mut().map(|c| &mut c.mm))?;
        decode_into(d, run.cells.iter_mut().map(|c| &mut c.alive))?;
        if dense || d.some()? {
            let blocked: Vec<bool> = (0..k).map(|_| d.bool()).collect::<Result<_, _>>()?;
            run.start_blocked = (0..k).filter(|&q| blocked[q]).collect();
        }
        let gaps: Vec<((usize, usize, usize), NodeVal)> = Codec::decode(d)?;
        run.gap_blocked.extend(gaps);
        if dense || d.some()? {
            run.result_blocked.resize(k, NodeVal::ZERO);
            decode_into(d, &mut run.result_blocked)?;
        }
        run.snaps = Codec::decode(d)?;
        run.snaps.check_arity(k)?;
        let num_snaps = run.snaps.len();
        for ty in open.iter(nt) {
            let shared: Option<SharedGraphlet> = Codec::decode(d)?;
            d.skip_word(dense && shared.is_some())?;
            if let Some(sh) = shared {
                sh.check_snaps(num_snaps)?;
                let r = run.open_row(ty);
                run.rows[r].shared = Some(sh);
            }
            for q in 0..k {
                if let Some(solo) = Codec::decode(d)? {
                    d.skip_word(dense)?;
                    let r = run.open_row(ty);
                    run.rows[r].solos.insert(q);
                    let c = &mut run.cells[r * k + q];
                    (c.solo, c.solo_mm, c.solo_alive) = solo;
                }
            }
        }
        for stored in &mut run.stored {
            if dense || d.some()? {
                *stored = Codec::decode(d)?;
                stored.iter().try_for_each(|se| se.check_snaps(num_snaps))?;
            }
        }
        run.stats = Codec::decode(d)?;
        Ok(run)
    }

    /// State footprint in bytes (§6.1 memory metric): the run, its row
    /// store — the room it holds, rows of `k` cells for the held types
    /// rounded up — the snapshot table and shared expressions, and the
    /// stored events.
    pub fn mem_bytes(&self) -> usize {
        let store =
            self.rows.capacity() * size_of::<Row>() + self.cells.capacity() * size_of::<Member>();
        let mut b = size_of::<Run>() + store + self.snaps.mem_bytes();
        for sh in self.rows.iter().filter_map(|r| r.shared.as_ref()) {
            b += sh.sum_exprs.mem_bytes();
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
        assert_eq!(fast.stats().events, slow.stats().events);
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

    /// The xorshift stream of a proptest seed.
    fn stream_of(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s >> 11
        }
    }

    /// One random share group around `B+`: skeleton `skel` (0 `CountOnly`,
    /// 1 `Linear`, 2 `MinMax`), 2–5 members with their own head / tail
    /// types (so `B` starts trends for some members only), Leading / Gap /
    /// Trailing negations of `N`, and per-member selections on `B` and
    /// `N` including none and all-reject. `shape` 0 always buffers cells:
    /// a `CountOnly` group whose members drew no negation and no
    /// selection on `B` gets one on its last member. `shape` 1 drops the
    /// negations and selections (with `CountOnly`, every burst is a
    /// count); `shape` 2 gives some members an edge predicate on `B` (its
    /// bursts are the events).
    fn random_group(next: &mut impl FnMut() -> u64, skel: u64, shape: u64) -> Arc<GroupRuntime> {
        use hamlet_query::{AggFunc, CmpOp, EdgePredicate, QueryId, SelectionPredicate};
        let ty = |t| Pattern::Type(t);
        let not_n = || Pattern::Not(Box::new(Pattern::Type(N)));
        let bs = || Pattern::plus(Pattern::Type(B));
        let is_max = next().is_multiple_of(2);
        let n = 2 + next() % 4;
        let mut cells = skel != 0 || shape != 0;
        let members: Vec<Arc<Query>> = (0..n)
            .map(|i| {
                // Lattice values cannot be un-blocked: no negation there.
                let plain = skel == 2 || shape == 1;
                let form = next() % if plain { 4 } else { 7 };
                cells |= form >= 4;
                let pattern = match form {
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
                        _ if shape == 1 => continue,
                        0 => continue,
                        1 => (CmpOp::Lt, (next() % 10) as f64),
                        2 => (CmpOp::Ge, (next() % 10) as f64),
                        _ => (CmpOp::Lt, -1.0), // rejects every event
                    };
                    cells |= ty == B;
                    selections.push(SelectionPredicate {
                        ty,
                        attr: 0,
                        op,
                        value: hamlet_types::AttrValue::Float(cut),
                    });
                }
                if !cells && i + 1 == n {
                    selections.push(SelectionPredicate {
                        ty: B,
                        attr: 0,
                        op: CmpOp::Ge,
                        value: hamlet_types::AttrValue::Float((next() % 10) as f64),
                    });
                }
                let edges = if shape == 2 && !next().is_multiple_of(3) {
                    let op = [CmpOp::Ge, CmpOp::Lt][(next() % 2) as usize];
                    vec![EdgePredicate {
                        ty: B,
                        cur_attr: 0,
                        op,
                        prev_attr: 0,
                    }]
                } else {
                    vec![]
                };
                let w = Window::tumbling(1000);
                let q = Query::new(
                    QueryId(i as u32),
                    pattern,
                    agg,
                    selections,
                    edges,
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
            let mut next = stream_of(seed);
            let rt = random_group(&mut next, skel, 0);
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
                    .map(|e| rt.cell_by_members(tl, e).mask & share)
                    .filter(|&m| !m.is_empty() && m != share)
                    .count() as u64;

                let before = fast.stats().event_snapshots;
                fast.process_burst(tl, &events, &shared);
                slow.process_burst_slow(tl, &events, &shared);
                prop_assert_eq!(fast.stats().event_snapshots - before, partial);
                let shared = |r: &Run| r.shared(tl).map(|sh| sh.members);
                let terms = fast.shared(tl).map_or(0, |sh| sh.sum_exprs.num_terms());
                prop_assert!(terms <= 3);
                prop_assert_eq!(shared(&fast), shared(&slow));
            }
            prop_assert_eq!(fast.stats().events, slow.stats().events);
            let (f, s) = (*fast.stats(), *slow.stats());
            prop_assert!(f.event_snapshots <= s.event_snapshots);
            prop_assert_eq!(
                RunStats { event_snapshots: 0, ..f },
                RunStats { event_snapshots: 0, ..s }
            );
            prop_assert_eq!(fast.finalize(), slow.finalize());
        }
    }

    /// [`GroupRuntime::divergence`] — the `sc` of every sharing decision,
    /// which no result can show — counts Def. 9 exactly. On random groups
    /// with selections (and, for `shape` 2, edge predicates on `B`), for
    /// every type without an edge predicate, three counts agree: off the
    /// cell column `burst_of` builds, off the same events as
    /// `Burst::Events`, and by brute force — the member rejects the event
    /// while some other candidate accepts it.
    #[test]
    fn divergence_counts_def9_on_cells_and_events() {
        let mut diverged = 0;
        for seed in 0..200u64 {
            let mut next = stream_of(seed);
            let (skel, shape) = (next() % 3, 2 * (seed % 2));
            let rt = random_group(&mut next, skel, shape);
            for tl in 0..rt.template.num_types() {
                if rt.burst_repr(tl) != BurstRepr::Cells {
                    continue;
                }
                let events: Vec<Event> = (0..1 + next() % 8)
                    .map(|i| {
                        let v = hamlet_types::AttrValue::Float((next() % 10) as f64);
                        Event::new(Ts(i), rt.template.types[tl], vec![v])
                    })
                    .collect();
                let cands = rt.candidates[tl];
                let brute: Vec<u64> = (cands.iter())
                    .map(|q| {
                        let diverges = |e: &&Event| {
                            !rt.selects(tl, q, e)
                                && cands.iter().any(|o| o != q && rt.selects(tl, o, e))
                        };
                        events.iter().filter(diverges).count() as u64
                    })
                    .collect();
                let mut cells = Vec::new();
                let [mut from_cells, mut from_events] = [(); 2].map(|_| vec![0; cands.len()]);
                rt.divergence(tl, &rt.burst_of(tl, &events, &mut cells), &mut from_cells);
                rt.divergence(tl, &Burst::Events(&events), &mut from_events);
                assert_eq!(from_cells, brute, "seed {seed}, type {tl}: cells");
                assert_eq!(from_events, brute, "seed {seed}, type {tl}: events");
                diverged += brute.iter().sum::<u64>();
            }
        }
        assert!(diverged > 0, "some event diverged");
    }

    impl Run {
        /// True iff `open` holds exactly the types with a graphlet and
        /// the run a row of `k` cells for exactly the written and open
        /// types.
        fn open_is_exact(&self) -> bool {
            let (nt, rows) = (self.nt(), self.held().iter(self.nt()).count());
            let sized = self.rows.len() == rows && self.cells.len() == rows * self.rt.k();
            sized
                && (0..nt).all(|ty| {
                    let row = self.row_of(ty).map(|r| &self.rows[r]);
                    let held = row.is_some_and(|a| a.shared.is_some() || !a.solos.is_empty());
                    self.open.iter(nt).any(|t| t == ty) == held
                })
        }

        /// [`finalize`](Run::finalize) walking every type and member: the
        /// oracle of the walk over the type sets.
        fn finalize_full_walk(&mut self) -> Vec<MemberOutput> {
            let nt = self.nt();
            for ty in 0..nt {
                self.close_shared(ty);
                self.close_solos(ty, QSet::all(self.rt.k()));
            }
            let tpl = &self.rt.template;
            (0..tpl.k)
                .map(|q| {
                    let (mut raw, mut mm) = (NodeVal::ZERO, self.rt.mm_identity);
                    for ty in (0..nt).filter(|&ty| tpl.end[ty].contains(q)) {
                        raw.add(self.total(ty, q));
                        let closed = self.cell(ty, q).map_or(self.rt.mm_identity, |c| c.mm);
                        mm.fold(closed.0, self.rt.is_min);
                    }
                    let blocked = self.result_blocked.get(q).copied();
                    let raw = raw.minus(blocked.unwrap_or(NodeVal::ZERO));
                    MemberOutput { raw, mm: mm.0 }
                })
                .collect()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The `open` and `written` type sets never miss a type. Random
        /// bursts into random groups — cell, count and edge-predicate
        /// bursts, negations, every skeleton — under never-share,
        /// always-share and a random sharing set per burst: the masked
        /// finalize equals the full walk; a decoded run has the cut run's
        /// `written` and `open` sets, re-encodes to the very same bytes,
        /// and measures and finalizes the same; `open` is exact before and
        /// after decoding and empty after finalizing; and a recycled run —
        /// finalized first or not, as a restore's vacated run is not —
        /// records and measures as `Run::new` does.
        #[test]
        fn type_sets_never_miss_a_type(seed in 0u64..u64::MAX, shape in 0u64..3, policy in 0u64..3) {
            use crate::checkpoint::{Dec, Enc};
            use proptest::prelude::{prop_assert, prop_assert_eq};
            let mut next = stream_of(seed);
            let skel = if shape == 1 { 0 } else { next() % 3 };
            let rt = random_group(&mut next, skel, shape);
            let (k, nt) = (rt.k(), rt.template.num_types());
            let record = |r: &Run| {
                let mut e = Enc::new();
                r.encode(&mut e);
                e.finish()
            };
            let [mut masked, mut full, mut recycled] = [(); 3].map(|_| Run::new(rt.clone()));
            for burst_no in 0..1 + next() % 10 {
                let tl = (next() % nt as u64) as usize;
                let events: Vec<Event> = (0..1 + next() % 6)
                    .map(|i| {
                        let v = hamlet_types::AttrValue::Float((next() % 10) as f64);
                        Event::new(Ts(burst_no * 10 + i), rt.template.types[tl], vec![v])
                    })
                    .collect();
                let shared = match policy {
                    0 => QSet::new(),
                    1 => QSet::all(k),
                    _ => (0..k).filter(|_| next().is_multiple_of(2)).collect(),
                };
                for run in [&mut masked, &mut full, &mut recycled] {
                    run.process_burst(tl, &events, &shared);
                }
            }
            let cut = record(&masked);
            let mut decoded = Run::decode(&mut Dec::new(&cut), rt.clone(), false).unwrap();
            prop_assert_eq!((decoded.written, decoded.open), (masked.written, masked.open));
            prop_assert_eq!(record(&decoded), cut);
            prop_assert_eq!(masked.mem_bytes(), decoded.mem_bytes());
            prop_assert!(masked.open_is_exact() && decoded.open_is_exact());
            let out = masked.finalize();
            prop_assert!(masked.open_is_exact() && masked.open.iter(nt).next().is_none());
            prop_assert_eq!(&out, &full.finalize_full_walk());
            prop_assert_eq!(&out, &decoded.finalize());
            if next().is_multiple_of(2) {
                recycled.finalize();
            }
            recycled.recycle();
            let fresh = Run::new(rt.clone());
            prop_assert_eq!(record(&recycled), record(&fresh));
            prop_assert_eq!(recycled.mem_bytes(), fresh.mem_bytes());
            decoded.recycle();
            prop_assert_eq!(record(&decoded), record(&fresh));
        }
    }

    /// A fresh run records only what it is: its shape, two empty type
    /// sets, two absent blocks, no gaps, an empty snapshot table, an absent
    /// stored-event list per type and zero counters — 122 bytes plus one
    /// per type, whatever the group's width. A record that fell back to
    /// dense rows (33 bytes or more per member and type) fails here.
    #[test]
    fn a_fresh_run_records_no_rows() {
        let mut next = stream_of(7);
        for shape in (0..3).cycle().take(60) {
            let skel = if shape == 1 { 0 } else { next() % 3 };
            let rt = random_group(&mut next, skel, shape);
            let nt = rt.template.num_types();
            let mut e = Enc::new();
            Run::new(rt).encode(&mut e);
            assert_eq!(e.finish().len(), 122 + nt);
        }
    }

    /// A fresh run holds no row, so what it measures does not depend on
    /// its group's shape: runs of 60 random groups (2–5 members over 2–5
    /// types) measure what a run of two members over three types does —
    /// the run and an empty snapshot table.
    #[test]
    fn a_fresh_runs_size_does_not_depend_on_its_shape() {
        let fresh = Run::new(rt_two_queries()).mem_bytes();
        assert_eq!(fresh, size_of::<Run>() + size_of::<SnapTable>());
        let mut next = stream_of(11);
        let mut shapes = std::collections::BTreeSet::new();
        for shape in (0..3).cycle().take(60) {
            let skel = if shape == 1 { 0 } else { next() % 3 };
            let rt = random_group(&mut next, skel, shape);
            shapes.insert((rt.k(), rt.template.num_types()));
            assert_eq!(Run::new(rt).mem_bytes(), fresh);
        }
        assert!(shapes.len() > 4, "{shapes:?}");
    }

    /// After a scripted replay a run measures exactly the rows it holds:
    /// a solo burst of `A` adds `A`'s row; a shared burst of `B` adds
    /// `B`'s, its snapshots and its running sum; `C`, never touched,
    /// holds no row; finalizing drops the running sum and keeps both rows.
    #[test]
    fn mem_bytes_counts_the_rows_a_run_holds() {
        let rt = rt_two_queries();
        let tl = |t| rt.template.local(t).unwrap();
        let row = size_of::<Row>() + rt.k() * size_of::<Member>();
        let mut run = Run::new(rt.clone());
        let fresh = run.mem_bytes();
        run.process_burst(tl(A), &[ev(A, 1), ev(A, 2)], &QSet::new());
        assert_eq!(run.mem_bytes(), fresh + row);
        run.process_burst(tl(B), &[ev(B, 3), ev(B, 4)], &QSet::all(2));
        let sum = run
            .shared(tl(B))
            .expect("B is shared")
            .sum_exprs
            .mem_bytes();
        let snaps = run.snaps.mem_bytes() - size_of::<SnapTable>();
        assert!(snaps > 0 && run.row_of(tl(C)).is_none());
        assert_eq!(run.mem_bytes(), fresh + 2 * row + snaps + sum);
        run.finalize();
        assert_eq!((run.written, run.open), (run.held(), TypeSet(0)));
        assert_eq!(run.mem_bytes(), fresh + 2 * row + snaps);
    }

    /// A template wider than 64 types has no type-set bit for the types
    /// past the 64th, so a record always writes their rows and slots: a
    /// run of 64 members × 65 types that touched types on both sides of
    /// the 64th decodes to the same sets, re-encodes to the same bytes and
    /// finalizes the same.
    #[test]
    fn a_run_wider_than_64_types_round_trips() {
        use crate::checkpoint::Dec;
        let queries: Vec<Arc<Query>> = (0..64)
            .map(|i| {
                let head = EventTypeId(10 + i);
                Arc::new(Query::count_star(
                    i as u32,
                    seq(head, B),
                    Window::tumbling(1000),
                ))
            })
            .collect();
        let plan = crate::workload::analyze(&queries).unwrap();
        let rt = GroupRuntime::new(&plan.groups[0]);
        let nt = rt.template.num_types();
        assert_eq!((rt.k(), nt), (64, 65));
        let record = |r: &Run| {
            let mut e = Enc::new();
            r.encode(&mut e);
            e.finish()
        };
        let mut run = Run::new(rt.clone());
        for (i, ty) in [EventTypeId(10), EventTypeId(73), B]
            .into_iter()
            .enumerate()
        {
            let tl = rt.template.local(ty).unwrap();
            let burst: Vec<Event> = (0..3).map(|t| ev(ty, 10 * i as u64 + t)).collect();
            run.process_burst(tl, &burst, &QSet::all(64));
        }
        let cut = record(&run);
        let mut decoded = Run::decode(&mut Dec::new(&cut), rt.clone(), false).unwrap();
        assert_eq!((decoded.written, decoded.open), (run.written, run.open));
        assert_eq!(record(&decoded), cut);
        assert_eq!(decoded.finalize(), run.finalize());
    }

    /// Past 64 types every type set is full, so a record of a 65-type run
    /// whose `written` or `open` word leaves out a type below the 64th is
    /// corrupt — decoded, it would be a run holding the wrong rows.
    #[test]
    fn a_wide_record_missing_a_type_is_corrupt() {
        use crate::checkpoint::Dec;
        let queries: Vec<Arc<Query>> = (0..64)
            .map(|i| {
                let pat = seq(EventTypeId(10 + i), B);
                Arc::new(Query::count_star(i as u32, pat, Window::tumbling(1000)))
            })
            .collect();
        let plan = crate::workload::analyze(&queries).unwrap();
        let rt = GroupRuntime::new(&plan.groups[0]);
        assert_eq!(rt.template.num_types(), 65);
        let mut run = Run::new(rt.clone());
        run.process_burst(rt.template.local(B).unwrap(), &[ev(B, 1)], &QSet::all(64));
        let mut e = Enc::new();
        run.encode(&mut e);
        let cut = e.finish();
        assert!(Run::decode(&mut Dec::new(&cut), rt.clone(), false).is_ok());
        // The shape is two words; `written`, then `open`, follow it.
        for word in [16, 24] {
            for bit in [0, 7] {
                let mut bad = cut.clone();
                bad[word] ^= 1 << bit;
                let err = Run::decode(&mut Dec::new(&bad), rt.clone(), false).err();
                assert!(
                    matches!(err, Some(CheckpointError::Corrupt(_))),
                    "{word} {bit}"
                );
            }
        }
    }

    /// A run's room is a function of the rows it holds — doubling to 16,
    /// then even, at most every type — so the run a record decodes to
    /// measures what the cut run did, at every size: 17 heads and the
    /// Kleene type of a 20-type, 19-member group, one burst each.
    #[test]
    fn room_follows_the_rows_held() {
        use crate::checkpoint::Dec;
        let queries: Vec<Arc<Query>> = (1..=19)
            .map(|i| {
                Arc::new(Query::count_star(
                    i,
                    seq(EventTypeId(10 + i as u16), B),
                    Window::tumbling(1000),
                ))
            })
            .collect();
        let plan = crate::workload::analyze(&queries).unwrap();
        let rt = GroupRuntime::new(&plan.groups[0]);
        assert_eq!((rt.k(), rt.template.num_types()), (19, 20));
        let mut run = Run::new(rt.clone());
        let mut rooms = Vec::new();
        for (t, ty) in (11..=27).map(EventTypeId).chain([B]).enumerate() {
            run.process_burst(
                rt.template.local(ty).unwrap(),
                &[ev(ty, t as u64)],
                &QSet::new(),
            );
            assert_eq!(run.cells.capacity(), run.rows.capacity() * rt.k());
            rooms.push(run.rows.capacity());
            let mut e = Enc::new();
            run.encode(&mut e);
            let decoded = Run::decode(&mut Dec::new(&e.finish()), rt.clone(), false).unwrap();
            assert_eq!(
                decoded.mem_bytes(),
                run.mem_bytes(),
                "{} rows",
                run.rows.len()
            );
        }
        let want = [
            1, 2, 4, 4, 8, 8, 8, 8, 16, 16, 16, 16, 16, 16, 16, 16, 18, 18,
        ];
        assert_eq!(rooms, want);
    }

    /// Lent spares, a run trades its full store for a bigger one and
    /// leaves the old one there, and recycled it leaves its own: the next
    /// run takes those, and each holds room for just its two rows.
    #[test]
    fn lent_stores_circulate() {
        let rt = rt_two_queries();
        let tl = |t| rt.template.local(t).unwrap();
        let mut spares = Some(Box::<Stores>::default());
        // Spare stores of one row and of two.
        let classes = |s: &Option<Box<Stores>>| -> [usize; 2] {
            let by_rows = &s.as_ref().unwrap().0;
            [0, 1].map(|r| by_rows.get(r).map_or(0, Vec::len))
        };
        let mut run = Run::new(rt.clone());
        for _ in 0..2 {
            run.lend(&mut spares);
            run.process_burst(tl(A), &[ev(A, 1)], &QSet::new());
            let one = run.rows.as_ptr();
            run.process_burst(tl(B), &[ev(B, 2), ev(B, 3)], &QSet::all(2));
            assert_eq!((run.rows.capacity(), run.cells.capacity()), (2, 2 * rt.k()));
            assert_ne!(run.rows.as_ptr(), one, "a full store is traded");
            run.lend(&mut spares);
            assert_eq!(classes(&spares), [1, 0], "the one-row store is spare");
            run.lend(&mut spares);
            run.recycle();
            run.lend(&mut spares);
            assert_eq!(classes(&spares), [1, 1]);
            assert_eq!(run.mem_bytes(), Run::new(rt.clone()).mem_bytes());
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
