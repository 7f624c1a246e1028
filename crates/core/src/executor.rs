//! The HAMLET executor (Fig. 2): stream partitioning, pane-aligned burst
//! buffering, per-window runs, optimizer invocation, and result emission.
//!
//! For each share group the executor partitions the stream by the group's
//! grouping/equivalence attributes (§2.2), tracks the window instances that
//! contain each event (`WITHIN`/`SLIDE`), buffers consecutive same-type
//! events into bursts bounded by pane boundaries (Def. 10), asks the
//! optimizer for a sharing decision per burst (§4.2), and feeds the burst
//! to the window's [`Run`](crate::run::Run). When the watermark (event
//! time) passes a window's end, the run is finalized and one result per
//! member query and group-by key is emitted.
//!
//! This module holds the engine itself — configuration, result and
//! statistics types, [`HamletEngine`] with the workload compiler and the
//! accessors. What the engine *does* lives beside it, one file per path:
//! `crate::batch` (an event's way in), `crate::expiry` (a window's
//! way out), `crate::churn` (the workload changing underneath) and
//! [`crate::record`] (the state as bytes).

use crate::batch::BatchScratch;
use crate::burst::{compile_groups, Selections};
use crate::expiry::{ExpiryEntry, ExpiryIndex, RunSlab, Runs};
use crate::general::{self, CombineKind};
use crate::keyhash::{KeyMap, KeyState, KeyTable};
use crate::metrics::{LatencyRecorder, MemoryGauge};
use crate::optimizer::SharingPolicy;
use crate::record::{DirtyLog, PendingSlot};
use crate::run::{BurstCtx, GroupRuntime, MemberOutput, RunStats};
use crate::workload::{self, WorkloadError};
use hamlet_obs::{GroupMetrics, SpanRecorder, SpanStart, Stage};
use hamlet_query::{AggFunc, Query, QueryId, Window};
use hamlet_types::{AttrValue, Event, GroupKey, Ts, TypeRegistry};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::churn::{ChurnError, ChurnOp, ChurnReport, GroupPlacement};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Sharing policy (dynamic HAMLET, static always-share, or GRETA-style
    /// never-share).
    pub policy: SharingPolicy,
    /// Sample the byte-accounted state size every this many events
    /// (0 disables the memory gauge). A sample reads a counter
    /// ([`HamletEngine::state_bytes`] is O(1)), so the interval sets the
    /// gauge's resolution, not a cost.
    pub mem_sample_every: u64,
    /// Track per-result latency with wall-clock arrival stamps.
    pub track_latency: bool,
    /// Shared-nothing sharding: `(index, total)` makes this engine own
    /// only the partitions whose key hashes to `index` — the building
    /// block of [`crate::parallel::ParallelEngine`]. `None` owns all.
    pub shard: Option<(u32, u32)>,
    /// Maintain the per-share-group observability registry
    /// ([`HamletEngine::group_metrics`]): live counters per group plus
    /// the Def. 12 benefit priced at placement. Off, `group_metrics()`
    /// is empty and the per-group counter sites vanish (the
    /// `fig_obs` sweep prices the difference; it is budgeted ≤ 3%).
    pub obs: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            policy: SharingPolicy::Dynamic,
            mem_sample_every: 256,
            track_latency: true,
            shard: None,
            obs: true,
        }
    }
}

/// A rendered aggregation value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AggValue {
    /// `COUNT(*)` / `COUNT(E)` result (ring-valued, wraps at 2⁶⁴ like the
    /// reference implementation's `long`).
    Count(u64),
    /// `SUM` / `AVG` / `MIN` / `MAX` result.
    Float(f64),
    /// No value (e.g. `MIN` over an empty trend set).
    Null,
}

impl AggValue {
    /// Numeric view (Null → 0, counts as f64).
    pub fn as_f64(&self) -> f64 {
        match self {
            AggValue::Count(c) => *c as f64,
            AggValue::Float(f) => *f,
            AggValue::Null => 0.0,
        }
    }

    /// Count view (panics on floats — intended for `COUNT` queries).
    pub fn as_count(&self) -> u64 {
        match self {
            AggValue::Count(c) => *c,
            AggValue::Null => 0,
            AggValue::Float(_) => panic!("float aggregate read as count"),
        }
    }
}

/// One aggregation result: query × group-by key × window instance.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowResult {
    /// The (original) query that produced the result.
    pub query: QueryId,
    /// Group-by / equivalence key of the partition.
    pub group_key: GroupKey,
    /// Window instance start.
    pub window_start: Ts,
    /// The aggregate.
    pub value: AggValue,
}

/// Engine construction errors.
#[derive(Debug)]
pub enum EngineError {
    /// Workload analysis failed.
    Workload(WorkloadError),
    /// A general (`OR`/`AND`) query could not be decomposed.
    General(QueryId, general::GeneralError),
    /// Unsupported clause combination.
    Unsupported(String),
    /// A churn schedule (timestamped add/remove ops validated up front,
    /// e.g. a pipeline churn script) is invalid against the workload it
    /// evolves.
    Churn(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Workload(e) => write!(f, "workload analysis: {e}"),
            EngineError::General(q, e) => write!(f, "query {q:?}: {e}"),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
            EngineError::Churn(m) => write!(f, "churn schedule: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Aggregated executor statistics (feeds §6.2's figures).
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Accumulated run counters (snapshots, graphlets, merges, splits …).
    pub runs: RunStats,
    /// Optimizer decisions taken.
    pub decisions: u64,
    /// Wall time spent deciding — an estimate: one decision in 16 is
    /// timed and counts for 16 (a clock pair costs about what a decision
    /// does), where `decisions` is exact. Measured only under
    /// `EngineConfig::obs` or `track_latency`, else zero. This repository
    /// measures 2.6–2.7% of processing (`figures overhead --quick`,
    /// EXPERIMENTS.md "One divergence source"); the paper (§6.2) reports
    /// < 0.2% of latency for statistics-based decisions.
    pub decision_time: Duration,
    /// Window results emitted.
    pub windows_emitted: u64,
    /// Events accepted by at least one group.
    pub events_routed: u64,
    /// Entries pushed into the watermark expiration index (= runs
    /// created; each live run is indexed exactly once).
    pub expiry_pushes: u64,
    /// Index entries popped whose run was already gone (lazy
    /// invalidation); stays 0 unless a run is drained out of band.
    pub expiry_tombstones: u64,
    /// Window-instance contributions skipped because the event arrived
    /// after its window instance had already been emitted (the engine's
    /// out-of-order safety net; stays 0 on in-order streams and behind
    /// a correctly-slacked pipeline reorder stage).
    pub late_skips: u64,
}

impl EngineStats {
    /// Accumulates another engine's counters, e.g. to aggregate the
    /// per-worker statistics of a [`crate::parallel::ParallelEngine`] run
    /// into one workload-level view.
    pub fn merge(&mut self, o: &EngineStats) {
        self.runs.add(&o.runs);
        self.decisions += o.decisions;
        self.decision_time += o.decision_time;
        self.windows_emitted += o.windows_emitted;
        self.events_routed += o.events_routed;
        self.expiry_pushes += o.expiry_pushes;
        self.expiry_tombstones += o.expiry_tombstones;
        self.late_skips += o.late_skips;
    }
}

crate::checkpoint::codec_struct!(EngineStats {
    runs,
    decisions,
    decision_time,
    windows_emitted,
    events_routed,
    expiry_pushes,
    expiry_tombstones,
    late_skips,
});

/// Maps a partition key to its owning shard under `total`-way sharding —
/// the single hash both the engine's `EngineConfig::shard` filter and the
/// parallel router use, so they can never disagree.
pub(crate) fn shard_index(key: &GroupKey, total: u32) -> u32 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % total as u64) as u32
}

/// Sorts window results into the canonical report order: ascending
/// `(window_start, query, group_key)`. This is the order
/// [`crate::parallel::ParallelReport::results`] guarantees; applying it to
/// a single-threaded run makes the two byte-comparable.
pub fn sort_results(results: &mut [WindowResult]) {
    results.sort_by(|a, b| {
        (a.window_start, a.query)
            .cmp(&(b.window_start, b.query))
            .then_with(|| a.group_key.total_cmp(&b.group_key))
    });
}

/// One share group as compiled: what every engine running the plan
/// reads and none of them changes.
pub(crate) struct GroupPlan {
    pub(crate) rt: Arc<GroupRuntime>,
    pub(crate) window: Window,
    pub(crate) pane: u64,
    pub(crate) partition_attrs: Vec<Arc<str>>,
    /// `partition_slots[type][attr_pos]` — the schema slot of each
    /// partition attribute, resolved once at build time so the hot path
    /// never does per-event attribute-name lookups (string compares).
    partition_slots: Vec<Vec<Option<usize>>>,
    /// The group's key class: the index of its partition-slot table among
    /// the plan's distinct ones, and of the engine's key table its
    /// partitions are addressed through.
    pub(crate) class: u32,
    /// Per member: the combiner it is a half of, if it is a sub-query of
    /// a decomposed general query (`sub_of`, resolved once).
    pub(crate) combiner_of: Vec<Option<usize>>,
    /// The member signature a churn matches groups by: `(original query
    /// id, half tag)` per member, in member order. Half ids of decomposed
    /// general queries are renumbered whenever the query set changes
    /// (`compile` numbers them from `max(id)+1`), so identity goes
    /// through the original id plus which half it is (0 = the query
    /// itself, 1 = left half, 2 = right half).
    pub(crate) sig: Vec<(u32, u8)>,
}

impl GroupPlan {
    /// Writes `e`'s partition key into `key` (cleared first) through the
    /// pre-resolved slots: no name lookups, and no allocation beyond what
    /// `key` already owns. Every classifier — the batch scan, the shard
    /// filter, the router's `shard_mask` — builds its keys here.
    #[inline]
    pub(crate) fn partition_key_into(&self, e: &Event, key: &mut GroupKey) {
        key.0.clear();
        for slot in &self.partition_slots[e.ty.idx()] {
            key.0.push(match slot.and_then(|i| e.attr(i)) {
                Some(v) => v.clone(),
                None => AttrValue::Int(0),
            });
        }
    }
}

/// One share group's state in one engine, parallel to the plan's
/// [`GroupPlan`] of the same index.
#[derive(Default)]
pub(crate) struct GroupState {
    /// Per key id of the group's class ([`KeyTable`]), that partition's
    /// live runs as handles into `slab`; empty for a key the group holds
    /// no run of.
    pub(crate) runs: Vec<Runs>,
    /// The group's runs (see [`RunSlab`]).
    pub(crate) slab: RunSlab,
}

impl GroupState {
    /// Partition `id`'s run list, grown into if new, and the slab.
    pub(crate) fn partition(&mut self, id: u32) -> (&mut Runs, &mut RunSlab) {
        let id = id as usize;
        if self.runs.len() <= id {
            self.runs.resize_with(id + 1, Runs::default);
        }
        (&mut self.runs[id], &mut self.slab)
    }
}

/// Frees key `id` of class `ci` unless a group of the class still holds a
/// run under it — the one moment a key leaves its table.
pub(crate) fn release_key(
    plan: &CompiledWorkload,
    groups: &[GroupState],
    tables: &mut [KeyTable],
    ci: usize,
    id: u32,
) {
    let held = plan.classes[ci].iter().any(|&gi| {
        (groups[gi as usize].runs.get(id as usize)).is_some_and(|runs| !runs.is_empty())
    });
    if !held {
        tables[ci].free(id);
    }
}

/// Identifies a decomposed general query's halves.
#[derive(Clone)]
pub(crate) struct Combiner {
    pub(crate) orig: QueryId,
    pub(crate) kind: CombineKind,
    pub(crate) same_pattern: bool,
    pub(crate) left: QueryId,
    pub(crate) right: QueryId,
    /// The query's window length: a pending half's window ends at
    /// `start + within`.
    pub(crate) within: u64,
}

/// Everything [`HamletEngine::compile`] derives from a query list: the
/// share groups with their runtimes, the general-query combiners, and
/// the classifier's routing/class tables. Built identically by
/// [`HamletEngine::new`] and by runtime query churn, so a churned engine
/// and a fresh engine over the same final query set agree on every
/// compiled structure (and therefore on the workload fingerprint). An
/// engine holds it behind an `Arc` and never changes it: a sharded
/// runtime compiles it once per workload change and every shard engine
/// holds the same one.
pub(crate) struct CompiledWorkload {
    /// The registry the queries were compiled against.
    pub(crate) reg: Arc<TypeRegistry>,
    /// The (original, pre-decomposition) query list compiled.
    pub(crate) queries: Vec<Query>,
    pub(crate) groups: Vec<GroupPlan>,
    pub(crate) combiners: Vec<Combiner>,
    /// `route[type]` — the `(group, local type, key class)` rows of every
    /// group the type is local to, so the batched scan only touches
    /// matching groups. Key classes number groups with identical
    /// partition-slot tables (one class = one key build per event).
    pub(crate) route: Vec<Vec<(u32, u32, u32)>>,
    /// `key_reps[type]` — one representative group per key class among
    /// `route[type]`'s rows: the keys (and shard hashes) an event of the
    /// type carries, each built once ([`HamletEngine::shard_mask`]).
    pub(crate) key_reps: Vec<Vec<u32>>,
    /// `classes[class]` — the groups of each key class, ascending.
    pub(crate) classes: Vec<Vec<u32>>,
    /// `selections[type]` — the distinct selections and skeleton values
    /// every group that buffers the type as cells reads off its events,
    /// interned across groups like the key classes: the scan
    /// evaluates each once per event ([`crate::burst::Selections`]).
    pub(crate) selections: Vec<Arc<Selections>>,
    /// The widest row of `selections`.
    pub(crate) row: usize,
    /// The window grid: the gcd of every query's `within` and `slide`.
    /// Window instances start on multiples of their slide, so every
    /// window end is a multiple of it — an event can close a window only
    /// by reaching the next one. 1 for an empty workload.
    pub(crate) grid: u64,
}

impl CompiledWorkload {
    /// The plan's first window end after `wm`: over the share groups'
    /// windows, the least end of the first instance containing `wm`
    /// (`u64::MAX` for an empty plan). Every live run and waiting half
    /// belongs to a window of the plan, so once the drain at `wm` is done
    /// none of them closes before it.
    pub(crate) fn next_end(&self, wm: Ts) -> u64 {
        (self.groups.iter())
            .filter_map(|g| Some(g.window.end_of(g.window.instances_containing(wm).next()?)))
            .min()
            .map_or(u64::MAX, Ts::ticks)
    }
}

/// The multi-query trend aggregation engine (§2.2).
pub struct HamletEngine {
    pub(crate) cfg: EngineConfig,
    /// The compiled workload the engine runs; replaced whole by a churn.
    pub(crate) plan: Arc<CompiledWorkload>,
    /// Per share group of `plan`, the engine's state of it.
    pub(crate) groups: Vec<GroupState>,
    /// Per key class of `plan`, the keys its groups' partitions are
    /// addressed by (see [`KeyTable`]).
    pub(crate) tables: Vec<KeyTable>,
    /// `(class, key id)` of every run list that emptied since the last
    /// [`release_emptied`](Self::release_emptied) — scratch only.
    pub(crate) emptied: Vec<(u32, u32)>,
    /// (combiner, key, window) → the half that arrived first.
    pub(crate) pending: KeyMap<PendingSlot, (QueryId, u64)>,
    /// Watermark expiration index: every live run, across all groups,
    /// in a bucket of its window end (see [`ExpiryIndex`]).
    pub(crate) expiry: ExpiryIndex,
    /// Byte-accounted size of the live runs, kept by deltas where it
    /// changes (see [`Self::state_bytes`]).
    pub(crate) run_bytes: usize,
    /// Reused buffers of `emit_expired`: the expired runs of one drain,
    /// and one run's member outputs — scratch only.
    pub(crate) finished: Vec<ExpiryEntry>,
    pub(crate) outputs: Vec<MemberOutput>,
    /// Reused buffer of `emit_expired`: the arrival stamps of one drain's
    /// runs, sampled together when it ends — scratch only.
    pub(crate) arrivals: Vec<Instant>,
    pub(crate) stats: EngineStats,
    pub(crate) latency: LatencyRecorder,
    pub(crate) gauge: MemoryGauge,
    /// Reusable batch-path buffers (see [`BatchScratch`]).
    pub(crate) scratch: BatchScratch,
    /// Reused optimizer inputs of the per-burst decision — scratch only.
    pub(crate) burst_ctx: BurstCtx,
    pub(crate) event_counter: u64,
    /// Monotone event-time watermark: the maximum event timestamp seen.
    /// Expiry only ever advances with it, so a window instance that was
    /// emitted stays emitted — late contributions to it are skipped (and
    /// counted in [`EngineStats::late_skips`]) instead of resurrecting
    /// the window and double-emitting it at flush.
    pub(crate) watermark: Option<Ts>,
    /// Per-share-group observability registry (`cfg.obs`): one
    /// [`GroupMetrics`] per group, parallel to `groups`. Empty when
    /// disabled, so every counter site is a single `get_mut` miss.
    pub(crate) obs: Vec<GroupMetrics>,
    /// Attached stage-span recorder and the lane to record on
    /// (`None` = spans off; see [`Self::attach_span_recorder`]).
    span: Option<(Arc<SpanRecorder>, u32)>,
    /// Workload epoch: 0 at construction, +1 per successful churn.
    /// Stamped into checkpoints so restore can reject state taken under
    /// a different query set generation.
    pub(crate) epoch: u64,
    /// What changed since the last chain cut (see [`DirtyLog`]).
    pub(crate) dirty: DirtyLog,
    /// The seed of every map above keyed by a partition key.
    pub(crate) keys: KeyState,
}

impl HamletEngine {
    /// Compiles a workload and builds the engine (§3.1 pre-processing).
    pub fn new(
        reg: Arc<TypeRegistry>,
        queries: Vec<Query>,
        cfg: EngineConfig,
    ) -> Result<HamletEngine, EngineError> {
        Self::compile(&reg, queries).map(|plan| Self::from_plan(cfg, Arc::new(plan)))
    }

    /// Builds an engine that runs `plan` and holds it rather than a copy:
    /// every engine built from one `Arc` shares its tables and group
    /// runtimes.
    pub(crate) fn from_plan(cfg: EngineConfig, plan: Arc<CompiledWorkload>) -> HamletEngine {
        let keys = KeyState::new();
        let mut eng = HamletEngine {
            cfg,
            groups: (plan.groups.iter())
                .map(|_| GroupState::default())
                .collect(),
            tables: plan.classes.iter().map(|_| KeyTable::new(keys)).collect(),
            emptied: Vec::new(),
            pending: KeyMap::with_hasher(keys),
            expiry: ExpiryIndex::default(),
            run_bytes: 0,
            finished: Vec::new(),
            outputs: Vec::new(),
            arrivals: Vec::new(),
            stats: EngineStats::default(),
            latency: LatencyRecorder::new(),
            gauge: MemoryGauge::new(),
            scratch: BatchScratch::new(&plan),
            plan,
            burst_ctx: BurstCtx::default(),
            obs: Vec::new(),
            span: None,
            event_counter: 0,
            watermark: None,
            epoch: 0,
            dirty: DirtyLog::new(keys),
            keys,
        };
        // Every group placed as a churn barrier would, counters at zero.
        eng.place(&vec![None; eng.groups.len()], Vec::new());
        eng
    }

    /// Compiles a query list into executable share groups: decomposes
    /// general patterns, clusters by sharability, builds the per-group
    /// runtimes and the batched path's routing tables. Deterministic in
    /// the query list, so churn and `new` agree structure-for-structure.
    pub(crate) fn compile(
        reg: &Arc<TypeRegistry>,
        queries: Vec<Query>,
    ) -> Result<CompiledWorkload, EngineError> {
        let mut next_id = queries.iter().map(|q| q.id.0 + 1).max().unwrap_or(0);
        let mut simple: Vec<Arc<Query>> = Vec::new();
        let mut combiners = Vec::new();
        let mut sub_of = HashMap::new();
        for q in &queries {
            if !q.pattern.negated_types().is_empty()
                && matches!(q.agg, AggFunc::Min(..) | AggFunc::Max(..))
            {
                return Err(EngineError::Unsupported(format!(
                    "query {:?}: MIN/MAX with negation (lattice values cannot be \
                     un-blocked; see ARCHITECTURE.md, \"Deviations from the paper\")",
                    q.id
                )));
            }
            match general::decompose(q, QueryId(next_id), QueryId(next_id + 1))
                .map_err(|e| EngineError::General(q.id, e))?
            {
                Some(d) => {
                    let ci = combiners.len();
                    sub_of.insert(d.left.id, ci);
                    sub_of.insert(d.right.id, ci);
                    combiners.push(Combiner {
                        orig: q.id,
                        kind: d.kind,
                        same_pattern: d.same_pattern,
                        left: d.left.id,
                        right: d.right.id,
                        within: q.window.within,
                    });
                    simple.push(Arc::new(d.left));
                    simple.push(Arc::new(d.right));
                    next_id += 2;
                }
                None => simple.push(Arc::new(q.clone())),
            }
        }
        let plan = workload::analyze(&simple).map_err(EngineError::Workload)?;
        let (rts, mut selections) = compile_groups(&plan.groups);
        selections.resize_with(reg.len(), Default::default);
        let mut groups: Vec<GroupPlan> = (plan.groups.iter().zip(rts))
            .map(|(g, rt)| {
                let pane = hamlet_types::time::gcd(g.window.within, g.window.slide);
                let partition_slots = (0..reg.len())
                    .map(|t| {
                        let id = hamlet_types::EventTypeId(t as u16);
                        g.partition_attrs
                            .iter()
                            .map(|name| reg.attr_index(id, name))
                            .collect()
                    })
                    .collect();
                let combiner_of: Vec<Option<usize>> = (rt.queries.iter())
                    .map(|q| sub_of.get(&q.id).copied())
                    .collect();
                let sig = (rt.queries.iter().zip(&combiner_of))
                    .map(|(q, ci)| match *ci {
                        None => (q.id.0, 0),
                        Some(ci) => {
                            let c = &combiners[ci];
                            (c.orig.0, if q.id == c.left { 1 } else { 2 })
                        }
                    })
                    .collect();
                GroupPlan {
                    class: 0,
                    combiner_of,
                    sig,
                    rt,
                    window: g.window,
                    pane: pane.max(1),
                    partition_attrs: g.partition_attrs.clone(),
                    partition_slots,
                }
            })
            .collect();
        // Key classes: one per distinct partition-slot table.
        let mut class_tables = Vec::new();
        let class_of: Vec<u32> = (groups.iter())
            .map(|g| intern(&mut class_tables, &g.partition_slots))
            .collect();
        let mut classes = vec![Vec::new(); class_tables.len()];
        for (gi, (g, class)) in (0u32..).zip(groups.iter_mut().zip(class_of)) {
            g.class = class;
            classes[class as usize].push(gi);
        }
        let route: Vec<Vec<(u32, u32, u32)>> = (0..reg.len())
            .map(|t| {
                let id = hamlet_types::EventTypeId(t as u16);
                (0u32..)
                    .zip(&groups)
                    .filter_map(|(gi, g)| {
                        g.rt.template.local(id).map(|tl| (gi, tl as u32, g.class))
                    })
                    .collect()
            })
            .collect();
        let key_reps = route
            .iter()
            .map(|rows| {
                let (mut seen, mut reps) = (Vec::new(), Vec::new());
                for &(gi, _, class) in rows {
                    if !seen.contains(&class) {
                        seen.push(class);
                        reps.push(gi);
                    }
                }
                reps
            })
            .collect();
        let row = selections.iter().map(|s| s.width()).max().unwrap_or(0);
        let spans = queries
            .iter()
            .flat_map(|q| [q.window.within, q.window.slide]);
        Ok(CompiledWorkload {
            reg: reg.clone(),
            grid: hamlet_types::time::gcd_all(spans).unwrap_or(1).max(1),
            queries,
            groups,
            combiners,
            route,
            key_reps,
            classes,
            selections,
            row,
        })
    }

    /// Number of share groups (singletons included).
    pub fn num_groups(&self) -> usize {
        self.plan.groups.len()
    }

    /// Event-time watermark: the maximum event timestamp processed so
    /// far (`None` before the first event). Windows whose end is at or
    /// behind it have been emitted and will never be emitted again.
    pub fn watermark(&self) -> Option<Ts> {
        self.watermark
    }

    /// Renders the compiled sharing plan: share groups, their members,
    /// windows, panes, aggregation skeletons, and the merged template's
    /// labeled transitions (Fig. 3(b)) with sharable Kleene types
    /// highlighted (Def. 4). Useful as an `EXPLAIN` for workloads.
    pub fn explain(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let (plan, reg) = (&self.plan, &self.plan.reg);
        let _ = writeln!(out, "workload plan: {} share group(s)", plan.groups.len());
        for (gi, g) in plan.groups.iter().enumerate() {
            let tpl = &g.rt.template;
            let members: Vec<String> = g.rt.queries.iter().map(|q| format!("{}", q.id)).collect();
            let _ = writeln!(
                out,
                "group {gi}: members [{}], WITHIN {} SLIDE {} (pane {}), partition by [{}], skeleton {:?}",
                members.join(", "),
                g.window.within,
                g.window.slide,
                g.pane,
                g.partition_attrs
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                g.rt.skeleton,
            );
            for (tl, ty) in tpl.types.iter().enumerate() {
                if tpl.sharable[tl] {
                    let _ = writeln!(
                        out,
                        "  sharable Kleene sub-pattern: {}+ (members {:?})",
                        reg.name(*ty),
                        tpl.self_loop[tl].iter().collect::<Vec<_>>(),
                    );
                }
            }
            for ((from, to), qs) in tpl.labeled_edges() {
                let _ = writeln!(
                    out,
                    "  {} -> {} [{}]",
                    reg.name(from),
                    reg.name(to),
                    qs.iter()
                        .map(|q| format!("{}", g.rt.queries[*q].id))
                        .collect::<Vec<_>>()
                        .join(", "),
                );
            }
        }
        out
    }

    /// Engine statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Per-share-group observability registry: one [`GroupMetrics`] per
    /// compiled share group (parallel to the group order `explain`
    /// prints), with the Def. 12 benefit and sharing decision priced at
    /// placement and re-priced at each churn epoch. Empty when
    /// [`EngineConfig::obs`] is off.
    pub fn group_metrics(&self) -> &[GroupMetrics] {
        &self.obs
    }

    /// Attaches a stage-span recorder; the engine records
    /// [`Stage::ProcessBatch`] (one span per [`Self::process_batch`]
    /// call), [`Stage::ExpiryDrain`] (non-empty watermark drains), and
    /// [`Stage::Flush`] on `lane`. Pipeline workers attach their
    /// shard's engine at lane `1 + worker_index` (lane 0 is ingest).
    pub fn attach_span_recorder(&mut self, rec: Arc<SpanRecorder>, lane: u32) {
        self.span = Some((rec, lane));
    }

    /// Opens a span on the attached recorder (`None` = spans off).
    pub(crate) fn span_start(&self) -> Option<SpanStart> {
        self.span.as_ref().map(|(rec, _)| rec.start())
    }

    /// Closes a span opened by [`span_start`](Self::span_start).
    pub(crate) fn span_end(&self, stage: Stage, t: Option<SpanStart>, wm: Option<u64>, n: u64) {
        if let (Some((rec, lane)), Some(t)) = (&self.span, t) {
            rec.record(*lane, stage, t, wm, n);
        }
    }

    /// Per-result latency recorder.
    pub fn latency(&self) -> &LatencyRecorder {
        &self.latency
    }

    /// Peak byte-accounted state (§6.1 memory metric): the largest
    /// [`state_bytes`](Self::state_bytes) the memory gauge sampled — every
    /// [`EngineConfig::mem_sample_every`] events and once at
    /// [`flush`](Self::flush), before the drain.
    pub fn peak_memory(&self) -> usize {
        self.gauge.peak()
    }

    /// Current byte-accounted state: live runs, burst buffers, and the
    /// watermark expiration index — everything a checkpoint carries, and
    /// what the memory gauge (peak-memory metric, §6.1) samples.
    ///
    /// O(1): the run bytes are a counter kept by deltas at the places they
    /// change — a run's creation, an append to its pending burst (by what
    /// was appended), the replay of a burst (the run is re-measured once),
    /// its release — and re-derived by a walk over the live runs only
    /// after a restore or a churn. Recycled runs waiting on a group's free
    /// list are not state and are not counted; there are at most as many
    /// as the group ever had live at once, and `flush()` releases them.
    pub fn state_bytes(&self) -> usize {
        debug_assert_eq!(self.run_bytes, self.walk_run_bytes());
        self.run_bytes + self.expiry.len() * std::mem::size_of::<ExpiryEntry>()
    }

    /// What `run_bytes` counts, by definition: every live run, reached
    /// through its key, measured. The oracle of the counter — debug builds
    /// compare the two at every [`state_bytes`](Self::state_bytes) call.
    pub(crate) fn walk_run_bytes(&self) -> usize {
        let mut b = 0;
        for g in &self.groups {
            for runs in &g.runs {
                for &(_, handle) in runs.as_slice() {
                    b += g.slab.get(handle).rs.mem_bytes();
                }
            }
        }
        b
    }

    /// Live entries in the watermark expiration index (= live runs, plus
    /// any not-yet-popped tombstones).
    pub fn expiry_index_len(&self) -> usize {
        self.expiry.len()
    }

    /// The engine's workload epoch: 0 at construction, +1 per successful
    /// [`add_query`](Self::add_query) / [`remove_query`](Self::remove_query).
    /// Every checkpoint is stamped with it, and [`restore`](Self::restore)
    /// rejects blobs from a different epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The registered (original, pre-decomposition) query set.
    pub fn queries(&self) -> &[Query] {
        &self.plan.queries
    }
}

/// The index of `x` among the distinct values seen so far, in order of
/// first appearance (`x` is appended if it is new).
fn intern<T: PartialEq>(seen: &mut Vec<T>, x: T) -> u32 {
    let i = seen.iter().position(|s| *s == x).unwrap_or(seen.len());
    if i == seen.len() {
        seen.push(x);
    }
    i as u32
}

/// Renders a member's raw output according to its aggregation function.
pub fn render(agg: &AggFunc, o: &MemberOutput) -> AggValue {
    match agg {
        AggFunc::CountStar => AggValue::Count(o.raw.count.0),
        AggFunc::CountType(_) => AggValue::Count(o.raw.cnt.0),
        AggFunc::Sum(_, _) => AggValue::Float(crate::agg::attr_of_ring(o.raw.sum)),
        AggFunc::Avg(_, _) => {
            if o.raw.cnt.is_zero() {
                AggValue::Null
            } else {
                AggValue::Float(crate::agg::attr_of_ring(o.raw.sum) / o.raw.cnt.0 as f64)
            }
        }
        AggFunc::Min(_, _) | AggFunc::Max(_, _) => {
            if o.mm.is_finite() {
                AggValue::Float(o.mm)
            } else {
                AggValue::Null
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_query::Pattern;
    use hamlet_types::EventTypeId;
    use std::time::Instant;

    fn registry() -> (Arc<TypeRegistry>, EventTypeId, EventTypeId, EventTypeId) {
        let mut reg = TypeRegistry::new();
        let a = reg.register("A", &["g", "v"]);
        let b = reg.register("B", &["g", "v"]);
        let c = reg.register("C", &["g", "v"]);
        (Arc::new(reg), a, b, c)
    }

    fn seq(a: EventTypeId, b: EventTypeId) -> Pattern {
        Pattern::seq(vec![Pattern::Type(a), Pattern::plus(Pattern::Type(b))])
    }

    /// Which shard owns a key decides which shard record of a checkpoint
    /// container holds it, so `shard_index` is pinned: fixed keys of
    /// every value kind land where they always have, at 2, 4 and 64
    /// shards — whatever hasher the engine's own maps use.
    #[test]
    fn shard_placement_is_pinned() {
        let keys = [
            GroupKey(vec![AttrValue::Int(42)]),
            GroupKey(vec![AttrValue::Float(2.5)]),
            GroupKey(vec![AttrValue::from("downtown")]),
            GroupKey(vec![AttrValue::Int(7), AttrValue::from("east")]),
            GroupKey::empty(),
        ];
        let placed: Vec<[u32; 3]> = (keys.iter())
            .map(|k| [2, 4, 64].map(|total| shard_index(k, total)))
            .collect();
        assert_eq!(
            placed,
            [[0, 2, 54], [1, 3, 55], [1, 1, 13], [0, 0, 52], [1, 1, 5]]
        );
    }

    fn ev(reg: &TypeRegistry, ty: EventTypeId, t: u64, g: i64, v: f64) -> Event {
        hamlet_types::EventBuilder::new(reg, ty, t)
            .attr("g", g)
            .attr("v", v)
            .build()
    }

    fn collect(
        engine: &mut HamletEngine,
        events: impl IntoIterator<Item = Event>,
    ) -> Vec<WindowResult> {
        let mut out = Vec::new();
        for e in events {
            out.extend(engine.process(&e));
        }
        out.extend(engine.flush());
        out
    }

    #[test]
    fn tumbling_window_counts() {
        let (reg, a, b, c) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(10));
        let q2 = Query::count_star(2, seq(c, b), Window::tumbling(10));
        let mut eng =
            HamletEngine::new(reg.clone(), vec![q1, q2], EngineConfig::default()).unwrap();
        assert_eq!(eng.num_groups(), 1);
        // Window [0,10): a@1, c@2, b@3, b@4 → q1: trends (a,b3),(a,b4),
        // (a,b3,b4) = 3; q2 likewise = 3.
        // Window [10,20): a@11, b@12 → q1: 1; q2: 0.
        let evs = vec![
            ev(&reg, a, 1, 0, 0.0),
            ev(&reg, c, 2, 0, 0.0),
            ev(&reg, b, 3, 0, 0.0),
            ev(&reg, b, 4, 0, 0.0),
            ev(&reg, a, 11, 0, 0.0),
            ev(&reg, b, 12, 0, 0.0),
        ];
        let mut results = collect(&mut eng, evs);
        results.sort_by_key(|r| (r.window_start, r.query));
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].value, AggValue::Count(3)); // q1 w0
        assert_eq!(results[1].value, AggValue::Count(3)); // q2 w0
        assert_eq!(results[2].value, AggValue::Count(1)); // q1 w1
        assert_eq!(results[3].value, AggValue::Count(0)); // q2 w1
        assert!(eng.stats().decisions > 0);
        assert_eq!(eng.stats().windows_emitted, 4);
    }

    /// `decision_time` is sampled, one decision in 16 timed for all 16,
    /// but `decisions` is exact: one per burst — here each of the 40 `A`
    /// bursts and 40 `B` bursts of one run — clock or no clock.
    #[test]
    fn decision_time_is_sampled_but_decisions_are_exact() {
        let (reg, a, b, _) = registry();
        let run = |timed| {
            let q = Query::count_star(1, seq(a, b), Window::tumbling(1000));
            let cfg = EngineConfig {
                track_latency: timed,
                obs: timed,
                ..EngineConfig::default()
            };
            let mut eng = HamletEngine::new(reg.clone(), vec![q], cfg).unwrap();
            let evs = (0..160).map(|t| ev(&reg, if t % 4 == 0 { a } else { b }, t, 0, 0.0));
            collect(&mut eng, evs);
            *eng.stats()
        };
        let (timed, untimed) = (run(true), run(false));
        assert_eq!((timed.decisions, untimed.decisions), (80, 80));
        assert!(timed.decision_time > Duration::ZERO);
        assert_eq!(untimed.decision_time, Duration::ZERO);
    }

    #[test]
    fn policies_agree_on_results() {
        let (reg, a, b, c) = registry();
        let mk = |policy| {
            let q1 = Query::count_star(1, seq(a, b), Window::tumbling(20));
            let q2 = Query::count_star(2, seq(c, b), Window::tumbling(20));
            HamletEngine::new(
                reg.clone(),
                vec![q1, q2],
                EngineConfig {
                    policy,
                    ..EngineConfig::default()
                },
            )
            .unwrap()
        };
        let evs: Vec<Event> = (0..18)
            .map(|t| {
                let ty = match t % 6 {
                    0 => a,
                    1 => c,
                    _ => b,
                };
                ev(&reg, ty, t, 0, t as f64)
            })
            .collect();
        let mut base: Option<Vec<WindowResult>> = None;
        for policy in [
            SharingPolicy::Dynamic,
            SharingPolicy::AlwaysShare,
            SharingPolicy::NeverShare,
        ] {
            let mut eng = mk(policy);
            let mut rs = collect(&mut eng, evs.clone());
            rs.sort_by_key(|r| (r.window_start, r.query));
            match &base {
                None => base = Some(rs),
                Some(b) => assert_eq!(b, &rs, "policy {policy:?} diverged"),
            }
        }
    }

    #[test]
    fn group_by_partitions_results() {
        let (reg, a, b, _) = registry();
        let mut q1 = Query::count_star(1, seq(a, b), Window::tumbling(10));
        q1.group_by = vec![Arc::from("g")];
        let mut eng = HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
        let evs = vec![
            ev(&reg, a, 1, 1, 0.0),
            ev(&reg, a, 1, 2, 0.0),
            ev(&reg, b, 2, 1, 0.0),
            ev(&reg, b, 3, 2, 0.0),
            ev(&reg, b, 4, 2, 0.0),
        ];
        let mut results = collect(&mut eng, evs);
        results.sort_by_key(|r| match &r.group_key.0[0] {
            AttrValue::Int(i) => *i,
            _ => 0,
        });
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].value, AggValue::Count(1)); // g=1: (a,b)
        assert_eq!(results[1].value, AggValue::Count(3)); // g=2: b3,b4,b3b4
    }

    #[test]
    fn sliding_windows_replicate() {
        let (reg, a, b, _) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::new(10, 5));
        let mut eng = HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
        // a@6, b@8: in windows starting at 0 and 5.
        let evs = vec![ev(&reg, a, 6, 0, 0.0), ev(&reg, b, 8, 0, 0.0)];
        let mut results = collect(&mut eng, evs);
        results.sort_by_key(|r| r.window_start);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].window_start, Ts(0));
        assert_eq!(results[0].value, AggValue::Count(1));
        assert_eq!(results[1].window_start, Ts(5));
        assert_eq!(results[1].value, AggValue::Count(1));
    }

    #[test]
    fn sum_and_avg_render() {
        let (reg, a, b, _) = registry();
        let mk_q = |id, agg| {
            Query::new(
                QueryId(id),
                seq(a, b),
                agg,
                vec![],
                vec![],
                vec![],
                vec![],
                Window::tumbling(10),
            )
            .unwrap()
        };
        let vb = reg.attr_index(b, "v").unwrap();
        let queries = vec![
            mk_q(1, AggFunc::Sum(b, vb)),
            mk_q(2, AggFunc::Avg(b, vb)),
            mk_q(3, AggFunc::CountType(b)),
        ];
        let mut eng = HamletEngine::new(reg.clone(), queries, EngineConfig::default()).unwrap();
        // a@1, b@2 (v=10), b@3 (v=20). Trends: (a,b2) (a,b3) (a,b2,b3).
        // B-events across trends: b2×2, b3×2 → COUNT(B)=4, SUM=10+20+30=60,
        // AVG = 60/4 = 15.
        let evs = vec![
            ev(&reg, a, 1, 0, 0.0),
            ev(&reg, b, 2, 0, 10.0),
            ev(&reg, b, 3, 0, 20.0),
        ];
        let mut results = collect(&mut eng, evs);
        results.sort_by_key(|r| r.query);
        assert_eq!(results[0].value, AggValue::Float(60.0));
        assert_eq!(results[1].value, AggValue::Float(15.0));
        assert_eq!(results[2].value, AggValue::Count(4));
    }

    #[test]
    fn min_max_render() {
        let (reg, a, b, _) = registry();
        let vb = reg.attr_index(b, "v").unwrap();
        let mk_q = |id, agg| {
            Query::new(
                QueryId(id),
                seq(a, b),
                agg,
                vec![],
                vec![],
                vec![],
                vec![],
                Window::tumbling(10),
            )
            .unwrap()
        };
        let queries = vec![mk_q(1, AggFunc::Min(b, vb)), mk_q(2, AggFunc::Max(b, vb))];
        let mut eng = HamletEngine::new(reg.clone(), queries, EngineConfig::default()).unwrap();
        let evs = vec![
            ev(&reg, a, 1, 0, 0.0),
            ev(&reg, b, 2, 0, 7.0),
            ev(&reg, b, 3, 0, 3.0),
        ];
        let mut results = collect(&mut eng, evs);
        results.sort_by_key(|r| r.query);
        assert_eq!(results[0].value, AggValue::Float(3.0));
        assert_eq!(results[1].value, AggValue::Float(7.0));
        // Empty window → Null.
        let mut eng2 = HamletEngine::new(
            reg.clone(),
            vec![mk_q(3, AggFunc::Min(b, vb))],
            EngineConfig::default(),
        )
        .unwrap();
        let evs = vec![ev(&reg, b, 2, 0, 7.0)]; // no A → no trend
        let results = collect(&mut eng2, evs);
        assert_eq!(results[0].value, AggValue::Null);
    }

    #[test]
    fn or_query_combines_branches() {
        let (reg, a, b, c) = registry();
        let mut regm = (*reg).clone();
        let d = regm.register("D", &["g", "v"]);
        let reg = Arc::new(regm);
        let p = Pattern::Or(Box::new(seq(a, b)), Box::new(seq(c, d)));
        let q = Query::count_star(9, p, Window::tumbling(10));
        let mut eng = HamletEngine::new(reg.clone(), vec![q], EngineConfig::default()).unwrap();
        // Branch 1: a@1,b@2 → 1 trend. Branch 2: c@3,d@4,d@5 → 3 trends.
        let evs = vec![
            ev(&reg, a, 1, 0, 0.0),
            ev(&reg, b, 2, 0, 0.0),
            ev(&reg, c, 3, 0, 0.0),
            ev(&reg, d, 4, 0, 0.0),
            ev(&reg, d, 5, 0, 0.0),
        ];
        let results = collect(&mut eng, evs);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].query, QueryId(9));
        assert_eq!(results[0].value, AggValue::Count(4));
    }

    /// A window whose `start + within` exceeds `u64::MAX` must not wrap
    /// (debug builds: panic; release: expire instantly) — it saturates
    /// and closes exactly once, at the final flush.
    #[test]
    fn window_end_near_u64_max_does_not_overflow() {
        let (reg, a, b, _) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(10));
        let mut eng = HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
        // t = u64::MAX - 1 sits in the tumbling instance starting at
        // MAX - 1 - ((MAX - 1) % 10), whose end overflows u64.
        let t = u64::MAX - 1;
        let mut out = eng.process(&ev(&reg, a, t, 0, 0.0));
        out.extend(eng.process(&ev(&reg, b, t, 0, 0.0)));
        assert!(out.is_empty(), "nothing expires before the flush: {out:?}");
        out.extend(eng.flush());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, AggValue::Count(1));
        assert_eq!(eng.expiry_index_len(), 0, "flush drains the index");
    }

    /// Two runs over the same stream produce *identical* (not just
    /// set-equal) output — expiry emission follows the defined total
    /// order (window_start, group, key), never HashMap iteration order.
    #[test]
    fn same_stream_twice_is_byte_identical() {
        let (reg, a, b, c) = registry();
        let mk = || {
            let mut q1 = Query::count_star(1, seq(a, b), Window::new(10, 5));
            q1.group_by = vec![Arc::from("g")];
            let mut q2 = Query::count_star(2, seq(c, b), Window::new(10, 5));
            q2.group_by = vec![Arc::from("g")];
            HamletEngine::new(reg.clone(), vec![q1, q2], EngineConfig::default()).unwrap()
        };
        // Many group-by keys per window so one watermark advance expires
        // several partitions at once — the case HashMap order scrambled.
        let mut evs = Vec::new();
        for t in 0..120u64 {
            let ty = match t % 5 {
                0 => a,
                1 => c,
                _ => b,
            };
            evs.push(ev(&reg, ty, t, (t % 13) as i64, 0.0));
        }
        let run = || {
            let mut eng = mk();
            let mut out = Vec::new();
            for e in &evs {
                out.extend(eng.process(e));
            }
            out.extend(eng.flush());
            out
        };
        let first = run();
        assert!(!first.is_empty());
        assert_eq!(first, run(), "re-run diverged in order or content");
    }

    /// flush() is a point of no return: it advances the watermark to the
    /// end of time, so events processed afterwards are dropped as late
    /// instead of resurrecting (and re-emitting) windows the flush
    /// already emitted.
    #[test]
    fn process_after_flush_cannot_re_emit() {
        let (reg, a, b, _) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(10));
        let mut eng = HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
        let mut out = Vec::new();
        out.extend(eng.process(&ev(&reg, a, 1, 0, 0.0)));
        out.extend(eng.process(&ev(&reg, b, 2, 0, 0.0)));
        out.extend(eng.flush());
        assert_eq!(out.len(), 1, "flush emitted [0,10) once");
        assert_eq!(eng.watermark(), Some(Ts(u64::MAX)));
        // A continuation into the already-flushed window must not
        // double-emit it.
        let more = eng.process(&ev(&reg, a, 3, 0, 0.0));
        assert!(more.is_empty());
        assert!(eng.stats().late_skips > 0, "post-flush events count late");
        assert!(eng.flush().is_empty(), "no window re-emitted");
    }

    /// The expiration index is maintained exactly: one push per run
    /// creation, no tombstones in normal operation, drained by flush.
    #[test]
    fn expiry_index_bookkeeping() {
        let (reg, a, b, _) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::new(10, 5));
        let mut eng = HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
        let evs: Vec<Event> = (0..40)
            .map(|t| ev(&reg, if t % 4 == 0 { a } else { b }, t, 0, 0.0))
            .collect();
        let _ = collect(&mut eng, evs);
        let stats = eng.stats();
        assert!(stats.expiry_pushes > 0, "runs were indexed");
        assert_eq!(stats.expiry_tombstones, 0, "no out-of-band drains");
        assert_eq!(eng.expiry_index_len(), 0, "flush drained the index");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(16))]

        /// The bucketed expiry index is bit-identical — per process()
        /// call and at flush — to the old full-partition scan (kept in
        /// `crate::reference` as the oracle).
        #[test]
        fn bucketed_expiry_matches_scan_oracle(
            seed in 0u64..10_000,
            within in 4u64..20,
            slide_div in 1u64..4,
            keys in 1i64..8,
        ) {
            use proptest::prelude::prop_assert_eq;
            let (reg, a, b, c) = registry();
            let slide = (within / slide_div).max(1);
            let mk = || {
                let mut q1 = Query::count_star(1, seq(a, b), Window::new(within, slide));
                q1.group_by = vec![Arc::from("g")];
                let mut q2 = Query::count_star(2, seq(c, b), Window::new(within, slide));
                q2.group_by = vec![Arc::from("g")];
                HamletEngine::new(reg.clone(), vec![q1, q2], EngineConfig::default()).unwrap()
            };
            let mut indexed_eng = mk();
            let mut scan_eng = mk();
            // Deterministic pseudo-random stream from the seed (xorshift).
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
            let mut step = || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let mut t = 0u64;
            for _ in 0..200 {
                t += step() % 3;
                let ty = match step() % 5 {
                    0 => a,
                    1 => c,
                    _ => b,
                };
                let g = (step() % keys as u64) as i64;
                let e = ev(&reg, ty, t, g, 0.0);
                prop_assert_eq!(indexed_eng.process(&e), scan_eng.process_scan_expiry(&e));
            }
            prop_assert_eq!(indexed_eng.flush(), scan_eng.flush_scan_expiry());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The O(1) byte counter behind `state_bytes()` equals the walk
        /// over every live run after every call of every path that can
        /// move it: batches cut anywhere, the per-event fold, the
        /// reference and scan-expiry oracles, late events (including a
        /// first-seen key late for every instance), churn, a chain cut
        /// restored into a fresh engine, and `flush` — over groups that
        /// buffer counts, cells and events, a lattice skeleton, a
        /// negation and a decomposed `OR` query, under all three policies.
        #[test]
        fn state_bytes_counter_equals_the_walk(seed in 0u64..u64::MAX, policy in 0usize..3) {
            use crate::store::{CheckpointStore, CutKind, MemStore, Snapshot};
            use hamlet_query::{AggFunc, CmpOp, EdgePredicate, SelectionPredicate};
            use proptest::prelude::{prop_assert, prop_assert_eq};
            let (reg, a, b, c) = registry();
            let mut s = seed | 1;
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s >> 11
            };
            let windows = [Window::tumbling(6), Window::new(12, 4), Window::new(10, 5)];
            let mut mk_q = |id: u32, pattern: Pattern, agg, sel: bool, edge: bool| {
                let selections = sel.then(|| SelectionPredicate {
                    ty: b,
                    attr: 1,
                    op: CmpOp::Lt,
                    value: AttrValue::Float((2 + next() % 6) as f64),
                });
                let edges = edge.then_some(EdgePredicate { ty: b, cur_attr: 1, op: CmpOp::Ge, prev_attr: 1 });
                let w = windows[(next() % 3) as usize];
                let mut q = Query::new(
                    QueryId(id),
                    pattern,
                    agg,
                    selections.into_iter().collect(),
                    edges.into_iter().collect(),
                    vec![],
                    vec![],
                    w,
                )
                .unwrap();
                q.group_by = vec![Arc::from("g")];
                q
            };
            let not_c = Pattern::seq(vec![
                Pattern::Type(a),
                Pattern::Not(Box::new(Pattern::Type(c))),
                Pattern::plus(Pattern::Type(b)),
            ]);
            let or = Pattern::Or(Box::new(seq(a, b)), Box::new(Pattern::plus(Pattern::Type(c))));
            let queries = vec![
                mk_q(1, seq(a, b), AggFunc::CountStar, false, false), // counts
                mk_q(2, seq(c, b), AggFunc::CountStar, false, false),
                mk_q(3, seq(a, b), AggFunc::Sum(b, 1), true, false), // cells
                mk_q(4, seq(c, b), AggFunc::Max(b, 1), true, false), // lattice
                mk_q(5, seq(a, b), AggFunc::CountStar, false, true), // events
                mk_q(6, not_c, AggFunc::CountStar, false, false),    // negation
                mk_q(7, or, AggFunc::CountStar, false, false),       // two halves
            ];
            let extra = mk_q(9, seq(c, b), AggFunc::CountType(b), true, false);
            let cfg = EngineConfig {
                policy: [SharingPolicy::Dynamic, SharingPolicy::AlwaysShare, SharingPolicy::NeverShare][policy],
                mem_sample_every: 16,
                ..EngineConfig::default()
            };
            let mk = |queries: &[Query]| HamletEngine::new(reg.clone(), queries.to_vec(), cfg.clone()).unwrap();
            let mut eng = mk(&queries);
            let reprs: std::collections::BTreeSet<u8> = (eng.plan.groups.iter())
                .flat_map(|g| (0..g.rt.template.num_types()).map(|tl| g.rt.burst_repr(tl).tag()))
                .collect();
            prop_assert_eq!(reprs.len(), 3, "counts, cells and events are all buffered");

            let store = MemStore::new();
            let (mut t, mut fresh_key, mut has_extra) = (0u64, 1000i64, false);
            for _ in 0..60 {
                let n = 1 + next() % 12;
                let chunk: Vec<Event> = (0..n)
                    .map(|_| {
                        t += next() % 2;
                        let ty = [a, c, b, b, b][(next() % 5) as usize];
                        let v = (next() % 8) as f64;
                        match next() % 16 {
                            // A key never seen, behind every open window.
                            0 => {
                                fresh_key += 1;
                                ev(&reg, ty, t.saturating_sub(30), fresh_key, v)
                            }
                            // A straggler: late for some instances at most.
                            1 | 2 => ev(&reg, ty, t.saturating_sub(next() % 8), (next() % 4) as i64, v),
                            _ => ev(&reg, ty, t, (next() % 4) as i64, v),
                        }
                    })
                    .collect();
                match next() % 12 {
                    0..=4 => drop(eng.process_batch(&chunk)),
                    5 | 6 => chunk.iter().for_each(|e| drop(eng.process(e))),
                    7 => chunk.iter().for_each(|e| drop(eng.process_reference(e))),
                    8 => chunk.iter().for_each(|e| drop(eng.process_scan_expiry(e))),
                    9 => {
                        if has_extra {
                            eng.remove_query(QueryId(9)).unwrap();
                        } else {
                            eng.add_query(extra.clone()).unwrap();
                        }
                        has_extra = !has_extra;
                    }
                    _ => {
                        let kind = if next() % 3 == 0 { CutKind::Full } else { CutKind::Delta };
                        store.append(&eng.cut(kind).unwrap()).unwrap();
                        let mut restored = mk(eng.queries());
                        restored.restore_chain(&store.load_chain().unwrap()).unwrap();
                        prop_assert_eq!(restored.state_bytes(), eng.state_bytes());
                        eng = restored;
                    }
                }
                prop_assert_eq!(eng.run_bytes, eng.walk_run_bytes());
            }
            prop_assert!(eng.stats().late_skips > 0);
            eng.flush();
            prop_assert_eq!((eng.run_bytes, eng.state_bytes()), (0, 0));
        }
    }

    /// The counters every execution path must agree on: the batched path
    /// may not drift from the fold on any observable statistic.
    fn counters(eng: &HamletEngine) -> (u64, u64, u64, u64, u64, u64) {
        let s = eng.stats();
        (
            s.decisions,
            s.windows_emitted,
            s.events_routed,
            s.expiry_pushes,
            s.expiry_tombstones,
            s.late_skips,
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// `process_batch` output and counters are identical to folding
        /// `process` (the one-element wrapper) and `process_reference`
        /// (the preserved pre-batching body) over the same stream —
        /// including duplicate timestamps, bounded lateness and grouped
        /// partitions.
        #[test]
        fn process_batch_matches_fold(
            seed in 0u64..10_000,
            within in 4u64..20,
            slide_div in 1u64..4,
            keys in 1i64..6,
            batch_size in 1usize..50,
            lateness in 0u64..4,
        ) {
            use proptest::prelude::prop_assert_eq;
            let (reg, a, b, c) = registry();
            let slide = (within / slide_div).max(1);
            let mk = || {
                let mut q1 = Query::count_star(1, seq(a, b), Window::new(within, slide));
                q1.group_by = vec![Arc::from("g")];
                let mut q2 = Query::count_star(2, seq(c, b), Window::new(within, slide));
                q2.group_by = vec![Arc::from("g")];
                HamletEngine::new(reg.clone(), vec![q1, q2], EngineConfig::default()).unwrap()
            };
            // Deterministic pseudo-random stream (xorshift) with repeated
            // ticks and bounded out-of-order arrivals.
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
            let mut step = || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let mut t = 0u64;
            let mut events = Vec::new();
            for _ in 0..200 {
                t += step() % 3;
                let ty = match step() % 5 {
                    0 => a,
                    1 => c,
                    _ => b,
                };
                let g = (step() % keys as u64) as i64;
                let delay = if lateness == 0 { 0 } else { step() % (lateness + 1) };
                events.push(ev(&reg, ty, t.saturating_sub(delay), g, 0.0));
            }

            let mut ref_eng = mk();
            let mut ref_out = Vec::new();
            for e in &events {
                ref_out.extend(ref_eng.process_reference(e));
            }
            let mut fold_eng = mk();
            let mut fold_out = Vec::new();
            for e in &events {
                fold_out.extend(fold_eng.process(e));
            }
            let mut batch_eng = mk();
            let mut batch_out = Vec::new();
            for chunk in events.chunks(batch_size) {
                batch_out.extend(batch_eng.process_batch(chunk));
            }

            prop_assert_eq!(&fold_out, &ref_out);
            prop_assert_eq!(&batch_out, &ref_out);
            let ref_flush = ref_eng.flush();
            prop_assert_eq!(batch_eng.flush(), ref_flush.clone());
            prop_assert_eq!(fold_eng.flush(), ref_flush);
            prop_assert_eq!(counters(&batch_eng), counters(&ref_eng));
            prop_assert_eq!(counters(&fold_eng), counters(&ref_eng));
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (reg, a, b, _) = registry();
        let mk = || {
            let q = Query::count_star(1, seq(a, b), Window::tumbling(10));
            HamletEngine::new(reg.clone(), vec![q], EngineConfig::default()).unwrap()
        };
        // Fresh engine: a zero-length batch must not set a watermark or
        // emit — the checkpoint pins every bit of engine state.
        let mut eng = mk();
        assert!(eng.process_batch(&[]).is_empty());
        assert_eq!(eng.checkpoint(), mk().checkpoint());
        // Mid-stream, with open runs pending: still byte-for-byte inert.
        eng.process(&ev(&reg, a, 1, 0, 0.0));
        eng.process(&ev(&reg, b, 2, 0, 0.0));
        let before = eng.checkpoint();
        assert!(eng.process_batch(&[]).is_empty());
        assert_eq!(eng.checkpoint(), before);
        assert_eq!(eng.flush().len(), 1);
    }

    /// Both paths buffer a uniform group's burst as a bare count, so
    /// interleaving them mid-burst on one engine leaves — before the flush
    /// — the counters, state bytes and checkpoint of either path alone,
    /// and the one flush replays the whole burst once.
    #[test]
    fn mixed_compact_and_event_burst_flushes_once() {
        let (reg, a, b, _) = registry();
        let mk = || {
            let q = Query::count_star(1, seq(a, b), Window::tumbling(100));
            // No wall clock in the state: a checkpoint is a function of
            // the events alone.
            let cfg = EngineConfig {
                track_latency: false,
                obs: false,
                mem_sample_every: 0,
                ..EngineConfig::default()
            };
            HamletEngine::new(reg.clone(), vec![q], cfg).unwrap()
        };
        let evs: Vec<Event> = (0..40)
            .map(|i| ev(&reg, if i == 0 { a } else { b }, i, 0, 0.0))
            .collect();
        let (mut mixed, mut ref_eng, mut fold) = (mk(), mk(), mk());
        let (mut mixed_out, mut ref_out, mut fold_out) = (Vec::new(), Vec::new(), Vec::new());
        for (i, e) in evs.iter().enumerate() {
            // Alternate paths within one pane.
            if i % 2 == 0 {
                mixed_out.extend(mixed.process(e));
            } else {
                mixed_out.extend(mixed.process_reference(e));
            }
            ref_out.extend(ref_eng.process_reference(e));
            fold_out.extend(fold.process(e));
        }
        for alone in [&ref_eng, &fold] {
            assert_eq!(counters(&mixed), counters(alone));
            assert_eq!(mixed.state_bytes(), alone.state_bytes());
            assert_eq!(mixed.checkpoint(), alone.checkpoint());
        }
        mixed_out.extend(mixed.flush());
        ref_out.extend(ref_eng.flush());
        fold_out.extend(fold.flush());
        assert_eq!(mixed_out, ref_out);
        assert_eq!(mixed_out, fold_out);
        assert_eq!(counters(&mixed), counters(&ref_eng));
        assert_eq!(counters(&mixed), counters(&fold));
    }

    /// On a predicate workload every path appends through the same
    /// helper — cells for the selection groups, a count for the uniform
    /// one — so interleaving `process`, `process_reference` and
    /// `process_batch` on one engine leaves exactly the state of the
    /// pure fold: same results, same counters, same checkpoint bytes.
    #[test]
    fn interleaved_paths_on_a_predicate_workload_match_the_fold() {
        use hamlet_query::{AggFunc, CmpOp, SelectionPredicate};
        let (reg, a, b, c) = registry();
        let mk = || {
            let q = |id, first, agg, cut: Option<f64>| {
                let sel = cut.map(|cut| SelectionPredicate {
                    ty: b,
                    attr: 1,
                    op: CmpOp::Lt,
                    value: hamlet_types::AttrValue::Float(cut),
                });
                let mut q = Query::new(
                    QueryId(id),
                    seq(first, b),
                    agg,
                    sel.into_iter().collect(),
                    vec![],
                    vec![],
                    vec![],
                    Window::new(12, 4),
                )
                .unwrap();
                q.group_by = vec![Arc::from("g")];
                q
            };
            let queries = vec![
                q(1, a, AggFunc::Sum(b, 1), Some(3.0)),
                q(2, c, AggFunc::Avg(b, 1), Some(6.0)),
                q(3, a, AggFunc::CountType(b), None),
                q(4, a, AggFunc::Max(b, 1), Some(5.0)),
                q(5, c, AggFunc::CountStar, None),
            ];
            // No wall clock in the state (latency stamps, decision time)
            // and no gauge (it samples per segment): what is left of a
            // checkpoint is a function of the events alone.
            let cfg = EngineConfig {
                track_latency: false,
                obs: false,
                mem_sample_every: 0,
                ..EngineConfig::default()
            };
            HamletEngine::new(reg.clone(), queries, cfg).unwrap()
        };
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut step = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut t = 0u64;
        let events: Vec<Event> = (0..400)
            .map(|_| {
                t += step() % 2;
                let ty = [a, c, b, b, b][(step() % 5) as usize];
                ev(&reg, ty, t, (step() % 3) as i64, (step() % 8) as f64)
            })
            .collect();

        let mut fold = mk();
        let mut fold_out = Vec::new();
        let mut mixed = mk();
        let mut mixed_out = Vec::new();
        let mut i = 0;
        while i < events.len() {
            let n = (1 + step() % 7).min((events.len() - i) as u64) as usize;
            let chunk = &events[i..i + n];
            for e in chunk {
                fold_out.extend(fold.process(e));
            }
            match step() % 3 {
                0 => mixed_out.extend(mixed.process_batch(chunk)),
                1 => chunk
                    .iter()
                    .for_each(|e| mixed_out.extend(mixed.process(e))),
                _ => chunk
                    .iter()
                    .for_each(|e| mixed_out.extend(mixed.process_reference(e))),
            }
            i += n;
        }
        assert!(!fold_out.is_empty(), "windows close mid-stream");
        assert_eq!(mixed_out, fold_out);
        assert_eq!(counters(&mixed), counters(&fold));
        assert_eq!(mixed.checkpoint(), fold.checkpoint());
        assert_eq!(mixed.flush(), fold.flush());
    }

    /// Direct evidence for the O(P)→O(k) claim: at high partition
    /// cardinality the indexed expiry path beats the old full scan by a
    /// wide margin, because the scan pays O(live partitions) on every
    /// event while the index pays one comparison when nothing expires.
    #[test]
    #[ignore = "slow tier: expiry-cost scaling; run with `cargo test --release -- --ignored`"]
    fn indexed_expiry_beats_full_scan_at_high_cardinality() {
        let (reg, a, b, _) = registry();
        let mk = || {
            let mut q = Query::count_star(1, seq(a, b), Window::tumbling(50));
            q.group_by = vec![Arc::from("g")];
            HamletEngine::new(
                reg.clone(),
                vec![q],
                EngineConfig {
                    track_latency: false,
                    mem_sample_every: 0,
                    ..EngineConfig::default()
                },
            )
            .unwrap()
        };
        // ~5000 live partitions per window, small per-partition state.
        let evs: Vec<Event> = (0..100_000u64)
            .map(|i| {
                let t = i / 1_000; // 100 windows over the stream
                let ty = if i % 10 == 0 { a } else { b };
                ev(&reg, ty, t, (i % 5_000) as i64, 0.0)
            })
            .collect();
        let time = |eng: &mut HamletEngine, scan: bool| {
            let t0 = Instant::now();
            let mut n = 0usize;
            for e in &evs {
                n += if scan {
                    eng.process_scan_expiry(e).len()
                } else {
                    eng.process(e).len()
                };
            }
            n += if scan {
                eng.flush_scan_expiry().len()
            } else {
                eng.flush().len()
            };
            (t0.elapsed(), n)
        };
        let (heap_t, heap_n) = time(&mut mk(), false);
        let (scan_t, scan_n) = time(&mut mk(), true);
        assert_eq!(heap_n, scan_n, "paths emit the same result count");
        // The margin is ~10–100× in release; 2× keeps noisy hosts green.
        assert!(
            heap_t.as_secs_f64() * 2.0 < scan_t.as_secs_f64(),
            "indexed expiry ({heap_t:?}) not faster than full scan ({scan_t:?})"
        );
    }

    /// A late event whose window already closed must not resurrect the
    /// window: the engine skips the contribution (counting it) instead of
    /// emitting the same (query, key, window) twice.
    #[test]
    fn late_event_cannot_double_emit_a_window() {
        let (reg, a, b, _) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(10));
        let mut eng = HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
        assert_eq!(eng.watermark(), None);
        let mut out = Vec::new();
        out.extend(eng.process(&ev(&reg, a, 1, 0, 0.0)));
        out.extend(eng.process(&ev(&reg, b, 2, 0, 0.0)));
        // Watermark jumps past the window end: [0,10) emits.
        out.extend(eng.process(&ev(&reg, a, 15, 0, 0.0)));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].window_start, Ts(0));
        assert_eq!(out[0].value, AggValue::Count(1));
        assert_eq!(eng.watermark(), Some(Ts(15)));
        // A straggler for the closed window arrives late.
        let late = eng.process(&ev(&reg, b, 3, 0, 0.0));
        assert!(late.is_empty(), "late event emitted: {late:?}");
        assert_eq!(eng.stats().late_skips, 1);
        assert_eq!(eng.watermark(), Some(Ts(15)), "watermark is monotone");
        // Flush emits only the still-open [10,20) window — no duplicate
        // of [0,10).
        let mut rest = eng.flush();
        rest.retain(|r| r.window_start == Ts(0));
        assert!(rest.is_empty(), "window [0,10) re-emitted: {rest:?}");
    }

    /// An out-of-order event that is late for one (closed) sliding window
    /// instance still contributes to the instances that remain open.
    #[test]
    fn late_event_still_feeds_open_windows() {
        let (reg, a, b, _) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::new(10, 5));
        let mut eng = HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
        let mut out = Vec::new();
        out.extend(eng.process(&ev(&reg, a, 6, 0, 0.0)));
        // Watermark 12 closes [0,10) but leaves [5,15) and [10,20) open.
        out.extend(eng.process(&ev(&reg, a, 12, 0, 0.0)));
        // b@8 is late for [0,10) (skipped) but lands in the open [5,15).
        out.extend(eng.process(&ev(&reg, b, 8, 0, 0.0)));
        out.extend(eng.flush());
        assert_eq!(eng.stats().late_skips, 1);
        let w5: Vec<_> = out.iter().filter(|r| r.window_start == Ts(5)).collect();
        assert_eq!(w5.len(), 1);
        // The late b contributes to the open [5,15) window. (Within an
        // open window the engine orders by *arrival*, so both a@6 and
        // a@12 precede the late b — in-window ordering is the reorder
        // stage's job, the engine only guarantees no double emission.)
        assert_eq!(w5[0].value, AggValue::Count(2), "late b fed [5,15)");
        // Each window instance emitted exactly once.
        let mut starts: Vec<u64> = out.iter().map(|r| r.window_start.ticks()).collect();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(starts.len(), out.len(), "duplicate window emission");
    }

    /// Checkpoint mid-stream, restore into a fresh engine, continue:
    /// suffix output and final flush are byte-identical to the
    /// uninterrupted run, and a checkpoint of the restored engine is
    /// byte-identical to the original blob (round-trip identity).
    #[test]
    fn checkpoint_restore_continue_is_identical() {
        let (reg, a, b, c) = registry();
        let mk = || {
            let mut q1 = Query::count_star(1, seq(a, b), Window::new(10, 5));
            q1.group_by = vec![Arc::from("g")];
            let mut q2 = Query::count_star(2, seq(c, b), Window::new(10, 5));
            q2.group_by = vec![Arc::from("g")];
            HamletEngine::new(reg.clone(), vec![q1, q2], EngineConfig::default()).unwrap()
        };
        let evs: Vec<Event> = (0..90u64)
            .map(|t| {
                let ty = match t % 5 {
                    0 => a,
                    1 => c,
                    _ => b,
                };
                ev(&reg, ty, t, (t % 7) as i64, t as f64)
            })
            .collect();
        for cut in [0usize, 1, 37, 89, 90] {
            let mut uninterrupted = mk();
            let mut gold = Vec::new();
            for e in &evs {
                gold.push(uninterrupted.process(e));
            }
            let gold_flush = uninterrupted.flush();

            let mut first = mk();
            for e in &evs[..cut] {
                let _ = first.process(e);
            }
            let blob = first.checkpoint();
            drop(first); // the "kill"
            let mut resumed = mk();
            resumed.restore(&blob).unwrap();
            assert_eq!(resumed.checkpoint(), blob, "round-trip identity at {cut}");
            for (i, e) in evs[cut..].iter().enumerate() {
                assert_eq!(
                    resumed.process(e),
                    gold[cut + i],
                    "event {} cut {cut}",
                    cut + i
                );
            }
            assert_eq!(resumed.flush(), gold_flush, "flush at cut {cut}");
            assert_eq!(
                resumed.stats().windows_emitted,
                uninterrupted.stats().windows_emitted,
                "counters continue across restore (cut {cut})"
            );
        }
    }

    /// A checkpoint refuses to restore into a different workload or
    /// sharding, and corrupt blobs fail cleanly.
    #[test]
    fn restore_validates_fingerprint_and_blob() {
        use crate::checkpoint::CheckpointError;
        let (reg, a, b, c) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(10));
        let mut eng =
            HamletEngine::new(reg.clone(), vec![q1.clone()], EngineConfig::default()).unwrap();
        let _ = eng.process(&ev(&reg, a, 1, 0, 0.0));
        let blob = eng.checkpoint();

        // Different workload.
        let q2 = Query::count_star(2, seq(c, b), Window::tumbling(10));
        let mut other = HamletEngine::new(reg.clone(), vec![q2], EngineConfig::default()).unwrap();
        assert!(matches!(
            other.restore(&blob),
            Err(CheckpointError::WorkloadMismatch(_))
        ));

        // Different sharding.
        let mut sharded = HamletEngine::new(
            reg.clone(),
            vec![q1.clone()],
            EngineConfig {
                shard: Some((0, 4)),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert!(matches!(
            sharded.restore(&blob),
            Err(CheckpointError::WorkloadMismatch(_))
        ));

        // Garbage and truncation.
        let mut fresh = HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
        assert_eq!(fresh.restore(b"nope"), Err(CheckpointError::BadMagic));
        assert!(fresh.restore(&blob[..blob.len() - 3]).is_err());
        // The failed restores did not corrupt the fresh engine.
        fresh.restore(&blob).unwrap();
        assert_eq!(fresh.checkpoint(), blob);
    }

    /// The expiration index is rebuilt on restore: exactly one live entry
    /// per restored run, and expiry continues to drain them.
    #[test]
    fn restore_rebuilds_expiry_index() {
        let (reg, a, b, _) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::new(10, 5));
        let mut eng =
            HamletEngine::new(reg.clone(), vec![q1.clone()], EngineConfig::default()).unwrap();
        for t in 0..20u64 {
            let _ = eng.process(&ev(&reg, if t % 4 == 0 { a } else { b }, t, 0, 0.0));
        }
        let live = eng.expiry_index_len();
        assert!(live > 0);
        let blob = eng.checkpoint();
        let mut resumed =
            HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
        resumed.restore(&blob).unwrap();
        assert_eq!(resumed.expiry_index_len(), live);
        let _ = resumed.flush();
        assert_eq!(resumed.expiry_index_len(), 0, "flush drains rebuilt index");
    }

    #[test]
    fn latency_and_memory_tracked() {
        let (reg, a, b, _) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(4));
        let mut eng = HamletEngine::new(
            reg.clone(),
            vec![q1],
            EngineConfig {
                mem_sample_every: 1,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let evs: Vec<Event> = (0..20)
            .map(|t| ev(&reg, if t % 4 == 0 { a } else { b }, t, 0, 0.0))
            .collect();
        let _ = collect(&mut eng, evs);
        assert!(eng.latency().count() > 0);
        assert!(eng.peak_memory() > 0);
        assert!(eng.stats().runs.events > 0);
    }

    /// A stream the churn tests share: a, c and bursts of b, two group-by
    /// values.
    fn churn_stream(
        reg: &TypeRegistry,
        a: EventTypeId,
        b: EventTypeId,
        c: EventTypeId,
        n: u64,
    ) -> Vec<Event> {
        (0..n)
            .map(|t| {
                let ty = match t % 5 {
                    0 => a,
                    1 => c,
                    _ => b,
                };
                ev(reg, ty, t, (t % 2) as i64, t as f64)
            })
            .collect()
    }

    /// Adding and later removing a query whose window differs (its own
    /// share group) must not perturb the untouched group's output at all.
    #[test]
    fn churn_of_unrelated_query_leaves_other_groups_byte_identical() {
        let (reg, a, b, c) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(20));
        let q2 = Query::count_star(2, seq(c, b), Window::tumbling(20));
        let q3 = Query::count_star(7, seq(a, b), Window::tumbling(10));
        let evs = churn_stream(&reg, a, b, c, 100);

        let mut base = HamletEngine::new(
            reg.clone(),
            vec![q1.clone(), q2.clone()],
            EngineConfig::default(),
        )
        .unwrap();
        let baseline = collect(&mut base, evs.clone());

        let mut eng = HamletEngine::new(
            reg.clone(),
            vec![q1.clone(), q2.clone()],
            EngineConfig::default(),
        )
        .unwrap();
        let mut out = Vec::new();
        for (i, e) in evs.iter().enumerate() {
            if i == 33 {
                let rep = eng.add_query(q3.clone()).unwrap();
                assert_eq!(rep.groups_carried, 1, "the {{q1,q2}} group carries over");
                assert_eq!(rep.groups_rebuilt, 1, "q3 starts its own group");
                assert_eq!(rep.epoch, 1);
                out.extend(rep.drained);
            }
            if i == 71 {
                let rep = eng.remove_query(QueryId(7)).unwrap();
                assert_eq!(rep.epoch, 2);
                out.extend(rep.drained);
            }
            out.extend(eng.process(e));
        }
        out.extend(eng.flush());
        let churned: Vec<WindowResult> =
            out.into_iter().filter(|r| r.query != QueryId(7)).collect();
        assert_eq!(baseline, churned);
        assert_eq!(eng.epoch(), 2);
        assert_eq!(eng.queries().len(), 2);
    }

    /// Removing a query with open windows drains them exactly once at the
    /// barrier and never again.
    #[test]
    fn removed_query_drains_in_flight_windows_once() {
        let (reg, a, b, c) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(20));
        let q2 = Query::count_star(2, seq(c, b), Window::tumbling(20));
        let evs = churn_stream(&reg, a, b, c, 30);
        let mut eng =
            HamletEngine::new(reg.clone(), vec![q1, q2], EngineConfig::default()).unwrap();
        let mut out = Vec::new();
        for e in &evs {
            out.extend(eng.process(e));
        }
        // Window [20,40) is mid-flight for both queries.
        let rep = eng.remove_query(QueryId(2)).unwrap();
        let q2_drained = rep.drained.iter().filter(|r| r.query == QueryId(2)).count();
        assert!(q2_drained > 0, "q2's open window drains at the barrier");
        let before_flush = out.len() + rep.drained.len();
        out.extend(rep.drained);
        let flushed = eng.flush();
        assert!(
            !flushed.iter().any(|r| r.query == QueryId(2)),
            "a removed query's windows never emit again after the drain"
        );
        out.extend(flushed);
        assert!(out.len() >= before_flush);
        // Each of q2's windows appears exactly once overall.
        let mut seen = std::collections::BTreeSet::new();
        for r in out.iter().filter(|r| r.query == QueryId(2)) {
            assert!(
                seen.insert((r.window_start.ticks(), format!("{}", r.group_key))),
                "duplicate emission for {r:?}"
            );
        }
    }

    /// Removing the last co-member of a shared group: the survivor's
    /// group is rebuilt (drain + re-open), and it keeps producing.
    #[test]
    fn remove_last_member_of_shared_group() {
        let (reg, a, b, c) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(20));
        let q2 = Query::count_star(2, seq(c, b), Window::tumbling(20));
        let mut eng =
            HamletEngine::new(reg.clone(), vec![q1, q2], EngineConfig::default()).unwrap();
        assert_eq!(eng.num_groups(), 1);
        let evs = churn_stream(&reg, a, b, c, 30);
        let mut out = Vec::new();
        for e in &evs {
            out.extend(eng.process(e));
        }
        let rep = eng.remove_query(QueryId(2)).unwrap();
        assert_eq!(rep.groups_carried, 0, "the shared group was restructured");
        assert_eq!(rep.groups_rebuilt, 1);
        assert_eq!(eng.num_groups(), 1);
        assert!(
            rep.drained.iter().any(|r| r.query == QueryId(1)),
            "q1's mid-flight window drains as a prefix"
        );
        out.extend(rep.drained);
        // q1 keeps producing after the churn.
        for t in 30..60u64 {
            let ty = if t % 5 == 0 { a } else { b };
            out.extend(eng.process(&ev(&reg, ty, t, (t % 2) as i64, 0.0)));
        }
        out.extend(eng.flush());
        assert!(out
            .iter()
            .any(|r| r.query == QueryId(1) && r.window_start.ticks() >= 40));
        // The singleton placement reports solo execution.
        assert_eq!(rep.placements.len(), 1);
        assert!(!rep.placements[0].shared);
        assert_eq!(rep.placements[0].benefit, 0.0);
    }

    /// Adding a query whose Def. 12 benefit is negative (edge predicates
    /// force an event-level snapshot per burst event): the re-priced
    /// placement must not share it.
    #[test]
    fn negative_benefit_add_goes_solo() {
        let (reg, a, b, _) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(20));
        let mut eng = HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
        // Same pattern and window — sharable, so it joins q1's group — but
        // every adjacent B pair must be non-decreasing in v: an edge
        // predicate, the Def. 9 worst case (snapshot per event).
        let v_slot = reg.attr_index(b, "v").unwrap();
        let q9 = Query::new(
            QueryId(9),
            seq(a, b),
            hamlet_query::AggFunc::CountStar,
            vec![],
            vec![hamlet_query::predicate::EdgePredicate {
                ty: b,
                cur_attr: v_slot,
                op: hamlet_query::predicate::CmpOp::Ge,
                prev_attr: v_slot,
            }],
            vec![],
            vec![],
            Window::tumbling(20),
        )
        .unwrap();
        let rep = eng.add_query(q9).unwrap();
        let grp = rep
            .placements
            .iter()
            .find(|p| p.members.len() == 2)
            .expect("q1 and q9 cluster into one group");
        assert!(
            grp.benefit < 0.0,
            "edge predicates make sharing lose: {}",
            grp.benefit
        );
        assert!(!grp.shared, "negative benefit ⇒ solo execution");
    }

    /// Churn error paths: duplicate add, unknown remove, double remove —
    /// and the engine is untouched on error.
    #[test]
    fn churn_errors_leave_engine_untouched() {
        let (reg, a, b, c) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(20));
        let q2 = Query::count_star(2, seq(c, b), Window::tumbling(20));
        let mut eng =
            HamletEngine::new(reg.clone(), vec![q1.clone(), q2], EngineConfig::default()).unwrap();
        assert!(matches!(
            eng.add_query(q1.clone()),
            Err(ChurnError::Duplicate(QueryId(1)))
        ));
        assert!(matches!(
            eng.remove_query(QueryId(42)),
            Err(ChurnError::Unknown(QueryId(42)))
        ));
        assert_eq!(eng.epoch(), 0, "failed churn does not bump the epoch");
        eng.remove_query(QueryId(2)).unwrap();
        assert!(matches!(
            eng.remove_query(QueryId(2)),
            Err(ChurnError::Unknown(QueryId(2)))
        ));
        assert_eq!(eng.epoch(), 1);
        // Unsupported workloads are rejected with the compile error and
        // leave the engine running.
        let mut neg = Query::count_star(3, seq(a, b), Window::tumbling(20));
        neg.pattern = Pattern::seq(vec![
            Pattern::Type(a),
            Pattern::Not(Box::new(Pattern::Type(c))),
            Pattern::plus(Pattern::Type(b)),
        ]);
        neg.agg = hamlet_query::AggFunc::Min(b, 1);
        match eng.add_query(neg) {
            Err(ChurnError::Engine(EngineError::Unsupported(_))) => {}
            other => panic!("expected Unsupported, got {other:?}"),
        }
        assert_eq!(eng.epoch(), 1);
        assert_eq!(eng.queries().len(), 1);
    }

    /// Checkpoint after churn restores only into an engine at the same
    /// epoch; cross-epoch and pre-churn blobs are rejected with a clear
    /// error; v2-era semantics (epoch 0) keep working.
    #[test]
    fn churn_versions_the_checkpoint_epoch() {
        let (reg, a, b, c) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(20));
        let q2 = Query::count_star(2, seq(c, b), Window::tumbling(20));
        let evs = churn_stream(&reg, a, b, c, 90);
        let mut eng = HamletEngine::new(
            reg.clone(),
            vec![q1.clone(), q2.clone()],
            EngineConfig::default(),
        )
        .unwrap();
        let mut out = Vec::new();
        for e in &evs[..40] {
            out.extend(eng.process(e));
        }
        let pre_churn_blob = eng.checkpoint();
        assert_eq!(crate::record::frame_of(&pre_churn_blob).unwrap().epoch, 0);
        let rep = eng.remove_query(QueryId(2)).unwrap();
        out.extend(rep.drained);
        for e in &evs[40..60] {
            out.extend(eng.process(e));
        }
        let blob = eng.checkpoint();
        assert_eq!(crate::record::frame_of(&blob).unwrap().epoch, 1);

        // Restoring into a fresh engine over the final query set fails
        // without the epoch — the clear cross-epoch error…
        let mut fresh =
            HamletEngine::new(reg.clone(), vec![q1.clone()], EngineConfig::default()).unwrap();
        match fresh.restore(&blob) {
            Err(crate::checkpoint::CheckpointError::WorkloadMismatch(msg)) => {
                assert!(msg.contains("epoch"), "unhelpful error: {msg}");
            }
            other => panic!("expected WorkloadMismatch, got {other:?}"),
        }
        // …and succeeds through a chain restore, which adopts the
        // blob's epoch (a bare blob is a chain of one).
        fresh
            .restore_chain(&[crate::Checkpoint::from_bytes(blob.clone()).unwrap()])
            .unwrap();
        assert_eq!(fresh.epoch(), 1);
        let mut resumed = Vec::new();
        for e in &evs[60..] {
            resumed.extend(fresh.process(e));
        }
        resumed.extend(fresh.flush());
        let mut direct = Vec::new();
        for e in &evs[60..] {
            direct.extend(eng.process(e));
        }
        direct.extend(eng.flush());
        assert_eq!(direct, resumed, "restored suffix is byte-identical");

        // The pre-churn blob no longer restores into the churned engine.
        let mut eng2 = HamletEngine::new(
            reg.clone(),
            vec![q1.clone(), q2.clone()],
            EngineConfig::default(),
        )
        .unwrap();
        eng2.remove_query(QueryId(2)).unwrap();
        assert!(matches!(
            eng2.restore(&pre_churn_blob),
            Err(crate::checkpoint::CheckpointError::WorkloadMismatch(_))
        ));
    }

    /// Churn across general (OR/AND) queries: pending halves re-key to
    /// the renumbered combiner table, removed general queries settle
    /// their halves at the barrier, and untouched queries are unaffected.
    #[test]
    fn churn_with_general_queries_settles_pending_halves() {
        let (reg, a, b, c) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(20));
        let mut q_or = Query::count_star(2, seq(a, b), Window::tumbling(20));
        // Branches must be type-disjoint; the left half SEQ(a, b+) shares
        // q1's group, the right half c+ is its own group.
        q_or.pattern = Pattern::Or(
            Box::new(seq(a, b)),
            Box::new(Pattern::plus(Pattern::Type(c))),
        );
        let evs = churn_stream(&reg, a, b, c, 100);

        let mut base = HamletEngine::new(
            reg.clone(),
            vec![q1.clone(), q_or.clone()],
            EngineConfig::default(),
        )
        .unwrap();
        let baseline = collect(&mut base, evs.clone());

        // Remove the OR query mid-stream, then re-add it; q1's output must
        // be untouched, and the OR query's windows all appear.
        let mut eng = HamletEngine::new(
            reg.clone(),
            vec![q1.clone(), q_or.clone()],
            EngineConfig::default(),
        )
        .unwrap();
        let mut out = Vec::new();
        for (i, e) in evs.iter().enumerate() {
            if i == 50 {
                let rep = eng.remove_query(QueryId(2)).unwrap();
                out.extend(rep.drained);
                let rep = eng.add_query(q_or.clone()).unwrap();
                out.extend(rep.drained);
            }
            out.extend(eng.process(e));
        }
        out.extend(eng.flush());
        // q1 shares a group with the OR query's *left half*, so the churn
        // touches it too: its mid-flight window [40,60) splits into a
        // drained prefix plus a reopened suffix (the documented churn
        // contract); every other window is byte-identical to baseline.
        let q1_rows = |rs: &[WindowResult], w: u64| -> Vec<WindowResult> {
            rs.iter()
                .filter(|r| r.query == QueryId(1) && r.window_start.ticks() == w)
                .cloned()
                .collect()
        };
        for w in [0u64, 20, 60, 80] {
            assert_eq!(q1_rows(&baseline, w), q1_rows(&out, w), "window {w}");
        }
        assert_eq!(
            q1_rows(&out, 40).len(),
            2,
            "the mid-flight window splits at the barrier"
        );
        // Every window of the OR query emits (possibly split at the
        // barrier), and they cover the same window starts as baseline.
        let windows = |rs: &[WindowResult], q: u32| -> std::collections::BTreeSet<u64> {
            rs.iter()
                .filter(|r| r.query == QueryId(q))
                .map(|r| r.window_start.ticks())
                .collect()
        };
        assert_eq!(
            windows(&baseline, 2),
            windows(&out, 2),
            "OR query covers the same windows"
        );
    }

    /// A half a churn drained into waiting, with no partner run and no
    /// event routed to its window, still settles where the fold settles
    /// it: a batch's segment ends at every window end of the plan, not
    /// only at those of live runs and routed events.
    #[test]
    fn batched_churned_half_settles_in_fold_order() {
        let (reg, a, b, c) = registry();
        let mut regm = (*reg).clone();
        let d = regm.register("D", &["g", "v"]);
        let reg = Arc::new(regm);
        let mut q2 = Query::count_star(2, seq(a, b), Window::tumbling(20));
        q2.pattern = Pattern::Or(
            Box::new(seq(a, b)),
            Box::new(Pattern::plus(Pattern::Type(c))),
        );
        let q3 = Query::count_star(3, Pattern::plus(Pattern::Type(d)), Window::tumbling(30));
        let churned = || {
            let mut eng = HamletEngine::new(
                reg.clone(),
                vec![q2.clone(), q3.clone()],
                EngineConfig::default(),
            )
            .unwrap();
            for (ty, t) in [(a, 1), (b, 2), (b, 3), (d, 4)] {
                assert!(eng.process(&ev(&reg, ty, t, 0, 0.0)).is_empty());
            }
            // Joins q2's left half's group: the half drains and waits.
            let rep = eng
                .add_query(Query::count_star(4, seq(a, b), Window::tumbling(20)))
                .unwrap();
            assert!(rep.drained.is_empty());
            eng
        };
        let tail: Vec<Event> = (6..=35).map(|t| ev(&reg, d, t, 0, 0.0)).collect();
        let (mut folded, mut batched) = (churned(), churned());
        let mut slow: Vec<_> = tail.iter().flat_map(|e| folded.process(e)).collect();
        let mut fast = batched.process_batch(&tail);
        let order = |rs: &[WindowResult]| -> Vec<(u32, u64)> {
            rs.iter()
                .map(|r| (r.query.0, r.window_start.ticks()))
                .collect()
        };
        assert_eq!(order(&slow), [(2, 0), (3, 0)]);
        assert_eq!(fast, slow);
        slow.extend(folded.flush());
        fast.extend(batched.flush());
        assert_eq!(fast, slow);
    }
}
