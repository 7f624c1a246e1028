//! GRETA-style non-shared online event trend aggregation (§3.2, \[33\]).
//!
//! Every query is evaluated independently: each maintains, per group-by
//! partition and window instance, the cumulative intermediate aggregate per
//! event type (`totals`), and each new event's aggregate is
//! `isStart + Σ totals[pt(E, q)]` (Eq. 1–2). Kleene closure is supported;
//! trends are never constructed. The re-computation overhead across a
//! `k`-query workload is the `k×` factor of Eq. 4 that HAMLET removes.
//!
//! Faithful to the published GRETA algorithm, each matched event is stored
//! in the query's graph and a new event's aggregate is computed by
//! *scanning its predecessor events* — O(n) per event per query, the
//! quadratic behavior the paper measures (its GRETA runs for hours at 400
//! events/minute, §6.2). Per-type running totals are kept only for result
//! emission. This implementation is deliberately independent of
//! `hamlet-core`'s run engine so the two cross-validate each other
//! bit-exactly in tests.

use hamlet_core::agg::{ring_of_attr, MmVal, NodeVal};
use hamlet_core::executor::{render, WindowResult};
use hamlet_core::metrics::{LatencyRecorder, MemoryGauge};
use hamlet_core::run::MemberOutput;
use hamlet_core::template::{NegKind, QueryTemplate, TemplateError};
use hamlet_core::workload::AggSkeleton;
use hamlet_query::{Query, QueryId};
use hamlet_types::{AttrValue, Event, EventTypeId, GroupKey, TrendVal, Ts, TypeRegistry};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Per-window evaluation state of one query and partition: the GRETA
/// graph (all matched events with their intermediate aggregates) plus
/// per-type totals for emission.
struct GRun {
    cum: Vec<NodeVal>,
    /// The query graph: stored `(event, value, mm, alive)` per type; new
    /// events scan these predecessor lists (Eq. 2).
    stored: Vec<Vec<(Event, NodeVal, MmVal, bool)>>,
    start_blocked: bool,
    /// Gap negation: predecessors of type `p` stored before this index do
    /// not connect to successors of type `s`.
    gap_blocked: HashMap<(usize, usize), usize>,
    result_blocked: NodeVal,
    last_arrival: Option<Instant>,
}

impl GRun {
    fn new(nt: usize, _mm_identity: MmVal) -> GRun {
        GRun {
            cum: vec![NodeVal::ZERO; nt],
            stored: (0..nt).map(|_| Vec::new()).collect(),
            start_blocked: false,
            gap_blocked: HashMap::new(),
            result_blocked: NodeVal::ZERO,
            last_arrival: None,
        }
    }

    fn mem_bytes(&self) -> usize {
        let mut b = std::mem::size_of::<GRun>();
        b += self.cum.len() * std::mem::size_of::<NodeVal>();
        for per_ty in &self.stored {
            b += per_ty
                .iter()
                .map(|(e, _, _, _)| e.mem_bytes() + std::mem::size_of::<NodeVal>() + 9)
                .sum::<usize>();
        }
        b
    }
}

/// Local negation info.
enum GNeg {
    Leading,
    Gap { pred: Vec<usize>, succ: Vec<usize> },
    Trailing,
}

/// One compiled query: immutable metadata plus mutable partition state,
/// kept as separate fields so borrows stay disjoint.
struct QueryExec {
    meta: QMeta,
    partitions: HashMap<GroupKey, BTreeMap<u64, GRun>>,
}

/// Immutable compiled query info.
struct QMeta {
    query: Arc<Query>,
    types: Vec<EventTypeId>,
    local: HashMap<EventTypeId, usize>,
    /// Predecessor local types per local type.
    pt: Vec<Vec<usize>>,
    start: Vec<bool>,
    end: Vec<bool>,
    /// Negations indexed by negated local type.
    negs: Vec<Vec<GNeg>>,

    skeleton: AggSkeleton,
    partition_attrs: Vec<Arc<str>>,
}

/// The GRETA baseline engine: a workload processed one query at a time.
pub struct GretaEngine {
    reg: Arc<TypeRegistry>,
    queries: Vec<QueryExec>,
    latency: LatencyRecorder,
    gauge: MemoryGauge,
    events: u64,
    mem_sample_every: u64,
}

impl GretaEngine {
    /// Compiles the workload. Patterns with `OR`/`AND` are rejected (the
    /// baseline matches the paper's GRETA query class).
    pub fn new(reg: Arc<TypeRegistry>, queries: Vec<Query>) -> Result<Self, TemplateError> {
        let compiled = queries
            .into_iter()
            .map(|q| {
                let tpl = QueryTemplate::build(&q.pattern)?;
                let mut local = HashMap::new();
                let mut types = Vec::new();
                let mut intern = |t: EventTypeId, types: &mut Vec<EventTypeId>| {
                    *local.entry(t).or_insert_with(|| {
                        types.push(t);
                        types.len() - 1
                    })
                };
                for &t in &tpl.states {
                    intern(t, &mut types);
                }
                for n in &tpl.negations {
                    intern(n.neg_ty, &mut types);
                }
                let nt = types.len();
                let mut pt = vec![Vec::new(); nt];
                for &(p, s) in &tpl.edges {
                    pt[local[&s]].push(local[&p]);
                }
                for preds in &mut pt {
                    preds.sort_unstable();
                    preds.dedup();
                }
                let start = types.iter().map(|t| tpl.start.contains(t)).collect();
                let end = types.iter().map(|t| tpl.end.contains(t)).collect();
                let mut negs: Vec<Vec<GNeg>> = (0..nt).map(|_| Vec::new()).collect();
                for n in &tpl.negations {
                    let nl = local[&n.neg_ty];
                    let g = match &n.kind {
                        NegKind::Leading { .. } => GNeg::Leading,
                        NegKind::Gap { pred, succ } => GNeg::Gap {
                            pred: pred.iter().map(|t| local[t]).collect(),
                            succ: succ.iter().map(|t| local[t]).collect(),
                        },
                        NegKind::Trailing => GNeg::Trailing,
                    };
                    negs[nl].push(g);
                }
                Ok(QueryExec {
                    meta: QMeta {
                        skeleton: AggSkeleton::of(&q.agg),
                        partition_attrs: q.partition_attrs(),
                        query: Arc::new(q),
                        types,
                        local,
                        pt,
                        start,
                        end,
                        negs,
                    },
                    partitions: HashMap::new(),
                })
            })
            .collect::<Result<Vec<_>, TemplateError>>()?;
        Ok(GretaEngine {
            reg,
            queries: compiled,
            latency: LatencyRecorder::new(),
            gauge: MemoryGauge::new(),
            events: 0,
            mem_sample_every: 256,
        })
    }

    /// Processes one event for every query; returns closed-window results.
    pub fn process(&mut self, e: &Event) -> Vec<WindowResult> {
        // hamlet-lint: allow(wallclock) -- arrival stamp for the latency recorder; never reaches results
        let now = Instant::now();
        let mut out = Vec::new();
        self.emit_expired(e.time, &mut out);
        let reg = self.reg.clone();
        for qx in &mut self.queries {
            let meta = &qx.meta;
            let Some(&tl) = meta.local.get(&e.ty) else {
                continue;
            };
            let key = partition_key(&reg, &meta.partition_attrs, e);
            let window = meta.query.window;
            let nt = meta.types.len();
            let (mm_id, is_min) = mm_identity(&meta.skeleton);
            let runs = qx.partitions.entry(key).or_default();
            for start in window.instances_containing(e.time) {
                let run = runs
                    .entry(start.ticks())
                    .or_insert_with(|| GRun::new(nt, mm_id));
                process_event(meta, run, tl, e, is_min, mm_id);
                run.last_arrival = Some(now);
            }
        }
        self.events += 1;
        if self.mem_sample_every > 0 && self.events.is_multiple_of(self.mem_sample_every) {
            let b = self.state_bytes();
            self.gauge.sample(b);
        }
        out
    }

    fn emit_expired(&mut self, watermark: Ts, out: &mut Vec<WindowResult>) {
        for qx in &mut self.queries {
            let meta = &qx.meta;
            let within = meta.query.window.within;
            let (mm_id, _) = mm_identity(&meta.skeleton);
            // hamlet-lint: allow(unordered-iter) -- baseline emission order is unspecified; the harness sorts before comparing (tests/equivalence.rs)
            for (key, runs) in qx.partitions.iter_mut() {
                while let Some((&start, _)) = runs.first_key_value() {
                    if hamlet_types::time::window_end(start, within) > watermark.ticks() {
                        break;
                    }
                    let run = runs.remove(&start).expect("first key exists");
                    if let Some(arr) = run.last_arrival {
                        self.latency.record(arr.elapsed());
                    }
                    out.push(emit(meta, &run, key.clone(), start, mm_id));
                }
            }
            // hamlet-lint: allow(unordered-iter) -- prunes empty partitions; no order-sensitive effect
            qx.partitions.retain(|_, r| !r.is_empty());
        }
    }

    /// Finalizes all open windows.
    pub fn flush(&mut self) -> Vec<WindowResult> {
        let mut out = Vec::new();
        self.emit_expired(Ts(u64::MAX), &mut out);
        out
    }

    /// Per-result latency recorder.
    pub fn latency(&self) -> &LatencyRecorder {
        &self.latency
    }

    /// Peak byte-accounted state (§6.1 memory metric).
    pub fn peak_memory(&self) -> usize {
        self.gauge.peak()
    }

    /// Current byte-accounted state.
    pub fn state_bytes(&self) -> usize {
        self.queries
            .iter()
            .map(|qx| {
                qx.partitions
                    // hamlet-lint: allow(unordered-iter) -- commutative sum (memory accounting)
                    .values()
                    .flat_map(|r| r.values())
                    .map(GRun::mem_bytes)
                    .sum::<usize>()
            })
            .sum()
    }
}

fn mm_identity(sk: &AggSkeleton) -> (MmVal, bool) {
    match sk {
        AggSkeleton::MinMax { is_min: true, .. } => (MmVal::MIN_IDENTITY, true),
        AggSkeleton::MinMax { is_min: false, .. } => (MmVal::MAX_IDENTITY, false),
        _ => (MmVal::MIN_IDENTITY, true),
    }
}

fn partition_key(reg: &TypeRegistry, attrs: &[Arc<str>], e: &Event) -> GroupKey {
    GroupKey(
        attrs
            .iter()
            .map(|name| {
                reg.attr_index(e.ty, name)
                    .and_then(|i| e.attr(i).cloned())
                    .unwrap_or(AttrValue::Int(0))
            })
            .collect(),
    )
}

fn weight(sk: &AggSkeleton, e: &Event) -> (TrendVal, bool) {
    match sk {
        AggSkeleton::Linear { ty, attr } if e.ty == *ty => {
            let w = attr
                .and_then(|a| e.attr(a))
                .map(|v| ring_of_attr(v.as_f64()))
                .unwrap_or(TrendVal::ZERO);
            (w, true)
        }
        _ => (TrendVal::ZERO, false),
    }
}

fn process_event(qx: &QMeta, run: &mut GRun, tl: usize, e: &Event, is_min: bool, mm_id: MmVal) {
    // Negation effects (§5): the event may be a negated match for this
    // query; it is never also positive (duplicate types are rejected).
    if !qx.negs[tl].is_empty() {
        if qx.query.selects(e) {
            for n in &qx.negs[tl] {
                match n {
                    GNeg::Leading => run.start_blocked = true,
                    GNeg::Gap { pred, succ } => {
                        for &p in pred {
                            for &s in succ {
                                run.gap_blocked.insert((p, s), run.stored[p].len());
                            }
                        }
                    }
                    GNeg::Trailing => {
                        let mut total = NodeVal::ZERO;
                        for (ty, &is_end) in qx.end.iter().enumerate() {
                            if is_end {
                                total.add(run.cum[ty]);
                            }
                        }
                        run.result_blocked = total;
                    }
                }
            }
        }
        return;
    }

    if !qx.query.selects(e) {
        return;
    }
    // Eq. 2 by predecessor scan (the published GRETA propagation): sum the
    // intermediate aggregates of all stored predecessor events, skipping
    // gap-blocked prefixes and edge-predicate-failing pairs.
    let mut pred = NodeVal::ZERO;
    let mut mm = mm_id;
    let mut alive = false;
    for &p in &qx.pt[tl] {
        let cutoff = run.gap_blocked.get(&(p, tl)).copied().unwrap_or(0);
        for (pe, pv, pm, pa) in &run.stored[p][cutoff..] {
            if !qx.query.edge_holds(pe, e) {
                continue;
            }
            pred.add(*pv);
            mm.fold(pm.0, is_min);
            alive |= *pa;
        }
    }
    let start = qx.start[tl] && !run.start_blocked;
    let (w, is_target) = weight(&qx.skeleton, e);
    let val = NodeVal::propagate(pred, start, w, is_target);

    let mut mm_out = mm_id;
    let mut alive_out = false;
    if let AggSkeleton::MinMax { ty, attr, .. } = &qx.skeleton {
        alive = alive || start;
        if alive {
            if e.ty == *ty {
                if let Some(v) = e.attr(*attr) {
                    mm.fold(v.as_f64(), is_min);
                }
            }
            mm_out = mm;
            alive_out = true;
        }
    }

    run.cum[tl].add(val);
    run.stored[tl].push((e.clone(), val, mm_out, alive_out || start));
}

fn emit(qx: &QMeta, run: &GRun, key: GroupKey, start: u64, mm_id: MmVal) -> WindowResult {
    let is_min = matches!(qx.skeleton, AggSkeleton::MinMax { is_min: true, .. })
        || !matches!(qx.skeleton, AggSkeleton::MinMax { .. });
    let mut raw = NodeVal::ZERO;
    let mut mm = mm_id;
    for (ty, &is_end) in qx.end.iter().enumerate() {
        if is_end {
            raw.add(run.cum[ty]);
            for (_, _, pm, _) in &run.stored[ty] {
                mm.fold(pm.0, is_min);
            }
        }
    }
    let out = MemberOutput {
        raw: raw.minus(run.result_blocked),
        mm: mm.0,
    };
    let value = render(&qx.query.agg, &out);
    WindowResult {
        query: qx.query.id,
        group_key: key,
        window_start: Ts(start),
        value,
    }
}

/// Convenience: total `COUNT(*)` per query over a finite stream (used by
/// tests and examples).
pub fn run_workload(
    reg: Arc<TypeRegistry>,
    queries: Vec<Query>,
    events: &[Event],
) -> Result<HashMap<QueryId, Vec<WindowResult>>, TemplateError> {
    let mut eng = GretaEngine::new(reg, queries)?;
    let mut all = Vec::new();
    for e in events {
        all.extend(eng.process(e));
    }
    all.extend(eng.flush());
    let mut by_query: HashMap<QueryId, Vec<WindowResult>> = HashMap::new();
    for r in all {
        by_query.entry(r.query).or_default().push(r);
    }
    Ok(by_query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_core::executor::AggValue;
    use hamlet_query::{Pattern, Window};

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

    fn ev(ty: EventTypeId, t: u64) -> Event {
        Event::new(Ts(t), ty, vec![AttrValue::Int(0), AttrValue::Int(0)])
    }

    #[test]
    fn kleene_count_matches_hand_computation() {
        let (reg, a, b, _) = registry();
        let q = Query::count_star(0, seq(a, b), Window::tumbling(100));
        // a@1, b@2, b@3, b@4: trends = non-empty subsets of {b2,b3,b4}
        // prefixed by a = 7.
        let evs = vec![ev(a, 1), ev(b, 2), ev(b, 3), ev(b, 4)];
        let res = run_workload(reg, vec![q], &evs).unwrap();
        let rs = &res[&QueryId(0)];
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].value, AggValue::Count(7));
    }

    #[test]
    fn example4_per_query_counts() {
        let (reg, a, b, c) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(100));
        let q2 = Query::count_star(2, seq(c, b), Window::tumbling(100));
        let evs = vec![ev(a, 1), ev(a, 2), ev(c, 3), ev(b, 4)];
        let res = run_workload(reg, vec![q1, q2], &evs).unwrap();
        assert_eq!(res[&QueryId(1)][0].value, AggValue::Count(2));
        assert_eq!(res[&QueryId(2)][0].value, AggValue::Count(1));
    }

    #[test]
    fn trailing_negation_blocks_results() {
        let (reg, a, b, c) = registry();
        let p = Pattern::seq(vec![
            Pattern::Type(a),
            Pattern::plus(Pattern::Type(b)),
            Pattern::Not(Box::new(Pattern::Type(c))),
        ]);
        let q = Query::count_star(0, p, Window::tumbling(100));
        // a b b | c | a b. Trends *ending before* c are followed by the
        // negative match and die: (a1,b2), (a1,b3), (a1,b2,b3). Trends
        // ending at b6 (t=6 > c) survive: count(b6) = preds {a1, a5, b2,
        // b3} = 1 + 1 + count(b2) + count(b3) = 5.
        let evs = vec![ev(a, 1), ev(b, 2), ev(b, 3), ev(c, 4), ev(a, 5), ev(b, 6)];
        let res = run_workload(reg, vec![q], &evs).unwrap();
        assert_eq!(res[&QueryId(0)][0].value, AggValue::Count(5));
    }

    #[test]
    fn leading_negation_blocks_starts() {
        let (reg, a, b, c) = registry();
        let p = Pattern::seq(vec![
            Pattern::Not(Box::new(Pattern::Type(c))),
            Pattern::Type(a),
            Pattern::plus(Pattern::Type(b)),
        ]);
        let q = Query::count_star(0, p, Window::tumbling(100));
        // c@1 blocks all later trend starts.
        let evs = vec![ev(c, 1), ev(a, 2), ev(b, 3)];
        let res = run_workload(reg, vec![q], &evs).unwrap();
        assert_eq!(res[&QueryId(0)][0].value, AggValue::Count(0));
    }

    #[test]
    fn gap_negation_severs_connections() {
        let (reg, a, b, c) = registry();
        let p = Pattern::seq(vec![
            Pattern::Type(a),
            Pattern::Not(Box::new(Pattern::Type(c))),
            Pattern::plus(Pattern::Type(b)),
        ]);
        let q = Query::count_star(0, p, Window::tumbling(100));
        // a@1 | c@2 | b@3: the c severs a→b, so no trend.
        let evs = vec![ev(a, 1), ev(c, 2), ev(b, 3)];
        let res = run_workload(reg.clone(), vec![q.clone()], &evs).unwrap();
        assert_eq!(res[&QueryId(0)][0].value, AggValue::Count(0));
        // Without the c: one trend.
        let evs = vec![ev(a, 1), ev(b, 3)];
        let res = run_workload(reg, vec![q], &evs).unwrap();
        assert_eq!(res[&QueryId(0)][0].value, AggValue::Count(1));
    }

    #[test]
    fn memory_and_latency_tracked() {
        let (reg, a, b, _) = registry();
        let q = Query::count_star(0, seq(a, b), Window::tumbling(4));
        let mut eng = GretaEngine::new(reg, vec![q]).unwrap();
        eng.mem_sample_every = 1;
        for t in 0..20u64 {
            let e = ev(if t % 4 == 0 { a } else { b }, t);
            eng.process(&e);
        }
        eng.flush();
        assert!(eng.peak_memory() > 0);
        assert!(eng.latency().count() > 0);
    }
}
