//! Two-step (MCEP-style) trend aggregation (§6.1, \[22\]): construct event
//! trends first — with construction state shared across queries — then
//! aggregate them.
//!
//! Step 1 (shared): queries with equal partitioning and windows share one
//! stored event graph per partition and window instance.
//!
//! Step 2 (per query): at window close, all trends are enumerated by DFS
//! over the predecessor relation and folded into the aggregate. The number
//! of trends is exponential in the number of matched events (§1), which is
//! precisely the cost HAMLET's online propagation avoids; a configurable
//! work budget keeps benchmarks bounded (`truncated()` reports when it
//! bites). With an unlimited budget this engine doubles as the brute-force
//! correctness oracle for every other strategy in the workspace.

use hamlet_core::agg::{ring_of_attr, MmVal, NodeVal};
use hamlet_core::executor::{render, WindowResult};
use hamlet_core::metrics::{LatencyRecorder, MemoryGauge};
use hamlet_core::run::MemberOutput;
use hamlet_core::template::{NegKind, QueryTemplate, TemplateError};
use hamlet_core::workload::AggSkeleton;
use hamlet_query::Query;
use hamlet_types::{AttrValue, Event, EventTypeId, GroupKey, TrendVal, Ts, TypeRegistry};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// A compiled member query.
struct TQuery {
    query: Arc<Query>,
    tpl: QueryTemplate,
    skeleton: AggSkeleton,
}

/// Construction-sharing group (equal partition attrs and window).
struct TGroup {
    queries: Vec<TQuery>,
    partition_attrs: Vec<Arc<str>>,
    window: hamlet_query::Window,
    partitions: HashMap<GroupKey, BTreeMap<u64, TRun>>,
}

/// Shared step-1 state: the stored events of one window instance.
struct TRun {
    events: Vec<Event>,
    last_arrival: Option<Instant>,
}

/// The two-step baseline engine.
pub struct TwoStepEngine {
    reg: Arc<TypeRegistry>,
    groups: Vec<TGroup>,
    /// Maximum DFS steps per (query, window); `None` = unlimited (oracle
    /// mode).
    pub budget: Option<u64>,
    truncated: u64,
    latency: LatencyRecorder,
    gauge: MemoryGauge,
    events: u64,
}

impl TwoStepEngine {
    /// Compiles the workload, grouping queries that can share trend
    /// construction.
    pub fn new(
        reg: Arc<TypeRegistry>,
        queries: Vec<Query>,
        budget: Option<u64>,
    ) -> Result<Self, TemplateError> {
        let mut groups: Vec<TGroup> = Vec::new();
        for q in queries {
            let tpl = QueryTemplate::build(&q.pattern)?;
            let tq = TQuery {
                skeleton: AggSkeleton::of(&q.agg),
                query: Arc::new(q),
                tpl,
            };
            let attrs = tq.query.partition_attrs();
            let window = tq.query.window;
            match groups
                .iter_mut()
                .find(|g| g.partition_attrs == attrs && g.window == window)
            {
                Some(g) => g.queries.push(tq),
                None => groups.push(TGroup {
                    queries: vec![tq],
                    partition_attrs: attrs,
                    window,
                    partitions: HashMap::new(),
                }),
            }
        }
        Ok(TwoStepEngine {
            reg,
            groups,
            budget,
            truncated: 0,
            latency: LatencyRecorder::new(),
            gauge: MemoryGauge::new(),
            events: 0,
        })
    }

    /// Processes one event (step 1: shared graph construction).
    pub fn process(&mut self, e: &Event) -> Vec<WindowResult> {
        // hamlet-lint: allow(wallclock) -- arrival stamp for the latency recorder; never reaches results
        let now = Instant::now();
        let mut out = Vec::new();
        self.emit_expired(e.time, &mut out);
        let reg = self.reg.clone();
        for g in &mut self.groups {
            let relevant = g.queries.iter().any(|tq| {
                tq.tpl.states.contains(&e.ty) || tq.tpl.negations.iter().any(|n| n.neg_ty == e.ty)
            });
            if !relevant {
                continue;
            }
            let key = GroupKey(
                g.partition_attrs
                    .iter()
                    .map(|name| {
                        reg.attr_index(e.ty, name)
                            .and_then(|i| e.attr(i).cloned())
                            .unwrap_or(AttrValue::Int(0))
                    })
                    .collect(),
            );
            let runs = g.partitions.entry(key).or_default();
            for start in g.window.instances_containing(e.time) {
                let run = runs.entry(start.ticks()).or_insert_with(|| TRun {
                    events: Vec::new(),
                    last_arrival: None,
                });
                run.events.push(e.clone());
                run.last_arrival = Some(now);
            }
        }
        self.events += 1;
        if self.events.is_multiple_of(256) {
            let b = self.state_bytes();
            self.gauge.sample(b);
        }
        out
    }

    fn emit_expired(&mut self, watermark: Ts, out: &mut Vec<WindowResult>) {
        let budget = self.budget;
        for g in &mut self.groups {
            let within = g.window.within;
            let mut finished = Vec::new();
            // hamlet-lint: allow(unordered-iter) -- baseline emission order is unspecified; the harness sorts before comparing (tests/equivalence.rs)
            for (key, runs) in g.partitions.iter_mut() {
                while let Some((&start, _)) = runs.first_key_value() {
                    if hamlet_types::time::window_end(start, within) > watermark.ticks() {
                        break;
                    }
                    let run = runs.remove(&start).expect("first key exists");
                    finished.push((key.clone(), start, run));
                }
            }
            // hamlet-lint: allow(unordered-iter) -- prunes empty partitions; no order-sensitive effect
            g.partitions.retain(|_, r| !r.is_empty());
            for (key, start, run) in finished {
                if let Some(arr) = run.last_arrival {
                    self.latency.record(arr.elapsed());
                }
                for tq in &g.queries {
                    // Step 2: per-query trend enumeration + aggregation.
                    let (output, truncated) = enumerate(tq, &run.events, budget);
                    if truncated {
                        self.truncated += 1;
                    }
                    out.push(WindowResult {
                        query: tq.query.id,
                        group_key: key.clone(),
                        window_start: Ts(start),
                        value: render(&tq.query.agg, &output),
                    });
                }
            }
        }
    }

    /// Finalizes all open windows.
    pub fn flush(&mut self) -> Vec<WindowResult> {
        let mut out = Vec::new();
        self.emit_expired(Ts(u64::MAX), &mut out);
        out
    }

    /// Number of enumerations cut short by the work budget.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Per-result latency recorder.
    pub fn latency(&self) -> &LatencyRecorder {
        &self.latency
    }

    /// Peak byte-accounted state (stored events + the current trend, §6.1).
    pub fn peak_memory(&self) -> usize {
        self.gauge.peak()
    }

    /// Current byte-accounted state.
    pub fn state_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|g| {
                g.partitions
                    // hamlet-lint: allow(unordered-iter) -- commutative sum (memory accounting)
                    .values()
                    .flat_map(|r| r.values())
                    .map(|run| run.events.iter().map(Event::mem_bytes).sum::<usize>())
                    .sum::<usize>()
            })
            .sum()
    }
}

/// Enumerates all trends of one query over the window's events and folds
/// the aggregate. Returns `(output, truncated)`.
fn enumerate(tq: &TQuery, events: &[Event], budget: Option<u64>) -> (MemberOutput, bool) {
    let q = &tq.query;
    let tpl = &tq.tpl;
    let is_min = !matches!(tq.skeleton, AggSkeleton::MinMax { is_min: false, .. });
    let mm_id = if is_min {
        MmVal::MIN_IDENTITY
    } else {
        MmVal::MAX_IDENTITY
    };

    // Matched positive events and negated-match positions.
    let matched: Vec<bool> = events
        .iter()
        .map(|e| tpl.states.contains(&e.ty) && q.selects(e))
        .collect();
    let neg_positions: Vec<(usize, EventTypeId)> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| tpl.negations.iter().any(|n| n.neg_ty == e.ty) && q.selects(e))
        .map(|(i, e)| (i, e.ty))
        .collect();

    let leading_block: Option<usize> = tpl
        .negations
        .iter()
        .filter(|n| matches!(n.kind, NegKind::Leading { .. }))
        .filter_map(|n| {
            neg_positions
                .iter()
                .find(|(_, t)| *t == n.neg_ty)
                .map(|(i, _)| *i)
        })
        .min();
    let trailing_after: Option<usize> = tpl
        .negations
        .iter()
        .filter(|n| matches!(n.kind, NegKind::Trailing))
        .filter_map(|n| {
            neg_positions
                .iter()
                .rev()
                .find(|(_, t)| *t == n.neg_ty)
                .map(|(i, _)| *i)
        })
        .max();
    let gaps: Vec<(&BTreeSet<EventTypeId>, &BTreeSet<EventTypeId>, Vec<usize>)> = tpl
        .negations
        .iter()
        .filter_map(|n| match &n.kind {
            NegKind::Gap { pred, succ } => Some((
                pred,
                succ,
                neg_positions
                    .iter()
                    .filter(|(_, t)| *t == n.neg_ty)
                    .map(|(i, _)| *i)
                    .collect(),
            )),
            _ => None,
        })
        .collect();

    struct Dfs<'a> {
        events: &'a [Event],
        matched: &'a [bool],
        q: &'a Query,
        tpl: &'a QueryTemplate,
        skeleton: &'a AggSkeleton,
        gaps: &'a [(
            &'a BTreeSet<EventTypeId>,
            &'a BTreeSet<EventTypeId>,
            Vec<usize>,
        )],
        trailing_after: Option<usize>,
        is_min: bool,
        steps: u64,
        budget: Option<u64>,
        total: NodeVal,
        mm: MmVal,
        truncated: bool,
    }

    impl Dfs<'_> {
        fn target_contrib(&self, e: &Event) -> (TrendVal, u64, Option<f64>) {
            match self.skeleton {
                AggSkeleton::CountOnly => (TrendVal::ZERO, 0, None),
                AggSkeleton::Linear { ty, attr } if e.ty == *ty => {
                    let w = attr
                        .and_then(|a| e.attr(a))
                        .map(|v| ring_of_attr(v.as_f64()))
                        .unwrap_or(TrendVal::ZERO);
                    (w, 1, None)
                }
                AggSkeleton::MinMax { ty, attr, .. } if e.ty == *ty => {
                    let v = e.attr(*attr).map(|v| v.as_f64());
                    (TrendVal::ZERO, 0, v)
                }
                _ => (TrendVal::ZERO, 0, None),
            }
        }

        fn edge_ok(&self, i: usize, j: usize) -> bool {
            let (pi, pj) = (&self.events[i], &self.events[j]);
            if !self.tpl.edges.contains(&(pi.ty, pj.ty)) {
                return false;
            }
            if !self.q.edge_holds(pi, pj) {
                return false;
            }
            for (pred, succ, negs) in self.gaps {
                if pred.contains(&pi.ty)
                    && succ.contains(&pj.ty)
                    && negs.iter().any(|&n| i < n && n < j)
                {
                    return false;
                }
            }
            true
        }

        /// Extends the trend ending at `i` with running path aggregates.
        fn go(&mut self, i: usize, sum: TrendVal, cnt: TrendVal, mm: MmVal) {
            if self.truncated {
                return;
            }
            self.steps += 1;
            if let Some(b) = self.budget {
                if self.steps > b {
                    self.truncated = true;
                    return;
                }
            }
            if self.tpl.end.contains(&self.events[i].ty)
                && self.trailing_after.is_none_or(|n| i > n)
            {
                self.total.count += TrendVal::ONE;
                self.total.sum += sum;
                self.total.cnt += cnt;
                self.mm.fold(mm.0, self.is_min);
            }
            for j in i + 1..self.events.len() {
                if !self.matched[j] || !self.edge_ok(i, j) {
                    continue;
                }
                let (w, c, mv) = self.target_contrib(&self.events[j]);
                let mut mm2 = mm;
                if let Some(v) = mv {
                    mm2.fold(v, self.is_min);
                }
                self.go(j, sum + w, cnt + TrendVal(c), mm2);
            }
        }
    }

    let mut dfs = Dfs {
        events,
        matched: &matched,
        q,
        tpl,
        skeleton: &tq.skeleton,
        gaps: &gaps,
        trailing_after,
        is_min,
        steps: 0,
        budget,
        total: NodeVal::ZERO,
        mm: mm_id,
        truncated: false,
    };
    for (i, e) in events.iter().enumerate() {
        if !matched[i] || !tpl.start.contains(&e.ty) {
            continue;
        }
        if leading_block.is_some_and(|n| i > n) {
            continue;
        }
        let (w, c, mv) = dfs.target_contrib(e);
        let mut mm = mm_id;
        if let Some(v) = mv {
            mm.fold(v, is_min);
        }
        dfs.go(i, w, TrendVal(c), mm);
        if dfs.truncated {
            break;
        }
    }
    (
        MemberOutput {
            raw: dfs.total,
            mm: dfs.mm.0,
        },
        dfs.truncated,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_core::executor::AggValue;
    use hamlet_query::{Pattern, QueryId, Window};

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
        Event::new(
            Ts(t),
            ty,
            vec![AttrValue::Int(0), AttrValue::Float(t as f64)],
        )
    }

    fn run(engine: &mut TwoStepEngine, evs: &[Event]) -> Vec<WindowResult> {
        let mut out = Vec::new();
        for e in evs {
            out.extend(engine.process(e));
        }
        out.extend(engine.flush());
        out
    }

    #[test]
    fn enumerates_kleene_trends() {
        let (reg, a, b, _) = registry();
        let q = Query::count_star(0, seq(a, b), Window::tumbling(100));
        let mut eng = TwoStepEngine::new(reg, vec![q], None).unwrap();
        // a b b b → 7 trends.
        let evs = vec![ev(a, 1), ev(b, 2), ev(b, 3), ev(b, 4)];
        let out = run(&mut eng, &evs);
        assert_eq!(out[0].value, AggValue::Count(7));
        assert_eq!(eng.truncated(), 0);
    }

    #[test]
    fn shared_construction_single_group() {
        let (reg, a, b, c) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(100));
        let q2 = Query::count_star(2, seq(c, b), Window::tumbling(100));
        let mut eng = TwoStepEngine::new(reg, vec![q1, q2], None).unwrap();
        assert_eq!(eng.groups.len(), 1); // construction shared
        let evs = vec![ev(a, 1), ev(a, 2), ev(c, 3), ev(b, 4)];
        let mut out = run(&mut eng, &evs);
        out.sort_by_key(|r| r.query);
        assert_eq!(out[0].value, AggValue::Count(2)); // Example 4
        assert_eq!(out[1].value, AggValue::Count(1));
    }

    #[test]
    fn budget_truncates_exponential_blowup() {
        let (reg, a, b, _) = registry();
        let q = Query::count_star(0, seq(a, b), Window::tumbling(1000));
        let mut eng = TwoStepEngine::new(reg, vec![q], Some(100)).unwrap();
        let mut evs = vec![ev(a, 0)];
        evs.extend((1..30).map(|t| ev(b, t)));
        let _ = run(&mut eng, &evs);
        assert!(eng.truncated() > 0);
    }

    #[test]
    fn aggregates_sum_min_max() {
        let (reg, a, b, _) = registry();
        let vb = 1usize; // "v" slot
        let mk = |id, agg| {
            Query::new(
                QueryId(id),
                seq(a, b),
                agg,
                vec![],
                vec![],
                vec![],
                vec![],
                Window::tumbling(100),
            )
            .unwrap()
        };
        let queries = [
            mk(1, hamlet_query::AggFunc::Sum(b, vb)),
            mk(2, hamlet_query::AggFunc::Min(b, vb)),
            mk(3, hamlet_query::AggFunc::Max(b, vb)),
        ];
        let mut eng = TwoStepEngine::new(
            reg,
            vec![queries[0].clone(), queries[1].clone(), queries[2].clone()],
            None,
        )
        .unwrap();
        // a@1, b@2 (v=2), b@3 (v=3): trends (a,b2)(a,b3)(a,b2,b3);
        // SUM = 2 + 3 + 5 = 10; MIN = 2; MAX = 3.
        let evs = vec![ev(a, 1), ev(b, 2), ev(b, 3)];
        let mut out = run(&mut eng, &evs);
        out.sort_by_key(|r| r.query);
        assert_eq!(out[0].value, AggValue::Float(10.0));
        assert_eq!(out[1].value, AggValue::Float(2.0));
        assert_eq!(out[2].value, AggValue::Float(3.0));
    }

    #[test]
    fn gap_negation_respected() {
        let (reg, a, b, c) = registry();
        let p = Pattern::seq(vec![
            Pattern::Type(a),
            Pattern::Not(Box::new(Pattern::Type(c))),
            Pattern::plus(Pattern::Type(b)),
        ]);
        let q = Query::count_star(0, p, Window::tumbling(100));
        let mut eng = TwoStepEngine::new(reg, vec![q], None).unwrap();
        // a c b: c severs a→b. But a, b, (second a), b … keep simple:
        // a@1 c@2 b@3 → 0 trends.
        let evs = vec![ev(a, 1), ev(c, 2), ev(b, 3)];
        let out = run(&mut eng, &evs);
        assert_eq!(out[0].value, AggValue::Count(0));
    }
}
