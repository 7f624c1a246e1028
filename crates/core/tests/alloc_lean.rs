//! Allocation-count regression test for the batched hot path.
//!
//! The PR-6 batching work removed the per-event `Event`/`GroupKey`/`Arc`
//! clone churn from the engine core: a burst is buffered as a count or a
//! cell column (events are cloned only for edge-predicate types) and every
//! per-batch buffer is reused. This test pins
//! that property with a counting global allocator so the churn cannot
//! silently return: a warmed engine must process a 1024-event batch with
//! fewer than one allocation per 8 events. The second case pins what
//! creating a run costs once its share group's slab and key table are
//! warm: the result keys, not the ~45 allocations of building one.
//! The third pins the router: a warm `ShardRouter` builds keys into its
//! one scratch key, so routing a single-owner event allocates nothing.
//! The fourth holds the first case's bound over a share group of 19
//! members with a head type each, whose bursts open and close graphlets
//! of many types. The fifth pins a stock-like workload of 12 share
//! groups with selections and value skeletons: the per-event selection
//! rows every group's cells are read from are reused scratch. The sixth
//! pins what a run costs where no recycled one is at hand: the same
//! allocations whatever the width of its share group.
//!
//! Lives in its own integration binary on purpose (it replaces the global
//! allocator); the counter is per thread, so the cases — which the
//! harness runs concurrently — do not see each other. Debug-only —
//! release codegen is free to fold allocations differently, and tier-1
//! CI runs the debug profile.

// The counting global allocator IS the point of this test; wrapping the
// system allocator requires implementing the unsafe GlobalAlloc trait.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor: reading it inside the
    // allocator neither allocates nor runs after thread teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations and reallocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[cfg(debug_assertions)]
#[test]
fn batched_hot_path_is_allocation_lean() {
    use hamlet_core::executor::{EngineConfig, HamletEngine};
    use hamlet_query::{Pattern, Query, Window};
    use hamlet_types::{EventBuilder, TypeRegistry};
    use std::sync::Arc;

    let mut reg = TypeRegistry::new();
    let a = reg.register("A", &["g", "v"]);
    let b = reg.register("B", &["g", "v"]);
    let reg = Arc::new(reg);
    let mk = || {
        let pat = Pattern::seq(vec![Pattern::Type(a), Pattern::plus(Pattern::Type(b))]);
        // One huge tumbling window: a single run, no expiry — the
        // measured loop is pure burst-append work.
        let q = Query::count_star(1, pat, Window::new(1_000_000, 1_000_000));
        HamletEngine::new(
            reg.clone(),
            vec![q],
            EngineConfig {
                mem_sample_every: 0,
                track_latency: false,
                ..EngineConfig::default()
            },
        )
        .unwrap()
    };
    let n: u64 = 1024;
    let ev = |ty, t: u64| {
        EventBuilder::new(&reg, ty, t)
            .attr("g", 0i64)
            .attr("v", 0.0)
            .build()
    };
    // Warm-up: a full B burst, flushed by the type switch to A —
    // afterwards every scratch vector has its steady-state capacity.
    let warm: Vec<_> = (0..n).map(|t| ev(b, t)).collect();
    let measured: Vec<_> = (0..n).map(|t| ev(b, n + 1 + t)).collect();

    let mut eng = mk();
    eng.process_batch(&warm);
    eng.process_batch(std::slice::from_ref(&ev(a, n)));
    let before = allocs();
    eng.process_batch(&measured);
    let batched = allocs() - before;

    assert!(
        batched < n / 8,
        "batched path allocated {batched} times for {n} events (budget {})",
        n / 8
    );
    // The per-event fold agrees on what was computed.
    let mut fold = mk();
    for e in warm.iter().chain([&ev(a, n)]).chain(&measured) {
        fold.process(e);
    }
    assert_eq!(eng.flush(), fold.flush());
}

/// Creating a run in a warm share group allocates what leaves the engine
/// with it — the k result keys (18 036 allocations for 6 000 runs of
/// three members) — and nothing for the run or its key: the
/// slab hands back a recycled run, the key table a freed id with its key
/// buffer, the expiry entry is four integers, and the key's run list is
/// its id's entry of the group's lists. With the memory gauge at its
/// default: a sample reads a counter.
#[cfg(debug_assertions)]
#[test]
fn run_creation_in_a_warm_group_is_allocation_lean() {
    use hamlet_core::executor::{EngineConfig, HamletEngine};
    use hamlet_query::{Pattern, Query, Window};
    use hamlet_types::{EventBuilder, TypeRegistry};
    use std::sync::Arc;

    let mut reg = TypeRegistry::new();
    let b = reg.register("B", &["g"]);
    let heads = ["A", "C", "D"].map(|name| reg.register(name, &["g"]));
    let reg = Arc::new(reg);
    let k = heads.len() as u64;
    let queries = (heads.iter().zip(1..))
        .map(|(&head, id)| {
            let pat = Pattern::seq(vec![Pattern::Type(head), Pattern::plus(Pattern::Type(b))]);
            let mut q = Query::count_star(id, pat, Window::tumbling(100));
            q.group_by = vec![Arc::from("g")];
            q
        })
        .collect();
    let cfg = EngineConfig {
        track_latency: false,
        ..EngineConfig::default()
    };
    assert_eq!(cfg.mem_sample_every, 256, "the gauge stays on");
    let mut eng = HamletEngine::new(reg.clone(), queries, cfg).unwrap();
    assert_eq!(eng.num_groups(), 1);

    // Per window every one of 2 000 keys gets a head and two B events, its
    // events adjacent: one run per key per window.
    let keys = 2_000u64;
    let window = |w: u64| -> Vec<_> {
        (0..keys)
            .flat_map(|g| [heads[(g % k) as usize], b, b].map(move |ty| (ty, g)))
            .map(|(ty, g)| {
                EventBuilder::new(&reg, ty, w * 100 + g / 20)
                    .attr("g", g as i64)
                    .build()
            })
            .collect()
    };
    let feed = |eng: &mut HamletEngine, events: &[_]| -> u64 {
        let batches = events.chunks(256);
        batches.map(|c| eng.process_batch(c).len() as u64).sum()
    };
    // Window 0 builds the runs; window 1 closes it and recycles them.
    let warm: Vec<_> = (0..2).flat_map(window).collect();
    assert_eq!(feed(&mut eng, &warm), keys * k);

    let measured: Vec<_> = (2..5).flat_map(window).collect();
    let (before, runs_before) = (allocs(), eng.stats().expiry_pushes);
    let results = feed(&mut eng, &measured);
    let (spent, runs) = (allocs() - before, eng.stats().expiry_pushes - runs_before);
    assert_eq!((runs, results), (3 * keys, 3 * keys * k));
    assert!(
        spent <= runs * k + 64,
        "{spent} allocations for {runs} runs of {k} members (budget {k} each, plus 64)"
    );
    assert!(eng.peak_memory() > 0);
}

/// Routing builds every key into the router's one scratch key: at two
/// workers, events with one owner each are routed without a single
/// allocation (a second owner would cost the event's clone).
#[cfg(debug_assertions)]
#[test]
fn routing_a_single_owner_event_does_not_allocate() {
    use hamlet_core::executor::EngineConfig;
    use hamlet_core::ShardRouter;
    use hamlet_query::{Pattern, Query, Window};
    use hamlet_types::{EventBuilder, TypeRegistry};
    use std::sync::Arc;

    let mut reg = TypeRegistry::new();
    let a = reg.register("A", &["g"]);
    let b = reg.register("B", &["g"]);
    let reg = Arc::new(reg);
    let pat = Pattern::seq(vec![Pattern::Type(a), Pattern::plus(Pattern::Type(b))]);
    let mut q = Query::count_star(1, pat, Window::tumbling(100));
    q.group_by = vec![Arc::from("g")];
    let mut router = ShardRouter::new(reg.clone(), vec![q], EngineConfig::default(), 2).unwrap();
    let n = 1024u64;
    let events = |from: u64| -> Vec<_> {
        (from..from + n)
            .map(|t| {
                EventBuilder::new(&reg, b, t)
                    .attr("g", (t % 13) as i64)
                    .build()
            })
            .collect()
    };
    let mut shards: [Vec<_>; 2] = [Vec::with_capacity(2 * n as usize), Vec::new()];
    shards[1].reserve(2 * n as usize);
    let mut route = |router: &mut ShardRouter, events: Vec<_>| {
        for e in events {
            router.route(e, |idx, e, _| shards[idx].push(e));
        }
    };
    route(&mut router, events(0));
    let measured = events(n);
    let before = allocs();
    route(&mut router, measured);
    let spent = allocs() - before;
    assert_eq!(spent, 0, "{spent} allocations routing {n} events");
    assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), 2 * n as usize);
    assert!(shards.iter().all(|s| !s.is_empty()), "both shards own keys");
}

/// The same bound over one share group of 19 `SEQ(H_i, B+)` members with
/// a head type each (20 types): head bursts of many types between `B`
/// bursts open and close solo graphlets of many types per burst, and a
/// warm run reuses their storage.
#[cfg(debug_assertions)]
#[test]
fn many_head_types_are_allocation_lean() {
    use hamlet_core::executor::{EngineConfig, HamletEngine};
    use hamlet_query::{Pattern, Query, Window};
    use hamlet_types::{EventBuilder, TypeRegistry};
    use std::sync::Arc;

    let mut reg = TypeRegistry::new();
    let b = reg.register("B", &["v"]);
    let heads: Vec<_> = (0..19)
        .map(|i| reg.register(&format!("H{i}"), &["v"]))
        .collect();
    let reg = Arc::new(reg);
    let queries = (heads.iter().zip(1..))
        .map(|(&head, id)| {
            let pat = Pattern::seq(vec![Pattern::Type(head), Pattern::plus(Pattern::Type(b))]);
            Query::count_star(id, pat, Window::new(1_000_000, 1_000_000))
        })
        .collect();
    let cfg = EngineConfig {
        mem_sample_every: 0,
        track_latency: false,
        ..EngineConfig::default()
    };
    let mut eng = HamletEngine::new(reg.clone(), queries, cfg).unwrap();
    assert_eq!(eng.num_groups(), 1);
    // Per 16 events: three heads of different types, then 13 B events.
    let n: u64 = 1024;
    let events = |from: u64| -> Vec<_> {
        (from..from + n)
            .map(|t| {
                let ty = if t % 16 < 3 {
                    heads[(t * 7 % 19) as usize]
                } else {
                    b
                };
                EventBuilder::new(&reg, ty, t).attr("v", 0.0).build()
            })
            .collect()
    };
    let (warm, measured) = (events(0), events(n));
    eng.process_batch(&warm);
    let before = allocs();
    eng.process_batch(&measured);
    let spent = allocs() - before;
    assert!(
        spent < n / 8,
        "{spent} allocations for {n} events (budget {})",
        n / 8
    );
}

/// Twelve share groups (four windows × three partitionings), four
/// members each with selections on the Kleene type drawn from one pool
/// (shared between groups and not) and `SUM` / `MIN` / `COUNT`
/// skeletons: once warm, 4 096 events in batches of 256 allocate 7 272
/// times, for the 8 160 results the closed windows hand out (a result of
/// the four ungrouped groups clones an empty key, which allocates
/// nothing) and the output vectors' growth. The selection rows are
/// written into reused buffers, and a key the scan meets is interned in
/// its class's key table, which reuses a freed id's key buffer: no
/// partition key is copied per segment or per window.
#[cfg(debug_assertions)]
#[test]
fn twelve_groups_with_selections_are_allocation_lean() {
    use hamlet_core::executor::{EngineConfig, HamletEngine};
    use hamlet_query::{AggFunc, CmpOp, Pattern, Query, QueryId, SelectionPredicate, Window};
    use hamlet_types::{AttrValue, EventBuilder, TypeRegistry};
    use std::sync::Arc;

    let mut reg = TypeRegistry::new();
    let a = reg.register("A", &["sym", "sector", "price"]);
    let b = reg.register("B", &["sym", "sector", "price"]);
    let reg = Arc::new(reg);
    let mut queries = Vec::new();
    for (wi, within) in [20u64, 30, 40, 60].into_iter().enumerate() {
        for (pi, by) in [&[][..], &["sym"][..], &["sector"][..]]
            .into_iter()
            .enumerate()
        {
            for m in 0..4 {
                let id = (wi * 12 + pi * 4 + m) as u32;
                let agg = [AggFunc::Sum(b, 2), AggFunc::Min(b, 2), AggFunc::CountStar][pi].clone();
                let ops = [CmpOp::Gt, CmpOp::Lt, CmpOp::Ge, CmpOp::Ne];
                let sel = |k: usize| SelectionPredicate {
                    ty: b,
                    attr: 2,
                    op: ops[k % 4],
                    value: AttrValue::Float((k % 7) as f64 * 10.0),
                };
                let pat = Pattern::seq(vec![Pattern::Type(a), Pattern::plus(Pattern::Type(b))]);
                let by: Vec<Arc<str>> = by.iter().map(|&s| Arc::from(s)).collect();
                let window = Window::new(within, within / 2);
                let selections = vec![sel(m + wi), sel(id as usize)];
                let q = Query::new(
                    QueryId(id),
                    pat,
                    agg,
                    selections,
                    vec![],
                    by,
                    vec![],
                    window,
                );
                queries.push(q.unwrap());
            }
        }
    }
    let cfg = EngineConfig {
        mem_sample_every: 0,
        track_latency: false,
        ..EngineConfig::default()
    };
    let mut eng = HamletEngine::new(reg.clone(), queries, cfg).unwrap();
    assert_eq!(eng.num_groups(), 12);
    let n: u64 = 4096;
    let events = |from: u64| -> Vec<_> {
        (from..from + n)
            .map(|i| {
                EventBuilder::new(&reg, if i.is_multiple_of(8) { a } else { b }, i / 4)
                    .attr("sym", (i % 5) as i64)
                    .attr("sector", (i % 2) as i64)
                    .attr("price", (i * 37 % 70) as f64)
                    .build()
            })
            .collect()
    };
    let feed = |eng: &mut HamletEngine, events: &[_]| -> usize {
        events.chunks(256).map(|c| eng.process_batch(c).len()).sum()
    };
    let (warm, measured) = (events(0), events(n));
    feed(&mut eng, &warm);
    let before = allocs();
    let results = feed(&mut eng, &measured);
    let spent = allocs() - before;
    assert_eq!(results, 8_160, "windows closed in the measured batches");
    assert!(
        spent <= 7_272,
        "{spent} allocations for {n} events and {results} results (budget 7 272)"
    );
}

/// Expiry at high cardinality: 10 000 keys recurring Zipf-like
/// (exponent 0.8, as `rides_highcard_w1` draws them) over tumbling
/// windows of 100 ticks, 6 000 bursts a window, so every close expires
/// about 3 000 runs at once. Once warm, three windows allocate 27 046
/// times for 8 969 runs and 26 964 results: the result keys and the
/// result vectors' growth — nothing per expiry entry, bucket or sort, and
/// nothing per key: a key enters its class's key table once, into a
/// freed id's buffer, and leaves it with its last run.
#[cfg(debug_assertions)]
#[test]
fn expiring_ten_thousand_zipf_keys_is_allocation_lean() {
    use hamlet_core::executor::{EngineConfig, HamletEngine};
    use hamlet_query::{Pattern, Query, Window};
    use hamlet_types::{EventBuilder, TypeRegistry};
    use std::sync::Arc;

    let mut reg = TypeRegistry::new();
    let b = reg.register("B", &["g"]);
    let heads = ["A", "C", "D"].map(|name| reg.register(name, &["g"]));
    let reg = Arc::new(reg);
    let queries = (heads.iter().zip(1..))
        .map(|(&head, id)| {
            let pat = Pattern::seq(vec![Pattern::Type(head), Pattern::plus(Pattern::Type(b))]);
            let mut q = Query::count_star(id, pat, Window::tumbling(100));
            q.group_by = vec![Arc::from("g")];
            q
        })
        .collect();
    let cfg = EngineConfig {
        track_latency: false,
        ..EngineConfig::default()
    };
    let mut eng = HamletEngine::new(reg.clone(), queries, cfg).unwrap();

    // Per burst a head and two B events of one key, its rank drawn by
    // inverting the Zipf(0.8) distribution function over 1..=10 000.
    let mut s = 0x2545_f491_4f6c_dd1d_u64;
    let mut rank = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let u = (s >> 11) as f64 / (1u64 << 53) as f64;
        let r = (1.0 + u * (10_000f64.powf(0.2) - 1.0)).powf(5.0);
        (r as i64).clamp(1, 10_000)
    };
    let mut window = |w: u64| -> Vec<_> {
        (0..6_000u64)
            .flat_map(|i| {
                let g = rank();
                [heads[(i % 3) as usize], b, b].map(move |ty| (ty, g, w * 100 + i / 60))
            })
            .map(|(ty, g, t)| EventBuilder::new(&reg, ty, t).attr("g", g).build())
            .collect()
    };
    let feed = |eng: &mut HamletEngine, events: &[_]| -> u64 {
        let batches = events.chunks(256);
        batches.map(|c| eng.process_batch(c).len() as u64).sum()
    };
    let warm: Vec<_> = (0..3).flat_map(&mut window).collect();
    feed(&mut eng, &warm);
    let measured: Vec<_> = (3..6).flat_map(&mut window).collect();
    let (before, runs_before) = (allocs(), eng.stats().expiry_pushes);
    let results = feed(&mut eng, &measured);
    let (spent, runs) = (allocs() - before, eng.stats().expiry_pushes - runs_before);
    assert_eq!((runs, results), (8_969, 26_964));
    assert!(
        spent <= 27_046,
        "{spent} allocations for {runs} runs and {results} results (budget 27 046)"
    );
}

/// Creating a run in a cold group — no recycled run to hand out — makes
/// the same allocations per run whatever the group's shape: one (the
/// per-type stored-event list) for a 20-type, 19-member `SEQ(H_i, B+)`
/// group, the shape of `rides_shared_w2`'s, as for a 2-type, 1-member
/// one. A run holds rows only for the types it touches, so creating it
/// builds none (it once built 4·nt + 7 blocks: 87 here).
#[cfg(debug_assertions)]
#[test]
fn creating_a_run_in_a_cold_group_does_not_depend_on_its_width() {
    use hamlet_core::{analyze, GroupRuntime, Run};
    use hamlet_query::{Pattern, Query, Window};
    use hamlet_types::EventTypeId;
    use std::sync::Arc;

    let group = |heads: u16| {
        let b = Pattern::plus(Pattern::Type(EventTypeId(0)));
        let queries: Vec<Arc<Query>> = (1..=heads)
            .map(|i| {
                let pat = Pattern::seq(vec![Pattern::Type(EventTypeId(i)), b.clone()]);
                Arc::new(Query::count_star(i.into(), pat, Window::tumbling(100)))
            })
            .collect();
        let plan = analyze(&queries).unwrap();
        assert_eq!(plan.groups.len(), 1);
        GroupRuntime::new(&plan.groups[0])
    };
    let per_run = |rt: &Arc<GroupRuntime>| {
        let mut runs = Vec::with_capacity(100);
        let before = allocs();
        runs.extend((0..100).map(|_| Run::new(rt.clone())));
        let spent = allocs() - before;
        assert_eq!(spent % 100, 0, "{spent} allocations for 100 runs");
        spent / 100
    };
    let (wide, narrow) = (group(19), group(1));
    assert_eq!((wide.k(), wide.template.num_types()), (19, 20));
    assert_eq!((narrow.k(), narrow.template.num_types()), (1, 2));
    let (wide, narrow) = (per_run(&wide), per_run(&narrow));
    assert_eq!(
        wide, narrow,
        "allocations per run: 20 types {wide}, 2 types {narrow}"
    );
    assert!(wide <= 1, "{wide} allocations per run");
}
