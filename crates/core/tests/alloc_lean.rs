//! Allocation-count regression test for the batched hot path.
//!
//! The PR-6 batching work removed the per-event `Event`/`GroupKey`/`Arc`
//! clone churn from the engine core: a burst is buffered as a count or a
//! cell column (events are cloned only for edge-predicate types) and every
//! per-batch buffer is reused. This test pins
//! that property with a counting global allocator so the churn cannot
//! silently return: a warmed engine must process a 1024-event batch with
//! fewer than one allocation per 8 events. The second case pins what
//! creating a run costs once its share group's slab is warm: the result
//! keys and a few key clones, not the ~45 allocations of building one.
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
/// with it or outlives the call — the k result keys, the key's entry in
/// the partition map, its entry in the segment's bucket index — and
/// nothing for the run itself: the slab hands back a recycled one, the
/// expiry entry is four integers, the key's run list sits in its map
/// entry. With the memory gauge at its default: a sample reads a counter.
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
        spent <= runs * (k + 4),
        "{spent} allocations for {runs} runs of {k} members (budget {} each)",
        k + 4
    );
    assert!(eng.peak_memory() > 0);
}
