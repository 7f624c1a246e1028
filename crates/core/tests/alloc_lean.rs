//! Allocation-count regression test for the batched hot path.
//!
//! The PR-6 batching work removed the per-event `Event`/`GroupKey`/`Arc`
//! clone churn from the engine core: a burst is buffered as a count or a
//! cell column (events are cloned only for edge-predicate types) and every
//! per-batch buffer is reused. This test pins
//! that property with a counting global allocator so the churn cannot
//! silently return: a warmed engine must process a 1024-event batch with
//! fewer than one allocation per 8 events.
//!
//! Lives in its own integration binary on purpose: a process-global
//! allocation counter would be polluted by concurrently running tests in
//! a shared binary. Debug-only — release codegen is free to fold
//! allocations differently, and tier-1 CI runs the debug profile.

// The counting global allocator IS the point of this test; wrapping the
// system allocator requires implementing the unsafe GlobalAlloc trait.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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
    let before = ALLOCS.load(Ordering::Relaxed);
    eng.process_batch(&measured);
    let batched = ALLOCS.load(Ordering::Relaxed) - before;

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
