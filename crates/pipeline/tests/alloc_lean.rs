//! Allocation-count regression test for the ingest thread's reorder stage.
//!
//! The reorder buffer keeps one arrival-ordered bucket per distinct
//! timestamp and recycles the buckets it empties, and
//! `ReorderBuffer::release_into` appends to a caller's vector: once warm,
//! holding and releasing an event allocates nothing. The cases pin that
//! with a counting global allocator so a per-event allocation cannot
//! silently return — an in-order stream makes none, a bounded-delay
//! shuffle stays within a few for the map's own nodes.
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
#[cfg(debug_assertions)]
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
mod cases {
    use super::allocs;
    use hamlet_pipeline::ReorderBuffer;
    use hamlet_types::{AttrValue, Event, EventTypeId, Ts};
    use std::time::Instant;

    const N: u64 = 1024;

    /// `N` events from tick `from` on, four per tick.
    fn stream(from: u64) -> Vec<Event> {
        (0..N)
            .map(|i| Event::new(Ts(from + i / 4), EventTypeId(0), vec![AttrValue::Int(0)]))
            .collect()
    }

    /// Feeds `events` through the buffer the way the ingest stage does
    /// under `slack`: push, then release up to `max seen − slack`. Returns
    /// the allocations it made and the released events.
    fn feed(b: &mut ReorderBuffer, events: Vec<Event>, slack: u64) -> (u64, Vec<Event>) {
        let (now, mut out) = (Instant::now(), Vec::with_capacity(events.len()));
        let mut max = 0;
        let before = allocs();
        for e in events {
            max = max.max(e.time.ticks());
            b.push(e, now);
            b.release_into(Ts(max.saturating_sub(slack)), &mut out);
        }
        let spent = allocs() - before;
        b.release_into(Ts(u64::MAX), &mut out);
        (spent, out.into_iter().map(|(e, _)| e).collect())
    }

    /// In order, every push is released at once: the bucket it took comes
    /// back to the spares, and the map's one leaf stays allocated.
    #[test]
    fn an_in_order_stream_holds_and_releases_without_allocating() {
        let mut b = ReorderBuffer::new();
        feed(&mut b, stream(0), 0);
        let measured = stream(N);
        let (spent, out) = feed(&mut b, measured.clone(), 0);
        assert_eq!(out, measured);
        assert_eq!(spent, 0, "{spent} allocations for {N} in-order events");
    }

    /// A bounded-delay shuffle (lateness 5) keeps up to six ticks held,
    /// which fit in the map's one leaf, and the buckets are warm: 0
    /// allocations measured. The budget leaves room for the map's nodes.
    #[test]
    fn a_shuffled_stream_stays_within_a_few_allocations() {
        let shuffled = |from, seed| {
            let mut events = stream(from);
            hamlet_stream::bounded_delay_shuffle(&mut events, 5, seed);
            events
        };
        let mut b = ReorderBuffer::new();
        feed(&mut b, shuffled(0, 1), 5);
        let (spent, out) = feed(&mut b, shuffled(N, 2), 5);
        assert_eq!(out, stream(N), "the shuffle is undone");
        let budget = 4;
        assert!(
            spent <= budget,
            "{spent} allocations for {N} shuffled events (budget {budget})"
        );
    }
}
