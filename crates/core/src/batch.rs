//! The one event path (§3–§4, Algorithm 1): an event is classified — type
//! → share groups → partition key → shard — through the tables
//! `HamletEngine::compile` built, joins its burst, and the burst gets
//! one decision and one replay when it ends.
//!
//! [`HamletEngine::process_batch`] cuts a batch into expiry-quiet
//! segments and `process_segment` runs
//! each; [`HamletEngine::process`] is the one-event batch. The router's
//! [`HamletEngine::shard_mask`] reads the same tables, so which shard owns
//! an event and which partition it lands in can never disagree.

use crate::burst::{Cell, Chunk, FlushEnv};
use crate::executor::{shard_index, GroupExec, HamletEngine, WindowResult};
use crate::expiry::Partition;
use hamlet_obs::Stage;
use hamlet_types::time::window_end;
use hamlet_types::{Event, GroupKey, Ts};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::time::Instant;

/// One key-grouped bucket of a batch segment: the events (by index into
/// the segment, with their local type) that one `(group, key)` partition
/// receives, in stream order.
#[derive(Default)]
struct Bucket {
    group: u32,
    key: GroupKey,
    /// `(segment index, local type)` per event.
    events: Vec<(u32, u32)>,
}

/// Reusable buffers of [`HamletEngine::process_batch`], kept on the
/// engine so steady-state batch processing performs no per-event
/// allocation. Pure scratch: cleared between segments, never serialized,
/// and holds no semantic state.
pub(crate) struct BatchScratch {
    /// Per key class (see [`HamletEngine::route`]): the key built for the
    /// current event, whether it has been built yet, and whether it
    /// passes the shard filter. Groups with identical partition-slot
    /// tables share one key computation (and one shard hash) per event
    /// instead of one per group.
    class_keys: Vec<GroupKey>,
    class_built: Vec<bool>,
    class_shard_ok: Vec<bool>,
    /// Per window class: whether this event already folded its earliest
    /// window end into the segment boundary.
    wnd_done: Vec<bool>,
    /// Per key class: map from partition key to *slot* — a row of
    /// per-group bucket indices in `slots` (stride = number of groups).
    /// One hash probe resolves the buckets of every group in the class.
    slot_of: Vec<HashMap<GroupKey, u32>>,
    /// Flat `slot × group → bucket index` table (`u32::MAX` = none yet).
    slots: Vec<u32>,
    /// Per key class: the previous event's key and its slot — bursty
    /// streams mostly repeat the key, skipping even the one hash probe.
    prev_keys: Vec<GroupKey>,
    prev_slot: Vec<u32>,
    /// Buckets of the current segment, in first-appearance order — a
    /// deterministic processing order, unlike hash iteration.
    buckets: Vec<Bucket>,
    /// Emptied buckets recycled between segments, key and event buffers
    /// kept.
    spare: Vec<Bucket>,
    /// Window starts of the most recently looked-up event time.
    starts: Vec<Ts>,
    /// Per segment event: the watermark the fold would have seen at that
    /// event — the late-guard boundary (grouping reorders processing, so
    /// the guard must use each event's own fold-order watermark).
    wms: Vec<u64>,
    /// Cells of the range being appended: computed once per (event,
    /// group), copied into each window instance's burst.
    pub(crate) cells: Vec<Cell>,
}

impl BatchScratch {
    pub(crate) fn new(num_classes: usize, num_wnd_classes: usize) -> BatchScratch {
        BatchScratch {
            class_keys: (0..num_classes).map(|_| GroupKey(Vec::new())).collect(),
            class_built: vec![false; num_classes],
            class_shard_ok: vec![false; num_classes],
            wnd_done: vec![false; num_wnd_classes],
            slot_of: (0..num_classes).map(|_| HashMap::new()).collect(),
            slots: Vec::new(),
            prev_keys: (0..num_classes).map(|_| GroupKey(Vec::new())).collect(),
            prev_slot: vec![u32::MAX; num_classes],
            buckets: Vec::new(),
            spare: Vec::new(),
            starts: Vec::new(),
            wms: Vec::new(),
            cells: Vec::new(),
        }
    }
}

/// [`HamletEngine::shard_mask`] over compiled `groups` and `key_reps`,
/// building each key into `key`: a caller that keeps one scratch key
/// routes without allocating.
pub(crate) fn shard_mask_into(
    groups: &[GroupExec],
    key_reps: &[Vec<u32>],
    e: &Event,
    total: u32,
    key: &mut GroupKey,
) -> u64 {
    assert!(
        (1..=64).contains(&total),
        "shard_mask needs 1..=64 shards, got {total}"
    );
    let mut mask = 0u64;
    for &gi in key_reps.get(e.ty.idx()).map_or(&[][..], Vec::as_slice) {
        groups[gi as usize].partition_key_into(e, key);
        mask |= 1u64 << shard_index(key, total);
    }
    mask
}

impl HamletEngine {
    /// Bitmask of the shards (under `total`-way sharding, `total` ≤ 64)
    /// that must see `e`: for each share group the event is local to, the
    /// bit of the shard owning its partition key is set. An event can
    /// carry different keys in different groups, so more than one bit may
    /// be set; an event no group accepts routes nowhere (empty mask).
    ///
    /// Reads the tables the scan phase of [`process_batch`](Self::process_batch)
    /// reads — one slot-resolved key build and one hash per *key class*
    /// the type is local to (usually one), not per group — and applies the
    /// same hash as the `EngineConfig::shard` filter, so a sharded engine
    /// fed only the events whose mask covers its index computes exactly
    /// what it would from the full stream.
    pub fn shard_mask(&self, e: &Event, total: u32) -> u64 {
        let key = &mut GroupKey(Vec::new());
        shard_mask_into(&self.groups, &self.key_reps, e, total, key)
    }

    /// Processes one event; returns results of windows closed by the
    /// watermark advance.
    ///
    /// # Incremental feeding contract
    ///
    /// `process` may be called any number of times with any interleaving
    /// of event times; state is carried across calls, so feeding a stream
    /// event-by-event (online) produces exactly the same results as any
    /// batched feeding of the same sequence. The watermark is the maximum
    /// event time seen and only ever advances: an in-order stream closes
    /// each window exactly once, and an *out-of-order* event whose window
    /// instance already closed is skipped for that instance (counted in
    /// [`late_skips`](crate::EngineStats::late_skips)) rather than
    /// resurrecting it — the engine never emits the same
    /// `(query, key, window)` twice. Ordering within still-open windows
    /// is the caller's responsibility (the `hamlet-pipeline` reorder stage
    /// restores it up to a configured lateness bound).
    ///
    /// This is [`process_batch`](Self::process_batch) of a one-event
    /// slice: folding it over a stream is the per-event execution every
    /// batched feeding is specified (and tested) to equal.
    pub fn process(&mut self, e: &Event) -> Vec<WindowResult> {
        self.process_batch(std::slice::from_ref(e))
    }

    /// Processes a batch of events; returns the results of all windows
    /// the batch's watermark advances close, in the same order the
    /// per-event fold would emit them.
    ///
    /// Output and state evolution are **equal to folding
    /// [`process`](Self::process) over the batch** — batching is purely an
    /// execution strategy (this is asserted by the equivalence suite).
    /// The batch is cut into *expiry-quiet segments*: maximal stretches
    /// during which the running watermark stays below every pending
    /// window end, so no window can close mid-segment and the fold's
    /// per-event expiry drains are all no-ops. Within a segment events
    /// are grouped by `(share group, partition key)` and appended
    /// bucket-at-a-time, so each partition probe and run touch happens
    /// once per (segment, key) instead of once per event.
    /// The two observable deviations from the fold are timing-only: the
    /// memory gauge samples at segment (not event) granularity, and
    /// per-burst arrival stamps are taken once per segment.
    ///
    /// ```
    /// use hamlet_core::{EngineConfig, HamletEngine};
    /// use hamlet_query::parse_query;
    /// use hamlet_types::{EventBuilder, TypeRegistry};
    /// use std::sync::Arc;
    ///
    /// let mut reg = TypeRegistry::new();
    /// let a = reg.register("A", &[]);
    /// let b = reg.register("B", &[]);
    /// let reg = Arc::new(reg);
    /// let q = parse_query(&reg, 1, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 10").unwrap();
    /// let mk =
    ///     || HamletEngine::new(reg.clone(), vec![q.clone()], EngineConfig::default()).unwrap();
    /// let batch: Vec<_> = (0..40)
    ///     .map(|t| EventBuilder::new(&reg, if t % 4 == 0 { a } else { b }, t).build())
    ///     .collect();
    ///
    /// let (mut batched, mut folded) = (mk(), mk());
    /// let mut fast = batched.process_batch(&batch);
    /// fast.extend(batched.flush());
    /// let mut slow: Vec<_> = batch.iter().flat_map(|e| folded.process(e)).collect();
    /// slow.extend(folded.flush());
    /// assert_eq!(fast, slow); // batching never changes results
    /// ```
    pub fn process_batch(&mut self, events: &[Event]) -> Vec<WindowResult> {
        let batch_t = self.span_start();
        let mut out = Vec::new();
        let mut i = 0;
        while i < events.len() {
            // Segment head: advance the watermark and drain expiry
            // exactly as the fold does before routing an event. Monotone
            // watermark: an out-of-order event must not rewind expiry,
            // only (possibly) fail its own closed windows' guard.
            let head_wm = match self.watermark {
                Some(w) if w >= events[i].time => w,
                _ => events[i].time,
            };
            self.watermark = Some(head_wm);
            // Span only the drains that will actually pop something —
            // the per-segment no-op case stays a heap peek.
            let pops = (self.expiry.peek()).is_some_and(|Reverse(e)| e.end <= head_wm.ticks());
            let drain_t = if pops { self.span_start() } else { None };
            let before = out.len();
            self.emit_expired(head_wm, &mut out);
            let drained = (out.len() - before) as u64;
            self.span_end(Stage::ExpiryDrain, drain_t, Some(head_wm.ticks()), drained);
            i = self.process_segment(events, i, head_wm);
        }
        let wm = self.watermark.map(|w| w.ticks());
        self.span_end(Stage::ProcessBatch, batch_t, wm, events.len() as u64);
        out
    }

    /// Consumes one expiry-quiet segment starting at `first` and returns
    /// the index of the first unconsumed event (see
    /// [`process_batch`](Self::process_batch) for the invariant).
    fn process_segment(&mut self, events: &[Event], first: usize, head_wm: Ts) -> usize {
        // hamlet-lint: allow(wallclock) -- latency stamp (only under track_latency); feeds the recorder, not results
        let now = self.cfg.track_latency.then(Instant::now);
        let shard = self.cfg.shard;
        let BatchScratch {
            class_keys,
            class_built,
            class_shard_ok,
            wnd_done,
            slot_of,
            slots,
            prev_keys,
            prev_slot,
            buckets,
            spare,
            starts,
            wms,
            cells,
        } = &mut self.scratch;

        // ---- Scan + bucket phase (fold order) --------------------------
        // The segment extends while the running watermark stays strictly
        // below every pending window end: the expiry heap's minimum plus
        // the earliest end any admitted event could create a run with.
        // Each event also records the watermark the fold would have seen
        // at it (`wms`) — grouping reorders processing, so the late guard
        // below must use each event's own fold-order watermark.
        debug_assert!(buckets.is_empty());
        wms.clear();
        let stride = self.groups.len();
        let mut min_end = (self.expiry.peek()).map_or(u64::MAX, |Reverse(e)| e.end);
        let mut wm = head_wm.ticks();
        let mut n_routed = 0u64;
        let mut j = first;
        while j < events.len() {
            let e = &events[j];
            let new_wm = wm.max(e.time.ticks());
            if j > first && new_wm >= min_end {
                break; // a window would close here — next segment
            }
            wm = new_wm;
            let mut routed = false;
            let entries = self.route.get(e.ty.idx()).map_or(&[][..], Vec::as_slice);
            if !entries.is_empty() {
                class_built.fill(false);
                wnd_done.fill(false);
            }
            for &(gi, tl, class, wnd) in entries {
                let (gi, ci, wi) = (gi as usize, class as usize, wnd as usize);
                let g = &self.groups[gi];
                if !class_built[ci] {
                    g.partition_key_into(e, &mut class_keys[ci]);
                    class_built[ci] = true;
                    let key = &class_keys[ci];
                    class_shard_ok[ci] = match shard {
                        Some((idx, total)) => shard_index(key, total) == idx,
                        None => true,
                    };
                    // Resolve the key's slot: previous event's key first
                    // (bursty streams repeat it), then one hash probe for
                    // every group in the class.
                    if class_shard_ok[ci] {
                        let sl = if prev_slot[ci] != u32::MAX && prev_keys[ci] == *key {
                            prev_slot[ci]
                        } else {
                            let sl = match slot_of[ci].get(key) {
                                Some(&sl) => sl,
                                None => {
                                    let sl = (slots.len() / stride) as u32;
                                    slot_of[ci].insert(key.clone(), sl);
                                    slots.resize(slots.len() + stride, u32::MAX);
                                    sl
                                }
                            };
                            prev_keys[ci].0.clone_from(&key.0);
                            sl
                        };
                        prev_slot[ci] = sl;
                    }
                }
                if !class_shard_ok[ci] {
                    continue;
                }
                routed = true;
                // Any run this event creates ends no earlier than its
                // earliest containing instance (instances yield starts
                // ascending, so the first has the smallest end) — folded
                // into the segment boundary once per window class.
                if !wnd_done[wi] {
                    wnd_done[wi] = true;
                    if let Some(s) = g.window.instances_containing(e.time).next() {
                        min_end = min_end.min(window_end(s.ticks(), g.window.within));
                    }
                }
                let cell = prev_slot[ci] as usize * stride + gi;
                let mut bi = slots[cell];
                if bi == u32::MAX {
                    bi = buckets.len() as u32;
                    slots[cell] = bi;
                    let mut b = spare.pop().unwrap_or_default();
                    b.group = gi as u32;
                    b.key.0.clone_from(&class_keys[ci].0);
                    buckets.push(b);
                }
                buckets[bi as usize].events.push(((j - first) as u32, tl));
            }
            if routed {
                n_routed += 1;
            }
            wms.push(wm);
            j += 1;
        }
        self.watermark = Some(Ts(wm));
        let seg = &events[first..j];

        // ---- Processing phase (first-appearance bucket order) ----------
        for mut b in buckets.drain(..) {
            let gi = b.group as usize;
            if let Some(m) = self.obs.get_mut(gi) {
                m.events_routed += b.events.len() as u64;
            }
            self.dirty.mark(gi, &b.key);
            let g = &mut self.groups[gi];
            let window = g.window;
            let within = window.within;
            let pane = g.pane;
            // One partition probe per (segment, key); only a first-seen
            // key pays a second one and the clone into the map.
            let mut part = Partition {
                runs: match g.partitions.get_mut(&b.key) {
                    Some(runs) => runs,
                    None => g.partitions.entry(b.key.clone()).or_default(),
                },
                slab: &mut g.slab,
                group: gi,
                key: &b.key,
                rt: &g.rt,
                expiry: &mut self.expiry,
                obs: self.obs.get_mut(gi),
            };
            let mut env = FlushEnv {
                cfg: &self.cfg,
                estimator: &mut g.estimator,
                stats: &mut self.stats,
                ctx: &mut self.burst_ctx,
                bytes: &mut self.run_bytes,
            };
            let mut late_skipped = false;
            let mut last_time: Option<u64> = None;
            // Watermark at the segment tail — if a window's end beats it,
            // no event in the segment is late for that window.
            let seg_wm = wms.last().copied().unwrap_or(0);
            // Consecutive events that agree on type-local, pane, and
            // window-instance set form a *range*: one run-map probe, one
            // flush check, and one expiry push cover the whole range, so
            // the per-event work shrinks to the burst append itself.
            let nb = b.events.len();
            let mut idx = 0;
            while idx < nb {
                let (si0, tl) = b.events[idx];
                let e0 = &seg[si0 as usize];
                let tl = tl as usize;
                let t0 = e0.time.ticks();
                let pane_idx = t0 / pane;
                if last_time != Some(t0) {
                    starts.clear();
                    starts.extend(window.instances_containing(e0.time));
                    last_time = Some(t0);
                }
                let mut end_idx = idx + 1;
                while end_idx < nb {
                    let (sj, tlj) = b.events[end_idx];
                    if tlj as usize != tl {
                        break;
                    }
                    let tj = seg[sj as usize].time.ticks();
                    // Same pane but a different tick: join only if the
                    // instance set is unchanged.
                    if tj != t0
                        && (tj / pane != pane_idx
                            || !window
                                .instances_containing(Ts(tj))
                                .eq(starts.iter().copied()))
                    {
                        break;
                    }
                    end_idx += 1;
                }
                let range = &b.events[idx..end_idx];
                let chunk = Chunk::of(&g.rt, tl, seg, range, cells);
                for &start in starts.iter() {
                    let end = window_end(start.ticks(), within);
                    // Late-event guard, against each event's own fold-order
                    // watermark: an instance whose end is at or behind it
                    // was already emitted, and re-creating its run would
                    // double-emit the window at the next flush. Never
                    // fires on in-order streams. `wms` is monotone over the
                    // segment, so the range splits into an on-time prefix
                    // and a late suffix.
                    let split = if end > seg_wm {
                        range.len()
                    } else {
                        range.partition_point(|&(sj, _)| end > wms[sj as usize])
                    };
                    if split < range.len() {
                        env.stats.late_skips += (range.len() - split) as u64;
                        late_skipped = true;
                    }
                    if split == 0 {
                        continue;
                    }
                    let rs = part.run_at(start.ticks(), end, &mut env);
                    // Uniform group: the burst is its length; otherwise a
                    // memcpy of the range's cells (or, for edge-predicate
                    // types, clones of its events) per instance.
                    rs.append(tl, pane_idx, chunk.take(split), now, &mut env);
                }
                idx = end_idx;
            }
            // A first-seen key whose every window instance was late would
            // leave an empty run map behind — drop it, it holds no state.
            if late_skipped && part.runs.is_empty() {
                g.partitions.remove(&b.key);
            }
            b.events.clear();
            spare.push(b);
        }
        for m in slot_of.iter_mut() {
            m.clear();
        }
        slots.clear();
        prev_slot.fill(u32::MAX);

        self.stats.events_routed += n_routed;
        let m = self.cfg.mem_sample_every;
        let before = self.event_counter;
        self.event_counter += seg.len() as u64;
        // One gauge sample per crossed sampling interval, segment-batched.
        let crossed = matches!(
            (self.event_counter.checked_div(m), before.checked_div(m)),
            (Some(a), Some(b)) if a > b
        );
        if crossed {
            let bytes = self.state_bytes();
            self.gauge.sample(bytes);
        }
        j
    }
}
