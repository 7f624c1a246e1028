//! The one event path (§3–§4, Algorithm 1): an event is classified — type
//! → share groups → partition key → shard — through the tables
//! `HamletEngine::compile` built, joins its burst, and the burst gets
//! one decision and one replay when it ends.
//!
//! [`HamletEngine::process_batch`] cuts a batch into expiry-quiet
//! segments and `process_segment` runs
//! each; [`HamletEngine::process`] is the one-event batch. The router
//! ([`crate::ShardRouter::route`]) and [`HamletEngine::shard_mask`] read
//! the same tables (`class_shards`), so which shard owns an event and
//! which partition it lands in can never disagree.

use crate::burst::{Cell, Chunk, FlushEnv};
use crate::executor::{shard_index, CompiledWorkload, HamletEngine, WindowResult};
use crate::expiry::Partition;
use hamlet_obs::Stage;
use hamlet_types::time::window_end;
use hamlet_types::{Event, GroupKey, Ts};
use std::time::Instant;

/// One key-grouped bucket of a batch segment: the events (by index into
/// the segment, with their local type) that one `(group, key id)`
/// partition receives, in stream order.
#[derive(Default)]
struct Bucket {
    group: u32,
    /// The partition's id in the group's key table.
    id: u32,
    /// `(segment index, local type)` per event.
    events: Vec<(u32, u32)>,
}

/// Reusable buffers of [`HamletEngine::process_batch`], kept on the
/// engine so a warm segment allocates nothing: a key the scan meets is
/// interned in its class's key table (`HamletEngine::tables`), which
/// copies a new key into a freed id's buffer. Pure scratch: cleared
/// between segments, never serialized, and holds no semantic state.
pub(crate) struct BatchScratch {
    /// Per key class (see [`CompiledWorkload::route`]): the key built for
    /// the current event, whether it has been built yet, and its id in
    /// the class's key table (`u32::MAX` if another shard owns it).
    /// Groups with identical partition-slot tables share one key
    /// computation, one shard verdict and one table probe per event
    /// instead of one per group.
    class_keys: Vec<GroupKey>,
    class_built: Vec<bool>,
    class_id: Vec<u32>,
    /// Per group, by key id: `(segment, bucket index)` — the bucket of
    /// that partition if the stamp is the current segment's, none
    /// otherwise, so a segment starts without clearing anything.
    bucket_of: Vec<Vec<(u32, u32)>>,
    /// The current segment's stamp, never 0 (the stamp of no segment).
    segment: u32,
    /// Buckets of the current segment, in first-appearance order — a
    /// deterministic processing order, unlike hash iteration.
    buckets: Vec<Bucket>,
    /// Emptied buckets recycled between segments, event buffers kept.
    spare: Vec<Bucket>,
    /// Window starts of the most recently looked-up pane.
    starts: Vec<Ts>,
    /// Per segment event: its tick.
    ticks: Vec<u64>,
    /// Per segment event: its row of the workload's selection table
    /// ([`CompiledWorkload::selections`]), [`CompiledWorkload::row`]
    /// words apart — written once per event, read by every group's cells
    /// (zero for an event no group reads a row of).
    rows: Vec<u64>,
    /// Cells of the range being appended: computed once per (event,
    /// group), copied into each window instance's burst.
    pub(crate) cells: Vec<Cell>,
}

impl BatchScratch {
    /// Buffers for `compiled`'s groups and key classes.
    pub(crate) fn new(compiled: &CompiledWorkload) -> BatchScratch {
        let num_classes = compiled.classes.len();
        BatchScratch {
            class_keys: (0..num_classes).map(|_| GroupKey(Vec::new())).collect(),
            class_built: vec![false; num_classes],
            class_id: vec![u32::MAX; num_classes],
            bucket_of: compiled.groups.iter().map(|_| Vec::new()).collect(),
            segment: 0,
            buckets: Vec::new(),
            spare: Vec::new(),
            starts: Vec::new(),
            ticks: Vec::new(),
            rows: Vec::new(),
            cells: Vec::new(),
        }
    }
}

/// The shard of every key class `e`'s type carries under `total`-way
/// sharding, in `key_reps` order: `each(p, shard)` for the p-th class.
/// Each key is built into `key`, so a caller that keeps one scratch key
/// classifies without allocating. The router's verdicts and
/// [`HamletEngine::shard_mask`] are both read off this one loop.
pub(crate) fn class_shards(
    plan: &CompiledWorkload,
    e: &Event,
    total: u32,
    key: &mut GroupKey,
    mut each: impl FnMut(usize, usize),
) {
    let reps = plan.key_reps.get(e.ty.idx()).map_or(&[][..], Vec::as_slice);
    for (p, &gi) in reps.iter().enumerate() {
        plan.groups[gi as usize].partition_key_into(e, key);
        each(p, shard_index(key, total) as usize);
    }
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
        assert!(
            (1..=64).contains(&total),
            "shard_mask needs 1..=64 shards, got {total}"
        );
        let (key, mut mask) = (&mut GroupKey(Vec::new()), 0u64);
        class_shards(&self.plan, e, total, key, |_, s| mask |= 1 << s);
        mask
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
    /// The batch is cut into *expiry-quiet segments*. A segment's head
    /// advances the watermark and drains closed windows as the fold
    /// does; the segment then runs up to, not including, the first event
    /// at or past the plan's next window end — the earliest end after the
    /// head's watermark of any share group's window. Every live run and
    /// waiting half belongs to a window of the plan, so none closes
    /// mid-segment and the fold's per-event drains are all no-ops; and a
    /// window instance is late for the whole segment (it ended at or
    /// before the head's watermark) or for none of it. Within a segment events
    /// are grouped by `(share group, partition key)` and appended
    /// bucket-at-a-time, so each run touch happens once per (segment,
    /// key) instead of once per event; the key itself is hashed once per
    /// event and key class, to find its id in the class's key table.
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
        self.process_routed(events, None)
    }

    /// [`process_batch`](Self::process_batch), and if `owned` is given,
    /// of a batch the router has already classified: bit p of `owned[j]`
    /// is set iff the p-th key class of `events[j]`'s type belongs to
    /// this engine's shard ([`crate::ShardRouter::route`]), so the scan
    /// reads the bit instead of hashing the key a second time. Each
    /// segment's head is drained here, the rest of the segment consumed
    /// by `process_segment`.
    pub(crate) fn process_routed(
        &mut self,
        events: &[Event],
        owned: Option<&[u64]>,
    ) -> Vec<WindowResult> {
        debug_assert!(owned.is_none_or(|o| o.len() == events.len()));
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
            // Span only the drains that will actually take something —
            // the per-segment no-op case stays one comparison.
            let pops = (self.expiry.min_end()).is_some_and(|end| end <= head_wm.ticks());
            let drain_t = if pops { self.span_start() } else { None };
            let before = out.len();
            self.emit_expired(head_wm, &mut out);
            let drained = (out.len() - before) as u64;
            self.span_end(Stage::ExpiryDrain, drain_t, Some(head_wm.ticks()), drained);
            i = self.process_segment(events, i, head_wm, owned);
        }
        let wm = self.watermark.map(|w| w.ticks());
        self.span_end(Stage::ProcessBatch, batch_t, wm, events.len() as u64);
        out
    }

    /// Consumes the expiry-quiet segment whose head is `first`: every
    /// event before the first one after it that reaches the plan's next
    /// window end past `head_wm` ([`CompiledWorkload::next_end`], once per
    /// segment), and returns that event's index (see
    /// [`process_batch`](Self::process_batch) for the invariant). Whether
    /// a key class passes the shard filter is the router's bit in `owned`
    /// if there is one — classes are built in `key_reps` order, so the
    /// p-th built is bit p — and otherwise the hash under `cfg.shard`
    /// (also for a type's classes past the 64th, which have no bit).
    /// Only an owned key is interned. A bucket reaches its group's runs
    /// by key id; a key the segment left with no run in any group of its
    /// class (every instance late) leaves its table again at the end.
    fn process_segment(
        &mut self,
        events: &[Event],
        first: usize,
        head_wm: Ts,
        owned: Option<&[u64]>,
    ) -> usize {
        // hamlet-lint: allow(wallclock) -- latency stamp (only under track_latency); feeds the recorder, not results
        let now = self.cfg.track_latency.then(Instant::now);
        let (shard, plan) = (self.cfg.shard, &*self.plan);
        let BatchScratch {
            class_keys,
            class_built,
            class_id,
            bucket_of,
            segment,
            buckets,
            spare,
            starts,
            ticks,
            rows,
            cells,
        } = &mut self.scratch;

        // ---- Scan + bucket phase (fold order) --------------------------
        // The segment ends before the first event that reaches the plan's
        // next window end past `head_wm`: no window closes inside it.
        // Each event records its tick and, if some group buffers its type
        // as cells, its row of the selection table, evaluated here once
        // for every group.
        debug_assert!(buckets.is_empty());
        ticks.clear();
        rows.clear();
        let width = plan.row;
        *segment = segment.wrapping_add(1);
        if *segment == 0 {
            bucket_of.iter_mut().for_each(|b| b.fill((0, 0)));
            *segment = 1;
        }
        let bound = plan.next_end(head_wm);
        let mut wm = head_wm.ticks();
        let mut n_routed = 0u64;
        let mut j = first;
        while j < events.len() {
            let e = &events[j];
            if j > first && e.time.ticks() >= bound {
                break; // a window would close here — next segment
            }
            wm = wm.max(e.time.ticks());
            let mut routed = false;
            let entries = plan.route.get(e.ty.idx()).map_or(&[][..], Vec::as_slice);
            if !entries.is_empty() {
                class_built.fill(false);
            }
            let mut p = 0;
            for &(gi, tl, class) in entries {
                let (gi, ci) = (gi as usize, class as usize);
                if !class_built[ci] {
                    let key = &mut class_keys[ci];
                    plan.groups[gi].partition_key_into(e, key);
                    class_built[ci] = true;
                    let ok = match (owned, shard) {
                        (Some(owned), _) if p < 64 => owned[j] >> p & 1 != 0,
                        (_, Some((idx, total))) => shard_index(key, total) == idx,
                        (_, None) => true,
                    };
                    p += 1;
                    // One table probe resolves the key's id for every
                    // group in the class.
                    class_id[ci] = if ok {
                        self.tables[ci].intern(key)
                    } else {
                        u32::MAX
                    };
                }
                let id = class_id[ci];
                if id == u32::MAX {
                    continue;
                }
                routed = true;
                let stamps = &mut bucket_of[gi];
                if stamps.len() <= id as usize {
                    stamps.resize(id as usize + 1, (0, 0));
                }
                let stamp = &mut stamps[id as usize];
                if stamp.0 != *segment {
                    *stamp = (*segment, buckets.len() as u32);
                    let mut b = spare.pop().unwrap_or_default();
                    (b.group, b.id) = (gi as u32, id);
                    buckets.push(b);
                }
                buckets[stamp.1 as usize]
                    .events
                    .push(((j - first) as u32, tl));
            }
            ticks.push(e.time.ticks());
            if width > 0 {
                let at = rows.len();
                rows.resize(at + width, 0);
                let sels = &plan.selections[e.ty.idx()];
                if routed && sels.width() > 0 {
                    sels.row_into(e, &mut rows[at..]);
                }
            }
            n_routed += u64::from(routed);
            j += 1;
        }
        self.watermark = Some(Ts(wm));
        let seg = &events[first..j];

        // ---- Processing phase (first-appearance bucket order) ----------
        for mut b in buckets.drain(..) {
            let (gi, id) = (b.group as usize, b.id);
            if let Some(m) = self.obs.get_mut(gi) {
                m.events_routed += b.events.len() as u64;
            }
            let g = &plan.groups[gi];
            let key = self.tables[g.class as usize].key(id);
            self.dirty.mark(gi, key);
            let window = g.window;
            let within = window.within;
            let pane = g.pane;
            let (runs, slab) = self.groups[gi].partition(id);
            let mut part = Partition {
                runs,
                slab,
                group: gi,
                id,
                key,
                rt: &g.rt,
                expiry: &mut self.expiry,
                obs: self.obs.get_mut(gi),
            };
            let mut env = FlushEnv {
                cfg: &self.cfg,
                stats: &mut self.stats,
                ctx: &mut self.burst_ctx,
                bytes: &mut self.run_bytes,
            };
            // Consecutive events that agree on type-local and pane form a
            // *range*: one run-list search, one flush check, and one expiry
            // push cover the whole range, so the per-event work shrinks to
            // the burst append itself. Instances start on multiples of
            // `slide` and `pane` divides both `slide` and `within`, so
            // events of one pane lie in the same window instances.
            let nb = b.events.len();
            let mut idx = 0;
            let mut last_pane = None;
            let tick = |sj: u32| ticks[sj as usize];
            while idx < nb {
                let (si0, tl0) = b.events[idx];
                let t0 = tick(si0);
                let pane_idx = t0 / pane;
                if last_pane != Some(pane_idx) {
                    starts.clear();
                    starts.extend(window.instances_containing(Ts(t0)));
                    last_pane = Some(pane_idx);
                }
                let same = |&&(sj, tl): &&(u32, u32)| tl == tl0 && tick(sj) / pane == pane_idx;
                let end_idx = idx + 1 + b.events[idx + 1..].iter().take_while(same).count();
                let tl = tl0 as usize;
                let range = &b.events[idx..end_idx];
                let chunk = Chunk::of(&g.rt, tl, seg, range, (rows, width), cells);
                for &start in starts.iter() {
                    let end = window_end(start.ticks(), within);
                    // Late-event guard: an instance that ended at or
                    // before `head_wm` was already emitted, and re-creating
                    // its run would double-emit the window at the next
                    // flush. No window of the plan ends inside the
                    // segment, so an instance is late for all of it or for
                    // none of it. Never fires on in-order streams.
                    if end <= head_wm.ticks() {
                        env.stats.late_skips += range.len() as u64;
                        continue;
                    }
                    let handle = part.run_at(start.ticks(), end, &mut env);
                    // Uniform group: the burst is its length; otherwise a
                    // memcpy of the range's cells (or, for edge-predicate
                    // types, clones of its events) per instance.
                    (part.slab).lending(handle, |rs| rs.append(tl, pane_idx, chunk, now, &mut env));
                }
                idx = end_idx;
            }
            // Every window instance was late: the key may hold no run.
            if part.runs.is_empty() {
                self.emptied.push((g.class, id));
            }
            b.events.clear();
            spare.push(b);
        }
        self.release_emptied();

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
