//! Where runs live, begin and end: the per-group run slab, the watermark
//! expiration index, and result emission.
//!
//! A run occupies a slot of its share group's `RunSlab` and is known
//! everywhere else by that slot's handle: its key's `Runs` list, the
//! expiration index. A slot names its key by id in the group's key table
//! (`crate::keyhash::KeyTable`), and a key's `Runs` list is the group's
//! entry of that id. A run is indexed once, when its first event creates
//! it (`Partition::run_at`); `HamletEngine::emit_expired` takes exactly
//! the runs whose window end the watermark has passed, finalizes them in
//! the canonical `(window_start, group, key)` order, renders one result
//! per member query — pairing the two halves of a decomposed general
//! (`OR`/`AND`) query on the way — and hands each slot back for the next
//! run to reuse, and each key that no run of its class holds any more
//! back to its table. [`HamletEngine::flush`] is the same drain at the
//! end of time.

use crate::burst::{FlushEnv, RunState};
use crate::executor::{release_key, render, AggValue, GroupState, HamletEngine, WindowResult};
use crate::general;
use crate::keyhash::KeyTable;
use crate::record::PendingSlot;
use crate::run::{GroupRuntime, MemberOutput, Stores};
use hamlet_obs::{GroupMetrics, Stage};
use hamlet_query::QueryId;
use hamlet_types::time::window_end;
use hamlet_types::{GroupKey, TrendVal, Ts};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// One live run in the watermark expiration index, filed under its
/// window end: four integers, enough to emit it in the canonical
/// `(window_start, group, key)` order without reading its key — `ord`
/// is the key's [`GroupKey::order_prefix`], computed once when the run is
/// created, so only runs whose keys share a prefix are compared through
/// the slab. If the run is gone by the time its bucket comes due (lazy
/// invalidation) the entry is a tombstone and is skipped.
#[derive(Clone, Copy)]
pub(crate) struct ExpiryEntry {
    /// Window instance start.
    start: u64,
    /// The run's key as [`GroupKey::order_prefix`].
    ord: u64,
    /// Owning share group index.
    group: u32,
    /// The run's slot in the group's [`RunSlab`].
    handle: u32,
}

/// The watermark expiration index: every live run's [`ExpiryEntry`] in a
/// bucket of its window end, the buckets ascending by end. Window ends
/// lie on the workload's window grid, so the open buckets number at most
/// the longest window over the grid, plus one, and a push finds its
/// bucket by binary search over them. A drain takes the due buckets
/// whole — O(1) when nothing is due, the common per-segment case — and
/// hands their vectors back for later buckets to reuse.
#[derive(Default)]
pub(crate) struct ExpiryIndex {
    /// `(window end, entries)`, ascending by end; none is empty.
    buckets: VecDeque<(u64, Vec<ExpiryEntry>)>,
    /// Entries held across the buckets.
    len: usize,
    /// Emptied bucket vectors, capacity kept.
    spare: Vec<Vec<ExpiryEntry>>,
}

impl ExpiryIndex {
    /// Files `entry` under window end `end`.
    fn push(&mut self, end: u64, entry: ExpiryEntry) {
        self.len += 1;
        let at = self.buckets.partition_point(|b| b.0 < end);
        match self.buckets.get_mut(at) {
            Some((e, bucket)) if *e == end => bucket.push(entry),
            _ => {
                let mut bucket = self.spare.pop().unwrap_or_default();
                bucket.push(entry);
                self.buckets.insert(at, (end, bucket));
            }
        }
    }

    /// The earliest window end of any entry.
    pub(crate) fn min_end(&self) -> Option<u64> {
        self.buckets.front().map(|b| b.0)
    }

    /// Entries held, tombstones included.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Takes the next bucket whose window end is at or before `wm`.
    fn pop_due(&mut self, wm: u64) -> Option<Vec<ExpiryEntry>> {
        if self.min_end()? > wm {
            return None;
        }
        let (_, bucket) = self.buckets.pop_front()?;
        self.len -= bucket.len();
        Some(bucket)
    }

    /// Hands a drained bucket's vector back.
    fn recycle(&mut self, mut bucket: Vec<ExpiryEntry>) {
        bucket.clear();
        self.spare.push(bucket);
    }
}

/// Entries a key's run list holds in place; tumbling and moderately
/// overlapping windows never exceed it.
const INLINE_RUNS: usize = 4;

/// One partition's live runs as `(window start, slab handle)`, ascending
/// by start. Kept in place up to [`INLINE_RUNS`] entries, so a key costs
/// no allocation beyond its map entry.
#[derive(Default)]
pub(crate) struct Runs {
    inline: [(u64, u32); INLINE_RUNS],
    len: usize,
    /// Holds every entry once there are more than [`INLINE_RUNS`].
    spill: Vec<(u64, u32)>,
}

impl Runs {
    pub(crate) fn as_slice(&self) -> &[(u64, u32)] {
        if self.len <= INLINE_RUNS {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Where `start` is (`Ok`) or belongs (`Err`).
    pub(crate) fn find(&self, start: u64) -> Result<usize, usize> {
        self.as_slice().binary_search_by_key(&start, |e| e.0)
    }

    /// Inserts at `at`, a position [`find`](Self::find) returned as `Err`.
    pub(crate) fn insert(&mut self, at: usize, start: u64, handle: u32) {
        if self.len < INLINE_RUNS {
            self.inline.copy_within(at..self.len, at + 1);
            self.inline[at] = (start, handle);
        } else {
            if self.len == INLINE_RUNS {
                self.spill.clear();
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.insert(at, (start, handle));
        }
        self.len += 1;
    }

    /// Re-points the entry of `start` at `handle` (its slot moved).
    fn repoint(&mut self, start: u64, handle: u32) {
        if let Ok(at) = self.find(start) {
            let inline = self.len <= INLINE_RUNS;
            (if inline {
                &mut self.inline[..]
            } else {
                &mut self.spill[..]
            })[at]
                .1 = handle;
        }
    }

    /// Removes the entry at `at`, returning its handle.
    pub(crate) fn remove(&mut self, at: usize) -> u32 {
        let (_, handle) = self.as_slice()[at];
        if self.len <= INLINE_RUNS {
            self.inline.copy_within(at + 1..self.len, at);
        } else {
            self.spill.remove(at);
            if self.spill.len() == INLINE_RUNS {
                self.inline.copy_from_slice(&self.spill);
            }
        }
        self.len -= 1;
        handle
    }
}

/// One slot of a [`RunSlab`]: a run with the `(key id, window start)` it
/// currently evaluates, or — free — a recycled run waiting for the next.
pub(crate) struct Slot {
    /// The run's key, by id in its group's key table.
    pub(crate) id: u32,
    pub(crate) start: u64,
    live: bool,
    pub(crate) rs: RunState,
}

/// A share group's runs, by handle. A finished run's slot goes on the
/// free list recycled ([`RunState::recycle`]) and the next run created
/// takes it, so steady-state run creation allocates nothing. The runs'
/// row stores circulate through `stores`, lent to a run while it
/// replays or is recycled ([`lending`](Self::lending)). Free slots and
/// spare stores are not state: never serialized, never byte-accounted,
/// at most the group's peak, and dropped at `flush()`, on churn and on
/// restore ([`drop_free`](Self::drop_free)).
#[derive(Default)]
pub(crate) struct RunSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
    stores: Option<Box<Stores>>,
}

impl RunSlab {
    /// The live run `handle` names.
    pub(crate) fn get(&self, handle: u32) -> &Slot {
        &self.slots[handle as usize]
    }

    /// Every slot, free ones included.
    pub(crate) fn slots_mut(&mut self) -> &mut [Slot] {
        &mut self.slots
    }

    /// Handles of the live runs, ascending.
    pub(crate) fn live(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.slots.len() as u32).filter(|&h| self.slots[h as usize].live)
    }

    /// The expiration-index entry of live run `handle` of group `group`,
    /// whose key table is `keys`.
    pub(crate) fn entry(&self, group: u32, handle: u32, keys: &KeyTable) -> ExpiryEntry {
        let slot = self.get(handle);
        ExpiryEntry {
            start: slot.start,
            ord: keys.key(slot.id).order_prefix(),
            group,
            handle,
        }
    }

    /// Puts a run for `(key id, start)` in a slot — `decoded` if given,
    /// else an empty one: a recycled slot's if there is one, a new
    /// [`RunState::new`] over `rt` otherwise.
    pub(crate) fn occupy(
        &mut self,
        rt: &Arc<GroupRuntime>,
        id: u32,
        start: u64,
        decoded: Option<RunState>,
    ) -> u32 {
        if let Some(handle) = self.free.pop() {
            let slot = &mut self.slots[handle as usize];
            (slot.id, slot.start, slot.live) = (id, start, true);
            if let Some(rs) = decoded {
                slot.rs = rs;
            }
            return handle;
        }
        self.slots.push(Slot {
            id,
            start,
            live: true,
            rs: decoded.unwrap_or_else(|| RunState::new(rt.clone())),
        });
        (self.slots.len() - 1) as u32
    }

    /// Hands a finished run's slot back, recycled; returns the bytes the
    /// run was accounted with.
    pub(crate) fn release(&mut self, handle: u32) -> usize {
        let slot = &mut self.slots[handle as usize];
        debug_assert!(slot.live);
        let bytes = slot.rs.accounted;
        slot.live = false;
        self.lending(handle, RunState::recycle);
        self.free.push(handle);
        bytes
    }

    /// `f` on run `handle` with the slab's spare row stores lent to it.
    pub(crate) fn lending<R>(&mut self, handle: u32, f: impl FnOnce(&mut RunState) -> R) -> R {
        self.stores.get_or_insert_default();
        let rs = &mut self.slots[handle as usize].rs;
        rs.run.lend(&mut self.stores);
        let out = f(rs);
        rs.run.lend(&mut self.stores);
        out
    }

    /// Drops the free slots and the spare stores. Live runs move into the
    /// holes, so their handles change: the group's run lists `runs` are
    /// re-pointed here, the expiration index must be rebuilt by the caller.
    pub(crate) fn drop_free(&mut self, runs: &mut [Runs]) {
        self.stores = None;
        // Highest first: every slot above the hole being filled is live.
        self.free.sort_unstable();
        while let Some(hole) = self.free.pop() {
            self.slots.swap_remove(hole as usize);
            if let Some(moved) = self.slots.get(hole as usize) {
                runs[moved.id as usize].repoint(moved.start, hole);
            }
        }
    }
}

/// One partition's run list, with what a run creation touches beyond it:
/// the group's slab, the expiration index and the group's `runs_created`
/// counter. Every event path reaches its runs through this.
pub(crate) struct Partition<'a> {
    pub(crate) runs: &'a mut Runs,
    pub(crate) slab: &'a mut RunSlab,
    pub(crate) group: usize,
    /// The partition's key and its id in the group's key table.
    pub(crate) id: u32,
    pub(crate) key: &'a GroupKey,
    pub(crate) rt: &'a Arc<GroupRuntime>,
    pub(crate) expiry: &'a mut ExpiryIndex,
    pub(crate) obs: Option<&'a mut GroupMetrics>,
}

impl Partition<'_> {
    /// The handle of window instance `[start, end)`'s run, created on first touch
    /// — the one moment a run is indexed for expiry and enters the byte
    /// count. Re-touching an existing `(key, start)` finds its handle, so
    /// the index never holds duplicate live entries.
    pub(crate) fn run_at(&mut self, start: u64, end: u64, env: &mut FlushEnv<'_>) -> u32 {
        let handle = match self.runs.find(start) {
            Ok(at) => self.runs.as_slice()[at].1,
            Err(at) => {
                let handle = self.slab.occupy(self.rt, self.id, start, None);
                self.runs.insert(at, start, handle);
                let entry = ExpiryEntry {
                    start,
                    ord: self.key.order_prefix(),
                    group: self.group as u32,
                    handle,
                };
                self.expiry.push(end, entry);
                env.stats.expiry_pushes += 1;
                *env.bytes += self.slab.get(handle).rs.accounted;
                if let Some(m) = &mut self.obs {
                    m.runs_created += 1;
                }
                handle
            }
        };
        handle
    }
}

impl HamletEngine {
    /// Emits every window whose end has passed the watermark.
    ///
    /// Takes the due buckets of the expiration index instead of scanning
    /// live partitions: O(k log k) for k expirations, O(1) when nothing
    /// expires — the common per-segment case. Emission follows the
    /// defined total order `(window_start, group, key)`, so
    /// single-threaded output is deterministic by construction (the same
    /// order [`sort_results`](crate::sort_results) /
    /// [`crate::parallel::ParallelReport`] guarantee within one window
    /// instance). A run leaves its key's list by key id; a key that no
    /// group of its class holds a run under any more leaves its table
    /// once the drain's results are out.
    pub(crate) fn emit_expired(&mut self, watermark: Ts, out: &mut Vec<WindowResult>) {
        let wm = watermark.ticks();
        let mut finished = std::mem::take(&mut self.finished);
        while let Some(bucket) = self.expiry.pop_due(wm) {
            for &e in &bucket {
                let gi = e.group as usize;
                let GroupState { runs, slab } = &mut self.groups[gi];
                // Lazy invalidation: skip entries whose run is already
                // gone (its slot free, or taken by a run of another
                // window).
                let live =
                    (slab.slots.get(e.handle as usize)).filter(|s| s.live && s.start == e.start);
                let Some(id) = live.map(|s| s.id) else {
                    self.stats.expiry_tombstones += 1;
                    continue;
                };
                let runs = &mut runs[id as usize];
                if let Ok(at) = runs.find(e.start) {
                    runs.remove(at);
                }
                let class = self.plan.groups[gi].class;
                if runs.is_empty() {
                    self.emptied.push((class, id));
                }
                self.dirty.mark(gi, self.tables[class as usize].key(id));
                finished.push(e);
            }
            self.expiry.recycle(bucket);
        }
        self.finalize_finished(&mut finished, out);
        self.finished = finished;
        self.release_emptied();
        if !self.pending.is_empty() {
            self.settle_closed(wm, out);
        }
    }

    /// Settles every pending general-query half whose window has closed
    /// at `wm`. Both halves of a `(key, window)` close at the same
    /// watermark, so a half still waiting then had no partner run — its
    /// branch matched nothing in that window — and emits now with the
    /// missing half = 0, marked in the dirty log so the next delta cut
    /// records the removal. A half that a churn drained mid-window has
    /// not closed yet and keeps waiting for its partner.
    fn settle_closed(&mut self, wm: u64, out: &mut Vec<WindowResult>) {
        let combiners = &self.plan.combiners;
        // Out of a HashMap: settle_orphans sorts before emitting.
        let closed: Vec<_> = (self.pending)
            .extract_if(|(ci, _, start), _| window_end(*start, combiners[*ci].within) <= wm)
            .collect();
        for (slot, _) in &closed {
            self.dirty.mark_pending(slot);
        }
        self.settle_orphans(closed, out);
    }

    /// Finalizes a batch of expired runs — the entries of runs already
    /// taken off their keys' lists — emits their results in the defined
    /// total order `(window_start, group, key)`, and hands their slots
    /// back. Leaves `finished` empty.
    ///
    /// The order is the entries' as integers, `(start, group, ord)`: `ord`
    /// never contradicts the key order, so only runs of one window and
    /// group whose keys share an `ord` are told apart by their keys.
    pub(crate) fn finalize_finished(
        &mut self,
        finished: &mut Vec<ExpiryEntry>,
        out: &mut Vec<WindowResult>,
    ) {
        // Out of the engine while results render: nothing here interns.
        let tables = std::mem::take(&mut self.tables);
        let (plan, groups) = (&self.plan, &self.groups);
        finished.sort_unstable_by(|a, b| {
            (a.start, a.group, a.ord)
                .cmp(&(b.start, b.group, b.ord))
                .then_with(|| {
                    let key = |e: &ExpiryEntry| {
                        let gi = e.group as usize;
                        let table = &tables[plan.groups[gi].class as usize];
                        table.key(groups[gi].slab.get(e.handle).id)
                    };
                    key(a).total_cmp(key(b))
                })
        });
        let mut outputs = std::mem::take(&mut self.outputs);
        let mut arrivals = std::mem::take(&mut self.arrivals);
        // At most one result per member of each finished run.
        out.reserve(
            finished
                .iter()
                .map(|e| self.plan.groups[e.group as usize].rt.k())
                .sum(),
        );
        for ExpiryEntry { group, handle, .. } in finished.drain(..) {
            let gi = group as usize;
            let g = &mut self.groups[gi];
            // Released below at the bytes it was accounted with.
            g.slab.lending(handle, |rs| {
                rs.settle(&mut FlushEnv {
                    cfg: &self.cfg,
                    stats: &mut self.stats,
                    ctx: &mut self.burst_ctx,
                    bytes: &mut self.run_bytes,
                })
            });
            let slot = &mut g.slab.slots[handle as usize];
            slot.rs.run.finalize_into(&mut outputs);
            let s = slot.rs.run.stats();
            self.stats.runs.add(s);
            if let Some(m) = self.obs.get_mut(gi) {
                m.runs_expired += 1;
                m.shared_bursts += s.shared_bursts;
                m.solo_bursts += s.solo_bursts;
                m.graphlet_snapshots += s.graphlet_snapshots;
                m.event_snapshots += s.event_snapshots;
            }
            arrivals.extend(slot.rs.last_arrival);
            let (id, start) = (slot.id, slot.start);
            let key = tables[self.plan.groups[gi].class as usize].key(id);
            self.emit_run(gi, key, start, &outputs, out);
            self.run_bytes -= self.groups[gi].slab.release(handle);
        }
        self.tables = tables;
        self.outputs = outputs;
        // The drain's results become visible together, when the batch
        // returns: one clock read after the last of them serves every
        // latency sample of it.
        if !arrivals.is_empty() {
            // hamlet-lint: allow(wallclock) -- latency samples only (the recorder), one read per drain
            let now = Instant::now();
            for arr in arrivals.drain(..) {
                self.latency.record(now.saturating_duration_since(arr));
            }
        }
        self.arrivals = arrivals;
    }

    fn emit_run(
        &mut self,
        gi: usize,
        key: &GroupKey,
        start: u64,
        outputs: &[MemberOutput],
        out: &mut Vec<WindowResult>,
    ) {
        for (qi, o) in outputs.iter().enumerate() {
            let g = &self.plan.groups[gi];
            let q = &g.rt.queries[qi];
            let (id, value) = (q.id, render(&q.agg, o));
            if let Some(ci) = g.combiner_of[qi] {
                // Half of a decomposed OR/AND query: combine when both
                // halves of the same (key, window) have arrived.
                let slot = (ci, key.clone(), start);
                self.dirty.mark_pending(&slot);
                let half = (id, o.raw.count.0);
                match self.pending.remove(&slot) {
                    None => {
                        self.pending.insert(slot, half);
                    }
                    // Attributed to the later-finalizing half's group:
                    // both halves of a (key, window) expire at the same
                    // watermark in canonical order, so the attribution is
                    // deterministic and shard-invariant.
                    Some((_, other)) => self.emit_general(slot, half, other, Some(gi), out),
                }
                continue;
            }
            out.push(WindowResult {
                query: id,
                group_key: key.clone(),
                window_start: Ts(start),
                value,
            });
            self.stats.windows_emitted += 1;
            if let Some(m) = self.obs.get_mut(gi) {
                m.results_emitted += 1;
            }
        }
    }

    /// The one emission of a general query's `(key, window)`: `half` is
    /// one sub-query's `(id, count)`, `other` its partner's count (0 when
    /// that branch matched nothing), `gi` the group the result is
    /// attributed to.
    fn emit_general(
        &mut self,
        (ci, key, start): PendingSlot,
        (id, count): (QueryId, u64),
        other: u64,
        gi: Option<usize>,
        out: &mut Vec<WindowResult>,
    ) {
        let c = &self.plan.combiners[ci];
        let (c1, c2) = if id == c.left {
            (count, other)
        } else {
            debug_assert_eq!(id, c.right);
            (other, count)
        };
        let combined = general::combine(c.kind, TrendVal(c1), TrendVal(c2), c.same_pattern);
        out.push(WindowResult {
            query: c.orig,
            group_key: key,
            window_start: Ts(start),
            value: AggValue::Count(combined.0),
        });
        self.stats.windows_emitted += 1;
        if let Some(m) = gi.and_then(|gi| self.obs.get_mut(gi)) {
            m.results_emitted += 1;
        }
    }

    /// Emits general-query halves whose partner will never arrive, with
    /// the other half = 0 (its branch matched nothing in that window), in
    /// the canonical `(window_start, query, key)` order —
    /// they come out of a `HashMap`, and output must not depend on hash
    /// iteration order. Cold path: each is attributed to the group that
    /// held it by a linear group scan.
    pub(crate) fn settle_orphans(
        &mut self,
        mut orphans: Vec<(PendingSlot, (QueryId, u64))>,
        out: &mut Vec<WindowResult>,
    ) {
        orphans.sort_by(|((ca, ka, sa), _), ((cb, kb, sb), _)| {
            (sa, self.plan.combiners[*ca].orig)
                .cmp(&(sb, self.plan.combiners[*cb].orig))
                .then_with(|| ka.total_cmp(kb))
        });
        for (slot, half) in orphans {
            let gi =
                (self.plan.groups.iter()).position(|g| g.rt.queries.iter().any(|q| q.id == half.0));
            self.emit_general(slot, half, 0, gi, out);
        }
    }

    /// Finalizes all in-flight windows (end of stream).
    ///
    /// # Flush contract
    ///
    /// `flush` behaves exactly like observing a watermark beyond every
    /// open window: every in-flight `(query, key, window)` emits once, in
    /// the canonical `(window_start, group, key)` order, and the engine's
    /// live state drains to empty. `process`+`flush` over a stream is
    /// therefore the offline reference the online pipeline's
    /// drain-on-shutdown is tested to be byte-identical against
    /// (`tests/pipeline_equivalence.rs`).
    ///
    /// The watermark advances to the end of time with the flush, so the
    /// no-double-emission guarantee survives it: events processed *after*
    /// a flush find every window instance already closed and are dropped
    /// as late ([`late_skips`](crate::EngineStats::late_skips)) instead of
    /// resurrecting and re-emitting windows the flush already emitted.
    pub fn flush(&mut self) -> Vec<WindowResult> {
        let flush_t = self.span_start();
        let wm_before = self.watermark.map(|w| w.ticks());
        // Capture the end-of-stream state before draining it: short
        // streams (or small shards) may never hit a periodic sample, and
        // peak_memory() would otherwise read 0.
        if self.cfg.mem_sample_every > 0 {
            let bytes = self.state_bytes();
            self.gauge.sample(bytes);
        }
        let mut out = Vec::new();
        self.watermark = Some(Ts(u64::MAX));
        self.emit_expired(Ts(u64::MAX), &mut out);
        // Every run just ended: what the slabs hold is free slots, and
        // the tables freed ids; nothing after the end of time takes one.
        for g in &mut self.groups {
            debug_assert!(g.runs.iter().all(Runs::is_empty));
            *g = GroupState::default();
        }
        for table in &mut self.tables {
            debug_assert_eq!(table.len(), 0);
            *table = KeyTable::new(self.keys);
        }
        debug_assert!(self.pending.is_empty(), "every window closed");
        self.span_end(Stage::Flush, flush_t, wm_before, out.len() as u64);
        out
    }

    /// Rebuilds what is derived from the live runs after they changed
    /// wholesale (restore, churn): the watermark expiration index —
    /// exactly one entry per run, as `process()` maintains — and the byte
    /// count.
    pub(crate) fn rebuild_expiry(&mut self) {
        self.expiry = ExpiryIndex::default();
        for (group, (g, st)) in (0u32..).zip(self.plan.groups.iter().zip(&self.groups)) {
            for handle in st.slab.live() {
                let entry = st.slab.entry(group, handle, &self.tables[g.class as usize]);
                self.expiry
                    .push(window_end(entry.start, g.window.within), entry);
            }
        }
        self.run_bytes = self.walk_run_bytes();
    }

    /// Frees the key id of every run list in `emptied` that no group of
    /// its class holds a run under any more.
    pub(crate) fn release_emptied(&mut self) {
        for (ci, id) in self.emptied.drain(..) {
            release_key(&self.plan, &self.groups, &mut self.tables, ci as usize, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::EngineConfig;
    use crate::store::{CutKind, Snapshot};
    use hamlet_query::{Pattern, Query, Window};
    use hamlet_types::{Event, EventBuilder, EventTypeId, TypeRegistry};

    fn registry() -> (Arc<TypeRegistry>, EventTypeId, EventTypeId) {
        let mut reg = TypeRegistry::new();
        let a = reg.register("A", &["g"]);
        let b = reg.register("B", &["g"]);
        (Arc::new(reg), a, b)
    }

    fn query(id: u32, a: EventTypeId, b: EventTypeId, within: u64) -> Query {
        let pat = Pattern::seq(vec![Pattern::Type(a), Pattern::plus(Pattern::Type(b))]);
        let mut q = Query::count_star(id, pat, Window::tumbling(within));
        q.group_by = vec![Arc::from("g")];
        q
    }

    /// `n` events from tick `t0`, one per tick, over 7 keys.
    fn stream(reg: &TypeRegistry, a: EventTypeId, b: EventTypeId, t0: u64, n: u64) -> Vec<Event> {
        (t0..t0 + n)
            .map(|t| {
                let ty = if t % 3 == 0 { a } else { b };
                EventBuilder::new(reg, ty, t)
                    .attr("g", (t % 7) as i64)
                    .build()
            })
            .collect()
    }

    /// No wall clock in the state, so a record is a function of the events.
    fn cfg() -> EngineConfig {
        EngineConfig {
            track_latency: false,
            obs: false,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn runs_list_spills_and_returns_in_start_order() {
        let mut runs = Runs::default();
        for (i, start) in [50u64, 10, 30, 20, 60, 40].into_iter().enumerate() {
            let at = runs.find(start).unwrap_err();
            runs.insert(at, start, i as u32);
        }
        let starts = |r: &Runs| r.as_slice().iter().map(|e| e.0).collect::<Vec<_>>();
        assert_eq!(starts(&runs), [10, 20, 30, 40, 50, 60]);
        runs.repoint(30, 99);
        assert_eq!(runs.remove(runs.find(30).unwrap()), 99);
        assert_eq!(runs.remove(0), 1);
        assert_eq!(starts(&runs), [20, 40, 50, 60], "back in place");
        runs.repoint(60, 7);
        assert_eq!(runs.as_slice()[3], (60, 7));
        while !runs.is_empty() {
            runs.remove(0);
        }
        assert!(runs.find(20).is_err());
    }

    /// An entry is four integers: `state_bytes` counts 24 bytes for each,
    /// so a wider entry would move every peak-memory reading.
    #[test]
    fn an_expiry_entry_is_24_bytes() {
        assert_eq!(std::mem::size_of::<ExpiryEntry>(), 24);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// The bucketed drain emits what the by-name reference path does,
        /// byte for byte, over keys whose order prefixes tie or change
        /// variant (`Int(2)` beside `Float(2.0)`, ints past 2⁵³ that round
        /// to one `f64`, signed zeros, NaNs of both signs, strings sharing
        /// their first eight bytes, the empty key and two-attribute keys),
        /// several groups and tumbling and sliding windows: each `(window,
        /// query)`'s keys strictly ascend under `total_cmp`, and every
        /// value is what the query computes in an engine of its own.
        #[test]
        fn drains_match_the_reference_whatever_the_prefixes_tie(seed in 0u64..u64::MAX) {
            use hamlet_query::parse_query;
            use hamlet_types::AttrValue;
            use proptest::prelude::{prop_assert, prop_assert_eq};
            let mut reg = TypeRegistry::new();
            let (a, b) = (reg.register("A", &["g", "h"]), reg.register("B", &["g", "h"]));
            let reg = Arc::new(reg);
            let texts = [
                "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g WITHIN 10",
                "RETURN COUNT(*) PATTERN SEQ(B, A+) GROUP BY g WITHIN 20 SLIDE 5",
                "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g, h WITHIN 10",
                "RETURN SUM(B.h) PATTERN SEQ(A, B+) GROUP BY h, g WITHIN 12 SLIDE 4",
                "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 15",
            ];
            let queries: Vec<Query> = (0u32..).zip(texts)
                .map(|(id, text)| parse_query(&reg, id, text).unwrap())
                .collect();
            let big = 1i64 << 53;
            let pool = [
                AttrValue::Int(2),
                AttrValue::Float(2.0),
                AttrValue::Int(big),
                AttrValue::Int(big + 1),
                AttrValue::Float(big as f64),
                AttrValue::Int(-3),
                AttrValue::Int(i64::MIN),
                AttrValue::Float(-1.5),
                AttrValue::Float(0.0),
                AttrValue::Float(-0.0),
                AttrValue::Float(f64::NAN),
                AttrValue::Float(-f64::NAN),
                AttrValue::from(""),
                AttrValue::from("abcdefgh"),
                AttrValue::from("abcdefgh1"),
                AttrValue::from("abcdefgh2"),
                AttrValue::from("abcdefgi"),
            ];
            let mut s = seed | 1;
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let mut t = 0;
            let events: Vec<Event> = (0..400)
                .map(|_| {
                    t += next() % 2;
                    let ty = if next().is_multiple_of(3) { a } else { b };
                    let g = pool[(next() % pool.len() as u64) as usize].clone();
                    Event::new(Ts(t), ty, vec![g, AttrValue::Int((next() % 3) as i64)])
                })
                .collect();
            let mk = |queries: Vec<Query>| HamletEngine::new(reg.clone(), queries, cfg()).unwrap();
            let (mut eng, mut reference) = (mk(queries.clone()), mk(queries.clone()));
            prop_assert!(eng.num_groups() >= 4);
            let mut out = Vec::new();
            for chunk in events.chunks(1 + (seed % 40) as usize) {
                let want: Vec<_> = chunk.iter().flat_map(|e| reference.process_reference(e)).collect();
                let got = eng.process_batch(chunk);
                prop_assert_eq!(&got, &want);
                out.extend(got);
            }
            let last = eng.flush();
            prop_assert_eq!(&last, &reference.flush());
            out.extend(last);
            for (i, r) in out.iter().enumerate() {
                let prev = out[..i].iter().rev()
                    .find(|p| (p.window_start, p.query) == (r.window_start, r.query));
                if let Some(p) = prev {
                    prop_assert!(p.group_key.total_cmp(&r.group_key).is_lt(), "{:?} after {:?}", r, p);
                }
            }
            for q in &queries {
                let mut alone = mk(vec![q.clone()]);
                let mut own = alone.process_batch(&events);
                own.extend(alone.flush());
                let of_q: Vec<&WindowResult> = out.iter().filter(|r| r.query == q.id).collect();
                prop_assert_eq!(of_q, own.iter().collect::<Vec<_>>(), "query {:?}", q.id);
            }
        }
    }

    /// Free slots are not state: a record cut beside a warm free list
    /// restores into an engine without one, and from there on the two
    /// engines — whose handles now differ — cut byte-identical records.
    #[test]
    fn free_slots_never_reach_a_record() {
        let (reg, a, b) = registry();
        let mk = || HamletEngine::new(reg.clone(), vec![query(1, a, b, 10)], cfg()).unwrap();
        let mut eng = mk();
        eng.process_batch(&stream(&reg, a, b, 0, 45));
        let slab = &eng.groups[0].slab;
        assert!(
            !slab.free.is_empty(),
            "windows closed: the free list is warm"
        );
        assert!(slab.live().count() > 0, "and some are open");

        let base = eng.cut(CutKind::Full).unwrap();
        eng.process_batch(&stream(&reg, a, b, 45, 20));
        let delta = eng.cut(CutKind::Delta).unwrap();
        assert!(delta.is_delta());
        let mut restored = mk();
        restored.restore_chain(&[base, delta]).unwrap();
        let slab = &restored.groups[0].slab;
        assert!(slab.free.is_empty() && slab.slots.iter().all(|s| s.live));
        assert_eq!(restored.state_bytes(), eng.state_bytes());
        assert_eq!(restored.checkpoint(), eng.checkpoint());

        let more = stream(&reg, a, b, 65, 30);
        assert_eq!(restored.process_batch(&more), eng.process_batch(&more));
        let (x, y) = (restored.cut(CutKind::Delta), eng.cut(CutKind::Delta));
        assert_eq!(x.unwrap().as_bytes(), y.unwrap().as_bytes());
        assert_eq!(restored.flush(), eng.flush());
        assert!(
            eng.groups[0].slab.slots.is_empty(),
            "flush releases the slab"
        );
    }

    /// `SEQ(A, B+) <op> SEQ(C, D+)` over tumbling windows of 10, with a
    /// registry of the four types and A, B; the tests generate only A/B
    /// events, so the right half never has a run.
    fn general(
        op: fn(Box<Pattern>, Box<Pattern>) -> Pattern,
    ) -> (Arc<TypeRegistry>, EventTypeId, EventTypeId, Query) {
        let mut reg = TypeRegistry::new();
        let [a, b, c, d] = ["A", "B", "C", "D"].map(|t| reg.register(t, &["g"]));
        let seq = |x, y| Pattern::seq(vec![Pattern::Type(x), Pattern::plus(Pattern::Type(y))]);
        let pattern = op(Box::new(seq(a, b)), Box::new(seq(c, d)));
        let q = Query::count_star(1, pattern, Window::tumbling(10));
        (Arc::new(reg), a, b, q)
    }

    /// A half of an OR / AND query whose partner branch had no run in a
    /// `(key, window)` is emitted when that window closes — every closed
    /// window before `flush`, as a plain query's — and does not stay
    /// behind as state.
    #[test]
    fn general_results_emit_when_their_window_closes() {
        for op in [Pattern::Or, Pattern::And] {
            let (reg, a, b, q) = general(op);
            let mut eng = HamletEngine::new(reg.clone(), vec![q], cfg()).unwrap();
            let out = eng.process_batch(&stream(&reg, a, b, 0, 1000));
            let starts: Vec<u64> = out.iter().map(|r| r.window_start.ticks()).collect();
            assert_eq!(starts, (0..99).map(|w| w * 10).collect::<Vec<_>>());
            assert!(out.iter().all(|r| r.query == QueryId(1)));
            assert!(eng.pending.is_empty(), "no closed window waits");
            let last = eng.flush();
            assert_eq!(last.len(), 1, "only the open window [990, 1000)");
            assert_eq!(last[0].window_start, Ts(990));
        }
    }

    /// A half a churn drains mid-window waits for its partner across a
    /// base cut, settles when the window closes, and the delta cut after
    /// that records it gone: the restored chain's `flush` emits nothing
    /// the original already emitted.
    #[test]
    fn a_settled_half_leaves_the_chain() {
        let (reg, a, b, q_or) = general(Pattern::Or);
        let plain = |id| {
            let pat = Pattern::seq(vec![Pattern::Type(a), Pattern::plus(Pattern::Type(b))]);
            Query::count_star(id, pat, Window::tumbling(10))
        };
        let mut eng = HamletEngine::new(reg.clone(), vec![q_or.clone(), plain(7)], cfg()).unwrap();
        let mut out = eng.process_batch(&stream(&reg, a, b, 0, 25));
        // A third member rebuilds the left half's group: its run of
        // [20, 30) drains and waits, as no right-half run exists.
        out.extend(eng.add_query(plain(8)).unwrap().drained);
        assert_eq!(eng.pending.len(), 1, "the drained left half waits");
        let base = eng.cut(CutKind::Full).unwrap();
        let before = out.len();
        out.extend(eng.process_batch(&stream(&reg, a, b, 30, 15)));
        let settled = out[before..].iter().filter(|r| r.query == QueryId(1));
        assert_eq!(
            settled.map(|r| r.window_start).collect::<Vec<_>>(),
            [Ts(20), Ts(30)],
            "the close of [20, 30) settles the half; [30, 40) closes as usual"
        );
        assert!(eng.pending.is_empty());
        let delta = eng.cut(CutKind::Delta).unwrap();
        assert!(delta.is_delta());

        let queries = vec![q_or, plain(7), plain(8)];
        let mut restored = HamletEngine::new(reg, queries, cfg()).unwrap();
        restored.restore_chain(&[base, delta]).unwrap();
        assert!(restored.pending.is_empty());
        assert_eq!(restored.flush(), eng.flush());
    }

    /// A carried group's recycled runs stay behind with the old runtime:
    /// after a churn every slot, and every run created since, points at
    /// the recompiled one.
    #[test]
    fn churn_drops_the_free_list_of_the_old_runtime() {
        let (reg, a, b) = registry();
        let mut eng = HamletEngine::new(reg.clone(), vec![query(1, a, b, 10)], cfg()).unwrap();
        let mut out = eng.process_batch(&stream(&reg, a, b, 0, 45));
        assert!(!eng.groups[0].slab.free.is_empty());
        let report = eng.add_query(query(2, a, b, 25)).unwrap();
        assert_eq!(report.groups_carried, 1);
        let carried = (eng.plan.groups.iter())
            .position(|g| g.window.within == 10)
            .unwrap();
        assert!(eng.groups[carried].slab.free.is_empty());
        out.extend(eng.process_batch(&stream(&reg, a, b, 45, 40)));
        for (g, st) in eng.plan.groups.iter().zip(&eng.groups) {
            assert!(!st.slab.slots.is_empty());
            for slot in &st.slab.slots {
                assert!(std::ptr::eq(slot.rs.run.runtime(), &*g.rt));
            }
        }
        out.extend(eng.flush());

        // Query 1 never noticed.
        let mut plain = HamletEngine::new(reg.clone(), vec![query(1, a, b, 10)], cfg()).unwrap();
        let mut gold = plain.process_batch(&stream(&reg, a, b, 0, 85));
        gold.extend(plain.flush());
        out.retain(|r| r.query == QueryId(1));
        assert_eq!(out, gold);
    }

    /// A shard interns only the keys it owns, whether it hashes them
    /// itself (`EngineConfig::shard`) or reads the router's verdicts.
    #[test]
    fn a_shard_interns_only_the_keys_it_owns() {
        use crate::executor::shard_index;
        let (reg, a, b) = registry();
        let events = stream(&reg, a, b, 0, 40);
        let mk = |shard| {
            let cfg = EngineConfig { shard, ..cfg() };
            HamletEngine::new(reg.clone(), vec![query(1, a, b, 100)], cfg).unwrap()
        };
        let mut interned = 0;
        for idx in 0..2 {
            let mut hashed = mk(Some((idx, 2)));
            hashed.process_batch(&events);
            let mut routed = mk(None);
            let owned: Vec<u64> = (events.iter())
                .map(|e| routed.shard_mask(e, 2) >> idx & 1)
                .collect();
            routed.process_routed(&events, Some(&owned));
            for eng in [&hashed, &routed] {
                let table = &eng.tables[0];
                for id in 0..table.ids() as u32 {
                    assert_eq!(shard_index(table.key(id), 2), idx);
                }
                assert_eq!(table.len(), hashed.tables[0].len());
            }
            interned += hashed.tables[0].len();
        }
        assert_eq!(interned, 7, "the two shards split the seven keys");
    }

    /// Key ids are recycled: 50 tumbling windows, each over 1 000 keys no
    /// earlier window saw. After every close the table indexes exactly
    /// the keys that hold live runs, and its id space never outgrows one
    /// window's keys: a window's close frees its ids before the next
    /// window's keys are interned.
    #[test]
    fn key_ids_are_recycled() {
        let (reg, a, b) = registry();
        let mut eng = HamletEngine::new(reg.clone(), vec![query(1, a, b, 10)], cfg()).unwrap();
        let keys = 1_000;
        let mut results = 0;
        for w in 0..50u64 {
            let events: Vec<Event> = (0..keys)
                .flat_map(|k| [a, b].map(|ty| (ty, k)))
                .map(|(ty, k)| {
                    EventBuilder::new(&reg, ty, w * 10 + k * 10 / keys)
                        .attr("g", (w * keys + k) as i64)
                        .build()
                })
                .collect();
            for chunk in events.chunks(256) {
                results += eng.process_batch(chunk).len();
            }
            assert_eq!(results as u64, w * keys, "window {w} closed the one before");
            let (table, runs) = (&eng.tables[0], &eng.groups[0].runs);
            assert!(table.ids() <= keys as usize, "{} ids", table.ids());
            for id in 0..table.ids() as u32 {
                let held = runs.get(id as usize).is_some_and(|r| !r.is_empty());
                assert_eq!(table.get(table.key(id)) == Some(id), held, "id {id}");
            }
            assert_eq!(table.len(), keys as usize);
        }
        assert_eq!(eng.flush().len() as u64, keys);
        assert_eq!(eng.tables[0].len(), 0);
    }

    /// Removing a `GROUP BY driver` query ahead of two `GROUP BY
    /// district` ones renumbers the district group's key class (1 → 0)
    /// while the group carries its runs over: the carried queries still
    /// compute what each computes alone, and a full cut right after the
    /// churn restores and finishes byte-identical.
    #[test]
    fn a_churn_that_renumbers_a_key_class_carries_its_keys() {
        use hamlet_query::parse_query;
        let mut reg = TypeRegistry::new();
        let (a, b) = (
            reg.register("A", &["driver", "district"]),
            reg.register("B", &["driver", "district"]),
        );
        let reg = Arc::new(reg);
        let q = |id, by, within| {
            let text = format!("RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY {by} WITHIN {within}");
            parse_query(&reg, id, &text).unwrap()
        };
        let (by_driver, by_district) = (
            q(1, "driver", 20),
            [q(2, "district", 20), q(3, "district", 20)],
        );
        let stream = |from: u64, n: u64| -> Vec<Event> {
            (from..from + n)
                .map(|t| {
                    EventBuilder::new(&reg, if t % 4 == 0 { a } else { b }, t / 2)
                        .attr("driver", (t % 11) as i64)
                        .attr("district", 100 + (t % 3) as i64)
                        .build()
                })
                .collect()
        };
        let mk = |queries: Vec<Query>| HamletEngine::new(reg.clone(), queries, cfg()).unwrap();
        let mut queries = vec![by_driver];
        queries.extend(by_district.clone());
        let mut eng = mk(queries);
        let district = |eng: &HamletEngine| {
            let g = eng
                .plan
                .groups
                .iter()
                .find(|g| g.partition_attrs[0].as_ref() == "district");
            g.unwrap().class
        };
        assert_eq!(district(&eng), 1);
        let mut out = eng.process_batch(&stream(0, 50));
        let report = eng.remove_query(QueryId(1)).unwrap();
        assert_eq!((report.groups_carried, district(&eng)), (1, 0));
        out.extend(report.drained);

        let base = eng.cut(CutKind::Full).unwrap();
        let mut restored = mk(by_district.to_vec());
        restored.restore_chain(&[base]).unwrap();
        assert_eq!(restored.checkpoint(), eng.checkpoint());
        let rest = stream(50, 70);
        let more = eng.process_batch(&rest);
        assert_eq!(restored.process_batch(&rest), more);
        out.extend(more);
        let last = eng.flush();
        assert_eq!(restored.flush(), last);
        out.extend(last);

        for q in by_district {
            let mut alone = mk(vec![q.clone()]);
            let mut gold = alone.process_batch(&stream(0, 120));
            gold.extend(alone.flush());
            let of_q: Vec<_> = out.iter().filter(|r| r.query == q.id).cloned().collect();
            assert_eq!(of_q, gold, "query {:?}", q.id);
        }
    }
}
