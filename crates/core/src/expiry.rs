//! Where runs live, begin and end: the per-group run slab, the watermark
//! expiration index, and result emission.
//!
//! A run occupies a slot of its share group's `RunSlab` and is known
//! everywhere else by that slot's handle: its key's `Runs` list, the
//! expiration index. It is indexed once, when its first event creates it
//! (`Partition::run_at`); `HamletEngine::emit_expired` pops exactly
//! the runs whose window end the watermark has passed, finalizes them in
//! the canonical `(window_start, group, key)` order, renders one result
//! per member query — pairing the two halves of a decomposed general
//! (`OR`/`AND`) query on the way — and hands each slot back for the next
//! run to reuse. [`HamletEngine::flush`] is the same drain at the end of
//! time.

use crate::burst::{FlushEnv, RunState};
use crate::executor::{render, AggValue, HamletEngine, WindowResult};
use crate::general;
use crate::record::PendingSlot;
use crate::run::{GroupRuntime, MemberOutput};
use hamlet_obs::{GroupMetrics, Stage};
use hamlet_query::QueryId;
use hamlet_types::time::window_end;
use hamlet_types::{GroupKey, TrendVal, Ts};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// One live run in the watermark expiration index.
///
/// The engine keeps a min-heap of these ordered by `(end, start, group,
/// handle)` — integers only: `emit_expired(wm)` pops exactly the runs
/// whose window end has passed `wm` — O(k log n) for k expirations —
/// instead of scanning every live partition of every group per event. An
/// entry is pushed once per run creation; if the run is gone by the time
/// its entry surfaces (lazy invalidation) the pop is a tombstone and is
/// skipped.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ExpiryEntry {
    /// Window end (`start + within`, saturating — see [`window_end`]).
    pub(crate) end: u64,
    /// Window instance start.
    start: u64,
    /// Owning share group index.
    group: u32,
    /// The run's slot in the group's [`RunSlab`].
    handle: u32,
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

/// One slot of a [`RunSlab`]: a run with the `(key, window start)` it
/// currently evaluates, or — free — a recycled run waiting for the next.
pub(crate) struct Slot {
    pub(crate) key: GroupKey,
    pub(crate) start: u64,
    live: bool,
    pub(crate) rs: RunState,
}

/// A share group's runs, by handle. A finished run's slot goes on the
/// free list recycled ([`RunState::recycle`]) and the next run created
/// takes it, so steady-state run creation allocates nothing. Free slots
/// are not state: never serialized, never byte-accounted, at most the
/// group's peak live run count, and dropped at `flush()`, on churn and on
/// restore ([`drop_free`](Self::drop_free)).
#[derive(Default)]
pub(crate) struct RunSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
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

    /// Puts a run for `(key, start)` in a slot — `decoded` if given, else
    /// an empty one: a recycled slot's if there is one, a new
    /// [`RunState::new`] over `rt` otherwise.
    pub(crate) fn occupy(
        &mut self,
        rt: &Arc<GroupRuntime>,
        key: &GroupKey,
        start: u64,
        decoded: Option<RunState>,
    ) -> u32 {
        if let Some(handle) = self.free.pop() {
            let slot = &mut self.slots[handle as usize];
            slot.key.0.clone_from(&key.0);
            (slot.start, slot.live) = (start, true);
            if let Some(rs) = decoded {
                slot.rs = rs;
            }
            return handle;
        }
        self.slots.push(Slot {
            key: key.clone(),
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
        slot.rs.recycle();
        self.free.push(handle);
        bytes
    }

    /// Drops the free slots. Live runs move into the holes, so their
    /// handles change: `partitions` is re-pointed here, the expiration
    /// index must be rebuilt by the caller.
    pub(crate) fn drop_free(&mut self, partitions: &mut HashMap<GroupKey, Runs>) {
        // Highest first: every slot above the hole being filled is live.
        self.free.sort_unstable();
        while let Some(hole) = self.free.pop() {
            self.slots.swap_remove(hole as usize);
            if let Some(moved) = self.slots.get(hole as usize) {
                if let Some(runs) = partitions.get_mut(&moved.key) {
                    runs.repoint(moved.start, hole);
                }
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
    pub(crate) key: &'a GroupKey,
    pub(crate) rt: &'a Arc<GroupRuntime>,
    pub(crate) expiry: &'a mut BinaryHeap<Reverse<ExpiryEntry>>,
    pub(crate) obs: Option<&'a mut GroupMetrics>,
}

impl Partition<'_> {
    /// The run of window instance `[start, end)`, created on first touch
    /// — the one moment a run is indexed for expiry and enters the byte
    /// count. Re-touching an existing `(key, start)` finds its handle, so
    /// the heap never holds duplicate live entries.
    pub(crate) fn run_at(&mut self, start: u64, end: u64, env: &mut FlushEnv<'_>) -> &mut RunState {
        let handle = match self.runs.find(start) {
            Ok(at) => self.runs.as_slice()[at].1,
            Err(at) => {
                let handle = self.slab.occupy(self.rt, self.key, start, None);
                self.runs.insert(at, start, handle);
                self.expiry.push(Reverse(ExpiryEntry {
                    end,
                    start,
                    group: self.group as u32,
                    handle,
                }));
                env.stats.expiry_pushes += 1;
                *env.bytes += self.slab.get(handle).rs.accounted;
                if let Some(m) = &mut self.obs {
                    m.runs_created += 1;
                }
                handle
            }
        };
        &mut self.slab.slots[handle as usize].rs
    }
}

impl HamletEngine {
    /// Emits every window whose end has passed the watermark.
    ///
    /// Pops the expiration index instead of scanning live partitions:
    /// O(k log n) for k expirations, O(1) when nothing expires — the
    /// common per-event case. Emission follows the defined total order
    /// `(window_start, group, key)`, so single-threaded output is
    /// deterministic by construction (the same order
    /// [`sort_results`](crate::sort_results) /
    /// [`crate::parallel::ParallelReport`] guarantee within one window
    /// instance).
    pub(crate) fn emit_expired(&mut self, watermark: Ts, out: &mut Vec<WindowResult>) {
        let wm = watermark.ticks();
        let mut finished = std::mem::take(&mut self.finished);
        while self.expiry.peek().is_some_and(|Reverse(e)| e.end <= wm) {
            let Some(Reverse(e)) = self.expiry.pop() else {
                break;
            };
            let g = &mut self.groups[e.group as usize];
            // Lazy invalidation: skip entries whose run is already gone
            // (its slot free, or taken by a run of another window).
            let live =
                (g.slab.slots.get(e.handle as usize)).filter(|s| s.live && s.start == e.start);
            let Some((key, runs)) =
                live.and_then(|s| Some((&s.key, g.partitions.get_mut(&s.key)?)))
            else {
                self.stats.expiry_tombstones += 1;
                continue;
            };
            if let Ok(at) = runs.find(e.start) {
                runs.remove(at);
            }
            if runs.is_empty() {
                g.partitions.remove(key);
            }
            self.dirty.mark(e.group as usize, key);
            finished.push((e.group, e.handle));
        }
        self.finalize_finished(&mut finished, out);
        self.finished = finished;
    }

    /// Finalizes a batch of expired runs — `(group, handle)` of runs
    /// already taken off their keys' lists — emits their results in the
    /// defined total order `(window_start, group, key)`, and hands their
    /// slots back. Leaves `finished` empty.
    pub(crate) fn finalize_finished(
        &mut self,
        finished: &mut Vec<(u32, u32)>,
        out: &mut Vec<WindowResult>,
    ) {
        let groups = &self.groups;
        finished.sort_by(|&(ga, ha), &(gb, hb)| {
            let (a, b) = (
                groups[ga as usize].slab.get(ha),
                groups[gb as usize].slab.get(hb),
            );
            (a.start, ga)
                .cmp(&(b.start, gb))
                .then_with(|| a.key.total_cmp(&b.key))
        });
        let mut outputs = std::mem::take(&mut self.outputs);
        for (gi, handle) in finished.drain(..) {
            let gi = gi as usize;
            let g = &mut self.groups[gi];
            let slot = &mut g.slab.slots[handle as usize];
            slot.rs.flush(&mut FlushEnv {
                cfg: &self.cfg,
                estimator: &mut g.estimator,
                stats: &mut self.stats,
                ctx: &mut self.burst_ctx,
                bytes: &mut self.run_bytes,
            });
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
            if let Some(arr) = slot.rs.last_arrival {
                self.latency.record(arr.elapsed());
            }
            // The key leaves its slot for the emission and goes back, so
            // the slot keeps the buffer.
            let (key, start) = (std::mem::take(&mut slot.key), slot.start);
            self.emit_run(gi, &key, start, &outputs, out);
            let slab = &mut self.groups[gi].slab;
            slab.slots[handle as usize].key = key;
            self.run_bytes -= slab.release(handle);
        }
        self.outputs = outputs;
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
            let g = &self.groups[gi];
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
        let c = &self.combiners[ci];
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

    /// Emits general-query halves whose partner run can no longer exist,
    /// with the other half = 0 (its branch matched nothing in that
    /// window), in the canonical `(window_start, query, key)` order —
    /// they come out of a `HashMap`, and output must not depend on hash
    /// iteration order. Cold path: each is attributed to the group that
    /// held it by a linear group scan.
    pub(crate) fn settle_orphans(
        &mut self,
        mut orphans: Vec<(PendingSlot, (QueryId, u64))>,
        out: &mut Vec<WindowResult>,
    ) {
        orphans.sort_by(|((ca, ka, sa), _), ((cb, kb, sb), _)| {
            (sa, self.combiners[*ca].orig)
                .cmp(&(sb, self.combiners[*cb].orig))
                .then_with(|| ka.total_cmp(kb))
        });
        for (slot, half) in orphans {
            let gi = (self.groups.iter()).position(|g| g.rt.queries.iter().any(|q| q.id == half.0));
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
        // nothing after the end of time can take one.
        for g in &mut self.groups {
            debug_assert!(g.partitions.is_empty());
            g.slab = RunSlab::default();
        }
        // Out of a HashMap: settle_orphans sorts before emitting.
        let orphans: Vec<_> = self.pending.drain().collect();
        for (slot, _) in &orphans {
            self.dirty.mark_pending(slot);
        }
        self.settle_orphans(orphans, &mut out);
        self.span_end(Stage::Flush, flush_t, wm_before, out.len() as u64);
        out
    }

    /// Rebuilds what is derived from the live runs after they changed
    /// wholesale (restore, churn): the watermark expiration index —
    /// exactly one entry per run, as `process()` maintains — and the byte
    /// count.
    pub(crate) fn rebuild_expiry(&mut self) {
        self.expiry.clear();
        for (group, g) in (0u32..).zip(&self.groups) {
            for handle in g.slab.live() {
                let start = g.slab.get(handle).start;
                self.expiry.push(Reverse(ExpiryEntry {
                    end: window_end(start, g.window.within),
                    start,
                    group,
                    handle,
                }));
            }
        }
        self.run_bytes = self.walk_run_bytes();
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
        let carried = (eng.groups.iter())
            .position(|g| g.window.within == 10)
            .unwrap();
        assert!(eng.groups[carried].slab.free.is_empty());
        out.extend(eng.process_batch(&stream(&reg, a, b, 45, 40)));
        for g in &eng.groups {
            assert!(!g.slab.slots.is_empty());
            for slot in &g.slab.slots {
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
}
