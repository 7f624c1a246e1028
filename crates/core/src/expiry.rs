//! Where runs begin and end: the watermark expiration index, and result
//! emission.
//!
//! A run is indexed once, when its first event creates it
//! (`Partition::run_at`); `HamletEngine::emit_expired` pops exactly
//! the runs whose window end the watermark has passed, finalizes them in
//! the canonical `(window_start, group, key)` order and renders one result
//! per member query — pairing the two halves of a decomposed general
//! (`OR`/`AND`) query on the way. [`HamletEngine::flush`] is the same
//! drain at the end of time.

use crate::burst::{FlushEnv, RunState};
use crate::executor::{render, AggValue, EngineStats, HamletEngine, WindowResult};
use crate::general;
use crate::record::{PendingSlot, Runs};
use crate::run::{GroupRuntime, MemberOutput};
use hamlet_obs::{GroupMetrics, Stage};
use hamlet_query::QueryId;
use hamlet_types::time::window_end;
use hamlet_types::{GroupKey, TrendVal, Ts};
use std::cmp::Reverse;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::Arc;

/// One live run in the watermark expiration index.
///
/// The engine keeps a min-heap of these ordered by `(end, start, group,
/// key)`: `emit_expired(wm)` pops exactly the runs whose window end has
/// passed `wm` — O(k log n) for k expirations — instead of scanning every
/// live partition of every group per event. An entry is pushed once per
/// run creation; if the run is gone by the time its entry surfaces (lazy
/// invalidation) the pop is a tombstone and is skipped.
pub(crate) struct ExpiryEntry {
    /// Window end (`start + within`, saturating — see [`window_end`]).
    pub(crate) end: u64,
    /// Window instance start.
    start: u64,
    /// Owning share group index.
    group: usize,
    /// Partition key within the group.
    pub(crate) key: GroupKey,
}

impl PartialEq for ExpiryEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for ExpiryEntry {}

impl PartialOrd for ExpiryEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ExpiryEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.end, self.start, self.group)
            .cmp(&(other.end, other.start, other.group))
            .then_with(|| self.key.total_cmp(&other.key))
    }
}

/// `key`'s run map in `partitions`; only a first-seen key pays the clone
/// into the map.
pub(crate) fn runs_of<'a>(
    partitions: &'a mut HashMap<GroupKey, Runs>,
    key: &GroupKey,
) -> &'a mut Runs {
    if !partitions.contains_key(key) {
        partitions.insert(key.clone(), BTreeMap::new());
    }
    // hamlet-lint: allow(panic-hygiene) -- get_mut right after contains_key/insert of the same key; entry() would clone the key on every probe
    partitions.get_mut(key).expect("inserted above")
}

/// One partition's run map ([`runs_of`]), with what a run creation
/// touches beyond it: the expiration index and the group's `runs_created`
/// counter. Every event path reaches its runs through this.
pub(crate) struct Partition<'a> {
    pub(crate) runs: &'a mut Runs,
    pub(crate) group: usize,
    pub(crate) key: &'a GroupKey,
    pub(crate) rt: &'a Arc<GroupRuntime>,
    pub(crate) expiry: &'a mut BinaryHeap<Reverse<ExpiryEntry>>,
    pub(crate) obs: Option<&'a mut GroupMetrics>,
}

impl Partition<'_> {
    /// The run of window instance `[start, end)`, created on first touch
    /// — the one moment a run is indexed for expiry. Re-touching an
    /// existing `(key, start)` takes the occupied arm, so the heap never
    /// holds duplicate live entries.
    pub(crate) fn run_at(
        &mut self,
        start: u64,
        end: u64,
        stats: &mut EngineStats,
    ) -> &mut RunState {
        match self.runs.entry(start) {
            Entry::Occupied(o) => o.into_mut(),
            Entry::Vacant(v) => {
                self.expiry.push(Reverse(ExpiryEntry {
                    end,
                    start,
                    group: self.group,
                    key: self.key.clone(),
                }));
                stats.expiry_pushes += 1;
                if let Some(m) = &mut self.obs {
                    m.runs_created += 1;
                }
                v.insert(RunState::new(self.rt.clone()))
            }
        }
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
        let mut finished: Vec<(usize, GroupKey, u64, RunState)> = Vec::new();
        while self.expiry.peek().is_some_and(|Reverse(e)| e.end <= wm) {
            let Some(Reverse(e)) = self.expiry.pop() else {
                break;
            };
            let g = &mut self.groups[e.group];
            // Lazy invalidation: skip entries whose run is already gone.
            let Some(runs) = g.partitions.get_mut(&e.key) else {
                self.stats.expiry_tombstones += 1;
                continue;
            };
            let Some(rs) = runs.remove(&e.start) else {
                self.stats.expiry_tombstones += 1;
                continue;
            };
            if runs.is_empty() {
                g.partitions.remove(&e.key);
            }
            self.dirty.mark(e.group, &e.key);
            finished.push((e.group, e.key, e.start, rs));
        }
        self.finalize_finished(finished, out);
    }

    /// Finalizes a batch of expired runs and emits their results in the
    /// defined total order `(window_start, group, key)`.
    pub(crate) fn finalize_finished(
        &mut self,
        mut finished: Vec<(usize, GroupKey, u64, RunState)>,
        out: &mut Vec<WindowResult>,
    ) {
        finished.sort_by(|a, b| {
            (a.2, a.0)
                .cmp(&(b.2, b.0))
                .then_with(|| a.1.total_cmp(&b.1))
        });
        for (gi, key, start, mut rs) in finished {
            rs.flush(&mut FlushEnv {
                cfg: &self.cfg,
                estimator: &mut self.groups[gi].estimator,
                stats: &mut self.stats,
                ctx: &mut self.burst_ctx,
            });
            let outputs = rs.run.finalize();
            self.stats.runs.add(rs.run.stats());
            if let Some(m) = self.obs.get_mut(gi) {
                let s = rs.run.stats();
                m.runs_expired += 1;
                m.shared_bursts += s.shared_bursts;
                m.solo_bursts += s.solo_bursts;
                m.graphlet_snapshots += s.graphlet_snapshots;
                m.event_snapshots += s.event_snapshots;
            }
            if let Some(arr) = rs.last_arrival {
                self.latency.record(arr.elapsed());
            }
            self.emit_run(gi, &key, start, &outputs, out);
        }
    }

    fn emit_run(
        &mut self,
        gi: usize,
        key: &GroupKey,
        start: u64,
        outputs: &[MemberOutput],
        out: &mut Vec<WindowResult>,
    ) {
        let rt = self.groups[gi].rt.clone();
        for (qi, o) in outputs.iter().enumerate() {
            let q = &rt.queries[qi];
            if let Some(&ci) = self.sub_of.get(&q.id) {
                // Half of a decomposed OR/AND query: combine when both
                // halves of the same (key, window) have arrived.
                let slot = (ci, key.clone(), start);
                self.dirty.mark_pending(&slot);
                let half = (q.id, o.raw.count.0);
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
                query: q.id,
                group_key: key.clone(),
                window_start: Ts(start),
                value: render(&q.agg, o),
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
    /// as late ([`EngineStats::late_skips`]) instead of resurrecting and
    /// re-emitting windows the flush already emitted.
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
        // Out of a HashMap: settle_orphans sorts before emitting.
        let orphans: Vec<_> = self.pending.drain().collect();
        for (slot, _) in &orphans {
            self.dirty.mark_pending(slot);
        }
        self.settle_orphans(orphans, &mut out);
        self.span_end(Stage::Flush, flush_t, wm_before, out.len() as u64);
        out
    }

    /// Rebuilds the watermark expiration index from the live runs:
    /// exactly one entry per run, as `process()` maintains.
    pub(crate) fn rebuild_expiry(&mut self) {
        self.expiry.clear();
        for (gi, g) in self.groups.iter().enumerate() {
            let within = g.window.within;
            // hamlet-lint: allow(unordered-iter) -- heap rebuild; expiry drains every due entry before finalize_finished sorts emissions canonically
            for (key, runs) in &g.partitions {
                for &start in runs.keys() {
                    self.expiry.push(Reverse(ExpiryEntry {
                        end: window_end(start, within),
                        start,
                        group: gi,
                        key: key.clone(),
                    }));
                }
            }
        }
    }
}
