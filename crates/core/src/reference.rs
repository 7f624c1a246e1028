//! The oracles the one event path is tested against — compiled only for
//! `hamlet-core`'s own unit tests (`#[cfg(test)] mod reference` in
//! `lib.rs`), never into the library:
//!
//! * [`HamletEngine::process_reference`] — the pre-batching per-event
//!   body: every group, classified by attribute *name*
//!   ([`GroupPlan::key_by_name`]), no routing tables, no segments;
//! * [`HamletEngine::process_scan_expiry`] /
//!   [`flush_scan_expiry`](HamletEngine::flush_scan_expiry) — expiry by
//!   the pre-index full scan over every live partition;
//! * [`Run::process_burst_slow`] — the raw events through the per-event
//!   replay loop (`run/edge.rs`), whatever their type buffers;
//! * [`GroupRuntime::cell_by_members`] — a cell from each member's own
//!   selections, not from the workload's selection table.
//!
//! All of them share the engine's state with the path they check, so a
//! test may interleave them with it freely.

use crate::agg::MmVal;
use crate::bitset::QSet;
use crate::burst::{Burst, BurstRepr, Cell, Chunk, FlushEnv};
use crate::executor::{
    release_key, shard_index, GroupPlan, GroupState, HamletEngine, WindowResult,
};
use crate::expiry::Partition;
use crate::run::{GroupRuntime, Run};
use crate::workload::AggSkeleton;
use hamlet_types::time::window_end;
use hamlet_types::{AttrValue, Event, GroupKey, Ts, TypeRegistry};
use std::time::Instant;

impl GroupPlan {
    /// `e`'s partition key by definition: each partition attribute looked
    /// up by name in the event's schema (absent → `Int(0)`).
    pub(crate) fn key_by_name(&self, reg: &TypeRegistry, e: &Event) -> GroupKey {
        GroupKey(
            self.partition_attrs
                .iter()
                .map(|name| {
                    reg.attr_index(e.ty, name)
                        .and_then(|i| e.attr(i).cloned())
                        .unwrap_or(AttrValue::Int(0))
                })
                .collect(),
        )
    }
}

impl HamletEngine {
    /// One event through every share group in turn: watermark, expiry
    /// drain, then per group the by-name key, the shard filter, the
    /// window instances and one append per instance — what
    /// [`process`](Self::process) must equal, event for event.
    pub(crate) fn process_reference(&mut self, e: &Event) -> Vec<WindowResult> {
        // hamlet-lint: allow(wallclock) -- latency stamp (only under track_latency); feeds the recorder, not results
        let now = self.cfg.track_latency.then(Instant::now);
        let mut out = Vec::new();
        // Monotone watermark: an out-of-order event must not rewind
        // expiry, only (possibly) fail its own closed windows' guard.
        let wm = self.watermark.map_or(e.time, |w| w.max(e.time));
        self.watermark = Some(wm);
        self.emit_expired(wm, &mut out);

        let mut routed = false;
        let plan = &self.plan;
        for (gi, g) in plan.groups.iter().enumerate() {
            let Some(tl) = g.rt.template.local(e.ty) else {
                continue;
            };
            let key = g.key_by_name(&plan.reg, e);
            if let Some((idx, total)) = self.cfg.shard {
                if shard_index(&key, total) != idx {
                    continue;
                }
            }
            routed = true;
            if let Some(m) = self.obs.get_mut(gi) {
                m.events_routed += 1;
            }
            self.dirty.mark(gi, &key);
            let ci = g.class as usize;
            let id = self.tables[ci].intern(&key);
            let within = g.window.within;
            let pane_idx = e.time.ticks() / g.pane;
            let starts: Vec<Ts> = g.window.instances_containing(e.time).collect();
            // A one-event chunk, its cell from the members' own selections.
            let cells = &mut self.scratch.cells;
            let chunk = match g.rt.burst_repr(tl) {
                BurstRepr::Count => Chunk::Count(1),
                BurstRepr::Cells => {
                    cells.clear();
                    cells.push(g.rt.cell_by_members(tl, e));
                    Chunk::Cells(cells)
                }
                BurstRepr::Events => Chunk::Events(std::slice::from_ref(e), &[(0, 0)]),
            };
            let (runs, slab) = self.groups[gi].partition(id);
            let mut part = Partition {
                runs,
                slab,
                group: gi,
                id,
                key: &key,
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
            for start in starts {
                let end = window_end(start.ticks(), within);
                // Late-event guard: this window instance was already
                // emitted, so the contribution is dropped.
                if end <= wm.ticks() {
                    env.stats.late_skips += 1;
                    continue;
                }
                let handle = part.run_at(start.ticks(), end, &mut env);
                (part.slab).lending(handle, |rs| rs.append(tl, pane_idx, chunk, now, &mut env));
            }
            // Every window instance was late: the key may hold no run.
            release_key(plan, &self.groups, &mut self.tables, ci, id);
        }
        if routed {
            self.stats.events_routed += 1;
        }
        self.event_counter += 1;
        if self.cfg.mem_sample_every > 0
            && self.event_counter.is_multiple_of(self.cfg.mem_sample_every)
        {
            let bytes = self.state_bytes();
            self.gauge.sample(bytes);
        }
        out
    }

    /// Expiry selection by the pre-index full scan over every live
    /// partition of every group (O(P) per call). Emission goes through
    /// the same [`finalize_finished`](Self::finalize_finished) as the
    /// indexed path, so any divergence is in *which* runs expire.
    fn emit_expired_scan(&mut self, watermark: Ts, out: &mut Vec<WindowResult>) {
        let mut finished = Vec::new();
        for (gi, g) in self.plan.groups.iter().enumerate() {
            let (within, class) = (g.window.within, g.class);
            let keys = &self.tables[class as usize];
            let GroupState { runs, slab } = &mut self.groups[gi];
            for (id, runs) in (0u32..).zip(runs.iter_mut()) {
                while let Some(&(start, _)) = runs.as_slice().first() {
                    if window_end(start, within) > watermark.ticks() {
                        break;
                    }
                    self.dirty.mark(gi, keys.key(id));
                    let handle = runs.remove(0);
                    finished.push(slab.entry(gi as u32, handle, keys));
                    if runs.is_empty() {
                        self.emptied.push((class, id));
                    }
                }
            }
        }
        self.finalize_finished(&mut finished, out);
        self.release_emptied();
    }

    /// [`process`](Self::process) with expiry decided by the full scan:
    /// the scan drains everything the event's watermark closes first, so
    /// the index finds only tombstones and every result comes from the
    /// scan.
    pub(crate) fn process_scan_expiry(&mut self, e: &Event) -> Vec<WindowResult> {
        let wm = self.watermark.map_or(e.time, |w| w.max(e.time));
        let mut out = Vec::new();
        self.emit_expired_scan(wm, &mut out);
        out.extend(self.process(e));
        out
    }

    /// [`flush`](Self::flush) with expiry decided by the full scan.
    pub(crate) fn flush_scan_expiry(&mut self) -> Vec<WindowResult> {
        let mut out = Vec::new();
        self.emit_expired_scan(Ts(u64::MAX), &mut out);
        out.extend(self.flush());
        out
    }
}

impl Run {
    /// The per-event loop over the raw events — what
    /// [`replay`](Self::replay) of their cells or their count must equal.
    pub(crate) fn process_burst_slow(
        &mut self,
        tl: usize,
        events: &[Event],
        shared_members: &QSet,
    ) {
        self.replay(tl, Burst::Events(events), *shared_members)
    }
}

impl GroupRuntime {
    /// The cell of `e` (local type `tl`) by definition: every member's
    /// selections evaluated on their own, the value read off the
    /// skeleton — what [`cell`](Self::cell) of the event's row must equal.
    pub(crate) fn cell_by_members(&self, tl: usize, e: &Event) -> Cell {
        let mut mask = !QSet::new();
        for q in self.sel_members[tl].iter() {
            if !self.selects(tl, q, e) {
                mask.remove(q);
            }
        }
        let val = match &self.skeleton {
            AggSkeleton::MinMax { ty, attr, is_min } => {
                let v = if e.ty == *ty { e.attr(*attr) } else { None };
                let id = if *is_min {
                    MmVal::MIN_IDENTITY
                } else {
                    MmVal::MAX_IDENTITY
                };
                v.map_or(id.0, |v| v.as_f64()).to_bits()
            }
            _ => self.weight(e).0 .0,
        };
        Cell { mask, val }
    }
}
