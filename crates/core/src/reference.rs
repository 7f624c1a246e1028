//! The oracles the one event path is tested against — compiled only for
//! `hamlet-core`'s own unit tests (`#[cfg(test)] mod reference` in
//! `lib.rs`), never into the library:
//!
//! * [`HamletEngine::process_reference`] — the pre-batching per-event
//!   body: every group, classified by attribute *name*
//!   ([`GroupExec::key_by_name`]), no routing tables, no segments;
//! * [`HamletEngine::process_scan_expiry`] /
//!   [`flush_scan_expiry`](HamletEngine::flush_scan_expiry) — expiry by
//!   the pre-index full scan over every live partition;
//! * [`Run::process_burst_slow`] — the raw events through the per-event
//!   replay loop (`run/edge.rs`), whatever their type buffers.
//!
//! All of them share the engine's state with the path they check, so a
//! test may interleave them with it freely.

use crate::bitset::QSet;
use crate::burst::{Burst, Chunk, FlushEnv};
use crate::executor::{shard_index, GroupExec, HamletEngine, WindowResult};
use crate::expiry::Partition;
use crate::run::Run;
use hamlet_types::time::window_end;
use hamlet_types::{AttrValue, Event, GroupKey, Ts, TypeRegistry};
use std::time::Instant;

impl GroupExec {
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
        for gi in 0..self.groups.len() {
            let Some(tl) = self.groups[gi].rt.template.local(e.ty) else {
                continue;
            };
            let key = self.groups[gi].key_by_name(&self.reg, e);
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
            let g = &mut self.groups[gi];
            let within = g.window.within;
            let pane_idx = e.time.ticks() / g.pane;
            let starts: Vec<Ts> = g.window.instances_containing(e.time).collect();
            // A one-event range through the batched path's constructor.
            let chunk = Chunk::of(
                &g.rt,
                tl,
                std::slice::from_ref(e),
                &[(0, 0)],
                &mut self.scratch.cells,
            );
            let mut part = Partition {
                runs: g.partitions.entry(key.clone()).or_default(),
                slab: &mut g.slab,
                group: gi,
                key: &key,
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
            for start in starts {
                let end = window_end(start.ticks(), within);
                // Late-event guard: this window instance was already
                // emitted, so the contribution is dropped.
                if end <= wm.ticks() {
                    env.stats.late_skips += 1;
                    late_skipped = true;
                    continue;
                }
                let rs = part.run_at(start.ticks(), end, &mut env);
                rs.append(tl, pane_idx, chunk, now, &mut env);
            }
            // A first-seen key whose every window instance was late would
            // leave an empty run map behind — drop it, it holds no state.
            if late_skipped && part.runs.is_empty() {
                g.partitions.remove(&key);
            }
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
        for gi in 0..self.groups.len() {
            let within = self.groups[gi].window.within;
            for (key, runs) in self.groups[gi].partitions.iter_mut() {
                while let Some(&(start, _)) = runs.as_slice().first() {
                    if window_end(start, within) > watermark.ticks() {
                        break;
                    }
                    self.dirty.mark(gi, key);
                    finished.push((gi as u32, runs.remove(0)));
                }
            }
            self.groups[gi]
                .partitions
                .retain(|_, runs| !runs.is_empty());
        }
        self.finalize_finished(&mut finished, out);
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
