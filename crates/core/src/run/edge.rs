//! The per-event path of [`Run::replay`]: what a burst of a type with an
//! **edge predicate** runs through, and the oracle the cell replay is
//! tested against.
//!
//! An edge predicate relates an event to each of its same-type
//! predecessors, so nothing about a burst of such a type is constant
//! over the burst: the events themselves are buffered
//! ([`BurstRepr::Events`](crate::burst::BurstRepr)), every processed one
//! is kept with its per-member contributions ([`StoredEvent`]), and each
//! new event scans them pairwise. The loop also takes any other type's
//! events — without an edge predicate it stores nothing and its unfolded
//! expressions grow by a term per diverging event — which is how
//! `Run::process_burst_slow` (`reference.rs`) checks `replay_cells` and
//! the closed form.

use super::{GroupRuntime, Run};
use crate::agg::{MmVal, NodeVal};
use crate::bitset::QSet;
use crate::checkpoint::{codec_struct, CheckpointError};
use crate::expr::LinearExpr;
use crate::workload::AggSkeleton;
use hamlet_types::Event;

/// Stored per-event data for types with edge predicates (pairwise scans
/// need the raw events and per-member evaluable contributions).
pub(super) struct StoredEvent {
    event: Event,
    /// Members covered by the symbolic contribution.
    shared: Option<(QSet, LinearExpr)>,
    /// Per-member numeric contributions (solo path).
    solo: Vec<(u16, NodeVal)>,
    /// Per-member lattice contributions (min/max path).
    mm: Vec<(u16, MmVal)>,
}

codec_struct!(StoredEvent {
    event,
    shared,
    solo,
    mm
});

impl StoredEvent {
    /// Checks a decoded event's symbolic contribution against a run of
    /// `num_snaps` snapshots.
    pub(super) fn check_snaps(&self, num_snaps: usize) -> Result<(), CheckpointError> {
        (self.shared.iter()).try_for_each(|(_, expr)| expr.check_snaps(num_snaps))
    }

    /// Byte-accounted size (§6.1 memory metric).
    pub(super) fn mem_bytes(&self) -> usize {
        self.event.mem_bytes()
            + self.shared.as_ref().map_or(0, |(_, ex)| ex.mem_bytes())
            + self.solo.len() * (2 + std::mem::size_of::<NodeVal>())
            + self.mm.len() * (2 + std::mem::size_of::<MmVal>())
    }
}

impl GroupRuntime {
    /// True iff member `q`'s edge predicates accept the pair `prev → cur`.
    #[inline]
    fn edge_holds(&self, tl: usize, q: usize, prev: &Event, cur: &Event) -> bool {
        self.edge[tl][q].iter().all(|p| p.matches(prev, cur))
    }
}

impl Run {
    /// Lattice predecessor fold for member `q` at type `tl`.
    fn mm_pred(&self, tl: usize, q: usize) -> (MmVal, bool) {
        let tpl = &self.rt.template;
        let mut mm = self.rt.mm_identity;
        let mut alive = false;
        for &p in &tpl.pt[tl][q] {
            let Some(c) = self.cell(p, q) else { continue };
            mm.fold(c.mm.0, self.rt.is_min);
            alive |= c.alive;
            if p == tl && self.rows[self.at(p)].solos.contains(q) {
                mm.fold(c.solo_mm.0, self.rt.is_min);
                alive |= c.solo_alive;
            }
        }
        (mm, alive)
    }

    /// Pairwise scan over stored same-type events for an edge-predicate
    /// member: Σ of contributions of events whose edge to `e` holds.
    fn scan_pred(&self, tl: usize, q: usize, e: &Event) -> NodeVal {
        let mut v = NodeVal::ZERO;
        for se in &self.stored[tl] {
            if !self.rt.edge_holds(tl, q, &se.event, e) {
                continue;
            }
            if let Some((members, expr)) = &se.shared {
                if members.contains(q) {
                    v.add(self.snaps.eval(expr, q));
                    continue;
                }
            }
            if let Some((_, sv)) = se.solo.iter().find(|(m, _)| *m as usize == q) {
                v.add(*sv);
            }
        }
        v
    }

    /// Lattice variant of [`Run::scan_pred`].
    fn scan_mm(&self, tl: usize, q: usize, e: &Event) -> (MmVal, bool) {
        let mut mm = self.rt.mm_identity;
        let mut alive = false;
        for se in &self.stored[tl] {
            if !self.rt.edge_holds(tl, q, &se.event, e) {
                continue;
            }
            if let Some((_, sv)) = se.mm.iter().find(|(m, _)| *m as usize == q) {
                mm.fold(sv.0, self.rt.is_min);
                alive = true;
            }
        }
        (mm, alive)
    }

    /// Processes a single event within its (already transitioned) burst;
    /// `scratch` is the caller's expression buffer for the uniform shared
    /// path.
    pub(super) fn process_event(
        &mut self,
        rt: &GroupRuntime,
        tl: usize,
        e: &Event,
        share: QSet,
        scratch: &mut LinearExpr,
    ) {
        let tpl = &rt.template;
        let (w, is_target) = rt.weight(e);
        let store_needed = !rt.edge_members[tl].is_empty();
        let starts = self.starts(tpl, tl);
        let mut stored_shared: Option<(QSet, LinearExpr)> = None;
        let mut stored_solo: Vec<(u16, NodeVal)> = Vec::new();
        let mut stored_mm: Vec<(u16, MmVal)> = Vec::new();

        // ---- Shared path -------------------------------------------------
        if !share.is_empty() {
            let accepting: QSet = share.iter().filter(|&q| rt.selects(tl, q, e)).collect();
            let any_edge = share.iter().any(|q| !rt.edge[tl][q].is_empty());
            // hamlet-lint: allow(panic-hygiene) -- a non-empty share set implies the shared graphlet was created when the burst opened
            let sh = self.shared(tl).expect("shared graphlet");
            let expr = if !any_edge && accepting == share {
                // Eq. 2 symbolically: preds = x (+ unit) + in-graphlet
                // prefix; then the per-event propagation map. Built in the
                // burst's buffer: `clone_from` keeps the term vector's
                // capacity from one event to the next.
                let mut pred = std::mem::take(scratch);
                pred.clone_from(&sh.sum_exprs);
                pred.add_snapshot(sh.x);
                if let Some(u) = sh.unit {
                    pred.add_snapshot(u);
                }
                pred.propagate_mut(w, is_target);
                pred
            } else {
                // Event-level snapshot (Def. 9): per-member numeric values.
                let mut vals = vec![NodeVal::ZERO; rt.k()];
                for q in accepting.iter() {
                    let mut pred = self.snaps.value(sh.x, q);
                    if !rt.edge[tl][q].is_empty() {
                        pred.add(self.scan_pred(tl, q, e));
                    } else {
                        pred.add(self.snaps.eval(&sh.sum_exprs, q));
                    }
                    vals[q] = NodeVal::propagate(pred, starts.contains(q), w, is_target);
                }
                let z = self.snaps.create(vals);
                self.stats.event_snapshots += 1;
                LinearExpr::snapshot(z)
            };
            let r = self.at(tl);
            // hamlet-lint: allow(panic-hygiene) -- a non-empty share set implies the shared graphlet was created when the burst opened
            let sh = self.rows[r].shared.as_mut().expect("shared graphlet");
            sh.sum_exprs.add_assign(&expr);
            if store_needed {
                stored_shared = Some((sh.members, expr));
            } else {
                // Hand the buffer back for the next event.
                *scratch = expr;
            }
        }

        // ---- Solo path ----------------------------------------------------
        for q in (tpl.involved[tl] & !share).iter() {
            self.open_solo(tl, q);
            if !rt.selects(tl, q, e) {
                continue;
            }
            let has_edge = !rt.edge[tl][q].is_empty();
            let mut pred = self.external_pred(tl, q);
            if has_edge {
                pred.add(self.scan_pred(tl, q, e));
            } else if tpl.self_loop[tl].contains(q) {
                pred.add(self.cells[self.at(tl) * rt.k() + q].solo);
            }
            let start = starts.contains(q);
            let val = NodeVal::propagate(pred, start, w, is_target);

            // Lattice propagation for MIN/MAX members.
            let mut mmv = rt.mm_identity;
            let mut alive_out = false;
            if let AggSkeleton::MinMax { ty, attr, .. } = &rt.skeleton {
                let (mut mm, mut alive) = if has_edge {
                    self.scan_mm(tl, q, e)
                } else {
                    self.mm_pred(tl, q)
                };
                alive |= start;
                if alive {
                    if e.ty == *ty {
                        if let Some(v) = e.attr(*attr) {
                            mm.fold(v.as_f64(), rt.is_min);
                        }
                    }
                    mmv = mm;
                    alive_out = true;
                }
            }

            let at = self.at(tl) * rt.k() + q;
            let solo = &mut self.cells[at];
            solo.solo.add(val);
            solo.solo_mm.fold(mmv.0, rt.is_min);
            solo.solo_alive |= alive_out;
            if store_needed {
                stored_solo.push((q as u16, val));
                if alive_out {
                    stored_mm.push((q as u16, mmv));
                }
            }
        }

        if store_needed {
            self.stored[tl].push(StoredEvent {
                event: e.clone(),
                shared: stored_shared,
                solo: stored_solo,
                mm: stored_mm,
            });
        }
    }
}
