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

use super::{GroupRuntime, Run, SoloGraphlet};
use crate::agg::{MmVal, NodeVal};
use crate::bitset::QSet;
use crate::checkpoint::{CheckpointError, Dec, Enc};
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

impl StoredEvent {
    /// Serializes the event and its contributions (checkpoint codec).
    pub(super) fn encode(&self, e: &mut Enc) {
        e.event(&self.event);
        match &self.shared {
            None => e.some(false),
            Some((members, expr)) => {
                e.some(true);
                members.encode(e);
                expr.encode(e);
            }
        }
        e.usize(self.solo.len());
        for (q, v) in &self.solo {
            e.u16(*q);
            v.encode(e);
        }
        e.usize(self.mm.len());
        for (q, v) in &self.mm {
            e.u16(*q);
            e.f64(v.0);
        }
    }

    /// Mirror of [`encode`](Self::encode) in a run of `num_snaps`
    /// snapshots.
    pub(super) fn decode(d: &mut Dec<'_>, num_snaps: usize) -> Result<Self, CheckpointError> {
        let event = d.event()?;
        let shared = if d.some()? {
            Some((QSet::decode(d)?, LinearExpr::decode(d, num_snaps)?))
        } else {
            None
        };
        let n_solo = d.seq_len()?;
        let mut solo = Vec::with_capacity(n_solo);
        for _ in 0..n_solo {
            solo.push((d.u16()?, NodeVal::decode(d)?));
        }
        let n_mm = d.seq_len()?;
        let mut mm = Vec::with_capacity(n_mm);
        for _ in 0..n_mm {
            mm.push((d.u16()?, MmVal(d.f64()?)));
        }
        Ok(StoredEvent {
            event,
            shared,
            solo,
            mm,
        })
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
        let mut mm = self.mm_identity;
        let mut alive = false;
        for &p in &tpl.pt[tl][q] {
            mm.fold(self.mm_cum[p][q].0, self.is_min);
            alive |= self.alive_cum[p][q];
            if p == tl {
                if let Some(solo) = &self.active[p].solo[q] {
                    mm.fold(solo.mm.0, self.is_min);
                    alive |= solo.alive;
                }
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
        let mut mm = self.mm_identity;
        let mut alive = false;
        for se in &self.stored[tl] {
            if !self.rt.edge_holds(tl, q, &se.event, e) {
                continue;
            }
            if let Some((_, sv)) = se.mm.iter().find(|(m, _)| *m as usize == q) {
                mm.fold(sv.0, self.is_min);
                alive = true;
            }
        }
        (mm, alive)
    }

    /// Processes a single event within its (already transitioned) burst.
    pub(super) fn process_event(&mut self, rt: &GroupRuntime, tl: usize, e: &Event, share: QSet) {
        let tpl = &rt.template;
        let (w, is_target) = rt.weight(e);
        let store_needed = rt.type_any_edge[tl];
        let starts = self.starts(tpl, tl);
        let mut stored_shared: Option<(QSet, LinearExpr)> = None;
        let mut stored_solo: Vec<(u16, NodeVal)> = Vec::new();
        let mut stored_mm: Vec<(u16, MmVal)> = Vec::new();

        // ---- Shared path -------------------------------------------------
        if !share.is_empty() {
            let accepting: QSet = share.iter().filter(|&q| rt.selects(tl, q, e)).collect();
            let any_edge = share.iter().any(|q| !rt.edge[tl][q].is_empty());
            // hamlet-lint: allow(panic-hygiene) -- a non-empty share set implies the shared graphlet was created when the burst opened
            let sh = self.active[tl].shared.as_ref().expect("shared graphlet");
            let expr = if !any_edge && accepting == share {
                // Eq. 2 symbolically: preds = x (+ unit) + in-graphlet
                // prefix; then the per-event propagation map. Built in a
                // reused buffer: `clone_from` keeps the term vector's
                // capacity, so the steady state allocates nothing.
                let mut pred = std::mem::take(&mut self.pred_scratch);
                pred.clone_from(&sh.sum_exprs);
                pred.add_snapshot(sh.x);
                if let Some(u) = sh.unit {
                    pred.add_snapshot(u);
                }
                pred.propagate_mut(w, is_target);
                pred
            } else {
                // Event-level snapshot (Def. 9): per-member numeric values.
                let mut vals = vec![NodeVal::ZERO; self.k];
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
            // hamlet-lint: allow(panic-hygiene) -- a non-empty share set implies the shared graphlet was created when the burst opened
            let sh = self.active[tl].shared.as_mut().expect("shared graphlet");
            sh.sum_exprs.add_assign(&expr);
            sh.size += 1;
            if store_needed {
                stored_shared = Some((sh.members, expr));
            } else {
                // Hand the buffer back for the next event.
                self.pred_scratch = expr;
            }
        }

        // ---- Solo path ----------------------------------------------------
        for q in (tpl.involved[tl] & !share).iter() {
            if self.active[tl].solo[q].is_none() {
                self.active[tl].solo[q] = Some(SoloGraphlet::new(self.mm_identity));
                self.stats.graphlets += 1;
            }
            if !rt.selects(tl, q, e) {
                continue;
            }
            let has_edge = !rt.edge[tl][q].is_empty();
            let mut pred = self.external_pred(tl, q);
            if has_edge {
                pred.add(self.scan_pred(tl, q, e));
            } else if tpl.self_loop[tl].contains(q) {
                if let Some(solo) = &self.active[tl].solo[q] {
                    pred.add(solo.sum);
                }
            }
            let start = starts.contains(q);
            let val = NodeVal::propagate(pred, start, w, is_target);

            // Lattice propagation for MIN/MAX members.
            let mut mmv = self.mm_identity;
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
                            mm.fold(v.as_f64(), self.is_min);
                        }
                    }
                    mmv = mm;
                    alive_out = true;
                }
            }

            // hamlet-lint: allow(panic-hygiene) -- opened just above if it was not already active
            let solo = self.active[tl].solo[q].as_mut().expect("solo graphlet");
            solo.sum.add(val);
            solo.mm.fold(mmv.0, self.is_min);
            solo.alive |= alive_out;
            solo.size += 1;
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
