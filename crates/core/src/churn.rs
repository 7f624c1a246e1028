//! Runtime query churn: registering and retiring queries on a live
//! engine at a watermark barrier (contract on
//! [`HamletEngine::remove_query`]). The post-churn workload is compiled
//! from scratch by the same `HamletEngine::compile` a fresh engine
//! uses; share groups whose member set is unchanged carry their state
//! over, the rest drain.

use crate::batch::BatchScratch;
use crate::executor::{Combiner, EngineError, GroupExec, HamletEngine, WindowResult};
use crate::optimizer::decide;
use crate::run::Run;
use hamlet_obs::GroupMetrics;
use hamlet_query::{Query, QueryId};
use std::collections::HashMap;
use std::fmt;

/// One workload-churn operation: register or retire a query on a live
/// engine (see [`HamletEngine::add_query`] /
/// [`HamletEngine::remove_query`]).
#[derive(Clone, Debug)]
pub enum ChurnOp {
    /// Register a new query. Its id must be unused.
    Add(Query),
    /// Retire the query with this id.
    Remove(QueryId),
}

/// Errors from runtime query churn. The engine is never left
/// half-churned: on any error the previous workload keeps running
/// untouched.
#[derive(Debug)]
pub enum ChurnError {
    /// `remove_query` named an id that is not registered (including a
    /// double remove).
    Unknown(QueryId),
    /// `add_query` re-used an id that is still registered.
    Duplicate(QueryId),
    /// The post-churn workload failed to compile (same errors as
    /// [`HamletEngine::new`]).
    Engine(EngineError),
}

impl fmt::Display for ChurnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChurnError::Unknown(q) => write!(f, "no query with id {q:?} is registered"),
            ChurnError::Duplicate(q) => write!(f, "query id {q:?} is already registered"),
            ChurnError::Engine(e) => write!(f, "post-churn workload: {e}"),
        }
    }
}

impl std::error::Error for ChurnError {}

/// Post-churn placement of one share group, with the Def. 12 benefit
/// model re-run against the group's current stream statistics (§4.1) —
/// the *a-priori* shared-vs-solo call for the new workload. Runtime
/// per-burst decisions still re-price continuously; this records what
/// the optimizer thinks at the churn barrier.
#[derive(Clone, Debug)]
pub struct GroupPlacement {
    /// Member (original) query ids.
    pub members: Vec<QueryId>,
    /// Whether the group carried live state over from before the churn
    /// (an untouched group) or started fresh (touched/rebuilt).
    pub carried_over: bool,
    /// Def. 12 benefit estimate for sharing this group's sharable burst
    /// processing (`NonShared − Shared`; positive favors sharing).
    /// Singleton groups have nothing to share and report 0.
    pub benefit: f64,
    /// The placement decision implied by `benefit` and the group size:
    /// `true` = execute shared (HAMLET graphlets), `false` = solo
    /// (GRETA-style per-query processing).
    pub shared: bool,
}

/// What a successful [`HamletEngine::add_query`] /
/// [`HamletEngine::remove_query`] hands back.
#[derive(Debug)]
pub struct ChurnReport {
    /// Results of in-flight windows that belonged to *touched* share
    /// groups, drained at the churn barrier in the canonical
    /// `(window_start, group, key)` order. Untouched groups keep their
    /// in-flight state and are not represented here.
    pub drained: Vec<WindowResult>,
    /// Share groups whose member set was unchanged: their live runs,
    /// partitions, and learned divergence statistics carried over.
    pub groups_carried: usize,
    /// Share groups that were created or restructured by the churn and
    /// start empty (their prior in-flight windows are in `drained`).
    pub groups_rebuilt: usize,
    /// Per-group placement after re-running the benefit model.
    pub placements: Vec<GroupPlacement>,
    /// The engine's workload epoch after the churn (monotone; stamped
    /// into every subsequent checkpoint).
    pub epoch: u64,
}

impl HamletEngine {
    /// Registers a query on the live engine (see the churn contract on
    /// [`remove_query`](Self::remove_query)).
    ///
    /// Only the share groups the new query restructures are rebuilt;
    /// every other group keeps its in-flight runs and learned statistics
    /// — a *full* group (`QSet::CAPACITY` members) among them: the query
    /// it would have joined opens the next group instead.
    /// The Def. 12 benefit model is re-run for the post-churn workload
    /// ([`ChurnReport::placements`]). Fails with
    /// [`ChurnError::Duplicate`] if the id is already registered, or
    /// [`ChurnError::Engine`] if the resulting workload does not compile;
    /// on any error the engine is untouched.
    ///
    /// ```
    /// use hamlet_core::{EngineConfig, HamletEngine};
    /// use hamlet_query::{parse_query, QueryId};
    /// use hamlet_types::{EventBuilder, TypeRegistry};
    /// use std::sync::Arc;
    ///
    /// let mut reg = TypeRegistry::new();
    /// let a = reg.register("A", &[]);
    /// let b = reg.register("B", &[]);
    /// let reg = Arc::new(reg);
    /// let q1 = parse_query(&reg, 1, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 10").unwrap();
    /// let q2 = parse_query(&reg, 2, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 20").unwrap();
    /// let mut eng = HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
    ///
    /// eng.process(&EventBuilder::new(&reg, a, 0).build());
    /// let report = eng.add_query(q2).unwrap(); // churn barrier
    /// assert_eq!(report.epoch, 1);
    /// assert_eq!(eng.queries().len(), 2);
    /// let report = eng.remove_query(QueryId(2)).unwrap();
    /// assert_eq!(report.epoch, 2);
    /// ```
    pub fn add_query(&mut self, q: Query) -> Result<ChurnReport, ChurnError> {
        if self.queries.iter().any(|p| p.id == q.id) {
            return Err(ChurnError::Duplicate(q.id));
        }
        let mut wanted = self.queries.clone();
        wanted.push(q);
        self.apply_churn(wanted)
    }

    /// Retires a query from the live engine.
    ///
    /// # Churn contract
    ///
    /// Churn applies at a *watermark barrier*: the stream between two
    /// `process` calls. Share groups whose member set is unchanged carry
    /// all in-flight state over — their output is byte-identical to never
    /// having churned. Groups the churn touches (created, dissolved, or
    /// re-clustered) drain at the barrier: their in-flight windows emit
    /// immediately with the data seen so far ([`ChurnReport::drained`],
    /// canonical `(window_start, group, key)` order), and — for queries
    /// that remain registered — the window re-opens for post-barrier
    /// events, so nothing is silently dropped. A removed query's windows
    /// thus appear exactly once (the drain); a surviving re-grouped
    /// query's mid-flight windows appear as a drained prefix plus a
    /// regular suffix emission.
    ///
    /// Fails with [`ChurnError::Unknown`] on an unregistered id (double
    /// removes included); the engine is untouched on error.
    pub fn remove_query(&mut self, id: QueryId) -> Result<ChurnReport, ChurnError> {
        if !self.queries.iter().any(|p| p.id == id) {
            return Err(ChurnError::Unknown(id));
        }
        let wanted: Vec<Query> = self
            .queries
            .iter()
            .filter(|p| p.id != id)
            .cloned()
            .collect();
        self.apply_churn(wanted)
    }

    /// Applies one churn op: [`add_query`](Self::add_query) or
    /// [`remove_query`](Self::remove_query), whichever `op` names — what
    /// every runtime that ships ops to shard engines calls.
    pub fn apply(&mut self, op: ChurnOp) -> Result<ChurnReport, ChurnError> {
        match op {
            ChurnOp::Add(q) => self.add_query(q),
            ChurnOp::Remove(id) => self.remove_query(id),
        }
    }

    /// Per-group member signature used to match groups across a churn:
    /// `(original query id, half tag)` per member, in member order. Half
    /// ids of decomposed general queries are renumbered whenever the
    /// query set changes (`compile` numbers them from `max(id)+1`), so
    /// identity must go through the original id plus which half it is
    /// (0 = the query itself, 1 = left half, 2 = right half).
    pub(crate) fn group_sigs(
        groups: &[GroupExec],
        sub_of: &HashMap<QueryId, usize>,
        combiners: &[Combiner],
    ) -> Vec<Vec<(u32, u8)>> {
        groups
            .iter()
            .map(|g| {
                g.rt.queries
                    .iter()
                    .map(|q| match sub_of.get(&q.id) {
                        None => (q.id.0, 0u8),
                        Some(&ci) => {
                            let c = &combiners[ci];
                            if q.id == c.left {
                                (c.orig.0, 1)
                            } else {
                                (c.orig.0, 2)
                            }
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Rebuilds the engine around `final_queries`, carrying over every
    /// share group whose membership is unchanged and draining the rest.
    /// Strong exception safety: the workload is compiled before any
    /// engine state is touched.
    fn apply_churn(&mut self, final_queries: Vec<Query>) -> Result<ChurnReport, ChurnError> {
        let mut compiled =
            Self::compile(&self.reg, &final_queries, &self.cfg).map_err(ChurnError::Engine)?;

        // Match old groups to new ones by member signature. Each
        // (query, half) lives in exactly one group on each side, so the
        // match is a partial bijection; member *order* must also agree
        // because run state is indexed by member position.
        let old_sigs = Self::group_sigs(&self.groups, &self.sub_of, &self.combiners);
        let new_sigs = Self::group_sigs(&compiled.groups, &compiled.sub_of, &compiled.combiners);
        let mut old_of_new: Vec<Option<usize>> = vec![None; compiled.groups.len()];
        let mut carried_old: Vec<bool> = vec![false; self.groups.len()];
        for (oi, os) in old_sigs.iter().enumerate() {
            if let Some(ni) = new_sigs.iter().position(|ns| ns == os) {
                old_of_new[ni] = Some(oi);
                carried_old[oi] = true;
            }
        }

        // Drain the in-flight windows of every group that does not carry
        // over, through the normal finalization path (the old groups,
        // estimators, and combiners are still installed, so general-query
        // halves pair correctly).
        let mut finished = Vec::new();
        for (oi, carried) in carried_old.iter().enumerate() {
            if *carried {
                continue;
            }
            self.groups[oi].partitions.clear();
            finished.extend(self.groups[oi].slab.live().map(|h| (oi as u32, h)));
        }
        let mut drained = Vec::new();
        self.finalize_finished(&mut finished, &mut drained);

        // Settle pending general-query halves. A pending entry's partner
        // run can no longer exist (both halves of a window expire at the
        // same watermark), so entries whose original query survives are
        // re-keyed to the new combiner table, and entries of removed
        // queries emit now with the missing half = 0, exactly as `flush`
        // would have.
        let new_ci_of_orig: HashMap<u32, usize> = compiled
            .combiners
            .iter()
            .enumerate()
            .map(|(i, c)| (c.orig.0, i))
            .collect();
        let mut surviving_pending = HashMap::new();
        let mut orphaned = Vec::new();
        // hamlet-lint: allow(unordered-iter) -- re-keys into a map; settle_orphans sorts the orphaned halves canonically before emitting
        for ((ci, key, start), (id, count)) in self.pending.drain() {
            let oc = &self.combiners[ci];
            match new_ci_of_orig.get(&oc.orig.0) {
                Some(&nci) => {
                    let nc = &compiled.combiners[nci];
                    let nid = if id == oc.left { nc.left } else { nc.right };
                    surviving_pending.insert((nci, key, start), (nid, count));
                }
                None => orphaned.push(((ci, key, start), (id, count))),
            }
        }
        // The old groups are still installed here, so each orphaned half
        // is attributed to the (old) group that held it.
        self.settle_orphans(orphaned, &mut drained);

        // Migrate carried groups: the group is recompiled (identical
        // runtime — deterministic from the member set), the live runs and
        // learned statistics move over, and each run re-points at the
        // recompiled runtime.
        let mut groups_carried = 0;
        for (ni, oi) in old_of_new.iter().enumerate() {
            let Some(oi) = *oi else { continue };
            groups_carried += 1;
            let ng = &mut compiled.groups[ni];
            let og = &mut self.groups[oi];
            ng.partitions = std::mem::take(&mut og.partitions);
            ng.slab = std::mem::take(&mut og.slab);
            std::mem::swap(&mut ng.estimator, &mut og.estimator);
            // Recycled runs of the old runtime stay behind with it.
            ng.slab.drop_free(&mut ng.partitions);
            for slot in ng.slab.slots_mut() {
                slot.rs.run.retarget(ng.rt.clone());
            }
        }

        // Commit: swap in the compiled workload, rebuild the expiration
        // index (group indices changed), keep the stream-global state
        // (watermark, counters, metrics) running.
        let groups_rebuilt = compiled.groups.len() - groups_carried;
        self.groups = compiled.groups;
        self.combiners = compiled.combiners;
        self.sub_of = compiled.sub_of;
        self.route = compiled.route;
        self.key_reps = compiled.key_reps;
        self.scratch = BatchScratch::new(compiled.num_classes, compiled.num_wnd_classes);
        self.pending = surviving_pending;
        self.queries = final_queries;
        self.epoch += 1;
        // Group indices just changed meaning; the dirty log keyed by the
        // old layout is useless. The next delta cut is promoted to a
        // base, which re-snapshots everything under the new layout.
        self.dirty.void();
        self.rebuild_expiry();

        let placements: Vec<GroupPlacement> = self
            .groups
            .iter()
            .enumerate()
            .map(|(ni, g)| self.placement_for(g, old_of_new[ni].is_some()))
            .collect();

        // Rebuild the observability registry for the new group layout:
        // carried groups keep their counters (moved via the signature
        // match), rebuilt groups start at zero (their history was
        // drained above), and every group takes the placement the
        // benefit model just re-priced.
        if self.cfg.obs {
            let old_obs = std::mem::take(&mut self.obs);
            self.obs = new_sigs
                .iter()
                .enumerate()
                .map(|(ni, sig)| {
                    let mut m = match old_of_new[ni].and_then(|oi| old_obs.get(oi)) {
                        Some(old) => old.clone(),
                        None => GroupMetrics::default(),
                    };
                    m.group = ni as u32;
                    m.sig = sig.clone();
                    m.shared = placements[ni].shared;
                    m.benefit = placements[ni].benefit;
                    m
                })
                .collect();
        }
        Ok(ChurnReport {
            drained,
            groups_carried,
            groups_rebuilt,
            placements,
            epoch: self.epoch,
        })
    }

    /// Re-runs the Def. 12 benefit model for one group at the churn
    /// barrier: for each type of the group's template, the a-priori
    /// sharing decision for a nominal burst, with `sc` predicted from the
    /// group's divergence statistics (learned, for carried groups; the
    /// optimistic zero-divergence prior for fresh ones — the same bias
    /// the per-burst optimizer starts from).
    pub(crate) fn placement_for(&self, g: &GroupExec, carried_over: bool) -> GroupPlacement {
        let members: Vec<QueryId> = g.rt.queries.iter().map(|q| q.id).collect();
        if g.rt.k() < 2 {
            return GroupPlacement {
                members,
                carried_over,
                benefit: 0.0,
                shared: false,
            };
        }
        const NOMINAL_BURST: u64 = 16;
        let probe = Run::new(g.rt.clone());
        let mut total_benefit = 0.0;
        let mut shared = false;
        for tl in 0..g.rt.template.num_types() {
            let mut ctx = probe.burst_shape(tl);
            if ctx.candidates.len() < 2 {
                continue;
            }
            ctx.diverging = ctx
                .candidates
                .iter()
                .map(|&q| g.estimator.predict(tl, q, NOMINAL_BURST))
                .collect();
            // Def. 12 benefit of sharing the *whole* candidate set (can be
            // negative — the optimizer would then process solo or share a
            // subset, which is what `decide` below settles).
            let bf = NOMINAL_BURST as f64;
            let sc = 1.0
                + ctx
                    .diverging
                    .iter()
                    .zip(&ctx.has_edge)
                    .map(|(&d, &e)| d as f64 + if e { bf } else { 0.0 })
                    .sum::<f64>();
            let factors = crate::optimizer::CostFactors {
                b: bf,
                n: ctx.n as f64,
                g: (ctx.g + NOMINAL_BURST) as f64,
                sp: (ctx.sp as f64).max(1.0),
                p: ctx.p,
            };
            total_benefit += crate::optimizer::benefit(ctx.candidates.len() as f64, sc, &factors);
            let dec = decide(self.cfg.policy, &ctx, NOMINAL_BURST);
            shared |= dec.share.len() >= 2;
        }
        GroupPlacement {
            members,
            carried_over,
            benefit: total_benefit,
            shared,
        }
    }
}
