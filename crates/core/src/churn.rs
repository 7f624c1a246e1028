//! Runtime query churn: registering and retiring queries on a live
//! engine at a watermark barrier (contract on
//! [`HamletEngine::remove_query`]). An op is checked against the query
//! list by one function (`next_queries`), and the post-churn workload
//! is compiled from scratch by the same `HamletEngine::compile` a fresh
//! engine uses — by the engine itself, or once for all shards by a
//! [`crate::ShardRouter`], whose plan every shard engine installs.
//! Share groups whose member set is unchanged carry their state over,
//! the rest drain; installing cannot fail.

use crate::batch::BatchScratch;
use crate::executor::{CompiledWorkload, EngineError, GroupState, HamletEngine, WindowResult};
use crate::keyhash::{KeyMap, KeyTable};
use crate::optimizer;
use hamlet_obs::GroupMetrics;
use hamlet_query::{Query, QueryId};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

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

/// The query list `op` leads to from `queries`: the id check every
/// churn op passes once, whether an engine or a shard router applies it.
pub(crate) fn next_queries(queries: &[Query], op: &ChurnOp) -> Result<Vec<Query>, ChurnError> {
    let known = |id| queries.iter().any(|p| p.id == id);
    match op {
        ChurnOp::Add(q) if known(q.id) => Err(ChurnError::Duplicate(q.id)),
        ChurnOp::Add(q) => Ok(queries.iter().chain([q]).cloned().collect()),
        ChurnOp::Remove(id) if known(*id) => {
            Ok(queries.iter().filter(|p| p.id != *id).cloned().collect())
        }
        ChurnOp::Remove(id) => Err(ChurnError::Unknown(*id)),
    }
}

/// Post-churn placement of one share group: the Def. 12 benefit model
/// run on a nominal burst with no member diverging (§4.1) — the
/// *a-priori* shared-vs-solo call for the new workload, priced from the
/// compiled group and the policy alone, so equal on every shard and for
/// a carried group what a fresh build over the same queries reports.
/// Runtime per-burst decisions re-price every burst from its exact
/// divergence; this records what the optimizer expects at the barrier.
#[derive(Clone, Debug)]
pub struct GroupPlacement {
    /// Member (original) query ids.
    pub members: Vec<QueryId>,
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
    /// Share groups whose member set was unchanged: their live runs and
    /// partitions carried over (their placement is re-priced like every
    /// other group's, from the compiled group).
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
    /// every other group keeps its in-flight runs — a *full* group
    /// (`QSet::CAPACITY` members) among them: the query it would have
    /// joined opens the next group instead.
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
        self.apply(ChurnOp::Add(q))
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
        self.apply(ChurnOp::Remove(id))
    }

    /// Applies one churn op: [`add_query`](Self::add_query) or
    /// [`remove_query`](Self::remove_query), whichever `op` names. The
    /// post-churn workload is compiled before any engine state is
    /// touched.
    pub fn apply(&mut self, op: ChurnOp) -> Result<ChurnReport, ChurnError> {
        let next = next_queries(&self.plan.queries, &op)?;
        let plan = Self::compile(&self.plan.reg, next).map_err(ChurnError::Engine)?;
        Ok(self.install(Arc::new(plan)))
    }

    /// Switches the engine to a compiled post-churn workload — its own,
    /// or the plan a shard router compiled once for every shard —
    /// carrying over the state of every share group whose membership is
    /// unchanged and draining the rest.
    pub(crate) fn install(&mut self, plan: Arc<CompiledWorkload>) -> ChurnReport {
        // Match old groups to new ones by member signature. Each
        // (query, half) lives in exactly one group on each side, so the
        // match is a partial bijection; member *order* must also agree
        // because run state is indexed by member position.
        let mut old_of_new: Vec<Option<usize>> = vec![None; plan.groups.len()];
        let mut carried_old: Vec<bool> = vec![false; self.groups.len()];
        for (oi, og) in self.plan.groups.iter().enumerate() {
            if let Some(ni) = plan.groups.iter().position(|ng| ng.sig == og.sig) {
                old_of_new[ni] = Some(oi);
                carried_old[oi] = true;
            }
        }

        // Drain the in-flight windows of every group that does not carry
        // over, through the normal finalization path (the old plan is
        // still installed, so general-query halves pair correctly).
        let mut finished = Vec::new();
        for (oi, carried) in carried_old.iter().enumerate() {
            if *carried {
                continue;
            }
            self.groups[oi].runs.clear();
            let slab = &self.groups[oi].slab;
            let keys = &self.tables[self.plan.groups[oi].class as usize];
            finished.extend(slab.live().map(|h| slab.entry(oi as u32, h, keys)));
        }
        let mut drained = Vec::new();
        self.finalize_finished(&mut finished, &mut drained);

        // Settle pending general-query halves. A closed window's halves
        // settle when it expires, so every pending entry's window is still
        // open: a half a churn drained (this one or an earlier one), whose
        // partner may still run in a carried group. Entries whose original
        // query survives are re-keyed to the new combiner table and keep
        // waiting; entries of removed queries emit now with the missing
        // half = 0, as their window's close would have.
        let new_ci_of_orig: HashMap<u32, usize> = plan
            .combiners
            .iter()
            .enumerate()
            .map(|(i, c)| (c.orig.0, i))
            .collect();
        let mut surviving_pending = KeyMap::with_hasher(self.keys);
        let mut orphaned = Vec::new();
        // hamlet-lint: allow(unordered-iter) -- re-keys into a map; settle_orphans sorts the orphaned halves canonically before emitting
        for ((ci, key, start), (id, count)) in self.pending.drain() {
            let oc = &self.plan.combiners[ci];
            match new_ci_of_orig.get(&oc.orig.0) {
                Some(&nci) => {
                    let nc = &plan.combiners[nci];
                    let nid = if id == oc.left { nc.left } else { nc.right };
                    surviving_pending.insert((nci, key, start), (nid, count));
                }
                None => orphaned.push(((ci, key, start), (id, count))),
            }
        }
        // The old groups are still installed here, so each orphaned half
        // is attributed to the (old) group that held it.
        self.settle_orphans(orphaned, &mut drained);

        // Carry over: a carried group's live runs move to its new index,
        // and each run re-points at the new plan's runtime (identical —
        // deterministic from the member set); every other group starts
        // empty. The new plan numbers its key classes afresh, so every
        // carried key is re-interned in its new class's table and its run
        // list and slots follow it to its new id.
        let mut before: Vec<Option<GroupState>> = std::mem::take(&mut self.groups)
            .into_iter()
            .map(Some)
            .collect();
        let mut tables: Vec<KeyTable> = (plan.classes.iter())
            .map(|_| KeyTable::new(self.keys))
            .collect();
        for (g, oi) in plan.groups.iter().zip(&old_of_new) {
            let carried = oi.and_then(|oi| Some((oi, before[oi].take()?)));
            let Some((oi, mut s)) = carried else {
                self.groups.push(GroupState::default());
                continue;
            };
            // Recycled runs of the old runtime stay behind with it.
            s.slab.drop_free(&mut s.runs);
            let (old, new) = (
                &self.tables[self.plan.groups[oi].class as usize],
                &mut tables[g.class as usize],
            );
            for (old_id, runs) in (0u32..).zip(std::mem::take(&mut s.runs)) {
                if runs.is_empty() {
                    continue;
                }
                let id = new.intern(old.key(old_id));
                for &(_, handle) in runs.as_slice() {
                    s.slab.slots_mut()[handle as usize].id = id;
                }
                *s.partition(id).0 = runs;
            }
            for slot in s.slab.slots_mut() {
                slot.rs.run.retarget(g.rt.clone());
            }
            self.groups.push(s);
        }
        self.tables = tables;
        let groups_carried = old_of_new.iter().flatten().count();
        let groups_rebuilt = old_of_new.len() - groups_carried;

        // Commit: the new plan, the expiration index rebuilt (group
        // indices changed); the stream-global state (watermark, counters,
        // metrics) keeps running.
        self.scratch = BatchScratch::new(&plan);
        self.plan = plan;
        self.pending = surviving_pending;
        self.epoch += 1;
        // Group indices just changed meaning; the dirty log keyed by the
        // old layout is useless. The next delta cut is promoted to a
        // base, which re-snapshots everything under the new layout.
        self.dirty.void();
        self.rebuild_expiry();

        // Rebuild the observability registry for the new group layout:
        // carried groups keep their counters (moved via the signature
        // match), rebuilt groups start at zero (their history was
        // drained above), and every group takes the placement the
        // benefit model just re-priced.
        let old_obs = std::mem::take(&mut self.obs);
        let placements = self.place(&old_of_new, old_obs);
        ChurnReport {
            drained,
            groups_carried,
            groups_rebuilt,
            placements,
            epoch: self.epoch,
        }
    }

    /// Every group's placement under the installed plan, priced a priori
    /// from the compiled group ([`optimizer::placement`]) and so the same
    /// on every shard; `old_of_new[gi]` is the group it carried
    /// its state over from, if any. With the observability registry on,
    /// it is rebuilt here — the one place a placement reaches the metrics:
    /// group `gi` keeps its old group's counters in `old_obs` (zero for a
    /// fresh group) and takes its placement.
    pub(crate) fn place(
        &mut self,
        old_of_new: &[Option<usize>],
        mut old_obs: Vec<GroupMetrics>,
    ) -> Vec<GroupPlacement> {
        let placements: Vec<GroupPlacement> = (self.plan.groups.iter())
            .map(|g| {
                let (benefit, shared) = optimizer::placement(self.cfg.policy, &g.rt);
                GroupPlacement {
                    members: g.rt.queries.iter().map(|q| q.id).collect(),
                    benefit,
                    shared,
                }
            })
            .collect();
        if self.cfg.obs {
            self.obs = (self.plan.groups.iter().zip(&placements).zip(old_of_new))
                .enumerate()
                .map(|(gi, ((g, p), old))| {
                    let carried = old.and_then(|oi| old_obs.get_mut(oi)).map(std::mem::take);
                    let mut m = carried.unwrap_or_default();
                    (m.group, m.sig) = (gi as u32, g.sig.clone());
                    (m.shared, m.benefit) = (p.shared, p.benefit);
                    m
                })
                .collect();
        }
        placements
    }
}
