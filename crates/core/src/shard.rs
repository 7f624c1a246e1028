//! The one shard router: which shard(s) own an event, and how that
//! ownership follows the workload through runtime churn.
//!
//! HAMLET partitions the stream by grouping/equivalence attributes
//! (§2.2) and every partition is evaluated independently, so a
//! `workers`-way sharded runtime needs exactly two things argued once:
//!
//! * **routing** — [`ShardRouter::route`] hands an event to every shard
//!   that owns one of its partition keys, with that shard's verdict per
//!   key class: the shard engine reads the verdict bits instead of
//!   hashing again, so the router decides which partitions a shard owns.
//!   A shard engine's `EngineConfig::shard` (the same hash) is only the
//!   fallback, for a direct `process_batch` caller and for a type's key
//!   classes past the 64th, which have no bit. The router holds the
//!   workload's compiled plan (`HamletEngine::compile`, §3.1) and reads
//!   the classifier tables the shard engines' own scan reads: per routed
//!   event one slot-resolved key build and one hash per *key class* the
//!   type is local to — usually one — whatever the number of share
//!   groups. At one worker every event passes through to shard 0;
//! * **the update step** — [`ShardRouter::apply`] is the one churn
//!   barrier: the id check and the compile of the post-churn workload,
//!   once, before any shard sees the op. Every shard engine then
//!   installs that plan, which cannot fail.
//!
//! Every shard engine holds the router's plan — one `Arc`, not a copy
//! ([`ShardRouter::engines`]) — so a workload is compiled once per change
//! and held once however many shards run it. Both the offline
//! [`crate::parallel`] executor and the online `hamlet-pipeline` ingest
//! stage drive their shards through this type.

use crate::batch::class_shards;
use crate::churn::next_queries;
use crate::executor::{
    ChurnError, ChurnOp, CompiledWorkload, EngineConfig, EngineError, HamletEngine,
};
use hamlet_query::Query;
use hamlet_types::{Event, GroupKey, TypeRegistry};
use std::sync::Arc;

/// Maps events to the shards of a `workers`-way sharded runtime and
/// holds the compiled workload those shards run (see the module docs).
#[derive(Clone)]
pub struct ShardRouter {
    /// The current workload, compiled; replaced by every
    /// [`apply`](Self::apply). Every shard engine holds this one `Arc`.
    pub(crate) plan: Arc<CompiledWorkload>,
    /// The shard engines' configuration (`shard` is set per shard).
    cfg: EngineConfig,
    workers: u32,
    /// Scratch partition key every routed event's keys are built into.
    key: GroupKey,
    /// Scratch per-shard verdicts of the event being routed; all zero
    /// between events.
    owned: Vec<u64>,
}

impl ShardRouter {
    /// Compiles the workload for a `workers`-way sharding. `workers`
    /// outside `1..=64` (the shard mask is a `u64`) is
    /// [`EngineError::Unsupported`], and so is everything
    /// [`HamletEngine::new`] rejects.
    pub fn new(
        reg: Arc<TypeRegistry>,
        queries: Vec<Query>,
        cfg: EngineConfig,
        workers: u32,
    ) -> Result<ShardRouter, EngineError> {
        if !(1..=64).contains(&workers) {
            return Err(EngineError::Unsupported(format!(
                "{workers} workers: a sharding has 1 to 64 (the shard mask is a u64)"
            )));
        }
        let plan = HamletEngine::compile(&reg, queries)?;
        Ok(ShardRouter {
            plan: Arc::new(plan),
            cfg,
            workers,
            key: GroupKey::default(),
            owned: vec![0; workers as usize],
        })
    }

    /// Number of shards.
    pub fn workers(&self) -> u32 {
        self.workers
    }

    /// One shard-owning engine per worker over the current plan (index =
    /// shard), each holding the router's `Arc` of it. At one worker the
    /// engine owns every partition.
    pub fn engines(&self) -> Vec<HamletEngine> {
        (0..self.workers)
            .map(|idx| {
                let mut cfg = self.cfg.clone();
                cfg.shard = (self.workers > 1).then_some((idx, self.workers));
                HamletEngine::from_plan(cfg, self.plan.clone())
            })
            .collect()
    }

    /// Hands `e` to every shard owning one of its partition keys, in
    /// ascending shard order: cloned for all owners but the last, which
    /// takes the event itself. Usually that is one shard (an event local
    /// to several share groups can carry several keys); an event no
    /// share group accepts is pushed nowhere. Each push carries the
    /// shard's verdict: bit p is set iff the p-th key class of `e`'s type
    /// (in `key_reps` order) hashes to that shard, so the shard engine
    /// reads the bit instead of hashing the key again; a class past the
    /// 64th has no bit and is hashed there. At one worker every event
    /// goes to shard 0 unexamined, every bit set. Keys are built into
    /// the router's one scratch key, so routing allocates nothing of its
    /// own.
    pub fn route(&mut self, e: Event, mut push: impl FnMut(usize, Event, u64)) {
        if self.workers == 1 {
            return push(0, e, u64::MAX);
        }
        let (plan, key, owned) = (&self.plan, &mut self.key, &mut self.owned);
        let mut mask = 0u64;
        let each = |p: usize, s: usize| {
            mask |= 1 << s;
            owned[s] |= 1u64.checked_shl(p as u32).unwrap_or(0);
        };
        class_shards(plan, &e, self.workers, key, each);
        while mask != 0 {
            let idx = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let bits = std::mem::take(&mut owned[idx]);
            if mask == 0 {
                return push(idx, e, bits);
            }
            push(idx, e.clone(), bits);
        }
    }

    /// The churn step: the id check (`Duplicate` / `Unknown`) of `op`
    /// against the current workload and, if it holds, the compile
    /// (`Engine`) of the post-churn plan the shards then install. Call it
    /// at the barrier — after everything routed so far has been handed to
    /// the shards, before the op is. On error nothing changed.
    pub fn apply(&mut self, op: &ChurnOp) -> Result<(), ChurnError> {
        let next = next_queries(&self.plan.queries, op)?;
        let plan = HamletEngine::compile(&self.plan.reg, next);
        self.plan = Arc::new(plan.map_err(ChurnError::Engine)?);
        Ok(())
    }

    /// Dry-runs a whole op sequence from the current workload without
    /// changing the router: the first failing op's index and error.
    pub fn validate_schedule<'a>(
        &self,
        ops: impl IntoIterator<Item = &'a ChurnOp>,
    ) -> Result<(), (usize, ChurnError)> {
        let mut sim = self.clone();
        for (i, op) in ops.into_iter().enumerate() {
            sim.apply(op).map_err(|e| (i, e))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::shard_index;
    use hamlet_query::{parse_query, AggFunc, Pattern, QueryId};
    use hamlet_types::EventBuilder;
    use proptest::prelude::*;

    /// Two share groups keyed on *different* attributes (so a `B` event
    /// carries one key per group and can have two owners), plus a type no
    /// query mentions.
    fn setup() -> (Arc<TypeRegistry>, Vec<Query>) {
        let mut reg = TypeRegistry::new();
        for ty in ["A", "B", "C", "D"] {
            reg.register(ty, &["g", "h"]);
        }
        let reg = Arc::new(reg);
        let queries = vec![
            parse_query(
                &reg,
                1,
                "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g WITHIN 20",
            )
            .unwrap(),
            parse_query(
                &reg,
                2,
                "RETURN COUNT(*) PATTERN SEQ(C, B+) GROUP BY h WITHIN 20",
            )
            .unwrap(),
        ];
        (reg, queries)
    }

    /// Extra queries churn can add (ids 3 and 4), the second over the
    /// otherwise unmentioned type `D`.
    fn extras(reg: &Arc<TypeRegistry>) -> [Query; 2] {
        [
            parse_query(
                reg,
                3,
                "RETURN COUNT(*) PATTERN SEQ(C, A+) GROUP BY h WITHIN 30",
            )
            .unwrap(),
            parse_query(
                reg,
                4,
                "RETURN COUNT(*) PATTERN SEQ(D, B+) GROUP BY g WITHIN 10",
            )
            .unwrap(),
        ]
    }

    /// MIN under negation does not compile (`EngineError::Unsupported`).
    fn uncompilable(reg: &Arc<TypeRegistry>) -> Query {
        let (a, b, c) = (
            reg.type_id("A").unwrap(),
            reg.type_id("B").unwrap(),
            reg.type_id("C").unwrap(),
        );
        let mut q = parse_query(reg, 9, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 20").unwrap();
        q.pattern = Pattern::seq(vec![
            Pattern::Type(a),
            Pattern::Not(Box::new(Pattern::Type(c))),
            Pattern::plus(Pattern::Type(b)),
        ]);
        q.agg = AggFunc::Min(b, 1);
        q
    }

    fn materialize(reg: &Arc<TypeRegistry>, shape: &[(usize, i64, i64)]) -> Vec<Event> {
        let types = ["A", "B", "C", "D"].map(|ty| reg.type_id(ty).unwrap());
        shape
            .iter()
            .enumerate()
            .map(|(t, &(ty, g, h))| {
                EventBuilder::new(reg, types[ty % 4], t as u64)
                    .attr("g", g)
                    .attr("h", h)
                    .build()
            })
            .collect()
    }

    /// The shards `route` pushes `e` to, with their verdicts, in push
    /// order; every pushed event must be `e` itself.
    fn owners(router: &mut ShardRouter, e: &Event) -> Vec<(usize, u64)> {
        let mut got = Vec::new();
        router.route(e.clone(), |idx, pushed, owned| {
            assert_eq!(&pushed, e, "a shard was handed a different event");
            got.push((idx, owned));
        });
        got
    }

    /// What `route` must push `e` to at `workers > 1`, by definition:
    /// the key classes of its type are the distinct partition-attribute
    /// lists of the groups local to it, in group order; class p's by-name
    /// key picks a shard, and every such shard, ascending, gets bit p.
    fn by_name(
        router: &ShardRouter,
        reg: &TypeRegistry,
        e: &Event,
        workers: u32,
    ) -> Vec<(usize, u64)> {
        let mut classes: Vec<&[Arc<str>]> = Vec::new();
        let mut owned = std::collections::BTreeMap::<usize, u64>::new();
        for g in (router.plan.groups.iter()).filter(|g| g.rt.template.local(e.ty).is_some()) {
            if !classes.contains(&g.partition_attrs.as_slice()) {
                let shard = shard_index(&g.key_by_name(reg, e), workers) as usize;
                *owned.entry(shard).or_default() |= 1 << classes.len();
                classes.push(&g.partition_attrs);
            }
        }
        owned.into_iter().collect()
    }

    /// The set bits of `shard_mask` over a plain (unsharded)
    /// engine, ascending — what `route` must push to.
    fn mask_bits(
        queries: &[Query],
        reg: &Arc<TypeRegistry>,
        e: &Event,
        workers: u32,
    ) -> Vec<usize> {
        let eng = HamletEngine::new(reg.clone(), queries.to_vec(), EngineConfig::default())
            .expect("reference engine builds");
        let mask = eng.shard_mask(e, workers);
        (0..64).filter(|i| mask & (1u64 << i) != 0).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `route` pushes to exactly the set bits of `shard_mask`, each
        /// owner once, ascending, with the by-name verdict; one worker is
        /// a pass-through to shard 0, every bit set, even for events no
        /// share group accepts; accepted churn ops leave the router
        /// routing like one built fresh over the post-churn workload,
        /// rejected ones leave it unchanged.
        #[test]
        fn route_follows_shard_mask_through_churn(
            shape in proptest::collection::vec((0usize..4, 0i64..12, 0i64..12), 1..60),
            ops in proptest::collection::vec(0usize..7, 0..6),
        ) {
            let (reg, queries) = setup();
            let events = materialize(&reg, &shape);
            let [q3, q4] = extras(&reg);
            let pool = [
                ChurnOp::Add(q3),
                ChurnOp::Add(q4),
                ChurnOp::Remove(QueryId(1)),
                ChurnOp::Remove(QueryId(3)),
                ChurnOp::Add(queries[1].clone()),
                ChurnOp::Remove(QueryId(77)),
                ChurnOp::Add(uncompilable(&reg)),
            ];
            for workers in [1u32, 2, 3, 4, 64] {
                let mut router =
                    ShardRouter::new(reg.clone(), queries.clone(), EngineConfig::default(), workers)
                        .unwrap();
                let check = |router: &mut ShardRouter| {
                    for e in &events {
                        let want = if workers == 1 {
                            vec![(0, u64::MAX)]
                        } else {
                            let want = by_name(router, &reg, e, workers);
                            let shards: Vec<usize> = want.iter().map(|o| o.0).collect();
                            let mask = mask_bits(&router.plan.queries, &reg, e, workers);
                            assert_eq!(shards, mask, "{workers} workers, {e:?}");
                            want
                        };
                        assert_eq!(owners(router, e), want, "{workers} workers, {e:?}");
                    }
                };
                check(&mut router);
                for op in ops.iter().map(|&i| &pool[i]) {
                    let before: Vec<QueryId> = router.plan.queries.iter().map(|q| q.id).collect();
                    let dry = router.validate_schedule([op]).map_err(|(_, e)| e);
                    let applied = router.apply(op);
                    prop_assert_eq!(dry.is_ok(), applied.is_ok(), "dry run disagrees on {:?}", op);
                    let after: Vec<QueryId> = router.plan.queries.iter().map(|q| q.id).collect();
                    match (&applied, op) {
                        (Ok(()), ChurnOp::Add(q)) => prop_assert_eq!(after.last(), Some(&q.id)),
                        (Ok(()), ChurnOp::Remove(id)) => prop_assert!(!after.contains(id)),
                        (Err(_), _) => prop_assert_eq!(&after, &before, "rejected op changed the workload"),
                    }
                    if after.is_empty() {
                        break; // nothing left to route for
                    }
                    check(&mut router);
                    let mut fresh = ShardRouter::new(
                        reg.clone(),
                        router.plan.queries.clone(),
                        EngineConfig::default(),
                        workers,
                    )
                    .unwrap();
                    for e in &events {
                        prop_assert_eq!(owners(&mut router, e), owners(&mut fresh, e));
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `shard_mask` reads compiled tables (one key per key class);
        /// by definition the mask has the bit of every group the type is
        /// local to, under the key looked up by attribute *name*. The two
        /// agree on every event — a type no group accepts and a type
        /// index past the registry included — at every worker count and
        /// through churn.
        #[test]
        fn shard_mask_matches_the_by_name_definition(
            shape in proptest::collection::vec((0usize..4, 0i64..12, 0i64..12), 1..60),
            ops in proptest::collection::vec(0usize..5, 0..6),
        ) {
            let (reg, queries) = setup();
            let mut events = materialize(&reg, &shape);
            let mut alien = events[0].clone();
            alien.ty = hamlet_types::EventTypeId(reg.len() as u16 + 7);
            events.push(alien);
            let [q3, q4] = extras(&reg);
            let pool = [
                ChurnOp::Add(q3),
                ChurnOp::Add(q4),
                ChurnOp::Remove(QueryId(1)),
                ChurnOp::Remove(QueryId(3)),
                ChurnOp::Add(queries[1].clone()),
            ];
            let mut eng =
                HamletEngine::new(reg.clone(), queries, EngineConfig::default()).unwrap();
            let check = |eng: &HamletEngine| {
                for workers in [1u32, 2, 3, 4, 64] {
                    for e in &events {
                        let want = (eng.plan.groups.iter())
                            .filter(|g| g.rt.template.local(e.ty).is_some())
                            .fold(0u64, |m, g| {
                                m | 1 << shard_index(&g.key_by_name(&reg, e), workers)
                            });
                        assert_eq!(eng.shard_mask(e, workers), want, "{workers} workers, {e:?}");
                    }
                }
            };
            check(&eng);
            for op in ops.into_iter().map(|i| pool[i].clone()) {
                // A rejected op (duplicate add, unknown remove) leaves the
                // engine as it was; either way the masks must still agree.
                let _ = eng.apply(op);
                check(&eng);
            }
        }
    }

    /// The multi-owner branch is real: some `B` event's two partition
    /// keys hash to different shards, and it reaches both, low shard
    /// first.
    #[test]
    fn an_event_with_two_keys_reaches_both_owners() {
        let (reg, queries) = setup();
        let mut router =
            ShardRouter::new(reg.clone(), queries, EngineConfig::default(), 4).unwrap();
        let shape: Vec<(usize, i64, i64)> = (0..12)
            .flat_map(|g| (0..12).map(move |h| (1, g, h)))
            .collect();
        let two: Vec<Vec<(usize, u64)>> = materialize(&reg, &shape)
            .iter()
            .map(|e| owners(&mut router, e))
            .filter(|o| o.len() == 2)
            .collect();
        assert!(!two.is_empty(), "no B event had two owners");
        // Low shard first, and each owns one of the two key classes.
        assert!(two.iter().all(|o| o[0].0 < o[1].0));
        assert!(two
            .iter()
            .all(|o| o[0].1 | o[1].1 == 0b11 && o[0].1 & o[1].1 == 0));
    }

    /// The error an op is rejected with names its cause, and a schedule
    /// dry-run reports the first failing entry without touching the
    /// router.
    #[test]
    fn rejected_ops_name_their_cause() {
        let (reg, queries) = setup();
        let mut router =
            ShardRouter::new(reg.clone(), queries.clone(), EngineConfig::default(), 2).unwrap();
        assert!(matches!(
            router.apply(&ChurnOp::Add(queries[0].clone())),
            Err(ChurnError::Duplicate(QueryId(1)))
        ));
        assert!(matches!(
            router.apply(&ChurnOp::Remove(QueryId(77))),
            Err(ChurnError::Unknown(QueryId(77)))
        ));
        assert!(matches!(
            router.apply(&ChurnOp::Add(uncompilable(&reg))),
            Err(ChurnError::Engine(EngineError::Unsupported(_)))
        ));
        let schedule = [
            ChurnOp::Remove(QueryId(2)),
            ChurnOp::Add(queries[1].clone()),
            ChurnOp::Remove(QueryId(2)),
            ChurnOp::Remove(QueryId(2)),
        ];
        assert!(matches!(
            router.validate_schedule(&schedule),
            Err((3, ChurnError::Unknown(QueryId(2))))
        ));
        assert!(router.validate_schedule(&schedule[..3]).is_ok());
        assert_eq!(router.plan.queries.len(), 2, "a dry run changes nothing");
    }
}
