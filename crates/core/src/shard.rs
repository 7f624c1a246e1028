//! The one shard router: which shard(s) own an event, and how that
//! ownership follows the workload through runtime churn.
//!
//! HAMLET partitions the stream by grouping/equivalence attributes
//! (§2.2) and every partition is evaluated independently, so a
//! `workers`-way sharded runtime needs exactly two things argued once:
//!
//! * **routing** — [`ShardRouter::route`] hands an event to every shard
//!   that owns one of its partition keys, using the very hash the shard
//!   engines' `EngineConfig::shard` filter applies (the router holds a
//!   routing-only [`HamletEngine`] compiled over the same workload and
//!   asks it for [`HamletEngine::shard_mask`], which reads the compiled
//!   classifier tables the shard engines' own scan reads: per routed
//!   event one slot-resolved key build and one hash per *key class* the
//!   type is local to — usually one — whatever the number of share
//!   groups); at one worker nothing is compiled and every event passes
//!   through to shard 0;
//! * **the update step** — [`ShardRouter::apply`] is the one churn
//!   barrier: id check, compile check of the post-churn workload, and
//!   re-plan of the routing engine, all before any shard sees the op
//!   (so shard engines may treat a routed-through op as infallible).
//!
//! Both the offline [`crate::parallel`] executor and the online
//! `hamlet-pipeline` ingest stage drive their shards through this type;
//! nothing else calls `shard_mask`.

use crate::executor::{ChurnError, ChurnOp, EngineConfig, EngineError, HamletEngine};
use hamlet_query::Query;
use hamlet_types::{Event, TypeRegistry};
use std::sync::Arc;

/// Maps events to the shards of a `workers`-way sharded runtime and
/// tracks the workload those shards run (see the module docs).
#[derive(Clone)]
pub struct ShardRouter {
    reg: Arc<TypeRegistry>,
    /// The current workload; evolves with every [`apply`](Self::apply).
    pub(crate) queries: Vec<Query>,
    /// The shard engines' configuration (`shard` is set per shard).
    cfg: EngineConfig,
    workers: u32,
    /// Routing-only engine: never processes an event, only answers
    /// `shard_mask`. `None` at one worker (pass-through). Shared so a
    /// clone of the router costs no compile.
    engine: Option<Arc<HamletEngine>>,
}

impl ShardRouter {
    /// Prepares a `workers`-way sharding of the workload. `workers` must
    /// be in `1..=64` (the shard mask is a `u64`). With more than one
    /// worker the workload is compiled here, so construction errors
    /// surface synchronously; at one worker nothing is compiled and
    /// [`engines`](Self::engines) is where they surface.
    pub fn new(
        reg: Arc<TypeRegistry>,
        queries: Vec<Query>,
        cfg: EngineConfig,
        workers: u32,
    ) -> Result<ShardRouter, EngineError> {
        assert!(workers >= 1, "at least one worker");
        assert!(workers <= 64, "at most 64 workers (shard mask is a u64)");
        let mut router = ShardRouter {
            reg,
            queries,
            cfg,
            workers,
            engine: None,
        };
        if workers > 1 {
            router.engine = Some(Arc::new(router.compile(&router.queries)?));
        }
        Ok(router)
    }

    /// Compiles `queries` into a routing-only engine: no shard filter
    /// (it sees every event), and none of the per-event bookkeeping a
    /// processing engine keeps — it never processes anything.
    fn compile(&self, queries: &[Query]) -> Result<HamletEngine, EngineError> {
        let mut cfg = self.cfg.clone();
        cfg.shard = None;
        cfg.track_latency = false;
        cfg.mem_sample_every = 0;
        cfg.obs = false;
        HamletEngine::new(self.reg.clone(), queries.to_vec(), cfg)
    }

    /// Number of shards.
    pub fn workers(&self) -> u32 {
        self.workers
    }

    /// Builds one shard-owning engine per worker over the current
    /// workload (index = shard). At one worker the engine owns every
    /// partition.
    pub fn engines(&self) -> Result<Vec<HamletEngine>, EngineError> {
        (0..self.workers)
            .map(|idx| {
                let mut cfg = self.cfg.clone();
                cfg.shard = (self.workers > 1).then_some((idx, self.workers));
                HamletEngine::new(self.reg.clone(), self.queries.clone(), cfg)
            })
            .collect()
    }

    /// Hands `e` to every shard owning one of its partition keys, in
    /// ascending shard order: cloned for all owners but the last, which
    /// takes the event itself. Usually that is one shard (an event local
    /// to several share groups can carry several keys); an event no
    /// share group accepts is pushed nowhere. At one worker every event
    /// goes to shard 0 unexamined.
    pub fn route(&self, e: Event, mut push: impl FnMut(usize, Event)) {
        let Some(engine) = &self.engine else {
            return push(0, e);
        };
        let mut mask = engine.shard_mask(&e, self.workers);
        while mask != 0 {
            let idx = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if mask == 0 {
                return push(idx, e);
            }
            push(idx, e.clone());
        }
    }

    /// The workload `op` leads to from `queries`, compiled: the id check
    /// (`Duplicate` / `Unknown`) and the compile check (`Engine`) every
    /// churn op must pass before any shard sees it.
    fn plan(
        &self,
        queries: &[Query],
        op: &ChurnOp,
    ) -> Result<(Vec<Query>, HamletEngine), ChurnError> {
        let mut next = queries.to_vec();
        match op {
            ChurnOp::Add(q) => {
                if next.iter().any(|p| p.id == q.id) {
                    return Err(ChurnError::Duplicate(q.id));
                }
                next.push(q.clone());
            }
            ChurnOp::Remove(id) => {
                if !next.iter().any(|p| p.id == *id) {
                    return Err(ChurnError::Unknown(*id));
                }
                next.retain(|p| p.id != *id);
            }
        }
        let engine = self.compile(&next).map_err(ChurnError::Engine)?;
        Ok((next, engine))
    }

    /// The churn step: validates `op` against the current workload and,
    /// if it holds, re-plans routing for the post-churn workload (the
    /// routing engine holds no window state, so the freshly compiled one
    /// simply replaces it). Call it at the barrier — after everything
    /// routed so far has been handed to the shards, before the op is. On
    /// error nothing changed.
    pub fn apply(&mut self, op: &ChurnOp) -> Result<(), ChurnError> {
        let (next, engine) = self.plan(&self.queries, op)?;
        if self.engine.is_some() {
            self.engine = Some(Arc::new(engine));
        }
        self.queries = next;
        Ok(())
    }

    /// Dry-runs a whole op sequence from the current workload without
    /// changing the router: the first failing op's index and error.
    pub fn validate_schedule<'a>(
        &self,
        ops: impl IntoIterator<Item = &'a ChurnOp>,
    ) -> Result<(), (usize, ChurnError)> {
        let mut sim = self.queries.clone();
        for (i, op) in ops.into_iter().enumerate() {
            sim = self.plan(&sim, op).map_err(|e| (i, e))?.0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The shards `route` pushes `e` to, in push order; every pushed
    /// event must be `e` itself.
    fn owners(router: &ShardRouter, e: &Event) -> Vec<usize> {
        let mut got = Vec::new();
        router.route(e.clone(), |idx, pushed| {
            assert_eq!(&pushed, e, "a shard was handed a different event");
            got.push(idx);
        });
        got
    }

    /// The set bits of `shard_mask` over a plain (unstripped, unsharded)
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
        /// owner once, ascending; one worker is a pass-through to shard
        /// 0 even for events no share group accepts; accepted churn ops
        /// leave the router routing like one built fresh over the
        /// post-churn workload, rejected ones leave it unchanged.
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
                let check = |router: &ShardRouter| {
                    for e in &events {
                        let want = if workers == 1 {
                            vec![0]
                        } else {
                            mask_bits(&router.queries, &reg, e, workers)
                        };
                        assert_eq!(owners(router, e), want, "{workers} workers, {e:?}");
                    }
                };
                check(&router);
                for op in ops.iter().map(|&i| &pool[i]) {
                    let before: Vec<QueryId> = router.queries.iter().map(|q| q.id).collect();
                    let dry = router.validate_schedule([op]).map_err(|(_, e)| e);
                    let applied = router.apply(op);
                    prop_assert_eq!(dry.is_ok(), applied.is_ok(), "dry run disagrees on {:?}", op);
                    let after: Vec<QueryId> = router.queries.iter().map(|q| q.id).collect();
                    match (&applied, op) {
                        (Ok(()), ChurnOp::Add(q)) => prop_assert_eq!(after.last(), Some(&q.id)),
                        (Ok(()), ChurnOp::Remove(id)) => prop_assert!(!after.contains(id)),
                        (Err(_), _) => prop_assert_eq!(&after, &before, "rejected op changed the workload"),
                    }
                    if after.is_empty() {
                        break; // nothing left to route for
                    }
                    check(&router);
                    let fresh = ShardRouter::new(
                        reg.clone(),
                        router.queries.clone(),
                        EngineConfig::default(),
                        workers,
                    )
                    .unwrap();
                    for e in &events {
                        prop_assert_eq!(owners(&router, e), owners(&fresh, e));
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
            use crate::executor::shard_index;
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
                        let want = (eng.groups.iter())
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
        let router = ShardRouter::new(reg.clone(), queries, EngineConfig::default(), 4).unwrap();
        let shape: Vec<(usize, i64, i64)> = (0..12)
            .flat_map(|g| (0..12).map(move |h| (1, g, h)))
            .collect();
        let two: Vec<Vec<usize>> = materialize(&reg, &shape)
            .iter()
            .map(|e| owners(&router, e))
            .filter(|o| o.len() == 2)
            .collect();
        assert!(!two.is_empty(), "no B event had two owners");
        assert!(two.iter().all(|o| o[0] < o[1]));
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
        assert_eq!(router.queries.len(), 2, "a dry run changes nothing");
    }
}
