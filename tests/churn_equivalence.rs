//! Churn equivalence: adding and removing queries on a *live* engine
//! must produce exactly the results the churn contract promises — no
//! window lost, none duplicated, untouched share groups byte-identical
//! to never having churned. Proven across the stack:
//!
//! * the offline parallel path (`ParallelEngine::run_with_churn`) at 1
//!   and 4 workers against a single-engine reference that applies the
//!   same ops at the same stream positions, in canonical order;
//! * a proptest over churn positions × stream shapes;
//! * checkpoint/restore **mid-churn**: a blob taken after churn restores
//!   only into an engine at the same workload epoch (built with the
//!   post-churn query set; a chain restore adopts the blob's epoch) and
//!   then continues byte-identically; a cross-epoch restore is rejected
//!   with `WorkloadMismatch`.
//!
//! This is the acceptance property of the churn subsystem, the runtime
//! face of Def. 12: re-planning happens online, and correctness is
//! independent of *when* the workload changed.

use hamlet::prelude::*;
use hamlet_stream::ridesharing;
use proptest::prelude::*;
use std::sync::Arc;

/// 8-query pool: the first six are the initial workload, the tail is
/// for genuinely-new `Add`s (ids the engine has never seen).
fn pool() -> (Arc<TypeRegistry>, Vec<Query>) {
    let reg = ridesharing::registry();
    let queries = ridesharing::workload_shared_kleene(&reg, 8, 30);
    (reg, queries)
}

fn stream(reg: &Arc<TypeRegistry>, seed: u64, events_per_min: u64, groups: u64) -> Vec<Event> {
    ridesharing::generate(
        reg,
        &GenConfig {
            events_per_min,
            minutes: 1,
            mean_burst: 15.0,
            num_groups: groups,
            group_skew: 0.0,
            seed,
            max_lateness: 0,
        },
    )
}

/// Single-engine reference: process events in slice order, applying each
/// `(position, op)` after exactly `position` events, collecting per-event
/// output, the barrier drains, and the final flush. Canonical order.
fn churned_reference(
    reg: &Arc<TypeRegistry>,
    initial: &[Query],
    events: &[Event],
    ops: &[(usize, ChurnOp)],
) -> Vec<WindowResult> {
    let mut eng = HamletEngine::new(reg.clone(), initial.to_vec(), EngineConfig::default())
        .expect("engine builds");
    let mut out = Vec::new();
    let mut pos = 0usize;
    for (at, op) in ops {
        let at = (*at).min(events.len());
        for e in &events[pos..at] {
            out.extend(eng.process(e));
        }
        pos = at;
        let report = match op {
            ChurnOp::Add(q) => eng.add_query(q.clone()).expect("churn add applies"),
            ChurnOp::Remove(id) => eng.remove_query(*id).expect("churn remove applies"),
        };
        out.extend(report.drained);
    }
    for e in &events[pos..] {
        out.extend(eng.process(e));
    }
    out.extend(eng.flush());
    sort_results(&mut out);
    out
}

/// The parallel path's coordinated churn barrier at 1 and 4 workers
/// equals the single-engine reference, drained barrier results included,
/// for a schedule that exercises remove-from-shared-group, add-new-query,
/// and re-add-after-remove.
#[test]
fn parallel_churn_matches_single_engine_at_1_and_4_workers() {
    let (reg, pool) = pool();
    let initial: Vec<Query> = pool[..6].to_vec();
    let events = stream(&reg, 42, 3_000, 16);
    let n = events.len();
    let ops: Vec<(usize, ChurnOp)> = vec![
        (n / 4, ChurnOp::Remove(QueryId(2))),
        (n / 2, ChurnOp::Add(pool[6].clone())),
        (2 * n / 3, ChurnOp::Remove(QueryId(0))),
        (3 * n / 4, ChurnOp::Add(pool[2].clone())), // re-add after remove
    ];
    let gold = churned_reference(&reg, &initial, &events, &ops);
    assert!(!gold.is_empty(), "workload emits under churn");

    for workers in [1u32, 4] {
        let mut eng = ParallelEngine::new(
            reg.clone(),
            initial.clone(),
            EngineConfig::default(),
            workers,
        )
        .unwrap();
        let report = eng.run_with_churn(&events, &ops).unwrap();
        assert_eq!(
            report.results, gold,
            "{workers} workers: churned run diverged from the reference"
        );
    }
}

/// A share group is full at 64 members: the 65th sharable query opens a
/// second group, so the full one carries over — nothing of it drains —
/// and every result is what a fresh engine over all 65 emits (the late
/// query's own windows opened after the barrier; it never saw the prefix).
#[test]
fn the_65th_query_joins_a_second_group_and_the_full_one_carries_over() {
    let reg = ridesharing::registry();
    let queries = ridesharing::workload_shared_kleene(&reg, 65, 30);
    let events = stream(&reg, 5, 3_000, 4);
    // Two thirds into the first window: the full group is live.
    let (at, late) = (events.partition_point(|e| e.time.ticks() < 20), QueryId(64));
    let barrier = events[at].time;

    let mut eng = HamletEngine::new(reg.clone(), queries[..64].to_vec(), EngineConfig::default())
        .expect("engine builds");
    assert_eq!(eng.num_groups(), 1);
    let mut got: Vec<WindowResult> = events[..at].iter().flat_map(|e| eng.process(e)).collect();
    let report = eng.add_query(queries[64].clone()).expect("add applies");
    assert_eq!((report.groups_carried, report.groups_rebuilt), (1, 1));
    assert!(report.drained.is_empty(), "{:?}", report.drained);
    assert_eq!(eng.num_groups(), 2);
    got.extend(events[at..].iter().flat_map(|e| eng.process(e)));
    got.extend(eng.flush());

    let mut fresh = HamletEngine::new(reg.clone(), queries, EngineConfig::default()).unwrap();
    let mut want: Vec<WindowResult> = events.iter().flat_map(|e| fresh.process(e)).collect();
    want.extend(fresh.flush());
    for rs in [&mut got, &mut want] {
        rs.retain(|r| r.query != late || r.window_start > barrier);
        sort_results(rs);
    }
    assert!(want.iter().any(|r| r.query == late), "the late query emits");
    assert_eq!(got, want);
}

/// Churn barriers at the stream's very edges — before any event, between
/// adjacent events, and after the last — are just as valid as mid-stream
/// ones, and back-to-back ops at one position apply in sequence.
#[test]
fn churn_at_stream_edges_and_back_to_back() {
    let (reg, pool) = pool();
    let initial: Vec<Query> = pool[..6].to_vec();
    let events = stream(&reg, 9, 2_000, 8);
    let n = events.len();
    let ops: Vec<(usize, ChurnOp)> = vec![
        (0, ChurnOp::Remove(QueryId(5))),
        (n / 2, ChurnOp::Remove(QueryId(1))),
        (n / 2, ChurnOp::Add(pool[7].clone())), // same barrier, FIFO
        (n, ChurnOp::Add(pool[1].clone())),     // after the last event
    ];
    let gold = churned_reference(&reg, &initial, &events, &ops);
    for workers in [1u32, 4] {
        let mut eng = ParallelEngine::new(
            reg.clone(),
            initial.clone(),
            EngineConfig::default(),
            workers,
        )
        .unwrap();
        let report = eng.run_with_churn(&events, &ops).unwrap();
        assert_eq!(report.results, gold, "{workers} workers diverged");
    }
}

/// An invalid op *anywhere* in the schedule rejects the whole run before
/// any event is processed: the engine still produces the untouched
/// workload's output afterwards.
#[test]
fn invalid_schedule_rejects_upfront_and_leaves_engine_usable() {
    let (reg, pool) = pool();
    let initial: Vec<Query> = pool[..4].to_vec();
    let events = stream(&reg, 3, 1_000, 6);
    let mut eng =
        ParallelEngine::new(reg.clone(), initial.clone(), EngineConfig::default(), 4).unwrap();
    let gold = eng.run(&events);

    // Second op removes an id the first op already removed.
    let bad = vec![
        (0usize, ChurnOp::Remove(QueryId(1))),
        (events.len() / 2, ChurnOp::Remove(QueryId(1))),
    ];
    match eng.run_with_churn(&events, &bad) {
        Err(ChurnError::Unknown(id)) => assert_eq!(id, QueryId(1)),
        Err(other) => panic!("expected Unknown(1), got {other:?}"),
        Ok(_) => panic!("expected Unknown(1), got a successful run"),
    }
    // Duplicate add deep in the schedule is caught the same way.
    let dup = vec![
        (0usize, ChurnOp::Add(pool[6].clone())),
        (1usize, ChurnOp::Add(pool[6].clone())),
    ];
    match eng.run_with_churn(&events, &dup) {
        Err(ChurnError::Duplicate(id)) => assert_eq!(id, pool[6].id),
        Err(other) => panic!("expected Duplicate, got {other:?}"),
        Ok(_) => panic!("expected Duplicate, got a successful run"),
    }
    // The failed churns changed nothing: a plain run still matches.
    assert_eq!(eng.run(&events).results, gold.results);
}

/// Checkpoint taken mid-stream *after* churn: restoring demands the same
/// workload epoch. A fresh engine built with the post-churn query set
/// (epoch 0) is rejected by a plain `restore` with `WorkloadMismatch`;
/// a chain restore — which adopts the blob's epoch, a bare blob being a
/// chain of one — succeeds and the continuation is byte-identical to the uninterrupted churned
/// run — raw emission order, no normalization.
#[test]
fn mid_churn_checkpoint_restores_at_matching_epoch_only() {
    let (reg, pool) = pool();
    let initial: Vec<Query> = pool[..6].to_vec();
    let events = stream(&reg, 11, 2_000, 12);
    let n = events.len();
    let churn = |eng: &mut HamletEngine| {
        eng.remove_query(QueryId(3)).unwrap();
        eng.add_query(pool[6].clone()).unwrap();
    };
    let post_churn: Vec<Query> = initial
        .iter()
        .filter(|q| q.id != QueryId(3))
        .cloned()
        .chain(std::iter::once(pool[6].clone()))
        .collect();

    // Gold: churn at n/3, never interrupted. Record per-event output
    // after the cut point so the comparison is exact, not just the sum.
    let mut gold_eng =
        HamletEngine::new(reg.clone(), initial.clone(), EngineConfig::default()).unwrap();
    for e in &events[..n / 3] {
        let _ = gold_eng.process(e);
    }
    churn(&mut gold_eng);
    for e in &events[n / 3..n / 2] {
        let _ = gold_eng.process(e);
    }
    let mut gold_tail: Vec<Vec<WindowResult>> = Vec::new();
    for e in &events[n / 2..] {
        gold_tail.push(gold_eng.process(e));
    }
    let gold_flush = gold_eng.flush();

    // Victim: same run, checkpointed at n/2 (mid-stream, post-churn).
    let mut victim =
        HamletEngine::new(reg.clone(), initial.clone(), EngineConfig::default()).unwrap();
    for e in &events[..n / 3] {
        let _ = victim.process(e);
    }
    churn(&mut victim);
    assert_eq!(victim.epoch(), 2, "two churn ops, two epoch bumps");
    for e in &events[n / 3..n / 2] {
        let _ = victim.process(e);
    }
    let blob = victim.checkpoint();
    drop(victim); // the crash

    let record = Checkpoint::from_bytes(blob.clone()).unwrap();
    assert_eq!(record.epoch(), 2);

    // Epoch 0 engine with the right query set: rejected, engine unharmed.
    let mut survivor =
        HamletEngine::new(reg.clone(), post_churn.clone(), EngineConfig::default()).unwrap();
    match survivor.restore(&blob) {
        Err(CheckpointError::WorkloadMismatch(_)) => {}
        other => panic!("cross-epoch restore must fail with WorkloadMismatch, got {other:?}"),
    }

    // Chain restore adopts the blob's epoch and continues exactly.
    survivor.restore_chain(&[record]).unwrap();
    assert_eq!(survivor.epoch(), 2);
    assert_eq!(
        survivor.checkpoint(),
        blob,
        "checkpoint/restore round trip is not the identity"
    );
    for (i, e) in events[n / 2..].iter().enumerate() {
        assert_eq!(
            survivor.process(e),
            gold_tail[i],
            "event {} diverged after mid-churn restore",
            n / 2 + i
        );
    }
    assert_eq!(survivor.flush(), gold_flush, "flush diverged");

    // And the other direction: a pre-churn (epoch 0) blob does not
    // restore into an engine that has since churned.
    let early = HamletEngine::new(reg.clone(), initial.clone(), EngineConfig::default()).unwrap();
    let early_blob = early.checkpoint();
    let mut churned =
        HamletEngine::new(reg.clone(), initial.clone(), EngineConfig::default()).unwrap();
    churn(&mut churned);
    assert!(matches!(
        churned.restore(&early_blob),
        Err(CheckpointError::WorkloadMismatch(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random stream shape, random churn barrier positions: a remove of
    /// a random initial query and a later add of a never-seen query.
    /// The parallel path at 1 and 4 workers equals the single-engine
    /// reference in canonical order.
    #[test]
    fn random_churn_positions_and_streams_are_equivalent(
        seed in 0u64..10_000,
        mean_burst in 1.0f64..40.0,
        groups in 1u64..16,
        victim in 0u32..6,
        churn_permille in 0u64..=1_000,
    ) {
        let (reg, pool) = pool();
        let initial: Vec<Query> = pool[..6].to_vec();
        let events = ridesharing::generate(
            &reg,
            &GenConfig {
                events_per_min: 1_200,
                minutes: 1,
                mean_burst,
                num_groups: groups,
                group_skew: 0.0,
                seed,
                max_lateness: 0,
            },
        );
        let n = events.len();
        let first = (n as u64 * churn_permille / 1_000) as usize;
        let second = first + (n - first) / 2;
        let ops: Vec<(usize, ChurnOp)> = vec![
            (first, ChurnOp::Remove(QueryId(victim))),
            (second, ChurnOp::Add(pool[7].clone())),
        ];
        let gold = churned_reference(&reg, &initial, &events, &ops);
        for workers in [1u32, 4] {
            let mut eng = ParallelEngine::new(
                reg.clone(),
                initial.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap();
            let report = eng.run_with_churn(&events, &ops).unwrap();
            prop_assert_eq!(
                &report.results,
                &gold,
                "{} workers, cut ({}, {}): churn changed the output",
                workers,
                first,
                second
            );
        }
    }
}
