//! Cross-strategy equivalence: HAMLET under every sharing policy, the
//! independent GRETA implementation, and the brute-force two-step
//! enumerator must produce bit-identical aggregates on the same stream.
//!
//! This is the central correctness net of the reproduction: the paper's
//! Theorem 3.1 (Algorithm 1 returns correct counts) is checked here
//! against two independently-coded oracles, on hand-built and on
//! randomized streams.

use hamlet_baselines::{GretaEngine, TwoStepEngine};
use hamlet_core::{EngineConfig, HamletEngine, SharingPolicy, WindowResult};
use hamlet_query::{parse_query, Query};
use hamlet_types::{AttrValue, Event, Ts, TypeRegistry};
use proptest::prelude::*;
use std::sync::Arc;

fn registry() -> Arc<TypeRegistry> {
    let mut reg = TypeRegistry::new();
    for t in ["A", "B", "C", "D", "N"] {
        reg.register(t, &["g", "v"]);
    }
    Arc::new(reg)
}

fn ev(reg: &TypeRegistry, name: &str, t: u64, g: i64, v: f64) -> Event {
    Event::new(
        Ts(t),
        reg.type_id(name).expect("type registered"),
        vec![AttrValue::Int(g), AttrValue::Float(v)],
    )
}

fn normalize(mut rs: Vec<WindowResult>) -> Vec<(u32, String, u64, String)> {
    // Engines differ in which empty windows they materialize (shared groups
    // emit a row for every member; per-query engines only for queries whose
    // partition saw events). Zero/absent rows are semantically identical,
    // so drop them before comparing.
    rs.retain(|r| match r.value {
        hamlet_core::AggValue::Count(c) => c != 0,
        hamlet_core::AggValue::Float(f) => f != 0.0,
        hamlet_core::AggValue::Null => false,
    });
    rs.sort_by(|a, b| {
        (a.query, a.window_start, format!("{}", a.group_key)).cmp(&(
            b.query,
            b.window_start,
            format!("{}", b.group_key),
        ))
    });
    rs.into_iter()
        .map(|r| {
            (
                r.query.0,
                format!("{}", r.group_key),
                r.window_start.ticks(),
                format!("{:?}", r.value),
            )
        })
        .collect()
}

fn run_hamlet(
    reg: &Arc<TypeRegistry>,
    queries: &[Query],
    events: &[Event],
    policy: SharingPolicy,
) -> Vec<WindowResult> {
    let mut eng = HamletEngine::new(
        reg.clone(),
        queries.to_vec(),
        EngineConfig {
            policy,
            ..EngineConfig::default()
        },
    )
    .expect("engine builds");
    let mut out = Vec::new();
    for e in events {
        out.extend(eng.process(e));
    }
    out.extend(eng.flush());
    out
}

fn run_greta(reg: &Arc<TypeRegistry>, queries: &[Query], events: &[Event]) -> Vec<WindowResult> {
    let mut eng = GretaEngine::new(reg.clone(), queries.to_vec()).expect("engine builds");
    let mut out = Vec::new();
    for e in events {
        out.extend(eng.process(e));
    }
    out.extend(eng.flush());
    out
}

fn run_twostep(reg: &Arc<TypeRegistry>, queries: &[Query], events: &[Event]) -> Vec<WindowResult> {
    let mut eng = TwoStepEngine::new(reg.clone(), queries.to_vec(), None).expect("engine builds");
    let mut out = Vec::new();
    for e in events {
        out.extend(eng.process(e));
    }
    out.extend(eng.flush());
    assert_eq!(eng.truncated(), 0, "oracle must not truncate");
    out
}

/// Asserts all five engines agree on the stream.
fn assert_all_agree(reg: &Arc<TypeRegistry>, queries: &[Query], events: &[Event]) {
    let base = normalize(run_greta(reg, queries, events));
    let two = normalize(run_twostep(reg, queries, events));
    assert_eq!(base, two, "GRETA vs two-step oracle");
    for policy in [
        SharingPolicy::Dynamic,
        SharingPolicy::AlwaysShare,
        SharingPolicy::NeverShare,
    ] {
        let got = normalize(run_hamlet(reg, queries, events, policy));
        assert_eq!(base, got, "HAMLET {policy:?} vs GRETA");
    }
}

#[test]
fn figure3b_workload_equivalence() {
    let reg = registry();
    let queries = vec![
        parse_query(&reg, 1, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 100").unwrap(),
        parse_query(&reg, 2, "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 100").unwrap(),
    ];
    let events = vec![
        ev(&reg, "A", 1, 0, 1.0),
        ev(&reg, "A", 2, 0, 2.0),
        ev(&reg, "C", 3, 0, 3.0),
        ev(&reg, "B", 4, 0, 4.0),
        ev(&reg, "B", 5, 0, 5.0),
        ev(&reg, "B", 6, 0, 6.0),
        ev(&reg, "B", 7, 0, 7.0),
        ev(&reg, "A", 8, 0, 8.0),
        ev(&reg, "C", 9, 0, 9.0),
        ev(&reg, "B", 10, 0, 10.0),
        ev(&reg, "B", 11, 0, 11.0),
    ];
    assert_all_agree(&reg, &queries, &events);
}

#[test]
fn predicate_divergence_equivalence() {
    // Different thresholds per query → event-level snapshots in shared
    // mode (Def. 9).
    let reg = registry();
    let queries = vec![
        parse_query(
            &reg,
            1,
            "RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE B.v < 6 WITHIN 100",
        )
        .unwrap(),
        parse_query(
            &reg,
            2,
            "RETURN COUNT(*) PATTERN SEQ(C, B+) WHERE B.v < 9 WITHIN 100",
        )
        .unwrap(),
    ];
    let events = vec![
        ev(&reg, "A", 1, 0, 0.0),
        ev(&reg, "C", 2, 0, 0.0),
        ev(&reg, "B", 3, 0, 5.0),
        ev(&reg, "B", 4, 0, 7.0), // q1 rejects, q2 accepts
        ev(&reg, "B", 5, 0, 2.0),
        ev(&reg, "B", 6, 0, 9.5), // both reject
        ev(&reg, "B", 7, 0, 8.0), // only q2
    ];
    assert_all_agree(&reg, &queries, &events);
}

#[test]
fn edge_predicate_equivalence() {
    // Rising-value constraint between consecutive B events.
    let reg = registry();
    let queries = vec![
        parse_query(
            &reg,
            1,
            "RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE B.v > PREV.v WITHIN 100",
        )
        .unwrap(),
        parse_query(&reg, 2, "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 100").unwrap(),
    ];
    let events = vec![
        ev(&reg, "A", 1, 0, 0.0),
        ev(&reg, "C", 2, 0, 0.0),
        ev(&reg, "B", 3, 0, 3.0),
        ev(&reg, "B", 4, 0, 1.0),
        ev(&reg, "B", 5, 0, 4.0),
        ev(&reg, "B", 6, 0, 2.0),
        ev(&reg, "B", 7, 0, 5.0),
    ];
    assert_all_agree(&reg, &queries, &events);
}

#[test]
fn sum_avg_count_type_equivalence() {
    let reg = registry();
    let queries = vec![
        parse_query(&reg, 1, "RETURN SUM(B.v) PATTERN SEQ(A, B+) WITHIN 50").unwrap(),
        parse_query(&reg, 2, "RETURN AVG(B.v) PATTERN SEQ(C, B+) WITHIN 50").unwrap(),
        parse_query(&reg, 3, "RETURN COUNT(B) PATTERN SEQ(D, B+) WITHIN 50").unwrap(),
    ];
    let events = vec![
        ev(&reg, "A", 1, 0, 0.0),
        ev(&reg, "C", 2, 0, 0.0),
        ev(&reg, "D", 3, 0, 0.0),
        ev(&reg, "B", 4, 0, 1.5),
        ev(&reg, "B", 5, 0, 2.25),
        ev(&reg, "B", 6, 0, -3.0),
        ev(&reg, "B", 7, 0, 10.0),
    ];
    assert_all_agree(&reg, &queries, &events);
}

#[test]
fn min_max_equivalence() {
    let reg = registry();
    let queries = vec![
        parse_query(&reg, 1, "RETURN MIN(B.v) PATTERN SEQ(A, B+) WITHIN 50").unwrap(),
        parse_query(&reg, 2, "RETURN MAX(B.v) PATTERN SEQ(C, B+) WITHIN 50").unwrap(),
    ];
    let events = vec![
        ev(&reg, "A", 1, 0, 0.0),
        ev(&reg, "C", 2, 0, 0.0),
        ev(&reg, "B", 3, 0, 7.5),
        ev(&reg, "B", 4, 0, -2.0),
        ev(&reg, "B", 5, 0, 11.0),
    ];
    assert_all_agree(&reg, &queries, &events);
}

#[test]
fn group_by_and_sliding_window_equivalence() {
    let reg = registry();
    let queries = vec![
        parse_query(
            &reg,
            1,
            "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g WITHIN 10 SLIDE 5",
        )
        .unwrap(),
        parse_query(
            &reg,
            2,
            "RETURN COUNT(*) PATTERN SEQ(C, B+) GROUP BY g WITHIN 10 SLIDE 5",
        )
        .unwrap(),
    ];
    let mut events = Vec::new();
    for t in 0..30u64 {
        let name = match t % 5 {
            0 => "A",
            1 => "C",
            _ => "B",
        };
        events.push(ev(&reg, name, t, (t % 2) as i64, t as f64));
    }
    assert_all_agree(&reg, &queries, &events);
}

#[test]
fn negation_equivalence() {
    let reg = registry();
    let queries = vec![
        parse_query(
            &reg,
            1,
            "RETURN COUNT(*) PATTERN SEQ(A, N? , B+) WITHIN 100"
                .replace("N? ,", "NOT N,")
                .as_str(),
        )
        .unwrap(),
        parse_query(&reg, 2, "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 100").unwrap(),
    ];
    let events = vec![
        ev(&reg, "A", 1, 0, 0.0),
        ev(&reg, "B", 2, 0, 0.0),
        ev(&reg, "N", 3, 0, 0.0),
        ev(&reg, "C", 4, 0, 0.0),
        ev(&reg, "A", 5, 0, 0.0),
        ev(&reg, "B", 6, 0, 0.0),
        ev(&reg, "B", 7, 0, 0.0),
    ];
    assert_all_agree(&reg, &queries, &events);
}

#[test]
fn nested_kleene_equivalence() {
    // (SEQ(A, B+))+ — Example 10's extra loops.
    let reg = registry();
    let queries = vec![
        parse_query(&reg, 1, "RETURN COUNT(*) PATTERN (SEQ(A, B+))+ WITHIN 100").unwrap(),
        parse_query(&reg, 2, "RETURN COUNT(*) PATTERN (SEQ(C, B+))+ WITHIN 100").unwrap(),
    ];
    let events = vec![
        ev(&reg, "A", 1, 0, 0.0),
        ev(&reg, "C", 2, 0, 0.0),
        ev(&reg, "B", 3, 0, 0.0),
        ev(&reg, "B", 4, 0, 0.0),
        ev(&reg, "A", 5, 0, 0.0),
        ev(&reg, "C", 6, 0, 0.0),
        ev(&reg, "B", 7, 0, 0.0),
    ];
    assert_all_agree(&reg, &queries, &events);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomized streams over {A, B, C} with random per-query thresholds:
    /// all strategies agree.
    #[test]
    fn random_streams_all_strategies_agree(
        types in proptest::collection::vec(0..3usize, 1..14),
        vals in proptest::collection::vec(0.0f64..10.0, 14),
        groups in proptest::collection::vec(0i64..2, 14),
        th1 in 0.0f64..10.0,
        th2 in 0.0f64..10.0,
        window in prop_oneof![Just(8u64), Just(16u64), Just(100u64)],
    ) {
        let reg = registry();
        let names = ["A", "B", "C"];
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &ti)| ev(&reg, names[ti], i as u64, groups[i % groups.len()], vals[i % vals.len()]))
            .collect();
        let queries = vec![
            parse_query(&reg, 1, &format!(
                "RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE B.v < {th1} GROUP BY g WITHIN {window}"
            )).unwrap(),
            parse_query(&reg, 2, &format!(
                "RETURN COUNT(*) PATTERN SEQ(C, B+) WHERE B.v < {th2} GROUP BY g WITHIN {window}"
            )).unwrap(),
        ];
        assert_all_agree(&reg, &queries, &events);
    }

    /// Pure-Kleene workloads (B is start, loop and end type at once).
    #[test]
    fn random_pure_kleene_agree(
        types in proptest::collection::vec(0..3usize, 1..12),
        th in 0.0f64..10.0,
    ) {
        let reg = registry();
        let names = ["A", "B", "C"];
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &ti)| ev(&reg, names[ti], i as u64, 0, (i % 7) as f64))
            .collect();
        let queries = vec![
            parse_query(&reg, 1, "RETURN COUNT(*) PATTERN B+ WITHIN 100").unwrap(),
            parse_query(&reg, 2, &format!(
                "RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE B.v < {th} WITHIN 100"
            )).unwrap(),
        ];
        assert_all_agree(&reg, &queries, &events);
    }
}

#[test]
fn three_position_pattern_equivalence() {
    // Kleene in the middle: SEQ(A, B+, C) — end type is C, so results
    // accumulate at C events.
    let reg = registry();
    let queries = vec![
        parse_query(&reg, 1, "RETURN COUNT(*) PATTERN SEQ(A, B+, C) WITHIN 100").unwrap(),
        parse_query(&reg, 2, "RETURN COUNT(*) PATTERN SEQ(D, B+, C) WITHIN 100").unwrap(),
    ];
    let events = vec![
        ev(&reg, "A", 1, 0, 0.0),
        ev(&reg, "D", 2, 0, 0.0),
        ev(&reg, "B", 3, 0, 0.0),
        ev(&reg, "B", 4, 0, 0.0),
        ev(&reg, "C", 5, 0, 0.0),
        ev(&reg, "B", 6, 0, 0.0),
        ev(&reg, "C", 7, 0, 0.0),
    ];
    assert_all_agree(&reg, &queries, &events);
}

#[test]
fn pure_kleene_three_queries_mixed_lengths() {
    // Pattern lengths 1–3 sharing B+ (the workload-2 shape of §6.1).
    let reg = registry();
    let queries = vec![
        parse_query(&reg, 1, "RETURN COUNT(*) PATTERN B+ WITHIN 100").unwrap(),
        parse_query(&reg, 2, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 100").unwrap(),
        parse_query(&reg, 3, "RETURN COUNT(*) PATTERN SEQ(C, B+, D) WITHIN 100").unwrap(),
    ];
    let events = vec![
        ev(&reg, "C", 1, 0, 0.0),
        ev(&reg, "A", 2, 0, 0.0),
        ev(&reg, "B", 3, 0, 0.0),
        ev(&reg, "B", 4, 0, 0.0),
        ev(&reg, "D", 5, 0, 0.0),
        ev(&reg, "B", 6, 0, 0.0),
        ev(&reg, "D", 7, 0, 0.0),
    ];
    assert_all_agree(&reg, &queries, &events);
}

/// `n` pairwise-sharable queries — every one has `B+`, `COUNT(*)`, the
/// same window and grouping — with a selection of their own on the
/// Kleene type. With `or_at = Some(i)`, query `i` is `P OR P`, which
/// compiles to two sharable halves in its place; the second vector is
/// the same workload for an engine without `OR` (`COUNT(P ∨ P) = COUNT(P)`).
fn wide_workload(
    reg: &TypeRegistry,
    n: u32,
    window: &str,
    or_at: Option<u32>,
) -> (Vec<Query>, Vec<Query>) {
    let text = |i: u32, or: bool| {
        let p = format!("SEQ({}, B+)", ["A", "C", "D"][i as usize % 3]);
        let pattern = if or { format!("{p} OR {p}") } else { p };
        let th = i % 10;
        format!("RETURN COUNT(*) PATTERN {pattern} WHERE B.v < {th}.5 GROUP BY g {window}")
    };
    let parse = |i: u32, or: bool| parse_query(reg, i, &text(i, or)).expect("query parses");
    (
        (0..n).map(|i| parse(i, or_at == Some(i))).collect(),
        (0..n).map(|i| parse(i, false)).collect(),
    )
}

/// A share group is at most 64 members wide: the 65th pairwise-sharable
/// query opens a second group, and nothing about the results shows it.
#[test]
fn wide_workloads_split_into_groups_of_64_and_agree() {
    let reg = registry();
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    let events: Vec<Event> = (0..160u64)
        .map(|t| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            // B in bursts of ~6, the head types between them.
            let name = if t % 8 < 6 {
                "B"
            } else {
                ["A", "C", "D"][(s % 3) as usize]
            };
            ev(&reg, name, t, (t / 8 % 2) as i64, ((s >> 8) % 10) as f64)
        })
        .collect();
    for window in ["WITHIN 40", "WITHIN 40 SLIDE 20"] {
        // 63 queries and one `OR`: 65 members, the halves either side of
        // the group boundary.
        for (n, or_at, groups) in [(65, None, 2), (130, None, 3), (64, Some(63), 2)] {
            let (queries, plain) = wide_workload(&reg, n, window, or_at);
            let eng = HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default());
            assert_eq!(eng.unwrap().num_groups(), groups, "{n} queries, {window}");
            let base = normalize(run_greta(&reg, &plain, &events));
            assert!(
                base.len() > n as usize,
                "the stream matches: {}",
                base.len()
            );
            for policy in [
                SharingPolicy::Dynamic,
                SharingPolicy::AlwaysShare,
                SharingPolicy::NeverShare,
            ] {
                let got = normalize(run_hamlet(&reg, &queries, &events, policy));
                assert_eq!(base, got, "{n} queries, {window}, {policy:?} vs GRETA");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized streams over four types with mid-pattern Kleene and
    /// mixed predicates.
    #[test]
    fn random_three_position_agree(
        types in proptest::collection::vec(0..4usize, 1..13),
        th in 0.0f64..10.0,
    ) {
        let reg = registry();
        let names = ["A", "B", "C", "D"];
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &ti)| ev(&reg, names[ti], i as u64, 0, (i % 9) as f64))
            .collect();
        let queries = vec![
            parse_query(&reg, 1, "RETURN COUNT(*) PATTERN SEQ(A, B+, C) WITHIN 100").unwrap(),
            parse_query(&reg, 2, &format!(
                "RETURN COUNT(*) PATTERN SEQ(D, B+) WHERE B.v < {th} WITHIN 100"
            )).unwrap(),
            parse_query(&reg, 3, "RETURN SUM(B.v) PATTERN SEQ(C, B+) WITHIN 100").unwrap(),
        ];
        assert_all_agree(&reg, &queries, &events);
    }

    /// Randomized edge-predicate streams: rising/falling constraints mixed
    /// with selection predicates.
    #[test]
    fn random_edge_predicates_agree(
        types in proptest::collection::vec(0..3usize, 1..12),
        rising in proptest::bool::ANY,
        th in 2.0f64..8.0,
    ) {
        let reg = registry();
        let names = ["A", "B", "C"];
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &ti)| ev(&reg, names[ti], i as u64, 0, ((i * 5) % 11) as f64))
            .collect();
        let op = if rising { ">" } else { "<" };
        let queries = vec![
            parse_query(&reg, 1, &format!(
                "RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE B.v {op} PREV.v WITHIN 100"
            )).unwrap(),
            parse_query(&reg, 2, &format!(
                "RETURN COUNT(*) PATTERN SEQ(C, B+) WHERE B.v < {th} WITHIN 100"
            )).unwrap(),
        ];
        assert_all_agree(&reg, &queries, &events);
    }
}

// ---------------------------------------------------------------------------
// Batched execution (PR 6): `process_batch` must be byte-identical to the
// per-event fold — not merely equivalent after normalization. Same results,
// same order, same checkpoints, on in-order and bounded-late streams, alone
// and behind the sharded parallel engine.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Folding `process` and calling `process_batch` over any chunking of
    /// the same stream produce identical output vectors (zero rows and
    /// emission order included), identical flushes, and identical
    /// checkpoints — with repeated ticks and bounded-late arrivals. The
    /// two queries draw their windows independently: with two lengths a
    /// segment ends at one window's ends while the other's instances
    /// stay open.
    #[test]
    fn batch_is_byte_identical_to_fold(
        types in proptest::collection::vec(0..3usize, 1..60),
        steps in proptest::collection::vec(0..2u64, 60),
        delays in proptest::collection::vec(0..3u64, 60),
        groups in proptest::collection::vec(0i64..3, 60),
        lateness in 0..3u64,
        batch_size in 1usize..20,
        window in prop_oneof![Just(8u64), Just(16u64)],
        window2 in prop_oneof![Just(8u64), Just(12u64), Just(16u64)],
    ) {
        let reg = registry();
        let names = ["A", "B", "C"];
        let mut t = 0u64;
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &ti)| {
                t += steps[i % steps.len()];
                let delay = if lateness == 0 { 0 } else { delays[i % delays.len()] % (lateness + 1) };
                ev(&reg, names[ti], t.saturating_sub(delay), groups[i % groups.len()], (i % 7) as f64)
            })
            .collect();
        let queries = vec![
            parse_query(&reg, 1, &format!(
                "RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE B.v < 4 GROUP BY g WITHIN {window}"
            )).unwrap(),
            parse_query(&reg, 2, &format!(
                "RETURN COUNT(*) PATTERN SEQ(C, B+) GROUP BY g WITHIN {window2}"
            )).unwrap(),
        ];
        let mk = || HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();

        let mut fold_eng = mk();
        let mut fold_out = Vec::new();
        for e in &events {
            fold_out.extend(fold_eng.process(e));
        }

        let mut batch_eng = mk();
        let mut batch_out = Vec::new();
        for chunk in events.chunks(batch_size) {
            batch_out.extend(batch_eng.process_batch(chunk));
        }

        prop_assert_eq!(&batch_out, &fold_out);
        let batch_flush = batch_eng.flush();
        prop_assert_eq!(&batch_flush, &fold_eng.flush());

        // Checkpoint mid-batch-stream: freeze after an arbitrary prefix
        // of chunks, restore into a fresh engine, continue — the restored
        // engine re-serializes to the same bytes and the continued run is
        // byte-identical to the uninterrupted one.
        let cut = (batch_size * 2).min(events.len());
        let mut pre = mk();
        let mut resumed_out = Vec::new();
        for chunk in events[..cut].chunks(batch_size) {
            resumed_out.extend(pre.process_batch(chunk));
        }
        let blob = pre.checkpoint();
        let mut resumed = mk();
        resumed.restore(&blob).unwrap();
        prop_assert_eq!(resumed.checkpoint(), blob);
        for chunk in events[cut..].chunks(batch_size) {
            resumed_out.extend(resumed.process_batch(chunk));
        }
        resumed_out.extend(resumed.flush());
        let mut gold = batch_out;
        gold.extend(batch_flush);
        prop_assert_eq!(resumed_out, gold);
    }

    /// A parallel session returns identical results for 1 and 4 workers
    /// whatever the batch boundaries: each `process` call ships its
    /// partial batches when it returns, so calls of `batch_size` events
    /// vary them.
    #[test]
    fn parallel_batching_is_inert(
        types in proptest::collection::vec(0..3usize, 1..40),
        groups in proptest::collection::vec(0i64..4, 40),
        batch_size in 1usize..30,
    ) {
        let reg = registry();
        let names = ["A", "B", "C"];
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &ti)| ev(&reg, names[ti], i as u64, groups[i % groups.len()], (i % 5) as f64))
            .collect();
        let queries = vec![
            parse_query(&reg, 1, "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g WITHIN 16").unwrap(),
            parse_query(&reg, 2, "RETURN COUNT(*) PATTERN SEQ(C, B+) GROUP BY g WITHIN 16").unwrap(),
        ];
        use hamlet_core::ParallelEngine;
        let run = |workers: u32, batch: usize| {
            let mut sess =
                ParallelEngine::new(reg.clone(), queries.clone(), EngineConfig::default(), workers)
                    .unwrap()
                    .session();
            let mut out: Vec<WindowResult> =
                events.chunks(batch).flat_map(|call| sess.process(call)).collect();
            out.extend(sess.flush());
            hamlet_core::sort_results(&mut out);
            out
        };
        let base = run(1, 1);
        prop_assert_eq!(&run(1, batch_size), &base);
        prop_assert_eq!(&run(4, 1), &base);
        prop_assert_eq!(&run(4, batch_size), &base);
    }
}

/// SHARON flattens `Travel+` into `SEQ(X, Travel×j)` for `j = 1..l`. With
/// `l` at least the stream length no match is cut short, so on the
/// paper's shared-Kleene workload (`SEQ(X, Travel+)`, `COUNT(*)`,
/// `GROUP BY district`) it counts exactly what GRETA counts — every
/// district, every window instance, tumbling and sliding.
#[test]
fn sharon_with_a_long_enough_flattening_equals_greta() {
    use hamlet_baselines::SharonEngine;
    use hamlet_query::Window;
    use hamlet_stream::{ridesharing, GenConfig};
    let reg = ridesharing::registry();
    for (seed, within, slide) in [
        (1, 10, 10),
        (2, 30, 30),
        (3, 60, 60),
        (4, 30, 10),
        (5, 20, 5),
    ] {
        let cfg = GenConfig {
            events_per_min: 120,
            minutes: 1,
            mean_burst: 8.0,
            num_groups: 4,
            group_skew: 0.0,
            seed,
            max_lateness: 0,
        };
        let events = ridesharing::generate(&reg, &cfg);
        let mut queries = ridesharing::workload_shared_kleene(&reg, 6, within);
        for q in &mut queries {
            q.window = Window::new(within, slide);
        }
        let mut sharon =
            SharonEngine::new(reg.clone(), queries.clone(), events.len()).expect("flattens");
        let mut got: Vec<WindowResult> = events.iter().flat_map(|e| sharon.process(e)).collect();
        got.extend(sharon.flush());
        let mut want = run_greta(&reg, &queries, &events);
        hamlet_core::sort_results(&mut got);
        hamlet_core::sort_results(&mut want);
        assert!(
            want.iter().any(|r| r.value.as_count() > 0),
            "seed {seed}: the stream matches"
        );
        assert_eq!(got, want, "seed {seed}, WITHIN {within} SLIDE {slide}");
    }
}

/// One share group of 19 `SEQ(H_i, B+)` members, each with a head type of
/// its own (20 types): every `B` burst deactivates the open graphlets of
/// every head type seen since the last one, and every third member's
/// selection on `B` makes the dynamic optimizer split and merge. Returns
/// the registry, the queries under `window` and a stream of head bursts of
/// random types between `B` bursts.
fn many_heads_workload(window: &str) -> (Arc<TypeRegistry>, Vec<Query>, Vec<Event>) {
    let mut reg = TypeRegistry::new();
    let heads: Vec<String> = (0..19).map(|i| format!("H{i}")).collect();
    for t in heads.iter().map(String::as_str).chain(["B"]) {
        reg.register(t, &["g", "v"]);
    }
    let reg = Arc::new(reg);
    let queries = (0..19u32)
        .map(|i| {
            let pred = match i % 3 {
                0 => format!(" WHERE B.v < {}.5", 2 + i % 7),
                _ => String::new(),
            };
            let text = format!("RETURN COUNT(*) PATTERN SEQ(H{i}, B+){pred} GROUP BY g {window}");
            parse_query(&reg, i, &text).expect("query parses")
        })
        .collect();
    let mut s = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s >> 11
    };
    let events = (0..240u64)
        .map(|t| {
            let r = next();
            // B in bursts of 6, some across a window boundary, and head
            // bursts of random types between them — half of them the head
            // of a member with a selection, which the optimizer may leave
            // out of the shared graphlet that the head then leaves open.
            let head = if r % 2 == 0 { r % 19 } else { r % 7 * 3 };
            let name = if t % 9 < 6 {
                "B"
            } else {
                &heads[head as usize]
            };
            ev(&reg, name, t, (t / 9 % 2) as i64, (r >> 8) as f64 % 10.0)
        })
        .collect();
    (reg, queries, events)
}

#[test]
fn many_head_types_in_one_group_agree() {
    for window in ["WITHIN 40", "WITHIN 40 SLIDE 20"] {
        let (reg, queries, events) = many_heads_workload(window);
        let eng = HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default());
        assert_eq!(eng.unwrap().num_groups(), 1, "{window}");
        let base = normalize(run_greta(&reg, &queries, &events));
        assert!(base.len() > 19, "the stream matches: {}", base.len());
        for policy in [
            SharingPolicy::Dynamic,
            SharingPolicy::AlwaysShare,
            SharingPolicy::NeverShare,
        ] {
            let got = normalize(run_hamlet(&reg, &queries, &events, policy));
            assert_eq!(base, got, "{window}, {policy:?} vs GRETA");
        }
        // Dynamic both splits and merges on this stream.
        let mut eng = HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default());
        let eng = eng.as_mut().unwrap();
        let _ = eng.process_batch(&events);
        let _ = eng.flush();
        let runs = eng.stats().runs;
        assert!(runs.splits > 0 && runs.merges > 0, "{window}: {runs:?}");
    }
}

/// A full cut of the many-head-types group mid-stream, restored into a
/// fresh engine: the same accounted state right after the restore, and
/// the same results to the end of the stream.
#[test]
fn many_head_types_restore_mid_stream() {
    use hamlet_core::{CutKind, Snapshot};
    for window in ["WITHIN 40", "WITHIN 40 SLIDE 20"] {
        let (reg, queries, events) = many_heads_workload(window);
        let mk = || HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default());
        for cut in [61, 123, 190] {
            let mut live = mk().unwrap();
            let _ = live.process_batch(&events[..cut]);
            let record = live.cut(CutKind::Full).expect("engine cuts");
            let mut restored = mk().unwrap();
            restored.restore_chain(&[record]).expect("own cut restores");
            assert_eq!(
                restored.state_bytes(),
                live.state_bytes(),
                "{window}, cut {cut}"
            );
            for e in &events[cut..] {
                assert_eq!(restored.process(e), live.process(e), "{window}, cut {cut}");
            }
            assert_eq!(restored.flush(), live.flush(), "{window}, cut {cut}");
        }
    }
}
