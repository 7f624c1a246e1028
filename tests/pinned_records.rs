//! Records the four older fixtures do not pin, cut before the checkpoint
//! codec became one `Codec` description per record: a pipeline container
//! (`HMPL` v2) frozen with its reorder buffer full, a parallel container
//! (`HMPC` v1) of two shards, and an `HMEN` v5 blob cut after a churn —
//! at epoch 1, with the drained halves of an OR and an AND query waiting
//! for their partners, over a string partition key. Each must decode and
//! re-encode to the very same bytes, and the two that restore must finish
//! the stream as the engine that cut them did (pinned beside them).

mod common;

use common::{fixture, unhex};
use hamlet::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Four types over a string key `g` and a number `v`; an OR query and an
/// AND query whose left halves share a group with a plain query, and the
/// query a churn adds to that group (which drains the halves).
fn workload() -> (Arc<TypeRegistry>, Vec<Query>, Query) {
    let mut reg = TypeRegistry::new();
    for ty in ["A", "B", "C", "D"] {
        reg.register(ty, &["g", "v"]);
    }
    let reg = Arc::new(reg);
    let q = |id, text: &str| parse_query(&reg, id, text).expect("query parses");
    let queries = vec![
        q(
            1,
            "RETURN COUNT(*) PATTERN SEQ(A, B+) OR SEQ(C, D+) GROUP BY g WITHIN 10",
        ),
        q(
            2,
            "RETURN COUNT(*) PATTERN SEQ(A, B+) AND SEQ(C, D+) GROUP BY g WITHIN 10",
        ),
        q(
            3,
            "RETURN SUM(B.v) PATTERN SEQ(A, B+) WHERE B.v < 5 GROUP BY g WITHIN 10",
        ),
    ];
    let added = q(4, "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g WITHIN 10");
    (reg, queries, added)
}

/// The stream the records were cut on: bursty, three string keys,
/// non-decreasing time — fixed forever.
fn events(reg: &TypeRegistry) -> Vec<Event> {
    let mut s = 0x2545_F491_4F6C_DD1Du64;
    let mut step = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut t = 0u64;
    (0..240)
        .map(|_| {
            t += step() % 2;
            let ty = ["A", "B", "B", "C", "D", "D"][(step() % 6) as usize];
            let key = format!("k{}", step() % 3);
            EventBuilder::new(reg, reg.type_id(ty).expect("registered"), t)
                .attr("g", key.as_str())
                .attr("v", (step() % 8) as f64)
                .build()
        })
        .collect()
}

/// Events processed before the cuts (the churn of the `HMEN` blob comes
/// right after them).
const CUT: usize = 121;

/// One result per line, the form `tests/fixtures/*.expected` holds.
fn lines(results: &[WindowResult]) -> Vec<String> {
    (results.iter())
        .map(|r| {
            format!(
                "{} {:?} {} {:?}",
                r.query.0,
                r.group_key,
                r.window_start.ticks(),
                r.value
            )
        })
        .collect()
}

/// A pipeline frozen mid-stream at two workers: the container decodes and
/// re-encodes to its own bytes, buffered events, cursor and clock
/// included.
#[test]
fn hmpl_v2_container_re_encodes_byte_identically() {
    let blob = unhex(&fixture("hmpl_v2_frozen.hex")[0]);
    assert_eq!(Checkpoint::from_bytes(blob.clone()).unwrap().version(), 2);
    let ck = PipelineCheckpoint::from_bytes(&blob).unwrap();
    assert_eq!(ck.workers(), 2);
    assert!(ck.buffered_len() > 0, "frozen with events held");
    assert!(ck.events_pulled() > 0);
    assert!(ck.elapsed() > Duration::ZERO);
    assert_eq!(ck.to_bytes(), blob);
}

/// A two-shard session cut mid-stream restores into a fresh session and
/// finishes the stream as the session that cut it did.
#[test]
fn hmpc_v1_container_restores_and_finishes_identically() {
    let (reg, queries, _) = workload();
    let events = events(&reg);
    let par = ParallelEngine::new(reg.clone(), queries, EngineConfig::default(), 2).unwrap();
    let ck = Checkpoint::from_bytes(unhex(&fixture("hmpc_v1_cut.hex")[0])).unwrap();
    assert_eq!(ck.version(), 1);
    let mut survivor = par.session();
    survivor.restore_chain(&[ck]).unwrap();
    let mut rest = survivor.process(&events[CUT..]);
    rest.extend(survivor.flush());
    assert!(rest.len() > 20, "the cut left most of the stream to go");
    assert_eq!(lines(&rest), fixture("hmpc_v1_cut.expected"));

    let mut never_stopped = par.session();
    never_stopped.process(&events[..CUT]);
    let mut want = never_stopped.process(&events[CUT..]);
    want.extend(never_stopped.flush());
    assert_eq!(rest, want);
}

/// An engine blob cut right after a churn — epoch 1, the OR and AND
/// queries' left halves drained and waiting — restores into an engine
/// with the same churn history, re-encodes to the very same bytes, and
/// finishes the stream as the engine that cut it did.
#[test]
fn hmen_v5_blob_after_churn_re_encodes_and_finishes_identically() {
    let (reg, queries, added) = workload();
    let events = events(&reg);
    let mk = || {
        let mut eng =
            HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
        eng.add_query(added.clone()).unwrap();
        eng
    };
    let blob = unhex(&fixture("hmen_v5_churned.hex")[0]);
    let ck = Checkpoint::from_bytes(blob.clone()).unwrap();
    assert_eq!((ck.version(), ck.epoch()), (5, 1));
    let mut survivor = mk();
    survivor.restore(&blob).unwrap();
    assert_eq!(survivor.checkpoint(), blob);
    let mut rest: Vec<WindowResult> = events[CUT..]
        .iter()
        .flat_map(|e| survivor.process(e))
        .collect();
    rest.extend(survivor.flush());
    assert_eq!(lines(&rest), fixture("hmen_v5_churned.expected"));

    let mut never_stopped =
        HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
    for e in &events[..CUT] {
        never_stopped.process(e);
    }
    never_stopped.add_query(added.clone()).unwrap();
    let mut want: Vec<WindowResult> = events[CUT..]
        .iter()
        .flat_map(|e| never_stopped.process(e))
        .collect();
    want.extend(never_stopped.flush());
    assert_eq!(rest, want);
}
