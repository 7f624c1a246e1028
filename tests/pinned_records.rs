//! Records the fixture workload's records do not pin: a pipeline
//! container (`HMPL` v2) frozen with its reorder buffer full, a parallel
//! container (`HMPC` v1) of two shards, and `HMEN` blobs cut after a
//! churn — at epoch 1, with the drained halves of an OR and an AND query
//! waiting for their partners, over a string partition key — in v5, v6
//! and the current v7. The first three were cut before the checkpoint
//! codec became one `Codec` description per record. Each record of a
//! version this build writes must decode and re-encode to the very same
//! bytes, and each that restores must finish the stream as the engine
//! that cut it did (pinned beside it).

mod common;

use common::{finish_pinned, fixture, unhex};
use hamlet::hamlet_core::checkpoint::ENGINE_VERSION;
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

/// Events processed before the cuts (the churn of the `HMEN` blobs comes
/// right after them).
const CUT: usize = 121;

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
    let rest = finish_pinned("hmpc_v1_cut", &events, CUT, survivor, par.session(), |_| {});
    assert!(rest.len() > 20, "the cut left most of the stream to go");
}

/// An engine with the churned blobs' churn history: built over the
/// initial queries, then `added`.
fn churned_engine(reg: &Arc<TypeRegistry>, queries: &[Query], added: &Query) -> HamletEngine {
    let mut eng =
        HamletEngine::new(reg.clone(), queries.to_vec(), EngineConfig::default()).expect("builds");
    eng.add_query(added.clone()).expect("the query is new");
    eng
}

/// Restores the churned blob pinned as `name` (at `version`, epoch 1)
/// into an engine with the same churn history, and finishes the stream
/// as the engine that cut it did and as one that never stopped (the
/// churn applied right after the cut's events). Returns the restored
/// engine's own checkpoint, taken before it went on.
fn finish_churned(name: &str, version: u16) -> (Vec<u8>, Vec<u8>) {
    let (reg, queries, added) = workload();
    let events = events(&reg);
    let blob = unhex(&fixture(&format!("{name}.hex"))[0]);
    let ck = Checkpoint::from_bytes(blob.clone()).expect("peeks");
    assert_eq!((ck.version(), ck.epoch()), (version, 1), "{name}");
    let mut survivor = churned_engine(&reg, &queries, &added);
    survivor.restore(&blob).expect("restores");
    let recut = survivor.checkpoint();
    let fresh = HamletEngine::new(reg.clone(), queries, EngineConfig::default()).expect("builds");
    finish_pinned(name, &events, CUT, survivor, fresh, |eng| {
        eng.add_query(added).expect("the query is new");
    });
    (blob, recut)
}

/// An `HMEN` v5 engine blob cut right after a churn — epoch 1, the OR
/// and AND queries' left halves drained and waiting — restores into an
/// engine with the same churn history and finishes the stream as the
/// engine that cut it did. Its estimator sections are dropped, so its
/// re-cut is the current version at the same epoch and re-encodes to the
/// very same bytes from there on; the byte-for-byte pin of the layout is
/// the current version's (`hmen_v7_churned`).
#[test]
fn hmen_v5_blob_after_churn_re_encodes_and_finishes_identically() {
    let (blob, recut) = finish_churned("hmen_v5_churned", 5);
    let ck = Checkpoint::from_bytes(recut.clone()).unwrap();
    assert_eq!((ck.version(), ck.epoch()), (ENGINE_VERSION, 1));
    assert!(recut.len() < blob.len(), "the estimator sections are gone");
    let (reg, queries, added) = workload();
    let mut again = churned_engine(&reg, &queries, &added);
    again.restore(&recut).unwrap();
    assert_eq!(again.checkpoint(), recut);
}

/// The same blob cut as `HMEN` v6 — every run written densely — restores
/// and finishes the stream as pinned. Its runs are read as v7 runs with
/// every type written, so its re-cut is the current version at the same
/// epoch, no larger, and re-encodes to the very same bytes from there on.
#[test]
fn hmen_v6_blob_after_churn_re_encodes_and_finishes_identically() {
    let (blob, recut) = finish_churned("hmen_v6_churned", 6);
    let ck = Checkpoint::from_bytes(recut.clone()).unwrap();
    assert_eq!((ck.version(), ck.epoch()), (ENGINE_VERSION, 1));
    assert!(recut.len() <= blob.len(), "no field grew");
    let (reg, queries, added) = workload();
    let mut again = churned_engine(&reg, &queries, &added);
    again.restore(&recut).unwrap();
    assert_eq!(again.checkpoint(), recut);
}

/// The same blob cut by the current encoder — each run as its difference
/// from a fresh one — re-encodes to the very same bytes, and finishes the
/// stream as pinned.
#[test]
fn hmen_v7_blob_after_churn_re_encodes_and_finishes_identically() {
    let (blob, recut) = finish_churned("hmen_v7_churned", 7);
    assert_eq!(recut, blob);
}
