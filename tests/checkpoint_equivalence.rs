//! Recovery equivalence: kill a run at an arbitrary point, restore from
//! its checkpoint, continue — the output must be **byte-identical** to a
//! run that never stopped. Proven at every layer of the stack:
//!
//! * the single engine (`HamletEngine::checkpoint`/`restore`), in raw
//!   emission order, including the round-trip identity
//!   `checkpoint(restore(blob)) == blob`;
//! * the parallel executor (`ParallelSession` + `Snapshot::cut` /
//!   `restore_chain`) at 1 and 4 workers, in canonical order;
//! * the online pipeline (`PipelineHandle::checkpoint`, its container
//!   appended to a store, `PipelineBuilder::resume_from`) at 1 and 4
//!   workers, for in-order *and* bounded-late delivery — the reorder
//!   buffer and source cursor travel inside the checkpoint;
//! * a proptest over stream shapes and checkpoint positions.
//!
//! This is the acceptance property of the checkpoint subsystem: recovery
//! may never lose a window, emit one twice, or change a single row.

mod common;

use common::{finish_pinned, fixture_events, fixture_workload, pinned, FIXTURE_CUT, PINNED};
use hamlet::hamlet_core::checkpoint::ENGINE_VERSION;
use hamlet::prelude::*;
use hamlet_stream::{bounded_delay_shuffle, max_observed_lateness, ridesharing};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn workload() -> (Arc<TypeRegistry>, Vec<Query>) {
    let reg = ridesharing::registry();
    let queries = ridesharing::workload_shared_kleene(&reg, 6, 30);
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

/// Offline reference: one engine, events in slice order, then flush.
/// Raw emission order — no normalization.
fn offline(reg: &Arc<TypeRegistry>, queries: &[Query], events: &[Event]) -> Vec<WindowResult> {
    let mut eng = HamletEngine::new(reg.clone(), queries.to_vec(), EngineConfig::default())
        .expect("engine builds");
    let mut out = Vec::new();
    for e in events {
        out.extend(eng.process(e));
    }
    out.extend(eng.flush());
    out
}

/// A record's tail holds two measured durations (`decision_time`, the
/// latency recorder); with `obs` and `track_latency` off nothing reads
/// the clock, and two fresh engines over the fixture workload cut the
/// same bytes at `FIXTURE_CUT` (docs/checkpoint-format.md,
/// "Determinism").
#[test]
fn engines_without_clocks_cut_identical_records() {
    let (reg, queries) = fixture_workload();
    let events = fixture_events(&reg);
    let cut = || {
        let cfg = EngineConfig {
            obs: false,
            track_latency: false,
            ..EngineConfig::default()
        };
        let mut eng = HamletEngine::new(reg.clone(), queries.clone(), cfg).unwrap();
        for e in &events[..FIXTURE_CUT] {
            eng.process(e);
        }
        assert!(eng.stats().decisions > 0, "the cut follows decisions");
        eng.checkpoint()
    };
    assert!(cut() == cut(), "two clock-free cuts differ");
}

/// Single engine: process a prefix, checkpoint, **drop the engine**
/// (the crash), restore into a fresh one, continue — per-event output
/// and the final flush are byte-identical to the uninterrupted run, in
/// raw emission order; and the restored engine's own checkpoint equals
/// the original blob.
#[test]
fn engine_kill_restore_continue_is_byte_identical() {
    let (reg, queries) = workload();
    let events = stream(&reg, 42, 2_000, 12);
    let mk = || HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();

    let mut gold_engine = mk();
    let mut gold: Vec<Vec<WindowResult>> = Vec::new();
    for e in &events {
        gold.push(gold_engine.process(e));
    }
    let gold_flush = gold_engine.flush();
    assert!(
        gold.iter().any(|r| !r.is_empty()),
        "workload emits mid-stream"
    );

    for cut in [0, events.len() / 3, events.len() - 1, events.len()] {
        let mut victim = mk();
        for e in &events[..cut] {
            let _ = victim.process(e);
        }
        let blob = victim.checkpoint();
        drop(victim); // the crash

        let mut survivor = mk();
        survivor.restore(&blob).unwrap();
        assert_eq!(
            survivor.checkpoint(),
            blob,
            "cut {cut}: checkpoint/restore round trip is not the identity"
        );
        for (i, e) in events[cut..].iter().enumerate() {
            assert_eq!(
                survivor.process(e),
                gold[cut + i],
                "cut {cut}: event {} diverged after restore",
                cut + i
            );
        }
        assert_eq!(survivor.flush(), gold_flush, "cut {cut}: flush diverged");
    }
}

/// Kill a parallel session after `events[..cut]`, restore its full cut
/// (through the serialized container, as a crash-recovery path would)
/// into a fresh session, finish the stream: everything emitted, in
/// canonical order.
fn parallel_kill_restore_continue(
    par: &ParallelEngine,
    events: &[Event],
    cut: usize,
) -> Vec<WindowResult> {
    let mut victim = par.session();
    let mut all = victim.process(&events[..cut]);
    let container = victim
        .cut(CutKind::Full)
        .expect("session cuts")
        .into_bytes();
    drop(victim); // the crash
    let mut survivor = par.session();
    let record = Checkpoint::from_bytes(container).expect("container peeks");
    survivor
        .restore_chain(&[record])
        .expect("own checkpoint restores");
    all.extend(survivor.process(&events[cut..]));
    all.extend(survivor.flush());
    sort_results(&mut all);
    all
}

/// Parallel executor at 1 and 4 workers: a coordinated per-shard cut at
/// an arbitrary barrier, restored into a fresh session, equals one
/// uninterrupted run in canonical order — zero rows included.
#[test]
fn parallel_checkpoint_resume_is_identical_at_1_and_4_workers() {
    let (reg, queries) = workload();
    let events = stream(&reg, 7, 3_000, 24);
    for workers in [1u32, 4] {
        let eng = ParallelEngine::new(
            reg.clone(),
            queries.clone(),
            EngineConfig::default(),
            workers,
        )
        .unwrap();
        let gold = eng.run(&events);
        assert!(!gold.results.is_empty());
        for cut in [0, events.len() / 2, events.len()] {
            assert_eq!(
                parallel_kill_restore_continue(&eng, &events, cut),
                gold.results,
                "{workers} workers, cut {cut}: recovery changed the output"
            );
        }
    }
}

/// Waits until a pipeline condition holds (bounded, so a wedged pipeline
/// fails the test instead of hanging CI).
fn wait_for<S: Sink>(handle: &PipelineHandle<S>, cond: impl Fn(&MetricsSnapshot) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if cond(&handle.metrics()) {
            return;
        }
        assert!(Instant::now() < deadline, "pipeline made no progress");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A store holding one frozen pipeline as a chain of one — how a
/// `PipelineHandle::checkpoint` container is resumed.
fn store_of(frozen: &PipelineCheckpoint) -> MemStore {
    let store = MemStore::new();
    let record = Checkpoint::from_bytes(frozen.to_bytes()).expect("container peeks");
    store.append(&record).expect("a full record starts a chain");
    store
}

/// Online pipeline, in-order stream, deterministic barrier: run a
/// prefix to completion, checkpoint, resume with the remainder — the
/// union of pre- and post-barrier sink contents equals the offline run
/// (raw order at 1 worker, canonical at 4).
#[test]
fn pipeline_checkpoint_resume_in_order_1_and_4_workers() {
    let (reg, queries) = workload();
    let events = stream(&reg, 11, 2_000, 12);
    let expected_raw = offline(&reg, &queries, &events);
    let cut = events.len() / 2;
    for workers in [1u32, 4] {
        let handle = Pipeline::builder(reg.clone(), queries.clone())
            .workers(workers)
            .spawn(ReplaySource::new(events[..cut].to_vec()), VecSink::new())
            .unwrap();
        wait_for(&handle, |m| m.source_done && m.queued() == 0);
        let frozen = handle.checkpoint();
        assert_eq!(frozen.checkpoint.events_pulled(), cut as u64);
        assert!(frozen.checkpoint.engine_bytes() > 0);

        // Persist, reload, resume in a "new process".
        let store = store_of(&frozen.checkpoint);
        let stored = store.load_chain().unwrap();
        let restored = PipelineCheckpoint::from_bytes(stored[0].as_bytes()).unwrap();
        let cursor = restored.events_pulled() as usize;
        let report = Pipeline::builder(reg.clone(), queries.clone())
            .workers(workers)
            .resume_from(
                &store,
                ReplaySource::new(events[cursor..].to_vec()),
                frozen.sink,
            )
            .unwrap()
            .drain();
        assert_eq!(report.events, events.len() as u64, "counters continue");
        if workers == 1 {
            assert_eq!(
                report.sink.results, expected_raw,
                "1 worker: recovery changed output or order"
            );
        } else {
            let mut got = report.sink.results;
            sort_results(&mut got);
            let mut want = expected_raw.clone();
            sort_results(&mut want);
            assert_eq!(got, want, "{workers} workers: recovery changed output");
        }
    }
}

/// Online pipeline under bounded-late delivery, checkpointed **live,
/// mid-flight** (the barrier lands wherever it lands — possibly with
/// events frozen in the reorder buffer): resuming with the remainder of
/// the shuffled stream still reproduces the in-order offline run
/// exactly, with nothing dropped and nothing duplicated.
#[test]
fn pipeline_checkpoint_resume_bounded_late_mid_flight() {
    let (reg, queries) = workload();
    let in_order = stream(&reg, 23, 4_000, 16);
    let lateness = 5u64;
    let mut delivered = in_order.clone();
    bounded_delay_shuffle(&mut delivered, lateness, 99);
    assert!(max_observed_lateness(&delivered) > 0, "stream is shuffled");
    let mut expected = offline(&reg, &queries, &in_order);
    sort_results(&mut expected);

    for workers in [1u32, 4] {
        // Pace the source so the checkpoint reliably lands mid-stream:
        // at 5k ev/s the ~4k-event stream takes ~800ms, and the barrier
        // fires ~40ms in — whole-second scheduling margin, so a stalled
        // CI runner cannot turn this into an end-of-stream checkpoint.
        let paced = RateLimitedSource::new(ReplaySource::new(delivered.clone()), 5_000.0);
        let handle = Pipeline::builder(reg.clone(), queries.clone())
            .workers(workers)
            .watermark(BoundedLateness::new(lateness))
            .spawn(paced, VecSink::new())
            .unwrap();
        wait_for(&handle, |m| m.ingested > 200);
        let frozen = handle.checkpoint();
        let cursor = frozen.checkpoint.events_pulled() as usize;
        assert!(
            cursor < delivered.len(),
            "{workers} workers: barrier should land mid-stream (cursor {cursor})"
        );

        let report = Pipeline::builder(reg.clone(), queries.clone())
            .workers(workers)
            .watermark(BoundedLateness::new(lateness))
            .resume_from(
                &store_of(&frozen.checkpoint),
                ReplaySource::new(delivered[cursor..].to_vec()),
                frozen.sink,
            )
            .unwrap()
            .drain();
        assert_eq!(report.late, 0, "lateness within slack drops nothing");
        assert_eq!(report.events, delivered.len() as u64);
        let mut got = report.sink.results;
        sort_results(&mut got);
        assert_eq!(
            got, expected,
            "{workers} workers: bounded-late recovery diverged (cursor {cursor})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random stream shapes × random checkpoint positions: engine-level
    /// kill-restore-continue is byte-identical, and the 2-worker
    /// parallel path agrees canonically.
    #[test]
    fn random_streams_and_cuts_recover_identically(
        seed in 0u64..10_000,
        mean_burst in 1.0f64..40.0,
        groups in 1u64..16,
        cut_permille in 0u64..=1_000,
    ) {
        let reg = ridesharing::registry();
        let queries = ridesharing::workload_shared_kleene(&reg, 4, 20);
        let events = ridesharing::generate(&reg, &GenConfig {
            events_per_min: 600,
            minutes: 1,
            mean_burst,
            num_groups: groups,
            group_skew: 0.0,
            seed,
            max_lateness: 0,
        });
        let cut = (events.len() as u64 * cut_permille / 1_000) as usize;

        // Engine level, raw order.
        let mk = || HamletEngine::new(
            reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
        let mut victim = mk();
        for e in &events[..cut] {
            let _ = victim.process(e);
        }
        let blob = victim.checkpoint();
        drop(victim);
        let mut survivor = mk();
        survivor.restore(&blob).unwrap();
        prop_assert_eq!(&survivor.checkpoint(), &blob, "round trip, cut {}", cut);
        let mut recovered = Vec::new();
        for e in &events[cut..] {
            recovered.extend(survivor.process(e));
        }
        recovered.extend(survivor.flush());
        let mut gold_suffix = mk();
        let mut expected_suffix = Vec::new();
        for (i, e) in events.iter().enumerate() {
            let out = gold_suffix.process(e);
            if i >= cut {
                expected_suffix.extend(out);
            }
        }
        expected_suffix.extend(gold_suffix.flush());
        prop_assert_eq!(&recovered, &expected_suffix, "seed {} cut {}", seed, cut);

        // Parallel, canonical order.
        let par = ParallelEngine::new(
            reg.clone(), queries.clone(), EngineConfig::default(), 2).unwrap();
        let gold_par = par.run(&events);
        let all = parallel_kill_restore_continue(&par, &events, cut);
        prop_assert_eq!(&all, &gold_par.results, "parallel seed {} cut {}", seed, cut);
    }
}

// ---- Format compatibility: every pinned record ----------------------

/// A fresh engine over the fixture workload.
fn fixture_engine(reg: &Arc<TypeRegistry>, queries: &[Query]) -> HamletEngine {
    HamletEngine::new(reg.clone(), queries.to_vec(), EngineConfig::default()).expect("builds")
}

/// Every pinned blob of the fixture workload (`PINNED`, one row per
/// `HMEN` version read) restores, carries its version, and finishes the
/// stream as the engine that cut it did and as an engine that never
/// stopped. The current version's blob also re-encodes to the very same
/// bytes: the encoder writes what the pinned cut wrote.
#[test]
fn pinned_blobs_restore_and_finish_identically() {
    let (reg, queries) = fixture_workload();
    let events = fixture_events(&reg);
    for row in PINNED.iter().filter(|p| !p.is_chain()) {
        let blob = row.records().remove(0);
        let ck = Checkpoint::from_bytes(blob.clone()).unwrap();
        assert_eq!(ck.version(), row.version, "{}", row.name);
        let mut survivor = fixture_engine(&reg, &queries);
        survivor.restore(&blob).unwrap();
        if row.is_current() {
            assert_eq!(survivor.checkpoint(), blob, "{}", row.name);
        }
        let fresh = fixture_engine(&reg, &queries);
        let rest = finish_pinned(row.name, &events, row.cut(), survivor, fresh, |_| {});
        assert!(rest.len() > 100, "the cut left most of the stream to go");
    }
}

/// An `HMEN` v4 blob cut before bursts became cell columns — mid-burst, its
/// pending bursts still cloned events (plus, in the uniform group, the
/// old mixed events + count-only tail) — restores into this engine,
/// which buffers the same bursts as cell columns and bare counts: its
/// re-cut is the current version, smaller, round-trips, and the state
/// restored from it finishes the stream as pinned.
#[test]
fn v4_blob_cut_mid_burst_restores_and_finishes_identically() {
    let (reg, queries) = fixture_workload();
    let events = fixture_events(&reg);
    let row = pinned("hmen_v4_midburst");
    let blob = row.records().remove(0);
    let mut survivor = fixture_engine(&reg, &queries);
    survivor.restore(&blob).unwrap();

    let recut = survivor.checkpoint();
    let version = Checkpoint::from_bytes(recut.clone()).unwrap().version();
    assert_eq!(version, ENGINE_VERSION);
    assert!(
        recut.len() < blob.len(),
        "cells and counts are smaller than events"
    );
    let mut again = fixture_engine(&reg, &queries);
    again.restore(&recut).unwrap();
    assert_eq!(
        again.checkpoint(),
        recut,
        "checkpoint → restore → checkpoint"
    );
    let fresh = fixture_engine(&reg, &queries);
    finish_pinned(row.name, &events, row.cut(), again, fresh, |_| {});
}

/// An `HMEN` v5 blob, cut before the record codec moved to
/// `core::record`, restores; its estimator sections are read and
/// dropped, so its re-cut is the current version, smaller, and
/// re-encodes to the very same bytes from there on — the byte-for-byte
/// pin of the layout itself is the current row of `PINNED` — and the
/// state restored from the re-cut finishes the stream as pinned.
#[test]
fn v5_blob_cut_at_the_parent_re_encodes_byte_identically() {
    let (reg, queries) = fixture_workload();
    let events = fixture_events(&reg);
    let row = pinned("hmen_v5_midburst");
    let blob = row.records().remove(0);
    let mut survivor = fixture_engine(&reg, &queries);
    survivor.restore(&blob).unwrap();
    let recut = survivor.checkpoint();
    let version = Checkpoint::from_bytes(recut.clone()).unwrap().version();
    assert_eq!(version, ENGINE_VERSION);
    assert!(recut.len() < blob.len(), "the estimator sections are gone");
    let mut again = fixture_engine(&reg, &queries);
    again.restore(&recut).unwrap();
    assert_eq!(again.checkpoint(), recut);
    let fresh = fixture_engine(&reg, &queries);
    finish_pinned(row.name, &events, row.cut(), again, fresh, |_| {});
}

/// The same for pinned chains, a base plus a delta per `HMDL` version
/// read: v1 (wrapping an `HMEN` v4 blob, its delta's run-state records
/// the v4 ones) cut before bursts became cell columns, v2 before the
/// codec moved to `core::record`, and the current one.
#[test]
fn pinned_delta_chains_restore_and_finish_identically() {
    let (reg, queries) = fixture_workload();
    let events = fixture_events(&reg);
    for row in PINNED.iter().filter(|p| p.is_chain()) {
        let chain: Vec<Checkpoint> = (row.records().into_iter())
            .map(|bytes| Checkpoint::from_bytes(bytes).unwrap())
            .collect();
        assert!(!chain[0].is_delta() && chain[1].is_delta(), "{}", row.name);
        assert_eq!(chain[1].version(), row.version, "{}", row.name);
        let mut survivor = fixture_engine(&reg, &queries);
        survivor.restore_chain(&chain).unwrap();
        let fresh = fixture_engine(&reg, &queries);
        finish_pinned(row.name, &events, row.cut(), survivor, fresh, |_| {});
    }
}
