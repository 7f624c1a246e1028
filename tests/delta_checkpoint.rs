//! Delta-checkpoint recovery: cut a chain of one base plus incremental
//! deltas at a fixed cadence (with periodic compaction back into a full
//! base), kill the run **mid-delta-interval**, restore from
//! base + ordered delta replay — and prove the survivor is
//! **byte-identical** to the uninterrupted run's state at the barrier
//! (the full checkpoint that run cuts there, wall-clock telemetry
//! included) and to a full-checkpoint restore, then continues to emit
//! exactly the uninterrupted run's suffix. Proven at every layer:
//!
//! * the single engine, through [`Snapshot`] + [`MemStore`];
//! * [`ParallelSession`] at 1 and 4 workers, whose `HMPC` container
//!   chains decompose into per-shard chains;
//! * the online pipeline (`checkpoint_store` / `checkpoint_every` /
//!   `resume_from`) at 1 and 4 workers, through an on-disk [`DirStore`];
//! * a proptest over stream shapes × cut cadences × compaction points.
//!
//! Plus the rejection pins: a chain with a missing link, a chain with no
//! base, and a chain whose records straddle a workload-churn epoch all
//! fail loudly with a typed [`CheckpointError`] before any state commits.

use hamlet::prelude::*;
use hamlet_stream::ridesharing;
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

/// Drives `eng` over `events`, cutting into `store` after every
/// `cadence` events — `Delta` requested, with every `compact_every`-th
/// cut requested `Full` (the compaction). Returns the emissions, the
/// stream position of the last cut, and the engine's **full** checkpoint
/// captured at that barrier — the byte-identity reference. (A reference
/// from a separate run would not do: checkpoints carry the engine's
/// wall-clock telemetry — the paper's §6.2 decision-time metric — so
/// only a blob cut by the same run at the same barrier can match
/// bit-for-bit.)
fn drive_with_cuts(
    eng: &mut HamletEngine,
    store: &dyn CheckpointStore,
    events: &[Event],
    cadence: usize,
    compact_every: usize,
) -> (Vec<WindowResult>, usize, Vec<u8>) {
    let mut out = Vec::new();
    let mut cuts = 0usize;
    let mut last_cut = 0usize;
    let mut full_at_cut = Vec::new();
    for (i, e) in events.iter().enumerate() {
        out.extend(eng.process(e));
        if (i + 1) % cadence == 0 {
            cuts += 1;
            let kind = if compact_every <= 1 || cuts.is_multiple_of(compact_every) {
                CutKind::Full
            } else {
                CutKind::Delta
            };
            store.append(&eng.cut(kind).expect("cut")).expect("append");
            last_cut = i + 1;
            full_at_cut = eng.checkpoint();
        }
    }
    (out, last_cut, full_at_cut)
}

/// Engine level: cadence cuts with compaction into a [`MemStore`], kill
/// mid-delta-interval, restore a fresh engine from the stored chain.
/// The survivor's full checkpoint is byte-identical to (a) the full
/// checkpoint the uninterrupted run cut at the same barrier and (b) an
/// engine restored from that full checkpoint — then both the per-event
/// suffix and the final flush match the uninterrupted run.
#[test]
fn engine_chain_restore_is_byte_identical_and_continues() {
    let (reg, queries) = workload();
    let events = stream(&reg, 42, 2_000, 12);
    let mk = || HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
    let cadence = 300;
    let compact_every = 3;
    assert!(
        !events.len().is_multiple_of(cadence),
        "the kill must land mid-delta-interval"
    );

    let store = MemStore::new();
    let mut victim = mk();
    let (_, p, full) = drive_with_cuts(&mut victim, &store, &events, cadence, compact_every);
    drop(victim); // the crash — everything after the last cut is lost

    let chain = store.load_chain().unwrap();
    assert!(!chain.is_empty() && !chain[0].is_delta());
    assert!(
        chain[1..].iter().all(Checkpoint::is_delta),
        "compaction must have garbage-collected earlier bases"
    );
    // The last base is the newest compaction cut — or the first cut
    // ever, which auto-promotes to a base regardless of the request.
    let total_cuts = p / cadence;
    let last_full = if total_cuts >= compact_every {
        (total_cuts / compact_every) * compact_every
    } else {
        1
    };
    assert_eq!(
        chain.len(),
        total_cuts - last_full + 1,
        "chain = the last compacted base plus the deltas cut after it"
    );

    let mut survivor = mk();
    survivor.restore_chain(&chain).unwrap();
    assert_eq!(
        survivor.checkpoint(),
        full,
        "chain restore is not byte-identical to the uninterrupted run's state at the cut"
    );
    let mut from_full = mk();
    from_full.restore(&full).unwrap();
    assert_eq!(
        survivor.checkpoint(),
        from_full.checkpoint(),
        "chain restore is not byte-identical to a full-checkpoint restore"
    );

    // Semantic continuation: an uninterrupted twin emits the same suffix
    // (results carry no wall-clock telemetry, so a fresh run is a valid
    // oracle here).
    let mut oracle = mk();
    for e in &events[..p] {
        let _ = oracle.process(e);
    }
    for (i, e) in events[p..].iter().enumerate() {
        assert_eq!(
            survivor.process(e),
            oracle.process(e),
            "event {} diverged after chain restore",
            p + i
        );
    }
    assert_eq!(survivor.flush(), oracle.flush(), "flush diverged");
}

/// Parallel layer at 1 and 4 workers: a [`ParallelSession`] cuts its
/// `HMPC` container chain at a fixed cadence; a second session restored
/// from the store mid-delta-interval processes the remainder in
/// lockstep with the session that never crashed — identical emissions,
/// identical flush, and byte-identical subsequent cuts.
#[test]
fn parallel_session_chain_restore_is_identical_at_1_and_4_workers() {
    let (reg, queries) = workload();
    let events = stream(&reg, 7, 3_000, 24);
    let cadence = 470;
    let compact_every = 2;
    assert!(!events.len().is_multiple_of(cadence));

    for workers in [1u32, 4] {
        let par = ParallelEngine::new(
            reg.clone(),
            queries.clone(),
            EngineConfig::default(),
            workers,
        )
        .unwrap();
        let gold = par.run(&events);

        let store = MemStore::new();
        let mut live = par.session();
        let mut emitted = Vec::new();
        let mut cuts = 0usize;
        let mut p = 0usize;
        while p + cadence <= events.len() {
            emitted.extend(live.process(&events[p..p + cadence]));
            p += cadence;
            cuts += 1;
            let kind = if cuts.is_multiple_of(compact_every) {
                CutKind::Full
            } else {
                CutKind::Delta
            };
            store.append(&live.cut(kind).unwrap()).unwrap();
        }

        // The crash: a fresh session rebuilt from the store, now at the
        // same stream position as `live`. Before feeding anything, both
        // must cut byte-identical full containers — the restored state
        // equals the live one bit-for-bit, wall-clock telemetry
        // included, because the chain carries it. (After processing
        // resumes, each run accrues its own decision-time nanos, so the
        // comparison has to happen at the barrier.)
        let mut survivor = par.session();
        survivor
            .restore_chain(&store.load_chain().unwrap())
            .unwrap();
        assert_eq!(
            survivor.cut(CutKind::Full).unwrap().as_bytes(),
            live.cut(CutKind::Full).unwrap().as_bytes(),
            "{workers} workers: restored session is not byte-identical"
        );
        let tail_live = live.process(&events[p..]);
        let tail_survivor = survivor.process(&events[p..]);
        assert_eq!(tail_survivor, tail_live, "{workers} workers: tail diverged");
        emitted.extend(tail_live);
        let flush_live = live.flush();
        assert_eq!(
            survivor.flush(),
            flush_live,
            "{workers} workers: flush diverged"
        );
        emitted.extend(flush_live);

        let mut all = emitted;
        sort_results(&mut all);
        let mut want = gold.results.clone();
        sort_results(&mut want);
        assert_eq!(all, want, "{workers} workers: cuts perturbed the output");
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

/// A process-unique scratch directory for [`DirStore`] tests.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hamlet-delta-ck-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Online pipeline at 1 and 4 workers, backed by an on-disk
/// [`DirStore`]: cadence cuts while the pipeline runs, kill
/// mid-delta-interval (the stream prefix ends between two cuts),
/// `resume_from` the directory in a "new process" — the union of what
/// the killed run emitted **before its last cut** and what the resumed
/// run emits equals the uninterrupted offline run.
#[test]
fn pipeline_dirstore_chain_resume_at_1_and_4_workers() {
    let (reg, queries) = workload();
    let events = stream(&reg, 11, 2_000, 12);
    let expected = offline(&reg, &queries, &events);
    let kill = events.len() - events.len() / 5 - 1;

    for workers in [1u32, 4] {
        let dir = scratch_dir(&format!("pipe{workers}"));
        let store = Arc::new(DirStore::open(&dir).unwrap());
        let handle = Pipeline::builder(reg.clone(), queries.clone())
            .workers(workers)
            .checkpoint_store(store.clone())
            .checkpoint_every(250)
            .compact_every(3)
            .spawn(ReplaySource::new(events[..kill].to_vec()), VecSink::new())
            .unwrap();
        wait_for(&handle, |m| m.source_done && m.queued() == 0);
        let report = handle.drain();
        assert!(!report.sink.results.is_empty());

        // A "new process" reopens the directory and resumes from the
        // chain; events after the cut cursor are replayed (at-least-once
        // across the crash).
        let reopened = DirStore::open(&dir).unwrap();
        let chain = reopened.load_chain().unwrap();
        assert!(!chain.is_empty() && !chain[0].is_delta());
        let tail = PipelineCheckpoint::from_bytes(chain[chain.len() - 1].as_bytes()).unwrap();
        let cursor = tail.events_pulled() as usize;
        assert!(
            cursor < kill && cursor.is_multiple_of(250),
            "the kill must land mid-delta-interval (cursor {cursor})"
        );
        let resumed = Pipeline::builder(reg.clone(), queries.clone())
            .workers(workers)
            .resume_from(
                &reopened,
                ReplaySource::new(events[cursor..].to_vec()),
                VecSink::new(),
            )
            .unwrap()
            .drain();
        assert_eq!(resumed.events, events.len() as u64, "counters continue");

        // Pre-cut emissions, reconstructed deterministically: a session
        // over the cut prefix emits exactly what the killed pipeline's
        // workers emitted before the barrier (same routing, no flush).
        let par = ParallelEngine::new(
            reg.clone(),
            queries.clone(),
            EngineConfig::default(),
            workers,
        )
        .unwrap();
        let mut pre_oracle = par.session();
        let mut all = pre_oracle.process(&events[..cursor]);
        all.extend(resumed.sink.results);
        sort_results(&mut all);
        let mut want = expected.clone();
        sort_results(&mut want);
        assert_eq!(
            all, want,
            "{workers} workers: pre-cut emissions plus resumed run must equal offline"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A chain with a missing link (a delta removed from the middle) is
/// rejected with [`CheckpointError::Corrupt`] before any state commits,
/// as is a chain that holds deltas but no base at all.
#[test]
fn truncated_chains_are_rejected() {
    let (reg, queries) = workload();
    let events = stream(&reg, 5, 1_200, 8);
    let mk = || HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
    let store = MemStore::new();
    let mut eng = mk();
    // No compaction: base + 3 deltas.
    let _ = drive_with_cuts(&mut eng, &store, &events, events.len() / 4, usize::MAX);
    let chain = store.load_chain().unwrap();
    assert_eq!(chain.len(), 4);

    let mut gapped = chain.clone();
    gapped.remove(2);
    let err = mk().restore_chain(&gapped).unwrap_err();
    assert!(
        matches!(err, CheckpointError::Corrupt(_)),
        "missing link must be Corrupt, got {err:?}"
    );

    let headless = chain[1..].to_vec();
    let err = mk().restore_chain(&headless).unwrap_err();
    assert!(
        matches!(err, CheckpointError::Corrupt(_)),
        "chain with no base must be Corrupt, got {err:?}"
    );

    let err = mk().restore_chain(&[]).unwrap_err();
    assert!(matches!(err, CheckpointError::Corrupt(_)));

    // The untampered chain still restores (the rejects committed no
    // state and the store is intact).
    mk().restore_chain(&chain).unwrap();
}

/// A chain whose delta was cut at a different workload epoch than its
/// base (the query set churned mid-chain) is rejected with
/// [`CheckpointError::WorkloadMismatch`] — both by the engine's
/// `restore_chain` and by every store's `append` linkage check: a
/// [`MemStore`], a [`DirStore`] that wrote the base itself, and one
/// opened on a directory an earlier store wrote it into.
#[test]
fn cross_epoch_chains_are_rejected() {
    let (reg, queries) = workload();
    let events = stream(&reg, 9, 1_200, 8);
    let mk = || HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();

    // Engine A: a base at epoch 0.
    let mut a = mk();
    for e in &events {
        let _ = a.process(e);
    }
    let base = a.cut(CutKind::Full).unwrap();
    assert_eq!(base.epoch(), 0);

    // Engine B: churn first (add then remove a probe query, so the final
    // query set — and thus the workload fingerprint — matches A's), then
    // a base and a delta, all at epoch 2.
    let mut b = mk();
    let probe = parse_query(
        &reg,
        900,
        "RETURN COUNT(*) PATTERN SEQ(Request, Travel+) GROUP BY district WITHIN 60",
    )
    .unwrap();
    b.add_query(probe).unwrap();
    b.remove_query(QueryId(900)).unwrap();
    assert_eq!(b.epoch(), 2);
    for e in &events {
        let _ = b.process(e);
    }
    let _ = b.cut(CutKind::Full).unwrap(); // seq 1, matching A's base
    for e in &events[..10] {
        let _ = b.process(e);
    }
    let delta = b.cut(CutKind::Delta).unwrap();
    assert!(delta.is_delta(), "churn happened before the chain started");
    assert_eq!(delta.epoch(), 2);
    assert_eq!(delta.parent(), Some(base.seq()), "linkage is valid by seq");

    let err = mk()
        .restore_chain(&[base.clone(), delta.clone()])
        .unwrap_err();
    assert!(
        matches!(err, CheckpointError::WorkloadMismatch(_)),
        "cross-epoch chain must be WorkloadMismatch, got {err:?}"
    );

    // The stores refuse to build such a chain in the first place.
    let (dir, dir_reopened) = (
        scratch_dir("cross-epoch"),
        scratch_dir("cross-epoch-reopened"),
    );
    let mem = MemStore::new();
    let disk = DirStore::open(&dir).unwrap();
    for store in [
        &mem as &dyn CheckpointStore,
        &disk,
        &DirStore::open(&dir_reopened).unwrap(),
    ] {
        store.append(&base).unwrap();
    }
    let reopened = DirStore::open(&dir_reopened).unwrap();
    let stores: [(&str, &dyn CheckpointStore); 3] = [
        ("MemStore", &mem),
        ("DirStore", &disk),
        ("reopened DirStore", &reopened),
    ];
    for (name, store) in stores {
        let err = store.append(&delta).unwrap_err();
        assert!(
            matches!(err, CheckpointError::WorkloadMismatch(_)),
            "{name}: append across epochs must be WorkloadMismatch, got {err:?}"
        );
        let chain = store.load_chain().unwrap();
        assert_eq!(chain.len(), 1, "{name}: the rejected delta was not stored");
        assert_eq!(chain[0].as_bytes(), base.as_bytes(), "{name}");
    }
    for d in [dir, dir_reopened] {
        let _ = std::fs::remove_dir_all(d);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random stream shapes × random cut cadences × random compaction
    /// points: the engine-level chain restore is byte-identical to the
    /// uninterrupted run and continues identically, and a 4-worker
    /// [`ParallelSession`] restored from its container chain stays in
    /// lockstep with the session that never crashed.
    #[test]
    fn random_cadences_and_compaction_recover_identically(
        seed in 0u64..10_000,
        mean_burst in 1.0f64..40.0,
        groups in 1u64..16,
        cadence in 25usize..120,
        compact_every in 1usize..5,
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
        // The generator always yields several hundred events; clamping
        // keeps the test total even for degenerate shapes (the vendored
        // proptest shim has no `prop_assume`).
        let cadence = cadence.min(events.len().max(1));

        // Engine level: byte-identity against the full checkpoint the
        // run itself cut at the last barrier (separate runs differ in
        // wall-clock telemetry), semantic continuation against a fresh
        // oracle.
        let mk = || HamletEngine::new(
            reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
        let store = MemStore::new();
        let mut victim = mk();
        let (_, p, full) = drive_with_cuts(&mut victim, &store, &events, cadence, compact_every);
        drop(victim);
        let chain = store.load_chain().unwrap();
        prop_assert!(!chain.is_empty());
        let mut survivor = mk();
        survivor.restore_chain(&chain).unwrap();
        prop_assert_eq!(
            survivor.checkpoint(), full,
            "seed {} cadence {} compact {}: chain restore not byte-identical",
            seed, cadence, compact_every
        );
        let mut oracle = mk();
        for e in &events[..p] {
            let _ = oracle.process(e);
        }
        let mut recovered = Vec::new();
        let mut expected = Vec::new();
        for e in &events[p..] {
            recovered.extend(survivor.process(e));
            expected.extend(oracle.process(e));
        }
        recovered.extend(survivor.flush());
        expected.extend(oracle.flush());
        prop_assert_eq!(&recovered, &expected, "seed {} cadence {}", seed, cadence);

        // Parallel container chain at 4 workers, in lockstep.
        let par = ParallelEngine::new(
            reg.clone(), queries.clone(), EngineConfig::default(), 4).unwrap();
        let store = MemStore::new();
        let mut live = par.session();
        let mut cuts = 0usize;
        let mut p = 0usize;
        while p + cadence <= events.len() {
            let _ = live.process(&events[p..p + cadence]);
            p += cadence;
            cuts += 1;
            let kind = if cuts.is_multiple_of(compact_every) {
                CutKind::Full
            } else {
                CutKind::Delta
            };
            store.append(&live.cut(kind).unwrap()).unwrap();
        }
        let mut survivor = par.session();
        survivor.restore_chain(&store.load_chain().unwrap()).unwrap();
        prop_assert_eq!(
            survivor.cut(CutKind::Full).unwrap().into_bytes(),
            live.cut(CutKind::Full).unwrap().into_bytes(),
            "seed {} cadence {}: restored session not byte-identical", seed, cadence
        );
        prop_assert_eq!(
            survivor.process(&events[p..]),
            live.process(&events[p..]),
            "seed {} cadence {}: parallel tail diverged", seed, cadence
        );
        prop_assert_eq!(
            survivor.flush(), live.flush(),
            "seed {} cadence {}: parallel flush diverged", seed, cadence
        );
    }
}
