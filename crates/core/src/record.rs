//! The engine's state record: one body codec, one cut path, one restore
//! path.
//!
//! Engine state is maintained incrementally, and so is its durable form:
//! a record body lists, per share group, the partitions to subtract and
//! the partitions to (re)install, then the pending general-query halves
//! the same way, then the scalar tail. A **delta** body carries what the
//! `DirtyLog` saw touched since the previous cut; a **full** body is
//! the delta against the empty state — every partition, nothing to
//! subtract, so its removal lists are not written at all. Both go through
//! `encode_body` and come back through `decode_body`, which applies
//! a body to the state `Staged` so far.
//!
//! Restoring is always "decode everything, then commit once": a chain's
//! records are validated (linkage, epoch, fingerprint) and decoded in
//! order onto an empty state beside the engine (`stage`); only then
//! does `install` swap it in. [`restore_shards`] does that for every
//! shard of a runtime (a lone engine being a runtime of one),
//! [`HamletEngine::restore`] for one bare blob. Byte layouts are in
//! `docs/checkpoint-format.md`.

use crate::burst::RunState;
use crate::checkpoint::{
    read_delta_frame, read_engine_header, write_delta_frame, write_engine_header, CheckpointError,
    Codec, Dec, DeltaFrame, Enc, DELTA_MAGIC, DELTA_VERSION, ENGINE_VERSION, ENGINE_VERSION_V6,
};
use crate::executor::{release_key, CompiledWorkload, EngineStats, GroupState, HamletEngine};
use crate::expiry::Runs;
use crate::keyhash::{KeyMap, KeySet, KeyState, KeyTable};
use crate::metrics::{LatencyRecorder, MemoryGauge};
use crate::run::GroupRuntime;
use crate::store::{ChainMeta, Checkpoint, CutKind};
use hamlet_query::QueryId;
use hamlet_types::{GroupKey, Ts};

/// Where a pending general-query half waits: `(combiner index, key,
/// window start)`.
pub(crate) type PendingSlot = (usize, GroupKey, u64);

/// What the engine touched since its last chain cut — the difference the
/// next delta record writes.
pub(crate) struct DirtyLog {
    /// Partition keys possibly touched, per group index. At cut time a
    /// touched key still present is re-encoded wholesale (upsert); an
    /// absent one becomes a removal.
    parts: Vec<KeySet<GroupKey>>,
    /// Pending-half slots possibly touched (same present/absent rule).
    pending: KeySet<PendingSlot>,
    /// Sequence number of the last chain record cut from (or restored
    /// into) this engine; 0 = none, so the first cut is always a base.
    cut_seq: u64,
    /// Off until the first cut, so engines that never cut pay nothing
    /// for the chain machinery.
    tracking: bool,
    /// Set when state jumped without going through the log (runtime
    /// churn, a full `restore`): the next delta cut is promoted to a base.
    unsound: bool,
}

impl DirtyLog {
    /// An empty log, off, hashing under the engine's `keys`.
    pub(crate) fn new(keys: KeyState) -> DirtyLog {
        DirtyLog {
            parts: Vec::new(),
            pending: KeySet::with_hasher(keys),
            cut_seq: 0,
            tracking: false,
            unsound: false,
        }
    }

    /// Notes that partition `key` of group `gi` may have changed; only
    /// the first mark of a key since the last cut clones it.
    #[inline]
    pub(crate) fn mark(&mut self, gi: usize, key: &GroupKey) {
        if self.tracking {
            if self.parts.len() <= gi {
                let keys = *self.pending.hasher();
                self.parts.resize_with(gi + 1, || KeySet::with_hasher(keys));
            }
            if !self.parts[gi].contains(key) {
                self.parts[gi].insert(key.clone());
            }
        }
    }

    /// Notes that a pending-half slot may have changed.
    #[inline]
    pub(crate) fn mark_pending(&mut self, slot: &PendingSlot) {
        if self.tracking {
            self.pending.insert(slot.clone());
        }
    }

    /// State jumped past the log: whatever it holds describes nothing.
    pub(crate) fn void(&mut self) {
        self.parts.clear();
        self.pending.clear();
        self.unsound = true;
    }

    /// True when the log can vouch for a delta on top of record
    /// `cut_seq`: armed by a cut or a chain restore, and not voided since.
    pub(crate) fn sound(&self) -> bool {
        self.tracking && !self.unsound && self.cut_seq > 0
    }

    /// Starts a new interval on top of record `seq`, which now describes
    /// the engine exactly.
    fn rearm(&mut self, seq: u64) {
        self.parts.iter_mut().for_each(KeySet::clear);
        self.pending.clear();
        self.cut_seq = seq;
        self.tracking = true;
        self.unsound = false;
    }
}

/// Workload fingerprint embedded in every record: the compiled shape a
/// record must match to be restorable — shard assignment, share groups
/// (members, windows, panes, partition attributes) and general-query
/// combiners. Two engines compiled from the same workload under the same
/// sharding always agree on it.
fn fingerprint(eng: &HamletEngine) -> Vec<u8> {
    let mut e = Enc::new();
    eng.cfg.shard.encode(&mut e);
    e.usize(eng.plan.groups.len());
    for g in &eng.plan.groups {
        let (within, slide) = (g.window.within, g.window.slide);
        (g.rt.k(), g.rt.template.num_types(), within, slide, g.pane).encode(&mut e);
        e.usize(g.partition_attrs.len());
        for a in &g.partition_attrs {
            e.str(a);
        }
        g.rt.queries.iter().for_each(|q| q.id.encode(&mut e));
    }
    let combiners: Vec<_> = (eng.plan.combiners.iter())
        .map(|c| (c.orig, c.left, c.right))
        .collect();
    combiners.encode(&mut e);
    e.finish()
}

/// Canonical order of pending-half slots: `(combiner, window start, key)`.
fn slot_cmp(a: &PendingSlot, b: &PendingSlot) -> std::cmp::Ordering {
    (a.0, a.2)
        .cmp(&(b.0, b.2))
        .then_with(|| a.1.total_cmp(&b.1))
}

/// Writes a record body. With `delta` off it is the full body: every
/// partition and pending half, no removal lists. With it on, only what
/// the engine's dirty log holds, split into what vanished (removals) and
/// what is still there (re-sent whole). Either way in canonical order —
/// the partition and pending maps are `HashMap`s — and ending in the
/// scalar tail. Mirrored by [`decode_body`]. A partition is present
/// when its group holds a run under the key.
fn encode_body(eng: &HamletEngine, fingerprint: &[u8], delta: bool, e: &mut Enc) {
    let n = eng.groups.len();
    let mut gone: Vec<Vec<&GroupKey>> = vec![Vec::new(); n];
    let mut live: Vec<Vec<(&GroupKey, &Runs)>> = vec![Vec::new(); n];
    let mut slots_gone: Vec<&PendingSlot> = Vec::new();
    let mut slots_live: Vec<(&PendingSlot, &(QueryId, u64))> = Vec::new();
    let table = |gi: usize| &eng.tables[eng.plan.groups[gi].class as usize];
    if delta {
        for (gi, keys) in eng.dirty.parts.iter().enumerate() {
            // hamlet-lint: allow(unordered-iter) -- only buckets per group; every bucket is sorted canonically before it is written below
            for key in keys {
                let runs = table(gi)
                    .get(key)
                    .and_then(|id| eng.groups[gi].runs.get(id as usize));
                match runs.filter(|runs| !runs.is_empty()) {
                    Some(runs) => live[gi].push((key, runs)),
                    None => gone[gi].push(key),
                }
            }
        }
        // hamlet-lint: allow(unordered-iter) -- as above: sorted by `slot_cmp` before writing
        for slot in &eng.dirty.pending {
            match eng.pending.get_key_value(slot) {
                Some(kv) => slots_live.push(kv),
                None => slots_gone.push(slot),
            }
        }
    } else {
        for (gi, (g, live)) in eng.groups.iter().zip(&mut live).enumerate() {
            let held = (0u32..).zip(&g.runs).filter(|(_, runs)| !runs.is_empty());
            live.extend(held.map(|(id, runs)| (table(gi).key(id), runs)));
        }
        slots_live.extend(&eng.pending);
    }

    e.bytes(fingerprint);
    e.usize(n);
    for (g, (mut gone, mut live)) in eng.groups.iter().zip(gone.into_iter().zip(live)) {
        if delta {
            gone.sort_by(|a, b| a.total_cmp(b));
            e.usize(gone.len());
            gone.iter().for_each(|key| key.encode(e));
        }
        live.sort_by(|(a, _), (b, _)| a.total_cmp(b));
        e.usize(live.len());
        for (key, runs) in live {
            key.encode(e);
            e.usize(runs.as_slice().len());
            for &(start, handle) in runs.as_slice() {
                e.u64(start);
                g.slab.get(handle).rs.encode(e);
            }
        }
    }
    if delta {
        slots_gone.sort_by(|a, b| slot_cmp(a, b));
        e.usize(slots_gone.len());
        slots_gone.iter().for_each(|slot| slot.encode(e));
    }
    slots_live.sort_by(|(a, _), (b, _)| slot_cmp(a, b));
    e.usize(slots_live.len());
    for (slot, half) in slots_live {
        slot.encode(e);
        half.encode(e);
    }
    (eng.stats, eng.latency.clone(), eng.gauge).encode(e);
    let obs: Vec<_> = eng.obs.iter().map(|m| m.counters()).collect();
    (eng.event_counter, eng.watermark, obs).encode(e);
}

/// A chain being staged: the state it describes, built up record by
/// record beside the engine whose state it will replace ([`install`]) —
/// decoding a record applies it here, so nothing touches the engine
/// until every record of the chain has validated and decoded.
struct Staged {
    /// The workload epoch every record of the chain was cut at.
    epoch: u64,
    /// Sequence number of the chain's last record.
    seq: u64,
    /// Per share group, its state as `HamletEngine::groups` holds it: the
    /// partitions with the slab their runs live in.
    groups: Vec<GroupState>,
    /// Per key class, the keys those partitions are addressed by, as
    /// `HamletEngine::tables` holds them.
    tables: Vec<KeyTable>,
    pending: KeyMap<PendingSlot, (QueryId, u64)>,
    /// The scalar tail every record body ends with; the newest wins.
    tail: Tail,
}

/// The scalar tail of a record body, always whole: `(stats, latency,
/// gauge)` then `(event_counter, watermark, obs)`, which v4–v6 wrote with
/// `MemoryGauge::last` between them. The per-group counters
/// keep a fixed 8-slot layout (`GroupMetrics::counters`); placement fields
/// are *not* serialized — benefit/shared are a function of the compiled
/// group, which the restoring engine's own build/churn prices.
#[derive(Default)]
struct Tail {
    stats: EngineStats,
    latency: LatencyRecorder,
    gauge: MemoryGauge,
    event_counter: u64,
    watermark: Option<Ts>,
    /// Per-group observability counters, 8 `u64`s per group; empty when
    /// the writer had `EngineConfig::obs` off.
    obs: Vec<[u64; 8]>,
}

impl Staged {
    /// Takes `key` out of staged group `gi`: a key a later record of the
    /// chain removes or re-sends gives its slots back, and its id too if
    /// no group of its class holds it any more.
    fn vacate(&mut self, plan: &CompiledWorkload, gi: usize, key: &GroupKey) {
        let ci = plan.groups[gi].class as usize;
        let Some(id) = self.tables[ci].get(key) else {
            return;
        };
        let st = &mut self.groups[gi];
        if let Some(runs) = st.runs.get_mut(id as usize) {
            for &(_, handle) in std::mem::take(runs).as_slice() {
                st.slab.release(handle);
            }
        }
        release_key(plan, &self.groups, &mut self.tables, ci, id);
    }
}

/// Mirror of [`encode_body`]: decodes one body laid out as `HMEN`
/// `version`'s — with removal lists iff `delta`, the v4 run-state record
/// (as in [`RunState::decode`]) and the v4–v5 estimator sections
/// ([`skip_estimator`]) where that version has them — onto `state`,
/// checking it against `eng`'s fingerprint and bounds. `eng` is only
/// read.
fn decode_body(
    eng: &HamletEngine,
    fingerprint: &[u8],
    d: &mut Dec<'_>,
    delta: bool,
    version: u16,
    state: &mut Staged,
) -> Result<(), CheckpointError> {
    if d.bytes()? != fingerprint {
        return Err(CheckpointError::WorkloadMismatch(
            "compiled workload, sharding, or combiners differ from the record".into(),
        ));
    }
    let n_groups = d.seq_len()?;
    if n_groups != eng.groups.len() {
        return Err(CheckpointError::WorkloadMismatch(format!(
            "{n_groups} groups in record, {} compiled",
            eng.groups.len()
        )));
    }
    let plan = &*eng.plan;
    for (gi, g) in plan.groups.iter().enumerate() {
        if delta {
            for _ in 0..d.seq_len()? {
                state.vacate(plan, gi, &GroupKey::decode(d)?);
            }
        }
        for _ in 0..d.seq_len()? {
            let key = GroupKey::decode(d)?;
            state.vacate(plan, gi, &key);
            let ci = g.class as usize;
            let id = state.tables[ci].intern(&key);
            let (runs, slab) = state.groups[gi].partition(id);
            for _ in 0..d.seq_len()? {
                let start = d.u64()?;
                let Err(at) = runs.find(start) else {
                    return Err(CheckpointError::Corrupt(format!(
                        "window start {start} twice in one partition"
                    )));
                };
                let rs = RunState::decode(d, &g.rt, version)?;
                runs.insert(at, start, slab.occupy(&g.rt, id, start, Some(rs)));
            }
            // A partition of no runs holds nothing, and neither does its id.
            release_key(plan, &state.groups, &mut state.tables, ci, id);
        }
        if version < ENGINE_VERSION_V6 {
            skip_estimator(d, &g.rt)?;
        }
    }
    if delta {
        for _ in 0..d.seq_len()? {
            state
                .pending
                .remove(&known_combiner(eng, Codec::decode(d)?)?);
        }
    }
    for _ in 0..d.seq_len()? {
        let slot = known_combiner(eng, Codec::decode(d)?)?;
        state.pending.insert(slot, Codec::decode(d)?);
    }
    let (stats, latency, gauge) = Codec::decode(d)?;
    // v4–v6: `MemoryGauge::last`, which nothing read.
    d.skip_word(version < ENGINE_VERSION)?;
    let (event_counter, watermark, obs) = Codec::decode(d)?;
    state.tail = Tail {
        stats,
        latency,
        gauge,
        event_counter,
        watermark,
        obs,
    };
    let n_obs = state.tail.obs.len();
    if n_obs != 0 && n_obs != eng.groups.len() {
        return Err(CheckpointError::Corrupt(format!(
            "{n_obs} observability records for {} groups",
            eng.groups.len()
        )));
    }
    d.expect_end()
}

/// Reads past the divergence estimator an `HMEN` v4–v5 / `HMDL` v1–v2
/// body carries after each group's partitions and drops it — a
/// placement is priced from the compiled group — under the checks its
/// decoder made: `alpha` in [0, 1], a shape equal to the compiled runtime's (types
/// × members), then that many rates and that many 0/1 `seen` flags.
fn skip_estimator(d: &mut Dec<'_>, rt: &GroupRuntime) -> Result<(), CheckpointError> {
    let (alpha, nt, k): (f64, usize, usize) = Codec::decode(d)?;
    if !(0.0..=1.0).contains(&alpha) {
        return Err(CheckpointError::Corrupt(format!("estimator alpha {alpha}")));
    }
    let (want_nt, want_k) = (rt.template.num_types(), rt.k());
    if nt != want_nt || (nt > 0 && k != want_k) {
        return Err(CheckpointError::Corrupt(format!(
            "estimator shape {nt}×{k}, compiled runtime is {want_nt}×{want_k}"
        )));
    }
    for _ in 0..nt * want_k {
        d.f64()?;
    }
    for _ in 0..nt * want_k {
        d.bool()?;
    }
    Ok(())
}

/// A decoded pending-half slot, bounds-checked against the compiled
/// combiners.
fn known_combiner(eng: &HamletEngine, slot: PendingSlot) -> Result<PendingSlot, CheckpointError> {
    if slot.0 < eng.plan.combiners.len() {
        Ok(slot)
    } else {
        Err(CheckpointError::Corrupt(format!(
            "pending combiner index {} out of range",
            slot.0
        )))
    }
}

/// Parses one chain record's frame. A bare engine blob
/// ([`HamletEngine::checkpoint`]) is a base at chain position 0.
pub(crate) fn frame_of(record: &[u8]) -> Result<DeltaFrame<'_>, CheckpointError> {
    if record.starts_with(&DELTA_MAGIC) {
        return read_delta_frame(record);
    }
    let (_, epoch) = read_engine_header(&mut Dec::new(record))?;
    Ok(DeltaFrame {
        version: DELTA_VERSION,
        base: true,
        seq: 0,
        parent: 0,
        epoch,
        payload: record,
    })
}

/// Validates an ordered chain against `eng` — from the last base (earlier
/// records are obsolete history a store may legitimately still hold):
/// linkage (`parent` == predecessor `seq`), one epoch throughout,
/// workload fingerprints — and decodes every record of it. `eng` is only
/// read.
fn stage(eng: &HamletEngine, frames: &[DeltaFrame<'_>]) -> Result<Staged, CheckpointError> {
    let Some(base_idx) = frames.iter().rposition(|f| f.base) else {
        return Err(CheckpointError::Corrupt(
            "checkpoint chain has no base record".into(),
        ));
    };
    let chain = &frames[base_idx..];
    let epoch = chain[0].epoch;
    for w in chain.windows(2) {
        if w[1].epoch != epoch {
            return Err(CheckpointError::WorkloadMismatch(format!(
                "delta seq {} was cut at workload epoch {} but the chain base is at \
                 epoch {epoch} — the query set churned mid-chain",
                w[1].seq, w[1].epoch
            )));
        }
        if w[1].parent != w[0].seq {
            return Err(CheckpointError::Corrupt(format!(
                "broken checkpoint chain: record seq {} expects parent seq {} but \
                 follows seq {}",
                w[1].seq, w[1].parent, w[0].seq
            )));
        }
    }
    let fp = fingerprint(eng);
    let mut state = Staged {
        epoch,
        seq: chain[chain.len() - 1].seq,
        groups: (eng.plan.groups.iter())
            .map(|_| GroupState::default())
            .collect(),
        tables: (eng.plan.classes.iter())
            .map(|_| KeyTable::new(eng.keys))
            .collect(),
        pending: KeyMap::with_hasher(eng.keys),
        tail: Tail::default(),
    };
    for f in chain {
        let mut d = Dec::new(f.payload);
        // A base payload is an engine blob under its own version; a delta
        // payload is the body of its frame version's era: the two formats
        // bump together, `HMDL` v1–v4 carrying the `HMEN` v4–v7 body.
        let version = if f.base {
            let (version, blob_epoch) = read_engine_header(&mut d)?;
            if blob_epoch != epoch {
                return Err(CheckpointError::Corrupt(
                    "base frame epoch disagrees with its payload".into(),
                ));
            }
            version
        } else {
            f.version + (ENGINE_VERSION - DELTA_VERSION)
        };
        decode_body(eng, &fp, &mut d, !f.base, version, &mut state)?;
    }
    Ok(state)
}

/// The one commit: swaps the staged chain's state into the engine,
/// adopts the chain's epoch, and rebuilds what is derived from it. Pure
/// state mutation; all validation happened in [`stage`].
fn install(eng: &mut HamletEngine, state: Staged) {
    eng.epoch = state.epoch;
    eng.groups = state.groups;
    eng.tables = state.tables;
    for g in &mut eng.groups {
        // Slots a delta of the chain vacated: not state, not installed.
        g.slab.drop_free(&mut g.runs);
    }
    eng.pending = state.pending;
    let tail = state.tail;
    eng.stats = tail.stats;
    eng.latency = tail.latency;
    eng.gauge = tail.gauge;
    eng.event_counter = tail.event_counter;
    eng.watermark = tail.watermark;
    // The per-group counters replace this engine's wholesale (a record
    // without them zeroes the registry); placement fields keep what this
    // engine priced at build/churn.
    for (gi, m) in eng.obs.iter_mut().enumerate() {
        let stored = tail.obs.get(gi).copied().unwrap_or_default();
        for (c, v) in m.counters_mut().into_iter().zip(stored) {
            *c = v;
        }
    }
    // Derived, not serialized: one expiration-index entry per live run,
    // as `process()` maintains, and the byte count.
    eng.rebuild_expiry();
}

/// Restores shard engines from an ordered chain of records, `records[r]`
/// holding one record (an `HMDL` frame or a bare `HMEN` blob) per engine
/// — the shard records of container `r`, or the one record of a lone
/// engine. Each shard's chain is validated and decoded against its own
/// engine, then the shards must agree on the workload epoch (they churn
/// at the same barrier); only then is any engine touched: the chain's
/// state installed, its epoch adopted, and the dirty log re-armed on its
/// last record so the engine keeps cutting deltas onto it. Returns the
/// epoch.
pub fn restore_shards(
    engines: &mut [HamletEngine],
    records: &[Vec<&[u8]>],
) -> Result<u64, CheckpointError> {
    // A checkpoint only restores into the same sharding — partition
    // ownership depends on the worker count.
    if let Some(odd) = records.iter().find(|r| r.len() != engines.len()) {
        return Err(CheckpointError::WorkloadMismatch(format!(
            "checkpoint taken under {} workers, restoring under {}",
            odd.len(),
            engines.len()
        )));
    }
    let mut staged = Vec::with_capacity(engines.len());
    for (idx, eng) in engines.iter().enumerate() {
        let frames = records
            .iter()
            .map(|shards| frame_of(shards[idx]))
            .collect::<Result<Vec<_>, _>>()?;
        staged.push(stage(eng, &frames)?);
    }
    let epoch = staged.first().map_or(0, |s| s.epoch);
    if let Some(off) = staged.iter().find(|s| s.epoch != epoch) {
        return Err(CheckpointError::WorkloadMismatch(format!(
            "mixed workload epochs across restored shards ({epoch} vs {})",
            off.epoch
        )));
    }
    for (eng, chain) in engines.iter_mut().zip(staged) {
        let seq = chain.seq;
        install(eng, chain);
        eng.dirty.rearm(seq);
    }
    Ok(epoch)
}

/// Cuts the next record of `eng`'s checkpoint chain and starts a new
/// dirty interval on top of it. A `Delta` request the dirty log can vouch
/// for writes only what was touched since the previous cut; anything else
/// (a `Full` request, the first cut, a cut after churn or a full
/// `restore`) writes a base: a complete engine blob re-framed with its
/// chain position. The handle's metadata is what was just written, not
/// peeked back out of it.
pub(crate) fn cut(eng: &mut HamletEngine, kind: CutKind) -> Checkpoint {
    let delta = kind == CutKind::Delta && eng.dirty.sound();
    let (seq, epoch) = (eng.dirty.cut_seq + 1, eng.epoch);
    let parent = delta.then_some(eng.dirty.cut_seq);
    let fingerprint = fingerprint(eng);
    let mut e = Enc::new();
    write_delta_frame(&mut e, !delta, seq, parent.unwrap_or(0), epoch, |e| {
        if !delta {
            write_engine_header(e, epoch);
        }
        encode_body(eng, &fingerprint, delta, e);
    });
    eng.dirty.rearm(seq);
    Checkpoint::new(
        e.finish(),
        ChainMeta {
            version: if delta { DELTA_VERSION } else { ENGINE_VERSION },
            epoch,
            seq,
            parent,
            fingerprint,
        },
    )
}

impl HamletEngine {
    /// Serializes the engine's complete mutable state into a versioned,
    /// self-describing blob: every live run (with its snapshot table and
    /// active graphlets), buffered bursts, pending general-query halves,
    /// counters, metrics, and the watermark. The expiration index is *not*
    /// serialized — it is derivable (one entry per live run) and
    /// [`restore`](Self::restore) rebuilds it.
    ///
    /// The encoding is deterministic: hash maps are written in their
    /// canonical total order, so checkpointing the same state twice — or
    /// checkpointing a just-restored engine — produces identical bytes.
    ///
    /// Restoring the blob into a freshly built engine over the same
    /// workload and continuing the stream yields byte-identical output to
    /// never having checkpointed (`tests/checkpoint_equivalence.rs`).
    /// The only state that does not travel is wall-clock arrival stamps
    /// of in-flight runs (an `Instant` cannot be serialized): latency
    /// *metrics* for windows open across the checkpoint lose those
    /// samples, results do not.
    ///
    /// See `docs/checkpoint-format.md` for the byte layout.
    ///
    /// ```
    /// use hamlet_core::{EngineConfig, HamletEngine};
    /// use hamlet_query::parse_query;
    /// use hamlet_types::{EventBuilder, TypeRegistry};
    /// use std::sync::Arc;
    ///
    /// let mut reg = TypeRegistry::new();
    /// let a = reg.register("A", &[]);
    /// let b = reg.register("B", &[]);
    /// let reg = Arc::new(reg);
    /// let q = parse_query(&reg, 1, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 10").unwrap();
    /// let mk =
    ///     || HamletEngine::new(reg.clone(), vec![q.clone()], EngineConfig::default()).unwrap();
    ///
    /// let mut eng = mk();
    /// eng.process(&EventBuilder::new(&reg, a, 0).build());
    /// let blob = eng.checkpoint(); // mid-window: a run is in flight
    ///
    /// let mut restored = mk();
    /// restored.restore(&blob).unwrap();
    /// assert_eq!(restored.checkpoint(), blob); // round trip is the identity
    /// // ...and both finish the stream identically.
    /// let e = EventBuilder::new(&reg, b, 1).build();
    /// assert_eq!(restored.process(&e), eng.process(&e));
    /// assert_eq!(restored.flush(), eng.flush());
    /// ```
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut e = Enc::new();
        write_engine_header(&mut e, self.epoch);
        encode_body(self, &fingerprint(self), false, &mut e);
        e.finish()
    }

    /// Restores the engine's state from a [`checkpoint`](Self::checkpoint)
    /// blob, replacing whatever state it currently holds.
    ///
    /// The engine must have been built ([`HamletEngine::new`]) over the
    /// same workload and shard configuration the checkpoint was taken
    /// under — validated via an embedded fingerprint, mismatches return
    /// [`WorkloadMismatch`](CheckpointError::WorkloadMismatch) — and be
    /// at the blob's workload epoch (a chain restore adopts it instead).
    /// The watermark expiration index is rebuilt from the restored runs
    /// (one entry per live run), so expiry behavior continues exactly as
    /// if the engine had never stopped. A failed restore leaves the
    /// engine untouched.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let (_, blob_epoch) = read_engine_header(&mut Dec::new(bytes))?;
        if blob_epoch != self.epoch {
            return Err(CheckpointError::WorkloadMismatch(format!(
                "checkpoint was taken at workload epoch {blob_epoch} but the engine is at \
                 epoch {} — the query set has churned since this checkpoint; restore it \
                 into an engine whose churn history matches, or through a chain restore, \
                 which adopts the checkpoint's epoch",
                self.epoch
            )));
        }
        let staged = stage(self, &[frame_of(bytes)?])?;
        install(self, staged);
        // State jumped without going through the dirty log; any open
        // delta interval is void.
        self.dirty.void();
        Ok(())
    }
}
