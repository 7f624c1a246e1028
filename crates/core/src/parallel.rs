//! Shared-nothing parallel execution across stream partitions.
//!
//! HAMLET partitions the stream by grouping/equivalence attributes (§2.2);
//! partitions are independent, so the classic scale-out move applies: run
//! one [`HamletEngine`] per worker, each owning the partitions whose key
//! hashes to its shard. The router decides which: every event reaches a
//! shard with its verdict bits ([`ShardRouter::route`]), and the shard's
//! `EngineConfig::shard` — the same hash — is only the fallback, for a
//! direct `process_batch` caller and for a type's key classes past the
//! 64th.
//!
//! # Architecture
//!
//! There is one executor, [`ParallelSession`]: `workers` shard-owning
//! engines plus the [`ShardRouter`] that maps events to them and holds
//! the compiled workload every one of them runs (compiled once per
//! workload change and shared, one `Arc`, however many shards there
//! are), and
//! [`ParallelSession::feed`] — the only code in the tree that buffers per
//! shard, owns the worker channels, runs a shard's receive loop or
//! implements a barrier. For the length of one `feed` call the caller
//! holds a [`Feed`]: every event it pushes is routed once
//! ([`ShardRouter::route`]) into per-shard batch buffers, full batches go
//! to one scoped worker thread per shard over bounded channels (routing
//! and processing overlap, and no worker ever scans events it does not
//! own, nor hashes a key the router hashed: each event rides with the
//! router's verdict on which of its key classes the shard owns), and the
//! three barriers — [`Feed::churn`], [`Feed::cut`],
//! [`Feed::flush`] — ride the same FIFOs, so every shard meets each at
//! the same stream position. Each worker therefore processes ~1/w of the
//! events against ~1/w of the live partitions and holds ~1/w of the
//! state. (Window expiry takes due index buckets, not a scan of live partitions,
//! so sharding's win comes from core parallelism and per-shard state
//! locality rather than from dividing an O(P) expiry term.)
//!
//! Two front ends feed it, and what differs between them is an argument
//! of the one loop, never a second loop: the offline
//! [`ParallelEngine::run`] and [`ParallelSession::process`] / `flush`
//! push slices (no tag, [`BatchCut::Size`], nothing observed); the
//! `hamlet-pipeline` ingest stage pushes released events as its
//! `Source` yields them (tag = the arrival `Instant` of a held event,
//! none for an in-order one: [`ShardHooks::stamp`] tags the batch its
//! push ships; [`BatchCut::SizeOrClose`]; a [`ShardHooks`] impl through
//! which each worker delivers into its sink and keeps its metrics). The
//! cut rule also fixes the batch size and the FIFO depth: the front end
//! picks them, a user never does. The pipeline's
//! rule ships a batch on the event that may close windows — the first
//! to reach the next point of the workload's window grid
//! ([`ShardRouter`] keeps it, and moves it with churn) — and otherwise
//! lets it fill while the worker is busy: a busy worker gets batches of
//! up to 256 events, an idle one every tick. A slice feed at
//! one worker runs inline on the caller's thread — a slice never
//! blocks, so a channel and a second thread would buy nothing, and that
//! run is the baseline the scaling experiments divide by. A pipeline
//! keeps its worker thread at one shard: its feed blocks inside
//! `Source::next_event`, and the engine must keep draining meanwhile.
//!
//! The engines outlive each call, so the offline front end is one
//! session with four calls — `process`, [`ParallelSession::churn`],
//! `cut` ([`crate::Snapshot`]) and `flush` — and a session starts from
//! a stored chain with [`ParallelSession::restore_chain`]. Churn and
//! cuts between calls are feeds of their own, one barrier and no events,
//! so every barrier in the tree rides the shard FIFOs: every worker
//! installs the router's plan, or encodes its shard's record, on its own
//! thread, at one worker as at many. Installing the plan cannot fail:
//! the router checked the op before it compiled it.
//!
//! # Determinism
//!
//! Aggregates are bit-identical to single-threaded execution: every
//! partition is owned by exactly one shard, and each shard computes it
//! exactly as the single-threaded engine would. Every call sorts the
//! results it returns by `(window_start, query, group_key)`
//! ([`crate::executor::sort_results`]), so [`ParallelReport::results`] is
//! byte-comparable across runs, worker counts, and against a
//! single-threaded run sorted the same way. The single-threaded engine is
//! itself deterministic by construction: each watermark advance emits its
//! expired windows in `(window_start, group, key)` order straight off the
//! expiration index, never in `HashMap` iteration order.

use crate::checkpoint::{self, CheckpointError, Dec};
use crate::executor::{
    sort_results, ChurnError, ChurnOp, CompiledWorkload, EngineConfig, EngineError, EngineStats,
    HamletEngine, WindowResult,
};
use crate::metrics::LatencyRecorder;
use crate::record;
use crate::shard::ShardRouter;
use crate::store::{ChainMeta, Checkpoint, CutKind, Snapshot};
use hamlet_obs::{merge_group_metrics, GroupMetrics, Stage};
use hamlet_query::Query;
use hamlet_types::{Event, TypeRegistry};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Magic tag opening the `HMPC` container a [`ParallelSession`] cut
/// packs its per-shard records into (docs/checkpoint-format.md).
const PARALLEL_MAGIC: [u8; 4] = *b"HMPC";
/// Container format version.
const PARALLEL_VERSION: u16 = 1;

/// What the coordinator puts on a shard worker's FIFO: a routed batch —
/// its events, the router's verdict for each ([`ShardRouter::route`]) and
/// the tag of its last event, if it has one — or one of the three
/// barriers: every worker meets each after exactly the events routed
/// before it (channel FIFO order), the same stream cut on every shard.
enum ShardMsg<T> {
    Batch(Vec<Event>, Vec<u64>, Option<T>),
    /// The router's post-churn plan, for the worker's engine to install.
    Churn(Arc<CompiledWorkload>),
    /// The worker cuts its engine's next chain record (full or delta,
    /// per the kind) and replies with `(shard, record)`.
    Cut(CutKind, mpsc::Sender<(usize, Checkpoint)>),
    /// End of stream: every open window emits. A FIFO that closes
    /// without it ends a call whose open windows stay in the engine.
    Flush,
}

/// When a shard's batch under construction is handed to its worker, and
/// how many batches its FIFO holds. Fixed by each front end, never
/// exposed to a user: the two that exist need different values, and
/// this type is the only place they are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchCut {
    /// At 1024 events, behind a FIFO of 4 batches: a slice feed has no
    /// latency to protect, so a batch is large enough to amortize
    /// channel traffic, and the FIFO short enough that the router stalls
    /// rather than buffering the stream for a slow worker.
    Size,
    /// At 256 events — the pipeline is latency-first — or where a window
    /// may close, behind a FIFO of 8 batches that absorbs bursts. Every
    /// window end lies on the workload's grid (the gcd of every `within`
    /// and `slide`), and a shard's windows close only when one of its
    /// own events reaches the next grid point past its engine's
    /// watermark; exactly that event ships as the last of the batch its
    /// push cuts. So a batch's last event is the only one that can close
    /// windows, and a close never waits in the outbox. Between grid
    /// points a tick advance cuts only while the shard's worker has
    /// nothing queued ([`ShardHooks::backlog`]): an idle worker gets
    /// every tick as before, so the work left at a close is one tick's;
    /// a busy one gets batches that fill to 256 events or the grid, so
    /// its fixed cost per batch is spread over many events.
    SizeOrClose,
}

impl BatchCut {
    /// Events per routed batch.
    fn size(self) -> usize {
        match self {
            BatchCut::Size => 1024,
            BatchCut::SizeOrClose => 256,
        }
    }

    /// Bound of each worker's FIFO, in batches. A full FIFO blocks the
    /// feed: that is the backpressure.
    fn depth(self) -> usize {
        match self {
            BatchCut::Size => 4,
            BatchCut::SizeOrClose => 8,
        }
    }
}

/// What a front end observes of the executor — nothing, unless it
/// overrides a method. The executor is monomorphized over the impl, so
/// the slice feed's `()` costs nothing.
pub trait ShardHooks<T>: Sync {
    /// Coordinator side: `events` more events are on `shard`'s FIFO.
    fn queued(&self, _shard: usize, _events: usize) {}

    /// Coordinator side: `shard`'s worker hung up mid-run — it
    /// panicked, and the join at the end of the feed says how.
    fn lost(&self, _shard: usize) {}

    /// Coordinator side: events on `shard`'s FIFO that its worker has
    /// not finished, as the front end counts them. Under
    /// [`BatchCut::SizeOrClose`] a tick advance cuts only at 0 — the
    /// default, so a front end that does not count gets every tick.
    fn backlog(&self, _shard: usize) -> usize {
        0
    }

    /// Coordinator side: the tag of a batch whose last event was pushed
    /// without one, taken when that push ships it — the only batches
    /// that can emit results under [`BatchCut::SizeOrClose`]. A batch
    /// shipped later (partial, at a barrier) stays untagged.
    fn stamp(&self) -> Option<T> {
        None
    }

    /// Worker side: what `shard`'s engine just emitted (possibly
    /// nothing) — for a batch of `batch.0` events tagged `batch.1`, or
    /// (`None`) at a churn or flush barrier. A front end that delivers
    /// results itself takes them out of `results`; what it leaves is
    /// what [`ParallelSession::feed`] returns.
    fn emitted(
        &self,
        _shard: usize,
        _eng: &HamletEngine,
        _batch: Option<(usize, Option<T>)>,
        _results: &mut Vec<WindowResult>,
    ) {
    }
}

impl ShardHooks<()> for () {}

/// One shard's outbox: its bounded FIFO and the batch under
/// construction.
struct Lane<T> {
    tx: mpsc::SyncSender<ShardMsg<T>>,
    buf: Vec<Event>,
    /// The router's verdict for each event in `buf`.
    owned: Vec<u64>,
    /// Tag of the last event pushed into `buf`, if it came with one.
    tag: Option<T>,
    /// Event-time tick of the last event pushed ([`BatchCut::SizeOrClose`]).
    tick: u64,
    /// The first grid point past `tick`: an event that reaches it may
    /// close windows. 0 until the lane's first event, which may close
    /// windows of an engine that ran before this feed.
    close: u64,
}

/// The first multiple of `grid` past `tick`.
fn next_close(tick: u64, grid: u64) -> u64 {
    (tick / grid).saturating_add(1).saturating_mul(grid)
}

impl<T> Lane<T> {
    /// The [`BatchCut::SizeOrClose`] cut for an event at `tick` on a
    /// `grid`, short of size: whether it may close windows, or advances
    /// the tick of a worker that `idle` says has nothing queued.
    fn cuts_at(&mut self, tick: u64, grid: u64, idle: impl FnOnce() -> bool) -> bool {
        let advanced = std::mem::replace(&mut self.tick, tick) != tick;
        if tick >= self.close {
            self.close = next_close(tick, grid);
            return true;
        }
        advanced && idle()
    }

    /// Blocking on a full FIFO *is* the backpressure. A send only fails
    /// if the worker died; the front end is told, so an unbounded run
    /// cannot silently discard that shard's events forever.
    fn send(&self, idx: usize, msg: ShardMsg<T>, hooks: &impl ShardHooks<T>) {
        if self.tx.send(msg).is_err() {
            hooks.lost(idx);
        }
    }

    /// Hands the batch under construction, if any, to the worker.
    fn ship(&mut self, idx: usize, batch: usize, hooks: &impl ShardHooks<T>) {
        if self.buf.is_empty() {
            return;
        }
        let events = std::mem::replace(&mut self.buf, Vec::with_capacity(batch));
        let owned = std::mem::replace(&mut self.owned, Vec::with_capacity(batch));
        hooks.queued(idx, events.len());
        let msg = ShardMsg::Batch(events, owned, self.tag.take());
        self.send(idx, msg, hooks);
    }
}

/// The coordinator's end of a running executor
/// ([`ParallelSession::feed`]): events go in tagged, barriers go in
/// between them, and when the feed ends every partial batch is shipped,
/// the FIFOs close and the workers are joined.
pub struct Feed<'a, T, H> {
    router: &'a mut ShardRouter,
    lanes: Vec<Lane<T>>,
    batch: usize,
    cut: BatchCut,
    hooks: &'a H,
}

impl<T: Copy, H: ShardHooks<T>> Feed<'_, T, H> {
    /// Routes `e` to every shard owning one of its partition keys;
    /// `tag` rides with the batch `e` is the last event of. Without one,
    /// a batch this push ships takes [`ShardHooks::stamp`] instead, so a
    /// front end pays for a tag only where a result can read it.
    pub fn push(&mut self, e: Event, tag: Option<T>) {
        let (batch, hooks, lanes) = (self.batch, self.hooks, &mut self.lanes);
        let grid = (self.cut == BatchCut::SizeOrClose).then_some(self.router.plan.grid);
        self.router.route(e, |idx, e, owned| {
            let lane = &mut lanes[idx];
            let close =
                grid.is_some_and(|g| lane.cuts_at(e.time.ticks(), g, || hooks.backlog(idx) == 0));
            lane.buf.push(e);
            lane.owned.push(owned);
            lane.tag = tag;
            if close || lane.buf.len() >= batch {
                lane.tag = tag.or_else(|| hooks.stamp());
                lane.ship(idx, batch, hooks);
            }
        });
    }

    /// Hands every partial batch to its worker now — for a feed about
    /// to wait on something other than events.
    pub fn ship_partials(&mut self) {
        for (idx, lane) in self.lanes.iter_mut().enumerate() {
            lane.ship(idx, self.batch, self.hooks);
        }
    }

    /// The one barrier: each shard gets its partial batch, then `msg`.
    /// FIFO delivery means each worker meets it after exactly the events
    /// pushed before it — the same cut on every shard.
    fn barrier(&mut self, msg: impl Fn() -> ShardMsg<T>) {
        for (idx, lane) in self.lanes.iter_mut().enumerate() {
            lane.ship(idx, self.batch, self.hooks);
            lane.send(idx, msg(), self.hooks);
        }
    }

    /// The churn barrier: the router checks `op` against the evolving
    /// workload and compiles the post-churn plan once; then every shard
    /// installs that plan at the same stream position, and the lanes move
    /// to the post-churn window grid. The coordinator is the only thread
    /// that routes, so re-planning before the sends is safe. A rejected
    /// op changes nothing.
    pub fn churn(&mut self, op: ChurnOp) -> Result<(), ChurnError> {
        self.router.apply(&op)?;
        let plan = self.router.plan.clone();
        self.barrier(|| ShardMsg::Churn(plan.clone()));
        let grid = self.router.plan.grid;
        for lane in self.lanes.iter_mut().filter(|l| l.close != 0) {
            lane.close = next_close(lane.tick, grid);
        }
        Ok(())
    }

    /// The cut barrier: every shard cuts and encodes its next chain
    /// record on its own worker, at the same stream position; blocks
    /// until all have replied and returns the records in shard order
    /// with the chain position they agree on, for a container at
    /// `version` ([`Checkpoint::container_meta`]).
    ///
    /// Each engine promotes a delta it cannot vouch for to a base, so
    /// the records agree only where the shards' soundness does. A
    /// pipeline's shards gain and lose it only at barriers every shard
    /// meets (a cut, a churn, the restore it starts from); the offline
    /// session, whose engines a caller may touch one by one between
    /// calls, asks for a delta only when every shard can cut one.
    pub fn cut(
        &mut self,
        kind: CutKind,
        version: u16,
    ) -> Result<(Vec<Checkpoint>, ChainMeta), CheckpointError> {
        let (reply, replies) = mpsc::channel();
        self.barrier(|| ShardMsg::Cut(kind, reply.clone()));
        drop(reply);
        // Ends when every worker has replied or died.
        let mut shards: Vec<(usize, Checkpoint)> = replies.iter().collect();
        if shards.len() != self.lanes.len() {
            return Err(CheckpointError::Io(
                "a shard worker died during the cut".into(),
            ));
        }
        shards.sort_by_key(|(idx, _)| *idx);
        let shards: Vec<Checkpoint> = shards.into_iter().map(|(_, ck)| ck).collect();
        Checkpoint::container_meta(version, &shards).map(|meta| (shards, meta))
    }

    /// The end-of-stream barrier: every open window on every shard
    /// emits. A feed that ends without it leaves them in the engines.
    pub fn flush(&mut self) {
        self.barrier(|| ShardMsg::Flush);
    }
}

/// One shard worker: applies its FIFO to its engine, in order, until
/// the coordinator hangs up; returns the results `hooks` left it.
fn shard_loop<T>(
    idx: usize,
    eng: &mut HamletEngine,
    rx: &mpsc::Receiver<ShardMsg<T>>,
    hooks: &impl ShardHooks<T>,
) -> Vec<WindowResult> {
    let mut out = Vec::new();
    let mut emit = |eng: &HamletEngine, batch, mut results: Vec<WindowResult>| {
        hooks.emitted(idx, eng, batch, &mut results);
        out.append(&mut results);
    };
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Batch(events, owned, tag) => {
                let results = eng.process_routed(&events, Some(&owned));
                emit(eng, Some((events.len(), tag)), results);
            }
            ShardMsg::Churn(plan) => {
                // Windows of touched share groups drain here, exactly
                // once, like any other result.
                let t = eng.span_start();
                let drained = eng.install(plan).drained;
                emit(eng, None, drained);
                eng.span_end(Stage::ChurnBarrier, t, None, 0);
            }
            ShardMsg::Cut(kind, reply) => {
                let t = eng.span_start();
                let record = record::cut(eng, kind);
                eng.span_end(Stage::CheckpointPause, t, None, 0);
                let _ = reply.send((idx, record));
            }
            ShardMsg::Flush => {
                let flushed = eng.flush();
                emit(eng, None, flushed);
            }
        }
    }
    out
}

/// Result of a parallel run: the merged, deterministically ordered window
/// results plus a per-worker breakdown and aggregate views of the §6.1
/// metrics.
pub struct ParallelReport {
    /// All window results, sorted by `(window_start, query, group_key)`.
    /// The order is a guarantee: it does not depend on worker count or
    /// thread scheduling, so two runs of the same workload — parallel or
    /// single-threaded (after [`sort_results`]) — compare byte-for-byte.
    pub results: Vec<WindowResult>,
    /// Per-worker engine statistics (index = shard index).
    pub stats: Vec<EngineStats>,
    /// Per-worker peak byte-accounted state.
    pub peak_mem: Vec<usize>,
    /// Per-worker result latency recorders.
    pub latency: Vec<LatencyRecorder>,
    /// Per-worker per-share-group observability counters (index =
    /// shard index; empty inner vectors when `EngineConfig::obs` is
    /// off). Merge with [`Self::merged_group_metrics`].
    pub group_metrics: Vec<Vec<GroupMetrics>>,
    /// Events fed to the router.
    pub events: u64,
    /// End-to-end wall time of the run (routing + processing + merge).
    pub wall: Duration,
}

impl ParallelReport {
    /// Workload-level statistics: every worker's counters accumulated.
    pub fn merged_stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for s in &self.stats {
            total.merge(s);
        }
        total
    }

    /// All workers' latency samples merged into one recorder.
    pub fn merged_latency(&self) -> LatencyRecorder {
        let mut total = LatencyRecorder::new();
        for l in &self.latency {
            total.merge(l);
        }
        total
    }

    /// Per-share-group counters summed across shards, keyed by group
    /// signature and sorted canonically — byte-identical for any
    /// worker count over the same workload and stream.
    pub fn merged_group_metrics(&self) -> Vec<GroupMetrics> {
        merge_group_metrics(self.group_metrics.iter().cloned())
    }

    /// Sum of the per-worker peaks — the aggregate state footprint if
    /// every shard hit its peak simultaneously (upper bound).
    pub fn total_peak_mem(&self) -> usize {
        self.peak_mem.iter().sum()
    }

    /// End-to-end events per second (router input over wall time).
    pub fn throughput_eps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }

    /// Number of workers that ran.
    pub fn workers(&self) -> usize {
        self.stats.len()
    }
}

/// Partition-parallel executor over a finite stream: a worker count and
/// a workload, from which every run opens a fresh [`ParallelSession`].
pub struct ParallelEngine {
    router: ShardRouter,
}

impl ParallelEngine {
    /// Compiles the workload once for a `workers`-way sharding.
    /// `workers` outside `1..=64` (the shard mask is a `u64`) is
    /// [`EngineError::Unsupported`].
    pub fn new(
        reg: Arc<TypeRegistry>,
        queries: Vec<Query>,
        cfg: EngineConfig,
        workers: u32,
    ) -> Result<Self, EngineError> {
        ShardRouter::new(reg, queries, cfg, workers).map(|router| ParallelEngine { router })
    }

    /// Opens a **live session** over this engine's workload and
    /// sharding: the per-shard engines are built once and held across
    /// calls, so processing can interleave with churn and coordinated
    /// chain cuts ([`crate::Snapshot::cut`]). [`run`](Self::run) opens
    /// its own and is unaffected.
    pub fn session(&self) -> ParallelSession {
        ParallelSession::open(self.router.clone())
    }

    /// Processes a finite stream on a fresh session to the end of the
    /// stream, and reads the report off its engines.
    pub fn run(&self, events: &[Event]) -> ParallelReport {
        // hamlet-lint: allow(wallclock) -- run-duration measurement for the report
        let t0 = Instant::now();
        let mut session = self.session();
        let results = session.drive(events, true);
        let engines = &session.engines;
        ParallelReport {
            results,
            stats: engines.iter().map(|e| *e.stats()).collect(),
            peak_mem: engines.iter().map(HamletEngine::peak_memory).collect(),
            latency: engines.iter().map(|e| e.latency().clone()).collect(),
            group_metrics: engines.iter().map(|e| e.group_metrics().to_vec()).collect(),
            events: events.len() as u64,
            wall: t0.elapsed(),
        }
    }
}

/// The shard executor (see the module docs): `workers` shard-owning
/// engines held in memory across calls, plus the router that feeds
/// them. Open one with [`ParallelEngine::session`]. Results are
/// canonically sorted per call, so output is identical across worker
/// counts, call boundary by call boundary.
///
/// Implements [`crate::Snapshot`]: [`cut`](crate::Snapshot::cut) is a
/// feed with one cut barrier ([`Feed::cut`]: every shard encodes its
/// chain record on its own worker, at the same stream position) that
/// packs the records into one `HMPC` container, and
/// [`churn`](Self::churn) a feed with one churn barrier;
/// [`restore_chain`](Self::restore_chain) decomposes a
/// container chain back into per-shard chains
/// ([`record::restore_shards`]); a failed restore leaves every shard
/// untouched.
pub struct ParallelSession {
    router: ShardRouter,
    /// One shard-owning engine per worker (index = shard).
    engines: Vec<HamletEngine>,
}

impl ParallelSession {
    /// Builds `router`'s shard engines from its compiled plan.
    pub fn open(router: ShardRouter) -> ParallelSession {
        ParallelSession {
            engines: router.engines(),
            router,
        }
    }

    /// Routes one slice of the stream to the shard engines and returns
    /// the merged, canonically sorted results it emitted.
    pub fn process(&mut self, events: &[Event]) -> Vec<WindowResult> {
        self.drive(events, false)
    }

    /// Applies a churn op after everything processed so far, at the
    /// churn barrier of a feed of its own ([`Feed::churn`]). Returns the
    /// windows the op drained (see the churn contract on
    /// [`HamletEngine::remove_query`]), canonically sorted. A rejected
    /// op returns its error and changes nothing.
    pub fn churn(&mut self, op: ChurnOp) -> Result<Vec<WindowResult>, ChurnError> {
        let (applied, mut drained) = self.feed(BatchCut::Size, &(), |f| f.churn(op));
        applied?;
        sort_results(&mut drained);
        Ok(drained)
    }

    /// Finalizes every in-flight window on every shard (end of stream),
    /// merged and canonically sorted.
    pub fn flush(&mut self) -> Vec<WindowResult> {
        self.drive(&[], true)
    }

    /// Restores every shard from an ordered chain of `HMPC` containers
    /// (as loaded by [`crate::CheckpointStore::load_chain`]): the last
    /// full record in the slice and its contiguous deltas. Validates
    /// linkage, epoch uniformity, worker count and workload fingerprints
    /// before committing any state.
    pub fn restore_chain(&mut self, chain: &[Checkpoint]) -> Result<(), CheckpointError> {
        let mut records = Vec::with_capacity(chain.len());
        for ck in chain {
            let mut d = Dec::new(ck.as_bytes());
            let (_, _, shards) =
                checkpoint::read_container_any(&mut d, &PARALLEL_MAGIC, &[PARALLEL_VERSION])?;
            d.expect_end()?;
            records.push(shards);
        }
        record::restore_shards(&mut self.engines, &records).map(drop)
    }

    /// Number of shard workers in the session.
    pub fn workers(&self) -> u32 {
        self.router.workers()
    }

    /// The shard engines (index = shard), for reading their statistics,
    /// state size and metrics between calls.
    pub fn engines(&self) -> &[HamletEngine] {
        &self.engines
    }

    /// The shard engines, for what is done to each before a run:
    /// restoring per-shard records ([`record::restore_shards`]),
    /// attaching a span recorder.
    pub fn engines_mut(&mut self) -> &mut [HamletEngine] {
        &mut self.engines
    }

    /// The slice feed: `events`, then the flush barrier if `flush`, and
    /// everything the shards emitted in canonical order. Inline at one
    /// worker (see the module docs), in [`BatchCut::Size`] batches;
    /// otherwise through [`feed`](Self::feed).
    fn drive(&mut self, events: &[Event], flush: bool) -> Vec<WindowResult> {
        let mut out: Vec<WindowResult> = if let [eng] = self.engines.as_mut_slice() {
            let mut out: Vec<WindowResult> = (events.chunks(BatchCut::Size.size()))
                .flat_map(|span| eng.process_batch(span))
                .collect();
            if flush {
                out.extend(eng.flush());
            }
            out
        } else {
            let body = |feed: &mut Feed<'_, (), ()>| {
                events.iter().for_each(|e| feed.push(e.clone(), None));
                if flush {
                    feed.flush();
                }
            };
            self.feed(BatchCut::Size, &(), body).1
        };
        sort_results(&mut out);
        out
    }

    /// The executor: one scoped worker thread per shard engine behind a
    /// FIFO of as many batches as `cut` fixes, fed by `body`
    /// on the caller's thread for as long as it runs. When `body`
    /// returns, every partial batch is shipped, the FIFOs close, the
    /// workers drain them and are joined; returns `body`'s value and the
    /// results `hooks` did not take ([`ShardHooks::emitted`]), unsorted.
    /// A worker that panicked takes the caller with it here — the one
    /// join.
    pub fn feed<T, H, R>(
        &mut self,
        cut: BatchCut,
        hooks: &H,
        body: impl FnOnce(&mut Feed<'_, T, H>) -> R,
    ) -> (R, Vec<WindowResult>)
    where
        T: Copy + Send,
        H: ShardHooks<T>,
    {
        let batch = cut.size();
        std::thread::scope(|scope| {
            let (lanes, handles): (Vec<_>, Vec<_>) = (self.engines.iter_mut().enumerate())
                .map(|(idx, eng)| {
                    let (tx, rx) = mpsc::sync_channel(cut.depth());
                    let handle = std::thread::Builder::new()
                        .name(format!("hamlet-shard-{idx}"))
                        .spawn_scoped(scope, move || shard_loop(idx, eng, &rx, hooks))
                        // hamlet-lint: allow(panic-hygiene) -- no thread, no shard: nothing has run yet, so there is nothing to clean up
                        .expect("spawn shard worker");
                    let lane = Lane {
                        tx,
                        buf: Vec::with_capacity(batch),
                        owned: Vec::with_capacity(batch),
                        tag: None,
                        tick: 0,
                        close: 0,
                    };
                    (lane, handle)
                })
                .unzip();
            let mut feed = Feed {
                router: &mut self.router,
                lanes,
                batch,
                cut,
                hooks,
            };
            let out = body(&mut feed);
            feed.ship_partials();
            drop(feed); // hang up: the workers drain their FIFOs and return
            let left = (handles.into_iter())
                // hamlet-lint: allow(panic-hygiene) -- join propagates a worker panic; swallowing it would fake a clean run
                .flat_map(|h| h.join().expect("worker thread panicked"))
                .collect();
            (out, left)
        })
    }
}

impl Snapshot for ParallelSession {
    fn cut(&mut self, kind: CutKind) -> Result<Checkpoint, CheckpointError> {
        // The record kind must be uniform across shards (the container
        // speaks for all of them with one chain position), and between
        // calls one shard may have been restored alone: a delta cut
        // happens only when *every* shard can prove one sound.
        let kind = match kind {
            CutKind::Delta if self.engines.iter().all(|e| e.dirty.sound()) => CutKind::Delta,
            _ => CutKind::Full,
        };
        let (cut, _) = self.feed(BatchCut::Size, &(), |f| f.cut(kind, PARALLEL_VERSION));
        let (shards, meta) = cut?;
        let bytes = checkpoint::container_header(
            &PARALLEL_MAGIC,
            PARALLEL_VERSION,
            self.workers(),
            &shards,
        )
        .finish();
        Ok(Checkpoint::new(bytes, meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_query::{parse_query, QueryId};
    use hamlet_types::{AttrValue, Ts};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn setup() -> (Arc<TypeRegistry>, Vec<Query>, Vec<Event>) {
        let mut reg = TypeRegistry::new();
        let a = reg.register("A", &["g"]);
        let b = reg.register("B", &["g"]);
        let c = reg.register("C", &["g"]);
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
                "RETURN COUNT(*) PATTERN SEQ(C, B+) GROUP BY g WITHIN 20",
            )
            .unwrap(),
        ];
        let mut events = Vec::new();
        for t in 0..200u64 {
            let ty = match t % 5 {
                0 => a,
                1 => c,
                _ => b,
            };
            events.push(Event::new(Ts(t), ty, vec![AttrValue::Int((t % 7) as i64)]));
        }
        (reg, queries, events)
    }

    #[test]
    fn parallel_matches_single_threaded_bit_identically() {
        let (reg, queries, events) = setup();
        // Reference: the raw engine, results sorted into report order.
        let mut eng =
            HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
        let mut reference = Vec::new();
        for e in &events {
            reference.extend(eng.process(e));
        }
        reference.extend(eng.flush());
        sort_results(&mut reference);
        for workers in [1u32, 2, 4, 7] {
            let par = ParallelEngine::new(
                reg.clone(),
                queries.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap()
            .run(&events);
            // No normalization: the full result set — zero rows included —
            // is identical, in identical order.
            assert_eq!(reference, par.results, "{workers} workers");
            assert_eq!(par.stats.len(), workers as usize);
            assert_eq!(par.latency.len(), workers as usize);
            assert_eq!(par.events, events.len() as u64);
        }
    }

    /// Zero-length and ragged `process` calls are inert: a call sequence
    /// with empty head/middle/tail slices and a trailing partial produces
    /// bit-identical results to the whole-slice run — an empty call must
    /// be a no-op, not a watermark side-effect.
    #[test]
    fn empty_and_partial_input_batches_are_inert() {
        let (reg, queries, events) = setup();
        for workers in [1u32, 4] {
            let par = ParallelEngine::new(
                reg.clone(),
                queries.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap();
            let mut sess = par.session();
            let mut got = Vec::new();
            for span in [
                &[][..],
                &events[0..1],
                &[],
                &events[1..64],
                &events[64..64],
                &events[64..199],
                &events[199..200],
                &[],
            ] {
                got.extend(sess.process(span));
            }
            got.extend(sess.flush());
            sort_results(&mut got);
            assert_eq!(par.run(&events).results, got, "{workers} workers");
        }
    }

    /// What differs between the two front ends is an argument of the
    /// one executor, so it is tested as one: every cell of cut rule ×
    /// feed-call length × workers × {plain, a churn op mid-stream, a
    /// delta cut and a chain restore mid-stream} is byte-identical to
    /// the single-engine run. Each `feed` call ships its partial batches
    /// when it returns, so the call length varies the batch boundaries.
    /// (One worker goes through `feed` here, as a pipeline's does; the
    /// inline slice path is the public `run`.)
    #[test]
    fn batch_size_does_not_change_results() {
        let (reg, queries, events) = setup();
        let q9 = parse_query(
            &reg,
            9,
            "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g WITHIN 10",
        )
        .unwrap();
        let (a, b) = (67, 131);
        let single = |op: Option<ChurnOp>| {
            let mut eng =
                HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
            let mut out = eng.process_batch(&events[..b]);
            if let Some(op) = op {
                out.extend(eng.apply(op).unwrap().drained);
            }
            out.extend(eng.process_batch(&events[b..]));
            out.extend(eng.flush());
            sort_results(&mut out);
            out
        };
        let (plain, churned) = (single(None), single(Some(ChurnOp::Add(q9.clone()))));
        for (cut, len, workers) in [BatchCut::Size, BatchCut::SizeOrClose]
            .into_iter()
            .flat_map(|c| [1usize, 7, 1024].map(|l| (c, l)))
            .flat_map(|(c, l)| [1u32, 2, 4].map(|w| (c, l, w)))
        {
            let cell = format!("{cut:?}, calls of {len}, {workers} workers");
            let par = ParallelEngine::new(
                reg.clone(),
                queries.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap();
            assert_eq!(par.run(&events).results, plain, "{cell}, run");
            // Feeds `span` through the executor under this cell's cut
            // rule in calls of `len` events, with `then` as the last
            // thing before the last call's hang-up.
            let feed = |sess: &mut ParallelSession,
                        span: &[Event],
                        then: &mut dyn FnMut(&mut Feed<'_, (), ()>)| {
                let calls: Vec<&[Event]> = span.chunks(len).collect();
                let mut out = Vec::new();
                for (i, call) in calls.iter().enumerate() {
                    let body = |feed: &mut Feed<'_, (), ()>| {
                        call.iter().for_each(|e| feed.push(e.clone(), None));
                        if i + 1 == calls.len() {
                            then(feed);
                        }
                    };
                    out.extend(sess.feed(cut, &(), body).1);
                }
                out
            };
            let sorted = |mut out: Vec<WindowResult>| {
                sort_results(&mut out);
                out
            };

            let mut sess = par.session();
            let mut out = feed(&mut sess, &events[..b], &mut |_| ());
            out.extend(feed(&mut sess, &events[b..], &mut |f| f.flush()));
            assert_eq!(sorted(out), plain, "{cell}, plain");

            let mut sess = par.session();
            let add = &mut |f: &mut Feed<'_, (), ()>| f.churn(ChurnOp::Add(q9.clone())).unwrap();
            let mut out = feed(&mut sess, &events[..b], add);
            out.extend(feed(&mut sess, &events[b..], &mut |f| f.flush()));
            assert_eq!(sorted(out), churned, "{cell}, churn");

            // A base at `a`, a delta at `b`, both taken at the in-run
            // barrier; the victim is dropped with its windows open.
            let mut chain = Vec::new();
            let mut cut_now = |f: &mut Feed<'_, (), ()>| {
                let (shards, _) = f.cut(CutKind::Delta, PARALLEL_VERSION).unwrap();
                chain.push(container(&shards));
            };
            let mut sess = par.session();
            let mut out = feed(&mut sess, &events[..a], &mut cut_now);
            out.extend(feed(&mut sess, &events[a..b], &mut cut_now));
            drop(sess);
            assert_eq!(
                [chain[0].is_delta(), chain[1].is_delta()],
                [false, true],
                "{cell}"
            );
            let mut sess = par.session();
            sess.restore_chain(&chain).unwrap();
            out.extend(feed(&mut sess, &events[b..], &mut |f| f.flush()));
            assert_eq!(sorted(out), plain, "{cell}, delta cut + chain restore");
        }
    }

    /// Churn that changes which key classes a type carries, and in what
    /// order, mid-feed: adding `q4` gives `D` a class and `B` a third
    /// group, removing `q1` turns `B`'s classes from `[g, h]` to
    /// `[h, g]`, so bit 0 of a verdict names another class after the
    /// barrier. Under both cut rules, at 1 to 4 workers, in feed calls
    /// of 7 and of 1024 events, every result is byte-identical to the
    /// single engine's taking the same ops at the same positions.
    #[test]
    fn churn_that_reorders_key_classes_keeps_results() {
        let mut reg = TypeRegistry::new();
        let [a, b, c, d] = ["A", "B", "C", "D"].map(|ty| reg.register(ty, &["g", "h"]));
        let reg = Arc::new(reg);
        let q = |id, text: &str| parse_query(&reg, id, text).unwrap();
        let queries = vec![
            q(1, "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g WITHIN 20"),
            q(2, "RETURN COUNT(*) PATTERN SEQ(C, B+) GROUP BY h WITHIN 20"),
        ];
        let q4 = q(4, "RETURN COUNT(*) PATTERN SEQ(D, B+) GROUP BY g WITHIN 10");
        let ops = [(90, ChurnOp::Add(q4)), (170, ChurnOp::Remove(QueryId(1)))];
        let events: Vec<Event> = (0..260u64)
            .map(|i| {
                let ty = [a, b, c, b, d, b][(i % 6) as usize];
                let attrs = vec![
                    AttrValue::Int((i % 5) as i64),
                    AttrValue::Int((i % 3) as i64),
                ];
                Event::new(Ts(i / 2), ty, attrs)
            })
            .collect();
        let classes = |router: &ShardRouter| -> Vec<Vec<Arc<str>>> {
            let reps = &router.plan.key_reps[b.idx()];
            reps.iter()
                .map(|&gi| router.plan.groups[gi as usize].partition_attrs.clone())
                .collect()
        };
        let mut eng =
            HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
        let mut router =
            ShardRouter::new(reg.clone(), queries.clone(), EngineConfig::default(), 2).unwrap();
        let before = classes(&router);
        let (mut want, mut pos) = (Vec::new(), 0);
        for (at, op) in &ops {
            want.extend(eng.process_batch(&events[pos..*at]));
            want.extend(eng.apply(op.clone()).unwrap().drained);
            router.apply(op).unwrap();
            pos = *at;
        }
        want.extend(eng.process_batch(&events[pos..]));
        want.extend(eng.flush());
        sort_results(&mut want);
        let after = classes(&router);
        assert_eq!(before.len(), 2);
        assert_eq!(after, before.into_iter().rev().collect::<Vec<_>>());
        assert!(!router.plan.key_reps[d.idx()].is_empty());

        for (cut, len, workers) in [BatchCut::Size, BatchCut::SizeOrClose]
            .into_iter()
            .flat_map(|c| [7usize, 1024].map(|l| (c, l)))
            .flat_map(|(c, l)| [1u32, 2, 3, 4].map(|w| (c, l, w)))
        {
            let mut sess = ParallelEngine::new(
                reg.clone(),
                queries.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap()
            .session();
            // Each op (and the final flush) is a feed call of its own.
            let (mut got, mut pos) = (Vec::new(), 0);
            let stops = ops.iter().map(|(at, op)| (*at, Some(op)));
            for (at, op) in stops.chain([(events.len(), None)]) {
                for call in events[pos..at].chunks(len) {
                    let push = |f: &mut Feed<'_, (), ()>| {
                        call.iter().for_each(|e| f.push(e.clone(), None));
                    };
                    got.extend(sess.feed(cut, &(), push).1);
                }
                let barrier = |f: &mut Feed<'_, (), ()>| match op {
                    Some(op) => f.churn(op.clone()).unwrap(),
                    None => f.flush(),
                };
                got.extend(sess.feed(cut, &(), barrier).1);
                pos = at;
            }
            sort_results(&mut got);
            assert_eq!(got, want, "{cut:?}, calls of {len}, {workers} workers");
        }
    }

    /// A type with more than 64 key classes: a verdict has no bit for
    /// the 65th and later, so the shard engines hash those keys under
    /// their `EngineConfig::shard` — and still compute what one engine
    /// does.
    #[test]
    fn key_classes_past_the_64th_are_hashed_by_their_shard() {
        let names: Vec<String> = (0..7).map(|i| format!("a{i}")).collect();
        let attrs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut reg = TypeRegistry::new();
        let (a, b) = (reg.register("A", &attrs), reg.register("B", &attrs));
        let reg = Arc::new(reg);
        // One query per non-empty attribute subset 1..=66: 66 key classes.
        let queries: Vec<Query> = (1..=66u32)
            .map(|set| {
                let by: Vec<&str> = (0..7)
                    .filter(|i| set >> i & 1 == 1)
                    .map(|i| attrs[i])
                    .collect();
                let text = format!(
                    "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY {} WITHIN 20",
                    by.join(", ")
                );
                parse_query(&reg, set, &text).unwrap()
            })
            .collect();
        let events: Vec<Event> = (0..120u64)
            .map(|i| {
                let attrs = (0..7)
                    .map(|k| AttrValue::Int(((i >> k) % 3) as i64))
                    .collect();
                Event::new(Ts(i / 2), if i % 3 == 0 { a } else { b }, attrs)
            })
            .collect();
        let par = |workers| {
            ParallelEngine::new(
                reg.clone(),
                queries.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap()
        };
        assert_eq!(par(2).router.plan.key_reps[b.idx()].len(), 66);
        let single = par(1).run(&events).results;
        assert!(!single.is_empty());
        for workers in [2, 3] {
            assert_eq!(
                par(workers).run(&events).results,
                single,
                "{workers} workers"
            );
        }
    }

    /// Counts the batches the coordinator ships and the stamps it takes,
    /// and every batch that emitted results without a tag.
    #[derive(Default)]
    struct Stamps {
        shipped: AtomicUsize,
        stamped: AtomicUsize,
        results: AtomicUsize,
        unstamped: AtomicUsize,
    }

    impl ShardHooks<()> for Stamps {
        fn queued(&self, _: usize, _: usize) {
            self.shipped.fetch_add(1, Ordering::Relaxed);
        }

        fn stamp(&self) -> Option<()> {
            self.stamped.fetch_add(1, Ordering::Relaxed);
            Some(())
        }

        fn emitted(
            &self,
            _: usize,
            _: &HamletEngine,
            batch: Option<(usize, Option<()>)>,
            results: &mut Vec<WindowResult>,
        ) {
            let Some((_, tag)) = batch else { return };
            self.results.fetch_add(results.len(), Ordering::Relaxed);
            if !results.is_empty() && tag.is_none() {
                self.unstamped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// An in-order feed pushes its events bare: under the pipeline's cut
    /// rule, at one worker and at two, the stamp is taken no more often
    /// than a batch is shipped — once per push that ships one, never per
    /// event — and every batch that emits results carries one.
    #[test]
    fn a_bare_push_is_stamped_only_where_it_ships_a_batch() {
        let (reg, queries, _) = setup();
        let events = burst_stream(&reg, 0..60, 20);
        for workers in [1u32, 2] {
            let hooks = Stamps::default();
            let mut sess = ParallelEngine::new(
                reg.clone(),
                queries.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap()
            .session();
            sess.feed(BatchCut::SizeOrClose, &hooks, |f| {
                events.iter().for_each(|e| f.push(e.clone(), None));
            });
            let [shipped, stamped, results, unstamped] = [
                &hooks.shipped,
                &hooks.stamped,
                &hooks.results,
                &hooks.unstamped,
            ]
            .map(|n| n.load(Ordering::Relaxed));
            assert!(
                0 < stamped && stamped <= shipped,
                "{workers} workers: {stamped} stamps, {shipped} batches"
            );
            assert!(
                stamped < events.len() / 8,
                "{workers} workers: {stamped} stamps"
            );
            assert!(results > 0, "{workers} workers: no window closed");
            assert_eq!(
                unstamped, 0,
                "{workers} workers: results of an unstamped batch"
            );
        }
    }

    /// A [`ShardHooks`] that counts each shard's backlog the way the
    /// pipeline does, records every batch its workers finish as (events,
    /// tag of the last), and holds them inside `emitted` while `held` is
    /// set — until `until` at the latest, so a cut rule that overfills
    /// the FIFOs fails its test instead of hanging it.
    struct Recorder {
        backlog: Vec<AtomicUsize>,
        batches: Mutex<Vec<Vec<(usize, usize)>>>,
        held: AtomicBool,
        until: Instant,
    }

    impl ShardHooks<usize> for Recorder {
        fn queued(&self, shard: usize, events: usize) {
            self.backlog[shard].fetch_add(events, Ordering::Relaxed);
        }

        fn backlog(&self, shard: usize) -> usize {
            self.backlog[shard].load(Ordering::Relaxed)
        }

        fn emitted(
            &self,
            shard: usize,
            _: &HamletEngine,
            batch: Option<(usize, Option<usize>)>,
            _: &mut Vec<WindowResult>,
        ) {
            let Some((len, last)) = batch else { return };
            while self.held.load(Ordering::Relaxed) && Instant::now() < self.until {
                std::thread::sleep(Duration::from_millis(1));
            }
            // Every push is tagged: an untagged batch fails the tag check.
            let last = last.unwrap_or(usize::MAX);
            self.batches.lock().unwrap()[shard].push((len, last));
            self.backlog[shard].fetch_sub(len, Ordering::Relaxed);
        }
    }

    /// `per_tick` events at each tick of `ticks`, types cycling `A`, `C`,
    /// `B`, `B`, `B` and keys over seven values.
    fn burst_stream(reg: &TypeRegistry, ticks: std::ops::Range<u64>, per_tick: u64) -> Vec<Event> {
        let [a, b, c] = ["A", "B", "C"].map(|ty| reg.type_id(ty).unwrap());
        let ty = |i: u64| [a, c, b, b, b][(i % 5) as usize];
        (ticks.flat_map(|t| (0..per_tick).map(move |k| (t, t * per_tick + k))))
            .map(|(t, i)| Event::new(Ts(t), ty(i), vec![AttrValue::Int((i % 7) as i64)]))
            .collect()
    }

    /// One shard's view of a [`BatchCut::SizeOrClose`] feed: the tick of
    /// every event it was routed, the grid in force for each, whether
    /// each ended a batch, and every batch as (position of its last
    /// event, events).
    #[derive(Default)]
    struct Cuts {
        ticks: Vec<u64>,
        grids: Vec<u64>,
        ends: Vec<bool>,
        batches: Vec<(usize, usize)>,
    }

    impl Cuts {
        /// Whether event `p` may close windows: the first of the shard's,
        /// or one that passes a multiple of the grid.
        fn closes(&self, p: usize) -> bool {
            let g = self.grids[p];
            p == 0 || self.ticks[p] / g > self.ticks[p - 1] / g
        }

        fn advances(&self, p: usize) -> bool {
            p > 0 && self.ticks[p] != self.ticks[p - 1]
        }
    }

    /// Feeds `events` to a fresh `workers`-way session under the
    /// pipeline's cut rule — `churn` before the event it names — either
    /// with every worker held in `emitted` for the whole feed, or
    /// waiting before each push until every worker is idle; returns each
    /// shard's [`Cuts`].
    fn cuts(
        workers: u32,
        events: &[Event],
        held: bool,
        churn: Option<(usize, ChurnOp)>,
    ) -> Vec<Cuts> {
        let (reg, queries, _) = setup();
        let mut sess = ParallelEngine::new(reg, queries, EngineConfig::default(), workers)
            .unwrap()
            .session();
        let n = workers as usize;
        // Who owns what, from a router that takes the same churn.
        let mut router = sess.router.clone();
        let mut shards: Vec<Cuts> = (0..n).map(|_| Cuts::default()).collect();
        let mut owners: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, e) in events.iter().enumerate() {
            if let Some((_, op)) = churn.as_ref().filter(|(at, _)| *at == i) {
                router.apply(op).unwrap();
            }
            let grid = router.plan.grid;
            router.route(e.clone(), |idx, e, _| {
                owners[idx].push(i);
                shards[idx].ticks.push(e.time.ticks());
                shards[idx].grids.push(grid);
            });
        }
        let hooks = Recorder {
            backlog: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            batches: Mutex::new(vec![Vec::new(); n]),
            held: AtomicBool::new(held),
            until: Instant::now() + Duration::from_secs(5),
        };
        let body = |feed: &mut Feed<'_, usize, Recorder>| {
            for (i, e) in events.iter().enumerate() {
                if let Some((_, op)) = churn.as_ref().filter(|(at, _)| *at == i) {
                    feed.churn(op.clone()).unwrap();
                }
                while !held && hooks.backlog.iter().any(|b| b.load(Ordering::Relaxed) > 0) {
                    std::thread::yield_now();
                }
                feed.push(e.clone(), Some(i));
            }
            hooks.held.store(false, Ordering::Relaxed);
        };
        sess.feed(BatchCut::SizeOrClose, &hooks, body);
        for (idx, (shard, batches)) in shards
            .iter_mut()
            .zip(hooks.batches.into_inner().unwrap())
            .enumerate()
        {
            let mut pos = 0;
            shard.ends = vec![false; shard.ticks.len()];
            for (len, last) in batches {
                pos += len;
                assert_eq!(owners[idx][pos - 1], last, "shard {idx}: batch tag");
                shard.ends[pos - 1] = true;
                shard.batches.push((pos - 1, len));
            }
            assert_eq!(
                pos,
                shard.ticks.len(),
                "shard {idx}: every event in a batch"
            );
        }
        shards
    }

    /// Every event that may close windows ends its batch, busy worker
    /// or idle, at one shard and at two.
    #[test]
    fn an_event_that_may_close_windows_ends_its_batch() {
        let (reg, _, _) = setup();
        let events = burst_stream(&reg, 0..60, 20);
        for (workers, held) in [(1, true), (1, false), (2, true), (2, false)] {
            for (idx, shard) in cuts(workers, &events, held, None).iter().enumerate() {
                assert!(shard.grids.iter().all(|&g| g == 20));
                for p in (0..shard.ticks.len()).filter(|&p| shard.closes(p)) {
                    assert!(
                        shard.ends[p],
                        "{workers} workers, held {held}, shard {idx}: {p}"
                    );
                }
            }
        }
    }

    /// A busy worker's batches end only at 256 events, where a window
    /// may close, or at the end of the feed: same-pane tick advances
    /// leave them filling. An idle worker's still end at every tick
    /// advance.
    #[test]
    fn a_busy_worker_gets_full_batches_and_an_idle_one_every_tick() {
        let (reg, _, _) = setup();
        let events = burst_stream(&reg, 0..60, 20);
        let held = cuts(1, &events, true, None).remove(0);
        let last = held.ticks.len() - 1;
        for &(end, len) in &held.batches {
            assert!(
                len == 256 || held.closes(end) || end == last,
                "{len} to {end}"
            );
        }
        // After the first event's own batch, each 400-event pane is one
        // full batch and the rest up to the event that closes it.
        let sizes: Vec<usize> = held.batches.iter().map(|b| b.1).collect();
        assert_eq!(sizes, [1, 256, 144, 256, 144, 256, 143]);
        assert!((0..last).any(|p| held.advances(p) && !held.ends[p]));

        let idle = cuts(1, &events, false, None).remove(0);
        for p in (0..idle.ticks.len()).filter(|&p| idle.advances(p)) {
            assert!(idle.ends[p], "idle worker, event {p} advances the tick");
        }
    }

    /// Churn moves the grid: adding a `WITHIN 7` query to a `WITHIN 20`
    /// workload makes every tick a grid point (gcd 1), so a busy
    /// worker's batches that spanned a whole pane end at every tick
    /// advance after the barrier — mid-pane, before the old grid's next
    /// point.
    #[test]
    fn churn_moves_the_grid() {
        let (reg, _, _) = setup();
        let mut events = burst_stream(&reg, 0..30, 3);
        let at = events.len();
        events.extend(burst_stream(&reg, 30..34, 3));
        let q9 = parse_query(
            &reg,
            9,
            "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g WITHIN 7",
        )
        .unwrap();
        let shard = cuts(1, &events, true, Some((at, ChurnOp::Add(q9)))).remove(0);
        assert_eq!((shard.grids[at - 1], shard.grids[at]), (20, 1));
        let before: Vec<usize> = (1..at).filter(|&p| shard.advances(p)).collect();
        assert!(before.iter().any(|&p| !shard.ends[p]), "a pane spans ticks");
        for p in (at..events.len()).filter(|&p| shard.advances(p)) {
            assert!(
                shard.ends[p],
                "after the churn, event {p} advances the tick"
            );
        }
    }

    /// A set of shard records that is no coordinated cut — one shard's
    /// delta beside another's base, or records one cut apart — has no
    /// chain position a container could speak with.
    #[test]
    fn container_meta_rejects_mixed_shard_records() {
        let (reg, queries, events) = setup();
        let mut shards: Vec<HamletEngine> = (0..2)
            .map(|idx| {
                let cfg = EngineConfig {
                    shard: Some((idx, 2)),
                    ..EngineConfig::default()
                };
                let mut eng = HamletEngine::new(reg.clone(), queries.clone(), cfg).unwrap();
                eng.process_batch(&events[..80]);
                eng
            })
            .collect();
        let mut cut = |idx: usize, kind| record::cut(&mut shards[idx], kind);
        let bases = [cut(0, CutKind::Full), cut(1, CutKind::Full)];
        let meta = Checkpoint::container_meta(PARALLEL_VERSION, &bases).unwrap();
        assert_eq!(
            (meta.version, meta.seq, meta.parent),
            (PARALLEL_VERSION, 1, None)
        );
        // Shard 0 cuts a delta, shard 1 a base: same seq, mixed kinds.
        let mixed = [cut(0, CutKind::Delta), cut(1, CutKind::Full)];
        assert!(mixed[0].is_delta() && !mixed[1].is_delta());
        assert!(matches!(
            Checkpoint::container_meta(PARALLEL_VERSION, &mixed),
            Err(CheckpointError::Corrupt(_))
        ));
        // Same kind, one cut apart.
        let skewed = [bases[0].clone(), mixed[1].clone()];
        assert!(Checkpoint::container_meta(PARALLEL_VERSION, &skewed).is_err());
        assert!(Checkpoint::container_meta(PARALLEL_VERSION, &[]).is_err());
    }

    #[test]
    fn results_are_sorted_by_window_query_key() {
        let (reg, queries, events) = setup();
        let par = ParallelEngine::new(reg.clone(), queries, EngineConfig::default(), 4)
            .unwrap()
            .run(&events);
        for pair in par.results.windows(2) {
            let ord = (pair[0].window_start, pair[0].query)
                .cmp(&(pair[1].window_start, pair[1].query))
                .then_with(|| pair[0].group_key.total_cmp(&pair[1].group_key));
            assert_ne!(ord, std::cmp::Ordering::Greater, "unsorted: {pair:?}");
        }
    }

    #[test]
    fn report_aggregates_workers() {
        let (reg, queries, events) = setup();
        let par = ParallelEngine::new(reg.clone(), queries, EngineConfig::default(), 4)
            .unwrap()
            .run(&events);
        let merged = par.merged_stats();
        assert_eq!(
            merged.events_routed,
            par.stats.iter().map(|s| s.events_routed).sum::<u64>()
        );
        assert_eq!(merged.windows_emitted, par.results.len() as u64);
        assert_eq!(par.total_peak_mem(), par.peak_mem.iter().sum::<usize>());
        assert_eq!(
            par.merged_latency().count(),
            par.latency.iter().map(|l| l.count()).sum::<u64>()
        );
        assert!(par.wall > Duration::ZERO);
        assert!(par.throughput_eps() > 0.0);
        assert_eq!(par.workers(), 4);
    }

    #[test]
    fn shards_partition_the_work() {
        let (reg, queries, events) = setup();
        let par = ParallelEngine::new(reg.clone(), queries, EngineConfig::default(), 4)
            .unwrap()
            .run(&events);
        // All 7 group-by keys are covered, each by exactly one worker.
        let keys: std::collections::BTreeSet<String> = par
            .results
            .iter()
            .map(|r| format!("{}", r.group_key))
            .collect();
        assert_eq!(keys.len(), 7);
        // Work split across more than one worker.
        let active = par.stats.iter().filter(|s| s.events_routed > 0).count();
        assert!(active >= 2, "work spread over workers: {active}");
        // Routing is exact: no worker saw more events than the stream.
        let routed: u64 = par.stats.iter().map(|s| s.events_routed).sum();
        assert!(routed <= events.len() as u64 * 2, "routing not broadcast");
        // Each result belongs to exactly one query per key/window (no
        // duplicates across workers).
        let mut seen = std::collections::BTreeSet::new();
        for r in &par.results {
            if r.query == QueryId(1) {
                assert!(
                    seen.insert((format!("{}", r.group_key), r.window_start)),
                    "duplicate result {r:?}"
                );
            }
        }
    }

    /// A legacy one-blob-per-shard `HMPC` container, as a session cut
    /// packs them (here around hand-made bare `HMEN` blobs).
    fn container(shards: &[impl AsRef<[u8]>]) -> Checkpoint {
        let bytes = checkpoint::container_header(
            &PARALLEL_MAGIC,
            PARALLEL_VERSION,
            shards.len() as u32,
            shards,
        )
        .finish();
        Checkpoint::from_bytes(bytes).unwrap()
    }

    /// Cut at an arbitrary barrier, restore into a fresh session,
    /// finish: the union of pre-barrier and post-restore results is
    /// byte-identical to one uninterrupted run, at 1 and several workers.
    #[test]
    fn checkpoint_resume_matches_uninterrupted() {
        let (reg, queries, events) = setup();
        for workers in [1u32, 4] {
            let eng = ParallelEngine::new(
                reg.clone(),
                queries.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap();
            let gold = eng.run(&events);
            for cut in [0usize, 63, events.len()] {
                let mut victim = eng.session();
                let mut all = victim.process(&events[..cut]);
                let ck = victim.cut(CutKind::Full).unwrap();
                drop(victim); // the crash
                assert!(!ck.is_delta() && !ck.is_empty());
                // Serialize/deserialize the container as a file would.
                let restored = Checkpoint::from_bytes(ck.into_bytes()).unwrap();
                let mut survivor = eng.session();
                assert_eq!(survivor.workers(), workers);
                survivor.restore_chain(&[restored]).unwrap();
                all.extend(survivor.process(&events[cut..]));
                all.extend(survivor.flush());
                sort_results(&mut all);
                assert_eq!(all, gold.results, "{workers} workers, cut {cut}");
            }
        }
    }

    /// Worker-count and container mismatches are clean errors.
    #[test]
    fn resume_validates_worker_count_and_container() {
        let (reg, queries, events) = setup();
        let mk = |workers| {
            ParallelEngine::new(
                reg.clone(),
                queries.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap()
            .session()
        };
        let mut four = mk(4);
        four.process(&events[..50]);
        let ck = four.cut(CutKind::Full).unwrap();
        assert!(matches!(
            mk(2).restore_chain(std::slice::from_ref(&ck)),
            Err(CheckpointError::WorkloadMismatch(_))
        ));
        assert!(matches!(
            Checkpoint::from_bytes(b"garbage!".to_vec()),
            Err(CheckpointError::BadMagic)
        ));
        // A truncated container may still peek (only the first shard's
        // header is read) but never restores.
        let blob = ck.into_bytes();
        let truncated = Checkpoint::from_bytes(blob[..blob.len() - 2].to_vec());
        assert!(truncated.and_then(|ck| mk(4).restore_chain(&[ck])).is_err());
    }

    /// Churn between slices is a session call: at 1, 2 and 4 workers the
    /// results — drained windows included — equal a single engine's that
    /// applies the same ops at the same stream positions, and the
    /// session ends at the final workload. A rejected op returns its
    /// error and changes nothing.
    #[test]
    fn churned_run_is_worker_count_invariant() {
        let (reg, queries, events) = setup();
        let q9 = parse_query(
            &reg,
            9,
            "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g WITHIN 10",
        )
        .unwrap();
        let ops = [
            (60usize, ChurnOp::Add(q9)),
            (140usize, ChurnOp::Remove(QueryId(9))),
        ];
        let mut eng =
            HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
        let (mut reference, mut pos) = (Vec::new(), 0);
        for (at, op) in &ops {
            reference.extend(eng.process_batch(&events[pos..*at]));
            reference.extend(eng.apply(op.clone()).unwrap().drained);
            pos = *at;
        }
        reference.extend(eng.process_batch(&events[pos..]));
        reference.extend(eng.flush());
        sort_results(&mut reference);
        // The churned results include q9's windows (drained or closed).
        assert!(reference.iter().any(|x| x.query == QueryId(9)));

        for workers in [1u32, 2, 4] {
            let mut sess = ParallelEngine::new(
                reg.clone(),
                queries.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap()
            .session();
            assert!(matches!(
                sess.churn(ChurnOp::Remove(QueryId(77))),
                Err(ChurnError::Unknown(QueryId(77)))
            ));
            assert!(matches!(
                sess.churn(ChurnOp::Add(queries[0].clone())),
                Err(ChurnError::Duplicate(QueryId(1)))
            ));
            let (mut got, mut pos) = (Vec::new(), 0);
            for (at, op) in &ops {
                got.extend(sess.process(&events[pos..*at]));
                got.extend(sess.churn(op.clone()).unwrap());
                pos = *at;
            }
            got.extend(sess.process(&events[pos..]));
            got.extend(sess.flush());
            sort_results(&mut got);
            assert_eq!(got, reference, "{workers} workers");
            assert_eq!(sess.router.plan.queries.len(), queries.len());
        }
    }

    /// A workload is compiled once per change and held once: after
    /// `open`, after a session churn, after a churn at the feed barrier
    /// the pipeline's `churn_at` ops take (under its cut rule) and after a
    /// chain restore, every shard engine holds the router's plan itself,
    /// and nothing else does. A lone engine's churn frees the plan it
    /// replaced.
    #[test]
    fn shard_engines_run_the_routers_plan() {
        let (reg, queries, events) = setup();
        let q9 = parse_query(&reg, 9, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 10").unwrap();
        let check = |sess: &ParallelSession, at: &str| {
            let plan = &sess.router.plan;
            let workers = sess.engines.len();
            assert!(
                (sess.engines.iter()).all(|eng| Arc::ptr_eq(&eng.plan, plan)),
                "{workers} workers, {at}"
            );
            assert_eq!(
                Arc::strong_count(plan),
                workers + 1,
                "{workers} workers, {at}"
            );
        };
        for workers in [1u32, 2, 4] {
            let router = ShardRouter::new(
                reg.clone(),
                queries.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap();
            let mut sess = ParallelSession::open(router);
            check(&sess, "open");
            sess.process(&events[..60]);
            sess.churn(ChurnOp::Add(q9.clone())).unwrap();
            check(&sess, "session churn");
            sess.feed(BatchCut::SizeOrClose, &(), |feed| {
                events[60..120]
                    .iter()
                    .for_each(|e| feed.push(e.clone(), None));
                feed.churn(ChurnOp::Remove(QueryId(2))).unwrap();
                events[120..]
                    .iter()
                    .for_each(|e| feed.push(e.clone(), None));
            });
            assert_eq!(sess.router.plan.queries.len(), 2);
            check(&sess, "feed churn");
            let ck = sess.cut(CutKind::Full).unwrap();
            sess.restore_chain(&[ck]).unwrap();
            check(&sess, "chain restore");
        }
        let mut eng = HamletEngine::new(reg, queries, EngineConfig::default()).unwrap();
        let replaced = Arc::downgrade(&eng.plan);
        eng.apply(ChurnOp::Add(q9)).unwrap();
        assert_eq!(Arc::strong_count(&eng.plan), 1);
        assert!(replaced.upgrade().is_none(), "the old plan was freed");
    }

    /// A legacy container of bare engine blobs taken after churn
    /// restores into a session built with the final query set (the
    /// chain restore adopts the blob's epoch), and rejects a session
    /// whose set never churned.
    #[test]
    fn post_churn_checkpoint_resumes_with_epoch() {
        let (reg, queries, events) = setup();
        // Build the churned state directly on a core engine and
        // checkpoint it as a 1-worker container.
        let mut core =
            HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
        for e in &events[..50] {
            core.process(e);
        }
        core.remove_query(QueryId(2)).unwrap();
        for e in &events[50..100] {
            core.process(e);
        }
        let ck = container(&[core.checkpoint()]);
        assert_eq!(ck.epoch(), 1);
        // Restore with the final (one-query) workload: epoch adopted.
        let mk = |set: Vec<Query>| {
            ParallelEngine::new(reg.clone(), set, EngineConfig::default(), 1)
                .unwrap()
                .session()
        };
        let mut resumed = mk(vec![queries[0].clone()]);
        resumed.restore_chain(std::slice::from_ref(&ck)).unwrap();
        let mut got = resumed.process(&events[100..]);
        got.extend(resumed.flush());
        sort_results(&mut got);
        let mut direct = Vec::new();
        for e in &events[100..] {
            direct.extend(core.process(e));
        }
        direct.extend(core.flush());
        sort_results(&mut direct);
        assert_eq!(direct, got);
        // A session over the pre-churn two-query set cannot restore it.
        assert!(matches!(
            mk(queries.clone()).restore_chain(&[ck]),
            Err(CheckpointError::WorkloadMismatch(_))
        ));
    }

    /// A hand-built `HMPC` container whose shards disagree on the
    /// workload epoch — each shard's blob restorable on its own — is
    /// rejected as a whole, and no shard keeps state from it (the
    /// pipeline's `resume_from` rejects the same input through the same
    /// `record::restore_shards`).
    #[test]
    fn mixed_epoch_container_is_rejected() {
        let (reg, queries, events) = setup();
        let shard = |idx: u32| {
            let cfg = EngineConfig {
                shard: Some((idx, 2)),
                ..EngineConfig::default()
            };
            let mut eng = HamletEngine::new(reg.clone(), queries.clone(), cfg).unwrap();
            eng.process_batch(&events[..80]);
            eng
        };
        let zero = shard(0);
        // Shard 1 churned twice, back to the same query set: the same
        // compiled workload, two epochs later.
        let mut one = shard(1);
        let extra = parse_query(&reg, 9, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 10").unwrap();
        one.add_query(extra).unwrap();
        one.remove_query(QueryId(9)).unwrap();
        assert_eq!((zero.epoch(), one.epoch()), (0, 2));
        let mixed = container(&[zero.checkpoint(), one.checkpoint()]);

        let par =
            ParallelEngine::new(reg.clone(), queries.clone(), EngineConfig::default(), 2).unwrap();
        let mut sess = par.session();
        let before = sess.cut(CutKind::Full).unwrap();
        assert!(matches!(
            sess.restore_chain(&[mixed]),
            Err(CheckpointError::WorkloadMismatch(_))
        ));
        let after = sess.cut(CutKind::Full).unwrap();
        assert_eq!(
            record::frame_of(&shards_of(&after)[0]).unwrap().payload,
            record::frame_of(&shards_of(&before)[0]).unwrap().payload,
            "shard 0 alone would have restored; it must not have"
        );
        // Each half is fine by itself.
        let mut sess = par.session();
        sess.restore_chain(&[container(&[zero.checkpoint(), shard(1).checkpoint()])])
            .unwrap();
    }

    /// The shard records packed inside an `HMPC` container.
    fn shards_of(ck: &Checkpoint) -> Vec<Vec<u8>> {
        let mut d = Dec::new(ck.as_bytes());
        let (_, _, shards) =
            checkpoint::read_container_any(&mut d, &PARALLEL_MAGIC, &[PARALLEL_VERSION]).unwrap();
        shards.into_iter().map(<[u8]>::to_vec).collect()
    }

    /// A live session matches the offline run across worker counts, and
    /// a chain cut mid-stream restores into a fresh session that
    /// finishes the stream identically (the 4-worker delta path of
    /// `tests/delta_checkpoint.rs`, in miniature).
    #[test]
    fn session_chain_cut_and_restore_matches_offline() {
        let (reg, queries, events) = setup();
        let offline = ParallelEngine::new(reg.clone(), queries.clone(), EngineConfig::default(), 4)
            .unwrap()
            .run(&events);
        for workers in [1u32, 4] {
            let par = ParallelEngine::new(
                reg.clone(),
                queries.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap();
            let mut sess = par.session();
            let mut out = Vec::new();
            let mut chain = Vec::new();
            for (i, seg) in events.chunks(50).enumerate() {
                out.extend(sess.process(seg));
                let ck = sess.cut(CutKind::Delta).unwrap();
                assert_eq!(ck.is_delta(), i > 0, "first cut promotes to base");
                assert_eq!(ck.seq(), i as u64 + 1);
                // The handle the writer assembled is what a reader peeks.
                assert_eq!(Checkpoint::from_bytes(ck.as_bytes().to_vec()).unwrap(), ck);
                chain.push(ck);
            }
            // The cut session and a chain-restored session describe the
            // same state: their next full cuts agree byte-for-byte...
            let mut revived = par.session();
            revived.restore_chain(&chain).unwrap();
            assert_eq!(
                revived.cut(CutKind::Full).unwrap().as_bytes(),
                sess.cut(CutKind::Full).unwrap().as_bytes()
            );
            // ...and they drain the remaining in-flight windows
            // identically.
            let flushed = sess.flush();
            assert_eq!(revived.flush(), flushed);
            out.extend(flushed);
            sort_results(&mut out);
            assert_eq!(out, offline.results, "{workers} workers");
        }
    }

    /// The cut barrier moves where each shard's record is encoded — on
    /// its own worker — not what the record says: at 2 and 4 workers, a
    /// session's base and the delta after it are byte-identical to the
    /// records a twin session cuts shard by shard on the caller's thread
    /// and packs the same way. (Latency samples and decision time are
    /// wall-clock: both off, so that twins can agree.)
    #[test]
    fn a_session_cut_is_the_serial_cut_byte_for_byte() {
        let (reg, queries, events) = setup();
        let cfg = EngineConfig {
            track_latency: false,
            obs: false,
            ..EngineConfig::default()
        };
        for workers in [2u32, 4] {
            let par =
                ParallelEngine::new(reg.clone(), queries.clone(), cfg.clone(), workers).unwrap();
            let (mut session, mut twin) = (par.session(), par.session());
            for (i, span) in [&events[..70], &events[70..150]].into_iter().enumerate() {
                session.process(span);
                twin.process(span);
                let ck = session.cut(CutKind::Delta).unwrap();
                let shards: Vec<Checkpoint> = (twin.engines_mut().iter_mut())
                    .map(|eng| record::cut(eng, CutKind::Delta))
                    .collect();
                let serial = checkpoint::container_header(
                    &PARALLEL_MAGIC,
                    PARALLEL_VERSION,
                    workers,
                    &shards,
                )
                .finish();
                assert_eq!(ck.is_delta(), i > 0, "{workers} workers, cut {i}");
                assert_eq!(ck.as_bytes(), serial, "{workers} workers, cut {i}");
            }
        }
    }

    /// Between calls one shard can lose its delta interval alone:
    /// restored from its own `checkpoint()` blob through `engines_mut`,
    /// shard 0's dirty log is void and shard 1's is not. The cut barrier
    /// alone would then return records that disagree; the session asks
    /// for a base instead, which a chain restore accepts, and the
    /// restored session's next full cut is byte-identical to the
    /// survivor's.
    #[test]
    fn mixed_soundness_cuts_a_restorable_base() {
        let (reg, queries, events) = setup();
        let par = ParallelEngine::new(reg, queries, EngineConfig::default(), 2).unwrap();
        let mixed = || {
            let mut sess = par.session();
            sess.process(&events[..80]);
            sess.cut(CutKind::Full).unwrap();
            sess.process(&events[80..140]);
            let blob = sess.engines()[0].checkpoint();
            sess.engines_mut()[0].restore(&blob).unwrap();
            sess
        };
        let barrier = mixed().feed(BatchCut::Size, &(), |f| {
            f.cut(CutKind::Delta, PARALLEL_VERSION)
        });
        assert!(matches!(barrier.0, Err(CheckpointError::Corrupt(_))));

        let mut survivor = mixed();
        let ck = survivor.cut(CutKind::Delta).unwrap();
        assert!(!ck.is_delta());
        assert_eq!(ck.seq(), 2);
        assert!((shards_of(&ck).iter()).all(|shard| record::frame_of(shard).unwrap().base));
        let mut restored = par.session();
        restored.restore_chain(&[ck]).unwrap();
        assert_eq!(
            restored.cut(CutKind::Full).unwrap().as_bytes(),
            survivor.cut(CutKind::Full).unwrap().as_bytes()
        );
    }

    #[test]
    fn zero_workers_rejected() {
        let (reg, queries, _) = setup();
        assert!(matches!(
            ParallelEngine::new(reg, queries, EngineConfig::default(), 0),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn too_many_workers_rejected() {
        let (reg, queries, _) = setup();
        assert!(matches!(
            ParallelEngine::new(reg, queries, EngineConfig::default(), 65),
            Err(EngineError::Unsupported(_))
        ));
    }
}
