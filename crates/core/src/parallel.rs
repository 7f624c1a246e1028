//! Shared-nothing parallel execution across stream partitions.
//!
//! HAMLET partitions the stream by grouping/equivalence attributes (§2.2);
//! partitions are independent, so the classic scale-out move applies: run
//! one [`HamletEngine`] per worker, each owning the partitions whose key
//! hashes to its shard (`EngineConfig::shard`).
//!
//! # Architecture
//!
//! There is one executor, [`ParallelSession`]: `workers` shard-owning
//! engines plus the [`ShardRouter`] that maps events to them, and
//! [`ParallelSession::feed`] — the only code in the tree that buffers per
//! shard, owns the worker channels, runs a shard's receive loop or
//! implements a barrier. For the length of one `feed` call the caller
//! holds a [`Feed`]: every event it pushes is routed once
//! ([`ShardRouter::route`]) into per-shard batch buffers, full batches go
//! to one scoped worker thread per shard over bounded channels (routing
//! and processing overlap, and no worker ever scans events it does not
//! own), and the three barriers — [`Feed::churn`], [`Feed::cut`],
//! [`Feed::flush`] — ride the same FIFOs, so every shard meets each at
//! the same stream position. Each worker therefore processes ~1/w of the
//! events against ~1/w of the live partitions and holds ~1/w of the
//! state. (Window expiry is an index pop, not a scan of live partitions,
//! so sharding's win comes from core parallelism and per-shard state
//! locality rather than from dividing an O(P) expiry term.)
//!
//! Two front ends feed it, and what differs between them is an argument
//! of the one loop, never a second loop: the offline
//! [`ParallelEngine::run`] / `run_batches` / `run_with_churn` and the
//! live [`ParallelSession::process`] / `flush` push slices (tag `()`,
//! [`BatchCut::Size`], nothing observed); the `hamlet-pipeline` ingest
//! stage pushes released events as its `Source` yields them (tag = the
//! arrival `Instant`, [`BatchCut::SizeOrTick`], a [`ShardHooks`] impl
//! for its sink channel and metrics). A slice feed at one worker runs
//! inline on the caller's thread — a slice never blocks, so a channel
//! and a second thread would buy nothing, and that run is the baseline
//! the scaling experiments divide by. A pipeline keeps its worker thread
//! at one shard: its feed blocks inside `Source::next_event`, and the
//! engine must keep draining meanwhile.
//!
//! The engines outlive each call, so processing interleaves with
//! coordinated checkpoint cuts: the session implements
//! [`crate::Snapshot`], and that is the only checkpoint surface here.
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
    sort_results, ChurnError, ChurnOp, EngineConfig, EngineError, EngineStats, HamletEngine,
    WindowResult,
};
use crate::metrics::LatencyRecorder;
use crate::record;
use crate::shard::ShardRouter;
use crate::store::{Checkpoint, CutKind, Snapshot};
use hamlet_obs::{merge_group_metrics, GroupMetrics, Stage};
use hamlet_query::Query;
use hamlet_types::{Event, TypeRegistry};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Default number of events per routed batch. Large enough to amortize
/// channel traffic, small enough to keep all workers busy on short
/// streams.
pub const DEFAULT_BATCH: usize = 1024;

/// Bounded depth of each worker's batch channel under a slice feed
/// (backpressure: the router stalls rather than buffering the whole
/// stream for a slow worker).
const PIPELINE_DEPTH: usize = 4;

/// Magic tag opening the `HMPC` container a [`ParallelSession`] cut
/// packs its per-shard records into (docs/checkpoint-format.md).
const PARALLEL_MAGIC: [u8; 4] = *b"HMPC";
/// Container format version.
const PARALLEL_VERSION: u16 = 1;

/// One unit of work of a slice feed: a slice of the stream, or a churn
/// op applied at the barrier after everything before it.
enum Step<'a> {
    Events(&'a [Event]),
    Churn(ChurnOp),
}

/// What the coordinator puts on a shard worker's FIFO: a routed batch
/// with the tag of its last event, or one of the three barriers — every
/// worker meets each after exactly the events routed before it (channel
/// FIFO order), the same stream cut on every shard.
enum ShardMsg<T> {
    Batch(Vec<Event>, T),
    Churn(ChurnOp),
    /// The worker cuts its engine's next chain record (full or delta,
    /// per the kind) and replies with `(shard, record)`.
    Cut(CutKind, mpsc::Sender<(usize, Checkpoint)>),
    /// End of stream: every open window emits. A FIFO that closes
    /// without it ends a call whose open windows stay in the engine.
    Flush,
}

/// A churn step of a pre-validated schedule (or one the router accepted
/// a moment ago) cannot fail.
fn validated<T>(step: Result<T, ChurnError>) -> T {
    // hamlet-lint: allow(panic-hygiene) -- a shard that cannot apply a pre-validated op must not run past the cut on a diverged workload; the panic surfaces at the join
    step.expect("churn ops validated before execution started")
}

/// When a shard's batch under construction is handed to its worker.
/// Fixed by each front end, never exposed to a user: the two that exist
/// need different values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchCut {
    /// At the session's batch size: a slice feed has no latency to
    /// protect.
    Size,
    /// At the batch size, or as soon as *this shard's* event time
    /// advances a tick — the boundary that costs no result latency: a
    /// shard's windows only close when one of its own events advances
    /// its engine's watermark, and exactly that tick-advancing event
    /// ships inside the batch its push cuts, while same-tick followers
    /// (which cannot close anything) stay buffered and amortize the
    /// channel.
    SizeOrTick,
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

    /// Worker side: what `shard`'s engine just emitted (possibly
    /// nothing) — for a batch of `batch.0` events tagged `batch.1`, or
    /// (`None`) at a churn or flush barrier. A front end that delivers
    /// results itself takes them out of `results`; what it leaves is
    /// what [`ParallelSession::feed`] returns.
    fn emitted(
        &self,
        _shard: usize,
        _eng: &HamletEngine,
        _batch: Option<(usize, T)>,
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
    /// Tag of the last event pushed into `buf`; `None` iff it is empty.
    tag: Option<T>,
    /// Event-time tick of the last event pushed ([`BatchCut::SizeOrTick`]).
    tick: Option<u64>,
}

impl<T> Lane<T> {
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
        let Some(tag) = self.tag.take() else { return };
        let full = std::mem::replace(&mut self.buf, Vec::with_capacity(batch));
        hooks.queued(idx, full.len());
        self.send(idx, ShardMsg::Batch(full, tag), hooks);
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
    /// `tag` rides with the batch `e` is the last event of.
    pub fn push(&mut self, e: Event, tag: T) {
        let (batch, cut, hooks, lanes) = (self.batch, self.cut, self.hooks, &mut self.lanes);
        self.router.route(e, |idx, e| {
            let lane = &mut lanes[idx];
            let tick = e.time.ticks();
            let advanced =
                cut == BatchCut::SizeOrTick && lane.tick.replace(tick).is_some_and(|t| t != tick);
            lane.buf.push(e);
            lane.tag = Some(tag);
            if advanced || lane.buf.len() >= batch {
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

    /// The churn barrier: the router validates `op` against the
    /// evolving workload, compile-checks the post-churn one (so the
    /// workers' own churn cannot fail) and re-plans routing; then every
    /// shard applies it at the same stream position. The coordinator is
    /// the only thread that routes, so re-planning before the sends is
    /// safe. A rejected op changes nothing.
    pub fn churn(&mut self, op: ChurnOp) -> Result<(), ChurnError> {
        self.router.apply(&op)?;
        self.barrier(|| ShardMsg::Churn(op.clone()));
        Ok(())
    }

    /// The cut barrier: every shard cuts its next chain record at the
    /// same stream position (each engine promotes a delta it cannot
    /// vouch for to a base); blocks until all have replied and returns
    /// the records in shard order, for
    /// [`Checkpoint::container_meta`] to judge.
    pub fn cut(&mut self, kind: CutKind) -> Result<Vec<Checkpoint>, CheckpointError> {
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
        Ok(shards.into_iter().map(|(_, ck)| ck).collect())
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
            ShardMsg::Batch(events, tag) => {
                let results = eng.process_batch(&events);
                emit(eng, Some((events.len(), tag)), results);
            }
            ShardMsg::Churn(op) => {
                // Windows of touched share groups drain here, exactly
                // once, like any other result.
                let t = eng.span_start();
                let drained = validated(eng.apply(op)).drained;
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

    /// Largest single-worker peak — what capacity each shard needs.
    pub fn max_peak_mem(&self) -> usize {
        self.peak_mem.iter().copied().max().unwrap_or(0)
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

/// Partition-parallel executor over a finite stream: a worker count, a
/// workload and a routing batch size, from which every run opens a
/// fresh [`ParallelSession`].
pub struct ParallelEngine {
    router: ShardRouter,
    batch: usize,
}

impl ParallelEngine {
    /// Validates the workload once and prepares a `workers`-way sharding.
    /// `workers` must be in `1..=64` (the shard mask is a `u64`).
    pub fn new(
        reg: Arc<TypeRegistry>,
        queries: Vec<Query>,
        cfg: EngineConfig,
        workers: u32,
    ) -> Result<Self, EngineError> {
        let router = ShardRouter::new(reg, queries, cfg, workers)?;
        if workers == 1 {
            // The one-worker router compiles nothing; build the engine
            // once so construction errors still surface here.
            router.engines()?;
        }
        Ok(ParallelEngine {
            router,
            batch: DEFAULT_BATCH,
        })
    }

    /// Overrides the routing batch size (events per channel send).
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        assert!(batch >= 1, "batch size must be positive");
        self.batch = batch;
        self
    }

    /// Opens a **live session** over this engine's workload and
    /// sharding: the per-shard engines are built once and held across
    /// calls, so processing can interleave with coordinated chain cuts
    /// ([`crate::Snapshot::cut`]). The offline methods on `self`
    /// ([`run`](Self::run) etc.) each open their own and are unaffected.
    pub fn session(&self) -> ParallelSession {
        // hamlet-lint: allow(panic-hygiene) -- the same workload already compiled in ParallelEngine::new; reconstruction is deterministic
        ParallelSession::open(self.router.clone(), self.batch).expect("validated in new")
    }

    /// Processes a finite stream and merges the window results.
    pub fn run(&self, events: &[Event]) -> ParallelReport {
        self.run_batches(events.chunks(self.batch))
    }

    /// Streaming variant of [`run`](Self::run): consumes the input batch
    /// by batch (e.g. from the `batches` helper in `hamlet-stream`) so
    /// the caller never needs the whole stream in one slice. Input batch
    /// boundaries only affect pipelining granularity, not results.
    pub fn run_batches<'a>(&self, batches: impl Iterator<Item = &'a [Event]>) -> ParallelReport {
        self.execute(batches.map(Step::Events)).1
    }

    /// Processes a finite stream with **runtime query churn**: each
    /// `(position, op)` pair applies its add/remove after `position`
    /// events of the stream have been routed (positions non-decreasing).
    ///
    /// Churn applies at a coordinated per-shard barrier: routing pauses,
    /// every in-flight batch is flushed to its shard, every shard applies
    /// the op at the same stream position (channel FIFO order), and the
    /// router re-plans before routing resumes. Results drained at the
    /// barriers (see the churn contract on
    /// [`HamletEngine::remove_query`]) are
    /// merged into the report's canonically sorted results, so nothing is
    /// dropped.
    ///
    /// The whole op sequence is validated (ids, compilability of every
    /// intermediate workload) before any event is processed; on error the
    /// engine is untouched. On success the engine ends at the final
    /// workload, so a subsequent [`run`](Self::run) sees the post-churn
    /// query set.
    pub fn run_with_churn(
        &mut self,
        events: &[Event],
        ops: &[(usize, ChurnOp)],
    ) -> Result<ParallelReport, ChurnError> {
        for w in ops.windows(2) {
            assert!(w[0].0 <= w[1].0, "churn positions must be non-decreasing");
        }
        self.router
            .validate_schedule(ops.iter().map(|(_, op)| op))
            .map_err(|(_, e)| e)?;
        let mut steps = Vec::new();
        let mut pos = 0usize;
        for (at, op) in ops {
            let at = (*at).min(events.len());
            steps.extend(events[pos..at].chunks(self.batch).map(Step::Events));
            steps.push(Step::Churn(op.clone()));
            pos = at;
        }
        steps.extend(events[pos..].chunks(self.batch).map(Step::Events));
        let (session, report) = self.execute(steps.into_iter());
        self.router = session.router;
        Ok(report)
    }

    /// Runs `steps` to the end of the stream on a fresh session and
    /// reads the report off its engines.
    fn execute<'a>(
        &self,
        steps: impl Iterator<Item = Step<'a>>,
    ) -> (ParallelSession, ParallelReport) {
        // hamlet-lint: allow(wallclock) -- run-duration measurement for the report
        let t0 = Instant::now();
        let mut events = 0u64;
        let mut session = self.session();
        let results = session.drive(
            steps.inspect(|step| {
                if let Step::Events(span) = step {
                    events += span.len() as u64;
                }
            }),
            true,
        );
        let engines = &session.engines;
        let report = ParallelReport {
            results,
            stats: engines.iter().map(|e| *e.stats()).collect(),
            peak_mem: engines.iter().map(HamletEngine::peak_memory).collect(),
            latency: engines.iter().map(|e| e.latency().clone()).collect(),
            group_metrics: engines.iter().map(|e| e.group_metrics().to_vec()).collect(),
            events,
            wall: t0.elapsed(),
        };
        (session, report)
    }
}

/// The shard executor (see the module docs): `workers` shard-owning
/// engines held in memory across calls, plus the router that feeds
/// them. Open one with [`ParallelEngine::session`]. Results are
/// canonically sorted per call, so output is identical across worker
/// counts, call boundary by call boundary.
///
/// Implements [`crate::Snapshot`]: [`cut`](crate::Snapshot::cut) takes
/// a coordinated per-shard chain record (every shard at the same stream
/// position — the caller is between `process` calls, so no shard has
/// seen an event another has not been offered) and packs them into one
/// `HMPC` container; [`restore_chain`](crate::Snapshot::restore_chain)
/// decomposes a container chain back into per-shard chains
/// ([`record::restore_shards`]); a failed restore leaves every shard
/// untouched.
pub struct ParallelSession {
    router: ShardRouter,
    /// One shard-owning engine per worker (index = shard).
    engines: Vec<HamletEngine>,
    /// Events per routed batch.
    batch: usize,
}

impl ParallelSession {
    /// Builds `router`'s shard engines over its current workload;
    /// `batch` is the events per routed batch.
    pub fn open(router: ShardRouter, batch: usize) -> Result<ParallelSession, EngineError> {
        Ok(ParallelSession {
            engines: router.engines()?,
            router,
            batch,
        })
    }

    /// Routes one slice of the stream to the shard engines and returns
    /// the merged, canonically sorted results it emitted.
    pub fn process(&mut self, events: &[Event]) -> Vec<WindowResult> {
        self.drive(std::iter::once(Step::Events(events)), false)
    }

    /// Finalizes every in-flight window on every shard (end of stream),
    /// merged and canonically sorted.
    pub fn flush(&mut self) -> Vec<WindowResult> {
        self.drive(std::iter::empty(), true)
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

    /// The slice feed: `steps` in order, then the flush barrier if
    /// `flush`, and everything the shards emitted in canonical order.
    /// Inline at one worker (see the module docs); otherwise through
    /// [`feed`](Self::feed).
    fn drive<'a>(
        &mut self,
        steps: impl Iterator<Item = Step<'a>>,
        flush: bool,
    ) -> Vec<WindowResult> {
        let mut out: Vec<WindowResult> = if let [eng] = self.engines.as_mut_slice() {
            let mut out = Vec::new();
            for step in steps {
                out.extend(match step {
                    Step::Events(span) => eng.process_batch(span),
                    Step::Churn(op) => {
                        validated(self.router.apply(&op));
                        validated(eng.apply(op)).drained
                    }
                });
            }
            if flush {
                out.extend(eng.flush());
            }
            out
        } else {
            let body = |feed: &mut Feed<'_, (), ()>| {
                for step in steps {
                    match step {
                        Step::Events(span) => span.iter().for_each(|e| feed.push(e.clone(), ())),
                        Step::Churn(op) => validated(feed.churn(op)),
                    }
                }
                if flush {
                    feed.flush();
                }
            };
            self.feed(BatchCut::Size, PIPELINE_DEPTH, &(), body).1
        };
        sort_results(&mut out);
        out
    }

    /// The executor: one scoped worker thread per shard engine behind a
    /// FIFO of `depth` batches, fed by `body` on the caller's thread for
    /// as long as it runs. When `body` returns, every partial batch is
    /// shipped, the FIFOs close, the workers drain them and are joined;
    /// returns `body`'s value and the results `hooks` did not take
    /// ([`ShardHooks::emitted`]), unsorted. A worker that panicked takes
    /// the caller with it here — the one join.
    pub fn feed<T, H, R>(
        &mut self,
        cut: BatchCut,
        depth: usize,
        hooks: &H,
        body: impl FnOnce(&mut Feed<'_, T, H>) -> R,
    ) -> (R, Vec<WindowResult>)
    where
        T: Copy + Send,
        H: ShardHooks<T>,
    {
        let batch = self.batch;
        std::thread::scope(|scope| {
            let (lanes, handles): (Vec<_>, Vec<_>) = (self.engines.iter_mut().enumerate())
                .map(|(idx, eng)| {
                    let (tx, rx) = mpsc::sync_channel(depth);
                    let handle = std::thread::Builder::new()
                        .name(format!("hamlet-shard-{idx}"))
                        .spawn_scoped(scope, move || shard_loop(idx, eng, &rx, hooks))
                        // hamlet-lint: allow(panic-hygiene) -- no thread, no shard: nothing has run yet, so there is nothing to clean up
                        .expect("spawn shard worker");
                    let lane = Lane {
                        tx,
                        buf: Vec::with_capacity(batch),
                        tag: None,
                        tick: None,
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
        // speaks for all of them with one chain position): a delta cut
        // happens only when *every* shard can prove one sound.
        let kind = match kind {
            CutKind::Delta if self.engines.iter().all(|e| e.dirty.sound()) => CutKind::Delta,
            _ => CutKind::Full,
        };
        let shards: Vec<Checkpoint> = self
            .engines
            .iter_mut()
            .map(|e| record::cut(e, kind))
            .collect();
        let meta = Checkpoint::container_meta(PARALLEL_VERSION, &shards)?;
        let bytes = checkpoint::container_header(
            &PARALLEL_MAGIC,
            PARALLEL_VERSION,
            self.workers(),
            &shards,
        )
        .finish();
        Ok(Checkpoint::new(bytes, meta))
    }

    fn restore_chain(&mut self, chain: &[Checkpoint]) -> Result<(), CheckpointError> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_query::{parse_query, QueryId};
    use hamlet_types::{AttrValue, Ts};

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

    /// Zero-length and ragged input batches are inert: a hand-off
    /// sequence with empty head/middle/tail batches and a trailing
    /// partial produces bit-identical results to the whole-slice run —
    /// an empty batch must be a no-op, not a watermark side-effect.
    #[test]
    fn empty_and_partial_input_batches_are_inert() {
        let (reg, queries, events) = setup();
        for workers in [1u32, 4] {
            let mk = || {
                ParallelEngine::new(
                    reg.clone(),
                    queries.clone(),
                    EngineConfig::default(),
                    workers,
                )
                .unwrap()
            };
            let base = mk().run(&events);
            let seq: Vec<&[Event]> = vec![
                &[],
                &events[0..1],
                &[],
                &events[1..64],
                &events[64..64],
                &events[64..199],
                &events[199..200],
                &[],
            ];
            let got = mk().run_batches(seq.into_iter());
            assert_eq!(base.results, got.results, "{workers} workers");
            assert_eq!(base.events, got.events);
        }
    }

    /// What differs between the two front ends is an argument of the
    /// one executor, so it is tested as one: every cell of cut rule ×
    /// batch × workers × {plain, a churn op mid-stream, a delta cut and
    /// a chain restore mid-stream} is byte-identical to the
    /// single-engine run. (One worker goes through `feed` here, as a
    /// pipeline's does; the inline slice path is the public `run`.)
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
        for (cut, batch, workers) in [BatchCut::Size, BatchCut::SizeOrTick]
            .into_iter()
            .flat_map(|c| [1usize, 7, 1024].map(|b| (c, b)))
            .flat_map(|(c, b)| [1u32, 2, 4].map(|w| (c, b, w)))
        {
            let cell = format!("{cut:?}, batch {batch}, {workers} workers");
            let par = ParallelEngine::new(
                reg.clone(),
                queries.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap()
            .with_batch_size(batch);
            assert_eq!(par.run(&events).results, plain, "{cell}, run");
            // Feeds `span` through the executor under this cell's
            // parameters, with `then` as the last thing before the
            // hang-up.
            let feed = |sess: &mut ParallelSession,
                        span: &[Event],
                        then: &mut dyn FnMut(&mut Feed<'_, (), ()>)| {
                let body = |feed: &mut Feed<'_, (), ()>| {
                    span.iter().for_each(|e| feed.push(e.clone(), ()));
                    then(feed);
                };
                sess.feed(cut, PIPELINE_DEPTH, &(), body).1
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
                let shards = f.cut(CutKind::Delta).unwrap();
                Checkpoint::container_meta(PARALLEL_VERSION, &shards).unwrap();
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
        assert!(par.max_peak_mem() <= par.total_peak_mem());
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

    /// Runtime churn at a coordinated barrier: results are identical
    /// across worker counts (the 1-worker path is the reference), ops
    /// validate upfront, and the engine ends at the final workload.
    #[test]
    fn churned_run_is_worker_count_invariant() {
        let (reg, queries, events) = setup();
        let q3 = parse_query(
            &reg,
            9,
            "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g WITHIN 10",
        )
        .unwrap();
        let ops = vec![
            (60usize, ChurnOp::Add(q3.clone())),
            (140usize, ChurnOp::Remove(QueryId(9))),
        ];
        let mut reference = None;
        for workers in [1u32, 2, 4] {
            let mut eng = ParallelEngine::new(
                reg.clone(),
                queries.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap();
            let rep = eng.run_with_churn(&events, &ops).unwrap();
            assert_eq!(rep.events, events.len() as u64, "{workers} workers");
            match &reference {
                None => reference = Some(rep.results),
                Some(r) => assert_eq!(r, &rep.results, "{workers} workers"),
            }
            // The engine ended at the final (post-churn) workload: another
            // run must behave like a fresh engine over that workload.
            assert_eq!(eng.router.queries.len(), queries.len());
            let after = eng.run(&events);
            let fresh = ParallelEngine::new(
                reg.clone(),
                queries.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap()
            .run(&events);
            assert_eq!(after.results, fresh.results, "{workers} workers, after");
        }
        // The churned results include q9's windows (drained or closed).
        let r = reference.unwrap();
        assert!(r.iter().any(|x| x.query == QueryId(9)));

        // Validation: a bad op sequence is rejected before any processing.
        let mut eng =
            ParallelEngine::new(reg.clone(), queries.clone(), EngineConfig::default(), 2).unwrap();
        assert!(matches!(
            eng.run_with_churn(&events, &[(0, ChurnOp::Remove(QueryId(77)))]),
            Err(ChurnError::Unknown(QueryId(77)))
        ));
        assert!(matches!(
            eng.run_with_churn(&events, &[(0, ChurnOp::Add(queries[0].clone()))]),
            Err(ChurnError::Duplicate(QueryId(1)))
        ));
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

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let (reg, queries, _) = setup();
        let _ = ParallelEngine::new(reg, queries, EngineConfig::default(), 0);
    }

    #[test]
    #[should_panic(expected = "at most 64 workers")]
    fn too_many_workers_rejected() {
        let (reg, queries, _) = setup();
        let _ = ParallelEngine::new(reg, queries, EngineConfig::default(), 65);
    }
}
