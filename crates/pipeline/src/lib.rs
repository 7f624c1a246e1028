//! # hamlet-pipeline
//!
//! The **online streaming runtime** for the HAMLET engine: long-running
//! pipelines that connect unbounded [`Source`]s through bounded-channel
//! stages — with real backpressure — to shard-owning engines and a
//! result [`Sink`], while a [`PipelineHandle`] serves live
//! [`MetricsSnapshot`]s (throughput, per-stage queue depths, p50/p99
//! latency) and performs graceful, `flush()`-equivalent drains.
//!
//! The paper's setting is *online* event trend aggregation over bursty
//! streams; the offline harnesses (`HamletEngine::process` over a slice,
//! `ParallelEngine::run`) measure throughput but cannot measure latency
//! under sustained load or tolerate out-of-order delivery. This crate
//! adds that missing runtime layer:
//!
//! * **Sources** ([`Source`]) — unbounded pull-based feeds: replay a
//!   generated stream ([`ReplaySource`]), pace it to an offered rate
//!   ([`RateLimitedSource`]), or implement the trait over a live feed.
//! * **Out-of-order ingestion** ([`WatermarkPolicy`], `ReorderBuffer`) —
//!   a bounded-lateness watermark holds events back just long enough to
//!   restore timestamp order; events behind the watermark are counted
//!   and dead-lettered, never fed to the engine.
//! * **Backpressure** — ingest hands batches to the workers over bounded
//!   `sync_channel`s, and a worker delivers its results into the sink
//!   itself; a slow engine or sink holds its worker, whose full channel
//!   stalls the source instead of buffering the stream.
//! * **Sharded workers** — the ingest stage runs as the body of one
//!   [`ParallelSession::feed`] call, the shard executor the offline
//!   parallel path feeds slices to: per-shard batches and channels, each
//!   worker owning the partitions that hash to it, the same barriers and
//!   the same bit-identical merged results. What the pipeline adds is an
//!   argument of that one loop — the arrival stamp its batches carry,
//!   the cut rule that ships a batch where a window may close (which
//!   fixes its batch size and channel depth: `BatchCut::SizeOrClose`),
//!   and the hooks through which each worker delivers its results into
//!   the sink, reports its backlog to that rule and keeps the live
//!   metrics.
//! * **One control plane** — a [`PipelineHandle`] reaches its pipeline
//!   over one channel to the ingest stage, and whatever it asks for —
//!   churn, a checkpoint cut, the end of the run — becomes a barrier on
//!   the worker FIFOs: every shard meets it at the same stream cut.
//! * **Drain ≡ flush** — [`PipelineHandle::drain`] lets the source run
//!   dry, releases the reorder buffer, flushes every engine and hands
//!   back the sink: for an in-order stream the drained output is
//!   byte-identical to offline `process`+`flush`
//!   (`tests/pipeline_equivalence.rs`).
//! * **One checkpoint surface** — a pipeline cuts base + delta records
//!   into a [`CheckpointStore`] (on a cadence, or on demand via
//!   [`Snapshot::cut`] on the handle, before or after its source ended);
//!   [`PipelineHandle::checkpoint`] ends the run with one more such cut
//!   instead of a flush. Either way recovery is
//!   [`PipelineBuilder::resume_from`] over a store.
//! * **Runtime query churn** — queries can be added and removed while
//!   the pipeline runs, either on a schedule
//!   ([`PipelineBuilder::churn_at`], applied when the watermark first
//!   reaches the trigger time) or live
//!   ([`PipelineHandle::add_query`] / [`remove_query`](PipelineHandle::remove_query)).
//!   Every shard engine re-plans only the touched share groups at the
//!   same watermark barrier, so no result is dropped or duplicated.
//!
//! ```
//! use hamlet_pipeline::{Pipeline, ReplaySource, VecSink, BoundedLateness};
//! use hamlet_core::EngineConfig;
//! use hamlet_query::parse_query;
//! use hamlet_types::{EventBuilder, TypeRegistry};
//! use std::sync::Arc;
//!
//! let mut reg = TypeRegistry::new();
//! let a = reg.register("A", &[]);
//! let b = reg.register("B", &[]);
//! let reg = Arc::new(reg);
//! let q = parse_query(&reg, 1, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 10").unwrap();
//! let events = vec![
//!     EventBuilder::new(&reg, a, 0).build(),
//!     EventBuilder::new(&reg, b, 1).build(),
//! ];
//! let handle = Pipeline::builder(reg, vec![q])
//!     .watermark(BoundedLateness::new(0))
//!     .spawn(ReplaySource::new(events), VecSink::new())
//!     .unwrap();
//! let report = handle.drain();
//! assert_eq!(report.sink.results.len(), 1);
//! assert_eq!(report.events, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod sink;
mod source;
mod stats;
mod watermark;

pub use checkpoint::{PipelineCheckpoint, PIPELINE_MAGIC, PIPELINE_VERSION};
pub use sink::{CountingSink, NullSink, Sink, VecSink};
pub use source::{RateLimitedSource, ReplaySource, Source};
pub use stats::MetricsSnapshot;
pub use watermark::{BoundedLateness, ReorderBuffer, WatermarkPolicy};

use hamlet_core::checkpoint::CheckpointError;
use hamlet_core::executor::{
    ChurnError, ChurnOp, EngineConfig, EngineError, EngineStats, HamletEngine, WindowResult,
};
use hamlet_core::parallel::{BatchCut, Feed, ShardHooks};
use hamlet_core::record::restore_shards;
use hamlet_core::{
    ChainMeta, Checkpoint, CheckpointStore, CutKind, GroupMetrics, LatencyHistogram,
    LatencyRecorder, ParallelSession, ShardRouter, Snapshot, Span, SpanRecorder, Stage,
};
use hamlet_obs::{merge_group_metrics, SpanStart};
use hamlet_query::{Query, QueryId};
use hamlet_types::{Event, Ts, TypeRegistry};
use stats::SharedStats;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An event the reorder stage held, plus its ingest stamp (for
/// end-to-end latency accounting).
type Routed = (Event, Instant);
/// The ingest stage's end of the shard executor: released events go in —
/// a held one tagged with its ingest stamp, an in-order one bare, to be
/// stamped by the push that ships its batch ([`Observer::stamp`]) — and
/// the three barriers — churn, cut, end — go in between them.
type ShardFeed<'a> = Feed<'a, Instant, Observer>;
/// How a run ends: every open window flushed into the sink, or frozen
/// into a [`PipelineCheckpoint`].
#[derive(Copy, Clone, PartialEq)]
enum End {
    Drain,
    Freeze,
}
/// Everything a [`PipelineHandle`] asks of its pipeline, over the one
/// control channel to the ingest stage. Each request is taken at a
/// barrier between two source events, or after the last one.
enum Control {
    /// Live churn; the ack carries the post-churn workload epoch.
    Churn {
        op: ChurnOp,
        ack: mpsc::Sender<Result<u64, PipelineChurnError>>,
    },
    /// An on-demand [`Snapshot::cut`].
    Cut {
        kind: CutKind,
        ack: mpsc::Sender<Result<Checkpoint, CheckpointError>>,
    },
    End(End),
}
/// What the ingest stage ends with: the frozen container if it was told
/// to [`End::Freeze`].
type IngestOutput = Option<Result<PipelineCheckpoint, CheckpointError>>;

/// Why a [`PipelineBuilder::resume_from`] failed.
#[derive(Debug)]
pub enum ResumeError {
    /// The workload failed to compile (same errors as a fresh spawn).
    Engine(EngineError),
    /// The checkpoint is invalid or does not match this pipeline's
    /// workload / worker count.
    Checkpoint(CheckpointError),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Engine(e) => write!(f, "engine: {e}"),
            ResumeError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// Why a live [`PipelineHandle::add_query`] /
/// [`PipelineHandle::remove_query`] call failed.
#[derive(Debug)]
pub enum PipelineChurnError {
    /// The op was rejected (duplicate/unknown id or a non-compiling
    /// post-churn workload); the running workload is unchanged.
    Rejected(ChurnError),
    /// The pipeline is no longer ingesting: the source ended or
    /// [`PipelineHandle::stop`] was called — the ingest stage answers so
    /// itself while it waits to be told how the run ends — or the stage
    /// is gone. The op was not applied.
    Stopped,
}

impl fmt::Display for PipelineChurnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineChurnError::Rejected(e) => write!(f, "rejected: {e}"),
            PipelineChurnError::Stopped => write!(f, "the pipeline has stopped ingesting"),
        }
    }
}

impl std::error::Error for PipelineChurnError {}

/// Dead-letter hook: invoked (on the ingest thread) with every late
/// event the pipeline drops.
pub type LateHook = Box<dyn FnMut(Event) + Send>;

/// Namespace for [`Pipeline::builder`].
pub struct Pipeline;

impl Pipeline {
    /// Starts configuring a pipeline over a workload.
    pub fn builder(reg: Arc<TypeRegistry>, queries: Vec<Query>) -> PipelineBuilder {
        PipelineBuilder {
            reg,
            queries,
            engine_cfg: EngineConfig::default(),
            workers: 1,
            policy: Box::new(BoundedLateness::new(0)),
            on_late: None,
            churn_at: Vec::new(),
            trace_capacity: 0,
            store: None,
            checkpoint_every: None,
            compact_every: DEFAULT_COMPACT_EVERY,
        }
    }
}

/// Default compaction cadence: every this-many cadence cuts, the cut is
/// promoted to a full base (compacting the store's chain) instead of a
/// delta.
pub const DEFAULT_COMPACT_EVERY: u64 = 8;

/// Configures and spawns a [`PipelineHandle`].
pub struct PipelineBuilder {
    reg: Arc<TypeRegistry>,
    queries: Vec<Query>,
    engine_cfg: EngineConfig,
    workers: u32,
    policy: Box<dyn WatermarkPolicy>,
    on_late: Option<LateHook>,
    churn_at: Vec<(Ts, ChurnOp)>,
    trace_capacity: usize,
    store: Option<Arc<dyn CheckpointStore>>,
    checkpoint_every: Option<u64>,
    compact_every: u64,
}

impl PipelineBuilder {
    /// Engine configuration for every worker (the `shard` field is
    /// overwritten per worker).
    pub fn engine_config(mut self, cfg: EngineConfig) -> Self {
        self.engine_cfg = cfg;
        self
    }

    /// Number of shard-owning workers, `1..=64` (checked at spawn: any
    /// other count is [`EngineError::Unsupported`]). With 1 worker
    /// events flow to a single engine; with more, the router sends each
    /// event only to the shards owning one of its partition keys.
    pub fn workers(mut self, workers: u32) -> Self {
        self.workers = workers;
        self
    }

    /// Watermark policy for out-of-order ingestion (default:
    /// `BoundedLateness::new(0)`, i.e. strictly ascending).
    pub fn watermark(mut self, policy: impl WatermarkPolicy + 'static) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// Dead-letter hook for late events (called on the ingest thread).
    pub fn on_late(mut self, hook: impl FnMut(Event) + Send + 'static) -> Self {
        self.on_late = Some(Box::new(hook));
        self
    }

    /// Enables stage span tracing: every pipeline stage (ingest, reorder
    /// release, route, per-worker batch processing, expiry drains, flush,
    /// checkpoint pause, churn barriers) records [`Span`]s into per-lane
    /// rings holding at most `capacity` spans each (lane 0 = ingest,
    /// lanes 1.. = workers). Memory is bounded: full rings drop their
    /// oldest span and count it in
    /// [`MetricsSnapshot::dropped_spans`]. `capacity` 0 (the default)
    /// disables tracing entirely — the recorder then never reads the
    /// clock, so an untraced pipeline pays only a branch per stage.
    /// Export with [`PipelineHandle::export_chrome_trace`] or read them
    /// from [`PipelineReport::spans`].
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// The [`CheckpointStore`] cadence cuts and on-demand
    /// [`Snapshot::cut`]s append to — base/delta chain management
    /// (linkage validation, compaction GC) is the store's job. Required
    /// when [`checkpoint_every`](Self::checkpoint_every) is set (a cadence
    /// without a store is [`EngineError::Unsupported`] from
    /// [`spawn`](Self::spawn), [`ResumeError::Engine`] from
    /// [`resume_from`](Self::resume_from));
    /// [`Pipeline::builder`]`(…).resume_from` reads the same store back.
    pub fn checkpoint_store(mut self, store: Arc<dyn CheckpointStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Enables periodic delta checkpoints: every `released` events
    /// released past the reorder stage, the ingest thread runs a
    /// **drain-barrier cut** — every partial batch is flushed down the
    /// worker FIFOs, each shard engine serializes the state that changed
    /// since the previous cut (a delta frame; periodically a full base,
    /// see [`compact_every`](Self::compact_every)), and the assembled
    /// container is appended to the configured
    /// [`checkpoint_store`](Self::checkpoint_store). The pipeline keeps
    /// running; the pause is the flush + serialize time, visible as
    /// `checkpoint_pause` spans and the
    /// [`MetricsSnapshot::checkpoints`] counters.
    ///
    /// Recovery: [`resume_from`](Self::resume_from) replays base +
    /// deltas and repositions the source; results emitted between the
    /// last completed cut and the crash are re-emitted on resume
    /// (at-least-once across a crash — a run that resumes from a cut it
    /// took itself never duplicates).
    ///
    /// `released` must be positive: 0 is [`EngineError::Unsupported`]
    /// from [`spawn`](Self::spawn) and [`ResumeError::Engine`] from
    /// [`resume_from`](Self::resume_from).
    pub fn checkpoint_every(mut self, released: u64) -> Self {
        self.checkpoint_every = Some(released);
        self
    }

    /// Every `cuts`-th cadence cut is promoted from a delta to a full
    /// base, compacting the store's chain (default
    /// [`DEFAULT_COMPACT_EVERY`]). `1` makes every cut a full
    /// checkpoint; 0 is reported like a zero
    /// [`checkpoint_every`](Self::checkpoint_every).
    pub fn compact_every(mut self, cuts: u64) -> Self {
        self.compact_every = cuts;
        self
    }

    /// Schedules churn ops in event time: each op is applied at the
    /// **watermark barrier** where the watermark first reaches its
    /// trigger — events up to and including the trigger time are
    /// processed under the old workload, everything after under the new.
    /// The whole schedule is validated at spawn (duplicate/unknown ids,
    /// every intermediate workload must compile), so a bad script fails
    /// synchronously instead of inside a thread. Ops whose trigger the
    /// stream never reaches are discarded at drain. Repeated calls
    /// append; the merged schedule is applied in trigger order (ties in
    /// insertion order).
    ///
    /// ```
    /// use hamlet_core::ChurnOp;
    /// use hamlet_pipeline::{BoundedLateness, Pipeline, ReplaySource, VecSink};
    /// use hamlet_query::{parse_query, QueryId};
    /// use hamlet_types::{EventBuilder, Ts, TypeRegistry};
    /// use std::sync::Arc;
    ///
    /// let mut reg = TypeRegistry::new();
    /// let a = reg.register("A", &[]);
    /// let b = reg.register("B", &[]);
    /// let reg = Arc::new(reg);
    /// let q1 = parse_query(&reg, 1, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 10").unwrap();
    /// let q2 = parse_query(&reg, 2, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 20").unwrap();
    /// let events: Vec<_> = (0..30)
    ///     .map(|t| EventBuilder::new(&reg, if t % 3 == 0 { a } else { b }, t).build())
    ///     .collect();
    /// let handle = Pipeline::builder(reg, vec![q1])
    ///     // q2 joins once the watermark passes t=15; earlier events
    ///     // are processed under the original workload.
    ///     .churn_at(vec![(Ts(15), ChurnOp::Add(q2))])
    ///     .watermark(BoundedLateness::new(0))
    ///     .spawn(ReplaySource::new(events), VecSink::new())
    ///     .unwrap();
    /// let report = handle.drain();
    /// assert!(report.sink.results.iter().any(|r| r.query == QueryId(2)));
    /// ```
    pub fn churn_at(mut self, schedule: Vec<(Ts, ChurnOp)>) -> Self {
        self.churn_at.extend(schedule);
        self.churn_at.sort_by_key(|(t, _)| *t); // stable: ties keep insertion order
        self
    }

    /// Validates the workload, builds every engine, and spawns the
    /// pipeline threads: `ingest → [workers]`, every arrow a bounded
    /// channel, and each worker hands its results to the sink itself.
    /// Construction errors surface here, not inside threads.
    pub fn spawn<Src, S>(self, source: Src, sink: S) -> Result<PipelineHandle<S>, EngineError>
    where
        Src: Source + 'static,
        S: Sink + 'static,
    {
        self.spawn_inner(source, sink, Vec::new())
            .map_err(|e| match e {
                ResumeError::Engine(err) => err,
                ResumeError::Checkpoint(_) => unreachable!("no checkpoint on a fresh spawn"),
            })
    }

    /// Restores a pipeline from the base + delta chain held in a
    /// [`CheckpointStore`] and continues it: the chain's last base is
    /// restored into every shard engine, the delta frames are replayed
    /// in order on top, the frozen reorder-buffer events of the **last**
    /// record are re-injected ahead of the source, and the metrics
    /// counters continue from that record.
    ///
    /// The builder must be configured like the original pipeline (same
    /// workload, worker count, watermark slack); `source` must be
    /// positioned *after* the first
    /// [`events_pulled`](PipelineCheckpoint::events_pulled) events of
    /// the original stream, where `events_pulled` is read from the
    /// chain's newest record (decode it with
    /// [`PipelineCheckpoint::from_bytes`] over
    /// [`Checkpoint::as_bytes`], or track the cursor out of band).
    /// Replaying the remainder of the stream and draining emits exactly
    /// the results the original run had not yet emitted at the cut —
    /// byte-identical to the uninterrupted run's suffix
    /// (`tests/delta_checkpoint.rs`).
    ///
    /// A frozen [`PipelineCheckpoint`] (from
    /// [`PipelineHandle::checkpoint`], or a container written by an
    /// older release) resumes the same way: append it to a store as a
    /// chain of one. Its per-shard records — base frames, or the bare
    /// engine blobs older releases froze — restore as bases, and each
    /// engine adopts the workload epoch stamped in its record.
    ///
    /// An empty store is an error: recovery from nothing is a fresh
    /// [`spawn`](Self::spawn), and conflating the two would turn a
    /// mis-pointed store directory into silent data loss.
    pub fn resume_from<Src, S>(
        self,
        store: &dyn CheckpointStore,
        source: Src,
        sink: S,
    ) -> Result<PipelineHandle<S>, ResumeError>
    where
        Src: Source + 'static,
        S: Sink + 'static,
    {
        let chain = store.load_chain().map_err(ResumeError::Checkpoint)?;
        if chain.is_empty() {
            return Err(ResumeError::Checkpoint(CheckpointError::Corrupt(
                "the checkpoint store holds no records".into(),
            )));
        }
        let records = (chain.iter())
            .map(|ck| PipelineCheckpoint::from_bytes(ck.as_bytes()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(ResumeError::Checkpoint)?;
        self.spawn_inner(source, sink, records)
    }

    fn spawn_inner<Src, S>(
        mut self,
        source: Src,
        sink: S,
        chain: Vec<PipelineCheckpoint>,
    ) -> Result<PipelineHandle<S>, ResumeError>
    where
        Src: Source + 'static,
        S: Sink + 'static,
    {
        let bad_cadence = match (self.checkpoint_every, &self.store) {
            (Some(0), _) => Some("checkpoint_every must be positive"),
            (Some(_), None) => Some("checkpoint_every requires a checkpoint_store to append to"),
            _ if self.compact_every == 0 => Some("compact_every must be positive"),
            _ => None,
        };
        if let Some(why) = bad_cadence {
            return Err(ResumeError::Engine(EngineError::Unsupported(why.into())));
        }
        // The record carrying the pipeline-level tail state (reorder
        // buffer, source cursor, counters, elapsed) is the chain's
        // newest — every earlier record's tail is superseded. `None` on
        // a fresh spawn.
        let tail = chain.last();
        // Re-seed the watermark policy: the resumed policy must never
        // emit a watermark behind the one the checkpointed pipeline
        // already released events under.
        if let Some(max_seen) = tail.and_then(|ck| ck.max_seen) {
            let _ = self.policy.observe(max_seen);
        }
        let n = self.workers as usize;

        let router = ShardRouter::new(self.reg, self.queries, self.engine_cfg, self.workers)
            .map_err(ResumeError::Engine)?;
        // Dry-run the whole churn schedule now, so workers can never hit
        // a churn failure mid-stream.
        router
            .validate_schedule(self.churn_at.iter().map(|(_, op)| op))
            .map_err(|(i, e)| {
                ResumeError::Engine(match e {
                    ChurnError::Engine(e) => e,
                    e => EngineError::Churn(format!("entry {i}: {e}")),
                })
            })?;

        // Build (and restore) every engine up front so errors are
        // synchronous.
        let mut session = ParallelSession::open(router);
        let mut start_epoch = 0;
        if !chain.is_empty() {
            // Every shard replays its own record out of each container,
            // base then deltas, and adopts the chain's workload epoch —
            // which all shards must agree on. A container cut under
            // another worker count has the wrong number of them.
            let records: Vec<Vec<&[u8]>> = chain
                .iter()
                .map(|pc| pc.engines.iter().map(Vec::as_slice).collect())
                .collect();
            start_epoch =
                restore_shards(session.engines_mut(), &records).map_err(ResumeError::Checkpoint)?;
        }

        // Lane 0 traces the ingest stage, lanes 1..=n the workers.
        let spans = Arc::new(if self.trace_capacity > 0 {
            SpanRecorder::new(n + 1, self.trace_capacity)
        } else {
            SpanRecorder::disabled()
        });
        let accum = tail.map(|ck| ck.elapsed).unwrap_or(Duration::ZERO);
        let shared = Arc::new(SharedStats::new(n, accum, spans.clone()));
        shared.epoch.store(start_epoch, Ordering::Relaxed);

        // Metrics continuity across a restore: the counters pick up where
        // the checkpointed pipeline stopped.
        let mut buffer = ReorderBuffer::new();
        let mut max_seen = None;
        if let Some(ck) = tail {
            let [ingested, late, released, results] = ck.counters;
            shared.ingested.store(ingested, Ordering::Relaxed);
            shared.late.store(late, Ordering::Relaxed);
            shared.released.store(released, Ordering::Relaxed);
            shared.results.store(results, Ordering::Relaxed);
            if let Some(t) = ck.max_seen {
                if let Some(wm) = self.policy.current() {
                    shared.set_watermark(wm);
                }
                max_seen = Some(t);
            }
            // Re-inject the frozen reorder buffer. The events are stored
            // in release order, so re-pushing preserves equal-timestamp
            // arrival ties; arrival stamps restart now (they only feed
            // latency metrics).
            // hamlet-lint: allow(wallclock) -- restored arrival stamps only feed latency metrics
            let now = Instant::now();
            for ev in &ck.buffered {
                buffer.push(ev.clone(), now);
            }
            shared.reorder_depth.store(buffer.len(), Ordering::Relaxed);
            (shared.reorder_depth_peak).store(buffer.len(), Ordering::Relaxed);
        }

        for (idx, engine) in session.engines_mut().iter_mut().enumerate() {
            if spans.is_enabled() {
                engine.attach_span_recorder(spans.clone(), 1 + idx as u32);
            }
            // Publish each shard's priced groups before any event flows,
            // so a snapshot taken immediately after spawn already shows
            // the optimizer's placement decisions.
            shared.publish_groups(idx, engine.group_metrics().to_vec());
        }
        // The workers deliver into the sink themselves, through the
        // observer's handle on it; the typed one comes back once the
        // observer is gone.
        let sink = Arc::new(Mutex::new(sink));
        let observer = Observer {
            shared: shared.clone(),
            sink: sink.clone(),
        };

        let (control_tx, control_rx) = mpsc::channel::<Control>();
        let mut ingest = Ingest {
            source,
            policy: self.policy,
            on_late: self.on_late,
            scheduled: self.churn_at.into(),
            control: control_rx,
            depth_peak: buffer.len(),
            buffer,
            tranche: Vec::new(),
            max_seen,
            store: self.store,
            cut_every: self.checkpoint_every,
            compact_every: self.compact_every,
            cuts_taken: 0,
            rebase: false,
            last_cut_released: shared.released.load(Ordering::Relaxed),
            shared: shared.clone(),
        };
        // The ingest loop is the body of one `feed` call: the shard
        // workers are scoped to it and borrow the engines the session
        // keeps, so what the run measured is read off the session once
        // the stage has returned. One worker keeps its thread too — the
        // body blocks inside `Source::next_event`.
        let ingest_handle = std::thread::Builder::new()
            .name("hamlet-pipe-ingest".into())
            .spawn(move || {
                let (frozen, _) =
                    session.feed(BatchCut::SizeOrClose, &observer, |feed| ingest.run(feed));
                // Blocking: each shard's last word must land even if a
                // snapshot reader holds the lock right now.
                for (idx, engine) in session.engines().iter().enumerate() {
                    let groups = engine.group_metrics().to_vec();
                    observer.shared.publish_groups(idx, groups);
                }
                drop(observer);
                let sink = Arc::into_inner(sink).and_then(|sink| sink.into_inner().ok());
                // hamlet-lint: allow(panic-hygiene) -- the observer dropped above held the only other handle, and a sink that panicked took this thread down at the feed's join
                let sink = sink.expect("the workers are done with the sink");
                (session, frozen, sink)
            })
            // hamlet-lint: allow(panic-hygiene) -- thread spawn failing at startup leaves nothing to clean up; abort the pipeline
            .expect("spawn ingest thread");

        Ok(PipelineHandle {
            shared,
            ingest: ingest_handle,
            control: control_tx,
        })
    }
}

/// The ingest stage: pulls the source, generates watermarks, reorders,
/// counts/dead-letters late events, and feeds released events and the
/// handle's barriers to the shard executor ([`ShardFeed`]).
struct Ingest<Src> {
    source: Src,
    policy: Box<dyn WatermarkPolicy>,
    on_late: Option<LateHook>,
    /// Event-time churn schedule, trigger-ordered (validated at spawn).
    scheduled: VecDeque<(Ts, ChurnOp)>,
    /// The handle's requests — churn, cut, end — polled between source
    /// events and awaited once the source has ended.
    control: mpsc::Receiver<Control>,
    buffer: ReorderBuffer,
    /// What the reorder stage lets go, on its way to the router: an
    /// in-order event or a released run of held ones. Empty between
    /// events, its capacity kept.
    tranche: Vec<Routed>,
    /// The most events the buffer has held at once since spawn (mirrors
    /// the `reorder_depth_peak` gauge, which is stored only when it grows).
    depth_peak: usize,
    /// Maximum event time pulled from the source — recorded into
    /// checkpoints as the resumed watermark policy's seed.
    max_seen: Option<Ts>,
    /// Where completed cuts are appended (cadence and on-demand).
    store: Option<Arc<dyn CheckpointStore>>,
    /// Cadence: cut after this many released events (None = no cadence).
    cut_every: Option<u64>,
    /// Every this-many cadence cuts, promote the cut to a full base.
    compact_every: u64,
    /// Cadence cuts taken by this incarnation (drives compaction).
    cuts_taken: u64,
    /// The previous cut failed: the shards' dirty logs are re-armed past
    /// the store's tip, so the next cut must be a base.
    rebase: bool,
    /// `released` counter at the previous cut (cadence anchor).
    last_cut_released: u64,
    shared: Arc<SharedStats>,
}

impl<Src: Source> Ingest<Src> {
    /// Runs the stage until the run has ended the way the handle said.
    fn run(&mut self, feed: &mut ShardFeed<'_>) -> IngestOutput {
        let mut end = None;
        // Relaxed: `stop` publishes nothing but itself.
        while end != Some(End::Freeze) && !self.shared.stop.load(Ordering::Relaxed) {
            // Control is taken *between* source events — the watermark
            // barrier. A source blocked inside `next_event` delays
            // pending requests until it yields. A drain told early only
            // settles how the run ends: the source is still pulled dry.
            // The channel is polled only while the handle's flag is up;
            // a request taken leaves it up, so the next pass looks again
            // until the channel is empty. A relaxed load keeps the locked
            // swap off the per-event path while the flag is down (8.8–12.1
            // ns a swap against under 1 ns a load, EXPERIMENTS.md "What
            // the control flag costs per event"); the swap that takes it
            // down still acquires what the sender released.
            let flag = &self.shared.control_pending;
            if flag.load(Ordering::Relaxed) && flag.swap(false, Ordering::Acquire) {
                if let Ok(request) = self.control.try_recv() {
                    self.shared.control_pending.store(true, Ordering::Relaxed);
                    end = self.obey(feed, request, true).or(end);
                    continue;
                }
            }
            let pull = self.shared.spans.start();
            let Some(e) = self.source.next_event() else {
                break;
            };
            // The ingest span measures the source pull (wait) time — the
            // signal that separates a source-bound run from an
            // engine-bound one in a trace.
            self.shared.spans.record(0, Stage::Ingest, pull, None, 1);
            // `ingested` and `released` have one writer, this stage: a
            // load and a store publish them.
            let ingested = self.shared.ingested.load(Ordering::Relaxed);
            self.shared.ingested.store(ingested + 1, Ordering::Relaxed);
            if self.max_seen.is_none_or(|m| e.time > m) {
                self.max_seen = Some(e.time);
            }
            let wm = self.policy.observe(e.time);
            self.shared.set_watermark(wm);
            if e.time < wm {
                self.shared.late.fetch_add(1, Ordering::Relaxed);
                if let Some(hook) = &mut self.on_late {
                    hook(e);
                }
                continue;
            }
            let release = self.shared.spans.start();
            let passed = if self.buffer.is_empty() && e.time <= wm {
                // In order — nothing held, and the watermark has reached
                // `e`: it skips the buffer, straight on to routing,
                // unstamped (see `ShardFeed`).
                Some(e)
            } else {
                // A held event's wait is part of its latency.
                // hamlet-lint: allow(wallclock) -- ingest arrival stamp of a held event; latency metrics only
                self.buffer.push(e, Instant::now());
                self.buffer.release_into(wm, &mut self.tranche);
                let depth = self.buffer.len();
                self.shared.reorder_depth.store(depth, Ordering::Relaxed);
                if depth > self.depth_peak {
                    self.depth_peak = depth;
                    (self.shared.reorder_depth_peak).store(depth, Ordering::Relaxed);
                }
                None
            };
            self.route_tranche(feed, release, wm, passed);
            self.fire_scheduled_churn(feed, wm);
            self.maybe_cadence_cut(feed);
        }
        // The source ended or `stop()` cut it: the buffered remainder is
        // released downstream in order — exactly like a watermark
        // advancing past the stream's end. A freeze must NOT: those
        // events were never released, so they stay in the buffer the
        // final cut records, and are re-injected on resume.
        if end != Some(End::Freeze) {
            (self.buffer).release_into(Ts(u64::MAX), &mut self.tranche);
            let release = self.shared.spans.start();
            self.route_tranche(feed, release, Ts(u64::MAX), None);
            self.shared.reorder_depth.store(0, Ordering::Relaxed);
        }
        feed.ship_partials();
        self.shared.source_done.store(true, Ordering::Relaxed);
        // Everything pulled is on its way to the sink; what is left is
        // to be told how the run ends. Cuts are still served meanwhile,
        // churn is not (nothing is ingesting); a dropped handle means
        // drain.
        while end.is_none() {
            end = match self.control.recv() {
                Ok(request) => self.obey(feed, request, false),
                Err(_) => Some(End::Drain),
            };
        }
        // The end is the third barrier on the worker FIFOs: a final full
        // cut and a bare hang-up, or the flush and then the hang-up
        // (which follows when this body returns).
        if end != Some(End::Freeze) {
            feed.flush();
            return None;
        }
        let span = self.shared.spans.start();
        let cut = self.coordinated_cut(feed, CutKind::Full);
        self.shared
            .spans
            .record(0, Stage::CheckpointPause, span, None, 0);
        Some(cut.map(|(container, _)| container))
    }

    /// Serves one request from the handle; `live` is whether the source
    /// is still being pulled. Returns how the run is to end, if that is
    /// what was said.
    fn obey(&mut self, feed: &mut ShardFeed<'_>, request: Control, live: bool) -> Option<End> {
        match request {
            Control::Churn { op, ack } => {
                let outcome = if live {
                    self.apply_churn(feed, op)
                        .map_err(PipelineChurnError::Rejected)
                } else {
                    Err(PipelineChurnError::Stopped)
                };
                let _ = ack.send(outcome);
            }
            Control::Cut { kind, ack } => {
                let _ = ack.send(self.cut_into_store(feed, kind));
            }
            Control::End(end) => return Some(end),
        }
        None
    }

    /// Routes what the reorder stage let go at watermark `wm` — the
    /// event that `passed` it by, or the tranche it released, in order —
    /// to the owning shard(s), under a release span (begun at `release`)
    /// and a route span. The tranche is left empty, its capacity kept.
    fn route_tranche(
        &mut self,
        feed: &mut ShardFeed<'_>,
        release: SpanStart,
        wm: Ts,
        passed: Option<Event>,
    ) {
        let n = self.tranche.len() as u64 + u64::from(passed.is_some());
        if n == 0 {
            return;
        }
        let (spans, wm) = (&self.shared.spans, Some(wm.ticks()));
        spans.record(0, Stage::ReorderRelease, release, wm, n);
        let route = spans.start();
        let released = self.shared.released.load(Ordering::Relaxed);
        self.shared.released.store(released + n, Ordering::Relaxed);
        for (e, arrival) in self.tranche.drain(..) {
            feed.push(e, Some(arrival));
        }
        if let Some(e) = passed {
            feed.push(e, None);
        }
        spans.record(0, Stage::Route, route, wm, n);
    }

    /// Applies every scheduled churn op whose trigger the watermark has
    /// reached. The schedule was validated at spawn, but a live op may
    /// have invalidated an entry since (e.g. already removed the id):
    /// such entries are skipped and counted, never applied half-way.
    fn fire_scheduled_churn(&mut self, feed: &mut ShardFeed<'_>, wm: Ts) {
        while let Some((_, op)) = self.scheduled.pop_front_if(|(t, _)| *t <= wm) {
            let _ = self.apply_churn(feed, op);
        }
    }

    /// Applies one churn op at the current watermark barrier
    /// ([`Feed::churn`]: validated and re-planned once for all shards,
    /// then applied by every shard at the same stream cut) and bumps the
    /// workload epoch. A rejected op is counted and changes nothing (and
    /// leaves no barrier span).
    fn apply_churn(&mut self, feed: &mut ShardFeed<'_>, op: ChurnOp) -> Result<u64, ChurnError> {
        let barrier = self.shared.spans.start();
        if let Err(e) = feed.churn(op) {
            self.shared.churns_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        // In lockstep with every shard engine's own epoch; ingest is the
        // only writer.
        let epoch = self.shared.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        self.shared
            .spans
            .record(0, Stage::ChurnBarrier, barrier, None, 0);
        Ok(epoch)
    }

    /// Runs a cadence cut once enough events have been released since
    /// the previous one. Every `compact_every`-th cadence cut is
    /// promoted to a full base, compacting the store's chain. A failed
    /// cut is counted and the pipeline keeps running — the next cadence
    /// boundary tries again.
    fn maybe_cadence_cut(&mut self, feed: &mut ShardFeed<'_>) {
        let Some(every) = self.cut_every else { return };
        let released = self.shared.released.load(Ordering::Relaxed);
        if released.saturating_sub(self.last_cut_released) < every {
            return;
        }
        let compact =
            self.compact_every <= 1 || (self.cuts_taken + 1).is_multiple_of(self.compact_every);
        let kind = if compact {
            CutKind::Full
        } else {
            CutKind::Delta
        };
        if self.cut_into_store(feed, kind).is_ok() {
            self.cuts_taken += 1;
        }
    }

    /// Cuts the next record of the store's chain: one coordinated cut,
    /// serialized and appended to the configured store — every cadence
    /// and on-demand cut.
    ///
    /// A cut that fails anywhere (a dead worker, shards that disagree on
    /// their chain position, the append) leaves shards whose dirty logs
    /// are already re-armed on a record the store never took; a delta
    /// onto it could never be appended, so the next cut is a base
    /// whatever was asked.
    fn cut_into_store(
        &mut self,
        feed: &mut ShardFeed<'_>,
        kind: CutKind,
    ) -> Result<Checkpoint, CheckpointError> {
        let span = self.shared.spans.start();
        let kind = if self.rebase { CutKind::Full } else { kind };
        let result = self
            .coordinated_cut(feed, kind)
            .and_then(|(container, meta)| {
                let ck = Checkpoint::new(container.to_bytes(), meta);
                if let Some(store) = &self.store {
                    store.append(&ck)?;
                }
                Ok(ck)
            });
        self.rebase = result.is_err();
        self.shared
            .spans
            .record(0, Stage::CheckpointPause, span, None, 0);
        // Anchor the cadence even on failure: retrying on every released
        // event while a store stays broken would turn one bad disk into a
        // per-event barrier.
        self.last_cut_released = self.shared.released.load(Ordering::Relaxed);
        match &result {
            Ok(ck) => {
                self.shared.checkpoints.fetch_add(1, Ordering::Relaxed);
                self.shared
                    .checkpoint_bytes
                    .fetch_add(ck.len() as u64, Ordering::Relaxed);
            }
            Err(_) => {
                self.shared
                    .checkpoint_failures
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// A coordinated checkpoint cut at the current barrier
    /// ([`Feed::cut`]: every shard serializes at exactly the same stream
    /// position, and the chain position its records agree on comes back
    /// with them), assembled into the pipeline container. Each worker
    /// handed its pre-cut results to the sink before it answered the
    /// cut, so the recorded counters are exact.
    fn coordinated_cut(
        &mut self,
        feed: &mut ShardFeed<'_>,
        kind: CutKind,
    ) -> Result<(PipelineCheckpoint, ChainMeta), CheckpointError> {
        let (shards, meta) = feed.cut(kind, PIPELINE_VERSION)?;
        let engines = shards.into_iter().map(Checkpoint::into_bytes).collect();
        let counters = self.shared.counters();
        let container = PipelineCheckpoint {
            engines,
            buffered: self.buffer.contents(),
            events_pulled: counters[0],
            max_seen: self.max_seen,
            counters,
            elapsed: self.shared.elapsed(),
        };
        Ok((container, meta))
    }
}

/// What the pipeline observes of the shard executor: queue depths,
/// end-to-end latency, live share-group metrics — and where the results
/// go: each worker hands its own to the sink.
struct Observer {
    shared: Arc<SharedStats>,
    sink: Arc<Mutex<dyn Sink>>,
}

/// Periodic group-metrics publish cadence, in batches: frequent enough
/// for live dashboards, rare enough that the clone + try_lock never show
/// up next to the engine's own batch cost.
const PUBLISH_EVERY: u64 = 64;

impl Observer {
    /// Hands one worker's results to the sink, on the worker's thread: a
    /// slow sink holds the worker, whose full FIFO then holds ingest.
    fn emit(&self, results: Vec<WindowResult>) {
        let n = results.len();
        if n == 0 {
            return;
        }
        self.shared.sink_depth.fetch_add(n, Ordering::Relaxed);
        // hamlet-lint: allow(panic-hygiene) -- a poisoned sink lock means another worker's accept panicked; propagate it
        self.sink.lock().expect("sink lock").accept(results);
        self.shared.results.fetch_add(n as u64, Ordering::Relaxed);
        self.shared.sink_depth.fetch_sub(n, Ordering::Relaxed);
    }
}

impl ShardHooks<Instant> for Observer {
    fn queued(&self, shard: usize, events: usize) {
        self.shared.worker_depths[shard].fetch_add(events, Ordering::Relaxed);
    }

    /// Stop pulling the source, so an unbounded run cannot silently
    /// discard the dead shard's events forever.
    fn lost(&self, shard: usize) {
        self.shared.worker_depths[shard].store(0, Ordering::Relaxed);
        self.shared.stop.store(true, Ordering::Relaxed);
    }

    fn backlog(&self, shard: usize) -> usize {
        self.shared.worker_depths[shard].load(Ordering::Relaxed)
    }

    /// The arrival stamp of an in-order event, taken by the push that
    /// ships its batch: the pull it came from was a route away.
    fn stamp(&self) -> Option<Instant> {
        // hamlet-lint: allow(wallclock) -- ingest arrival stamp of an in-order event; latency metrics only
        Some(Instant::now())
    }

    fn emitted(
        &self,
        shard: usize,
        engine: &HamletEngine,
        batch: Option<(usize, Option<Instant>)>,
        results: &mut Vec<WindowResult>,
    ) {
        let results = std::mem::take(results);
        let Some((events, arrival)) = batch else {
            // A churn or flush barrier. Churn replaces the share groups:
            // re-publish promptly so snapshots never show the pre-churn
            // layout for long.
            self.emit(results);
            self.shared
                .try_publish_groups(shard, engine.group_metrics());
            return;
        };
        if !results.is_empty() {
            // Every result is attributed to the batch's last event: the
            // executor cuts a shard's batch *on* the first event to reach
            // the next point of the window grid (`BatchCut::SizeOrClose`),
            // so that final event is the only one in the batch that can
            // close windows — the attribution a per-event loop gives.
            // One lock and one weighted sample per batch, not per result:
            // N workers recording per result would contend on the shared
            // histogram and inflate the very tail latency being measured.
            // Only a batch its last push shipped can hold results, and
            // that push stamped it if its event came bare.
            debug_assert!(arrival.is_some(), "results of an unstamped batch");
            if let Some(arrival) = arrival {
                let (latency, n) = (arrival.elapsed(), results.len() as u64);
                // hamlet-lint: allow(panic-hygiene) -- a poisoned latency lock means a recorder panicked; propagate it
                (self.shared.latency.lock().expect("latency lock")).record_n(latency, n);
            }
            self.emit(results);
        }
        // Only now: until the sink has its results, `queued()` must count
        // the batch somewhere.
        self.shared.worker_depths[shard].fetch_sub(events, Ordering::Relaxed);
        let batches = self.shared.batches[shard].fetch_add(1, Ordering::Relaxed) + 1;
        if batches.is_multiple_of(PUBLISH_EVERY) {
            self.shared
                .try_publish_groups(shard, engine.group_metrics());
        }
    }
}

/// A live pipeline: observe it with [`metrics`](Self::metrics), end it
/// with [`drain`](Self::drain) — or freeze it with
/// [`checkpoint`](Self::checkpoint) to resume later.
pub struct PipelineHandle<S> {
    shared: Arc<SharedStats>,
    /// Churn, cuts and the end of the run: the one channel to the
    /// ingest stage.
    control: mpsc::Sender<Control>,
    /// Hands back the session — its shard engines hold what the run
    /// measured — the frozen container, if any, and the sink.
    ingest: JoinHandle<(ParallelSession, IngestOutput, S)>,
}

impl<S: Sink> Snapshot for PipelineHandle<S> {
    /// Cuts a checkpoint of the **running** pipeline at the next
    /// barrier between source events (same barrier semantics as
    /// [`add_query`](PipelineHandle::add_query)) and blocks until the
    /// assembled container is back — appended to the configured
    /// [`CheckpointStore`] first, if one was set at build time. The
    /// pipeline keeps running afterwards; the frame chains onto any
    /// cadence cuts taken so far. A source blocked inside `next_event`
    /// delays the cut until it yields; one that already ended (or was
    /// [`stop`](PipelineHandle::stop)ped) does not: the ingest stage
    /// serves cuts until it is told how the run ends, so the last record
    /// of a finished stream is one more `cut`.
    fn cut(&mut self, kind: CutKind) -> Result<Checkpoint, CheckpointError> {
        self.ask(|ack| Control::Cut { kind, ack })
            .unwrap_or_else(|| Err(CheckpointError::Io("the ingest stage is gone".into())))
    }
}

impl<S: Sink> PipelineHandle<S> {
    /// A live snapshot of the pipeline's counters, queue depths, and
    /// latency tail. Never blocks the data path.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// The current metrics snapshot rendered in the Prometheus text
    /// exposition format (see [`MetricsSnapshot::to_prometheus`]).
    pub fn export_prometheus(&self) -> String {
        self.metrics().to_prometheus()
    }

    /// Every stage span recorded so far as Chrome `trace_event` JSON,
    /// loadable in `chrome://tracing` / Perfetto. Empty (but valid)
    /// unless the pipeline was built with [`PipelineBuilder::trace`].
    pub fn export_chrome_trace(&self) -> String {
        hamlet_obs::export::chrome_trace(&self.shared.spans.snapshot(), self.shared.spans.dropped())
    }

    /// Stops pulling the source, without waiting: after its current
    /// event the ingest stage releases what the reorder stage still
    /// holds, everything ingested flows through to the sink, and the
    /// pipeline idles — still serving [`cut`](Snapshot::cut) — until
    /// [`drain`](Self::drain) or [`checkpoint`](Self::checkpoint) says
    /// how the run ends. Idempotent. (A source blocked inside
    /// `next_event` is interrupted only when it yields.)
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
    }

    /// Adds a query to the live workload and blocks until it is applied,
    /// returning the new workload epoch.
    ///
    /// The op takes effect at the next **watermark barrier** — between
    /// source events, after everything already released has reached the
    /// workers, never mid-batch. Every shard engine re-plans only the
    /// share groups the new query touches; untouched groups keep their
    /// in-flight state, and windows of touched groups drain to the sink
    /// exactly once (no result is dropped or duplicated). A source
    /// blocked inside `next_event` delays the barrier (and this call)
    /// until it yields.
    pub fn add_query(&self, q: Query) -> Result<u64, PipelineChurnError> {
        self.churn(ChurnOp::Add(q))
    }

    /// Removes a query from the live workload and blocks until it is
    /// applied, returning the new workload epoch. Same barrier semantics
    /// as [`add_query`](Self::add_query): the removed query's in-flight
    /// windows drain to the sink at the barrier, exactly once.
    pub fn remove_query(&self, id: QueryId) -> Result<u64, PipelineChurnError> {
        self.churn(ChurnOp::Remove(id))
    }

    fn churn(&self, op: ChurnOp) -> Result<u64, PipelineChurnError> {
        self.ask(|ack| Control::Churn { op, ack })
            .unwrap_or(Err(PipelineChurnError::Stopped))
    }

    /// Sends one request down the control channel and waits for its
    /// answer; `None` when the ingest stage is gone.
    fn ask<T>(&self, request: impl FnOnce(mpsc::Sender<T>) -> Control) -> Option<T> {
        let (ack, answer) = mpsc::channel();
        if !self.send(request(ack)) {
            return None;
        }
        answer.recv().ok()
    }

    /// Sends `request` down the control channel and raises the flag the
    /// ingest stage polls it by; false when the ingest stage is gone.
    fn send(&self, request: Control) -> bool {
        let sent = self.control.send(request).is_ok();
        self.shared.control_pending.store(true, Ordering::Release);
        sent
    }

    /// Tells the ingest stage how the run ends and joins it — the one way
    /// out of a pipeline. (The shard workers are scoped to the ingest
    /// stage's feed; a worker's panic, or its sink's, arrives as its.)
    fn finish(self, end: End) -> (Arc<SharedStats>, ParallelSession, IngestOutput, S) {
        // A failed send means ingest died; its join below says how.
        self.send(Control::End(end));
        // hamlet-lint: allow(panic-hygiene) -- join propagates the thread's panic; swallowing it would fake a clean end
        let (session, frozen, sink) = self.ingest.join().expect("ingest thread panicked");
        (self.shared, session, frozen, sink)
    }

    /// Gracefully drains the pipeline and returns the final report:
    /// waits for the source to end — a source still being pulled is
    /// pulled dry, not cut short; call [`stop`](Self::stop) first to cut
    /// an unbounded one — releases the reorder buffer in order, lets
    /// every worker process its queue and `flush()` at the end barrier,
    /// delivers the last results to the sink, and joins all threads.
    /// Dropping the handle instead ends the run the same way, unobserved.
    ///
    /// Equivalent to an offline `process`+`flush` over exactly the
    /// events the pipeline released (see `tests/pipeline_equivalence.rs`
    /// for the byte-identity property).
    pub fn drain(self) -> PipelineReport<S> {
        let (shared, session, _, sink) = self.finish(End::Drain);
        let engines = session.engines();
        let mut engine_latency = LatencyRecorder::new();
        for engine in engines {
            engine_latency.merge(engine.latency());
        }
        // hamlet-lint: allow(panic-hygiene) -- a poisoned lock means a recorder panicked; propagate it
        let latency = shared.latency.lock().expect("latency lock").clone();
        PipelineReport {
            sink,
            events: shared.ingested.load(Ordering::Relaxed),
            released: shared.released.load(Ordering::Relaxed),
            late: shared.late.load(Ordering::Relaxed),
            results: shared.results.load(Ordering::Relaxed),
            wall: shared.elapsed(),
            stats: engines.iter().map(|e| *e.stats()).collect(),
            peak_mem: engines.iter().map(HamletEngine::peak_memory).collect(),
            engine_latency,
            latency,
            group_metrics: merge_group_metrics(engines.iter().map(|e| e.group_metrics().to_vec())),
            spans: shared.spans.snapshot(),
            dropped_spans: shared.spans.dropped(),
        }
    }

    /// Ends the run by freezing its state instead of flushing it: the
    /// source stops being pulled, the reorder stage keeps (rather than
    /// releases) its buffered events, and one last full coordinated cut
    /// — the same barrier every cadence and on-demand cut takes —
    /// records every shard engine; the workers then stop *without*
    /// flushing, the sink receives everything that was already in
    /// flight, and all threads join.
    ///
    /// The returned [`PipelineCheckpointReport`] carries the
    /// [`PipelineCheckpoint`], the sink with every result emitted
    /// *before* the barrier, and the barrier pause time. The container
    /// is handed to the caller, not appended to the pipeline's own
    /// store: to resume, append it to a [`CheckpointStore`]
    /// (`Checkpoint::from_bytes(checkpoint.to_bytes())` — a full record,
    /// so it starts a new chain) and call
    /// [`PipelineBuilder::resume_from`]. Windows still open at the
    /// barrier emit after the resume — exactly once, never twice:
    /// resuming and draining is byte-identical to a run that never
    /// stopped.
    ///
    /// An unbounded source is cut mid-stream; a source that already
    /// ended (or was [`stop`](Self::stop)ped) has released its reorder
    /// buffer by then, so the container's is empty.
    ///
    /// A pipeline that must survive an *unplanned* stop keeps itself
    /// durable while running instead
    /// ([`PipelineBuilder::checkpoint_every`], [`Snapshot::cut`]).
    pub fn checkpoint(self) -> PipelineCheckpointReport<S> {
        // hamlet-lint: allow(wallclock) -- checkpoint-pause measurement for the report
        let barrier = Instant::now();
        let (shared, session, frozen, sink) = self.finish(End::Freeze);
        let checkpoint = frozen
            // hamlet-lint: allow(panic-hygiene) -- End::Freeze is what makes ingest return a container
            .expect("a frozen run returns its container")
            // hamlet-lint: allow(panic-hygiene) -- every worker joined cleanly above, so the shards themselves disagreed on the cut; there is no state to hand back
            .expect("the final cut of a freeze");
        PipelineCheckpointReport {
            wall: checkpoint.elapsed(),
            checkpoint,
            sink,
            pause: barrier.elapsed(),
            stats: session.engines().iter().map(|e| *e.stats()).collect(),
            spans: shared.spans.snapshot(),
            dropped_spans: shared.spans.dropped(),
        }
    }
}

/// What [`PipelineHandle::checkpoint`] hands back: the frozen state,
/// the sink with every pre-barrier result, and the barrier timing.
pub struct PipelineCheckpointReport<S> {
    /// The durable pipeline state — persist with
    /// [`PipelineCheckpoint::to_bytes`] (appended to a
    /// [`CheckpointStore`] as a full record), resume with
    /// [`PipelineBuilder::resume_from`].
    pub checkpoint: PipelineCheckpoint,
    /// The sink, holding every result emitted before the barrier.
    pub sink: S,
    /// Drain-barrier pause: from the checkpoint request until every
    /// stage had quiesced and serialized — the unavailability window a
    /// live deployment would see.
    pub pause: Duration,
    /// Wall time of the logical run up to the barrier (accumulated
    /// across resumes) — what the container carries as `elapsed`.
    pub wall: Duration,
    /// Per-worker engine statistics at the barrier.
    pub stats: Vec<EngineStats>,
    /// Stage spans recorded up to the barrier (empty unless the pipeline
    /// was built with [`PipelineBuilder::trace`]).
    pub spans: Vec<Span>,
    /// Spans shed by full or contended trace rings.
    pub dropped_spans: u64,
}

/// Everything a finished pipeline run measured, plus the sink itself.
pub struct PipelineReport<S> {
    /// The sink, with whatever it accumulated.
    pub sink: S,
    /// Events ingested from the source.
    pub events: u64,
    /// Events released to workers (ingested − late, once the drain
    /// completes).
    pub released: u64,
    /// Late events dropped (counted, dead-lettered).
    pub late: u64,
    /// Window results delivered to the sink.
    pub results: u64,
    /// Wall time from spawn to drain completion. For a resumed pipeline
    /// this includes the time accumulated before the checkpoint, so
    /// throughput reflects the whole logical run.
    pub wall: Duration,
    /// Per-worker engine statistics (index = shard).
    pub stats: Vec<EngineStats>,
    /// Per-worker peak byte-accounted state.
    pub peak_mem: Vec<usize>,
    /// Merged engine-internal result latency (result − last contributing
    /// event arrival, as the offline harness reports it).
    pub engine_latency: LatencyRecorder,
    /// End-to-end (ingest → emit) latency histogram (p50/p99).
    pub latency: LatencyHistogram,
    /// Per-share-group metrics merged across shard workers (empty when
    /// the engines ran with [`EngineConfig::obs`] off).
    pub group_metrics: Vec<GroupMetrics>,
    /// Stage spans recorded over the run (empty unless the pipeline was
    /// built with [`PipelineBuilder::trace`]).
    pub spans: Vec<Span>,
    /// Spans shed by full or contended trace rings.
    pub dropped_spans: u64,
}

impl<S> PipelineReport<S> {
    /// Number of workers that ran.
    pub fn workers(&self) -> usize {
        self.stats.len()
    }

    /// Ingest throughput over the whole run (0 for zero-duration runs —
    /// never `inf`/`NaN`).
    pub fn throughput_eps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 && secs.is_finite() {
            self.events as f64 / secs
        } else {
            0.0
        }
    }

    /// Workload-level engine statistics (all workers accumulated).
    pub fn merged_stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for s in &self.stats {
            total.merge(s);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_core::executor::sort_results;
    use hamlet_query::parse_query;
    use hamlet_types::{AttrValue, EventTypeId, Ts};
    use std::sync::atomic::AtomicBool;

    fn setup() -> (Arc<TypeRegistry>, Vec<Query>, Vec<Event>) {
        let mut reg = TypeRegistry::new();
        for ty in ["A", "B", "C"] {
            reg.register(ty, &["g"]);
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
                "RETURN COUNT(*) PATTERN SEQ(C, B+) GROUP BY g WITHIN 20",
            )
            .unwrap(),
        ];
        let events = stream(&reg, 300);
        (reg, queries, events)
    }

    /// One event per tick over ticks `0..len`: `A`, `C`, then three `B`s,
    /// over seven keys.
    fn stream(reg: &TypeRegistry, len: u64) -> Vec<Event> {
        let [a, b, c] = ["A", "B", "C"].map(|ty| reg.type_id(ty).unwrap());
        (0..len)
            .map(|t| {
                let ty = match t % 5 {
                    0 => a,
                    1 => c,
                    _ => b,
                };
                Event::new(Ts(t), ty, vec![AttrValue::Int((t % 7) as i64)])
            })
            .collect()
    }

    fn offline(reg: &Arc<TypeRegistry>, queries: &[Query], events: &[Event]) -> Vec<WindowResult> {
        let mut eng =
            HamletEngine::new(reg.clone(), queries.to_vec(), EngineConfig::default()).unwrap();
        let mut out = Vec::new();
        for e in events {
            out.extend(eng.process(e));
        }
        out.extend(eng.flush());
        out
    }

    /// A store holding one frozen pipeline as a chain of one — how a
    /// [`PipelineHandle::checkpoint`] container is resumed.
    fn store_of(frozen: &PipelineCheckpoint) -> hamlet_core::MemStore {
        let store = hamlet_core::MemStore::new();
        store
            .append(&Checkpoint::from_bytes(frozen.to_bytes()).unwrap())
            .unwrap();
        store
    }

    #[test]
    fn single_worker_matches_offline_in_emission_order() {
        let (reg, queries, events) = setup();
        let expected = offline(&reg, &queries, &events);
        let handle = Pipeline::builder(reg, queries)
            .spawn(ReplaySource::new(events.clone()), VecSink::new())
            .unwrap();
        let report = handle.drain();
        // Raw order, not just sorted: one worker's emission order is the
        // engine's emission order.
        assert_eq!(report.sink.results, expected);
        assert_eq!(report.events, events.len() as u64);
        assert_eq!(report.released, events.len() as u64);
        assert_eq!(report.late, 0);
        assert_eq!(report.results, expected.len() as u64);
        assert_eq!(report.workers(), 1);
        assert!(report.throughput_eps() > 0.0);
        assert!(report.latency.count() > 0, "latency samples recorded");
        assert_eq!(report.merged_stats().late_skips, 0);
    }

    #[test]
    fn sharded_workers_match_offline_canonically() {
        let (reg, queries, events) = setup();
        let mut expected = offline(&reg, &queries, &events);
        sort_results(&mut expected);
        for workers in [2u32, 4] {
            let handle = Pipeline::builder(reg.clone(), queries.clone())
                .workers(workers)
                .spawn(ReplaySource::new(events.clone()), VecSink::new())
                .unwrap();
            let report = handle.drain();
            let mut got = report.sink.results;
            sort_results(&mut got);
            assert_eq!(got, expected, "{workers} workers");
            assert_eq!(report.stats.len(), workers as usize);
        }
    }

    #[test]
    fn out_of_order_within_slack_matches_in_order() {
        let (reg, queries, events) = setup();
        let expected = offline(&reg, &queries, &events);
        // Shuffle with bounded lateness 5, ingest with slack 5.
        let mut shuffled = events.clone();
        hamlet_stream::bounded_delay_shuffle(&mut shuffled, 5, 99);
        assert_ne!(shuffled, events, "shuffle must perturb the order");
        let handle = Pipeline::builder(reg, queries)
            .watermark(BoundedLateness::new(5))
            .spawn(ReplaySource::new(shuffled), VecSink::new())
            .unwrap();
        let report = handle.drain();
        assert_eq!(report.late, 0, "lateness within slack drops nothing");
        assert_eq!(report.sink.results, expected, "reorder restored order");
    }

    #[test]
    fn late_events_are_counted_and_dead_lettered() {
        let (reg, queries, events) = setup();
        let mut shuffled = events.clone();
        hamlet_stream::bounded_delay_shuffle(&mut shuffled, 10, 42);
        let dead = Arc::new(std::sync::Mutex::new(Vec::<Event>::new()));
        let dead_in_hook = dead.clone();
        // Slack 0 with lateness 10: every out-of-order event is late.
        let handle = Pipeline::builder(reg, queries)
            .watermark(BoundedLateness::new(0))
            .on_late(move |e| dead_in_hook.lock().unwrap().push(e))
            .spawn(ReplaySource::new(shuffled.clone()), VecSink::new())
            .unwrap();
        let report = handle.drain();
        assert!(report.late > 0, "shuffled stream must produce late events");
        assert_eq!(report.late as usize, dead.lock().unwrap().len());
        assert_eq!(report.released + report.late, report.events);
        // The engine never saw the dropped events, so its own late guard
        // stayed quiet and no window was emitted twice.
        assert_eq!(report.merged_stats().late_skips, 0);
        let mut seen = std::collections::BTreeSet::new();
        for r in &report.sink.results {
            assert!(
                seen.insert((r.query, format!("{}", r.group_key), r.window_start)),
                "duplicate window emission: {r:?}"
            );
        }
    }

    /// An endless source: the pipeline must keep running, serve live
    /// metrics, and stop cleanly mid-stream.
    struct Endless {
        t: u64,
        a: EventTypeId,
        b: EventTypeId,
    }

    impl Source for Endless {
        fn next_event(&mut self) -> Option<Event> {
            let ty = if self.t.is_multiple_of(10) {
                self.a
            } else {
                self.b
            };
            let e = Event::new(
                Ts(self.t / 4),
                ty,
                vec![AttrValue::Int((self.t % 3) as i64)],
            );
            self.t += 1;
            Some(e)
        }
    }

    #[test]
    fn unbounded_source_stops_on_drain() {
        let (reg, queries, _) = setup();
        let a = reg.type_id("A").unwrap();
        let b = reg.type_id("B").unwrap();
        let handle = Pipeline::builder(reg, queries)
            .spawn(Endless { t: 0, a, b }, CountingSink::new())
            .unwrap();
        // Let it run until it has demonstrably made progress.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let m = handle.metrics();
            if m.results > 0 && m.ingested > 1_000 {
                assert_eq!(m.late, 0);
                assert!(m.watermark.is_some());
                assert!(m.ingest_eps() > 0.0);
                break;
            }
            assert!(Instant::now() < deadline, "pipeline made no progress");
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.stop();
        let report = handle.drain();
        assert!(report.events > 1_000);
        assert!(report.results > 0);
        assert_eq!(report.released, report.events);
        assert_eq!(report.sink.count, report.results);
    }

    /// A sink that holds its first batch until the test opens the gate.
    struct Gated {
        results: Vec<WindowResult>,
        gate: Option<mpsc::Receiver<()>>,
    }

    impl Sink for Gated {
        fn accept(&mut self, batch: Vec<WindowResult>) {
            if let Some(gate) = self.gate.take() {
                let _ = gate.recv();
            }
            self.results.extend(batch);
        }
    }

    /// Backpressure at the fixed FIFO depth: while the sink holds its
    /// first batch, it holds the worker delivering it, the worker's FIFO
    /// fills, and the source stalls. One event per tick closes a window
    /// every 20 events; the held worker is busy, so its batches fill to
    /// the 20-tick grid, and its FIFO's 8 hold 160 ticks of stream —
    /// 1000 events are longer than the FIFO and the batch being built
    /// hold together. Once the sink lets go, no result is lost or
    /// duplicated.
    #[test]
    fn backpressure_preserves_every_result() {
        let (reg, queries, _) = setup();
        let events = stream(&reg, 1000);
        let expected = offline(&reg, &queries, &events);
        let (open, gate) = mpsc::channel();
        let sink = Gated {
            results: Vec::new(),
            gate: Some(gate),
        };
        let handle = Pipeline::builder(reg, queries)
            .spawn(ReplaySource::new(events.clone()), sink)
            .unwrap();
        // With bounded channels the source cannot finish while the sink
        // is held, however long this waits; the wait is what a channel
        // deep enough for the whole stream would need to show itself.
        std::thread::sleep(Duration::from_millis(100));
        let m = handle.metrics();
        assert!(
            !m.source_done && m.ingested < events.len() as u64,
            "a held sink must stall the source: {} of {} events ingested",
            m.ingested,
            events.len()
        );
        open.send(()).unwrap();
        let report = handle.drain();
        assert_eq!(report.sink.results, expected, "backpressure lost results");
        assert_eq!(report.events, events.len() as u64);
    }

    /// A sink that sleeps `pause` in every batch it accepts.
    struct Slow {
        results: Vec<WindowResult>,
        pause: Duration,
    }

    impl Sink for Slow {
        fn accept(&mut self, batch: Vec<WindowResult>) {
            std::thread::sleep(self.pause);
            self.results.extend(batch);
        }
    }

    /// A freeze behind a sink slower than the stream records exactly the
    /// results the sink holds: each worker delivers its pre-cut results
    /// before it answers the cut, however long the sink takes. Resuming
    /// from the container counts on from there, and the stitched output
    /// equals the uninterrupted run.
    #[test]
    fn a_freeze_behind_a_slow_sink_records_exact_counters() {
        let (reg, queries, _) = setup();
        let events = stream(&reg, 1000);
        let expected = offline(&reg, &queries, &events);
        let sink = Slow {
            results: Vec::new(),
            pause: Duration::from_millis(100),
        };
        let handle = Pipeline::builder(reg.clone(), queries.clone())
            .spawn(ReplaySource::new(events.clone()), sink)
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.metrics().ingested < 100 {
            assert!(Instant::now() < deadline, "pipeline made no progress");
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut frozen = handle.checkpoint();
        let ck = &frozen.checkpoint;
        let counted = ck.counters[3];
        assert!(ck.events_pulled() < events.len() as u64, "froze mid-stream");
        assert!(counted > 0, "results reached the sink before the freeze");
        assert_eq!(
            counted,
            frozen.sink.results.len() as u64,
            "the container's results counter"
        );

        frozen.sink.pause = Duration::ZERO;
        let (tx_ev, rx_ev) = mpsc::channel::<Event>();
        let resumed = Pipeline::builder(reg, queries)
            .resume_from(&store_of(ck), ChannelSource(rx_ev), frozen.sink)
            .unwrap();
        assert_eq!(resumed.metrics().results, counted, "counters continue");
        for e in &events[ck.events_pulled() as usize..] {
            tx_ev.send(e.clone()).unwrap();
        }
        drop(tx_ev);
        let report = resumed.drain();
        assert_eq!(report.results, expected.len() as u64);
        assert_eq!(report.sink.results, expected, "resume diverged");
    }

    /// A sink that panics takes its worker down, and with it the feed:
    /// the panic surfaces at the caller's join instead of a clean end.
    #[test]
    #[should_panic(expected = "ingest thread panicked")]
    fn a_panicking_sink_surfaces_at_the_join() {
        let (reg, queries, events) = setup();
        let sink = |_: Vec<WindowResult>| panic!("the sink gave up");
        Pipeline::builder(reg, queries)
            .workers(2)
            .spawn(ReplaySource::new(events), sink)
            .unwrap()
            .drain();
    }

    /// Replays `events`, stalling for `pause` before handing out the last
    /// one; `resumed` is when the stall ended.
    struct StallBeforeLast {
        events: std::vec::IntoIter<Event>,
        pause: Duration,
        resumed: Arc<std::sync::Mutex<Option<Instant>>>,
    }

    impl Source for StallBeforeLast {
        fn next_event(&mut self) -> Option<Event> {
            let e = self.events.next()?;
            if self.events.len() == 0 {
                std::thread::sleep(self.pause);
                *self.resumed.lock().unwrap() = Some(Instant::now());
            }
            Some(e)
        }
    }

    /// A batch's results are stamped with its *last* event's arrival.
    /// The only batch that emits here is `[B@19, A@20]`: `B@19` repeats
    /// its shard's tick and waits in the outbox through the source's
    /// stall; `A@20` advances the tick, ships both and closes `[0, 20)`.
    /// Its results' latency therefore counts from after the stall, however
    /// long the first event of the batch had been waiting.
    #[test]
    fn batch_results_are_stamped_with_the_last_arrival() {
        let (reg, queries, _) = setup();
        let (a, b) = (reg.type_id("A").unwrap(), reg.type_id("B").unwrap());
        let ev = |t, ty| Event::new(Ts(t), ty, vec![AttrValue::Int(0)]);
        let events = vec![ev(0, a), ev(19, b), ev(19, b), ev(20, a)];
        let expected = offline(&reg, &queries, &events[..]);
        let resumed = Arc::new(std::sync::Mutex::new(None));
        let pause = Duration::from_millis(200);
        let source = StallBeforeLast {
            events: events.into_iter(),
            pause,
            resumed: resumed.clone(),
        };
        let report = Pipeline::builder(reg, queries)
            .spawn(source, VecSink::new())
            .unwrap()
            .drain();
        let since_resume = resumed.lock().unwrap().expect("source stalled").elapsed();
        assert_eq!(report.sink.results, expected);
        // One sample per result of the emitting batch (the drain's flush
        // records none), each at most the time since the stall ended — a
        // stamp from the batch's first event would add the whole pause.
        assert_eq!(report.latency.count(), 2, "[0, 20) of both queries");
        assert!(
            report.latency.max() <= since_resume,
            "latency {:?} counts from before the stall (ended {since_resume:?} ago)",
            report.latency.max()
        );
    }

    /// Checkpoint after a prefix, resume with the rest of the stream:
    /// the sink ends up with exactly the uninterrupted run's results (1
    /// worker: raw emission order), and the metrics counters continue.
    #[test]
    fn checkpoint_resume_matches_uninterrupted() {
        let (reg, queries, events) = setup();
        let expected = offline(&reg, &queries, &events);
        let cut = events.len() / 2;
        let handle = Pipeline::builder(reg.clone(), queries.clone())
            .spawn(ReplaySource::new(events[..cut].to_vec()), VecSink::new())
            .unwrap();
        // Let the prefix drain fully so the cut is exact and the barrier
        // deterministic.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !(handle.metrics().source_done && handle.metrics().queued() == 0) {
            assert!(Instant::now() < deadline, "prefix never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        let frozen = handle.checkpoint();
        assert_eq!(frozen.checkpoint.events_pulled(), cut as u64);
        assert_eq!(frozen.checkpoint.workers(), 1);
        assert!(frozen.checkpoint.engine_bytes() > 0);
        // Persist + reload through a store, as a crash-recovery path
        // would.
        let store = store_of(&frozen.checkpoint);
        let chain = store.load_chain().unwrap();
        let restored = PipelineCheckpoint::from_bytes(chain[0].as_bytes()).unwrap();
        let cursor = restored.events_pulled() as usize;
        let resumed = Pipeline::builder(reg, queries)
            .resume_from(
                &store,
                ReplaySource::new(events[cursor..].to_vec()),
                frozen.sink,
            )
            .unwrap();
        let report = resumed.drain();
        assert_eq!(
            report.sink.results, expected,
            "kill-restore-continue diverged"
        );
        assert_eq!(report.events, events.len() as u64, "counters continue");
        assert_eq!(report.released, events.len() as u64);
    }

    /// Resume validates the worker count before touching any state.
    #[test]
    fn resume_rejects_wrong_worker_count() {
        let (reg, queries, events) = setup();
        let handle = Pipeline::builder(reg.clone(), queries.clone())
            .workers(2)
            .spawn(ReplaySource::new(events.clone()), VecSink::new())
            .unwrap();
        let frozen = handle.checkpoint();
        let err = Pipeline::builder(reg, queries)
            .workers(4)
            .resume_from(
                &store_of(&frozen.checkpoint),
                ReplaySource::new(vec![]),
                NullSink,
            )
            .err();
        assert!(
            matches!(
                err,
                Some(ResumeError::Checkpoint(CheckpointError::WorkloadMismatch(
                    _
                )))
            ),
            "wrong worker count must be a checkpoint error: {err:?}"
        );
    }

    #[test]
    fn spawn_surfaces_workload_errors() {
        let mut reg = TypeRegistry::new();
        reg.register("A", &["v"]);
        let reg = Arc::new(reg);
        // MIN with negation is unsupported — the builder must say so
        // instead of panicking a worker thread.
        let q = parse_query(&reg, 1, "RETURN MIN(A.v) PATTERN SEQ(NOT A, A+) WITHIN 10");
        let Ok(q) = q else {
            return; // parser already rejects it: equally fine
        };
        let err = Pipeline::builder(reg, vec![q])
            .spawn(ReplaySource::new(vec![]), NullSink)
            .err();
        assert!(err.is_some(), "engine error must surface at spawn");
    }

    #[test]
    fn too_many_workers_rejected() {
        let (reg, queries, _) = setup();
        let err = Pipeline::builder(reg, queries)
            .workers(65)
            .spawn(ReplaySource::new(vec![]), NullSink)
            .err();
        assert!(matches!(err, Some(EngineError::Unsupported(_))), "{err:?}");
    }

    fn third_query(reg: &Arc<TypeRegistry>) -> Query {
        parse_query(
            reg,
            3,
            "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g WITHIN 10",
        )
        .unwrap()
    }

    /// Offline reference for a churned run: with an in-order stream and
    /// zero slack, the pipeline's watermark equals each event's time, so
    /// a scheduled op fires right after the first event at/past its
    /// trigger — this mirrors that barrier exactly.
    fn offline_churned(
        reg: &Arc<TypeRegistry>,
        queries: &[Query],
        events: &[Event],
        schedule: &[(Ts, ChurnOp)],
    ) -> Vec<WindowResult> {
        let mut eng =
            HamletEngine::new(reg.clone(), queries.to_vec(), EngineConfig::default()).unwrap();
        let mut out = Vec::new();
        let mut next = 0;
        for e in events {
            out.extend(eng.process(e));
            while next < schedule.len() && schedule[next].0 <= e.time {
                let report = eng.apply(schedule[next].1.clone()).unwrap();
                out.extend(report.drained);
                next += 1;
            }
        }
        out.extend(eng.flush());
        out
    }

    /// A scheduled add + remove mid-stream matches the same churn
    /// applied to an offline engine at the same event-time barriers —
    /// raw emission order with one worker, canonical order when sharded.
    /// An op scheduled past the stream's end never fires.
    #[test]
    fn scheduled_churn_matches_offline_replan() {
        let (reg, queries, events) = setup();
        let schedule = vec![
            (Ts(99), ChurnOp::Add(third_query(&reg))),
            (Ts(199), ChurnOp::Remove(QueryId(2))),
            (Ts(9_999), ChurnOp::Remove(QueryId(1))), // beyond the stream: discarded
        ];
        let expected = offline_churned(&reg, &queries, &events, &schedule);
        let handle = Pipeline::builder(reg.clone(), queries.clone())
            .churn_at(schedule.clone())
            .spawn(ReplaySource::new(events.clone()), VecSink::new())
            .unwrap();
        let report = handle.drain();
        assert_eq!(report.sink.results, expected, "single-worker churn");

        let mut canonical = expected;
        sort_results(&mut canonical);
        for workers in [2u32, 4] {
            let handle = Pipeline::builder(reg.clone(), queries.clone())
                .workers(workers)
                .churn_at(schedule.clone())
                .spawn(ReplaySource::new(events.clone()), VecSink::new())
                .unwrap();
            let report = handle.drain();
            let mut got = report.sink.results;
            sort_results(&mut got);
            assert_eq!(got, canonical, "{workers}-worker churn");
        }
    }

    /// The whole churn schedule is validated when the pipeline spawns.
    #[test]
    fn churn_schedule_is_validated_at_spawn() {
        let (reg, queries, _) = setup();
        let dup = queries[0].clone();
        let err = Pipeline::builder(reg.clone(), queries.clone())
            .churn_at(vec![(Ts(5), ChurnOp::Add(dup))])
            .spawn(ReplaySource::new(vec![]), NullSink)
            .err();
        assert!(matches!(err, Some(EngineError::Churn(_))), "{err:?}");
        let err = Pipeline::builder(reg, queries)
            .churn_at(vec![(Ts(5), ChurnOp::Remove(QueryId(77)))])
            .spawn(ReplaySource::new(vec![]), NullSink)
            .err();
        assert!(matches!(err, Some(EngineError::Churn(_))), "{err:?}");
    }

    /// A source fed over a channel, so a test controls exactly when the
    /// ingest loop can make progress.
    struct ChannelSource(mpsc::Receiver<Event>);

    impl Source for ChannelSource {
        fn next_event(&mut self) -> Option<Event> {
            self.0.recv().ok()
        }
    }

    /// Live `add_query`/`remove_query` on a running pipeline: acks carry
    /// monotone epochs, invalid ops are rejected without disturbing the
    /// workload, no window is emitted twice, and the pipeline keeps
    /// producing for the new workload after each barrier.
    #[test]
    fn live_churn_applies_between_source_events() {
        let (reg, queries, _) = setup();
        let a = reg.type_id("A").unwrap();
        let b = reg.type_id("B").unwrap();
        let c = reg.type_id("C").unwrap();
        // Captures only `Copy` ids, so the closure itself is `Copy` and
        // each feeder thread gets its own.
        let mk = move |t: u64| {
            let ty = match t % 5 {
                0 => a,
                1 => c,
                _ => b,
            };
            Event::new(Ts(t), ty, vec![AttrValue::Int((t % 7) as i64)])
        };
        for workers in [1u32, 4] {
            let (tx_ev, rx_ev) = mpsc::channel::<Event>();
            for t in 0..150 {
                tx_ev.send(mk(t)).unwrap();
            }
            let handle = Pipeline::builder(reg.clone(), queries.clone())
                .workers(workers)
                .spawn(ChannelSource(rx_ev), VecSink::new())
                .unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while !(handle.metrics().ingested == 150 && handle.metrics().queued() == 0) {
                assert!(Instant::now() < deadline, "prefix never drained");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(handle.metrics().epoch, 0);

            // Feed slowly from here: the churn barrier falls between two
            // source events, and pending ops are applied at the next one.
            let done = Arc::new(AtomicBool::new(false));
            let done_feeder = done.clone();
            let feeder = std::thread::spawn(move || {
                for t in 150..20_000u64 {
                    if done_feeder.load(Ordering::Relaxed) {
                        break;
                    }
                    if tx_ev.send(mk(t)).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            assert_eq!(handle.add_query(third_query(&reg)).unwrap(), 1);
            assert!(
                matches!(
                    handle.add_query(queries[0].clone()),
                    Err(PipelineChurnError::Rejected(ChurnError::Duplicate(
                        QueryId(1)
                    )))
                ),
                "duplicate id must be rejected"
            );
            assert!(
                matches!(
                    handle.remove_query(QueryId(77)),
                    Err(PipelineChurnError::Rejected(ChurnError::Unknown(QueryId(
                        77
                    ))))
                ),
                "unknown id must be rejected"
            );
            assert_eq!(handle.remove_query(QueryId(2)).unwrap(), 2);
            assert_eq!(handle.metrics().epoch, 2);
            // Let the post-churn workload run long enough to close
            // windows of the added query, then cut the stream.
            let target = handle.metrics().ingested + 60;
            while handle.metrics().ingested < target {
                assert!(Instant::now() < deadline, "post-churn stream stalled");
                std::thread::sleep(Duration::from_millis(1));
            }
            done.store(true, Ordering::Relaxed);
            feeder.join().unwrap();
            // The feeder hung up: once ingest observes the end of the
            // stream, churn can no longer be applied.
            while !handle.metrics().source_done {
                assert!(Instant::now() < deadline, "source never ended");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(
                matches!(
                    handle.remove_query(QueryId(1)),
                    Err(PipelineChurnError::Stopped)
                ),
                "churn after the stream ended must report Stopped"
            );
            let report = handle.drain();

            // Per the churn contract: q1's group is restructured when q3
            // (same pattern) joins it, so a q1 window in flight at that
            // barrier may split into a drained prefix + post-barrier
            // suffix (two rows). q2 (removed, solo group) and q3 (added)
            // windows must appear exactly once.
            let mut mult = std::collections::BTreeMap::new();
            for r in &report.sink.results {
                *mult
                    .entry((r.query, format!("{}", r.group_key), r.window_start))
                    .or_insert(0u32) += 1;
            }
            for ((q, key, start), n) in &mult {
                let cap = if *q == QueryId(1) { 2 } else { 1 };
                assert!(
                    *n <= cap,
                    "window emitted {n} times (cap {cap}): {q:?} {key} {start:?}"
                );
            }
            let max_start = |qid: QueryId| {
                report
                    .sink
                    .results
                    .iter()
                    .filter(|r| r.query == qid)
                    .map(|r| r.window_start)
                    .max()
            };
            let q2_last = max_start(QueryId(2)).expect("q2 ran before its removal");
            let q3_last = max_start(QueryId(3)).expect("the added query must produce");
            assert!(
                q3_last > q2_last,
                "q2 must stop at its removal barrier (last {q2_last:?}) while q3 continues (last {q3_last:?})"
            );
            assert_eq!(report.results, report.sink.results.len() as u64);
        }
    }

    /// Cadence cuts on a live pipeline: an in-order stream with slack 0
    /// cuts at exact released counts, so the store's chain is
    /// deterministic. The cuts must not perturb the output, the chain
    /// must be base + contiguous deltas, and `resume_from` after a
    /// mid-delta-interval kill (the stream ends 10 events past the last
    /// cut) must emit exactly the uninterrupted run's suffix.
    #[test]
    fn cadence_cuts_resume_from_store_match_uninterrupted() {
        let (reg, queries, events) = setup();
        let expected = offline(&reg, &queries, &events);
        let store = Arc::new(hamlet_core::MemStore::new());
        let handle = Pipeline::builder(reg.clone(), queries.clone())
            .checkpoint_store(store.clone())
            .checkpoint_every(60)
            .spawn(ReplaySource::new(events[..250].to_vec()), VecSink::new())
            .unwrap();
        let report = handle.drain();
        assert_eq!(
            report.sink.results,
            offline(&reg, &queries, &events[..250]),
            "cadence cuts perturbed the output"
        );
        let chain = store.load_chain().unwrap();
        assert_eq!(chain.len(), 4, "cadence cuts at released 60/120/180/240");
        assert!(!chain[0].is_delta(), "the first cut promotes to a base");
        assert!(chain[1..].iter().all(Checkpoint::is_delta));
        let tail = PipelineCheckpoint::from_bytes(chain[chain.len() - 1].as_bytes()).unwrap();
        assert_eq!(tail.events_pulled(), 240);

        // The kill: events 240..250 were processed but never cut. The
        // resumed run replays from the last cut and emits exactly what
        // the uninterrupted run emits after stream position 240.
        let mut oracle =
            HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
        let mut pre = 0;
        for e in &events[..240] {
            pre += oracle.process(e).len();
        }
        let resumed = Pipeline::builder(reg, queries)
            .resume_from(
                store.as_ref(),
                ReplaySource::new(events[240..].to_vec()),
                VecSink::new(),
            )
            .unwrap();
        let report = resumed.drain();
        assert_eq!(
            report.sink.results,
            expected[pre..],
            "chain resume diverged"
        );
        assert_eq!(report.events, events.len() as u64, "counters continue");
    }

    /// `resume_from` over an empty store must fail loudly, and the
    /// cadence knob without a store must be rejected at spawn.
    #[test]
    fn store_misconfigurations_fail_loudly() {
        let (reg, queries, _) = setup();
        let store = hamlet_core::MemStore::new();
        let err = Pipeline::builder(reg.clone(), queries.clone())
            .resume_from(&store, ReplaySource::new(vec![]), NullSink)
            .err();
        assert!(
            matches!(
                err,
                Some(ResumeError::Checkpoint(CheckpointError::Corrupt(_)))
            ),
            "{err:?}"
        );
        let res = Pipeline::builder(reg, queries)
            .checkpoint_every(10)
            .spawn(ReplaySource::new(vec![]), NullSink);
        assert!(
            matches!(res, Err(EngineError::Unsupported(_))),
            "checkpoint_every without a store must be rejected"
        );
    }

    /// Zero cadences and a cadence without a store are construction
    /// errors from `spawn` and from `resume_from`, not panics in the
    /// builder or on the spawning thread.
    #[test]
    fn invalid_cadences_are_errors_from_spawn_and_resume() {
        let (reg, queries, events) = setup();
        let store = Arc::new(hamlet_core::MemStore::new());
        let builder = || Pipeline::builder(reg.clone(), queries.clone());
        let with_store = || builder().checkpoint_store(store.clone());
        // A chain to resume from.
        with_store()
            .checkpoint_every(20)
            .spawn(ReplaySource::new(events[..50].to_vec()), NullSink)
            .unwrap()
            .drain();
        let bad = [
            builder().checkpoint_every(10),
            with_store().checkpoint_every(0),
            with_store().checkpoint_every(10).compact_every(0),
            with_store().compact_every(0),
        ];
        for (i, b) in bad.into_iter().enumerate() {
            let res = b.spawn(ReplaySource::new(events.clone()), NullSink);
            assert!(
                matches!(res, Err(EngineError::Unsupported(_))),
                "case {i}: spawn"
            );
        }
        let bad = [
            builder().checkpoint_every(10),
            with_store().checkpoint_every(0),
            with_store().compact_every(0),
        ];
        for (i, b) in bad.into_iter().enumerate() {
            let res = b.resume_from(store.as_ref(), ReplaySource::new(vec![]), NullSink);
            assert!(
                matches!(res, Err(ResumeError::Engine(EngineError::Unsupported(_)))),
                "case {i}: resume_from"
            );
        }
    }

    /// On-demand `Snapshot::cut` on a live handle: the cut lands at a
    /// barrier between source events, is appended to the store on top of
    /// any cadence cuts, and the pipeline keeps running afterwards.
    #[test]
    fn live_cut_appends_to_store_and_pipeline_continues() {
        let (reg, queries, _) = setup();
        let a = reg.type_id("A").unwrap();
        let b = reg.type_id("B").unwrap();
        let c = reg.type_id("C").unwrap();
        let mk = move |t: u64| {
            let ty = match t % 5 {
                0 => a,
                1 => c,
                _ => b,
            };
            Event::new(Ts(t), ty, vec![AttrValue::Int((t % 7) as i64)])
        };
        let total = 400u64;
        let (tx_ev, rx_ev) = mpsc::channel::<Event>();
        for t in 0..150 {
            tx_ev.send(mk(t)).unwrap();
        }
        let store = Arc::new(hamlet_core::MemStore::new());
        let mut handle = Pipeline::builder(reg.clone(), queries.clone())
            .checkpoint_store(store.clone())
            .checkpoint_every(100)
            .spawn(ChannelSource(rx_ev), VecSink::new())
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !(handle.metrics().ingested == 150 && handle.metrics().queued() == 0) {
            assert!(Instant::now() < deadline, "prefix never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Feed slowly so the cut barrier falls between source events.
        let done = Arc::new(AtomicBool::new(false));
        let done_feeder = done.clone();
        let feeder = std::thread::spawn(move || {
            for t in 150..total {
                if done_feeder.load(Ordering::Relaxed) {
                    break;
                }
                if tx_ev.send(mk(t)).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let ck = handle.cut(hamlet_core::CutKind::Delta).unwrap();
        assert!(ck.epoch() == 0 && !ck.as_bytes().is_empty());
        assert_eq!(
            Checkpoint::from_bytes(ck.as_bytes().to_vec()).unwrap(),
            ck,
            "the handle the cut assembled is what a reader peeks"
        );
        let cursor = PipelineCheckpoint::from_bytes(ck.as_bytes())
            .unwrap()
            .events_pulled();
        assert!(cursor >= 150, "the cut covers at least the fast prefix");
        let chain = store.load_chain().unwrap();
        assert_eq!(
            chain[chain.len() - 1].as_bytes(),
            ck.as_bytes(),
            "the on-demand cut is the store's newest record"
        );
        let m = handle.metrics();
        assert!(m.checkpoints >= 2, "cadence cut at 100 plus the live cut");
        assert_eq!(m.checkpoint_failures, 0);
        assert!(m.checkpoint_bytes > 0);
        done.store(true, Ordering::Relaxed);
        feeder.join().unwrap();
        let report = handle.drain();
        assert!(report.events >= cursor, "pipeline kept running after cut");

        // Recovery from the chain: replay everything past the cursor and
        // compare against the uninterrupted run's suffix.
        let fed: Vec<Event> = (0..report.events).map(mk).collect();
        let expected = offline(&reg, &queries, &fed);
        let mut oracle =
            HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
        let mut pre = 0;
        for e in &fed[..cursor as usize] {
            pre += oracle.process(e).len();
        }
        let resumed = Pipeline::builder(reg, queries)
            .resume_from(
                store.as_ref(),
                ReplaySource::new(fed[cursor as usize..].to_vec()),
                VecSink::new(),
            )
            .unwrap();
        let report = resumed.drain();
        assert_eq!(
            report.sink.results,
            expected[pre..],
            "live-cut resume diverged"
        );
    }

    /// A resumed pipeline's elapsed time continues from the checkpoint
    /// instead of restarting at zero — the regression that made
    /// `ingest_eps()` overreport after every resume.
    #[test]
    fn resumed_pipeline_reports_accumulated_elapsed() {
        let (reg, queries, events) = setup();
        let cut = events.len() / 2;
        let handle = Pipeline::builder(reg.clone(), queries.clone())
            .spawn(ReplaySource::new(events[..cut].to_vec()), VecSink::new())
            .unwrap();
        // Hold the pipeline open long enough that the banked time
        // dominates clock granularity.
        std::thread::sleep(Duration::from_millis(20));
        let frozen = handle.checkpoint();
        let banked = frozen.checkpoint.elapsed();
        assert!(banked >= Duration::from_millis(20), "banked {banked:?}");
        assert_eq!(frozen.wall, banked);
        let store = store_of(&frozen.checkpoint);
        let stored = store.load_chain().unwrap();
        let restored = PipelineCheckpoint::from_bytes(stored[0].as_bytes()).unwrap();
        assert_eq!(restored.elapsed(), banked, "elapsed survives the codec");
        let resumed = Pipeline::builder(reg, queries)
            .resume_from(
                &store,
                ReplaySource::new(events[cut..].to_vec()),
                frozen.sink,
            )
            .unwrap();
        let snap = resumed.metrics();
        assert!(
            snap.elapsed >= banked,
            "resumed elapsed {:?} lost the banked {banked:?}",
            snap.elapsed
        );
        let report = resumed.drain();
        assert!(
            report.wall >= banked,
            "report wall restarted: {:?}",
            report.wall
        );
    }

    /// Tracing enabled: the drain report carries stage spans from both
    /// the ingest lane and worker lanes, the live exporters produce
    /// well-formed output, and ring memory stays bounded.
    #[test]
    fn traced_run_records_stage_spans() {
        let (reg, queries, events) = setup();
        let cap = 64;
        let handle = Pipeline::builder(reg, queries)
            .trace(cap)
            .spawn(ReplaySource::new(events), VecSink::new())
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !(handle.metrics().source_done && handle.metrics().queued() == 0) {
            assert!(Instant::now() < deadline, "stream never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        let trace = handle.export_chrome_trace();
        assert!(trace.starts_with('{') && trace.ends_with("]}\n"));
        assert!(trace.contains("\"name\":\"process_batch\""));
        let prom = handle.export_prometheus();
        assert!(prom.contains("hamlet_ingested_total 300"));
        assert!(prom.contains("hamlet_group_events_routed_total{group="));
        let report = handle.drain();
        assert!(!report.spans.is_empty());
        let lanes: std::collections::BTreeSet<u32> = report.spans.iter().map(|s| s.lane).collect();
        assert!(lanes.contains(&0), "ingest lane must record");
        assert!(lanes.iter().any(|&l| l > 0), "worker lane must record");
        let stages: std::collections::BTreeSet<&str> =
            report.spans.iter().map(|s| s.stage.as_str()).collect();
        for want in [
            "ingest",
            "reorder_release",
            "route",
            "process_batch",
            "flush",
        ] {
            assert!(stages.contains(want), "missing stage {want}: {stages:?}");
        }
        // Bounded memory: 2 lanes (1 worker + ingest) x cap spans.
        assert!(
            report.spans.len() <= 2 * cap,
            "{} spans",
            report.spans.len()
        );
    }

    /// An untraced pipeline records nothing and exports an empty (but
    /// valid) trace.
    #[test]
    fn untraced_run_records_no_spans() {
        let (reg, queries, events) = setup();
        let handle = Pipeline::builder(reg, queries)
            .spawn(ReplaySource::new(events), VecSink::new())
            .unwrap();
        let report = handle.drain();
        assert!(report.spans.is_empty());
        assert_eq!(report.dropped_spans, 0);
    }

    /// Per-share-group metrics are identical however the stream is
    /// sharded: 1-worker and 4-worker runs of the same stream must agree
    /// counter for counter (the merge is order-insensitive).
    #[test]
    fn group_metrics_identical_across_worker_counts() {
        let (reg, queries, events) = setup();
        let run = |workers: u32| {
            let handle = Pipeline::builder(reg.clone(), queries.clone())
                .workers(workers)
                .spawn(ReplaySource::new(events.clone()), VecSink::new())
                .unwrap();
            handle.drain().group_metrics
        };
        let solo = run(1);
        let sharded = run(4);
        assert!(!solo.is_empty(), "obs is on by default");
        assert_eq!(solo.len(), sharded.len());
        for (a, b) in solo.iter().zip(sharded.iter()) {
            assert_eq!(a.sig, b.sig);
            assert_eq!(a.events_routed, b.events_routed, "group {}", a.sig_label());
            assert_eq!(a.runs_created, b.runs_created, "group {}", a.sig_label());
            assert_eq!(a.runs_expired, b.runs_expired, "group {}", a.sig_label());
            assert_eq!(a.shared_bursts, b.shared_bursts, "group {}", a.sig_label());
            assert_eq!(a.solo_bursts, b.solo_bursts, "group {}", a.sig_label());
            assert_eq!(
                a.graphlet_snapshots,
                b.graphlet_snapshots,
                "group {}",
                a.sig_label()
            );
            assert_eq!(
                a.event_snapshots,
                b.event_snapshots,
                "group {}",
                a.sig_label()
            );
            assert_eq!(
                a.results_emitted,
                b.results_emitted,
                "group {}",
                a.sig_label()
            );
        }
    }

    /// A frozen [`PipelineCheckpoint`] at epoch > 0 holds one base frame
    /// per shard, as any full cut writes; the same container with the
    /// frames unwrapped to bare `HMEN` blobs is what every release before
    /// this one froze. Either, appended to a store, resumes
    /// byte-identically via `resume_from` — the chain restore adopts the
    /// records' epoch — and resuming under the pre-churn workload is
    /// rejected.
    #[test]
    fn checkpoint_after_churn_resumes_with_epoch() {
        let (reg, queries, events) = setup();
        let schedule = vec![(Ts(99), ChurnOp::Add(third_query(&reg)))];
        let expected = offline_churned(&reg, &queries, &events, &schedule);
        let cut = 200;
        let handle = Pipeline::builder(reg.clone(), queries.clone())
            .churn_at(schedule)
            .spawn(ReplaySource::new(events[..cut].to_vec()), VecSink::new())
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !(handle.metrics().source_done && handle.metrics().queued() == 0) {
            assert!(Instant::now() < deadline, "prefix never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(handle.metrics().epoch, 1);
        let mut frozen = handle.checkpoint();
        let store = store_of(&frozen.checkpoint);
        for record in &mut frozen.checkpoint.engines {
            let frame = hamlet_core::checkpoint::read_delta_frame(record).unwrap();
            assert!(frame.base && frame.epoch == 1, "a base, epoch stamped");
            assert_eq!(&frame.payload[..4], b"HMEN");
            *record = frame.payload.to_vec();
        }
        let legacy_store = store_of(&frozen.checkpoint);

        let mut final_queries = queries.clone();
        final_queries.push(third_query(&reg));
        let pre = frozen.sink.results.len();
        let resume = |store: &hamlet_core::MemStore, sink: VecSink| {
            let resumed = Pipeline::builder(reg.clone(), final_queries.clone())
                .resume_from(store, ReplaySource::new(events[cut..].to_vec()), sink)
                .unwrap();
            assert_eq!(resumed.metrics().epoch, 1, "resume adopts the epoch");
            resumed.drain().sink.results
        };
        assert_eq!(resume(&store, frozen.sink), expected, "resume diverged");
        assert_eq!(
            resume(&legacy_store, VecSink::new()),
            expected[pre..],
            "bare-blob resume diverged"
        );

        // The pre-churn workload no longer matches the checkpoint.
        let err = Pipeline::builder(reg, queries)
            .resume_from(&store, ReplaySource::new(vec![]), NullSink)
            .err();
        assert!(
            matches!(
                err,
                Some(ResumeError::Checkpoint(CheckpointError::WorkloadMismatch(
                    _
                )))
            ),
            "{err:?}"
        );
    }

    fn wait_idle<S: Sink>(handle: &PipelineHandle<S>) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !(handle.metrics().source_done && handle.metrics().queued() == 0) {
            assert!(Instant::now() < deadline, "stream never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The ingest stage serves cuts until it is told how the run ends,
    /// so a finished stream is cut like a flowing one: the record lands
    /// in the store, later cuts chain onto it, and resuming from the
    /// store with nothing left to replay flushes exactly the windows the
    /// first run still held open.
    #[test]
    fn cut_after_the_source_ended_resumes_to_the_same_output() {
        let (reg, queries, events) = setup();
        let mut expected = offline(&reg, &queries, &events);
        sort_results(&mut expected);
        for workers in [1u32, 4] {
            let store = Arc::new(hamlet_core::MemStore::new());
            let build = || {
                Pipeline::builder(reg.clone(), queries.clone())
                    .workers(workers)
                    .checkpoint_store(store.clone())
            };
            let mut handle = build()
                .spawn(ReplaySource::new(events.clone()), VecSink::new())
                .unwrap();
            wait_idle(&handle);
            let base = handle.cut(CutKind::Delta).expect("cut after the end");
            assert!(!base.is_delta(), "the first cut promotes to a base");
            assert_eq!(store.load_chain().unwrap(), [base]);
            let tip = handle.cut(CutKind::Delta).expect("second cut");
            assert_eq!(tip.parent(), Some(1), "later cuts chain on");
            assert_eq!(store.load_chain().unwrap().len(), 2);
            assert_eq!(handle.metrics().checkpoint_failures, 0);
            let cursor = PipelineCheckpoint::from_bytes(tip.as_bytes()).unwrap();
            assert_eq!(cursor.events_pulled(), events.len() as u64);
            // The cut barrier landed every earlier result in the sink.
            let emitted = cursor.counters[3] as usize;
            let mut first = handle.drain().sink.results;
            let mut resumed = build()
                .resume_from(store.as_ref(), ReplaySource::new(vec![]), VecSink::new())
                .unwrap()
                .drain()
                .sink
                .results;
            let mut stitched = first[..emitted].to_vec();
            stitched.append(&mut resumed);
            sort_results(&mut first);
            sort_results(&mut stitched);
            assert_eq!(first, expected, "{workers} workers: cuts perturbed");
            assert_eq!(stitched, expected, "{workers} workers: resume diverged");
        }
    }

    /// Hands its results on when the pipeline lets go of it, so a test can
    /// observe a pipeline whose handle is gone.
    struct Bequeath(Vec<WindowResult>, mpsc::Sender<Vec<WindowResult>>);

    impl Sink for Bequeath {
        fn accept(&mut self, batch: Vec<WindowResult>) {
            self.0.extend(batch);
        }
    }

    impl Drop for Bequeath {
        fn drop(&mut self) {
            let _ = self.1.send(std::mem::take(&mut self.0));
        }
    }

    /// A dropped handle is a drain nobody waits for: every open window
    /// still reaches the sink, once.
    #[test]
    fn dropped_handle_still_flushes_every_window_once() {
        let (reg, queries, events) = setup();
        let expected = offline(&reg, &queries, &events);
        let (heir, will) = mpsc::channel();
        drop(
            Pipeline::builder(reg, queries)
                .spawn(ReplaySource::new(events), Bequeath(Vec::new(), heir))
                .unwrap(),
        );
        let got = will.recv_timeout(Duration::from_secs(10));
        assert_eq!(got.expect("the abandoned pipeline never ended"), expected);
    }

    /// Telling a pipeline to drain settles how its run ends, not when:
    /// the source is pulled dry first. The request is sent through the
    /// handle's `send` before any event (it is the first thing `drain()`
    /// does) so that it provably arrives with the whole stream still to
    /// come.
    #[test]
    fn drain_does_not_cut_a_flowing_source_short() {
        let (reg, queries, events) = setup();
        let expected = offline(&reg, &queries, &events);
        let (tx_ev, rx_ev) = mpsc::channel::<Event>();
        let handle = Pipeline::builder(reg, queries)
            .spawn(ChannelSource(rx_ev), VecSink::new())
            .unwrap();
        assert!(handle.send(Control::End(End::Drain)));
        for e in &events {
            tx_ev.send(e.clone()).unwrap();
        }
        drop(tx_ev);
        let report = handle.drain();
        assert_eq!(report.events, events.len() as u64);
        assert_eq!(report.sink.results, expected);
    }

    /// An endless stream delivered in reversed blocks of eight: never in
    /// order, never later than seven ticks.
    struct Scrambled(u64, fn(u64) -> Event);

    impl Source for Scrambled {
        fn next_event(&mut self) -> Option<Event> {
            self.0 += 1;
            Some(self.1(self.0 - 1))
        }
    }

    /// A freeze mid-stream keeps what the reorder stage holds — the
    /// container carries it, nothing of it was released — and resuming
    /// with the rest of the delivery order equals the in-order run.
    #[test]
    fn mid_stream_freeze_keeps_the_reorder_buffer() {
        let (reg, queries, _) = setup();
        let (a, b, c) = (EventTypeId(0), EventTypeId(1), EventTypeId(2));
        assert_eq!(reg.type_id("A"), Some(a));
        fn scrambled(i: u64) -> Event {
            let t = i / 8 * 8 + 7 - i % 8;
            let ty = EventTypeId([0, 2, 1, 1, 1][(t % 5) as usize]);
            Event::new(Ts(t), ty, vec![AttrValue::Int((t % 7) as i64)])
        }
        assert_eq!(
            (scrambled(7).ty, scrambled(6).ty, scrambled(5).ty),
            (a, c, b)
        );
        for workers in [1u32, 4] {
            let build = || {
                Pipeline::builder(reg.clone(), queries.clone())
                    .workers(workers)
                    .watermark(BoundedLateness::new(7))
            };
            let handle = build()
                .spawn(Scrambled(0, scrambled), VecSink::new())
                .unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while handle.metrics().ingested < 200 {
                assert!(Instant::now() < deadline, "pipeline made no progress");
                std::thread::sleep(Duration::from_millis(1));
            }
            let frozen = handle.checkpoint();
            let ck = &frozen.checkpoint;
            let [pulled, late, released, _] = ck.counters;
            assert!(ck.buffered_len() > 0, "a mid-stream buffer is never empty");
            assert_eq!((pulled, late), (ck.events_pulled(), 0));
            assert_eq!(released + ck.buffered_len() as u64, pulled, "frozen");
            let total = (pulled / 8 + 20) * 8;
            let report = build()
                .resume_from(
                    &store_of(ck),
                    ReplaySource::new((pulled..total).map(scrambled).collect()),
                    frozen.sink,
                )
                .unwrap()
                .drain();
            assert_eq!((report.events, report.late), (total, 0));
            let mut in_order: Vec<Event> = (0..total).map(scrambled).collect();
            in_order.sort_by_key(|e| e.time);
            let (mut got, mut want) = (report.sink.results, offline(&reg, &queries, &in_order));
            sort_results(&mut got);
            sort_results(&mut want);
            assert_eq!(got, want, "{workers} workers");
        }
    }

    /// The peak gauge reads what the reorder stage held at most: 0 on an
    /// in-order stream, whose events all pass it by, and 7 on blocks of
    /// eight ticks delivered backwards under slack 7 (a block's last
    /// seven arrivals wait for its first tick).
    #[test]
    fn reorder_depth_peak_is_the_most_the_buffer_held() {
        let (reg, queries, events) = setup();
        let backwards = (0..400u64)
            .map(|i| i / 8 * 8 + 7 - i % 8)
            .map(|t| Event::new(Ts(t), EventTypeId((t % 3) as u16), vec![AttrValue::Int(0)]));
        for (slack, events, peak) in [(0, events, 0), (7, backwards.collect(), 7)] {
            let handle = Pipeline::builder(reg.clone(), queries.clone())
                .workers(2)
                .watermark(BoundedLateness::new(slack))
                .spawn(ReplaySource::new(events), VecSink::new())
                .unwrap();
            wait_idle(&handle);
            let m = handle.metrics();
            assert_eq!((m.reorder_depth_peak, m.late), (peak, 0), "slack {slack}");
            assert!(m
                .to_json()
                .contains(&format!("\"reorder_depth_peak\":{peak}")));
            handle.drain();
        }
    }

    /// A worker's batch counts in `queued()` until the sink has accepted
    /// its results: with the latency lock held, the worker stops between
    /// its engine and the sink, and its events must still be queued —
    /// else a `source_done && queued() == 0` poll calls a run quiescent
    /// while results are on their way. (Read off the atomics: a snapshot
    /// takes the lock this test holds.)
    #[test]
    fn queued_counts_a_batch_until_the_sink_accepts_its_results() {
        let (reg, queries, events) = setup();
        let results = offline(&reg, &queries, &events);
        let engine = HamletEngine::new(reg, queries, EngineConfig::default()).unwrap();
        let spans = Arc::new(SpanRecorder::disabled());
        let shared = Arc::new(SharedStats::new(1, Duration::ZERO, spans));
        let observer = Observer {
            shared: shared.clone(),
            sink: Arc::new(Mutex::new(VecSink::new())),
        };
        let queued = || {
            let depths = [
                &shared.reorder_depth,
                &shared.worker_depths[0],
                &shared.sink_depth,
            ];
            depths
                .map(|d| d.load(Ordering::Relaxed))
                .iter()
                .sum::<usize>()
        };
        observer.queued(0, 5);
        let held = shared.latency.lock().unwrap();
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let mut out = results.clone();
                observer.emitted(0, &engine, Some((5, Some(Instant::now()))), &mut out);
            });
            for _ in 0..50 {
                assert!(
                    queued() > 0,
                    "the batch left the queue before the sink had it"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(held);
            worker.join().unwrap();
        });
        let accepted = shared.results.load(Ordering::Relaxed);
        assert_eq!((queued(), accepted), (0, results.len() as u64));
        assert_eq!(shared.snapshot().queued(), 0);
    }

    /// A store whose `fail_at`-th append fails once; it logs what it
    /// took and checks after every append that its chain still links.
    struct FailOnce {
        inner: hamlet_core::MemStore,
        fail_at: usize,
        appends: std::sync::Mutex<usize>,
        taken: std::sync::Mutex<Vec<(u64, Option<u64>)>>,
    }

    impl CheckpointStore for FailOnce {
        fn append(&self, ck: &Checkpoint) -> Result<(), CheckpointError> {
            let mut appends = self.appends.lock().unwrap();
            *appends += 1;
            if *appends == self.fail_at {
                return Err(CheckpointError::Io("injected append failure".into()));
            }
            self.inner.append(ck)?;
            self.taken.lock().unwrap().push((ck.seq(), ck.parent()));
            let chain = self.inner.load_chain()?;
            let linked =
                !chain[0].is_delta() && chain.windows(2).all(|w| w[1].parent() == Some(w[0].seq()));
            if linked {
                Ok(())
            } else {
                Err(CheckpointError::Corrupt("the stored chain broke".into()))
            }
        }

        fn load_chain(&self) -> Result<Vec<Checkpoint>, CheckpointError> {
            self.inner.load_chain()
        }
    }

    /// One failed append costs one record, not the chain: the shards'
    /// dirty logs are re-armed on a record the store never took, so the
    /// next cut is a base, deltas chain onto it again, and recovery from
    /// the store equals the uninterrupted run's suffix.
    #[test]
    fn failed_cut_is_followed_by_a_base() {
        let (reg, queries, events) = setup();
        let expected = offline(&reg, &queries, &events);
        let store = Arc::new(FailOnce {
            inner: hamlet_core::MemStore::new(),
            fail_at: 2,
            appends: Default::default(),
            taken: Default::default(),
        });
        let handle = Pipeline::builder(reg.clone(), queries.clone())
            .checkpoint_store(store.clone())
            .checkpoint_every(15)
            .compact_every(100)
            .spawn(ReplaySource::new(events[..250].to_vec()), VecSink::new())
            .unwrap();
        wait_idle(&handle);
        let m = handle.metrics();
        assert_eq!((m.checkpoints, m.checkpoint_failures), (15, 1));
        handle.drain();
        // Cuts at released 15, 30, .. 240 are seqs 1..=16; seq 2 is lost.
        let mut want = vec![(1, None), (3, None)];
        want.extend((4..=16).map(|seq| (seq, Some(seq - 1))));
        assert_eq!(*store.taken.lock().unwrap(), want);

        let mut oracle =
            HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
        let pre: usize = (events[..240].iter())
            .map(|e| oracle.process(e).len())
            .sum();
        let report = Pipeline::builder(reg, queries)
            .resume_from(
                store.as_ref(),
                ReplaySource::new(events[240..].to_vec()),
                VecSink::new(),
            )
            .unwrap()
            .drain();
        assert_eq!(report.sink.results, expected[pre..], "resume diverged");
    }
}
