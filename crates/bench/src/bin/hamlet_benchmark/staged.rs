//! The traced drive: one thread calls each layer's public functions in
//! pipeline order, one span per (batch, layer), so that per-layer busy
//! time is measured around the calls *into* each layer, from outside.
//!
//! It repeats what the pipeline's ingest and worker threads do — pull,
//! watermark + reorder, route (`shard_mask` + per-shard copies, cut into
//! the same tick-aligned batches the pipeline ships), `process_batch`,
//! sink, cadence cuts into a store — minus the threads and channels. The
//! difference between its total and the live pipeline's closed-loop cost
//! is therefore what the hops and the overlap are worth
//! (`pipeline.vs_staged_ratio`).

use crate::drive::{Collect, Replay, TempDir};
use crate::json::Json;
use crate::stats;
use crate::workloads::{
    compare, engine_config, Mismatch, Prepared, Res, Workload, BATCH, COMPACT_EVERY,
};
use hamlet_core::{
    Checkpoint, CheckpointStore, CutKind, DirStore, EngineConfig, EngineStats, HamletEngine,
    SharingPolicy, Snapshot,
};
use hamlet_pipeline::{BoundedLateness, ReorderBuffer, Sink, Source, WatermarkPolicy};
use hamlet_types::Event;
use std::collections::BTreeMap;
use std::time::Instant;

/// The layers the staged drive spans, in pipeline order; `batch` is the
/// root span of every batch (its self time is the drive's own loop).
pub const LAYERS: [&str; 12] = [
    "source",
    "watermark",
    "route",
    "executor",
    "sink",
    "store.cut_full",
    "store.cut_delta",
    "store.append",
    "store.load_chain",
    "store.restore_chain",
    "executor.flush",
    ROOT,
];
/// Name of the root span of every batch.
pub const ROOT: &str = "batch";

/// One recorded interval. `parent` is the index of the span that caused
/// it (the batch's root span); spans of one batch share that root.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the causing span, if any.
    pub parent: Option<u32>,
}

/// In-memory span log; written out once, when the drive has ended. When
/// disabled it never reads the clock.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    /// Recorded spans, in start order of their *end*.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records (`true`) or costs nothing (`false`).
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        if self.enabled {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Opens a root span and returns its index (the parent id of the
    /// batch's layer spans).
    fn open_root(&mut self) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name: ROOT,
            start_ns: start,
            end_ns: start,
            parent: None,
        });
        Some((self.spans.len() - 1) as u32)
    }

    fn close_root(&mut self, root: Option<u32>) {
        if let Some(i) = root {
            let end = self.now();
            self.spans[i as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a span of layer `name` under `parent`.
    fn span<T>(&mut self, name: &'static str, parent: Option<u32>, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        self.push(name, start_ns, parent);
        out
    }

    /// Closes a span opened at `start_ns` (from [`now`](Self::now)) whose
    /// name is only known once its work is done.
    fn push(&mut self, name: &'static str, start_ns: u64, parent: Option<u32>) {
        if self.enabled {
            let end_ns = self.now();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
            });
        }
    }
}

/// Durations of every span of layer `name`, in ms.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

/// Self time per layer: each span's duration minus the part its direct
/// children cover, summed by layer name, in ns.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let child = s.end_ns - s.start_ns;
            own[p as usize] = own[p as usize].saturating_sub(child);
        }
    }
    let mut by_layer = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *by_layer.entry(s.name).or_insert(0) += ns;
    }
    by_layer
}

/// Chrome `trace_event` JSON (complete events, µs), loadable in
/// `chrome://tracing` and Perfetto.
pub fn chrome_trace(spans: &[Span], workload: &str) -> String {
    let mut events = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let batch = s.parent.map_or(i as f64, f64::from);
        events.push(Json::obj(vec![
            ("name", Json::str(s.name)),
            ("cat", Json::str(workload)),
            ("ph", Json::str("X")),
            ("ts", Json::Num(s.start_ns as f64 / 1e3)),
            ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(1.0)),
            ("args", Json::obj(vec![("batch", Json::Num(batch))])),
        ]));
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ns")),
    ])
    .render()
}

/// What one staged drive produced.
pub struct StagedRun {
    /// First pull to the end of the flush, ns; the recovery section
    /// (final cut, chain reload, restore) is not part of it.
    pub wall_ns: u64,
    /// Spans, when recording was on.
    pub spans: Vec<Span>,
    /// Results vs the reference.
    pub mismatch: Mismatch,
    /// Events dropped behind the watermark.
    pub late: u64,
    /// Deepest reorder buffer, in events.
    pub reorder_depth_peak: usize,
    /// Events handed to each shard.
    pub shard_events: Vec<u64>,
    /// Engine counters merged over shards.
    pub stats: EngineStats,
    /// Largest Σ `state_bytes()` over shards at a sampling point.
    pub state_bytes_peak: usize,
    /// Median size of a full cut, bytes over all shards.
    pub base_bytes: f64,
    /// Median size of a delta cut, bytes over all shards.
    pub delta_bytes: f64,
    /// Engines rebuilt from the stored chains flushed exactly what the
    /// engines that wrote them flushed.
    pub restore_exact: bool,
}

/// Per-shard batch under construction: the pipeline ships a shard's
/// batch when it is full or when that shard's event time advances a tick.
struct ShardBatcher {
    out: Vec<Vec<Event>>,
    last_tick: Vec<Option<u64>>,
    ready: Vec<(usize, Vec<Event>)>,
}

impl ShardBatcher {
    fn new(shards: usize) -> ShardBatcher {
        ShardBatcher {
            out: (0..shards).map(|_| Vec::with_capacity(BATCH)).collect(),
            last_tick: vec![None; shards],
            ready: Vec::new(),
        }
    }

    fn push(&mut self, idx: usize, e: Event) {
        let tick = e.time.ticks();
        let advanced = self.last_tick[idx].is_some_and(|t| t != tick);
        self.last_tick[idx] = Some(tick);
        self.out[idx].push(e);
        if advanced || self.out[idx].len() >= BATCH {
            self.ship(idx);
        }
    }

    fn ship(&mut self, idx: usize) {
        let full = std::mem::replace(&mut self.out[idx], Vec::with_capacity(BATCH));
        self.ready.push((idx, full));
    }

    fn ship_all(&mut self) {
        for idx in 0..self.out.len() {
            if !self.out[idx].is_empty() {
                self.ship(idx);
            }
        }
    }
}

/// How often (in batches) the drive samples `state_bytes()`; the call
/// walks every live run, so it stays outside the spans and rare.
const STATE_SAMPLE_EVERY: u64 = 64;

/// Cadence of the staged drive's cuts: the workload's own, or — so that
/// every workload measures its store layer — about a fifth of the stream
/// (a fraction that keeps the cuts off the window boundaries, where state
/// is empty).
fn cut_every(w: &Workload, events: usize) -> u64 {
    w.checkpoint_every
        .unwrap_or((events as u64 * 211 / 1000).max(1))
}

/// Runs the staged drive over the delivered stream.
pub fn drive(w: &Workload, p: &Prepared, record: bool) -> Res<StagedRun> {
    let shards = w.workers as usize;
    let mk_engine = |idx: usize| {
        let cfg = EngineConfig {
            shard: (shards > 1).then_some((idx as u32, w.workers)),
            ..engine_config(SharingPolicy::Dynamic)
        };
        HamletEngine::new(p.inputs.reg.clone(), p.inputs.queries.clone(), cfg)
            .map_err(|e| format!("engine: {e}"))
    };
    let mut engines = (0..shards).map(mk_engine).collect::<Res<Vec<_>>>()?;
    // Like the pipeline's router: maps events to shards, never processes.
    let router = if shards > 1 {
        let cfg = EngineConfig {
            track_latency: false,
            mem_sample_every: 0,
            obs: false,
            ..engine_config(SharingPolicy::Dynamic)
        };
        Some(
            HamletEngine::new(p.inputs.reg.clone(), p.inputs.queries.clone(), cfg)
                .map_err(|e| format!("engine: {e}"))?,
        )
    } else {
        None
    };
    // One chain per shard, each in its own directory.
    let dir = TempDir::new(&format!("{}-staged", w.name))?;
    let stores = (0..shards)
        .map(|idx| DirStore::open(dir.path().join(format!("shard-{idx}"))))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("open store: {e}"))?;
    let every = cut_every(w, p.inputs.delivered.len());

    let mut source = Replay::unmarked(p.inputs.delivered.clone());
    let mut policy = BoundedLateness::new(w.max_lateness);
    let mut buffer = ReorderBuffer::new();
    let mut batcher = ShardBatcher::new(shards);
    let mut sink = Collect::default();
    let mut rec = Recorder::new(record);

    let (mut late, mut reorder_depth_peak, mut state_bytes_peak) = (0u64, 0, 0);
    let mut shard_events = vec![0u64; shards];
    let (mut full_bytes, mut delta_bytes) = (Vec::new(), Vec::new());
    let (mut released, mut last_cut, mut cuts_taken, mut batches) = (0u64, 0u64, 0u64, 0u64);
    let mut pulled: Vec<Event> = Vec::with_capacity(BATCH);
    let mut tranche: Vec<Event> = Vec::with_capacity(BATCH);
    let arrival = Instant::now(); // the buffer wants a stamp; nothing reads it
    let t0 = Instant::now();
    let mut done = false;
    while !done {
        let root = rec.open_root();
        rec.span("source", root, || {
            while pulled.len() < BATCH {
                match source.next_event() {
                    Some(e) => pulled.push(e),
                    None => {
                        done = true;
                        break;
                    }
                }
            }
        });
        rec.span("watermark", root, || {
            for e in pulled.drain(..) {
                let wm = policy.observe(e.time);
                if e.time < wm {
                    late += 1;
                    continue;
                }
                buffer.push(e, arrival);
                tranche.extend(buffer.release(wm).into_iter().map(|(e, _)| e));
                reorder_depth_peak = reorder_depth_peak.max(buffer.len());
            }
            if done {
                tranche.extend(buffer.drain().into_iter().map(|(e, _)| e));
            }
        });
        released += tranche.len() as u64;
        // The stream's end takes a cut too, so the chains describe the
        // state the flush below starts from.
        let cut_due = released - last_cut >= every || done;
        rec.span("route", root, || {
            for e in tranche.drain(..) {
                match &router {
                    None => batcher.push(0, e),
                    Some(router) => {
                        let mut mask = router.shard_mask(&e, w.workers);
                        while mask != 0 {
                            let idx = mask.trailing_zeros() as usize;
                            mask &= mask - 1;
                            if mask == 0 {
                                batcher.push(idx, e);
                                break;
                            }
                            batcher.push(idx, e.clone());
                        }
                    }
                }
            }
            if cut_due {
                batcher.ship_all(); // the cut barrier flushes partial batches
            }
        });
        let emitted = rec.span("executor", root, || {
            let mut emitted = Vec::new();
            for (idx, batch) in batcher.ready.drain(..) {
                shard_events[idx] += batch.len() as u64;
                emitted.extend(engines[idx].process_batch(&batch));
            }
            emitted
        });
        if !emitted.is_empty() {
            rec.span("sink", root, || sink.accept(emitted));
        }
        if cut_due {
            last_cut = released;
            cuts_taken += 1;
            let kind = if cuts_taken.is_multiple_of(COMPACT_EVERY) {
                CutKind::Full
            } else {
                CutKind::Delta
            };
            let start = rec.now();
            let frames = engines
                .iter_mut()
                .map(|e| e.cut(kind))
                .collect::<Result<Vec<Checkpoint>, _>>()
                .map_err(|e| format!("{}: staged cut: {e}", w.name))?;
            // The engine promotes a delta to a base while it has no dirty
            // log yet, so the frame says what was actually cut.
            let bytes = frames.iter().map(Checkpoint::len).sum::<usize>() as f64;
            if frames.iter().any(Checkpoint::is_delta) {
                rec.push("store.cut_delta", start, root);
                delta_bytes.push(bytes);
            } else {
                rec.push("store.cut_full", start, root);
                full_bytes.push(bytes);
            }
            rec.span("store.append", root, || {
                stores
                    .iter()
                    .zip(&frames)
                    .try_for_each(|(s, f)| s.append(f))
            })
            .map_err(|e| format!("{}: staged append: {e}", w.name))?;
        }
        rec.close_root(root);
        batches += 1;
        if batches.is_multiple_of(STATE_SAMPLE_EVERY) || done {
            let bytes = engines.iter().map(HamletEngine::state_bytes).sum();
            state_bytes_peak = state_bytes_peak.max(bytes);
        }
    }
    let loop_ns = t0.elapsed().as_nanos() as u64;

    // Recovery, before the flush empties the engines: reload every
    // shard's chain and rebuild its engine from it.
    let root = rec.open_root();
    let chains = rec
        .span("store.load_chain", root, || {
            stores
                .iter()
                .map(DirStore::load_chain)
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("{}: load_chain: {e}", w.name))?;
    let mut restored = (0..shards).map(mk_engine).collect::<Res<Vec<_>>>()?;
    rec.span("store.restore_chain", root, || {
        restored
            .iter_mut()
            .zip(&chains)
            .try_for_each(|(e, chain)| e.restore_chain(chain))
    })
    .map_err(|e| format!("{}: restore_chain: {e}", w.name))?;
    rec.close_root(root);
    let restored_finale: Vec<_> = restored.iter_mut().flat_map(HamletEngine::flush).collect();

    let t1 = Instant::now();
    let root = rec.open_root();
    let finale = rec.span("executor.flush", root, || {
        engines
            .iter_mut()
            .flat_map(HamletEngine::flush)
            .collect::<Vec<_>>()
    });
    let restore_exact = finale == restored_finale;
    if !finale.is_empty() {
        rec.span("sink", root, || sink.accept(finale));
    }
    rec.close_root(root);
    let wall_ns = loop_ns + t1.elapsed().as_nanos() as u64;

    let mut stats = EngineStats::default();
    for e in &engines {
        stats.merge(e.stats());
    }
    let mut got = sink.into_results();
    Ok(StagedRun {
        wall_ns,
        mismatch: compare(&mut got, &p.reference),
        late,
        reorder_depth_peak,
        shard_events,
        stats,
        state_bytes_peak,
        base_bytes: stats::median_of(full_bytes),
        delta_bytes: stats::median_of(delta_bytes),
        restore_exact,
        spans: rec.spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("source", 10, 40, Some(0)),
            span("executor", 50, 70, Some(0)),
            span(ROOT, 100, 150, None),
            span("executor", 110, 150, Some(3)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[ROOT], (100 - 30 - 20) + (50 - 40));
        assert_eq!(own["source"], 30);
        assert_eq!(own["executor"], 20 + 40);
        // Self times partition the roots' wall exactly.
        assert_eq!(own.values().sum::<u64>(), 150);
        assert!(self_times(&[]).is_empty());
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let root = rec.open_root();
        assert_eq!(rec.span("source", root, || 7), 7);
        rec.close_root(root);
        assert!(root.is_none() && rec.spans.is_empty());

        let mut rec = Recorder::new(true);
        let root = rec.open_root();
        rec.span("source", root, || ());
        rec.close_root(root);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
    }

    #[test]
    fn chrome_trace_carries_one_complete_event_per_span() {
        let spans = vec![
            span(ROOT, 0, 2_000, None),
            span("sink", 500, 1_500, Some(0)),
        ];
        let text = chrome_trace(&spans, "w");
        assert!(text.starts_with(r#"{"traceEvents": [{"name": "batch""#));
        assert_eq!(text.matches(r#""ph": "X""#).count(), 2);
        assert!(text.contains(r#""name": "sink", "cat": "w", "ph": "X", "ts": 0.5, "dur": 1.0"#));
        assert!(text.contains(r#""args": {"batch": 0.0}"#));
    }
}
