//! Drives the live pipeline from outside: the benchmark's own `Source`
//! and `Sink`, the closed-loop and open-loop phases, the result-latency
//! definition, and the checkpoint / recovery probe.
//!
//! The generator adds no thread. It runs inside the pipeline's ingest
//! thread (that is where `Source::next_event` is called) and *sleeps* to
//! its schedule: a spinning source takes the CPU the pipeline needs and
//! shows up as stalls in the very latencies it is there to measure.

use crate::workloads::{compare, Inputs, Mismatch, Prepared, Res, Workload, COMPACT_EVERY};
use crate::{probe, stats};
use hamlet_core::{CheckpointStore, CutKind, DirStore, Snapshot, WindowResult};
use hamlet_pipeline::{
    BoundedLateness, Pipeline, PipelineBuilder, PipelineCheckpoint, PipelineHandle, PipelineReport,
    Sink, Source,
};
use hamlet_types::Event;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Results later than this count against `over_limit_share`.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// A generator that ran later than this (p99 of its wake-up overshoot)
/// invalidates the open-loop run: its latencies would measure the host.
pub const LAG_LIMIT_MS: f64 = 5.0;
/// How often a sampled run reads `PipelineHandle::metrics`.
const SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// Where everything the benchmark writes goes: `hamlet_benchmark/` in
/// the Cargo target directory the executable was built into (the nearest
/// ancestor of the executable that Cargo tagged with `CACHEDIR.TAG`), so
/// nothing lands outside `target/` whatever the working directory is;
/// `target/hamlet_benchmark` when the executable was moved out of one.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().ok();
    let target = exe
        .as_deref()
        .and_then(|exe| exe.ancestors().find(|d| d.join("CACHEDIR.TAG").is_file()))
        .map_or_else(|| PathBuf::from("target"), Path::to_path_buf);
    target.join("hamlet_benchmark")
}

/// A scratch directory under [`out_dir`], removed when dropped — so every
/// exit path that unwinds or returns cleans up after itself.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates a fresh, uniquely named directory.
    pub fn new(tag: &str) -> Res<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("tmp-{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Host-speed probe passes per closed-loop repetition (see [`Replay`]).
pub const PROBES: usize = 32;

/// What a [`Replay`] stamps while it runs.
#[derive(Default)]
pub struct Marks {
    /// The instant the first event was asked for.
    first: Option<Instant>,
    /// The [`probe::pass`]es run so far.
    probes: Vec<Duration>,
}

/// Unpaced replay: the pipeline's own backpressure sets the pace. With
/// marks, it stamps the first pull and runs one host-speed probe pass
/// (~0.2 ms, inside the ingest thread) before the first event of each of
/// [`PROBES`] equal slices of the stream, so the run knows how fast the
/// host was while this repetition was timed.
pub struct Replay {
    events: std::vec::IntoIter<Event>,
    released: usize,
    slice: usize,
    /// Position of the event the next probe pass runs before.
    next_probe: usize,
    marks: Option<Arc<Mutex<Marks>>>,
}

impl Replay {
    /// Replays `events`, stamping into `marks`.
    pub fn new(events: Vec<Event>, marks: Arc<Mutex<Marks>>) -> Replay {
        Replay {
            slice: events.len().div_ceil(PROBES).max(1),
            events: events.into_iter(),
            released: 0,
            next_probe: 0,
            marks: Some(marks),
        }
    }

    /// Replays `events` and nothing else.
    pub fn unmarked(events: Vec<Event>) -> Replay {
        Replay {
            slice: 1,
            events: events.into_iter(),
            released: 0,
            next_probe: 0,
            marks: None,
        }
    }
}

impl Source for Replay {
    fn next_event(&mut self) -> Option<Event> {
        if let Some(marks) = &self.marks {
            if self.released == self.next_probe && !self.events.as_slice().is_empty() {
                self.next_probe += self.slice;
                let first = Instant::now();
                let pass = probe::pass();
                if let Ok(mut marks) = marks.lock() {
                    marks.first.get_or_insert(first);
                    marks.probes.push(pass);
                }
            }
        }
        self.released += 1;
        self.events.next()
    }
}

/// Replay that slows to a trickle once `gate_at` events are out, for as
/// long as `hold` is set: events keep flowing — the pipeline only serves
/// on-demand cuts between source events — but the stream cannot end
/// while the probe is still cutting.
pub struct Gated {
    events: std::vec::IntoIter<Event>,
    released: u64,
    gate_at: u64,
    hold: Arc<AtomicBool>,
}

impl Source for Gated {
    fn next_event(&mut self) -> Option<Event> {
        if self.released >= self.gate_at && self.hold.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_micros(50));
        }
        self.released += 1;
        self.events.next()
    }
}

/// What a [`Paced`] source observed about itself.
#[derive(Clone, Debug, Default)]
pub struct PacedReport {
    /// Schedule origin: event `i` was due at `start + i / eps`.
    pub start: Option<Instant>,
    /// Origin to the last clock read.
    pub wall: Duration,
    /// Time the ingest thread spent *outside* `next_event` between two
    /// clock reads: reordering, routing, copying, or blocked on a full
    /// channel.
    pub outside: Duration,
    /// Wake-up overshoot of every sleep, in µs: how late the generator
    /// itself ran.
    pub lags_us: Vec<u32>,
}

/// Open-loop source: event `i` is due at `start + i / eps` and is never
/// released earlier. Sleeps until the next due time, then releases every
/// event that has become due without reading the clock again.
pub struct Paced {
    events: std::vec::IntoIter<Event>,
    eps: f64,
    released: u64,
    /// Events with an index below this are known to be due.
    due_until: u64,
    last_read: Option<Instant>,
    report: PacedReport,
    out: Arc<Mutex<PacedReport>>,
}

impl Paced {
    /// Paces `events` at `eps` events per second; the report is published
    /// into `out` when the stream ends.
    pub fn new(events: Vec<Event>, eps: f64, out: Arc<Mutex<PacedReport>>) -> Paced {
        Paced {
            events: events.into_iter(),
            eps,
            released: 0,
            due_until: 0,
            last_read: None,
            report: PacedReport::default(),
            out,
        }
    }

    fn due(&self, start: Instant, i: u64) -> Instant {
        start + Duration::from_secs_f64(i as f64 / self.eps)
    }
}

impl Source for Paced {
    fn next_event(&mut self) -> Option<Event> {
        let Some(e) = self.events.next() else {
            if let (Some(start), Some(last)) = (self.report.start, self.last_read.take()) {
                self.report.wall = last - start;
                if let Ok(mut out) = self.out.lock() {
                    *out = std::mem::take(&mut self.report);
                }
            }
            return None;
        };
        let i = self.released;
        if i >= self.due_until {
            let now = Instant::now();
            let start = *self.report.start.get_or_insert(now);
            if let Some(last) = self.last_read {
                self.report.outside += now - last;
            }
            let due = self.due(start, i);
            let mut t = now;
            if due > now {
                std::thread::sleep(due - now);
                t = Instant::now();
                let lag = t.saturating_duration_since(due).as_micros();
                self.report
                    .lags_us
                    .push(u32::try_from(lag).unwrap_or(u32::MAX));
            }
            // Everything due by `t` goes out without another clock read.
            let mut until = ((t - start).as_secs_f64() * self.eps) as u64 + 1;
            while until > i + 1 && self.due(start, until - 1) > t {
                until -= 1; // float rounding must never release early
            }
            self.due_until = until.max(i + 1);
            self.last_read = Some(t);
        }
        self.released += 1;
        Some(e)
    }
}

/// Keeps every delivered batch with the instant the sink received it.
#[derive(Default)]
pub struct Collect {
    /// `(receipt instant, batch)` in delivery order.
    pub batches: Vec<(Instant, Vec<WindowResult>)>,
}

impl Sink for Collect {
    fn accept(&mut self, batch: Vec<WindowResult>) {
        self.batches.push((Instant::now(), batch));
    }
}

impl Collect {
    /// All results in delivery order.
    pub fn into_results(self) -> Vec<WindowResult> {
        self.batches.into_iter().flat_map(|(_, b)| b).collect()
    }
}

/// Queue depths read from `PipelineHandle::metrics` every 10 ms.
#[derive(Clone, Debug, Default)]
pub struct DepthSamples {
    /// Samples taken.
    pub samples: u64,
    /// Σ over samples of the mean worker queue depth (events).
    pub worker_sum: f64,
    /// Deepest single worker queue seen (events).
    pub worker_max: usize,
    /// Σ over samples of results queued to the sink.
    pub sink_sum: f64,
}

impl DepthSamples {
    /// Mean worker queue depth.
    pub fn worker_mean(&self) -> f64 {
        self.worker_sum / self.samples.max(1) as f64
    }

    /// Mean sink queue depth.
    pub fn sink_mean(&self) -> f64 {
        self.sink_sum / self.samples.max(1) as f64
    }
}

/// One finished pipeline run.
pub struct PipeRun {
    /// The source's marks (closed loop only) and the instant `drain()`
    /// returned: see [`wall`](Self::wall).
    marks: Marks,
    drained: Instant,
    /// Events dropped behind the watermark.
    pub late: u64,
    /// `PipelineReport::peak_mem` summed over shards, bytes.
    pub peak_state: usize,
    /// Delivered batches with receipt instants.
    pub sink: Collect,
    /// Queue depths, when the run was sampled.
    pub depths: DepthSamples,
    /// Cadence + on-demand cuts the pipeline completed.
    pub cuts: u64,
}

impl PipeRun {
    /// Closed loop: source's first pull to `drain()` return, without the
    /// probe passes.
    pub fn wall(&self) -> Duration {
        let Some(first) = self.marks.first else {
            return Duration::ZERO;
        };
        let probes: Duration = self.marks.probes.iter().sum();
        self.drained
            .saturating_duration_since(first)
            .saturating_sub(probes)
    }

    /// How much slower than a quiet host the probe ran while this
    /// repetition was timed ([`probe::slowdown`]).
    pub fn slowdown(&self) -> f64 {
        probe::slowdown(&self.marks.probes)
    }
}

/// The pipeline as the workload configures it; `store` is where cadence
/// and on-demand cuts go.
pub fn builder(
    w: &Workload,
    inputs: &Inputs,
    store: Option<Arc<dyn CheckpointStore>>,
) -> PipelineBuilder {
    let mut b = Pipeline::builder(inputs.reg.clone(), inputs.queries.clone())
        .workers(w.workers)
        .watermark(BoundedLateness::new(w.max_lateness));
    if let Some(store) = store {
        b = b.checkpoint_store(store).compact_every(COMPACT_EVERY);
        if let Some(every) = w.checkpoint_every {
            b = b.checkpoint_every(every);
        }
    }
    b
}

/// A `DirStore` in a fresh scratch directory for workloads that cut on a
/// cadence; `None` for the others.
pub fn cadence_store(w: &Workload) -> Res<Option<(TempDir, Arc<dyn CheckpointStore>)>> {
    if w.checkpoint_every.is_none() {
        return Ok(None);
    }
    let dir = TempDir::new(w.name)?;
    let store = DirStore::open(dir.path()).map_err(|e| format!("open store: {e}"))?;
    Ok(Some((dir, Arc::new(store))))
}

/// Samples the queue depths until the source is done (if asked to), then
/// drains the pipeline.
fn finish(handle: PipelineHandle<Collect>, sample: bool) -> PipeRun {
    let mut depths = DepthSamples::default();
    let mut cuts = 0;
    if sample {
        loop {
            let m = handle.metrics();
            depths.samples += 1;
            let n = m.worker_depths.len().max(1) as f64;
            depths.worker_sum += m.worker_depths.iter().sum::<usize>() as f64 / n;
            depths.worker_max = depths
                .worker_max
                .max(m.worker_depths.iter().copied().max().unwrap_or(0));
            depths.sink_sum += m.sink_depth as f64;
            cuts = m.checkpoints;
            if m.source_done {
                break;
            }
            std::thread::sleep(SAMPLE_EVERY);
        }
    }
    let report: PipelineReport<Collect> = handle.drain();
    PipeRun {
        marks: Marks::default(),
        drained: Instant::now(),
        late: report.late,
        peak_state: report.peak_mem.iter().sum(),
        sink: report.sink,
        depths,
        cuts,
    }
}

/// Closed loop: unpaced replay of the delivered stream under the
/// pipeline's own backpressure.
pub fn closed_loop(w: &Workload, p: &Prepared, sample: bool) -> Res<PipeRun> {
    let store = cadence_store(w)?;
    let marks = Arc::new(Mutex::new(Marks::default()));
    let source = Replay::new(p.inputs.delivered.clone(), marks.clone());
    let handle = builder(w, &p.inputs, store.as_ref().map(|(_, s)| s.clone()))
        .spawn(source, Collect::default())
        .map_err(|e| format!("spawn: {e}"))?;
    let mut run = finish(handle, sample);
    run.marks = std::mem::take(&mut *marks.lock().map_err(|_| "probe marks poisoned")?);
    Ok(run)
}

/// One open-loop run and what the generator observed about itself.
pub struct OpenRun {
    /// The pipeline run.
    pub run: PipeRun,
    /// The generator's own report.
    pub paced: PacedReport,
}

/// Open loop: the delivered stream paced at the workload's fixed
/// `offered_eps`, event `i` due at `start + i / offered_eps`.
pub fn open_loop(w: &Workload, p: &Prepared, sample: bool) -> Res<OpenRun> {
    let store = cadence_store(w)?;
    let out = Arc::new(Mutex::new(PacedReport::default()));
    let source = Paced::new(p.inputs.delivered.clone(), w.offered_eps, out.clone());
    let handle = builder(w, &p.inputs, store.as_ref().map(|(_, s)| s.clone()))
        .spawn(source, Collect::default())
        .map_err(|e| format!("spawn: {e}"))?;
    let run = finish(handle, sample);
    let paced = out
        .lock()
        .map_err(|_| "paced source report poisoned")?
        .clone();
    Ok(OpenRun { run, paced })
}

/// The open-loop run is cut into this many equal spans of due time. The
/// reported percentiles are those of the **fastest** span: host
/// contention only ever adds latency, and it comes in phases longer than
/// a span (README, "Noise").
pub const SPANS: usize = 8;

/// Result latencies of one open-loop run.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    /// Per timed result, ascending, in ms.
    pub sorted_ms: Vec<f64>,
    /// Each span's `(p50, p90)` over its results, ms, in stream order (a
    /// result belongs to the span its determining event was due in).
    pub spans: Vec<(f64, f64)>,
    /// Distinct window closes (distinct window ends) among them.
    pub closes: usize,
    /// Reference results that have a determining event (the rest only the
    /// final drain can close; they are not timed).
    pub expected: u64,
    /// Timed results over [`LATENCY_LIMIT_MS`] plus expected results never
    /// delivered, ÷ expected.
    pub over_limit_share: f64,
}

impl Latencies {
    /// `(p50, p90)` of the fastest span, each taken on its own.
    pub fn fastest_span(&self) -> (f64, f64) {
        let fastest = |pick: fn(&(f64, f64)) -> f64| {
            self.spans.iter().map(pick).fold(f64::INFINITY, f64::min)
        };
        (fastest(|s| s.0), fastest(|s| s.1))
    }
}

/// Per-span `(p50, p90)` of `(span, latency)` samples; empty spans are
/// left out.
pub fn span_percentiles(samples: &[(usize, f64)], spans: usize) -> Vec<(f64, f64)> {
    let mut by_span = vec![Vec::new(); spans.max(1)];
    for (span, latency) in samples {
        by_span[(*span).min(spans.max(1) - 1)].push(*latency);
    }
    by_span
        .into_iter()
        .filter(|v| !v.is_empty())
        .map(|mut v| {
            stats::sort(&mut v);
            (stats::percentile(&v, 50.0), stats::percentile(&v, 90.0))
        })
        .collect()
}

/// Latency of every delivered result: sink-receipt instant minus the
/// *due* time of its determining event (see
/// [`Prepared::determining_event`]). Results only the final drain closes
/// are excluded.
pub fn latencies(w: &Workload, p: &Prepared, open: &OpenRun) -> Res<Latencies> {
    let start = open.paced.start.ok_or("open loop released no event")?;
    let span_len = p.inputs.delivered.len().div_ceil(SPANS).max(1);
    let mut samples = Vec::new();
    let mut ends = std::collections::BTreeSet::new();
    for (received, batch) in &open.run.sink.batches {
        for r in batch {
            let end = p.window_end(r);
            let Some(idx) = p.determining_event(end, w.max_lateness) else {
                continue;
            };
            let due = start + Duration::from_secs_f64(idx as f64 / w.offered_eps);
            let latency = received.saturating_duration_since(due).as_secs_f64() * 1e3;
            samples.push((idx / span_len, latency));
            ends.insert(end);
        }
    }
    let mut ms: Vec<f64> = samples.iter().map(|(_, l)| *l).collect();
    stats::sort(&mut ms);
    let expected = p
        .reference
        .iter()
        .filter(|r| {
            p.determining_event(p.window_end(r), w.max_lateness)
                .is_some()
        })
        .count() as u64;
    let over = ms.iter().filter(|l| **l > LATENCY_LIMIT_MS).count() as u64;
    let undelivered = expected.saturating_sub(ms.len() as u64);
    Ok(Latencies {
        spans: span_percentiles(&samples, SPANS),
        closes: ends.len(),
        expected,
        over_limit_share: (over + undelivered) as f64 / expected.max(1) as f64,
        sorted_ms: ms,
    })
}

/// Percentiles of the generator's wake-up overshoot, in ms.
pub fn lag_ms(paced: &PacedReport) -> (f64, f64) {
    let mut v: Vec<f64> = paced.lags_us.iter().map(|l| f64::from(*l) / 1e3).collect();
    stats::sort(&mut v);
    (
        stats::percentile(&v, 99.0),
        v.last().copied().unwrap_or(0.0),
    )
}

/// Failed operations of one pipeline phase: result mismatches against
/// the reference plus events dropped late.
pub fn check(run: PipeRun, p: &Prepared) -> (Mismatch, u64) {
    let late = run.late;
    let mut got = run.sink.into_results();
    (compare(&mut got, &p.reference), late)
}

/// What the checkpoint / recovery probe measured.
pub struct StoreProbe {
    /// `PipelineHandle::cut(Full)` call→return at mid-stream, each try, ms.
    pub cut_ms: Vec<f64>,
    /// Bytes of the last full cut (all shards).
    pub cut_bytes: usize,
    /// `resume_from(DirStore)` call→return, seconds.
    pub resume_s: f64,
    /// Results before the cut + results after the resume vs the reference.
    pub mismatch: Mismatch,
    /// Events either incarnation dropped late.
    pub late: u64,
}

/// Cuts a running pipeline on demand, kills it, and recovers it from the
/// store: times the cut and the recovery, and checks that what was
/// delivered before the cut plus what the recovered pipeline delivers is
/// exactly the reference.
pub fn store_probe(w: &Workload, p: &Prepared, tries: usize) -> Res<StoreProbe> {
    let dir = TempDir::new(&format!("{}-probe", w.name))?;
    let store: Arc<dyn CheckpointStore> =
        Arc::new(DirStore::open(dir.path()).map_err(|e| format!("open store: {e}"))?);
    // Mid-stream and late in every workload's windows, where state has
    // reached its steady size (right after a window boundary it is empty).
    let gate_at = p.inputs.delivered.len() as u64 * 294 / 1000;
    let hold = Arc::new(AtomicBool::new(true));
    let source = Gated {
        events: p.inputs.delivered.clone().into_iter(),
        released: 0,
        gate_at,
        hold: hold.clone(),
    };
    let mut handle = builder(w, &p.inputs, Some(store.clone()))
        .spawn(source, Collect::default())
        .map_err(|e| format!("spawn: {e}"))?;
    while handle.metrics().ingested < gate_at {
        std::thread::sleep(Duration::from_micros(200));
    }
    let mut cut_ms = Vec::new();
    let mut last = Err("store probe needs at least one cut".to_string());
    for _ in 0..tries {
        let t = Instant::now();
        last = handle
            .cut(CutKind::Full)
            .map_err(|e| format!("{}: on-demand cut: {e}", w.name));
        cut_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if last.is_err() {
            break;
        }
    }
    hold.store(false, Ordering::Relaxed);
    // The crash: whatever the first incarnation does after its newest
    // record is lost. That record is the last on-demand cut or, on a
    // workload with a cadence, possibly a later cadence cut.
    handle.stop();
    let mut got = handle.drain().sink.into_results();
    let cut_bytes = last?.len();
    let chain = store.load_chain().map_err(|e| format!("load chain: {e}"))?;
    let tail = chain.last().ok_or("the store holds no record")?;
    let pulled = PipelineCheckpoint::from_bytes(tail.as_bytes())
        .map_err(|e| format!("decode pipeline record: {e}"))?
        .events_pulled() as usize;

    let rest = p.inputs.delivered.get(pulled..).unwrap_or(&[]).to_vec();
    let source = Replay::unmarked(rest);
    let t = Instant::now();
    let resumed = builder(w, &p.inputs, None)
        .resume_from(store.as_ref(), source, Collect::default())
        .map_err(|e| format!("{}: resume_from: {e}", w.name))?;
    let resume_s = t.elapsed().as_secs_f64();
    let second = resumed.drain();
    let after = second.sink.into_results();
    // The recovered pipeline's counters continue from the record, so its
    // final count minus what it delivered itself is what the first
    // incarnation had delivered at that record; the cut barrier lands
    // those in the sink before anything later, so they are a prefix.
    got.truncate((second.results as usize).saturating_sub(after.len()));
    got.extend(after);
    Ok(StoreProbe {
        cut_ms,
        cut_bytes,
        resume_s,
        mismatch: compare(&mut got, &p.reference),
        late: second.late,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_types::{EventTypeId, Ts};

    fn events(n: u64) -> Vec<Event> {
        (0..n)
            .map(|t| Event::new(Ts(t), EventTypeId(0), vec![]))
            .collect()
    }

    #[test]
    fn paced_source_never_releases_early_and_reports_its_lag() {
        let (n, eps) = (400u64, 20_000.0);
        let out = Arc::new(Mutex::new(PacedReport::default()));
        let mut source = Paced::new(events(n), eps, out.clone());
        let mut released = Vec::new();
        while source.next_event().is_some() {
            released.push(Instant::now());
        }
        assert!(source.next_event().is_none(), "stays exhausted");
        let report = out.lock().expect("report lock").clone();
        let start = report.start.expect("the first pull sets the origin");
        assert_eq!(released.len() as u64, n);
        for (i, at) in released.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / eps);
            assert!(*at >= due, "event {i} released before it was due");
        }
        // 400 events at 20k/s cannot all be due at once: it slept, and
        // every sleep reports how far it overshot.
        assert!(!report.lags_us.is_empty());
        assert!(report.wall >= Duration::from_secs_f64((n - 1) as f64 / eps));
        assert!(report.outside <= report.wall);
        let (p99, max) = lag_ms(&report);
        assert!(p99 <= max);
    }

    #[test]
    fn span_percentiles_isolate_a_stall() {
        // 8 spans of 100 samples at 1 ms; the third span stalls at 500 ms.
        let mut samples = Vec::new();
        for i in 0..800usize {
            let stalled = (200..300).contains(&i);
            samples.push((i / 100, if stalled { 500.0 } else { 1.0 }));
        }
        let spans = span_percentiles(&samples, 8);
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[2], (500.0, 500.0));
        assert_eq!(spans.iter().filter(|s| **s == (1.0, 1.0)).count(), 7);
        assert_eq!(span_percentiles(&[(9, 3.0)], 8), vec![(3.0, 3.0)]);
        let lat = Latencies {
            spans: vec![(2.0, 9.0), (1.0, 12.0), (3.0, 8.0)],
            ..Latencies::default()
        };
        assert_eq!(lat.fastest_span(), (1.0, 8.0));
    }
}
