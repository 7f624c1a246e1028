//! Live pipeline observability: lock-light shared counters and the
//! [`MetricsSnapshot`] a [`PipelineHandle`](crate::PipelineHandle) serves
//! at any moment of a run.

use hamlet_core::{GroupMetrics, LatencyHistogram, SpanRecorder};
use hamlet_obs::{export::PromText, merge_group_metrics};
use hamlet_types::Ts;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Counters all pipeline stages update as they run. Plain atomics +
/// one mutex-guarded histogram: snapshots never stall the hot path for
/// longer than a bucket increment.
pub(crate) struct SharedStats {
    pub(crate) started: Instant,
    /// Run time accumulated by previous incarnations of this pipeline
    /// (restored from a checkpoint), so `elapsed`/`ingest_eps()` report
    /// the whole logical run, not just the post-resume slice.
    pub(crate) accum: Duration,
    /// Stage span recorder shared by all pipeline stages (lane 0 =
    /// ingest, lanes 1.. = workers). Disabled (zero-capacity) unless
    /// tracing was requested at spawn.
    pub(crate) spans: Arc<SpanRecorder>,
    /// Per-worker share-group metrics slots, published periodically by
    /// each worker and merged across shards on snapshot.
    pub(crate) groups: Mutex<Vec<Vec<GroupMetrics>>>,
    /// Events pulled from the source.
    pub(crate) ingested: AtomicU64,
    /// Events dropped as late (behind the watermark at arrival).
    pub(crate) late: AtomicU64,
    /// Events released by the reorder stage into the worker channels.
    pub(crate) released: AtomicU64,
    /// Event batches each worker has processed (also its group-metrics
    /// publish cadence).
    pub(crate) batches: Vec<AtomicU64>,
    /// Window results delivered to the sink.
    pub(crate) results: AtomicU64,
    /// Watermark ticks (valid iff `watermark_set`).
    pub(crate) watermark: AtomicU64,
    pub(crate) watermark_set: AtomicBool,
    /// Set to stop pulling the source: by `PipelineHandle::stop`, or by
    /// the ingest stage when a shard worker died. Relaxed everywhere — it
    /// publishes nothing but itself.
    pub(crate) stop: AtomicBool,
    /// Raised by the handle after each request it sends down the control
    /// channel; the ingest stage looks at the channel only while it is
    /// up.
    pub(crate) control_pending: AtomicBool,
    /// The source is no longer pulled (it ended, or `stop()` or a freeze
    /// cut it) and everything released has been flushed downstream.
    pub(crate) source_done: AtomicBool,
    /// Events currently held by the reorder stage.
    pub(crate) reorder_depth: AtomicUsize,
    /// The most events the reorder stage has held at once since spawn.
    pub(crate) reorder_depth_peak: AtomicUsize,
    /// Events currently queued to each worker (routed, not yet processed).
    pub(crate) worker_depths: Vec<AtomicUsize>,
    /// Results workers have handed to the sink and it has not yet
    /// accepted.
    pub(crate) sink_depth: AtomicUsize,
    /// Workload epoch: number of churn ops ever applied to this
    /// workload (continues across checkpoint/resume).
    pub(crate) epoch: AtomicU64,
    /// Scheduled churn ops skipped because a live op invalidated them.
    pub(crate) churns_rejected: AtomicU64,
    /// Coordinated checkpoint cuts completed (cadence plus on-demand).
    pub(crate) checkpoints: AtomicU64,
    /// Total serialized bytes across all completed cuts.
    pub(crate) checkpoint_bytes: AtomicU64,
    /// Cuts that failed (a worker died mid-cut or the store rejected
    /// the append); the pipeline keeps running after a failed cut.
    pub(crate) checkpoint_failures: AtomicU64,
    /// End-to-end (ingest → emit) result latency histogram.
    pub(crate) latency: Mutex<LatencyHistogram>,
}

impl SharedStats {
    pub(crate) fn new(workers: usize, accum: Duration, spans: Arc<SpanRecorder>) -> Self {
        SharedStats {
            started: Instant::now(),
            accum,
            spans,
            groups: Mutex::new(vec![Vec::new(); workers]),
            ingested: AtomicU64::new(0),
            late: AtomicU64::new(0),
            released: AtomicU64::new(0),
            batches: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            results: AtomicU64::new(0),
            watermark: AtomicU64::new(0),
            watermark_set: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            control_pending: AtomicBool::new(false),
            source_done: AtomicBool::new(false),
            reorder_depth: AtomicUsize::new(0),
            reorder_depth_peak: AtomicUsize::new(0),
            worker_depths: (0..workers).map(|_| AtomicUsize::new(0)).collect(),
            sink_depth: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            churns_rejected: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            checkpoint_bytes: AtomicU64::new(0),
            checkpoint_failures: AtomicU64::new(0),
            latency: Mutex::new(LatencyHistogram::new()),
        }
    }

    pub(crate) fn set_watermark(&self, wm: Ts) {
        self.watermark.store(wm.ticks(), Ordering::Relaxed);
        self.watermark_set.store(true, Ordering::Release);
    }

    /// The counters a checkpoint carries across a restart, in its
    /// order: ingested / late / released / results.
    pub(crate) fn counters(&self) -> [u64; 4] {
        [&self.ingested, &self.late, &self.released, &self.results]
            .map(|c| c.load(Ordering::Relaxed))
    }

    /// Total wall time for the logical run: what this incarnation has
    /// run plus what earlier incarnations banked before checkpointing.
    pub(crate) fn elapsed(&self) -> Duration {
        self.accum + self.started.elapsed()
    }

    /// Replaces a worker's published share-group metrics slot (blocking
    /// lock — for spawn-time and final publishes, where staleness is not
    /// an option).
    pub(crate) fn publish_groups(&self, worker: usize, groups: Vec<GroupMetrics>) {
        let mut slots = self.groups.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = slots.get_mut(worker) {
            *slot = groups;
        }
    }

    /// Best-effort periodic publish from the hot path: a contended lock
    /// skips the update (the next publish catches up) rather than stall
    /// the worker behind a snapshot reader.
    pub(crate) fn try_publish_groups(&self, worker: usize, groups: &[GroupMetrics]) {
        if let Ok(mut slots) = self.groups.try_lock() {
            if let Some(slot) = slots.get_mut(worker) {
                slot.clear();
                slot.extend_from_slice(groups);
            }
        }
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        // hamlet-lint: allow(panic-hygiene) -- a poisoned lock means a recorder panicked; propagate it
        let latency = self.latency.lock().expect("latency lock").clone();
        let groups = {
            let slots = self.groups.lock().unwrap_or_else(PoisonError::into_inner);
            merge_group_metrics(slots.iter().cloned())
        };
        MetricsSnapshot {
            elapsed: self.elapsed(),
            ingested: self.ingested.load(Ordering::Relaxed),
            late: self.late.load(Ordering::Relaxed),
            released: self.released.load(Ordering::Relaxed),
            batches: self.batches.iter().map(|b| b.load(Ordering::Relaxed)).sum(),
            results: self.results.load(Ordering::Relaxed),
            watermark: self
                .watermark_set
                .load(Ordering::Acquire)
                .then(|| Ts(self.watermark.load(Ordering::Relaxed))),
            source_done: self.source_done.load(Ordering::Relaxed),
            reorder_depth: self.reorder_depth.load(Ordering::Relaxed),
            reorder_depth_peak: self.reorder_depth_peak.load(Ordering::Relaxed),
            worker_depths: self
                .worker_depths
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .collect(),
            sink_depth: self.sink_depth.load(Ordering::Relaxed),
            epoch: self.epoch.load(Ordering::Relaxed),
            churns_rejected: self.churns_rejected.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            checkpoint_bytes: self.checkpoint_bytes.load(Ordering::Relaxed),
            checkpoint_failures: self.checkpoint_failures.load(Ordering::Relaxed),
            latency,
            groups,
            dropped_spans: self.spans.dropped(),
        }
    }
}

/// One consistent-enough view of a live pipeline: what came in, what
/// went out, where events are queued, and how the latency tail looks —
/// readable at any time without pausing the run.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Wall time since the pipeline was spawned.
    pub elapsed: Duration,
    /// Events pulled from the source.
    pub ingested: u64,
    /// Late events dropped (behind the watermark at arrival).
    pub late: u64,
    /// Events released downstream by the reorder stage.
    pub released: u64,
    /// Event batches the shard workers have processed, summed over
    /// workers and counted from this spawn (a resume starts at 0):
    /// `released ÷ batches` is the mean batch a worker is fed.
    pub batches: u64,
    /// Window results delivered to the sink.
    pub results: u64,
    /// Current event-time watermark.
    pub watermark: Option<Ts>,
    /// The source is no longer pulled — it ended, or
    /// [`PipelineHandle::stop`](crate::PipelineHandle::stop) cut it —
    /// and the reorder buffer has been flushed downstream.
    pub source_done: bool,
    /// Events held by the reorder stage.
    pub reorder_depth: usize,
    /// The most events the reorder stage has held at once, counted from
    /// this spawn (a resume starts at the frozen buffer's size). 0 on an
    /// in-order stream: its events pass the buffer by.
    pub reorder_depth_peak: usize,
    /// Per-worker queued events (routed, not yet processed).
    pub worker_depths: Vec<usize>,
    /// Results handed to the sink and not yet accepted: workers waiting
    /// for it, or inside its `accept`.
    pub sink_depth: usize,
    /// Workload epoch: churn ops applied so far (0 until the first
    /// add/remove; continues across checkpoint/resume).
    pub epoch: u64,
    /// Scheduled churn ops skipped because a live op invalidated them
    /// (e.g. the id they named was already removed).
    pub churns_rejected: u64,
    /// Coordinated checkpoint cuts completed so far (cadence cuts from
    /// [`PipelineBuilder::checkpoint_every`](crate::PipelineBuilder::checkpoint_every)
    /// plus on-demand [`Snapshot::cut`](hamlet_core::Snapshot::cut)s).
    pub checkpoints: u64,
    /// Total serialized checkpoint bytes across all completed cuts.
    pub checkpoint_bytes: u64,
    /// Cuts that failed (a worker died mid-cut or the configured store
    /// rejected the append). The pipeline keeps running.
    pub checkpoint_failures: u64,
    /// End-to-end (ingest → emit) result latency, one sample per result:
    /// the histogram the workers record into. Read quantiles with
    /// [`p50`](LatencyHistogram::p50) or
    /// [`quantile`](LatencyHistogram::quantile), the distribution with
    /// [`sparse_buckets`](LatencyHistogram::sparse_buckets).
    pub latency: LatencyHistogram,
    /// Per-share-group metrics (Def. 12 benefit, events routed, runs,
    /// bursts, snapshots, results), merged across shard workers. Empty
    /// when the engines run with observability disabled.
    pub groups: Vec<GroupMetrics>,
    /// Stage spans discarded because a ring was full or contended.
    pub dropped_spans: u64,
}

/// One exported run total: its `--metrics-json` key, its Prometheus help
/// text and type, and where the snapshot keeps it. The Prometheus family
/// is `hamlet_<key>_total` for a counter and `hamlet_<key>` for a gauge.
struct Total {
    key: &'static str,
    help: &'static str,
    counter: bool,
    read: Read,
}

/// Where a snapshot keeps a run total.
type Read = fn(&MetricsSnapshot) -> u64;

const fn counter(key: &'static str, help: &'static str, read: Read) -> Total {
    Total {
        key,
        help,
        counter: true,
        read,
    }
}

const fn gauge(key: &'static str, help: &'static str, read: Read) -> Total {
    Total {
        key,
        help,
        counter: false,
        read,
    }
}

/// The run totals both exporters write, in the order of the
/// `--metrics-json` line: its first [`FLOW`] rows come before the queue
/// and latency fields, the rest after them. The Prometheus page writes
/// them all after uptime, in this order. Adding an exported total is one
/// row here.
const TOTALS: [Total; 12] = [
    counter("ingested", "Events pulled from the source.", |m| m.ingested),
    counter("late", "Late events dropped.", |m| m.late),
    counter("released", "Events released to workers.", |m| m.released),
    counter("batches", "Event batches workers processed.", |m| m.batches),
    counter("results", "Window results delivered to the sink.", |m| {
        m.results
    }),
    counter(
        "dropped_spans",
        "Stage spans shed by full or contended trace rings.",
        |m| m.dropped_spans,
    ),
    counter(
        "checkpoints",
        "Coordinated checkpoint cuts completed.",
        |m| m.checkpoints,
    ),
    counter(
        "checkpoint_bytes",
        "Serialized bytes across all completed cuts.",
        |m| m.checkpoint_bytes,
    ),
    counter("checkpoint_failures", "Checkpoint cuts that failed.", |m| {
        m.checkpoint_failures
    }),
    gauge("epoch", "Workload epoch (churn ops applied).", |m| m.epoch),
    counter(
        "churns_rejected",
        "Scheduled churn ops skipped as invalidated.",
        |m| m.churns_rejected,
    ),
    gauge(
        "reorder_depth_peak",
        "Most events the reorder stage has held at once.",
        |m| m.reorder_depth_peak as u64,
    ),
];

/// The rows of [`TOTALS`] that open the `--metrics-json` line.
const FLOW: usize = 5;

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format:
    /// uptime, one family per row of the run-total table (in its order),
    /// the watermark, per-stage queue depths, the latency summary plus
    /// its full sparse histogram, and one labeled sample set per share
    /// group (keyed by the group's query signature, e.g. `1+2L`). Output
    /// for a fixed snapshot is byte-stable.
    pub fn to_prometheus(&self) -> String {
        let mut p = PromText::new();
        p.header("hamlet_uptime_seconds", "Run wall time.", "gauge");
        p.sample_f64("hamlet_uptime_seconds", &[], self.elapsed.as_secs_f64());
        for t in &TOTALS {
            let (name, ty) = match t.counter {
                true => (format!("hamlet_{}_total", t.key), "counter"),
                false => (format!("hamlet_{}", t.key), "gauge"),
            };
            p.header(&name, t.help, ty);
            p.sample_u64(&name, &[], (t.read)(self));
        }
        if let Some(wm) = self.watermark {
            let help = "Current event-time watermark (ticks).";
            p.header("hamlet_watermark", help, "gauge");
            p.sample_u64("hamlet_watermark", &[], wm.ticks());
        }
        let depth = "hamlet_queue_depth";
        let help = "Events or results queued per pipeline stage.";
        p.header(depth, help, "gauge");
        p.sample_u64(depth, &[("stage", "reorder")], self.reorder_depth as u64);
        for (i, d) in self.worker_depths.iter().enumerate() {
            let worker = [("stage", "worker"), ("worker", &i.to_string())];
            p.sample_u64(depth, &worker, *d as u64);
        }
        p.sample_u64(depth, &[("stage", "sink")], self.sink_depth as u64);
        let (l, lat) = (&self.latency, "hamlet_latency_seconds");
        let help = "End-to-end (ingest to emit) result latency.";
        p.header(lat, help, "summary");
        p.sample_f64(lat, &[("quantile", "0.5")], l.p50().as_secs_f64());
        p.sample_f64(lat, &[("quantile", "0.99")], l.p99().as_secs_f64());
        p.sample_f64("hamlet_latency_seconds_sum", &[], l.total().as_secs_f64());
        p.sample_u64("hamlet_latency_seconds_count", &[], l.count());
        let bucket = "hamlet_latency_bucket_total";
        let help = "Latency histogram: samples per bucket (label = inclusive bucket low edge, ns).";
        p.header(bucket, help, "counter");
        for (ns, n) in l.sparse_buckets() {
            p.sample_u64(bucket, &[("ge_ns", &ns.to_string())], n);
        }
        if self.groups.is_empty() {
            return p.finish();
        }
        let shared = "1 if the optimizer placed the group shared, else 0.";
        p.header("hamlet_group_shared", shared, "gauge");
        for g in &self.groups {
            let (sig, shared) = (g.sig_label(), u64::from(g.shared));
            p.sample_u64("hamlet_group_shared", &[("group", &sig)], shared);
        }
        let benefit = "Def. 12 sharing benefit priced at placement.";
        p.header("hamlet_group_benefit", benefit, "gauge");
        for g in &self.groups {
            let sig = g.sig_label();
            p.sample_f64("hamlet_group_benefit", &[("group", &sig)], g.benefit);
        }
        for (i, (key, help)) in GroupMetrics::COUNTERS.into_iter().enumerate() {
            let name = format!("hamlet_group_{key}_total");
            p.header(&name, help, "counter");
            for g in &self.groups {
                p.sample_u64(&name, &[("group", &g.sig_label())], g.counters()[i]);
            }
        }
        p.finish()
    }

    /// Renders the snapshot as one JSON object on one line, for tooling
    /// (`hamlet_cli --metrics-json`): the run totals, queue depths, the
    /// latency summary with its sparse histogram (`buckets_ns`:
    /// `[inclusive low edge in ns, count]` pairs), the checkpoint
    /// counters, the workload epoch with the churn ops rejected, and one
    /// row per share group. Hand-rolled (the workspace has no serde); a non-finite
    /// float is written as `0`, so a stalled pipeline's 0-duration rates
    /// can never emit invalid JSON.
    pub fn to_json(&self) -> String {
        let num = |v: f64| if v.is_finite() { v } else { 0.0 };
        let secs = |d: Duration| num(d.as_secs_f64());
        let fields = |rows: &[Total]| -> Vec<String> {
            (rows.iter())
                .map(|t| format!("\"{}\":{}", t.key, (t.read)(self)))
                .collect()
        };
        let (flow, rest) = TOTALS.split_at(FLOW);
        let depths: Vec<String> = self.worker_depths.iter().map(|d| d.to_string()).collect();
        let l = &self.latency;
        let buckets: Vec<String> = (l.sparse_buckets().iter())
            .map(|(low, n)| format!("[{low},{n}]"))
            .collect();
        let groups: Vec<String> = (self.groups.iter())
            .map(|g| {
                let counters: String = (GroupMetrics::COUNTERS.iter().zip(g.counters()))
                    .map(|((key, _), v)| format!(",\"{key}\":{v}"))
                    .collect();
                format!(
                    "{{\"group\":{:?},\"shared\":{},\"benefit\":{}{counters}}}",
                    g.sig_label(),
                    g.shared,
                    num(g.benefit),
                )
            })
            .collect();
        format!(
            "{{\"elapsed\":{},{},\"watermark\":{},\"source_done\":{},\"reorder_depth\":{},\
             \"worker_depths\":[{}],\"sink_depth\":{},\"ingest_eps\":{},\"latency\":{{\
             \"count\":{},\"avg\":{},\"p50\":{},\"p99\":{},\"max\":{},\"buckets_ns\":[{}]}},\
             {},\"groups\":[{}]}}",
            secs(self.elapsed),
            fields(flow).join(","),
            self.watermark
                .map_or_else(|| "null".into(), |w| w.ticks().to_string()),
            self.source_done,
            self.reorder_depth,
            depths.join(","),
            self.sink_depth,
            num(self.ingest_eps()),
            l.count(),
            secs(l.avg()),
            secs(l.p50()),
            secs(l.p99()),
            secs(l.max()),
            buckets.join(","),
            fields(rest).join(","),
            groups.join(","),
        )
    }

    /// Ingest throughput in events/second over the run so far.
    pub fn ingest_eps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 && secs.is_finite() {
            self.ingested as f64 / secs
        } else {
            0.0
        }
    }

    /// Work still on its way to the sink: events held by the reorder
    /// stage or queued to a worker — a worker's batch counts until the
    /// sink has accepted its results — plus results handed to the sink
    /// and not yet accepted. Events of a partial batch still in a shard's
    /// outbox, routed but not yet shipped, are not counted; once the
    /// source is done there are none (`source_done` is set after every
    /// partial batch has shipped), so `source_done && queued() == 0`
    /// means every result so far has reached the sink.
    pub fn queued(&self) -> usize {
        self.reorder_depth + self.worker_depths.iter().sum::<usize>() + self.sink_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_stats(workers: usize) -> SharedStats {
        SharedStats::new(workers, Duration::ZERO, Arc::new(SpanRecorder::disabled()))
    }

    #[test]
    fn snapshot_reflects_counters() {
        let s = test_stats(3);
        s.ingested.store(100, Ordering::Relaxed);
        s.late.store(2, Ordering::Relaxed);
        s.released.store(98, Ordering::Relaxed);
        s.worker_depths[1].store(7, Ordering::Relaxed);
        s.reorder_depth.store(4, Ordering::Relaxed);
        s.sink_depth.store(1, Ordering::Relaxed);
        s.set_watermark(Ts(55));
        s.latency.lock().unwrap().record(Duration::from_micros(10));
        let snap = s.snapshot();
        assert_eq!(snap.ingested, 100);
        assert_eq!(snap.late, 2);
        assert_eq!(snap.released, 98);
        assert_eq!(snap.watermark, Some(Ts(55)));
        assert_eq!(snap.worker_depths, vec![0, 7, 0]);
        assert_eq!(snap.queued(), 4 + 7 + 1);
        assert_eq!(snap.latency.count(), 1);
        assert!(snap.ingest_eps() > 0.0);
        assert!(!snap.source_done);
    }

    #[test]
    fn watermark_none_before_first_event() {
        let s = test_stats(1);
        assert_eq!(s.snapshot().watermark, None);
    }

    #[test]
    fn elapsed_carries_accumulated_time() {
        let spans = Arc::new(SpanRecorder::disabled());
        let s = SharedStats::new(1, Duration::from_secs(10), spans);
        assert!(s.snapshot().elapsed >= Duration::from_secs(10));
    }

    #[test]
    fn snapshot_merges_published_groups() {
        let s = test_stats(2);
        let mut a = GroupMetrics::new(0, vec![(1, 0)]);
        a.events_routed = 3;
        let mut b = GroupMetrics::new(0, vec![(1, 0)]);
        b.events_routed = 4;
        s.publish_groups(0, vec![a]);
        s.publish_groups(1, vec![b]);
        let snap = s.snapshot();
        assert_eq!(snap.groups.len(), 1);
        assert_eq!(snap.groups[0].events_routed, 7);
    }

    #[test]
    fn snapshot_exposes_latency_buckets() {
        let s = test_stats(1);
        s.latency.lock().unwrap().record(Duration::from_micros(10));
        s.latency.lock().unwrap().record(Duration::from_micros(10));
        let snap = s.snapshot();
        let buckets = snap.latency.sparse_buckets();
        assert_eq!(buckets.iter().map(|&(_, n)| n).sum::<u64>(), 2);
    }

    /// A snapshot built the way a run builds one: totals through the
    /// shared atomics (`batches` as two workers' counts, which the
    /// snapshot sums), latency through recorded samples (two at 1024 ns,
    /// one at 1300 ns), group rows through worker publishes. Every
    /// exported number is distinct, so a value read into the wrong key
    /// shows up; only `elapsed` is set afterwards, to make it exact.
    fn exported() -> MetricsSnapshot {
        let s = test_stats(2);
        for (total, v) in [
            (&s.ingested, 100),
            (&s.late, 2),
            (&s.released, 97),
            (&s.results, 3),
            (&s.epoch, 5),
            (&s.churns_rejected, 6),
            (&s.checkpoints, 7),
            (&s.checkpoint_bytes, 4096),
            (&s.checkpoint_failures, 1),
        ] {
            total.store(v, Ordering::Relaxed);
        }
        s.batches[0].store(20, Ordering::Relaxed);
        s.batches[1].store(13, Ordering::Relaxed);
        s.reorder_depth.store(9, Ordering::Relaxed);
        s.reorder_depth_peak.store(12, Ordering::Relaxed);
        s.worker_depths[0].store(4, Ordering::Relaxed);
        s.sink_depth.store(8, Ordering::Relaxed);
        s.set_watermark(Ts(55));
        for ns in [1024, 1024, 1300] {
            s.latency.lock().unwrap().record(Duration::from_nanos(ns));
        }
        let mut shared = GroupMetrics::new(0, vec![(1, 0), (2, 1)]);
        (shared.shared, shared.benefit) = (true, f64::NAN);
        for (c, v) in shared.counters_mut().into_iter().zip(10..) {
            *c = v;
        }
        let mut solo = GroupMetrics::new(0, vec![(3, 0)]);
        (solo.benefit, solo.events_routed) = (2.5, 1);
        s.publish_groups(0, vec![shared]);
        s.publish_groups(1, vec![solo]);
        let mut snap = s.snapshot();
        snap.elapsed = Duration::from_secs(2);
        snap
    }

    /// The `--metrics-json` line, byte for byte as `hamlet_cli` writes
    /// it: key order, durations as fractional seconds, a non-finite float
    /// as `0`, `null` for no watermark.
    #[test]
    fn to_json_is_the_cli_metrics_line() {
        let mut snap = exported();
        assert_eq!(
            snap.to_json(),
            "{\"elapsed\":2,\"ingested\":100,\"late\":2,\"released\":97,\"batches\":33,\"results\":3,\
             \"watermark\":55,\"source_done\":false,\"reorder_depth\":9,\
             \"worker_depths\":[4,0],\"sink_depth\":8,\"ingest_eps\":50,\
             \"latency\":{\"count\":3,\"avg\":0.000001116,\"p50\":0.000001024,\
             \"p99\":0.0000013,\"max\":0.0000013,\"buckets_ns\":[[1024,2],[1280,1]]},\
             \"dropped_spans\":0,\"checkpoints\":7,\"checkpoint_bytes\":4096,\
             \"checkpoint_failures\":1,\"epoch\":5,\"churns_rejected\":6,\"reorder_depth_peak\":12,\
             \"groups\":[\
             {\"group\":\"1+2L\",\"shared\":true,\"benefit\":0,\"events_routed\":10,\
             \"runs_created\":11,\"runs_expired\":12,\"shared_bursts\":13,\"solo_bursts\":14,\
             \"graphlet_snapshots\":15,\"event_snapshots\":16,\"results\":17},\
             {\"group\":\"3\",\"shared\":false,\"benefit\":2.5,\"events_routed\":1,\
             \"runs_created\":0,\"runs_expired\":0,\"shared_bursts\":0,\"solo_bursts\":0,\
             \"graphlet_snapshots\":0,\"event_snapshots\":0,\"results\":0}]}"
        );
        snap.watermark = None;
        assert!(snap.to_json().contains("\"watermark\":null,"));
    }

    /// A Prometheus page as its families, each from one `# HELP` line to
    /// the next, sorted: the order of families is free, everything inside
    /// one (name, help, type, labels, values, sample order) is pinned.
    fn families(page: &str) -> Vec<String> {
        let mut blocks: Vec<String> = Vec::new();
        for line in page.lines() {
            if blocks.is_empty() || line.starts_with("# HELP ") {
                blocks.push(String::new());
            }
            let block = blocks.last_mut().unwrap();
            block.push_str(line);
            block.push('\n');
        }
        blocks.sort();
        blocks
    }

    /// The Prometheus page of the same snapshot, family by family.
    #[test]
    fn to_prometheus_is_the_golden_page() {
        let golden = "\
# HELP hamlet_uptime_seconds Run wall time.
# TYPE hamlet_uptime_seconds gauge
hamlet_uptime_seconds 2
# HELP hamlet_ingested_total Events pulled from the source.
# TYPE hamlet_ingested_total counter
hamlet_ingested_total 100
# HELP hamlet_late_total Late events dropped.
# TYPE hamlet_late_total counter
hamlet_late_total 2
# HELP hamlet_released_total Events released to workers.
# TYPE hamlet_released_total counter
hamlet_released_total 97
# HELP hamlet_batches_total Event batches workers processed.
# TYPE hamlet_batches_total counter
hamlet_batches_total 33
# HELP hamlet_results_total Window results delivered to the sink.
# TYPE hamlet_results_total counter
hamlet_results_total 3
# HELP hamlet_watermark Current event-time watermark (ticks).
# TYPE hamlet_watermark gauge
hamlet_watermark 55
# HELP hamlet_queue_depth Events or results queued per pipeline stage.
# TYPE hamlet_queue_depth gauge
hamlet_queue_depth{stage=\"reorder\"} 9
hamlet_queue_depth{stage=\"worker\",worker=\"0\"} 4
hamlet_queue_depth{stage=\"worker\",worker=\"1\"} 0
hamlet_queue_depth{stage=\"sink\"} 8
# HELP hamlet_epoch Workload epoch (churn ops applied).
# TYPE hamlet_epoch gauge
hamlet_epoch 5
# HELP hamlet_churns_rejected_total Scheduled churn ops skipped as invalidated.
# TYPE hamlet_churns_rejected_total counter
hamlet_churns_rejected_total 6
# HELP hamlet_reorder_depth_peak Most events the reorder stage has held at once.
# TYPE hamlet_reorder_depth_peak gauge
hamlet_reorder_depth_peak 12
# HELP hamlet_checkpoints_total Coordinated checkpoint cuts completed.
# TYPE hamlet_checkpoints_total counter
hamlet_checkpoints_total 7
# HELP hamlet_checkpoint_bytes_total Serialized bytes across all completed cuts.
# TYPE hamlet_checkpoint_bytes_total counter
hamlet_checkpoint_bytes_total 4096
# HELP hamlet_checkpoint_failures_total Checkpoint cuts that failed.
# TYPE hamlet_checkpoint_failures_total counter
hamlet_checkpoint_failures_total 1
# HELP hamlet_latency_seconds End-to-end (ingest to emit) result latency.
# TYPE hamlet_latency_seconds summary
hamlet_latency_seconds{quantile=\"0.5\"} 0.000001024
hamlet_latency_seconds{quantile=\"0.99\"} 0.0000013
hamlet_latency_seconds_sum 0.000003348
hamlet_latency_seconds_count 3
# HELP hamlet_latency_bucket_total Latency histogram: samples per bucket (label = inclusive bucket low edge, ns).
# TYPE hamlet_latency_bucket_total counter
hamlet_latency_bucket_total{ge_ns=\"1024\"} 2
hamlet_latency_bucket_total{ge_ns=\"1280\"} 1
# HELP hamlet_dropped_spans_total Stage spans shed by full or contended trace rings.
# TYPE hamlet_dropped_spans_total counter
hamlet_dropped_spans_total 0
# HELP hamlet_group_shared 1 if the optimizer placed the group shared, else 0.
# TYPE hamlet_group_shared gauge
hamlet_group_shared{group=\"1+2L\"} 1
hamlet_group_shared{group=\"3\"} 0
# HELP hamlet_group_benefit Def. 12 sharing benefit priced at placement.
# TYPE hamlet_group_benefit gauge
hamlet_group_benefit{group=\"1+2L\"} NaN
hamlet_group_benefit{group=\"3\"} 2.5
# HELP hamlet_group_events_routed_total Events routed into the group.
# TYPE hamlet_group_events_routed_total counter
hamlet_group_events_routed_total{group=\"1+2L\"} 10
hamlet_group_events_routed_total{group=\"3\"} 1
# HELP hamlet_group_runs_created_total Per-key window runs created.
# TYPE hamlet_group_runs_created_total counter
hamlet_group_runs_created_total{group=\"1+2L\"} 11
hamlet_group_runs_created_total{group=\"3\"} 0
# HELP hamlet_group_runs_expired_total Runs finalized by watermark expiry.
# TYPE hamlet_group_runs_expired_total counter
hamlet_group_runs_expired_total{group=\"1+2L\"} 12
hamlet_group_runs_expired_total{group=\"3\"} 0
# HELP hamlet_group_shared_bursts_total Bursts processed shared.
# TYPE hamlet_group_shared_bursts_total counter
hamlet_group_shared_bursts_total{group=\"1+2L\"} 13
hamlet_group_shared_bursts_total{group=\"3\"} 0
# HELP hamlet_group_solo_bursts_total Bursts processed per-query.
# TYPE hamlet_group_solo_bursts_total counter
hamlet_group_solo_bursts_total{group=\"1+2L\"} 14
hamlet_group_solo_bursts_total{group=\"3\"} 0
# HELP hamlet_group_graphlet_snapshots_total Graphlet-level snapshots taken.
# TYPE hamlet_group_graphlet_snapshots_total counter
hamlet_group_graphlet_snapshots_total{group=\"1+2L\"} 15
hamlet_group_graphlet_snapshots_total{group=\"3\"} 0
# HELP hamlet_group_event_snapshots_total Event-level snapshots taken.
# TYPE hamlet_group_event_snapshots_total counter
hamlet_group_event_snapshots_total{group=\"1+2L\"} 16
hamlet_group_event_snapshots_total{group=\"3\"} 0
# HELP hamlet_group_results_total Window results emitted by the group.
# TYPE hamlet_group_results_total counter
hamlet_group_results_total{group=\"1+2L\"} 17
hamlet_group_results_total{group=\"3\"} 0
";
        assert_eq!(families(&exported().to_prometheus()), families(golden));
    }
}
