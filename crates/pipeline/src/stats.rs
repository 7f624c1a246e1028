//! Live pipeline observability: lock-light shared counters and the
//! [`MetricsSnapshot`] a [`PipelineHandle`](crate::PipelineHandle) serves
//! at any moment of a run.

use hamlet_core::{GroupMetrics, LatencyHistogram, SpanRecorder};
use hamlet_obs::merge_group_metrics;
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
    /// Window results delivered to the sink.
    pub(crate) results: AtomicU64,
    /// Watermark ticks (valid iff `watermark_set`).
    pub(crate) watermark: AtomicU64,
    pub(crate) watermark_set: AtomicBool,
    /// Set to stop pulling the source: by `PipelineHandle::stop`, or by
    /// the ingest stage when a shard worker died. Relaxed everywhere — it
    /// publishes nothing but itself.
    pub(crate) stop: AtomicBool,
    /// The source is no longer pulled (it ended, or `stop()` or a freeze
    /// cut it) and everything released has been flushed downstream.
    pub(crate) source_done: AtomicBool,
    /// Events currently held by the reorder stage.
    pub(crate) reorder_depth: AtomicUsize,
    /// Events currently queued to each worker (routed, not yet processed).
    pub(crate) worker_depths: Vec<AtomicUsize>,
    /// Results currently queued to the sink.
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
            results: AtomicU64::new(0),
            watermark: AtomicU64::new(0),
            watermark_set: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            source_done: AtomicBool::new(false),
            reorder_depth: AtomicUsize::new(0),
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
        let (latency, latency_buckets) = {
            // hamlet-lint: allow(panic-hygiene) -- a poisoned lock means a recorder panicked; propagate it
            let h = self.latency.lock().expect("latency lock");
            (
                LatencySummary {
                    count: h.count(),
                    avg: h.avg(),
                    p50: h.p50(),
                    p99: h.p99(),
                    max: h.max(),
                },
                h.sparse_buckets(),
            )
        };
        let groups = {
            let slots = self.groups.lock().unwrap_or_else(PoisonError::into_inner);
            merge_group_metrics(slots.iter().cloned())
        };
        MetricsSnapshot {
            elapsed: self.elapsed(),
            ingested: self.ingested.load(Ordering::Relaxed),
            late: self.late.load(Ordering::Relaxed),
            released: self.released.load(Ordering::Relaxed),
            results: self.results.load(Ordering::Relaxed),
            watermark: self
                .watermark_set
                .load(Ordering::Acquire)
                .then(|| Ts(self.watermark.load(Ordering::Relaxed))),
            source_done: self.source_done.load(Ordering::Relaxed),
            reorder_depth: self.reorder_depth.load(Ordering::Relaxed),
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
            latency_buckets,
            groups,
            dropped_spans: self.spans.dropped(),
        }
    }
}

/// Tail summary of the end-to-end result latency histogram.
#[derive(Clone, Copy, Debug)]
pub struct LatencySummary {
    /// Latency samples recorded (one per emitted result).
    pub count: u64,
    /// Mean latency.
    pub avg: Duration,
    /// Median latency.
    pub p50: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// Maximum latency.
    pub max: Duration,
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
    /// Per-worker queued events (routed, not yet processed).
    pub worker_depths: Vec<usize>,
    /// Results queued to the sink.
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
    /// End-to-end (ingest → emit) result latency.
    pub latency: LatencySummary,
    /// Sparse latency histogram: `(inclusive bucket low edge in ns,
    /// samples)` pairs, ascending — the full distribution behind
    /// [`Self::latency`].
    pub latency_buckets: Vec<(u64, u64)>,
    /// Per-share-group metrics (Def. 12 benefit, events routed, runs,
    /// bursts, snapshots, results), merged across shard workers. Empty
    /// when the engines run with observability disabled.
    pub groups: Vec<GroupMetrics>,
    /// Stage spans discarded because a ring was full or contended.
    pub dropped_spans: u64,
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format —
    /// run totals, queue depths, the latency summary plus full sparse
    /// histogram, and one labeled sample set per share group (keyed by
    /// the group's query signature, e.g. `1+2L`). Output for a fixed
    /// snapshot is byte-stable.
    pub fn to_prometheus(&self) -> String {
        use hamlet_obs::export::PromText;
        let mut p = PromText::new();
        p.header("hamlet_uptime_seconds", "Run wall time.", "gauge");
        p.sample_f64("hamlet_uptime_seconds", &[], self.elapsed.as_secs_f64());
        p.header(
            "hamlet_ingested_total",
            "Events pulled from the source.",
            "counter",
        );
        p.sample_u64("hamlet_ingested_total", &[], self.ingested);
        p.header("hamlet_late_total", "Late events dropped.", "counter");
        p.sample_u64("hamlet_late_total", &[], self.late);
        p.header(
            "hamlet_released_total",
            "Events released to workers.",
            "counter",
        );
        p.sample_u64("hamlet_released_total", &[], self.released);
        p.header(
            "hamlet_results_total",
            "Window results delivered to the sink.",
            "counter",
        );
        p.sample_u64("hamlet_results_total", &[], self.results);
        if let Some(wm) = self.watermark {
            p.header(
                "hamlet_watermark",
                "Current event-time watermark (ticks).",
                "gauge",
            );
            p.sample_u64("hamlet_watermark", &[], wm.ticks());
        }
        p.header(
            "hamlet_queue_depth",
            "Events or results queued per pipeline stage.",
            "gauge",
        );
        p.sample_u64(
            "hamlet_queue_depth",
            &[("stage", "reorder")],
            self.reorder_depth as u64,
        );
        for (i, d) in self.worker_depths.iter().enumerate() {
            let worker = i.to_string();
            p.sample_u64(
                "hamlet_queue_depth",
                &[("stage", "worker"), ("worker", &worker)],
                *d as u64,
            );
        }
        p.sample_u64(
            "hamlet_queue_depth",
            &[("stage", "sink")],
            self.sink_depth as u64,
        );
        p.header(
            "hamlet_epoch",
            "Workload epoch (churn ops applied).",
            "gauge",
        );
        p.sample_u64("hamlet_epoch", &[], self.epoch);
        p.header(
            "hamlet_churns_rejected_total",
            "Scheduled churn ops skipped as invalidated.",
            "counter",
        );
        p.sample_u64("hamlet_churns_rejected_total", &[], self.churns_rejected);
        p.header(
            "hamlet_checkpoints_total",
            "Coordinated checkpoint cuts completed.",
            "counter",
        );
        p.sample_u64("hamlet_checkpoints_total", &[], self.checkpoints);
        p.header(
            "hamlet_checkpoint_bytes_total",
            "Serialized bytes across all completed cuts.",
            "counter",
        );
        p.sample_u64("hamlet_checkpoint_bytes_total", &[], self.checkpoint_bytes);
        p.header(
            "hamlet_checkpoint_failures_total",
            "Checkpoint cuts that failed.",
            "counter",
        );
        p.sample_u64(
            "hamlet_checkpoint_failures_total",
            &[],
            self.checkpoint_failures,
        );
        p.header(
            "hamlet_latency_seconds",
            "End-to-end (ingest to emit) result latency.",
            "summary",
        );
        p.sample_f64(
            "hamlet_latency_seconds",
            &[("quantile", "0.5")],
            self.latency.p50.as_secs_f64(),
        );
        p.sample_f64(
            "hamlet_latency_seconds",
            &[("quantile", "0.99")],
            self.latency.p99.as_secs_f64(),
        );
        p.sample_f64(
            "hamlet_latency_seconds_sum",
            &[],
            self.latency.avg.as_secs_f64() * self.latency.count as f64,
        );
        p.sample_u64("hamlet_latency_seconds_count", &[], self.latency.count);
        p.header(
            "hamlet_latency_bucket_total",
            "Latency histogram: samples per bucket (label = inclusive bucket low edge, ns).",
            "counter",
        );
        for &(ns, n) in &self.latency_buckets {
            let edge = ns.to_string();
            p.sample_u64("hamlet_latency_bucket_total", &[("ge_ns", &edge)], n);
        }
        p.header(
            "hamlet_dropped_spans_total",
            "Stage spans shed by full or contended trace rings.",
            "counter",
        );
        p.sample_u64("hamlet_dropped_spans_total", &[], self.dropped_spans);
        if !self.groups.is_empty() {
            p.header(
                "hamlet_group_shared",
                "1 if the optimizer placed the group shared, else 0.",
                "gauge",
            );
            p.header(
                "hamlet_group_benefit",
                "Def. 12 sharing benefit priced at placement.",
                "gauge",
            );
            for g in &self.groups {
                let sig = g.sig_label();
                p.sample_u64(
                    "hamlet_group_shared",
                    &[("group", &sig)],
                    u64::from(g.shared),
                );
                p.sample_f64("hamlet_group_benefit", &[("group", &sig)], g.benefit);
            }
            type Get = fn(&GroupMetrics) -> u64;
            let counters: [(&str, &str, Get); 8] = [
                (
                    "hamlet_group_events_routed_total",
                    "Events routed into the group.",
                    |g| g.events_routed,
                ),
                (
                    "hamlet_group_runs_created_total",
                    "Per-key window runs created.",
                    |g| g.runs_created,
                ),
                (
                    "hamlet_group_runs_expired_total",
                    "Runs finalized by watermark expiry.",
                    |g| g.runs_expired,
                ),
                (
                    "hamlet_group_shared_bursts_total",
                    "Bursts processed shared.",
                    |g| g.shared_bursts,
                ),
                (
                    "hamlet_group_solo_bursts_total",
                    "Bursts processed per-query.",
                    |g| g.solo_bursts,
                ),
                (
                    "hamlet_group_graphlet_snapshots_total",
                    "Graphlet-level snapshots taken.",
                    |g| g.graphlet_snapshots,
                ),
                (
                    "hamlet_group_event_snapshots_total",
                    "Event-level snapshots taken.",
                    |g| g.event_snapshots,
                ),
                (
                    "hamlet_group_results_total",
                    "Window results emitted by the group.",
                    |g| g.results_emitted,
                ),
            ];
            for (name, help, get) in counters {
                p.header(name, help, "counter");
                for g in &self.groups {
                    let sig = g.sig_label();
                    p.sample_u64(name, &[("group", &sig)], get(g));
                }
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
        let depths: Vec<String> = self.worker_depths.iter().map(|d| d.to_string()).collect();
        let buckets: Vec<String> = (self.latency_buckets.iter())
            .map(|(low, n)| format!("[{low},{n}]"))
            .collect();
        let groups: Vec<String> = (self.groups.iter())
            .map(|g| {
                format!(
                    "{{\"group\":{:?},\"shared\":{},\"benefit\":{},\"events_routed\":{},\
                     \"runs_created\":{},\"runs_expired\":{},\"shared_bursts\":{},\
                     \"solo_bursts\":{},\"graphlet_snapshots\":{},\"event_snapshots\":{},\
                     \"results\":{}}}",
                    g.sig_label(),
                    g.shared,
                    num(g.benefit),
                    g.events_routed,
                    g.runs_created,
                    g.runs_expired,
                    g.shared_bursts,
                    g.solo_bursts,
                    g.graphlet_snapshots,
                    g.event_snapshots,
                    g.results_emitted,
                )
            })
            .collect();
        format!(
            "{{\"elapsed\":{},\"ingested\":{},\"late\":{},\"released\":{},\"results\":{},\
             \"watermark\":{},\"source_done\":{},\"reorder_depth\":{},\"worker_depths\":[{}],\
             \"sink_depth\":{},\"ingest_eps\":{},\"latency\":{{\"count\":{},\"avg\":{},\
             \"p50\":{},\"p99\":{},\"max\":{},\"buckets_ns\":[{}]}},\"dropped_spans\":{},\
             \"checkpoints\":{},\"checkpoint_bytes\":{},\"checkpoint_failures\":{},\
             \"epoch\":{},\"churns_rejected\":{},\"groups\":[{}]}}",
            secs(self.elapsed),
            self.ingested,
            self.late,
            self.released,
            self.results,
            self.watermark
                .map_or_else(|| "null".into(), |w| w.ticks().to_string()),
            self.source_done,
            self.reorder_depth,
            depths.join(","),
            self.sink_depth,
            num(self.ingest_eps()),
            self.latency.count,
            secs(self.latency.avg),
            secs(self.latency.p50),
            secs(self.latency.p99),
            secs(self.latency.max),
            buckets.join(","),
            self.dropped_spans,
            self.checkpoints,
            self.checkpoint_bytes,
            self.checkpoint_failures,
            self.epoch,
            self.churns_rejected,
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

    /// Total events currently queued anywhere in the pipeline.
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
        assert_eq!(snap.latency.count, 1);
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
        assert_eq!(snap.latency_buckets.iter().map(|&(_, n)| n).sum::<u64>(), 2);
    }

    /// The `--metrics-json` line, byte for byte as `hamlet_cli` writes
    /// it: key order, `null` for no watermark, durations as fractional
    /// seconds, a non-finite float as `0`.
    #[test]
    fn to_json_is_the_cli_metrics_line() {
        let s = test_stats(2);
        let mut snap = s.snapshot();
        let mut g = GroupMetrics::new(0, vec![(1, 0), (2, 1)]);
        (g.shared, g.benefit, g.events_routed, g.results_emitted) = (true, f64::NAN, 7, 3);
        snap.elapsed = Duration::from_secs(2);
        snap.ingested = 100;
        snap.worker_depths = vec![4, 0];
        snap.latency.count = 3;
        snap.latency.p99 = Duration::from_micros(1500);
        snap.latency_buckets = vec![(1024, 2), (1280, 1)];
        snap.groups = vec![g];
        assert_eq!(
            snap.to_json(),
            "{\"elapsed\":2,\"ingested\":100,\"late\":0,\"released\":0,\"results\":0,\
             \"watermark\":null,\"source_done\":false,\"reorder_depth\":0,\
             \"worker_depths\":[4,0],\"sink_depth\":0,\"ingest_eps\":50,\
             \"latency\":{\"count\":3,\"avg\":0,\"p50\":0,\"p99\":0.0015,\"max\":0,\
             \"buckets_ns\":[[1024,2],[1280,1]]},\"dropped_spans\":0,\"checkpoints\":0,\
             \"checkpoint_bytes\":0,\"checkpoint_failures\":0,\"epoch\":0,\
             \"churns_rejected\":0,\"groups\":[{\"group\":\"1+2L\",\
             \"shared\":true,\"benefit\":0,\"events_routed\":7,\"runs_created\":0,\
             \"runs_expired\":0,\"shared_bursts\":0,\"solo_bursts\":0,\
             \"graphlet_snapshots\":0,\"event_snapshots\":0,\"results\":3}]}"
        );
        snap.watermark = Some(Ts(55));
        assert!(snap.to_json().contains("\"watermark\":55,"));
    }
}
