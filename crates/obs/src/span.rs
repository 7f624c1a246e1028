//! Stage spans and the per-lane ring-buffer recorder.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Pipeline/engine stages a span can cover.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Pulling one tranche of events from the source into the reorder
    /// buffer (measured per released tranche on the ingest lane).
    Ingest,
    /// Releasing in-order events from the bounded-lateness buffer.
    ReorderRelease,
    /// Hash-routing a released tranche to worker shards.
    Route,
    /// One `HamletEngine::process_batch` call on a worker.
    ProcessBatch,
    /// A non-empty watermark expiry drain inside the engine.
    ExpiryDrain,
    /// End-of-stream flush of pending runs and halves.
    Flush,
    /// The checkpoint drain barrier (ingest paused, workers drained).
    CheckpointPause,
    /// The churn drain barrier (all workers parked at the epoch fence).
    ChurnBarrier,
}

impl Stage {
    /// All stages, in display order.
    pub const ALL: [Stage; 8] = [
        Stage::Ingest,
        Stage::ReorderRelease,
        Stage::Route,
        Stage::ProcessBatch,
        Stage::ExpiryDrain,
        Stage::Flush,
        Stage::CheckpointPause,
        Stage::ChurnBarrier,
    ];

    /// Stable snake_case name used by both exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::ReorderRelease => "reorder_release",
            Stage::Route => "route",
            Stage::ProcessBatch => "process_batch",
            Stage::ExpiryDrain => "expiry_drain",
            Stage::Flush => "flush",
            Stage::CheckpointPause => "checkpoint_pause",
            Stage::ChurnBarrier => "churn_barrier",
        }
    }
}

/// One recorded stage span.
///
/// Times are nanoseconds since the recorder's origin (its creation
/// instant), so a fixed run exports stable *relative* timelines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Which stage this span covers.
    pub stage: Stage,
    /// Lane (0 = ingest thread, `1 + i` = worker `i` by convention).
    pub lane: u32,
    /// Start offset from the recorder origin, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Event-time watermark at record time, if one existed.
    pub watermark: Option<u64>,
    /// Batch size the stage handled (0 when not applicable).
    pub batch: u64,
}

/// An opaque start token handed out by [`SpanRecorder::start`].
///
/// Holds the start offset; the sentinel value marks a token from a
/// disabled recorder so `record` can bail without a clock read.
#[derive(Clone, Copy, Debug)]
pub struct SpanStart(u64);

const DISABLED: u64 = u64::MAX;

/// Fixed-capacity drop-oldest ring of spans for one lane.
struct Ring {
    buf: Vec<Span>,
    cap: usize,
    /// Index of the oldest element once the ring is full.
    head: usize,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
        }
    }

    /// Push a span; returns `true` if an old span was overwritten.
    fn push(&mut self, span: Span) -> bool {
        if self.buf.len() < self.cap {
            self.buf.push(span);
            false
        } else {
            self.buf[self.head] = span;
            self.head = (self.head + 1) % self.cap;
            true
        }
    }

    /// Spans in chronological (insertion) order.
    fn snapshot(&self) -> Vec<Span> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// Per-lane span recorder with bounded memory.
///
/// Each lane has exactly one writer (the ingest thread or one worker),
/// so the hot path uses `try_lock` and never blocks: the only possible
/// contention is a concurrent [`snapshot`](SpanRecorder::snapshot)
/// from the metrics thread, in which case the span is counted in
/// [`dropped`](SpanRecorder::dropped) instead of stalling the worker.
/// Rings drop their oldest span when full (also counted as dropped),
/// so memory is `lanes x capacity x sizeof(Span)` forever.
///
/// A recorder built with [`SpanRecorder::disabled`] (or capacity 0)
/// never reads the clock; `start`/`record` are branch-and-return.
pub struct SpanRecorder {
    origin: Instant,
    lanes: Vec<Mutex<Ring>>,
    dropped: AtomicU64,
    cap: usize,
}

impl SpanRecorder {
    /// A recorder with `lanes` rings of `capacity` spans each.
    pub fn new(lanes: usize, capacity: usize) -> Self {
        let n = if capacity == 0 { 0 } else { lanes };
        SpanRecorder {
            // hamlet-lint: allow(wallclock) -- the recorder origin anchors span offsets; obs is the sanctioned clock site
            origin: Instant::now(),
            lanes: (0..n).map(|_| Mutex::new(Ring::new(capacity))).collect(),
            dropped: AtomicU64::new(0),
            cap: capacity,
        }
    }

    /// A recorder that records nothing and never reads the clock.
    pub fn disabled() -> Self {
        SpanRecorder::new(0, 0)
    }

    /// Whether this recorder records anything at all.
    pub fn is_enabled(&self) -> bool {
        !self.lanes.is_empty()
    }

    /// Ring capacity per lane.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Begin a span. Costs one clock read when enabled, nothing when
    /// disabled.
    pub fn start(&self) -> SpanStart {
        if self.lanes.is_empty() {
            return SpanStart(DISABLED);
        }
        // hamlet-lint: allow(wallclock) -- span start stamp; obs is the sanctioned clock site
        let now = Instant::now();
        SpanStart(saturating_ns(now.duration_since(self.origin).as_nanos()))
    }

    /// Finish and store a span started with [`start`](Self::start).
    ///
    /// `lane` out of range, a disabled recorder, or a start token from
    /// a disabled recorder are all no-ops (the first counts toward
    /// `dropped` so misconfiguration is visible).
    pub fn record(
        &self,
        lane: u32,
        stage: Stage,
        start: SpanStart,
        watermark: Option<u64>,
        batch: u64,
    ) {
        if self.lanes.is_empty() || start.0 == DISABLED {
            return;
        }
        let Some(ring) = self.lanes.get(lane as usize) else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        // hamlet-lint: allow(wallclock) -- span end stamp; obs is the sanctioned clock site
        let now = Instant::now();
        let end_ns = saturating_ns(now.duration_since(self.origin).as_nanos());
        let span = Span {
            stage,
            lane,
            start_ns: start.0,
            dur_ns: end_ns.saturating_sub(start.0),
            watermark,
            batch,
        };
        match ring.try_lock() {
            Ok(mut r) => {
                if r.push(span) {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            // A snapshot holds the lock: shed the span rather than
            // stall the single writer of this lane.
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Spans dropped so far (ring overwrite + snapshot contention +
    /// out-of-range lanes).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Collect every retained span, sorted by `(start_ns, lane)`.
    ///
    /// Takes each lane lock blocking (cold path); a writer racing this
    /// call sheds at most the spans recorded while its own lane is
    /// held.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for lane in &self.lanes {
            let ring = lane.lock().unwrap_or_else(PoisonError::into_inner);
            out.extend(ring.snapshot());
        }
        out.sort_by_key(|s| (s.start_ns, s.lane));
        out
    }
}

/// Clamp a `u128` nanosecond count into `u64` (584 years of run time).
fn saturating_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(lane: u32, start_ns: u64) -> Span {
        Span {
            stage: Stage::ProcessBatch,
            lane,
            start_ns,
            dur_ns: 1,
            watermark: None,
            batch: 0,
        }
    }

    #[test]
    fn ring_drops_oldest_and_stays_bounded() {
        let mut ring = Ring::new(3);
        assert!(!ring.push(span(0, 1)));
        assert!(!ring.push(span(0, 2)));
        assert!(!ring.push(span(0, 3)));
        assert!(ring.push(span(0, 4)));
        assert!(ring.push(span(0, 5)));
        let got: Vec<u64> = ring.snapshot().iter().map(|s| s.start_ns).collect();
        assert_eq!(got, vec![3, 4, 5]);
        assert_eq!(ring.buf.len(), 3);
        assert_eq!(ring.buf.capacity(), 3);
    }

    #[test]
    fn recorder_never_exceeds_capacity() {
        let rec = SpanRecorder::new(2, 8);
        for i in 0..1000 {
            let t = rec.start();
            rec.record(i % 2, Stage::Route, t, Some(i as u64), 1);
        }
        let spans = rec.snapshot();
        assert!(spans.len() <= 16, "got {} spans", spans.len());
        assert_eq!(rec.dropped(), 1000 - spans.len() as u64);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = SpanRecorder::disabled();
        assert!(!rec.is_enabled());
        let t = rec.start();
        rec.record(0, Stage::Ingest, t, None, 0);
        assert!(rec.snapshot().is_empty());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn out_of_range_lane_counts_as_dropped() {
        let rec = SpanRecorder::new(1, 4);
        let t = rec.start();
        rec.record(7, Stage::Flush, t, None, 0);
        assert!(rec.snapshot().is_empty());
        assert_eq!(rec.dropped(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_tagged() {
        let rec = SpanRecorder::new(3, 4);
        for lane in [2u32, 0, 1] {
            let t = rec.start();
            rec.record(lane, Stage::ProcessBatch, t, Some(42), 9);
        }
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 3);
        for w in spans.windows(2) {
            assert!((w[0].start_ns, w[0].lane) <= (w[1].start_ns, w[1].lane));
        }
        assert!(spans
            .iter()
            .all(|s| s.watermark == Some(42) && s.batch == 9));
    }
}
