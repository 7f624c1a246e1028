//! Event sources: where a live pipeline's events come from.
//!
//! A [`Source`] is a pull-based, possibly unbounded supplier of events.
//! The pipeline's ingest thread owns it and pulls one event at a time;
//! pulling stops when the source ends ([`Source::next_event`] returns
//! `None`) or the pipeline is stopped or frozen. Because the ingest thread feeds
//! *bounded* channels, a source is naturally backpressured: when the
//! engine falls behind, `next_event` simply is not called — a paced
//! source (e.g. [`RateLimitedSource`]) then measures real queueing
//! latency instead of buffering the world.

use hamlet_types::Event;
use std::time::{Duration, Instant};

/// An unbounded (or finite) supplier of stream events.
///
/// Implementations may block inside [`next_event`](Self::next_event)
/// (pacing, polling an external feed); the pipeline treats a `None` as
/// end-of-stream: it flushes everything pulled through to the sink and
/// waits to be told how the run ends.
pub trait Source: Send {
    /// The next event, or `None` at end of stream.
    fn next_event(&mut self) -> Option<Event>;
}

/// A boxed source is a source, so a caller can pick one at run time.
impl<S: Source + ?Sized> Source for Box<S> {
    fn next_event(&mut self) -> Option<Event> {
        (**self).next_event()
    }
}

/// Replays a pre-materialized stream — the adapter that connects the
/// `hamlet-stream` generators (or any recorded trace) to the pipeline.
///
/// ```
/// use hamlet_pipeline::{ReplaySource, Source};
/// use hamlet_types::{Event, Ts, EventTypeId};
/// let mut s = ReplaySource::new(vec![Event::new(Ts(0), EventTypeId(0), vec![])]);
/// assert!(s.next_event().is_some());
/// assert!(s.next_event().is_none());
/// ```
pub struct ReplaySource {
    events: std::vec::IntoIter<Event>,
}

impl ReplaySource {
    /// Replays `events` in order.
    pub fn new(events: Vec<Event>) -> Self {
        ReplaySource {
            events: events.into_iter(),
        }
    }
}

impl Source for ReplaySource {
    fn next_event(&mut self) -> Option<Event> {
        self.events.next()
    }
}

/// Paces an inner source to a sustained offered rate (events per second
/// of *wall-clock* time) — the driver for latency-under-load experiments
/// (`fig_latency`): below engine capacity the pipeline's p99 stays flat,
/// at capacity the bounded queues fill and latency measures backpressure.
///
/// Pacing is absolute, not inter-event: event `i` is released no earlier
/// than `start + i/rate`, so a slow consumer does not lower the offered
/// rate of later events (the source "catches up" — an open-loop load
/// model).
pub struct RateLimitedSource<S> {
    inner: S,
    events_per_sec: f64,
    started: Option<Instant>,
    emitted: u64,
}

impl<S: Source> RateLimitedSource<S> {
    /// Paces `inner` to `events_per_sec` (must be positive and finite).
    pub fn new(inner: S, events_per_sec: f64) -> Self {
        assert!(
            events_per_sec.is_finite() && events_per_sec > 0.0,
            "offered rate must be positive and finite"
        );
        RateLimitedSource {
            inner,
            events_per_sec,
            started: None,
            emitted: 0,
        }
    }
}

impl<S: Source> Source for RateLimitedSource<S> {
    fn next_event(&mut self) -> Option<Event> {
        let e = self.inner.next_event()?;
        // hamlet-lint: allow(wallclock) -- the paced source's purpose is metering real time; event timestamps are untouched
        let start = *self.started.get_or_insert_with(Instant::now);
        let target = start + Duration::from_secs_f64(self.emitted as f64 / self.events_per_sec);
        loop {
            // hamlet-lint: allow(wallclock) -- the paced source's purpose is metering real time; event timestamps are untouched
            let now = Instant::now();
            if now >= target {
                break;
            }
            let left = target - now;
            if left > Duration::from_micros(200) {
                // Coarse sleep, then spin the tail for sub-ms precision.
                std::thread::sleep(left - Duration::from_micros(100));
            } else {
                std::hint::spin_loop();
            }
        }
        self.emitted += 1;
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_types::{EventTypeId, Ts};

    fn evs(n: u64) -> Vec<Event> {
        (0..n)
            .map(|t| Event::new(Ts(t), EventTypeId(0), vec![]))
            .collect()
    }

    #[test]
    fn replay_yields_all_in_order() {
        let mut s = ReplaySource::new(evs(5));
        let mut got = Vec::new();
        while let Some(e) = s.next_event() {
            got.push(e.time.ticks());
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(s.next_event().is_none(), "stays exhausted");
    }

    #[test]
    fn rate_limit_paces_wall_clock() {
        // 200 events at 10k/s must take >= 20ms minus the first event's
        // free release; generous upper bound for noisy hosts.
        let mut s = RateLimitedSource::new(ReplaySource::new(evs(200)), 10_000.0);
        let t0 = Instant::now();
        let mut n = 0;
        while s.next_event().is_some() {
            n += 1;
        }
        let wall = t0.elapsed();
        assert_eq!(n, 200);
        assert!(wall >= Duration::from_millis(18), "too fast: {wall:?}");
        assert!(wall < Duration::from_secs(5), "too slow: {wall:?}");
    }

    #[test]
    #[should_panic(expected = "offered rate must be positive")]
    fn zero_rate_rejected() {
        let _ = RateLimitedSource::new(ReplaySource::new(vec![]), 0.0);
    }
}
