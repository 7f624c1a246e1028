//! Out-of-order ingestion: watermark generation and the reorder stage.
//!
//! The pipeline accepts streams where an event may trail the running
//! timestamp maximum by a bounded amount (the bounded-delay network
//! model — `hamlet_stream::bounded_delay_shuffle` produces exactly such
//! streams). A [`WatermarkPolicy`] turns arrivals into a monotone
//! event-time watermark; the [`ReorderBuffer`] holds events back until
//! the watermark passes them and releases them in timestamp order. If
//! the stream's true lateness is within the policy's slack, the engine
//! downstream sees a perfectly in-order stream — which is what makes the
//! online pipeline's output provably identical to an offline run
//! (`tests/pipeline_equivalence.rs`).
//!
//! Events that arrive *behind* the watermark are late: they are counted,
//! handed to the dead-letter hook, and never fed to the engine (whose own
//! [`late_skips`](hamlet_core::EngineStats::late_skips) guard is the
//! second line of defense).
//!
//! The buffer keeps one arrival-ordered bucket per distinct timestamp and
//! recycles the buckets it empties, so neither holding nor releasing an
//! event allocates once the buffer is warm. The ingest stage does not
//! touch it at all for an event that is already in order — nothing held
//! and the watermark at or past the event: that event passes straight
//! through to routing, a compare instead of a push and a release.

use hamlet_types::{Event, Ts};
use std::collections::BTreeMap;
use std::time::Instant;

/// Generates the pipeline's event-time watermark from arrivals.
///
/// The contract: the watermark is monotone, and after observing an
/// arrival every buffered event with `time <= watermark` may be released
/// in timestamp order — the policy promises no future on-time arrival
/// will carry a smaller timestamp.
pub trait WatermarkPolicy: Send {
    /// Observes an arriving event time; returns the watermark after it.
    fn observe(&mut self, t: Ts) -> Ts;

    /// Current watermark (`None` before the first observation).
    fn current(&self) -> Option<Ts>;
}

/// Bounded-lateness watermark: `max observed time − slack` ticks.
///
/// `slack = 0` degenerates to a strictly-ascending policy (every event
/// is released immediately; any out-of-order event is late) — the right
/// setting for in-order streams, adding zero reorder latency.
#[derive(Clone, Debug)]
pub struct BoundedLateness {
    slack: u64,
    max_seen: Option<Ts>,
}

impl BoundedLateness {
    /// Tolerates events up to `slack` ticks behind the stream maximum.
    pub fn new(slack: u64) -> Self {
        BoundedLateness {
            slack,
            max_seen: None,
        }
    }

    /// The configured slack, in ticks.
    pub fn slack(&self) -> u64 {
        self.slack
    }
}

impl WatermarkPolicy for BoundedLateness {
    fn observe(&mut self, t: Ts) -> Ts {
        let max = match self.max_seen {
            Some(m) if m >= t => m,
            _ => {
                self.max_seen = Some(t);
                t
            }
        };
        Ts(max.ticks().saturating_sub(self.slack))
    }

    fn current(&self) -> Option<Ts> {
        self.max_seen
            .map(|m| Ts(m.ticks().saturating_sub(self.slack)))
    }
}

/// An event held by the reorder stage, with its ingest stamp.
type Held = (Event, Instant);

/// Buffers out-of-order events until the watermark passes them, then
/// releases them in `(timestamp, arrival)` order.
///
/// Arrival order breaks timestamp ties, so a stream whose ties were
/// never reordered in flight (the bounded-delay model) is reconstructed
/// *exactly* — byte-identical inputs to the engine, not merely
/// time-sorted ones.
///
/// One arrival-ordered bucket per distinct timestamp: a release pops
/// whole buckets off the front of the map, and an emptied bucket is kept
/// for the next new timestamp, so a warm buffer fed through
/// [`release_into`](Self::release_into) allocates nothing per event.
#[derive(Default)]
pub struct ReorderBuffer {
    /// `event time → the events at that time, in arrival order`.
    held: BTreeMap<u64, Vec<Held>>,
    /// Emptied buckets, capacity kept.
    spare: Vec<Vec<Held>>,
    len: usize,
}

impl ReorderBuffer {
    /// New empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers one event with its ingest stamp (for end-to-end latency).
    pub fn push(&mut self, e: Event, arrival: Instant) {
        (self.held.entry(e.time.ticks()))
            .or_insert_with(|| self.spare.pop().unwrap_or_default())
            .push((e, arrival));
        self.len += 1;
    }

    /// Appends every buffered event with `time <= watermark` to `out`,
    /// in `(time, arrival)` order.
    pub fn release_into(&mut self, watermark: Ts, out: &mut Vec<Held>) {
        let wm = watermark.ticks();
        while let Some(entry) = self.held.first_entry().filter(|e| *e.key() <= wm) {
            let mut bucket = entry.remove();
            self.len -= bucket.len();
            out.append(&mut bucket);
            self.spare.push(bucket);
        }
    }

    /// Releases every buffered event with `time <= watermark`, in
    /// `(time, arrival)` order.
    pub fn release(&mut self, watermark: Ts) -> Vec<Held> {
        let mut out = Vec::new();
        self.release_into(watermark, &mut out);
        out
    }

    /// Releases everything (end of stream / drain), in order.
    pub fn drain(&mut self) -> Vec<Held> {
        self.release(Ts(u64::MAX))
    }

    /// The buffered events in release order, without draining them —
    /// what a checkpoint cut freezes while the pipeline keeps running.
    pub fn contents(&self) -> Vec<Event> {
        self.held.values().flatten().map(|h| h.0.clone()).collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_types::EventTypeId;

    fn ev(t: u64) -> Event {
        Event::new(Ts(t), EventTypeId(0), vec![])
    }

    #[test]
    fn bounded_lateness_tracks_max_minus_slack() {
        let mut p = BoundedLateness::new(5);
        assert_eq!(p.current(), None);
        assert_eq!(p.observe(Ts(3)), Ts(0)); // saturates below zero
        assert_eq!(p.observe(Ts(20)), Ts(15));
        // Out-of-order arrival does not rewind the watermark.
        assert_eq!(p.observe(Ts(10)), Ts(15));
        assert_eq!(p.current(), Some(Ts(15)));
        assert_eq!(p.slack(), 5);
    }

    #[test]
    fn zero_slack_is_ascending() {
        let mut p = BoundedLateness::new(0);
        assert_eq!(p.observe(Ts(7)), Ts(7));
        assert_eq!(p.observe(Ts(4)), Ts(7));
    }

    #[test]
    fn reorder_releases_in_time_order() {
        let mut b = ReorderBuffer::new();
        let now = Instant::now();
        for t in [5u64, 3, 8, 3, 1] {
            b.push(ev(t), now);
        }
        assert_eq!(b.len(), 5);
        let out = b.release(Ts(4));
        let times: Vec<u64> = out.iter().map(|(e, _)| e.time.ticks()).collect();
        assert_eq!(times, vec![1, 3, 3], "sorted, ties in arrival order");
        assert_eq!(b.len(), 2);
        let rest = b.drain();
        assert_eq!(
            rest.iter().map(|(e, _)| e.time.ticks()).collect::<Vec<_>>(),
            vec![5, 8]
        );
        assert!(b.is_empty());
    }

    #[test]
    fn ties_preserve_arrival_order() {
        let mut b = ReorderBuffer::new();
        let now = Instant::now();
        let mut tagged = Vec::new();
        for i in 0..10u64 {
            let mut e = ev(4);
            e.attrs = vec![hamlet_types::AttrValue::Int(i as i64)];
            tagged.push(e.clone());
            b.push(e, now);
        }
        let out = b.release(Ts(4));
        assert_eq!(
            out.into_iter().map(|(e, _)| e).collect::<Vec<_>>(),
            tagged,
            "equal timestamps must come back in push order"
        );
    }

    #[test]
    fn max_watermark_drains_everything() {
        let mut b = ReorderBuffer::new();
        b.push(ev(u64::MAX), Instant::now());
        b.push(ev(2), Instant::now());
        let out = b.release(Ts(u64::MAX));
        assert_eq!(out.len(), 2);
        assert!(b.is_empty());
    }

    /// The reorder buffer as one map entry per event, keyed `(time,
    /// arrival sequence)`: the release order the bucketed buffer must
    /// reproduce, event for event.
    #[derive(Default)]
    struct Oracle {
        held: BTreeMap<(u64, u64), Held>,
        seq: u64,
    }

    impl Oracle {
        fn push(&mut self, e: Event, arrival: Instant) {
            self.held.insert((e.time.ticks(), self.seq), (e, arrival));
            self.seq += 1;
        }

        fn release(&mut self, watermark: Ts) -> Vec<Held> {
            let wm = watermark.ticks();
            let rest = match wm.checked_add(1) {
                Some(next) => self.held.split_off(&(next, 0)),
                None => BTreeMap::new(),
            };
            std::mem::replace(&mut self.held, rest)
                .into_values()
                .collect()
        }

        fn contents(&self) -> Vec<Event> {
            self.held.values().map(|(e, _)| e.clone()).collect()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random pushes and releases through both buffers: timestamps
        /// from a small range with many ties, plus `0` and `u64::MAX`;
        /// monotone watermarks with jumps, `u64::MAX` last. After every
        /// step the released sequences (events and stamps), `len` and
        /// `contents` agree, and a fresh buffer fed `contents` — the
        /// resume path — releases them in the same order.
        #[test]
        fn buckets_release_like_the_per_event_map(
            steps in proptest::collection::vec((0u8..3, 0u64..18, 0u64..4), 1..150),
        ) {
            let base = Instant::now();
            let (mut b, mut oracle, mut out) = (ReorderBuffer::new(), Oracle::default(), Vec::new());
            let mut wm = 0u64;
            let last = steps.len() - 1;
            for (i, &(op, t, jump)) in steps.iter().enumerate() {
                if op > 0 && i < last {
                    let t = match t {
                        16 => 0,
                        17 => u64::MAX,
                        t => t,
                    };
                    let mut e = ev(t);
                    e.attrs = vec![hamlet_types::AttrValue::Int(i as i64)];
                    let stamp = base + std::time::Duration::from_nanos(i as u64);
                    b.push(e.clone(), stamp);
                    oracle.push(e, stamp);
                } else {
                    wm = match (i == last, jump) {
                        (true, _) => u64::MAX,
                        (_, 3) => wm + 7,
                        (_, j) => wm + j,
                    };
                    let want = oracle.release(Ts(wm));
                    let got = if i % 2 == 0 {
                        b.release(Ts(wm))
                    } else {
                        out.clear();
                        b.release_into(Ts(wm), &mut out);
                        std::mem::take(&mut out)
                    };
                    proptest::prop_assert_eq!(got, want, "release at {}", wm);
                }
                proptest::prop_assert_eq!(b.len(), oracle.held.len());
                proptest::prop_assert_eq!(b.is_empty(), oracle.held.is_empty());
                let contents = b.contents();
                proptest::prop_assert_eq!(&contents, &oracle.contents());
                let mut resumed = ReorderBuffer::new();
                for e in &contents {
                    resumed.push(e.clone(), base);
                }
                let replayed: Vec<Event> = resumed.drain().into_iter().map(|(e, _)| e).collect();
                proptest::prop_assert_eq!(replayed, contents);
            }
            proptest::prop_assert!(b.is_empty() && oracle.held.is_empty());
        }
    }
}
