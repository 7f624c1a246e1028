//! Pipeline-level checkpoints: everything a live pipeline must persist
//! to resume after a crash or planned restart.
//!
//! A pipeline's durable state spans three layers:
//!
//! 1. **Engines** — one serialized
//!    [`HamletEngine`](hamlet_core::HamletEngine) checkpoint per shard
//!    worker (open windows, snapshot tables, watermark, counters);
//! 2. **Reorder buffer** — events the ingest stage pulled but had not
//!    yet released past the watermark;
//! 3. **Source cursor** — how many events were pulled from the source,
//!    so a replayable source can be repositioned, plus the maximum event
//!    time observed (the watermark seed for the resumed policy).
//!
//! [`PipelineHandle::checkpoint`](crate::PipelineHandle::checkpoint)
//! and every cut of a running pipeline produce one;
//! [`PipelineBuilder::resume_from`](crate::PipelineBuilder::resume_from)
//! consumes a chain of them from a store. The container serializes through the same hand-rolled
//! versioned codec as the engine blobs
//! ([`hamlet_core::checkpoint`]), so a checkpoint written to disk by one
//! process restores cleanly in another.

use hamlet_core::checkpoint::{CheckpointError, Codec, Dec};
use hamlet_types::{Event, Ts};
use std::time::Duration;

/// Magic tag opening a serialized pipeline checkpoint.
pub const PIPELINE_MAGIC: [u8; 4] = *b"HMPL";
/// Pipeline checkpoint format version. v2 appends the accumulated run
/// time (nanoseconds) so a resumed pipeline's `elapsed`/`ingest_eps()`
/// report the whole logical run; v1 blobs still restore (elapsed
/// restarts at zero).
pub const PIPELINE_VERSION: u16 = 2;
/// Previous pipeline checkpoint version, still accepted on read.
const PIPELINE_VERSION_V1: u16 = 1;

/// Durable state of a quiesced pipeline (see the module docs for the
/// three layers). Obtain one via
/// [`PipelineHandle::checkpoint`](crate::PipelineHandle::checkpoint), or
/// decode a stored record with [`from_bytes`](Self::from_bytes).
pub struct PipelineCheckpoint {
    /// Per-shard engine blobs (index = shard); their number is the
    /// worker count.
    pub(crate) engines: Vec<Vec<u8>>,
    /// Reorder-buffer events not yet released, in `(time, arrival)`
    /// order.
    pub(crate) buffered: Vec<Event>,
    /// Events pulled from the source before the barrier (the cursor a
    /// replayable source must skip to on resume — late drops included).
    pub(crate) events_pulled: u64,
    /// Maximum event time observed — seeds the resumed watermark policy.
    pub(crate) max_seen: Option<Ts>,
    /// Counter continuity: ingested / late / released / results at the
    /// barrier, carried into the resumed pipeline's metrics.
    pub(crate) counters: [u64; 4],
    /// Wall time the logical run had accumulated at the barrier (this
    /// incarnation plus any it resumed from) — carried so the resumed
    /// pipeline's `elapsed` keeps counting instead of restarting.
    pub(crate) elapsed: Duration,
}

impl PipelineCheckpoint {
    /// Worker count the checkpoint was taken under. A checkpoint only
    /// resumes under the same sharding (partition ownership depends on
    /// it); this is validated on resume.
    pub fn workers(&self) -> u32 {
        self.engines.len() as u32
    }

    /// Events pulled from the source before the barrier. On resume, hand
    /// [`PipelineBuilder::resume_from`](crate::PipelineBuilder::resume_from)
    /// a source positioned *after* these events (e.g. a
    /// [`ReplaySource`](crate::ReplaySource) over `events[cursor..]`);
    /// the events the barrier caught in the reorder buffer travel inside
    /// the checkpoint and are re-injected automatically.
    pub fn events_pulled(&self) -> u64 {
        self.events_pulled
    }

    /// Events frozen inside the reorder buffer.
    pub fn buffered_len(&self) -> usize {
        self.buffered.len()
    }

    /// Serialized size of the per-shard engine state, in bytes.
    pub fn engine_bytes(&self) -> usize {
        self.engines.iter().map(Vec::len).sum()
    }

    /// Wall time the logical run had accumulated when the checkpoint was
    /// taken (zero for blobs written before format v2).
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Serializes the container for file persistence.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = hamlet_core::checkpoint::container_header(
            &PIPELINE_MAGIC,
            PIPELINE_VERSION,
            self.workers(),
            &self.engines,
        );
        self.buffered.encode(&mut e);
        self.events_pulled.encode(&mut e);
        self.max_seen.encode(&mut e);
        self.counters.encode(&mut e);
        // v2 tail: accumulated run time, saturated to u64 nanoseconds.
        self.elapsed.encode(&mut e);
        e.finish()
    }

    /// Mirror of [`to_bytes`](Self::to_bytes); a v1 container has no
    /// accumulated run time.
    pub fn from_bytes(bytes: &[u8]) -> Result<PipelineCheckpoint, CheckpointError> {
        let mut d = Dec::new(bytes);
        let (version, _, engines) = hamlet_core::checkpoint::read_container_any(
            &mut d,
            &PIPELINE_MAGIC,
            &[PIPELINE_VERSION, PIPELINE_VERSION_V1],
        )?;
        let buffered = Codec::decode(&mut d)?;
        let events_pulled = Codec::decode(&mut d)?;
        let max_seen = Codec::decode(&mut d)?;
        let counters = Codec::decode(&mut d)?;
        let elapsed = if version >= PIPELINE_VERSION {
            Codec::decode(&mut d)?
        } else {
            Duration::ZERO
        };
        d.expect_end()?;
        Ok(PipelineCheckpoint {
            engines: engines.into_iter().map(<[u8]>::to_vec).collect(),
            buffered,
            events_pulled,
            max_seen,
            counters,
            elapsed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_types::EventTypeId;

    #[test]
    fn container_round_trips() {
        let ck = PipelineCheckpoint {
            engines: vec![vec![1, 2, 3], vec![4]],
            buffered: vec![Event::new(Ts(9), EventTypeId(1), vec![])],
            events_pulled: 42,
            max_seen: Some(Ts(11)),
            counters: [42, 1, 40, 7],
            elapsed: Duration::from_millis(1234),
        };
        let blob = ck.to_bytes();
        let back = PipelineCheckpoint::from_bytes(&blob).unwrap();
        assert_eq!(back.workers(), 2);
        assert_eq!(back.engines, ck.engines);
        assert_eq!(back.buffered, ck.buffered);
        assert_eq!(back.events_pulled(), 42);
        assert_eq!(back.buffered_len(), 1);
        assert_eq!(back.engine_bytes(), 4);
        assert_eq!(back.max_seen, Some(Ts(11)));
        assert_eq!(back.counters, ck.counters);
        assert_eq!(back.elapsed(), Duration::from_millis(1234));
    }

    /// A v1 blob (no elapsed tail) still restores, with elapsed zero.
    #[test]
    fn v1_blob_restores_with_zero_elapsed() {
        let ck = PipelineCheckpoint {
            engines: vec![vec![7]],
            buffered: vec![],
            events_pulled: 3,
            max_seen: None,
            counters: [3, 0, 3, 1],
            elapsed: Duration::from_secs(5),
        };
        // Re-encode by hand as v1: same payload minus the elapsed tail.
        let mut e = hamlet_core::checkpoint::container_header(
            &PIPELINE_MAGIC,
            PIPELINE_VERSION_V1,
            ck.workers(),
            &ck.engines,
        );
        e.usize(0);
        e.u64(ck.events_pulled);
        e.some(false);
        for c in ck.counters {
            e.u64(c);
        }
        let blob = e.finish();
        let back = PipelineCheckpoint::from_bytes(&blob).unwrap();
        assert_eq!(back.counters, ck.counters);
        assert_eq!(back.elapsed(), Duration::ZERO);
    }

    #[test]
    fn garbage_and_truncation_fail_cleanly() {
        assert!(matches!(
            PipelineCheckpoint::from_bytes(b"????"),
            Err(CheckpointError::BadMagic)
        ));
        let ck = PipelineCheckpoint {
            engines: vec![vec![]],
            buffered: vec![],
            events_pulled: 0,
            max_seen: None,
            counters: [0; 4],
            elapsed: Duration::ZERO,
        };
        let blob = ck.to_bytes();
        assert!(PipelineCheckpoint::from_bytes(&blob[..blob.len() - 1]).is_err());
    }
}
