//! Checkpoint/restore: a versioned, hand-rolled binary codec for engine
//! state.
//!
//! The engine's value lives entirely in run-local state — snapshot
//! tables, graphlet runs, per-partition aggregates, the monotone
//! watermark. A crash loses every open window unless that state is
//! durable, so [`HamletEngine::checkpoint`](crate::HamletEngine::checkpoint)
//! serializes it into a self-describing byte blob and
//! [`HamletEngine::restore`](crate::HamletEngine::restore) rebuilds a
//! freshly constructed engine from it. This module holds the primitives
//! ([`Enc`]/[`Dec`]), the [`Codec`] trait that gives every stored type
//! one layout (and `codec_struct!`, which derives it for a flat record
//! from its field list), the error type, and the framing every record
//! shares (engine header, delta-chain frame, container header); the
//! engine's record itself — its body, how it is cut and how it is
//! restored — is [`crate::record`].
//!
//! # Guarantees
//!
//! * **Round-trip identity**: `restore(checkpoint())` reproduces the
//!   engine state exactly — continuing the stream after a restore emits
//!   byte-identical results, in identical order, to never having
//!   checkpointed (`tests/checkpoint_equivalence.rs`). Encoding is
//!   deterministic (hash maps are serialized in their canonical total
//!   order), so `checkpoint → restore → checkpoint` is byte-identical
//!   too.
//! * **Versioned**: every blob starts with a magic tag and a format
//!   version; a mismatch is a clean [`CheckpointError`], never a
//!   mis-decode.
//! * **Workload-fingerprinted**: a checkpoint taken under one compiled
//!   workload (share groups, member counts, windows, sharding) refuses
//!   to restore into an engine compiled from a different one.
//!
//! The codec is deliberately dependency-free (the build environment has
//! no crates.io route, so there is no serde): fixed-width little-endian
//! integers, `f64` as IEEE-754 bits, length-prefixed sequences and
//! UTF-8 strings. Wall-clock artifacts (`Instant` arrival stamps) are
//! not serialized — they reset across a restore, which can only affect
//! latency *metrics*, never results.

use hamlet_query::QueryId;
use hamlet_types::{AttrValue, Event, EventTypeId, GroupKey, TrendVal, Ts};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Magic tag opening every engine checkpoint blob.
pub const ENGINE_MAGIC: [u8; 4] = *b"HMEN";
/// Engine checkpoint format version. v4 ended every blob with the
/// per-share-group observability counters; v5 tags the pending-burst
/// record with its representation and writes non-edge bursts as a cell
/// column instead of events; v6 drops the per-group divergence estimator
/// section (placement is priced from the compiled group); v7 writes a run
/// as its difference from a fresh one (the types it wrote, the graphlets
/// it holds, the blocks it set) and drops three fields nothing read. v4–v6
/// blobs still restore: their runs are read as v7 runs with every type
/// written and open and every section present, a v4 blob's buffered
/// events are converted to the representation this build buffers, and a
/// v4–v5 estimator section is checked and discarded. v2 and v3 (never
/// pinned by a fixture) are no longer read (see
/// `docs/checkpoint-format.md`).
pub const ENGINE_VERSION: u16 = 7;

/// The v6 engine format version (every run written densely, plus the
/// fields v7 dropped), still accepted by [`crate::HamletEngine::restore`].
pub const ENGINE_VERSION_V6: u16 = 6;

/// The v5 engine format version (v6 plus an estimator section after each
/// group's partitions), still accepted by [`crate::HamletEngine::restore`].
pub const ENGINE_VERSION_V5: u16 = 5;

/// The v4 engine format version (v5's estimator sections, pending bursts
/// as events plus a count-only tail), still accepted by
/// [`crate::HamletEngine::restore`].
pub const ENGINE_VERSION_V4: u16 = 4;

/// Writes an engine blob's header up to the workload epoch: magic,
/// current version, epoch.
pub fn write_engine_header(e: &mut Enc, epoch: u64) {
    e.raw(&ENGINE_MAGIC);
    e.u16(ENGINE_VERSION);
    e.u64(epoch);
}

/// Mirror of [`write_engine_header`] for every accepted version: reads
/// an engine blob's header up to the workload epoch — magic, version,
/// epoch — and returns `(version, epoch)`. Any version this build does
/// not know is `BadVersion`, read before any state field.
pub fn read_engine_header(d: &mut Dec<'_>) -> Result<(u16, u64), CheckpointError> {
    d.magic(&ENGINE_MAGIC)?;
    match d.u16()? {
        v @ ENGINE_VERSION_V4..=ENGINE_VERSION => Ok((v, d.u64()?)),
        other => Err(CheckpointError::BadVersion(other)),
    }
}

/// Magic tag opening every delta-chain record (`HMDL`): a *base* (a
/// full engine blob re-framed as the root of a chain) or an
/// incremental *delta* (only the partitions, pending halves, and
/// counters touched since the previous cut). See
/// `docs/checkpoint-format.md` for the layout and the chain rules.
pub const DELTA_MAGIC: [u8; 4] = *b"HMDL";
/// Delta-chain record format version. A delta payload is the body of
/// the `HMEN` version of its era: v4 the v7 body, v3 the v6 one, v2 the
/// v5 one, v1 the v4 one; v1–v3 records still restore.
pub const DELTA_VERSION: u16 = 4;

/// The v3 delta-chain record version, still accepted by
/// [`read_delta_frame`].
pub const DELTA_VERSION_V3: u16 = 3;

/// The v2 delta-chain record version, still accepted by
/// [`read_delta_frame`].
pub const DELTA_VERSION_V2: u16 = 2;

/// The v1 delta-chain record version, still accepted by
/// [`read_delta_frame`].
pub const DELTA_VERSION_V1: u16 = 1;

/// Kind byte of an `HMDL` frame carrying a full base snapshot.
pub const DELTA_KIND_BASE: u8 = 0;
/// Kind byte of an `HMDL` frame carrying an incremental delta.
pub const DELTA_KIND_DELTA: u8 = 1;

/// Parsed `HMDL` frame: the chain metadata a store or a
/// [`Checkpoint`](crate::Checkpoint) handle needs without decoding the
/// payload, plus the payload itself (a full engine blob for a base, a
/// delta body for a delta), borrowed from the record.
pub struct DeltaFrame<'a> {
    /// Frame format version (selects the delta payload's run-state
    /// record; a base payload carries its own `HMEN` version).
    pub version: u16,
    /// True for a base record (kind 0), false for a delta (kind 1).
    pub base: bool,
    /// Chain sequence number of this record (monotone per engine).
    pub seq: u64,
    /// Sequence number of the predecessor record (0 before the first).
    pub parent: u64,
    /// Workload epoch the record was cut at.
    pub epoch: u64,
    /// Record payload, opaque at the frame level.
    pub payload: &'a [u8],
}

/// Frames one delta-chain record onto `e`: magic, version, kind, chain
/// position (`seq`/`parent`), epoch, then the length-prefixed payload,
/// which `payload` writes in place.
pub fn write_delta_frame(
    e: &mut Enc,
    base: bool,
    seq: u64,
    parent: u64,
    epoch: u64,
    payload: impl FnOnce(&mut Enc),
) {
    e.raw(&DELTA_MAGIC);
    e.u16(DELTA_VERSION);
    e.u8(if base {
        DELTA_KIND_BASE
    } else {
        DELTA_KIND_DELTA
    });
    e.u64(seq);
    e.u64(parent);
    e.u64(epoch);
    e.bytes_with(payload);
}

/// Mirror of [`write_delta_frame`]: parses and validates the frame,
/// returning the chain metadata and the payload.
pub fn read_delta_frame(bytes: &[u8]) -> Result<DeltaFrame<'_>, CheckpointError> {
    let mut d = Dec::new(bytes);
    d.magic(&DELTA_MAGIC)?;
    let version = d.u16()?;
    if !(DELTA_VERSION_V1..=DELTA_VERSION).contains(&version) {
        return Err(CheckpointError::BadVersion(version));
    }
    let base = match d.u8()? {
        DELTA_KIND_BASE => true,
        DELTA_KIND_DELTA => false,
        k => return Err(CheckpointError::Corrupt(format!("delta record kind {k}"))),
    };
    let seq = d.u64()?;
    let parent = d.u64()?;
    let epoch = d.u64()?;
    let payload = d.bytes()?;
    d.expect_end()?;
    Ok(DeltaFrame {
        version,
        base,
        seq,
        parent,
        epoch,
        payload,
    })
}

/// Errors surfaced while decoding or validating a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob does not start with the expected magic tag.
    BadMagic,
    /// The blob's format version is not one this build understands.
    BadVersion(u16),
    /// The blob ended before the decoder was done.
    UnexpectedEof,
    /// The blob decoded to something structurally invalid.
    Corrupt(String),
    /// The checkpoint's workload fingerprint does not match the engine
    /// it is being restored into.
    WorkloadMismatch(String),
    /// A checkpoint store failed to read or write the underlying
    /// medium (only produced by store implementations, never by the
    /// codec itself).
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::UnexpectedEof => write!(f, "checkpoint truncated"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CheckpointError::WorkloadMismatch(m) => {
                write!(f, "checkpoint does not match this workload: {m}")
            }
            CheckpointError::Io(m) => write!(f, "checkpoint store io error: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Writes the shared checkpoint-*container* header — magic, version,
/// worker count, per-shard record list — used by both the parallel and
/// pipeline containers. The caller appends any container-specific
/// fields to the returned encoder before `finish()`.
pub fn container_header(
    magic: &[u8; 4],
    version: u16,
    workers: u32,
    blobs: &[impl AsRef<[u8]>],
) -> Enc {
    let mut e = Enc::new();
    e.raw(magic);
    e.u16(version);
    e.u32(workers);
    e.usize(blobs.len());
    for b in blobs {
        e.bytes(b.as_ref());
    }
    e
}

/// Mirror of [`container_header`]: checks the magic and that the
/// version is one of `accepted`, reads the worker count and the
/// per-shard records (validating the count matches; the records stay
/// borrowed from the container), and leaves the decoder positioned at
/// the caller's extra fields. Returns which version the blob carries so
/// the caller can branch on tail fields added by later versions.
pub fn read_container_any<'a>(
    d: &mut Dec<'a>,
    magic: &[u8; 4],
    accepted: &[u16],
) -> Result<(u16, u32, Vec<&'a [u8]>), CheckpointError> {
    d.magic(magic)?;
    let v = d.u16()?;
    if !accepted.contains(&v) {
        return Err(CheckpointError::BadVersion(v));
    }
    let workers = d.u32()?;
    let n = d.seq_len()?;
    if n != workers as usize {
        return Err(CheckpointError::Corrupt(format!(
            "{n} shard blobs for {workers} workers"
        )));
    }
    let mut blobs = Vec::with_capacity(n);
    for _ in 0..n {
        blobs.push(d.bytes()?);
    }
    Ok((v, workers, blobs))
}

/// Binary encoder: appends fixed-width little-endian primitives and
/// length-prefixed composites to a growable buffer.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// New empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Finishes encoding and hands back the blob.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Raw bytes, verbatim.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` as a `u64` (the format is 64-bit everywhere).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Two's-complement `i64`.
    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    /// IEEE-754 bits of an `f64` (bit-exact, `NaN`s included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.raw(s.as_bytes());
    }

    /// Length-prefixed byte blob.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.raw(b);
    }

    /// Length-prefixed byte blob written in place: `fill` appends the
    /// blob and the prefix is patched in after it — [`bytes`](Self::bytes)
    /// without first building the blob in a buffer of its own.
    pub fn bytes_with(&mut self, fill: impl FnOnce(&mut Enc)) {
        let at = self.buf.len();
        self.usize(0);
        fill(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// `Option` presence tag, handed back: the caller encodes the payload
    /// iff it is `true` (as [`Dec::some`] hands the read tag back).
    pub fn some(&mut self, present: bool) -> bool {
        self.bool(present);
        present
    }
}

/// Binary decoder over a checkpoint blob; the mirror of [`Enc`].
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Starts decoding a blob.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed — trailing garbage means the
    /// blob was not produced by this format.
    pub fn expect_end(&self) -> Result<(), CheckpointError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt(format!(
                "{} trailing byte(s)",
                self.remaining()
            )))
        }
    }

    /// Consumes and checks a 4-byte magic tag.
    pub fn magic(&mut self, expected: &[u8; 4]) -> Result<(), CheckpointError> {
        if self.take(4).map_err(|_| CheckpointError::BadMagic)? == expected {
            Ok(())
        } else {
            Err(CheckpointError::BadMagic)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads past an 8-byte field iff `present`: one an older layout
    /// carries and this build no longer keeps.
    pub(crate) fn skip_word(&mut self, present: bool) -> Result<(), CheckpointError> {
        self.take(if present { 8 } else { 0 }).map(drop)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CheckpointError> {
        let b = self
            .take(2)?
            .try_into()
            .map_err(|_| CheckpointError::UnexpectedEof)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self
            .take(4)?
            .try_into()
            .map_err(|_| CheckpointError::UnexpectedEof)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self
            .take(8)?
            .try_into()
            .map_err(|_| CheckpointError::UnexpectedEof)?;
        Ok(u64::from_le_bytes(b))
    }

    /// `usize` (bounded by the blob length to refuse absurd
    /// length prefixes before any allocation).
    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CheckpointError::Corrupt(format!("length {v} overflows")))
    }

    /// A sequence length, sanity-bounded by the bytes that remain (every
    /// element costs at least one byte).
    pub fn seq_len(&mut self) -> Result<usize, CheckpointError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(CheckpointError::Corrupt(format!(
                "sequence of {n} elements in {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Two's-complement `i64`.
    pub fn i64(&mut self) -> Result<i64, CheckpointError> {
        Ok(self.u64()? as i64)
    }

    /// `f64` from IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Boolean (rejects anything but 0/1).
    pub fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CheckpointError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CheckpointError> {
        let n = self.seq_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CheckpointError::Corrupt(format!("invalid utf-8: {e}")))
    }

    /// Length-prefixed byte blob, borrowed from the input.
    pub fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let n = self.seq_len()?;
        self.take(n)
    }

    /// `Option` presence tag.
    pub fn some(&mut self) -> Result<bool, CheckpointError> {
        self.bool()
    }
}

/// One description of a stored value's bytes: `encode` writes its layout
/// and `decode` reads that layout back, so every type has one way to be
/// written. Implemented below for the primitives, the shared value types
/// and the generic compositions (`Option`, `Vec`, tuples, fixed arrays);
/// a flat record derives both directions from one field list with
/// `codec_struct!`. A decoder that needs context to *check* what it
/// read (a compiled shape, a snapshot count) decodes plainly first and
/// checks after.
pub trait Codec: Sized {
    /// Appends the value's bytes.
    fn encode(&self, e: &mut Enc);
    /// Reads one value; bytes that are not one are an error, never a
    /// panic.
    fn decode(d: &mut Dec<'_>) -> Result<Self, CheckpointError>;
}

/// Fixed-width primitives: the `Enc`/`Dec` method named after the type.
/// These and the derived record codecs are `#[inline]`: a restore makes
/// millions of such calls, and out of line they cost it ~10%.
macro_rules! primitive_codec {
    ($($t:ident),*) => {$(
        impl Codec for $t {
            #[inline]
            fn encode(&self, e: &mut Enc) {
                e.$t(*self);
            }
            #[inline]
            fn decode(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
                d.$t()
            }
        }
    )*};
}

primitive_codec!(u8, u16, u32, u64, usize, i64, f64, bool);

/// Derives [`Codec`] for a flat record from one list of its fields:
/// `encode` writes them in the order listed and `decode` reads them back
/// in that order, so the two directions cannot drift apart. Every field
/// is listed (the decoder builds the record with a struct literal); one
/// stored in another type's layout names that type after `as`, reached
/// through `From` both ways.
///
/// ```text
/// codec_struct!(LatencyRecorder { total, max, count });
/// codec_struct!(Cell { mask as u64, val });
/// codec_struct!(Ts { 0 });
/// ```
macro_rules! codec_struct {
    (@put $e:ident, $v:expr) => {
        $crate::checkpoint::Codec::encode(&$v, $e)
    };
    (@put $e:ident, $v:expr, $wire:ty) => {
        $crate::checkpoint::Codec::encode(&<$wire>::from($v), $e)
    };
    (@get $d:ident) => {
        $crate::checkpoint::Codec::decode($d)?
    };
    (@get $d:ident, $wire:ty) => {
        <$wire as $crate::checkpoint::Codec>::decode($d)?.into()
    };
    ($ty:ty { $($field:tt $(as $wire:ty)?),* $(,)? }) => {
        impl $crate::checkpoint::Codec for $ty {
            #[inline]
            fn encode(&self, e: &mut $crate::checkpoint::Enc) {
                $($crate::checkpoint::codec_struct!(@put e, self.$field $(, $wire)?);)*
            }
            #[inline]
            fn decode(
                d: &mut $crate::checkpoint::Dec<'_>,
            ) -> Result<Self, $crate::checkpoint::CheckpointError> {
                Ok(Self { $($field: $crate::checkpoint::codec_struct!(@get d $(, $wire)?)),* })
            }
        }
    };
}

pub(crate) use codec_struct;

codec_struct!(Ts { 0 });
codec_struct!(TrendVal { 0 });
codec_struct!(EventTypeId { 0 });
codec_struct!(QueryId { 0 });
codec_struct!(GroupKey { 0 });
codec_struct!(Event { time, ty, attrs });

/// Whole nanoseconds as a `u64`, saturating at `u64::MAX` (≈ 584 years —
/// far beyond any run this engine measures).
impl Codec for Duration {
    fn encode(&self, e: &mut Enc) {
        u64::try_from(self.as_nanos()).unwrap_or(u64::MAX).encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        Ok(Duration::from_nanos(u64::decode(d)?))
    }
}

/// A `u8` tag (`0` Int, `1` Float, `2` Str), then the payload.
impl Codec for AttrValue {
    fn encode(&self, e: &mut Enc) {
        e.u8(match self {
            AttrValue::Int(_) => 0,
            AttrValue::Float(_) => 1,
            AttrValue::Str(_) => 2,
        });
        match self {
            AttrValue::Int(i) => e.i64(*i),
            AttrValue::Float(f) => e.f64(*f),
            AttrValue::Str(s) => e.str(s),
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        match d.u8()? {
            0 => Ok(AttrValue::Int(d.i64()?)),
            1 => Ok(AttrValue::Float(d.f64()?)),
            2 => Ok(AttrValue::Str(Arc::from(d.str()?.as_str()))),
            t => Err(CheckpointError::Corrupt(format!("attr tag {t}"))),
        }
    }
}

/// A `bool` presence tag; the payload follows iff it is `1`.
impl<T: Codec> Codec for Option<T> {
    fn encode(&self, e: &mut Enc) {
        e.some(self.is_some());
        if let Some(v) = self {
            v.encode(e);
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        Ok(if d.some()? { Some(T::decode(d)?) } else { None })
    }
}

/// A `u64` element count, then the elements back to back. The count is
/// read through [`Dec::seq_len`], so nothing is allocated for a length
/// the remaining bytes cannot hold.
impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, e: &mut Enc) {
        e.usize(self.len());
        for v in self {
            v.encode(e);
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        let n = d.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

/// `N` elements back to back, no count: the length is the type's.
impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    fn encode(&self, e: &mut Enc) {
        self.iter().for_each(|v| v.encode(e));
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        let mut out = [T::default(); N];
        decode_into(d, &mut out)?;
        Ok(out)
    }
}

/// The elements in order, nothing around them.
macro_rules! tuple_codec {
    ($($t:ident),+) => {
        impl<$($t: Codec),+> Codec for ($($t,)+) {
            #[allow(non_snake_case)]
            fn encode(&self, e: &mut Enc) {
                let ($($t,)+) = self;
                $($t.encode(e);)+
            }
            fn decode(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
                Ok(($($t::decode(d)?,)+))
            }
        }
    };
}

tuple_codec!(A, B);
tuple_codec!(A, B, C);
tuple_codec!(A, B, C, D, E);

/// Decodes one value into each of `slots`: values whose number the reader
/// already knows (a matrix of the compiled shape), written with no count.
pub(crate) fn decode_into<'s, T: Codec + 's>(
    d: &mut Dec<'_>,
    slots: impl IntoIterator<Item = &'s mut T>,
) -> Result<(), CheckpointError> {
    for slot in slots {
        *slot = T::decode(d)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(65_000);
        e.u32(123_456);
        e.u64(u64::MAX - 1);
        e.i64(-42);
        e.f64(-2.5);
        e.f64(f64::NAN);
        e.bool(true);
        Duration::from_micros(1234).encode(&mut e);
        e.str("héllo");
        e.bytes(&[1, 2, 3]);
        e.bytes_with(|e| e.raw(&[4, 5]));
        let blob = e.finish();
        let mut d = Dec::new(&blob);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 65_000);
        assert_eq!(d.u32().unwrap(), 123_456);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap(), -2.5);
        assert!(d.f64().unwrap().is_nan());
        assert!(d.bool().unwrap());
        assert_eq!(
            Duration::decode(&mut d).unwrap(),
            Duration::from_micros(1234)
        );
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.bytes().unwrap(), [1, 2, 3]);
        assert_eq!(d.bytes().unwrap(), [4, 5], "written in place, same layout");
        d.expect_end().unwrap();
    }

    #[test]
    fn values_and_events_round_trip() {
        let key = GroupKey(vec![
            AttrValue::Int(-3),
            AttrValue::Float(1.5),
            AttrValue::Str(Arc::from("d1")),
        ]);
        let ev = Event::new(Ts(99), EventTypeId(4), key.0.clone());
        let mut e = Enc::new();
        key.encode(&mut e);
        ev.encode(&mut e);
        let blob = e.finish();
        let mut d = Dec::new(&blob);
        assert_eq!(GroupKey::decode(&mut d).unwrap(), key);
        assert_eq!(Event::decode(&mut d).unwrap(), ev);
        d.expect_end().unwrap();
    }

    /// The generic compositions write today's layouts: an `Option` is a
    /// presence byte, a `Vec` a `u64` count, tuples and arrays their
    /// elements back to back — and a flat record its fields in order.
    #[test]
    fn compositions_write_the_documented_layout() {
        let mut e = Enc::new();
        let value: (Option<u16>, Vec<u8>, [u32; 2], Option<u8>) = (Some(7), vec![9], [1, 2], None);
        value.0.encode(&mut e);
        value.1.encode(&mut e);
        value.2.encode(&mut e);
        value.3.encode(&mut e);
        let blob = e.finish();
        let want: &[u8] = &[
            1, 7, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9, 1, 0, 0, 0, 2, 0, 0, 0, 0,
        ];
        assert_eq!(blob, want);
        let mut d = Dec::new(&blob);
        let back: (Option<u16>, Vec<u8>, [u32; 2], Option<u8>) = (
            Codec::decode(&mut d).unwrap(),
            Codec::decode(&mut d).unwrap(),
            Codec::decode(&mut d).unwrap(),
            Codec::decode(&mut d).unwrap(),
        );
        assert_eq!(back, value);
        d.expect_end().unwrap();

        struct Flat {
            a: u8,
            b: (u16, bool),
        }
        codec_struct!(Flat { a, b });
        let mut e = Enc::new();
        Flat { a: 3, b: (4, true) }.encode(&mut e);
        let blob = e.finish();
        assert_eq!(blob, [3, 4, 0, 1]);
        let flat = Flat::decode(&mut Dec::new(&blob)).unwrap();
        assert_eq!((flat.a, flat.b), (3, (4, true)));
        assert!(Flat::decode(&mut Dec::new(&[3, 4, 0, 2])).is_err());
    }

    #[test]
    fn truncation_is_a_clean_error() {
        let mut e = Enc::new();
        e.u64(5);
        let blob = e.finish();
        let mut d = Dec::new(&blob[..4]);
        assert_eq!(d.u64(), Err(CheckpointError::UnexpectedEof));
    }

    #[test]
    fn absurd_lengths_are_rejected_before_allocation() {
        let mut e = Enc::new();
        e.u64(u64::MAX); // length prefix far beyond the blob
        let blob = e.finish();
        let mut d = Dec::new(&blob);
        assert!(matches!(d.seq_len(), Err(CheckpointError::Corrupt(_))));
        let mut d = Dec::new(&blob);
        assert!(d.str().is_err());
    }

    #[test]
    fn bad_bool_and_tags_are_corrupt() {
        let mut d = Dec::new(&[9]);
        assert!(matches!(d.bool(), Err(CheckpointError::Corrupt(_))));
        let mut d = Dec::new(&[9]);
        assert!(matches!(
            AttrValue::decode(&mut d),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut e = Enc::new();
        e.u8(1);
        e.u8(2);
        let blob = e.finish();
        let mut d = Dec::new(&blob);
        let _ = d.u8().unwrap();
        assert!(matches!(d.expect_end(), Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn errors_display() {
        for e in [
            CheckpointError::BadMagic,
            CheckpointError::BadVersion(9),
            CheckpointError::UnexpectedEof,
            CheckpointError::Corrupt("x".into()),
            CheckpointError::WorkloadMismatch("y".into()),
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}
