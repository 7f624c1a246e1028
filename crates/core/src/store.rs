//! The unified snapshot API: one [`Snapshot`] trait through which every
//! layer cuts its chain records, a typed [`Checkpoint`] handle that
//! peeks chain metadata (kind, epoch, version, fingerprint, chain
//! position) without a full decode, and a [`CheckpointStore`]
//! abstraction ([`MemStore`], [`DirStore`]) managing base+delta chains
//! and compaction GC. Restoring is each layer's own:
//! [`HamletEngine::restore_chain`],
//! [`ParallelSession::restore_chain`](crate::ParallelSession::restore_chain),
//! and `PipelineBuilder::resume_from` in `hamlet-pipeline`.
//!
//! A *chain* is one base record (a full snapshot) followed by zero or
//! more contiguous delta records, each carrying only the state touched
//! since its parent. Restoring a chain is byte-identical to restoring a
//! single full checkpoint taken at the same cut — and to never having
//! stopped at all (`tests/delta_checkpoint.rs`). Byte layouts live in
//! `docs/checkpoint-format.md`.
//!
//! # Kill, restore, continue — through a store
//!
//! ```
//! use hamlet_core::{CheckpointStore, CutKind, EngineConfig, HamletEngine, MemStore, Snapshot};
//! use hamlet_query::parse_query;
//! use hamlet_types::{EventBuilder, TypeRegistry};
//! use std::sync::Arc;
//!
//! let mut reg = TypeRegistry::new();
//! let a = reg.register("A", &[]);
//! let b = reg.register("B", &[]);
//! let reg = Arc::new(reg);
//! let q = parse_query(&reg, 1, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 10").unwrap();
//! let mk = || HamletEngine::new(reg.clone(), vec![q.clone()], EngineConfig::default()).unwrap();
//! let ev = |ty, t| EventBuilder::new(&reg, ty, t).build();
//!
//! // A reference engine that never stops.
//! let mut oracle = mk();
//!
//! // The "production" engine cuts a chain into a store as it runs:
//! // a full base first, then cheap deltas.
//! let store = MemStore::new();
//! let mut eng = mk();
//! for (ty, t) in [(a, 0), (b, 1)] {
//!     eng.process(&ev(ty, t));
//!     oracle.process(&ev(ty, t));
//! }
//! store.append(&eng.cut(CutKind::Full).unwrap()).unwrap();
//! eng.process(&ev(b, 2));
//! oracle.process(&ev(b, 2));
//! let delta = eng.cut(CutKind::Delta).unwrap();
//! assert!(delta.is_delta());
//! store.append(&delta).unwrap();
//! drop(eng); // kill -9
//!
//! // Revive from the store: base + delta replay...
//! let mut revived = mk();
//! revived.restore_chain(&store.load_chain().unwrap()).unwrap();
//! // ...and the stream continues exactly where it left off.
//! assert_eq!(revived.process(&ev(b, 3)), oracle.process(&ev(b, 3)));
//! assert_eq!(revived.flush(), oracle.flush());
//! ```

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::checkpoint::{read_engine_header, CheckpointError, Dec};
use crate::executor::HamletEngine;
use crate::record;

/// What kind of chain record to ask a [`Snapshot::cut`] for. `Delta`
/// is a *request*: a layer that cannot prove a sound delta (first cut,
/// post-churn, post-legacy-restore) silently promotes it to a full
/// base — check [`Checkpoint::is_delta`] on the result for the truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutKind {
    /// Snapshot everything: starts a new chain.
    Full,
    /// Snapshot only what changed since the previous cut.
    Delta,
}

/// A typed handle on one checkpoint record: the raw bytes plus the
/// [`ChainMeta`] every store and resume path needs — held by the writer
/// that just cut the record, or peeked from the frame headers of stored
/// bytes without decoding the state payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    bytes: Vec<u8>,
    meta: ChainMeta,
}

/// Where a record sits in its chain and what it may restore into.
///
/// For the container formats (`HMPC`/`HMPL`) the chain fields are the
/// first shard's: coordinated cuts stamp every shard with the same kind,
/// seq, and epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainMeta {
    /// Format version of the outermost frame that has one of its own:
    /// the container's, a delta frame's, or a base's engine blob's.
    pub version: u16,
    /// The workload epoch the record was cut at.
    pub epoch: u64,
    /// Chain sequence number (0 for bare engine blobs).
    pub seq: u64,
    /// The seq a delta applies on top of. `None` is what marks a full
    /// record, which starts a chain.
    pub parent: Option<u64>,
    /// The workload fingerprint stamped into the record.
    pub fingerprint: Vec<u8>,
}

/// True iff `bytes` open one of the two container formats.
fn is_container(bytes: &[u8]) -> bool {
    bytes.starts_with(b"HMPC") || bytes.starts_with(b"HMPL")
}

/// Peeks the [`ChainMeta`] of any known record format. Everything but the
/// fingerprint stays borrowed.
fn peek_meta(bytes: &[u8]) -> Result<ChainMeta, CheckpointError> {
    // The two container formats share one header shape: magic, version,
    // worker count, per-shard records (`HMPL` is defined by the pipeline
    // crate, but its layout is specified alongside ours in
    // docs/checkpoint-format.md, so peeking it here is sound). A shard
    // record is a chain record; a container inside a container is none.
    if is_container(bytes) {
        let mut d = Dec::new(&bytes[4..]);
        let version = d.u16()?;
        let workers = d.u32()?;
        if workers == 0 || d.seq_len()? == 0 {
            return Err(CheckpointError::Corrupt(
                "container checkpoint with no shards".into(),
            ));
        }
        let shard = d.bytes()?;
        if is_container(shard) {
            return Err(CheckpointError::Corrupt(
                "a container holds chain records, not containers".into(),
            ));
        }
        return Ok(ChainMeta {
            version,
            ..peek_record(shard)?
        });
    }
    peek_record(bytes)
}

/// [`peek_meta`] of a chain record (a bare engine blob being a base at
/// seq 0). A base payload is an engine blob, whose version speaks for the
/// record; after its header, as at the start of a delta payload, comes
/// the workload fingerprint.
fn peek_record(bytes: &[u8]) -> Result<ChainMeta, CheckpointError> {
    let f = record::frame_of(bytes)?;
    let mut d = Dec::new(f.payload);
    let (version, parent) = if f.base {
        (read_engine_header(&mut d)?.0, None)
    } else {
        (f.version, Some(f.parent))
    };
    Ok(ChainMeta {
        version,
        epoch: f.epoch,
        seq: f.seq,
        parent,
        fingerprint: d.bytes()?.to_vec(),
    })
}

impl AsRef<[u8]> for Checkpoint {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

impl Checkpoint {
    /// Wraps raw record bytes, peeking and validating the frame
    /// metadata (magic, version, chain position) without decoding the
    /// state payload. Accepts every format this workspace writes: bare
    /// engine blobs (`HMEN`), chain records (`HMDL`), and the parallel
    /// and pipeline containers (`HMPC`/`HMPL`).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Checkpoint, CheckpointError> {
        let meta = peek_meta(&bytes)?;
        Ok(Checkpoint { bytes, meta })
    }

    /// The handle of a record its writer just encoded, from the metadata
    /// the writer holds — [`from_bytes`](Self::from_bytes) would peek the
    /// same values back out. A container's writer passes
    /// [`container_meta`](Self::container_meta) of its shard records.
    pub fn new(bytes: Vec<u8>, meta: ChainMeta) -> Checkpoint {
        Checkpoint { bytes, meta }
    }

    /// The chain position a container (`HMPC`/`HMPL`, at `version`) of
    /// these per-shard records speaks with: the first shard's — which a
    /// reader peeks back out — provided every shard agrees on it. A set
    /// whose kinds, seqs or epochs differ (one shard promoted its delta
    /// to a base, or missed a cut) is no coordinated cut: stored, its
    /// chain would extend on some shards and break on others.
    pub fn container_meta(
        version: u16,
        shards: &[Checkpoint],
    ) -> Result<ChainMeta, CheckpointError> {
        let position = |ck: &Checkpoint| (ck.parent(), ck.seq(), ck.epoch());
        let Some(first) = shards.first() else {
            return Err(CheckpointError::Corrupt(
                "container checkpoint with no shards".into(),
            ));
        };
        if let Some(off) = shards.iter().find(|ck| position(ck) != position(first)) {
            return Err(CheckpointError::Corrupt(format!(
                "shard records disagree on their chain position: {:?} vs {:?} (parent, seq, epoch)",
                position(first),
                position(off)
            )));
        }
        Ok(ChainMeta {
            version,
            ..first.meta.clone()
        })
    }

    /// Everything the handle knows besides the bytes.
    pub fn meta(&self) -> &ChainMeta {
        &self.meta
    }

    /// True when this record is an incremental delta, meaningful only
    /// on top of the chain ending at [`parent`](Self::parent).
    pub fn is_delta(&self) -> bool {
        self.meta.parent.is_some()
    }

    /// The outermost frame's format version.
    pub fn version(&self) -> u16 {
        self.meta.version
    }

    /// The workload epoch the record was cut at.
    pub fn epoch(&self) -> u64 {
        self.meta.epoch
    }

    /// Chain sequence number (0 for legacy bare blobs, which predate
    /// chains).
    pub fn seq(&self) -> u64 {
        self.meta.seq
    }

    /// The chain seq this delta applies on top of; `None` for full
    /// records, which start a chain.
    pub fn parent(&self) -> Option<u64> {
        self.meta.parent
    }

    /// The workload fingerprint stamped into the record (for
    /// containers: the first shard's).
    pub fn fingerprint(&self) -> &[u8] {
        &self.meta.fingerprint
    }

    /// The raw record bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Unwraps into the raw record bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Size of the record in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the record is empty (never, for a valid record).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// The one cut surface every layer implements — the engine
/// ([`HamletEngine`]), the parallel session
/// ([`crate::parallel::ParallelSession`]), and the live pipeline
/// (`hamlet_pipeline::PipelineHandle`): `cut` emits the next record of
/// the layer's chain. Restoring is each layer's own: an engine or a
/// session replays an ordered chain into itself (`restore_chain`); a
/// pipeline is rebuilt from a store (`PipelineBuilder::resume_from`).
pub trait Snapshot {
    /// Cuts the next chain record. A `Delta` request is promoted to a
    /// full base whenever a sound delta cannot be proven (first cut,
    /// after runtime churn, after a legacy full restore).
    fn cut(&mut self, kind: CutKind) -> Result<Checkpoint, CheckpointError>;
}

impl Snapshot for HamletEngine {
    fn cut(&mut self, kind: CutKind) -> Result<Checkpoint, CheckpointError> {
        Ok(record::cut(self, kind))
    }
}

impl HamletEngine {
    /// Restores state from an ordered chain (as loaded by
    /// [`CheckpointStore::load_chain`]) into a freshly built engine over
    /// the same workload: the last full record in the slice and its
    /// contiguous deltas. Validates linkage, epoch uniformity, and
    /// workload fingerprints before committing any state.
    pub fn restore_chain(&mut self, chain: &[Checkpoint]) -> Result<(), CheckpointError> {
        // A lone engine is a sharded runtime of one.
        let records: Vec<Vec<&[u8]>> = chain.iter().map(|ck| vec![ck.as_bytes()]).collect();
        record::restore_shards(std::slice::from_mut(self), &records).map(drop)
    }
}

/// Durable home for a checkpoint chain. Implementations keep exactly
/// one live chain: appending a full record starts a new chain and may
/// garbage-collect the old one (compaction).
pub trait CheckpointStore: Send + Sync {
    /// Appends one record, validating chain linkage: a delta must
    /// extend the stored chain's tip (`parent()` == tip `seq()`); a
    /// full record always starts a new chain.
    fn append(&self, ck: &Checkpoint) -> Result<(), CheckpointError>;

    /// Loads the live chain in replay order — the most recent full
    /// record first, then its contiguous deltas. Empty if nothing was
    /// ever appended.
    fn load_chain(&self) -> Result<Vec<Checkpoint>, CheckpointError>;
}

/// An in-memory [`CheckpointStore`], for tests, benches, and processes
/// that only want crash-consistency within their own lifetime.
#[derive(Debug, Default)]
pub struct MemStore {
    chain: Mutex<Vec<Checkpoint>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }
}

/// The linkage rule of [`CheckpointStore::append`], the one both stores
/// apply: a delta must extend the stored chain's tip `(seq, epoch)` —
/// name it as its parent and be cut at its workload epoch; a full record
/// may follow anything.
fn check_extends(ck: &Checkpoint, tip: Option<(u64, u64)>) -> Result<(), CheckpointError> {
    if !ck.is_delta() {
        return Ok(());
    }
    let Some((tip_seq, tip_epoch)) = tip else {
        return Err(CheckpointError::Corrupt(
            "delta record appended to an empty store (no base to extend)".into(),
        ));
    };
    if ck.parent() != Some(tip_seq) {
        return Err(CheckpointError::Corrupt(format!(
            "delta seq {} expects parent seq {:?} but the stored tip is seq {tip_seq}",
            ck.seq(),
            ck.parent(),
        )));
    }
    if ck.epoch() != tip_epoch {
        return Err(CheckpointError::WorkloadMismatch(format!(
            "delta cut at workload epoch {} appended to a chain at epoch {tip_epoch}",
            ck.epoch(),
        )));
    }
    Ok(())
}

fn lock_err<T>(_: T) -> CheckpointError {
    CheckpointError::Io("checkpoint store mutex poisoned".into())
}

impl CheckpointStore for MemStore {
    fn append(&self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        let mut chain = self.chain.lock().map_err(lock_err)?;
        check_extends(ck, chain.last().map(|tip| (tip.seq(), tip.epoch())))?;
        if !ck.is_delta() {
            // A full record starts a new chain; the old one is
            // compacted away.
            chain.clear();
        }
        chain.push(ck.clone());
        Ok(())
    }

    fn load_chain(&self) -> Result<Vec<Checkpoint>, CheckpointError> {
        Ok(self.chain.lock().map_err(lock_err)?.clone())
    }
}

/// A directory-backed [`CheckpointStore`]: one file per record, named
/// `ck-<seq padded to 20>-<base|delta>.hmck`, written via a temp file +
/// `sync_all` + atomic rename so a crash mid-append never leaves a
/// torn record in the chain. The directory itself is then synced, so the
/// rename is durable before `append` returns and before a base's
/// compaction unlinks the chain it replaces: without that sync POSIX
/// does not order the two, and a crash between them could leave deltas
/// with no base. Appending a base garbage-collects every earlier record
/// (compaction); `load_chain` reads from the newest base and ignores
/// stray temp files and foreign names.
#[derive(Debug)]
pub struct DirStore {
    dir: PathBuf,
    /// `(seq, epoch)` of the newest record this store wrote or read, so
    /// that a delta's epoch check reads the tip's file only when another
    /// writer (or an earlier process) put it there.
    tip: Mutex<Option<(u64, u64)>>,
}

/// `(seq, is_base)` parsed from a `DirStore` record file name, or
/// `None` for foreign/temp files.
fn parse_record_name(name: &str) -> Option<(u64, bool)> {
    let rest = name.strip_prefix("ck-")?;
    let rest = rest.strip_suffix(".hmck")?;
    let (seq, kind) = rest.split_once('-')?;
    if seq.len() != 20 || !seq.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let seq: u64 = seq.parse().ok()?;
    let base = match kind {
        "base" => true,
        "delta" => false,
        _ => return None,
    };
    Some((seq, base))
}

fn io_err(op: &str, path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io(format!("{op} {}: {e}", path.display()))
}

impl DirStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DirStore, CheckpointError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, e))?;
        Ok(DirStore {
            dir,
            tip: Mutex::new(None),
        })
    }

    /// The directory this store writes into.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Sorted `(seq, is_base)` listing of the record files on disk.
    fn listing(&self) -> Result<Vec<(u64, bool)>, CheckpointError> {
        let mut out = Vec::new();
        let rd = std::fs::read_dir(&self.dir).map_err(|e| io_err("read", &self.dir, e))?;
        for entry in rd {
            let entry = entry.map_err(|e| io_err("read", &self.dir, e))?;
            if let Some(parsed) = entry.file_name().to_str().and_then(parse_record_name) {
                out.push(parsed);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn record_path(&self, seq: u64, base: bool) -> PathBuf {
        let kind = if base { "base" } else { "delta" };
        self.dir.join(format!("ck-{seq:020}-{kind}.hmck"))
    }

    /// `(seq, epoch)` of the newest record in `listing`: remembered if
    /// this store wrote or read it last, else read from its file.
    fn tip(&self, listing: &[(u64, bool)]) -> Result<Option<(u64, u64)>, CheckpointError> {
        let Some(&(seq, base)) = listing.last() else {
            return Ok(None);
        };
        let mut known = self.tip.lock().map_err(lock_err)?;
        if known.is_none_or(|(s, _)| s != seq) {
            let path = self.record_path(seq, base);
            let bytes = std::fs::read(&path).map_err(|e| io_err("read", &path, e))?;
            *known = Some((seq, Checkpoint::from_bytes(bytes)?.epoch()));
        }
        Ok(*known)
    }
}

impl CheckpointStore for DirStore {
    fn append(&self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        let listing = self.listing()?;
        let base = !ck.is_delta();
        // Only a delta reads its tip.
        check_extends(ck, if base { None } else { self.tip(&listing)? })?;
        let final_path = self.record_path(ck.seq(), base);
        let tmp_path = self.dir.join(format!(".tmp-ck-{:020}", ck.seq()));
        {
            let mut f =
                std::fs::File::create(&tmp_path).map_err(|e| io_err("create", &tmp_path, e))?;
            f.write_all(ck.as_bytes())
                .map_err(|e| io_err("write", &tmp_path, e))?;
            f.sync_all().map_err(|e| io_err("sync", &tmp_path, e))?;
        }
        std::fs::rename(&tmp_path, &final_path).map_err(|e| io_err("rename", &tmp_path, e))?;
        (std::fs::File::open(&self.dir).and_then(|dir| dir.sync_all()))
            .map_err(|e| io_err("sync", &self.dir, e))?;
        *self.tip.lock().map_err(lock_err)? = Some((ck.seq(), ck.epoch()));
        if base {
            // Compaction GC: the new base obsoletes everything before
            // it. Best-effort — a leftover file is skipped by
            // load_chain's last-base rule anyway.
            for (seq, old_base) in listing {
                if seq < ck.seq() {
                    let _ = std::fs::remove_file(self.record_path(seq, old_base));
                }
            }
        }
        Ok(())
    }

    fn load_chain(&self) -> Result<Vec<Checkpoint>, CheckpointError> {
        let listing = self.listing()?;
        let Some(base_idx) = listing.iter().rposition(|&(_, base)| base) else {
            if listing.is_empty() {
                return Ok(Vec::new());
            }
            return Err(CheckpointError::Corrupt(
                "checkpoint directory holds deltas but no base record".into(),
            ));
        };
        let mut chain = Vec::with_capacity(listing.len() - base_idx);
        for &(seq, base) in &listing[base_idx..] {
            let path = self.record_path(seq, base);
            let bytes = std::fs::read(&path).map_err(|e| io_err("read", &path, e))?;
            let ck = Checkpoint::from_bytes(bytes)?;
            if ck.seq() != seq || ck.is_delta() == base {
                return Err(CheckpointError::Corrupt(format!(
                    "record file {} disagrees with its frame header (seq {}, delta {})",
                    path.display(),
                    ck.seq(),
                    ck.is_delta()
                )));
            }
            if let Some(prev) = chain.last() {
                let prev: &Checkpoint = prev;
                if ck.parent() != Some(prev.seq()) {
                    return Err(CheckpointError::Corrupt(format!(
                        "broken chain on disk: seq {} expects parent {:?} after seq {}",
                        ck.seq(),
                        ck.parent(),
                        prev.seq()
                    )));
                }
            }
            chain.push(ck);
        }
        Ok(chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::ENGINE_VERSION;
    use crate::executor::EngineConfig;
    use hamlet_query::parse_query;
    use hamlet_types::{Event, TypeRegistry};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn setup() -> (Arc<TypeRegistry>, Vec<hamlet_query::Query>) {
        let mut reg = TypeRegistry::new();
        reg.register("A", &["g"]);
        reg.register("B", &["g"]);
        let reg = Arc::new(reg);
        let q1 = parse_query(
            &reg,
            1,
            "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g WITHIN 20 SLIDE 10",
        )
        .expect("parse");
        let q2 = parse_query(
            &reg,
            2,
            "RETURN COUNT(*) PATTERN SEQ(B, A+) GROUP BY g WITHIN 20 SLIDE 10",
        )
        .expect("parse");
        (reg, vec![q1, q2])
    }

    fn events(_reg: &TypeRegistry, n: u64) -> Vec<Event> {
        (0..n)
            .map(|i| {
                let ty = hamlet_types::EventTypeId((i % 2) as u16);
                Event::new(
                    hamlet_types::Ts(i),
                    ty,
                    vec![hamlet_types::AttrValue::Int((i % 3) as i64)],
                )
            })
            .collect()
    }

    fn engine(reg: &Arc<TypeRegistry>, qs: &[hamlet_query::Query]) -> HamletEngine {
        HamletEngine::new(reg.clone(), qs.to_vec(), EngineConfig::default()).expect("build")
    }

    #[test]
    fn chain_restore_matches_full_and_uninterrupted() {
        let (reg, qs) = setup();
        let evs = events(&reg, 60);
        let mut oracle = engine(&reg, &qs);
        let mut cutter = engine(&reg, &qs);
        let store = MemStore::new();
        let mut oracle_out = Vec::new();
        let mut cutter_out = Vec::new();
        for (i, e) in evs.iter().enumerate() {
            oracle_out.extend(oracle.process(e));
            cutter_out.extend(cutter.process(e));
            if (i + 1) % 10 == 0 {
                let ck = cutter.cut(CutKind::Delta).expect("cut");
                assert_eq!(ck.is_delta(), i + 1 > 10, "first cut promotes to base");
                store.append(&ck).expect("append");
            }
        }
        let mut revived = engine(&reg, &qs);
        revived
            .restore_chain(&store.load_chain().expect("load"))
            .expect("restore");
        // Chain restore is byte-identical to the cutter at the cut:
        // both describe the same state, so their full checkpoints agree.
        assert_eq!(revived.checkpoint(), cutter.checkpoint());
        // ...and to a plain full restore of that state.
        let mut full = engine(&reg, &qs);
        full.restore(&cutter.checkpoint()).expect("full restore");
        assert_eq!(full.checkpoint(), revived.checkpoint());
        // The uninterrupted engine and the cutter agree on all output.
        assert_eq!(oracle_out, cutter_out);
        assert_eq!(oracle.flush(), revived.flush());
    }

    #[test]
    fn delta_records_stay_small() {
        let (reg, qs) = setup();
        let evs = events(&reg, 400);
        let mut eng = engine(&reg, &qs);
        let mut full_len = 0usize;
        let mut delta_len = usize::MAX;
        for (i, e) in evs.iter().enumerate() {
            eng.process(e);
            if (i + 1) % 100 == 0 {
                let ck = eng.cut(CutKind::Delta).expect("cut");
                if ck.is_delta() {
                    delta_len = delta_len.min(ck.len());
                } else {
                    full_len = ck.len();
                }
            }
        }
        assert!(delta_len < usize::MAX, "no delta was ever cut");
        assert!(full_len > 0, "no base was ever cut");
    }

    #[test]
    fn cross_epoch_delta_rejected() {
        let (reg, qs) = setup();
        let evs = events(&reg, 30);
        let mut eng = engine(&reg, &qs);
        for e in &evs {
            eng.process(e);
        }
        let base = eng.cut(CutKind::Full).expect("base");
        for e in &evs {
            eng.process(e);
        }
        let delta = eng.cut(CutKind::Delta).expect("delta");
        assert!(delta.is_delta());
        // Hand-build a chain whose delta claims a different epoch.
        let f = crate::checkpoint::read_delta_frame(delta.as_bytes()).expect("frame");
        let mut forged = crate::checkpoint::Enc::new();
        crate::checkpoint::write_delta_frame(&mut forged, false, f.seq, f.parent, 7, |e| {
            e.raw(f.payload)
        });
        let forged = Checkpoint::from_bytes(forged.finish()).expect("peek");
        let mut fresh = engine(&reg, &qs);
        let err = fresh.restore_chain(&[base, forged]);
        assert!(matches!(err, Err(CheckpointError::WorkloadMismatch(_))));
    }

    /// A container's shard is peeked as a chain record: one container
    /// inside another is corrupt, and 200 000 of them nested (5.2 MB) are
    /// an error, not a stack overflow.
    #[test]
    fn nested_containers_are_corrupt() {
        let (reg, qs) = setup();
        let blob = engine(&reg, &qs).checkpoint();
        let once = crate::checkpoint::container_header(b"HMPC", 1, 1, &[&blob]).finish();
        assert!(Checkpoint::from_bytes(once.clone()).is_ok());
        let twice = crate::checkpoint::container_header(b"HMPL", 2, 1, &[&once]).finish();
        let err = Checkpoint::from_bytes(twice);
        assert!(matches!(err, Err(CheckpointError::Corrupt(_))), "{err:?}");

        const LEVELS: usize = 200_000;
        const HEADER: usize = 4 + 2 + 4 + 8 + 8;
        let mut deep = Vec::with_capacity(LEVELS * HEADER + blob.len());
        for level in 0..LEVELS {
            let below = (LEVELS - 1 - level) * HEADER + blob.len();
            deep.extend_from_slice(b"HMPC");
            deep.extend_from_slice(&1u16.to_le_bytes());
            deep.extend_from_slice(&1u32.to_le_bytes());
            deep.extend_from_slice(&1u64.to_le_bytes());
            deep.extend_from_slice(&(below as u64).to_le_bytes());
        }
        deep.extend_from_slice(&blob);
        assert!(Checkpoint::from_bytes(deep).is_err());
    }

    #[test]
    fn truncated_chain_rejected() {
        let (reg, qs) = setup();
        let evs = events(&reg, 90);
        let mut eng = engine(&reg, &qs);
        let mut records = Vec::new();
        for (i, e) in evs.iter().enumerate() {
            eng.process(e);
            if (i + 1) % 15 == 0 {
                records.push(eng.cut(CutKind::Delta).expect("cut"));
            }
        }
        assert!(records.len() >= 4);
        // Drop a middle delta: linkage must break loudly.
        let truncated: Vec<Checkpoint> =
            vec![records[0].clone(), records[1].clone(), records[3].clone()];
        let mut fresh = engine(&reg, &qs);
        let err = fresh.restore_chain(&truncated);
        assert!(matches!(err, Err(CheckpointError::Corrupt(_))));
        // A chain with no base at all is also rejected.
        let mut fresh = engine(&reg, &qs);
        let err = fresh.restore_chain(&records[1..]);
        assert!(matches!(err, Err(CheckpointError::Corrupt(_))));
    }

    #[test]
    fn mem_store_validates_appends() {
        let (reg, qs) = setup();
        let mut eng = engine(&reg, &qs);
        for e in events(&reg, 20) {
            eng.process(&e);
        }
        let store = MemStore::new();
        let base = eng.cut(CutKind::Full).expect("base");
        for e in events(&reg, 20) {
            eng.process(&e);
        }
        let delta = eng.cut(CutKind::Delta).expect("delta");
        // Delta into an empty store: no base to extend.
        assert!(matches!(
            store.append(&delta),
            Err(CheckpointError::Corrupt(_))
        ));
        store.append(&base).expect("append base");
        store.append(&delta).expect("append delta");
        // Appending the same delta twice breaks linkage.
        assert!(matches!(
            store.append(&delta),
            Err(CheckpointError::Corrupt(_))
        ));
        assert_eq!(store.load_chain().expect("load").len(), 2);
        // A new full cut compacts the chain back to one record.
        let full = eng.cut(CutKind::Full).expect("full");
        store.append(&full).expect("append full");
        let chain = store.load_chain().expect("load");
        assert_eq!(chain.len(), 1);
        assert!(!chain[0].is_delta());
    }

    /// A unique-per-test temp dir without wall-clock naming (the
    /// workspace lint forbids `SystemTime` outside metrics/bench).
    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "hamlet-store-{}-{}-{n}-{tag}",
            std::process::id(),
            std::thread::current()
                .name()
                .unwrap_or("t")
                .replace("::", "-"),
        ))
    }

    #[test]
    fn dir_store_round_trips_and_compacts() {
        let (reg, qs) = setup();
        let dir = temp_dir("roundtrip");
        let store = DirStore::open(&dir).expect("open");
        let mut eng = engine(&reg, &qs);
        let evs = events(&reg, 80);
        for (i, e) in evs.iter().enumerate() {
            eng.process(e);
            if (i + 1) % 20 == 0 {
                store
                    .append(&eng.cut(CutKind::Delta).expect("cut"))
                    .expect("append");
            }
        }
        // Re-open fresh (a new process would) and restore.
        let store2 = DirStore::open(&dir).expect("reopen");
        let chain = store2.load_chain().expect("load");
        assert_eq!(chain.len(), 4);
        assert!(!chain[0].is_delta());
        assert!(chain[1..].iter().all(Checkpoint::is_delta));
        let mut revived = engine(&reg, &qs);
        revived.restore_chain(&chain).expect("restore");
        assert_eq!(revived.checkpoint(), eng.checkpoint());
        // A full cut compacts the directory down to one base file.
        store2
            .append(&eng.cut(CutKind::Full).expect("full"))
            .expect("append");
        let chain = store2.load_chain().expect("load");
        assert_eq!(chain.len(), 1);
        assert_eq!(store2.listing().expect("listing").len(), 1);
        // A stray temp file (a crash mid-append) is invisible.
        std::fs::write(dir.join(".tmp-ck-garbage"), b"torn").expect("write");
        assert_eq!(store2.load_chain().expect("load").len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_peeks_without_decode() {
        let (reg, qs) = setup();
        let mut eng = engine(&reg, &qs);
        for e in events(&reg, 25) {
            eng.process(&e);
        }
        // Legacy bare blob: full, seq 0, no parent.
        let bare = Checkpoint::from_bytes(eng.checkpoint()).expect("peek");
        assert!(!bare.is_delta());
        assert_eq!(bare.seq(), 0);
        assert_eq!(bare.parent(), None);
        assert_eq!(bare.epoch(), 0);
        assert_eq!(bare.version(), ENGINE_VERSION);
        // Chain records carry seq/parent.
        let base = eng.cut(CutKind::Full).expect("base");
        assert_eq!(base.seq(), 1);
        assert_eq!(base.parent(), None);
        for e in events(&reg, 5) {
            eng.process(&e);
        }
        let delta = eng.cut(CutKind::Delta).expect("delta");
        assert!(delta.is_delta());
        assert_eq!(delta.seq(), 2);
        assert_eq!(delta.parent(), Some(1));
        assert_eq!(delta.fingerprint(), base.fingerprint());
        // The handles `cut` assembles from what it just wrote are the
        // ones a reader peeks back out of the bytes.
        for ck in [&base, &delta] {
            assert_eq!(
                &Checkpoint::from_bytes(ck.as_bytes().to_vec()).expect("peek"),
                ck
            );
        }
        // (At this toy scale every partition is dirty, so the delta is
        // not materially smaller; fig_checkpoint gates size at 10⁴ keys.)
        assert!(Checkpoint::from_bytes(b"nope".to_vec()).is_err());
    }
}
