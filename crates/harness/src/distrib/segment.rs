//! The checkpoint file: an append-only segment log.
//!
//! This module is the *implementation* of the on-disk format; the
//! authoritative human-readable specification — record grammar, compaction
//! triggers, torn-tail rules, magic history, and a worked hexdump — is
//! `docs/FORMATS.md` at the repository root, cross-checked against this
//! code by the `docs` integration test.
//!
//! Layout: 4 magic bytes ([`SEGMENT_MAGIC`], `"B3SG"`), then records of
//! `tag(u8) | len(u32 LE) | payload`. A [`REC_SNAPSHOT`] record holds a full
//! serialized [`SweepCheckpoint`]; a [`REC_DELTA`] record holds one
//! `shard(u32 LE) | ShardResult` pair belonging to the most recent preceding
//! snapshot. Snapshots are only ever written by an atomic tmp+rename (so
//! they are all-or-nothing); deltas are appended with an fdatasync each, so
//! a crash can leave at most one torn record at the tail, which the loader
//! detects by its length field and ignores — the shard it carried is simply
//! re-run.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use b3_vfs::codec::Decoder;
use b3_vfs::error::{FsError, FsResult};

use crate::sweep::{ShardResult, SweepCheckpoint};

/// `"B3SG"`: magic prefix of segment-format checkpoint files, stored as
/// those four ASCII bytes in file order.
pub const SEGMENT_MAGIC: [u8; 4] = *b"B3SG";
/// Record tag: a full serialized [`SweepCheckpoint`] (one per compaction).
pub const REC_SNAPSHOT: u8 = 1;
/// Record tag: one `shard(u32 LE) | ShardResult` merged since the snapshot.
pub const REC_DELTA: u8 = 2;
/// Compaction floor: deltas are allowed to grow to at least this many bytes
/// before a compaction is considered, so tiny sweeps don't thrash rewrites.
pub const MIN_COMPACT_BYTES: u64 = 64 << 10;

/// Frames one record of the segment log.
pub(super) fn segment_record(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(payload.len() + 5);
    record.push(tag);
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(payload);
    record
}

/// The bytes of a fresh (compacted) segment file holding one snapshot.
pub(super) fn snapshot_file_bytes(checkpoint: &SweepCheckpoint) -> Vec<u8> {
    let payload = checkpoint.to_bytes();
    let mut bytes = Vec::with_capacity(payload.len() + 9);
    bytes.extend_from_slice(&SEGMENT_MAGIC);
    bytes.extend_from_slice(&segment_record(REC_SNAPSHOT, &payload));
    bytes
}

/// Replays a segment file: the latest snapshot, with every subsequent delta
/// merged in. A truncated trailing record (the signature a killed writer
/// leaves) is ignored; corruption anywhere else is an error.
fn replay_segment_file(bytes: &[u8], path: &Path) -> FsResult<SweepCheckpoint> {
    let corrupt =
        |what: String| FsError::Corrupted(format!("segment checkpoint {}: {what}", path.display()));
    let mut pos = SEGMENT_MAGIC.len();
    let mut current: Option<SweepCheckpoint> = None;
    while bytes.len() - pos >= 5 {
        let tag = bytes[pos];
        let len = u32::from_le_bytes([
            bytes[pos + 1],
            bytes[pos + 2],
            bytes[pos + 3],
            bytes[pos + 4],
        ]) as usize;
        let end = pos + 5 + len;
        if end > bytes.len() {
            // Torn tail: the writer died mid-append. The record's shard is
            // lost (and will be re-run); everything before it is intact.
            break;
        }
        let payload = &bytes[pos + 5..end];
        match tag {
            REC_SNAPSHOT => current = Some(SweepCheckpoint::from_bytes(payload)?),
            REC_DELTA => {
                let checkpoint = current
                    .as_mut()
                    .ok_or_else(|| corrupt("delta record before any snapshot".into()))?;
                let mut dec = Decoder::new(payload);
                let shard = dec.get_u32()?;
                if shard as usize >= checkpoint.num_shards() {
                    return Err(corrupt(format!(
                        "delta for shard {shard} of a {}-shard sweep",
                        checkpoint.num_shards()
                    )));
                }
                let result = ShardResult::decode(&mut dec)?;
                checkpoint.record(shard, result);
            }
            other => return Err(corrupt(format!("unknown record tag {other:#x}"))),
        }
        pos = end;
    }
    current.ok_or_else(|| corrupt("no snapshot record".into()))
}

/// Per-record statistics of a segment checkpoint file — used by tests and
/// resume diagnostics to see how the file was produced (one snapshot per
/// compaction, one delta per merged shard since).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentStats {
    /// Snapshot (compaction) records.
    pub snapshots: usize,
    /// Per-shard delta records.
    pub deltas: usize,
    /// Bytes of a torn trailing record, ignored on load (0 for a cleanly
    /// written file).
    pub truncated_tail_bytes: usize,
}

/// Scans the record framing of a segment checkpoint file (payloads are not
/// decoded). Errors on files that are not in the segment format.
pub fn segment_stats(path: &Path) -> FsResult<SegmentStats> {
    let bytes = std::fs::read(path)
        .map_err(|e| FsError::Device(format!("read checkpoint {}: {e}", path.display())))?;
    if bytes.len() < 4 || bytes[0..4] != SEGMENT_MAGIC {
        return Err(FsError::InvalidArgument(format!(
            "{} is not a segment-format checkpoint",
            path.display()
        )));
    }
    let mut stats = SegmentStats {
        snapshots: 0,
        deltas: 0,
        truncated_tail_bytes: 0,
    };
    let mut pos = SEGMENT_MAGIC.len();
    while bytes.len() - pos >= 5 {
        let len = u32::from_le_bytes([
            bytes[pos + 1],
            bytes[pos + 2],
            bytes[pos + 3],
            bytes[pos + 4],
        ]) as usize;
        let end = pos + 5 + len;
        if end > bytes.len() {
            break;
        }
        match bytes[pos] {
            REC_SNAPSHOT => stats.snapshots += 1,
            REC_DELTA => stats.deltas += 1,
            other => {
                return Err(FsError::Corrupted(format!(
                    "segment checkpoint {}: unknown record tag {other:#x}",
                    path.display()
                )))
            }
        }
        pos = end;
    }
    stats.truncated_tail_bytes = bytes.len() - pos;
    Ok(stats)
}

/// Loads a checkpoint file written by [`save_checkpoint`] or a coordinator's
/// `Persister`: replays the deltas onto the latest snapshot, tolerating a
/// torn trailing record. Returns `Ok(None)` when the file does not exist;
/// a file that does not start with the segment magic is `Corrupted`.
pub fn load_checkpoint(path: &Path) -> FsResult<Option<SweepCheckpoint>> {
    match std::fs::read(path) {
        Ok(bytes) if bytes.starts_with(&SEGMENT_MAGIC) => {
            replay_segment_file(&bytes, path).map(Some)
        }
        Ok(_) => Err(FsError::Corrupted(format!(
            "{} is not a segment checkpoint",
            path.display()
        ))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(FsError::Device(format!(
            "read checkpoint {}: {e}",
            path.display()
        ))),
    }
}

/// Atomically writes `bytes` to `path`: a uniquely-named sibling temp file
/// (per process *and* per call, so concurrent writers never clobber each
/// other's temp), fsynced before the rename, with the parent directory
/// fsynced after — rename-without-fsync is precisely the bug class this
/// project tests for. A failed attempt removes its temp file.
pub(super) fn write_atomic(path: &Path, bytes: &[u8]) -> FsResult<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    fn inner(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        use std::io::Write;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(
            ".{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let tmp = PathBuf::from(tmp);
        let write_and_rename = |tmp: &Path| -> std::io::Result<()> {
            let mut file = std::fs::File::create(tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
            drop(file);
            std::fs::rename(tmp, path)
        };
        if let Err(error) = write_and_rename(&tmp) {
            let _ = std::fs::remove_file(&tmp);
            return Err(error);
        }
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::File::open(parent)?.sync_all()?;
        }
        Ok(())
    }
    inner(path, bytes)
        .map_err(|e| FsError::Device(format!("persist checkpoint {}: {e}", path.display())))
}

/// Persists a checkpoint as a one-snapshot segment file, atomically (a
/// temp-file write followed by a rename, so a kill mid-write never corrupts
/// the file).
pub fn save_checkpoint(path: &Path, checkpoint: &SweepCheckpoint) -> FsResult<()> {
    write_atomic(path, &snapshot_file_bytes(checkpoint))
}

/// Incremental checkpoint persistence over the segment log.
///
/// Opening the persister compacts the file to a fresh snapshot (one atomic
/// rewrite per *run*); each merged shard then costs one small fdatasync'd
/// delta append instead of a full-file rewrite, and the file is re-compacted
/// only when the appended deltas outgrow the last snapshot. All writes
/// happen *outside* the coordinator mutex (encoding is memory-speed and
/// stays under it); the persister's own mutex serializes the file, and the
/// version check keeps a compaction encoded before a concurrent delta from
/// wiping that delta off disk.
pub(super) struct Persister {
    path: PathBuf,
    state: Mutex<PersisterState>,
}

struct PersisterState {
    /// Append handle to the live segment file (replaced on compaction,
    /// since the rename puts a new inode at the path).
    file: std::fs::File,
    /// Size of the last compacted file (its lone snapshot record).
    snapshot_bytes: u64,
    /// Delta bytes appended since that compaction.
    segment_bytes: u64,
    /// Newest merge version recorded on disk (delta or compaction).
    last_version: u64,
    /// Set when a failed append may have left a torn record that could
    /// *not* be truncated away. Appending anything after such a record
    /// would let its declared length swallow the next record on replay —
    /// breaking the "torn records only ever sit at the tail" invariant —
    /// so further appends are refused until a compaction (an atomic full
    /// rewrite) replaces the file.
    wedged: bool,
}

impl Persister {
    /// Compacts `checkpoint` to `path` (atomically replacing whatever was
    /// there — the caller has already loaded and validated it) and opens
    /// the file for delta appends.
    pub(super) fn open(path: &Path, checkpoint: &SweepCheckpoint) -> FsResult<Persister> {
        let bytes = snapshot_file_bytes(checkpoint);
        write_atomic(path, &bytes)?;
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| FsError::Device(format!("open checkpoint {}: {e}", path.display())))?;
        Ok(Persister {
            path: path.to_path_buf(),
            state: Mutex::new(PersisterState {
                file,
                snapshot_bytes: bytes.len() as u64,
                segment_bytes: 0,
                last_version: 0,
                wedged: false,
            }),
        })
    }

    /// Durably appends one delta record (`payload` is the encoded
    /// `shard | ShardResult` of merge number `version`). Returns true when
    /// the deltas have outgrown the snapshot and a compaction is due.
    ///
    /// A failed append (ENOSPC, EIO…) may have written a partial record; the
    /// partial bytes are truncated away so the file stays replayable, and if
    /// even the truncation fails the persister refuses further appends
    /// (appending a complete record *after* torn bytes would let the torn
    /// record's declared length swallow it on replay) until a compaction
    /// atomically rewrites the file.
    pub(super) fn append_delta(&self, version: u64, payload: &[u8]) -> FsResult<bool> {
        use std::io::Write;
        let record = segment_record(REC_DELTA, payload);
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if state.wedged {
            return Err(FsError::Device(format!(
                "append checkpoint {}: a previous failed append left a torn \
                 record that could not be truncated",
                self.path.display()
            )));
        }
        let append = state
            .file
            .write_all(&record)
            .and_then(|()| state.file.sync_data());
        if let Err(error) = append {
            // Roll the file back to its last-good length; on success the
            // torn bytes are gone and later appends are safe again.
            let good_len = state.snapshot_bytes + state.segment_bytes;
            if state.file.set_len(good_len).is_err() {
                state.wedged = true;
            }
            return Err(FsError::Device(format!(
                "append checkpoint {}: {error}",
                self.path.display()
            )));
        }
        state.segment_bytes += record.len() as u64;
        state.last_version = state.last_version.max(version);
        Ok(state.segment_bytes > state.snapshot_bytes.max(MIN_COMPACT_BYTES))
    }

    /// Atomically rewrites the file as one snapshot (the checkpoint as of
    /// merge number `version`), dropping the replayed deltas. Skipped when
    /// a newer delta is already on disk — the snapshot would not contain
    /// it, so compacting over it would lose a persisted shard.
    pub(super) fn compact(&self, version: u64, snapshot_payload: &[u8]) -> FsResult<()> {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if version < state.last_version {
            return Ok(());
        }
        let mut bytes = Vec::with_capacity(snapshot_payload.len() + 9);
        bytes.extend_from_slice(&SEGMENT_MAGIC);
        bytes.extend_from_slice(&segment_record(REC_SNAPSHOT, snapshot_payload));
        write_atomic(&self.path, &bytes)?;
        state.file = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| {
                FsError::Device(format!("reopen checkpoint {}: {e}", self.path.display()))
            })?;
        state.snapshot_bytes = bytes.len() as u64;
        state.segment_bytes = 0;
        state.last_version = version;
        // The atomic rewrite replaced whatever a failed append left behind.
        state.wedged = false;
        Ok(())
    }
}
