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

/// The file operations [`AppendLog`] needs — `std::fs::File` in production,
/// a writer that fails on cue in the tests.
pub(super) trait LogFile: std::io::Write {
    fn sync_data(&mut self) -> std::io::Result<()>;
    fn set_len(&mut self, len: u64) -> std::io::Result<()>;
}

impl LogFile for std::fs::File {
    fn sync_data(&mut self) -> std::io::Result<()> {
        std::fs::File::sync_data(self)
    }

    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        std::fs::File::set_len(self, len)
    }
}

/// Durable appends to a record log (the `B3SG` checkpoint deltas and the
/// `B3FQ` fleet queue journal): one `write_all` + `fdatasync` per record,
/// keeping the invariant both replays rely on — torn bytes only ever sit at
/// the *tail* of the file.
///
/// A failed append (ENOSPC, EIO…) may have written part of the record. A
/// complete record appended *after* such bytes would be swallowed by the
/// torn record's declared length on replay, so the failed append is rolled
/// back by truncating the file to its last-good length; if even that fails
/// the log is *wedged* and refuses further appends. Only an atomic rewrite
/// of the file (a compaction), after which the owner opens a fresh
/// `AppendLog`, gets rid of a wedge.
pub(super) struct AppendLog<F: LogFile = std::fs::File> {
    file: F,
    path: PathBuf,
    /// Length of the file up to the end of its last complete record.
    good_len: u64,
    wedged: bool,
}

impl AppendLog {
    /// Opens `path` — just (re)written in full, `good_len` bytes long — for
    /// appends.
    pub(super) fn open(path: &Path, good_len: u64) -> FsResult<AppendLog> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| FsError::Device(format!("open {}: {e}", path.display())))?;
        Ok(AppendLog::over(file, path, good_len))
    }
}

impl<F: LogFile> AppendLog<F> {
    fn over(file: F, path: &Path, good_len: u64) -> AppendLog<F> {
        AppendLog {
            file,
            path: path.to_path_buf(),
            good_len,
            wedged: false,
        }
    }

    /// Bytes of complete records (and the header) in the file.
    pub(super) fn len(&self) -> u64 {
        self.good_len
    }

    /// Durably appends one framed record, or leaves the file as it was.
    pub(super) fn append(&mut self, record: &[u8]) -> FsResult<()> {
        let failed = |why: &dyn std::fmt::Display| {
            FsError::Device(format!("append to {}: {why}", self.path.display()))
        };
        if self.wedged {
            return Err(failed(
                &"a previous failed append left a torn record that could not be truncated",
            ));
        }
        let appended = self
            .file
            .write_all(record)
            .and_then(|()| self.file.sync_data());
        if let Err(error) = appended {
            // Roll the file back to its last-good length; on success the
            // torn bytes are gone and later appends are safe again.
            let error = failed(&error);
            self.wedged = self.file.set_len(self.good_len).is_err();
            return Err(error);
        }
        self.good_len += record.len() as u64;
        Ok(())
    }
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
    /// since the rename puts a new inode at the path — which is also what
    /// clears a wedged log).
    log: AppendLog,
    /// Size of the last compacted file (its lone snapshot record).
    snapshot_bytes: u64,
    /// Newest merge version recorded on disk (delta or compaction).
    last_version: u64,
}

impl Persister {
    /// Compacts `checkpoint` to `path` (atomically replacing whatever was
    /// there — the caller has already loaded and validated it) and opens
    /// the file for delta appends.
    pub(super) fn open(path: &Path, checkpoint: &SweepCheckpoint) -> FsResult<Persister> {
        let bytes = snapshot_file_bytes(checkpoint);
        write_atomic(path, &bytes)?;
        Ok(Persister {
            path: path.to_path_buf(),
            state: Mutex::new(PersisterState {
                log: AppendLog::open(path, bytes.len() as u64)?,
                snapshot_bytes: bytes.len() as u64,
                last_version: 0,
            }),
        })
    }

    /// Durably appends one delta record (`payload` is the encoded
    /// `shard | ShardResult` of merge number `version`) through the
    /// [`AppendLog`], so a failed append never leaves torn bytes in the
    /// middle of the file. Returns true when the deltas have outgrown the
    /// snapshot and a compaction is due.
    pub(super) fn append_delta(&self, version: u64, payload: &[u8]) -> FsResult<bool> {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.log.append(&segment_record(REC_DELTA, payload))?;
        state.last_version = state.last_version.max(version);
        let delta_bytes = state.log.len() - state.snapshot_bytes;
        Ok(delta_bytes > state.snapshot_bytes.max(MIN_COMPACT_BYTES))
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
        state.log = AppendLog::open(&self.path, bytes.len() as u64)?;
        state.snapshot_bytes = bytes.len() as u64;
        state.last_version = version;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// A log file that writes through to the real file until its byte
    /// budget runs out (then fails mid-record, like ENOSPC), and whose
    /// truncation can be made to fail too.
    struct FailingFile {
        file: std::fs::File,
        budget: usize,
        truncate_fails: bool,
    }

    impl Write for FailingFile {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::other("injected: no space left on device"));
            }
            let written = self.file.write(&bytes[..bytes.len().min(self.budget)])?;
            self.budget -= written;
            Ok(written)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.file.flush()
        }
    }

    impl LogFile for FailingFile {
        fn sync_data(&mut self) -> std::io::Result<()> {
            self.file.sync_data()
        }

        fn set_len(&mut self, len: u64) -> std::io::Result<()> {
            if self.truncate_fails {
                return Err(std::io::Error::other("injected: truncate failed"));
            }
            self.file.set_len(len)
        }
    }

    /// The append half both journaled logs share, driven through a writer
    /// that fails after N bytes: a failed append leaves the file replaying
    /// to exactly the records before it, the next append lands and replays,
    /// and when the rollback itself fails the log refuses appends until the
    /// file is rewritten.
    #[test]
    fn failed_appends_roll_back_and_a_failed_rollback_wedges_the_log() {
        let path = std::env::temp_dir().join(format!("b3-appendlog-{}.b3sg", std::process::id()));
        let checkpoint = SweepCheckpoint::scoped(&b3_ace::Bounds::tiny(), 4, "test");
        let header = snapshot_file_bytes(&checkpoint);
        write_atomic(&path, &header).expect("snapshot writes");
        let record = segment_record(REC_DELTA, &[7u8; 40]);
        let replayed = || {
            let stats = segment_stats(&path).expect("log replays");
            (stats.deltas, stats.truncated_tail_bytes)
        };
        let failing = |budget: usize, truncate_fails: bool| FailingFile {
            file: std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("log opens"),
            budget,
            truncate_fails,
        };

        // One record fits, the second is cut off 10 bytes in.
        let mut log = AppendLog::over(
            failing(record.len() + 10, false),
            &path,
            header.len() as u64,
        );
        log.append(&record).expect("first append fits the budget");
        let error = log
            .append(&record)
            .expect_err("second append runs out of space");
        assert!(error.to_string().contains("injected"), "{error}");
        assert_eq!(replayed(), (1, 0), "the torn bytes were truncated away");
        assert_eq!(log.len(), (header.len() + record.len()) as u64);

        // The log is usable again: a later append lands right after the
        // last good record and replays.
        log.file.budget = usize::MAX;
        log.append(&record)
            .expect("append after a rolled-back failure");
        assert_eq!(replayed(), (2, 0));

        // A failure whose rollback fails too leaves torn bytes at the tail
        // (still replayable) and wedges the log, so no complete record can
        // ever land behind them…
        let mut log = AppendLog::over(failing(10, true), &path, log.len());
        log.append(&record).expect_err("append runs out of space");
        assert_eq!(replayed(), (2, 10));
        log.file.budget = usize::MAX;
        let error = log
            .append(&record)
            .expect_err("a wedged log refuses appends");
        assert!(
            error.to_string().contains("could not be truncated"),
            "{error}"
        );
        assert_eq!(replayed(), (2, 10), "the refused append wrote nothing");

        // …until the owner rewrites the file and opens a fresh log over it.
        write_atomic(&path, &header).expect("compaction rewrites the file");
        let mut log = AppendLog::open(&path, header.len() as u64).expect("fresh log opens");
        log.append(&record).expect("append after the rewrite");
        assert_eq!(replayed(), (1, 0));
        let _ = std::fs::remove_file(&path);
    }
}
