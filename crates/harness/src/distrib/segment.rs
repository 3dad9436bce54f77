//! The checkpoint file: an append-only segment log.
//!
//! This module is the only code that knows the `B3SG` file: its framing,
//! the torn-tail rule, the durable append, the atomic rewrite, and what the
//! records mean. The authoritative human-readable specification — record
//! grammar, compaction triggers, magic history, and a worked hexdump — is
//! `docs/FORMATS.md` at the repository root, cross-checked against this
//! code by the `docs` integration test.
//!
//! Layout: the 4 magic bytes `B3SG`, then records of `tag(u8) | len(u32
//! LE) | payload`. Records are appended one `write_all` + `fdatasync` at a
//! time and a failed append is rolled back (`AppendLog`), so torn bytes
//! only ever sit at the tail, where the scan stops; whole images are only
//! ever written by a rewrite, atomically.
//!
//! A [`REC_SNAPSHOT`] record holds a full serialized [`SweepCheckpoint`]
//! and resets the replayed state; a [`REC_DELTA`] record holds one
//! `shard(u32 LE) | ShardResult` pair, merged into the most recent
//! preceding snapshot. Snapshots are only ever written by an atomic
//! rewrite; deltas are appended, so a torn delta at the tail loses only its
//! shard, which is simply re-run.

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

/// A `Corrupted` error naming `path` as a segment checkpoint.
fn corrupt(path: &Path, what: impl std::fmt::Display) -> FsError {
    FsError::Corrupted(format!("segment checkpoint {}: {what}", path.display()))
}

/// Frames one record.
fn frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(payload.len() + 5);
    record.push(tag);
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(payload);
    record
}

/// Scans a segment file image front to back, handing every complete
/// record's tag and payload to `decode`. Stops at a torn tail — a header
/// shorter than 5 bytes, or a declared length running past end-of-file: the
/// signature a killed writer leaves — and returns its length. A missing
/// magic, a tag other than [`REC_SNAPSHOT`] and [`REC_DELTA`], a payload
/// `decode` refuses, and a payload `decode` leaves bytes of are all
/// `Corrupted`, naming `path`.
fn scan(
    path: &Path,
    bytes: &[u8],
    mut decode: impl FnMut(u8, &mut Decoder<'_>) -> FsResult<()>,
) -> FsResult<usize> {
    let mut rest = bytes
        .strip_prefix(&SEGMENT_MAGIC)
        .ok_or_else(|| corrupt(path, "no B3SG magic: not a segment checkpoint"))?;
    while let Some(([tag, len @ ..], body)) = rest.split_first_chunk::<5>() {
        let len = u32::from_le_bytes(*len) as usize;
        let Some((payload, next)) = body.split_at_checked(len) else {
            break; // a torn tail
        };
        if ![REC_SNAPSHOT, REC_DELTA].contains(tag) {
            return Err(corrupt(path, format_args!("unknown record tag {tag:#x}")));
        }
        let mut dec = Decoder::new(payload);
        decode(*tag, &mut dec).map_err(|error| match error {
            FsError::Corrupted(what) => corrupt(path, what),
            other => corrupt(path, other),
        })?;
        let left = dec.remaining();
        if left > 0 {
            let what = format!("{left} bytes left over in a record of tag {tag:#x}");
            return Err(corrupt(path, what));
        }
        rest = next;
    }
    Ok(rest.len())
}

/// Reads a whole segment file; `None` when there is none.
fn read(path: &Path) -> FsResult<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(FsError::Device(format!("read {}: {e}", path.display()))),
    }
}

/// Atomically writes `bytes` to `path`: a uniquely-named sibling temp file
/// (per process *and* per call, so concurrent writers never clobber each
/// other's temp), fsynced before the rename, with the parent directory
/// fsynced after — rename-without-fsync is precisely the bug class this
/// project tests for. A failed attempt removes its temp file.
fn write_atomic(path: &Path, bytes: &[u8]) -> FsResult<()> {
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
    inner(path, bytes).map_err(|e| FsError::Device(format!("persist {}: {e}", path.display())))
}

/// Atomically replaces the file at `path` with `image` (the magic and
/// complete records — a compaction) and opens it for appends. The rename
/// puts a new inode at `path`, so this is also what clears a wedged log.
fn rewrite(path: &Path, image: &[u8]) -> FsResult<AppendLog> {
    write_atomic(path, image)?;
    let file = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| FsError::Device(format!("open {}: {e}", path.display())))?;
    Ok(AppendLog::over(file, path, image.len() as u64))
}

/// The file operations [`AppendLog`] needs — `std::fs::File` in production,
/// a writer that fails on cue in the tests.
trait LogFile: std::io::Write {
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

/// Durable appends to a segment file: one `write_all` + `fdatasync` per
/// record, keeping the invariant [`scan`] relies on — torn bytes only ever
/// sit at the *tail* of the file.
///
/// A failed append (ENOSPC, EIO…) may have written part of the record. A
/// complete record appended *after* such bytes would be swallowed by the
/// torn record's declared length on replay, so the failed append is rolled
/// back by truncating the file to its last-good length; if even that fails
/// the log is *wedged* and refuses further appends. Only a [`rewrite`] of
/// the file (a compaction), which hands the owner a fresh `AppendLog`, gets
/// rid of a wedge.
struct AppendLog<F: LogFile = std::fs::File> {
    file: F,
    path: PathBuf,
    /// Length of the file up to the end of its last complete record.
    good_len: u64,
    wedged: bool,
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

    /// Bytes of complete records (and the magic) in the file.
    fn len(&self) -> u64 {
        self.good_len
    }

    /// Durably appends one framed record, or leaves the file as it was.
    fn append(&mut self, record: &[u8]) -> FsResult<()> {
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

/// A compacted segment file: the magic and one snapshot record.
fn snapshot_image(payload: &[u8]) -> Vec<u8> {
    [&SEGMENT_MAGIC[..], &frame(REC_SNAPSHOT, payload)].concat()
}

/// Replays a segment file: a snapshot resets the checkpoint, a delta
/// merges one shard into it.
fn replay(path: &Path, bytes: &[u8]) -> FsResult<SweepCheckpoint> {
    let mut current: Option<SweepCheckpoint> = None;
    scan(path, bytes, |tag, dec| {
        if tag == REC_SNAPSHOT {
            current = Some(SweepCheckpoint::decode(dec)?);
            return Ok(());
        }
        let checkpoint = current
            .as_mut()
            .ok_or_else(|| FsError::Corrupted("delta record before any snapshot".into()))?;
        let shard = dec.get_u32()?;
        if shard as usize >= checkpoint.num_shards() {
            return Err(FsError::Corrupted(format!(
                "delta for shard {shard} of a {}-shard sweep",
                checkpoint.num_shards()
            )));
        }
        checkpoint.record(shard, ShardResult::decode(dec)?);
        Ok(())
    })?;
    current.ok_or_else(|| corrupt(path, "no snapshot record"))
}

/// Per-record statistics of a segment checkpoint file — used by tests and
/// resume diagnostics to see how the file was produced (one snapshot per
/// compaction, one delta per merged shard since).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SegmentStats {
    /// Snapshot (compaction) records.
    pub snapshots: usize,
    /// Per-shard delta records.
    pub deltas: usize,
    /// Bytes of a torn trailing record, ignored on load (0 for a cleanly
    /// written file).
    pub truncated_tail_bytes: usize,
}

/// Counts the records of a segment checkpoint file from their framing
/// (payloads are not decoded). Errors on a missing file and on files that
/// are not in the segment format.
pub fn segment_stats(path: &Path) -> FsResult<SegmentStats> {
    let bytes =
        read(path)?.ok_or_else(|| FsError::NotFound(format!("checkpoint {}", path.display())))?;
    let mut stats = SegmentStats::default();
    stats.truncated_tail_bytes = scan(path, &bytes, |tag, dec| {
        match tag {
            REC_SNAPSHOT => stats.snapshots += 1,
            _ => stats.deltas += 1,
        }
        dec.get_rest();
        Ok(())
    })?;
    Ok(stats)
}

/// Loads a checkpoint file written by [`save_checkpoint`] or a coordinator's
/// `Persister`: replays the deltas onto the latest snapshot, tolerating a
/// torn trailing record. Returns `Ok(None)` when the file does not exist;
/// a file that does not start with the segment magic is `Corrupted`.
pub fn load_checkpoint(path: &Path) -> FsResult<Option<SweepCheckpoint>> {
    read(path)?.map(|bytes| replay(path, &bytes)).transpose()
}

/// Persists a checkpoint as a one-snapshot segment file, atomically (a
/// temp-file write followed by a rename, so a kill mid-write never corrupts
/// the file).
pub fn save_checkpoint(path: &Path, checkpoint: &SweepCheckpoint) -> FsResult<()> {
    write_atomic(path, &snapshot_image(&checkpoint.to_bytes()))
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
        let log = rewrite(path, &snapshot_image(&checkpoint.to_bytes()))?;
        Ok(Persister {
            path: path.to_path_buf(),
            state: Mutex::new(PersisterState {
                snapshot_bytes: log.len(),
                log,
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
        state.log.append(&frame(REC_DELTA, payload))?;
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
        state.log = rewrite(&self.path, &snapshot_image(snapshot_payload))?;
        state.snapshot_bytes = state.log.len();
        state.last_version = version;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b3_ace::Bounds;
    use b3_vfs::codec::Encoder;
    use std::io::Write;

    /// The payload of a delta record for `shard`.
    fn delta(shard: u32) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u32(shard);
        ShardResult {
            tested: 1,
            ..ShardResult::default()
        }
        .encode(&mut enc);
        enc.finish()
    }

    /// The record half of the corruption table (the framing half is
    /// `framing_corruption_is_rejected`): what the records say must make
    /// sense, and the refusal names the case and the file.
    #[test]
    fn corrupt_segment_logs_are_rejected() {
        let path = Path::new("job.ck");
        let checkpoint = SweepCheckpoint::scoped(&Bounds::tiny(), 4, "test");
        let snapshot = frame(REC_SNAPSHOT, &checkpoint.to_bytes());
        let delta_record = |shard| frame(REC_DELTA, &delta(shard));
        for (records, needle) in [
            (vec![delta_record(1)], "delta record before any snapshot"),
            (
                vec![snapshot, delta_record(4)],
                "delta for shard 4 of a 4-shard sweep",
            ),
            (vec![], "no snapshot record"),
        ] {
            let bytes = [&SEGMENT_MAGIC[..], &records.concat()].concat();
            let error = replay(path, &bytes).expect_err(needle).to_string();
            assert!(error.contains(needle), "{error}");
            assert!(error.contains("segment checkpoint job.ck"), "{error}");
        }
    }

    fn scratch(test: &str) -> PathBuf {
        std::env::temp_dir().join(format!("b3-segment-{test}-{}.ck", std::process::id()))
    }

    /// A saved checkpoint is one snapshot record that loads back to the
    /// same checkpoint; a missing file loads as `None` but has no stats.
    #[test]
    fn a_saved_checkpoint_loads_back_as_one_snapshot() {
        let path = scratch("save");
        assert!(load_checkpoint(&path)
            .expect("a missing file loads")
            .is_none());
        let error = segment_stats(&path).expect_err("no stats without a file");
        assert!(matches!(error, FsError::NotFound(_)), "{error}");
        let mut checkpoint = SweepCheckpoint::scoped(&Bounds::tiny(), 4, "test");
        checkpoint.record(
            2,
            ShardResult {
                tested: 3,
                ..ShardResult::default()
            },
        );
        save_checkpoint(&path, &checkpoint).expect("checkpoint saves");
        let loaded = load_checkpoint(&path).expect("checkpoint loads");
        assert_eq!(format!("{loaded:?}"), format!("{:?}", Some(checkpoint)));
        let stats = segment_stats(&path).expect("stats read");
        assert_eq!(
            stats,
            SegmentStats {
                snapshots: 1,
                deltas: 0,
                truncated_tail_bytes: 0
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A compaction encoded before a delta that reached the disk first is
    /// skipped, so the delta survives; a compaction as new as the newest
    /// delta replaces the deltas with its snapshot.
    #[test]
    fn a_compaction_older_than_the_newest_delta_is_skipped() {
        let path = scratch("stale-compaction");
        let empty = SweepCheckpoint::scoped(&Bounds::tiny(), 4, "test");
        let persister = Persister::open(&path, &empty).expect("persister opens");
        persister.append_delta(2, &delta(1)).expect("delta appends");
        persister
            .compact(1, &empty.to_bytes())
            .expect("stale compaction");
        assert_eq!(segment_stats(&path).expect("stats").deltas, 1);

        let mut merged = empty.clone();
        merged.record(
            1,
            ShardResult {
                tested: 1,
                ..ShardResult::default()
            },
        );
        persister
            .compact(2, &merged.to_bytes())
            .expect("current compaction");
        let stats = segment_stats(&path).expect("stats");
        assert_eq!((stats.snapshots, stats.deltas), (1, 0));
        let loaded = load_checkpoint(&path).expect("loads").expect("exists");
        assert_eq!(format!("{loaded:?}"), format!("{merged:?}"));
        let _ = std::fs::remove_file(&path);
    }

    /// Appended deltas ask for a compaction exactly when their bytes first
    /// exceed both the snapshot and the [`MIN_COMPACT_BYTES`] floor.
    #[test]
    fn deltas_ask_for_a_compaction_once_they_outgrow_the_floor() {
        let path = scratch("compaction-due");
        let checkpoint = SweepCheckpoint::scoped(&Bounds::tiny(), 4, "test");
        let persister = Persister::open(&path, &checkpoint).expect("persister opens");
        // The persister frames payloads without decoding them.
        let payload = vec![0u8; (MIN_COMPACT_BYTES / 4) as usize];
        let due: Vec<bool> = (1..=5)
            .map(|version| persister.append_delta(version, &payload).expect("appends"))
            .collect();
        assert_eq!(due, [false, false, false, true, true]);
        let _ = std::fs::remove_file(&path);
    }

    /// A snapshot whose declared length swallows the deltas after it is
    /// refused, not loaded without them: a record must decode to its last
    /// byte.
    #[test]
    fn a_snapshot_swallowing_the_deltas_is_corrupt() {
        let path = std::env::temp_dir().join(format!("b3-swallow-{}.ck", std::process::id()));
        let checkpoint = SweepCheckpoint::scoped(&Bounds::tiny(), 4, "test");
        let persister = Persister::open(&path, &checkpoint).expect("persister opens");
        for shard in [1, 2] {
            persister
                .append_delta(u64::from(shard), &delta(shard))
                .expect("delta appends");
        }
        let mut bytes = std::fs::read(&path).expect("checkpoint reads");
        let swallowing = bytes.len() as u32 - 9;
        bytes[5..9].copy_from_slice(&swallowing.to_le_bytes());
        std::fs::write(&path, &bytes).expect("checkpoint writes");
        let error = load_checkpoint(&path).expect_err("the swallowed deltas must not vanish");
        assert!(error.to_string().contains("left over"), "{error}");
        let _ = std::fs::remove_file(&path);
    }

    fn scratch_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("b3-segment-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

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

    /// The append half of the log, driven through a writer that fails
    /// after N bytes: a failed append leaves the file replaying to exactly
    /// the records before it, the next append lands and replays, and when
    /// the rollback itself fails the log refuses appends until the file is
    /// rewritten.
    #[test]
    fn failed_appends_roll_back_and_a_failed_rollback_wedges_the_log() {
        let path = scratch_dir("appendlog").join("log");
        let header = SEGMENT_MAGIC;
        write_atomic(&path, &header).expect("header writes");
        let record = frame(REC_DELTA, &[7u8; 40]);
        let replayed = || {
            let bytes = read(&path).expect("log reads").expect("log exists");
            let mut records = 0;
            let torn = scan(&path, &bytes, |_, dec| {
                records += 1;
                (0..5).try_for_each(|_| dec.get_u64().map(drop))
            })
            .expect("log replays");
            (records, torn)
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
        let mut log = rewrite(&path, &header).expect("compaction rewrites the file");
        log.append(&record).expect("append after the rewrite");
        assert_eq!(replayed(), (1, 0));
        let _ = std::fs::remove_dir_all(path.parent().expect("scratch dir"));
    }

    /// The files in `dir`, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("dir lists")
            .map(|entry| entry.expect("entry").file_name().to_string_lossy().into())
            .collect();
        names.sort();
        names
    }

    /// An atomic write replaces the whole file and leaves only it behind;
    /// reading a file that is not there is `None`, not an error.
    #[test]
    fn atomic_writes_replace_the_file_and_leave_no_temp_file() {
        let dir = scratch_dir("atomic");
        let path = dir.join("log");
        assert_eq!(read(&path).expect("a missing log reads"), None);
        write_atomic(&path, b"first, longer image").expect("first write");
        write_atomic(&path, b"second").expect("second write");
        assert_eq!(read(&path).expect("log reads"), Some(b"second".to_vec()));
        assert_eq!(listing(&dir), ["log"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A write whose rename fails — here the target is a non-empty
    /// directory — is a `Device` error naming the path, and removes the
    /// temp file it made.
    #[test]
    fn a_failed_atomic_write_removes_its_temp_file() {
        let dir = scratch_dir("atomic-fails");
        let path = dir.join("taken");
        std::fs::create_dir_all(path.join("inside")).expect("blocking dir");
        let error = write_atomic(&path, b"image").expect_err("rename onto a directory");
        assert!(matches!(error, FsError::Device(_)), "{error}");
        assert!(error.to_string().contains("persist"), "{error}");
        assert_eq!(listing(&dir), ["taken"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The two shapes of a torn tail — a header cut short of its 5 bytes,
    /// and a declared length running past end-of-file — both end the scan
    /// after the last whole record and report the torn bytes' length.
    #[test]
    fn scan_stops_at_a_torn_tail_and_reports_its_length() {
        let whole = [&SEGMENT_MAGIC[..], &frame(REC_SNAPSHOT, b"ok")].concat();
        let long = frame(REC_DELTA, &[9u8; 100]);
        for (tail, torn) in [
            (&long[..0], 0),
            (&long[..3], 3),
            (&long[..5], 5),
            (&long[..15], 15),
            (&long[..long.len() - 1], long.len() - 1),
        ] {
            let bytes = [&whole[..], tail].concat();
            let mut payloads = Vec::new();
            let left = scan(Path::new("t"), &bytes, |_, dec| {
                payloads.push(dec.get_rest().to_vec());
                Ok(())
            })
            .expect("a torn tail is not corruption");
            assert_eq!(left, torn);
            assert_eq!(payloads, [b"ok".to_vec()]);
        }
    }

    /// A `B3SG` file of one snapshot and two deltas: its records in order,
    /// and what each prefix of whole records loads to (`None`: refused as
    /// corrupt).
    fn sample() -> (Vec<Vec<u8>>, Vec<Option<String>>) {
        let mut checkpoint = SweepCheckpoint::scoped(&Bounds::tiny(), 4, "segment");
        let mut records = vec![frame(REC_SNAPSHOT, &checkpoint.to_bytes())];
        let mut loads = vec![None, Some(format!("{checkpoint:?}"))];
        for (shard, tested) in [(1, 3), (3, 5)] {
            let result = ShardResult {
                tested,
                ..ShardResult::default()
            };
            let mut delta = Encoder::new();
            delta.put_u32(shard);
            result.encode(&mut delta);
            records.push(frame(REC_DELTA, &delta.finish()));
            checkpoint.record(shard, result);
            loads.push(Some(format!("{checkpoint:?}")));
        }
        (records, loads)
    }

    /// Writes `bytes` as the file at `path` and loads it through the
    /// public loader, rendered for comparison.
    fn load(path: &Path, bytes: &[u8]) -> FsResult<String> {
        std::fs::write(path, bytes).expect("sample writes");
        let loaded = load_checkpoint(path)?.expect("sample exists");
        Ok(format!("{loaded:?}"))
    }

    /// Decoder robustness for the segment scan: every
    /// truncation and every single-bit flip of a real `B3SG` file loads or
    /// is refused as corrupt — never a panic, never another error — and a
    /// cut anywhere loads exactly the whole records before it.
    #[test]
    fn every_cut_and_every_bit_flip_loads_or_is_corrupt() {
        let dir = scratch_dir("cut-and-flip");
        let path = dir.join("sample.ck");
        let (records, loads) = sample();
        let image = [&SEGMENT_MAGIC[..], &records.concat()].concat();
        let ends: Vec<usize> = (records.iter())
            .scan(SEGMENT_MAGIC.len(), |end, record| {
                *end += record.len();
                Some(*end)
            })
            .collect();
        for cut in 0..=image.len() {
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            // Short of the magic there is no log at all.
            let expected = loads[whole].clone().filter(|_| cut >= SEGMENT_MAGIC.len());
            match (expected, load(&path, &image[..cut])) {
                (Some(expected), Ok(loaded)) => {
                    assert_eq!(loaded, expected, "cut at {cut}");
                }
                (None, Err(FsError::Corrupted(_))) => {}
                (expected, loaded) => {
                    panic!("cut at {cut}: wanted {expected:?}, got {loaded:?}")
                }
            }
        }
        for bit in 0..image.len() * 8 {
            let mut flipped = image.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            match load(&path, &flipped) {
                Ok(_) | Err(FsError::Corrupted(_)) => {}
                Err(other) => panic!("bit {bit} flipped: {other}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The framing half of the log's corruption table: a wrong magic, an
    /// unknown tag, and a record whose payload decodes short of its
    /// declared length are refused with a message naming the case and the
    /// file.
    #[test]
    fn framing_corruption_is_rejected() {
        let dir = scratch_dir("framing");
        let path = dir.join("sample.ck");
        let (records, _) = sample();
        let mut padded = records[0].clone();
        padded.push(0);
        let len = padded.len() as u32 - 5;
        padded[1..5].copy_from_slice(&len.to_le_bytes());
        for (case, bytes, needle) in [
            ("wrong magic", b"NOPE".to_vec(), "magic"),
            (
                "unknown tag",
                [&SEGMENT_MAGIC[..], &frame(7, b"junk")].concat(),
                "unknown record tag 0x7",
            ),
            (
                "leftover bytes",
                [&SEGMENT_MAGIC[..], &padded].concat(),
                "1 bytes left over",
            ),
        ] {
            let error = load(&path, &bytes).expect_err(case);
            let message = error.to_string();
            assert!(matches!(error, FsError::Corrupted(_)), "{case}: {message}");
            assert!(message.contains(needle), "{case}: {message}");
            assert!(message.contains(&*dir.to_string_lossy()), "{message}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
