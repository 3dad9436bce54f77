//! The checkpoint file: an append-only segment log.
//!
//! This module is the *implementation* of what the `B3SG` records mean;
//! the authoritative human-readable specification — record grammar,
//! compaction triggers, magic history, and a worked hexdump — is
//! `docs/FORMATS.md` at the repository root, cross-checked against this
//! code by the `docs` integration test. The framing, torn tails, durable
//! appends and atomic rewrites are the record log's (`recordlog.rs`).
//!
//! A [`REC_SNAPSHOT`] record holds a full serialized [`SweepCheckpoint`]
//! and resets the replayed state; a [`REC_DELTA`] record holds one
//! `shard(u32 LE) | ShardResult` pair, merged into the most recent
//! preceding snapshot. Snapshots are only ever written by an atomic
//! rewrite; deltas are appended, so a torn delta at the tail loses only its
//! shard, which is simply re-run.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use b3_vfs::error::{FsError, FsResult};

use super::recordlog::{self, AppendLog, Format};
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

/// The `B3SG` record-log format.
const SEGMENT_LOG: Format = Format {
    magic: SEGMENT_MAGIC,
    tags: &[REC_SNAPSHOT, REC_DELTA],
    noun: "segment checkpoint",
};

/// A compacted segment file: the magic and one snapshot record.
fn snapshot_image(payload: &[u8]) -> Vec<u8> {
    [&SEGMENT_MAGIC[..], &recordlog::frame(REC_SNAPSHOT, payload)].concat()
}

/// Replays a segment file: a snapshot resets the checkpoint, a delta
/// merges one shard into it.
fn replay(path: &Path, bytes: &[u8]) -> FsResult<SweepCheckpoint> {
    let mut current: Option<SweepCheckpoint> = None;
    recordlog::scan(&SEGMENT_LOG, path, bytes, |tag, dec| {
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
    current.ok_or_else(|| SEGMENT_LOG.corrupt(path, "no snapshot record"))
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
    let bytes = recordlog::read(path)?
        .ok_or_else(|| FsError::NotFound(format!("checkpoint {}", path.display())))?;
    let mut stats = SegmentStats::default();
    stats.truncated_tail_bytes = recordlog::scan(&SEGMENT_LOG, path, &bytes, |tag, dec| {
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
    recordlog::read(path)?
        .map(|bytes| replay(path, &bytes))
        .transpose()
}

/// Persists a checkpoint as a one-snapshot segment file, atomically (a
/// temp-file write followed by a rename, so a kill mid-write never corrupts
/// the file).
pub fn save_checkpoint(path: &Path, checkpoint: &SweepCheckpoint) -> FsResult<()> {
    recordlog::write_atomic(path, &snapshot_image(&checkpoint.to_bytes()))
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
        let log = recordlog::rewrite(path, &snapshot_image(&checkpoint.to_bytes()))?;
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
        state.log.append(&recordlog::frame(REC_DELTA, payload))?;
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
        state.log = recordlog::rewrite(&self.path, &snapshot_image(snapshot_payload))?;
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

    /// The `B3SG` half of the corruption table (the framing half is in
    /// `recordlog`): what the records say must make sense, and the refusal
    /// names the case and the file.
    #[test]
    fn corrupt_segment_logs_are_rejected() {
        let path = Path::new("job.ck");
        let checkpoint = SweepCheckpoint::scoped(&Bounds::tiny(), 4, "test");
        let snapshot = recordlog::frame(REC_SNAPSHOT, &checkpoint.to_bytes());
        let delta_record = |shard| recordlog::frame(REC_DELTA, &delta(shard));
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
}
