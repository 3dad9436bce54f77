//! The reference WAL+KV storage engine under test.
//!
//! [`WalKv`] is deliberately small and deliberately classic: a write-ahead
//! log of commit records, an append-only value heap, and a compacted
//! snapshot, stored through the in-tree [`FileSystem`] trait. It is not a
//! production engine — it exists to have *known-correct* crash semantics
//! that [`EngineProfile`] can selectively break, reproducing the three
//! application-level crash-consistency failure classes the FIRST and
//! WITCHER papers catalogue (see PAPERS.md):
//!
//! 1. **commit-without-data-fsync** — the commit record reaches the device
//!    before the value bytes it points at are durable.
//! 2. **torn-commit** — the commit record is written in two device-visible
//!    chunks with a persistence point in between, and recovery applies the
//!    parseable prefix instead of discarding the torn record.
//! 3. **double-replay** — compaction stamps the snapshot with a stale
//!    `applied_seq`, so the next recovery replays the WAL again.
//!
//! The on-disk record grammar is documented in `docs/FORMATS.md` and
//! enforced by `tests/docs.rs` against [`encode_commit_record`].

use std::collections::BTreeMap;

use b3_vfs::fs::{FileSystem, WriteMode};
use b3_vfs::{mutant, FsResult, Mutant, MutantSet};

/// File holding the commit records (the write-ahead log proper).
pub const COMMIT_LOG: &str = "commit.log";
/// Append-only heap of raw value payloads referenced by commit records.
pub const DATA_LOG: &str = "data.log";
/// Compacted snapshot of the KV state as of `applied_seq`.
pub const SNAPSHOT: &str = "snapshot.db";

/// Magic prefix of every commit record ("B3 App Commit").
pub const COMMIT_MAGIC: [u8; 4] = *b"B3AC";
/// Magic prefix of the snapshot file ("B3 App Snapshot").
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"B3AS";

/// Op kind byte inside a commit record: set `key` to the referenced bytes.
pub const OP_PUT: u8 = 1;
/// Op kind byte: remove `key`.
pub const OP_DELETE: u8 = 2;
/// Op kind byte: append the referenced bytes to `key` (creating it empty
/// first if absent). Append is the non-idempotent op that makes the
/// double-replay bug observable.
pub const OP_APPEND: u8 = 3;

/// Sanity bounds on parsed records; anything larger is treated as
/// corruption rather than trusted (a torn or garbage length field must not
/// drive a multi-gigabyte allocation).
const MAX_KEY_LEN: u32 = 4096;
const MAX_VALUE_LEN: u64 = 1 << 20;
const MAX_OPS: u32 = 4096;

/// Which seeded bugs the engine is built with. `EngineProfile::none()` is
/// the correct engine; each flag independently re-introduces one classic
/// application-level crash-consistency bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineProfile {
    /// Skip the `fsync(data.log)` barrier before writing the commit record,
    /// so a crash can persist the record but not the values it points at
    /// (FIRST's motivating atomicity bug; SNIPPETS.md snippets 1–2).
    pub commit_without_data_fsync: bool,
    /// Write the commit record in two chunks with a persistence point in
    /// between, and recover with lenient prefix parsing instead of
    /// whole-record CRC validation — a crash between the chunks applies a
    /// partial transaction.
    pub torn_commit: bool,
    /// Stamp the compacted snapshot with the *pre-replay* `applied_seq`,
    /// so the WAL is replayed again on every subsequent open (appends are
    /// applied twice: replay is no longer idempotent).
    pub double_replay: bool,
}

/// The seeded bugs are not era-gated: every era but `Patched` has all
/// three. The ids are the spellings `--engine`, `describe()` and checkpoint
/// scopes use.
impl MutantSet for EngineProfile {
    const MUTANTS: &'static [Mutant<Self>] = &[
        mutant!("no-data-fsync" => commit_without_data_fsync, V3_12..),
        mutant!("torn-commit" => torn_commit, V3_12..),
        mutant!("double-replay" => double_replay, V3_12..),
    ];
}

/// One op inside an encoded commit record. Values live in `data.log`; the
/// record references them by offset and length so the WAL itself stays
/// small (and so the commit-without-data-fsync bug has something to lose).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordOp {
    /// [`OP_PUT`], [`OP_DELETE`] or [`OP_APPEND`].
    pub kind: u8,
    /// The key the op targets.
    pub key: String,
    /// Offset of the value payload in `data.log` (puts and appends only).
    pub val_off: u64,
    /// Length of the value payload (puts and appends only).
    pub val_len: u64,
}

/// An op staged in memory before commit.
#[derive(Debug, Clone, PartialEq, Eq)]
enum StagedOp {
    Put { key: String, value: Vec<u8> },
    Append { key: String, value: Vec<u8> },
    Delete { key: String },
}

/// FNV-1a 64-bit over `bytes` — the record and snapshot checksum.
pub fn record_crc(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Encodes one commit record. Layout (little-endian, see docs/FORMATS.md):
///
/// ```text
/// "B3AC" | seq u64 | n_ops u32 | op* | crc u64
/// op := kind u8 | key_len u32 | key | (puts/appends: val_len u64 | val_off u64)
/// ```
///
/// `crc` is FNV-1a 64 over every preceding byte of the record.
pub fn encode_commit_record(seq: u64, ops: &[RecordOp]) -> Vec<u8> {
    let op_len = |op: &RecordOp| 1 + 4 + op.key.len() + if op.kind == OP_DELETE { 0 } else { 16 };
    let len = COMMIT_MAGIC.len() + 8 + 4 + ops.iter().map(op_len).sum::<usize>() + 8;
    let mut buf = Vec::with_capacity(len);
    buf.extend_from_slice(&COMMIT_MAGIC);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        encode_record_op(&mut buf, op);
    }
    let crc = record_crc(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    debug_assert_eq!(buf.len(), len, "the record's length is computed up front");
    buf
}

fn encode_record_op(buf: &mut Vec<u8>, op: &RecordOp) {
    buf.push(op.kind);
    buf.extend_from_slice(&(op.key.len() as u32).to_le_bytes());
    buf.extend_from_slice(op.key.as_bytes());
    if op.kind != OP_DELETE {
        buf.extend_from_slice(&op.val_len.to_le_bytes());
        buf.extend_from_slice(&op.val_off.to_le_bytes());
    }
}

/// A byte cursor over an in-memory buffer; every accessor returns `None`
/// past the end, which the parsers treat as "torn here".
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(len)?;
        if end > self.buf.len() {
            return None;
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn str(&mut self, len: u32) -> Option<String> {
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

/// Result of parsing one commit record out of the WAL byte stream.
struct ParsedRecord {
    seq: u64,
    ops: Vec<RecordOp>,
    /// True when the full record, including a valid CRC, was present.
    complete: bool,
}

/// Parses the next record. `lenient` is the torn-commit recovery mode: a
/// truncated record yields its parseable op prefix (`complete == false`)
/// instead of being rejected. Returns `None` when the stream ends cleanly
/// or the next bytes are not a record.
fn parse_record(reader: &mut Reader<'_>, lenient: bool) -> Option<ParsedRecord> {
    let start = reader.pos;
    let magic = reader.take(4)?;
    if magic != COMMIT_MAGIC {
        return None;
    }
    let seq = reader.u64()?;
    let n_ops = reader.u32().filter(|&n| n <= MAX_OPS)?;
    let mut ops = Vec::new();
    let mut torn = false;
    for _ in 0..n_ops {
        let Some(op) = parse_record_op(reader) else {
            torn = true;
            break;
        };
        ops.push(op);
    }
    if torn {
        return lenient.then_some(ParsedRecord {
            seq,
            ops,
            complete: false,
        });
    }
    let body_end = reader.pos;
    let Some(crc) = reader.u64() else {
        // Record body parsed but the CRC itself is missing: torn in the
        // final chunk.
        return lenient.then_some(ParsedRecord {
            seq,
            ops,
            complete: false,
        });
    };
    if !lenient && crc != record_crc(&reader.buf[start..body_end]) {
        return None;
    }
    Some(ParsedRecord {
        seq,
        ops,
        complete: true,
    })
}

fn parse_record_op(reader: &mut Reader<'_>) -> Option<RecordOp> {
    let kind = reader.u8()?;
    if !matches!(kind, OP_PUT | OP_DELETE | OP_APPEND) {
        return None;
    }
    let key_len = reader.u32().filter(|&n| n <= MAX_KEY_LEN)?;
    let key = reader.str(key_len)?;
    let (val_len, val_off) = if kind == OP_DELETE {
        (0, 0)
    } else {
        let len = reader.u64().filter(|&n| n <= MAX_VALUE_LEN)?;
        let off = reader.u64()?;
        (len, off)
    };
    Some(RecordOp {
        kind,
        key,
        val_off,
        val_len,
    })
}

fn encode_snapshot(applied_seq: u64, state: &BTreeMap<String, Vec<u8>>) -> Vec<u8> {
    let entry_len = |(key, value): (&String, &Vec<u8>)| 4 + key.len() + 8 + value.len();
    let len = SNAPSHOT_MAGIC.len() + 8 + 4 + state.iter().map(entry_len).sum::<usize>() + 8;
    let mut buf = Vec::with_capacity(len);
    buf.extend_from_slice(&SNAPSHOT_MAGIC);
    buf.extend_from_slice(&applied_seq.to_le_bytes());
    buf.extend_from_slice(&(state.len() as u32).to_le_bytes());
    for (key, value) in state {
        buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
        buf.extend_from_slice(key.as_bytes());
        buf.extend_from_slice(&(value.len() as u64).to_le_bytes());
        buf.extend_from_slice(value);
    }
    let crc = record_crc(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    debug_assert_eq!(buf.len(), len, "the snapshot's length is computed up front");
    buf
}

/// Parses a snapshot; any corruption (bad magic, truncation, CRC mismatch)
/// degrades to the empty pre-history state rather than failing, because a
/// recovering engine must come up from whatever the crash left behind.
fn parse_snapshot(bytes: &[u8]) -> (BTreeMap<String, Vec<u8>>, u64) {
    let fallback = (BTreeMap::new(), 0);
    if bytes.len() < SNAPSHOT_MAGIC.len() + 8 + 4 + 8 || bytes[..4] != SNAPSHOT_MAGIC {
        return fallback;
    }
    let body_end = bytes.len() - 8;
    let mut crc_reader = Reader::new(&bytes[body_end..]);
    if crc_reader.u64() != Some(record_crc(&bytes[..body_end])) {
        return fallback;
    }
    let mut reader = Reader::new(&bytes[..body_end]);
    let _magic = reader.take(4);
    let Some(applied_seq) = reader.u64() else {
        return fallback;
    };
    let Some(count) = reader.u32() else {
        return fallback;
    };
    let mut state = BTreeMap::new();
    for _ in 0..count {
        let Some(key_len) = reader.u32().filter(|&n| n <= MAX_KEY_LEN) else {
            return fallback;
        };
        let Some(key) = reader.str(key_len) else {
            return fallback;
        };
        let Some(val_len) = reader.u64().filter(|&n| n <= MAX_VALUE_LEN) else {
            return fallback;
        };
        let Some(value) = reader.take(val_len as usize) else {
            return fallback;
        };
        state.insert(key, value.to_vec());
    }
    (state, applied_seq)
}

/// The reference WAL+KV engine. All methods take the file system as a
/// parameter — the engine holds only logical state, so one instance can be
/// recovered on a crash-state mount and dropped without ceremony, and a
/// clone of it continues on a fork of the file system it was opened on.
#[derive(Debug, Clone)]
pub struct WalKv {
    profile: EngineProfile,
    state: BTreeMap<String, Vec<u8>>,
    staged: Vec<StagedOp>,
    next_seq: u64,
    wal_tail: u64,
    data_tail: u64,
}

impl WalKv {
    /// Formats a freshly made file system for the engine: creates the three
    /// files, writes the empty initial snapshot, and syncs.
    pub fn format(fs: &mut dyn FileSystem) -> FsResult<()> {
        fs.create(COMMIT_LOG)?;
        fs.create(DATA_LOG)?;
        fs.create(SNAPSHOT)?;
        let snapshot = encode_snapshot(0, &BTreeMap::new());
        fs.write(SNAPSHOT, 0, &snapshot, WriteMode::Buffered)?;
        fs.sync()
    }

    /// Opens (recovers) the engine from whatever is on `fs`: loads the
    /// snapshot, replays committed WAL records past its `applied_seq`, and
    /// compacts. Never fails on *corrupt content* — a crash can leave any
    /// byte garbage and recovery must still come up — only on file-system
    /// errors (e.g. the store was never formatted).
    pub fn open(fs: &mut dyn FileSystem, profile: EngineProfile) -> FsResult<WalKv> {
        let (mut state, applied_seq) = parse_snapshot(&fs.read_all(SNAPSHOT)?);
        let wal = fs.read_all(COMMIT_LOG)?;
        let mut reader = Reader::new(&wal);
        let mut last_seq = applied_seq;
        let mut max_seq = applied_seq;
        let mut replayed = false;
        while let Some(record) = parse_record(&mut reader, profile.torn_commit) {
            if record.seq > applied_seq {
                for op in &record.ops {
                    apply_record_op(fs, &mut state, op)?;
                }
                last_seq = last_seq.max(record.seq);
                replayed = true;
            }
            max_seq = max_seq.max(record.seq);
            if !record.complete {
                break;
            }
        }
        if replayed {
            // Compaction: fold the replayed records into the snapshot so the
            // next open starts from here. The double-replay bug stamps the
            // *pre-replay* sequence number, leaving the WAL live.
            let stamp = if profile.double_replay {
                applied_seq
            } else {
                last_seq
            };
            let snapshot = encode_snapshot(stamp, &state);
            fs.write(SNAPSHOT, 0, &snapshot, WriteMode::Buffered)?;
            fs.truncate(SNAPSHOT, snapshot.len() as u64)?;
            fs.fsync(SNAPSHOT)?;
        }
        Ok(WalKv {
            profile,
            state,
            staged: Vec::new(),
            next_seq: max_seq + 1,
            wal_tail: fs.metadata(COMMIT_LOG)?.size,
            data_tail: fs.metadata(DATA_LOG)?.size,
        })
    }

    /// The profile this engine was opened with.
    pub fn profile(&self) -> EngineProfile {
        self.profile
    }

    /// Stages `key := value` in the current transaction.
    pub fn put(&mut self, key: &str, value: &[u8]) {
        self.staged.push(StagedOp::Put {
            key: key.to_string(),
            value: value.to_vec(),
        });
    }

    /// Stages an append of `value` to `key` in the current transaction.
    pub fn append(&mut self, key: &str, value: &[u8]) {
        self.staged.push(StagedOp::Append {
            key: key.to_string(),
            value: value.to_vec(),
        });
    }

    /// Stages a delete of `key` in the current transaction.
    pub fn delete(&mut self, key: &str) {
        self.staged.push(StagedOp::Delete {
            key: key.to_string(),
        });
    }

    /// Discards the staged transaction without touching the device.
    pub fn abort(&mut self) {
        self.staged.clear();
    }

    /// Number of ops staged in the open transaction.
    pub fn staged_ops(&self) -> usize {
        self.staged.len()
    }

    /// Commits the staged transaction: appends value payloads to
    /// `data.log`, makes them durable, then appends and makes durable one
    /// commit record. The seeded bugs each subvert one step — see
    /// [`EngineProfile`].
    pub fn commit(&mut self, fs: &mut dyn FileSystem) -> FsResult<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let staged = std::mem::take(&mut self.staged);
        // 1. Value payloads into the heap.
        let mut ops = Vec::with_capacity(staged.len());
        let mut wrote_data = false;
        for op in &staged {
            let record_op = match op {
                StagedOp::Put { key, value } | StagedOp::Append { key, value } => {
                    let val_off = self.data_tail;
                    fs.write(DATA_LOG, val_off, value, WriteMode::Buffered)?;
                    self.data_tail += value.len() as u64;
                    wrote_data = true;
                    RecordOp {
                        kind: if matches!(op, StagedOp::Put { .. }) {
                            OP_PUT
                        } else {
                            OP_APPEND
                        },
                        key: key.clone(),
                        val_off,
                        val_len: value.len() as u64,
                    }
                }
                StagedOp::Delete { key } => RecordOp {
                    kind: OP_DELETE,
                    key: key.clone(),
                    val_off: 0,
                    val_len: 0,
                },
            };
            ops.push(record_op);
        }
        // 2. The data barrier — the step the no-data-fsync bug skips.
        if wrote_data && !self.profile.commit_without_data_fsync {
            fs.fsync(DATA_LOG)?;
        }
        // 3. The commit record.
        let record = encode_commit_record(self.next_seq, &ops);
        if self.profile.torn_commit && ops.len() > 1 {
            // Torn write: first chunk (header + first op) reaches the
            // device at its own persistence point before the rest.
            let mut split = Vec::new();
            split.extend_from_slice(&COMMIT_MAGIC);
            split.extend_from_slice(&self.next_seq.to_le_bytes());
            split.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            encode_record_op(&mut split, &ops[0]);
            let split_len = split.len();
            fs.write(
                COMMIT_LOG,
                self.wal_tail,
                &record[..split_len],
                WriteMode::Buffered,
            )?;
            fs.fsync(COMMIT_LOG)?;
            fs.write(
                COMMIT_LOG,
                self.wal_tail + split_len as u64,
                &record[split_len..],
                WriteMode::Buffered,
            )?;
        } else {
            fs.write(COMMIT_LOG, self.wal_tail, &record, WriteMode::Buffered)?;
        }
        fs.fsync(COMMIT_LOG)?;
        self.wal_tail += record.len() as u64;
        // 4. Apply to the in-memory view.
        for op in staged {
            match op {
                StagedOp::Put { key, value } => {
                    self.state.insert(key, value);
                }
                StagedOp::Append { key, value } => {
                    self.state.entry(key).or_default().extend_from_slice(&value);
                }
                StagedOp::Delete { key } => {
                    self.state.remove(&key);
                }
            }
        }
        self.next_seq += 1;
        Ok(())
    }

    /// The current committed KV state (staged ops excluded).
    pub fn dump(&self) -> BTreeMap<String, Vec<u8>> {
        self.state.clone()
    }

    /// [`dump`](WalKv::dump) of an engine that is done: the state is moved
    /// out, not copied. Values are trimmed to their length, as a copy's
    /// are: a recovered state may be held for many workloads, and replayed
    /// appends leave spare capacity.
    pub fn into_state(mut self) -> BTreeMap<String, Vec<u8>> {
        self.state.values_mut().for_each(Vec::shrink_to_fit);
        self.state
    }
}

/// Applies one replayed record op, fetching value payloads from the heap.
/// A short read (the payload was never made durable — the no-data-fsync
/// bug) zero-fills, which is exactly how the garbage manifests.
fn apply_record_op(
    fs: &dyn FileSystem,
    state: &mut BTreeMap<String, Vec<u8>>,
    op: &RecordOp,
) -> FsResult<()> {
    match op.kind {
        OP_PUT | OP_APPEND => {
            let mut value = fs.read(DATA_LOG, op.val_off, op.val_len)?;
            value.resize(op.val_len as usize, 0);
            if op.kind == OP_PUT {
                state.insert(op.key.clone(), value);
            } else {
                state
                    .entry(op.key.clone())
                    .or_default()
                    .extend_from_slice(&value);
            }
        }
        OP_DELETE => {
            state.remove(&op.key);
        }
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_bits_round_trip() {
        // Frozen into checkpoint scopes (`…/app:<describe>`): bit i is row i.
        let spellings = [
            "fixed",
            "no-data-fsync",
            "torn-commit",
            "no-data-fsync,torn-commit",
            "double-replay",
            "no-data-fsync,double-replay",
            "torn-commit,double-replay",
            "no-data-fsync,torn-commit,double-replay",
        ];
        for (bits, spelling) in (0..=0b111u64).zip(spellings) {
            let profile = EngineProfile::from_bits(bits).unwrap();
            assert_eq!(profile.bits(), bits);
            assert_eq!(profile.describe(), spelling, "describe of {bits:#05b}");
            assert_eq!(
                EngineProfile::parse(&profile.describe()),
                Ok(profile),
                "describe/parse round trip for {bits:#05b}"
            );
        }
        assert!(EngineProfile::from_bits(0b1000).is_none());
        assert!(EngineProfile::parse("frobnicate").is_err());
    }

    #[test]
    fn record_round_trips_through_strict_parser() {
        let ops = vec![
            RecordOp {
                kind: OP_PUT,
                key: "k0".to_string(),
                val_off: 0,
                val_len: 4,
            },
            RecordOp {
                kind: OP_DELETE,
                key: "k1".to_string(),
                val_off: 0,
                val_len: 0,
            },
        ];
        let bytes = encode_commit_record(7, &ops);
        let mut reader = Reader::new(&bytes);
        let record = parse_record(&mut reader, false).unwrap();
        assert_eq!(record.seq, 7);
        assert_eq!(record.ops, ops);
        assert!(record.complete);
        assert_eq!(reader.pos, bytes.len());
    }

    #[test]
    fn corrupt_crc_is_rejected_strictly_but_prefix_parses_leniently() {
        let ops = vec![
            RecordOp {
                kind: OP_APPEND,
                key: "k".to_string(),
                val_off: 8,
                val_len: 3,
            },
            RecordOp {
                kind: OP_DELETE,
                key: "k2".to_string(),
                val_off: 0,
                val_len: 0,
            },
        ];
        let bytes = encode_commit_record(3, &ops);
        // Truncate mid-second-op: strict rejects, lenient applies op 1.
        let torn = &bytes[..bytes.len() - 12];
        assert!(parse_record(&mut Reader::new(torn), false).is_none());
        let lenient = parse_record(&mut Reader::new(torn), true).unwrap();
        assert_eq!(lenient.ops.len(), 1);
        assert!(!lenient.complete);
        // Flip a CRC byte: strict rejects the whole record.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(parse_record(&mut Reader::new(&bad), false).is_none());
    }

    #[test]
    fn snapshot_round_trips_and_degrades_on_corruption() {
        let mut state = BTreeMap::new();
        state.insert("alpha".to_string(), b"one".to_vec());
        state.insert("beta".to_string(), Vec::new());
        let bytes = encode_snapshot(42, &state);
        assert_eq!(parse_snapshot(&bytes), (state, 42));
        let mut bad = bytes;
        bad[6] ^= 0x01;
        assert_eq!(parse_snapshot(&bad), (BTreeMap::new(), 0));
        assert_eq!(parse_snapshot(b"short"), (BTreeMap::new(), 0));
    }
}
