//! The record log: the file format under B3's own persistent file, the
//! `B3SG` checkpoint ([`super::segment`]). This module is the only code
//! that knows the framing, the torn-tail rule, the durable append and the
//! atomic rewrite; the owner only says what its magic and record tags mean.
//! The specification is the "Record log" section of `docs/FORMATS.md`.
//!
//! Layout: 4 magic bytes, then records of `tag(u8) | len(u32 LE) | payload`.
//! Records are appended one `write_all` + `fdatasync` at a time and a failed
//! append is rolled back ([`AppendLog`]), so torn bytes only ever sit at the
//! tail, where [`scan`] stops; whole images are only ever written by
//! [`rewrite`], atomically.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use b3_vfs::codec::Decoder;
use b3_vfs::error::{FsError, FsResult};

/// What one record-log file format is: its magic, the record tags it
/// defines, and how error messages name one of its files.
pub(super) struct Format {
    pub(super) magic: [u8; 4],
    pub(super) tags: &'static [u8],
    pub(super) noun: &'static str,
}

impl Format {
    /// A `Corrupted` error naming `path` as a file of this format.
    pub(super) fn corrupt(&self, path: &Path, what: impl std::fmt::Display) -> FsError {
        FsError::Corrupted(format!("{} {}: {what}", self.noun, path.display()))
    }
}

/// Frames one record.
pub(super) fn frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(payload.len() + 5);
    record.push(tag);
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(payload);
    record
}

/// Scans a log image front to back, handing every complete record's tag
/// and payload to `decode`. Stops at a torn tail — a header shorter than 5
/// bytes, or a declared length running past end-of-file: the signature a
/// killed writer leaves — and returns its length. A missing magic, a tag
/// the format does not define, a payload `decode` refuses, and a payload
/// `decode` leaves bytes of are all `Corrupted`, naming `path`.
pub(super) fn scan(
    format: &Format,
    path: &Path,
    bytes: &[u8],
    mut decode: impl FnMut(u8, &mut Decoder<'_>) -> FsResult<()>,
) -> FsResult<usize> {
    let (magic, noun) = (format.magic.escape_ascii(), format.noun);
    let not_a_log = || format.corrupt(path, format_args!("no {magic} magic: not a {noun}"));
    let mut rest = bytes.strip_prefix(&format.magic).ok_or_else(not_a_log)?;
    while let Some(([tag, len @ ..], body)) = rest.split_first_chunk::<5>() {
        let len = u32::from_le_bytes(*len) as usize;
        let Some((payload, next)) = body.split_at_checked(len) else {
            break; // a torn tail
        };
        if !format.tags.contains(tag) {
            return Err(format.corrupt(path, format_args!("unknown record tag {tag:#x}")));
        }
        let mut dec = Decoder::new(payload);
        decode(*tag, &mut dec).map_err(|error| match error {
            FsError::Corrupted(what) => format.corrupt(path, what),
            other => format.corrupt(path, other),
        })?;
        let left = dec.remaining();
        if left > 0 {
            let what = format!("{left} bytes left over in a record of tag {tag:#x}");
            return Err(format.corrupt(path, what));
        }
        rest = next;
    }
    Ok(rest.len())
}

/// Reads a whole log file; `None` when there is none.
pub(super) fn read(path: &Path) -> FsResult<Option<Vec<u8>>> {
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
    inner(path, bytes).map_err(|e| FsError::Device(format!("persist {}: {e}", path.display())))
}

/// Atomically replaces the log at `path` with `image` (its magic and
/// complete records — a compaction) and opens it for appends. The rename
/// puts a new inode at `path`, so this is also what clears a wedged log.
pub(super) fn rewrite(path: &Path, image: &[u8]) -> FsResult<AppendLog> {
    write_atomic(path, image)?;
    let file = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| FsError::Device(format!("open {}: {e}", path.display())))?;
    Ok(AppendLog::over(file, path, image.len() as u64))
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

/// Durable appends to a record log: one `write_all` + `fdatasync` per
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
pub(super) struct AppendLog<F: LogFile = std::fs::File> {
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

#[cfg(test)]
mod tests {
    use super::super::load_checkpoint;
    use super::super::segment::{REC_DELTA, REC_SNAPSHOT, SEGMENT_MAGIC};
    use super::*;
    use crate::sweep::{ShardResult, SweepCheckpoint};
    use b3_ace::Bounds;
    use b3_vfs::codec::Encoder;
    use std::io::Write;

    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("b3-recordlog-{test}-{}", std::process::id()));
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
        const LOG: Format = Format {
            magic: *b"B3RT",
            tags: &[1],
            noun: "test log",
        };
        let path = scratch("appendlog").join("log");
        let header = LOG.magic;
        write_atomic(&path, &header).expect("header writes");
        let record = frame(1, &[7u8; 40]);
        let replayed = || {
            let bytes = read(&path).expect("log reads").expect("log exists");
            let mut records = 0;
            let torn = scan(&LOG, &path, &bytes, |_, dec| {
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
        let dir = scratch("atomic");
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
        let dir = scratch("atomic-fails");
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
        const LOG: Format = Format {
            magic: *b"B3RT",
            tags: &[1],
            noun: "test log",
        };
        let whole = [&LOG.magic[..], &frame(1, b"ok")].concat();
        let long = frame(1, &[9u8; 100]);
        for (tail, torn) in [
            (&long[..0], 0),
            (&long[..3], 3),
            (&long[..5], 5),
            (&long[..15], 15),
            (&long[..long.len() - 1], long.len() - 1),
        ] {
            let bytes = [&whole[..], tail].concat();
            let mut payloads = Vec::new();
            let left = scan(&LOG, Path::new("t"), &bytes, |_, dec| {
                payloads.push(dec.get_rest().to_vec());
                Ok(())
            })
            .expect("a torn tail is not corruption");
            assert_eq!(left, torn);
            assert_eq!(payloads, [b"ok".to_vec()]);
        }
    }

    /// One real log, through its public loader: the file's records in
    /// order, and what each prefix of whole records loads to (`None`:
    /// refused as corrupt).
    struct Sample {
        magic: [u8; 4],
        records: Vec<Vec<u8>>,
        loads: Vec<Option<String>>,
        load: Loader,
    }

    /// Writes a file image where the format's loader finds it and loads it.
    type Loader = Box<dyn Fn(&[u8]) -> FsResult<String>>;

    /// A `B3SG` file of one snapshot and two deltas.
    fn segment_sample(dir: &Path) -> Sample {
        let mut checkpoint = SweepCheckpoint::scoped(&Bounds::tiny(), 4, "recordlog");
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
        let path = dir.join("sample.ck");
        Sample {
            magic: SEGMENT_MAGIC,
            records,
            loads,
            load: Box::new(move |bytes| {
                std::fs::write(&path, bytes).expect("sample writes");
                let loaded = load_checkpoint(&path)?.expect("sample exists");
                Ok(format!("{loaded:?}"))
            }),
        }
    }

    /// ROADMAP item 3's decoder robustness, for the record-log scan: every
    /// truncation and every single-bit flip of a real `B3SG` file loads or
    /// is refused as corrupt — never a panic, never another error — and a
    /// cut anywhere loads exactly the whole records before it.
    #[test]
    fn every_cut_and_every_bit_flip_loads_or_is_corrupt() {
        let dir = scratch("cut-and-flip");
        let sample = segment_sample(&dir);
        let image = [&sample.magic[..], &sample.records.concat()].concat();
        let ends: Vec<usize> = (sample.records.iter())
            .scan(sample.magic.len(), |end, record| {
                *end += record.len();
                Some(*end)
            })
            .collect();
        for cut in 0..=image.len() {
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            // Short of the magic there is no log at all.
            let expected = sample.loads[whole]
                .clone()
                .filter(|_| cut >= sample.magic.len());
            match (expected, (sample.load)(&image[..cut])) {
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
            match (sample.load)(&flipped) {
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
        let dir = scratch("framing");
        let sample = segment_sample(&dir);
        let mut padded = sample.records[0].clone();
        padded.push(0);
        let len = padded.len() as u32 - 5;
        padded[1..5].copy_from_slice(&len.to_le_bytes());
        for (case, bytes, needle) in [
            ("wrong magic", b"NOPE".to_vec(), "magic"),
            (
                "unknown tag",
                [&sample.magic[..], &frame(7, b"junk")].concat(),
                "unknown record tag 0x7",
            ),
            (
                "leftover bytes",
                [&sample.magic[..], &padded].concat(),
                "1 bytes left over",
            ),
        ] {
            let error = (sample.load)(&bytes).expect_err(case);
            let message = error.to_string();
            assert!(matches!(error, FsError::Corrupted(_)), "{case}: {message}");
            assert!(message.contains(needle), "{case}: {message}");
            assert!(message.contains(&*dir.to_string_lossy()), "{message}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
