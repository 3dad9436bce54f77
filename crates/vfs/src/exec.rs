//! Executing workload operations against a [`FileSystem`].
//!
//! The executor is the reproduction's equivalent of the C++ test programs
//! ACE's adapter emits for CrashMonkey: it turns each [`Op`] into calls on
//! the file-system under test, resolves symbolic write patterns into
//! concrete byte ranges, and fills writes with deterministic data so the
//! AutoChecker can detect data loss and corruption byte-for-byte.

use crate::error::{FsError, FsResult};
use crate::fs::FileSystem;
use crate::tree::range_end;
use crate::workload::{Op, Workload, WritePattern, WriteSpec};

/// Size of one "block" of workload data (matches the 4 KiB writes that
/// dominate the paper's workloads).
pub const WRITE_BLOCK: u64 = 4096;

/// Length used for deliberately unaligned appends (mirrors the partial-page
/// writes in corpus workloads such as the btrfs punch-hole bug).
pub const UNALIGNED_LEN: u64 = 3000;

/// Policy knobs for workload execution.
#[derive(Debug, Clone, Copy)]
pub struct ExecPolicy {
    /// Treat `EEXIST` from `creat`/`mkdir` as success, like `touch` and
    /// `mkdir -p`. ACE-generated workloads rely on this because dependency
    /// resolution may create a file that a later core `creat` also names.
    pub idempotent_creates: bool,
    /// Treat `ENOENT` from `unlink`/`remove`/`rmdir` as success. Disabled by
    /// default; corpus workloads are exact and should not need it.
    pub ignore_missing_removes: bool,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy {
            idempotent_creates: true,
            ignore_missing_removes: false,
        }
    }
}

/// Stateful workload executor.
#[derive(Debug, Default, Clone)]
pub struct Executor {
    policy: ExecPolicy,
    op_counter: u64,
}

impl Executor {
    /// Creates an executor with the default policy.
    pub fn new() -> Self {
        Executor::with_policy(ExecPolicy::default())
    }

    /// Creates an executor with an explicit policy.
    pub fn with_policy(policy: ExecPolicy) -> Self {
        Executor {
            policy,
            op_counter: 0,
        }
    }

    /// Number of operations applied so far.
    pub fn ops_applied(&self) -> u64 {
        self.op_counter
    }

    /// Applies one operation to the file system.
    pub fn apply(&mut self, fs: &mut dyn FileSystem, op: &Op) -> FsResult<()> {
        self.op_counter += 1;
        let seed = self.op_counter;
        let result = match op {
            Op::Creat { path } => soften_exists(fs.create(path), self.policy.idempotent_creates),
            Op::Mkdir { path } => soften_exists(fs.mkdir(path), self.policy.idempotent_creates),
            Op::Mkfifo { path } => soften_exists(fs.mkfifo(path), self.policy.idempotent_creates),
            Op::Symlink { target, linkpath } => fs.symlink(target, linkpath),
            Op::Link { existing, new } => fs.link(existing, new),
            Op::Unlink { path } => {
                soften_missing(fs.unlink(path), self.policy.ignore_missing_removes)
            }
            Op::Remove { path } => {
                let result = match fs.metadata(path) {
                    Ok(meta) if meta.is_dir() => fs.rmdir(path),
                    Ok(_) => fs.unlink(path),
                    Err(e) => Err(e),
                };
                soften_missing(result, self.policy.ignore_missing_removes)
            }
            Op::Rmdir { path } => {
                soften_missing(fs.rmdir(path), self.policy.ignore_missing_removes)
            }
            Op::Rename { from, to } => fs.rename(from, to),
            Op::Write { path, mode, spec } => {
                let (offset, len) = resolve_write(fs, path, *spec)?;
                // The range is workload text: refuse it before filling it.
                range_end(offset, len)?;
                let data = fill_data(seed, offset, len);
                fs.write(path, offset, &data, *mode)
            }
            Op::Mmap { path, .. } => {
                // Mapping itself does not change durable state; it only
                // requires the file to exist.
                fs.metadata(path).map(|_| ())
            }
            Op::Msync { path, offset, len } => {
                range_end(*offset, *len).and_then(|_| fs.msync(path, *offset, *len))
            }
            Op::Truncate { path, size } => fs.truncate(path, *size),
            Op::Falloc {
                path,
                mode,
                offset,
                len,
            } => fs.fallocate(path, *mode, *offset, *len),
            Op::SetXattr { path, name, value } => fs.setxattr(path, name, value.as_bytes()),
            Op::RemoveXattr { path, name } => fs.removexattr(path, name),
            Op::Fsync { path } => fs.fsync(path),
            Op::Fdatasync { path } => fs.fdatasync(path),
            Op::Sync => fs.sync(),
        };
        result
    }

    /// Applies every operation of a workload (setup then core).
    pub fn apply_all(&mut self, fs: &mut dyn FileSystem, workload: &Workload) -> FsResult<()> {
        for op in workload.all_ops() {
            self.apply(fs, op)?;
        }
        Ok(())
    }
}

/// Applies one operation with a fresh default-policy executor.
pub fn apply_op(fs: &mut dyn FileSystem, op: &Op) -> FsResult<()> {
    Executor::new().apply(fs, op)
}

/// Applies a whole workload with a fresh default-policy executor.
pub fn apply_workload(fs: &mut dyn FileSystem, workload: &Workload) -> FsResult<()> {
    Executor::new().apply_all(fs, workload)
}

/// Resolves a [`WriteSpec`] into a concrete `(offset, len)` against the
/// file's current size. Patterns on a missing file behave as writes from
/// offset 0, so ACE's phase-4 dependency resolution (which creates the file
/// first) and hand-written corpus workloads behave identically.
pub fn resolve_write(fs: &dyn FileSystem, path: &str, spec: WriteSpec) -> FsResult<(u64, u64)> {
    match spec {
        WriteSpec::Range { offset, len } => Ok((offset, len)),
        WriteSpec::Pattern(pattern) => {
            let size = match fs.metadata(path) {
                Ok(meta) => meta.size,
                Err(FsError::NotFound(_)) => 0,
                Err(e) => return Err(e),
            };
            Ok(resolve_pattern(pattern, size))
        }
    }
}

/// Pure pattern-to-range resolution (exposed for ACE's tests).
pub fn resolve_pattern(pattern: WritePattern, file_size: u64) -> (u64, u64) {
    match pattern {
        WritePattern::Append => (file_size, WRITE_BLOCK),
        WritePattern::AppendUnaligned => (file_size, UNALIGNED_LEN),
        WritePattern::OverwriteStart => (0, WRITE_BLOCK),
        WritePattern::OverwriteMiddle => {
            let mid = (file_size / 2) & !511;
            (mid, WRITE_BLOCK)
        }
        WritePattern::OverwriteEnd => {
            let start = file_size.saturating_sub(WRITE_BLOCK / 2);
            (start, WRITE_BLOCK)
        }
    }
}

/// Deterministic fill data for a write: a function of the op sequence number
/// and the absolute file offset, so every byte is distinguishable from both
/// zeroes and the data written by any other operation. Every byte of one
/// 512-byte sector has the same value, so the data is filled a run at a time.
pub fn fill_data(seed: u64, offset: u64, len: u64) -> Vec<u8> {
    let mut data = Vec::with_capacity(len as usize);
    let end = offset + len;
    let mut pos = offset;
    while pos < end {
        let run = (512 - pos % 512).min(end - pos);
        let byte = (seed as u8)
            .wrapping_mul(31)
            .wrapping_add((pos / 512) as u8)
            .wrapping_add(0x41);
        data.resize(data.len() + run as usize, byte);
        pos += run;
    }
    data
}

fn soften_exists(result: FsResult<()>, soften: bool) -> FsResult<()> {
    match result {
        Err(FsError::AlreadyExists(_)) if soften => Ok(()),
        other => other,
    }
}

fn soften_missing(result: FsResult<()>, soften: bool) -> FsResult<()> {
    match result {
        Err(FsError::NotFound(_)) if soften => Ok(()),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_resolution_on_empty_file() {
        assert_eq!(resolve_pattern(WritePattern::Append, 0), (0, WRITE_BLOCK));
        assert_eq!(
            resolve_pattern(WritePattern::OverwriteStart, 0),
            (0, WRITE_BLOCK)
        );
        assert_eq!(
            resolve_pattern(WritePattern::OverwriteMiddle, 0),
            (0, WRITE_BLOCK)
        );
        assert_eq!(
            resolve_pattern(WritePattern::OverwriteEnd, 0),
            (0, WRITE_BLOCK)
        );
    }

    #[test]
    fn pattern_resolution_on_16k_file() {
        let size = 16 * 1024;
        assert_eq!(
            resolve_pattern(WritePattern::Append, size),
            (size, WRITE_BLOCK)
        );
        assert_eq!(
            resolve_pattern(WritePattern::AppendUnaligned, size),
            (size, UNALIGNED_LEN)
        );
        assert_eq!(
            resolve_pattern(WritePattern::OverwriteMiddle, size),
            (8192, WRITE_BLOCK)
        );
        // Overwrite-end straddles EOF: starts 2 KiB before the end.
        assert_eq!(
            resolve_pattern(WritePattern::OverwriteEnd, size),
            (size - 2048, WRITE_BLOCK)
        );
    }

    #[test]
    fn fill_data_is_deterministic_and_offset_sensitive() {
        let a = fill_data(3, 0, 1024);
        let b = fill_data(3, 0, 1024);
        assert_eq!(a, b);
        let shifted = fill_data(3, 512, 1024);
        assert_ne!(a, shifted);
        let other_op = fill_data(4, 0, 1024);
        assert_ne!(a, other_op);
        assert!(
            a.iter().all(|&byte| byte != 0),
            "fill data must be non-zero"
        );
    }

    /// The run-at-a-time fill equals the byte-at-a-time formula, at offsets
    /// and lengths that start and end inside a sector.
    #[test]
    fn fill_data_equals_the_bytewise_formula() {
        let bytewise = |seed: u64, offset: u64, len: u64| -> Vec<u8> {
            (offset..offset + len)
                .map(|pos| {
                    (seed as u8)
                        .wrapping_mul(31)
                        .wrapping_add((pos / 512) as u8)
                        .wrapping_add(0x41)
                })
                .collect()
        };
        for seed in [0, 3, 9, 300] {
            for offset in [0, 1, 511, 512, 513, 4095, 130_000, 131_071] {
                for len in [0, 1, 2, 511, 512, 513, 1023, 4096, 5000] {
                    assert_eq!(
                        fill_data(seed, offset, len),
                        bytewise(seed, offset, len),
                        "seed {seed}, offset {offset}, len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn softening_helpers() {
        assert!(soften_exists(Err(FsError::AlreadyExists("x".into())), true).is_ok());
        assert!(soften_exists(Err(FsError::AlreadyExists("x".into())), false).is_err());
        assert!(soften_missing(Err(FsError::NotFound("x".into())), true).is_ok());
        assert!(soften_missing(Err(FsError::NoSpace), true).is_err());
    }
}
