//! Phase 3: the AutoChecker.
//!
//! "CRASHMONKEY's AutoChecker is able to test for correctness automatically
//! because it has three key pieces of information: it knows which files were
//! persisted, it has the correct data and metadata of those files in the
//! oracle, and it has the actual data and metadata of the corresponding
//! files in the crash state after recovery." (§5.1)
//!
//! The read checks compare, for every explicitly persisted path, the state
//! the persistence operation guaranteed against the recovered state. A
//! recovered entry is also accepted if it exactly matches the full oracle at
//! the crash point — file systems are allowed to persist *more* than was
//! requested (ext4's whole-transaction fsync does), just never less.
//!
//! The write checks then exercise the recovered file system: new files must
//! be creatable, and persisted directories must be removable once emptied —
//! catching the "directory un-removable" and "cannot create files" bug
//! classes that do not show up as missing or corrupt data.

use b3_block::CowSnapshotDevice;
use b3_vfs::error::FsError;
use b3_vfs::fs::{FileSystem, FsSpec};
use b3_vfs::metadata::FileType;
use b3_vfs::path::{join, normalize, parent};
use b3_vfs::snapshot::{EntrySnapshot, LogicalSnapshot, SnapshotDiff};
use b3_vfs::workload::{Op, Workload};

use crate::config::CrashMonkeyConfig;
use crate::profiler::{CheckpointInfo, ProfileResult};
use crate::report::{BugReport, Consequence, WorkloadOutcome};

/// The outcome of checking one crash state.
///
/// Deliberately free of workload identity (no name or skeleton): identity is
/// attached by [`CheckVerdict::into_report`], which is what lets the triage
/// cache reuse a verdict across workloads. Equality compares every field;
/// the triage audit relies on it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckVerdict {
    /// Read-check differences (persisted state not recovered correctly).
    pub diffs: Vec<SnapshotDiff>,
    /// Consequences derived from the read-check differences.
    pub read_consequences: Vec<Consequence>,
    /// Write-check failures, human readable.
    pub write_failures: Vec<String>,
    /// Consequences derived from the write checks.
    pub write_consequences: Vec<Consequence>,
    /// Set when the crash state could not even be mounted.
    pub unmountable: Option<String>,
    /// Summary of the expected state, for the bug report: empty on a
    /// verdict that passed, which never becomes one.
    pub expected: String,
    /// Summary of the observed state, for the bug report: empty on a
    /// verdict that passed.
    pub actual: String,
}

/// The verdict on one checkpoint's crash state as the checkpoint's
/// [`Held`](crate::trunk::Held) cell keeps it for later workloads whose run
/// reached the checkpoint through the same operations. Crash state and
/// [`CheckpointInfo`] are functions of those operations; the rename
/// candidates are the one checker input that is not — `rename_candidates`
/// scans every rename of the workload, those after the crash point
/// included — so they ride along, and the verdict answers only a workload
/// whose candidates are the same. A triage witness holds one too.
#[derive(Debug, Clone, PartialEq)]
pub struct HeldVerdict {
    rename_candidates: Vec<(String, String)>,
    pub(crate) verdict: CheckVerdict,
}

impl HeldVerdict {
    /// Whether this verdict, found at `info` for another workload, answers
    /// `workload` there too.
    pub(crate) fn answers(&self, workload: &Workload, info: &CheckpointInfo) -> bool {
        self.rename_candidates == rename_candidates(workload, info)
    }
}

impl CheckVerdict {
    /// True if any check failed.
    pub fn failed(&self) -> bool {
        self.consequence().is_some()
    }

    /// The most severe consequence observed, if any.
    pub fn consequence(&self) -> Option<Consequence> {
        if self.unmountable.is_some() {
            return Some(Consequence::Unmountable);
        }
        self.read_consequences
            .iter()
            .chain(self.write_consequences.iter())
            .copied()
            .max()
    }

    /// Converts a failed verdict on `crash_point` into a bug report on the
    /// workload (and file system) `outcome` is for; `None` when all checks
    /// passed.
    pub fn into_report(self, outcome: &WorkloadOutcome, crash_point: u32) -> Option<BugReport> {
        let consequence = self.consequence()?;
        let mut all_consequences: Vec<Consequence> = self
            .read_consequences
            .iter()
            .chain(self.write_consequences.iter())
            .copied()
            .collect();
        if self.unmountable.is_some() {
            all_consequences.push(Consequence::Unmountable);
        }
        all_consequences.sort();
        all_consequences.dedup();
        Some(BugReport {
            workload_name: outcome.workload_name.clone(),
            skeleton: outcome.skeleton.clone(),
            fs_name: outcome.fs_name.clone(),
            crash_point,
            consequence,
            all_consequences,
            expected: self.expected,
            actual: self.actual,
            diffs: self.diffs,
            write_check_failures: self.write_failures,
        })
    }
}

/// The AutoChecker for one file system and configuration.
pub struct AutoChecker<'a> {
    spec: &'a dyn FsSpec,
    #[allow(dead_code)]
    config: &'a CrashMonkeyConfig,
}

impl<'a> AutoChecker<'a> {
    /// Creates a checker.
    pub fn new(spec: &'a dyn FsSpec, config: &'a CrashMonkeyConfig) -> Self {
        AutoChecker { spec, config }
    }

    /// Checks one crash state against the expectations captured at the
    /// corresponding checkpoint, mounting the state from scratch.
    pub fn check(
        &self,
        workload: &Workload,
        profile: &ProfileResult,
        info: &CheckpointInfo,
        state: CowSnapshotDevice,
    ) -> CheckVerdict {
        let mounted = self.spec.mount(Box::new(state.clone()));
        self.check_recovered(workload, profile, info, state, mounted)
    }

    /// Checks one crash state whose recovery has already been attempted.
    /// `state` is the raw crash-state device, used only for fsck when
    /// `recovered` is an error.
    pub fn check_recovered(
        &self,
        workload: &Workload,
        _profile: &ProfileResult,
        info: &CheckpointInfo,
        state: CowSnapshotDevice,
        recovered: b3_vfs::error::FsResult<Box<dyn b3_vfs::fs::FileSystem>>,
    ) -> CheckVerdict {
        let rename_pairs = rename_candidates(workload, info);
        self.check_with_candidates(&rename_pairs, info, state, recovered)
    }

    /// [`check_recovered`](Self::check_recovered), kept with the rename
    /// candidates it was found under, as a checkpoint's cell or a triage
    /// witness holds it.
    pub(crate) fn hold(
        &self,
        workload: &Workload,
        info: &CheckpointInfo,
        state: CowSnapshotDevice,
        recovered: b3_vfs::error::FsResult<Box<dyn b3_vfs::fs::FileSystem>>,
    ) -> HeldVerdict {
        let rename_candidates = rename_candidates(workload, info);
        let verdict = self.check_with_candidates(&rename_candidates, info, state, recovered);
        HeldVerdict {
            rename_candidates,
            verdict,
        }
    }

    /// [`check_recovered`](Self::check_recovered) for a caller that already
    /// has the workload's [`rename_candidates`] at `info`: with them the
    /// verdict no longer depends on the workload.
    fn check_with_candidates(
        &self,
        rename_pairs: &[(String, String)],
        info: &CheckpointInfo,
        state: CowSnapshotDevice,
        recovered: b3_vfs::error::FsResult<Box<dyn b3_vfs::fs::FileSystem>>,
    ) -> CheckVerdict {
        let mut verdict = CheckVerdict::default();

        // The file system ran its recovery when the crash state was
        // mounted. If that failed, run the offline checker (fsck) for the
        // report.
        let mut fsck_device = state;
        let mut fs = match recovered {
            Ok(fs) => fs,
            Err(error) => {
                let fsck = self
                    .spec
                    .fsck(&mut fsck_device)
                    .unwrap_or_else(|e| format!("fsck unavailable: {e}"));
                verdict.unmountable = Some(error.to_string());
                verdict.expected = "mountable file system".to_string();
                verdict.actual = format!("{error}; {fsck}");
                return verdict;
            }
        };

        // The checks below only ever look at explicitly persisted paths and
        // the rename pairs, so capture exactly those from the recovered
        // state instead of walking the whole file system and reading every
        // file's data per crash state.
        let relevant: std::collections::BTreeSet<&str> = info
            .persisted
            .keys()
            .map(String::as_str)
            .chain(
                rename_pairs
                    .iter()
                    .chain(info.durable_renames.iter())
                    .flat_map(|(from, to)| [from.as_str(), to.as_str()]),
            )
            .collect();
        let crash_snapshot = match LogicalSnapshot::capture_paths(fs.as_ref(), relevant) {
            Ok(snapshot) => snapshot,
            Err(error) => {
                verdict.unmountable = Some(format!("recovered file system unreadable: {error}"));
                verdict.expected = "readable file system".to_string();
                verdict.actual = error.to_string();
                return verdict;
            }
        };

        self.read_checks(info, &crash_snapshot, &mut verdict);
        self.rename_atomicity_check(
            rename_pairs,
            info,
            &crash_snapshot,
            fs.as_ref(),
            &mut verdict,
        );
        self.durable_rename_check(info, &crash_snapshot, fs.as_ref(), &mut verdict);
        self.write_checks(info, fs.as_mut(), &mut verdict);

        // The two summaries are read from a bug report only, and a verdict
        // that passed never becomes one.
        if verdict.failed() {
            verdict.expected = summarize_expectations(info);
            let mut parts: Vec<String> = verdict.diffs.iter().map(ToString::to_string).collect();
            parts.extend(verdict.write_failures.iter().cloned());
            verdict.actual = parts.join("; ");
        }
        verdict
    }

    /// Read checks: every persisted path must be recovered with the state
    /// its persistence guaranteed.
    fn read_checks(
        &self,
        info: &CheckpointInfo,
        crash: &LogicalSnapshot,
        verdict: &mut CheckVerdict,
    ) {
        for (path, expectation) in &info.persisted {
            // Paths legitimately removed or renamed away after being
            // persisted are no longer guaranteed.
            if !info.oracle.contains(path) {
                continue;
            }
            let Some(actual) = crash.get(path) else {
                verdict
                    .diffs
                    .push(SnapshotDiff::Missing { path: path.clone() });
                verdict
                    .read_consequences
                    .push(match expectation.entry.file_type {
                        FileType::Directory => Consequence::DirectoryMissing,
                        _ => Consequence::FileMissing,
                    });
                continue;
            };

            let diffs = if expectation.existence_only {
                existence_diffs(path, &expectation.entry, actual)
            } else {
                full_diffs(path, &expectation.entry, actual)
            };
            if diffs.is_empty() {
                continue;
            }
            // Tolerate recovered state that exactly matches the full oracle:
            // the file system persisted more than required, which is legal.
            if info.oracle.get(path) == Some(actual) {
                continue;
            }
            for diff in diffs {
                verdict.read_consequences.push(classify_diff(&diff));
                verdict.diffs.push(diff);
            }
        }
    }

    /// Rename atomicity: if a persisted file was renamed, recovery must not
    /// leave the *same object* visible under both the old and new name.
    ///
    /// Both names being present is not by itself a violation: when the
    /// rename overwrote an existing destination, a crash state that simply
    /// predates the rename legally shows the source alongside the old
    /// destination file. Only when the recovered `from` and `to` entries
    /// resolve to one inode has a rename been half-applied.
    fn rename_atomicity_check(
        &self,
        candidates: &[(String, String)],
        info: &CheckpointInfo,
        crash: &LogicalSnapshot,
        fs: &dyn FileSystem,
        verdict: &mut CheckVerdict,
    ) {
        for (from, to) in candidates {
            if crash.contains(to)
                && crash.contains(from)
                && !info.oracle.contains(from)
                && same_inode(fs, from, to)
            {
                verdict
                    .diffs
                    .push(SnapshotDiff::Unexpected { path: from.clone() });
                verdict
                    .read_consequences
                    .push(Consequence::FileInBothLocations);
            }
        }
    }

    /// Op-order-aware durable-rename check: when the rename itself was made
    /// durable (its new name fsynced, or a sync ran, *after* the rename),
    /// the old name must be gone entirely. The same-inode case is covered by
    /// [`AutoChecker::rename_atomicity_check`]; this one catches recovery
    /// resurrecting the old name as a **distinct** inode — stale content
    /// reappearing under a name the crash state has no business recreating
    /// (ROADMAP "Rename-atomicity coverage").
    ///
    /// The old name legitimately reused by a later operation is not a
    /// violation: in that case the path is part of the oracle and the guard
    /// stays silent.
    fn durable_rename_check(
        &self,
        info: &CheckpointInfo,
        crash: &LogicalSnapshot,
        fs: &dyn FileSystem,
        verdict: &mut CheckVerdict,
    ) {
        for (from, to) in &info.durable_renames {
            if crash.contains(to)
                && crash.contains(from)
                && !info.oracle.contains(from)
                && !same_inode(fs, from, to)
            {
                verdict
                    .diffs
                    .push(SnapshotDiff::Unexpected { path: from.clone() });
                verdict
                    .read_consequences
                    .push(Consequence::FileInBothLocations);
            }
        }
    }

    /// Write checks: the recovered file system must still be usable.
    fn write_checks(
        &self,
        info: &CheckpointInfo,
        fs: &mut dyn FileSystem,
        verdict: &mut CheckVerdict,
    ) {
        // New files must be creatable.
        const PROBE: &str = "crashmonkey_write_probe";
        match fs.create(PROBE) {
            Ok(()) => {
                let _ = fs.unlink(PROBE);
            }
            Err(FsError::AlreadyExists(_)) => {}
            Err(error) => {
                verdict
                    .write_failures
                    .push(format!("cannot create new files after recovery: {error}"));
                verdict
                    .write_consequences
                    .push(Consequence::CannotCreateFiles);
            }
        }

        // Persisted directories (and the parents of persisted files) must be
        // removable once emptied.
        let mut dirs: Vec<&str> = Vec::new();
        for (path, expectation) in &info.persisted {
            if expectation.entry.file_type == FileType::Directory && !path.is_empty() {
                dirs.push(path);
            }
            if let Ok(parent_path) = parent(path) {
                if !parent_path.is_empty() && !dirs.contains(&parent_path) {
                    dirs.push(parent_path);
                }
            }
        }
        // Remove the deepest directories first.
        dirs.sort_by_key(|d| std::cmp::Reverse(b3_vfs::path::depth(d)));
        dirs.dedup();
        for dir in dirs {
            if !fs.exists(dir) {
                continue;
            }
            if let Err(error) = remove_recursively(fs, dir) {
                verdict.write_failures.push(format!(
                    "directory '{dir}' cannot be removed after recovery: {error}"
                ));
                verdict
                    .write_consequences
                    .push(Consequence::DirectoryUnremovable);
            }
        }
    }
}

/// The rename pairs the atomicity check must consider: renames whose
/// destination was explicitly persisted, plus renames whose source had been
/// persisted before the rename executed (tracked by the profiler).
fn rename_candidates(workload: &Workload, info: &CheckpointInfo) -> Vec<(String, String)> {
    let explicit = workload.all_ops().filter_map(|op| match op {
        Op::Rename { from, to } => {
            let to = normalize(to);
            info.persisted
                .contains_key(to.as_ref())
                .then(|| (normalize(from).into_owned(), to.into_owned()))
        }
        _ => None,
    });
    let tracked = info.persisted_renames.iter().cloned();
    let mut candidates: Vec<(String, String)> = explicit.chain(tracked).collect();
    candidates.sort();
    candidates.dedup();
    candidates
}

/// True when both paths resolve to the same inode in the recovered file
/// system. Directories cannot be hard-linked, so for a rename pair this
/// means the rename was applied without the old name being removed.
fn same_inode(fs: &dyn FileSystem, from: &str, to: &str) -> bool {
    match (fs.metadata(from), fs.metadata(to)) {
        (Ok(from_meta), Ok(to_meta)) => from_meta.ino == to_meta.ino,
        _ => false,
    }
}

/// Recursively removes a directory and its contents.
fn remove_recursively(fs: &mut dyn FileSystem, path: &str) -> Result<(), FsError> {
    let entries = fs.readdir(path)?;
    for name in entries {
        let child = join(path, &name);
        match fs.metadata(&child) {
            Ok(meta) if meta.is_dir() => remove_recursively(fs, &child)?,
            Ok(_) => fs.unlink(&child)?,
            // A dangling entry: readdir lists it but it cannot be resolved,
            // so it can neither be unlinked nor will rmdir succeed.
            Err(error) => return Err(error),
        }
    }
    fs.rmdir(path)
}

/// Differences when only existence (and identity) is guaranteed.
fn existence_diffs(
    path: &str,
    expected: &EntrySnapshot,
    actual: &EntrySnapshot,
) -> Vec<SnapshotDiff> {
    let mut diffs = Vec::new();
    if expected.file_type != actual.file_type {
        diffs.push(SnapshotDiff::TypeMismatch {
            path: path.to_string(),
            expected: expected.file_type,
            actual: actual.file_type,
        });
    } else if expected.file_type == FileType::Symlink
        && expected.symlink_target != actual.symlink_target
    {
        diffs.push(SnapshotDiff::SymlinkMismatch {
            path: path.to_string(),
            expected: expected.symlink_target.clone(),
            actual: actual.symlink_target.clone(),
        });
    }
    diffs
}

/// Full data + metadata comparison of a persisted entry.
fn full_diffs(path: &str, expected: &EntrySnapshot, actual: &EntrySnapshot) -> Vec<SnapshotDiff> {
    let mut diffs = Vec::new();
    if expected.file_type != actual.file_type {
        diffs.push(SnapshotDiff::TypeMismatch {
            path: path.to_string(),
            expected: expected.file_type,
            actual: actual.file_type,
        });
        return diffs;
    }
    if expected.file_type == FileType::Directory {
        // A directory's size, link count and block count are internal
        // bookkeeping that legally changes when later (persisted) operations
        // add or remove entries; what must survive are the entries
        // themselves, which are covered by per-child existence expectations.
        return diffs;
    }
    if expected.size != actual.size {
        diffs.push(SnapshotDiff::SizeMismatch {
            path: path.to_string(),
            expected: expected.size,
            actual: actual.size,
        });
    }
    if expected.nlink != actual.nlink {
        diffs.push(SnapshotDiff::NlinkMismatch {
            path: path.to_string(),
            expected: expected.nlink,
            actual: actual.nlink,
        });
    }
    if expected.blocks != actual.blocks {
        diffs.push(SnapshotDiff::BlocksMismatch {
            path: path.to_string(),
            expected: expected.blocks,
            actual: actual.blocks,
        });
    }
    if expected.file_type == FileType::Regular && expected.data != actual.data {
        let first = match (&expected.data, &actual.data) {
            (Some(e), Some(a)) => e
                .iter()
                .zip(a.iter())
                .position(|(x, y)| x != y)
                .map(|i| i as u64)
                .or(Some(e.len().min(a.len()) as u64)),
            _ => None,
        };
        diffs.push(SnapshotDiff::DataMismatch {
            path: path.to_string(),
            first_difference: first,
        });
    }
    if expected.file_type == FileType::Symlink && expected.symlink_target != actual.symlink_target {
        diffs.push(SnapshotDiff::SymlinkMismatch {
            path: path.to_string(),
            expected: expected.symlink_target.clone(),
            actual: actual.symlink_target.clone(),
        });
    }
    if expected.xattrs != actual.xattrs {
        diffs.push(SnapshotDiff::XattrMismatch {
            path: path.to_string(),
            expected: expected.xattrs.keys().cloned().collect(),
            actual: actual.xattrs.keys().cloned().collect(),
        });
    }
    diffs
}

/// Maps a read-check difference to its consequence class.
fn classify_diff(diff: &SnapshotDiff) -> Consequence {
    match diff {
        SnapshotDiff::Missing { .. } => Consequence::FileMissing,
        SnapshotDiff::Unexpected { .. } => Consequence::FileInBothLocations,
        SnapshotDiff::TypeMismatch { .. } => Consequence::DataCorruption,
        SnapshotDiff::SizeMismatch {
            expected, actual, ..
        } => {
            if actual < expected {
                Consequence::DataLoss
            } else {
                Consequence::WrongSize
            }
        }
        SnapshotDiff::NlinkMismatch { .. } => Consequence::DataCorruption,
        SnapshotDiff::BlocksMismatch {
            expected, actual, ..
        } => {
            if actual < expected {
                Consequence::BlocksLost
            } else {
                Consequence::WrongSize
            }
        }
        SnapshotDiff::DataMismatch { .. } => Consequence::DataCorruption,
        SnapshotDiff::SymlinkMismatch { actual, .. } => {
            if actual.as_deref() == Some("") {
                Consequence::SymlinkEmpty
            } else {
                Consequence::DataCorruption
            }
        }
        SnapshotDiff::XattrMismatch { .. } => Consequence::XattrInconsistent,
    }
}

/// One-line summary of what was expected at a checkpoint.
fn summarize_expectations(info: &CheckpointInfo) -> String {
    let paths: Vec<String> = info
        .persisted
        .iter()
        .map(|(path, expectation)| {
            let name = if path.is_empty() { "/" } else { path.as_str() };
            match expectation.entry.file_type {
                FileType::Regular => format!("{name} ({} bytes)", expectation.entry.size),
                FileType::Directory => format!("{name}/"),
                FileType::Symlink => format!("{name} -> target"),
                FileType::Fifo => format!("{name} (fifo)"),
            }
        })
        .collect();
    format!("persisted: {}", paths.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::Expectation;
    use std::collections::BTreeMap;

    fn entry(file_type: FileType, size: u64) -> EntrySnapshot {
        EntrySnapshot {
            file_type,
            size,
            nlink: 1,
            blocks: size.div_ceil(512),
            data: (file_type == FileType::Regular).then(|| vec![1u8; size as usize]),
            symlink_target: None,
            children: None,
            xattrs: BTreeMap::new(),
        }
    }

    #[test]
    fn classify_size_shrink_as_data_loss() {
        let diff = SnapshotDiff::SizeMismatch {
            path: "foo".into(),
            expected: 4096,
            actual: 0,
        };
        assert_eq!(classify_diff(&diff), Consequence::DataLoss);
        let grow = SnapshotDiff::SizeMismatch {
            path: "foo".into(),
            expected: 4096,
            actual: 8192,
        };
        assert_eq!(classify_diff(&grow), Consequence::WrongSize);
    }

    #[test]
    fn classify_blocks_shrink_as_blocks_lost() {
        let diff = SnapshotDiff::BlocksMismatch {
            path: "foo".into(),
            expected: 32,
            actual: 16,
        };
        assert_eq!(classify_diff(&diff), Consequence::BlocksLost);
    }

    #[test]
    fn classify_empty_symlink() {
        let diff = SnapshotDiff::SymlinkMismatch {
            path: "ln".into(),
            expected: Some("foo".into()),
            actual: Some(String::new()),
        };
        assert_eq!(classify_diff(&diff), Consequence::SymlinkEmpty);
    }

    #[test]
    fn full_diffs_report_each_field() {
        let expected = entry(FileType::Regular, 4096);
        let mut actual = entry(FileType::Regular, 2048);
        actual.data = Some(vec![2u8; 2048]);
        let diffs = full_diffs("foo", &expected, &actual);
        let tags: Vec<&str> = diffs.iter().map(SnapshotDiff::tag).collect();
        assert!(tags.contains(&"size"));
        assert!(tags.contains(&"blocks"));
        assert!(tags.contains(&"data"));
    }

    #[test]
    fn existence_diffs_only_check_identity() {
        let expected = entry(FileType::Regular, 4096);
        let actual = entry(FileType::Regular, 0);
        assert!(existence_diffs("foo", &expected, &actual).is_empty());
        let dir_actual = entry(FileType::Directory, 0);
        assert_eq!(existence_diffs("foo", &expected, &dir_actual).len(), 1);
    }

    #[test]
    fn verdict_consequence_is_most_severe() {
        let mut verdict = CheckVerdict::default();
        assert!(verdict.consequence().is_none());
        verdict.read_consequences.push(Consequence::DataLoss);
        verdict
            .write_consequences
            .push(Consequence::DirectoryUnremovable);
        assert_eq!(
            verdict.consequence(),
            Some(Consequence::DirectoryUnremovable)
        );
        verdict.unmountable = Some("boom".into());
        assert_eq!(verdict.consequence(), Some(Consequence::Unmountable));
    }

    #[test]
    fn summarize_expectations_lists_paths() {
        let mut persisted = BTreeMap::new();
        persisted.insert(
            "A/foo".to_string(),
            Expectation {
                entry: entry(FileType::Regular, 100).into(),
                existence_only: false,
            },
        );
        let info = CheckpointInfo {
            id: 1,
            op_index: 0,
            op_description: "fsync A/foo".into(),
            persisted,
            persisted_renames: Vec::new(),
            durable_renames: Vec::new(),
            oracle: std::sync::Arc::new(LogicalSnapshot::default()),
            verdict: Default::default(),
        };
        let summary = summarize_expectations(&info);
        assert!(summary.contains("A/foo (100 bytes)"));
    }

    /// End to end through CrashMonkey: `write; sync; rename; fsync(new)` on
    /// the 4.16-era CowFs resurrects the old name as a *distinct* inode —
    /// invisible to the same-inode atomicity check, caught by the
    /// op-order-aware durable-rename check. The same workload is clean on a
    /// patched file system, and a rename that was never made durable is not
    /// flagged.
    #[test]
    fn durable_rename_distinct_inode_resurrection_is_flagged() {
        use crate::CrashMonkey;
        use b3_fs_cow::CowFsSpec;
        use b3_vfs::fs::WriteMode;
        use b3_vfs::workload::{Workload, WriteSpec};
        use b3_vfs::KernelEra;

        let workload = Workload::with_setup(
            "durable-rename",
            vec![
                Op::Mkdir { path: "A".into() },
                Op::Mkdir { path: "B".into() },
                Op::Creat {
                    path: "A/foo".into(),
                },
            ],
            vec![
                Op::Write {
                    path: "A/foo".into(),
                    mode: WriteMode::Buffered,
                    spec: WriteSpec::range(0, 8192),
                },
                Op::Sync,
                Op::Rename {
                    from: "A/foo".into(),
                    to: "B/foo".into(),
                },
                Op::Fsync {
                    path: "B/foo".into(),
                },
            ],
        );

        let buggy = CowFsSpec::new(KernelEra::V4_16);
        let outcome = CrashMonkey::new(&buggy).test_workload(&workload).unwrap();
        assert!(
            outcome.bugs.iter().any(|b| b
                .all_consequences
                .contains(&Consequence::FileInBothLocations)),
            "distinct-inode resurrection must be flagged: {:?}",
            outcome.bugs
        );

        let patched = CowFsSpec::patched();
        let outcome = CrashMonkey::new(&patched).test_workload(&workload).unwrap();
        assert!(
            outcome.bugs.is_empty(),
            "no false positive on patched: {:?}",
            outcome.bugs
        );
    }
}
