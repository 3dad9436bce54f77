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
use b3_vfs::error::{FsError, FsResult};
use b3_vfs::fs::{FileSystem, FsSpec};
use b3_vfs::metadata::FileType;
use b3_vfs::path::{normalize, parent, SharedPath};
use b3_vfs::snapshot::{EntrySnapshot, SnapshotDiff};
use b3_vfs::workload::{Op, Workload};

use crate::config::CrashMonkeyConfig;
use crate::profiler::{CheckpointInfo, Expectation, ProfileResult, RenamePair};
use crate::report::{BugReport, Consequence, ConsequenceSet, WorkloadOutcome};

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
    rename_candidates: Vec<RenamePair>,
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

    /// The primary consequence and every consequence of a failed verdict,
    /// as its bug report would carry them; `None` when all checks passed.
    pub fn consequences(&self) -> Option<(Consequence, ConsequenceSet)> {
        let consequence = self.consequence()?;
        let mut all: ConsequenceSet = self
            .read_consequences
            .iter()
            .chain(self.write_consequences.iter())
            .copied()
            .collect();
        if self.unmountable.is_some() {
            all.insert(Consequence::Unmountable);
        }
        Some((consequence, all))
    }

    /// Converts a failed verdict on `crash_point` into a bug report on the
    /// workload (and file system) `outcome` is for; `None` when all checks
    /// passed.
    pub fn into_report(self, outcome: &WorkloadOutcome, crash_point: u32) -> Option<BugReport> {
        let (consequence, all) = self.consequences()?;
        Some(BugReport {
            workload_name: outcome.workload_name.clone(),
            skeleton: outcome.skeleton.clone(),
            fs_name: outcome.fs_name.clone(),
            crash_point,
            consequence,
            all_consequences: all.iter().collect(),
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
        recovered: FsResult<Box<dyn FileSystem>>,
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
        recovered: FsResult<Box<dyn FileSystem>>,
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
        rename_pairs: &[RenamePair],
        info: &CheckpointInfo,
        state: CowSnapshotDevice,
        recovered: FsResult<Box<dyn FileSystem>>,
    ) -> CheckVerdict {
        // The file system ran its recovery when the crash state was
        // mounted. If that failed, run the offline checker (fsck) for the
        // report.
        let mut fs = match recovered {
            Ok(fs) => fs,
            Err(error) => {
                let mut device = state;
                let fsck = self
                    .spec
                    .fsck(&mut device)
                    .unwrap_or_else(|e| format!("fsck unavailable: {e}"));
                return CheckVerdict {
                    unmountable: Some(error.to_string()),
                    expected: "mountable file system".to_string(),
                    actual: format!("{error}; {fsck}"),
                    ..CheckVerdict::default()
                };
            }
        };
        // Debug builds judge a fork of the recovered file system by the
        // reference reading too, and require the same verdict.
        #[cfg(debug_assertions)]
        let reference = reference::verdict(rename_pairs, info, fs.as_ref(), state);
        let read = read_checks(rename_pairs, info, fs.as_ref());
        let verdict = finish(info, fs.as_mut(), read);
        #[cfg(debug_assertions)]
        assert!(
            verdict == reference,
            "checkpoint {}: reading the crash state in place gave {verdict:?}, \
             the reference reading {reference:?}",
            info.id
        );
        verdict
    }
}

/// One path the checks read, as the recovered file system holds it.
struct Recovered<'i> {
    path: &'i str,
    /// What was persisted at the path, when the read checks compare it: the
    /// path is persisted and still in the oracle.
    expectation: Option<&'i Expectation>,
    /// Inode number and entry, `None` when the path does not exist. The
    /// entry's payload is read only where a comparison reads it (see
    /// [`reads_payload`]).
    found: Option<(u64, EntrySnapshot)>,
}

/// Reads every path the checks look at from the recovered file system, in
/// place: the root first, then the persisted paths and both endpoints of
/// every rename pair, once each in path order. Any error other than
/// `NotFound` makes the file system unreadable; the first one in that order
/// is returned.
fn read_recovered<'i>(
    rename_pairs: &'i [RenamePair],
    info: &'i CheckpointInfo,
    fs: &dyn FileSystem,
) -> FsResult<Vec<Recovered<'i>>> {
    match fs.metadata("") {
        Ok(_) | Err(FsError::NotFound(_)) => {}
        Err(error) => return Err(error),
    }
    let renames = rename_pairs.iter().chain(info.durable_renames.iter());
    let mut relevant: Vec<Recovered<'i>> = Vec::with_capacity(
        info.persisted.len() + 2 * (rename_pairs.len() + info.durable_renames.len()),
    );
    let unread = |path, expectation| Recovered {
        path,
        expectation,
        found: None,
    };
    relevant.extend(
        info.persisted
            .iter()
            .map(|(path, expectation)| unread(&**path, Some(expectation))),
    );
    relevant.extend(renames.flat_map(|(from, to)| [unread(&**from, None), unread(&**to, None)]));
    // A path both persisted and a rename endpoint keeps its expectation.
    relevant.sort_unstable_by_key(|read| (read.path, read.expectation.is_none()));
    relevant.dedup_by_key(|read| read.path);

    for read in &mut relevant {
        let oracle = read.expectation.and_then(|_| info.oracle.get(read.path));
        read.expectation = read.expectation.filter(|_| oracle.is_some());
        let meta = match fs.metadata(read.path) {
            Ok(meta) => meta,
            Err(FsError::NotFound(_)) => continue,
            Err(error) => return Err(error),
        };
        let ino = meta.ino;
        let mut entry = EntrySnapshot::from_metadata(meta);
        if let (Some(expectation), Some(oracle)) = (read.expectation, oracle) {
            if reads_payload(expectation, oracle.file_type, entry.file_type) {
                entry.read_payload(fs, read.path)?;
            }
        }
        read.found = Some((ino, entry));
    }
    Ok(relevant)
}

/// Whether a comparison reads the payload of a recovered entry of type
/// `actual` at a persisted path whose oracle entry has type `oracle`. When
/// the type is the expected one, the full check compares a regular file's
/// data, and either check a symlink's target. On a type mismatch, the
/// persisted-more fallback compares the whole entry with the oracle's when
/// their types agree: the one case a directory is listed.
fn reads_payload(expectation: &Expectation, oracle: FileType, actual: FileType) -> bool {
    if expectation.entry.file_type == actual {
        actual == FileType::Symlink || (actual == FileType::Regular && !expectation.existence_only)
    } else {
        oracle == actual
    }
}

/// The read checks of a recovered file system read in place, or the error
/// that left it unreadable.
fn read_checks(
    rename_pairs: &[RenamePair],
    info: &CheckpointInfo,
    fs: &dyn FileSystem,
) -> FsResult<CheckVerdict> {
    let recovered = read_recovered(rename_pairs, info, fs)?;
    let mut verdict = CheckVerdict::default();
    for read in &recovered {
        if let Some(expectation) = read.expectation {
            let actual = read.found.as_ref().map(|(_, entry)| entry);
            check_persisted(info, read.path, expectation, actual, &mut verdict);
        }
    }

    // Rename atomicity: if a persisted file was renamed, recovery must not
    // leave the *same object* visible under both the old and new name.
    // Both names being present is not by itself a violation: when the rename
    // overwrote an existing destination, a crash state that simply predates
    // the rename legally shows the source alongside the old destination
    // file. Only when the recovered `from` and `to` entries resolve to one
    // inode has a rename been half-applied.
    //
    // Op-order-aware durable renames: when the rename itself was made
    // durable (its new name fsynced, or a sync ran, *after* the rename), the
    // old name must be gone entirely. The same-inode case is the atomicity
    // check's; this one catches recovery resurrecting the old name as a
    // **distinct** inode (ROADMAP "Rename-atomicity coverage").
    //
    // The old name legitimately reused by a later operation is in the
    // oracle, and neither check flags it.
    let ino = |path: &str| {
        let index = recovered
            .binary_search_by(|read| read.path.cmp(path))
            .ok()?;
        recovered[index].found.as_ref().map(|(ino, _)| *ino)
    };
    let atomic = rename_pairs.iter().map(|pair| (pair, true));
    let durable = info.durable_renames.iter().map(|pair| (pair, false));
    for ((from, to), same_inode) in atomic.chain(durable) {
        if let (Some(from_ino), Some(to_ino)) = (ino(from), ino(to)) {
            if (from_ino == to_ino) == same_inode && !info.oracle.contains(from) {
                push_both_locations(from, &mut verdict);
            }
        }
    }
    Ok(verdict)
}

/// The read check of one persisted path: it must be recovered with the
/// state its persistence guaranteed, or exactly as the full oracle holds it
/// (the file system persisted more than required, which is legal).
fn check_persisted(
    info: &CheckpointInfo,
    path: &str,
    expectation: &Expectation,
    actual: Option<&EntrySnapshot>,
    verdict: &mut CheckVerdict,
) {
    let Some(actual) = actual else {
        verdict.diffs.push(SnapshotDiff::Missing {
            path: path.to_string(),
        });
        verdict
            .read_consequences
            .push(match expectation.entry.file_type {
                FileType::Directory => Consequence::DirectoryMissing,
                _ => Consequence::FileMissing,
            });
        return;
    };
    let diffs = if expectation.existence_only {
        existence_diffs(path, &expectation.entry, actual)
    } else {
        full_diffs(path, &expectation.entry, actual)
    };
    if diffs.is_empty() || info.oracle.get(path) == Some(actual) {
        return;
    }
    for diff in diffs {
        verdict.read_consequences.push(classify_diff(&diff));
        verdict.diffs.push(diff);
    }
}

/// Records the old name of a rename found beside its new one.
fn push_both_locations(from: &str, verdict: &mut CheckVerdict) {
    verdict.diffs.push(SnapshotDiff::Unexpected {
        path: from.to_string(),
    });
    verdict
        .read_consequences
        .push(Consequence::FileInBothLocations);
}

/// Completes a verdict from its read checks: an unreadable file system is
/// the whole verdict; otherwise the write checks run and a failed verdict
/// gets its summaries.
fn finish(
    info: &CheckpointInfo,
    fs: &mut dyn FileSystem,
    read: FsResult<CheckVerdict>,
) -> CheckVerdict {
    let mut verdict = match read {
        Ok(verdict) => verdict,
        Err(error) => {
            return CheckVerdict {
                unmountable: Some(format!("recovered file system unreadable: {error}")),
                expected: "readable file system".to_string(),
                actual: error.to_string(),
                ..CheckVerdict::default()
            }
        }
    };
    write_checks(info, fs, &mut verdict);
    // The two summaries are read from a bug report only, and a verdict that
    // passed never becomes one.
    if verdict.failed() {
        verdict.expected = summarize_expectations(info);
        let mut parts: Vec<String> = verdict.diffs.iter().map(ToString::to_string).collect();
        parts.extend(verdict.write_failures.iter().cloned());
        verdict.actual = parts.join("; ");
    }
    verdict
}

/// Write checks: the recovered file system must still be usable.
fn write_checks(info: &CheckpointInfo, fs: &mut dyn FileSystem, verdict: &mut CheckVerdict) {
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
    for (path, expectation) in info.persisted.iter() {
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
    let mut path = String::new();
    for dir in dirs {
        if !fs.exists(dir) {
            continue;
        }
        path.clear();
        path.push_str(dir);
        if let Err(error) = remove_recursively(fs, &mut path) {
            verdict.write_failures.push(format!(
                "directory '{dir}' cannot be removed after recovery: {error}"
            ));
            verdict
                .write_consequences
                .push(Consequence::DirectoryUnremovable);
        }
    }
}

/// The read checks as the checker made them before it read crash states in
/// place: over a [`LogicalSnapshot::capture_paths`] of the root and every
/// relevant path, payloads and directory listings included, with inode
/// numbers read again for the rename checks. Debug builds and the
/// differential test below judge every crash state by both readings.
#[cfg(any(debug_assertions, test))]
mod reference {
    use super::*;
    use b3_vfs::snapshot::LogicalSnapshot;

    /// The verdict on a fork of the recovered `fs`, whose device holds
    /// `state`, by the reference reading.
    pub(super) fn verdict(
        rename_pairs: &[RenamePair],
        info: &CheckpointInfo,
        fs: &dyn FileSystem,
        state: CowSnapshotDevice,
    ) -> CheckVerdict {
        let mut copy = fs.fork(Box::new(state));
        let read = read_checks(rename_pairs, info, copy.as_ref());
        finish(info, copy.as_mut(), read)
    }

    pub(super) fn read_checks(
        rename_pairs: &[RenamePair],
        info: &CheckpointInfo,
        fs: &dyn FileSystem,
    ) -> FsResult<CheckVerdict> {
        let relevant: std::collections::BTreeSet<&str> = info
            .persisted
            .keys()
            .map(|path| &**path)
            .chain(
                rename_pairs
                    .iter()
                    .chain(info.durable_renames.iter())
                    .flat_map(|(from, to)| [&**from, &**to]),
            )
            .collect();
        let crash = LogicalSnapshot::capture_paths(fs, relevant)?;
        let mut verdict = CheckVerdict::default();
        for (path, expectation) in info.persisted.iter() {
            // Paths legitimately removed or renamed away after being
            // persisted are no longer guaranteed.
            if info.oracle.contains(path) {
                check_persisted(info, path, expectation, crash.get(path), &mut verdict);
            }
        }
        for (from, to) in rename_pairs {
            if crash.contains(to)
                && crash.contains(from)
                && !info.oracle.contains(from)
                && same_inode(fs, from, to)
            {
                push_both_locations(from, &mut verdict);
            }
        }
        for (from, to) in &info.durable_renames {
            if crash.contains(to)
                && crash.contains(from)
                && !info.oracle.contains(from)
                && !same_inode(fs, from, to)
            {
                push_both_locations(from, &mut verdict);
            }
        }
        Ok(verdict)
    }

    /// True when both paths resolve to the same inode in the recovered file
    /// system.
    fn same_inode(fs: &dyn FileSystem, from: &str, to: &str) -> bool {
        match (fs.metadata(from), fs.metadata(to)) {
            (Ok(from_meta), Ok(to_meta)) => from_meta.ino == to_meta.ino,
            _ => false,
        }
    }
}

/// The rename pairs the atomicity check must consider: renames whose
/// destination was explicitly persisted, plus renames whose source had been
/// persisted before the rename executed (tracked by the profiler).
fn rename_candidates(workload: &Workload, info: &CheckpointInfo) -> Vec<RenamePair> {
    let explicit = workload.all_ops().filter_map(|op| match op {
        Op::Rename { from, to } => {
            let (to, _) = info.persisted.get_key_value(normalize(to).as_ref())?;
            Some((SharedPath::from(normalize(from)), to.clone()))
        }
        _ => None,
    });
    let tracked = info.persisted_renames.iter().cloned();
    let mut candidates: Vec<RenamePair> = explicit.chain(tracked).collect();
    candidates.sort();
    candidates.dedup();
    candidates
}

/// Recursively removes the directory at `path`, a canonical path other
/// than the root, and its contents. Each child's path is built in `path`
/// itself, which holds the directory's path again on return.
fn remove_recursively(fs: &mut dyn FileSystem, path: &mut String) -> Result<(), FsError> {
    let entries = fs.readdir(path)?;
    let len = path.len();
    for name in entries {
        path.push('/');
        path.push_str(&name);
        let removed = match fs.metadata(path) {
            Ok(meta) if meta.is_dir() => remove_recursively(fs, path),
            Ok(_) => fs.unlink(path),
            // A dangling entry: readdir lists it but it cannot be resolved,
            // so it can neither be unlinked nor will rmdir succeed.
            Err(error) => Err(error),
        };
        path.truncate(len);
        removed?;
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
            let name = if path.is_empty() { "/" } else { path };
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
    use b3_vfs::fs::WriteMode;
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
            digest: Default::default(),
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
            "A/foo".into(),
            Expectation {
                entry: entry(FileType::Regular, 100).into(),
                existence_only: false,
            },
        );
        let info = CheckpointInfo {
            id: 1,
            op_index: 0,
            persisted: std::sync::Arc::new(persisted),
            persisted_renames: Vec::new(),
            durable_renames: Vec::new(),
            oracle: std::sync::Arc::new(b3_vfs::snapshot::LogicalSnapshot::default()),
            verdict: Default::default(),
        };
        let summary = summarize_expectations(&info);
        assert!(summary.contains("A/foo (100 bytes)"));
    }

    /// A recovered file system that logs every read the read checks make
    /// and fails the metadata read of the paths in `fail`.
    struct Traced {
        inner: Box<dyn FileSystem>,
        reads: std::cell::RefCell<Vec<String>>,
        fail: Vec<&'static str>,
    }

    impl Traced {
        fn new(inner: Box<dyn FileSystem>, fail: Vec<&'static str>) -> Self {
            Traced {
                inner,
                reads: Default::default(),
                fail,
            }
        }

        fn log(&self, call: &str, path: &str) {
            self.reads.borrow_mut().push(format!("{call} {path}"));
        }

        fn reads(&self) -> Vec<String> {
            self.reads.borrow().clone()
        }
    }

    impl FileSystem for Traced {
        fn fs_name(&self) -> &'static str {
            self.inner.fs_name()
        }
        fn create(&mut self, path: &str) -> FsResult<()> {
            self.inner.create(path)
        }
        fn mkdir(&mut self, path: &str) -> FsResult<()> {
            self.inner.mkdir(path)
        }
        fn mkfifo(&mut self, path: &str) -> FsResult<()> {
            self.inner.mkfifo(path)
        }
        fn symlink(&mut self, target: &str, linkpath: &str) -> FsResult<()> {
            self.inner.symlink(target, linkpath)
        }
        fn link(&mut self, existing: &str, new: &str) -> FsResult<()> {
            self.inner.link(existing, new)
        }
        fn unlink(&mut self, path: &str) -> FsResult<()> {
            self.inner.unlink(path)
        }
        fn rmdir(&mut self, path: &str) -> FsResult<()> {
            self.inner.rmdir(path)
        }
        fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
            self.inner.rename(from, to)
        }
        fn write(&mut self, path: &str, offset: u64, data: &[u8], mode: WriteMode) -> FsResult<()> {
            self.inner.write(path, offset, data, mode)
        }
        fn truncate(&mut self, path: &str, size: u64) -> FsResult<()> {
            self.inner.truncate(path, size)
        }
        fn fallocate(
            &mut self,
            path: &str,
            mode: b3_vfs::workload::FallocMode,
            offset: u64,
            len: u64,
        ) -> FsResult<()> {
            self.inner.fallocate(path, mode, offset, len)
        }
        fn setxattr(&mut self, path: &str, name: &str, value: &[u8]) -> FsResult<()> {
            self.inner.setxattr(path, name, value)
        }
        fn removexattr(&mut self, path: &str, name: &str) -> FsResult<()> {
            self.inner.removexattr(path, name)
        }
        fn getxattr(&self, path: &str, name: &str) -> FsResult<Vec<u8>> {
            self.inner.getxattr(path, name)
        }
        fn read(&self, path: &str, offset: u64, len: u64) -> FsResult<Vec<u8>> {
            self.log("read", path);
            self.inner.read(path, offset, len)
        }
        fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
            self.log("readdir", path);
            self.inner.readdir(path)
        }
        fn metadata(&self, path: &str) -> FsResult<b3_vfs::metadata::Metadata> {
            self.log("metadata", path);
            if self.fail.contains(&path) {
                return Err(FsError::Device(format!("unreadable inode at '{path}'")));
            }
            self.inner.metadata(path)
        }
        fn readlink(&self, path: &str) -> FsResult<String> {
            self.log("readlink", path);
            self.inner.readlink(path)
        }
        fn fsync(&mut self, path: &str) -> FsResult<()> {
            self.inner.fsync(path)
        }
        fn fdatasync(&mut self, path: &str) -> FsResult<()> {
            self.inner.fdatasync(path)
        }
        fn sync(&mut self) -> FsResult<()> {
            self.inner.sync()
        }
        fn unmount(self: Box<Self>) -> FsResult<Box<dyn b3_block::BlockDevice>> {
            self.inner.unmount()
        }
        fn fork(&self, device: Box<dyn b3_block::BlockDevice>) -> Box<dyn FileSystem> {
            self.inner.fork(device)
        }
    }

    /// A freshly formatted patched CowFs with `build` applied.
    fn fs_with(build: impl FnOnce(&mut dyn FileSystem) -> FsResult<()>) -> Box<dyn FileSystem> {
        let config = CrashMonkeyConfig::small();
        let device = CowSnapshotDevice::new(b3_block::DiskImage::empty(config.device_blocks));
        let mut fs = b3_fs_cow::CowFsSpec::patched()
            .mkfs(Box::new(device))
            .unwrap();
        build(fs.as_mut()).unwrap();
        fs
    }

    /// A checkpoint whose oracle is the whole of `oracle` and whose persisted
    /// set holds `persisted`'s entry at each `(path, existence_only)`.
    fn info_of(
        persisted: &dyn FileSystem,
        paths: &[(&str, bool)],
        oracle: &dyn FileSystem,
        durable_renames: Vec<RenamePair>,
    ) -> CheckpointInfo {
        let captured = b3_vfs::snapshot::LogicalSnapshot::capture(persisted).unwrap();
        let persisted = paths
            .iter()
            .map(|&(path, existence_only)| {
                let entry = captured.get_shared(path).expect("the path was persisted");
                let expectation = Expectation {
                    entry,
                    existence_only,
                };
                (path.into(), expectation)
            })
            .collect();
        CheckpointInfo {
            id: 1,
            op_index: 0,
            persisted: std::sync::Arc::new(persisted),
            persisted_renames: Vec::new(),
            durable_renames,
            oracle: std::sync::Arc::new(
                b3_vfs::snapshot::LogicalSnapshot::capture(oracle).unwrap(),
            ),
            verdict: Default::default(),
        }
    }

    /// The verdict on the recovered file system `recovered` builds, read in
    /// place, after asserting the reference reading gives the same one.
    /// Also returns the reads the in-place checks made.
    fn judge(
        info: &CheckpointInfo,
        pairs: &[RenamePair],
        recovered: impl Fn() -> Traced,
    ) -> (CheckVerdict, Vec<String>) {
        let mut fs = recovered();
        let read = reference::read_checks(pairs, info, &fs);
        let reference = finish(info, &mut fs, read);
        let mut fs = recovered();
        let read = read_checks(pairs, info, &fs);
        let reads = fs.reads();
        let verdict = finish(info, &mut fs, read);
        assert_eq!(verdict, reference, "in place vs reference");
        (verdict, reads)
    }

    fn write(
        fs: &mut dyn FileSystem,
        path: &str,
        offset: u64,
        len: usize,
        byte: u8,
    ) -> FsResult<()> {
        fs.write(path, offset, &vec![byte; len], WriteMode::Buffered)
    }

    #[test]
    fn recovered_entry_equal_to_the_oracle_is_tolerated() {
        let persisted = fs_with(|fs| {
            fs.create("foo")?;
            write(fs, "foo", 0, 4096, 1)
        });
        let oracle = fs_with(|fs| {
            fs.create("foo")?;
            write(fs, "foo", 0, 4096, 1)?;
            write(fs, "foo", 4096, 4096, 2)
        });
        let info = info_of(
            persisted.as_ref(),
            &[("foo", false)],
            oracle.as_ref(),
            vec![],
        );
        // The file system persisted the later write too: legal.
        let (verdict, reads) = judge(&info, &[], || {
            Traced::new(
                fs_with(|fs| {
                    fs.create("foo")?;
                    write(fs, "foo", 0, 4096, 1)?;
                    write(fs, "foo", 4096, 4096, 2)
                }),
                vec![],
            )
        });
        assert!(!verdict.failed(), "{verdict:?}");
        assert_eq!(reads, ["metadata ", "metadata foo", "read foo"]);
        // Half of the later write: neither the expectation nor the oracle.
        let (verdict, _) = judge(&info, &[], || {
            Traced::new(
                fs_with(|fs| {
                    fs.create("foo")?;
                    write(fs, "foo", 0, 4096, 1)?;
                    write(fs, "foo", 4096, 2048, 2)
                }),
                vec![],
            )
        });
        let tags: Vec<&str> = verdict.diffs.iter().map(SnapshotDiff::tag).collect();
        assert_eq!(tags, ["size", "blocks", "data"], "{verdict:?}");
        assert_eq!(
            verdict.read_consequences,
            [
                Consequence::WrongSize,
                Consequence::WrongSize,
                Consequence::DataCorruption
            ]
        );
    }

    #[test]
    fn data_mismatch_reports_the_first_difference() {
        let persisted = fs_with(|fs| {
            fs.create("foo")?;
            write(fs, "foo", 0, 8192, 1)
        });
        let info = info_of(
            persisted.as_ref(),
            &[("foo", false)],
            persisted.as_ref(),
            vec![],
        );
        let (verdict, reads) = judge(&info, &[], || {
            Traced::new(
                fs_with(|fs| {
                    fs.create("foo")?;
                    write(fs, "foo", 0, 8192, 1)?;
                    write(fs, "foo", 4097, 3, 7)
                }),
                vec![],
            )
        });
        assert_eq!(
            verdict.diffs,
            [SnapshotDiff::DataMismatch {
                path: "foo".into(),
                first_difference: Some(4097),
            }]
        );
        assert_eq!(verdict.consequence(), Some(Consequence::DataCorruption));
        assert_eq!(reads, ["metadata ", "metadata foo", "read foo"]);
    }

    /// `foo` was fsynced as a file, then replaced by a directory: a
    /// recovered directory equal to the oracle's is tolerated, and one with
    /// other children is not. This is the one comparison that lists a
    /// directory.
    #[test]
    fn persisted_file_replaced_by_a_directory() {
        let persisted = fs_with(|fs| fs.create("foo"));
        let replaced = |fs: &mut dyn FileSystem| {
            fs.create("foo")?;
            fs.unlink("foo")?;
            fs.mkdir("foo")?;
            fs.create("foo/bar")
        };
        let oracle = fs_with(replaced);
        let info = info_of(
            persisted.as_ref(),
            &[("foo", false)],
            oracle.as_ref(),
            vec![],
        );
        let (verdict, reads) = judge(&info, &[], || Traced::new(fs_with(replaced), vec![]));
        assert!(!verdict.failed(), "{verdict:?}");
        assert_eq!(reads, ["metadata ", "metadata foo", "readdir foo"]);

        let (verdict, _) = judge(&info, &[], || {
            Traced::new(
                fs_with(|fs| {
                    fs.mkdir("foo")?;
                    fs.create("foo/baz")
                }),
                vec![],
            )
        });
        assert_eq!(
            verdict.diffs,
            [SnapshotDiff::TypeMismatch {
                path: "foo".into(),
                expected: FileType::Regular,
                actual: FileType::Directory,
            }]
        );
    }

    /// An error other than `NotFound` on the root, or on any relevant path,
    /// makes the recovered file system unreadable; the first error in path
    /// order is the one reported.
    #[test]
    fn unreadable_root_or_path_gives_the_first_error() {
        let build = |fs: &mut dyn FileSystem| {
            fs.mkdir("A")?;
            fs.mkdir("B")?;
            fs.create("A/foo")?;
            fs.create("B/foo")
        };
        let state = fs_with(build);
        let paths = [("A/foo", false), ("B/foo", false), ("A", false)];
        let info = info_of(state.as_ref(), &paths, state.as_ref(), vec![]);
        for (fail, first) in [(vec!["B/foo", ""], ""), (vec!["B/foo", "A/foo"], "A/foo")] {
            let (verdict, reads) = judge(&info, &[], || Traced::new(fs_with(build), fail.clone()));
            let error = format!("device error: unreadable inode at '{first}'");
            assert_eq!(
                verdict,
                CheckVerdict {
                    unmountable: Some(format!("recovered file system unreadable: {error}")),
                    expected: "readable file system".into(),
                    actual: error,
                    ..CheckVerdict::default()
                }
            );
            assert_eq!(
                reads.last().map(String::as_str),
                Some(&*format!("metadata {first}"))
            );
        }
        // A path below a file is unreadable too (not a directory).
        let (verdict, _) = judge(&info, &[], || {
            Traced::new(
                fs_with(|fs| {
                    fs.create("A")?;
                    fs.mkdir("B")?;
                    fs.create("B/foo")
                }),
                vec![],
            )
        });
        assert_eq!(
            verdict.unmountable.as_deref(),
            Some("recovered file system unreadable: not a directory: A/foo")
        );
    }

    /// Rename endpoints that are not persisted are read for existence and
    /// inode only: one name of a half-applied rename is flagged, and so is
    /// the old name of a durable rename that came back as another inode.
    #[test]
    fn rename_endpoints_are_read_for_existence_and_inode_only() {
        let renamed = |fs: &mut dyn FileSystem| {
            fs.mkdir("A")?;
            fs.mkdir("B")?;
            fs.create("B/foo")?;
            write(fs, "B/foo", 0, 4096, 3)
        };
        let oracle = fs_with(renamed);
        let pairs: [RenamePair; 1] = [("A/foo".into(), "B/foo".into())];
        let info = info_of(oracle.as_ref(), &[], oracle.as_ref(), vec![]);
        let half_applied = |fs: &mut dyn FileSystem| {
            renamed(fs)?;
            fs.link("B/foo", "A/foo")
        };
        let (verdict, reads) = judge(&info, &pairs, || Traced::new(fs_with(half_applied), vec![]));
        assert_eq!(
            verdict.diffs,
            [SnapshotDiff::Unexpected {
                path: "A/foo".into()
            }]
        );
        assert_eq!(
            verdict.read_consequences,
            [Consequence::FileInBothLocations]
        );
        assert_eq!(reads, ["metadata ", "metadata A/foo", "metadata B/foo"]);

        // As a durable rename, one inode under both names is the atomicity
        // check's alone; a distinct old inode is the durable check's.
        let durable = info_of(oracle.as_ref(), &[], oracle.as_ref(), pairs.to_vec());
        let (verdict, _) = judge(&durable, &[], || Traced::new(fs_with(half_applied), vec![]));
        assert!(!verdict.failed(), "{verdict:?}");
        let resurrected = |fs: &mut dyn FileSystem| {
            renamed(fs)?;
            fs.create("A/foo")
        };
        let (verdict, reads) = judge(&durable, &[], || Traced::new(fs_with(resurrected), vec![]));
        assert_eq!(
            verdict.read_consequences,
            [Consequence::FileInBothLocations]
        );
        assert_eq!(reads, ["metadata ", "metadata A/foo", "metadata B/foo"]);
    }

    /// Every crash state of the benchmark's seq-2 space (`b3-bench`'s bounds
    /// and shard count, one harness per shard as in a sweep) that a sweep
    /// checks — every checkpoint of every workload that executed — on
    /// patched JournalFs and on 4.16-era CowFs, judged by the in-place
    /// reading and by the reference: the verdicts must be equal in every
    /// field. Debug builds assert the same for every crash state they check;
    /// this holds release builds to it. Run with
    /// `cargo test --release -p b3-crashmonkey --lib -- --ignored checker::`.
    #[test]
    #[ignore = "the benchmark's seq-2 space on two file systems; run explicitly in release builds"]
    fn bench_seq2_in_place_verdicts_equal_reference_verdicts() {
        use crate::CrashMonkey;
        use b3_ace::{Bounds, WorkloadGenerator};
        use b3_vfs::workload::FileSet;
        use b3_vfs::KernelEra;

        let bounds = Bounds {
            files: FileSet::new(
                vec!["A".into(), "B".into()],
                vec!["foo".into(), "A/foo".into(), "B/foo".into()],
            ),
            ..Bounds::paper_seq2()
        };
        let journal = b3_fs_journal::JournalFsSpec::new(KernelEra::Patched);
        let cow = b3_fs_cow::CowFsSpec::new(KernelEra::V4_16);
        let specs: [(&dyn FsSpec, _); 2] = [(&journal, (152_960, 0)), (&cow, (138_349, 14_388))];
        let config = CrashMonkeyConfig::default();
        for (spec, expected) in specs {
            let checker = AutoChecker::new(spec, &config);
            let (mut states, mut failed) = (0u64, 0u64);
            for shard in bounds.shards(64) {
                let monkey = CrashMonkey::with_config(spec, config);
                for workload in WorkloadGenerator::for_shard(bounds.clone(), &shard) {
                    let profile = monkey.profile_only(&workload).expect("profiling runs");
                    if profile.exec_error.is_some() {
                        continue;
                    }
                    for info in &profile.checkpoints {
                        let state =
                            b3_block::crash_state(&profile.base_image, &profile.log, info.id)
                                .expect("a recorded checkpoint has a crash state");
                        let recovered = crate::recovery::recover(spec, &state, info.id);
                        let pairs = rename_candidates(&workload, info);
                        let reference = recovered
                            .as_ref()
                            .ok()
                            .map(|fs| reference::verdict(&pairs, info, fs.as_ref(), state.clone()));
                        let verdict = checker.check_with_candidates(&pairs, info, state, recovered);
                        if let Some(reference) = reference {
                            assert!(
                                verdict == reference,
                                "{}@{}, checkpoint {}: in place {verdict:?}, reference {reference:?}",
                                workload.name,
                                spec.name(),
                                info.id
                            );
                        }
                        states += 1;
                        failed += u64::from(verdict.failed());
                    }
                }
            }
            assert_eq!(
                (states, failed),
                expected,
                "{}: crash states checked, failed",
                spec.name()
            );
        }
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
