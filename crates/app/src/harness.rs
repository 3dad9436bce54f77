//! The application-level CrashMonkey: profiles a transaction workload
//! through a recording block device, constructs every crash state the
//! block layer enumerates, recovers the engine on each, and asks the
//! transaction oracle.
//!
//! The pipeline is deliberately identical to `b3_crashmonkey::CrashMonkey`:
//! format once, mount a copy-on-write snapshot on a [`RecordingDevice`],
//! run the workload while persistence points insert checkpoint markers,
//! then replay the IO log up to each checkpoint with
//! [`crash_state`]. Only the two ends differ — the workload is transactions
//! against [`WalKv`] instead of syscalls, and the checker is [`TxnOracle`]
//! instead of the file-state AutoChecker.

use std::sync::OnceLock;

use b3_block::{
    crash_state, BlockDevice, CowSnapshotDevice, DiskImage, IoLog, LogHandle, RecordingDevice,
};
use b3_crashmonkey::{BugReport, Consequence, CrashMonkeyConfig, WorkloadOutcome};
use b3_vfs::fs::{FileSystem, FsSpec, GuaranteeProfile, WriteMode};
use b3_vfs::workload::FallocMode;
use b3_vfs::{FsError, FsResult, Metadata};

use crate::bounds::TxnOpKind;
use crate::engine::{EngineProfile, WalKv};
use crate::generator::{key_name, value_for, TxnWorkload};
use crate::oracle::{CrashPointMeta, TxnOracle};

/// A forwarding [`FileSystem`] wrapper that inserts a block-log checkpoint
/// marker after every successful persistence operation — the app-layer
/// equivalent of the syscall executor's checkpoint insertion.
struct CheckpointFs {
    inner: Box<dyn FileSystem>,
    log: LogHandle,
    pending: Vec<u32>,
}

impl CheckpointFs {
    fn new(inner: Box<dyn FileSystem>, log: LogHandle) -> Self {
        CheckpointFs {
            inner,
            log,
            pending: Vec::new(),
        }
    }

    /// Drains the checkpoints inserted since the last call.
    fn take_checkpoints(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.pending)
    }

    fn mark(&mut self) {
        self.pending.push(self.log.checkpoint());
    }
}

impl FileSystem for CheckpointFs {
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

    fn fallocate(&mut self, path: &str, mode: FallocMode, offset: u64, len: u64) -> FsResult<()> {
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
        self.inner.read(path, offset, len)
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        self.inner.readdir(path)
    }

    fn metadata(&self, path: &str) -> FsResult<Metadata> {
        self.inner.metadata(path)
    }

    fn readlink(&self, path: &str) -> FsResult<String> {
        self.inner.readlink(path)
    }

    fn fsync(&mut self, path: &str) -> FsResult<()> {
        self.inner.fsync(path)?;
        self.mark();
        Ok(())
    }

    fn fdatasync(&mut self, path: &str) -> FsResult<()> {
        self.inner.fdatasync(path)?;
        self.mark();
        Ok(())
    }

    fn sync(&mut self) -> FsResult<()> {
        self.inner.sync()?;
        self.mark();
        Ok(())
    }

    fn unmount(self: Box<Self>) -> FsResult<Box<dyn BlockDevice>> {
        self.inner.unmount()
    }

    fn fork(&self, _device: Box<dyn BlockDevice>) -> Box<dyn FileSystem> {
        // The fork's markers must go to the fork's log, and a log handle
        // cannot be had from a `dyn BlockDevice`: this wrapper forks the
        // recording it already holds — which has the blocks `_device` is
        // required to have — instead of adopting `_device`.
        let device = self.log.fork_device();
        let log = device.log_handle();
        Box::new(CheckpointFs {
            inner: self.inner.fork(Box::new(device)),
            log,
            pending: self.pending.clone(),
        })
    }

    fn guarantees(&self) -> GuaranteeProfile {
        self.inner.guarantees()
    }
}

/// Formats a fresh file system, initialises the engine's store on it, and
/// freezes the device into the immutable base image every workload mounts
/// snapshots of.
pub fn formatted_app_image(spec: &dyn FsSpec, config: &CrashMonkeyConfig) -> FsResult<DiskImage> {
    let device = CowSnapshotDevice::new(DiskImage::empty(config.device_blocks));
    let mut fs = spec.mkfs(Box::new(device))?;
    WalKv::format(fs.as_mut())?;
    let device = fs.unmount()?;
    device.freeze_image().ok_or_else(|| {
        FsError::Corrupted("mkfs device does not support freezing into an image".into())
    })
}

/// The profile phase's output: the recorded IO log and per-persistence-
/// point crash metadata.
struct AppProfile {
    log: IoLog,
    crash_points: Vec<CrashPointMeta>,
}

/// Application-level crash tester for one file system and engine profile.
pub struct AppHarness<'a> {
    spec: &'a dyn FsSpec,
    config: CrashMonkeyConfig,
    engine: EngineProfile,
    formatted: OnceLock<DiskImage>,
}

impl<'a> AppHarness<'a> {
    /// Creates a harness; the base image is formatted lazily on first use.
    pub fn new(spec: &'a dyn FsSpec, config: CrashMonkeyConfig, engine: EngineProfile) -> Self {
        AppHarness {
            spec,
            config,
            engine,
            formatted: OnceLock::new(),
        }
    }

    /// The engine profile under test.
    pub fn engine(&self) -> EngineProfile {
        self.engine
    }

    /// The file-system spec under test.
    pub fn spec(&self) -> &dyn FsSpec {
        self.spec
    }

    /// The CrashMonkey configuration in use.
    pub fn config(&self) -> &CrashMonkeyConfig {
        &self.config
    }

    fn formatted_image(&self) -> FsResult<DiskImage> {
        if let Some(image) = self.formatted.get() {
            return Ok(image.clone());
        }
        let image = formatted_app_image(self.spec, &self.config)?;
        Ok(self.formatted.get_or_init(|| image).clone())
    }

    /// Tests one transaction workload: profiles it, then crash-tests every
    /// selected persistence point.
    pub fn test_workload(&self, workload: &TxnWorkload) -> FsResult<WorkloadOutcome> {
        let base = self.formatted_image()?;
        let profile = self.profile_workload(&base, workload)?;
        let oracle = TxnOracle::new(workload);

        // §5.3 strategy, same as the fs-level pipeline: in exhaustive
        // generation only the final persistence point is new; the other
        // policies cover all of them.
        let selected: Vec<&CrashPointMeta> = if self.config.crash_points.covers_all() {
            profile.crash_points.iter().collect()
        } else {
            profile.crash_points.last().into_iter().collect()
        };

        let mut outcome = WorkloadOutcome::from_parts(
            workload.name.clone(),
            workload.skeleton_string(),
            self.spec.name(),
        );
        for meta in selected {
            outcome.checkpoints_tested += 1;
            if let Some(report) =
                self.check_crash_point(&base, &profile.log, &oracle, meta, workload)?
            {
                outcome.bugs.push(report);
            }
        }
        Ok(outcome)
    }

    /// Runs the workload's transactions against the engine on a recording
    /// mount, collecting the IO log and crash-point metadata.
    fn profile_workload(&self, base: &DiskImage, workload: &TxnWorkload) -> FsResult<AppProfile> {
        let snapshot = CowSnapshotDevice::new(base.clone());
        let recording = RecordingDevice::new(snapshot);
        let log = recording.log_handle();
        let inner = self.spec.mount(Box::new(recording))?;
        let mut fs = CheckpointFs::new(inner, log);
        let mut engine = WalKv::open(&mut fs, self.engine)?;

        let mut crash_points = Vec::new();
        let mut committed: u32 = 0;
        // A fresh store replays nothing, so opening normally inserts no
        // persistence points; record any that do appear (pre-transaction,
        // nothing in flight).
        for checkpoint in fs.take_checkpoints() {
            crash_points.push(CrashPointMeta {
                checkpoint,
                committed_before: 0,
                in_flight: None,
            });
        }
        for (position, txn) in workload.txns.iter().enumerate() {
            for (op_index, op) in txn.ops.iter().enumerate() {
                let key = key_name(op.key);
                match op.kind {
                    TxnOpKind::Put => engine.put(&key, &value_for(position, op_index)),
                    TxnOpKind::Append => engine.append(&key, &value_for(position, op_index)),
                    TxnOpKind::Delete => engine.delete(&key),
                }
            }
            if txn.commit {
                engine.commit(&mut fs)?;
                for checkpoint in fs.take_checkpoints() {
                    crash_points.push(CrashPointMeta {
                        checkpoint,
                        committed_before: committed,
                        in_flight: Some(position as u32),
                    });
                }
                committed += 1;
            } else {
                engine.abort();
            }
        }
        let log = fs.log.snapshot();
        Ok(AppProfile { log, crash_points })
    }

    /// Builds one crash state, recovers the engine on it twice, and asks
    /// the oracle. Returns a report when an invariant was violated.
    fn check_crash_point(
        &self,
        base: &DiskImage,
        log: &IoLog,
        oracle: &TxnOracle,
        meta: &CrashPointMeta,
        workload: &TxnWorkload,
    ) -> FsResult<Option<BugReport>> {
        let device = crash_state(base, log, meta.checkpoint)?;
        let mut fs = match self.spec.mount(Box::new(device)) {
            Ok(fs) => fs,
            Err(FsError::Unmountable(detail)) => {
                return Ok(Some(BugReport {
                    workload_name: workload.name.clone(),
                    skeleton: workload.skeleton_string(),
                    fs_name: self.spec.name().to_string(),
                    crash_point: meta.checkpoint,
                    consequence: Consequence::Unmountable,
                    all_consequences: vec![Consequence::Unmountable],
                    expected: "mountable file system".to_string(),
                    actual: format!("recovery failed: {detail}"),
                    diffs: Vec::new(),
                    write_check_failures: Vec::new(),
                }));
            }
            Err(other) => return Err(other),
        };
        let recovered = WalKv::open(fs.as_mut(), self.engine)?.dump();
        // Idempotence probe: recover the same crash state a second time
        // (the first recovery's compaction is now on "disk").
        let reopened = WalKv::open(fs.as_mut(), self.engine)?.dump();
        let verdict = oracle.classify(meta, &recovered, &reopened);
        if verdict.is_clean() {
            return Ok(None);
        }
        let mut consequences: Vec<Consequence> =
            verdict.violations.iter().map(|v| v.consequence).collect();
        consequences.sort_unstable();
        consequences.dedup();
        let details: Vec<String> = verdict
            .violations
            .iter()
            .map(|v| v.detail.clone())
            .collect();
        Ok(Some(BugReport {
            workload_name: workload.name.clone(),
            skeleton: workload.skeleton_string(),
            fs_name: self.spec.name().to_string(),
            crash_point: meta.checkpoint,
            consequence: *consequences
                .last()
                .unwrap_or(&Consequence::TxnAtomicityBroken),
            all_consequences: consequences,
            expected: verdict.expected,
            actual: format!("{} [{}]", verdict.actual, details.join("; ")),
            diffs: Vec::new(),
            write_check_failures: Vec::new(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::TxnBounds;
    use crate::generator::TxnWorkloadGenerator;
    use b3_fs_cow::CowFsSpec;
    use b3_vfs::KernelEra;

    fn setup() -> (CowFsSpec, CrashMonkeyConfig) {
        (
            CowFsSpec::new(KernelEra::Patched),
            CrashMonkeyConfig::exhaustive_crash_points(),
        )
    }

    #[test]
    fn a_forked_checkpoint_fs_marks_its_own_log() {
        let (spec, config) = setup();
        let base = formatted_app_image(&spec, &config).unwrap();
        let recording = RecordingDevice::new(CowSnapshotDevice::new(base));
        let log = recording.log_handle();
        let mut fs = CheckpointFs::new(spec.mount(Box::new(recording)).unwrap(), log);
        fs.create("kept").unwrap();
        fs.fsync("kept").unwrap();
        let before = fs.log.snapshot();

        // The supplied device is not adopted (see `CheckpointFs::fork`).
        let unused = Box::new(CowSnapshotDevice::new(DiskImage::empty(1)));
        let mut fork = fs.fork(unused);
        fork.create("fork-only").unwrap();
        fork.fsync("fork-only").unwrap();
        assert!(!fs.exists("fork-only"));
        assert!(fork.exists("kept"));
        assert!(fs.log.snapshot() == before, "the fork wrote to its own log");
        assert_eq!(fs.take_checkpoints(), vec![1]);
    }

    #[test]
    fn fixed_engine_is_clean_on_every_tiny_workload() {
        let (spec, config) = setup();
        let harness = AppHarness::new(&spec, config, EngineProfile::fixed());
        for workload in TxnWorkloadGenerator::new(TxnBounds::tiny()) {
            let outcome = harness.test_workload(&workload).unwrap();
            assert!(
                !outcome.found_bug(),
                "fixed engine flagged on {}: {:?}",
                workload.name,
                outcome.bugs
            );
            assert!(outcome.checkpoints_tested > 0);
        }
    }

    #[test]
    fn each_seeded_bug_fires_somewhere_in_tiny() {
        for (engine, expected) in [
            (
                EngineProfile {
                    commit_without_data_fsync: true,
                    ..EngineProfile::fixed()
                },
                Consequence::TxnAtomicityBroken,
            ),
            (
                EngineProfile {
                    torn_commit: true,
                    ..EngineProfile::fixed()
                },
                Consequence::TxnAtomicityBroken,
            ),
            (
                EngineProfile {
                    double_replay: true,
                    ..EngineProfile::fixed()
                },
                Consequence::TxnReplayNotIdempotent,
            ),
        ] {
            let (spec, config) = setup();
            let harness = AppHarness::new(&spec, config, engine);
            let mut seen = Vec::new();
            for workload in TxnWorkloadGenerator::new(TxnBounds::tiny()) {
                let outcome = harness.test_workload(&workload).unwrap();
                for bug in &outcome.bugs {
                    seen.extend(bug.all_consequences.clone());
                }
            }
            assert!(
                seen.contains(&expected),
                "{} should produce {expected:?}, saw {seen:?}",
                engine.describe()
            );
        }
    }
}
