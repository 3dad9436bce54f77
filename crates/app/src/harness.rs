//! The application-level CrashMonkey: profiles a transaction workload
//! through a recording block device, constructs every crash state the
//! block layer enumerates, recovers the engine on each, and asks the
//! transaction oracle.
//!
//! The pipeline is `b3_crashmonkey`'s own crash-point loop
//! ([`b3_crashmonkey::target`]), with [`AppHarness`] as its second
//! [`Target`]: format once, mount a copy-on-write snapshot on a
//! [`RecordingDevice`], run the workload while persistence points insert
//! checkpoint markers, then take each crash state as the image the recorder
//! froze at its checkpoint and recover it without the mount's write-back.
//! Only the two ends differ — the workload is transactions against
//! [`WalKv`] instead of syscalls, and the judge is [`TxnOracle`] instead of
//! the file-state AutoChecker.
//!
//! It also shares CrashMonkey's [`Trunk`]: the transaction generator varies
//! the last transaction fastest, so a workload resumes from a fork of the
//! [`AppRun`] its predecessor left after their common transactions, and a
//! crash state inside that common prefix — same base image, same IO-log
//! prefix, hence the same bytes — is recovered by the first workload that
//! reaches it and answered from the run for every sibling (docs/APP.md,
//! "Prefix sharing"). Under `AllTriaged` the same [`Recovery`] is reused by
//! content digest instead, across workloads that share no prefix. The
//! verdict is never shared: what a recovered state *should* hold depends on
//! the transactions that follow, so every workload classifies every crash
//! point with its own [`TxnOracle`].

use b3_block::{BlockDevice, CowSnapshotDevice, DiskImage, IoLog, LogHandle, RecordingDevice};
use b3_crashmonkey::profiler::formatted_image_with;
use b3_crashmonkey::target::{self, Carried, Sharing, Target};
use b3_crashmonkey::{
    CheckVerdict, CrashMonkeyConfig, Finished, Held, Trunk, TrunkRun, WorkloadOutcome,
};
use b3_vfs::fs::{FileSystem, FsSpec, GuaranteeProfile, WriteMode};
use b3_vfs::workload::FallocMode;
use b3_vfs::{FsError, FsResult, Metadata};

use crate::bounds::TxnOpKind;
use crate::engine::{EngineProfile, WalKv};
use crate::generator::{key_name, value_for, Txn, TxnWorkload};
use crate::oracle::{CrashPointMeta, KvState, TxnOracle};

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

    /// Forks the file system together with its recording: the fork's IO and
    /// checkpoint markers go to its own copy of the log so far.
    fn fork_recording(&self) -> CheckpointFs {
        let device = self.log.fork_device();
        let log = device.log_handle();
        CheckpointFs {
            inner: self.inner.fork(Box::new(device)),
            log,
            pending: self.pending.clone(),
        }
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
        Box::new(self.fork_recording())
    }

    fn guarantees(&self) -> GuaranteeProfile {
        self.inner.guarantees()
    }
}

/// Formats a fresh file system, initialises the engine's store on it, and
/// freezes the device into the immutable base image every workload mounts
/// snapshots of.
pub fn formatted_app_image(spec: &dyn FsSpec, config: &CrashMonkeyConfig) -> FsResult<DiskImage> {
    formatted_image_with(spec, config, WalKv::format)
}

/// What mounting one crash state and opening the engine on it twice made of
/// it — everything the oracle is asked about, and a pure function of the
/// crash state's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recovery {
    /// The file system refused to mount; the detail of its error.
    Unmountable(String),
    /// The engine came up.
    Recovered {
        /// The KV state after the first open.
        recovered: KvState,
        /// The KV state after opening the same file system a second time
        /// (the first recovery's compaction is then on "disk"): the
        /// replay-idempotence probe.
        reopened: KvState,
    },
}

/// One persistence point of a run.
#[derive(Clone)]
pub struct CrashPoint {
    meta: CrashPointMeta,
    /// Filled by the first workload that recovers this crash state, and
    /// shared by every fork of the run taken after the persistence point:
    /// they hold the same base image and the same IO log up to its marker.
    recovery: Held<Recovery>,
}

/// One run of the engine on a recording mount, stopped between two
/// transactions: the file system forked together with its recording, the
/// engine's in-memory state, and every persistence point so far. The
/// harness's [`Trunk`] keeps forks of it along the previous workload's
/// transactions.
pub struct AppRun {
    fs: CheckpointFs,
    engine: WalKv,
    crash_points: Vec<CrashPoint>,
    /// Transactions whose commit returned.
    committed: u32,
    /// Transactions stepped, a failing one included.
    depth: usize,
    /// Set by the commit that failed; it ended the run.
    error: Option<FsError>,
}

impl AppRun {
    /// Runs the next transaction of a workload: stages its operations, then
    /// commits (recording the persistence points the commit inserted) or
    /// aborts. A commit that fails ends the run: the error is kept in the
    /// run, where [`AppRun::error`] and every fork find it.
    pub fn step(&mut self, txn: &Txn) {
        debug_assert!(!self.failed(), "a failed run takes no further steps");
        let position = self.depth;
        self.depth += 1;
        for (op_index, op) in txn.ops.iter().enumerate() {
            let key = key_name(op.key);
            match op.kind {
                TxnOpKind::Put => self.engine.put(&key, &value_for(position, op_index)),
                TxnOpKind::Append => self.engine.append(&key, &value_for(position, op_index)),
                TxnOpKind::Delete => self.engine.delete(&key),
            }
        }
        if !txn.commit {
            self.engine.abort();
            return;
        }
        if let Err(error) = self.engine.commit(&mut self.fs) {
            self.error = Some(error);
            return;
        }
        self.note_checkpoints(Some(position as u32));
        self.committed += 1;
    }

    /// Turns the checkpoints inserted since the last call into crash points.
    fn note_checkpoints(&mut self, in_flight: Option<u32>) {
        for checkpoint in self.fs.take_checkpoints() {
            self.crash_points.push(CrashPoint {
                meta: CrashPointMeta {
                    checkpoint,
                    committed_before: self.committed,
                    in_flight,
                },
                recovery: Held::default(),
            });
        }
    }

    /// The IO recorded so far.
    pub fn log(&self) -> IoLog {
        self.fs.log.snapshot()
    }

    /// Every persistence point so far, in order.
    pub fn crash_points(&self) -> impl Iterator<Item = &CrashPointMeta> {
        self.crash_points.iter().map(|point| &point.meta)
    }

    /// The recovery held for each crash point, `None` where no run sharing
    /// the crash point has recovered it yet.
    pub fn held_recoveries(&self) -> impl Iterator<Item = Option<&Recovery>> {
        self.crash_points.iter().map(|point| point.recovery.get())
    }

    /// The engine's committed KV state.
    pub fn dump(&self) -> KvState {
        self.engine.dump()
    }

    /// The error of the commit that ended the run, if one did.
    pub fn error(&self) -> Option<&FsError> {
        self.error.as_ref()
    }
}

impl TrunkRun for AppRun {
    type Step = Txn;

    fn depth(&self) -> usize {
        self.depth
    }

    fn failed(&self) -> bool {
        self.error.is_some()
    }

    /// File system and recording are forked and the engine cloned; the
    /// crash points keep pointing at the same recovery cells.
    fn fork(&self) -> AppRun {
        AppRun {
            fs: self.fs.fork_recording(),
            engine: self.engine.clone(),
            crash_points: self.crash_points.clone(),
            committed: self.committed,
            depth: self.depth,
            error: self.error.clone(),
        }
    }

    fn keep_as_frame(&mut self) -> bool {
        true
    }
}

/// Application-level crash tester for one file system and engine profile.
pub struct AppHarness<'a> {
    carried: Carried<'a, AppRun, Recovery>,
    engine: EngineProfile,
}

impl<'a> AppHarness<'a> {
    /// Creates a harness; the base image is formatted lazily on first use.
    pub fn new(spec: &'a dyn FsSpec, config: CrashMonkeyConfig, engine: EngineProfile) -> Self {
        AppHarness {
            carried: Carried::new(spec, config, formatted_app_image),
            engine,
        }
    }

    /// How much work prefix sharing has saved this harness so far.
    pub fn sharing(&self) -> Sharing {
        self.carried.sharing()
    }

    /// Tests one transaction workload: runs the transactions it does not
    /// share with the previous workload, then crash-tests every selected
    /// persistence point ([`b3_crashmonkey::target::test`]).
    pub fn test_workload(&self, workload: &TxnWorkload) -> FsResult<WorkloadOutcome> {
        target::test(self, workload)
    }

    /// Mounts a snapshot of the formatted image on a recording device and
    /// opens the engine: the run every workload starts from, before its
    /// first transaction.
    pub fn mount_run(&self) -> FsResult<AppRun> {
        let snapshot = CowSnapshotDevice::new(self.carried.formatted_image()?);
        let recording = RecordingDevice::new(snapshot);
        let log = recording.log_handle();
        let mut fs = CheckpointFs::new(self.carried.spec().mount(Box::new(recording))?, log);
        let engine = WalKv::open(&mut fs, self.engine)?;
        let mut run = AppRun {
            fs,
            engine,
            crash_points: Vec::new(),
            committed: 0,
            depth: 0,
            error: None,
        };
        // A fresh store replays nothing, so opening normally inserts no
        // persistence points; record any that do appear (pre-transaction,
        // nothing in flight).
        run.note_checkpoints(None);
        Ok(run)
    }

    /// Crash-tests the selected persistence points of `run`, which must have
    /// run exactly `workload`'s transactions, through the crash-point loop
    /// ([`b3_crashmonkey::target::crash_test`]): a crash state answered from
    /// the run's cells or a triage witness counts as `checkpoints_reused`,
    /// the others are built, recovered and held (`checkpoints_tested`).
    pub fn crash_test(&self, run: &AppRun, workload: &TxnWorkload) -> FsResult<WorkloadOutcome> {
        debug_assert_eq!(run.depth, workload.txns.len());
        target::crash_test(self, run, workload)
    }
}

impl<'a> Target for AppHarness<'a> {
    type Workload = TxnWorkload;
    type Run = AppRun;
    type Point = CrashPoint;
    type Held = Recovery;
    type Judge<'j>
        = TxnOracle
    where
        Self: 'j;

    fn carried(&self) -> &Carried<'_, AppRun, Recovery> {
        &self.carried
    }

    fn run<'t>(
        &self,
        trunk: &'t mut Trunk<AppRun>,
        workload: &TxnWorkload,
    ) -> FsResult<Finished<'t, AppRun>> {
        let txns: Vec<&Txn> = workload.txns.iter().collect();
        trunk.run(
            &txns,
            || self.mount_run(),
            |run, txn| {
                run.step(txn);
                Ok(())
            },
        )
    }

    fn skip(run: &AppRun) -> FsResult<String> {
        Err(run.error.clone().expect("only a failed run is held back"))
    }

    fn points(run: &AppRun) -> (&LogHandle, &[CrashPoint]) {
        (&run.fs.log, &run.crash_points)
    }

    fn point(point: &CrashPoint) -> (u32, &Held<Recovery>) {
        (point.meta.checkpoint, &point.recovery)
    }

    fn judge(&self, workload: &TxnWorkload) -> (WorkloadOutcome, TxnOracle) {
        let (name, skeleton) = (workload.name.clone(), workload.skeleton_string());
        let fs_name = self.carried.spec().name();
        let outcome = WorkloadOutcome::from_parts(name, skeleton, fs_name);
        (outcome, TxnOracle::new(workload))
    }

    /// Opens the engine on the recovered file system twice.
    fn hold(
        &self,
        _: &TxnOracle,
        _: &CrashPoint,
        _: CowSnapshotDevice,
        recovered: FsResult<Box<dyn FileSystem>>,
    ) -> FsResult<Recovery> {
        let mut fs = match recovered {
            Ok(fs) => fs,
            Err(FsError::Unmountable(detail)) => return Ok(Recovery::Unmountable(detail)),
            Err(other) => return Err(other),
        };
        let recovered = WalKv::open(fs.as_mut(), self.engine)?.dump();
        let reopened = WalKv::open(fs.as_mut(), self.engine)?.dump();
        Ok(Recovery::Recovered {
            recovered,
            reopened,
        })
    }

    /// Asks the oracle about one recovered crash state.
    fn verdict(&self, oracle: &TxnOracle, point: &CrashPoint, recovery: &Recovery) -> CheckVerdict {
        let (recovered, reopened) = match recovery {
            Recovery::Unmountable(detail) => {
                return CheckVerdict {
                    unmountable: Some(detail.clone()),
                    expected: "mountable file system".into(),
                    actual: format!("recovery failed: {detail}"),
                    ..CheckVerdict::default()
                }
            }
            Recovery::Recovered {
                recovered,
                reopened,
            } => (recovered, reopened),
        };
        let verdict = oracle.classify(&point.meta, recovered, reopened);
        if verdict.is_clean() {
            return CheckVerdict::default();
        }
        let details: Vec<&str> = verdict
            .violations
            .iter()
            .map(|v| v.detail.as_str())
            .collect();
        CheckVerdict {
            read_consequences: verdict.violations.iter().map(|v| v.consequence).collect(),
            actual: format!("{} [{}]", verdict.actual, details.join("; ")),
            expected: verdict.expected,
            ..CheckVerdict::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::TxnBounds;
    use crate::generator::{TxnOp, TxnWorkloadGenerator};
    use b3_crashmonkey::Consequence;
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

    /// Three two-transaction workloads that share a committed first
    /// transaction and commit their second.
    fn siblings() -> Vec<TxnWorkload> {
        // 84 single-transaction workloads precede the two-transaction
        // block, whose first 84 members share transaction one; every other
        // choice of a transaction aborts it.
        TxnWorkloadGenerator::with_range(TxnBounds::smoke(), 84, 84 + 6)
            .step_by(2)
            .collect()
    }

    #[test]
    fn siblings_run_their_shared_transaction_once_and_recover_its_crash_states_once() {
        let (spec, config) = setup();
        let harness = AppHarness::new(&spec, config, EngineProfile::fixed());
        let siblings = siblings();
        for sibling in &siblings {
            assert_eq!(sibling.txns[0], siblings[0].txns[0]);
            assert!(sibling.txns.iter().all(|txn| txn.commit));
        }
        let first = harness.test_workload(&siblings[0]).unwrap();
        assert_eq!(first.checkpoints_reused, 0);
        let shared_points = harness
            .test_workload(&TxnWorkload {
                txns: siblings[0].txns[..1].to_vec(),
                ..siblings[0].clone()
            })
            .unwrap()
            .checkpoints_reused;
        assert!(shared_points > 0, "transaction one commits");
        for sibling in &siblings[1..] {
            let outcome = harness.test_workload(sibling).unwrap();
            assert_eq!(
                outcome.checkpoints_reused, shared_points,
                "{}",
                sibling.name
            );
            assert!(outcome.checkpoints_tested > 0, "transaction two is new");
            assert_eq!(outcome.triage_audited, 0, "`All` audits nothing");
        }
        let sharing = harness.sharing();
        assert_eq!(sharing.steps.mounts, 1);
        // Both transactions of the first sibling, then one per workload
        // (the one-transaction prefix ran nothing).
        assert_eq!(sharing.steps.ops_applied, 2 + 2);
        assert_eq!(sharing.steps.ops_resumed, 1 + 2);
        assert_eq!(sharing.states_inherited, u64::from(shared_points) * 3);
    }

    #[test]
    fn the_triage_audit_recovers_answered_states_again_and_reports_a_mismatch() {
        let (spec, _) = setup();
        let config = CrashMonkeyConfig {
            crash_points: b3_crashmonkey::CrashPointPolicy::AllTriaged { audit: 1 },
            ..CrashMonkeyConfig::small()
        };
        let harness = AppHarness::new(&spec, config, EngineProfile::fixed());
        let siblings = siblings();
        let first = harness.test_workload(&siblings[0]).unwrap();
        assert_eq!((first.checkpoints_reused, first.triage_audited), (0, 0));
        let second = harness.test_workload(&siblings[1]).unwrap();
        assert_eq!(second.triage_audited, 1);
        assert!(second.triage_divergences.is_empty());
        assert_eq!(
            second.checkpoints_tested + second.checkpoints_reused,
            first.checkpoints_tested,
            "an audited state counts as tested, not reused"
        );
        assert!(second.checkpoints_reused > 0, "the budget is one state");

        // A witness that is not what the crash state recovers to.
        let mut run = harness.mount_run().unwrap();
        for txn in &siblings[0].txns {
            run.step(txn);
        }
        let (checkpoint, digest) = b3_analyze::state_digests(&run.log())[0];
        assert_eq!(checkpoint, run.crash_points[0].meta.checkpoint);
        let planted = Recovery::Unmountable("planted".into());
        harness.carried.record_witness(digest, planted);
        let outcome = harness.crash_test(&run, &siblings[0]).unwrap();
        assert_eq!(outcome.triage_audited, 1);
        assert_eq!(outcome.triage_divergences.len(), 1, "{outcome:?}");
        assert!(outcome.triage_divergences[0].contains("planted"));
    }

    #[test]
    fn a_crash_state_reached_through_no_shared_prefix_is_answered_from_a_witness() {
        let (spec, _) = setup();
        let config = CrashMonkeyConfig {
            crash_points: b3_crashmonkey::CrashPointPolicy::AllTriaged { audit: 0 },
            ..CrashMonkeyConfig::small()
        };
        let harness = AppHarness::new(&spec, config, EngineProfile::fixed());
        // An aborted first transaction writes nothing, so both workloads
        // reach the same crash states through different first transactions.
        let workload = |name: &str, kind| {
            let op = |kind, key| TxnOp { kind, key };
            let txns = vec![
                Txn {
                    ops: vec![op(kind, 0)],
                    commit: false,
                },
                Txn {
                    ops: vec![op(TxnOpKind::Put, 1)],
                    commit: true,
                },
            ];
            TxnWorkload {
                name: name.into(),
                index: 0,
                txns,
            }
        };
        let first = harness
            .test_workload(&workload("first", TxnOpKind::Put))
            .unwrap();
        assert_eq!(first.checkpoints_reused, 0);
        assert!(first.checkpoints_tested > 0);
        let second = harness
            .test_workload(&workload("second", TxnOpKind::Delete))
            .unwrap();
        assert_eq!(second.checkpoints_tested, 0);
        assert_eq!(second.checkpoints_reused, first.checkpoints_tested);
        let sharing = harness.sharing();
        assert_eq!(sharing.steps.ops_resumed, 0, "no transaction is shared");
        assert_eq!(sharing.states_inherited, 0, "nothing came from the trunk");
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
