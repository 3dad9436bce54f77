//! CowFs's [`Persistence`] over the tree-backed core, and its `FsSpec`
//! factory.

use std::collections::HashMap;

use b3_block::BlockDevice;
use b3_vfs::diskfmt::{read_blob, SuperBlock};
use b3_vfs::error::FsResult;
use b3_vfs::fs::{FileSystem, FsSpec, WriteMode};
use b3_vfs::recover::RecoverDelta;
use b3_vfs::tree::{InodeId, MemTree};
use b3_vfs::treefs::{Persistence, SyncKind, TreeCore, TreeFs, ViewSession};
use b3_vfs::workload::FallocMode;
use b3_vfs::{KernelEra, MutantSet};

use crate::bugs::CowBugs;
use crate::log::{replay, LogTree, Recorder, RecorderState};

/// CowFs on-disk magic number.
pub const COWFS_MAGIC: u32 = 0x434f_5746; // "COWF"

/// A btrfs-like copy-on-write file system: the tree core with CowFs's
/// persistence. See the crate-level documentation for the persistence
/// model.
pub type CowFs = TreeFs<Cow>;

/// What CowFs adds to the tree core: the fsync log, the recorder's
/// per-transaction state, and the bugs both read.
#[derive(Debug, Clone)]
pub struct Cow {
    bugs: CowBugs,
    log: LogTree,
    recorder_state: RecorderState,
}

impl Persistence for Cow {
    type Bugs = CowBugs;
    const NAME: &'static str = "cowfs";
    const MAGIC: u32 = COWFS_MAGIC;
    const CORRUPT_TREE: &'static str = "corrupt committed tree";
    const MISSING_TREE: Option<&'static str> = Some("missing committed tree");

    /// Replays the fsync log onto the committed tree.
    fn recover(
        dev: &dyn BlockDevice,
        sb: &SuperBlock,
        tree: &mut MemTree,
        bugs: CowBugs,
    ) -> FsResult<Cow> {
        if sb.log.is_present() {
            let log = LogTree::decode(&read_blob(dev, sb.log)?)?;
            *tree = replay(tree, &log, &bugs)?;
        }
        Ok(Cow {
            bugs,
            log: LogTree::new(),
            recorder_state: RecorderState::default(),
        })
    }

    /// Recovery completes by committing the replayed state, exactly like
    /// btrfs committing the transaction created during log replay. A clean
    /// image needs no such write-back.
    fn writes_back(sb: &SuperBlock) -> bool {
        sb.log.is_present() || sb.dirty
    }

    /// Appends the log items the call must persist and writes the log.
    fn persist(&mut self, core: &mut TreeCore, path: &str, kind: SyncKind) -> FsResult<()> {
        let items = Recorder {
            working: &core.working,
            committed: &core.committed,
            bugs: &self.bugs,
            existing_log: &self.log,
            state: &mut self.recorder_state,
        }
        .record_persist(path, kind)?;
        self.log.items.extend(items);
        core.write_log(&self.log.encode())
    }

    fn before_write(&mut self, core: &TreeCore, path: &str, mode: WriteMode) {
        if mode == WriteMode::Mmap {
            if let Ok(ino) = core.working.resolve(path) {
                self.recorder_state.mmap_clean.remove(&ino);
            }
        }
    }

    fn after_fallocate(
        &mut self,
        core: &TreeCore,
        path: &str,
        mode: FallocMode,
        offset: u64,
        len: u64,
    ) {
        if mode == FallocMode::PunchHole {
            if let Ok(ino) = core.working.resolve(path) {
                self.recorder_state
                    .punched
                    .entry(ino)
                    .or_default()
                    .push((offset, len));
            }
        }
    }

    fn on_commit(&mut self) {
        self.log.clear();
        self.recorder_state.clear();
    }
}

/// Factory for CowFs instances, parameterized by kernel era (or an explicit
/// bug set for targeted testing).
#[derive(Debug, Clone, Copy)]
pub struct CowFsSpec {
    bugs: CowBugs,
}

impl CowFsSpec {
    /// A spec building file systems with the bugs of the given kernel era.
    pub fn new(era: KernelEra) -> Self {
        CowFsSpec {
            bugs: CowBugs::for_era(era),
        }
    }

    /// A spec with an explicit bug set.
    pub fn with_bugs(bugs: CowBugs) -> Self {
        CowFsSpec { bugs }
    }

    /// A fully patched spec (no injected bugs).
    pub fn patched() -> Self {
        CowFsSpec {
            bugs: CowBugs::none(),
        }
    }

    /// The bug set this spec configures.
    pub fn bugs(&self) -> &CowBugs {
        &self.bugs
    }
}

impl FsSpec for CowFsSpec {
    fn name(&self) -> &'static str {
        "cowfs"
    }

    fn mkfs(&self, device: Box<dyn BlockDevice>) -> FsResult<Box<dyn FileSystem>> {
        Ok(Box::new(CowFs::mkfs(device, self.bugs)?))
    }

    fn mount(&self, device: Box<dyn BlockDevice>) -> FsResult<Box<dyn FileSystem>> {
        Ok(Box::new(CowFs::mount(device, self.bugs)?))
    }

    /// A mount without its commit. The commit only re-serializes the
    /// replayed state, so the logical view is the mount's.
    fn recovery_session(&self) -> Box<dyn RecoverDelta + Send> {
        Box::new(ViewSession::<Cow>(self.bugs))
    }

    fn fsck(&self, device: &mut dyn BlockDevice) -> FsResult<String> {
        // A btrfs-check analogue: verify the committed tree decodes and
        // report (but do not repair) dangling entries and stale directory
        // sizes.
        let sb = SuperBlock::read_from(device, COWFS_MAGIC)?;
        let bytes = read_blob(device, sb.tree)?;
        let tree = MemTree::decode(&bytes)?;
        let mut problems: Vec<String> = Vec::new();
        let inos: HashMap<InodeId, bool> = tree.inodes().map(|i| (i.ino, i.is_dir())).collect();
        for inode in tree.inodes() {
            if inode.is_dir() {
                for (name, child) in &inode.entries {
                    if !inos.contains_key(child) {
                        problems.push(format!(
                            "dangling entry '{name}' in directory inode {}",
                            inode.ino
                        ));
                    }
                }
                let expected = inode.entries.len() as u64 * b3_vfs::tree::DIRENT_SIZE;
                if inode.dir_size != expected {
                    problems.push(format!(
                        "directory inode {} size {} does not match {} entries",
                        inode.ino,
                        inode.dir_size,
                        inode.entries.len()
                    ));
                }
            }
        }
        if problems.is_empty() {
            Ok("cowfs-check: no errors found".to_string())
        } else {
            Ok(format!("cowfs-check: {}", problems.join("; ")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b3_block::{CowSnapshotDevice, DiskImage, LogHandle, RamDisk, RecordingDevice};
    use b3_vfs::exec::{apply_workload, Executor};
    use b3_vfs::snapshot::LogicalSnapshot;
    use b3_vfs::workload::{Op, Workload};

    /// A fresh file system on a recorder, whose handle gives the device as
    /// a crash would leave it: no unmount, no commit.
    fn fresh_fs(era: KernelEra) -> (CowFs, LogHandle) {
        let device = RecordingDevice::new(CowSnapshotDevice::new(DiskImage::empty(4096)));
        let log = device.log_handle();
        (
            CowFs::mkfs(Box::new(device), CowBugs::for_era(era)).unwrap(),
            log,
        )
    }

    fn remount(dev: Box<dyn BlockDevice>, era: KernelEra) -> CowFs {
        CowFs::mount(dev, CowBugs::for_era(era)).unwrap()
    }

    fn crashed_device() -> Box<dyn BlockDevice> {
        let (mut fs, log) = fresh_fs(KernelEra::Patched);
        fs.mkdir("A").unwrap();
        fs.create("A/foo").unwrap();
        fs.write("A/foo", 0, b"payload", WriteMode::Buffered)
            .unwrap();
        fs.fsync("A/foo").unwrap();
        fs.create("A/volatile").unwrap();
        Box::new(log.fork_device()) // crash: no clean unmount, log replay pending
    }

    /// What the device holds after `open` recovers or mounts `crashed`.
    fn image_after(
        crashed: &DiskImage,
        open: impl FnOnce(Box<dyn BlockDevice>) -> FsResult<Box<dyn FileSystem>>,
    ) -> DiskImage {
        let device = RecordingDevice::new(CowSnapshotDevice::new(crashed.clone()));
        let handle = device.log_handle();
        let _fs = open(Box::new(device)).unwrap();
        let id = handle.checkpoint();
        handle.snapshot().image_at(id).unwrap().clone()
    }

    #[test]
    fn recovery_session_matches_remount_and_caches_the_committed_tree() {
        let spec = CowFsSpec::patched();
        let baseline = spec.mount(crashed_device()).unwrap();
        let expected = LogicalSnapshot::capture(baseline.as_ref()).unwrap();

        let mut session = spec.recovery_session();
        for _ in 0..2 {
            let recovered = session.recover(&spec, crashed_device(), None).unwrap();
            assert_eq!(
                LogicalSnapshot::capture(recovered.as_ref()).unwrap(),
                expected
            );
        }
    }

    #[test]
    fn recover_writes_nothing_to_the_crash_state_and_mount_commits() {
        let crashed = crashed_device().freeze_image().unwrap();
        let spec = CowFsSpec::patched();
        let mut session = spec.recovery_session();
        let recovered = image_after(&crashed, |dev| session.recover(&spec, dev, None));
        assert!(recovered == crashed, "recover wrote to the crash state");
        let mounted = image_after(&crashed, |dev| spec.mount(dev));
        assert!(mounted != crashed, "mount commits the replayed log");
    }

    #[test]
    fn mkfs_and_basic_operations() {
        let (mut fs, _) = fresh_fs(KernelEra::Patched);
        fs.mkdir("A").unwrap();
        fs.create("A/foo").unwrap();
        fs.write("A/foo", 0, b"hello world", WriteMode::Buffered)
            .unwrap();
        assert_eq!(fs.read_all("A/foo").unwrap(), b"hello world");
        assert_eq!(fs.readdir("A").unwrap(), vec!["foo"]);
        assert_eq!(fs.metadata("A/foo").unwrap().size, 11);
    }

    #[test]
    fn unsynced_changes_do_not_survive_remount() {
        let (mut fs, log) = fresh_fs(KernelEra::Patched);
        fs.create("volatile").unwrap();
        let dev = Box::new(log.fork_device());
        let fs = remount(dev, KernelEra::Patched);
        assert!(
            !fs.exists("volatile"),
            "a file that was never persisted must not survive a crash"
        );
    }

    #[test]
    fn synced_changes_survive_crash() {
        let (mut fs, log) = fresh_fs(KernelEra::Patched);
        fs.mkdir("A").unwrap();
        fs.create("A/foo").unwrap();
        fs.write("A/foo", 0, &[3u8; 5000], WriteMode::Buffered)
            .unwrap();
        fs.sync().unwrap();
        fs.create("A/unsynced").unwrap();
        let dev = Box::new(log.fork_device());
        let fs = remount(dev, KernelEra::Patched);
        assert_eq!(fs.metadata("A/foo").unwrap().size, 5000);
        assert!(!fs.exists("A/unsynced"));
    }

    #[test]
    fn fsynced_file_survives_crash_on_patched_fs() {
        let (mut fs, log) = fresh_fs(KernelEra::Patched);
        fs.mkdir("A").unwrap();
        fs.create("A/foo").unwrap();
        fs.write("A/foo", 0, &[9u8; 4096], WriteMode::Buffered)
            .unwrap();
        fs.fsync("A/foo").unwrap();
        let dev = Box::new(log.fork_device());
        let fs = remount(dev, KernelEra::Patched);
        assert_eq!(fs.metadata("A/foo").unwrap().size, 4096);
        assert_eq!(fs.read("A/foo", 0, 5).unwrap(), vec![9u8; 5]);
    }

    #[test]
    fn clean_unmount_persists_everything() {
        let (mut fs, _) = fresh_fs(KernelEra::Patched);
        fs.mkdir("B").unwrap();
        fs.create("B/bar").unwrap();
        fs.setxattr("B/bar", "user.k", b"v").unwrap();
        let before = LogicalSnapshot::capture(&fs).unwrap();
        let dev = Box::new(fs).unmount().unwrap();
        let fs = remount(dev, KernelEra::Patched);
        let after = LogicalSnapshot::capture(&fs).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn workload_execution_through_the_executor() {
        let (mut fs, _) = fresh_fs(KernelEra::Patched);
        let workload = Workload::with_setup(
            "demo",
            vec![
                Op::Mkdir { path: "A".into() },
                Op::Creat {
                    path: "A/foo".into(),
                },
            ],
            vec![
                Op::Link {
                    existing: "A/foo".into(),
                    new: "A/bar".into(),
                },
                Op::Fsync {
                    path: "A/bar".into(),
                },
            ],
        );
        apply_workload(&mut fs, &workload).unwrap();
        assert_eq!(fs.metadata("A/foo").unwrap().nlink, 2);
    }

    #[test]
    fn spec_round_trip_with_fsck() {
        let spec = CowFsSpec::patched();
        let mut fs = spec.mkfs(Box::new(RamDisk::new(2048))).unwrap();
        fs.mkdir("A").unwrap();
        fs.create("A/x").unwrap();
        let mut dev = fs.unmount().unwrap();
        let report = spec.fsck(dev.as_mut()).unwrap();
        assert!(report.contains("no errors"));
        let fs = spec.mount(dev).unwrap();
        assert!(fs.exists("A/x"));
    }

    #[test]
    fn buggy_era_loses_hard_link_data_end_to_end() {
        // Known workload 16 executed directly against the file system, with
        // a crash simulated by remounting the raw device.
        let (mut fs, log) = fresh_fs(KernelEra::V3_13);
        let mut exec = Executor::new();
        let workload = Workload::with_setup(
            "w16",
            vec![
                Op::Mkdir { path: "A".into() },
                Op::Creat {
                    path: "A/foo".into(),
                },
            ],
            vec![
                Op::Sync,
                Op::Write {
                    path: "A/foo".into(),
                    mode: WriteMode::Buffered,
                    spec: b3_vfs::workload::WriteSpec::range(0, 16 * 1024),
                },
                Op::Link {
                    existing: "A/foo".into(),
                    new: "A/bar".into(),
                },
                Op::Fsync {
                    path: "A/foo".into(),
                },
            ],
        );
        exec.apply_all(&mut fs, &workload).unwrap();
        let dev = Box::new(log.fork_device());
        let fs = remount(dev, KernelEra::V3_13);
        assert_eq!(
            fs.metadata("A/foo").unwrap().size,
            0,
            "kernel 3.13 era must exhibit the hard-link fsync data loss"
        );

        // The same workload on a patched file system keeps the data.
        let (mut fs, log) = fresh_fs(KernelEra::Patched);
        Executor::new().apply_all(&mut fs, &workload).unwrap();
        let dev = Box::new(log.fork_device());
        let fs = remount(dev, KernelEra::Patched);
        assert_eq!(fs.metadata("A/foo").unwrap().size, 16 * 1024);
    }
}
