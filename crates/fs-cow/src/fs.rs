//! The CowFs `FileSystem` implementation and its `FsSpec` factory.

use std::collections::HashMap;

use b3_block::{BlockDevice, IoFlags, StateDelta};
use b3_vfs::diskfmt::{read_blob, write_blob, SuperBlock};
use b3_vfs::error::{FsError, FsResult};
use b3_vfs::fs::{FileSystem, FsSpec, GuaranteeProfile, WriteMode};
use b3_vfs::metadata::Metadata;
use b3_vfs::recover::RecoverDelta;
use b3_vfs::tree::{InodeId, MemTree};
use b3_vfs::workload::FallocMode;
use b3_vfs::{KernelEra, MutantSet};

use crate::bugs::CowBugs;
use crate::log::{replay, LogTree, Recorder, RecorderState, SyncKind};

/// CowFs on-disk magic number.
pub const COWFS_MAGIC: u32 = 0x434f_5746; // "COWF"

/// A btrfs-like copy-on-write file system. See the crate-level documentation
/// for the persistence model.
pub struct CowFs {
    dev: Box<dyn BlockDevice>,
    sb: SuperBlock,
    bugs: CowBugs,
    working: MemTree,
    /// The last committed tree. It shares every inode with `working` that
    /// no operation since the commit touched, so holding it copies nothing.
    committed: MemTree,
    log: LogTree,
    recorder_state: RecorderState,
}

impl CowFs {
    /// Formats a fresh CowFs onto `dev` with the bug set of the given kernel
    /// era, and returns it mounted.
    pub fn mkfs(mut dev: Box<dyn BlockDevice>, era: KernelEra) -> FsResult<CowFs> {
        Self::mkfs_with_bugs(CowBugs::for_era(era), &mut dev)?;
        Self::mount_with_bugs(dev, CowBugs::for_era(era))
    }

    fn mkfs_with_bugs(_bugs: CowBugs, dev: &mut Box<dyn BlockDevice>) -> FsResult<()> {
        let tree = MemTree::new();
        let mut sb = SuperBlock::new(COWFS_MAGIC);
        let blob = write_blob(dev.as_mut(), &mut sb, &tree.encode(), IoFlags::META)?;
        sb.tree = blob;
        sb.dirty = false;
        sb.write_to(dev.as_mut())?;
        Ok(())
    }

    /// Mounts an existing image with an explicit bug set, running log replay
    /// if the image was not cleanly unmounted.
    pub fn mount_with_bugs(dev: Box<dyn BlockDevice>, bugs: CowBugs) -> FsResult<CowFs> {
        let mut fs = Self::replayed(dev, bugs)?;
        if fs.sb.log.is_present() || fs.sb.dirty {
            // Recovery completes by committing the replayed state, exactly
            // like btrfs committing the transaction created during log
            // replay. A clean image needs no such write-back.
            fs.commit()?;
        }
        Ok(fs)
    }

    /// The view a mount of `dev` gives, before the mount commits it: the
    /// committed tree with the log replayed onto it. Writes nothing.
    fn replayed(dev: Box<dyn BlockDevice>, bugs: CowBugs) -> FsResult<CowFs> {
        let sb = SuperBlock::read_from(dev.as_ref(), COWFS_MAGIC)?;
        let tree_bytes = read_blob(dev.as_ref(), sb.tree)?;
        if tree_bytes.is_empty() {
            return Err(FsError::Unmountable("missing committed tree".into()));
        }
        let committed = MemTree::decode(&tree_bytes)
            .map_err(|e| FsError::Unmountable(format!("corrupt committed tree: {e}")))?;
        let working = if sb.log.is_present() {
            let log = LogTree::decode(&read_blob(dev.as_ref(), sb.log)?)?;
            replay(&committed, &log, &bugs)?
        } else {
            committed
        };
        Ok(CowFs {
            dev,
            sb,
            bugs,
            committed: working.clone(),
            working,
            log: LogTree::new(),
            recorder_state: RecorderState::default(),
        })
    }

    /// Mounts an existing image with the bug set of the given kernel era.
    pub fn mount(dev: Box<dyn BlockDevice>, era: KernelEra) -> FsResult<CowFs> {
        Self::mount_with_bugs(dev, CowBugs::for_era(era))
    }

    /// The active bug configuration.
    pub fn bugs(&self) -> &CowBugs {
        &self.bugs
    }

    /// Number of items currently in the fsync log.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Current commit generation.
    pub fn generation(&self) -> u64 {
        self.sb.generation
    }

    fn commit(&mut self) -> FsResult<()> {
        let bytes = self.working.encode();
        let blob = write_blob(self.dev.as_mut(), &mut self.sb, &bytes, IoFlags::META)?;
        self.sb.tree = blob;
        self.sb.log = b3_vfs::diskfmt::BlobRef::EMPTY;
        self.sb.generation += 1;
        self.sb.dirty = true;
        self.sb.write_to(self.dev.as_mut())?;
        self.committed = self.working.clone();
        self.log.clear();
        self.recorder_state.clear();
        Ok(())
    }

    fn persist(&mut self, path: &str, kind: SyncKind) -> FsResult<()> {
        let items = {
            let mut recorder = Recorder {
                working: &self.working,
                committed: &self.committed,
                bugs: &self.bugs,
                existing_log: &self.log,
                state: &mut self.recorder_state,
            };
            recorder.record_persist(path, kind)?
        };
        self.log.items.extend(items);
        let bytes = self.log.encode();
        let blob = write_blob(
            self.dev.as_mut(),
            &mut self.sb,
            &bytes,
            IoFlags::META | IoFlags::SYNC,
        )?;
        self.sb.log = blob;
        self.sb.dirty = true;
        self.sb.write_to(self.dev.as_mut())?;
        Ok(())
    }

    fn track_punch(&mut self, path: &str, mode: FallocMode, offset: u64, len: u64) {
        if mode == FallocMode::PunchHole {
            if let Ok(ino) = self.working.resolve(path) {
                self.recorder_state
                    .punched
                    .entry(ino)
                    .or_default()
                    .push((offset, len));
            }
        }
    }

    fn mark_mmap_dirty(&mut self, path: &str) {
        if let Ok(ino) = self.working.resolve(path) {
            self.recorder_state.mmap_clean.remove(&ino);
        }
    }
}

impl FileSystem for CowFs {
    fn fs_name(&self) -> &'static str {
        "cowfs"
    }

    fn create(&mut self, path: &str) -> FsResult<()> {
        self.working.create_file(path).map(|_| ())
    }

    fn mkdir(&mut self, path: &str) -> FsResult<()> {
        self.working.mkdir(path).map(|_| ())
    }

    fn mkfifo(&mut self, path: &str) -> FsResult<()> {
        self.working.mkfifo(path).map(|_| ())
    }

    fn symlink(&mut self, target: &str, linkpath: &str) -> FsResult<()> {
        self.working.symlink(target, linkpath).map(|_| ())
    }

    fn link(&mut self, existing: &str, new: &str) -> FsResult<()> {
        self.working.link(existing, new).map(|_| ())
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        self.working.unlink(path)
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        self.working.rmdir(path)
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        self.working.rename(from, to)
    }

    fn write(&mut self, path: &str, offset: u64, data: &[u8], mode: WriteMode) -> FsResult<()> {
        if mode == WriteMode::Mmap {
            self.mark_mmap_dirty(path);
        }
        self.working.write(path, offset, data)
    }

    fn truncate(&mut self, path: &str, size: u64) -> FsResult<()> {
        self.working.truncate(path, size)
    }

    fn fallocate(&mut self, path: &str, mode: FallocMode, offset: u64, len: u64) -> FsResult<()> {
        self.working.fallocate(path, mode, offset, len)?;
        self.track_punch(path, mode, offset, len);
        Ok(())
    }

    fn setxattr(&mut self, path: &str, name: &str, value: &[u8]) -> FsResult<()> {
        self.working.setxattr(path, name, value)
    }

    fn removexattr(&mut self, path: &str, name: &str) -> FsResult<()> {
        self.working.removexattr(path, name)
    }

    fn getxattr(&self, path: &str, name: &str) -> FsResult<Vec<u8>> {
        self.working.getxattr(path, name)
    }

    fn read(&self, path: &str, offset: u64, len: u64) -> FsResult<Vec<u8>> {
        self.working.read(path, offset, len)
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        self.working.readdir(path)
    }

    fn metadata(&self, path: &str) -> FsResult<Metadata> {
        self.working.metadata(path)
    }

    fn readlink(&self, path: &str) -> FsResult<String> {
        self.working.readlink(path)
    }

    fn fsync(&mut self, path: &str) -> FsResult<()> {
        self.persist(path, SyncKind::Fsync)
    }

    fn fdatasync(&mut self, path: &str) -> FsResult<()> {
        self.persist(path, SyncKind::Fdatasync)
    }

    fn msync(&mut self, path: &str, offset: u64, len: u64) -> FsResult<()> {
        self.persist(path, SyncKind::Msync { offset, len })
    }

    fn sync(&mut self) -> FsResult<()> {
        self.commit()
    }

    fn unmount(mut self: Box<Self>) -> FsResult<Box<dyn BlockDevice>> {
        self.commit()?;
        self.sb.dirty = false;
        self.sb.write_to(self.dev.as_mut())?;
        Ok(self.dev)
    }

    fn fork(&self, dev: Box<dyn BlockDevice>) -> Box<dyn FileSystem> {
        Box::new(CowFs {
            dev,
            sb: self.sb,
            bugs: self.bugs,
            working: self.working.clone(),
            committed: self.committed.clone(),
            log: self.log.clone(),
            recorder_state: self.recorder_state.clone(),
        })
    }

    fn guarantees(&self) -> GuaranteeProfile {
        GuaranteeProfile::linux_default()
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

    fn mkfs(&self, mut device: Box<dyn BlockDevice>) -> FsResult<Box<dyn FileSystem>> {
        CowFs::mkfs_with_bugs(self.bugs, &mut device)?;
        Ok(Box::new(CowFs::mount_with_bugs(device, self.bugs)?))
    }

    fn mount(&self, device: Box<dyn BlockDevice>) -> FsResult<Box<dyn FileSystem>> {
        Ok(Box::new(CowFs::mount_with_bugs(device, self.bugs)?))
    }

    fn recovery_session(&self) -> Box<dyn RecoverDelta + Send> {
        Box::new(*self)
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

/// The CowFs recovery session: a mount without its commit. The commit only
/// re-serializes the replayed state, so the logical view is the mount's.
impl RecoverDelta for CowFsSpec {
    fn recover(
        &mut self,
        _spec: &dyn FsSpec,
        device: Box<dyn BlockDevice>,
        _delta: Option<&StateDelta>,
    ) -> FsResult<Box<dyn FileSystem>> {
        Ok(Box::new(CowFs::replayed(device, self.bugs)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b3_block::{CowSnapshotDevice, DiskImage, RamDisk, RecordingDevice};
    use b3_vfs::exec::{apply_workload, Executor};
    use b3_vfs::snapshot::LogicalSnapshot;
    use b3_vfs::workload::{Op, Workload};

    fn fresh_fs(era: KernelEra) -> CowFs {
        CowFs::mkfs(Box::new(RamDisk::new(4096)), era).unwrap()
    }

    fn crashed_device() -> Box<dyn BlockDevice> {
        let mut fs = fresh_fs(KernelEra::Patched);
        fs.mkdir("A").unwrap();
        fs.create("A/foo").unwrap();
        fs.write("A/foo", 0, b"payload", WriteMode::Buffered)
            .unwrap();
        fs.fsync("A/foo").unwrap();
        fs.create("A/volatile").unwrap();
        fs.dev // crash: no clean unmount, log replay pending
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
        let mut fs = fresh_fs(KernelEra::Patched);
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
        let mut fs = fresh_fs(KernelEra::Patched);
        fs.create("volatile").unwrap();
        let dev = Box::new(fs).into_device_without_unmount();
        let fs = CowFs::mount(dev, KernelEra::Patched).unwrap();
        assert!(
            !fs.exists("volatile"),
            "a file that was never persisted must not survive a crash"
        );
    }

    impl CowFs {
        /// Test helper: simulate a crash by dropping all in-memory state and
        /// handing back the raw device (no unmount, no commit).
        fn into_device_without_unmount(self: Box<Self>) -> Box<dyn BlockDevice> {
            self.dev
        }
    }

    #[test]
    fn synced_changes_survive_crash() {
        let mut fs = fresh_fs(KernelEra::Patched);
        fs.mkdir("A").unwrap();
        fs.create("A/foo").unwrap();
        fs.write("A/foo", 0, &[3u8; 5000], WriteMode::Buffered)
            .unwrap();
        fs.sync().unwrap();
        fs.create("A/unsynced").unwrap();
        let dev = Box::new(fs).into_device_without_unmount();
        let fs = CowFs::mount(dev, KernelEra::Patched).unwrap();
        assert_eq!(fs.metadata("A/foo").unwrap().size, 5000);
        assert!(!fs.exists("A/unsynced"));
    }

    #[test]
    fn fsynced_file_survives_crash_on_patched_fs() {
        let mut fs = fresh_fs(KernelEra::Patched);
        fs.mkdir("A").unwrap();
        fs.create("A/foo").unwrap();
        fs.write("A/foo", 0, &[9u8; 4096], WriteMode::Buffered)
            .unwrap();
        fs.fsync("A/foo").unwrap();
        let dev = Box::new(fs).into_device_without_unmount();
        let fs = CowFs::mount(dev, KernelEra::Patched).unwrap();
        assert_eq!(fs.metadata("A/foo").unwrap().size, 4096);
        assert_eq!(fs.read("A/foo", 0, 5).unwrap(), vec![9u8; 5]);
    }

    #[test]
    fn clean_unmount_persists_everything() {
        let mut fs = fresh_fs(KernelEra::Patched);
        fs.mkdir("B").unwrap();
        fs.create("B/bar").unwrap();
        fs.setxattr("B/bar", "user.k", b"v").unwrap();
        let before = LogicalSnapshot::capture(&fs).unwrap();
        let dev = Box::new(fs).unmount().unwrap();
        let fs = CowFs::mount(dev, KernelEra::Patched).unwrap();
        let after = LogicalSnapshot::capture(&fs).unwrap();
        assert!(before.diff_all(&after).is_empty());
    }

    #[test]
    fn workload_execution_through_the_executor() {
        let mut fs = fresh_fs(KernelEra::Patched);
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
        let mut fs = fresh_fs(KernelEra::V3_13);
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
        let dev = Box::new(fs).into_device_without_unmount();
        let fs = CowFs::mount(dev, KernelEra::V3_13).unwrap();
        assert_eq!(
            fs.metadata("A/foo").unwrap().size,
            0,
            "kernel 3.13 era must exhibit the hard-link fsync data loss"
        );

        // The same workload on a patched file system keeps the data.
        let mut fs = fresh_fs(KernelEra::Patched);
        Executor::new().apply_all(&mut fs, &workload).unwrap();
        let dev = Box::new(fs).into_device_without_unmount();
        let fs = CowFs::mount(dev, KernelEra::Patched).unwrap();
        assert_eq!(fs.metadata("A/foo").unwrap().size, 16 * 1024);
    }
}
