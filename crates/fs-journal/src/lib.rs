//! JournalFs: an ext4-like ordered-data journaling file system with delayed
//! allocation and injectable crash-consistency bugs.
//!
//! ext4 is the most mature of the file systems the paper studies and has the
//! fewest crash-consistency bugs (two of the 28). Its persistence model is
//! also the simplest for crash purposes: `fsync`/`fdatasync` force a commit
//! of the running journal transaction, which — in ordered-data mode — writes
//! out the affected data first and then the metadata. JournalFs mirrors this
//! by treating every persistence call as a full commit of the working tree,
//! except on the two buggy paths the paper's corpus exercises:
//!
//! * `fdatasync` after `fallocate(KEEP_SIZE)` beyond EOF fails to persist
//!   the extra allocation (known bug, workload 2).
//! * An `O_DIRECT` write past the on-disk size reaches the device but the
//!   on-disk `i_disksize` is not updated, so the file recovers with its old
//!   (smaller, possibly zero) size (known bug, workload 4).
//!
//! Direct writes are synchronous with respect to the device, which is why
//! CrashMonkey treats them as persistence points (see
//! `b3-crashmonkey::profiler`).

use b3_block::{BlockDevice, IoFlags};
use b3_vfs::diskfmt::{read_blob, write_blob, BlobRef, SuperBlock};
use b3_vfs::error::{FsError, FsResult};
use b3_vfs::fs::{FileSystem, FsSpec, GuaranteeProfile, WriteMode};
use b3_vfs::metadata::Metadata;
use b3_vfs::tree::MemTree;
use b3_vfs::workload::FallocMode;
use b3_vfs::{mutant, KernelEra, Mutant, MutantSet};

/// JournalFs on-disk magic number.
pub const JOURNALFS_MAGIC: u32 = 0x4a52_4e4c; // "JRNL"

/// Which JournalFs crash-consistency bugs are active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalBugs {
    /// `fdatasync(2)` after `fallocate(KEEP_SIZE)` beyond EOF does not
    /// journal the new allocation; the blocks are lost after a crash.
    /// (Known bug: workload 2, "ext4: fix fdatasync(2) after fallocate(2)".)
    pub fdatasync_skips_falloc_beyond_eof: bool,
    /// A direct write extending the file past its on-disk size does not
    /// update `i_disksize`; after a crash the data blocks are allocated but
    /// the size is stale. (Known bug: workload 4, "ext4: update i_disksize
    /// if direct write past ondisk size".)
    pub direct_write_skips_disksize: bool,
}

/// Both known ext4 bugs were reported against 4.15-era kernels and fixed
/// before 4.16.
impl MutantSet for JournalBugs {
    const MUTANTS: &'static [Mutant<Self>] = &[
        mutant!(fdatasync_skips_falloc_beyond_eof, V3_12..V4_16),
        mutant!(direct_write_skips_disksize, V3_12..V4_16),
    ];
}

/// The ext4-like file system.
pub struct JournalFs {
    dev: Box<dyn BlockDevice>,
    sb: SuperBlock,
    bugs: JournalBugs,
    working: MemTree,
    committed: MemTree,
}

impl JournalFs {
    /// Formats and mounts a fresh JournalFs for the given kernel era.
    pub fn mkfs(mut dev: Box<dyn BlockDevice>, era: KernelEra) -> FsResult<JournalFs> {
        Self::format(&mut dev)?;
        Self::mount_with_bugs(dev, JournalBugs::for_era(era))
    }

    fn format(dev: &mut Box<dyn BlockDevice>) -> FsResult<()> {
        let tree = MemTree::new();
        let mut sb = SuperBlock::new(JOURNALFS_MAGIC);
        sb.tree = write_blob(dev.as_mut(), &mut sb, &tree.encode(), IoFlags::META)?;
        sb.write_to(dev.as_mut())
    }

    /// Mounts an existing image with the bugs of the given era.
    pub fn mount(dev: Box<dyn BlockDevice>, era: KernelEra) -> FsResult<JournalFs> {
        Self::mount_with_bugs(dev, JournalBugs::for_era(era))
    }

    /// Mounts an existing image with an explicit bug set. JournalFs recovery
    /// is just reading the last committed tree (journal replay happens
    /// implicitly because every commit writes a complete consistent image).
    pub fn mount_with_bugs(dev: Box<dyn BlockDevice>, bugs: JournalBugs) -> FsResult<JournalFs> {
        let sb = SuperBlock::read_from(dev.as_ref(), JOURNALFS_MAGIC)?;
        let committed = MemTree::decode(&read_blob(dev.as_ref(), sb.tree)?)
            .map_err(|e| FsError::Unmountable(format!("corrupt file system image: {e}")))?;
        Ok(JournalFs {
            dev,
            sb,
            bugs,
            working: committed.clone(),
            committed,
        })
    }

    /// The active bug configuration.
    pub fn bugs(&self) -> &JournalBugs {
        &self.bugs
    }

    /// Commits `tree` as the new on-disk state.
    fn commit_tree(&mut self, tree: &MemTree) -> FsResult<()> {
        let bytes = tree.encode();
        self.sb.tree = write_blob(self.dev.as_mut(), &mut self.sb, &bytes, IoFlags::META)?;
        self.sb.log = BlobRef::EMPTY;
        self.sb.generation += 1;
        self.sb.dirty = true;
        self.sb.write_to(self.dev.as_mut())?;
        self.committed = tree.clone();
        Ok(())
    }

    fn commit_working(&mut self) -> FsResult<()> {
        let tree = self.working.clone();
        self.commit_tree(&tree)
    }

    /// `fdatasync` commits the working tree, except that the buggy path
    /// drops allocation beyond EOF for the target file.
    fn fdatasync_commit(&mut self, path: &str) -> FsResult<()> {
        let mut tree = self.working.clone();
        if self.bugs.fdatasync_skips_falloc_beyond_eof {
            if let Ok(ino) = tree.resolve(path) {
                if let Some(inode) = tree.inode_mut(ino) {
                    let covered = (inode.data.len() as u64).div_ceil(4096) * 4096;
                    if inode.allocated > covered {
                        inode.allocated = covered;
                    }
                }
            }
        }
        self.commit_tree(&tree)
    }
}

impl FileSystem for JournalFs {
    fn fs_name(&self) -> &'static str {
        "journalfs"
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
        self.working.write(path, offset, data)?;
        if mode == WriteMode::Direct {
            // Direct IO reaches the device immediately: the data (and, on a
            // correct kernel, the on-disk size) become durable without an
            // explicit persistence call.
            let mut durable = self.committed.clone();
            if !durable.exists(path) {
                // The file itself was never committed; a direct write cannot
                // resurrect it, so there is nothing durable to update.
                return Ok(());
            }
            durable.write(path, offset, data)?;
            if self.bugs.direct_write_skips_disksize {
                if let (Ok(ino), Ok(committed_meta)) =
                    (durable.resolve(path), self.committed.metadata(path))
                {
                    if let Some(inode) = durable.inode_mut(ino) {
                        // Data and allocation reach the disk, but the size
                        // update is lost.
                        inode.data.truncate(committed_meta.size as usize);
                    }
                }
            }
            self.commit_tree(&durable)?;
        }
        Ok(())
    }

    fn truncate(&mut self, path: &str, size: u64) -> FsResult<()> {
        self.working.truncate(path, size)
    }

    fn fallocate(&mut self, path: &str, mode: FallocMode, offset: u64, len: u64) -> FsResult<()> {
        self.working.fallocate(path, mode, offset, len)
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

    fn fsync(&mut self, _path: &str) -> FsResult<()> {
        // ext4 fsync commits the running transaction, persisting everything
        // that happened before it.
        self.commit_working()
    }

    fn fdatasync(&mut self, path: &str) -> FsResult<()> {
        self.fdatasync_commit(path)
    }

    fn sync(&mut self) -> FsResult<()> {
        self.commit_working()
    }

    fn unmount(mut self: Box<Self>) -> FsResult<Box<dyn BlockDevice>> {
        self.commit_working()?;
        self.sb.dirty = false;
        self.sb.write_to(self.dev.as_mut())?;
        Ok(self.dev)
    }

    fn fork(&self, dev: Box<dyn BlockDevice>) -> Box<dyn FileSystem> {
        Box::new(JournalFs {
            dev,
            sb: self.sb,
            bugs: self.bugs,
            working: self.working.clone(),
            committed: self.committed.clone(),
        })
    }

    fn guarantees(&self) -> GuaranteeProfile {
        GuaranteeProfile::linux_default()
    }
}

/// Factory for JournalFs instances.
#[derive(Debug, Clone, Copy)]
pub struct JournalFsSpec {
    bugs: JournalBugs,
    name: &'static str,
}

impl JournalFsSpec {
    /// Spec with the bugs of a kernel era.
    pub fn new(era: KernelEra) -> Self {
        JournalFsSpec {
            bugs: JournalBugs::for_era(era),
            name: "journalfs",
        }
    }

    /// Spec with an explicit bug set.
    pub fn with_bugs(bugs: JournalBugs) -> Self {
        JournalFsSpec {
            bugs,
            name: "journalfs",
        }
    }

    /// Fully patched spec.
    pub fn patched() -> Self {
        JournalFsSpec {
            bugs: JournalBugs::none(),
            name: "journalfs",
        }
    }

    /// The paper also tested xfs with seq-1 and seq-2 workloads and found no
    /// new bugs. We model xfs as a patched JournalFs under a different name:
    /// for black-box crash testing the observable behaviour of a correct
    /// journaling file system is what matters.
    pub fn xfs_stand_in() -> Self {
        JournalFsSpec {
            bugs: JournalBugs::none(),
            name: "xfs-sim",
        }
    }
}

impl FsSpec for JournalFsSpec {
    fn name(&self) -> &'static str {
        self.name
    }

    fn mkfs(&self, mut device: Box<dyn BlockDevice>) -> FsResult<Box<dyn FileSystem>> {
        JournalFs::format(&mut device)?;
        Ok(Box::new(JournalFs::mount_with_bugs(device, self.bugs)?))
    }

    fn mount(&self, device: Box<dyn BlockDevice>) -> FsResult<Box<dyn FileSystem>> {
        Ok(Box::new(JournalFs::mount_with_bugs(device, self.bugs)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b3_block::RamDisk;

    fn fresh(bugs: JournalBugs) -> JournalFs {
        let mut dev: Box<dyn BlockDevice> = Box::new(RamDisk::new(4096));
        JournalFs::format(&mut dev).unwrap();
        JournalFs::mount_with_bugs(dev, bugs).unwrap()
    }

    fn crash_and_remount(fs: JournalFs, bugs: JournalBugs) -> JournalFs {
        JournalFs::mount_with_bugs(fs.dev, bugs).unwrap()
    }

    #[test]
    fn recovery_session_matches_remount_and_caches_the_committed_tree() {
        use b3_vfs::snapshot::LogicalSnapshot;
        fn crashed_device() -> Box<dyn BlockDevice> {
            let mut fs = fresh(JournalBugs::none());
            fs.mkdir("A").unwrap();
            fs.create("A/foo").unwrap();
            fs.write("A/foo", 0, b"payload", WriteMode::Buffered)
                .unwrap();
            fs.fsync("A/foo").unwrap();
            fs.create("A/volatile").unwrap();
            fs.dev // crash: no clean unmount
        }
        let spec = JournalFsSpec::patched();
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
    fn fsync_commits_everything() {
        let mut fs = fresh(JournalBugs::none());
        fs.mkdir("A").unwrap();
        fs.create("A/foo").unwrap();
        fs.write("A/foo", 0, &[7u8; 3000], WriteMode::Buffered)
            .unwrap();
        fs.fsync("A/foo").unwrap();
        fs.create("A/volatile").unwrap();
        let fs = crash_and_remount(fs, JournalBugs::none());
        assert_eq!(fs.metadata("A/foo").unwrap().size, 3000);
        assert!(!fs.exists("A/volatile"));
    }

    #[test]
    fn fdatasync_falloc_bug_loses_blocks() {
        // Known workload 2 on ext4.
        let run = |bugs: JournalBugs| -> u64 {
            let mut fs = fresh(bugs);
            fs.create("foo").unwrap();
            fs.write("foo", 0, &[1u8; 8192], WriteMode::Buffered)
                .unwrap();
            fs.fsync("foo").unwrap();
            fs.fallocate("foo", FallocMode::KeepSize, 8192, 8192)
                .unwrap();
            fs.fdatasync("foo").unwrap();
            let fs = crash_and_remount(fs, bugs);
            fs.metadata("foo").unwrap().blocks
        };
        assert_eq!(run(JournalBugs::none()), 32);
        assert_eq!(
            run(JournalBugs {
                fdatasync_skips_falloc_beyond_eof: true,
                ..JournalBugs::none()
            }),
            16
        );
    }

    #[test]
    fn direct_write_disksize_bug_recovers_size_zero() {
        // Known workload 4: buffered write at 16K (never persisted), then a
        // direct write of the first 4K.
        let run = |bugs: JournalBugs| -> u64 {
            let mut fs = fresh(bugs);
            fs.create("foo").unwrap();
            fs.sync().unwrap();
            fs.write("foo", 16 * 1024, &[2u8; 4096], WriteMode::Buffered)
                .unwrap();
            fs.write("foo", 0, &[3u8; 4096], WriteMode::Direct).unwrap();
            let fs = crash_and_remount(fs, bugs);
            fs.metadata("foo").unwrap().size
        };
        assert_eq!(run(JournalBugs::none()), 4096);
        assert_eq!(
            run(JournalBugs {
                direct_write_skips_disksize: true,
                ..JournalBugs::none()
            }),
            0
        );
    }

    #[test]
    fn direct_write_to_uncommitted_file_stays_volatile() {
        let mut fs = fresh(JournalBugs::none());
        fs.create("foo").unwrap();
        fs.write("foo", 0, &[1u8; 100], WriteMode::Direct).unwrap();
        let fs = crash_and_remount(fs, JournalBugs::none());
        assert!(!fs.exists("foo"));
    }

    #[test]
    fn era_table_matches_paper() {
        assert_eq!(
            JournalBugs::for_era(KernelEra::Patched),
            JournalBugs::none()
        );
        assert_eq!(JournalBugs::for_era(KernelEra::V4_16), JournalBugs::none());
        let old = JournalBugs::for_era(KernelEra::V4_15);
        assert!(old.fdatasync_skips_falloc_beyond_eof);
        assert!(old.direct_write_skips_disksize);
    }

    /// The enabled ids of every era, as literals: a table edit that moves
    /// a window shows here.
    #[test]
    fn era_sets_are_pinned() {
        use KernelEra::*;
        let pinned: [(KernelEra, &[&str]); 8] = [
            (
                V3_12,
                &[
                    "fdatasync_skips_falloc_beyond_eof",
                    "direct_write_skips_disksize",
                ],
            ),
            (
                V3_13,
                &[
                    "fdatasync_skips_falloc_beyond_eof",
                    "direct_write_skips_disksize",
                ],
            ),
            (
                V3_16,
                &[
                    "fdatasync_skips_falloc_beyond_eof",
                    "direct_write_skips_disksize",
                ],
            ),
            (
                V4_1_1,
                &[
                    "fdatasync_skips_falloc_beyond_eof",
                    "direct_write_skips_disksize",
                ],
            ),
            (
                V4_4,
                &[
                    "fdatasync_skips_falloc_beyond_eof",
                    "direct_write_skips_disksize",
                ],
            ),
            (
                V4_15,
                &[
                    "fdatasync_skips_falloc_beyond_eof",
                    "direct_write_skips_disksize",
                ],
            ),
            (V4_16, &[]),
            (Patched, &[]),
        ];
        for (era, ids) in pinned {
            assert_eq!(
                JournalBugs::for_era(era).enabled().collect::<Vec<_>>(),
                ids,
                "{era}"
            );
        }
        let unique: std::collections::HashSet<_> =
            JournalBugs::MUTANTS.iter().map(|m| m.id).collect();
        assert_eq!(unique.len(), JournalBugs::MUTANTS.len(), "ids are unique");
    }

    #[test]
    fn xfs_stand_in_is_patched() {
        let spec = JournalFsSpec::xfs_stand_in();
        assert_eq!(spec.name(), "xfs-sim");
        let fs = spec.mkfs(Box::new(RamDisk::new(1024))).unwrap();
        assert_eq!(fs.fs_name(), "journalfs");
    }
}
