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
//!
//! The tree operations, format, mount, commit, unmount and fork are the
//! shared tree-backed core's ([`TreeFs`]). This crate supplies [`Journal`],
//! JournalFs's [`Persistence`]: the commits behind `fsync`, `fdatasync`
//! and `msync`, and the commit a direct write makes.

use b3_block::BlockDevice;
use b3_vfs::diskfmt::SuperBlock;
use b3_vfs::error::FsResult;
use b3_vfs::fs::{FileSystem, FsSpec, WriteMode};
use b3_vfs::tree::MemTree;
use b3_vfs::treefs::{Persistence, SyncKind, TreeCore, TreeFs};
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

/// The ext4-like file system: the tree core with JournalFs's persistence.
pub type JournalFs = TreeFs<Journal>;

/// What JournalFs adds to the tree core. Recovery is just reading the last
/// committed tree (journal replay happens implicitly because every commit
/// writes a complete consistent image), and every persistence call commits.
#[derive(Debug, Clone, Copy)]
pub struct Journal {
    bugs: JournalBugs,
}

impl Persistence for Journal {
    type Bugs = JournalBugs;
    const NAME: &'static str = "journalfs";
    const MAGIC: u32 = JOURNALFS_MAGIC;
    const CORRUPT_TREE: &'static str = "corrupt file system image";

    fn recover(
        _dev: &dyn BlockDevice,
        _sb: &SuperBlock,
        _tree: &mut MemTree,
        bugs: JournalBugs,
    ) -> FsResult<Journal> {
        Ok(Journal { bugs })
    }

    fn persist(&mut self, core: &mut TreeCore, path: &str, kind: SyncKind) -> FsResult<()> {
        if kind == SyncKind::Fsync {
            // ext4 fsync commits the running transaction, persisting
            // everything that happened before it.
            return self.commit(core);
        }
        // `fdatasync` commits the working tree, except that the buggy path
        // drops allocation beyond EOF for the target file.
        let mut tree = core.working.clone();
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
        core.commit(tree)
    }

    fn after_write(
        &mut self,
        core: &mut TreeCore,
        path: &str,
        offset: u64,
        data: &[u8],
        mode: WriteMode,
    ) -> FsResult<()> {
        if mode != WriteMode::Direct {
            return Ok(());
        }
        // Direct IO reaches the device immediately: the data (and, on a
        // correct kernel, the on-disk size) become durable without an
        // explicit persistence call.
        let mut durable = core.committed.clone();
        if !durable.exists(path) {
            // The file itself was never committed; a direct write cannot
            // resurrect it, so there is nothing durable to update.
            return Ok(());
        }
        durable.write(path, offset, data)?;
        if self.bugs.direct_write_skips_disksize {
            if let (Ok(ino), Ok(committed_meta)) =
                (durable.resolve(path), core.committed.metadata(path))
            {
                if let Some(inode) = durable.inode_mut(ino) {
                    // Data and allocation reach the disk, but the size
                    // update is lost.
                    inode.data.truncate(committed_meta.size as usize);
                }
            }
        }
        core.commit(durable)
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

    fn mkfs(&self, device: Box<dyn BlockDevice>) -> FsResult<Box<dyn FileSystem>> {
        Ok(Box::new(JournalFs::mkfs(device, self.bugs)?))
    }

    fn mount(&self, device: Box<dyn BlockDevice>) -> FsResult<Box<dyn FileSystem>> {
        Ok(Box::new(JournalFs::mount(device, self.bugs)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b3_block::{CowSnapshotDevice, DiskImage, LogHandle, RecordingDevice};
    use b3_vfs::workload::FallocMode;

    /// A fresh file system on a recorder, whose handle gives the device as
    /// a crash would leave it.
    fn fresh(bugs: JournalBugs) -> (JournalFs, LogHandle) {
        let device = RecordingDevice::new(CowSnapshotDevice::new(DiskImage::empty(4096)));
        let log = device.log_handle();
        (JournalFs::mkfs(Box::new(device), bugs).unwrap(), log)
    }

    fn crash_and_remount(log: &LogHandle, bugs: JournalBugs) -> JournalFs {
        JournalFs::mount(Box::new(log.fork_device()), bugs).unwrap()
    }

    #[test]
    fn recovery_session_matches_remount_and_caches_the_committed_tree() {
        use b3_vfs::snapshot::LogicalSnapshot;
        fn crashed_device() -> Box<dyn BlockDevice> {
            let (mut fs, log) = fresh(JournalBugs::none());
            fs.mkdir("A").unwrap();
            fs.create("A/foo").unwrap();
            fs.write("A/foo", 0, b"payload", WriteMode::Buffered)
                .unwrap();
            fs.fsync("A/foo").unwrap();
            fs.create("A/volatile").unwrap();
            Box::new(log.fork_device()) // crash: no clean unmount
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
        let (mut fs, log) = fresh(JournalBugs::none());
        fs.mkdir("A").unwrap();
        fs.create("A/foo").unwrap();
        fs.write("A/foo", 0, &[7u8; 3000], WriteMode::Buffered)
            .unwrap();
        fs.fsync("A/foo").unwrap();
        fs.create("A/volatile").unwrap();
        let fs = crash_and_remount(&log, JournalBugs::none());
        assert_eq!(fs.metadata("A/foo").unwrap().size, 3000);
        assert!(!fs.exists("A/volatile"));
    }

    #[test]
    fn fdatasync_falloc_bug_loses_blocks() {
        // Known workload 2 on ext4.
        let run = |bugs: JournalBugs| -> u64 {
            let (mut fs, log) = fresh(bugs);
            fs.create("foo").unwrap();
            fs.write("foo", 0, &[1u8; 8192], WriteMode::Buffered)
                .unwrap();
            fs.fsync("foo").unwrap();
            fs.fallocate("foo", FallocMode::KeepSize, 8192, 8192)
                .unwrap();
            fs.fdatasync("foo").unwrap();
            let fs = crash_and_remount(&log, bugs);
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
            let (mut fs, log) = fresh(bugs);
            fs.create("foo").unwrap();
            fs.sync().unwrap();
            fs.write("foo", 16 * 1024, &[2u8; 4096], WriteMode::Buffered)
                .unwrap();
            fs.write("foo", 0, &[3u8; 4096], WriteMode::Direct).unwrap();
            let fs = crash_and_remount(&log, bugs);
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
        let (mut fs, log) = fresh(JournalBugs::none());
        fs.create("foo").unwrap();
        fs.write("foo", 0, &[1u8; 100], WriteMode::Direct).unwrap();
        let fs = crash_and_remount(&log, JournalBugs::none());
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
        let fs = spec
            .mkfs(Box::new(CowSnapshotDevice::new(DiskImage::empty(1024))))
            .unwrap();
        assert_eq!(fs.fs_name(), "journalfs");
    }
}
