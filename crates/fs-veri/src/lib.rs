//! VeriFs: a small synchronous file system standing in for FSCQ, the
//! verified file system in which CrashMonkey and ACE found a data-loss bug.
//!
//! FSCQ's core is proven crash-safe, but the artifact ships unverified glue —
//! the C–Haskell binding — and that is where the paper's bug 11 lives: an
//! optimization in the binding made `fdatasync` skip flushing appended data,
//! losing it on a crash despite the call succeeding. VeriFs mirrors this
//! split: the "verified" core persists the full tree on every persistence
//! call; the single injectable bug models the unverified optimization layer
//! short-circuiting `fdatasync` when it (wrongly) believes no metadata
//! changed.
//!
//! The tree operations, format, mount, commit, unmount and fork are the
//! shared tree-backed core's ([`TreeFs`]). This crate supplies [`Veri`],
//! VeriFs's [`Persistence`]: a commit on every persistence call, and the
//! buggy `fdatasync` that skips appended data.

use b3_block::BlockDevice;
use b3_vfs::diskfmt::SuperBlock;
use b3_vfs::error::FsResult;
use b3_vfs::fs::{FileSystem, FsSpec};
use b3_vfs::tree::MemTree;
use b3_vfs::treefs::{Persistence, SyncKind, TreeCore, TreeFs};
use b3_vfs::{mutant, KernelEra, Mutant, MutantSet};

/// VeriFs on-disk magic number.
pub const VERIFS_MAGIC: u32 = 0x4653_4351; // "FSCQ"

/// Which VeriFs bugs are active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VeriBugs {
    /// The unverified optimization layer makes `fdatasync` persist file
    /// contents only up to the previously persisted size, losing appended
    /// data. (New bug 11, acknowledged and patched by the FSCQ authors.)
    pub fdatasync_skips_appends: bool,
}

/// The FSCQ bug is in the 2018 artifact and unfixed until `Patched`; it does
/// not depend on the Linux kernel version, so every non-patched era has it.
impl MutantSet for VeriBugs {
    const MUTANTS: &'static [Mutant<Self>] = &[mutant!(fdatasync_skips_appends, V3_12..)];
}

/// The FSCQ-like file system: the tree core with VeriFs's persistence.
pub type VeriFs = TreeFs<Veri>;

/// What VeriFs adds to the tree core: the "verified" core commits the full
/// tree on every persistence call, and mount decodes the committed tree.
#[derive(Debug, Clone, Copy)]
pub struct Veri {
    bugs: VeriBugs,
}

impl Persistence for Veri {
    type Bugs = VeriBugs;
    const NAME: &'static str = "verifs";
    const MAGIC: u32 = VERIFS_MAGIC;
    const CORRUPT_TREE: &'static str = "corrupt image";

    fn recover(
        _dev: &dyn BlockDevice,
        _sb: &SuperBlock,
        _tree: &mut MemTree,
        bugs: VeriBugs,
    ) -> FsResult<Veri> {
        Ok(Veri { bugs })
    }

    fn persist(&mut self, core: &mut TreeCore, path: &str, kind: SyncKind) -> FsResult<()> {
        if kind == SyncKind::Fsync || !self.bugs.fdatasync_skips_appends {
            return self.commit(core);
        }
        // The unverified optimization: only data within the previously
        // persisted size is flushed; appended bytes (and the size change)
        // are lost.
        let mut tree = core.working.clone();
        if let (Ok(ino), Ok(committed_meta)) = (tree.resolve(path), core.committed.metadata(path)) {
            if let Some(inode) = tree.inode_mut(ino) {
                if inode.data.len() as u64 > committed_meta.size {
                    inode.data.truncate(committed_meta.size as usize);
                    inode.allocated = inode
                        .allocated
                        .min(committed_meta.size.div_ceil(4096) * 4096);
                }
            }
        }
        core.commit(tree)
    }
}

/// Factory for VeriFs instances.
#[derive(Debug, Clone, Copy)]
pub struct VeriFsSpec {
    bugs: VeriBugs,
}

impl VeriFsSpec {
    /// Spec for a kernel era.
    pub fn new(era: KernelEra) -> Self {
        VeriFsSpec {
            bugs: VeriBugs::for_era(era),
        }
    }

    /// Spec with an explicit bug set.
    pub fn with_bugs(bugs: VeriBugs) -> Self {
        VeriFsSpec { bugs }
    }

    /// Fully patched spec.
    pub fn patched() -> Self {
        VeriFsSpec {
            bugs: VeriBugs::none(),
        }
    }
}

impl FsSpec for VeriFsSpec {
    fn name(&self) -> &'static str {
        "verifs"
    }

    fn mkfs(&self, device: Box<dyn BlockDevice>) -> FsResult<Box<dyn FileSystem>> {
        Ok(Box::new(VeriFs::mkfs(device, self.bugs)?))
    }

    fn mount(&self, device: Box<dyn BlockDevice>) -> FsResult<Box<dyn FileSystem>> {
        Ok(Box::new(VeriFs::mount(device, self.bugs)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b3_block::{CowSnapshotDevice, DiskImage, LogHandle, RecordingDevice};
    use b3_vfs::fs::WriteMode;

    /// A fresh file system on a recorder, whose handle gives the device as
    /// a crash would leave it.
    fn fresh(bugs: VeriBugs) -> (VeriFs, LogHandle) {
        let device = RecordingDevice::new(CowSnapshotDevice::new(DiskImage::empty(2048)));
        let log = device.log_handle();
        (VeriFs::mkfs(Box::new(device), bugs).unwrap(), log)
    }

    fn crash_and_remount(log: &LogHandle, bugs: VeriBugs) -> VeriFs {
        VeriFs::mount(Box::new(log.fork_device()), bugs).unwrap()
    }

    #[test]
    fn recovery_session_matches_remount_and_caches_the_committed_tree() {
        use b3_vfs::snapshot::LogicalSnapshot;
        fn crashed_device() -> Box<dyn BlockDevice> {
            let (mut fs, log) = fresh(VeriBugs::none());
            fs.create("foo").unwrap();
            fs.write("foo", 0, b"payload", WriteMode::Buffered).unwrap();
            fs.fsync("foo").unwrap();
            fs.create("volatile").unwrap();
            Box::new(log.fork_device()) // crash: no clean unmount
        }
        let spec = VeriFsSpec::patched();
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
    fn persistence_calls_commit_everything() {
        let (mut fs, log) = fresh(VeriBugs::none());
        fs.create("foo").unwrap();
        fs.write("foo", 0, &[1u8; 4096], WriteMode::Buffered)
            .unwrap();
        fs.fsync("foo").unwrap();
        fs.create("volatile").unwrap();
        let fs = crash_and_remount(&log, VeriBugs::none());
        assert_eq!(fs.metadata("foo").unwrap().size, 4096);
        assert!(!fs.exists("volatile"));
    }

    #[test]
    fn fdatasync_append_bug_loses_data() {
        // New bug 11: write (0-4K); sync; write (4-8K); fdatasync; crash.
        let run = |bugs: VeriBugs| -> u64 {
            let (mut fs, log) = fresh(bugs);
            fs.create("foo").unwrap();
            fs.write("foo", 0, &[1u8; 4096], WriteMode::Buffered)
                .unwrap();
            fs.sync().unwrap();
            fs.write("foo", 4096, &[2u8; 4096], WriteMode::Buffered)
                .unwrap();
            fs.fdatasync("foo").unwrap();
            let fs = crash_and_remount(&log, bugs);
            fs.metadata("foo").unwrap().size
        };
        assert_eq!(run(VeriBugs::none()), 8192);
        assert_eq!(run(VeriBugs::all()), 4096);
    }

    #[test]
    fn fdatasync_of_overwrite_is_not_affected_by_the_bug() {
        let (mut fs, log) = fresh(VeriBugs::all());
        fs.create("foo").unwrap();
        fs.write("foo", 0, &[1u8; 4096], WriteMode::Buffered)
            .unwrap();
        fs.sync().unwrap();
        fs.write("foo", 0, &[9u8; 2048], WriteMode::Buffered)
            .unwrap();
        fs.fdatasync("foo").unwrap();
        let fs = crash_and_remount(&log, VeriBugs::all());
        assert_eq!(fs.read("foo", 0, 4).unwrap(), vec![9u8; 4]);
        assert_eq!(fs.metadata("foo").unwrap().size, 4096);
    }

    #[test]
    fn era_table() {
        assert_eq!(VeriBugs::for_era(KernelEra::Patched), VeriBugs::none());
        assert!(VeriBugs::for_era(KernelEra::V4_16).fdatasync_skips_appends);
    }

    /// The enabled ids of every era, as literals: a table edit that moves
    /// a window shows here.
    #[test]
    fn era_sets_are_pinned() {
        use KernelEra::*;
        let pinned: [(KernelEra, &[&str]); 8] = [
            (V3_12, &["fdatasync_skips_appends"]),
            (V3_13, &["fdatasync_skips_appends"]),
            (V3_16, &["fdatasync_skips_appends"]),
            (V4_1_1, &["fdatasync_skips_appends"]),
            (V4_4, &["fdatasync_skips_appends"]),
            (V4_15, &["fdatasync_skips_appends"]),
            (V4_16, &["fdatasync_skips_appends"]),
            (Patched, &[]),
        ];
        for (era, ids) in pinned {
            assert_eq!(
                VeriBugs::for_era(era).enabled().collect::<Vec<_>>(),
                ids,
                "{era}"
            );
        }
        let unique: std::collections::HashSet<_> = VeriBugs::MUTANTS.iter().map(|m| m.id).collect();
        assert_eq!(unique.len(), VeriBugs::MUTANTS.len(), "ids are unique");
    }
}
