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

use b3_block::{BlockDevice, IoFlags};
use b3_vfs::diskfmt::{read_blob, write_blob, SuperBlock};
use b3_vfs::error::{FsError, FsResult};
use b3_vfs::fs::{FileSystem, FsSpec, GuaranteeProfile, WriteMode};
use b3_vfs::metadata::Metadata;
use b3_vfs::tree::MemTree;
use b3_vfs::workload::FallocMode;
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

/// The FSCQ-like file system.
pub struct VeriFs {
    dev: Box<dyn BlockDevice>,
    sb: SuperBlock,
    bugs: VeriBugs,
    working: MemTree,
    committed: MemTree,
}

impl VeriFs {
    /// Formats and mounts a fresh VeriFs.
    pub fn mkfs(mut dev: Box<dyn BlockDevice>, era: KernelEra) -> FsResult<VeriFs> {
        Self::format(&mut dev)?;
        Self::mount_with_bugs(dev, VeriBugs::for_era(era))
    }

    fn format(dev: &mut Box<dyn BlockDevice>) -> FsResult<()> {
        let tree = MemTree::new();
        let mut sb = SuperBlock::new(VERIFS_MAGIC);
        sb.tree = write_blob(dev.as_mut(), &mut sb, &tree.encode(), IoFlags::META)?;
        sb.write_to(dev.as_mut())
    }

    /// Mounts an existing image with an explicit bug set.
    pub fn mount_with_bugs(dev: Box<dyn BlockDevice>, bugs: VeriBugs) -> FsResult<VeriFs> {
        let sb = SuperBlock::read_from(dev.as_ref(), VERIFS_MAGIC)?;
        let committed = MemTree::decode(&read_blob(dev.as_ref(), sb.tree)?)
            .map_err(|e| FsError::Unmountable(format!("corrupt image: {e}")))?;
        Ok(VeriFs {
            dev,
            sb,
            bugs,
            working: committed.clone(),
            committed,
        })
    }

    /// Mounts with the bugs of a kernel era.
    pub fn mount(dev: Box<dyn BlockDevice>, era: KernelEra) -> FsResult<VeriFs> {
        Self::mount_with_bugs(dev, VeriBugs::for_era(era))
    }

    fn commit_tree(&mut self, tree: &MemTree) -> FsResult<()> {
        let bytes = tree.encode();
        self.sb.tree = write_blob(self.dev.as_mut(), &mut self.sb, &bytes, IoFlags::META)?;
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
}

impl FileSystem for VeriFs {
    fn fs_name(&self) -> &'static str {
        "verifs"
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

    fn write(&mut self, path: &str, offset: u64, data: &[u8], _mode: WriteMode) -> FsResult<()> {
        self.working.write(path, offset, data)
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
        self.commit_working()
    }

    fn fdatasync(&mut self, path: &str) -> FsResult<()> {
        if self.bugs.fdatasync_skips_appends {
            // The unverified optimization: only data within the previously
            // persisted size is flushed; appended bytes (and the size
            // change) are lost.
            let mut tree = self.working.clone();
            if let (Ok(ino), Ok(committed_meta)) =
                (tree.resolve(path), self.committed.metadata(path))
            {
                if let Some(inode) = tree.inode_mut(ino) {
                    if inode.data.len() as u64 > committed_meta.size {
                        inode.data.truncate(committed_meta.size as usize);
                        inode.allocated = inode
                            .allocated
                            .min(committed_meta.size.div_ceil(4096) * 4096);
                    }
                }
            }
            return self.commit_tree(&tree);
        }
        self.commit_working()
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
        Box::new(VeriFs {
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

    fn mkfs(&self, mut device: Box<dyn BlockDevice>) -> FsResult<Box<dyn FileSystem>> {
        VeriFs::format(&mut device)?;
        Ok(Box::new(VeriFs::mount_with_bugs(device, self.bugs)?))
    }

    fn mount(&self, device: Box<dyn BlockDevice>) -> FsResult<Box<dyn FileSystem>> {
        Ok(Box::new(VeriFs::mount_with_bugs(device, self.bugs)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b3_block::RamDisk;

    fn fresh(bugs: VeriBugs) -> VeriFs {
        let mut dev: Box<dyn BlockDevice> = Box::new(RamDisk::new(2048));
        VeriFs::format(&mut dev).unwrap();
        VeriFs::mount_with_bugs(dev, bugs).unwrap()
    }

    fn crash_and_remount(fs: VeriFs, bugs: VeriBugs) -> VeriFs {
        VeriFs::mount_with_bugs(fs.dev, bugs).unwrap()
    }

    #[test]
    fn recovery_session_matches_remount_and_caches_the_committed_tree() {
        use b3_vfs::snapshot::LogicalSnapshot;
        fn crashed_device() -> Box<dyn BlockDevice> {
            let mut fs = fresh(VeriBugs::none());
            fs.create("foo").unwrap();
            fs.write("foo", 0, b"payload", WriteMode::Buffered).unwrap();
            fs.fsync("foo").unwrap();
            fs.create("volatile").unwrap();
            fs.dev // crash: no clean unmount
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
        let mut fs = fresh(VeriBugs::none());
        fs.create("foo").unwrap();
        fs.write("foo", 0, &[1u8; 4096], WriteMode::Buffered)
            .unwrap();
        fs.fsync("foo").unwrap();
        fs.create("volatile").unwrap();
        let fs = crash_and_remount(fs, VeriBugs::none());
        assert_eq!(fs.metadata("foo").unwrap().size, 4096);
        assert!(!fs.exists("volatile"));
    }

    #[test]
    fn fdatasync_append_bug_loses_data() {
        // New bug 11: write (0-4K); sync; write (4-8K); fdatasync; crash.
        let run = |bugs: VeriBugs| -> u64 {
            let mut fs = fresh(bugs);
            fs.create("foo").unwrap();
            fs.write("foo", 0, &[1u8; 4096], WriteMode::Buffered)
                .unwrap();
            fs.sync().unwrap();
            fs.write("foo", 4096, &[2u8; 4096], WriteMode::Buffered)
                .unwrap();
            fs.fdatasync("foo").unwrap();
            let fs = crash_and_remount(fs, bugs);
            fs.metadata("foo").unwrap().size
        };
        assert_eq!(run(VeriBugs::none()), 8192);
        assert_eq!(run(VeriBugs::all()), 4096);
    }

    #[test]
    fn fdatasync_of_overwrite_is_not_affected_by_the_bug() {
        let mut fs = fresh(VeriBugs::all());
        fs.create("foo").unwrap();
        fs.write("foo", 0, &[1u8; 4096], WriteMode::Buffered)
            .unwrap();
        fs.sync().unwrap();
        fs.write("foo", 0, &[9u8; 2048], WriteMode::Buffered)
            .unwrap();
        fs.fdatasync("foo").unwrap();
        let fs = crash_and_remount(fs, VeriBugs::all());
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
