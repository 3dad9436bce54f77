//! FlashFs: an F2FS-like log-structured file system with checkpoint plus
//! roll-forward fsync recovery, and injectable crash-consistency bugs.
//!
//! F2FS persists a full *checkpoint* on `sync()` and recovers fsynced files
//! through *roll-forward recovery*: each `fsync` appends a node-log record
//! describing the fsynced inode and the directory entry needed to reach it;
//! on recovery, the last checkpoint is loaded and the node log is rolled
//! forward. FlashFs mirrors that structure: the checkpoint is a serialized
//! [`MemTree`], the node log is a list of [`FsyncRecord`]s, and the two F2FS
//! bugs found by the paper (Table 5, bugs 9 and 10) plus the two known F2FS
//! bugs it reproduces live in the record/roll-forward code, exactly where
//! they lived in the kernel.
//!
//! The tree operations, format, mount, commit, unmount and fork are the
//! shared tree-backed core's ([`TreeFs`]); the core's committed tree is the
//! checkpoint. This crate supplies [`Flash`], FlashFs's [`Persistence`]:
//! node-log records on `fsync`/`fdatasync`/`msync` (a checkpoint on a
//! directory fsync), roll-forward as recovery, the checkpoint that ends
//! every mount, and the zero-range tracking one of its bugs reads.

use std::collections::HashMap;

use b3_block::BlockDevice;
use b3_vfs::codec::{Decoder, Encoder};
use b3_vfs::diskfmt::{read_blob, SuperBlock};
use b3_vfs::error::{FsError, FsResult};
use b3_vfs::fs::{FileSystem, FsSpec};
use b3_vfs::path::split_parent;
use b3_vfs::recover::RecoverDelta;
use b3_vfs::tree::{decode_inode, encode_inode, Inode, InodeId, MemTree};
use b3_vfs::treefs::{Persistence, SyncKind, TreeCore, TreeFs, ViewSession};
use b3_vfs::workload::FallocMode;
use b3_vfs::{mutant, KernelEra, Mutant, MutantSet};

/// FlashFs on-disk magic number.
pub const FLASHFS_MAGIC: u32 = 0x4632_4653; // "F2FS"

/// Which FlashFs crash-consistency bugs are active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlashBugs {
    /// `fallocate(ZERO_RANGE | KEEP_SIZE)` beyond EOF followed by fsync makes
    /// the file recover to the *allocated* size instead of its logical size.
    /// (New bug 9, the ZERO_RANGE variant of the previously patched
    /// KEEP_SIZE bug.)
    pub zero_range_keep_size_wrong_size: bool,
    /// A file fsynced inside a directory that was renamed in the same
    /// transaction is recovered under the directory's *old* name.
    /// (New bug 10, `fsync_mode=strict` not enforced for renamed dirs.)
    pub renamed_dir_recovers_old_name: bool,
    /// Roll-forward recovery of a file created at a name that previously
    /// belonged to a renamed-away file loses the renamed file entirely.
    /// (Known bug: workload 1 / Table 2 bug #4, "persisted file disappears".
    /// The lost file is left orphaned, which the AutoChecker cannot see, so
    /// no corpus workload exposes it.)
    pub roll_forward_loses_renamed_file: bool,
    /// `fdatasync` after `fallocate(KEEP_SIZE)` beyond EOF does not persist
    /// the extra allocation; the blocks disappear after a crash.
    /// (Known bug: workload 2, shared with ext4.)
    pub fdatasync_skips_falloc_beyond_eof: bool,
}

/// The known bugs were fixed before the paper's evaluation kernel (4.16);
/// the two new bugs are present from the release that introduced them up
/// to and including 4.16 (F2FS was merged in 3.8, so all studied eras have
/// it).
impl MutantSet for FlashBugs {
    const MUTANTS: &'static [Mutant<Self>] = &[
        mutant!(zero_range_keep_size_wrong_size, V4_1_1..),
        mutant!(renamed_dir_recovers_old_name, V4_4..),
        mutant!(roll_forward_loses_renamed_file, V3_12..V4_15),
        mutant!(fdatasync_skips_falloc_beyond_eof, V3_12..V4_15),
    ];
}

/// One roll-forward record: the fsynced inode plus the directory entries
/// (as full paths) required to reach it after recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsyncRecord {
    /// The fsynced inode, including data.
    pub inode: Inode,
    /// Paths (names) under which the inode must be reachable.
    pub paths: Vec<String>,
    /// Parent directory inode numbers corresponding to `paths`, used by the
    /// buggy roll-forward path that attaches entries by inode number rather
    /// than by (possibly renamed) path.
    pub parent_inos: Vec<InodeId>,
}

const NODELOG_MAGIC: u32 = 0x4e4f_4445; // "NODE"

fn encode_records(records: &[FsyncRecord]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u32(NODELOG_MAGIC);
    enc.put_u64(records.len() as u64);
    for record in records {
        encode_inode(&mut enc, &record.inode);
        enc.put_u64(record.paths.len() as u64);
        for (path, parent) in record.paths.iter().zip(&record.parent_inos) {
            enc.put_str(path);
            enc.put_u64(*parent);
        }
    }
    enc.finish()
}

fn decode_records(bytes: &[u8]) -> FsResult<Vec<FsyncRecord>> {
    let mut dec = Decoder::new(bytes);
    if dec.get_u32()? != NODELOG_MAGIC {
        return Err(FsError::Unmountable("bad node log magic".into()));
    }
    let count = dec.get_u64()?;
    let mut records = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let inode = decode_inode(&mut dec)?;
        let num_paths = dec.get_u64()?;
        let mut paths = Vec::with_capacity(num_paths as usize);
        let mut parent_inos = Vec::with_capacity(num_paths as usize);
        for _ in 0..num_paths {
            paths.push(dec.get_str()?);
            parent_inos.push(dec.get_u64()?);
        }
        records.push(FsyncRecord {
            inode,
            paths,
            parent_inos,
        });
    }
    Ok(records)
}

/// The F2FS-like file system: the tree core with FlashFs's persistence.
/// The core's committed tree is the last checkpoint.
pub type FlashFs = TreeFs<Flash>;

/// What FlashFs adds to the tree core: the node log and its bugs.
#[derive(Debug, Clone)]
pub struct Flash {
    bugs: FlashBugs,
    records: Vec<FsyncRecord>,
    /// Inodes that received a `ZERO_RANGE|KEEP_SIZE` fallocate since the
    /// last checkpoint, with the end offset of the zeroed range.
    zero_range_keep: HashMap<InodeId, u64>,
}

impl Persistence for Flash {
    type Bugs = FlashBugs;
    const NAME: &'static str = "flashfs";
    const MAGIC: u32 = FLASHFS_MAGIC;
    const CORRUPT_TREE: &'static str = "corrupt checkpoint";

    /// Rolls the node log forward onto the checkpoint.
    fn recover(
        dev: &dyn BlockDevice,
        sb: &SuperBlock,
        tree: &mut MemTree,
        bugs: FlashBugs,
    ) -> FsResult<Flash> {
        if sb.log.is_present() {
            let records = decode_records(&read_blob(dev, sb.log)?)?;
            *tree = roll_forward(tree, &records, &bugs)?;
        }
        Ok(Flash {
            bugs,
            records: Vec::new(),
            zero_range_keep: HashMap::new(),
        })
    }

    /// A mount always ends by writing a fresh checkpoint.
    fn writes_back(_sb: &SuperBlock) -> bool {
        true
    }

    /// Appends a node-log record for `path`; `msync` is an `fdatasync`.
    fn persist(&mut self, core: &mut TreeCore, path: &str, kind: SyncKind) -> FsResult<()> {
        let ino = core.working.resolve(path)?;
        let working_inode = core
            .working
            .inode(ino)
            .ok_or_else(|| FsError::Corrupted(format!("missing inode for {path}")))?;
        if working_inode.is_dir() {
            // F2FS directory fsync forces a checkpoint (it has no directory
            // roll-forward), which is also why the paper found no F2FS bugs
            // involving directory fsync alone.
            return self.commit(core);
        }

        let mut logged = working_inode.clone();
        logged.entries.clear();

        if self.bugs.zero_range_keep_size_wrong_size {
            if let Some(&end) = self.zero_range_keep.get(&ino) {
                if end > logged.data.len() as u64 {
                    // The recovered inode claims the zeroed range as part of
                    // its size.
                    logged.data.resize(end as usize, 0);
                }
            }
        }
        if kind != SyncKind::Fsync && self.bugs.fdatasync_skips_falloc_beyond_eof {
            let covered = (logged.data.len() as u64).div_ceil(4096) * 4096;
            if logged.allocated > covered {
                logged.allocated = covered;
            }
        }

        let working = &core.working;
        let parents_of = |paths: &[String]| -> Vec<InodeId> {
            paths
                .iter()
                .map(|p| {
                    split_parent(p)
                        .and_then(|(parent, _)| working.resolve(parent))
                        .unwrap_or(b3_vfs::ROOT_INO)
                })
                .collect()
        };
        let paths = working.paths_of_ino(ino);
        let parent_inos = parents_of(&paths);

        // Correct roll-forward recovery also persists the new location of a
        // file whose old name this inode is reusing (the rename+recreate
        // pattern of known workload 1); the buggy kernel skipped it.
        if !self.bugs.roll_forward_loses_renamed_file {
            for path in &paths {
                if let Ok(prev_ino) = core.committed.resolve(path) {
                    if prev_ino != ino {
                        if let Some(prev) = working.inode(prev_ino) {
                            let mut prev_logged = prev.clone();
                            prev_logged.entries.clear();
                            let prev_paths = working.paths_of_ino(prev_ino);
                            self.records.push(FsyncRecord {
                                inode: prev_logged,
                                parent_inos: parents_of(&prev_paths),
                                paths: prev_paths,
                            });
                        }
                    }
                }
            }
        }

        self.records.push(FsyncRecord {
            inode: logged,
            paths,
            parent_inos,
        });
        core.write_log(encode_records(&self.records).into())
    }

    fn after_fallocate(
        &mut self,
        core: &TreeCore,
        path: &str,
        mode: FallocMode,
        offset: u64,
        len: u64,
    ) {
        if mode == FallocMode::ZeroRangeKeepSize {
            if let Ok(ino) = core.working.resolve(path) {
                let end = offset + len;
                let entry = self.zero_range_keep.entry(ino).or_insert(0);
                *entry = (*entry).max(end);
            }
        }
    }

    fn on_commit(&mut self) {
        self.records.clear();
        self.zero_range_keep.clear();
    }
}

/// Roll-forward recovery: load the checkpoint and re-apply each fsync record.
fn roll_forward(
    checkpoint: &MemTree,
    records: &[FsyncRecord],
    bugs: &FlashBugs,
) -> FsResult<MemTree> {
    let mut tree = checkpoint.clone();
    // Recovered directories must never be allocated inode numbers that the
    // node log is about to replay, or a later record would overwrite them.
    let max_recorded_ino = records.iter().map(|r| r.inode.ino).max().unwrap_or(0);
    if max_recorded_ino >= tree.next_ino() {
        tree.set_next_ino(max_recorded_ino + 1);
    }
    for record in records {
        tree.insert_inode_raw(record.inode.clone());
        for (path, parent_ino) in record.paths.iter().zip(&record.parent_inos) {
            let Ok((parent_path, name)) = split_parent(path) else {
                continue;
            };
            let dir_ino = if bugs.renamed_dir_recovers_old_name {
                // Buggy path: attach by the recorded parent inode number,
                // wherever that directory currently lives in the checkpoint.
                if tree.inode(*parent_ino).is_some_and(Inode::is_dir) {
                    *parent_ino
                } else {
                    ensure_dirs(&mut tree, parent_path)?
                }
            } else {
                // Correct path: recover the directory under the path the
                // fsync observed, creating (or effectively renaming) the
                // ancestor chain as needed.
                ensure_dirs_for_ino(&mut tree, parent_path, *parent_ino)?
            };
            let dir = tree
                .inode_mut(dir_ino)
                .ok_or_else(|| FsError::Unmountable("roll-forward lost a directory".into()))?;
            match dir.entries.get(name) {
                Some(existing) if *existing == record.inode.ino => {}
                Some(_) => {
                    // Re-pointing an existing name does not change the
                    // directory's size bookkeeping.
                    dir.entries.insert(name.into(), record.inode.ino);
                }
                None => {
                    dir.entries.insert(name.into(), record.inode.ino);
                    dir.dir_size += b3_vfs::tree::DIRENT_SIZE;
                }
            }
        }
    }
    Ok(tree)
}

/// Ensures every directory along `path` exists, creating missing ones.
fn ensure_dirs(tree: &mut MemTree, path: &str) -> FsResult<InodeId> {
    let path = b3_vfs::path::normalize(path);
    let mut current = b3_vfs::ROOT_INO;
    for dir in b3_vfs::path::prefixes(&path) {
        current = match tree.resolve(dir) {
            Ok(ino) => ino,
            Err(_) => tree.mkdir(dir)?,
        };
    }
    Ok(current)
}

/// Ensures the directory `path` exists and refers to `ino` when possible:
/// if the checkpoint knows the inode under a different name, the entry is
/// moved (this is the "recover the rename" half of strict fsync mode).
fn ensure_dirs_for_ino(tree: &mut MemTree, path: &str, ino: InodeId) -> FsResult<InodeId> {
    if tree.inode(ino).is_some_and(Inode::is_dir) {
        let existing_paths = tree.paths_of_ino(ino);
        if let Some(old_path) = existing_paths.first() {
            if *old_path != b3_vfs::path::normalize(path) && !old_path.is_empty() {
                // The directory was renamed before the fsync: recover the
                // rename so the fsynced file appears under the new name.
                let _ = tree.rename(old_path, path);
            }
        }
        if let Ok(resolved) = tree.resolve(path) {
            return Ok(resolved);
        }
    }
    ensure_dirs(tree, path)
}

/// Factory for FlashFs instances.
#[derive(Debug, Clone, Copy)]
pub struct FlashFsSpec {
    bugs: FlashBugs,
}

impl FlashFsSpec {
    /// Spec with the bugs of a kernel era.
    pub fn new(era: KernelEra) -> Self {
        FlashFsSpec {
            bugs: FlashBugs::for_era(era),
        }
    }

    /// Spec with an explicit bug set.
    pub fn with_bugs(bugs: FlashBugs) -> Self {
        FlashFsSpec { bugs }
    }

    /// Fully patched spec.
    pub fn patched() -> Self {
        FlashFsSpec {
            bugs: FlashBugs::none(),
        }
    }
}

impl FsSpec for FlashFsSpec {
    fn name(&self) -> &'static str {
        "flashfs"
    }

    fn mkfs(&self, device: Box<dyn BlockDevice>) -> FsResult<Box<dyn FileSystem>> {
        Ok(Box::new(FlashFs::mkfs(device, self.bugs)?))
    }

    fn mount(&self, device: Box<dyn BlockDevice>) -> FsResult<Box<dyn FileSystem>> {
        Ok(Box::new(FlashFs::mount(device, self.bugs)?))
    }

    /// A mount without its checkpoint write-back, which only re-serializes
    /// the rolled-forward state.
    fn recovery_session(&self) -> Box<dyn RecoverDelta + Send> {
        Box::new(ViewSession::<Flash>(self.bugs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b3_block::{CowSnapshotDevice, DiskImage, LogHandle, RecordingDevice};
    use b3_vfs::fs::WriteMode;

    /// A fresh file system on a recorder, whose handle gives the device as
    /// a crash would leave it.
    fn fresh(bugs: FlashBugs) -> (FlashFs, LogHandle) {
        let device = RecordingDevice::new(CowSnapshotDevice::new(DiskImage::empty(4096)));
        let log = device.log_handle();
        (FlashFs::mkfs(Box::new(device), bugs).unwrap(), log)
    }

    fn crash_and_remount(log: &LogHandle, bugs: FlashBugs) -> FlashFs {
        FlashFs::mount(Box::new(log.fork_device()), bugs).unwrap()
    }

    fn crashed_device() -> Box<dyn BlockDevice> {
        let (mut fs, log) = fresh(FlashBugs::none());
        fs.mkdir("A").unwrap();
        fs.create("A/foo").unwrap();
        fs.write("A/foo", 0, b"payload", WriteMode::Buffered)
            .unwrap();
        fs.fsync("A/foo").unwrap();
        fs.create("A/volatile").unwrap();
        Box::new(log.fork_device()) // crash: no clean unmount, roll-forward pending
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
    fn recovery_session_matches_remount_and_caches_the_checkpoint() {
        use b3_vfs::snapshot::LogicalSnapshot;
        let spec = FlashFsSpec::patched();
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
    fn recover_writes_nothing_to_the_crash_state_and_mount_checkpoints() {
        let crashed = crashed_device().freeze_image();
        let spec = FlashFsSpec::patched();
        let mut session = spec.recovery_session();
        let recovered = image_after(&crashed, |dev| session.recover(&spec, dev, None));
        assert!(recovered == crashed, "recover wrote to the crash state");
        let mounted = image_after(&crashed, |dev| spec.mount(dev));
        assert!(mounted != crashed, "mount writes a fresh checkpoint");
    }

    #[test]
    fn checkpoint_persists_and_volatile_state_is_lost() {
        let (mut fs, log) = fresh(FlashBugs::none());
        fs.mkdir("A").unwrap();
        fs.create("A/foo").unwrap();
        fs.sync().unwrap();
        fs.create("A/volatile").unwrap();
        let fs = crash_and_remount(&log, FlashBugs::none());
        assert!(fs.exists("A/foo"));
        assert!(!fs.exists("A/volatile"));
    }

    #[test]
    fn roll_forward_recovers_fsynced_file() {
        let (mut fs, log) = fresh(FlashBugs::none());
        fs.mkdir("A").unwrap();
        fs.sync().unwrap();
        fs.create("A/foo").unwrap();
        fs.write("A/foo", 0, &[5u8; 6000], WriteMode::Buffered)
            .unwrap();
        fs.fsync("A/foo").unwrap();
        fs.create("A/other").unwrap();
        let fs = crash_and_remount(&log, FlashBugs::none());
        assert_eq!(fs.metadata("A/foo").unwrap().size, 6000);
        assert!(!fs.exists("A/other"));
    }

    #[test]
    fn zero_range_keep_size_bug_recovers_wrong_size() {
        // New bug 9: write 16K; fsync; fzero -k (16-20K); fsync; crash.
        let run = |bugs: FlashBugs| -> u64 {
            let (mut fs, log) = fresh(bugs);
            fs.create("foo").unwrap();
            fs.write("foo", 0, &[1u8; 16 * 1024], WriteMode::Buffered)
                .unwrap();
            fs.fsync("foo").unwrap();
            fs.fallocate("foo", FallocMode::ZeroRangeKeepSize, 16 * 1024, 4096)
                .unwrap();
            fs.fsync("foo").unwrap();
            let fs = crash_and_remount(&log, bugs);
            fs.metadata("foo").unwrap().size
        };
        assert_eq!(run(FlashBugs::none()), 16 * 1024);
        assert_eq!(
            run(FlashBugs {
                zero_range_keep_size_wrong_size: true,
                ..FlashBugs::none()
            }),
            20 * 1024
        );
    }

    #[test]
    fn renamed_dir_bug_recovers_file_under_old_name() {
        // New bug 10: mkdir A; sync; rename A B; touch B/foo; fsync B/foo.
        let run = |bugs: FlashBugs| -> (bool, bool) {
            let (mut fs, log) = fresh(bugs);
            fs.mkdir("A").unwrap();
            fs.sync().unwrap();
            fs.rename("A", "B").unwrap();
            fs.create("B/foo").unwrap();
            fs.fsync("B/foo").unwrap();
            let fs = crash_and_remount(&log, bugs);
            (fs.exists("B/foo"), fs.exists("A/foo"))
        };
        assert_eq!(run(FlashBugs::none()), (true, false));
        assert_eq!(
            run(FlashBugs {
                renamed_dir_recovers_old_name: true,
                ..FlashBugs::none()
            }),
            (false, true)
        );
    }

    #[test]
    fn rename_and_recreate_bug_loses_old_file() {
        // Known workload 1 (F2FS flavour): write A/foo 16K; sync; rename to
        // A/bar; create new A/foo 4K; fsync A/foo.
        let run = |bugs: FlashBugs| -> (bool, u64) {
            let (mut fs, log) = fresh(bugs);
            fs.mkdir("A").unwrap();
            fs.create("A/foo").unwrap();
            fs.write("A/foo", 0, &[2u8; 16 * 1024], WriteMode::Buffered)
                .unwrap();
            fs.sync().unwrap();
            fs.rename("A/foo", "A/bar").unwrap();
            fs.create("A/foo").unwrap();
            fs.write("A/foo", 0, &[3u8; 4096], WriteMode::Buffered)
                .unwrap();
            fs.fsync("A/foo").unwrap();
            let fs = crash_and_remount(&log, bugs);
            let bar = fs.exists("A/bar");
            let foo_size = fs.metadata("A/foo").unwrap().size;
            (bar, foo_size)
        };
        assert_eq!(run(FlashBugs::none()), (true, 4096));
        assert_eq!(
            run(FlashBugs {
                roll_forward_loses_renamed_file: true,
                ..FlashBugs::none()
            }),
            (false, 4096)
        );
    }

    #[test]
    fn fdatasync_falloc_bug_loses_blocks() {
        // Known workload 2: write 8K; fsync; falloc -k (8-16K); fdatasync.
        let run = |bugs: FlashBugs| -> u64 {
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
        assert_eq!(run(FlashBugs::none()), 32);
        assert_eq!(
            run(FlashBugs {
                fdatasync_skips_falloc_beyond_eof: true,
                ..FlashBugs::none()
            }),
            16
        );
    }

    #[test]
    fn era_table_matches_paper() {
        let eval = FlashBugs::for_era(KernelEra::V4_16);
        assert!(eval.zero_range_keep_size_wrong_size);
        assert!(eval.renamed_dir_recovers_old_name);
        assert!(!eval.roll_forward_loses_renamed_file);
        assert!(!eval.fdatasync_skips_falloc_beyond_eof);
        assert_eq!(FlashBugs::for_era(KernelEra::Patched), FlashBugs::none());
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
                    "roll_forward_loses_renamed_file",
                    "fdatasync_skips_falloc_beyond_eof",
                ],
            ),
            (
                V3_13,
                &[
                    "roll_forward_loses_renamed_file",
                    "fdatasync_skips_falloc_beyond_eof",
                ],
            ),
            (
                V3_16,
                &[
                    "roll_forward_loses_renamed_file",
                    "fdatasync_skips_falloc_beyond_eof",
                ],
            ),
            (
                V4_1_1,
                &[
                    "zero_range_keep_size_wrong_size",
                    "roll_forward_loses_renamed_file",
                    "fdatasync_skips_falloc_beyond_eof",
                ],
            ),
            (
                V4_4,
                &[
                    "zero_range_keep_size_wrong_size",
                    "renamed_dir_recovers_old_name",
                    "roll_forward_loses_renamed_file",
                    "fdatasync_skips_falloc_beyond_eof",
                ],
            ),
            (
                V4_15,
                &[
                    "zero_range_keep_size_wrong_size",
                    "renamed_dir_recovers_old_name",
                ],
            ),
            (
                V4_16,
                &[
                    "zero_range_keep_size_wrong_size",
                    "renamed_dir_recovers_old_name",
                ],
            ),
            (Patched, &[]),
        ];
        for (era, ids) in pinned {
            assert_eq!(
                FlashBugs::for_era(era).enabled().collect::<Vec<_>>(),
                ids,
                "{era}"
            );
        }
        let unique: std::collections::HashSet<_> =
            FlashBugs::MUTANTS.iter().map(|m| m.id).collect();
        assert_eq!(unique.len(), FlashBugs::MUTANTS.len(), "ids are unique");
    }

    #[test]
    fn directory_fsync_forces_checkpoint() {
        let (mut fs, log) = fresh(FlashBugs::all());
        fs.mkdir("A").unwrap();
        fs.create("A/foo").unwrap();
        fs.fsync("A").unwrap();
        let fs = crash_and_remount(&log, FlashBugs::all());
        assert!(fs.exists("A/foo"));
    }
}
