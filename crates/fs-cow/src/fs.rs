//! The CowFs `FileSystem` implementation and its `FsSpec` factory.

use std::collections::HashMap;
use std::sync::Arc;

use b3_block::{BlockDevice, IoFlags, StateDelta};
use b3_vfs::diskfmt::{read_blob, write_blob, SuperBlock};
use b3_vfs::error::{FsError, FsResult};
use b3_vfs::fs::{FileSystem, FsSpec, GuaranteeProfile, WriteMode};
use b3_vfs::metadata::Metadata;
use b3_vfs::recover::{CommittedTreeCache, RecoverDelta};
use b3_vfs::tree::{InodeId, MemTree};
use b3_vfs::workload::FallocMode;
use b3_vfs::KernelEra;

use crate::bugs::CowBugs;
use crate::log::{
    replay, replay_from, LogItem, LogTree, Recorder, RecorderState, SyncKind, LOG_HEADER_LEN,
};

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
    /// no operation since the commit touched (as a recovered view's trees
    /// do with the recovery session's caches), so holding it copies nothing.
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
        let sb = SuperBlock::read_from(dev.as_ref(), COWFS_MAGIC)?;
        let tree_bytes = read_blob(dev.as_ref(), sb.tree)?;
        if tree_bytes.is_empty() {
            return Err(FsError::Unmountable("missing committed tree".into()));
        }
        let committed = MemTree::decode(&tree_bytes)
            .map_err(|e| FsError::Unmountable(format!("corrupt committed tree: {e}")))?;

        let needs_recovery = sb.log.is_present() || sb.dirty;
        let working = if sb.log.is_present() {
            let log_bytes = read_blob(dev.as_ref(), sb.log)?;
            let log = LogTree::decode(&log_bytes)?;
            replay(&committed, &log, &bugs)?
        } else {
            committed
        };

        let mut fs = CowFs {
            dev,
            sb,
            bugs,
            committed: working.clone(),
            working,
            log: LogTree::new(),
            recorder_state: RecorderState::default(),
        };
        if needs_recovery {
            // Recovery completes by committing the replayed state, exactly
            // like btrfs committing the transaction created during log
            // replay. A clean image needs no such write-back — mounting it
            // is read-only, so its committed tree blob stays byte-identical
            // to the formatted image's (which is what lets delta-based
            // recovery treat the shared base image as crash state zero).
            fs.commit()?;
        }
        Ok(fs)
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

/// Incremental recovery session for CowFs (see
/// [`b3_vfs::recover::RecoverDelta`]).
///
/// A CowFs mount is: decode the committed tree blob, replay the log tree
/// onto it, then commit the replayed state. The decode dominates, and the
/// committed tree rarely changes between adjacent crash states (it only
/// moves on a full commit), so the session memoizes it in a
/// [`CommittedTreeCache`] and re-decodes only when the state delta touches
/// the blob. Log replay still runs per state — the log is what actually
/// differs between crash states.
///
/// The session skips the physical commit write-back a real mount performs:
/// the write-back only re-serializes the already-recovered state, so the
/// *logical* view (what the AutoChecker compares) is identical, which debug
/// builds of CrashMonkey assert against a from-scratch mount.
/// The working tree a previous `recover` call produced, so the next crash
/// state only replays the log items recorded *since* it (adjacent crash
/// states of one workload share a committed tree and a log prefix).
struct ReplayedLogCache {
    /// Content stamp ([`CommittedTreeCache::last_stamp`]) of the committed
    /// tree this replay started from. The fold is only extendable when the
    /// current state resolves to the *same* stamp — i.e. a byte-identical
    /// committed tree — since replay is a fold over that base.
    tree_stamp: u64,
    /// The raw encoded log already folded into `working`. The next state's
    /// log extends it iff its items region starts with this one's, byte for
    /// byte (the encoding is append-only and deterministic — see
    /// [`LOG_HEADER_LEN`](crate::log::LOG_HEADER_LEN)), so a cheap byte
    /// compare replaces re-decoding and comparing the shared item prefix.
    log_bytes: Vec<u8>,
    /// Number of items in `log_bytes`.
    item_count: usize,
    /// True when any folded item was a dentry removal. The
    /// `replay_keeps_old_dentry_after_rename` quirk consults the *whole*
    /// log (including items after the one being replayed) when deciding
    /// whether a removal sticks, so a later log extension can retroactively
    /// flip a removal already folded in here — the recover path refuses the
    /// cached fold when that hazard is live (see `recover`).
    prefix_has_remove: bool,
    /// The recovered working tree after replaying those items; recovered
    /// `CowFs` views of byte-identical logs are clones of it.
    working: MemTree,
}

fn has_dentry_remove(items: &[LogItem]) -> bool {
    items
        .iter()
        .any(|item| matches!(item, LogItem::DentryRemove { .. }))
}

/// Upper bound on retained [anchor](CowRecoverySession::anchors) folds; a
/// workload rarely commits more than a couple of distinct trees, so a
/// handful covers every stamp the neighbouring workloads will resolve to.
const MAX_ANCHORS: usize = 4;

struct CowRecoverySession {
    bugs: CowBugs,
    cache: CommittedTreeCache,
    /// The most recent fold — the chain tip. Crash states later in the same
    /// workload extend it with their new log suffix.
    replayed_last: Option<Arc<ReplayedLogCache>>,
    /// The *shortest* fold seen per committed-tree stamp. Bounded workload
    /// generation varies the tail of the op sequence fastest, so the first
    /// log states of a long run of neighbouring workloads are byte-identical
    /// — each one hits the anchor its predecessor planted instead of
    /// replaying from scratch. Entries are shared with `replayed_last` via
    /// `Arc`: a fold owns its log bytes, which two holders need not copy.
    anchors: Vec<Arc<ReplayedLogCache>>,
    /// The base image whose committed tree is pinned in `cache`, kept alive
    /// so its layer pointer stays a valid identity witness.
    primed: Option<b3_block::DiskImage>,
}

impl RecoverDelta for CowRecoverySession {
    fn prime(&mut self, _spec: &dyn FsSpec, base: &b3_block::DiskImage) {
        // Delta chains from the previous run prove nothing about this one.
        // The replayed-log cache survives the boundary, though: its
        // validity is purely content-based (committed-tree stamp plus log
        // byte prefix), and adjacent workloads of a sweep share op
        // prefixes, so their early crash states often have byte-identical
        // logs over the same committed tree.
        self.cache.start_run();
        if self.primed.as_ref().is_some_and(|p| p.ptr_eq(base)) {
            return;
        }
        // New base: decode its committed tree once and pin it, so the first
        // crash state of every run replayed onto this base (whose delta is
        // relative to the base) can hit the cache too. All errors are
        // swallowed — priming is an optimization, and `recover` reports
        // mount failures of a broken base exactly as `mount` would.
        self.primed = None;
        let dev = b3_block::CowSnapshotDevice::new(base.clone());
        let Ok(sb) = SuperBlock::read_from(&dev, COWFS_MAGIC) else {
            return;
        };
        let Ok(tree_bytes) = read_blob(&dev, sb.tree) else {
            return;
        };
        if tree_bytes.is_empty() {
            return;
        }
        let Ok(tree) = MemTree::decode(&tree_bytes) else {
            return;
        };
        self.cache.pin(&sb, tree);
        self.primed = Some(base.clone());
    }

    fn recover(
        &mut self,
        _spec: &dyn FsSpec,
        dev: Box<dyn BlockDevice>,
        delta: Option<&StateDelta>,
    ) -> FsResult<Box<dyn FileSystem>> {
        let sb = SuperBlock::read_from(dev.as_ref(), COWFS_MAGIC)?;
        // Resolve the committed tree: delta-proven cache hit, byte-verified
        // revival of the cached entry, or a fresh decode (stored for next
        // time). All three leave the tree borrowable from the cache.
        if self.cache.lookup(&sb, delta).is_none() {
            // Identical decode (and error) path to `mount_with_bugs`.
            let tree_bytes = read_blob(dev.as_ref(), sb.tree)?;
            if tree_bytes.is_empty() {
                return Err(FsError::Unmountable("missing committed tree".into()));
            }
            if self.cache.verify(&sb, &tree_bytes).is_none() {
                let tree = MemTree::decode(&tree_bytes)
                    .map_err(|e| FsError::Unmountable(format!("corrupt committed tree: {e}")))?;
                self.cache.store(&sb, tree_bytes, tree);
            }
        }
        let tree_stamp = self.cache.last_stamp();
        let committed = self.cache.resolved().expect("a tree was just resolved");
        let working = if sb.log.is_present() {
            let log_bytes = read_blob(dev.as_ref(), sb.log)?;
            // Fold only the new log suffix onto a cached working tree when
            // this state's log extends an already-replayed one over the
            // same committed tree: the stamp pins the base, and the byte
            // compare below proves the item prefix is shared (replay is a
            // pure fold; see `replay_from`). Prefer the longest folded
            // prefix: the chain tip extends within a workload, the anchors
            // serve the first log states of neighbouring workloads.
            let extends = |cached: &ReplayedLogCache| {
                cached.tree_stamp == tree_stamp
                    && log_bytes.len() >= cached.log_bytes.len()
                    && log_bytes[LOG_HEADER_LEN..cached.log_bytes.len()]
                        == cached.log_bytes[LOG_HEADER_LEN..]
            };
            let cached = self
                .replayed_last
                .iter()
                .chain(self.anchors.iter())
                .filter(|cached| extends(cached))
                .max_by_key(|cached| cached.log_bytes.len())
                .cloned();
            // Two buggy replay paths read the *whole* log; with either
            // active a cache hit must still decode the full log (so suffix
            // items see every item) instead of decoding just the suffix.
            let needs_full_log = self.bugs.replay_keeps_old_dentry_after_rename
                || self.bugs.replay_resets_inode_allocator;
            let entry: Arc<ReplayedLogCache> = match cached {
                Some(cached) if !needs_full_log => {
                    let suffix = LogTree::decode_suffix(
                        &log_bytes,
                        cached.log_bytes.len(),
                        cached.item_count,
                    )?;
                    if suffix.items.is_empty() {
                        // Byte-identical log: the cached fold IS this
                        // state's recovery.
                        cached
                    } else {
                        let mut working = cached.working.clone();
                        replay_from(&mut working, committed, &suffix, 0, &self.bugs)?;
                        Arc::new(ReplayedLogCache {
                            tree_stamp,
                            item_count: cached.item_count + suffix.items.len(),
                            prefix_has_remove: cached.prefix_has_remove
                                || has_dentry_remove(&suffix.items),
                            log_bytes,
                            working,
                        })
                    }
                }
                Some(cached) => {
                    let log = LogTree::decode(&log_bytes)?;
                    if log.items.len() == cached.item_count {
                        // Byte-prefix plus equal item count: identical log.
                        cached
                    } else {
                        let start = cached.item_count;
                        // The rename quirk makes a removal's outcome depend
                        // on *later* log items (`has_add_for_child` scans
                        // the whole log), so a suffix add can retroactively
                        // flip a removal already folded into the cached
                        // tree. Refuse the cached fold when both sides of
                        // that hazard are present.
                        let removal_may_flip = self.bugs.replay_keeps_old_dentry_after_rename
                            && cached.prefix_has_remove
                            && log.items[start..]
                                .iter()
                                .any(|item| matches!(item, LogItem::DentryAdd { .. }));
                        let (mut working, start, prefix_has_remove) = if removal_may_flip {
                            (committed.clone(), 0, false)
                        } else {
                            (cached.working.clone(), start, cached.prefix_has_remove)
                        };
                        replay_from(&mut working, committed, &log, start, &self.bugs)?;
                        Arc::new(ReplayedLogCache {
                            tree_stamp,
                            item_count: log.items.len(),
                            prefix_has_remove: prefix_has_remove
                                || has_dentry_remove(&log.items[start..]),
                            log_bytes,
                            working,
                        })
                    }
                }
                None => {
                    let log = LogTree::decode(&log_bytes)?;
                    let mut working = committed.clone();
                    replay_from(&mut working, committed, &log, 0, &self.bugs)?;
                    Arc::new(ReplayedLogCache {
                        tree_stamp,
                        item_count: log.items.len(),
                        prefix_has_remove: has_dentry_remove(&log.items),
                        log_bytes,
                        working,
                    })
                }
            };
            let working = entry.working.clone();
            self.replayed_last = Some(entry.clone());
            match self
                .anchors
                .iter_mut()
                .find(|anchor| anchor.tree_stamp == entry.tree_stamp)
            {
                // Keep the shortest fold per stamp: that is the one the
                // neighbouring workloads' first log states will extend.
                Some(anchor) => {
                    if entry.item_count <= anchor.item_count {
                        *anchor = entry;
                    }
                }
                None => {
                    if self.anchors.len() >= MAX_ANCHORS {
                        self.anchors.remove(0);
                    }
                    self.anchors.push(entry);
                }
            }
            working
        } else {
            committed.clone()
        };
        Ok(Box::new(CowFs {
            dev,
            sb,
            bugs: self.bugs,
            committed: working.clone(),
            working,
            log: LogTree::new(),
            recorder_state: RecorderState::default(),
        }))
    }

    fn is_incremental(&self) -> bool {
        true
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
        Box::new(CowRecoverySession {
            bugs: self.bugs,
            cache: CommittedTreeCache::new(),
            replayed_last: None,
            anchors: Vec::new(),
            primed: None,
        })
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
    use b3_block::RamDisk;
    use b3_vfs::exec::{apply_workload, Executor};
    use b3_vfs::snapshot::LogicalSnapshot;
    use b3_vfs::workload::{Op, Workload};

    fn fresh_fs(era: KernelEra) -> CowFs {
        CowFs::mkfs(Box::new(RamDisk::new(4096)), era).unwrap()
    }

    #[test]
    fn recovery_session_matches_remount_and_caches_the_committed_tree() {
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
        let spec = CowFsSpec::patched();
        let baseline = spec.mount(crashed_device()).unwrap();
        let expected = LogicalSnapshot::capture(baseline.as_ref()).unwrap();

        let mut session = spec.recovery_session();
        assert!(session.is_incremental());
        let first = session.recover(&spec, crashed_device(), None).unwrap();
        assert_eq!(LogicalSnapshot::capture(first.as_ref()).unwrap(), expected);
        // An empty delta proves no block changed, so the cached committed
        // tree is reused — the logical view must still match.
        let empty = StateDelta::from_blocks(Vec::new());
        let second = session
            .recover(&spec, crashed_device(), Some(&empty))
            .unwrap();
        assert_eq!(LogicalSnapshot::capture(second.as_ref()).unwrap(), expected);
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
