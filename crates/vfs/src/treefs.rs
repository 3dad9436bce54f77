//! The tree-backed file-system core: one [`FileSystem`] for every simulated
//! file system that keeps its namespace in a [`MemTree`].
//!
//! All four simulated file systems share one shape. A working tree takes
//! every namespace and data operation; a committed tree is what the
//! superblock's tree blob holds; a full commit writes the working tree as a
//! fresh blob and flips the superblock to it ([`diskfmt`](crate::diskfmt)).
//! What differs — and where every injected crash-consistency bug lives — is
//! the persistence path: what `fsync`, `fdatasync` and `msync` write, what
//! recovery rolls forward onto the committed tree, and whether a mount
//! writes the recovered state back. A file system supplies exactly that as
//! a [`Persistence`]; [`TreeFs`] is the rest: format, mount, the
//! write-back-free recovered view, commit, unmount, fork and the tree
//! operations.
//!
//! A mount is that view followed by the write-back the file system asks
//! for; [`ViewSession`] is the view alone, the recovery seam crash states
//! use (see [`crate::recover`]).

use b3_block::{BlockDevice, IoFlags, StateDelta};
use bytes::Bytes;

use crate::diskfmt::{read_blob, write_blob, BlobRef, SuperBlock};
use crate::error::{FsError, FsResult};
use crate::fs::{FileSystem, FsSpec, WriteMode};
use crate::metadata::Metadata;
use crate::recover::RecoverDelta;
use crate::tree::MemTree;
use crate::workload::FallocMode;

/// The state every tree-backed file system holds: its device, the
/// superblock as last written, and the working and committed trees.
pub struct TreeCore {
    /// The device the file system performs its IO on.
    pub dev: Box<dyn BlockDevice>,
    /// The superblock as last written (or read, right after a mount).
    pub sb: SuperBlock,
    /// The volatile, page-cache-like state every operation changes.
    pub working: MemTree,
    /// The tree the superblock's tree blob holds. It shares every inode
    /// with `working` that no operation since the commit touched, so
    /// holding it copies nothing.
    pub committed: MemTree,
}

impl TreeCore {
    /// Commits `tree` as the new on-disk state: the tree blob, then the
    /// superblock (FLUSH+FUA) pointing at it with an empty persistence log.
    pub fn commit(&mut self, tree: MemTree) -> FsResult<()> {
        self.sb.tree = write_blob(
            self.dev.as_mut(),
            &mut self.sb,
            tree.encode(),
            IoFlags::META,
        )?;
        self.sb.log = BlobRef::EMPTY;
        self.sb.generation += 1;
        self.sb.dirty = true;
        self.sb.write_to(self.dev.as_mut())?;
        self.committed = tree;
        Ok(())
    }

    /// Writes `bytes` as the persistence log and flips the superblock to
    /// it: what an `fsync` that does not commit leaves on disk.
    pub fn write_log(&mut self, bytes: Bytes) -> FsResult<()> {
        self.sb.log = write_blob(
            self.dev.as_mut(),
            &mut self.sb,
            bytes,
            IoFlags::META | IoFlags::SYNC,
        )?;
        self.sb.dirty = true;
        self.sb.write_to(self.dev.as_mut())
    }
}

/// Which persistence call a [`Persistence::persist`] serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncKind {
    /// `fsync(2)`.
    Fsync,
    /// `fdatasync(2)`.
    Fdatasync,
    /// `msync(2)` of a byte range.
    Msync { offset: u64, len: u64 },
}

/// What one tree-backed file system adds to the [`TreeCore`]: its identity,
/// its bug set, its persistence calls and recovery, and whatever state
/// those keep between commits. `sync` and unmount are full commits in
/// every file system, so they are not here.
pub trait Persistence: Clone + Send + 'static {
    /// The file system's injectable bugs.
    type Bugs: Copy + Send + 'static;
    /// Short name of the file system ([`FileSystem::fs_name`]).
    const NAME: &'static str;
    /// Superblock magic number.
    const MAGIC: u32;
    /// What the [`FsError::Unmountable`] error of a tree blob that does not
    /// decode starts with.
    const CORRUPT_TREE: &'static str;
    /// What the error of a superblock naming no tree blob says; `None` lets
    /// the empty blob fail to decode like a corrupt one.
    const MISSING_TREE: Option<&'static str> = None;

    /// Recovery: rolls the persistence log the superblock `sb` names on
    /// `dev` (if any) onto `tree`, the committed tree as decoded, and
    /// returns the state a freshly mounted file system starts with. Writes
    /// nothing.
    fn recover(
        dev: &dyn BlockDevice,
        sb: &SuperBlock,
        tree: &mut MemTree,
        bugs: Self::Bugs,
    ) -> FsResult<Self>;

    /// True when a mount of the image whose superblock is `sb` ends by
    /// committing the recovered view.
    fn writes_back(_sb: &SuperBlock) -> bool {
        false
    }

    /// `fsync`, `fdatasync` or `msync` of `path`.
    fn persist(&mut self, core: &mut TreeCore, path: &str, kind: SyncKind) -> FsResult<()>;

    /// Runs before every write, whether or not the write succeeds.
    fn before_write(&mut self, _core: &TreeCore, _path: &str, _mode: WriteMode) {}

    /// Runs after every write that succeeded on the working tree.
    fn after_write(
        &mut self,
        _core: &mut TreeCore,
        _path: &str,
        _offset: u64,
        _data: &[u8],
        _mode: WriteMode,
    ) -> FsResult<()> {
        Ok(())
    }

    /// Runs after every fallocate that succeeded on the working tree.
    fn after_fallocate(
        &mut self,
        _core: &TreeCore,
        _path: &str,
        _mode: FallocMode,
        _offset: u64,
        _len: u64,
    ) {
    }

    /// Drops what a full commit makes obsolete.
    fn on_commit(&mut self) {}

    /// A full commit: the working tree becomes the committed one.
    fn commit(&mut self, core: &mut TreeCore) -> FsResult<()> {
        core.commit(core.working.clone())?;
        self.on_commit();
        Ok(())
    }
}

/// A tree-backed file system: the [`TreeCore`] plus the [`Persistence`]
/// that makes it CowFs, FlashFs, JournalFs or VeriFs.
pub struct TreeFs<P> {
    core: TreeCore,
    persistence: P,
}

impl<P: Persistence> TreeFs<P> {
    /// Formats a fresh file system onto `dev` — an empty tree blob, then the
    /// superblock — and mounts it.
    pub fn mkfs(mut dev: Box<dyn BlockDevice>, bugs: P::Bugs) -> FsResult<Self> {
        let mut sb = SuperBlock::new(P::MAGIC);
        sb.tree = write_blob(
            dev.as_mut(),
            &mut sb,
            MemTree::new().encode(),
            IoFlags::META,
        )?;
        sb.write_to(dev.as_mut())?;
        Self::mount(dev, bugs)
    }

    /// Mounts an existing image: the recovered [`view`](Self::view), then
    /// the write-back the file system asks for.
    pub fn mount(dev: Box<dyn BlockDevice>, bugs: P::Bugs) -> FsResult<Self> {
        let mut fs = Self::view(dev, bugs)?;
        if P::writes_back(&fs.core.sb) {
            fs.persistence.commit(&mut fs.core)?;
        }
        Ok(fs)
    }

    /// The view a mount of `dev` gives, before any write-back: the
    /// committed tree decoded and recovered. Writes nothing.
    pub fn view(dev: Box<dyn BlockDevice>, bugs: P::Bugs) -> FsResult<Self> {
        let sb = SuperBlock::read_from(dev.as_ref(), P::MAGIC)?;
        let bytes = read_blob(dev.as_ref(), sb.tree)?;
        if let (true, Some(missing)) = (bytes.is_empty(), P::MISSING_TREE) {
            return Err(FsError::Unmountable(missing.into()));
        }
        let mut tree = MemTree::decode(&bytes)
            .map_err(|e| FsError::Unmountable(format!("{}: {e}", P::CORRUPT_TREE)))?;
        let persistence = P::recover(dev.as_ref(), &sb, &mut tree, bugs)?;
        let core = TreeCore {
            dev,
            sb,
            working: tree.clone(),
            committed: tree,
        };
        Ok(TreeFs { core, persistence })
    }
}

impl<P: Persistence> FileSystem for TreeFs<P> {
    fn fs_name(&self) -> &'static str {
        P::NAME
    }

    fn create(&mut self, path: &str) -> FsResult<()> {
        self.core.working.create_file(path).map(|_| ())
    }

    fn mkdir(&mut self, path: &str) -> FsResult<()> {
        self.core.working.mkdir(path).map(|_| ())
    }

    fn mkfifo(&mut self, path: &str) -> FsResult<()> {
        self.core.working.mkfifo(path).map(|_| ())
    }

    fn symlink(&mut self, target: &str, linkpath: &str) -> FsResult<()> {
        self.core.working.symlink(target, linkpath).map(|_| ())
    }

    fn link(&mut self, existing: &str, new: &str) -> FsResult<()> {
        self.core.working.link(existing, new).map(|_| ())
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        self.core.working.unlink(path)
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        self.core.working.rmdir(path)
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        self.core.working.rename(from, to)
    }

    fn write(&mut self, path: &str, offset: u64, data: &[u8], mode: WriteMode) -> FsResult<()> {
        self.persistence.before_write(&self.core, path, mode);
        self.core.working.write(path, offset, data)?;
        self.persistence
            .after_write(&mut self.core, path, offset, data, mode)
    }

    fn truncate(&mut self, path: &str, size: u64) -> FsResult<()> {
        self.core.working.truncate(path, size)
    }

    fn fallocate(&mut self, path: &str, mode: FallocMode, offset: u64, len: u64) -> FsResult<()> {
        self.core.working.fallocate(path, mode, offset, len)?;
        self.persistence
            .after_fallocate(&self.core, path, mode, offset, len);
        Ok(())
    }

    fn setxattr(&mut self, path: &str, name: &str, value: &[u8]) -> FsResult<()> {
        self.core.working.setxattr(path, name, value)
    }

    fn removexattr(&mut self, path: &str, name: &str) -> FsResult<()> {
        self.core.working.removexattr(path, name)
    }

    fn getxattr(&self, path: &str, name: &str) -> FsResult<Vec<u8>> {
        self.core.working.getxattr(path, name)
    }

    fn read(&self, path: &str, offset: u64, len: u64) -> FsResult<Vec<u8>> {
        self.core.working.read(path, offset, len)
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        self.core.working.readdir(path)
    }

    fn metadata(&self, path: &str) -> FsResult<Metadata> {
        self.core.working.metadata(path)
    }

    fn readlink(&self, path: &str) -> FsResult<String> {
        self.core.working.readlink(path)
    }

    fn fsync(&mut self, path: &str) -> FsResult<()> {
        self.persistence
            .persist(&mut self.core, path, SyncKind::Fsync)
    }

    fn fdatasync(&mut self, path: &str) -> FsResult<()> {
        self.persistence
            .persist(&mut self.core, path, SyncKind::Fdatasync)
    }

    fn msync(&mut self, path: &str, offset: u64, len: u64) -> FsResult<()> {
        let kind = SyncKind::Msync { offset, len };
        self.persistence.persist(&mut self.core, path, kind)
    }

    fn sync(&mut self) -> FsResult<()> {
        self.persistence.commit(&mut self.core)
    }

    fn unmount(mut self: Box<Self>) -> FsResult<Box<dyn BlockDevice>> {
        self.persistence.commit(&mut self.core)?;
        let mut core = self.core;
        core.sb.dirty = false;
        core.sb.write_to(core.dev.as_mut())?;
        Ok(core.dev)
    }

    fn fork(&self, dev: Box<dyn BlockDevice>) -> Box<dyn FileSystem> {
        Box::new(TreeFs {
            core: TreeCore {
                dev,
                sb: self.core.sb,
                working: self.core.working.clone(),
                committed: self.core.committed.clone(),
            },
            persistence: self.persistence.clone(),
        })
    }
}

/// The recovery session of a tree-backed file system: the mount's
/// [`view`](TreeFs::view) without its write-back.
pub struct ViewSession<P: Persistence>(pub P::Bugs);

impl<P: Persistence> RecoverDelta for ViewSession<P> {
    fn recover(
        &mut self,
        _spec: &dyn FsSpec,
        device: Box<dyn BlockDevice>,
        _delta: Option<&StateDelta>,
    ) -> FsResult<Box<dyn FileSystem>> {
        Ok(Box::new(TreeFs::<P>::view(device, self.0)?))
    }
}
