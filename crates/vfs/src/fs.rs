//! The POSIX-style `FileSystem` trait and related abstractions.

use b3_block::BlockDevice;

use crate::error::{FsError, FsResult};
use crate::metadata::Metadata;
use crate::workload::FallocMode;

/// How a write reaches the file system, mirroring the three data-operation
/// flavours the paper's workloads use (Table 4): buffered `write()`, memory-
/// mapped writes, and direct IO (`O_DIRECT`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteMode {
    /// Ordinary buffered `write()` through the page cache.
    Buffered,
    /// `O_DIRECT` write: data bypasses the page cache and is issued to the
    /// device immediately (metadata updates may still be delayed — which is
    /// exactly where the studied ext4 bug lives).
    Direct,
    /// A store through an `mmap()` mapping; becomes durable only via
    /// `msync`/`fsync` or a full `sync`.
    Mmap,
}

impl WriteMode {
    /// Short name used by the workload language.
    pub fn as_str(&self) -> &'static str {
        match self {
            WriteMode::Buffered => "write",
            WriteMode::Direct => "dwrite",
            WriteMode::Mmap => "mwrite",
        }
    }
}

/// A POSIX-style file system under test.
///
/// Paths are `/`-separated strings relative to the root (see
/// [`crate::path`]). Every mutating operation only changes *in-memory* state;
/// durability is obtained exclusively through [`FileSystem::fsync`],
/// [`FileSystem::fdatasync`], [`FileSystem::msync`] and [`FileSystem::sync`],
/// which is the property at the heart of every crash-consistency bug the
/// paper studies.
pub trait FileSystem: Send {
    /// Short name of the file system ("cowfs", "flashfs", …).
    fn fs_name(&self) -> &'static str;

    // --- namespace operations -------------------------------------------------

    /// Creates an empty regular file (like `creat`/`touch`). Fails with
    /// [`FsError::AlreadyExists`] if the path exists.
    fn create(&mut self, path: &str) -> FsResult<()>;

    /// Creates a directory.
    fn mkdir(&mut self, path: &str) -> FsResult<()>;

    /// Creates a named pipe (`mkfifo`).
    fn mkfifo(&mut self, path: &str) -> FsResult<()>;

    /// Creates a symbolic link at `linkpath` pointing at `target`.
    fn symlink(&mut self, target: &str, linkpath: &str) -> FsResult<()>;

    /// Creates a hard link `new` to the existing file `existing`.
    fn link(&mut self, existing: &str, new: &str) -> FsResult<()>;

    /// Removes a file, symlink, or fifo name (final unlink drops the inode).
    fn unlink(&mut self, path: &str) -> FsResult<()>;

    /// Removes an empty directory.
    fn rmdir(&mut self, path: &str) -> FsResult<()>;

    /// Renames `from` to `to`, replacing `to` if it exists (POSIX rename
    /// semantics).
    fn rename(&mut self, from: &str, to: &str) -> FsResult<()>;

    // --- data operations --------------------------------------------------------

    /// Writes `data` at `offset`, extending the file if needed.
    fn write(&mut self, path: &str, offset: u64, data: &[u8], mode: WriteMode) -> FsResult<()>;

    /// Truncates (or extends with zeroes) the file to `size` bytes.
    fn truncate(&mut self, path: &str, size: u64) -> FsResult<()>;

    /// `fallocate(2)`: manipulates the file's allocation without writing
    /// user data (see [`FallocMode`]).
    fn fallocate(&mut self, path: &str, mode: FallocMode, offset: u64, len: u64) -> FsResult<()>;

    // --- extended attributes ----------------------------------------------------

    /// Sets (creating or replacing) an extended attribute.
    fn setxattr(&mut self, path: &str, name: &str, value: &[u8]) -> FsResult<()>;

    /// Removes an extended attribute.
    fn removexattr(&mut self, path: &str, name: &str) -> FsResult<()>;

    /// Reads an extended attribute.
    fn getxattr(&self, path: &str, name: &str) -> FsResult<Vec<u8>>;

    // --- read-side operations ---------------------------------------------------

    /// Reads up to `len` bytes from `offset`. Reads past EOF return the
    /// available prefix (possibly empty).
    fn read(&self, path: &str, offset: u64, len: u64) -> FsResult<Vec<u8>>;

    /// Lists the names in a directory, sorted.
    fn readdir(&self, path: &str) -> FsResult<Vec<String>>;

    /// Returns the metadata of a path.
    fn metadata(&self, path: &str) -> FsResult<Metadata>;

    /// Returns the target of a symbolic link.
    fn readlink(&self, path: &str) -> FsResult<String>;

    // --- persistence operations -------------------------------------------------

    /// `fsync(2)` on the given file or directory.
    fn fsync(&mut self, path: &str) -> FsResult<()>;

    /// `fdatasync(2)` on the given file.
    fn fdatasync(&mut self, path: &str) -> FsResult<()>;

    /// `msync(2)` of a mapped range of the file. The default forwards to
    /// [`FileSystem::fdatasync`], which matches how most file systems treat
    /// ranged msync for crash-consistency purposes.
    fn msync(&mut self, path: &str, _offset: u64, _len: u64) -> FsResult<()> {
        self.fdatasync(path)
    }

    /// Global `sync(2)`: commits everything.
    fn sync(&mut self) -> FsResult<()>;

    // --- lifecycle ---------------------------------------------------------------

    /// Cleanly unmounts the file system: completes all pending writes and
    /// checkpoints, then returns the underlying device. The resulting image
    /// is what the paper calls an *oracle* when captured at a persistence
    /// point.
    fn unmount(self: Box<Self>) -> FsResult<Box<dyn BlockDevice>>;

    /// Forks the mounted file system: returns an independent copy of all of
    /// its in-memory state — working tree, committed/checkpointed trees,
    /// pending logs, allocation cursors — that performs its IO on `device`.
    ///
    /// The caller supplies the device because a file system cannot copy the
    /// `dyn BlockDevice` it owns, and because the caller usually wants to
    /// keep its own handle on the new device (CrashMonkey forks its
    /// recorder with [`b3_block::LogHandle::fork_device`]). `device` must
    /// hold exactly the blocks this file system's own device holds now.
    ///
    /// The contract, which the per-file-system fork property tests pin: from
    /// here on, no operation on either side — including persistence
    /// operations — may change anything the other side can observe, and any
    /// operation sequence applied to the fork must behave (results, logical
    /// state, and block IO issued) exactly as it would have on `self`.
    /// Sharing immutable state behind an `Arc` is fine; sharing anything
    /// that is later mutated in place is not.
    fn fork(&self, device: Box<dyn BlockDevice>) -> Box<dyn FileSystem>;

    // --- misc ---------------------------------------------------------------------

    /// Convenience: whole-file read.
    fn read_all(&self, path: &str) -> FsResult<Vec<u8>> {
        let meta = self.metadata(path)?;
        self.read(path, 0, meta.size)
    }

    /// Convenience: does the path exist?
    fn exists(&self, path: &str) -> bool {
        self.metadata(path).is_ok()
    }
}

/// Factory for a file-system implementation: formats fresh devices and mounts
/// existing images (running crash recovery when the image was not cleanly
/// unmounted). CrashMonkey is written entirely against this trait, which is
/// what makes it black-box.
pub trait FsSpec: Send + Sync {
    /// Short name of the file system this spec builds.
    fn name(&self) -> &'static str;

    /// Formats a fresh file system onto `device` and returns it mounted.
    fn mkfs(&self, device: Box<dyn BlockDevice>) -> FsResult<Box<dyn FileSystem>>;

    /// Mounts an existing image. If the image was not cleanly unmounted the
    /// file system runs its recovery (journal replay, log-tree replay,
    /// roll-forward, …). Returns [`FsError::Unmountable`] when recovery
    /// fails — the paper's most severe bug consequence.
    fn mount(&self, device: Box<dyn BlockDevice>) -> FsResult<Box<dyn FileSystem>>;

    /// Runs the file system's offline checker ("fsck") on an image and
    /// returns a human-readable report. The paper runs fsck "only if the
    /// recovered file system is un-mountable". The default reports that no
    /// checker is available.
    fn fsck(&self, _device: &mut dyn BlockDevice) -> FsResult<String> {
        Err(FsError::Unsupported(format!(
            "{} has no offline checker",
            self.name()
        )))
    }

    /// Starts a [recovery session](crate::recover::RecoverDelta) for crash
    /// states. The default session mounts via [`FsSpec::mount`]; file
    /// systems whose mount ends with a write-back override it to skip that
    /// write-back.
    fn recovery_session(&self) -> Box<dyn crate::recover::RecoverDelta + Send> {
        Box::new(crate::recover::RemountSession)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_mode_names() {
        assert_eq!(WriteMode::Buffered.as_str(), "write");
        assert_eq!(WriteMode::Direct.as_str(), "dwrite");
        assert_eq!(WriteMode::Mmap.as_str(), "mwrite");
    }
}
