//! An in-memory POSIX namespace tree shared by all simulated file systems.
//!
//! Real file systems split their logic between the kernel VFS layer (path
//! resolution, permission and namespace semantics) and the file-system
//! specific persistence machinery (journals, log trees, checkpoints). The
//! simulated file systems in this workspace follow the same split:
//! [`MemTree`] provides the namespace semantics — inodes, directory entries,
//! hard links, data pages, extended attributes, with POSIX error behaviour —
//! while each file-system crate layers its own persistence and recovery
//! logic (and injected bugs) on top.
//!
//! A `MemTree` is purely in-memory. File systems hold one as their *working*
//! (volatile, page-cache-like) state, and serialize all or part of it to the
//! block device at persistence points using [`MemTree::encode`] /
//! [`MemTree::decode`].
//!
//! Inodes are shared between clones of a tree: a clone copies the inode map
//! and bumps one reference count per inode, whatever the files hold, and a
//! mutation copies only the inode it touches (`Arc::make_mut`). That is the
//! one place the file systems' forks, commits and recovered views share
//! state — none of them wraps a whole tree in an `Arc`.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;

use crate::codec::{Decoder, Encoder, Sink};
use crate::error::{FsError, FsResult};
use crate::metadata::{FileType, Metadata};
use crate::path::{
    components, is_ancestor, is_root, join, normalize, split_parent, validate, SharedPath,
};
use crate::workload::FallocMode;

/// Inode number.
pub type InodeId = u64;

/// The root directory's inode number.
pub const ROOT_INO: InodeId = 1;

/// On-disk size accounted to a directory per entry (matches the granularity
/// btrfs uses for its `i_size` bookkeeping of directories, which is the
/// field the "directory un-removable" log-replay bugs corrupt).
pub const DIRENT_SIZE: u64 = 32;

/// Block granularity used for allocation accounting.
const ALLOC_UNIT: u64 = 4096;

/// Largest file a tree holds: the paper's 100 MB device. Offsets and lengths
/// come from workload text, so every size computed from them is checked
/// against this before anything is allocated.
pub const MAX_FILE_SIZE: u64 = 100 << 20;

fn round_up_alloc(bytes: u64) -> u64 {
    bytes.div_ceil(ALLOC_UNIT) * ALLOC_UNIT
}

/// The end of the byte range `offset..offset + len`, or the error the
/// operation naming it fails with: `InvalidArgument` when the sum overflows,
/// `NoSpace` when it lies beyond [`MAX_FILE_SIZE`].
pub fn range_end(offset: u64, len: u64) -> FsResult<u64> {
    let end = offset
        .checked_add(len)
        .ok_or_else(|| FsError::InvalidArgument(format!("byte range {offset}+{len} overflows")))?;
    if end > MAX_FILE_SIZE {
        return Err(FsError::NoSpace);
    }
    Ok(end)
}

/// One inode: file, directory, symlink, or fifo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// Inode number.
    pub ino: InodeId,
    /// Entry type.
    pub kind: FileType,
    /// Hard-link count (for directories: 2 + number of subdirectories).
    pub nlink: u32,
    /// File contents; `data.len()` is the file's logical size.
    pub data: Vec<u8>,
    /// Bytes of allocated space (can exceed the size after
    /// `fallocate(KEEP_SIZE)`; reported through `st_blocks`).
    pub allocated: u64,
    /// Directory size bookkeeping (`DIRENT_SIZE` per entry). Kept separate
    /// from `entries` because buggy log replay can corrupt one but not the
    /// other — the mechanism behind the "directory un-removable" bugs.
    pub dir_size: u64,
    /// Directory entries: name → child inode. Names are shared, so the
    /// copy of a directory inode that a mutation of a shared tree makes
    /// copies no name.
    pub entries: BTreeMap<SharedPath, InodeId>,
    /// Symlink target.
    pub symlink_target: String,
    /// Extended attributes.
    pub xattrs: BTreeMap<String, Vec<u8>>,
}

impl Inode {
    /// Creates a fresh inode of the given type.
    pub fn new(ino: InodeId, kind: FileType) -> Self {
        Inode {
            ino,
            kind,
            nlink: if kind == FileType::Directory { 2 } else { 1 },
            data: Vec::new(),
            allocated: 0,
            dir_size: 0,
            entries: BTreeMap::new(),
            symlink_target: String::new(),
            xattrs: BTreeMap::new(),
        }
    }

    /// Logical size in bytes, as reported by `stat`.
    pub fn size(&self) -> u64 {
        match self.kind {
            FileType::Regular => self.data.len() as u64,
            FileType::Directory => self.dir_size,
            FileType::Symlink => self.symlink_target.len() as u64,
            FileType::Fifo => 0,
        }
    }

    /// Allocated sectors (512-byte units), as reported by `st_blocks`.
    pub fn blocks(&self) -> u64 {
        Metadata::sectors_for(self.allocated)
    }

    /// Converts the inode into the [`Metadata`] view used by the VFS API.
    pub fn metadata(&self) -> Metadata {
        Metadata {
            ino: self.ino,
            file_type: self.kind,
            size: self.size(),
            nlink: self.nlink,
            blocks: self.blocks(),
            xattrs: self.xattrs.clone(),
        }
    }

    /// True for directories.
    pub fn is_dir(&self) -> bool {
        self.kind == FileType::Directory
    }
}

/// A full in-memory namespace: the working state of a simulated file system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemTree {
    inodes: BTreeMap<InodeId, Arc<Inode>>,
    next_ino: InodeId,
}

impl Default for MemTree {
    fn default() -> Self {
        MemTree::new()
    }
}

impl MemTree {
    /// Creates a tree containing only an empty root directory.
    pub fn new() -> Self {
        let mut inodes = BTreeMap::new();
        inodes.insert(
            ROOT_INO,
            Arc::new(Inode::new(ROOT_INO, FileType::Directory)),
        );
        MemTree {
            inodes,
            next_ino: ROOT_INO + 1,
        }
    }

    // --- inode access -----------------------------------------------------------

    /// Immutable access to an inode.
    pub fn inode(&self, ino: InodeId) -> Option<&Inode> {
        self.inodes.get(&ino).map(Arc::as_ref)
    }

    /// Mutable access to an inode; un-shares it from any clone of the tree
    /// first.
    pub fn inode_mut(&mut self, ino: InodeId) -> Option<&mut Inode> {
        self.inodes.get_mut(&ino).map(Arc::make_mut)
    }

    /// [`inode_mut`](Self::inode_mut) of an inode the caller just resolved.
    fn live_mut(&mut self, ino: InodeId) -> &mut Inode {
        self.inode_mut(ino).expect("resolved inode exists")
    }

    /// Iterates over all inodes in inode-number order.
    pub fn inodes(&self) -> impl Iterator<Item = &Inode> {
        self.inodes.values().map(Arc::as_ref)
    }

    /// The next inode number that will be allocated.
    pub fn next_ino(&self) -> InodeId {
        self.next_ino
    }

    /// Overrides the inode allocator cursor. Only recovery code uses this;
    /// setting it to a value that collides with live inodes is exactly how
    /// the "cannot create new files after recovery" btrfs bug manifests.
    pub fn set_next_ino(&mut self, next: InodeId) {
        self.next_ino = next;
    }

    /// Inserts or replaces an inode verbatim (recovery/log-replay use only).
    pub fn insert_inode_raw(&mut self, inode: Inode) {
        self.next_ino = self.next_ino.max(inode.ino + 1);
        self.inodes.insert(inode.ino, Arc::new(inode));
    }

    fn alloc_ino(&mut self) -> FsResult<InodeId> {
        let ino = self.next_ino;
        if self.inodes.contains_key(&ino) {
            // The inode allocator collided with a live inode: the tree was
            // recovered into an inconsistent state.
            return Err(FsError::Corrupted(format!(
                "inode allocator collision at ino {ino}"
            )));
        }
        self.next_ino += 1;
        Ok(ino)
    }

    // --- path resolution ----------------------------------------------------------

    /// Resolves a path to an inode number. Allocates nothing on success.
    pub fn resolve(&self, path: &str) -> FsResult<InodeId> {
        validate(path)?;
        let mut current = ROOT_INO;
        for comp in components(path) {
            let inode = self.inodes.get(&current).ok_or_else(|| {
                FsError::Corrupted(format!("dangling inode {current} while resolving {path}"))
            })?;
            if !inode.is_dir() {
                return Err(FsError::NotADirectory(path.to_string()));
            }
            current = *inode
                .entries
                .get(comp)
                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        }
        if !self.inodes.contains_key(&current) {
            // A directory entry that references a missing inode (a *dangling*
            // entry, the state buggy log replay can leave behind) behaves as
            // if the file were absent.
            return Err(FsError::NotFound(path.to_string()));
        }
        Ok(current)
    }

    /// Resolves the parent directory of a path, returning `(parent_ino, name)`
    /// with the name borrowed from `path`.
    pub fn resolve_parent<'p>(&self, path: &'p str) -> FsResult<(InodeId, &'p str)> {
        validate(path)?;
        let (parent, name) = split_parent(path)?;
        let parent_ino = self.resolve(parent)?;
        if !self.inodes[&parent_ino].is_dir() {
            return Err(FsError::NotADirectory(parent.to_string()));
        }
        Ok((parent_ino, name))
    }

    /// Does the path exist?
    pub fn exists(&self, path: &str) -> bool {
        self.resolve(path).is_ok()
    }

    /// All paths that refer to an inode (hard links give several). Paths are
    /// returned in sorted order.
    pub fn paths_of_ino(&self, ino: InodeId) -> Vec<String> {
        let mut paths = Vec::new();
        self.collect_paths(ROOT_INO, "", ino, &mut paths);
        paths.sort();
        paths
    }

    fn collect_paths(&self, dir: InodeId, prefix: &str, target: InodeId, out: &mut Vec<String>) {
        if dir == target && is_root(prefix) {
            out.push(String::new());
        }
        let Some(inode) = self.inodes.get(&dir) else {
            return;
        };
        for (name, child) in &inode.entries {
            let path = join(prefix, name);
            if *child == target {
                out.push(path.clone());
            }
            if self.inode(*child).is_some_and(Inode::is_dir) {
                self.collect_paths(*child, &path, target, out);
            }
        }
    }

    // --- namespace operations ---------------------------------------------------

    fn add_entry(&mut self, parent: InodeId, name: &str, child: InodeId) {
        let dir = self.live_mut(parent);
        dir.entries.insert(name.into(), child);
        dir.dir_size += DIRENT_SIZE;
    }

    fn remove_entry(&mut self, parent: InodeId, name: &str) -> Option<InodeId> {
        let dir = self.inode_mut(parent)?;
        let removed = dir.entries.remove(name);
        if removed.is_some() {
            dir.dir_size = dir.dir_size.saturating_sub(DIRENT_SIZE);
        }
        removed
    }

    fn create_node(&mut self, path: &str, kind: FileType) -> FsResult<InodeId> {
        let (parent, name) = self.resolve_parent(path)?;
        if self.inodes[&parent].entries.contains_key(name) {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        let ino = self.alloc_ino()?;
        self.inodes.insert(ino, Arc::new(Inode::new(ino, kind)));
        self.add_entry(parent, name, ino);
        if kind == FileType::Directory {
            self.live_mut(parent).nlink += 1;
        }
        Ok(ino)
    }

    /// Creates an empty regular file.
    pub fn create_file(&mut self, path: &str) -> FsResult<InodeId> {
        self.create_node(path, FileType::Regular)
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path: &str) -> FsResult<InodeId> {
        self.create_node(path, FileType::Directory)
    }

    /// Creates a named pipe.
    pub fn mkfifo(&mut self, path: &str) -> FsResult<InodeId> {
        self.create_node(path, FileType::Fifo)
    }

    /// Creates a symbolic link.
    pub fn symlink(&mut self, target: &str, linkpath: &str) -> FsResult<InodeId> {
        let ino = self.create_node(linkpath, FileType::Symlink)?;
        self.live_mut(ino).symlink_target = normalize(target).into_owned();
        Ok(ino)
    }

    /// Creates a hard link `new` referring to the inode of `existing`.
    pub fn link(&mut self, existing: &str, new: &str) -> FsResult<InodeId> {
        let src_ino = self.resolve(existing)?;
        if self.inodes[&src_ino].is_dir() {
            return Err(FsError::IsADirectory(existing.to_string()));
        }
        let (parent, name) = self.resolve_parent(new)?;
        if self.inodes[&parent].entries.contains_key(name) {
            return Err(FsError::AlreadyExists(new.to_string()));
        }
        self.add_entry(parent, name, src_ino);
        self.live_mut(src_ino).nlink += 1;
        Ok(src_ino)
    }

    /// Removes a non-directory name; the inode is freed when its last link
    /// goes away.
    pub fn unlink(&mut self, path: &str) -> FsResult<()> {
        let ino = self.resolve(path)?;
        if self.inodes[&ino].is_dir() {
            return Err(FsError::IsADirectory(path.to_string()));
        }
        let (parent, name) = self.resolve_parent(path)?;
        self.remove_entry(parent, name);
        self.drop_link(ino);
        Ok(())
    }

    /// Drops one hard link of `ino`, freeing the inode with its last.
    fn drop_link(&mut self, ino: InodeId) {
        // Read before un-sharing: freeing a shared inode must not copy it.
        if self.inodes[&ino].nlink <= 1 {
            self.inodes.remove(&ino);
        } else {
            self.live_mut(ino).nlink -= 1;
        }
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, path: &str) -> FsResult<()> {
        if is_root(path) {
            return Err(FsError::InvalidArgument("cannot remove the root".into()));
        }
        let ino = self.resolve(path)?;
        let inode = &self.inodes[&ino];
        if !inode.is_dir() {
            return Err(FsError::NotADirectory(path.to_string()));
        }
        if !inode.entries.is_empty() {
            return Err(FsError::DirectoryNotEmpty(path.to_string()));
        }
        if inode.dir_size != 0 {
            // The directory claims to still hold entries even though none
            // resolve: its size bookkeeping is corrupt (this is the state
            // buggy fsync-log replay leaves behind in the "directory
            // un-removable" bugs; real btrfs returns ENOTEMPTY here too).
            return Err(FsError::DirectoryNotEmpty(format!(
                "{path} (stale directory size {} after recovery)",
                inode.dir_size
            )));
        }
        let (parent, name) = self.resolve_parent(path)?;
        self.remove_entry(parent, name);
        self.live_mut(parent).nlink -= 1;
        self.inodes.remove(&ino);
        Ok(())
    }

    /// Renames `from` to `to` with POSIX semantics (replacing an existing
    /// target file, or an existing empty target directory).
    pub fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        let src_ino = self.resolve(from)?;
        let (src_parent, src_name) = self.resolve_parent(from)?;
        let (dst_parent, dst_name) = self.resolve_parent(to)?;
        let src_is_dir = self.inodes[&src_ino].is_dir();

        if normalize(from) == normalize(to) {
            return Ok(());
        }
        if src_is_dir && is_ancestor(from, to) {
            return Err(FsError::InvalidArgument(format!(
                "cannot move {from} into its own subtree {to}"
            )));
        }

        // Handle an existing destination.
        if let Some(&dst_ino) = self.inodes[&dst_parent].entries.get(dst_name) {
            if dst_ino == src_ino {
                return Ok(());
            }
            let dst_is_dir = self.inodes[&dst_ino].is_dir();
            match (src_is_dir, dst_is_dir) {
                (true, false) => return Err(FsError::NotADirectory(to.to_string())),
                (false, true) => return Err(FsError::IsADirectory(to.to_string())),
                (true, true) => {
                    if !self.inodes[&dst_ino].entries.is_empty() {
                        return Err(FsError::DirectoryNotEmpty(to.to_string()));
                    }
                    self.remove_entry(dst_parent, dst_name);
                    self.live_mut(dst_parent).nlink -= 1;
                    self.inodes.remove(&dst_ino);
                }
                (false, false) => {
                    self.remove_entry(dst_parent, dst_name);
                    self.drop_link(dst_ino);
                }
            }
        }

        self.remove_entry(src_parent, src_name);
        self.add_entry(dst_parent, dst_name, src_ino);
        if src_is_dir && src_parent != dst_parent {
            self.live_mut(src_parent).nlink -= 1;
            self.live_mut(dst_parent).nlink += 1;
        }
        Ok(())
    }

    // --- data operations -----------------------------------------------------------

    /// Resolves `path` to a regular file.
    fn resolve_file(&self, path: &str) -> FsResult<InodeId> {
        let ino = self.resolve(path)?;
        match self.inodes[&ino].kind {
            FileType::Regular => Ok(ino),
            FileType::Directory => Err(FsError::IsADirectory(path.to_string())),
            _ => Err(FsError::InvalidArgument(format!(
                "{path} is not a regular file"
            ))),
        }
    }

    /// Writes `data` at `offset`, zero-filling any gap and extending the file.
    pub fn write(&mut self, path: &str, offset: u64, data: &[u8]) -> FsResult<()> {
        let ino = self.resolve_file(path)?;
        let end = range_end(offset, data.len() as u64)?;
        let inode = self.live_mut(ino);
        // `end <= MAX_FILE_SIZE`, so these fit a `usize`.
        let (start, end) = (offset as usize, end as usize);
        if inode.data.len() < end {
            inode.data.resize(end, 0);
        }
        inode.data[start..end].copy_from_slice(data);
        inode.allocated = inode.allocated.max(round_up_alloc(end as u64));
        Ok(())
    }

    /// Truncates or zero-extends the file to `size`.
    pub fn truncate(&mut self, path: &str, size: u64) -> FsResult<()> {
        let ino = self.resolve_file(path)?;
        let size = range_end(0, size)?;
        let inode = self.live_mut(ino);
        inode.data.resize(size as usize, 0);
        inode.allocated = round_up_alloc(size);
        Ok(())
    }

    /// `fallocate` in any of the supported modes.
    pub fn fallocate(
        &mut self,
        path: &str,
        mode: FallocMode,
        offset: u64,
        len: u64,
    ) -> FsResult<()> {
        if len == 0 {
            return Err(FsError::InvalidArgument(
                "fallocate with zero length".into(),
            ));
        }
        let ino = self.resolve_file(path)?;
        let end = range_end(offset, len)?;
        let inode = self.live_mut(ino);
        match mode {
            FallocMode::Allocate | FallocMode::ZeroRange => {
                // Extends both allocation and logical size.
                if (inode.data.len() as u64) < end {
                    inode.data.resize(end as usize, 0);
                }
                if mode == FallocMode::ZeroRange {
                    let upto = end.min(inode.data.len() as u64);
                    for byte in &mut inode.data[offset as usize..upto as usize] {
                        *byte = 0;
                    }
                }
                inode.allocated = inode.allocated.max(round_up_alloc(end));
            }
            FallocMode::KeepSize | FallocMode::ZeroRangeKeepSize => {
                // Allocation grows; logical size does not.
                if mode == FallocMode::ZeroRangeKeepSize {
                    let upto = end.min(inode.data.len() as u64);
                    if offset < upto {
                        for byte in &mut inode.data[offset as usize..upto as usize] {
                            *byte = 0;
                        }
                    }
                }
                inode.allocated = inode.allocated.max(round_up_alloc(end));
            }
            FallocMode::PunchHole => {
                // Zero the range within the file; allocation shrinks by the
                // punched-out whole blocks. Size never changes.
                let upto = end.min(inode.data.len() as u64);
                if offset < upto {
                    for byte in &mut inode.data[offset as usize..upto as usize] {
                        *byte = 0;
                    }
                }
                let punched = round_up_alloc(upto.saturating_sub(offset)).min(inode.allocated);
                inode.allocated = inode
                    .allocated
                    .saturating_sub(punched)
                    .max(round_up_alloc(inode.data.len() as u64).saturating_sub(punched));
            }
        }
        Ok(())
    }

    // --- xattrs -----------------------------------------------------------------------

    /// Sets an extended attribute.
    pub fn setxattr(&mut self, path: &str, name: &str, value: &[u8]) -> FsResult<()> {
        let ino = self.resolve(path)?;
        self.live_mut(ino)
            .xattrs
            .insert(name.to_string(), value.to_vec());
        Ok(())
    }

    /// Removes an extended attribute.
    pub fn removexattr(&mut self, path: &str, name: &str) -> FsResult<()> {
        let ino = self.resolve(path)?;
        if !self.inodes[&ino].xattrs.contains_key(name) {
            return Err(FsError::NoXattr(name.to_string()));
        }
        self.live_mut(ino).xattrs.remove(name);
        Ok(())
    }

    /// Reads an extended attribute.
    pub fn getxattr(&self, path: &str, name: &str) -> FsResult<Vec<u8>> {
        let ino = self.resolve(path)?;
        self.inodes[&ino]
            .xattrs
            .get(name)
            .cloned()
            .ok_or_else(|| FsError::NoXattr(name.to_string()))
    }

    // --- read side ----------------------------------------------------------------------

    /// Reads up to `len` bytes from `offset`.
    pub fn read(&self, path: &str, offset: u64, len: u64) -> FsResult<Vec<u8>> {
        let ino = self.resolve(path)?;
        let inode = &self.inodes[&ino];
        match inode.kind {
            FileType::Regular => {
                let size = inode.data.len() as u64;
                if offset >= size {
                    return Ok(Vec::new());
                }
                let end = offset.saturating_add(len).min(size);
                Ok(inode.data[offset as usize..end as usize].to_vec())
            }
            FileType::Directory => Err(FsError::IsADirectory(path.to_string())),
            _ => Err(FsError::InvalidArgument(format!(
                "{path} is not a regular file"
            ))),
        }
    }

    /// Lists a directory's entry names (sorted).
    pub fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        let ino = self.resolve(path)?;
        let inode = &self.inodes[&ino];
        if !inode.is_dir() {
            return Err(FsError::NotADirectory(path.to_string()));
        }
        Ok(inode.entries.keys().map(ToString::to_string).collect())
    }

    /// Metadata of a path.
    pub fn metadata(&self, path: &str) -> FsResult<Metadata> {
        let ino = self.resolve(path)?;
        Ok(self.inodes[&ino].metadata())
    }

    /// Target of a symlink.
    pub fn readlink(&self, path: &str) -> FsResult<String> {
        let ino = self.resolve(path)?;
        let inode = &self.inodes[&ino];
        if inode.kind != FileType::Symlink {
            return Err(FsError::InvalidArgument(format!("{path} is not a symlink")));
        }
        Ok(inode.symlink_target.clone())
    }

    // --- serialization --------------------------------------------------------------------

    const MAGIC: u32 = 0x4d54_5245; // "MTRE"
    const VERSION: u32 = 1;

    /// Serializes the whole tree to bytes, into one buffer of exactly the
    /// encoded length.
    pub fn encode(&self) -> Bytes {
        // The magic and version, `next_ino` and the inode count.
        let len = 4 + 4 + 8 + 8 + self.inodes().map(encoded_inode_len).sum::<usize>();
        let mut enc = Encoder::exact(len);
        enc.put_u32(Self::MAGIC);
        enc.put_u32(Self::VERSION);
        enc.put_u64(self.next_ino);
        enc.put_u64(self.inodes.len() as u64);
        for inode in self.inodes() {
            encode_inode(&mut enc, inode);
        }
        enc.freeze()
    }

    /// Deserializes a tree previously produced by [`MemTree::encode`].
    pub fn decode(bytes: &[u8]) -> FsResult<MemTree> {
        let mut dec = Decoder::new(bytes);
        if dec.get_u32()? != Self::MAGIC {
            return Err(FsError::Corrupted("bad tree magic".into()));
        }
        if dec.get_u32()? != Self::VERSION {
            return Err(FsError::Corrupted("unsupported tree version".into()));
        }
        let next_ino = dec.get_u64()?;
        let count = dec.get_u64()?;
        let mut inodes = BTreeMap::new();
        for _ in 0..count {
            let inode = decode_inode(&mut dec)?;
            inodes.insert(inode.ino, Arc::new(inode));
        }
        if !inodes.contains_key(&ROOT_INO) {
            return Err(FsError::Corrupted("serialized tree has no root".into()));
        }
        Ok(MemTree { inodes, next_ino })
    }
}

/// Length of [`encode_inode`]'s output for `inode`.
pub fn encoded_inode_len(inode: &Inode) -> usize {
    let xattrs: usize = inode
        .xattrs
        .iter()
        .map(|(name, value)| 16 + name.len() + value.len())
        .sum();
    let entries: usize = inode.entries.keys().map(|name| 16 + name.len()).sum();
    // ino, kind, nlink, allocated, dir_size; data and symlink target with
    // their lengths; the two counts.
    8 + 1
        + 4
        + 8
        + 8
        + (8 + inode.data.len())
        + (8 + inode.symlink_target.len())
        + 8
        + xattrs
        + 8
        + entries
}

/// Serializes one inode (also used by the file systems' log/journal records).
pub fn encode_inode(enc: &mut Encoder<impl Sink>, inode: &Inode) {
    enc.put_u64(inode.ino);
    enc.put_u8(match inode.kind {
        FileType::Regular => 0,
        FileType::Directory => 1,
        FileType::Symlink => 2,
        FileType::Fifo => 3,
    });
    enc.put_u32(inode.nlink);
    enc.put_u64(inode.allocated);
    enc.put_u64(inode.dir_size);
    enc.put_bytes(&inode.data);
    enc.put_str(&inode.symlink_target);
    enc.put_u64(inode.xattrs.len() as u64);
    for (name, value) in &inode.xattrs {
        enc.put_str(name);
        enc.put_bytes(value);
    }
    enc.put_u64(inode.entries.len() as u64);
    for (name, child) in &inode.entries {
        enc.put_str(name);
        enc.put_u64(*child);
    }
}

/// Deserializes one inode.
pub fn decode_inode(dec: &mut Decoder<'_>) -> FsResult<Inode> {
    let ino = dec.get_u64()?;
    let kind = match dec.get_u8()? {
        0 => FileType::Regular,
        1 => FileType::Directory,
        2 => FileType::Symlink,
        3 => FileType::Fifo,
        other => {
            return Err(FsError::Corrupted(format!("unknown inode kind {other}")));
        }
    };
    let nlink = dec.get_u32()?;
    let allocated = dec.get_u64()?;
    let dir_size = dec.get_u64()?;
    let data = dec.get_bytes()?;
    let symlink_target = dec.get_str()?;
    let num_xattrs = dec.get_u64()?;
    let mut xattrs = BTreeMap::new();
    for _ in 0..num_xattrs {
        let name = dec.get_str()?;
        let value = dec.get_bytes()?;
        xattrs.insert(name, value);
    }
    let num_entries = dec.get_u64()?;
    let mut entries = BTreeMap::new();
    for _ in 0..num_entries {
        let name = dec.get_str_ref()?;
        let child = dec.get_u64()?;
        entries.insert(name.into(), child);
    }
    Ok(Inode {
        ino,
        kind,
        nlink,
        data,
        allocated,
        dir_size,
        entries,
        symlink_target,
        xattrs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with_layout() -> MemTree {
        let mut tree = MemTree::new();
        tree.mkdir("A").unwrap();
        tree.mkdir("B").unwrap();
        tree.create_file("foo").unwrap();
        tree.create_file("A/foo").unwrap();
        tree
    }

    #[test]
    fn create_and_resolve() {
        let tree = tree_with_layout();
        assert!(tree.exists("A/foo"));
        assert!(tree.exists("B"));
        assert!(!tree.exists("B/foo"));
        assert_eq!(tree.metadata("A").unwrap().file_type, FileType::Directory);
        assert_eq!(tree.metadata("foo").unwrap().file_type, FileType::Regular);
    }

    #[test]
    fn duplicate_create_fails() {
        let mut tree = tree_with_layout();
        assert!(matches!(
            tree.create_file("foo"),
            Err(FsError::AlreadyExists(_))
        ));
        assert!(matches!(tree.mkdir("A"), Err(FsError::AlreadyExists(_))));
    }

    #[test]
    fn missing_parent_fails() {
        let mut tree = MemTree::new();
        assert!(matches!(
            tree.create_file("missing/foo"),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn write_read_round_trip_and_allocation() {
        let mut tree = tree_with_layout();
        tree.write("foo", 0, &[7u8; 5000]).unwrap();
        assert_eq!(tree.metadata("foo").unwrap().size, 5000);
        assert_eq!(tree.metadata("foo").unwrap().blocks, 16); // 8192 bytes allocated
        assert_eq!(tree.read("foo", 0, 5000).unwrap(), vec![7u8; 5000]);
        // Sparse write leaves a zero-filled gap.
        tree.write("foo", 10_000, &[9u8; 10]).unwrap();
        assert_eq!(tree.read("foo", 5000, 5000).unwrap(), vec![0u8; 5000]);
        assert_eq!(tree.read("foo", 10_000, 10).unwrap(), vec![9u8; 10]);
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let mut tree = tree_with_layout();
        tree.write("foo", 0, &[3u8; 8192]).unwrap();
        tree.truncate("foo", 100).unwrap();
        assert_eq!(tree.metadata("foo").unwrap().size, 100);
        tree.truncate("foo", 4096).unwrap();
        assert_eq!(tree.read("foo", 100, 10).unwrap(), vec![0u8; 10]);
    }

    #[test]
    fn fallocate_keep_size_grows_blocks_not_size() {
        let mut tree = tree_with_layout();
        tree.write("foo", 0, &[1u8; 16 * 1024]).unwrap();
        tree.fallocate("foo", FallocMode::KeepSize, 16 * 1024, 4096)
            .unwrap();
        let meta = tree.metadata("foo").unwrap();
        assert_eq!(meta.size, 16 * 1024);
        assert_eq!(meta.blocks, 40); // 20 KiB allocated
        tree.fallocate("foo", FallocMode::Allocate, 0, 32 * 1024)
            .unwrap();
        assert_eq!(tree.metadata("foo").unwrap().size, 32 * 1024);
    }

    #[test]
    fn punch_hole_zeroes_and_keeps_size() {
        let mut tree = tree_with_layout();
        tree.write("foo", 0, &[5u8; 16 * 1024]).unwrap();
        tree.fallocate("foo", FallocMode::PunchHole, 4096, 4096)
            .unwrap();
        let meta = tree.metadata("foo").unwrap();
        assert_eq!(meta.size, 16 * 1024);
        assert_eq!(tree.read("foo", 4096, 4096).unwrap(), vec![0u8; 4096]);
        assert_eq!(tree.read("foo", 8192, 10).unwrap(), vec![5u8; 10]);
    }

    #[test]
    fn link_unlink_nlink_accounting() {
        let mut tree = tree_with_layout();
        tree.write("foo", 0, b"data").unwrap();
        tree.link("foo", "bar").unwrap();
        assert_eq!(tree.metadata("foo").unwrap().nlink, 2);
        assert_eq!(tree.read("bar", 0, 4).unwrap(), b"data");
        tree.unlink("foo").unwrap();
        assert!(!tree.exists("foo"));
        assert_eq!(tree.metadata("bar").unwrap().nlink, 1);
        assert_eq!(tree.read("bar", 0, 4).unwrap(), b"data");
        tree.unlink("bar").unwrap();
        assert!(!tree.exists("bar"));
    }

    #[test]
    fn link_to_directory_fails() {
        let mut tree = tree_with_layout();
        assert!(matches!(tree.link("A", "C"), Err(FsError::IsADirectory(_))));
    }

    #[test]
    fn rmdir_semantics() {
        let mut tree = tree_with_layout();
        assert!(matches!(
            tree.rmdir("A"),
            Err(FsError::DirectoryNotEmpty(_))
        ));
        tree.unlink("A/foo").unwrap();
        tree.rmdir("A").unwrap();
        assert!(!tree.exists("A"));
        assert!(matches!(tree.rmdir("foo"), Err(FsError::NotADirectory(_))));
        assert!(matches!(tree.rmdir("/"), Err(FsError::InvalidArgument(_))));
    }

    #[test]
    fn rmdir_with_stale_dir_size_fails() {
        let mut tree = tree_with_layout();
        tree.unlink("A/foo").unwrap();
        let ino = tree.resolve("A").unwrap();
        tree.inode_mut(ino).unwrap().dir_size = DIRENT_SIZE;
        let err = tree.rmdir("A").unwrap_err();
        assert!(matches!(err, FsError::DirectoryNotEmpty(_)));
    }

    #[test]
    fn directory_nlink_counts_subdirectories() {
        let mut tree = MemTree::new();
        tree.mkdir("A").unwrap();
        tree.mkdir("A/B").unwrap();
        tree.mkdir("A/C").unwrap();
        assert_eq!(tree.metadata("A").unwrap().nlink, 4);
        tree.rmdir("A/C").unwrap();
        assert_eq!(tree.metadata("A").unwrap().nlink, 3);
    }

    #[test]
    fn rename_file_replaces_target() {
        let mut tree = tree_with_layout();
        tree.write("foo", 0, b"source").unwrap();
        tree.create_file("B/bar").unwrap();
        tree.write("B/bar", 0, b"target").unwrap();
        tree.rename("foo", "B/bar").unwrap();
        assert!(!tree.exists("foo"));
        assert_eq!(tree.read("B/bar", 0, 6).unwrap(), b"source");
    }

    #[test]
    fn rename_directory_moves_subtree_and_links() {
        let mut tree = MemTree::new();
        tree.mkdir("A").unwrap();
        tree.mkdir("A/B").unwrap();
        tree.create_file("A/B/foo").unwrap();
        tree.mkdir("C").unwrap();
        tree.rename("A/B", "C/B").unwrap();
        assert!(tree.exists("C/B/foo"));
        assert!(!tree.exists("A/B"));
        assert_eq!(tree.metadata("A").unwrap().nlink, 2);
        assert_eq!(tree.metadata("C").unwrap().nlink, 3);
    }

    #[test]
    fn rename_into_own_subtree_fails() {
        let mut tree = MemTree::new();
        tree.mkdir("A").unwrap();
        tree.mkdir("A/B").unwrap();
        assert!(matches!(
            tree.rename("A", "A/B/A"),
            Err(FsError::InvalidArgument(_))
        ));
    }

    #[test]
    fn rename_onto_nonempty_directory_fails() {
        let mut tree = MemTree::new();
        tree.mkdir("A").unwrap();
        tree.mkdir("B").unwrap();
        tree.create_file("B/x").unwrap();
        assert!(matches!(
            tree.rename("A", "B"),
            Err(FsError::DirectoryNotEmpty(_))
        ));
        tree.unlink("B/x").unwrap();
        tree.rename("A", "B").unwrap();
        assert!(tree.exists("B"));
        assert!(!tree.exists("A"));
    }

    #[test]
    fn symlink_and_readlink() {
        let mut tree = tree_with_layout();
        tree.symlink("foo", "A/bar").unwrap();
        assert_eq!(tree.readlink("A/bar").unwrap(), "foo");
        assert_eq!(tree.metadata("A/bar").unwrap().file_type, FileType::Symlink);
        assert!(matches!(
            tree.readlink("foo"),
            Err(FsError::InvalidArgument(_))
        ));
    }

    #[test]
    fn xattr_round_trip() {
        let mut tree = tree_with_layout();
        tree.setxattr("foo", "user.one", b"1").unwrap();
        tree.setxattr("foo", "user.two", b"2").unwrap();
        assert_eq!(tree.getxattr("foo", "user.one").unwrap(), b"1");
        tree.removexattr("foo", "user.one").unwrap();
        assert!(matches!(
            tree.getxattr("foo", "user.one"),
            Err(FsError::NoXattr(_))
        ));
        assert!(matches!(
            tree.removexattr("foo", "user.absent"),
            Err(FsError::NoXattr(_))
        ));
    }

    #[test]
    fn paths_of_ino_reports_all_hard_links() {
        let mut tree = tree_with_layout();
        tree.link("foo", "A/link1").unwrap();
        tree.link("foo", "B/link2").unwrap();
        let ino = tree.resolve("foo").unwrap();
        assert_eq!(tree.paths_of_ino(ino), vec!["A/link1", "B/link2", "foo"]);
    }

    #[test]
    fn readdir_is_sorted() {
        let mut tree = MemTree::new();
        tree.create_file("zeta").unwrap();
        tree.create_file("alpha").unwrap();
        tree.mkdir("middle").unwrap();
        assert_eq!(tree.readdir("").unwrap(), vec!["alpha", "middle", "zeta"]);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut tree = tree_with_layout();
        tree.write("A/foo", 0, &[0xabu8; 6000]).unwrap();
        tree.setxattr("A/foo", "user.k", b"v").unwrap();
        tree.symlink("A/foo", "B/ln").unwrap();
        tree.link("foo", "B/hard").unwrap();
        let bytes = tree.encode();
        let decoded = MemTree::decode(&bytes).unwrap();
        assert_eq!(decoded, tree);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(MemTree::decode(&[0u8; 16]).is_err());
        assert!(MemTree::decode(b"short").is_err());
    }

    #[test]
    fn a_clone_shares_every_inode_and_a_write_unshares_only_its_own() {
        let mut tree = tree_with_layout();
        tree.write("A/foo", 0, &vec![9u8; 1 << 20]).unwrap();
        let snapshot = tree.clone();
        for (ino, inode) in &tree.inodes {
            assert!(
                Arc::ptr_eq(inode, &snapshot.inodes[ino]),
                "clone copied inode {ino}"
            );
        }

        tree.write("foo", 0, b"x").unwrap();
        let written = tree.resolve("foo").unwrap();
        for (ino, inode) in &tree.inodes {
            assert_eq!(
                Arc::ptr_eq(inode, &snapshot.inodes[ino]),
                *ino != written,
                "inode {ino} after a write to inode {written}"
            );
        }
        assert_eq!(snapshot.read("foo", 0, 1).unwrap(), b"");
        assert_eq!(snapshot.metadata("A/foo").unwrap().size, 1 << 20);

        // Operations that fail, or that free an inode, un-share nothing.
        let snapshot = tree.clone();
        assert!(tree.write("A", 0, b"x").is_err());
        assert!(tree.removexattr("A/foo", "user.absent").is_err());
        assert!(tree.truncate("A/foo", MAX_FILE_SIZE + 1).is_err());
        tree.unlink("A/foo").unwrap();
        let parent = tree.resolve("A").unwrap();
        for (ino, inode) in &tree.inodes {
            assert_eq!(Arc::ptr_eq(inode, &snapshot.inodes[ino]), *ino != parent);
        }
        assert_eq!(snapshot.metadata("A/foo").unwrap().size, 1 << 20);
    }

    #[test]
    fn sizes_from_workload_text_are_checked_before_anything_is_allocated() {
        let mut tree = tree_with_layout();
        tree.write("foo", 0, b"data").unwrap();
        let before = tree.clone();
        assert!(matches!(
            tree.truncate("foo", 1 << 62),
            Err(FsError::NoSpace)
        ));
        assert!(matches!(
            tree.write("foo", u64::MAX - 5, &[1u8; 10]),
            Err(FsError::InvalidArgument(_))
        ));
        assert!(matches!(
            tree.write("foo", MAX_FILE_SIZE, b"x"),
            Err(FsError::NoSpace)
        ));
        for mode in FallocMode::ALL {
            assert!(matches!(
                tree.fallocate("foo", mode, u64::MAX, 1),
                Err(FsError::InvalidArgument(_))
            ));
            assert!(matches!(
                tree.fallocate("foo", mode, MAX_FILE_SIZE, 4096),
                Err(FsError::NoSpace)
            ));
        }
        assert_eq!(tree, before, "a refused size changes nothing");
        assert_eq!(tree.read("foo", 2, u64::MAX).unwrap(), b"ta");
        assert_eq!(range_end(MAX_FILE_SIZE - 1, 1).unwrap(), MAX_FILE_SIZE);
    }

    #[test]
    fn inode_allocator_collision_is_detected() {
        let mut tree = MemTree::new();
        tree.create_file("a").unwrap();
        // Simulate a recovery bug resetting the allocator cursor.
        tree.set_next_ino(2);
        let err = tree.create_file("b").unwrap_err();
        assert!(matches!(err, FsError::Corrupted(_)));
    }
}
