//! Logical snapshots of a file system and the differences between them.
//!
//! CrashMonkey's *oracle* is "a reference file-system image … captured by
//! safely unmounting it so the file system completes any pending operations"
//! (§5.1). In this reproduction an oracle is a [`LogicalSnapshot`]: the
//! complete logical state (names, types, sizes, link counts, block counts,
//! data, xattrs) of the file system at a persistence point. The AutoChecker
//! compares oracle entries with the entries it reads from the recovered
//! crash state in place ([`EntrySnapshot::from_metadata`], then
//! [`EntrySnapshot::read_payload`] where a comparison needs it) and reports
//! any [`SnapshotDiff`]s for explicitly-persisted files.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use crate::error::{FsError, FsResult};
use crate::fs::FileSystem;
use crate::metadata::{FileType, Metadata};
use crate::path::{is_ancestor, join, normalize, SharedPath};

/// The captured state of a single file, directory, symlink, or fifo.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct EntrySnapshot {
    /// Entry type.
    pub file_type: FileType,
    /// Logical size in bytes.
    pub size: u64,
    /// Hard-link count.
    pub nlink: u32,
    /// Allocated 512-byte sectors.
    pub blocks: u64,
    /// File contents (regular files only).
    pub data: Option<Vec<u8>>,
    /// Symlink target (symlinks only).
    pub symlink_target: Option<String>,
    /// Sorted child names (directories only).
    pub children: Option<Vec<String>>,
    /// Extended attributes.
    pub xattrs: BTreeMap<String, Vec<u8>>,
    /// A digest of the fields above, filled by the first reader that needs
    /// one. Not part of the entry's value.
    pub digest: DigestCell,
}

impl std::fmt::Debug for EntrySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntrySnapshot")
            .field("file_type", &self.file_type)
            .field("size", &self.size)
            .field("nlink", &self.nlink)
            .field("blocks", &self.blocks)
            .field("data", &self.data)
            .field("symlink_target", &self.symlink_target)
            .field("children", &self.children)
            .field("xattrs", &self.xattrs)
            .finish()
    }
}

/// A fill-once memo of a content digest of the [`EntrySnapshot`] that holds
/// it, computed by whichever reader needs one (the triage key hashes every
/// entry it reads). Each entry allocation then pays for its digest once,
/// and the memo is freed with the entry.
///
/// The cell says what has been computed already, never what the entry
/// *is*: it always compares equal, hashes to nothing and is left out of the
/// entry's `Debug`. A clone starts empty, since cloning is how an entry is
/// copied before it changes (`Arc::make_mut`); code that changes an entry
/// in place resets the cell with [`Default`].
///
/// The digest is kept as bytes: a `u128` would align every entry to 16
/// bytes and add 16 more to each allocation.
#[derive(Default)]
pub struct DigestCell(OnceLock<[u8; 16]>);

impl DigestCell {
    /// The memoized digest, `None` until some reader filled the cell.
    pub fn get(&self) -> Option<u128> {
        self.0.get().copied().map(u128::from_le_bytes)
    }

    /// The memoized digest, filling an empty cell with `digest()` first.
    pub fn get_or_init(&self, digest: impl FnOnce() -> u128) -> u128 {
        u128::from_le_bytes(*self.0.get_or_init(|| digest().to_le_bytes()))
    }
}

impl Clone for DigestCell {
    /// An empty cell: the clone's digest is computed when it is first read.
    fn clone(&self) -> Self {
        DigestCell::default()
    }
}

impl PartialEq for DigestCell {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for DigestCell {}

impl std::hash::Hash for DigestCell {
    fn hash<H: std::hash::Hasher>(&self, _: &mut H) {}
}

impl std::fmt::Debug for DigestCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DigestCell")
    }
}

impl EntrySnapshot {
    /// The entry `meta` describes, without its payload: no data, symlink
    /// target or child names until [`read_payload`](Self::read_payload).
    pub fn from_metadata(meta: Metadata) -> EntrySnapshot {
        EntrySnapshot {
            file_type: meta.file_type,
            size: meta.size,
            nlink: meta.nlink,
            blocks: meta.blocks,
            data: None,
            symlink_target: None,
            children: None,
            xattrs: meta.xattrs,
            digest: DigestCell::default(),
        }
    }

    /// Reads the payload of the entry's type from `path` of `fs`: a regular
    /// file's data, a symlink's target, or a directory's sorted child names.
    pub fn read_payload(&mut self, fs: &dyn FileSystem, path: &str) -> FsResult<()> {
        match self.file_type {
            FileType::Regular => self.data = Some(fs.read(path, 0, self.size)?),
            FileType::Symlink => self.symlink_target = Some(fs.readlink(path)?),
            FileType::Directory => {
                let mut names = fs.readdir(path)?;
                names.sort();
                self.children = Some(names);
            }
            FileType::Fifo => {}
        }
        Ok(())
    }
}

/// A full logical capture of a file system.
///
/// Entries are reference-counted so snapshots can be cloned per checkpoint
/// in O(entries) pointer bumps, with unchanged entries structurally shared
/// between adjacent checkpoints — the representation behind the profiler's
/// incremental oracle maintenance. Paths are [`SharedPath`]s, so a clone
/// copies no string either, and a persisted set built from a snapshot
/// shares its paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogicalSnapshot {
    entries: BTreeMap<SharedPath, Arc<EntrySnapshot>>,
}

impl LogicalSnapshot {
    /// Captures the complete state of `fs` by walking it from the root.
    pub fn capture(fs: &dyn FileSystem) -> FsResult<LogicalSnapshot> {
        let mut snapshot = LogicalSnapshot::default();
        snapshot.walk(fs, "")?;
        Ok(snapshot)
    }

    /// Captures only the given paths (plus the root directory), without
    /// recursing into directories or reading any other file's data. Paths
    /// that do not exist are simply absent from the result; any error other
    /// than `NotFound` (an unreadable file system) is propagated.
    ///
    /// The AutoChecker reads a recovered crash state in place; this capture
    /// is the reference its debug builds and differential test compare with.
    pub fn capture_paths<'p>(
        fs: &dyn FileSystem,
        paths: impl IntoIterator<Item = &'p str>,
    ) -> FsResult<LogicalSnapshot> {
        let mut snapshot = LogicalSnapshot::default();
        snapshot.refresh_entry(fs, "")?;
        for path in paths {
            snapshot.refresh_entry(fs, path)?;
        }
        Ok(snapshot)
    }

    /// Captures the state of a single path without recursing into
    /// directories. Returns `Ok(None)` when the path does not exist.
    pub fn capture_entry(fs: &dyn FileSystem, path: &str) -> FsResult<Option<EntrySnapshot>> {
        let meta = match fs.metadata(path) {
            Ok(meta) => meta,
            Err(FsError::NotFound(_)) => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut entry = EntrySnapshot::from_metadata(meta);
        entry.read_payload(fs, path)?;
        Ok(Some(entry))
    }

    /// Re-captures a single path: replaces the stored entry with the file
    /// system's current state, or removes it when the path no longer exists.
    /// Directories are refreshed shallowly (metadata and child names only).
    pub fn refresh_entry(&mut self, fs: &dyn FileSystem, path: &str) -> FsResult<()> {
        let path = normalize(path);
        match Self::capture_entry(fs, &path)? {
            Some(entry) => match self.entries.get_mut(path.as_ref()) {
                Some(slot) => *slot = Arc::new(entry),
                None => {
                    self.entries.insert(path.into(), Arc::new(entry));
                }
            },
            None => {
                self.entries.remove(path.as_ref());
            }
        }
        Ok(())
    }

    /// Re-captures a whole subtree: removes every stored entry at or below
    /// `path`, then re-walks the subtree if it still exists. Used when a
    /// rename moves a subtree so stale descendant paths do not linger.
    pub fn refresh_subtree(&mut self, fs: &dyn FileSystem, path: &str) -> FsResult<()> {
        let path = normalize(path);
        self.entries
            .retain(|p, _| **p != *path && !is_ancestor(&path, p));
        match fs.metadata(&path) {
            Ok(_) => self.walk(fs, &path),
            Err(FsError::NotFound(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Inserts or replaces an entry verbatim (test and tooling use).
    pub fn insert(&mut self, path: impl Into<String>, entry: EntrySnapshot) {
        self.entries
            .insert(normalize(&path.into()).into(), Arc::new(entry));
    }

    fn walk(&mut self, fs: &dyn FileSystem, path: &str) -> FsResult<()> {
        let mut entry = EntrySnapshot::from_metadata(fs.metadata(path)?);
        entry.read_payload(fs, path)?;
        let children = entry.children.clone();
        self.entries.insert(path.into(), Arc::new(entry));
        for name in children.into_iter().flatten() {
            match self.walk(fs, &join(path, &name)) {
                Ok(()) => {}
                // Dangling directory entries (left behind by buggy log
                // replay) are treated as absent files.
                Err(FsError::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Number of captured entries (including the root directory).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the snapshot contains no entries (never the case for a
    /// successfully captured file system, which always has a root).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up one entry by path; a canonical path is looked up as it is,
    /// without a copy.
    pub fn get(&self, path: &str) -> Option<&EntrySnapshot> {
        self.entries.get(normalize(path).as_ref()).map(Arc::as_ref)
    }

    /// Looks up one entry as a shared handle (zero-copy: the profiler's
    /// persisted-set expectations alias oracle entries this way).
    pub fn get_shared(&self, path: &str) -> Option<Arc<EntrySnapshot>> {
        self.entries.get(normalize(path).as_ref()).cloned()
    }

    /// Looks up one entry together with the snapshot's own copy of its
    /// path, for a caller that keys something by the path: cloning the
    /// returned [`SharedPath`] copies no string.
    pub fn get_key_value(&self, path: &str) -> Option<(&SharedPath, &Arc<EntrySnapshot>)> {
        self.entries.get_key_value(normalize(path).as_ref())
    }

    /// Returns true if a path exists in the snapshot.
    pub fn contains(&self, path: &str) -> bool {
        self.get(path).is_some()
    }

    /// Iterates over `(path, entry)` pairs in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&SharedPath, &EntrySnapshot)> {
        self.entries
            .iter()
            .map(|(path, entry)| (path, entry.as_ref()))
    }

    /// Iterates over `(path, shared entry)` pairs in path order.
    pub fn iter_shared(&self) -> impl Iterator<Item = (&SharedPath, &Arc<EntrySnapshot>)> {
        self.entries.iter()
    }

    /// All captured paths.
    pub fn paths(&self) -> Vec<SharedPath> {
        self.entries.keys().cloned().collect()
    }

    /// Replaces the entry at `path` (if any) with the interner's canonical
    /// `Arc` for its content, deduplicating storage across snapshots.
    pub fn intern_entry(&mut self, path: &str, interner: &EntryInterner) {
        if let Some(entry) = self.entries.get_mut(normalize(path).as_ref()) {
            *entry = interner.intern(entry.clone());
        }
    }

    /// Interns every entry of the snapshot. Content equality is preserved —
    /// only the `Arc` identities change.
    pub fn intern_all(&mut self, interner: &EntryInterner) {
        for entry in self.entries.values_mut() {
            *entry = interner.intern(entry.clone());
        }
    }
}

/// A bounded, thread-safe content-addressed pool of [`EntrySnapshot`]s.
///
/// The profiler's incremental oracles already share unchanged entries
/// *within* one workload via `Arc`; across workloads each profile re-captures
/// near-identical entries (adjacent generated workloads touch the same small
/// file set). The interner extends the sharing across workloads: callers
/// exchange a freshly captured `Arc<EntrySnapshot>` for the canonical `Arc`
/// of any content-equal entry seen before, so a sweep's resident oracle data
/// collapses to one copy per distinct entry content.
///
/// Entries are keyed by content hash with full-equality verification on
/// collision, so interning never changes observable values — only `Arc`
/// identities. The pool's approximate retained size is bounded; exceeding
/// the bound clears the pool (already-handed-out `Arc`s stay alive with
/// their owners) rather than evicting piecemeal.
#[derive(Debug)]
pub struct EntryInterner {
    max_bytes: usize,
    inner: std::sync::Mutex<InternerPool>,
}

#[derive(Debug, Default)]
struct InternerPool {
    entries: std::collections::HashMap<u64, Vec<Arc<EntrySnapshot>>>,
    approx_bytes: usize,
}

impl EntryInterner {
    /// Default retained-size bound: 32 MiB of approximate entry content.
    pub const DEFAULT_MAX_BYTES: usize = 32 << 20;

    /// An interner with the [default](Self::DEFAULT_MAX_BYTES) size bound.
    pub fn new() -> Self {
        Self::with_max_bytes(Self::DEFAULT_MAX_BYTES)
    }

    /// An interner that clears itself when its approximate retained size
    /// exceeds `max_bytes`.
    pub fn with_max_bytes(max_bytes: usize) -> Self {
        EntryInterner {
            max_bytes,
            inner: std::sync::Mutex::new(InternerPool::default()),
        }
    }

    /// Returns the canonical `Arc` for `entry`'s content: the previously
    /// interned content-equal entry if one exists, otherwise `entry` itself
    /// (which becomes canonical).
    pub fn intern(&self, entry: Arc<EntrySnapshot>) -> Arc<EntrySnapshot> {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        entry.hash(&mut hasher);
        let key = hasher.finish();

        let mut pool = self.inner.lock().unwrap();
        let candidates = pool.entries.entry(key).or_default();
        for candidate in candidates.iter() {
            if **candidate == *entry {
                return Arc::clone(candidate);
            }
        }
        candidates.push(Arc::clone(&entry));
        pool.approx_bytes += approx_entry_bytes(&entry);
        if pool.approx_bytes > self.max_bytes {
            pool.entries.clear();
            pool.approx_bytes = 0;
        }
        entry
    }

    /// Number of distinct entry contents currently pooled.
    pub fn len(&self) -> usize {
        let pool = self.inner.lock().unwrap();
        pool.entries.values().map(Vec::len).sum()
    }

    /// True when the pool holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes of entry content currently retained.
    pub fn approx_bytes(&self) -> usize {
        self.inner.lock().unwrap().approx_bytes
    }
}

impl Default for EntryInterner {
    fn default() -> Self {
        Self::new()
    }
}

/// Approximate heap footprint of one entry's content (used only for the
/// interner's size bound, so constants need not be exact).
fn approx_entry_bytes(entry: &EntrySnapshot) -> usize {
    let mut bytes = std::mem::size_of::<EntrySnapshot>();
    bytes += entry.data.as_ref().map_or(0, Vec::len);
    bytes += entry.symlink_target.as_ref().map_or(0, String::len);
    bytes += entry
        .children
        .as_ref()
        .map_or(0, |c| c.iter().map(|n| n.len() + 24).sum());
    bytes += entry
        .xattrs
        .iter()
        .map(|(k, v)| k.len() + v.len() + 48)
        .sum::<usize>();
    bytes
}

/// A single difference between an oracle and a recovered crash state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotDiff {
    /// The path exists in the oracle but not in the crash state.
    Missing { path: String },
    /// The path exists in the crash state but not in the oracle.
    Unexpected { path: String },
    /// The entry type changed.
    TypeMismatch {
        path: String,
        expected: FileType,
        actual: FileType,
    },
    /// `st_size` differs.
    SizeMismatch {
        path: String,
        expected: u64,
        actual: u64,
    },
    /// `st_nlink` differs.
    NlinkMismatch {
        path: String,
        expected: u32,
        actual: u32,
    },
    /// `st_blocks` differs.
    BlocksMismatch {
        path: String,
        expected: u64,
        actual: u64,
    },
    /// File contents differ.
    DataMismatch {
        path: String,
        /// Offset of the first differing byte, when both sides have data.
        first_difference: Option<u64>,
    },
    /// Symlink target differs.
    SymlinkMismatch {
        path: String,
        expected: Option<String>,
        actual: Option<String>,
    },
    /// Extended-attribute sets differ.
    XattrMismatch {
        path: String,
        expected: Vec<String>,
        actual: Vec<String>,
    },
}

impl SnapshotDiff {
    /// The path the difference is about.
    pub fn path(&self) -> &str {
        match self {
            SnapshotDiff::Missing { path }
            | SnapshotDiff::Unexpected { path }
            | SnapshotDiff::TypeMismatch { path, .. }
            | SnapshotDiff::SizeMismatch { path, .. }
            | SnapshotDiff::NlinkMismatch { path, .. }
            | SnapshotDiff::BlocksMismatch { path, .. }
            | SnapshotDiff::DataMismatch { path, .. }
            | SnapshotDiff::SymlinkMismatch { path, .. }
            | SnapshotDiff::XattrMismatch { path, .. } => path,
        }
    }

    /// Serializes the difference with the workspace codec (used by sweep
    /// checkpoints to persist bug reports across runs).
    pub fn encode(&self, enc: &mut crate::codec::Encoder) {
        fn put_file_type(enc: &mut crate::codec::Encoder, t: FileType) {
            enc.put_u8(match t {
                FileType::Regular => 0,
                FileType::Directory => 1,
                FileType::Symlink => 2,
                FileType::Fifo => 3,
            });
        }
        fn put_opt_str(enc: &mut crate::codec::Encoder, s: &Option<String>) {
            enc.put_bool(s.is_some());
            if let Some(s) = s {
                enc.put_str(s);
            }
        }
        match self {
            SnapshotDiff::Missing { path } => {
                enc.put_u8(0);
                enc.put_str(path);
            }
            SnapshotDiff::Unexpected { path } => {
                enc.put_u8(1);
                enc.put_str(path);
            }
            SnapshotDiff::TypeMismatch {
                path,
                expected,
                actual,
            } => {
                enc.put_u8(2);
                enc.put_str(path);
                put_file_type(enc, *expected);
                put_file_type(enc, *actual);
            }
            SnapshotDiff::SizeMismatch {
                path,
                expected,
                actual,
            } => {
                enc.put_u8(3);
                enc.put_str(path);
                enc.put_u64(*expected);
                enc.put_u64(*actual);
            }
            SnapshotDiff::NlinkMismatch {
                path,
                expected,
                actual,
            } => {
                enc.put_u8(4);
                enc.put_str(path);
                enc.put_u32(*expected);
                enc.put_u32(*actual);
            }
            SnapshotDiff::BlocksMismatch {
                path,
                expected,
                actual,
            } => {
                enc.put_u8(5);
                enc.put_str(path);
                enc.put_u64(*expected);
                enc.put_u64(*actual);
            }
            SnapshotDiff::DataMismatch {
                path,
                first_difference,
            } => {
                enc.put_u8(6);
                enc.put_str(path);
                enc.put_bool(first_difference.is_some());
                enc.put_u64(first_difference.unwrap_or(0));
            }
            SnapshotDiff::SymlinkMismatch {
                path,
                expected,
                actual,
            } => {
                enc.put_u8(7);
                enc.put_str(path);
                put_opt_str(enc, expected);
                put_opt_str(enc, actual);
            }
            SnapshotDiff::XattrMismatch {
                path,
                expected,
                actual,
            } => {
                enc.put_u8(8);
                enc.put_str(path);
                enc.put_u64(expected.len() as u64);
                for name in expected {
                    enc.put_str(name);
                }
                enc.put_u64(actual.len() as u64);
                for name in actual {
                    enc.put_str(name);
                }
            }
        }
    }

    /// Deserializes a difference produced by [`SnapshotDiff::encode`].
    pub fn decode(dec: &mut crate::codec::Decoder<'_>) -> FsResult<SnapshotDiff> {
        fn get_file_type(dec: &mut crate::codec::Decoder<'_>) -> FsResult<FileType> {
            Ok(match dec.get_u8()? {
                0 => FileType::Regular,
                1 => FileType::Directory,
                2 => FileType::Symlink,
                3 => FileType::Fifo,
                other => {
                    return Err(FsError::Corrupted(format!(
                        "unknown file type code {other}"
                    )))
                }
            })
        }
        fn get_opt_str(dec: &mut crate::codec::Decoder<'_>) -> FsResult<Option<String>> {
            Ok(if dec.get_bool()? {
                Some(dec.get_str()?)
            } else {
                None
            })
        }
        fn get_strings(dec: &mut crate::codec::Decoder<'_>) -> FsResult<Vec<String>> {
            let count = dec.get_u64()? as usize;
            let mut out = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                out.push(dec.get_str()?);
            }
            Ok(out)
        }
        let tag = dec.get_u8()?;
        let path = dec.get_str()?;
        Ok(match tag {
            0 => SnapshotDiff::Missing { path },
            1 => SnapshotDiff::Unexpected { path },
            2 => SnapshotDiff::TypeMismatch {
                path,
                expected: get_file_type(dec)?,
                actual: get_file_type(dec)?,
            },
            3 => SnapshotDiff::SizeMismatch {
                path,
                expected: dec.get_u64()?,
                actual: dec.get_u64()?,
            },
            4 => SnapshotDiff::NlinkMismatch {
                path,
                expected: dec.get_u32()?,
                actual: dec.get_u32()?,
            },
            5 => SnapshotDiff::BlocksMismatch {
                path,
                expected: dec.get_u64()?,
                actual: dec.get_u64()?,
            },
            6 => {
                let has = dec.get_bool()?;
                let offset = dec.get_u64()?;
                SnapshotDiff::DataMismatch {
                    path,
                    first_difference: has.then_some(offset),
                }
            }
            7 => SnapshotDiff::SymlinkMismatch {
                path,
                expected: get_opt_str(dec)?,
                actual: get_opt_str(dec)?,
            },
            8 => SnapshotDiff::XattrMismatch {
                path,
                expected: get_strings(dec)?,
                actual: get_strings(dec)?,
            },
            other => {
                return Err(FsError::Corrupted(format!(
                    "unknown snapshot diff tag {other}"
                )))
            }
        })
    }

    /// Short tag used when grouping bug reports.
    pub fn tag(&self) -> &'static str {
        match self {
            SnapshotDiff::Missing { .. } => "missing",
            SnapshotDiff::Unexpected { .. } => "unexpected",
            SnapshotDiff::TypeMismatch { .. } => "type",
            SnapshotDiff::SizeMismatch { .. } => "size",
            SnapshotDiff::NlinkMismatch { .. } => "nlink",
            SnapshotDiff::BlocksMismatch { .. } => "blocks",
            SnapshotDiff::DataMismatch { .. } => "data",
            SnapshotDiff::SymlinkMismatch { .. } => "symlink",
            SnapshotDiff::XattrMismatch { .. } => "xattr",
        }
    }
}

impl std::fmt::Display for SnapshotDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotDiff::Missing { path } => write!(f, "{path}: missing after recovery"),
            SnapshotDiff::Unexpected { path } => {
                write!(f, "{path}: present after recovery but absent in oracle")
            }
            SnapshotDiff::TypeMismatch {
                path,
                expected,
                actual,
            } => write!(
                f,
                "{path}: type {} expected, found {}",
                expected.as_str(),
                actual.as_str()
            ),
            SnapshotDiff::SizeMismatch {
                path,
                expected,
                actual,
            } => {
                write!(f, "{path}: size {expected} expected, found {actual}")
            }
            SnapshotDiff::NlinkMismatch {
                path,
                expected,
                actual,
            } => {
                write!(f, "{path}: nlink {expected} expected, found {actual}")
            }
            SnapshotDiff::BlocksMismatch {
                path,
                expected,
                actual,
            } => {
                write!(f, "{path}: {expected} sectors expected, found {actual}")
            }
            SnapshotDiff::DataMismatch {
                path,
                first_difference,
            } => match first_difference {
                Some(offset) => write!(f, "{path}: data differs at offset {offset}"),
                None => write!(f, "{path}: data differs"),
            },
            SnapshotDiff::SymlinkMismatch {
                path,
                expected,
                actual,
            } => write!(
                f,
                "{path}: symlink target {expected:?} expected, found {actual:?}"
            ),
            SnapshotDiff::XattrMismatch {
                path,
                expected,
                actual,
            } => write!(f, "{path}: xattrs {expected:?} expected, found {actual:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(file_type: FileType, size: u64) -> EntrySnapshot {
        EntrySnapshot {
            file_type,
            size,
            nlink: 1,
            blocks: size.div_ceil(512),
            data: if file_type == FileType::Regular {
                Some(vec![7u8; size as usize])
            } else {
                None
            },
            symlink_target: None,
            children: None,
            xattrs: BTreeMap::new(),
            digest: DigestCell::default(),
        }
    }

    fn snapshot_with(entries: Vec<(&str, EntrySnapshot)>) -> LogicalSnapshot {
        let mut snapshot = LogicalSnapshot::default();
        for (path, e) in entries {
            snapshot.entries.insert(path.into(), Arc::new(e));
        }
        snapshot
    }

    #[test]
    fn the_digest_cell_is_no_part_of_the_entry() {
        use std::hash::{BuildHasher, RandomState};
        let filled = entry(FileType::Regular, 8);
        assert_eq!(filled.digest.get_or_init(|| 42), 42);
        assert_eq!(
            filled.digest.get_or_init(|| 7),
            42,
            "a filled cell keeps its digest"
        );
        let clone = filled.clone();
        assert_eq!(clone.digest.get(), None, "a clone starts empty");
        assert_eq!(clone, filled);
        let hasher = RandomState::new();
        assert_eq!(hasher.hash_one(&clone), hasher.hash_one(&filled));
        assert_eq!(format!("{clone:?}"), format!("{filled:?}"));
        assert!(!format!("{filled:?}").contains("digest"));
    }

    #[test]
    fn interner_deduplicates_content_equal_entries() {
        let interner = EntryInterner::new();
        let a = Arc::new(entry(FileType::Regular, 64));
        let b = Arc::new(entry(FileType::Regular, 64));
        assert!(!Arc::ptr_eq(&a, &b));
        let ia = interner.intern(a.clone());
        let ib = interner.intern(b);
        assert!(Arc::ptr_eq(&ia, &ib), "content-equal entries share one Arc");
        assert!(Arc::ptr_eq(&ia, &a), "first occurrence becomes canonical");
        assert_eq!(interner.len(), 1);

        let other = interner.intern(Arc::new(entry(FileType::Regular, 65)));
        assert!(!Arc::ptr_eq(&ia, &other));
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn interner_clears_when_over_budget() {
        let interner = EntryInterner::with_max_bytes(1024);
        for size in 0..64 {
            interner.intern(Arc::new(entry(FileType::Regular, size)));
        }
        // The bound is approximate, but the pool must stay near it instead
        // of growing without limit.
        assert!(interner.approx_bytes() <= 1024 + 4096);
        // Interning still works after a clear: this first call may itself
        // trip the bound, but the next two land in a near-empty pool and
        // must share one Arc.
        interner.intern(Arc::new(entry(FileType::Regular, 3)));
        let canonical = interner.intern(Arc::new(entry(FileType::Regular, 3)));
        assert!(Arc::ptr_eq(
            &canonical,
            &interner.intern(Arc::new(entry(FileType::Regular, 3)))
        ));
    }

    #[test]
    fn snapshot_intern_all_preserves_equality() {
        let interner = EntryInterner::new();
        let mut a = snapshot_with(vec![
            ("foo", entry(FileType::Regular, 10)),
            ("bar", entry(FileType::Regular, 10)),
        ]);
        let before = a.clone();
        a.intern_all(&interner);
        assert_eq!(a, before);
        // "foo" and "bar" have identical content, so they now share one Arc.
        let foo = a.get_shared("foo").unwrap();
        let bar = a.get_shared("bar").unwrap();
        assert!(Arc::ptr_eq(&foo, &bar));

        let mut b = snapshot_with(vec![("baz", entry(FileType::Regular, 10))]);
        b.intern_entry("baz", &interner);
        b.intern_entry("missing", &interner);
        assert!(Arc::ptr_eq(&foo, &b.get_shared("baz").unwrap()));
    }

    #[test]
    fn diff_codec_round_trips_every_variant() {
        let diffs = vec![
            SnapshotDiff::Missing { path: "a".into() },
            SnapshotDiff::Unexpected { path: "b".into() },
            SnapshotDiff::TypeMismatch {
                path: "c".into(),
                expected: FileType::Regular,
                actual: FileType::Directory,
            },
            SnapshotDiff::SizeMismatch {
                path: "d".into(),
                expected: 4096,
                actual: 0,
            },
            SnapshotDiff::NlinkMismatch {
                path: "e".into(),
                expected: 2,
                actual: 1,
            },
            SnapshotDiff::BlocksMismatch {
                path: "f".into(),
                expected: 32,
                actual: 8,
            },
            SnapshotDiff::DataMismatch {
                path: "g".into(),
                first_difference: Some(17),
            },
            SnapshotDiff::DataMismatch {
                path: "h".into(),
                first_difference: None,
            },
            SnapshotDiff::SymlinkMismatch {
                path: "i".into(),
                expected: Some("target".into()),
                actual: None,
            },
            SnapshotDiff::XattrMismatch {
                path: "j".into(),
                expected: vec!["user.a".into(), "user.b".into()],
                actual: vec![],
            },
        ];
        let mut enc = crate::codec::Encoder::new();
        for diff in &diffs {
            diff.encode(&mut enc);
        }
        let bytes = enc.finish();
        let mut dec = crate::codec::Decoder::new(&bytes);
        for diff in &diffs {
            assert_eq!(&SnapshotDiff::decode(&mut dec).unwrap(), diff);
        }
        assert!(dec.is_exhausted());
    }
}
