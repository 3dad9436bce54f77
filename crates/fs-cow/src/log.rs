//! The CowFs fsync log: item types, recording, and replay.
//!
//! This module is the analogue of btrfs's `tree-log.c`. On every
//! `fsync`/`fdatasync`/`msync` the *recorder* computes which log items the
//! persistence operation must emit, by diffing the working (in-memory) tree
//! against the committed (on-disk) tree; on recovery the *replay* applies
//! the items to a copy of the committed tree. Every btrfs bug in the paper's
//! corpus is an era-gated deviation in one of these two functions — exactly
//! where the corresponding patches landed in the real kernel.

use std::collections::{BTreeSet, HashMap, HashSet};

use b3_vfs::codec::{Decoder, Encoder};
use b3_vfs::error::{FsError, FsResult};
use b3_vfs::metadata::FileType;
use b3_vfs::path::{is_ancestor, split_parent};
use b3_vfs::tree::{
    decode_inode, encode_inode, encoded_inode_len, Inode, InodeId, MemTree, DIRENT_SIZE,
};
use b3_vfs::treefs::SyncKind;
use bytes::Bytes;

use crate::bugs::CowBugs;

/// One item in the fsync log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogItem {
    /// A logged inode: full metadata and (for regular files) data as of the
    /// persistence point. Directory entries are never carried by this item;
    /// they travel as [`LogItem::DentryAdd`] / [`LogItem::DentryRemove`].
    Inode {
        /// The logged inode (entries stripped for directories).
        inode: Inode,
    },
    /// Ensure that directory `dir_ino` has an entry `name -> child_ino`.
    DentryAdd {
        dir_ino: InodeId,
        name: String,
        child_ino: InodeId,
    },
    /// Ensure that directory `dir_ino` has no entry called `name`.
    DentryRemove { dir_ino: InodeId, name: String },
}

/// The accumulated log since the last full commit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogTree {
    /// Items in append order.
    pub items: Vec<LogItem>,
}

const LOG_MAGIC: u32 = 0x4c4f_4754; // "LOGT"

impl LogTree {
    /// Creates an empty log.
    pub fn new() -> Self {
        LogTree::default()
    }

    /// True if no items have been logged since the last commit.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Clears the log (done by a full commit).
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Returns true if the log already contains a `DentryAdd` for the given
    /// directory and name mapping to a *different* inode.
    pub fn has_conflicting_add(&self, dir_ino: InodeId, name: &str, child_ino: InodeId) -> bool {
        self.items.iter().any(|item| {
            matches!(item, LogItem::DentryAdd { dir_ino: d, name: n, child_ino: c }
                if *d == dir_ino && n == name && *c != child_ino)
        })
    }

    /// Returns true if the log contains a `DentryAdd` whose child is `ino`.
    pub fn has_add_for_child(&self, ino: InodeId) -> bool {
        self.items
            .iter()
            .any(|item| matches!(item, LogItem::DentryAdd { child_ino, .. } if *child_ino == ino))
    }

    /// Serializes the log, into one buffer of exactly the encoded length.
    pub fn encode(&self) -> Bytes {
        let item_len = |item: &LogItem| match item {
            LogItem::Inode { inode } => 1 + encoded_inode_len(inode),
            LogItem::DentryAdd { name, .. } => 1 + 8 + 8 + name.len() + 8,
            LogItem::DentryRemove { name, .. } => 1 + 8 + 8 + name.len(),
        };
        let len = 4 + 8 + self.items.iter().map(item_len).sum::<usize>();
        let mut enc = Encoder::exact(len);
        enc.put_u32(LOG_MAGIC);
        enc.put_u64(self.items.len() as u64);
        for item in &self.items {
            match item {
                LogItem::Inode { inode } => {
                    enc.put_u8(0);
                    encode_inode(&mut enc, inode);
                }
                LogItem::DentryAdd {
                    dir_ino,
                    name,
                    child_ino,
                } => {
                    enc.put_u8(1);
                    enc.put_u64(*dir_ino);
                    enc.put_str(name);
                    enc.put_u64(*child_ino);
                }
                LogItem::DentryRemove { dir_ino, name } => {
                    enc.put_u8(2);
                    enc.put_u64(*dir_ino);
                    enc.put_str(name);
                }
            }
        }
        enc.freeze()
    }

    /// Deserializes a log previously produced by [`LogTree::encode`].
    pub fn decode(bytes: &[u8]) -> FsResult<LogTree> {
        let mut dec = Decoder::new(bytes);
        if dec.get_u32()? != LOG_MAGIC {
            return Err(FsError::Unmountable("bad log magic".into()));
        }
        let count = dec.get_u64()? as usize;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            let tag = dec.get_u8()?;
            let item = match tag {
                0 => LogItem::Inode {
                    inode: decode_inode(&mut dec)?,
                },
                1 => LogItem::DentryAdd {
                    dir_ino: dec.get_u64()?,
                    name: dec.get_str()?,
                    child_ino: dec.get_u64()?,
                },
                2 => LogItem::DentryRemove {
                    dir_ino: dec.get_u64()?,
                    name: dec.get_str()?,
                },
                other => {
                    return Err(FsError::Unmountable(format!(
                        "unknown log item tag {other}"
                    )));
                }
            };
            items.push(item);
        }
        Ok(LogTree { items })
    }
}

/// Mutable per-transaction recorder state owned by [`crate::CowFs`]'s
/// persistence.
#[derive(Debug, Default, Clone)]
pub struct RecorderState {
    /// Inodes that already have an `Inode` item in the current log.
    pub logged_inos: HashSet<InodeId>,
    /// Inodes whose mmap dirty state was (incorrectly) cleared by a ranged
    /// msync — used by the `ranged_msync_clears_dirty` bug.
    pub mmap_clean: HashSet<InodeId>,
    /// Byte ranges punched per inode since the last commit — used by the
    /// `punch_hole_not_logged` bug.
    pub punched: HashMap<InodeId, Vec<(u64, u64)>>,
}

impl RecorderState {
    /// Resets all per-transaction state (done by a full commit).
    pub fn clear(&mut self) {
        self.logged_inos.clear();
        self.mmap_clean.clear();
        self.punched.clear();
    }
}

/// Context for recording one persistence operation.
pub struct Recorder<'a> {
    /// The in-memory (working) tree the syscall layer mutates.
    pub working: &'a MemTree,
    /// The last committed tree (what is durable without the log).
    pub committed: &'a MemTree,
    /// Active bug flags.
    pub bugs: &'a CowBugs,
    /// Items already in the log for this transaction.
    pub existing_log: &'a LogTree,
    /// Per-transaction recorder state.
    pub state: &'a mut RecorderState,
}

impl Recorder<'_> {
    /// Computes the log items a persistence call on `path` must append.
    pub fn record_persist(&mut self, path: &str, kind: SyncKind) -> FsResult<Vec<LogItem>> {
        let ino = self.working.resolve(path)?;
        let inode = self
            .working
            .inode(ino)
            .ok_or_else(|| FsError::Corrupted(format!("no inode {ino} for {path}")))?;
        let items = if inode.is_dir() {
            self.record_dir(ino)
        } else {
            self.record_file(ino, path, kind)
        };
        self.state.logged_inos.insert(ino);
        Ok(dedup_items(items))
    }

    // --- regular files / symlinks / fifos ------------------------------------------

    fn record_file(&mut self, ino: InodeId, fsync_path: &str, kind: SyncKind) -> Vec<LogItem> {
        let working = self.working.inode(ino).expect("resolved");
        let committed = self.committed.inode(ino);

        // Ranged-msync bug: a second msync after the dirty state was cleared
        // logs nothing at all.
        if self.bugs.ranged_msync_clears_dirty
            && matches!(kind, SyncKind::Msync { .. })
            && self.state.mmap_clean.contains(&ino)
        {
            return Vec::new();
        }

        let mut logged = working.clone();
        logged.entries.clear();

        self.apply_data_bugs(&mut logged, working, committed, kind, ino);

        let mut items = vec![LogItem::Inode { inode: logged }];
        self.record_file_names(&mut items, ino, fsync_path);
        items
    }

    /// Applies the data/metadata-content bug family to the inode item that
    /// is about to be logged.
    fn apply_data_bugs(
        &mut self,
        logged: &mut Inode,
        working: &Inode,
        committed: Option<&Inode>,
        kind: SyncKind,
        ino: InodeId,
    ) {
        let committed_nlink = committed.map_or(0, |c| c.nlink);
        let committed_len = committed.map_or(0, |c| c.data.len());

        // Ranged msync logs only the synced range; everything outside the
        // range reverts to committed contents, and the file is marked clean.
        if let SyncKind::Msync { offset, len } = kind {
            if self.bugs.ranged_msync_clears_dirty && (offset > 0 || offset + len < working.size())
            {
                let mut data = committed.map_or_else(
                    || vec![0u8; working.data.len()],
                    |c| {
                        let mut d = c.data.clone();
                        d.resize(working.data.len(), 0);
                        d
                    },
                );
                let end = ((offset + len) as usize).min(working.data.len());
                let start = (offset as usize).min(end);
                data[start..end].copy_from_slice(&working.data[start..end]);
                logged.data = data;
                self.state.mmap_clean.insert(ino);
            }
        }

        // Hard link added this transaction: the logged inode carries the
        // stale committed size and contents.
        if self.bugs.link_fsync_stale_inode && working.nlink > committed_nlink {
            match committed {
                Some(c) => {
                    logged.data = c.data.clone();
                    logged.allocated = c.allocated;
                }
                None => {
                    logged.data.clear();
                    logged.allocated = 0;
                }
            }
        } else if self.bugs.append_after_link_stale_extent
            && working.nlink > 1
            && committed.is_some()
            && working.data.len() > committed_len
        {
            // Appends to a multi-link file are not logged beyond the
            // committed size.
            logged.data.truncate(committed_len);
            logged.allocated = committed.map_or(0, |c| c.allocated);
        }

        // Holes punched this transaction are not logged: committed data
        // reappears in the punched range.
        if self.bugs.punch_hole_not_logged {
            if let (Some(c), Some(ranges)) = (committed, self.state.punched.get(&ino)) {
                for &(offset, len) in ranges {
                    let end = ((offset + len) as usize)
                        .min(c.data.len())
                        .min(logged.data.len());
                    let start = (offset as usize).min(end);
                    logged.data[start..end].copy_from_slice(&c.data[start..end]);
                }
                logged.allocated = logged.allocated.max(c.allocated);
            }
        }

        // Allocation beyond EOF is dropped from the log.
        if self.bugs.falloc_keep_size_not_logged {
            let covered = (logged.data.len() as u64).div_ceil(4096) * 4096;
            if logged.allocated > covered {
                logged.allocated = covered;
            }
        }

        // Removed xattrs reappear: the log carries the union of committed
        // and working xattrs.
        if self.bugs.xattr_removal_not_logged {
            if let Some(c) = committed {
                for (name, value) in &c.xattrs {
                    logged
                        .xattrs
                        .entry(name.clone())
                        .or_insert_with(|| value.clone());
                }
            }
        }
    }

    /// Logs the directory entries a file fsync must persist: new names,
    /// removed names, and the ancestor directories those names need.
    fn record_file_names(&mut self, items: &mut Vec<LogItem>, ino: InodeId, fsync_path: &str) {
        let working_names = self.working.paths_of_ino(ino);
        let committed_names = self.committed.paths_of_ino(ino);
        let committed_set: BTreeSet<&String> = committed_names.iter().collect();
        let working_set: BTreeSet<&String> = working_names.iter().collect();

        let new_names: Vec<&String> = working_names
            .iter()
            .filter(|n| !committed_set.contains(n))
            .collect();
        let removed_names: Vec<&String> = committed_names
            .iter()
            .filter(|n| !working_set.contains(n))
            .collect();

        let was_renamed = !new_names.is_empty() && !removed_names.is_empty();

        // Names this inode was given earlier in the current log (by previous
        // fsync calls in the same transaction) but no longer holds must be
        // superseded, otherwise replay resurrects them with a stale link
        // count. This mirrors btrfs updating an inode's back-references when
        // it is logged again after a rename.
        let mut stale_logged_names: Vec<(InodeId, String)> = Vec::new();
        for item in &self.existing_log.items {
            if let LogItem::DentryAdd {
                dir_ino,
                name,
                child_ino,
            } = item
            {
                if *child_ino == ino {
                    let still_current = self
                        .working
                        .inode(*dir_ino)
                        .is_some_and(|dir| dir.entries.get(name.as_str()) == Some(&ino));
                    if !still_current {
                        stale_logged_names.push((*dir_ino, name.clone()));
                    }
                }
            }
        }

        // The rename is simply not logged: the file recovers under its old
        // name, committed or logged earlier in this transaction.
        if self.bugs.fsync_renamed_file_skips_new_name
            && !new_names.is_empty()
            && (!removed_names.is_empty() || !stale_logged_names.is_empty())
        {
            return;
        }

        let fsync_path_norm = b3_vfs::path::normalize(fsync_path);
        let names_to_add: Vec<&String> = if self.bugs.fsync_skips_other_names {
            if self.state.logged_inos.contains(&ino) {
                Vec::new()
            } else {
                new_names
                    .iter()
                    .copied()
                    .filter(|n| **n == fsync_path_norm)
                    .collect()
            }
        } else {
            new_names.clone()
        };

        for name in &names_to_add {
            self.log_name(items, name, ino);
        }

        for name in &removed_names {
            if let Ok((dir_ino, entry_name)) = self.resolve_committed_parent(name) {
                items.push(LogItem::DentryRemove {
                    dir_ino,
                    name: entry_name,
                });
            }
            // If a different inode now occupies the removed name (rename
            // followed by re-creation), the correct log also carries that
            // occupant so the name does not vanish after replay.
            if let Ok(occupant) = self.working.resolve(name) {
                if occupant != ino {
                    if let Some(occupant_inode) = self.working.inode(occupant) {
                        let mut logged = occupant_inode.clone();
                        logged.entries.clear();
                        items.push(LogItem::Inode { inode: logged });
                        items.push(LogItem::DentryAdd {
                            dir_ino: self
                                .working
                                .resolve(b3_vfs::path::parent(name).unwrap_or_default())
                                .unwrap_or(b3_vfs::ROOT_INO),
                            name: b3_vfs::path::file_name(name)
                                .unwrap_or_default()
                                .to_string(),
                            child_ino: occupant,
                        });
                    }
                }
            }
        }

        // Durable-rename resurrection bug: after the correct rename items,
        // the log carries a stale back-reference for every removed name —
        // an Inode item with a *fresh* inode number holding the committed
        // (pre-rename) contents, plus a dentry pointing the old name at it.
        // Replay instantiates the ghost, so the old name reappears as a
        // **distinct** inode after recovery. Only renames of files that
        // existed at the last commit have stale content to resurrect.
        if self.bugs.durable_rename_resurrects_old_inode && was_renamed {
            for (offset, name) in removed_names.iter().enumerate() {
                let (Ok((dir_ino, entry_name)), Some(committed_inode)) = (
                    self.resolve_committed_parent(name),
                    self.committed.inode(ino),
                ) else {
                    continue;
                };
                let ghost_ino = self.working.next_ino() + offset as u64;
                let mut ghost = committed_inode.clone();
                ghost.ino = ghost_ino;
                ghost.nlink = 1;
                ghost.entries.clear();
                items.push(LogItem::Inode { inode: ghost });
                items.push(LogItem::DentryAdd {
                    dir_ino,
                    name: entry_name,
                    child_ino: ghost_ino,
                });
            }
        }

        for (dir_ino, name) in stale_logged_names {
            items.push(LogItem::DentryRemove {
                dir_ino,
                name: name.clone(),
            });
            // As above: if the stale name is now held by a different inode,
            // persist that occupant too.
            if let Some(dir) = self.working.inode(dir_ino) {
                if let Some(&occupant) = dir.entries.get(name.as_str()) {
                    if occupant != ino {
                        if let Some(occupant_inode) = self.working.inode(occupant) {
                            let mut logged = occupant_inode.clone();
                            logged.entries.clear();
                            items.push(LogItem::Inode { inode: logged });
                            items.push(LogItem::DentryAdd {
                                dir_ino,
                                name,
                                child_ino: occupant,
                            });
                        }
                    }
                }
            }
        }

        // Sibling-dentry bug: entries created in the fsynced file's parent
        // directory during this transaction are logged without their inodes.
        if self.bugs.fsync_logs_sibling_dentries {
            if let Ok((parent_ino, _)) = self.resolve_working_parent(&fsync_path_norm) {
                let committed_parent_entries = self
                    .committed
                    .inode(parent_ino)
                    .map(|d| d.entries.clone())
                    .unwrap_or_default();
                if let Some(parent) = self.working.inode(parent_ino) {
                    for (name, child) in &parent.entries {
                        if *child != ino && !committed_parent_entries.contains_key(name) {
                            items.push(LogItem::DentryAdd {
                                dir_ino: parent_ino,
                                name: name.to_string(),
                                child_ino: *child,
                            });
                        }
                    }
                }
            }
        }
    }

    /// Emits the items needed to make `path` (a name of `ino`) resolvable
    /// after replay: ancestor directory inodes and dentries for every
    /// component missing from the committed tree, then the entry itself.
    /// Also persists the previous owner of the name when the name is being
    /// reused (unless the corresponding bug is active).
    fn log_name(&mut self, items: &mut Vec<LogItem>, path: &str, ino: InodeId) {
        // Ancestors first.
        let Ok((parent_path, name)) = split_parent(path) else {
            return;
        };
        self.log_ancestors(items, parent_path);

        let Ok(parent_ino) = self.working.resolve(parent_path) else {
            return;
        };

        // If the committed tree has a *different* inode at this name, the
        // name is being reused; the previous owner may have been renamed
        // away and its new location must be persisted too.
        if let Ok(prev_ino) = self.committed.resolve(path) {
            if prev_ino != ino && !self.bugs.rename_source_not_logged {
                if let Some(prev_inode) = self.working.inode(prev_ino) {
                    let mut logged = prev_inode.clone();
                    logged.entries.clear();
                    items.push(LogItem::Inode { inode: logged });
                    let committed_names = self.committed.paths_of_ino(prev_ino);
                    for new_name in self.working.paths_of_ino(prev_ino) {
                        if !committed_names.contains(&new_name) {
                            let Ok((pparent, pname)) = split_parent(&new_name) else {
                                continue;
                            };
                            self.log_ancestors(items, pparent);
                            if let Ok(pparent_ino) = self.working.resolve(pparent) {
                                items.push(LogItem::DentryAdd {
                                    dir_ino: pparent_ino,
                                    name: pname.to_string(),
                                    child_ino: prev_ino,
                                });
                            }
                        }
                    }
                }
            }
        }

        items.push(LogItem::DentryAdd {
            dir_ino: parent_ino,
            name: name.to_string(),
            child_ino: ino,
        });
    }

    /// Logs inode + dentry items for every ancestor directory of `dir_path`
    /// that does not exist in the committed tree.
    fn log_ancestors(&mut self, items: &mut Vec<LogItem>, dir_path: &str) {
        let dir_path = b3_vfs::path::normalize(dir_path);
        for current in b3_vfs::path::prefixes(&dir_path) {
            let (prefix, comp) = split_parent(current).expect("a prefix is not the root");
            if self.committed.resolve(current).is_err() {
                if let Ok(dir_ino) = self.working.resolve(current) {
                    if let Some(dir_inode) = self.working.inode(dir_ino) {
                        let mut logged = dir_inode.clone();
                        logged.entries.clear();
                        items.push(LogItem::Inode { inode: logged });
                    }
                    if let Ok(parent_ino) = self.working.resolve(prefix) {
                        items.push(LogItem::DentryAdd {
                            dir_ino: parent_ino,
                            name: comp.to_string(),
                            child_ino: dir_ino,
                        });
                    }
                    // The ancestor may exist in the committed tree under an
                    // old name (it was renamed this transaction): a correct
                    // log removes the stale name so the directory does not
                    // appear in two places after recovery. The buggy path
                    // ("rename not persisted by fsync") skips this.
                    if !self.bugs.dir_fsync_misses_renames {
                        for old_name in self.committed.paths_of_ino(dir_ino) {
                            if let Ok((old_parent, old_entry)) =
                                self.resolve_committed_parent(&old_name)
                            {
                                items.push(LogItem::DentryRemove {
                                    dir_ino: old_parent,
                                    name: old_entry,
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    // --- directories ------------------------------------------------------------------

    fn record_dir(&mut self, dir_ino: InodeId) -> Vec<LogItem> {
        let working_dir = self.working.inode(dir_ino).expect("resolved").clone();
        let committed_entries = self
            .committed
            .inode(dir_ino)
            .map(|d| d.entries.clone())
            .unwrap_or_default();

        let mut items = Vec::new();

        // The directory itself (and, if it is new, the path leading to it).
        let dir_path = self
            .working
            .paths_of_ino(dir_ino)
            .into_iter()
            .next()
            .unwrap_or_default();
        if self.committed.inode(dir_ino).is_none() && !dir_path.is_empty() {
            self.log_name(&mut items, &dir_path, dir_ino);
        }
        let mut logged_dir = working_dir.clone();
        logged_dir.entries.clear();
        items.push(LogItem::Inode { inode: logged_dir });

        // Entry differences.
        for (name, child) in &working_dir.entries {
            let is_new = committed_entries.get(name) != Some(child);
            if !is_new {
                continue;
            }
            let child_inode = match self.working.inode(*child) {
                Some(inode) => inode.clone(),
                None => continue,
            };
            let child_in_committed = self.committed.inode(*child).is_some();

            match child_inode.kind {
                FileType::Directory => {
                    if self.bugs.dir_fsync_skips_new_subdirs && !child_in_committed {
                        continue;
                    }
                    self.log_subtree(&mut items, dir_ino, name, *child);
                }
                _ => {
                    // Broken rename atomicity: the name previously belonged to
                    // an inode that was already logged in this transaction;
                    // the replacing inode is not logged at all. (Checked
                    // before the new-file skip so the two 4.16-era bugs
                    // compose the way they do on real btrfs.)
                    let replaces_logged = self
                        .existing_log
                        .has_conflicting_add(dir_ino, name, *child)
                        || items.iter().any(|item| {
                            matches!(item, LogItem::DentryAdd { dir_ino: d, name: n, child_ino: c }
                                if *d == dir_ino && **n == **name && *c != *child)
                        });
                    if self.bugs.rename_over_logged_skips_new_inode && replaces_logged {
                        items.push(LogItem::DentryAdd {
                            dir_ino,
                            name: name.to_string(),
                            child_ino: *child,
                        });
                        continue;
                    }
                    if self.bugs.dir_fsync_skips_new_files && !child_in_committed {
                        continue;
                    }
                    let mut logged_child = child_inode.clone();
                    logged_child.entries.clear();
                    if self.bugs.symlink_target_not_logged && logged_child.kind == FileType::Symlink
                    {
                        logged_child.symlink_target.clear();
                    }
                    items.push(LogItem::Inode {
                        inode: logged_child,
                    });
                    items.push(LogItem::DentryAdd {
                        dir_ino,
                        name: name.to_string(),
                        child_ino: *child,
                    });
                }
            }
        }

        for name in committed_entries.keys() {
            if !working_dir.entries.contains_key(name) {
                items.push(LogItem::DentryRemove {
                    dir_ino,
                    name: name.to_string(),
                });
            }
        }

        // Renames into or out of the directory's subtree.
        if !self.bugs.dir_fsync_misses_renames {
            self.log_subtree_renames(&mut items, &dir_path);
        }

        items
    }

    /// Recursively logs a (new) subtree rooted at `child` under `dir_ino`.
    fn log_subtree(
        &mut self,
        items: &mut Vec<LogItem>,
        dir_ino: InodeId,
        name: &str,
        child: InodeId,
    ) {
        let Some(child_inode) = self.working.inode(child) else {
            return;
        };
        let mut logged = child_inode.clone();
        logged.entries.clear();
        if self.bugs.symlink_target_not_logged && logged.kind == FileType::Symlink {
            logged.symlink_target.clear();
        }
        items.push(LogItem::Inode { inode: logged });
        items.push(LogItem::DentryAdd {
            dir_ino,
            name: name.to_string(),
            child_ino: child,
        });
        if child_inode.kind == FileType::Directory {
            for (grand_name, grand_child) in child_inode.entries.clone() {
                self.log_subtree(items, child, &grand_name, grand_child);
            }
        }
    }

    /// Logs every inode that moved into or out of `dir_path`'s subtree this
    /// transaction, with its new dentry and the removal of its old one.
    fn log_subtree_renames(&mut self, items: &mut Vec<LogItem>, dir_path: &str) {
        for inode in self.committed.inodes() {
            let committed_names = self.committed.paths_of_ino(inode.ino);
            if committed_names.is_empty() {
                continue;
            }
            let working_names = self.working.paths_of_ino(inode.ino);
            if working_names == committed_names || working_names.is_empty() {
                continue;
            }
            let involved = committed_names
                .iter()
                .chain(working_names.iter())
                .any(|p| is_ancestor(dir_path, p));
            if !involved {
                continue;
            }
            if let Some(working_inode) = self.working.inode(inode.ino) {
                let mut logged = working_inode.clone();
                logged.entries.clear();
                items.push(LogItem::Inode { inode: logged });
                for name in &working_names {
                    if !committed_names.contains(name) {
                        self.log_name(items, name, inode.ino);
                    }
                }
                for name in &committed_names {
                    if !working_names.contains(name) {
                        if let Ok((dir_ino, entry_name)) = self.resolve_committed_parent(name) {
                            // When a directory is renamed, its children keep
                            // the same (directory inode, name) pair even
                            // though their path changed; removing that pair
                            // would delete the entry we just logged.
                            let re_added = items.iter().any(|item| {
                                matches!(item, LogItem::DentryAdd { dir_ino: d, name: n, .. }
                                    if *d == dir_ino && n == &entry_name)
                            });
                            if !re_added {
                                items.push(LogItem::DentryRemove {
                                    dir_ino,
                                    name: entry_name,
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    // --- helpers -----------------------------------------------------------------------

    fn resolve_committed_parent(&self, path: &str) -> FsResult<(InodeId, String)> {
        let (parent, name) = split_parent(path)?;
        let dir_ino = self.committed.resolve(parent)?;
        Ok((dir_ino, name.to_string()))
    }

    fn resolve_working_parent(&self, path: &str) -> FsResult<(InodeId, String)> {
        let (parent, name) = split_parent(path)?;
        let dir_ino = self.working.resolve(parent)?;
        Ok((dir_ino, name.to_string()))
    }
}

/// Removes exact-duplicate items while preserving order (keeping the last
/// `Inode` item for an inode so later metadata wins, and the first of
/// identical dentry items).
fn dedup_items(items: Vec<LogItem>) -> Vec<LogItem> {
    let mut out: Vec<LogItem> = Vec::with_capacity(items.len());
    for item in items {
        match &item {
            LogItem::Inode { inode } => {
                if let Some(pos) = out.iter().position(
                    |existing| matches!(existing, LogItem::Inode { inode: e } if e.ino == inode.ino),
                ) {
                    out[pos] = item;
                } else {
                    out.push(item);
                }
            }
            _ => {
                if !out.contains(&item) {
                    out.push(item);
                }
            }
        }
    }
    out
}

/// Replays a log onto a copy of the committed tree, producing the recovered
/// tree. Returns [`FsError::Unmountable`] when replay cannot proceed.
pub fn replay(committed: &MemTree, log: &LogTree, bugs: &CowBugs) -> FsResult<MemTree> {
    let mut tree = committed.clone();
    for item in &log.items {
        match item {
            LogItem::Inode { inode } => {
                let mut replayed = inode.clone();
                if replayed.kind == FileType::Directory {
                    // Keep whatever entries the tree currently has for this
                    // directory; entries only change through dentry items,
                    // and the directory size is rebuilt from those entries so
                    // the on-disk bookkeeping stays consistent (the
                    // double-count bug below deliberately breaks this).
                    replayed.entries = tree
                        .inode(replayed.ino)
                        .map(|existing| existing.entries.clone())
                        .unwrap_or_default();
                    replayed.dir_size = replayed.entries.len() as u64 * DIRENT_SIZE;
                }
                tree.insert_inode_raw(replayed);
            }
            LogItem::DentryAdd {
                dir_ino,
                name,
                child_ino,
            } => {
                let existing = {
                    let dir = tree.inode(*dir_ino).ok_or_else(|| {
                        FsError::Unmountable(format!(
                            "log replay: dentry targets missing directory inode {dir_ino}"
                        ))
                    })?;
                    if !dir.is_dir() {
                        return Err(FsError::Unmountable(format!(
                            "log replay: dentry targets non-directory inode {dir_ino}"
                        )));
                    }
                    dir.entries.get(name.as_str()).copied()
                };
                let dir = tree.inode_mut(*dir_ino).expect("checked above");
                match existing {
                    Some(existing_child) if existing_child == *child_ino => {
                        if bugs.replay_dup_dentry_double_count {
                            dir.dir_size += DIRENT_SIZE;
                        }
                    }
                    Some(existing_child) => {
                        if bugs.name_reuse_breaks_replay {
                            return Err(FsError::Unmountable(format!(
                                "log replay: conflicting entries for '{name}' \
                                 (existing inode {existing_child}, logged inode {child_ino})"
                            )));
                        }
                        dir.entries.insert(name.as_str().into(), *child_ino);
                        if bugs.replay_dup_dentry_double_count {
                            dir.dir_size += DIRENT_SIZE;
                        }
                    }
                    None => {
                        dir.entries.insert(name.as_str().into(), *child_ino);
                        dir.dir_size += DIRENT_SIZE;
                        if bugs.replay_dup_dentry_double_count {
                            dir.dir_size += DIRENT_SIZE;
                        }
                    }
                }
            }
            LogItem::DentryRemove { dir_ino, name } => {
                let Some(dir) = tree.inode(*dir_ino) else {
                    continue;
                };
                let Some(&child) = dir.entries.get(name.as_str()) else {
                    continue;
                };
                // The multilink check looks at the *committed* inode: the
                // real bug skipped removals for inodes that had extra links
                // at the start of the transaction.
                let child_multilink = committed.inode(child).is_some_and(|c| c.nlink > 1);
                if bugs.replay_skips_dentry_removal_multilink && child_multilink {
                    continue;
                }
                if bugs.replay_keeps_old_dentry_after_rename && log.has_add_for_child(child) {
                    continue;
                }
                let dir = tree.inode_mut(*dir_ino).expect("checked above");
                dir.entries.remove(name.as_str());
                dir.dir_size = dir.dir_size.saturating_sub(DIRENT_SIZE);
            }
        }
    }

    if bugs.replay_resets_inode_allocator {
        // The real bug only bites when log replay instantiated inodes inside
        // a directory that itself was created in the replayed transaction
        // (the "mkdir; creat; fsync file" shape): the allocator cursor is
        // then restored from the stale committed value and the next creation
        // collides with a replayed inode.
        let replayed_new_dir = log.items.iter().any(|item| {
            matches!(item, LogItem::Inode { inode }
                if inode.kind == FileType::Directory && committed.inode(inode.ino).is_none())
        });
        if replayed_new_dir {
            tree.set_next_ino(committed.next_ino());
        }
    }

    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use b3_vfs::MutantSet;

    fn recorder_fixture(
        working: &MemTree,
        committed: &MemTree,
        bugs: &CowBugs,
    ) -> (LogTree, RecorderState) {
        let _ = (working, committed, bugs);
        (LogTree::new(), RecorderState::default())
    }

    fn record(
        working: &MemTree,
        committed: &MemTree,
        bugs: &CowBugs,
        path: &str,
        kind: SyncKind,
    ) -> Vec<LogItem> {
        let (log, mut state) = recorder_fixture(working, committed, bugs);
        let mut recorder = Recorder {
            working,
            committed,
            bugs,
            existing_log: &log,
            state: &mut state,
        };
        recorder.record_persist(path, kind).unwrap()
    }

    #[test]
    fn log_round_trip() {
        let mut tree = MemTree::new();
        tree.create_file("foo").unwrap();
        tree.write("foo", 0, b"hello").unwrap();
        let ino = tree.resolve("foo").unwrap();
        let log = LogTree {
            items: vec![
                LogItem::Inode {
                    inode: tree.inode(ino).unwrap().clone(),
                },
                LogItem::DentryAdd {
                    dir_ino: 1,
                    name: "foo".into(),
                    child_ino: ino,
                },
                LogItem::DentryRemove {
                    dir_ino: 1,
                    name: "old".into(),
                },
            ],
        };
        let decoded = LogTree::decode(&log.encode()).unwrap();
        assert_eq!(decoded, log);
    }

    #[test]
    fn correct_fsync_of_new_file_survives_replay() {
        let committed = MemTree::new();
        let mut working = committed.clone();
        working.mkdir("A").unwrap();
        working.create_file("A/foo").unwrap();
        working.write("A/foo", 0, &[9u8; 8192]).unwrap();

        let items = record(
            &working,
            &committed,
            &CowBugs::none(),
            "A/foo",
            SyncKind::Fsync,
        );
        let log = LogTree { items };
        let recovered = replay(&committed, &log, &CowBugs::none()).unwrap();
        assert_eq!(recovered.metadata("A/foo").unwrap().size, 8192);
        assert_eq!(recovered.read("A/foo", 0, 10).unwrap(), vec![9u8; 10]);
        // The un-fsynced rest of the transaction (nothing here) is absent,
        // and the directory bookkeeping is consistent: A can be emptied and
        // removed.
        let mut check = recovered.clone();
        check.unlink("A/foo").unwrap();
        check.rmdir("A").unwrap();
    }

    #[test]
    fn link_fsync_stale_inode_bug_loses_data() {
        let mut committed = MemTree::new();
        committed.mkdir("A").unwrap();
        committed.create_file("A/foo").unwrap();
        let mut working = committed.clone();
        working.write("A/foo", 0, &[7u8; 16 * 1024]).unwrap();
        working.link("A/foo", "A/bar").unwrap();

        let bugs = CowBugs {
            link_fsync_stale_inode: true,
            ..CowBugs::none()
        };
        let items = record(&working, &committed, &bugs, "A/foo", SyncKind::Fsync);
        let recovered = replay(&committed, &LogTree { items }, &bugs).unwrap();
        assert_eq!(
            recovered.metadata("A/foo").unwrap().size,
            0,
            "the logged inode must carry the stale committed size"
        );

        // Without the bug the data survives.
        let good = record(
            &working,
            &committed,
            &CowBugs::none(),
            "A/foo",
            SyncKind::Fsync,
        );
        let recovered = replay(&committed, &LogTree { items: good }, &CowBugs::none()).unwrap();
        assert_eq!(recovered.metadata("A/foo").unwrap().size, 16 * 1024);
        assert!(recovered.exists("A/bar"));
    }

    #[test]
    fn name_reuse_breaks_replay_makes_fs_unmountable() {
        // Figure 1: create foo; link foo bar; sync; unlink bar; create bar; fsync bar.
        let mut committed = MemTree::new();
        committed.create_file("foo").unwrap();
        committed.link("foo", "bar").unwrap();
        let mut working = committed.clone();
        working.unlink("bar").unwrap();
        working.create_file("bar").unwrap();

        let bugs = CowBugs {
            name_reuse_breaks_replay: true,
            ..CowBugs::none()
        };
        let items = record(&working, &committed, &bugs, "bar", SyncKind::Fsync);
        let err = replay(&committed, &LogTree { items }, &bugs).unwrap_err();
        assert!(matches!(err, FsError::Unmountable(_)));

        // A patched kernel replays the same log cleanly.
        let good_items = record(
            &working,
            &committed,
            &CowBugs::none(),
            "bar",
            SyncKind::Fsync,
        );
        let recovered =
            replay(&committed, &LogTree { items: good_items }, &CowBugs::none()).unwrap();
        assert!(recovered.exists("bar"));
        assert!(recovered.exists("foo"));
    }

    #[test]
    fn dup_dentry_double_count_makes_dir_unremovable() {
        // Workload 21: mkdir A; touch A/foo; sync; touch A/bar; fsync A; fsync A/bar.
        let mut committed = MemTree::new();
        committed.mkdir("A").unwrap();
        committed.create_file("A/foo").unwrap();
        let mut working = committed.clone();
        working.create_file("A/bar").unwrap();

        let bugs = CowBugs {
            replay_dup_dentry_double_count: true,
            ..CowBugs::none()
        };
        let mut log = LogTree::new();
        let mut state = RecorderState::default();
        for path in ["A", "A/bar"] {
            let mut recorder = Recorder {
                working: &working,
                committed: &committed,
                bugs: &bugs,
                existing_log: &log,
                state: &mut state,
            };
            let items = recorder.record_persist(path, SyncKind::Fsync).unwrap();
            log.items.extend(items);
        }
        let recovered = replay(&committed, &log, &bugs).unwrap();
        let mut check = recovered.clone();
        check.unlink("A/foo").unwrap();
        check.unlink("A/bar").unwrap();
        assert!(
            matches!(check.rmdir("A"), Err(FsError::DirectoryNotEmpty(_))),
            "directory must be un-removable due to stale size"
        );

        // Patched replay of the same log keeps the directory removable.
        let recovered = replay(&committed, &log, &CowBugs::none()).unwrap();
        let mut check = recovered.clone();
        check.unlink("A/foo").unwrap();
        check.unlink("A/bar").unwrap();
        check.rmdir("A").unwrap();
    }

    #[test]
    fn dir_fsync_skips_new_files_loses_children() {
        // New bug 6: files created in a directory disappear even though the
        // directory itself was fsynced.
        let committed = MemTree::new();
        let mut working = committed.clone();
        working.mkdir("test").unwrap();
        working.mkdir("test/A").unwrap();
        working.create_file("test/foo").unwrap();
        working.create_file("test/A/foo").unwrap();

        let bugs = CowBugs {
            dir_fsync_skips_new_files: true,
            ..CowBugs::none()
        };
        let items = record(&working, &committed, &bugs, "test", SyncKind::Fsync);
        let recovered = replay(&committed, &LogTree { items }, &bugs).unwrap();
        assert!(recovered.exists("test"));
        assert!(!recovered.exists("test/foo"), "new child file must be lost");

        let good = record(
            &working,
            &committed,
            &CowBugs::none(),
            "test",
            SyncKind::Fsync,
        );
        let recovered = replay(&committed, &LogTree { items: good }, &CowBugs::none()).unwrap();
        assert!(recovered.exists("test/foo"));
        assert!(recovered.exists("test/A/foo"));
    }

    #[test]
    fn fsync_skips_other_names_loses_hard_link() {
        // New bug 7: link foo A/bar; fsync foo — A/bar must survive on a
        // correct file system and disappear with the bug.
        let committed = MemTree::new();
        let mut working = committed.clone();
        working.create_file("foo").unwrap();
        working.mkdir("A").unwrap();
        working.link("foo", "A/bar").unwrap();

        let bugs = CowBugs {
            fsync_skips_other_names: true,
            ..CowBugs::none()
        };
        let items = record(&working, &committed, &bugs, "foo", SyncKind::Fsync);
        let recovered = replay(&committed, &LogTree { items }, &bugs).unwrap();
        assert!(recovered.exists("foo"));
        assert!(!recovered.exists("A/bar"));

        let good = record(
            &working,
            &committed,
            &CowBugs::none(),
            "foo",
            SyncKind::Fsync,
        );
        let recovered = replay(&committed, &LogTree { items: good }, &CowBugs::none()).unwrap();
        assert!(recovered.exists("A/bar"));
    }

    #[test]
    fn renamed_file_recovers_under_old_name_with_bug() {
        // Workload 22: touch A/foo; write; sync; mv A/foo A/bar; fsync A/bar.
        let mut committed = MemTree::new();
        committed.mkdir("A").unwrap();
        committed.create_file("A/foo").unwrap();
        committed.write("A/foo", 0, &[1u8; 4096]).unwrap();
        let mut working = committed.clone();
        working.rename("A/foo", "A/bar").unwrap();

        let bugs = CowBugs {
            fsync_renamed_file_skips_new_name: true,
            ..CowBugs::none()
        };
        let items = record(&working, &committed, &bugs, "A/bar", SyncKind::Fsync);
        let recovered = replay(&committed, &LogTree { items }, &bugs).unwrap();
        assert!(recovered.exists("A/foo"), "old name persists with the bug");
        assert!(!recovered.exists("A/bar"));

        let good = record(
            &working,
            &committed,
            &CowBugs::none(),
            "A/bar",
            SyncKind::Fsync,
        );
        let recovered = replay(&committed, &LogTree { items: good }, &CowBugs::none()).unwrap();
        assert!(recovered.exists("A/bar"));
        assert!(!recovered.exists("A/foo"));
    }

    #[test]
    fn durable_rename_resurrects_old_name_as_distinct_inode() {
        // write A/foo; sync; rename A/foo A/bar; fsync A/bar — with the bug,
        // recovery shows A/foo again, holding the committed content but a
        // *different* inode than A/bar.
        let mut committed = MemTree::new();
        committed.mkdir("A").unwrap();
        committed.create_file("A/foo").unwrap();
        committed.write("A/foo", 0, &[5u8; 8192]).unwrap();
        let mut working = committed.clone();
        working.rename("A/foo", "A/bar").unwrap();

        let bugs = CowBugs {
            durable_rename_resurrects_old_inode: true,
            ..CowBugs::none()
        };
        let items = record(&working, &committed, &bugs, "A/bar", SyncKind::Fsync);
        let recovered = replay(&committed, &LogTree { items }, &bugs).unwrap();
        assert!(recovered.exists("A/bar"), "the rename itself is durable");
        assert!(
            recovered.exists("A/foo"),
            "the old name must be resurrected"
        );
        let old_ino = recovered.resolve("A/foo").unwrap();
        let new_ino = recovered.resolve("A/bar").unwrap();
        assert_ne!(
            old_ino, new_ino,
            "the resurrected old name must be a distinct inode"
        );
        assert_eq!(
            recovered.metadata("A/foo").unwrap().size,
            8192,
            "the ghost carries the committed contents"
        );

        // Without the bug the old name is gone after recovery.
        let good = record(
            &working,
            &committed,
            &CowBugs::none(),
            "A/bar",
            SyncKind::Fsync,
        );
        let recovered = replay(&committed, &LogTree { items: good }, &CowBugs::none()).unwrap();
        assert!(recovered.exists("A/bar"));
        assert!(!recovered.exists("A/foo"));
    }

    #[test]
    fn dedup_keeps_latest_inode_item() {
        let mut tree = MemTree::new();
        tree.create_file("f").unwrap();
        let ino = tree.resolve("f").unwrap();
        let mut old = tree.inode(ino).unwrap().clone();
        old.data = vec![1];
        let mut new = old.clone();
        new.data = vec![1, 2, 3];
        let items = dedup_items(vec![
            LogItem::Inode { inode: old },
            LogItem::DentryAdd {
                dir_ino: 1,
                name: "f".into(),
                child_ino: ino,
            },
            LogItem::DentryAdd {
                dir_ino: 1,
                name: "f".into(),
                child_ino: ino,
            },
            LogItem::Inode { inode: new.clone() },
        ]);
        assert_eq!(items.len(), 2);
        assert!(matches!(&items[0], LogItem::Inode { inode } if inode.data == new.data));
    }
}
