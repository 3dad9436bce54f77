//! The string-keyed namespace simulator phase 4 ran before paths were
//! interned, kept verbatim as the reference `b3_ace::sim` is checked
//! against (`block_enumeration.rs`): every path a `String` key of a
//! `BTreeMap`, every rejection a formatted message.
//!
//! Phase 4 must (a) prepend the dependency operations a workload needs
//! (creating parent directories and target files) and (b) discard argument
//! combinations that can never execute successfully on a POSIX file system
//! (linking over an existing name, removing a non-empty directory, …). Both
//! require tracking which paths exist and what they are as the workload's
//! operations are applied in order — that is all [`SimState`] does.

#![allow(dead_code)]

use std::collections::BTreeMap;

use b3_vfs::path::{is_ancestor, join, normalize, parent, prefixes};
use b3_vfs::workload::{FileSet, Op};

/// The kind of a simulated namespace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    File,
    Dir,
    Symlink,
    Fifo,
}

/// Result of simulating a workload: either the dependency prefix it needs,
/// or the reason it can never execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimOutcome {
    /// The workload is executable once the given setup operations run first.
    Valid { setup: Vec<Op> },
    /// The workload can never execute successfully.
    Invalid(String),
}

/// Tracks which paths exist while a candidate workload is simulated.
#[derive(Debug, Default, Clone)]
pub struct SimState {
    entries: BTreeMap<String, SimKind>,
    xattrs: BTreeMap<String, Vec<String>>,
    setup: Vec<Op>,
}

impl SimState {
    /// Creates an empty namespace (just the root).
    pub fn new() -> Self {
        SimState::default()
    }

    /// The dependency operations the simulated ops needed so far, in the
    /// order phase 4 prepends them.
    pub fn setup(&self) -> &[Op] {
        &self.setup
    }

    fn kind(&self, path: &str) -> Option<SimKind> {
        let path = normalize(path);
        if path.is_empty() {
            return Some(SimKind::Dir);
        }
        self.entries.get(path.as_ref()).copied()
    }

    fn exists(&self, path: &str) -> bool {
        self.kind(path).is_some()
    }

    fn insert(&mut self, path: &str, kind: SimKind) {
        self.entries.insert(normalize(path).into_owned(), kind);
    }

    fn remove(&mut self, path: &str) {
        self.entries.remove(normalize(path).as_ref());
    }

    fn has_children(&self, dir: &str) -> bool {
        let dir = normalize(dir);
        self.entries
            .keys()
            .any(|p| *p != dir && is_ancestor(&dir, p))
    }

    /// Adds setup `mkdir`s for every missing ancestor directory of `path`.
    fn ensure_parents(&mut self, path: &str) -> Result<(), String> {
        let dir = normalize(parent(path).unwrap_or_default());
        for current in prefixes(&dir) {
            match self.kind(current) {
                Some(SimKind::Dir) => {}
                Some(_) => return Err(format!("{current} is not a directory")),
                None => {
                    self.setup.push(Op::Mkdir {
                        path: current.to_string(),
                    });
                    self.insert(current, SimKind::Dir);
                }
            }
        }
        Ok(())
    }

    /// Ensures a path exists, creating it (and its parents) as setup. The
    /// file set decides whether an unknown path is created as a file or a
    /// directory.
    fn ensure_exists(&mut self, path: &str, files: &FileSet) -> Result<SimKind, String> {
        if let Some(kind) = self.kind(path) {
            return Ok(kind);
        }
        self.ensure_parents(path)?;
        let normalized = normalize(path);
        let kind = if files.dirs().iter().any(|d| *d == normalized) {
            self.setup.push(Op::Mkdir {
                path: normalized.to_string(),
            });
            SimKind::Dir
        } else {
            self.setup.push(Op::Creat {
                path: normalized.to_string(),
            });
            SimKind::File
        };
        self.insert(&normalized, kind);
        Ok(kind)
    }

    fn ensure_file(&mut self, path: &str, files: &FileSet) -> Result<(), String> {
        match self.ensure_exists(path, files)? {
            SimKind::File => Ok(()),
            other => Err(format!("{path} exists but is {other:?}, expected a file")),
        }
    }

    /// Simulates one operation, extending setup as needed. Returns an error
    /// message when the operation can never succeed.
    pub fn apply(&mut self, op: &Op, files: &FileSet) -> Result<(), String> {
        match op {
            Op::Creat { path } | Op::Mkfifo { path } => {
                self.ensure_parents(path)?;
                match self.kind(path) {
                    None => self.insert(
                        path,
                        if matches!(op, Op::Creat { .. }) {
                            SimKind::File
                        } else {
                            SimKind::Fifo
                        },
                    ),
                    Some(SimKind::Dir) => return Err(format!("{path} is a directory")),
                    Some(_) => {} // touch of an existing file
                }
                Ok(())
            }
            Op::Mkdir { path } => {
                self.ensure_parents(path)?;
                match self.kind(path) {
                    None => self.insert(path, SimKind::Dir),
                    Some(SimKind::Dir) => {}
                    Some(_) => return Err(format!("{path} exists and is not a directory")),
                }
                Ok(())
            }
            Op::Symlink { linkpath, .. } => {
                self.ensure_parents(linkpath)?;
                if self.exists(linkpath) {
                    return Err(format!("{linkpath} already exists"));
                }
                self.insert(linkpath, SimKind::Symlink);
                Ok(())
            }
            Op::Link { existing, new } => {
                self.ensure_file(existing, files)?;
                self.ensure_parents(new)?;
                if self.exists(new) {
                    return Err(format!("link target {new} already exists"));
                }
                self.insert(new, SimKind::File);
                Ok(())
            }
            Op::Unlink { path } => {
                self.ensure_file(path, files)?;
                self.remove(path);
                Ok(())
            }
            Op::Remove { path } => {
                let kind = self.ensure_exists(path, files)?;
                if kind == SimKind::Dir && self.has_children(path) {
                    return Err(format!("{path} is a non-empty directory"));
                }
                self.remove(path);
                Ok(())
            }
            Op::Rmdir { path } => {
                let kind = self.ensure_exists(path, files)?;
                if kind != SimKind::Dir {
                    return Err(format!("{path} is not a directory"));
                }
                if self.has_children(path) {
                    return Err(format!("{path} is not empty"));
                }
                self.remove(path);
                Ok(())
            }
            Op::Rename { from, to } => {
                let src_kind = self.ensure_exists(from, files)?;
                self.ensure_parents(to)?;
                if normalize(from) == normalize(to) {
                    return Ok(());
                }
                if is_ancestor(from, to) && src_kind == SimKind::Dir {
                    return Err(format!("cannot move {from} into itself"));
                }
                if let Some(dst_kind) = self.kind(to) {
                    match (src_kind, dst_kind) {
                        (SimKind::Dir, SimKind::Dir) if self.has_children(to) => {
                            return Err(format!("{to} is a non-empty directory"));
                        }
                        (SimKind::Dir, SimKind::Dir) => {}
                        (SimKind::Dir, _) => return Err(format!("{to} is not a directory")),
                        (_, SimKind::Dir) => return Err(format!("{to} is a directory")),
                        _ => {}
                    }
                    self.remove(to);
                }
                // Move the entry (and, for directories, its subtree).
                let from_norm = normalize(from);
                let to_norm = normalize(to);
                let moved: Vec<(String, SimKind)> = self
                    .entries
                    .iter()
                    .filter(|(p, _)| **p == from_norm || is_ancestor(&from_norm, p))
                    .map(|(p, k)| (p.clone(), *k))
                    .collect();
                for (old_path, kind) in moved {
                    self.entries.remove(&old_path);
                    let suffix = old_path[from_norm.len()..].trim_start_matches('/');
                    self.entries.insert(join(&to_norm, suffix), kind);
                }
                Ok(())
            }
            Op::Write { path, .. } | Op::Mmap { path, .. } | Op::Msync { path, .. } => {
                self.ensure_file(path, files)
            }
            Op::Truncate { path, .. } | Op::Falloc { path, .. } => self.ensure_file(path, files),
            Op::SetXattr { path, name, .. } => {
                self.ensure_file(path, files)?;
                self.xattrs
                    .entry(normalize(path).into_owned())
                    .or_default()
                    .push(name.clone());
                Ok(())
            }
            Op::RemoveXattr { path, name } => {
                self.ensure_file(path, files)?;
                let key = normalize(path).into_owned();
                let present = self
                    .xattrs
                    .get(&key)
                    .is_some_and(|names| names.contains(name));
                if !present {
                    // Dependency: the attribute must exist before it can be
                    // removed.
                    self.setup.push(Op::SetXattr {
                        path: key.clone(),
                        name: name.clone(),
                        value: "val1".into(),
                    });
                    self.xattrs
                        .entry(key.clone())
                        .or_default()
                        .push(name.clone());
                }
                if let Some(names) = self.xattrs.get_mut(&key) {
                    names.retain(|n| n != name);
                }
                Ok(())
            }
            Op::Fsync { path } | Op::Fdatasync { path } => {
                if normalize(path).is_empty() {
                    return Ok(());
                }
                self.ensure_exists(path, files).map(|_| ())
            }
            Op::Sync => Ok(()),
        }
    }

    /// Simulates a full core-operation sequence and returns its dependency
    /// prefix or the reason it is invalid.
    ///
    /// Dependency operations generated along the way are *hoisted* to the
    /// front (the paper's phase 4 prepends them), which is sound because
    /// they only create files and directories that no earlier core operation
    /// removed — combinations where that would not hold are reported
    /// invalid by the simulation itself.
    pub fn plan(ops: &[Op], files: &FileSet) -> SimOutcome {
        let mut state = SimState::new();
        for op in ops {
            if let Err(reason) = state.apply(op, files) {
                return SimOutcome::Invalid(reason);
            }
        }
        SimOutcome::Valid { setup: state.setup }
    }
}
