//! The namespace simulator phase 4 runs.
//!
//! Phase 4 must (a) prepend the dependency operations a workload needs
//! (creating parent directories and target files) and (b) discard argument
//! combinations that can never execute successfully on a POSIX file system
//! (linking over an existing name, removing a non-empty directory, …). Both
//! require tracking which paths exist and what they are as the workload's
//! operations are applied in order — that is all [`SimState`] does.
//!
//! The generator simulates every candidate it visits, so nothing here
//! allocates per op. A path table (`Paths`) interns every path a set of
//! ops can name or move an entry to, and each op is resolved to those ids
//! once (`SimOp`). A state is a kind per id, an xattr bitset and a list of
//! `Copy` setup records, so copying one into a warm buffer is a few
//! `memcpy`s. A rejection is a code (`Rejection`); only
//! [`SimState::plan`] renders its message.

use std::collections::HashSet;
use std::fmt;

use b3_vfs::path::{components, is_ancestor, join, normalize, parent, prefixes};
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

/// An interned path: an index into a [`Paths`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PathId(u16);

impl PathId {
    const ROOT: PathId = PathId(0);

    fn index(self) -> usize {
        usize::from(self.0)
    }
}

/// Every path a set of ops can name or reach, in pre-order (sorted by
/// components), so the subtree of a path is the id range right after it.
pub(crate) struct Paths {
    /// Canonical spellings; the root (`""`) is id 0.
    names: Vec<String>,
    /// The parent of each path (the root is its own).
    parent: Vec<PathId>,
    /// One past the last id of each path's subtree.
    end: Vec<usize>,
    /// Whether the file set lists the path as a directory: what phase 4
    /// creates it as when an op needs it to exist.
    listed_dir: Vec<bool>,
    /// The xattr names the ops set or remove.
    xattr_names: Vec<String>,
    /// Each distinct rename `(from, to)` of the ops and where its moves
    /// start in `moves`.
    renames: Vec<(PathId, PathId, usize)>,
    /// Per rename, the image of every id in `from`'s subtree, in order.
    /// `None` past the renames the table was closed over: no state the
    /// ops reach holds an entry there when that rename runs.
    moves: Vec<Option<PathId>>,
}

impl Paths {
    /// Interns the file set, every path `ops` name and their ancestors, and
    /// every path up to `renames` successive renames among `ops` can move
    /// an entry to — the paths of every state a sequence of `ops` holding
    /// at most `renames` renames reaches.
    pub(crate) fn new<'a>(
        files: &FileSet,
        ops: impl IntoIterator<Item = &'a Op>,
        renames: usize,
    ) -> Paths {
        let mut known: HashSet<String> = HashSet::new();
        let mut intern = |path: &str| {
            let path = normalize(path);
            for prefix in prefixes(&path) {
                if !known.contains(prefix) {
                    known.insert(prefix.to_string());
                }
            }
        };
        files
            .dirs()
            .iter()
            .chain(files.files())
            .for_each(|path| intern(path));
        let mut pairs: Vec<(String, String)> = Vec::new();
        let mut xattr_names: Vec<String> = Vec::new();
        for op in ops {
            op.paths().into_iter().for_each(&mut intern);
            match op {
                Op::Rename { from, to } => {
                    let pair = (normalize(from).into_owned(), normalize(to).into_owned());
                    if !pairs.contains(&pair) {
                        pairs.push(pair);
                    }
                }
                Op::SetXattr { name, .. } | Op::RemoveXattr { name, .. }
                    if !xattr_names.contains(name) =>
                {
                    xattr_names.push(name.clone());
                }
                _ => {}
            }
        }

        // Close over the renames, one round per rename an op sequence may
        // hold: each round moves the paths the previous one added. A rename
        // into its own subtree, or onto the root, is rejected before
        // anything moves.
        let mut added: Vec<String> = known.iter().cloned().collect();
        for _ in 0..renames {
            let mut next = Vec::new();
            for (from, to) in pairs
                .iter()
                .filter(|(from, to)| !to.is_empty() && !is_ancestor(from, to))
            {
                for path in added.iter().filter(|path| is_ancestor(from, path)) {
                    let image = join(to, &path[from.len()..]);
                    if known.insert(image.clone()) {
                        next.push(image);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            added = next;
        }

        let mut names: Vec<String> = known.into_iter().collect();
        names.push(String::new());
        names.sort_unstable_by(|a, b| components(a).cmp(components(b)));
        assert!(
            names.len() <= usize::from(u16::MAX),
            "{} paths do not fit a path id",
            names.len()
        );
        let parent: Vec<PathId> = names
            .iter()
            .map(|name| parent(name).map_or(PathId::ROOT, |up| id_in(&names, up)))
            .collect();
        // Pre-order: a subtree ends where its last descendant's does.
        let mut end: Vec<usize> = (1..=names.len()).collect();
        for id in (1..names.len()).rev() {
            let up = parent[id].index();
            end[up] = end[up].max(end[id]);
        }
        let mut renames = Vec::with_capacity(pairs.len());
        let mut moves = Vec::new();
        for (from, to) in &pairs {
            let (from_id, to_id) = (id_in(&names, from), id_in(&names, to));
            renames.push((from_id, to_id, moves.len()));
            for name in &names[from_id.index()..end[from_id.index()]] {
                moves.push(lookup_in(&names, &join(to, &name[from.len()..])));
            }
        }
        Paths {
            listed_dir: names
                .iter()
                .map(|name| files.dirs().iter().any(|dir| dir == name))
                .collect(),
            names,
            parent,
            end,
            xattr_names,
            renames,
            moves,
        }
    }

    fn id(&self, path: &str) -> PathId {
        id_in(&self.names, path)
    }

    fn name(&self, id: PathId) -> &str {
        &self.names[id.index()]
    }

    /// The ids of `id` and its descendants.
    fn subtree(&self, id: PathId) -> std::ops::Range<usize> {
        id.index()..self.end[id.index()]
    }

    /// The word and mask of xattr `name` on `id` in a state's bitset.
    fn xattr_bit(&self, id: PathId, name: usize) -> (usize, u64) {
        let bit = id.index() * self.xattr_names.len() + name;
        (bit / 64, 1 << (bit % 64))
    }

    fn xattr(&self, name: &str) -> usize {
        self.xattr_names
            .iter()
            .position(|known| known == name)
            .unwrap_or_else(|| panic!("xattr {name:?} is not interned"))
    }

    /// Resolves an op the table was built from to interned ids.
    pub(crate) fn resolve(&self, op: &Op) -> SimOp {
        match op {
            Op::Creat { path } => SimOp::Creat(self.id(path)),
            Op::Mkfifo { path } => SimOp::Mkfifo(self.id(path)),
            Op::Mkdir { path } => SimOp::Mkdir(self.id(path)),
            Op::Symlink { linkpath, .. } => SimOp::Symlink(self.id(linkpath)),
            Op::Link { existing, new } => SimOp::Link(self.id(existing), self.id(new)),
            Op::Unlink { path } => SimOp::Unlink(self.id(path)),
            Op::Remove { path } => SimOp::Remove(self.id(path)),
            Op::Rmdir { path } => SimOp::Rmdir(self.id(path)),
            Op::Rename { from, to } => {
                let (from, to) = (self.id(from), self.id(to));
                let (.., moves) = *self
                    .renames
                    .iter()
                    .find(|rename| (rename.0, rename.1) == (from, to))
                    .expect("every rename of the ops is interned");
                SimOp::Rename { from, to, moves }
            }
            Op::Write { path, .. }
            | Op::Mmap { path, .. }
            | Op::Msync { path, .. }
            | Op::Truncate { path, .. }
            | Op::Falloc { path, .. } => SimOp::NeedFile(self.id(path)),
            Op::SetXattr { path, name, .. } => SimOp::SetXattr(self.id(path), self.xattr(name)),
            Op::RemoveXattr { path, name } => SimOp::RemoveXattr(self.id(path), self.xattr(name)),
            Op::Fsync { path } | Op::Fdatasync { path } => SimOp::NeedExists(self.id(path)),
            Op::Sync => SimOp::Sync,
        }
    }
}

/// An [`Op`] resolved against a [`Paths`] table: what phase 4 needs of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimOp {
    Creat(PathId),
    Mkfifo(PathId),
    Mkdir(PathId),
    /// The link path of a `symlink`.
    Symlink(PathId),
    Link(PathId, PathId),
    Unlink(PathId),
    Remove(PathId),
    Rmdir(PathId),
    /// `moves` indexes the table's images of `from`'s subtree.
    Rename {
        from: PathId,
        to: PathId,
        moves: usize,
    },
    /// A data op: write, mmap, msync, truncate, fallocate.
    NeedFile(PathId),
    SetXattr(PathId, usize),
    RemoveXattr(PathId, usize),
    /// `fsync`/`fdatasync`.
    NeedExists(PathId),
    Sync,
}

/// A dependency operation phase 4 prepends, over interned paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Setup {
    Mkdir(PathId),
    Creat(PathId),
    /// `setxattr path name val1`.
    SetXattr(PathId, usize),
}

/// Why an op can never execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    NotADirectory,
    NotAFile(SimKind),
    IsADirectory,
    ExistsNotADirectory,
    Exists,
    LinkTargetExists,
    NonEmptyDirectory,
    NotEmpty,
    IntoItself,
}

/// Why phase 4 rejects an op, and the path that makes it fail. Building
/// one formats nothing; its `Display` is the message
/// [`SimOutcome::Invalid`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rejection<'p> {
    reason: Reason,
    path: &'p str,
}

impl fmt::Display for Rejection<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let path = self.path;
        match self.reason {
            Reason::NotADirectory => write!(f, "{path} is not a directory"),
            Reason::NotAFile(kind) => write!(f, "{path} exists but is {kind:?}, expected a file"),
            Reason::IsADirectory => write!(f, "{path} is a directory"),
            Reason::ExistsNotADirectory => write!(f, "{path} exists and is not a directory"),
            Reason::Exists => write!(f, "{path} already exists"),
            Reason::LinkTargetExists => write!(f, "link target {path} already exists"),
            Reason::NonEmptyDirectory => write!(f, "{path} is a non-empty directory"),
            Reason::NotEmpty => write!(f, "{path} is not empty"),
            Reason::IntoItself => write!(f, "cannot move {path} into itself"),
        }
    }
}

/// Tracks which paths exist while a candidate workload is simulated.
#[derive(Debug)]
pub struct SimState {
    /// The kind of each interned path's entry; the root is always a
    /// directory.
    kinds: Vec<Option<SimKind>>,
    /// Bit `path * names + name` is set while that xattr is present. Xattrs
    /// belong to the path, not the entry: unlink and rename leave them.
    xattrs: Vec<u64>,
    setup: Vec<Setup>,
}

impl Clone for SimState {
    fn clone(&self) -> Self {
        SimState {
            kinds: self.kinds.clone(),
            xattrs: self.xattrs.clone(),
            setup: self.setup.clone(),
        }
    }

    /// Reuses the buffers: how the generator's trunk re-simulates a slot
    /// without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.kinds.clone_from(&source.kinds);
        self.xattrs.clone_from(&source.xattrs);
        self.setup.clone_from(&source.setup);
    }
}

type Applied<'p> = Result<(), Rejection<'p>>;

impl SimState {
    /// An empty namespace (just the root) over `paths`.
    pub(crate) fn new(paths: &Paths) -> Self {
        let mut kinds = vec![None; paths.names.len()];
        kinds[PathId::ROOT.index()] = Some(SimKind::Dir);
        let bits = paths.names.len() * paths.xattr_names.len();
        SimState {
            kinds,
            xattrs: vec![0; bits.div_ceil(64)],
            setup: Vec::new(),
        }
    }

    /// The dependency operations the simulated ops needed so far, in the
    /// order phase 4 prepends them (duplicates included).
    pub(crate) fn setup_ops(&self, paths: &Paths) -> Vec<Op> {
        let path = |id: PathId| paths.name(id).to_string();
        self.setup
            .iter()
            .map(|setup| match *setup {
                Setup::Mkdir(id) => Op::Mkdir { path: path(id) },
                Setup::Creat(id) => Op::Creat { path: path(id) },
                Setup::SetXattr(id, name) => Op::SetXattr {
                    path: path(id),
                    name: paths.xattr_names[name].clone(),
                    value: "val1".into(),
                },
            })
            .collect()
    }

    fn kind(&self, id: PathId) -> Option<SimKind> {
        self.kinds[id.index()]
    }

    fn insert(&mut self, id: PathId, kind: SimKind) {
        self.kinds[id.index()] = Some(kind);
    }

    fn remove(&mut self, id: PathId) {
        if id != PathId::ROOT {
            self.kinds[id.index()] = None;
        }
    }

    fn has_children(&self, id: PathId, paths: &Paths) -> bool {
        self.kinds[paths.subtree(id)][1..]
            .iter()
            .any(Option::is_some)
    }

    /// Adds setup `mkdir`s for every missing ancestor directory of `id`,
    /// shallowest first.
    fn ensure_parents<'p>(&mut self, id: PathId, paths: &'p Paths) -> Applied<'p> {
        self.ensure_dir(paths.parent[id.index()], paths)
    }

    /// [`ensure_parents`](Self::ensure_parents) for `id` and its parent
    /// chain.
    fn ensure_dir<'p>(&mut self, id: PathId, paths: &'p Paths) -> Applied<'p> {
        if id == PathId::ROOT {
            return Ok(());
        }
        self.ensure_dir(paths.parent[id.index()], paths)?;
        match self.kind(id) {
            Some(SimKind::Dir) => Ok(()),
            Some(_) => Err(reject(Reason::NotADirectory, id, paths)),
            None => {
                self.setup.push(Setup::Mkdir(id));
                self.insert(id, SimKind::Dir);
                Ok(())
            }
        }
    }

    /// Ensures a path exists, creating it (and its parents) as setup. The
    /// file set decides whether an unknown path is created as a file or a
    /// directory.
    fn ensure_exists<'p>(
        &mut self,
        id: PathId,
        paths: &'p Paths,
    ) -> Result<SimKind, Rejection<'p>> {
        if let Some(kind) = self.kind(id) {
            return Ok(kind);
        }
        self.ensure_parents(id, paths)?;
        let (kind, setup) = if paths.listed_dir[id.index()] {
            (SimKind::Dir, Setup::Mkdir(id))
        } else {
            (SimKind::File, Setup::Creat(id))
        };
        self.setup.push(setup);
        self.insert(id, kind);
        Ok(kind)
    }

    fn ensure_file<'p>(&mut self, id: PathId, paths: &'p Paths) -> Applied<'p> {
        match self.ensure_exists(id, paths)? {
            SimKind::File => Ok(()),
            other => Err(reject(Reason::NotAFile(other), id, paths)),
        }
    }

    /// Simulates one operation, extending setup as needed; the rejection
    /// when the operation can never succeed.
    pub(crate) fn apply<'p>(&mut self, op: SimOp, paths: &'p Paths) -> Applied<'p> {
        match op {
            SimOp::Creat(id) | SimOp::Mkfifo(id) => {
                self.ensure_parents(id, paths)?;
                match self.kind(id) {
                    None => self.insert(
                        id,
                        if matches!(op, SimOp::Creat(_)) {
                            SimKind::File
                        } else {
                            SimKind::Fifo
                        },
                    ),
                    Some(SimKind::Dir) => return Err(reject(Reason::IsADirectory, id, paths)),
                    Some(_) => {} // touch of an existing file
                }
                Ok(())
            }
            SimOp::Mkdir(id) => {
                self.ensure_parents(id, paths)?;
                match self.kind(id) {
                    None => self.insert(id, SimKind::Dir),
                    Some(SimKind::Dir) => {}
                    Some(_) => return Err(reject(Reason::ExistsNotADirectory, id, paths)),
                }
                Ok(())
            }
            SimOp::Symlink(linkpath) => {
                self.ensure_parents(linkpath, paths)?;
                if self.kind(linkpath).is_some() {
                    return Err(reject(Reason::Exists, linkpath, paths));
                }
                self.insert(linkpath, SimKind::Symlink);
                Ok(())
            }
            SimOp::Link(existing, new) => {
                self.ensure_file(existing, paths)?;
                self.ensure_parents(new, paths)?;
                if self.kind(new).is_some() {
                    return Err(reject(Reason::LinkTargetExists, new, paths));
                }
                self.insert(new, SimKind::File);
                Ok(())
            }
            SimOp::Unlink(id) => {
                self.ensure_file(id, paths)?;
                self.remove(id);
                Ok(())
            }
            SimOp::Remove(id) => {
                let kind = self.ensure_exists(id, paths)?;
                if kind == SimKind::Dir && self.has_children(id, paths) {
                    return Err(reject(Reason::NonEmptyDirectory, id, paths));
                }
                self.remove(id);
                Ok(())
            }
            SimOp::Rmdir(id) => {
                let kind = self.ensure_exists(id, paths)?;
                if kind != SimKind::Dir {
                    return Err(reject(Reason::NotADirectory, id, paths));
                }
                if self.has_children(id, paths) {
                    return Err(reject(Reason::NotEmpty, id, paths));
                }
                self.remove(id);
                Ok(())
            }
            SimOp::Rename { from, to, moves } => self.rename(from, to, moves, paths),
            SimOp::NeedFile(id) => self.ensure_file(id, paths),
            SimOp::SetXattr(id, name) => {
                self.ensure_file(id, paths)?;
                let (word, mask) = paths.xattr_bit(id, name);
                self.xattrs[word] |= mask;
                Ok(())
            }
            SimOp::RemoveXattr(id, name) => {
                self.ensure_file(id, paths)?;
                let (word, mask) = paths.xattr_bit(id, name);
                if self.xattrs[word] & mask == 0 {
                    // Dependency: the attribute must exist before it can be
                    // removed.
                    self.setup.push(Setup::SetXattr(id, name));
                }
                self.xattrs[word] &= !mask;
                Ok(())
            }
            SimOp::NeedExists(id) => self.ensure_exists(id, paths).map(drop),
            SimOp::Sync => Ok(()),
        }
    }

    fn rename<'p>(
        &mut self,
        from: PathId,
        to: PathId,
        moves: usize,
        paths: &'p Paths,
    ) -> Applied<'p> {
        let src_kind = self.ensure_exists(from, paths)?;
        self.ensure_parents(to, paths)?;
        if from == to {
            return Ok(());
        }
        let subtree = paths.subtree(from);
        if subtree.contains(&to.index()) && src_kind == SimKind::Dir {
            return Err(reject(Reason::IntoItself, from, paths));
        }
        if let Some(dst_kind) = self.kind(to) {
            match (src_kind, dst_kind) {
                (SimKind::Dir, SimKind::Dir) if self.has_children(to, paths) => {
                    return Err(reject(Reason::NonEmptyDirectory, to, paths));
                }
                (SimKind::Dir, SimKind::Dir) => {}
                (SimKind::Dir, _) => return Err(reject(Reason::NotADirectory, to, paths)),
                (_, SimKind::Dir) => return Err(reject(Reason::IsADirectory, to, paths)),
                _ => {}
            }
            self.remove(to);
        }
        // Move the entry (and, for directories, its subtree). The source
        // and destination subtrees are disjoint here, so the order of the
        // moves does not matter.
        for (old, image) in subtree.zip(&paths.moves[moves..]) {
            if let Some(kind) = self.kinds[old].take() {
                let image = image.expect("the path table closes over every rename the ops hold");
                self.kinds[image.index()] = Some(kind);
            }
        }
        Ok(())
    }

    /// Simulates a full core-operation sequence and returns its dependency
    /// prefix or the reason it is invalid.
    ///
    /// Dependency operations generated along the way are *hoisted* to the
    /// front, as the paper's phase 4 prepends them. That is not sound. A
    /// dependency added for an op that follows the removal of its path
    /// runs before that removal too. For `unlink A/foo; fsync A/foo` the
    /// `fsync`'s `creat A/foo` is hoisted, so setup creates `A/foo` twice
    /// and the `fsync` fails with ENOENT. A `creat B/foo` hoisted for an
    /// `fsync B/foo` after `unlink B/foo` makes an earlier
    /// `link A/foo B/foo` fail with EEXIST. The simulation accepts both;
    /// CrashMonkey skips them when they fail to execute.
    pub fn plan(ops: &[Op], files: &FileSet) -> SimOutcome {
        let renames = ops
            .iter()
            .filter(|op| matches!(op, Op::Rename { .. }))
            .count();
        let paths = Paths::new(files, ops, renames);
        let mut state = SimState::new(&paths);
        for op in ops {
            if let Err(rejection) = state.apply(paths.resolve(op), &paths) {
                return SimOutcome::Invalid(rejection.to_string());
            }
        }
        SimOutcome::Valid {
            setup: state.setup_ops(&paths),
        }
    }
}

/// The id of `path` among pre-ordered `names`.
fn lookup_in(names: &[String], path: &str) -> Option<PathId> {
    let path = normalize(path);
    let index = names
        .binary_search_by(|name| components(name).cmp(components(&path)))
        .ok()?;
    Some(PathId(index as u16))
}

fn id_in(names: &[String], path: &str) -> PathId {
    lookup_in(names, path).unwrap_or_else(|| panic!("{path:?} is not an interned path"))
}

fn reject(reason: Reason, id: PathId, paths: &Paths) -> Rejection<'_> {
    Rejection {
        reason,
        path: paths.name(id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files() -> FileSet {
        FileSet::paper_default()
    }

    #[test]
    fn dependencies_for_figure4_workload() {
        // Figure 4: rename(A/foo, B/bar); link(B/bar, A/bar).
        let ops = vec![
            Op::Rename {
                from: "A/foo".into(),
                to: "B/bar".into(),
            },
            Op::Sync,
            Op::Link {
                existing: "B/bar".into(),
                new: "A/bar".into(),
            },
            Op::Fsync {
                path: "A/bar".into(),
            },
        ];
        match SimState::plan(&ops, &files()) {
            SimOutcome::Valid { setup } => {
                assert_eq!(
                    setup,
                    vec![
                        Op::Mkdir { path: "A".into() },
                        Op::Creat {
                            path: "A/foo".into()
                        },
                        Op::Mkdir { path: "B".into() },
                    ],
                    "phase 4 must create A, A/foo, and B exactly as in Figure 4"
                );
            }
            SimOutcome::Invalid(reason) => panic!("unexpectedly invalid: {reason}"),
        }
    }

    #[test]
    fn link_over_existing_name_is_invalid() {
        let ops = vec![
            Op::Creat { path: "foo".into() },
            Op::Creat { path: "bar".into() },
            Op::Link {
                existing: "foo".into(),
                new: "bar".into(),
            },
            Op::Sync,
        ];
        assert!(matches!(
            SimState::plan(&ops, &files()),
            SimOutcome::Invalid(_)
        ));
    }

    #[test]
    fn removexattr_gains_a_setxattr_dependency() {
        let ops = vec![
            Op::RemoveXattr {
                path: "foo".into(),
                name: "user.u1".into(),
            },
            Op::Sync,
        ];
        match SimState::plan(&ops, &files()) {
            SimOutcome::Valid { setup } => {
                assert!(setup.contains(&Op::Creat { path: "foo".into() }));
                assert!(setup.iter().any(|op| matches!(op, Op::SetXattr { .. })));
            }
            SimOutcome::Invalid(reason) => panic!("unexpectedly invalid: {reason}"),
        }
    }

    #[test]
    fn rename_moves_subtrees() {
        let ops = vec![
            Op::Mkdir { path: "A".into() },
            Op::Creat {
                path: "A/foo".into(),
            },
            Op::Rename {
                from: "A".into(),
                to: "B".into(),
            },
            Op::Fsync {
                path: "B/foo".into(),
            },
        ];
        assert!(matches!(
            SimState::plan(&ops, &files()),
            SimOutcome::Valid { .. }
        ));
    }

    #[test]
    fn rmdir_of_nonempty_directory_is_invalid() {
        let ops = vec![
            Op::Creat {
                path: "A/foo".into(),
            },
            Op::Rmdir { path: "A".into() },
            Op::Sync,
        ];
        assert!(matches!(
            SimState::plan(&ops, &files()),
            SimOutcome::Invalid(_)
        ));
    }

    /// One op list per rejection branch of [`SimState::apply`], with the
    /// exact reason [`SimState::plan`] reports.
    #[test]
    fn every_rejection_renders_its_message() {
        let creat = |path: &str| Op::Creat { path: path.into() };
        let mkdir = |path: &str| Op::Mkdir { path: path.into() };
        let rename = |from: &str, to: &str| Op::Rename {
            from: from.into(),
            to: to.into(),
        };
        let cases: Vec<(Vec<Op>, &str)> = vec![
            (
                vec![creat("foo"), creat("foo/bar")],
                "foo is not a directory",
            ),
            (
                vec![mkdir("A"), Op::Unlink { path: "A".into() }],
                "A exists but is Dir, expected a file",
            ),
            (vec![mkdir("A"), creat("A")], "A is a directory"),
            (
                vec![creat("foo"), mkdir("foo")],
                "foo exists and is not a directory",
            ),
            (
                vec![
                    creat("bar"),
                    Op::Symlink {
                        target: "foo".into(),
                        linkpath: "bar".into(),
                    },
                ],
                "bar already exists",
            ),
            (
                vec![
                    creat("foo"),
                    creat("bar"),
                    Op::Link {
                        existing: "foo".into(),
                        new: "bar".into(),
                    },
                ],
                "link target bar already exists",
            ),
            (
                vec![creat("A/foo"), Op::Remove { path: "A".into() }],
                "A is a non-empty directory",
            ),
            (
                vec![Op::Rmdir { path: "foo".into() }],
                "foo is not a directory",
            ),
            (
                vec![creat("A/foo"), Op::Rmdir { path: "A".into() }],
                "A is not empty",
            ),
            (vec![rename("A", "A/C")], "cannot move A into itself"),
            (
                vec![creat("B/foo"), rename("A", "B")],
                "B is a non-empty directory",
            ),
            (
                vec![creat("foo"), rename("A", "foo")],
                "foo is not a directory",
            ),
            (vec![mkdir("A"), rename("foo", "A")], "A is a directory"),
        ];
        for (ops, reason) in cases {
            assert_eq!(
                SimState::plan(&ops, &files()),
                SimOutcome::Invalid(reason.into()),
                "{ops:?}"
            );
        }
    }

    /// Hoisting is not sound: a dependency hoisted for an op after the one
    /// that removed its path runs before that removal too. Here the `creat`
    /// phase 4 adds for the final `fsync A/foo` lands in front of the
    /// workload, which then runs `creat A/foo` twice and fails the `fsync`
    /// with ENOENT. Phase 4 accepts it today; this pins that.
    #[test]
    fn hoisted_setup_for_a_removed_path_is_accepted() {
        let write = Op::Write {
            path: "A/foo".into(),
            mode: b3_vfs::fs::WriteMode::Buffered,
            spec: b3_vfs::workload::WriteSpec::Pattern(b3_vfs::workload::WritePattern::Append),
        };
        let fsync = Op::Fsync {
            path: "A/foo".into(),
        };
        let ops = vec![
            write.clone(),
            fsync.clone(),
            write,
            fsync.clone(),
            Op::Unlink {
                path: "A/foo".into(),
            },
            fsync,
        ];
        assert_eq!(
            SimState::plan(&ops, &files()),
            SimOutcome::Valid {
                setup: vec![
                    Op::Mkdir { path: "A".into() },
                    Op::Creat {
                        path: "A/foo".into()
                    },
                    Op::Creat {
                        path: "A/foo".into()
                    },
                ]
            }
        );
    }

    #[test]
    fn unlink_of_missing_file_gets_created_as_dependency() {
        let ops = vec![
            Op::Unlink {
                path: "B/bar".into(),
            },
            Op::Sync,
        ];
        match SimState::plan(&ops, &files()) {
            SimOutcome::Valid { setup } => {
                assert_eq!(
                    setup,
                    vec![
                        Op::Mkdir { path: "B".into() },
                        Op::Creat {
                            path: "B/bar".into()
                        },
                    ]
                );
            }
            SimOutcome::Invalid(reason) => panic!("unexpectedly invalid: {reason}"),
        }
    }
}
