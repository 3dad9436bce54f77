//! Phase 1: profiling a workload.
//!
//! The profiler executes the workload on a freshly formatted file system
//! mounted on a recording wrapper device. After every persistence operation
//! it inserts a checkpoint marker into the recorded IO stream and captures:
//!
//! * the *oracle* — the complete logical state of the file system at that
//!   instant (equivalent to cleanly unmounting a copy), and
//! * the *persisted set* — for every explicitly persisted file or directory,
//!   a snapshot of the state that persistence operation guaranteed. This is
//!   the fine-grained information that lets the AutoChecker compare exactly
//!   what must survive, rather than everything that happened to be in memory.
//!
//! The oracle is maintained *incrementally*: between adjacent checkpoints
//! only the paths the intervening operations touched (plus their hard-link
//! aliases and parent directories) are re-captured, instead of re-reading
//! every file in the file system at every persistence point — the
//! checker-hot-path item of the ROADMAP. Debug builds assert after every
//! checkpoint that the incremental oracle is byte-identical to a full
//! capture, so the whole test suite doubles as an equivalence proof.
//!
//! Profiling is a resumable state machine: a `ProfileState` is one run
//! stopped between two operations, `Profiler::step` advances it by one,
//! and a state can be forked. The harness's [`Trunk`] uses that to run the
//! operation prefix consecutive workloads share only once.
//!
//! What a checkpoint and a fork share, and what they copy: oracle entries,
//! expectations and the oracle itself sit behind `Arc`s, and every path the
//! profiler keeps — the oracle's keys, the persisted set's, the rename
//! lists and the alias bookkeeping — is a [`SharedPath`]. Making a shared
//! persisted set or oracle writable, recording a checkpoint's rename lists
//! and forking a run therefore bump reference counts; a persisted set's
//! keys are the oracle's own. What is still copied per fork are the
//! containers, which each side goes on to change: the maps' nodes, the
//! rename and checkpoint vectors, and what the file system's and the
//! recorder's forks copy. A path is allocated where an operation names it
//! (a dirty mark, a rename) or a capture first finds it, and shared from
//! there.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use b3_block::{CowSnapshotDevice, DiskImage, IoLog, LogHandle, RecordingDevice};
use b3_vfs::error::{FsError, FsResult};
use b3_vfs::exec::Executor;
use b3_vfs::fs::{FileSystem, FsSpec, WriteMode};
use b3_vfs::metadata::{FileType, Metadata};
use b3_vfs::path::{is_ancestor, normalize, parent, SharedPath};
use b3_vfs::snapshot::{DigestCell, EntryInterner, EntrySnapshot, LogicalSnapshot};
use b3_vfs::workload::{Op, Workload, WriteSpec};

use crate::checker::HeldVerdict;
use crate::config::CrashMonkeyConfig;
use crate::trunk::{Finished, Held, Trunk, TrunkRun};

/// A rename as the rename lists hold it: (old path, new path).
pub type RenamePair = (SharedPath, SharedPath);

/// What a persistence operation guaranteed about one path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expectation {
    /// The persisted state of the entry at the moment of its most recent
    /// explicit persistence. Shared with the oracle snapshot it was captured
    /// from, so recording an expectation (and cloning the persisted set per
    /// checkpoint) never copies file data.
    pub entry: Arc<EntrySnapshot>,
    /// When true, only the entry's existence (and type / symlink target) is
    /// guaranteed — used for children of an fsynced directory that were not
    /// themselves fsynced.
    pub existence_only: bool,
}

/// Everything captured at one persistence point.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointInfo {
    /// Checkpoint id in the recorded IO stream (1-based).
    pub id: u32,
    /// Index (within setup + ops) of the persistence operation.
    pub op_index: usize,
    /// Expectations for every explicitly persisted path, shared with the
    /// run and with every other checkpoint until an operation changes them.
    pub persisted: Arc<BTreeMap<SharedPath, Expectation>>,
    /// Renames (old path, new path) whose source had been explicitly
    /// persisted before the rename executed. The persisted object may
    /// legally survive a crash under either name, but never under both —
    /// which is what the rename-atomicity check verifies.
    pub persisted_renames: Vec<RenamePair>,
    /// Renames (old path, new path) that are themselves *durable* at this
    /// checkpoint: the renamed inode's new name was explicitly fsynced (or a
    /// global sync ran) after the rename executed. After such a checkpoint
    /// the old name must not exist at all — not even as a different inode —
    /// which is what the op-order-aware durable-rename check verifies.
    pub durable_renames: Vec<RenamePair>,
    /// Full logical state at this instant (the clean-unmount oracle), shared
    /// rather than copied per checkpoint.
    pub oracle: Arc<LogicalSnapshot>,
    /// The verdict on this checkpoint's crash state, once a workload whose
    /// run reached the checkpoint through the same operations has had it
    /// checked (see [`CrashPointPolicy::All`](crate::CrashPointPolicy::All)).
    /// Shared by every fork of the run, and no part of what the checkpoint
    /// captured: two infos that differ only here compare equal.
    pub(crate) verdict: Held<HeldVerdict>,
}

/// The result of profiling one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileResult {
    /// The initial (pre-mkfs) image crash states are replayed onto.
    pub base_image: DiskImage,
    /// The recorded block IO stream, including checkpoint markers.
    pub log: IoLog,
    /// One entry per persistence point, in workload order.
    pub checkpoints: Vec<CheckpointInfo>,
    /// Set when the workload could not be executed to completion.
    pub exec_error: Option<FsError>,
}

/// Incrementally maintained oracle state: the current logical snapshot plus
/// the bookkeeping needed to refresh only what changed since the previous
/// checkpoint.
#[derive(Clone)]
struct OracleTracker {
    /// Shared with the checkpoints that captured it and with forks of the
    /// run; a refresh copies it first if it is shared.
    snapshot: Arc<LogicalSnapshot>,
    /// Inode number of every captured path at its last refresh; lets a write
    /// through one hard link invalidate the aliases that share the inode.
    /// Only maintained once a `link` has executed — without hard links no
    /// two paths share an inode and the bookkeeping is pure overhead.
    inos: BTreeMap<SharedPath, u64>,
    /// Paths whose single entry must be re-captured.
    dirty_entries: BTreeSet<SharedPath>,
    /// Paths whose whole subtree must be re-captured (rename sources and
    /// destinations).
    dirty_subtrees: BTreeSet<SharedPath>,
    /// True once any `link` executed (enables alias tracking).
    saw_link: bool,
    /// False until the first full capture.
    initialized: bool,
    /// Cross-workload content-addressed pool for oracle entries: freshly
    /// captured entries are exchanged for the canonical `Arc` of any
    /// content-equal entry seen before (adjacent generated workloads have
    /// nearly identical oracles). `None` disables the exchange.
    interner: Option<Arc<EntryInterner>>,
}

impl OracleTracker {
    fn new(interner: Option<Arc<EntryInterner>>) -> Self {
        OracleTracker {
            snapshot: Arc::default(),
            inos: BTreeMap::new(),
            dirty_entries: BTreeSet::new(),
            dirty_subtrees: BTreeSet::new(),
            saw_link: false,
            initialized: false,
            interner,
        }
    }

    fn mark_entry(&mut self, path: &str) {
        self.dirty_entries.insert(normalize(path).into());
    }

    fn mark_with_parent(&mut self, path: &str) {
        let path = normalize(path);
        if let Ok(parent_path) = parent(&path) {
            self.dirty_entries.insert(parent_path.into());
        }
        self.dirty_entries.insert(path.into());
    }

    /// Marks exactly what `op` may have changed as dirty: the entry itself
    /// for content operations, plus the parent directory for namespace
    /// operations, plus — for renames — the full source and destination
    /// subtrees. Persistence operations change no logical state and mark
    /// nothing.
    fn note_op(&mut self, op: &Op) {
        match op {
            Op::Creat { path }
            | Op::Mkdir { path }
            | Op::Mkfifo { path }
            | Op::Unlink { path }
            | Op::Remove { path }
            | Op::Rmdir { path } => self.mark_with_parent(path),
            Op::Truncate { path, .. }
            | Op::Falloc { path, .. }
            | Op::SetXattr { path, .. }
            | Op::RemoveXattr { path, .. }
            | Op::Write { path, .. }
            | Op::Mmap { path, .. } => self.mark_entry(path),
            Op::Symlink { linkpath, .. } => self.mark_with_parent(linkpath),
            Op::Link { existing, new } => {
                self.saw_link = true;
                self.mark_entry(existing);
                self.mark_with_parent(new);
            }
            Op::Rename { from, to } => {
                self.mark_with_parent(from);
                self.mark_with_parent(to);
                self.dirty_subtrees.insert(normalize(from).into());
                self.dirty_subtrees.insert(normalize(to).into());
            }
            Op::Fsync { .. } | Op::Fdatasync { .. } | Op::Msync { .. } | Op::Sync => {}
        }
    }

    /// Brings the snapshot up to date with `fs` and returns it as a shared
    /// oracle.
    fn checkpoint(&mut self, fs: &dyn FileSystem) -> FsResult<Arc<LogicalSnapshot>> {
        self.settle(fs)?;
        Ok(Arc::clone(&self.snapshot))
    }

    /// Brings the snapshot up to date with `fs`, leaving nothing dirty. On
    /// an error the dirty marks stay, so a later call redoes the work.
    fn settle(&mut self, fs: &dyn FileSystem) -> FsResult<()> {
        if !self.initialized {
            let mut snapshot = LogicalSnapshot::capture(fs)?;
            if let Some(interner) = &self.interner {
                snapshot.intern_all(interner);
            }
            self.snapshot = Arc::new(snapshot);
            if self.saw_link {
                self.rebuild_inos(fs);
            }
            self.initialized = true;
        } else if !self.dirty_entries.is_empty() || !self.dirty_subtrees.is_empty() {
            self.refresh(fs)?;
            self.intern_refreshed();
        }
        self.dirty_entries.clear();
        self.dirty_subtrees.clear();

        #[cfg(debug_assertions)]
        {
            let full = LogicalSnapshot::capture(fs)?;
            let mut paths = [full.paths(), self.snapshot.paths()].concat();
            paths.sort();
            paths.dedup();
            paths.retain(|path| full.get(path) != self.snapshot.get(path));
            debug_assert!(paths.is_empty(), "incremental oracle diverged at {paths:?}");
        }

        Ok(())
    }

    fn rebuild_inos(&mut self, fs: &dyn FileSystem) {
        self.inos.clear();
        for (path, _) in self.snapshot.iter() {
            if let Ok(meta) = fs.metadata(path) {
                self.inos.insert(path.clone(), meta.ino);
            }
        }
    }

    fn refresh(&mut self, fs: &dyn FileSystem) -> FsResult<()> {
        // Hard-link alias expansion: any captured path sharing an inode with
        // a dirty path reflects the same data/nlink change and must be
        // refreshed too (its old inode number is authoritative — a dirty
        // path that was removed still invalidates its aliases). Without hard
        // links no inode has two names, so the scan is skipped entirely.
        if self.saw_link {
            if self.inos.is_empty() {
                // The first link since initialization: aliases could only
                // have been created by ops that are themselves dirty, so a
                // map built from the (stale) snapshot plus the dirty marks
                // is complete.
                self.rebuild_inos(fs);
            }
            let mut dirty_inos: BTreeSet<u64> = BTreeSet::new();
            for path in self.dirty_entries.iter().chain(self.dirty_subtrees.iter()) {
                if let Some(ino) = self.inos.get(path) {
                    dirty_inos.insert(*ino);
                }
                if let Ok(meta) = fs.metadata(path) {
                    dirty_inos.insert(meta.ino);
                }
            }
            for (path, ino) in &self.inos {
                if dirty_inos.contains(ino) {
                    self.dirty_entries.insert(path.clone());
                }
            }
        }

        // Subtrees first (they remove stale descendants wholesale), then
        // individual entries.
        let snapshot = Arc::make_mut(&mut self.snapshot);
        for root in &self.dirty_subtrees {
            snapshot.refresh_subtree(fs, root)?;
            if self.saw_link {
                self.inos.retain(|p, _| p != root && !is_ancestor(root, p));
                let captured = snapshot
                    .iter()
                    .filter(|(p, _)| *p == root || is_ancestor(root, p));
                for (path, _) in captured {
                    if let Ok(meta) = fs.metadata(path) {
                        self.inos.insert(path.clone(), meta.ino);
                    }
                }
            }
        }
        for path in &self.dirty_entries {
            snapshot.refresh_entry(fs, path)?;
            if self.saw_link {
                match fs.metadata(path) {
                    Ok(meta) => {
                        self.inos.insert(path.clone(), meta.ino);
                    }
                    Err(_) => {
                        self.inos.remove(path);
                    }
                }
            }
        }
        Ok(())
    }

    /// Exchanges every entry [`refresh`](Self::refresh) just re-captured for
    /// its canonical interned `Arc`. Only refreshed paths are touched — the
    /// rest of the snapshot still holds interned `Arc`s from earlier
    /// checkpoints (or the initial full capture).
    fn intern_refreshed(&mut self) {
        let Some(interner) = &self.interner else {
            return;
        };
        // `refresh` adds hard-link aliases to `dirty_entries` as it runs, so
        // after it returns the set covers every individually refreshed path.
        // The snapshot is the tracker's own by now: `refresh` copied it.
        let snapshot = Arc::make_mut(&mut self.snapshot);
        for path in &self.dirty_entries {
            snapshot.intern_entry(path, interner);
        }
        if !self.dirty_subtrees.is_empty() {
            let subtree_paths: Vec<SharedPath> = snapshot
                .iter()
                .map(|(p, _)| p.clone())
                .filter(|p| {
                    self.dirty_subtrees
                        .iter()
                        .any(|root| p == root || is_ancestor(root, p))
                })
                .collect();
            for path in subtree_paths {
                snapshot.intern_entry(&path, interner);
            }
        }
    }
}

/// Formats a fresh file system of `spec` once and freezes the device into
/// an immutable image. Profiling mounts copy-on-write snapshots of this
/// image instead of re-running mkfs for every workload — mkfs output is a
/// pure function of the spec and device size, so one format serves millions
/// of workloads.
pub fn formatted_base_image(spec: &dyn FsSpec, config: &CrashMonkeyConfig) -> FsResult<DiskImage> {
    formatted_image_with(spec, config, |_| Ok(()))
}

/// [`formatted_base_image`] with `set_up` run on the fresh file system
/// before it is unmounted (an application target creates its store there).
pub fn formatted_image_with(
    spec: &dyn FsSpec,
    config: &CrashMonkeyConfig,
    set_up: impl FnOnce(&mut dyn FileSystem) -> FsResult<()>,
) -> FsResult<DiskImage> {
    let device = CowSnapshotDevice::new(DiskImage::empty(config.device_blocks));
    let mut fs = spec.mkfs(Box::new(device))?;
    set_up(fs.as_mut())?;
    Ok(fs.unmount()?.freeze_image())
}

/// The workload profiler.
pub struct Profiler<'a> {
    spec: &'a dyn FsSpec,
    config: &'a CrashMonkeyConfig,
    interner: Option<Arc<EntryInterner>>,
}

impl<'a> Profiler<'a> {
    /// Creates a profiler for one file system and configuration.
    pub fn new(spec: &'a dyn FsSpec, config: &'a CrashMonkeyConfig) -> Self {
        Profiler {
            spec,
            config,
            interner: None,
        }
    }

    /// Creates a profiler whose oracle/expectation entries are interned in
    /// `interner`, deduplicating content-equal entries across workloads
    /// (share one interner between many profilers — e.g. across a sweep's
    /// worker threads — to pool their oracles).
    pub fn with_interner(
        spec: &'a dyn FsSpec,
        config: &'a CrashMonkeyConfig,
        interner: Arc<EntryInterner>,
    ) -> Self {
        Profiler {
            spec,
            config,
            interner: Some(interner),
        }
    }

    /// Profiles a workload on a freshly formatted file system: formats,
    /// then delegates to [`Profiler::profile_on`]. Callers testing many
    /// workloads should format once with [`formatted_base_image`] and reuse
    /// it (as [`crate::CrashMonkey`] does).
    pub fn profile(&self, workload: &Workload) -> FsResult<ProfileResult> {
        let base_image = formatted_base_image(self.spec, self.config)?;
        self.profile_on(base_image, workload)
    }

    /// Profiles a workload start to finish on a snapshot of the
    /// pre-formatted `base_image`: a run through an empty trunk, with
    /// nothing to resume from. This is the from-scratch reference every
    /// prefix-shared profile must equal.
    pub fn profile_on(
        &self,
        base_image: DiskImage,
        workload: &Workload,
    ) -> FsResult<ProfileResult> {
        self.profile_through(&mut Trunk::default(), &base_image, workload)
    }

    /// Profiles `workload` on a snapshot of `base_image`, running only the
    /// operations past the deepest frame of `trunk` whose prefix it shares.
    /// Every call on one trunk must come from a profiler with the same
    /// settings and pass the same base image.
    pub(crate) fn profile_through(
        &self,
        trunk: &mut Trunk<ProfileState>,
        base_image: &DiskImage,
        workload: &Workload,
    ) -> FsResult<ProfileResult> {
        Ok(match self.run_through(trunk, base_image, workload)? {
            Finished::Complete(state) => state.into_result(base_image),
            Finished::Failed(state) => state.result(base_image),
        })
    }

    /// [`profile_through`](Self::profile_through), handing back the run
    /// itself.
    pub(crate) fn run_through<'t>(
        &self,
        trunk: &'t mut Trunk<ProfileState>,
        base_image: &DiskImage,
        workload: &Workload,
    ) -> FsResult<Finished<'t, ProfileState>> {
        let ops: Vec<&Op> = workload.all_ops().collect();
        trunk.run(
            &ops,
            || self.mount(base_image),
            |state, op| self.step(state, op),
        )
    }

    /// Mounts a snapshot of `base_image` on a recording wrapper: the state
    /// every workload starts from, before its first operation.
    fn mount(&self, base_image: &DiskImage) -> FsResult<ProfileState> {
        let recording = RecordingDevice::new(CowSnapshotDevice::new(base_image.clone()));
        let log = recording.log_handle();
        Ok(ProfileState {
            fs: self.spec.mount(Box::new(recording))?,
            log,
            executor: Executor::new(),
            oracle: OracleTracker::new(self.interner.clone()),
            persisted: Arc::default(),
            persisted_renames: Vec::new(),
            renames_seen: Vec::new(),
            durable_renames: Vec::new(),
            checkpoints: Vec::new(),
            exec_error: None,
        })
    }

    /// Runs the next operation of a workload on `state`: executes it while
    /// recording IO and, at a persistence point, inserts the checkpoint and
    /// captures oracle and expectations. An operation that fails to execute
    /// ends the run: the error is kept in the state, not returned.
    fn step(&self, state: &mut ProfileState, op: &Op) -> FsResult<()> {
        debug_assert!(!state.failed(), "a failed run takes no further steps");
        let op_index = state.depth();
        let fs = state.fs.as_mut();
        if let Err(error) = state.executor.apply(fs, op) {
            state.exec_error = Some(error);
            return Ok(());
        }
        state.oracle.note_op(op);

        // A rename moves the persisted object to a new name: the old
        // path is no longer guaranteed to exist (the new one is not
        // guaranteed either, unless re-persisted), but the pair is
        // remembered for the rename-atomicity check.
        if let Op::Rename { from, to } = op {
            let from = SharedPath::from(normalize(from));
            let to = SharedPath::from(normalize(to));
            if let Ok(meta) = fs.metadata(&to) {
                state
                    .renames_seen
                    .push((from.clone(), to.clone(), meta.ino));
            }
            if state.persisted.contains_key(&from) {
                state.persisted_renames.push((from.clone(), to));
            }
            let moved = |path: &SharedPath| *path == from || is_ancestor(&from, path);
            if state.persisted.keys().any(moved) {
                Arc::make_mut(&mut state.persisted).retain(|path, _| !moved(path));
            }
        }

        // Op-order-aware durability of renames: an fsync of exactly the
        // renamed inode's new name — or a global sync — executed after
        // the rename makes the rename itself durable. The inode check
        // keeps a later `creat` at the new name from counting.
        match op {
            Op::Fsync { path } => {
                let path = normalize(path);
                if let Ok(meta) = fs.metadata(&path) {
                    for (from, to, ino) in &state.renames_seen {
                        if **to == *path && *ino == meta.ino {
                            push_unique(&mut state.durable_renames, (from.clone(), to.clone()));
                        }
                    }
                }
            }
            Op::Sync => {
                for (from, to, _) in &state.renames_seen {
                    push_unique(&mut state.durable_renames, (from.clone(), to.clone()));
                }
            }
            _ => {}
        }

        let is_checkpoint = op.is_persistence_point()
            || (self.config.direct_write_is_persistence_point && is_direct_write(op));
        if !is_checkpoint {
            return Ok(());
        }

        let oracle = state.oracle.checkpoint(fs)?;
        update_expectations(&mut state.persisted, &oracle, op, fs);
        let id = state.log.checkpoint();
        state.checkpoints.push(CheckpointInfo {
            id,
            op_index,
            persisted: Arc::clone(&state.persisted),
            persisted_renames: state.persisted_renames.clone(),
            durable_renames: state.durable_renames.clone(),
            oracle,
            verdict: Held::default(),
        });
        Ok(())
    }
}

/// One profiling run stopped between two operations: the mounted file
/// system, the handle on its recorder, and everything captured so far.
/// `Profiler::step` advances it; [`TrunkRun::fork`] copies it, so the
/// operations it has run need not be run again for the next workload that
/// starts with them.
pub struct ProfileState {
    fs: Box<dyn FileSystem>,
    pub(crate) log: LogHandle,
    /// Its counter seeds write data, so it is part of the state.
    executor: Executor,
    oracle: OracleTracker,
    persisted: Arc<BTreeMap<SharedPath, Expectation>>,
    persisted_renames: Vec<RenamePair>,
    /// All renames executed so far: (old path, new path, moved inode).
    renames_seen: Vec<(SharedPath, SharedPath, u64)>,
    durable_renames: Vec<RenamePair>,
    pub(crate) checkpoints: Vec<CheckpointInfo>,
    /// Set by the operation that could not be executed; it ended the run.
    pub(crate) exec_error: Option<FsError>,
}

impl TrunkRun for ProfileState {
    type Step = Op;

    fn depth(&self) -> usize {
        self.executor.ops_applied() as usize
    }

    fn failed(&self) -> bool {
        self.exec_error.is_some()
    }

    /// File system, recording device and log are forked, the captured state
    /// is cloned (the oracle snapshot, the persisted set and block payloads
    /// stay shared behind their `Arc`s, and each checkpoint keeps pointing
    /// at the same verdict cell).
    fn fork(&self) -> ProfileState {
        let device = self.log.fork_device();
        let log = device.log_handle();
        ProfileState {
            fs: self.fs.fork(Box::new(device)),
            log,
            executor: self.executor.clone(),
            oracle: self.oracle.clone(),
            persisted: self.persisted.clone(),
            persisted_renames: self.persisted_renames.clone(),
            renames_seen: self.renames_seen.clone(),
            durable_renames: self.durable_renames.clone(),
            checkpoints: self.checkpoints.clone(),
            exec_error: self.exec_error.clone(),
        }
    }

    /// Refreshes the incremental oracle now, so that forks of this state
    /// start with nothing dirty instead of each re-capturing the same
    /// paths at its first checkpoint. What the oracle holds at a checkpoint
    /// does not depend on when it was refreshed. A state whose oracle
    /// cannot be settled is not kept.
    fn keep_as_frame(&mut self) -> bool {
        self.oracle.settle(self.fs.as_ref()).is_ok()
    }
}

impl ProfileState {
    /// The profile of the operations run so far.
    fn result(&self, base_image: &DiskImage) -> ProfileResult {
        ProfileResult {
            base_image: base_image.clone(),
            log: self.log.snapshot(),
            checkpoints: self.checkpoints.clone(),
            exec_error: self.exec_error.clone(),
        }
    }

    /// [`ProfileState::result`] of a run that is over, without the copies.
    fn into_result(self, base_image: &DiskImage) -> ProfileResult {
        ProfileResult {
            base_image: base_image.clone(),
            log: self.log.take_log(),
            checkpoints: self.checkpoints,
            exec_error: self.exec_error,
        }
    }
}

fn push_unique(list: &mut Vec<RenamePair>, pair: RenamePair) {
    if !list.contains(&pair) {
        list.push(pair);
    }
}

fn is_direct_write(op: &Op) -> bool {
    matches!(
        op,
        Op::Write {
            mode: WriteMode::Direct,
            ..
        }
    )
}

/// Updates the persisted-set expectations after the persistence operation
/// `op` completed, using the oracle captured at that instant. The set is
/// copied first, if it is shared, only when `op` can change it.
fn update_expectations(
    persisted: &mut Arc<BTreeMap<SharedPath, Expectation>>,
    oracle: &LogicalSnapshot,
    op: &Op,
    fs: &dyn FileSystem,
) {
    match op {
        Op::Sync => {
            // A global sync persists everything that exists right now. Paths
            // persisted earlier but no longer present were legitimately
            // removed and are no longer guaranteed.
            let everything = oracle.iter_shared().map(|(path, entry)| {
                let expectation = Expectation {
                    entry: Arc::clone(entry),
                    existence_only: false,
                };
                (path.clone(), expectation)
            });
            // In path order, so each insert appends: no sorting buffer.
            let mut all = BTreeMap::new();
            all.extend(everything);
            *persisted = Arc::new(all);
        }
        Op::Fsync { path } | Op::Fdatasync { path } | Op::Msync { path, .. } => {
            // Keys are the oracle's own paths, shared rather than copied.
            let Some((path, entry)) = oracle.get_key_value(&normalize(path)) else {
                return;
            };
            let persisted = Arc::make_mut(persisted);
            persisted.insert(
                path.clone(),
                Expectation {
                    entry: Arc::clone(entry),
                    existence_only: false,
                },
            );
            // fsync of a directory also guarantees its current entries are
            // reachable after a crash (Linux file systems provide this
            // beyond-POSIX guarantee, §5.1).
            if entry.file_type == FileType::Directory {
                if let Some(children) = &entry.children {
                    for child in children {
                        let child_path = b3_vfs::path::join(path, child);
                        if let Some((child_path, child_entry)) = oracle.get_key_value(&child_path) {
                            persisted
                                .entry(child_path.clone())
                                .or_insert_with(|| Expectation {
                                    entry: Arc::clone(child_entry),
                                    existence_only: true,
                                });
                        }
                    }
                }
            } else if entry.file_type == FileType::Regular {
                // fsync of a file persists all of its hard-link names, so
                // every other path referring to the same inode must also
                // survive — a guarantee the developers of every file system
                // the paper tested confirmed (§5.1), and what its new bugs 5
                // and 7 break.
                if let Ok(meta) = fs.metadata(path) {
                    for (other_path, other_entry) in oracle.iter_shared() {
                        if other_path == path || other_entry.file_type != FileType::Regular {
                            continue;
                        }
                        if fs.metadata(other_path).is_ok_and(|m| m.ino == meta.ino) {
                            persisted
                                .entry(other_path.clone())
                                .or_insert_with(|| Expectation {
                                    entry: Arc::clone(other_entry),
                                    existence_only: true,
                                });
                        }
                    }
                }
            }
        }
        Op::Write {
            path,
            mode: WriteMode::Direct,
            spec,
        } => {
            // A direct write makes its own data durable. If the file was
            // already durable (persisted earlier), extend that expectation
            // with the directly-written range; otherwise the file's
            // existence is still not guaranteed and nothing is added.
            let path = normalize(path);
            if let (true, Some(entry), WriteSpec::Range { offset, len }) = (
                persisted.contains_key(path.as_ref()),
                oracle.get(&path),
                spec,
            ) {
                let expectation = Arc::make_mut(persisted)
                    .get_mut(path.as_ref())
                    .expect("the path is persisted");
                apply_direct_write_expectation(expectation, entry, *offset, *len);
            }
        }
        _ => {}
    }
}

/// Grows a prior expectation to cover a direct write's byte range: the data
/// in that range, the size needed to read it back, and the corresponding
/// allocation are now durable.
fn apply_direct_write_expectation(
    expectation: &mut Expectation,
    oracle_entry: &EntrySnapshot,
    offset: u64,
    len: u64,
) {
    if expectation.entry.file_type != FileType::Regular {
        return;
    }
    let entry = Arc::make_mut(&mut expectation.entry);
    // A unique `Arc` is changed in place: the digest memoized for the old
    // content must go with it.
    entry.digest = DigestCell::default();
    let end = offset + len;
    let mut data = entry.data.clone().unwrap_or_default();
    if (data.len() as u64) < end {
        data.resize(end as usize, 0);
    }
    if let Some(oracle_data) = &oracle_entry.data {
        let upto = (end as usize).min(oracle_data.len());
        let start = (offset as usize).min(upto);
        data[start..upto].copy_from_slice(&oracle_data[start..upto]);
    }
    entry.size = entry.size.max(end);
    entry.blocks = entry
        .blocks
        .max(Metadata::sectors_for(end.div_ceil(4096) * 4096));
    entry.data = Some(data);
    expectation.existence_only = false;
}

#[cfg(test)]
mod tests {
    use super::*;
    use b3_fs_cow::CowFsSpec;
    use b3_vfs::workload::Op;

    fn profile(workload: &Workload) -> ProfileResult {
        let spec = CowFsSpec::patched();
        let config = CrashMonkeyConfig::small();
        Profiler::new(&spec, &config).profile(workload).unwrap()
    }

    #[test]
    fn checkpoints_match_persistence_points() {
        let workload = Workload::with_setup(
            "p",
            vec![Op::Mkdir { path: "A".into() }],
            vec![
                Op::Creat {
                    path: "A/foo".into(),
                },
                Op::Fsync {
                    path: "A/foo".into(),
                },
                Op::Creat {
                    path: "A/bar".into(),
                },
                Op::Sync,
            ],
        );
        let result = profile(&workload);
        assert!(result.exec_error.is_none());
        assert_eq!(result.checkpoints.len(), 2);
        assert_eq!(result.log.num_checkpoints(), 2);
        // mkdir A, creat A/foo, fsync A/foo, creat A/bar, sync.
        assert_eq!(result.checkpoints[0].op_index, 2);
        assert_eq!(result.checkpoints[1].op_index, 4);
    }

    #[test]
    fn fsync_adds_full_expectation_for_the_file() {
        let workload = Workload::with_setup(
            "p",
            vec![
                Op::Mkdir { path: "A".into() },
                Op::Creat {
                    path: "A/foo".into(),
                },
            ],
            vec![Op::Fsync {
                path: "A/foo".into(),
            }],
        );
        let result = profile(&workload);
        let cp = &result.checkpoints[0];
        let exp = cp.persisted.get("A/foo").expect("A/foo persisted");
        assert!(!exp.existence_only);
        assert_eq!(exp.entry.file_type, FileType::Regular);
        assert!(
            !cp.persisted.contains_key("A"),
            "parent not explicitly persisted"
        );
    }

    #[test]
    fn dir_fsync_adds_existence_expectations_for_children() {
        let workload = Workload::new(
            "p",
            vec![
                Op::Mkdir { path: "A".into() },
                Op::Creat {
                    path: "A/foo".into(),
                },
                Op::Creat {
                    path: "A/bar".into(),
                },
                Op::Fsync { path: "A".into() },
            ],
        );
        let result = profile(&workload);
        let cp = &result.checkpoints[0];
        assert!(!cp.persisted["A"].existence_only);
        assert!(cp.persisted["A/foo"].existence_only);
        assert!(cp.persisted["A/bar"].existence_only);
    }

    #[test]
    fn sync_persists_everything_and_forgets_removed_paths() {
        let workload = Workload::new(
            "p",
            vec![
                Op::Creat {
                    path: "keep".into(),
                },
                Op::Creat {
                    path: "gone".into(),
                },
                Op::Sync,
                Op::Unlink {
                    path: "gone".into(),
                },
                Op::Sync,
            ],
        );
        let result = profile(&workload);
        assert_eq!(result.checkpoints.len(), 2);
        assert!(result.checkpoints[0].persisted.contains_key("gone"));
        assert!(!result.checkpoints[1].persisted.contains_key("gone"));
        assert!(result.checkpoints[1].persisted.contains_key("keep"));
    }

    #[test]
    fn exec_errors_are_captured_not_propagated() {
        let workload = Workload::new(
            "bad",
            vec![
                Op::Unlink {
                    path: "missing".into(),
                },
                Op::Sync,
            ],
        );
        let result = profile(&workload);
        assert!(result.exec_error.is_some());
        assert!(result.checkpoints.is_empty());
    }

    #[test]
    fn recorded_log_contains_write_io() {
        let workload = Workload::new("io", vec![Op::Creat { path: "foo".into() }, Op::Sync]);
        let result = profile(&workload);
        assert!(result.log.recorded_bytes() > 0);
        assert!(result.log.len() > 1);
    }

    /// The incremental oracle must match a full capture at every checkpoint
    /// for workloads that stress the dirty-path machinery: hard-link aliases
    /// written through one name, subtree renames, and removals. (Debug
    /// builds additionally assert this inside the profiler for every
    /// profiled workload in the whole test suite.)
    #[test]
    fn incremental_oracle_matches_full_capture_for_aliases_and_renames() {
        let workload = Workload::with_setup(
            "aliases",
            vec![
                Op::Mkdir { path: "A".into() },
                Op::Mkdir { path: "B".into() },
                Op::Creat {
                    path: "A/foo".into(),
                },
            ],
            vec![
                Op::Link {
                    existing: "A/foo".into(),
                    new: "B/alias".into(),
                },
                Op::Sync,
                Op::Write {
                    path: "B/alias".into(),
                    mode: WriteMode::Buffered,
                    spec: WriteSpec::range(0, 8192),
                },
                Op::Fsync {
                    path: "A/foo".into(),
                },
                Op::Rename {
                    from: "A".into(),
                    to: "C".into(),
                },
                Op::Sync,
                Op::Unlink {
                    path: "B/alias".into(),
                },
                Op::Sync,
            ],
        );
        let result = profile(&workload);
        assert!(result.exec_error.is_none());
        assert_eq!(result.checkpoints.len(), 4);
        // After the hard-link write, the alias expansion must have refreshed
        // the other name too.
        let cp = &result.checkpoints[1];
        assert_eq!(cp.oracle.get("A/foo").unwrap().size, 8192);
        assert_eq!(cp.oracle.get("B/alias").unwrap().size, 8192);
        // After the directory rename, old paths are gone and new ones exist.
        let cp = &result.checkpoints[2];
        assert!(cp.oracle.get("A").is_none());
        assert!(cp.oracle.get("A/foo").is_none());
        assert_eq!(cp.oracle.get("C/foo").unwrap().size, 8192);
        // After the unlink, the alias is gone and nlink dropped.
        let cp = &result.checkpoints[3];
        assert!(cp.oracle.get("B/alias").is_none());
        assert_eq!(cp.oracle.get("C/foo").unwrap().nlink, 1);
    }

    #[test]
    fn durable_renames_require_fsync_of_the_renamed_inode() {
        let workload = Workload::with_setup(
            "durable",
            vec![
                Op::Mkdir { path: "A".into() },
                Op::Creat {
                    path: "A/foo".into(),
                },
            ],
            vec![
                Op::Sync,
                Op::Rename {
                    from: "A/foo".into(),
                    to: "A/bar".into(),
                },
                Op::Fsync {
                    path: "A/bar".into(),
                },
            ],
        );
        let result = profile(&workload);
        let cp = result.checkpoints.last().unwrap();
        assert_eq!(cp.durable_renames, vec![("A/foo".into(), "A/bar".into())]);
        // The first checkpoint (the sync before the rename) must not list
        // the rename as durable.
        assert!(result.checkpoints[0].durable_renames.is_empty());
    }

    #[test]
    fn fsync_of_a_recreated_name_is_not_a_durable_rename() {
        let workload = Workload::with_setup(
            "recreated",
            vec![
                Op::Mkdir { path: "A".into() },
                Op::Creat {
                    path: "A/foo".into(),
                },
            ],
            vec![
                Op::Sync,
                Op::Rename {
                    from: "A/foo".into(),
                    to: "A/bar".into(),
                },
                Op::Unlink {
                    path: "A/bar".into(),
                },
                Op::Creat {
                    path: "A/bar".into(),
                },
                Op::Fsync {
                    path: "A/bar".into(),
                },
            ],
        );
        let result = profile(&workload);
        let cp = result.checkpoints.last().unwrap();
        assert!(
            cp.durable_renames.is_empty(),
            "fsync of a different inode at the destination name must not \
             mark the rename durable: {:?}",
            cp.durable_renames
        );
    }

    #[test]
    fn a_direct_write_in_place_leaves_no_stale_digest() {
        let regular = |data: &[u8]| EntrySnapshot {
            file_type: FileType::Regular,
            size: data.len() as u64,
            nlink: 1,
            blocks: Metadata::sectors_for(4096),
            data: Some(data.to_vec()),
            symlink_target: None,
            children: None,
            xattrs: BTreeMap::new(),
            digest: DigestCell::default(),
        };
        let info = |entry: Arc<EntrySnapshot>| CheckpointInfo {
            id: 1,
            op_index: 0,
            persisted: Arc::new(BTreeMap::from([(
                "foo".into(),
                Expectation {
                    entry,
                    existence_only: false,
                },
            )])),
            persisted_renames: Vec::new(),
            durable_renames: Vec::new(),
            oracle: Arc::default(),
            verdict: Held::default(),
        };
        let workload = Workload::new("w", vec![Op::Creat { path: "foo".into() }]);
        let seed = crate::triage::KeySeed::of(&workload);

        let mut written = info(Arc::new(regular(b"data")));
        let before = seed.key(7, &written);
        let expectation = Arc::get_mut(&mut written.persisted)
            .and_then(|persisted| persisted.get_mut("foo"))
            .expect("the checkpoint owns its only expectation");
        let unique = Arc::as_ptr(&expectation.entry);
        apply_direct_write_expectation(expectation, &regular(b"dataMORE"), 4, 4);
        assert_eq!(
            Arc::as_ptr(&expectation.entry),
            unique,
            "a uniquely owned entry is extended in place"
        );
        assert_eq!(expectation.entry.data.as_deref(), Some(&b"dataMORE"[..]));

        let after = seed.key(7, &written);
        let fresh = Arc::new((*written.persisted["foo"].entry).clone());
        assert_eq!(
            after,
            seed.key(7, &info(fresh)),
            "the key follows the content"
        );
        assert_ne!(after, before);
    }
}
