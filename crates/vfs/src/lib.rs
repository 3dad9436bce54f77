//! VFS layer shared by every file system and tool in the B3 workspace.
//!
//! This crate defines:
//!
//! * the POSIX-style [`FileSystem`] trait that all simulated file systems
//!   implement and that CrashMonkey drives black-box,
//! * the [`FsSpec`] factory trait used to format (`mkfs`) and mount file
//!   systems on arbitrary [block devices](b3_block::BlockDevice),
//! * common [`Metadata`], [`FileType`], and [error](FsError) types,
//! * the [`KernelEra`] model used to express "bug present since kernel X,
//!   fixed in Y",
//! * the [tree-backed core](treefs) the four simulated file systems share:
//!   one `FileSystem` over a working and a committed [`MemTree`], with
//!   each file system supplying only its persistence path,
//! * the *workload language*: the [`Op`]/[`Workload`] IR that ACE generates
//!   and CrashMonkey executes, together with its text serialization, and
//! * [`LogicalSnapshot`]s — full logical captures of a file system's state
//!   used as oracles by the AutoChecker.

pub mod codec;
pub mod diskfmt;
pub mod era;
pub mod error;
pub mod exec;
pub mod fs;
pub mod metadata;
pub mod path;
pub mod recover;
pub mod snapshot;
pub mod tree;
pub mod treefs;
pub mod workload;

pub use era::{KernelEra, Mutant, MutantSet};
pub use error::{FsError, FsResult};
pub use exec::Executor;
pub use fs::{FileSystem, FsSpec, WriteMode};
pub use metadata::{FileType, Metadata};
pub use recover::{RecoverDelta, RemountSession};
pub use snapshot::{EntryInterner, EntrySnapshot, LogicalSnapshot, SnapshotDiff};
pub use tree::{Inode, InodeId, MemTree, ROOT_INO};
pub use workload::{
    FallocMode, FileSet, Op, OpKind, PersistTarget, Workload, WritePattern, WriteSpec,
};
