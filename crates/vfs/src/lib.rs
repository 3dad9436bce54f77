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
//! * the per-file-system [`GuaranteeProfile`] describing which
//!   crash-consistency guarantees a file system promises beyond POSIX
//!   (the paper confirmed these with each file system's developers, §5.1),
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
pub mod workload;

pub use era::{KernelEra, Mutant, MutantSet};
pub use error::{FsError, FsResult};
pub use exec::{apply_op, apply_workload, ExecPolicy, Executor};
pub use fs::{FileSystem, FsSpec, GuaranteeProfile, WriteMode};
pub use metadata::{FileType, Metadata};
pub use recover::{RecoverDelta, RemountSession};
pub use snapshot::{EntryInterner, EntrySnapshot, LogicalSnapshot, SnapshotDiff};
pub use tree::{Inode, InodeId, MemTree, ROOT_INO};
pub use workload::{
    FallocMode, FileSet, Op, OpKind, PersistTarget, Workload, WritePattern, WriteSpec,
};
