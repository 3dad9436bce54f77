//! The workload language: the IR that ACE generates and CrashMonkey executes.
//!
//! A [`Workload`] is a short sequence of file-system operations ([`Op`]s),
//! split into *setup* operations (the dependency operations ACE's phase 4
//! prepends, e.g. creating a directory before a file is created inside it)
//! and *core* operations (the bounded sequence under test, interleaved with
//! the persistence points phase 3 added).
//!
//! The equivalent artifact in the original system is the "high-level
//! language" ACE's workload synthesizer emits, which a custom adapter then
//! compiles into a C++ test program for CrashMonkey (§5.2). In this
//! reproduction both tools share the IR directly; the text serialization in
//! [`parse_workload`]/[`Display`](std::fmt::Display) plays the role of the
//! intermediate language.

mod display;
mod files;
mod parse;

pub use files::FileSet;
pub use parse::{parse_workload, ParseError};

use crate::fs::WriteMode;

/// `fallocate(2)` modes exercised by the workloads.
///
/// The F2FS `ZERO_RANGE`/`KEEP_SIZE` interaction and the ext4/F2FS "blocks
/// allocated beyond EOF are lost" bugs live entirely in how these modes are
/// persisted, so the distinction matters to the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FallocMode {
    /// Plain allocation; file size grows to cover the range.
    Allocate,
    /// `FALLOC_FL_KEEP_SIZE`: allocate blocks but do not change `st_size`.
    KeepSize,
    /// `FALLOC_FL_ZERO_RANGE`: zero the range, extending the file.
    ZeroRange,
    /// `FALLOC_FL_ZERO_RANGE | FALLOC_FL_KEEP_SIZE`.
    ZeroRangeKeepSize,
    /// `FALLOC_FL_PUNCH_HOLE` (always keeps size in Linux).
    PunchHole,
}

impl FallocMode {
    /// Token used in the workload text format.
    pub fn as_str(&self) -> &'static str {
        match self {
            FallocMode::Allocate => "alloc",
            FallocMode::KeepSize => "keep_size",
            FallocMode::ZeroRange => "zero_range",
            FallocMode::ZeroRangeKeepSize => "zero_range_keep_size",
            FallocMode::PunchHole => "punch_hole",
        }
    }

    /// Parses a token produced by [`FallocMode::as_str`].
    pub fn parse(s: &str) -> Option<FallocMode> {
        match s {
            "alloc" => Some(FallocMode::Allocate),
            "keep_size" => Some(FallocMode::KeepSize),
            "zero_range" => Some(FallocMode::ZeroRange),
            "zero_range_keep_size" => Some(FallocMode::ZeroRangeKeepSize),
            "punch_hole" => Some(FallocMode::PunchHole),
            _ => None,
        }
    }

    /// Does this mode leave `st_size` unchanged even when the range extends
    /// beyond EOF?
    pub fn keeps_size(&self) -> bool {
        matches!(
            self,
            FallocMode::KeepSize | FallocMode::ZeroRangeKeepSize | FallocMode::PunchHole
        )
    }

    /// All modes, for exhaustive generation.
    pub const ALL: [FallocMode; 5] = [
        FallocMode::Allocate,
        FallocMode::KeepSize,
        FallocMode::ZeroRange,
        FallocMode::ZeroRangeKeepSize,
        FallocMode::PunchHole,
    ];
}

/// Symbolic description of where a data operation lands in the file, used by
/// ACE's phase 2. The study found that "a broad classification of writes such
/// as appends to the end of a file, overwrites to overlapping regions of
/// file, etc. is sufficient to find crash-consistency bugs" (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePattern {
    /// Append one block at the current end of file.
    Append,
    /// Overwrite the first block of the file.
    OverwriteStart,
    /// Overwrite a block in the middle of the file.
    OverwriteMiddle,
    /// Overwrite the last block of the file (straddling EOF if unaligned).
    OverwriteEnd,
    /// Append a partial (sub-block) amount of data, leaving EOF unaligned.
    AppendUnaligned,
}

impl WritePattern {
    /// Token used in the workload text format.
    pub fn as_str(&self) -> &'static str {
        match self {
            WritePattern::Append => "append",
            WritePattern::OverwriteStart => "overwrite_start",
            WritePattern::OverwriteMiddle => "overwrite_middle",
            WritePattern::OverwriteEnd => "overwrite_end",
            WritePattern::AppendUnaligned => "append_unaligned",
        }
    }

    /// Parses a token produced by [`WritePattern::as_str`].
    pub fn parse(s: &str) -> Option<WritePattern> {
        match s {
            "append" => Some(WritePattern::Append),
            "overwrite_start" => Some(WritePattern::OverwriteStart),
            "overwrite_middle" => Some(WritePattern::OverwriteMiddle),
            "overwrite_end" => Some(WritePattern::OverwriteEnd),
            "append_unaligned" => Some(WritePattern::AppendUnaligned),
            _ => None,
        }
    }

    /// All patterns, for exhaustive generation.
    pub const ALL: [WritePattern; 5] = [
        WritePattern::Append,
        WritePattern::OverwriteStart,
        WritePattern::OverwriteMiddle,
        WritePattern::OverwriteEnd,
        WritePattern::AppendUnaligned,
    ];
}

/// Byte range of a data operation: either a concrete range (used by the bug
/// corpus, which reproduces exact reported workloads) or a symbolic pattern
/// (used by ACE, resolved against the file's size at execution time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteSpec {
    /// Concrete byte range `[offset, offset + len)`.
    Range {
        /// Start offset in bytes.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Symbolic pattern resolved by the executor.
    Pattern(WritePattern),
}

impl WriteSpec {
    /// Convenience constructor for a concrete range.
    pub fn range(offset: u64, len: u64) -> WriteSpec {
        WriteSpec::Range { offset, len }
    }
}

/// One file-system operation in a workload.
///
/// Paths are plain strings relative to the file-system root.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// `creat`/`touch`: create an empty regular file.
    Creat { path: String },
    /// `mkdir`: create a directory.
    Mkdir { path: String },
    /// `mkfifo`: create a named pipe.
    Mkfifo { path: String },
    /// `symlink target linkpath`.
    Symlink { target: String, linkpath: String },
    /// `link existing new`: create a hard link.
    Link { existing: String, new: String },
    /// `unlink`: remove a file name.
    Unlink { path: String },
    /// `remove`: remove a file or an empty directory (rm/rmdir hybrid, the
    /// paper lists both `remove` and `unlink` among ACE's operations).
    Remove { path: String },
    /// `rmdir`: remove an empty directory.
    Rmdir { path: String },
    /// `rename from to`.
    Rename { from: String, to: String },
    /// A data write in one of the three [`WriteMode`]s.
    Write {
        path: String,
        mode: WriteMode,
        spec: WriteSpec,
    },
    /// Declare an `mmap` of a byte range (no state change; the subsequent
    /// mmap writes use [`WriteMode::Mmap`]).
    Mmap { path: String, offset: u64, len: u64 },
    /// `msync` of a byte range — a persistence point for that range.
    Msync { path: String, offset: u64, len: u64 },
    /// `truncate` to a size.
    Truncate { path: String, size: u64 },
    /// `fallocate` with a mode and range.
    Falloc {
        path: String,
        mode: FallocMode,
        offset: u64,
        len: u64,
    },
    /// `setxattr path name value`.
    SetXattr {
        path: String,
        name: String,
        value: String,
    },
    /// `removexattr path name`.
    RemoveXattr { path: String, name: String },
    /// `fsync path` — persistence point.
    Fsync { path: String },
    /// `fdatasync path` — persistence point.
    Fdatasync { path: String },
    /// Global `sync` — persistence point.
    Sync,
}

impl Op {
    /// The operation's kind (for skeleton grouping).
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Creat { .. } => OpKind::Creat,
            Op::Mkdir { .. } => OpKind::Mkdir,
            Op::Mkfifo { .. } => OpKind::Mkfifo,
            Op::Symlink { .. } => OpKind::Symlink,
            Op::Link { .. } => OpKind::Link,
            Op::Unlink { .. } => OpKind::Unlink,
            Op::Remove { .. } => OpKind::Remove,
            Op::Rmdir { .. } => OpKind::Rmdir,
            Op::Rename { .. } => OpKind::Rename,
            Op::Write { mode, .. } => match mode {
                WriteMode::Buffered => OpKind::WriteBuffered,
                WriteMode::Direct => OpKind::WriteDirect,
                WriteMode::Mmap => OpKind::WriteMmap,
            },
            Op::Mmap { .. } => OpKind::Mmap,
            Op::Msync { .. } => OpKind::Msync,
            Op::Truncate { .. } => OpKind::Truncate,
            Op::Falloc { .. } => OpKind::Falloc,
            Op::SetXattr { .. } => OpKind::SetXattr,
            Op::RemoveXattr { .. } => OpKind::RemoveXattr,
            Op::Fsync { .. } => OpKind::Fsync,
            Op::Fdatasync { .. } => OpKind::Fdatasync,
            Op::Sync => OpKind::Sync,
        }
    }

    /// Is this operation a persistence point (after which CrashMonkey
    /// simulates a crash)?
    pub fn is_persistence_point(&self) -> bool {
        matches!(
            self,
            Op::Fsync { .. } | Op::Fdatasync { .. } | Op::Msync { .. } | Op::Sync
        )
    }

    /// The paths this operation names (used for dependency analysis and for
    /// tracking the explicitly-persisted set).
    pub fn paths(&self) -> Vec<&str> {
        match self {
            Op::Creat { path }
            | Op::Mkdir { path }
            | Op::Mkfifo { path }
            | Op::Unlink { path }
            | Op::Remove { path }
            | Op::Rmdir { path }
            | Op::Truncate { path, .. }
            | Op::Falloc { path, .. }
            | Op::SetXattr { path, .. }
            | Op::RemoveXattr { path, .. }
            | Op::Write { path, .. }
            | Op::Mmap { path, .. }
            | Op::Msync { path, .. }
            | Op::Fsync { path }
            | Op::Fdatasync { path } => vec![path],
            Op::Symlink { target, linkpath } => vec![target, linkpath],
            Op::Link { existing, new } => vec![existing, new],
            Op::Rename { from, to } => vec![from, to],
            Op::Sync => vec![],
        }
    }

    /// The path whose durability this persistence operation is about, if any
    /// (`None` for the global `sync`).
    pub fn persistence_target(&self) -> Option<&str> {
        match self {
            Op::Fsync { path } | Op::Fdatasync { path } | Op::Msync { path, .. } => Some(path),
            _ => None,
        }
    }
}

/// The kind of an operation, used for skeletons (phase 1 of ACE) and for
/// grouping bug reports (§5.3, Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    Creat,
    Mkdir,
    Mkfifo,
    Symlink,
    Link,
    Unlink,
    Remove,
    Rmdir,
    Rename,
    WriteBuffered,
    WriteDirect,
    WriteMmap,
    Mmap,
    Msync,
    Truncate,
    Falloc,
    SetXattr,
    RemoveXattr,
    Fsync,
    Fdatasync,
    Sync,
}

impl OpKind {
    /// Short mnemonic used in skeleton strings and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            OpKind::Creat => "creat",
            OpKind::Mkdir => "mkdir",
            OpKind::Mkfifo => "mkfifo",
            OpKind::Symlink => "symlink",
            OpKind::Link => "link",
            OpKind::Unlink => "unlink",
            OpKind::Remove => "remove",
            OpKind::Rmdir => "rmdir",
            OpKind::Rename => "rename",
            OpKind::WriteBuffered => "write",
            OpKind::WriteDirect => "dwrite",
            OpKind::WriteMmap => "mwrite",
            OpKind::Mmap => "mmap",
            OpKind::Msync => "msync",
            OpKind::Truncate => "truncate",
            OpKind::Falloc => "falloc",
            OpKind::SetXattr => "setxattr",
            OpKind::RemoveXattr => "removexattr",
            OpKind::Fsync => "fsync",
            OpKind::Fdatasync => "fdatasync",
            OpKind::Sync => "sync",
        }
    }

    /// Every operation kind, in declaration order. `as_str` round-trips
    /// through [`OpKind::parse`] for each of them.
    pub const ALL: [OpKind; 21] = [
        OpKind::Creat,
        OpKind::Mkdir,
        OpKind::Mkfifo,
        OpKind::Symlink,
        OpKind::Link,
        OpKind::Unlink,
        OpKind::Remove,
        OpKind::Rmdir,
        OpKind::Rename,
        OpKind::WriteBuffered,
        OpKind::WriteDirect,
        OpKind::WriteMmap,
        OpKind::Mmap,
        OpKind::Msync,
        OpKind::Truncate,
        OpKind::Falloc,
        OpKind::SetXattr,
        OpKind::RemoveXattr,
        OpKind::Fsync,
        OpKind::Fdatasync,
        OpKind::Sync,
    ];

    /// Parses the mnemonic produced by [`OpKind::as_str`].
    pub fn parse(s: &str) -> Option<OpKind> {
        OpKind::ALL.into_iter().find(|kind| kind.as_str() == s)
    }

    /// The 14 core operations ACE supports (§5.2: "ACE … currently supports
    /// 14 file-system operations. All bugs analyzed in our study used one of
    /// these 14 file-system operations.").
    pub const ACE_CORE_OPS: [OpKind; 14] = [
        OpKind::Creat,
        OpKind::Mkdir,
        OpKind::Falloc,
        OpKind::WriteBuffered,
        OpKind::WriteMmap,
        OpKind::Link,
        OpKind::WriteDirect,
        OpKind::Unlink,
        OpKind::Rmdir,
        OpKind::SetXattr,
        OpKind::RemoveXattr,
        OpKind::Remove,
        OpKind::Truncate,
        OpKind::Rename,
    ];

    /// Is this kind a persistence operation?
    pub fn is_persistence(&self) -> bool {
        matches!(
            self,
            OpKind::Fsync | OpKind::Fdatasync | OpKind::Msync | OpKind::Sync
        )
    }

    /// Is this a data operation (as opposed to a metadata operation)?
    pub fn is_data_op(&self) -> bool {
        matches!(
            self,
            OpKind::WriteBuffered
                | OpKind::WriteDirect
                | OpKind::WriteMmap
                | OpKind::Falloc
                | OpKind::Truncate
                | OpKind::Mmap
        )
    }
}

/// A persistence point to append after a core operation (ACE phase 3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PersistTarget {
    /// `fsync` of a specific file or directory.
    Fsync(String),
    /// `fdatasync` of a specific file.
    Fdatasync(String),
    /// Global `sync`.
    Sync,
}

impl PersistTarget {
    /// Converts the target into the corresponding operation.
    pub fn to_op(&self) -> Op {
        match self {
            PersistTarget::Fsync(path) => Op::Fsync { path: path.clone() },
            PersistTarget::Fdatasync(path) => Op::Fdatasync { path: path.clone() },
            PersistTarget::Sync => Op::Sync,
        }
    }
}

/// A complete workload: the dependency (setup) prefix plus the core operation
/// sequence with its persistence points.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Workload {
    /// Human-readable identifier (e.g. `"seq2-001734"` or `"known-btrfs-16"`).
    pub name: String,
    /// Dependency operations prepended by ACE phase 4 (or handwritten for
    /// corpus workloads). Executed before profiling starts measuring core
    /// behaviour, but still recorded and crash-tested like everything else.
    pub setup: Vec<Op>,
    /// The core operations and persistence points under test.
    pub ops: Vec<Op>,
}

impl Workload {
    /// Creates a workload with no setup prefix.
    pub fn new(name: impl Into<String>, ops: Vec<Op>) -> Self {
        Workload {
            name: name.into(),
            setup: Vec::new(),
            ops,
        }
    }

    /// Creates a workload with a setup prefix.
    pub fn with_setup(name: impl Into<String>, setup: Vec<Op>, ops: Vec<Op>) -> Self {
        Workload {
            name: name.into(),
            setup,
            ops,
        }
    }

    /// All operations in execution order (setup followed by core).
    pub fn all_ops(&self) -> impl Iterator<Item = &Op> {
        self.setup.iter().chain(self.ops.iter())
    }

    /// The skeleton: the sequence of core operation kinds, excluding
    /// persistence points and setup. This is the grouping key of §5.3.
    pub fn skeleton(&self) -> Vec<OpKind> {
        self.ops
            .iter()
            .filter(|op| !op.is_persistence_point())
            .map(Op::kind)
            .collect()
    }

    /// The skeleton as a compact string, e.g. `"link-write"`, built in one
    /// allocation: every crash-tested workload's outcome carries one.
    pub fn skeleton_string(&self) -> String {
        let kinds = || {
            self.ops
                .iter()
                .filter(|op| !op.is_persistence_point())
                .map(|op| op.kind().as_str())
        };
        let len = kinds().map(|kind| kind.len() + 1).sum::<usize>();
        let mut skeleton = String::with_capacity(len.saturating_sub(1));
        for kind in kinds() {
            if !skeleton.is_empty() {
                skeleton.push('-');
            }
            skeleton.push_str(kind);
        }
        skeleton
    }

    /// Number of core (non-persistence) operations — the paper's
    /// "sequence length".
    pub fn sequence_length(&self) -> usize {
        self.skeleton().len()
    }

    /// Number of persistence points in the core sequence.
    pub fn num_persistence_points(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| op.is_persistence_point())
            .count()
    }

    /// True if the workload ends with a persistence point, which ACE
    /// guarantees "so that it is not truncated to a workload of lower
    /// sequence length" (§5.2 phase 3).
    pub fn ends_with_persistence_point(&self) -> bool {
        self.ops.last().is_some_and(Op::is_persistence_point)
    }

    /// Total number of operations including setup and persistence points.
    pub fn total_ops(&self) -> usize {
        self.setup.len() + self.ops.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Workload {
        Workload::with_setup(
            "fig4",
            vec![
                Op::Mkdir { path: "A".into() },
                Op::Mkdir { path: "B".into() },
                Op::Creat {
                    path: "A/foo".into(),
                },
            ],
            vec![
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
            ],
        )
    }

    #[test]
    fn skeleton_excludes_setup_and_persistence() {
        let w = sample();
        assert_eq!(w.skeleton(), vec![OpKind::Rename, OpKind::Link]);
        assert_eq!(w.skeleton_string(), "rename-link");
        assert_eq!(w.sequence_length(), 2);
        assert_eq!(w.num_persistence_points(), 2);
        assert!(w.ends_with_persistence_point());
        assert_eq!(w.total_ops(), 7);
    }

    #[test]
    fn persistence_point_detection() {
        assert!(Op::Sync.is_persistence_point());
        assert!(Op::Fsync { path: "x".into() }.is_persistence_point());
        assert!(Op::Msync {
            path: "x".into(),
            offset: 0,
            len: 10
        }
        .is_persistence_point());
        assert!(!Op::Creat { path: "x".into() }.is_persistence_point());
    }

    #[test]
    fn op_paths_cover_both_arguments() {
        let op = Op::Rename {
            from: "A/foo".into(),
            to: "B/bar".into(),
        };
        assert_eq!(op.paths(), vec!["A/foo", "B/bar"]);
        assert_eq!(Op::Sync.paths(), Vec::<&str>::new());
    }

    #[test]
    fn persistence_target() {
        assert_eq!(
            Op::Fsync {
                path: "A/foo".into()
            }
            .persistence_target(),
            Some("A/foo")
        );
        assert_eq!(Op::Sync.persistence_target(), None);
    }

    #[test]
    fn ace_core_ops_count_is_14() {
        assert_eq!(OpKind::ACE_CORE_OPS.len(), 14);
        assert!(OpKind::ACE_CORE_OPS.iter().all(|k| !k.is_persistence()));
    }

    #[test]
    fn op_kind_round_trip() {
        for kind in OpKind::ALL {
            assert_eq!(OpKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(OpKind::parse("chmod"), None);
    }

    #[test]
    fn falloc_mode_round_trip() {
        for mode in FallocMode::ALL {
            assert_eq!(FallocMode::parse(mode.as_str()), Some(mode));
        }
        assert!(FallocMode::KeepSize.keeps_size());
        assert!(FallocMode::PunchHole.keeps_size());
        assert!(!FallocMode::Allocate.keeps_size());
    }

    #[test]
    fn write_pattern_round_trip() {
        for pattern in WritePattern::ALL {
            assert_eq!(WritePattern::parse(pattern.as_str()), Some(pattern));
        }
    }

    #[test]
    fn persist_target_to_op() {
        assert_eq!(
            PersistTarget::Fsync("A".into()).to_op(),
            Op::Fsync { path: "A".into() }
        );
        assert_eq!(PersistTarget::Sync.to_op(), Op::Sync);
    }

    #[test]
    fn op_kind_strings_are_unique() {
        use std::collections::HashSet;
        let kinds = [
            OpKind::Creat,
            OpKind::Mkdir,
            OpKind::Mkfifo,
            OpKind::Symlink,
            OpKind::Link,
            OpKind::Unlink,
            OpKind::Remove,
            OpKind::Rmdir,
            OpKind::Rename,
            OpKind::WriteBuffered,
            OpKind::WriteDirect,
            OpKind::WriteMmap,
            OpKind::Mmap,
            OpKind::Msync,
            OpKind::Truncate,
            OpKind::Falloc,
            OpKind::SetXattr,
            OpKind::RemoveXattr,
            OpKind::Fsync,
            OpKind::Fdatasync,
            OpKind::Sync,
        ];
        let unique: HashSet<&str> = kinds.iter().map(super::OpKind::as_str).collect();
        assert_eq!(unique.len(), kinds.len());
    }
}
