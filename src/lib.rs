//! # B3: Bounded Black-Box Crash Testing in Rust
//!
//! A from-scratch reproduction of *"Finding Crash-Consistency Bugs with
//! Bounded Black-Box Crash Testing"* (OSDI 2018): the CrashMonkey
//! record-and-replay crash tester, the ACE bounded exhaustive workload
//! generator, and the simulated storage stack (block devices and four
//! crash-behaviour-faithful file systems with era-gated injectable bugs)
//! they run against.
//!
//! This crate re-exports the workspace's public API under one roof; see the
//! README for a tour and `examples/` for runnable end-to-end scenarios.
//!
//! ```
//! use b3::prelude::*;
//!
//! // Test one workload against the btrfs-like CowFs as shipped in the
//! // paper's evaluation kernel (4.16).
//! let spec = CowFsSpec::new(KernelEra::V4_16);
//! let monkey = CrashMonkey::with_config(&spec, CrashMonkeyConfig::small());
//! let workload = parse_workload(
//!     "[ops]\ncreat foo\nmkdir A\nlink foo A/bar\nfsync foo\n",
//!     "quick",
//! )
//! .unwrap();
//! let outcome = monkey.test_workload(&workload).unwrap();
//! assert!(outcome.found_bug(), "new bug 7: fsync does not persist all paths");
//! ```

pub use b3_ace as ace;
pub use b3_analyze as analyze;
pub use b3_app as app;
pub use b3_block as block;
pub use b3_crashmonkey as crashmonkey;
pub use b3_fs_cow as fs_cow;
pub use b3_fs_flash as fs_flash;
pub use b3_fs_journal as fs_journal;
pub use b3_fs_veri as fs_veri;
pub use b3_harness as harness;
pub use b3_vfs as vfs;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use b3_ace::{Bounds, SequencePreset, WorkloadGenerator};
    pub use b3_analyze::{Analysis, StateDigest, WindowClass};
    pub use b3_app::{
        AppHarness, EngineProfile, TxnBounds, TxnOracle, TxnWorkloadGenerator, WalKv,
    };
    pub use b3_block::BlockDevice;
    pub use b3_crashmonkey::{
        BugReport, Consequence, CrashMonkey, CrashMonkeyConfig, CrashPointPolicy, WorkloadOutcome,
    };
    pub use b3_fs_cow::{CowBugs, CowFs, CowFsSpec};
    pub use b3_fs_flash::{FlashBugs, FlashFs, FlashFsSpec};
    pub use b3_fs_journal::{JournalBugs, JournalFs, JournalFsSpec};
    pub use b3_fs_veri::{VeriBugs, VeriFs, VeriFsSpec};
    pub use b3_harness::{corpus, group_reports, study, KnownBugDatabase, RunConfig, Sweep, Table};
    pub use b3_vfs::workload::parse_workload;
    pub use b3_vfs::{FileSystem, FsSpec, KernelEra, MutantSet, Op, Workload};
}
