//! The B3 harness: everything needed to run the paper's evaluation.
//!
//! * [`study`] — the crash-consistency bug study of §3 (Tables 1 and 2) as
//!   data, with the breakdown computations that regenerate the tables.
//! * [`corpus`] — the reproduction corpus: the 26 previously-reported bugs of
//!   Appendix 9.1 and the 11 new bugs of Table 5 / Appendix 9.2, each as an
//!   executable workload plus metadata (file system, kernel era, expected
//!   consequence), and the machinery to replay them under CrashMonkey.
//! * [`sweep`] — sharded, resumable sweeps, the in-process analogue of the
//!   paper's 65-node / 780-VM Chameleon cluster: worker threads steal whole
//!   generator shards ([`b3_ace::Bounds::shard`]), completed shards are
//!   recorded in a serializable [`sweep::SweepCheckpoint`], a killed sweep
//!   resumes where it left off, and a [`RunConfig`] budget, bug limit and
//!   progress callback bound and observe the run, whose counts come back as
//!   a [`RunSummary`]. [`Sweep`] (file-system spaces) and [`AppSweep`]
//!   (`b3_app` transaction spaces) are thin facades over one crate-private
//!   `engine`: the one shard loop, generic over the job space, which the
//!   distributed worker runs too. Its threads claim, merge and stop through
//!   the same coordinator core that schedules [`distrib`]'s worker
//!   processes: there is one shard scheduler.
//! * [`distrib`] — multi-process *and* multi-host fan-out over the same
//!   shard machinery: a coordinator process owns the shard queue and
//!   checkpoint file, workers claim shards over a framed protocol carried
//!   by a pluggable transport (stdio children, TCP, ssh pipes; see
//!   `docs/PROTOCOL.md`), dead workers are respawned within a budget, and
//!   every returned shard result is recorded into one
//!   [`sweep::SweepCheckpoint`] and persisted — the true analogue of the
//!   paper's 780-VM cluster. One `b3 sweep --checkpoint` runs one bounded
//!   space at a time, resumes after a kill, and takes workers from other
//!   machines.
//! * [`dedup`] — first-class report deduplication: the grouped
//!   (exemplar + count) [`dedup::GroupTable`] that shard results, checkpoint
//!   aggregation, and post-hoc grouping all share, bounding sweep memory and
//!   checkpoint size by bug diversity instead of bug density.
//! * [`postprocess`] — bug-report de-duplication: grouping by skeleton and
//!   consequence, and filtering against the database of known bugs (§5.3,
//!   Figure 5).
//! * [`baseline`] — the comparison points discussed in §2 and §7: an
//!   xfstests-style handcrafted regression suite and a random (fuzz-style)
//!   workload generator.
//! * [`report`] — plain-text table formatting used by the examples that
//!   regenerate the paper's tables.

pub mod baseline;
pub mod corpus;
pub mod dedup;
pub mod distrib;
mod engine;
pub mod postprocess;
pub mod report;
mod runner;
pub mod study;
pub mod sweep;

pub use corpus::{CorpusEntry, FsKind, ReproStatus};
pub use dedup::{GroupEntry, GroupTable};
pub use distrib::{
    run_with_transport, ChildTransport, DistribConfig, DistribOutcome, SshTransport, SweepJob,
    SweepSpace, TcpTransport, Transport, WorkerCommand, WorkerLink, WorkerOptions,
};
pub use postprocess::{group_reports, BugGroup, KnownBugDatabase};
pub use report::{bug_group_table, Table};
pub use runner::{RunConfig, RunSummary};
pub use sweep::{
    AppSweep, AuditFailure, Progress, PruneMode, Sweep, SweepCheckpoint, WorkerThroughput,
};
