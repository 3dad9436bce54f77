//! # b3-app: application-level crash testing
//!
//! The B3 paper crash-tests file systems, but the storage engines real
//! applications run — write-ahead logs, manifests, KV stores — sit one
//! layer up and have their own crash-consistency bug taxonomy (torn
//! commit records, commit-before-data-fsync, double replay; see FIRST and
//! WITCHER in PAPERS.md). This crate reuses the existing pipeline end to
//! end — block-layer recording, crash-state enumeration, grouping, sweeps,
//! the distributed coordinator — but swaps the workload for a bounded
//! *transaction* stream against a reference WAL+KV engine ([`WalKv`]) and
//! the checker for a logical transaction oracle ([`TxnOracle`]).
//!
//! The moving parts:
//!
//! - [`WalKv`]: the reference engine. A write-ahead log (`commit.log`),
//!   a value heap (`data.log`) and a compacted snapshot (`snapshot.db`),
//!   all stored through the in-tree [`FileSystem`] trait. Three switchable
//!   seeded bugs ([`EngineProfile`]) reproduce the classic application
//!   crash-consistency failures.
//! - [`TxnBounds`] / [`TxnWorkloadGenerator`]: odometer-style bounded
//!   enumeration of transaction sequences, with `shard` and `skip_to`
//!   mirroring `b3_ace::Bounds` so the sweep/distrib stack works
//!   unchanged.
//! - [`TxnOracle`]: given a transaction history and a recovered KV state,
//!   decides whether the state is a legal crash outcome — committed
//!   transactions are atomic and durable, aborted ones never resurrect,
//!   and replay is idempotent.
//! - [`AppHarness`]: the CrashMonkey analogue. Profiles a transaction
//!   workload through a recording block device, constructs every crash
//!   state, recovers the engine, and asks the oracle. Transactions and
//!   recoveries a workload shares with its predecessor are not repeated
//!   ([`AppRun`], on CrashMonkey's trunk).
//! - [`corpus`]: the three seeded engine bugs as replayable corpus
//!   entries, mirroring the fs-level known-bug corpus.
//!
//! [`FileSystem`]: b3_vfs::FileSystem

pub mod bounds;
pub mod corpus;
pub mod engine;
pub mod generator;
pub mod harness;
pub mod oracle;

pub use bounds::{TxnBounds, TxnOpKind, TxnShard};
pub use engine::{EngineProfile, WalKv, COMMIT_MAGIC, SNAPSHOT_MAGIC};
pub use generator::{TxnWorkload, TxnWorkloadGenerator};
pub use harness::{AppHarness, AppRun, Recovery};
pub use oracle::{CrashPointMeta, TxnOracle};
