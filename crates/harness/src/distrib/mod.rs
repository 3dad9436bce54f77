//! Distributed sweep fan-out: a coordinator/worker protocol over the
//! sharded sweep engine, generalized over pluggable worker transports.
//!
//! The paper fanned its 3.37M workloads out to 780 VMs on a 65-node cluster
//! (§6.1); [`crate::sweep`] is the in-process analogue, and this module is
//! the multi-process *and* multi-machine one. A coordinator owns the shard
//! queue and the checkpoint file; workers speak a tiny length-prefixed,
//! codec-serialized protocol ([`protocol`], specified in
//! `docs/PROTOCOL.md`) over whatever byte pipe a [`Transport`] provides —
//! a child's stdio ([`ChildTransport`]), an inbound TCP connection
//! ([`TcpTransport`], workers dial in with `b3 worker --connect`),
//! or an ssh session ([`SshTransport`], the remote worker's stdio *is* the
//! pipe):
//!
//! ```text
//!  coordinator                               worker (any transport)
//!  ───────────                               ──────────────────────
//!  connect ────────────────────────────────▶ start
//!  [auth links: Challenge { nonce } ──────▶  compute HMAC answer]
//!                               ◀ Hello { version, auth }
//!  (version + challenge answer checked)
//!  Job { job, fingerprint } ───────────────▶ recompute fingerprint; on
//!                                            mismatch: Reject + exit
//!                                          ◀ Claim
//!  Assign { assign_batch shards } ─────────▶ run each shard via the
//!                                            sweep engine's shard runner
//!                          ◀ ShardDone { shard, result }   (per shard)
//!                                          ◀ Claim
//!  …until the queue drains, then…
//!  Shutdown ───────────────────────────────▶ exit 0
//! ```
//!
//! A `ShardDone` frame carries the shard's **grouped** result — per-bug-group
//! exemplars and counts ([`crate::dedup::GroupTable`]), not every raw
//! report — so frame size, coordinator memory, and checkpoint size are all
//! bounded by bug diversity rather than bug density. Every frame's result is
//! recorded into the coordinator's [`SweepCheckpoint`] — once per shard, as
//! only the slot holding a shard may report it — and durably appended to
//! the checkpoint file as one small fsync'd *delta record* (see [`segment`],
//! specified in `docs/FORMATS.md`); the file is an append-only segment log,
//! compacted to a fresh snapshot atomically when the run starts and whenever
//! the deltas outgrow the last snapshot — never rewritten in full per merge.
//!
//! **Worker death is survivable at every layer.** Killing the coordinator
//! loses at most the shards that were in flight (a torn trailing record is
//! ignored on load): the next run replays the file, re-queues exactly the
//! missing shards, and converges to the same counts as an uninterrupted
//! single-process sweep. Killing a *worker* re-queues its in-flight shards
//! and — when [`DistribConfig::respawn_budget`] allows — asks the transport
//! for a replacement link (a fresh child, a fresh inbound connection, a
//! fresh ssh session), so a fleet of perpetually crashing workers still
//! drives the sweep to completion (`tests/distrib.rs` proves the
//! differential, chaos, and respawn directions).
//!
//! **One file decides, this one moves bytes.** Every decision of a run —
//! which shards a `Claim` gets, when a link waits or is shut down, what a
//! `ShardDone` merges and discovers, what a lost link hands back to the
//! queue, the budget and the stop — is made by the coordinator core in
//! `coordinator.rs`, which holds no lock, thread, clock, socket or file and
//! is tested under seeded schedules on one thread. This file is its shell:
//! one thread per worker slot connects and respawns links, runs the
//! handshake, moves frames, appends the delta records to the checkpoint
//! file, waits on a condition variable, fires the hooks, and calls the core
//! once per event under one lock. The in-process sweep engine runs the same
//! core: its threads are slots that run their shards themselves.

use std::path::PathBuf;
use std::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use b3_ace::{Bounds, SpaceTable, WorkloadGenerator};
use b3_app::{EngineProfile, TxnBounds};
use b3_crashmonkey::{CrashMonkeyConfig, CrashPointPolicy};
use b3_vfs::codec::{Decoder, Encoder};
use b3_vfs::error::{FsError, FsResult};
use b3_vfs::{KernelEra, MutantSet};

use crate::corpus::FsKind;
use crate::engine::{self, in_process_scope, JobSpace};
use crate::runner::{spawn_progress_monitor, RunConfig, RunSummary};
use crate::sweep::{Progress, PruneMode, SweepCheckpoint};

pub mod auth;
pub(crate) mod coordinator;
pub mod fleet;
pub mod protocol;
mod recordlog;
pub mod segment;
mod transport;
mod worker;

pub use fleet::{
    inspect_queue, ClientRequest, DaemonReply, FleetClient, FleetConfig, FleetCoordinator,
    FleetEvent, FleetSubscription, JobState, JobStatus,
};
pub use protocol::{Hello, PROTOCOL_VERSION};
pub use segment::{load_checkpoint, save_checkpoint, segment_stats, SegmentStats};
pub use transport::{
    ChildTransport, SshTransport, TcpTransport, Transport, WorkerCommand, WorkerLink,
};
pub use worker::{worker_connect, worker_main, WorkerOptions, WORKER_CRASH_EXIT};

use crate::postprocess::BugGroup;
use coordinator::{Claim, Coordinator};
use protocol::{validate_hello, FromWorker, ToWorker};
use segment::Persister;

/// Which bounded space a [`SweepJob`] sweeps: ACE's file-system operation
/// space, or the application-level transaction space crash-tested through
/// the reference WAL/KV engine (`b3_app`). Either way the unit of work is
/// a shard and the unit of result is a [`crate::sweep::ShardResult`], so
/// everything downstream of the generator — claim/assign frames,
/// checkpoint merging, the fleet queue — is space-agnostic.
#[derive(Debug, Clone)]
pub enum SweepSpace {
    /// ACE's bounded file-system operation space.
    Fs(Bounds),
    /// The bounded transaction space, run through the `b3_app` WAL/KV
    /// engine on top of the job's file system.
    App {
        /// The bounded transaction space.
        bounds: TxnBounds,
        /// Which seeded engine bugs are switched on (participates in the
        /// job scope: buggy- and fixed-engine sweeps never share
        /// checkpoints).
        engine: EngineProfile,
    },
}

/// Everything a worker needs to reproduce its slice of the sweep: which
/// simulated file system (and kernel era) to test, the exact bounded
/// space, the shard split, and the CrashMonkey configuration.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// The simulated file system under test.
    pub fs: FsKind,
    /// The kernel era the file system simulates.
    pub era: KernelEra,
    /// The bounded workload space (file-system ops or app transactions).
    pub space: SweepSpace,
    /// How many shards the space is split into.
    pub num_shards: usize,
    /// CrashMonkey configuration every worker uses.
    pub crashmonkey: CrashMonkeyConfig,
    /// How equivalent candidates are pruned (see
    /// [`crate::sweep::PruneMode`]). Participates in [`SweepJob::scope`] —
    /// and therefore the fingerprint echo — so a coordinator and worker
    /// that disagree on the canonicalization version reject each other
    /// instead of pruning different candidates.
    pub prune: PruneMode,
}

/// Evaluates `$body` with `$space` bound to the job's concrete
/// [`JobSpace`](crate::engine::JobSpace), on the job's file system and
/// fingerprinted under `$scope`. A macro because the body is generic over
/// the space's type, which a closure cannot be. This is the one place a
/// [`SweepSpace`] is dispatched on to run anything: the distributed worker
/// and [`SweepJob::run_in_process`] both come through here.
macro_rules! with_job_space {
    ($job:expr, $scope:expr, |$space:ident| $body:expr) => {{
        use $crate::distrib::{SweepJob, SweepSpace};
        use $crate::engine::{AppSpace, FsSpace};
        use $crate::sweep::SweepCheckpoint;
        let (job, scope): (&SweepJob, &str) = ($job, $scope);
        let spec = job.fs.spec(job.era);
        let (spec, config) = (spec.as_ref(), job.crashmonkey);
        match &job.space {
            SweepSpace::Fs(bounds) => {
                let checkpoint = SweepCheckpoint::scoped(bounds, job.num_shards, scope);
                let $space = &FsSpace::new(spec, config, bounds, checkpoint, job.prune, None);
                $body
            }
            SweepSpace::App { bounds, engine } => {
                let engine = *engine;
                let checkpoint = SweepCheckpoint::scoped_app(bounds, job.num_shards, scope);
                let $space = &AppSpace {
                    spec,
                    config,
                    engine,
                    bounds,
                    checkpoint,
                };
                $body
            }
        }
    }};
}
pub(crate) use with_job_space;

impl SweepJob {
    /// A job over the given file-system operation space with the paper's
    /// evaluation-era defaults (CowFs at 4.16, small CrashMonkey device).
    pub fn new(bounds: Bounds, num_shards: usize) -> SweepJob {
        SweepJob::with_space(SweepSpace::Fs(bounds), num_shards)
    }

    /// A job over the given application transaction space, crash-testing
    /// the `b3_app` WAL/KV engine (with the given seeded-bug profile) on
    /// the job's file system. Same defaults as [`SweepJob::new`].
    pub fn new_app(bounds: TxnBounds, engine: EngineProfile, num_shards: usize) -> SweepJob {
        SweepJob::with_space(SweepSpace::App { bounds, engine }, num_shards)
    }

    fn with_space(space: SweepSpace, num_shards: usize) -> SweepJob {
        SweepJob {
            fs: FsKind::Cow,
            era: KernelEra::EVALUATION,
            space,
            num_shards,
            crashmonkey: CrashMonkeyConfig::small(),
            prune: PruneMode::Off,
        }
    }

    /// The file-system bounds, when this is a [`SweepSpace::Fs`] job.
    pub fn fs_bounds(&self) -> Option<&Bounds> {
        match &self.space {
            SweepSpace::Fs(bounds) => Some(bounds),
            SweepSpace::App { .. } => None,
        }
    }

    /// The engine profile, when this is a [`SweepSpace::App`] job.
    fn engine(&self) -> Option<EngineProfile> {
        match &self.space {
            SweepSpace::Fs(_) => None,
            SweepSpace::App { engine, .. } => Some(*engine),
        }
    }

    /// Rejects jobs no runner can honor. Today that is one rule:
    /// canonicalization is a file-system-workload concept, so an app job
    /// asking for it would have coordinator and workers disagree about
    /// what gets skipped. Checked by the coordinator before any worker is
    /// contacted, by every worker before it claims a shard, and by
    /// [`SweepJob::run_in_process`].
    pub fn validate(&self) -> FsResult<()> {
        if self.engine().is_some() && !self.prune.is_off() {
            return Err(FsError::InvalidArgument(
                "app sweeps have no canonicalization: prune must be off".into(),
            ));
        }
        Ok(())
    }

    /// Runs this job on `config.threads` threads of this process — the
    /// single-process reference every distributed run of the job must
    /// byte-match — and returns the summary with the checkpoint it filled.
    /// The job's own CrashMonkey configuration is used, not `config`'s; the
    /// checkpoint is the one [`Sweep`](crate::Sweep) or
    /// [`AppSweep`](crate::AppSweep) would start from for the same job
    /// (and can resume), not one scoped by [`SweepJob::scope`].
    pub fn run_in_process(&self, config: &RunConfig) -> FsResult<(RunSummary, SweepCheckpoint)> {
        self.validate()?;
        let config = RunConfig {
            crashmonkey: self.crashmonkey,
            ..*config
        };
        let scope = in_process_scope(self.engine(), self.crashmonkey.crash_points, self.prune);
        Ok(with_job_space!(self, &scope, |space| {
            let mut checkpoint = space.empty_checkpoint().clone();
            let summary = engine::run_resumable(space, &config, None, &mut checkpoint);
            (summary, checkpoint)
        }))
    }

    /// Exact (app) or estimated (fs) number of candidate workloads in the
    /// whole space.
    pub fn total_candidates(&self) -> u64 {
        match &self.space {
            SweepSpace::Fs(bounds) => WorkloadGenerator::estimate_candidates(bounds),
            SweepSpace::App { bounds, .. } => bounds.candidates(),
        }
    }

    /// Number of candidate workloads in every shard of this job's split.
    pub fn shard_sizes(&self) -> Vec<u64> {
        let of = self.num_shards;
        match &self.space {
            SweepSpace::Fs(bounds) => {
                let table = SpaceTable::new(bounds);
                (0..of)
                    .map(|index| table.shard(index, of).candidates())
                    .collect()
            }
            SweepSpace::App { bounds, .. } => (0..of)
                .map(|index| bounds.shard(index, of).candidates())
                .collect(),
        }
    }

    /// The crash-point policy as (code, triage audit budget): 0 = last-only,
    /// 1 = all, 2 = all-triaged — on the wire and in [`SweepJob::scope`].
    fn crash_point_code(&self) -> (u8, u32) {
        match self.crashmonkey.crash_points {
            CrashPointPolicy::LastOnly => (0, 0),
            CrashPointPolicy::All => (1, 0),
            CrashPointPolicy::AllTriaged { audit } => (2, audit),
        }
    }

    /// The execution context this job's checkpoints are scoped to: the file
    /// system, kernel era, CrashMonkey configuration, and (when pruning is
    /// on) the prune mode + canonicalization version. Two jobs over
    /// identical bounds but different contexts produce different shard
    /// results, so their checkpoints must never resume or merge into each
    /// other.
    pub fn scope(&self) -> String {
        let cm = &self.crashmonkey;
        // The wire's crash-point code, with the audit budget appended when
        // non-zero. The 0/1 spellings predate triage, so existing scopes
        // are unchanged.
        let cp = match self.crash_point_code() {
            (code, 0) => code.to_string(),
            (code, audit) => format!("{code}a{audit}"),
        };
        let mut scope = format!(
            "{}@{}/blk{}/cp{}{}{}",
            self.fs.paper_name(),
            self.era.as_str(),
            cm.device_blocks,
            cp,
            u8::from(cm.direct_write_is_persistence_point),
            // The slot of a retired kernel-delay flag, always 0, kept so
            // the scopes of existing checkpoints still match.
            0,
        );
        // App jobs drive the WAL/KV engine on top of the file system, and
        // the engine's seeded-bug profile changes every shard result — so
        // it scopes the checkpoint exactly like the file system itself.
        if let Some(engine) = self.engine() {
            scope.push_str(&format!("/app:{}", engine.describe()));
        }
        let canon = self.prune.scope_component();
        if !canon.is_empty() {
            scope.push('/');
            scope.push_str(&canon);
        }
        scope
    }

    /// An empty checkpoint for this job's (space, shard count, context)
    /// triple.
    pub fn empty_checkpoint(&self) -> SweepCheckpoint {
        match &self.space {
            SweepSpace::Fs(bounds) => {
                SweepCheckpoint::scoped(bounds, self.num_shards, &self.scope())
            }
            SweepSpace::App { bounds, .. } => {
                SweepCheckpoint::scoped_app(bounds, self.num_shards, &self.scope())
            }
        }
    }

    pub(crate) fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self.fs.paper_name());
        enc.put_str(self.era.as_str());
        // Protocol v6: a kind byte selects the swept space.
        match &self.space {
            SweepSpace::Fs(bounds) => {
                enc.put_u8(protocol::wire::SPACE_FS);
                bounds.encode(enc);
            }
            SweepSpace::App { bounds, engine } => {
                enc.put_u8(protocol::wire::SPACE_APP);
                bounds.encode(enc);
                // Three engine mutants: their bits fit in the byte.
                enc.put_u8(engine.bits() as u8);
            }
        }
        enc.put_u64(self.num_shards as u64);
        enc.put_u64(self.crashmonkey.device_blocks);
        // Protocol v5: a one-byte policy code plus the triage audit budget
        // (v4 sent a single `All` bool here).
        let (cp_code, cp_audit) = self.crash_point_code();
        enc.put_u8(cp_code);
        enc.put_u32(cp_audit);
        enc.put_bool(self.crashmonkey.direct_write_is_persistence_point);
        // Reserved: the retired `model_kernel_delays` flag's byte, always
        // false, so frames and fleet queues keep their layout.
        enc.put_bool(false);
        self.prune.encode(enc);
    }

    pub(crate) fn decode(dec: &mut Decoder<'_>) -> FsResult<SweepJob> {
        let fs_name = dec.get_str()?;
        let fs = FsKind::parse(&fs_name)
            .ok_or_else(|| FsError::Corrupted(format!("unknown file system {fs_name:?}")))?;
        let era_name = dec.get_str()?;
        let era = KernelEra::parse(&era_name)
            .ok_or_else(|| FsError::Corrupted(format!("unknown kernel era {era_name:?}")))?;
        let space = match dec.get_u8()? {
            protocol::wire::SPACE_FS => SweepSpace::Fs(Bounds::decode(dec)?),
            protocol::wire::SPACE_APP => {
                let bounds = TxnBounds::decode(dec)?;
                let bits = dec.get_u8()?;
                let engine = EngineProfile::from_bits(u64::from(bits)).ok_or_else(|| {
                    FsError::Corrupted(format!("unknown engine profile bits {bits:#04x}"))
                })?;
                SweepSpace::App { bounds, engine }
            }
            other => {
                return Err(FsError::Corrupted(format!(
                    "unknown sweep-space kind {other:#x}"
                )))
            }
        };
        let num_shards = dec.get_u64()? as usize;
        let device_blocks = dec.get_u64()?;
        let cp_code = dec.get_u8()?;
        let cp_audit = dec.get_u32()?;
        let crash_points = match cp_code {
            0 => CrashPointPolicy::LastOnly,
            1 => CrashPointPolicy::All,
            2 => CrashPointPolicy::AllTriaged { audit: cp_audit },
            other => {
                return Err(FsError::Corrupted(format!(
                    "unknown crash-point policy code {other}"
                )))
            }
        };
        let crashmonkey = CrashMonkeyConfig {
            device_blocks,
            crash_points,
            direct_write_is_persistence_point: dec.get_bool()?,
        };
        if dec.get_bool()? {
            return Err(FsError::Corrupted(
                "job sets the reserved byte of the retired kernel-delay flag".into(),
            ));
        }
        let prune = PruneMode::decode(dec)?;
        Ok(SweepJob {
            fs,
            era,
            space,
            num_shards,
            crashmonkey,
            prune,
        })
    }
}

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct DistribConfig {
    /// Number of worker slots to serve. Each slot asks the transport for
    /// one link (plus one per respawn).
    pub workers: usize,
    /// Shards handed out per `Claim`. One is the safest (losing a worker
    /// loses at most one in-flight shard); a larger batch saves a round
    /// trip per shard. Workers pull, so a faster host already claims more.
    pub assign_batch: usize,
    /// How many replacement links a dead worker slot may establish: the
    /// dead link's in-flight shards are re-queued and the transport is
    /// asked for a fresh link (a new child, a new inbound TCP connection,
    /// a new ssh session). `0` (the default) keeps the PR 3 behavior — a
    /// dead worker just shrinks the fleet. Version-mismatch and `Reject`
    /// failures are never respawned (a replacement of the same binary
    /// would fail the same way).
    pub respawn_budget: usize,
    /// Stop handing out work after this many shards have been merged *in
    /// this run* (the chaos tests' stand-in for killing the coordinator
    /// after a partial merge).
    pub stop_after_shards: Option<usize>,
    /// Stop handing out work once this many workloads have been processed
    /// in this run. Shards are the scheduling unit, so the run overshoots
    /// to the end of in-flight shards.
    pub stop_after_workloads: Option<usize>,
    /// Where the merged checkpoint is persisted: a segment log that gets
    /// one durably-appended delta record per merged shard and is compacted
    /// at run start and when the deltas outgrow the last snapshot. `None`
    /// keeps the checkpoint in memory only.
    pub checkpoint_path: Option<PathBuf>,
    /// How often the progress callback fires.
    pub progress_interval: Duration,
}

impl Default for DistribConfig {
    fn default() -> Self {
        DistribConfig {
            workers: 4,
            assign_batch: 1,
            respawn_budget: 0,
            stop_after_shards: None,
            stop_after_workloads: None,
            checkpoint_path: None,
            progress_interval: Duration::from_secs(1),
        }
    }
}

impl DistribConfig {
    /// Rejects configurations the scheduler cannot honor: no worker slot,
    /// or an empty batch. Called by every coordinator entry point.
    pub fn validate(&self) -> FsResult<()> {
        if self.workers == 0 || self.assign_batch == 0 {
            return Err(FsError::InvalidArgument(
                "workers and assign_batch must each be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// What a coordinator run produced.
#[derive(Debug)]
pub struct DistribOutcome {
    /// Aggregate counts of *all* completed shards (including ones restored
    /// from the checkpoint file), in shard order — identical to a
    /// single-process sweep's summary once complete.
    pub summary: RunSummary,
    /// The merged checkpoint (also persisted to the checkpoint file, when
    /// one is configured).
    pub checkpoint: SweepCheckpoint,
    /// Shards that were already in the checkpoint when this run started.
    pub resumed_shards: usize,
    /// Workloads processed (tested + skipped) by *this* run, excluding
    /// work restored from the checkpoint.
    pub processed_this_run: usize,
    /// Wall-clock time of this run.
    pub elapsed: Duration,
    /// Worker slots that gave up (exited or broke the protocol with no
    /// respawn budget left) before shutdown.
    pub failed_workers: usize,
    /// Replacement links established after worker deaths, across all
    /// slots. A slot that respawned and then finished cleanly counts here
    /// but not in `failed_workers`.
    pub respawns: usize,
}

impl DistribOutcome {
    /// True once every shard of the space is recorded.
    pub fn is_complete(&self) -> bool {
        self.checkpoint.is_complete()
    }

    /// Workloads per second of wall-clock time achieved by this run (not
    /// counting checkpointed work from previous runs).
    pub fn throughput_this_run(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.processed_this_run as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// Observation and control hooks for [`run_with_transport_hooked`] — what
/// the fleet daemon plugs into a job run. All hooks are optional; the
/// no-hook default is exactly [`run_with_transport`].
#[derive(Default)]
pub struct DistribHooks<'a> {
    /// Fired every [`DistribConfig::progress_interval`] with a state
    /// snapshot (and once more when the run ends).
    pub progress: Option<&'a (dyn Fn(&Progress) + Sync)>,
    /// Fired once per bug group the first time it is merged into the
    /// checkpoint *in this run* (groups restored from the checkpoint file
    /// do not re-fire) — the fleet daemon's live discovery stream.
    pub on_discovery: Option<&'a (dyn Fn(&BugGroup) + Sync)>,
    /// Polled at every claim; returning `true` stops handing out work, as
    /// if a stop budget had been reached — in-flight shards still finish
    /// and persist, so the run winds down to a cleanly resumable
    /// checkpoint. The fleet daemon uses this for graceful shutdown with
    /// a job mid-flight.
    pub should_stop: Option<&'a (dyn Fn() -> bool + Sync)>,
}

/// Runs (or resumes) a distributed sweep over any [`Transport`]: serves
/// `config.workers` worker slots, feeds each link
/// [`DistribConfig::assign_batch`] shards per claim, merges every returned
/// grouped per-shard result into the checkpoint, and durably appends each
/// merge to the checkpoint file as one delta record (compacting the file
/// when the deltas outgrow the last snapshot — never a full rewrite per
/// shard).
///
/// When `config.checkpoint_path` names an existing file, the sweep resumes
/// from it; a checkpoint recorded for a different sweep — other bounds,
/// shard count, file system, kernel era, or CrashMonkey configuration
/// ([`SweepJob::scope`]) — is rejected with an error rather than silently
/// combined. Worker death is tolerated: the dead link's in-flight shards
/// go back on the queue, and the slot asks the transport for a
/// replacement link while [`DistribConfig::respawn_budget`] lasts. If a
/// slot gives up, surviving slots absorb its work; if *every* slot gives
/// up the coordinator returns an incomplete (but persisted) checkpoint the
/// next run picks up.
pub fn run_with_transport(
    job: &SweepJob,
    config: &DistribConfig,
    transport: &dyn Transport,
    progress: Option<&(dyn Fn(&Progress) + Sync)>,
) -> FsResult<DistribOutcome> {
    run_with_transport_hooked(
        job,
        config,
        transport,
        DistribHooks {
            progress,
            ..DistribHooks::default()
        },
    )
}

/// [`run_with_transport`] with the full [`DistribHooks`] surface: live
/// bug-group discovery streaming and cooperative stop, in addition to the
/// progress callback. This is the entry point the fleet daemon
/// ([`fleet::FleetCoordinator`]) schedules queued jobs through.
pub fn run_with_transport_hooked(
    job: &SweepJob,
    config: &DistribConfig,
    transport: &dyn Transport,
    hooks: DistribHooks<'_>,
) -> FsResult<DistribOutcome> {
    config.validate()?;
    job.validate()?;
    let started = Instant::now();
    let checkpoint = match &config.checkpoint_path {
        Some(path) => match load_checkpoint(path)? {
            Some(existing) => {
                // The scope covers the file system, era, and CrashMonkey
                // configuration: a checkpoint recorded under any other
                // execution context (not just other bounds) is rejected.
                if existing.fingerprint() != job.empty_checkpoint().fingerprint() {
                    return Err(FsError::InvalidArgument(format!(
                        "checkpoint {} was recorded for a different sweep \
                         (its fingerprint: {})",
                        path.display(),
                        existing.fingerprint()
                    )));
                }
                existing
            }
            None => job.empty_checkpoint(),
        },
        None => job.empty_checkpoint(),
    };
    let resumed_shards = checkpoint.completed_shards();
    // Open the persister only after the loaded checkpoint was validated:
    // opening compacts (rewrites) the file, and a mismatched checkpoint
    // must be rejected untouched.
    let persister = match &config.checkpoint_path {
        Some(path) => Some(Persister::open(path, &checkpoint)?),
        None => None,
    };
    let shell = Shell {
        core: Mutex::new(Coordinator::new(
            checkpoint,
            job.shard_sizes(),
            job.total_candidates(),
            config,
        )),
        wake: Condvar::new(),
        job_frame: ToWorker::Job {
            job: Box::new(job.clone()),
            fingerprint: job.empty_checkpoint().fingerprint().to_string(),
        }
        .to_frame(),
        persister,
        config,
        transport,
        hooks,
    };
    let (failed_workers, respawns, error) = std::thread::scope(|scope| {
        let shell = &shell;
        // Held until every slot is joined; a slot's panic drops it on the way
        // out, so the monitor stops and the panic surfaces.
        let _monitor = shell.hooks.progress.map(|callback| {
            let snapshot = move || shell.core().progress(started.elapsed());
            spawn_progress_monitor(scope, callback, config.progress_interval, snapshot)
        });
        let handles: Vec<_> = (0..config.workers)
            .map(|index| scope.spawn(move || shell.serve_slot(index)))
            .collect();
        let (mut failed_workers, mut respawns, mut first_error) = (0, 0, None);
        for handle in handles {
            // A panicking slot thread is a harness bug; surface the
            // original panic instead of a generic message.
            let (slot_respawns, result) = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            respawns += slot_respawns;
            if let Err(error) = result {
                failed_workers += 1;
                first_error.get_or_insert(error);
            }
        }
        (failed_workers, respawns, first_error)
    });
    // No final rewrite: every merged shard is already on disk as a delta
    // record (the same state a killed coordinator leaves behind); the next
    // run's persister open compacts the log.
    let (checkpoint, processed_this_run) = unpoisoned(shell.core.into_inner()).finish(error)?;
    let mut summary = checkpoint.summary();
    summary.elapsed = started.elapsed();
    Ok(DistribOutcome {
        summary,
        checkpoint,
        resumed_shards,
        processed_this_run,
        elapsed: started.elapsed(),
        failed_workers,
        respawns,
    })
}

/// Recovers a lock result whose mutex a panicking thread poisoned: the
/// core is consistent between calls, and the panic itself surfaces when
/// its thread is joined. Both callers of the core lock it through this.
pub(crate) fn unpoisoned<T>(result: LockResult<T>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// The I/O shell of one run around its [`Coordinator`]: the slot threads
/// share it, call the core under its one lock, and do everything the core
/// does not — connect and respawn, handshake, frames, the checkpoint file,
/// waiting and the hooks.
struct Shell<'a> {
    core: Mutex<Coordinator>,
    /// Notified whenever a merge, a requeue or a stop may change what a
    /// waiting slot's claim gets.
    wake: Condvar,
    job_frame: Vec<u8>,
    persister: Option<Persister>,
    config: &'a DistribConfig,
    transport: &'a dyn Transport,
    hooks: DistribHooks<'a>,
}

/// How one link's session ended, as seen by the slot's respawn loop.
enum LinkEnd {
    /// Clean shutdown: the queue drained (or a stop condition fired) and
    /// the worker was told to exit.
    Finished,
    /// The link died or desynced mid-session; a replacement link can pick
    /// up where it left off.
    Lost(FsError),
    /// The failure is inherent to the worker binary or the coordinator
    /// (version mismatch, `Reject`, a desynced stream, a
    /// checkpoint-persist error): respawning would fail identically, so
    /// the slot gives up immediately.
    Fatal(FsError),
}

impl LinkEnd {
    /// Classifies a receive failure: a `Corrupted` error means the frame
    /// stream itself is desynced (oversized frame, unknown tag, truncated
    /// payload) — a respawned copy of the same binary would desync the
    /// same way, so it is fatal, exactly as `docs/PROTOCOL.md`'s error
    /// table specifies. IO errors (`Device`) mean the worker died; a
    /// replacement can pick up.
    fn from_recv_error(error: FsError) -> LinkEnd {
        match error {
            FsError::Corrupted(_) => LinkEnd::Fatal(error),
            other => LinkEnd::Lost(other),
        }
    }
}

impl Shell<'_> {
    fn core(&self) -> MutexGuard<'_, Coordinator> {
        unpoisoned(self.core.lock())
    }

    /// Drives one worker slot to completion: connect through the
    /// transport, serve the link until it finishes or dies, and — within
    /// the respawn budget — replace dead links until the sweep has no work
    /// left for this slot. Returns the replacement links it established,
    /// and an error if the slot gave up with the sweep unfinished.
    fn serve_slot(&self, index: usize) -> (usize, FsResult<()>) {
        let mut respawns_left = self.config.respawn_budget;
        let mut links = 0usize;
        // Also polled by slow transports (a TCP listener waiting for a
        // worker to dial in), so a slot stops waiting the moment the sweep
        // has no work left for workers that are never coming.
        let no_work_left = || self.core().no_work_left();
        let result = loop {
            if no_work_left() {
                self.core().link_down(index);
                break Ok(());
            }
            let end = match self.transport.connect(&no_work_left) {
                // Cancelled: the no-work check winds the slot down.
                Ok(None) => continue,
                Ok(Some(mut link)) => {
                    links += 1;
                    let end = self.serve_link(index, link.as_mut());
                    match end {
                        LinkEnd::Finished => link.close(),
                        _ => link.abort(),
                    }
                    end
                }
                Err(error) => LinkEnd::Lost(error),
            };
            // Before any replacement's handshake: the slot stops counting
            // as alive, and the slots waiting for its shards wake.
            self.core().link_down(index);
            self.wake.notify_all();
            match end {
                LinkEnd::Finished => break Ok(()),
                LinkEnd::Lost(error) if respawns_left == 0 => break Err(error),
                LinkEnd::Lost(_) => respawns_left -= 1,
                LinkEnd::Fatal(error) => break Err(error),
            }
        };
        // Only an established link counts as a respawn: a granted retry
        // that never connects is not a replacement link.
        (links.saturating_sub(1), result)
    }

    /// Durably appends one merged shard's delta record (one small fsync'd
    /// append), compacting the file when the deltas have outgrown the last
    /// snapshot. Always called outside the core's lock, so other links
    /// never stall behind the file IO.
    fn persist(&self, delta: Option<(u64, Vec<u8>)>) -> FsResult<()> {
        let (Some(persister), Some((version, delta))) = (&self.persister, delta) else {
            return Ok(());
        };
        if persister.append_delta(version, &delta)? {
            let (version, snapshot) = self.core().snapshot();
            persister.compact(version, &snapshot)?;
        }
        Ok(())
    }

    /// Serves one established link: the handshake, then claims and results
    /// until the worker is shut down or the link ends. The delta record of
    /// a batch's last result is left unpersisted while the worker's next
    /// `Claim` — which the worker writes right behind that `ShardDone` — is
    /// read and answered, so the worker runs its next shard while the
    /// record is fsync'd instead of idling through the fsync (whose latency
    /// is the disk's, not ours: it was the one part of a fan-out's wall
    /// time that varied run to run). The record is appended as soon as the
    /// `Assign` is out, before this link waits for shards or shuts the
    /// worker down, and however else the session ends. Killing the
    /// coordinator still loses only results whose append had not returned.
    fn serve_link(&self, index: usize, link: &mut dyn WorkerLink) -> LinkEnd {
        // Links whose transport demands authentication open with a
        // Challenge *instead of* the eager Job: the worker must answer the
        // challenge in its Hello before it learns anything about the job.
        // Everyone else gets the Job eagerly, before the coordinator waits
        // for the handshake: a v2+ worker's Hello simply crosses it on the
        // wire — but a pre-handshake (v1) binary writes nothing until it
        // has a Job, and awaiting its Hello first would deadlock both sides
        // forever. Fed a Job, a v1 worker answers Claim instead of Hello,
        // which the check below turns into the intended clean rejection.
        let challenge = link
            .required_secret()
            .map(|secret| (secret.to_string(), auth::make_nonce()));
        let opening = match &challenge {
            Some((_, nonce)) => ToWorker::Challenge {
                nonce: nonce.clone(),
            }
            .to_frame(),
            None => self.job_frame.clone(),
        };
        if let Err(error) = link.send(&opening) {
            return LinkEnd::Lost(error);
        }

        // Handshake: the worker leads with Hello; anything else (or a dead
        // pipe) means the binary predates the handshake or crashed on
        // start. A challenged worker without the secret sends Reject, which
        // the dispatch below turns into a fatal (never-respawned) refusal.
        let hello = match link.recv().and_then(|f| FromWorker::from_frame(&f)) {
            Ok(FromWorker::Hello(hello)) => hello,
            Ok(FromWorker::Reject { reason }) => {
                return LinkEnd::Fatal(FsError::InvalidArgument(format!(
                    "worker {} refused the handshake: {reason}",
                    link.endpoint()
                )))
            }
            Ok(_) => {
                return LinkEnd::Fatal(FsError::Corrupted(
                    "worker did not open with a Hello frame (pre-handshake binary?)".into(),
                ))
            }
            Err(error) => return LinkEnd::from_recv_error(error),
        };
        if let Err(error) = validate_hello(&hello) {
            return LinkEnd::Fatal(error);
        }
        if let Some((secret, nonce)) = &challenge {
            if !auth::verify_auth_tag(secret, nonce, &hello.auth) {
                // Kill the link without sending the Job: an unauthenticated
                // peer learns nothing about the sweep. Fatal, not lost — a
                // respawned copy of the same worker has the same (missing
                // or wrong) secret.
                return LinkEnd::Fatal(FsError::InvalidArgument(format!(
                    "worker {} failed the shared-secret challenge (wrong or missing secret)",
                    link.endpoint()
                )));
            }
            // Authenticated: the Job the unauthenticated path sent eagerly
            // goes out now.
            if let Err(error) = link.send(&self.job_frame) {
                return LinkEnd::Lost(error);
            }
        }
        self.core().link_up(index, link.endpoint());

        let mut unpersisted = None;
        let end = 'session: loop {
            let message = match link.recv().and_then(|f| FromWorker::from_frame(&f)) {
                Ok(message) => message,
                Err(error) => break LinkEnd::from_recv_error(error),
            };
            match message {
                FromWorker::Hello(_) => {
                    break LinkEnd::Fatal(FsError::Corrupted(
                        "worker sent a second Hello mid-session".into(),
                    ))
                }
                FromWorker::Reject { reason } => {
                    break LinkEnd::Fatal(FsError::InvalidArgument(format!(
                        "worker {} refused the job: {reason}",
                        link.endpoint()
                    )))
                }
                FromWorker::Claim => {
                    // The fleet daemon's graceful-stop hook, polled at
                    // every claim (the scheduling decision point).
                    let stop = self.hooks.should_stop.is_some_and(|hook| hook());
                    let mut core = self.core();
                    let claim = loop {
                        match core.claim(index, stop) {
                            Err(error) => break 'session LinkEnd::Fatal(error),
                            // The wait has no bound, so nothing stays
                            // unpersisted across it.
                            Ok(Claim::Wait) if unpersisted.is_some() => {
                                drop(core);
                                if let Err(error) = self.persist(unpersisted.take()) {
                                    break 'session LinkEnd::Fatal(error);
                                }
                                core = self.core();
                            }
                            Ok(Claim::Wait) => core = unpoisoned(self.wake.wait(core)),
                            Ok(claim) => break claim,
                        }
                    };
                    drop(core);
                    let Claim::Assign(batch) = claim else {
                        // A stop shuts the waiting slots down too.
                        self.wake.notify_all();
                        if let Err(error) = self.persist(unpersisted.take()) {
                            break LinkEnd::Fatal(error);
                        }
                        break match link.send(&ToWorker::Shutdown.to_frame()) {
                            Ok(()) => LinkEnd::Finished,
                            Err(error) => LinkEnd::Lost(error),
                        };
                    };
                    if let Err(error) = link.send(&ToWorker::Assign(batch).to_frame()) {
                        break LinkEnd::Lost(error);
                    }
                    // The worker is running again: now the fsync costs it
                    // nothing.
                    if let Err(error) = self.persist(unpersisted.take()) {
                        break LinkEnd::Fatal(error);
                    }
                }
                FromWorker::ShardDone { shard, result } => {
                    // The delta record's payload, `shard | ShardResult`,
                    // encoded before the core takes the result, outside its
                    // lock.
                    let mut delta = Encoder::new();
                    delta.put_u32(shard);
                    result.encode(&mut delta);
                    let discover = self.hooks.on_discovery.is_some();
                    let merged = match self.core().shard_done(index, shard, result, discover) {
                        Ok(merged) => merged,
                        Err(error) => break LinkEnd::Fatal(error),
                    };
                    self.wake.notify_all();
                    if let Some(hook) = self.hooks.on_discovery {
                        merged.discovered.iter().for_each(hook);
                    }
                    // When this was the last shard the worker held, its
                    // `Claim` is already on the wire: answer that first.
                    let delta = Some((merged.version, delta.finish()));
                    if merged.idle {
                        unpersisted = delta;
                    } else if let Err(error) = self.persist(delta) {
                        break LinkEnd::Fatal(error);
                    }
                }
            }
        };
        // However the session ended, a merged result must reach the disk.
        // A persist failure is the coordinator's: respawning the worker
        // cannot fix the disk.
        match self.persist(unpersisted) {
            Ok(()) => end,
            Err(error) => LinkEnd::Fatal(error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// The moment a link dies its slot stops counting as alive — progress
    /// output must never show a live rate on a dead endpoint — but keeps
    /// the endpoint, so the row still names the machine.
    #[test]
    fn dead_slots_drop_their_rates_immediately() {
        let job = SweepJob::new(Bounds::tiny(), 2);
        let config = DistribConfig {
            workers: 1,
            ..DistribConfig::default()
        };
        let mut core = Coordinator::new(job.empty_checkpoint(), vec![5; 2], 10, &config);
        let second = Duration::from_secs(1);
        core.link_up(0, "127.0.0.1:9999");
        assert!(core.progress(second).per_worker[0].throughput.is_some());

        core.link_down(0);
        let row = &core.progress(second).per_worker[0];
        assert!(row.throughput.is_none());
        assert_eq!(
            row.endpoint, "127.0.0.1:9999",
            "the endpoint stays for attribution"
        );
    }

    /// A slot thread that panics (here in the transport's `connect`) fails
    /// the run with its panic, also when a progress monitor is running: the
    /// monitor must stop instead of keeping the thread scope open forever.
    #[test]
    fn a_panicking_slot_fails_a_run_that_has_a_progress_hook() {
        struct PanickingTransport;
        impl Transport for PanickingTransport {
            fn describe(&self) -> String {
                "panicking".into()
            }
            fn connect(
                &self,
                _cancelled: &(dyn Fn() -> bool + Sync),
            ) -> FsResult<Option<Box<dyn WorkerLink>>> {
                panic!("connect panicked");
            }
        }

        let (sender, ended) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let job = SweepJob::new(Bounds::tiny(), 2);
            let config = DistribConfig {
                workers: 1,
                progress_interval: Duration::from_millis(10),
                ..DistribConfig::default()
            };
            let progress = |_: &Progress| {};
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_with_transport(&job, &config, &PanickingTransport, Some(&progress))
            }));
            let _ = sender.send(run.is_err());
        });
        let panicked = ended
            .recv_timeout(Duration::from_secs(15))
            .expect("the run ends instead of waiting for its progress monitor");
        assert!(panicked, "the slot's panic surfaces");
    }

    /// A coordinator with no slot, or with empty batches, cannot run a
    /// shard: refused up front, not silently corrected — and every entry
    /// point validates, so such a config never reaches a transport.
    #[test]
    fn zero_workers_or_an_empty_batch_is_rejected() {
        let job = SweepJob::new(Bounds::tiny(), 2);
        let transport = ChildTransport::new(WorkerCommand::new("unused"));
        for config in [
            DistribConfig {
                workers: 0,
                ..DistribConfig::default()
            },
            DistribConfig {
                assign_batch: 0,
                ..DistribConfig::default()
            },
        ] {
            let error = run_with_transport(&job, &config, &transport, None).unwrap_err();
            assert!(error.to_string().contains("at least 1"), "{error}");
        }
        DistribConfig::default().validate().unwrap();
    }

    /// The byte the retired kernel-delay flag held stays in the job body,
    /// always 0: a job that sets it came from a build that modeled the
    /// delays, and is refused rather than run without them.
    #[test]
    fn a_job_that_sets_the_reserved_byte_is_refused() {
        let mut enc = Encoder::new();
        SweepJob::new(Bounds::tiny(), 2).encode(&mut enc);
        let mut bytes = enc.finish();
        // The body ends with the two flag bytes and the 5-byte prune mode.
        let reserved = bytes.len() - 6;
        assert_eq!(bytes[reserved], 0);
        SweepJob::decode(&mut Decoder::new(&bytes)).unwrap();
        bytes[reserved] = 1;
        let error = SweepJob::decode(&mut Decoder::new(&bytes)).unwrap_err();
        assert!(
            error.to_string().contains("retired kernel-delay flag"),
            "{error}"
        );
    }

    /// The error table in `docs/PROTOCOL.md`: desynced streams are fatal
    /// (a respawned identical binary would desync again), dead pipes are
    /// retryable.
    #[test]
    fn recv_error_classification_matches_the_spec() {
        assert!(matches!(
            LinkEnd::from_recv_error(FsError::Corrupted("unknown tag".into())),
            LinkEnd::Fatal(_)
        ));
        assert!(matches!(
            LinkEnd::from_recv_error(FsError::Device("broken pipe".into())),
            LinkEnd::Lost(_)
        ));
    }

    /// Serves `link` as the only slot of a fresh coordinator with all of
    /// `job`'s shards queued.
    fn serve_mock_link(
        job: &SweepJob,
        config: &DistribConfig,
        persister: Option<Persister>,
        link: &mut dyn WorkerLink,
    ) -> LinkEnd {
        let checkpoint = job.empty_checkpoint();
        let shard_sizes = vec![5u64; job.num_shards];
        let transport = ChildTransport::new(WorkerCommand::new("unused"));
        let shell = Shell {
            core: Mutex::new(Coordinator::new(checkpoint, shard_sizes, 0, config)),
            wake: Condvar::new(),
            job_frame: ToWorker::Job {
                job: Box::new(job.clone()),
                fingerprint: job.empty_checkpoint().fingerprint().to_string(),
            }
            .to_frame(),
            persister,
            config,
            transport: &transport,
            hooks: DistribHooks::default(),
        };
        shell.serve_link(0, link)
    }

    /// A pre-handshake (protocol v1) worker never sends Hello — its first
    /// action is to wait for a Job. Because the coordinator sends the Job
    /// eagerly, such a worker answers `Claim` instead of `Hello`, and the
    /// session must end in a clean fatal rejection rather than both sides
    /// blocking on a frame the other will never send.
    #[test]
    fn pre_handshake_worker_is_rejected_not_deadlocked() {
        struct V1Link;
        impl WorkerLink for V1Link {
            fn endpoint(&self) -> &str {
                "mock:v1"
            }
            fn send(&mut self, _payload: &[u8]) -> FsResult<()> {
                Ok(())
            }
            fn recv(&mut self) -> FsResult<Vec<u8>> {
                // The v1 worker consumed the eagerly sent Job (its decoder
                // ignores the trailing fingerprint) and claims work.
                Ok(FromWorker::Claim.to_frame())
            }
            fn close(&mut self) {}
            fn abort(&mut self) {}
        }

        let job = SweepJob::new(Bounds::tiny(), 2);
        let config = DistribConfig {
            workers: 1,
            ..DistribConfig::default()
        };
        match serve_mock_link(&job, &config, None, &mut V1Link) {
            LinkEnd::Fatal(error) => {
                assert!(error.to_string().contains("Hello"), "{error}");
            }
            LinkEnd::Finished => panic!("a pre-handshake worker must not finish cleanly"),
            LinkEnd::Lost(error) => panic!("must be fatal, not retryable: {error}"),
        }
    }

    /// Plays a healthy worker from the coordinator's side of the link —
    /// `Hello`, then `Claim` → `Assign` → one `ShardDone` per shard →
    /// `Claim` … — and notes how many delta records the checkpoint file
    /// holds at every `Assign` / `Shutdown` sent and at every `recv`.
    struct ScriptedWorker {
        checkpoint_path: PathBuf,
        /// Frames the "worker" has written and the link has not delivered.
        outbox: VecDeque<Vec<u8>>,
        /// Dies (recv error) instead of claiming again after this many
        /// results.
        die_after_results: Option<usize>,
        results: usize,
        deltas_at_assign: Vec<usize>,
        deltas_at_recv: Vec<usize>,
        deltas_at_shutdown: Option<usize>,
    }

    impl ScriptedWorker {
        fn new(checkpoint_path: PathBuf, die_after_results: Option<usize>) -> ScriptedWorker {
            let hello = FromWorker::Hello(Hello {
                version: PROTOCOL_VERSION,
                auth: String::new(),
            });
            ScriptedWorker {
                checkpoint_path,
                outbox: [hello.to_frame(), FromWorker::Claim.to_frame()].into(),
                die_after_results,
                results: 0,
                deltas_at_assign: Vec::new(),
                deltas_at_recv: Vec::new(),
                deltas_at_shutdown: None,
            }
        }

        fn deltas_on_disk(&self) -> usize {
            segment_stats(&self.checkpoint_path).unwrap().deltas
        }
    }

    impl WorkerLink for ScriptedWorker {
        fn endpoint(&self) -> &str {
            "mock:scripted"
        }
        fn send(&mut self, payload: &[u8]) -> FsResult<()> {
            match ToWorker::from_frame(payload)? {
                ToWorker::Assign(shards) => {
                    self.deltas_at_assign.push(self.deltas_on_disk());
                    for shard in shards {
                        let result = crate::sweep::ShardResult::default();
                        self.outbox
                            .push_back(FromWorker::ShardDone { shard, result }.to_frame());
                        self.results += 1;
                    }
                    if self.die_after_results.is_none_or(|n| self.results < n) {
                        self.outbox.push_back(FromWorker::Claim.to_frame());
                    }
                }
                ToWorker::Shutdown => self.deltas_at_shutdown = Some(self.deltas_on_disk()),
                ToWorker::Job { .. } | ToWorker::Challenge { .. } => {}
            }
            Ok(())
        }
        fn recv(&mut self) -> FsResult<Vec<u8>> {
            self.deltas_at_recv.push(self.deltas_on_disk());
            self.outbox
                .pop_front()
                .ok_or_else(|| FsError::Device("scripted worker died".into()))
        }
        fn close(&mut self) {}
        fn abort(&mut self) {}
    }

    /// Serves one [`ScriptedWorker`] link over a 4-shard job with a fresh
    /// segment-log checkpoint.
    fn serve_scripted(
        test: &str,
        assign_batch: usize,
        die_after_results: Option<usize>,
    ) -> (LinkEnd, ScriptedWorker, usize) {
        let dir = std::env::temp_dir().join(format!("b3-distrib-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.b3sg");

        let job = SweepJob::new(Bounds::tiny(), 4);
        let config = DistribConfig {
            workers: 1,
            assign_batch,
            ..DistribConfig::default()
        };
        let persister = Persister::open(&path, &job.empty_checkpoint()).unwrap();
        let mut worker = ScriptedWorker::new(path.clone(), die_after_results);
        let end = serve_mock_link(&job, &config, Some(persister), &mut worker);
        let deltas = segment_stats(&path).unwrap().deltas;
        let _ = std::fs::remove_dir_all(&dir);
        (end, worker, deltas)
    }

    /// The fsync of a batch's last result must not sit between the worker's
    /// `Claim` and its `Assign` — and must not be put off any further than
    /// that either.
    #[test]
    fn next_assign_goes_out_before_the_previous_result_is_fsynced() {
        let (end, worker, deltas) = serve_scripted("overlap", 1, None);
        assert!(matches!(end, LinkEnd::Finished));
        // Assign k goes out while result k-1 is still unpersisted…
        assert_eq!(worker.deltas_at_assign, [0, 0, 1, 2]);
        // …which is on disk by the time the link reads again (recvs: Hello,
        // first Claim, then ShardDone + Claim per shard).
        assert_eq!(worker.deltas_at_recv, [0, 0, 0, 0, 1, 1, 2, 2, 3, 3]);
        // Nothing is left for after the worker's shutdown.
        assert_eq!(worker.deltas_at_shutdown, Some(4));
        assert_eq!(deltas, 4);
    }

    /// Inside a batch no `Claim` is coming, so every result but the batch's
    /// last is persisted before the link reads the next frame.
    #[test]
    fn results_inside_a_batch_are_persisted_at_once() {
        let (end, worker, deltas) = serve_scripted("batch", 2, None);
        assert!(matches!(end, LinkEnd::Finished));
        assert_eq!(worker.deltas_at_assign, [0, 1]);
        // Hello, Claim, ShardDone 0, ShardDone 1, Claim, ShardDone 2, …
        assert_eq!(worker.deltas_at_recv, [0, 0, 0, 1, 1, 2, 3, 3]);
        assert_eq!(worker.deltas_at_shutdown, Some(4));
        assert_eq!(deltas, 4);
    }

    /// A worker that dies right behind a result (before claiming again)
    /// ends the session with that result merged but unpersisted; it must
    /// still reach the disk.
    #[test]
    fn a_result_is_persisted_even_if_the_worker_dies_before_claiming_again() {
        let (end, worker, deltas) = serve_scripted("dies", 1, Some(2));
        assert!(matches!(end, LinkEnd::Lost(_)));
        assert_eq!(worker.results, 2);
        assert_eq!(deltas, 2);
    }
}
