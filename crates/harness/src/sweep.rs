//! Sharded, resumable sweeps over bounded workload spaces: the public
//! facades ([`Sweep`] for ACE's file-system spaces, [`AppSweep`] for
//! `b3_app` transaction spaces) and the data they share — per-shard
//! results, checkpoints, progress, prune modes. The shard loop behind both
//! facades lives once, in the crate's `engine` module, and so does their
//! threaded runner of the one shard scheduler, the distributed coordinator
//! core.
//!
//! A sweep splits the bounded space into deterministic generator shards
//! ([`Bounds::shard`]) and lets worker threads *steal whole shards*: each
//! thread is a slot of the coordinator core, claims one shard at a time
//! from its queue and reports the result back for merging, and inside a
//! shard it drives its own generator with no shared state at all — the
//! in-process analogue of the paper copying workload subsets to 780 VMs
//! (§6.1).
//!
//! Because every shard is independently enumerable, a sweep can stop and
//! resume: a [`SweepCheckpoint`] records the per-shard results of every
//! *completed* shard (serialized with the workspace codec), and a resumed
//! sweep re-runs only the shards the checkpoint is missing. A killed sweep
//! therefore converges to exactly the same [`RunSummary`] counts as an
//! uninterrupted one — partially processed shards are simply re-run.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use b3_ace::canon::Classifier;
use b3_ace::{Bounds, WorkloadGenerator, CANON_VERSION};
use b3_app::{EngineProfile, TxnBounds};
use b3_crashmonkey::WorkloadOutcome;
use b3_vfs::codec::{Decoder, Encoder};
use b3_vfs::error::{FsError, FsResult};
use b3_vfs::fs::FsSpec;

use crate::dedup::GroupTable;
use crate::engine::{self, in_process_scope, AppSpace, FsSpace};
use crate::postprocess::BugGroup;
use crate::runner::{RunConfig, RunSummary};

/// Live throughput of one worker slot — a worker process of a distributed
/// sweep (see [`crate::distrib`]), or a thread of an in-process one — as
/// counted from the shards it has merged.
#[derive(Debug, Clone)]
pub struct WorkerThroughput {
    /// Worker index (0-based, stable for the life of the coordinator).
    pub worker: usize,
    /// Transport endpoint of the worker's current link (`child:<pid>`,
    /// `host:port`, `ssh:<host>#<pid>`), so multi-host progress output is
    /// attributable to a machine rather than a bare index. Empty until the
    /// worker's handshake arrives, and always for in-process threads.
    pub endpoint: String,
    /// Workloads this worker has tested so far.
    pub tested: u64,
    /// Shards this worker has completed so far.
    pub shards: u64,
    /// Workloads tested per second of wall-clock time, or `None` once the
    /// worker (or thread) has exited, cleanly or not.
    pub throughput: Option<f64>,
}

/// A point-in-time view of a running sweep, handed to progress callbacks.
#[derive(Debug, Clone)]
pub struct Progress {
    /// Workloads tested so far (including resumed shards).
    pub tested: usize,
    /// Workloads skipped so far (could not execute at all).
    pub skipped: usize,
    /// Candidates pruned as equivalent to an earlier representative
    /// ([`PruneMode`]) — distinct from `skipped`, so throughput numbers
    /// stay honest about what was actually crash-tested.
    pub pruned: usize,
    /// Workloads that produced at least one bug report.
    pub bugs: usize,
    /// Shards fully completed (including ones restored from a checkpoint).
    pub completed_shards: usize,
    /// Total shards in the sweep.
    pub total_shards: usize,
    /// Upper bound on the total workloads of the space.
    pub total_workloads: u64,
    /// Wall-clock time since the sweep (or this resume) started.
    pub elapsed: Duration,
    /// Estimated time to completion, extrapolated from throughput so far.
    pub eta: Option<Duration>,
    /// Per-worker throughput: one entry per worker process of a distributed
    /// sweep, or per thread of an in-process one. The counts above and these
    /// rows advance as shards merge, not per workload.
    pub per_worker: Vec<WorkerThroughput>,
}

impl Progress {
    /// One-line human-readable rendering (used by the examples).
    pub fn describe(&self) -> String {
        let mut line = format!("tested {} / skipped {}", self.tested, self.skipped);
        if self.pruned > 0 {
            line.push_str(&format!(" / pruned {}", self.pruned));
        }
        line.push_str(&format!(
            " / bugs {} | shards {}/{} | ~{} candidates",
            self.bugs, self.completed_shards, self.total_shards, self.total_workloads
        ));
        line.push_str(&format!(" | {:.1?} elapsed", self.elapsed));
        if let Some(eta) = self.eta {
            line.push_str(&format!(" | ~{eta:.0?} left"));
        }
        if !self.per_worker.is_empty() {
            let workers: Vec<String> = self
                .per_worker
                .iter()
                .map(|w| {
                    let label = if w.endpoint.is_empty() {
                        format!("w{}", w.worker)
                    } else {
                        format!("w{}@{}", w.worker, w.endpoint)
                    };
                    match w.throughput {
                        Some(rate) => format!("{label} {rate:.0}/s"),
                        None => format!("{label} gone"),
                    }
                })
                .collect();
            line.push_str(&format!(" | [{}]", workers.join(" ")));
        }
        line
    }
}

/// Time left in a sweep, extrapolated from the shards this run completed
/// (shards are near-equal slices of the candidate space, and unlike
/// workload counts the shard total is exact, so the estimate converges to
/// zero). `None` before the first shard completes, once none are left, and
/// once the sweep is `stopping` on its budget or bug limit: the shards
/// left will not run.
pub(crate) fn eta(
    elapsed: Duration,
    completed_shards: usize,
    seeded_shards: usize,
    total_shards: usize,
    stopping: bool,
) -> Option<Duration> {
    let done_this_run = completed_shards.saturating_sub(seeded_shards);
    let remaining = total_shards.saturating_sub(completed_shards);
    (done_this_run > 0 && remaining > 0 && !stopping)
        .then(|| elapsed.mul_f64(remaining as f64 / done_this_run as f64))
}

/// How a sweep treats candidates that are crash-behaviorally equivalent to
/// an earlier candidate (see [`b3_ace::canon`]).
///
/// The mode participates in checkpoint fingerprints (via
/// [`PruneMode::scope_component`], which embeds [`CANON_VERSION`]), so a
/// representative checkpoint can never silently resume a full sweep (or
/// vice versa), and a distributed coordinator and worker that disagree on
/// the canonicalization scheme reject each other at the fingerprint echo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruneMode {
    /// Test every candidate (the pre-canonicalization behavior).
    #[default]
    Off,
    /// Test only each equivalence class's representative (its
    /// enumeration-first member); count the rest as `pruned`.
    Representative,
    /// Like `Representative`, but additionally crash-test up to
    /// `samples_per_class` deterministically-sampled non-representative
    /// members per class *per shard* and record an [`AuditFailure`]
    /// whenever a member's outcome diverges from its representative's —
    /// the empirical bound on false pruning.
    Audit {
        /// Extra members audited per class per shard.
        samples_per_class: u32,
    },
}

impl PruneMode {
    /// True for [`PruneMode::Off`].
    pub fn is_off(&self) -> bool {
        matches!(self, PruneMode::Off)
    }

    /// The checkpoint-scope component this mode contributes: empty for
    /// `Off` (so existing full-sweep fingerprints are unchanged), else a
    /// `canon<version>:<mode>` tag.
    pub fn scope_component(&self) -> String {
        match self {
            PruneMode::Off => String::new(),
            PruneMode::Representative => format!("canon{CANON_VERSION}:rep"),
            PruneMode::Audit { samples_per_class } => {
                format!("canon{CANON_VERSION}:audit{samples_per_class}")
            }
        }
    }

    /// Parses the `--prune` CLI spellings.
    pub fn parse(text: &str) -> Option<PruneMode> {
        match text {
            "off" => Some(PruneMode::Off),
            "rep" | "representative" => Some(PruneMode::Representative),
            "audit" => Some(PruneMode::Audit {
                samples_per_class: 2,
            }),
            _ => None,
        }
    }

    pub(crate) fn encode(&self, enc: &mut Encoder) {
        match self {
            PruneMode::Off => {
                enc.put_u8(0);
                enc.put_u32(0);
            }
            PruneMode::Representative => {
                enc.put_u8(1);
                enc.put_u32(0);
            }
            PruneMode::Audit { samples_per_class } => {
                enc.put_u8(2);
                enc.put_u32(*samples_per_class);
            }
        }
    }

    pub(crate) fn decode(dec: &mut Decoder<'_>) -> FsResult<PruneMode> {
        let tag = dec.get_u8()?;
        let samples = dec.get_u32()?;
        match tag {
            0 => Ok(PruneMode::Off),
            1 => Ok(PruneMode::Representative),
            2 => Ok(PruneMode::Audit {
                samples_per_class: samples,
            }),
            other => Err(FsError::Corrupted(format!("unknown prune mode {other}"))),
        }
    }
}

/// One divergence found by [`PruneMode::Audit`]: a pruned class member
/// whose crash-test outcome differs from its representative's, i.e. direct
/// evidence the canonicalization is too coarse for this space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFailure {
    /// The canonical key of the offending equivalence class.
    pub class: String,
    /// Workload name of the class representative (or a placeholder when
    /// the representative could not even be materialized).
    pub representative: String,
    /// Workload name of the audited member that diverged.
    pub member: String,
    /// Human-readable description of the divergence.
    pub detail: String,
}

/// The one-line form every reporter (the `b3 sweep` summary, a failed
/// fleet job's error) prints.
impl std::fmt::Display for AuditFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "class {:?}: member {} vs representative {}: {}",
            self.class, self.member, self.representative, self.detail
        )
    }
}

impl AuditFailure {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.class);
        enc.put_str(&self.representative);
        enc.put_str(&self.member);
        enc.put_str(&self.detail);
    }

    fn decode(dec: &mut Decoder<'_>) -> FsResult<AuditFailure> {
        Ok(AuditFailure {
            class: dec.get_str()?,
            representative: dec.get_str()?,
            member: dec.get_str()?,
            detail: dec.get_str()?,
        })
    }
}

/// FNV-1a over bytes; seeds audit sampling from a checkpoint fingerprint
/// so the sampled members are deterministic per (sweep, canon version) but
/// differ across unrelated sweeps.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The recorded outcome of one completed shard. Also the unit of work the
/// distributed protocol ([`crate::distrib`]) ships from worker processes
/// back to the coordinator.
///
/// Bug reports are deduplicated *at the source*: instead of every raw
/// [`b3_crashmonkey::BugReport`], a shard records its per-group exemplars
/// and counts in a [`GroupTable`]. A shard of a bug-dense file system can
/// produce tens of thousands of raw reports in a few dozen groups, so this
/// bounds shard frames, coordinator memory, and checkpoint size by bug
/// *diversity* rather than bug *density*.
///
/// Public only because it rides inside the public protocol frames
/// ([`crate::distrib::protocol::FromWorker::ShardDone`]); its fields are an
/// internal detail of the sweep engine and stay crate-private.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardResult {
    pub(crate) tested: u64,
    pub(crate) skipped: u64,
    /// Candidates not tested because they are equivalent to an earlier
    /// class representative ([`PruneMode`]). Disjoint from `skipped`,
    /// which counts candidates that could not execute at all.
    pub(crate) pruned: u64,
    /// Audit work: pruned candidates that were *also* crash-tested by
    /// [`PruneMode::Audit`] (a subset of `pruned`; their outcomes are
    /// compared against the representative but never folded into `tested`
    /// or `groups`), plus — under `CrashPointPolicy::AllTriaged` — reused
    /// crash states the triage audit re-tested dynamically.
    pub(crate) audited: u64,
    /// Workloads that produced at least one bug report.
    pub(crate) buggy: u64,
    pub(crate) workload_time_nanos: u64,
    /// Per-bug-group exemplars + counts for every report of the shard.
    pub(crate) groups: GroupTable,
    /// Divergences Audit mode found in this shard.
    pub(crate) audit_failures: Vec<AuditFailure>,
}

impl ShardResult {
    /// True when two results describe the same outcome — identical counts
    /// and grouped reports — ignoring `workload_time_nanos`, which is
    /// wall-clock and differs between independent runs of the same shard.
    #[cfg(test)]
    pub(crate) fn same_outcome(&self, other: &ShardResult) -> bool {
        self.tested == other.tested
            && self.skipped == other.skipped
            && self.pruned == other.pruned
            && self.audited == other.audited
            && self.buggy == other.buggy
            && self.groups == other.groups
            && self.audit_failures == other.audit_failures
    }

    /// Folds one CrashMonkey outcome into this shard's counters.
    pub(crate) fn absorb(&mut self, outcome: FsResult<WorkloadOutcome>) {
        match outcome {
            Ok(outcome) => {
                if outcome.skipped.is_some() {
                    self.skipped += 1;
                } else {
                    self.tested += 1;
                    self.workload_time_nanos += outcome.timing.total.as_nanos() as u64;
                    // Triage audits (AllTriaged re-testing reused crash
                    // states) ride the same audited counter and
                    // audit-failure channel as canonicalization audits, so
                    // distributed sweeps surface them without a wire
                    // format change.
                    self.audited += u64::from(outcome.triage_audited);
                    for divergence in &outcome.triage_divergences {
                        self.audit_failures.push(AuditFailure {
                            class: format!("triage:{}", outcome.skeleton),
                            representative: "<triage-witness>".into(),
                            member: outcome.workload_name.clone(),
                            detail: divergence.clone(),
                        });
                    }
                    if outcome.found_bug() {
                        self.buggy += 1;
                    }
                    for bug in outcome.bugs {
                        self.groups.observe(bug);
                    }
                    // After the rendered reports: a report may be counted
                    // because its own workload rendered one of the group.
                    for counted in &outcome.counted {
                        self.groups.count(&outcome.skeleton, counted.consequence);
                    }
                }
            }
            Err(_) => self.skipped += 1,
        }
    }

    /// Adds this shard's scalar counters to a running summary (grouped
    /// reports are aggregated separately, via [`GroupTable::merge_from`]).
    pub(crate) fn add_counts(&self, summary: &mut RunSummary) {
        summary.tested += self.tested as usize;
        summary.skipped += self.skipped as usize;
        summary.pruned += self.pruned as usize;
        summary.audited += self.audited as usize;
        summary.raw_reports += self.groups.total_reports() as usize;
        summary.total_workload_time += Duration::from_nanos(self.workload_time_nanos);
        summary
            .audit_failures
            .extend(self.audit_failures.iter().cloned());
    }

    pub(crate) fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.tested);
        enc.put_u64(self.skipped);
        enc.put_u64(self.pruned);
        enc.put_u64(self.audited);
        enc.put_u64(self.buggy);
        enc.put_u64(self.workload_time_nanos);
        self.groups.encode(enc);
        enc.put_u64(self.audit_failures.len() as u64);
        for failure in &self.audit_failures {
            failure.encode(enc);
        }
    }

    /// Decodes one shard result. All length fields are validated against
    /// the remaining buffer (see [`GroupTable::decode`]), so a truncated or
    /// corrupt worker frame yields an error instead of a huge allocation.
    pub(crate) fn decode(dec: &mut Decoder<'_>) -> FsResult<ShardResult> {
        let tested = dec.get_u64()?;
        let skipped = dec.get_u64()?;
        let pruned = dec.get_u64()?;
        let audited = dec.get_u64()?;
        let buggy = dec.get_u64()?;
        let workload_time_nanos = dec.get_u64()?;
        let groups = GroupTable::decode(dec)?;
        let failure_count = dec.get_u64()? as usize;
        // Each failure is at least four string length prefixes (32 bytes).
        if failure_count > dec.remaining() / 32 {
            return Err(FsError::Corrupted(format!(
                "shard result declares {failure_count} audit failures but only {} bytes remain",
                dec.remaining()
            )));
        }
        let mut audit_failures = Vec::with_capacity(failure_count);
        for _ in 0..failure_count {
            audit_failures.push(AuditFailure::decode(dec)?);
        }
        Ok(ShardResult {
            tested,
            skipped,
            pruned,
            audited,
            buggy,
            workload_time_nanos,
            groups,
            audit_failures,
        })
    }
}

// "B3S4": bumped from "B3S3" when shard results grew the pruned/audited
// counters and the audit-failure list (representative sweeps). "B3S3"
// itself was the bump from raw report lists to grouped exemplar + count
// tables ("B3S2"). Either older format fails cleanly at decode ("bad sweep
// checkpoint magic") instead of as garbage fields.
const CHECKPOINT_MAGIC: u32 = 0x4233_5334;

/// Persistent record of a sweep's completed shards.
///
/// Serialized with the workspace codec ([`SweepCheckpoint::to_bytes`] /
/// [`SweepCheckpoint::from_bytes`]); the caller decides where the bytes
/// live (a file, for the examples). The fingerprint ties a checkpoint to
/// one (bounds, shard count) pair so a stale checkpoint is rejected instead
/// of silently mis-resuming.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCheckpoint {
    fingerprint: String,
    num_shards: u32,
    results: BTreeMap<u32, ShardResult>,
}

impl SweepCheckpoint {
    /// An empty checkpoint for sweeping `bounds` split into `num_shards`.
    pub fn new(bounds: &Bounds, num_shards: usize) -> Self {
        Self::scoped(bounds, num_shards, "")
    }

    /// An empty checkpoint additionally scoped by a caller-chosen context
    /// string. The scope participates in the fingerprint, so checkpoints
    /// recorded under different execution contexts — e.g. different file
    /// systems or CrashMonkey configurations in a distributed sweep
    /// ([`crate::distrib`]) — refuse to resume each other even over
    /// identical bounds.
    pub fn scoped(bounds: &Bounds, num_shards: usize, scope: &str) -> Self {
        SweepCheckpoint {
            fingerprint: Self::fingerprint_for(bounds, num_shards, scope),
            num_shards: num_shards as u32,
            results: BTreeMap::new(),
        }
    }

    /// An empty checkpoint for sweeping the application-level transaction
    /// space `bounds` split into `num_shards`, under `scope`. The `txn/`
    /// grammar is disjoint from the syscall fingerprint grammar by
    /// construction, so an app checkpoint can never resume an fs sweep (or
    /// vice versa) even with colliding scopes.
    pub fn scoped_app(bounds: &b3_app::TxnBounds, num_shards: usize, scope: &str) -> Self {
        SweepCheckpoint {
            fingerprint: format!(
                "{scope}|txn/{}/{}/{}cand/{num_shards}shards",
                bounds.name_prefix,
                bounds.describe(),
                bounds.candidates()
            ),
            num_shards: num_shards as u32,
            results: BTreeMap::new(),
        }
    }

    fn fingerprint_for(bounds: &Bounds, num_shards: usize, scope: &str) -> String {
        // Every knob that affects which workloads the space enumerates (or
        // their order) participates: the op list is order-sensitive on
        // purpose, `describe()` covers the file-set and pattern bounds, and
        // the persistence flags distinguish same-sized phase-3 choices.
        let ops: Vec<String> = bounds.ops.iter().map(|op| format!("{op:?}")).collect();
        let p = &bounds.persistence;
        format!(
            "{scope}|{}/seq{}/[{}]/{}/p{}{}{}{}/{}cand/{}shards",
            bounds.name_prefix,
            bounds.seq_len,
            ops.join(","),
            bounds.describe(),
            u8::from(p.fsync),
            u8::from(p.fdatasync),
            u8::from(p.sync),
            u8::from(p.allow_none),
            WorkloadGenerator::estimate_candidates(bounds),
            num_shards
        )
    }

    /// The fingerprint tying this checkpoint to one (bounds, shard count)
    /// pair.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Shards not yet recorded, in ascending order — the work remaining.
    pub fn missing_shards(&self) -> Vec<u32> {
        (0..self.num_shards)
            .filter(|shard| !self.results.contains_key(shard))
            .collect()
    }

    /// True when the given shard's result is recorded.
    pub fn has_shard(&self, shard: u32) -> bool {
        self.results.contains_key(&shard)
    }

    /// Total workloads that produced at least one bug report, across all
    /// recorded shards.
    pub fn total_buggy(&self) -> u64 {
        self.results.values().map(|r| r.buggy).sum()
    }

    /// Number of shards the sweep is split into.
    pub fn num_shards(&self) -> usize {
        self.num_shards as usize
    }

    /// Shards whose results are recorded.
    pub fn completed_shards(&self) -> usize {
        self.results.len()
    }

    /// True once every shard's result is recorded.
    pub fn is_complete(&self) -> bool {
        self.results.len() == self.num_shards as usize
    }

    /// Aggregates all recorded shard results into a summary (elapsed time is
    /// zero — the checkpoint records work, not wall-clock). The summary's
    /// `reports` are the deduplicated group **exemplars** in group-key
    /// order; `raw_reports` counts every underlying report.
    pub fn summary(&self) -> RunSummary {
        let mut summary = RunSummary::default();
        for result in self.results.values() {
            result.add_counts(&mut summary);
        }
        summary.reports = self.grouped().into_exemplars();
        summary
    }

    /// The union of every recorded shard's group table: per bug group, the
    /// total raw-report count and the lexicographically-first exemplar.
    /// Independent of shard partition and merge order.
    pub fn grouped(&self) -> GroupTable {
        let mut table = GroupTable::new();
        for result in self.results.values() {
            table.merge_from(&result.groups);
        }
        table
    }

    /// The deduplicated bug groups of all recorded shards (the
    /// post-processing view of [`SweepCheckpoint::grouped`]).
    pub fn bug_groups(&self) -> Vec<BugGroup> {
        self.grouped().groups()
    }

    pub(crate) fn record(&mut self, shard: u32, result: ShardResult) {
        self.results.insert(shard, result);
    }

    #[cfg(test)]
    pub(crate) fn shard_result(&self, shard: u32) -> &ShardResult {
        &self.results[&shard]
    }

    /// Serializes the checkpoint.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u32(CHECKPOINT_MAGIC);
        enc.put_str(&self.fingerprint);
        enc.put_u32(self.num_shards);
        enc.put_u64(self.results.len() as u64);
        for (shard, result) in &self.results {
            enc.put_u32(*shard);
            result.encode(&mut enc);
        }
        enc.finish()
    }

    /// Deserializes a checkpoint produced by [`SweepCheckpoint::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> FsResult<SweepCheckpoint> {
        SweepCheckpoint::decode(&mut Decoder::new(bytes))
    }

    /// Reads one checkpoint off `dec` (a snapshot record's payload).
    pub(crate) fn decode(dec: &mut Decoder<'_>) -> FsResult<SweepCheckpoint> {
        if dec.get_u32()? != CHECKPOINT_MAGIC {
            return Err(FsError::Corrupted("bad sweep checkpoint magic".into()));
        }
        let fingerprint = dec.get_str()?;
        let num_shards = dec.get_u32()?;
        let count = dec.get_u64()? as usize;
        // Each recorded shard needs at least its index, six counters, an
        // (empty) group table, and an (empty) audit-failure list — 68
        // bytes; a declared count beyond what the buffer can hold is
        // corruption, not an allocation request.
        if count > dec.remaining() / 68 {
            return Err(FsError::Corrupted(format!(
                "checkpoint declares {count} shard results but only {} bytes remain",
                dec.remaining()
            )));
        }
        let mut results = BTreeMap::new();
        for _ in 0..count {
            let shard = dec.get_u32()?;
            results.insert(shard, ShardResult::decode(dec)?);
        }
        Ok(SweepCheckpoint {
            fingerprint,
            num_shards,
            results,
        })
    }
}

/// A periodic progress callback and how often it fires.
pub(crate) type ProgressHook<'a> = (&'a (dyn Fn(&Progress) + Sync), Duration);

/// The default shard count: eight shards per worker thread (small enough
/// chunks that a killed run loses little work, large enough that claiming
/// stays negligible).
fn default_shards(config: &RunConfig) -> usize {
    config.threads.max(1) * 8
}

/// A sharded, resumable sweep over one bounded file-system workload space:
/// the ACE + CrashMonkey front of the shared shard engine (the crate's
/// `engine` module), which [`AppSweep`] fronts for transaction spaces.
pub struct Sweep<'a> {
    spec: &'a (dyn FsSpec + Sync),
    config: RunConfig,
    num_shards: usize,
    prune: PruneMode,
    /// Test-only classifier override (see
    /// [`Sweep::with_classifier_for_tests`]).
    classifier_override: Option<Arc<Classifier>>,
    progress: Option<ProgressHook<'a>>,
}

impl<'a> Sweep<'a> {
    /// Creates a sweep with the default shard count.
    pub fn new(spec: &'a (dyn FsSpec + Sync), config: RunConfig) -> Self {
        Sweep {
            spec,
            num_shards: default_shards(&config),
            config,
            prune: PruneMode::Off,
            classifier_override: None,
            progress: None,
        }
    }

    /// Overrides the number of generator shards.
    pub fn shards(mut self, num_shards: usize) -> Self {
        self.num_shards = num_shards.max(1);
        self
    }

    /// Sets how equivalent candidates are pruned (default
    /// [`PruneMode::Off`]). The mode scopes the sweep's checkpoints, so a
    /// representative run and a full run never share a checkpoint.
    pub fn prune(mut self, mode: PruneMode) -> Self {
        self.prune = mode;
        self
    }

    /// Test-only: substitute the classifier the prune modes consult —
    /// the audit regression tests inject
    /// [`Classifier::unsound_for_tests`] to prove Audit mode catches an
    /// over-coarse equivalence. Ignored when pruning is off.
    #[doc(hidden)]
    pub fn with_classifier_for_tests(mut self, classifier: Classifier) -> Self {
        self.classifier_override = Some(Arc::new(classifier));
        self
    }

    /// Installs a periodic progress callback.
    pub fn on_progress(
        mut self,
        callback: &'a (dyn Fn(&Progress) + Sync),
        interval: Duration,
    ) -> Self {
        self.progress = Some((callback, interval));
        self
    }

    /// An empty checkpoint for this sweep's (bounds, shard count, crash
    /// points, prune mode) tuple — the one [`Sweep::run_resumable`]
    /// accepts.
    pub fn empty_checkpoint(&self, bounds: &Bounds) -> SweepCheckpoint {
        let scope = in_process_scope(None, self.config.crashmonkey.crash_points, self.prune);
        SweepCheckpoint::scoped(bounds, self.num_shards, &scope)
    }

    /// Runs the whole sweep in one go.
    pub fn run(&self, bounds: &Bounds) -> RunSummary {
        let mut checkpoint = self.empty_checkpoint(bounds);
        self.run_resumable(bounds, &mut checkpoint)
    }

    /// Runs (or resumes) the sweep, recording every completed shard into
    /// `checkpoint`. Shards already present in the checkpoint are not
    /// re-run; a shard the workload budget interrupts is not recorded (so
    /// the next call re-runs it), but the work done inside it still counts
    /// toward the *returned* summary. The bug limit interrupts nothing: it
    /// stops the run once the shard whose bugs reach it is recorded. Once
    /// [`SweepCheckpoint::is_complete`], [`SweepCheckpoint::summary`] equals
    /// an uninterrupted run's counts.
    ///
    /// # Panics
    /// Panics when the checkpoint is not the [`Sweep::empty_checkpoint`] of
    /// this sweep and bounds (or a resumed copy of it).
    pub fn run_resumable(&self, bounds: &Bounds, checkpoint: &mut SweepCheckpoint) -> RunSummary {
        let space = FsSpace::new(
            self.spec,
            self.config.crashmonkey,
            bounds,
            self.empty_checkpoint(bounds),
            self.prune,
            self.classifier_override.clone(),
        );
        engine::run_resumable(&space, &self.config, self.progress, checkpoint)
    }
}

/// A sharded, resumable, in-process sweep over one bounded transaction
/// space against one (file system, engine profile) pair: the `b3_app` front
/// of the shard engine [`Sweep`] runs on. Because the per-shard results are
/// ordinary [`ShardResult`]s, app sweeps flow through the sweep
/// checkpoints, the distributed coordinator, and the fleet daemon without
/// any format changes.
pub struct AppSweep<'a> {
    spec: &'a (dyn FsSpec + Sync),
    config: RunConfig,
    engine: EngineProfile,
    num_shards: usize,
    progress: Option<ProgressHook<'a>>,
}

impl<'a> AppSweep<'a> {
    /// Creates an app sweep with the same default shard count as
    /// [`Sweep::new`].
    pub fn new(spec: &'a (dyn FsSpec + Sync), config: RunConfig, engine: EngineProfile) -> Self {
        AppSweep {
            spec,
            num_shards: default_shards(&config),
            config,
            engine,
            progress: None,
        }
    }

    /// Overrides the number of generator shards.
    pub fn shards(mut self, num_shards: usize) -> Self {
        self.num_shards = num_shards.max(1);
        self
    }

    /// Installs a periodic progress callback (see [`Sweep::on_progress`]).
    pub fn on_progress(
        mut self,
        callback: &'a (dyn Fn(&Progress) + Sync),
        interval: Duration,
    ) -> Self {
        self.progress = Some((callback, interval));
        self
    }

    /// An empty checkpoint for this sweep's (bounds, shard count, engine,
    /// crash points) tuple — the one [`AppSweep::run_resumable`] accepts.
    /// The engine profile always scopes it: a buggy-engine sweep and a
    /// fixed-engine sweep must never share a checkpoint.
    pub fn empty_checkpoint(&self, bounds: &TxnBounds) -> SweepCheckpoint {
        let crash_points = self.config.crashmonkey.crash_points;
        let scope = in_process_scope(Some(self.engine), crash_points, PruneMode::Off);
        SweepCheckpoint::scoped_app(bounds, self.num_shards, &scope)
    }

    /// Runs the whole sweep in one go.
    pub fn run(&self, bounds: &TxnBounds) -> RunSummary {
        let mut checkpoint = self.empty_checkpoint(bounds);
        self.run_resumable(bounds, &mut checkpoint)
    }

    /// Runs (or resumes) the sweep, recording every completed shard into
    /// `checkpoint`, exactly as [`Sweep::run_resumable`] does.
    ///
    /// # Panics
    /// Panics when the checkpoint belongs to a different bounds, shard
    /// count, engine profile, or crash-point policy.
    pub fn run_resumable(
        &self,
        bounds: &TxnBounds,
        checkpoint: &mut SweepCheckpoint,
    ) -> RunSummary {
        let space = AppSpace {
            spec: self.spec,
            config: self.config.crashmonkey,
            engine: self.engine,
            bounds,
            checkpoint: self.empty_checkpoint(bounds),
        };
        engine::run_resumable(&space, &self.config, self.progress, checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b3_fs_cow::CowFsSpec;
    use b3_vfs::{KernelEra, MutantSet};

    fn tiny_config() -> RunConfig {
        RunConfig {
            threads: 2,
            ..RunConfig::default()
        }
    }

    #[test]
    fn sharded_sweep_matches_a_sequential_fold() {
        use b3_crashmonkey::{CrashMonkey, CrashMonkeyConfig};
        let bounds = Bounds::tiny();
        let spec = CowFsSpec::new(KernelEra::V4_16);
        // The slow path: one CrashMonkey, no threads, every report kept.
        let monkey = CrashMonkey::with_config(&spec, CrashMonkeyConfig::small());
        let (mut tested, mut skipped, mut reports) = (0, 0, Vec::new());
        for workload in WorkloadGenerator::new(bounds.clone()) {
            match monkey.test_workload(&workload) {
                Ok(outcome) if outcome.skipped.is_none() => {
                    tested += 1;
                    reports.extend(outcome.bugs);
                }
                _ => skipped += 1,
            }
        }
        let swept = Sweep::new(&spec, tiny_config()).shards(5).run(&bounds);
        assert_eq!(swept.tested, tested);
        assert_eq!(swept.skipped, skipped);
        // The sweep's summary is deduplicated at the source: its raw-report
        // count matches the fold's full report list, and its exemplars are
        // exactly the post-hoc grouping of that list.
        assert_eq!(swept.raw_reports, reports.len());
        let post_hoc = crate::postprocess::group_reports(&reports);
        assert_eq!(swept.reports.len(), post_hoc.len());
        for (exemplar, group) in swept.reports.iter().zip(&post_hoc) {
            assert_eq!(exemplar, &group.example);
        }
    }

    #[test]
    fn checkpoint_round_trips_through_the_codec() {
        let bounds = Bounds::tiny();
        let spec = CowFsSpec::new(KernelEra::V4_16);
        let mut checkpoint = SweepCheckpoint::new(&bounds, 4);
        let sweep = Sweep::new(&spec, tiny_config()).shards(4);
        let _ = sweep.run_resumable(&bounds, &mut checkpoint);
        assert!(checkpoint.is_complete());
        assert!(!checkpoint.summary().reports.is_empty());

        let bytes = checkpoint.to_bytes();
        let decoded = SweepCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, checkpoint);
        let belongs_to = |bounds: &Bounds, shards| {
            decoded.fingerprint() == SweepCheckpoint::new(bounds, shards).fingerprint()
        };
        assert!(belongs_to(&bounds, 4));
        assert!(!belongs_to(&bounds, 5));
        assert!(!belongs_to(&Bounds::paper_seq1(), 4));
    }

    #[test]
    fn killed_sweep_resumes_to_identical_summary() {
        let bounds = Bounds::tiny();
        let spec = CowFsSpec::new(KernelEra::V4_16);

        let uninterrupted = Sweep::new(&spec, tiny_config()).shards(6).run(&bounds);

        // Kill the sweep after a small workload budget, serialize the
        // checkpoint (as a crash would force), resume from the decoded
        // bytes, repeatedly, until the sweep completes. The budget covers a
        // little more than one shard so every round makes progress but no
        // round finishes the sweep.
        let per_shard = WorkloadGenerator::estimate_candidates(&bounds).div_ceil(6);
        let mut checkpoint = SweepCheckpoint::new(&bounds, 6);
        let budgeted = RunConfig {
            stop_after_workloads: Some(per_shard as usize + 1),
            threads: 1,
            ..RunConfig::default()
        };
        let mut rounds = 0;
        while !checkpoint.is_complete() {
            let sweep = Sweep::new(&spec, budgeted).shards(6);
            let round = sweep.run_resumable(&bounds, &mut checkpoint);
            if rounds == 0 {
                assert_eq!(
                    round.tested + round.skipped,
                    per_shard as usize + 1,
                    "a fresh budgeted round runs exactly its budget"
                );
            }
            checkpoint = SweepCheckpoint::from_bytes(&checkpoint.to_bytes()).unwrap();
            rounds += 1;
            assert!(rounds < 100, "sweep must converge");
        }
        assert!(rounds > 1, "the budget must actually interrupt the sweep");

        let resumed = checkpoint.summary();
        assert_eq!(resumed.tested, uninterrupted.tested);
        assert_eq!(resumed.skipped, uninterrupted.skipped);
        assert_eq!(resumed.raw_reports, uninterrupted.raw_reports);
        assert_eq!(resumed.reports.len(), uninterrupted.reports.len());
        // Group-keyed aggregation makes even the exemplar order identical.
        let names = |s: &RunSummary| -> Vec<String> {
            s.reports.iter().map(|r| r.workload_name.clone()).collect()
        };
        assert_eq!(names(&resumed), names(&uninterrupted));
    }

    #[test]
    fn crash_point_policy_scopes_the_checkpoint() {
        let bounds = Bounds::tiny();
        let spec = CowFsSpec::new(KernelEra::V4_16);
        let last_only = Sweep::new(&spec, tiny_config()).shards(3);
        let all_points = RunConfig {
            crashmonkey: b3_crashmonkey::CrashMonkeyConfig::exhaustive_crash_points(),
            ..tiny_config()
        };
        let all = Sweep::new(&spec, all_points).shards(3);

        // Same bounds and shard count, different crash-point policies:
        // the checkpoints must not be interchangeable.
        let from_last = last_only.empty_checkpoint(&bounds);
        let from_all = all.empty_checkpoint(&bounds);
        assert_ne!(from_last.fingerprint(), from_all.fingerprint());
        // The default policy contributes an empty scope component, so
        // pre-existing unscoped checkpoints still resume.
        assert_eq!(
            from_last.fingerprint(),
            SweepCheckpoint::new(&bounds, 3).fingerprint()
        );
    }

    #[test]
    #[should_panic(expected = "different bounds/shard/crash-point/prune")]
    fn resuming_an_all_points_checkpoint_with_last_only_is_rejected() {
        let bounds = Bounds::tiny();
        let spec = CowFsSpec::new(KernelEra::V4_16);
        let all_points = RunConfig {
            crashmonkey: b3_crashmonkey::CrashMonkeyConfig::exhaustive_crash_points(),
            ..tiny_config()
        };
        let mut checkpoint = Sweep::new(&spec, all_points)
            .shards(3)
            .empty_checkpoint(&bounds);
        let _ = Sweep::new(&spec, tiny_config())
            .shards(3)
            .run_resumable(&bounds, &mut checkpoint);
    }

    #[test]
    fn stop_after_bugs_reports_the_stopping_bug() {
        let bounds = Bounds::tiny();
        let spec = CowFsSpec::new(KernelEra::V4_16);
        let config = RunConfig {
            threads: 1,
            stop_after_bugs: Some(1),
            ..RunConfig::default()
        };
        let summary = Sweep::new(&spec, config).shards(2).run(&bounds);
        assert!(
            !summary.reports.is_empty(),
            "the bug that stopped the sweep must be in the summary"
        );
    }

    #[test]
    fn decode_rejects_wire_counts_larger_than_the_frame() {
        // A corrupt/truncated worker frame declaring a huge group count
        // must fail to decode instead of attempting a huge allocation.
        let mut enc = Encoder::new();
        enc.put_u64(1); // tested
        enc.put_u64(0); // skipped
        enc.put_u64(0); // pruned
        enc.put_u64(0); // audited
        enc.put_u64(1); // buggy
        enc.put_u64(42); // workload_time_nanos
        enc.put_u64(u64::MAX); // declared group count, no payload behind it
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert!(ShardResult::decode(&mut dec).is_err());

        // And a declared audit-failure count with no payload behind it.
        let mut enc = Encoder::new();
        let healthy = ShardResult {
            tested: 1,
            ..ShardResult::default()
        };
        healthy.encode(&mut enc);
        let mut bytes = enc.finish();
        let failure_count_offset = bytes.len() - 8; // trailing empty list count
        bytes[failure_count_offset..].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut dec = Decoder::new(&bytes);
        assert!(ShardResult::decode(&mut dec).is_err());

        // Same for a checkpoint declaring more shard results than fit.
        let bounds = Bounds::tiny();
        let checkpoint = SweepCheckpoint::new(&bounds, 4);
        let mut bytes = checkpoint.to_bytes();
        let shard_count_offset = bytes.len() - 8; // trailing empty map count
        bytes[shard_count_offset..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(SweepCheckpoint::from_bytes(&bytes).is_err());
    }

    #[test]
    fn checkpoint_rejects_reordered_op_sets() {
        use b3_vfs::workload::OpKind;
        let forward = Bounds::paper_seq2().with_ops(vec![OpKind::Link, OpKind::Rename]);
        let reversed = Bounds::paper_seq2().with_ops(vec![OpKind::Rename, OpKind::Link]);
        assert_ne!(
            SweepCheckpoint::new(&forward, 4).fingerprint(),
            SweepCheckpoint::new(&reversed, 4).fingerprint(),
            "reordered ops permute the enumeration; the fingerprint must differ"
        );
    }

    #[test]
    fn progress_reports_shard_completion() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let bounds = Bounds::tiny();
        let spec = CowFsSpec::patched();
        let final_shards = AtomicUsize::new(0);
        let final_processed = AtomicUsize::new(0);
        let callback = |p: &Progress| {
            final_shards.store(p.completed_shards, Ordering::Relaxed);
            final_processed.store(p.tested + p.skipped, Ordering::Relaxed);
            let _ = p.describe();
        };
        let summary = Sweep::new(&spec, tiny_config())
            .shards(3)
            .on_progress(&callback, Duration::from_millis(1))
            .run(&bounds);
        assert!(summary.tested > 0);
        assert_eq!(final_shards.load(Ordering::Relaxed), 3);
        assert_eq!(
            final_processed.load(Ordering::Relaxed),
            summary.tested + summary.skipped,
            "the final callback carries the summary's counters"
        );
    }

    #[test]
    fn budgeted_sweep_ends_without_an_eta() {
        let bounds = Bounds::tiny();
        let spec = CowFsSpec::patched();
        let per_shard = WorkloadGenerator::estimate_candidates(&bounds).div_ceil(6);
        let budgeted = RunConfig {
            stop_after_workloads: Some(per_shard as usize + 1),
            threads: 1,
            ..RunConfig::default()
        };
        let last = std::sync::Mutex::new(None);
        let callback = |p: &Progress| *last.lock().unwrap() = Some(p.clone());
        let _ = Sweep::new(&spec, budgeted)
            .shards(6)
            .on_progress(&callback, Duration::from_millis(1))
            .run(&bounds);
        let last = last
            .into_inner()
            .unwrap()
            .expect("the final callback fires");
        // Shards completed and shards left: only the stop hides the ETA.
        assert!(last.completed_shards > 0 && last.completed_shards < 6);
        assert_eq!(last.eta, None, "{}", last.describe());
    }

    #[test]
    fn eta_extrapolates_from_shards_completed_this_run() {
        let ten = Duration::from_secs(10);
        // 2 of 3 shards done this run in 10 s, 5 left: 25 s. The 3 shards
        // restored from a checkpoint took no time and do not count.
        assert_eq!(eta(ten, 5, 3, 10, false), Some(Duration::from_secs(25)));
        assert_eq!(eta(ten, 3, 3, 10, false), None, "no shard done yet");
        assert_eq!(eta(ten, 10, 3, 10, false), None, "nothing left");
        assert_eq!(eta(ten, 5, 3, 10, true), None, "stopping");
    }

    fn app_config() -> RunConfig {
        RunConfig {
            threads: 2,
            crashmonkey: b3_crashmonkey::CrashMonkeyConfig::exhaustive_crash_points(),
            ..RunConfig::default()
        }
    }

    #[test]
    fn fixed_engine_tiny_sweep_is_clean_and_complete() {
        let spec = CowFsSpec::new(KernelEra::Patched);
        let sweep = AppSweep::new(&spec, app_config(), EngineProfile::none()).shards(4);
        let summary = sweep.run(&TxnBounds::tiny());
        assert_eq!(summary.tested, 20);
        assert_eq!(summary.skipped, 0);
        assert!(summary.reports.is_empty(), "{:?}", summary.reports);
    }

    #[test]
    fn buggy_engine_sweep_finds_deterministic_exemplars() {
        let spec = CowFsSpec::new(KernelEra::Patched);
        let engine = EngineProfile {
            commit_without_data_fsync: true,
            ..EngineProfile::none()
        };
        let first = AppSweep::new(&spec, app_config(), engine)
            .shards(4)
            .run(&TxnBounds::tiny());
        let second = AppSweep::new(&spec, app_config(), engine)
            .shards(7)
            .run(&TxnBounds::tiny());
        assert!(!first.reports.is_empty());
        let names = |summary: &RunSummary| -> Vec<String> {
            summary
                .reports
                .iter()
                .map(|r| r.workload_name.clone())
                .collect()
        };
        assert_eq!(
            names(&first),
            names(&second),
            "exemplars are independent of the shard decomposition"
        );
    }

    #[test]
    fn resume_skips_recorded_shards_and_completes() {
        let spec = CowFsSpec::new(KernelEra::Patched);
        let sweep = AppSweep::new(&spec, app_config(), EngineProfile::none()).shards(5);
        let bounds = TxnBounds::tiny();
        let mut checkpoint = sweep.empty_checkpoint(&bounds);
        // Budget-limited first pass: some shards recorded, some not.
        let budgeted = AppSweep {
            config: RunConfig {
                stop_after_workloads: Some(7),
                ..app_config()
            },
            ..AppSweep::new(&spec, app_config(), EngineProfile::none())
        }
        .shards(5);
        budgeted.run_resumable(&bounds, &mut checkpoint);
        assert!(!checkpoint.is_complete());
        let resumed = sweep.run_resumable(&bounds, &mut checkpoint);
        assert!(checkpoint.is_complete());
        assert_eq!(resumed.tested, 20);
    }

    #[test]
    fn app_sweeps_time_their_workloads() {
        let spec = CowFsSpec::new(KernelEra::Patched);
        let bounds = TxnBounds::tiny();
        let summary = AppSweep::new(&spec, app_config(), EngineProfile::none())
            .shards(4)
            .run(&bounds);
        assert!(summary.tested > 0);
        assert!(summary.total_workload_time > Duration::ZERO);
        assert!(summary.avg_workload_latency() > Duration::ZERO);

        let harness =
            b3_app::AppHarness::new(&spec, app_config().crashmonkey, EngineProfile::none());
        for workload in b3_app::TxnWorkloadGenerator::new(bounds) {
            let outcome = harness.test_workload(&workload).unwrap();
            let timing = outcome.timing;
            assert!(
                timing.total >= timing.profile + timing.recovery,
                "{timing:?}"
            );
            let mut run = harness.mount_run().unwrap();
            for txn in &workload.txns {
                run.step(txn);
            }
            assert!(run.log().recorded_bytes() > 0, "{}", workload.name);
        }
    }

    #[test]
    fn engine_profile_scopes_the_checkpoint() {
        let spec = CowFsSpec::new(KernelEra::Patched);
        let fixed = AppSweep::new(&spec, app_config(), EngineProfile::none());
        let buggy = AppSweep::new(
            &spec,
            app_config(),
            EngineProfile {
                torn_commit: true,
                ..EngineProfile::none()
            },
        );
        let bounds = TxnBounds::tiny();
        assert_ne!(
            fixed.empty_checkpoint(&bounds).fingerprint(),
            buggy.empty_checkpoint(&bounds).fingerprint()
        );
    }
}
