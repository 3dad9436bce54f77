//! The one shard engine behind [`Sweep`](crate::Sweep),
//! [`AppSweep`](crate::AppSweep) and the distributed worker.
//!
//! B3's pipeline is space-agnostic (paper §5–§6.1): enumerate a bounded
//! space, cut it into independent shards, crash-test each shard workload by
//! workload, merge the results. A [`JobSpace`] supplies what differs
//! between spaces — generator, per-thread tester, the [`Step`] each
//! candidate (or pruned run of candidates) becomes — and the rest is
//! written once: [`shard_loop`] is the only shard loop, monomorphized per
//! space, so nothing is dispatched dynamically per workload.
//!
//! There is one shard scheduler, the distributed coordinator core
//! (`distrib/coordinator.rs`): it decides which shard runs next, merges
//! every result and stops the run. [`run_resumable`] drives it with
//! threads, as the distributed shell drives it with worker links; what the
//! engine keeps of its own is the workload budget, which counts executed
//! workloads rather than shards.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use b3_ace::canon::{Class, Classifier};
use b3_ace::{Bounds, SpaceTable, WorkloadGenerator};
use b3_app::{AppHarness, EngineProfile, TxnBounds, TxnWorkloadGenerator};
use b3_crashmonkey::target::{self, Target};
use b3_crashmonkey::{CrashMonkey, CrashMonkeyConfig, CrashPointPolicy, WorkloadOutcome};
use b3_vfs::error::FsResult;
use b3_vfs::fs::FsSpec;
use b3_vfs::snapshot::EntryInterner;
use b3_vfs::workload::Workload;
use b3_vfs::MutantSet;

use crate::distrib::coordinator::{Claim, Coordinator};
use crate::distrib::{unpoisoned, DistribConfig};
use crate::runner::{spawn_progress_monitor, RunConfig, RunSummary};
use crate::sweep::{fnv1a64, AuditFailure, ProgressHook, PruneMode, ShardResult, SweepCheckpoint};

/// One step of a shard: a candidate to run, or candidates counted without
/// being built.
pub(crate) enum Step<W> {
    /// Crash-test it (representative, or the space does not prune).
    Test(W),
    /// Count a run of candidates as pruned: each is equivalent to an
    /// earlier representative.
    Pruned(u64),
    /// Count it as pruned, and also crash-test it against its
    /// representative, recording any divergence.
    Audit(W, AuditPlan<W>),
}

/// An audit obligation for one sampled non-representative member.
pub(crate) struct AuditPlan<W> {
    /// The class's canonical key.
    key: String,
    /// The representative's materialized workload; `None` when it could not
    /// be materialized — itself a divergence, since the member *was*.
    rep: Option<W>,
}

/// One bounded workload space cut into shards, plus how to crash-test a
/// shard of it. Implemented once for ACE [`Bounds`] + [`CrashMonkey`] and
/// once for [`TxnBounds`] + [`AppHarness`].
pub(crate) trait JobSpace: Sync {
    /// Per-thread crash-testing state; lives across the shards a thread
    /// (or worker process) runs.
    type Tester;

    /// The empty checkpoint of this (space, shard count, scope): its
    /// fingerprint is what a checkpoint must carry to be resumed here.
    fn empty_checkpoint(&self) -> &SweepCheckpoint;
    /// Exact or estimated number of candidates in the whole space.
    fn total_candidates(&self) -> u64;
    fn tester(&self) -> Self::Tester;
    /// Runs one shard through [`shard_loop`]. The result must be a pure
    /// function of (fingerprint, shard): whatever the tester carried over
    /// from its previous shard is dropped first.
    fn run_shard(
        &self,
        tester: &mut Self::Tester,
        shard: u32,
        gate: impl FnMut() -> bool,
    ) -> (ShardResult, bool);
}

/// The one shard loop: gates, crash-tests and absorbs every step of a
/// shard. `gate` runs before every *executed* workload (tested or audited);
/// when it returns false the shard is abandoned and the partial result comes
/// back with `false`. Pruned candidates pass no gate, so they consume
/// neither workload budget nor a worker's chaos tick — a budgeted
/// representative sweep covers proportionally more of the space.
fn shard_loop<T: Target>(
    tester: &T,
    steps: impl Iterator<Item = Step<T::Workload>>,
    name: impl Fn(&T::Workload) -> &str,
    mut gate: impl FnMut() -> bool,
) -> (ShardResult, bool) {
    // Triage witnesses are per shard: a shard's audited counter depends on
    // which crash states find one, so none may come from another shard.
    tester.carried().reset_triage();
    // Audits compare whole outcomes, so they render every report.
    let test = |workload: &T::Workload| target::test(tester, workload, None);
    let mut result = ShardResult::default();
    for step in steps {
        let (workload, audit) = match step {
            Step::Test(workload) => (workload, None),
            Step::Pruned(run) => {
                result.pruned += run;
                continue;
            }
            Step::Audit(workload, plan) => (workload, Some(plan)),
        };
        if !gate() {
            return (result, false);
        }
        let Some(plan) = audit else {
            // A report whose group this shard already holds is only counted.
            let outcome = target::test(tester, &workload, Some(&result.groups));
            result.absorb(outcome);
            continue;
        };
        result.pruned += 1;
        // Crash-test the pruned member and its representative and record a
        // divergence; both timings count (audit work is real work).
        result.audited += 1;
        let mut signature = |workload: &T::Workload| {
            let outcome = test(workload);
            if let Ok(outcome) = &outcome {
                result.workload_time_nanos += outcome.timing.total.as_nanos() as u64;
            }
            outcome_signature(&outcome)
        };
        let member = signature(&workload);
        let (representative, detail) = match &plan.rep {
            None => (
                "<unmaterializable>",
                "phase 4 rejected the representative's op sequence but emitted the member's".into(),
            ),
            Some(rep) => match signature(rep) {
                same if same == member => continue,
                other => (
                    name(rep),
                    format!("member outcome {member} diverges from representative outcome {other}"),
                ),
            },
        };
        result.audit_failures.push(AuditFailure {
            class: plan.key,
            representative: representative.into(),
            member: name(&workload).into(),
            detail,
        });
    }
    (result, true)
}

/// The audit-relevant signature of one crash-test outcome: skipped/error
/// status, or the sorted deduplicated set of `(crash point, consequence)`
/// pairs. Deliberately excludes workload names, paths, and free-text
/// reasons, which legitimately differ between a member and its
/// representative.
fn outcome_signature(outcome: &FsResult<WorkloadOutcome>) -> String {
    match outcome {
        Err(_) => "error".into(),
        Ok(outcome) => {
            if outcome.skipped.is_some() {
                return "skipped".into();
            }
            let mut pairs: Vec<(u32, u8)> = outcome
                .report_keys()
                .map(|(crash_point, consequence)| (crash_point, consequence.code()))
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            format!("{pairs:?}")
        }
    }
}

/// Runs (or resumes) an in-process sweep of `space` on `config.threads`
/// threads, recording every completed shard into `checkpoint`. Each thread
/// is a slot of one [`Coordinator`] and drives it as a distributed worker's
/// link does: it claims a shard, runs it, and reports it for merging. Shards
/// already recorded are not re-run.
///
/// The workload budget is taken before every executed workload. A shard it
/// interrupts is handed back unrecorded (the next call re-runs it in full)
/// but still counts toward the *returned* summary. The budget and the bug
/// limit stop the run at the next claim: the core then hands out no more
/// shards, and the ones running finish.
///
/// # Panics
/// Panics when `checkpoint` was not made for this space, shard count and
/// scope.
pub(crate) fn run_resumable<S: JobSpace>(
    space: &S,
    config: &RunConfig,
    progress: Option<ProgressHook<'_>>,
    checkpoint: &mut SweepCheckpoint,
) -> RunSummary {
    let empty = space.empty_checkpoint();
    assert!(
        checkpoint.fingerprint() == empty.fingerprint()
            && checkpoint.num_shards() == empty.num_shards(),
        "sweep checkpoint belongs to a different \
         bounds/shard/crash-point/prune/engine configuration"
    );
    let start = Instant::now();
    let slots = DistribConfig {
        workers: config.threads.max(1),
        ..DistribConfig::default()
    };
    // The core's shard sizes only gate its own workload limit, which this
    // caller leaves unset: the budget below counts executed workloads.
    let scheduler = Mutex::new(Coordinator::new(
        std::mem::replace(checkpoint, empty.clone()),
        vec![0; empty.num_shards()],
        space.total_candidates(),
        &slots,
    ));
    let lock = || unpoisoned(scheduler.lock());
    let budget = AtomicUsize::new(config.stop_after_workloads.unwrap_or(usize::MAX));
    let gate = || {
        let take = |left: usize| left.checked_sub(1);
        budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, take)
            .is_ok()
    };
    // One thread's slot: returns the partial result of the shard the budget
    // interrupted, if any.
    let run_slot = |slot: usize| {
        let mut tester = space.tester();
        let mut interrupted = None;
        loop {
            let mut core = lock();
            let stop = budget.load(Ordering::Relaxed) == 0
                || config
                    .stop_after_bugs
                    .is_some_and(|limit| core.bugs() >= limit);
            let claim = core
                .claim(slot, stop)
                .expect("a thread claims with no shard held");
            // A thread cannot hand a shard back but by stopping the run, so
            // one told to wait for another's shards has nothing left to run.
            let Claim::Assign(batch) = claim else {
                core.link_down(slot);
                return interrupted;
            };
            drop(core);
            for shard in batch {
                let (result, complete) = space.run_shard(&mut tester, shard, gate);
                let mut core = lock();
                if !complete {
                    // The spent budget stops the next claim.
                    core.link_down(slot);
                    interrupted = Some(result);
                    break;
                }
                // Nothing announces discoveries in process.
                let merged = core.shard_done(slot, shard, result, false);
                merged.expect("a thread reports only the shard it holds");
            }
        }
    };

    let interrupted: Vec<ShardResult> = std::thread::scope(|scope| {
        let _monitor = progress.map(|(callback, interval)| {
            spawn_progress_monitor(scope, callback, interval, move || {
                lock().progress(start.elapsed())
            })
        });
        let threads: Vec<_> = (0..slots.workers)
            .map(|slot| scope.spawn(move || run_slot(slot)))
            .collect();
        threads
            .into_iter()
            .filter_map(|thread| {
                thread
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p))
            })
            .collect()
    });

    let (merged, _) = unpoisoned(scheduler.into_inner())
        .finish(None)
        .expect("a run without a slot error finishes");
    *checkpoint = merged;
    let mut summary = checkpoint.summary();
    if !interrupted.is_empty() {
        let mut grouped = checkpoint.grouped();
        for partial in interrupted {
            partial.add_counts(&mut summary);
            grouped.merge_from(&partial.groups);
        }
        summary.reports = grouped.into_exemplars();
    }
    summary.elapsed = start.elapsed();
    summary
}

/// The checkpoint-scope string of an in-process sweep:
/// `[app:<engine>][/cp:<policy>][/canon<v>:<mode>]`. Every default
/// (`LastOnly`, `PruneMode::Off`, no engine) contributes nothing, so
/// checkpoints that predate a knob keep their fingerprints; any other
/// value scopes the checkpoint, because per-shard results under different
/// policies, prune modes or engine profiles are not comparable.
pub(crate) fn in_process_scope(
    engine: Option<EngineProfile>,
    crash_points: CrashPointPolicy,
    prune: PruneMode,
) -> String {
    let crash_points = match crash_points {
        CrashPointPolicy::LastOnly => String::new(),
        CrashPointPolicy::All => "cp:all".into(),
        CrashPointPolicy::AllTriaged { audit: 0 } => "cp:triaged".into(),
        CrashPointPolicy::AllTriaged { audit } => format!("cp:triaged-audit{audit}"),
    };
    let engine = engine.map_or_else(String::new, |engine| format!("app:{}", engine.describe()));
    let parts = [engine, crash_points, prune.scope_component()];
    let parts: Vec<&str> = parts
        .iter()
        .map(String::as_str)
        .filter(|part| !part.is_empty())
        .collect();
    parts.join("/")
}

/// ACE's bounded file-system operation space, crash-tested by CrashMonkey,
/// with equivalence-class pruning ([`PruneMode`]) deciding each core block.
pub(crate) struct FsSpace<'a> {
    spec: &'a (dyn FsSpec + Sync),
    config: CrashMonkeyConfig,
    /// The bounds' enumeration tables, built once for every shard's
    /// generator and the classifier.
    table: Arc<SpaceTable>,
    /// [`SweepCheckpoint::scoped`] of the bounds, shard count and scope.
    checkpoint: SweepCheckpoint,
    prune: PruneMode,
    /// Present unless `prune` is off. A pure function of the bounds, so
    /// every thread and worker process prunes the same candidates.
    classifier: Option<Arc<Classifier>>,
    /// One bounded oracle interner shared by every tester of the space:
    /// content-equal oracle/expectation entries produced by different
    /// workloads (and different shards) collapse to one allocation.
    interner: Arc<EntryInterner>,
}

impl<'a> FsSpace<'a> {
    /// The space of `bounds` under `prune`, fingerprinted by `checkpoint`.
    /// `classifier` substitutes the one the prune modes consult (tests
    /// only); it is ignored when pruning is off.
    pub(crate) fn new(
        spec: &'a (dyn FsSpec + Sync),
        config: CrashMonkeyConfig,
        bounds: &Bounds,
        checkpoint: SweepCheckpoint,
        prune: PruneMode,
        classifier: Option<Arc<Classifier>>,
    ) -> Self {
        let table = SpaceTable::new(bounds);
        let classifier = (!prune.is_off())
            .then(|| classifier.unwrap_or_else(|| Arc::new(Classifier::on_table(table.clone()))));
        FsSpace {
            spec,
            config,
            table,
            checkpoint,
            prune,
            classifier,
            interner: Arc::default(),
        }
    }

    /// The steps of shard `shard`, with fresh audit sampling state.
    fn steps(&self, shard: u32) -> FsSteps<'_> {
        let shard = self
            .table
            .shard(shard as usize, self.checkpoint.num_shards());
        let mut generator = WorkloadGenerator::on_table(self.table.clone(), shard.start, shard.end);
        if let Some(classifier) = &self.classifier {
            generator = generator.classified_by(classifier.clone());
        }
        FsSteps {
            generator,
            classifier: self.classifier.as_deref(),
            prune: self.prune,
            // Seeded from the (canon-version-scoped) fingerprint: the
            // sampled members are the same on every thread and worker
            // process of a sweep, but differ across unrelated sweeps.
            seed: fnv1a64(self.checkpoint.fingerprint().as_bytes()),
            class_counts: HashMap::new(),
        }
    }
}

/// The steps of one shard of an [`FsSpace`]: the generator's valid
/// candidates, with every non-representative core block counted (or, under
/// [`PruneMode::Audit`], sampled) instead of built.
struct FsSteps<'s> {
    generator: WorkloadGenerator,
    classifier: Option<&'s Classifier>,
    prune: PruneMode,
    /// Drives audit sampling.
    seed: u64,
    /// Members audited so far per class in this shard.
    class_counts: HashMap<String, u32>,
}

impl Iterator for FsSteps<'_> {
    type Item = Step<Workload>;

    fn next(&mut self) -> Option<Step<Workload>> {
        let leaf = self.generator.next_leaf()?;
        if leaf.representative {
            return Some(Step::Test(self.generator.workload()));
        }
        let (PruneMode::Audit { samples_per_class }, Some(classifier)) =
            (self.prune, self.classifier)
        else {
            return Some(Step::Pruned(self.generator.count_block()));
        };
        // The cheap coin first: only a sampled member is built and keyed.
        if !selected(self.seed, leaf.index + 1) {
            return Some(Step::Pruned(1));
        }
        let workload = self.generator.workload();
        let Some(Class::Member {
            key,
            rep_ops,
            rep_index,
        }) = classifier.classify(&workload.ops)
        else {
            unreachable!("a member core holds a candidate that is not a class member");
        };
        let count = self.class_counts.entry(key.clone()).or_insert(0);
        if *count >= samples_per_class {
            return Some(Step::Pruned(1));
        }
        *count += 1;
        let rep = classifier.representative_workload(&rep_ops, rep_index);
        Some(Step::Audit(workload, AuditPlan { key, rep }))
    }
}

/// Deterministic coin flip per candidate: its 1-based enumeration number
/// (the digits its workload name ends in), mixed (SplitMix64-style) with the
/// sweep seed.
fn selected(seed: u64, number: u64) -> bool {
    let mut z = seed ^ number.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) & 1 == 0
}

impl<'a> JobSpace for FsSpace<'a> {
    type Tester = CrashMonkey<'a>;

    fn empty_checkpoint(&self) -> &SweepCheckpoint {
        &self.checkpoint
    }

    fn total_candidates(&self) -> u64 {
        self.table.total()
    }

    fn tester(&self) -> CrashMonkey<'a> {
        CrashMonkey::with_interner(self.spec, self.config, self.interner.clone())
    }

    fn run_shard(
        &self,
        monkey: &mut CrashMonkey<'a>,
        shard: u32,
        gate: impl FnMut() -> bool,
    ) -> (ShardResult, bool) {
        shard_loop(monkey, self.steps(shard), |w| &w.name, gate)
    }
}

/// The bounded transaction space, crash-tested through the `b3_app` WAL/KV
/// engine. Nothing is pruned: canonicalization is a file-system-workload
/// concept.
pub(crate) struct AppSpace<'a> {
    pub(crate) spec: &'a (dyn FsSpec + Sync),
    pub(crate) config: CrashMonkeyConfig,
    pub(crate) engine: EngineProfile,
    pub(crate) bounds: &'a TxnBounds,
    /// [`SweepCheckpoint::scoped_app`] of the bounds, shard count and scope.
    pub(crate) checkpoint: SweepCheckpoint,
}

impl<'a> JobSpace for AppSpace<'a> {
    type Tester = AppHarness<'a>;

    fn empty_checkpoint(&self) -> &SweepCheckpoint {
        &self.checkpoint
    }

    fn total_candidates(&self) -> u64 {
        self.bounds.candidates()
    }

    fn tester(&self) -> AppHarness<'a> {
        AppHarness::new(self.spec, self.config, self.engine)
    }

    fn run_shard(
        &self,
        harness: &mut AppHarness<'a>,
        shard: u32,
        gate: impl FnMut() -> bool,
    ) -> (ShardResult, bool) {
        let shard = self
            .bounds
            .shard(shard as usize, self.checkpoint.num_shards());
        let steps = TxnWorkloadGenerator::for_shard(self.bounds.clone(), &shard).map(Step::Test);
        shard_loop(harness, steps, |w| &w.name, gate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b3_fs_cow::CowFsSpec;
    use b3_vfs::KernelEra;

    const SHARDS: usize = 6;

    fn threads(threads: usize, stop_after_workloads: Option<usize>) -> RunConfig {
        RunConfig {
            threads,
            stop_after_workloads,
            ..RunConfig::default()
        }
    }

    /// The tiny space at two operations over three interchangeable
    /// files, so equivalence classes have members to prune.
    fn seq2_bounds() -> Bounds {
        let mut bounds = Bounds::tiny();
        bounds.seq_len = 2;
        bounds.files = b3_vfs::workload::FileSet::new(
            Vec::new(),
            vec!["foo".into(), "bar".into(), "baz".into()],
        );
        bounds
    }

    /// The engine-level differential every space must pass: each shard of
    /// the threaded in-process engine equals the worker path (ungated
    /// `run_shard` calls on one long-lived tester, here in reverse order so
    /// the tester carries over different state than the engine's threads
    /// did), and a budget-interrupted run resumed to completion equals the
    /// uninterrupted one shard by shard.
    fn check_engine<S: JobSpace>(space: &S) -> RunSummary {
        let mut reference = space.empty_checkpoint().clone();
        let uninterrupted = run_resumable(space, &threads(2, None), None, &mut reference);
        assert!(reference.is_complete());

        let mut tester = space.tester();
        for shard in (0..SHARDS as u32).rev() {
            let (result, complete) = space.run_shard(&mut tester, shard, || true);
            assert!(complete);
            assert!(
                result.same_outcome(reference.shard_result(shard)),
                "shard {shard}: worker path {result:?} != engine {:?}",
                reference.shard_result(shard)
            );
        }

        // One more than the hungriest shard needs: every round completes
        // at least one shard, and interrupts the next.
        let hungriest = (0..SHARDS as u32)
            .map(|shard| reference.shard_result(shard))
            .map(|result| result.tested + result.skipped + result.audited)
            .max();
        let budgeted = threads(1, hungriest.map(|most| most as usize + 1));
        let mut resumed = space.empty_checkpoint().clone();
        let mut rounds = 0;
        while !resumed.is_complete() {
            let summary = run_resumable(space, &budgeted, None, &mut resumed);
            let recorded = resumed.summary();
            assert!(summary.tested + summary.skipped >= recorded.tested + recorded.skipped);
            rounds += 1;
            assert!(rounds < 100, "the budgeted sweep must converge");
        }
        assert!(rounds > 1, "the budget must actually interrupt the sweep");
        for shard in 0..SHARDS as u32 {
            assert!(resumed
                .shard_result(shard)
                .same_outcome(reference.shard_result(shard)));
        }
        uninterrupted
    }

    #[test]
    fn in_process_engine_matches_the_worker_path_on_every_space() {
        let spec = CowFsSpec::new(KernelEra::V4_16);
        // A triage audit budget makes `audited` depend on which crash
        // states hit the tester's witness cache, so a tester that failed to
        // reset per shard would diverge here.
        let config = CrashMonkeyConfig {
            crash_points: CrashPointPolicy::AllTriaged { audit: 1 },
            ..CrashMonkeyConfig::small()
        };
        let bounds = seq2_bounds();
        let audit = PruneMode::Audit {
            samples_per_class: 2,
        };
        for prune in [PruneMode::Off, PruneMode::Representative, audit] {
            let scope = in_process_scope(None, config.crash_points, prune);
            let checkpoint = SweepCheckpoint::scoped(&bounds, SHARDS, &scope);
            let space = FsSpace::new(&spec, config, &bounds, checkpoint, prune, None);
            let summary = check_engine(&space);
            assert!(summary.tested > 0 && !summary.reports.is_empty());
            assert_eq!(summary.pruned > 0, !prune.is_off(), "{prune:?}");
            assert!(summary.audit_failures.is_empty());
        }

        let spec = CowFsSpec::new(KernelEra::Patched);
        let engine = EngineProfile {
            torn_commit: true,
            double_replay: true,
            ..EngineProfile::none()
        };
        // Two transactions, so workloads share a prefix; with an audit
        // budget `audited` depends on which crash states the tester's trunk
        // answers, so a tester that kept its trunk across shards would
        // diverge here.
        let two_txns = TxnBounds {
            max_txns: 2,
            max_ops_per_txn: 1,
            ..TxnBounds::tiny()
        };
        let triaged = CrashPointPolicy::AllTriaged { audit: 1 };
        for (bounds, crash_points, tested) in [
            (TxnBounds::tiny(), CrashPointPolicy::All, 20),
            (two_txns, triaged, 4 + 16),
        ] {
            let config = CrashMonkeyConfig {
                crash_points,
                ..CrashMonkeyConfig::small()
            };
            let scope = in_process_scope(Some(engine), config.crash_points, PruneMode::Off);
            let space = AppSpace {
                spec: &spec,
                config,
                engine,
                bounds: &bounds,
                checkpoint: SweepCheckpoint::scoped_app(&bounds, SHARDS, &scope),
            };
            let summary = check_engine(&space);
            assert_eq!(summary.tested, tested);
            assert!(!summary.reports.is_empty());
            assert_eq!(summary.audited > 0, crash_points == triaged);
            assert!(summary.audit_failures.is_empty());
        }
    }

    #[test]
    fn the_gate_runs_before_every_executed_workload_and_never_for_a_pruned_one() {
        let spec = CowFsSpec::new(KernelEra::V4_16);
        let bounds = seq2_bounds();
        let prune = PruneMode::Audit {
            samples_per_class: 2,
        };
        let checkpoint = SweepCheckpoint::scoped(&bounds, SHARDS, &prune.scope_component());
        let config = CrashMonkeyConfig::small();
        let space = FsSpace::new(&spec, config, &bounds, checkpoint, prune, None);
        let mut tester = space.tester();
        let (mut gated, mut pruned, mut audited) = (0, 0, 0);
        for shard in 0..SHARDS as u32 {
            let mut calls = 0;
            let (result, _) = space.run_shard(&mut tester, shard, || {
                calls += 1;
                true
            });
            // Under `LastOnly` there is no triage, so `audited` counts
            // exactly the canonicalization audits.
            assert_eq!(calls, result.tested + result.skipped + result.audited);
            gated += calls;
            pruned += result.pruned;
            audited += result.audited;
        }
        assert!(
            audited > 0 && pruned > audited,
            "{pruned} pruned, {audited} audited"
        );
        let candidates = WorkloadGenerator::new(bounds.clone()).count();
        assert_eq!(gated + pruned - audited, candidates as u64);

        // A closed gate abandons the shard before anything runs: the
        // pruned head of the shard is counted, nothing is tested.
        let (partial, complete) = space.run_shard(&mut tester, 0, || false);
        assert!(!complete);
        assert_eq!(partial.tested + partial.skipped + partial.audited, 0);
    }

    /// Block pruning against the per-candidate decision loop it replaced
    /// (every candidate built, classified by its ops, the audit coin read
    /// off its name): the same workloads are tested and audited in the same
    /// order — same sampled members, same class keys, same representatives
    /// — with the same number of candidates pruned before each of them, on
    /// shards of a three-operation space whose boundaries cut core blocks.
    #[test]
    fn block_steps_equal_the_per_candidate_decisions() {
        type Executed = (u64, String, Option<(String, Option<String>)>);
        let spec = CowFsSpec::new(KernelEra::V4_16);
        let mut bounds = seq2_bounds();
        bounds.seq_len = 3;
        let classifier = Classifier::new(&bounds);
        let shards = 61;
        let audit = |samples_per_class| PruneMode::Audit { samples_per_class };
        for prune in [PruneMode::Representative, audit(1), audit(u32::MAX)] {
            let checkpoint = SweepCheckpoint::scoped(&bounds, shards, &prune.scope_component());
            let seed = fnv1a64(checkpoint.fingerprint().as_bytes());
            let config = CrashMonkeyConfig::small();
            let space = FsSpace::new(&spec, config, &bounds, checkpoint, prune, None);
            let mut audits = 0;
            for shard in [0, 17, 60] {
                let (mut executed, mut pruned) = (Vec::<Executed>::new(), 0);
                for step in space.steps(shard) {
                    match step {
                        Step::Pruned(run) => pruned += run,
                        Step::Test(workload) => executed.push((pruned, workload.name, None)),
                        Step::Audit(workload, plan) => {
                            pruned += 1;
                            let rep = plan.rep.map(|rep| rep.name);
                            executed.push((pruned, workload.name, Some((plan.key, rep))));
                        }
                    }
                }

                let (mut expected, mut expected_pruned) = (Vec::<Executed>::new(), 0);
                let mut class_counts: HashMap<String, u32> = HashMap::new();
                let range = bounds.shard(shard as usize, shards);
                for workload in WorkloadGenerator::for_shard(bounds.clone(), &range) {
                    let Some(Class::Member {
                        key,
                        rep_ops,
                        rep_index,
                    }) = classifier.classify(&workload.ops)
                    else {
                        expected.push((expected_pruned, workload.name, None));
                        continue;
                    };
                    expected_pruned += 1;
                    let PruneMode::Audit { samples_per_class } = prune else {
                        continue;
                    };
                    let number = workload.name.rsplit('-').next().unwrap().parse().unwrap();
                    let count = class_counts.entry(key.clone()).or_insert(0);
                    if *count < samples_per_class && selected(seed, number) {
                        *count += 1;
                        let rep = classifier.representative_workload(&rep_ops, rep_index);
                        let plan = Some((key, rep.map(|rep| rep.name)));
                        expected.push((expected_pruned, workload.name, plan));
                    }
                }
                assert_eq!(executed, expected, "{prune:?}, shard {shard}");
                assert_eq!(pruned, expected_pruned, "{prune:?}, shard {shard}");
                audits += executed
                    .iter()
                    .filter(|(_, _, plan)| plan.is_some())
                    .count();
            }
            assert_eq!(audits > 0, prune != PruneMode::Representative, "{prune:?}");
        }
    }

    /// The emitted scope strings are frozen: existing checkpoints must
    /// keep resuming, and audit sampling is seeded from them.
    #[test]
    fn in_process_scope_spellings_are_pinned() {
        use CrashPointPolicy::{All, AllTriaged, LastOnly};
        let canon = b3_ace::CANON_VERSION;
        let rep = PruneMode::Representative;
        let engine = EngineProfile {
            torn_commit: true,
            ..EngineProfile::none()
        };
        let app = format!("app:{}", engine.describe());
        assert_eq!(in_process_scope(None, LastOnly, PruneMode::Off), "");
        assert_eq!(in_process_scope(None, All, PruneMode::Off), "cp:all");
        assert_eq!(
            in_process_scope(None, LastOnly, rep),
            format!("canon{canon}:rep")
        );
        assert_eq!(
            in_process_scope(None, AllTriaged { audit: 0 }, rep),
            format!("cp:triaged/canon{canon}:rep")
        );
        assert_eq!(
            in_process_scope(None, AllTriaged { audit: 4 }, PruneMode::Off),
            "cp:triaged-audit4"
        );
        assert_eq!(
            in_process_scope(Some(engine), LastOnly, PruneMode::Off),
            app
        );
        assert_eq!(
            in_process_scope(Some(engine), All, PruneMode::Off),
            format!("{app}/cp:all")
        );
    }

    #[test]
    fn an_interrupted_shard_is_unrecorded_but_counted_in_the_summary() {
        let spec = CowFsSpec::new(KernelEra::Patched);
        let engine = EngineProfile::none();
        let bounds = TxnBounds::tiny();
        let config = CrashMonkeyConfig::small();
        let scope = in_process_scope(Some(engine), config.crash_points, PruneMode::Off);
        // 20 workloads over 8 shards of 2 or 3: a budget of 6 ends inside
        // the third shard.
        let space = AppSpace {
            spec: &spec,
            config,
            engine,
            bounds: &bounds,
            checkpoint: SweepCheckpoint::scoped_app(&bounds, 8, &scope),
        };
        let mut checkpoint = space.empty_checkpoint().clone();
        let summary = run_resumable(&space, &threads(1, Some(6)), None, &mut checkpoint);
        assert_eq!(summary.tested, 6);
        assert_eq!(checkpoint.completed_shards(), 2);
        assert_eq!(checkpoint.summary().tested, 5);
    }
}
