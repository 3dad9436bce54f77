//! The crash-point loop, written once for every target.
//!
//! CrashMonkey tests a workload in one pipeline (§5.1): run it on a
//! recording device, then for each selected persistence point build the
//! crash state, recover it, and judge what recovery left. Nothing in that
//! loop depends on what a workload is. A [`Target`] supplies the rest: how
//! a workload runs on the [`Trunk`], where its persistence points are, what
//! identifies a crash state for triage, and what a recovered state comes
//! to. This crate's [`CrashMonkey`](crate::CrashMonkey) (syscall workloads
//! judged by the AutoChecker) and `b3_app`'s `AppHarness` (transactions
//! judged by the transaction oracle) are its two targets; both run the one
//! loop, [`test()`] and [`crash_test`], monomorphized for each.
//!
//! One rule decides when a crash state is answered rather than tested:
//!
//! * Under [`CrashPointPolicy::AllTriaged`](crate::CrashPointPolicy) it is
//!   answered from the per-shard witness map only. A crash state whose
//!   triage key matches one already tested takes that witness's held value.
//!   The first `audit` of them per workload are tested anyway and compared.
//! * Under every other policy it is answered from the point's [`Held`]
//!   cell. A workload that shares the run up to the point with an earlier
//!   one takes what that one held there, if the target agrees the value
//!   [answers](Target::answers) it.
//!
//! Every other crash state is built from the image the recorder froze
//! ([`crash_state`]) and recovered by one call, a mount without its
//! write-back.
//!
//! Judging is split from rendering. What a crash state comes to is first
//! judged without text ([`Target::consequences`]); a bug report's text is
//! built only when the caller cannot already hold a better exemplar for
//! its `(skeleton, consequence)` group ([`Exemplars`]). The sweep's shard
//! loop passes its shard's group table, so a report whose group the shard
//! already holds from an earlier workload, or the workload itself has
//! already rendered a report of, is only counted
//! ([`WorkloadOutcome::counted`]); every other caller passes none and gets
//! every report rendered.
//!
//! Debug builds pin each shortcut against the long way: a held answer is
//! tested again on a fresh mount, every outcome is compared with one found
//! through an empty trunk and witness map, every recovery with a mount, and
//! every report's text-free consequences with its rendered ones (a counted
//! report is rendered too, and its own group key checked to find an
//! exemplar named no later than the workload, or one of the workload's
//! rendered reports).

use std::fmt::Debug;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use b3_block::{crash_state, CowSnapshotDevice, DiskImage, IoLog, LogHandle};
use b3_vfs::error::FsResult;
use b3_vfs::fs::{FileSystem, FsSpec};

use crate::checker::CheckVerdict;
use crate::config::CrashMonkeyConfig;
use crate::recovery;
use crate::report::{BugReport, Consequence, ConsequenceSet, CountedReport, WorkloadOutcome};
use crate::triage::{self, TriageCache};
use crate::trunk::{Finished, Held, ProfileSharing, Trunk, TrunkRun};

/// What the crash-point loop needs to know about a target.
pub trait Target {
    /// A workload: a syscall sequence or a transaction sequence.
    type Workload;
    /// One run of a workload stopped between two steps, as the trunk keeps
    /// it.
    type Run: TrunkRun;
    /// One persistence point of a run.
    type Point;
    /// What one crash state comes to: a check verdict, or what the engine
    /// recovered. A point's cell and a triage witness hold one.
    type Held: Clone + PartialEq + Debug;
    /// What judging one workload's crash states needs.
    type Judge<'j>
    where
        Self: 'j;

    /// The harness state the loop runs on.
    fn carried(&self) -> &Carried<'_, Self::Run, Self::Held>;

    /// Runs `workload` on `trunk`, resuming from the deepest frame whose
    /// steps it shares.
    fn run<'t>(
        &self,
        trunk: &'t mut Trunk<Self::Run>,
        workload: &Self::Workload,
    ) -> FsResult<Finished<'t, Self::Run>>;

    /// For a run one of whose steps failed: why its workload is skipped, or
    /// the error that fails it.
    fn skip(run: &Self::Run) -> FsResult<String>;

    /// The run's recording and its persistence points, in order.
    fn points(run: &Self::Run) -> (&LogHandle, &[Self::Point]);

    /// A persistence point's checkpoint id and cell.
    fn point(point: &Self::Point) -> (u32, &Held<Self::Held>);

    /// An empty outcome for `workload`, and what judging it needs.
    fn judge<'j>(&'j self, workload: &'j Self::Workload) -> (WorkloadOutcome, Self::Judge<'j>);

    /// The triage key of the crash state at `point`, whose content digest
    /// is `digest`: equal keys must mean equal held values.
    fn key(
        &self,
        _triage: &mut TriageCache<Self::Held>,
        _judge: &Self::Judge<'_>,
        _point: &Self::Point,
        digest: u128,
    ) -> u128 {
        digest
    }

    /// Whether `held`, left at `point` by an earlier workload that shares
    /// the run up to it, answers this workload too.
    fn answers(&self, _judge: &Self::Judge<'_>, _point: &Self::Point, _held: &Self::Held) -> bool {
        true
    }

    /// What the crash state `state` at `point` comes to, `recovered` being
    /// what recovering it gave.
    fn hold(
        &self,
        judge: &Self::Judge<'_>,
        point: &Self::Point,
        state: CowSnapshotDevice,
        recovered: FsResult<Box<dyn FileSystem>>,
    ) -> FsResult<Self::Held>;

    /// What this workload's checks say of a crash state at `point` that
    /// came to `held`.
    fn verdict(
        &self,
        judge: &Self::Judge<'_>,
        point: &Self::Point,
        held: &Self::Held,
    ) -> CheckVerdict;

    /// [`verdict`](Target::verdict)'s
    /// [`consequences`](CheckVerdict::consequences), found without building
    /// its text: the primary consequence and all of them, or `None` when
    /// every check passes.
    fn consequences(
        &self,
        judge: &Self::Judge<'_>,
        point: &Self::Point,
        held: &Self::Held,
    ) -> Option<(Consequence, ConsequenceSet)>;
}

/// The bug groups a caller already holds an exemplar for. A report whose
/// group's exemplar comes from a workload named no later than the report's
/// own would never replace it, so the loop counts such a report instead of
/// rendering it; so is every report of a group the workload has already
/// rendered one of, since only a workload's first report of a group can
/// become its exemplar.
pub trait Exemplars {
    /// The workload name of the exemplar held for the group `(skeleton,
    /// consequence)`, if there is one.
    fn exemplar(&self, skeleton: &str, consequence: Consequence) -> Option<&str>;
}

/// How much work the trunk saved a harness, cumulative over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sharing {
    /// Steps (operations or transactions) applied and resumed, forks and
    /// mounts.
    pub steps: ProfileSharing,
    /// Crash states built, recovered and judged, audits included.
    pub states_tested: u64,
    /// Crash states answered by what a sibling workload left in the
    /// point's cell. Under every policy but `AllTriaged`, `states_tested +
    /// states_inherited` is what per-workload testing would have tested.
    pub states_inherited: u64,
}

/// What a harness carries from one workload to the next, whatever its
/// target: the formatted image, the trunk, the triage witnesses (sound per
/// harness, where spec, era, geometry and image are fixed) and the counts
/// of [`Sharing`].
pub struct Carried<'a, R: TrunkRun, H> {
    spec: &'a dyn FsSpec,
    config: CrashMonkeyConfig,
    /// Formats the image every run mounts a snapshot of.
    format: fn(&dyn FsSpec, &CrashMonkeyConfig) -> FsResult<DiskImage>,
    formatted: OnceLock<DiskImage>,
    shared: Mutex<Shared<R, H>>,
}

/// The trunk, the triage witnesses and the counts of [`Sharing`].
type Shared<R, H> = (Trunk<R>, TriageCache<H>, Sharing);

impl<'a, R: TrunkRun, H> Carried<'a, R, H> {
    /// Carried state for testing on `spec`, every run starting from the
    /// image `format` makes (once, on first use).
    pub fn new(
        spec: &'a dyn FsSpec,
        config: CrashMonkeyConfig,
        format: fn(&dyn FsSpec, &CrashMonkeyConfig) -> FsResult<DiskImage>,
    ) -> Self {
        Carried {
            spec,
            config,
            format,
            formatted: OnceLock::new(),
            shared: Mutex::default(),
        }
    }

    /// The file system under test.
    pub fn spec(&self) -> &'a dyn FsSpec {
        self.spec
    }

    /// The configuration in use.
    pub fn config(&self) -> &CrashMonkeyConfig {
        &self.config
    }

    /// The formatted image (formatting on first use).
    pub fn formatted_image(&self) -> FsResult<DiskImage> {
        if let Some(image) = self.formatted.get() {
            return Ok(image.clone());
        }
        let image = (self.format)(self.spec, &self.config)?;
        Ok(self.formatted.get_or_init(|| image).clone())
    }

    pub(crate) fn shared(&self) -> MutexGuard<'_, Shared<R, H>> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// How much work prefix sharing has saved so far.
    pub fn sharing(&self) -> Sharing {
        let (trunk, _, sharing) = &*self.shared();
        Sharing {
            steps: trunk.sharing(),
            ..*sharing
        }
    }

    /// Drops every triage witness. Sweep shards call this at shard
    /// boundaries: what a shard audits depends on the witnesses it finds,
    /// so they must not come from another shard. The trunk stays: what it
    /// holds changes which crash states are tested, never an outcome.
    pub fn reset_triage(&self) {
        self.shared().1.reset();
    }

    /// Number of distinct triage witnesses held.
    pub fn witnesses(&self) -> usize {
        self.shared().1.len()
    }

    /// Records `held` as the witness for triage key `key`, as if a crash
    /// state with that key had been tested and come to `held`.
    pub fn record_witness(&self, key: u128, held: H) {
        self.shared().1.record(key, held);
    }
}

/// Tests one workload end to end: runs it on the trunk, then crash-tests
/// its selected persistence points ([`crash_test`]), counting rather than
/// rendering the reports whose group `exemplars` already holds. Debug
/// builds assert the outcome against one found through an empty trunk and
/// witness map, with the same exemplars.
pub fn test<T: Target>(
    target: &T,
    workload: &T::Workload,
    exemplars: Option<&dyn Exemplars>,
) -> FsResult<WorkloadOutcome> {
    let outcome = test_on(target, &mut target.carried().shared(), workload, exemplars)?;
    #[cfg(debug_assertions)]
    {
        let scratch = test_on(target, &mut Default::default(), workload, exemplars)?;
        let gist = |o: &WorkloadOutcome| {
            let covered = o.checkpoints_tested + o.checkpoints_reused;
            (
                o.bugs.clone(),
                o.counted.clone(),
                o.skipped.clone(),
                covered,
            )
        };
        assert!(
            gist(&outcome) == gist(&scratch),
            "the outcome of {} diverged from one through an empty trunk and witness map:\n\
             shared: {outcome:?}\nscratch: {scratch:?}",
            outcome.workload_name
        );
    }
    Ok(outcome)
}

/// [`test()`] on the given trunk, witness map and counts.
fn test_on<T: Target>(
    target: &T,
    (trunk, triage, sharing): &mut Shared<T::Run, T::Held>,
    workload: &T::Workload,
    exemplars: Option<&dyn Exemplars>,
) -> FsResult<WorkloadOutcome> {
    let start = Instant::now();
    let mut outcome = match target.run(trunk, workload)? {
        Finished::Complete(run) => crash_points(
            target,
            &run,
            workload,
            triage,
            exemplars,
            LogHandle::take_log,
        )?,
        Finished::Failed(run) => {
            let mut outcome = target.judge(workload).0;
            outcome.skipped = Some(T::skip(run)?);
            outcome
        }
    };
    // The crash-point loop timed itself; the rest ran the workload.
    let total = start.elapsed();
    outcome.timing.profile = total - outcome.timing.total;
    outcome.timing.total = total;
    let config = target.carried().config();
    sharing.states_tested += u64::from(outcome.checkpoints_tested);
    if config.crash_points.triage_audit().is_none() {
        sharing.states_inherited += u64::from(outcome.checkpoints_reused);
    }
    Ok(outcome)
}

/// Crash-tests the selected persistence points of `run`, which must have
/// run exactly `workload`'s steps: each is answered by the module's rule,
/// or built, recovered and judged, what it came to held for the workloads
/// that follow. Every bug report is rendered.
pub fn crash_test<T: Target>(
    target: &T,
    run: &T::Run,
    workload: &T::Workload,
) -> FsResult<WorkloadOutcome> {
    let mut shared = target.carried().shared();
    crash_points(
        target,
        run,
        workload,
        &mut shared.1,
        None,
        LogHandle::snapshot,
    )
}

/// [`crash_test`] against `triage` and `exemplars`, taking the run's log
/// with `load` (a copy, or the log itself from a run dropped after this)
/// when a crash state is first built.
fn crash_points<T: Target>(
    target: &T,
    run: &T::Run,
    workload: &T::Workload,
    triage: &mut TriageCache<T::Held>,
    exemplars: Option<&dyn Exemplars>,
    load: fn(&LogHandle) -> IoLog,
) -> FsResult<WorkloadOutcome> {
    let start = Instant::now();
    let carried = target.carried();
    let policy = carried.config.crash_points;
    let audit = policy.triage_audit();
    let (mut outcome, judge) = target.judge(workload);
    let (recording, points) = T::points(run);
    let base = carried.formatted_image()?;
    let mut log: Option<IoLog> = None;
    // Every checkpoint of the log has its digest here, when triaging.
    let digests = match audit {
        Some(_) => b3_analyze::state_digests(log.get_or_insert_with(|| load(recording))),
        None => Vec::new(),
    };
    let mut state_at = |checkpoint| {
        crash_state(
            &base,
            log.get_or_insert_with(|| load(recording)),
            checkpoint,
        )
    };
    let (mut recovery, mut checking) = (Duration::ZERO, Duration::ZERO);
    for point in policy.select(points) {
        let (checkpoint, cell) = T::point(point);
        // A few checkpoints per workload: a scan beats a map.
        let digest = digests.iter().find(|(id, _)| *id == checkpoint);
        let key = digest.map(|(_, digest)| target.key(triage, &judge, point, *digest));
        let found = match key {
            Some(key) => triage.lookup(key),
            None => cell
                .get()
                .filter(|held| target.answers(&judge, point, held)),
        };
        // The first `audit` witnesses a workload finds are tested anyway.
        let audited = key.is_some() && outcome.triage_audited < audit.unwrap_or(0);
        let fresh = match found {
            Some(held) if !audited => {
                if cfg!(debug_assertions) && key.is_none() {
                    let state = state_at(checkpoint)?;
                    let mounted = carried.spec.mount(Box::new(state.clone()));
                    let fresh = target.hold(&judge, point, state, mounted)?;
                    assert!(
                        fresh == *held,
                        "crash point {checkpoint} of {} was answered with {held:?}, \
                         but testing it gives {fresh:?}",
                        outcome.workload_name
                    );
                }
                outcome.checkpoints_reused += 1;
                None
            }
            _ => {
                let state = state_at(checkpoint)?;
                let recover_start = Instant::now();
                let recovered = recovery::recover(carried.spec, &state, checkpoint);
                recovery += recover_start.elapsed();
                let check_start = Instant::now();
                let held = target.hold(&judge, point, state, recovered)?;
                checking += check_start.elapsed();
                outcome.checkpoints_tested += 1;
                Some(held)
            }
        };
        let held = fresh.as_ref().or(found).expect("answered or tested");
        let render = || {
            target
                .verdict(&judge, point, held)
                .into_report(&outcome, checkpoint)
        };
        match target.consequences(&judge, point, held) {
            None => debug_assert!(render().is_none(), "a clean check rendered a report"),
            Some((consequence, all_consequences)) => {
                let counted = CountedReport {
                    crash_point: checkpoint,
                    consequence,
                    all_consequences,
                };
                let (skeleton, name) = (&outcome.skeleton, &outcome.workload_name);
                let countable = |exemplars| {
                    exemplar_held(exemplars, &outcome.bugs, skeleton, consequence, name)
                };
                if !exemplars.is_some_and(countable) {
                    let report = render().expect("a failed check renders a report");
                    pin_rendering(&report, &counted, None);
                    outcome.bugs.push(report);
                } else {
                    if cfg!(debug_assertions) {
                        let report = render().expect("a failed check renders a report");
                        pin_rendering(&report, &counted, exemplars.map(|e| (e, &*outcome.bugs)));
                    }
                    outcome.counted.push(counted);
                }
            }
        }
        let Some(fresh) = fresh else { continue };
        match (found, key) {
            (Some(witness), _) => {
                outcome.triage_audited += 1;
                let divergence = triage::audit_divergence(checkpoint, witness, &fresh);
                outcome.triage_divergences.extend(divergence);
            }
            (None, Some(key)) => triage.record(key, fresh),
            (None, None) => {
                cell.fill(fresh);
            }
        }
    }
    outcome.timing.crash_state_construction = start.elapsed() - checking;
    outcome.timing.recovery = recovery;
    outcome.timing.checking = checking;
    outcome.timing.total = start.elapsed();
    Ok(outcome)
}

/// Whether a report of the group `(skeleton, consequence)` from the workload
/// `name` can be counted instead of rendered: `exemplars` holds the group's
/// exemplar from a workload named no later, or the workload has already
/// rendered a report of the group (`rendered`, which all carry `skeleton`).
/// Of several same-group reports of one workload only the first can become
/// the exemplar.
fn exemplar_held(
    exemplars: &dyn Exemplars,
    rendered: &[BugReport],
    skeleton: &str,
    consequence: Consequence,
    name: &str,
) -> bool {
    rendered.iter().any(|bug| bug.consequence == consequence)
        || exemplars
            .exemplar(skeleton, consequence)
            .is_some_and(|held| held <= name)
}

/// Debug builds: `report`, rendered, carries the text-free `counted`
/// consequences, and when it was only counted, its own group key finds an
/// exemplar in `exemplars` or the workload's `rendered` reports. Together
/// these make the group table the sweep builds the one full rendering would.
fn pin_rendering(
    report: &BugReport,
    counted: &CountedReport,
    counted_against: Option<(&dyn Exemplars, &[BugReport])>,
) {
    if !cfg!(debug_assertions) {
        return;
    }
    let all: Vec<Consequence> = counted.all_consequences.iter().collect();
    assert!(
        (report.consequence, &report.all_consequences) == (counted.consequence, &all),
        "the text-free consequences {counted:?} of crash point {} of {} differ \
         from its rendered report's {:?}",
        report.crash_point,
        report.workload_name,
        (report.consequence, &report.all_consequences),
    );
    if let Some((exemplars, rendered)) = counted_against {
        let (skeleton, name) = (&report.skeleton, &report.workload_name);
        assert!(
            exemplar_held(exemplars, rendered, skeleton, report.consequence, name),
            "a report of {name} was counted, but its group's exemplar is {:?}",
            exemplars.exemplar(skeleton, report.consequence)
        );
    }
}
