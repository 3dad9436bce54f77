//! CrashMonkey: automatic crash-consistency testing of arbitrary workloads.
//!
//! CrashMonkey implements the testing half of the B3 approach (§5.1 of the
//! paper). Given a file system (any [`FsSpec`]) and a workload (any
//! [`Workload`]), it:
//!
//! 1. **Profiles** the workload: executes it on a freshly formatted file
//!    system mounted on an IO-recording wrapper device, inserting a
//!    *checkpoint* marker into the recorded IO stream after every
//!    persistence operation and capturing, at each checkpoint, fine-grained
//!    *oracles* — snapshots of the files and directories that have been
//!    explicitly persisted so far. The operation prefix a workload shares
//!    with the one before it is not run again: the harness forks the file
//!    system where the two part (the `trunk` module).
//! 2. **Constructs crash states**: for a chosen checkpoint, takes a fresh
//!    copy-on-write snapshot of the image the recording device froze when
//!    the marker was inserted. The paper rebuilds that image by replaying
//!    the recorded IO from the initial image up to the checkpoint; here the
//!    recorder is itself a snapshot device, so it already holds it (debug
//!    builds replay anyway and assert the two equal). The result is exactly
//!    the storage state at the moment the persistence call completed — an
//!    uncleanly-unmounted image.
//! 3. **Checks consistency**: recovers the crash state (the file system's
//!    mount, without its write-back), then runs the AutoChecker's read
//!    checks (persisted files must exist with the persisted data and
//!    metadata) and write checks (the recovered file system must still be
//!    usable: files can be created, persisted directories can be emptied
//!    and removed).
//!
//! Steps 2 and 3 are the crash-point loop of the [`target`] module, which
//! `b3_app` runs too. A crash state inside the shared prefix is the shared
//! run's own, so its verdict is kept at the checkpoint ([`Held`]) for the
//! workloads that share it; under [`CrashPointPolicy::AllTriaged`] crash
//! states are answered from triage witnesses instead.
//!
//! Any violation produces a [`BugReport`] with the workload, crash point,
//! expected and actual state, and a classified [`Consequence`] — the same
//! fields the paper's bug reports carry.

pub mod checker;
pub mod config;
pub mod profiler;
mod recovery;
pub mod report;
pub mod target;
mod triage;
pub mod trunk;

use std::sync::Arc;

use b3_block::{CowSnapshotDevice, LogHandle};
use b3_vfs::error::FsResult;
use b3_vfs::fs::{FileSystem, FsSpec};
use b3_vfs::snapshot::EntryInterner;
use b3_vfs::workload::Workload;

use checker::HeldVerdict;
pub use checker::{AutoChecker, CheckVerdict};
pub use config::{CrashMonkeyConfig, CrashPointPolicy};
use profiler::ProfileState;
pub use profiler::{CheckpointInfo, Expectation, ProfileResult, Profiler};
pub use report::{
    BugReport, Consequence, ConsequenceSet, CountedReport, PhaseTiming, WorkloadOutcome,
};
pub use target::{Carried, Exemplars, Sharing, Target};
use triage::TriageCache;
pub use trunk::{Finished, Held, ProfileSharing, Trunk, TrunkRun};

/// The CrashMonkey test harness for one target file system.
pub struct CrashMonkey<'a> {
    carried: Carried<'a, ProfileState, HeldVerdict>,
    /// Optional cross-workload oracle/expectation interner (see
    /// [`EntryInterner`]); shared between harnesses to pool their oracles.
    interner: Option<Arc<EntryInterner>>,
}

impl<'a> CrashMonkey<'a> {
    /// Creates a harness for `spec` with the default configuration.
    pub fn new(spec: &'a dyn FsSpec) -> Self {
        Self::with_config(spec, CrashMonkeyConfig::default())
    }

    /// Creates a harness with an explicit configuration.
    pub fn with_config(spec: &'a dyn FsSpec, config: CrashMonkeyConfig) -> Self {
        CrashMonkey {
            carried: Carried::new(spec, config, profiler::formatted_base_image),
            interner: None,
        }
    }

    /// Creates a harness whose oracle/expectation entries are interned in
    /// `interner`, deduplicating content-equal entries across workloads.
    pub fn with_interner(
        spec: &'a dyn FsSpec,
        config: CrashMonkeyConfig,
        interner: Arc<EntryInterner>,
    ) -> Self {
        CrashMonkey {
            interner: Some(interner),
            ..Self::with_config(spec, config)
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &CrashMonkeyConfig {
        self.carried.config()
    }

    fn profiler(&self) -> Profiler<'_> {
        let (spec, config) = (self.carried.spec(), self.carried.config());
        match &self.interner {
            Some(interner) => Profiler::with_interner(spec, config, interner.clone()),
            None => Profiler::new(spec, config),
        }
    }

    /// Drops every triage witness ([`Carried::reset_triage`], which the
    /// sweep's shard loop calls at every shard boundary). A no-op unless
    /// the policy is [`CrashPointPolicy::AllTriaged`].
    pub fn reset_triage(&self) {
        self.carried.reset_triage();
    }

    /// How much work prefix sharing has saved this harness so far:
    /// operations executed against operations resumed from a frame, crash
    /// states tested against crash states answered from the trunk.
    pub fn sharing(&self) -> Sharing {
        self.carried.sharing()
    }

    /// Profiles a workload on a snapshot of the cached mkfs image, running
    /// only the operations it does not share with the previous one. The
    /// result is what [`Profiler::profile_on`] returns for the same
    /// workload, which debug builds assert.
    pub fn profile_only(&self, workload: &Workload) -> FsResult<ProfileResult> {
        let base_image = self.carried.formatted_image()?;
        let profiler = self.profiler();
        let profile =
            profiler.profile_through(&mut self.carried.shared().0, &base_image, workload)?;
        #[cfg(debug_assertions)]
        {
            let scratch = profiler.profile_on(base_image, workload)?;
            assert!(
                profile == scratch,
                "prefix-shared profile of {} diverged from a from-scratch one:\n\
                 shared: {profile:?}\nscratch: {scratch:?}",
                workload.name
            );
        }
        Ok(profile)
    }

    /// Tests one workload end to end: profile, construct crash states, check
    /// consistency. Returns the outcome including every bug report,
    /// rendered.
    pub fn test_workload(&self, workload: &Workload) -> FsResult<WorkloadOutcome> {
        target::test(self, workload, None)
    }
}

/// What judging one syscall workload's crash states needs.
pub struct FsJudge<'a> {
    workload: &'a Workload,
    /// The workload's part of every triage key.
    seed: triage::KeySeed<'a>,
}

impl<'a> Target for CrashMonkey<'a> {
    type Workload = Workload;
    type Run = ProfileState;
    type Point = CheckpointInfo;
    type Held = HeldVerdict;
    type Judge<'j>
        = FsJudge<'j>
    where
        Self: 'j;

    fn carried(&self) -> &Carried<'_, ProfileState, HeldVerdict> {
        &self.carried
    }

    fn run<'t>(
        &self,
        trunk: &'t mut Trunk<ProfileState>,
        workload: &Workload,
    ) -> FsResult<Finished<'t, ProfileState>> {
        let base_image = self.carried.formatted_image()?;
        self.profiler().run_through(trunk, &base_image, workload)
    }

    fn skip(run: &ProfileState) -> FsResult<String> {
        let error = run.exec_error.as_ref().expect("the run failed");
        Ok(format!("workload failed to execute: {error}"))
    }

    fn points(run: &ProfileState) -> (&LogHandle, &[CheckpointInfo]) {
        (&run.log, &run.checkpoints)
    }

    fn point(point: &CheckpointInfo) -> (u32, &Held<HeldVerdict>) {
        (point.id, &point.verdict)
    }

    fn judge<'j>(&'j self, workload: &'j Workload) -> (WorkloadOutcome, FsJudge<'j>) {
        let outcome = WorkloadOutcome::new(workload, self.carried.spec().name());
        let seed = triage::KeySeed::of(workload);
        (outcome, FsJudge { workload, seed })
    }

    fn key(
        &self,
        triage: &mut TriageCache<HeldVerdict>,
        judge: &FsJudge<'_>,
        point: &CheckpointInfo,
        digest: u128,
    ) -> u128 {
        triage.key(digest, &judge.seed, point)
    }

    fn answers(&self, judge: &FsJudge<'_>, point: &CheckpointInfo, held: &HeldVerdict) -> bool {
        held.answers(judge.workload, point)
    }

    fn hold(
        &self,
        judge: &FsJudge<'_>,
        point: &CheckpointInfo,
        state: CowSnapshotDevice,
        recovered: FsResult<Box<dyn FileSystem>>,
    ) -> FsResult<HeldVerdict> {
        let checker = AutoChecker::new(self.carried.spec(), self.carried.config());
        Ok(checker.hold(judge.workload, point, state, recovered))
    }

    fn verdict(&self, _: &FsJudge<'_>, _: &CheckpointInfo, held: &HeldVerdict) -> CheckVerdict {
        held.verdict.clone()
    }

    fn consequences(
        &self,
        _: &FsJudge<'_>,
        _: &CheckpointInfo,
        held: &HeldVerdict,
    ) -> Option<(Consequence, ConsequenceSet)> {
        held.verdict.consequences()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b3_fs_cow::CowFsSpec;
    use b3_fs_veri::VeriFsSpec;
    use b3_vfs::fs::WriteMode;
    use b3_vfs::workload::{Op, WriteSpec};
    use b3_vfs::KernelEra;

    fn w(name: &str, setup: Vec<Op>, ops: Vec<Op>) -> Workload {
        Workload::with_setup(name, setup, ops)
    }

    #[test]
    fn patched_cowfs_has_no_false_positives_on_simple_workloads() {
        let spec = CowFsSpec::patched();
        let monkey = CrashMonkey::new(&spec);
        let workloads = vec![
            w(
                "create-fsync",
                vec![Op::Mkdir { path: "A".into() }],
                vec![
                    Op::Creat {
                        path: "A/foo".into(),
                    },
                    Op::Fsync {
                        path: "A/foo".into(),
                    },
                ],
            ),
            w(
                "write-sync-rename-fsync",
                vec![
                    Op::Mkdir { path: "A".into() },
                    Op::Creat {
                        path: "A/foo".into(),
                    },
                ],
                vec![
                    Op::Write {
                        path: "A/foo".into(),
                        mode: WriteMode::Buffered,
                        spec: WriteSpec::range(0, 8192),
                    },
                    Op::Sync,
                    Op::Rename {
                        from: "A/foo".into(),
                        to: "A/bar".into(),
                    },
                    Op::Fsync {
                        path: "A/bar".into(),
                    },
                ],
            ),
            w(
                "link-then-fsync",
                vec![Op::Creat { path: "foo".into() }],
                vec![
                    Op::Write {
                        path: "foo".into(),
                        mode: WriteMode::Buffered,
                        spec: WriteSpec::range(0, 4096),
                    },
                    Op::Link {
                        existing: "foo".into(),
                        new: "bar".into(),
                    },
                    Op::Fsync { path: "foo".into() },
                ],
            ),
        ];
        for workload in &workloads {
            let outcome = monkey.test_workload(workload).unwrap();
            assert!(
                outcome.bugs.is_empty(),
                "false positive on patched CowFs for {}: {:?}",
                workload.name,
                outcome.bugs
            );
            assert!(outcome.skipped.is_none());
            assert!(outcome.checkpoints_tested >= 1);
        }
    }

    #[test]
    fn buggy_cowfs_hard_link_fsync_is_detected() {
        // Known workload 16: the file recovers with size 0 on kernel 3.13.
        let workload = w(
            "known-16",
            vec![
                Op::Mkdir { path: "A".into() },
                Op::Creat {
                    path: "A/foo".into(),
                },
            ],
            vec![
                Op::Sync,
                Op::Write {
                    path: "A/foo".into(),
                    mode: WriteMode::Buffered,
                    spec: WriteSpec::range(0, 16 * 1024),
                },
                Op::Link {
                    existing: "A/foo".into(),
                    new: "A/bar".into(),
                },
                Op::Fsync {
                    path: "A/foo".into(),
                },
            ],
        );

        let buggy = CowFsSpec::new(KernelEra::V3_13);
        let outcome = CrashMonkey::new(&buggy).test_workload(&workload).unwrap();
        assert!(!outcome.bugs.is_empty(), "bug must be detected on 3.13");
        // The 3.13-era file system exhibits both the hard-link data loss and
        // (because the still-unfixed "fsync skips other names" bug was also
        // present back then) the missing hard-link name; data loss must be
        // among the observed consequences.
        assert!(outcome.bugs[0]
            .all_consequences
            .contains(&Consequence::DataLoss));

        let patched = CowFsSpec::patched();
        let outcome = CrashMonkey::new(&patched).test_workload(&workload).unwrap();
        assert!(
            outcome.bugs.is_empty(),
            "no bug on patched: {:?}",
            outcome.bugs
        );
    }

    #[test]
    fn fscq_fdatasync_bug_is_detected() {
        // New bug 11 on the verified file system.
        let workload = w(
            "fscq-11",
            vec![Op::Creat { path: "foo".into() }],
            vec![
                Op::Write {
                    path: "foo".into(),
                    mode: WriteMode::Buffered,
                    spec: WriteSpec::range(0, 4096),
                },
                Op::Sync,
                Op::Write {
                    path: "foo".into(),
                    mode: WriteMode::Buffered,
                    spec: WriteSpec::range(4096, 4096),
                },
                Op::Fdatasync { path: "foo".into() },
            ],
        );
        let buggy = VeriFsSpec::new(KernelEra::V4_16);
        let outcome = CrashMonkey::new(&buggy).test_workload(&workload).unwrap();
        assert_eq!(outcome.bugs.len(), 1);
        assert_eq!(outcome.bugs[0].consequence, Consequence::DataLoss);

        let patched = VeriFsSpec::patched();
        let outcome = CrashMonkey::new(&patched).test_workload(&workload).unwrap();
        assert!(outcome.bugs.is_empty());
    }

    #[test]
    fn invalid_workloads_are_skipped_not_reported() {
        let spec = CowFsSpec::patched();
        let monkey = CrashMonkey::new(&spec);
        let workload = w(
            "invalid",
            vec![],
            vec![
                Op::Rename {
                    from: "missing".into(),
                    to: "elsewhere".into(),
                },
                Op::Sync,
            ],
        );
        let outcome = monkey.test_workload(&workload).unwrap();
        assert!(outcome.skipped.is_some());
        assert!(outcome.bugs.is_empty());
    }

    #[test]
    fn workloads_without_persistence_points_test_nothing() {
        let spec = CowFsSpec::patched();
        let monkey = CrashMonkey::new(&spec);
        let workload = w("no-persist", vec![], vec![Op::Creat { path: "foo".into() }]);
        let outcome = monkey.test_workload(&workload).unwrap();
        assert_eq!(outcome.checkpoints_tested, 0);
        assert!(outcome.bugs.is_empty());
    }

    /// A workload with several persistence points, so `CrashPointPolicy::All`
    /// visits multiple crash states.
    fn multi_checkpoint_workload() -> Workload {
        w(
            "multi-checkpoint",
            vec![Op::Mkdir { path: "A".into() }],
            vec![
                Op::Creat {
                    path: "A/foo".into(),
                },
                Op::Fsync {
                    path: "A/foo".into(),
                },
                Op::Write {
                    path: "A/foo".into(),
                    mode: WriteMode::Buffered,
                    spec: WriteSpec::range(0, 8192),
                },
                Op::Fsync {
                    path: "A/foo".into(),
                },
                Op::Rename {
                    from: "A/foo".into(),
                    to: "A/bar".into(),
                },
                Op::Fsync {
                    path: "A/bar".into(),
                },
            ],
        )
    }

    #[test]
    fn shared_interner_pools_oracles_across_workloads() {
        let spec = CowFsSpec::patched();
        let interner = Arc::new(EntryInterner::new());
        let monkey = CrashMonkey::with_interner(
            &spec,
            CrashMonkeyConfig::exhaustive_crash_points(),
            interner.clone(),
        );
        for workload in [
            multi_checkpoint_workload(),
            w(
                "second",
                vec![Op::Mkdir { path: "A".into() }],
                vec![
                    Op::Creat {
                        path: "A/foo".into(),
                    },
                    Op::Fsync {
                        path: "A/foo".into(),
                    },
                ],
            ),
        ] {
            let outcome = monkey.test_workload(&workload).unwrap();
            assert!(outcome.skipped.is_none());
        }
        assert!(
            !interner.is_empty(),
            "profiling must populate the shared interner"
        );
    }

    /// Delegates to CowFs and counts `mkfs` calls.
    struct CountingSpec {
        inner: CowFsSpec,
        formats: std::sync::atomic::AtomicUsize,
    }

    impl FsSpec for CountingSpec {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn mkfs(
            &self,
            device: Box<dyn b3_block::BlockDevice>,
        ) -> FsResult<Box<dyn b3_vfs::fs::FileSystem>> {
            self.formats
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.mkfs(device)
        }

        fn mount(
            &self,
            device: Box<dyn b3_block::BlockDevice>,
        ) -> FsResult<Box<dyn b3_vfs::fs::FileSystem>> {
            self.inner.mount(device)
        }
    }

    #[test]
    fn profile_only_formats_once_and_matches_a_from_scratch_profile() {
        let spec = CountingSpec {
            inner: CowFsSpec::patched(),
            formats: std::sync::atomic::AtomicUsize::new(0),
        };
        let monkey = CrashMonkey::with_config(&spec, CrashMonkeyConfig::small());
        let workload = multi_checkpoint_workload();
        let first = monkey.profile_only(&workload).unwrap();
        let second = monkey.profile_only(&workload).unwrap();
        let formats = || spec.formats.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(formats(), 1, "the mkfs image must be cached");
        assert!(first == second);

        let scratch = Profiler::new(&spec, monkey.config())
            .profile(&workload)
            .unwrap();
        assert_eq!(formats(), 2, "Profiler::profile formats for itself");
        assert!(first == scratch);
        // The second call resumed before the final op of the first.
        let sharing = monkey.sharing().steps;
        let ops = workload.total_ops() as u64;
        assert_eq!(sharing.mounts, 1);
        assert_eq!(sharing.ops_applied, ops + 1);
        assert_eq!(sharing.ops_resumed, ops - 1);
    }

    #[test]
    fn siblings_of_a_failed_workload_report_the_same_skip_reason() {
        // The rename (op 1) fails; the siblings share ops 0..=1 and differ
        // after it, so each is answered from the kept failed run.
        let failing = |name: &str, last: Op| {
            w(
                name,
                vec![Op::Creat { path: "foo".into() }],
                vec![
                    Op::Rename {
                        from: "missing".into(),
                        to: "elsewhere".into(),
                    },
                    last,
                ],
            )
        };
        let siblings = [
            failing("first", Op::Sync),
            failing("second", Op::Fsync { path: "foo".into() }),
            failing(
                "third",
                Op::Unlink {
                    path: "elsewhere".into(),
                },
            ),
        ];
        for spec in [CowFsSpec::patched(), CowFsSpec::new(KernelEra::V3_13)] {
            let shared = CrashMonkey::with_config(&spec, CrashMonkeyConfig::small());
            // A second shared harness profiles the siblings in the same
            // order, so that `shared`'s sharing counts stay its own.
            let profiled = CrashMonkey::with_config(&spec, CrashMonkeyConfig::small());
            for (index, workload) in siblings.iter().enumerate() {
                let outcome = shared.test_workload(workload).unwrap();
                let scratch = CrashMonkey::with_config(&spec, CrashMonkeyConfig::small());
                let recorded = |monkey: &CrashMonkey| {
                    monkey.profile_only(workload).unwrap().log.recorded_bytes()
                };
                assert!(outcome.skipped.is_some());
                let skipped = scratch.test_workload(workload).unwrap().skipped;
                assert_eq!(outcome.skipped, skipped, "{}", workload.name);
                assert_eq!(recorded(&profiled), recorded(&scratch));
                // Only the first sibling ran anything: both its ops.
                assert_eq!(shared.sharing().steps.ops_applied, 2);
                assert_eq!(shared.sharing().steps.ops_resumed, 2 * index as u64);
            }
            // A workload that leaves the failed prefix runs again.
            let healthy = w(
                "healthy",
                vec![Op::Creat { path: "foo".into() }],
                vec![Op::Fsync { path: "foo".into() }],
            );
            let outcome = shared.test_workload(&healthy).unwrap();
            assert!(outcome.skipped.is_none());
            assert_eq!(outcome.checkpoints_tested, 1);
        }
    }

    /// `setup`, `op`, `fsync path`, then one of `lasts`: workloads that
    /// part at their final operation only, after one persistence point.
    fn siblings_after_fsync(setup: &[Op], op: Op, path: &str, lasts: Vec<Op>) -> Vec<Workload> {
        lasts
            .into_iter()
            .enumerate()
            .map(|(index, last)| {
                let fsync = Op::Fsync { path: path.into() };
                w(
                    &format!("sibling-{index}"),
                    setup.to_vec(),
                    vec![op.clone(), fsync, last],
                )
            })
            .collect()
    }

    #[test]
    fn siblings_test_the_crash_state_of_their_shared_prefix_once() {
        // On 3.13 the shared `falloc -k; fsync` loses the blocks, so what
        // the later siblings inherit there is a failing verdict.
        let siblings = siblings_after_fsync(
            &[Op::Creat { path: "foo".into() }],
            Op::Falloc {
                path: "foo".into(),
                mode: b3_vfs::workload::FallocMode::KeepSize,
                offset: 0,
                len: 8192,
            },
            "foo",
            vec![
                Op::Sync,
                Op::Fdatasync { path: "foo".into() },
                Op::Creat { path: "bar".into() },
            ],
        );
        for (spec, buggy) in [
            (CowFsSpec::patched(), false),
            (CowFsSpec::new(KernelEra::V3_13), true),
        ] {
            let config = CrashMonkeyConfig::exhaustive_crash_points();
            let shared = CrashMonkey::with_config(&spec, config);
            for (index, workload) in siblings.iter().enumerate() {
                let outcome = shared.test_workload(workload).unwrap();
                let fresh = CrashMonkey::with_config(&spec, config)
                    .test_workload(workload)
                    .unwrap();
                assert_eq!(outcome.checkpoints_reused, u32::from(index > 0));
                assert_eq!(fresh.checkpoints_reused, 0);
                assert_eq!(
                    outcome.checkpoints_tested + outcome.checkpoints_reused,
                    fresh.checkpoints_tested
                );
                assert_eq!(outcome.bugs, fresh.bugs, "{}", workload.name);
                assert_eq!(
                    outcome.bugs.iter().any(|bug| bug.crash_point == 1),
                    buggy,
                    "{:?}",
                    outcome.bugs
                );
                for bug in &outcome.bugs {
                    assert_eq!(bug.workload_name, workload.name);
                }
            }
            let sharing = shared.sharing();
            assert_eq!(sharing.states_inherited, 2);
            // Two crash states each, one for the sibling that ends without
            // a persistence point, less the two inherited.
            assert_eq!(sharing.states_tested, 2 + 2 + 1 - 2);

            // The other policies neither leave verdicts nor take them.
            for config in [
                CrashMonkeyConfig::small(),
                CrashMonkeyConfig::triaged_crash_points(),
            ] {
                let monkey = CrashMonkey::with_config(&spec, config);
                for workload in &siblings[..2] {
                    monkey.test_workload(workload).unwrap();
                }
                assert_eq!(monkey.sharing().states_inherited, 0);
            }
        }
    }

    #[test]
    fn a_later_rename_onto_a_persisted_path_is_not_answered_from_the_trunk() {
        // `bar` is persisted at the shared checkpoint, so the second
        // sibling's rename onto it is a rename-atomicity candidate there: a
        // checker input the first sibling's verdict was found without.
        let siblings = siblings_after_fsync(
            &[Op::Creat { path: "foo".into() }],
            Op::Creat { path: "bar".into() },
            "bar",
            vec![
                Op::Sync,
                Op::Rename {
                    from: "foo".into(),
                    to: "bar".into(),
                },
                Op::Fsync { path: "foo".into() },
            ],
        );
        let spec = CowFsSpec::patched();
        let monkey = CrashMonkey::with_config(&spec, CrashMonkeyConfig::exhaustive_crash_points());
        let outcomes: Vec<WorkloadOutcome> = siblings
            .iter()
            .map(|workload| monkey.test_workload(workload).unwrap())
            .collect();
        let counts: Vec<(u32, u32)> = outcomes
            .iter()
            .map(|outcome| (outcome.checkpoints_tested, outcome.checkpoints_reused))
            .collect();
        // The rename is no persistence point: its workload has the shared
        // crash state only, and tests it. The cell keeps the first verdict,
        // which answers the third sibling.
        assert_eq!(counts, [(2, 0), (1, 0), (1, 1)]);
        assert!(outcomes.iter().all(|outcome| outcome.bugs.is_empty()));
    }

    #[test]
    fn checkpoints_that_differ_only_in_their_verdict_cell_compare_equal() {
        let spec = CowFsSpec::patched();
        let monkey = CrashMonkey::with_config(&spec, CrashMonkeyConfig::exhaustive_crash_points());
        let workload = multi_checkpoint_workload();
        monkey.test_workload(&workload).unwrap();
        // Resumed before the final op: the earlier checkpoints are the
        // tested run's own.
        let held = monkey.profile_only(&workload).unwrap();
        let scratch = Profiler::new(&spec, monkey.config())
            .profile(&workload)
            .unwrap();
        assert!(held.checkpoints[0].verdict.get().is_some());
        assert!(scratch.checkpoints[0].verdict.get().is_none());
        assert!(held.checkpoints[0] == scratch.checkpoints[0]);
        assert_eq!(
            format!("{:?}", held.checkpoints[0]),
            format!("{:?}", scratch.checkpoints[0])
        );
    }

    #[test]
    fn triaged_outcomes_match_exhaustive_bug_for_bug() {
        let specs: Vec<Box<dyn FsSpec>> = vec![
            Box::new(CowFsSpec::new(KernelEra::V3_13)),
            Box::new(CowFsSpec::patched()),
            Box::new(VeriFsSpec::new(KernelEra::V4_16)),
        ];
        let workloads = vec![
            multi_checkpoint_workload(),
            w(
                "hard-link-style",
                vec![Op::Creat { path: "foo".into() }],
                vec![
                    Op::Sync,
                    Op::Write {
                        path: "foo".into(),
                        mode: WriteMode::Buffered,
                        spec: WriteSpec::range(0, 16 * 1024),
                    },
                    Op::Link {
                        existing: "foo".into(),
                        new: "bar".into(),
                    },
                    Op::Fsync { path: "foo".into() },
                ],
            ),
        ];
        for spec in &specs {
            let all = CrashMonkey::with_config(
                spec.as_ref(),
                CrashMonkeyConfig::exhaustive_crash_points(),
            );
            let triaged = CrashMonkey::with_config(
                spec.as_ref(),
                CrashMonkeyConfig {
                    crash_points: CrashPointPolicy::AllTriaged { audit: 1 },
                    ..CrashMonkeyConfig::small()
                },
            );
            for workload in &workloads {
                let exhaustive = all.test_workload(workload).unwrap();
                let reused = triaged.test_workload(workload).unwrap();
                assert_eq!(
                    exhaustive.bugs,
                    reused.bugs,
                    "triage diverged on {} / {}",
                    spec.name(),
                    workload.name
                );
                assert_eq!(
                    exhaustive.checkpoints_tested,
                    reused.checkpoints_tested + reused.checkpoints_reused,
                    "triage must cover every crash point"
                );
                assert!(
                    reused.triage_divergences.is_empty(),
                    "audit divergence on {} / {}: {:?}",
                    spec.name(),
                    workload.name,
                    reused.triage_divergences
                );
            }
        }
    }

    #[test]
    fn triage_reuses_witnesses_across_workloads() {
        // Two workloads identical except for their name produce identical
        // crash states and checker inputs, so the second is fully covered by
        // reuse — and its synthesized reports must carry *its* name.
        let spec = CowFsSpec::new(KernelEra::V3_13);
        let monkey = CrashMonkey::with_config(&spec, CrashMonkeyConfig::triaged_crash_points());
        let first = {
            let mut workload = multi_checkpoint_workload();
            workload.name = "first".into();
            monkey.test_workload(&workload).unwrap()
        };
        assert_eq!(first.checkpoints_reused, 0);
        assert!(first.checkpoints_tested > 1);
        assert!(monkey.carried().witnesses() > 0);

        let second = {
            let mut workload = multi_checkpoint_workload();
            workload.name = "second".into();
            monkey.test_workload(&workload).unwrap()
        };
        assert_eq!(second.checkpoints_tested, 0, "all states must be reused");
        assert_eq!(second.checkpoints_reused, first.checkpoints_tested);
        assert_eq!(second.bugs.len(), first.bugs.len());
        for bug in &second.bugs {
            assert_eq!(bug.workload_name, "second");
        }

        monkey.reset_triage();
        assert_eq!(monkey.carried().witnesses(), 0);
        let third = {
            let mut workload = multi_checkpoint_workload();
            workload.name = "third".into();
            monkey.test_workload(&workload).unwrap()
        };
        assert_eq!(
            third.checkpoints_tested, first.checkpoints_tested,
            "a reset cache must re-test dynamically"
        );
    }
}
