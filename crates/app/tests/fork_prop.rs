//! Property tests of the [`AppRun`] fork, the application-level counterpart
//! of `crates/crashmonkey/tests/fork_prop.rs`: after a fork, no commit on
//! either side changes what the other side holds — its recorded IO, its
//! crash points, the engine's state, the recoveries held for its crash
//! points — in both directions; the fork behaves exactly like a run that
//! ran the shared transactions itself; and the two sides *do* share the
//! recovery of a crash point they have in common, whichever recovers it
//! first. Prefix sharing in [`AppHarness`] rests on all three.

use proptest::prelude::*;

use b3_app::engine::DATA_LOG;
use b3_app::generator::{Txn, TxnOp};
use b3_app::{AppHarness, AppRun, CrashPointMeta, EngineProfile, Recovery, TxnOpKind, TxnWorkload};
use b3_block::{BlockDevice, IoLog};
use b3_crashmonkey::{CrashMonkeyConfig, TrunkRun, WorkloadOutcome};
use b3_fs_cow::CowFsSpec;
use b3_fs_flash::FlashFsSpec;
use b3_fs_journal::JournalFsSpec;
use b3_vfs::fs::{FileSystem, FsSpec};
use b3_vfs::{FsError, FsResult, KernelEra, MutantSet};

/// One or two operations over two keys; one transaction in four aborts.
fn txn_strategy() -> impl Strategy<Value = Txn> {
    let kind = prop::sample::select(vec![TxnOpKind::Put, TxnOpKind::Append, TxnOpKind::Delete]);
    let op = (kind, 0u32..2).prop_map(|(kind, key)| TxnOp { kind, key });
    (prop::collection::vec(op, 1..3), 0u8..4).prop_map(|(ops, coin)| Txn {
        ops,
        commit: coin != 0,
    })
}

fn workload(txns: &[&[Txn]]) -> TxnWorkload {
    TxnWorkload {
        name: "fork-prop".into(),
        index: 0,
        txns: txns.concat(),
    }
}

fn step_all(run: &mut AppRun, txns: &[Txn]) {
    for txn in txns {
        run.step(txn);
    }
}

type Observed = (
    IoLog,
    Vec<CrashPointMeta>,
    std::collections::BTreeMap<String, Vec<u8>>,
    Vec<Option<Recovery>>,
    Option<FsError>,
);

/// Everything the other side of a fork must not be able to change.
fn observe(run: &AppRun) -> Observed {
    (
        run.log(),
        run.crash_points().copied().collect(),
        run.dump(),
        run.held_recoveries().map(Option::<&_>::cloned).collect(),
        run.error().cloned(),
    )
}

fn check_fork(
    spec: &dyn FsSpec,
    engine: EngineProfile,
    prefix: &[Txn],
    on_fork: &[Txn],
    on_parent: &[Txn],
) -> Result<(), TestCaseError> {
    let what = format!("{}, {}", spec.name(), engine.describe());
    let harness = AppHarness::new(spec, CrashMonkeyConfig::exhaustive_crash_points(), engine);
    let crash_test = |run: &AppRun, txns: &[&[Txn]]| -> WorkloadOutcome {
        harness
            .crash_test(run, &workload(txns))
            .expect("crash test")
    };
    let mut parent = harness.mount_run().expect("mount");
    step_all(&mut parent, prefix);

    // A recovery made through one side answers the other: the crash points
    // both hold are the same crash states.
    let early = parent.fork();
    prop_assert!(early.held_recoveries().all(|held| held.is_none()));
    let prefix_outcome = crash_test(&parent, &[prefix]);
    prop_assert_eq!(prefix_outcome.checkpoints_reused, 0);
    prop_assert!(parent.held_recoveries().all(|held| held.is_some()));
    prop_assert!(observe(&early) == observe(&parent), "{what}: shared cells");
    let answered = crash_test(&early, &[prefix]);
    prop_assert_eq!(answered.checkpoints_tested, 0);
    prop_assert_eq!(&answered.bugs, &prefix_outcome.bugs);

    let mut fork = parent.fork();
    let at_fork = observe(&parent);
    prop_assert!(
        observe(&fork) == at_fork,
        "{what}: a fork starts out identical"
    );

    // Fork → parent: nothing the fork commits or recovers shows on the
    // parent.
    step_all(&mut fork, on_fork);
    let fork_outcome = crash_test(&fork, &[prefix, on_fork]);
    prop_assert_eq!(
        fork_outcome.checkpoints_reused,
        prefix_outcome.checkpoints_tested
    );
    prop_assert!(
        observe(&parent) == at_fork,
        "{what}: commits on the fork changed the parent\\nprefix {prefix:?}\\nfork {on_fork:?}"
    );

    // Parent → fork: nothing the parent commits or recovers shows on the
    // fork.
    let after_fork_txns = observe(&fork);
    step_all(&mut parent, on_parent);
    crash_test(&parent, &[prefix, on_parent]);
    prop_assert!(
        observe(&fork) == after_fork_txns,
        "{what}: commits on the parent changed the fork\\nprefix {prefix:?}\\nparent {on_parent:?}"
    );

    // The fork is indistinguishable from a run that never forked — down to
    // the recoveries it was answered from the parent's cells.
    let mut scratch = harness.mount_run().expect("mount");
    step_all(&mut scratch, prefix);
    step_all(&mut scratch, on_fork);
    let scratch_outcome = crash_test(&scratch, &[prefix, on_fork]);
    prop_assert_eq!(scratch_outcome.checkpoints_reused, 0);
    prop_assert_eq!(&scratch_outcome.bugs, &fork_outcome.bugs);
    prop_assert!(
        observe(&scratch) == after_fork_txns,
        "{what}: the fork diverged from an unforked run\\nprefix {prefix:?}\\ntxns {on_fork:?}"
    );
    Ok(())
}

/// The fixed engine and the one with every seeded bug on (more persistence
/// points per commit, a recovery that rewrites the snapshot on every open).
fn check_both_engines(
    spec: &dyn FsSpec,
    prefix: &[Txn],
    on_fork: &[Txn],
    on_parent: &[Txn],
) -> Result<(), TestCaseError> {
    let all_bugs = EngineProfile {
        commit_without_data_fsync: true,
        torn_commit: true,
        double_replay: true,
    };
    for engine in [EngineProfile::none(), all_bugs] {
        check_fork(spec, engine, prefix, on_fork, on_parent)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn runs_on_cowfs_fork_in_isolation(
        prefix in prop::collection::vec(txn_strategy(), 0..3),
        on_fork in prop::collection::vec(txn_strategy(), 1..3),
        on_parent in prop::collection::vec(txn_strategy(), 1..3),
    ) {
        check_both_engines(&CowFsSpec::new(KernelEra::Patched), &prefix, &on_fork, &on_parent)?;
    }

    #[test]
    fn runs_on_flashfs_fork_in_isolation(
        prefix in prop::collection::vec(txn_strategy(), 0..3),
        on_fork in prop::collection::vec(txn_strategy(), 1..3),
        on_parent in prop::collection::vec(txn_strategy(), 1..3),
    ) {
        check_both_engines(&FlashFsSpec::new(KernelEra::Patched), &prefix, &on_fork, &on_parent)?;
    }

    #[test]
    fn runs_on_journalfs_fork_in_isolation(
        prefix in prop::collection::vec(txn_strategy(), 0..3),
        on_fork in prop::collection::vec(txn_strategy(), 1..3),
        on_parent in prop::collection::vec(txn_strategy(), 1..3),
    ) {
        check_both_engines(&JournalFsSpec::new(KernelEra::Patched), &prefix, &on_fork, &on_parent)?;
    }
}

/// CowFs whose every mount finds the engine's value heap replaced by a
/// directory: the store opens and a delete-only transaction commits, but
/// the first put cannot write its value.
struct BrokenHeap(CowFsSpec);

impl FsSpec for BrokenHeap {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn mkfs(&self, device: Box<dyn BlockDevice>) -> FsResult<Box<dyn FileSystem>> {
        self.0.mkfs(device)
    }

    fn mount(&self, device: Box<dyn BlockDevice>) -> FsResult<Box<dyn FileSystem>> {
        let mut fs = self.0.mount(device)?;
        fs.unlink(DATA_LOG)?;
        fs.mkdir(DATA_LOG)?;
        Ok(fs)
    }
}

#[test]
fn a_failed_commit_stays_with_the_run_and_answers_its_siblings() {
    let spec = BrokenHeap(CowFsSpec::new(KernelEra::Patched));
    let config = CrashMonkeyConfig::exhaustive_crash_points();
    let harness = AppHarness::new(&spec, config, EngineProfile::none());
    let txn = |kind, commit| Txn {
        ops: vec![TxnOp { kind, key: 0 }],
        commit,
    };
    let delete = txn(TxnOpKind::Delete, true);
    let put = txn(TxnOpKind::Put, true);

    // The run keeps the error, and so does every fork of it.
    let mut run = harness.mount_run().unwrap();
    run.step(&delete);
    assert!(!run.failed() && run.crash_points().count() > 0);
    let healthy = observe(&run);
    let mut fork = run.fork();
    fork.step(&put);
    assert!(fork.failed() && fork.depth() == 2);
    assert!(
        observe(&run) == healthy,
        "the fork's failure reached the parent"
    );
    assert_eq!(fork.fork().error(), fork.error());

    // Through the harness: the first sibling runs into the failure, the
    // others are answered with it from the kept run.
    let sibling = |name: &str, last: Txn| TxnWorkload {
        name: name.into(),
        index: 0,
        txns: vec![delete.clone(), put.clone(), last],
    };
    let first = harness
        .test_workload(&sibling("first", put.clone()))
        .unwrap_err();
    assert_eq!(Some(&first), fork.error());
    assert_eq!(harness.sharing().steps.ops_applied, 2);
    let lasts = [txn(TxnOpKind::Append, true), txn(TxnOpKind::Delete, false)];
    for (index, last) in lasts.into_iter().enumerate() {
        let error = harness
            .test_workload(&sibling("sibling", last))
            .unwrap_err();
        assert_eq!(error, first);
        assert_eq!(harness.sharing().steps.ops_applied, 2, "nothing ran again");
        assert_eq!(harness.sharing().steps.ops_resumed, 2 * (index as u64 + 1));
    }
    // A workload that leaves the failed prefix runs again.
    let leaves = TxnWorkload {
        name: "leaves".into(),
        index: 0,
        txns: vec![delete.clone(), delete.clone()],
    };
    assert!(harness.test_workload(&leaves).is_ok());
}
