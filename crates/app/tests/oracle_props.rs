//! Property-based tests of the transaction oracle and the seeded engine
//! bugs.
//!
//! * **Soundness** (no false positives): on a patched host file system,
//!   the *fixed* engine produces zero oracle violations for arbitrary
//!   transaction histories, across every crash state the block-layer
//!   pipeline enumerates.
//! * **Pure oracle laws**: every committed-prefix state is legal; a
//!   divergent second recovery is always a replay-idempotence violation; a
//!   recovered state outside the allowed set is never clean.
//! * **Judging without text**: for any crash point and any recovery, the
//!   consequences the harness finds without rendering are those of the
//!   bug report it renders (same primary, same set).
//! * **Seeded-bug liveness** (deterministic, not random): each seeded bug
//!   flag fires on at least one crash state of the bounded tiny space, and
//!   the first violating (workload, crash point) pair is the same on every
//!   run — the deterministic exemplar the corpus pins.

use proptest::prelude::*;

use b3_app::generator::{Txn, TxnOp, TxnWorkload};
use b3_app::harness::CrashPoint;
use b3_app::oracle::{apply_txn, CrashPointMeta, KvState};
use b3_app::{AppHarness, EngineProfile, Recovery, TxnBounds, TxnOracle, TxnWorkloadGenerator};
use b3_crashmonkey::{Consequence, CrashMonkeyConfig, Target, WorkloadOutcome};
use b3_fs_cow::CowFsSpec;
use b3_vfs::{KernelEra, MutantSet};

fn op_strategy() -> impl Strategy<Value = TxnOp> {
    use b3_app::TxnOpKind;
    (
        prop::sample::select(vec![TxnOpKind::Put, TxnOpKind::Append, TxnOpKind::Delete]),
        0u32..3,
    )
        .prop_map(|(kind, key)| TxnOp { kind, key })
}

fn txn_strategy() -> impl Strategy<Value = Txn> {
    (prop::collection::vec(op_strategy(), 1..4), any::<bool>())
        .prop_map(|(ops, commit)| Txn { ops, commit })
}

fn workload_strategy() -> impl Strategy<Value = TxnWorkload> {
    prop::collection::vec(txn_strategy(), 1..4).prop_map(|txns| TxnWorkload {
        name: "prop".into(),
        index: 0,
        txns,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fixed engine is violation-free on arbitrary transaction
    /// histories, at every crash state.
    #[test]
    fn fixed_engine_has_no_false_positives(workload in workload_strategy()) {
        let spec = CowFsSpec::new(KernelEra::Patched);
        let harness = AppHarness::new(
            &spec,
            CrashMonkeyConfig::exhaustive_crash_points(),
            EngineProfile::none(),
        );
        let outcome = harness
            .test_workload(&workload)
            .map_err(|e| TestCaseError::fail(format!("harness error: {e}")))?;
        prop_assert!(
            outcome.bugs.is_empty(),
            "false positive on the fixed engine: {:?}\nworkload: {}",
            outcome.bugs,
            workload.skeleton_string()
        );
    }

    /// Every committed-prefix state is a legal recovery target, and the
    /// in-flight successor state is legal at an in-flight crash point.
    #[test]
    fn every_committed_prefix_state_is_legal(workload in workload_strategy()) {
        let oracle = TxnOracle::new(&workload);
        for j in 0..=oracle.num_committed() {
            let state = oracle.committed_state(j).clone();
            let meta = CrashPointMeta {
                checkpoint: 0,
                committed_before: j as u32,
                in_flight: None,
            };
            let violations = oracle.classify(&meta, &state, &state);
            prop_assert!(
                violations.is_empty(),
                "legal prefix state S_{j} flagged: {:?}",
                violations
            );
            if j < oracle.num_committed() {
                // Crashing *inside* commit j+1 may land before or after it.
                let in_flight = CrashPointMeta {
                    checkpoint: 0,
                    committed_before: j as u32,
                    in_flight: Some(0),
                };
                let next = oracle.committed_state(j + 1).clone();
                prop_assert!(oracle.classify(&in_flight, &state, &state).is_empty());
                prop_assert!(oracle.classify(&in_flight, &next, &next).is_empty());
            }
        }
    }

    /// A second recovery that diverges from the first is always a
    /// replay-idempotence violation, whatever else is wrong.
    #[test]
    fn divergent_reopen_is_always_flagged(workload in workload_strategy()) {
        let oracle = TxnOracle::new(&workload);
        let meta = CrashPointMeta {
            checkpoint: 0,
            committed_before: oracle.num_committed() as u32,
            in_flight: None,
        };
        let recovered = oracle.final_state().clone();
        let mut reopened = recovered.clone();
        reopened.insert("phantom".into(), b"replayed-twice".to_vec());
        let violations = oracle.classify(&meta, &recovered, &reopened);
        prop_assert!(violations.iter().any(
            |v| v.consequence() == Consequence::TxnReplayNotIdempotent
        ));
    }

    /// A recovered state equal to no legal state is never clean: the
    /// oracle reports durability loss, resurrection, or broken atomicity.
    #[test]
    fn states_outside_the_allowed_set_are_never_clean(workload in workload_strategy()) {
        let oracle = TxnOracle::new(&workload);
        let meta = CrashPointMeta {
            checkpoint: 0,
            committed_before: oracle.num_committed() as u32,
            in_flight: None,
        };
        let mut garbled = oracle.final_state().clone();
        garbled.insert("k0".into(), b"torn-garbage".to_vec());
        if &garbled == oracle.final_state() {
            return Ok(());
        }
        let violations = oracle.classify(&meta, &garbled, &garbled);
        prop_assert!(!violations.is_empty(), "garbled state accepted");
    }

    /// The consequences found without text equal the rendered report's, on
    /// random crash points and on recoveries drawn from every class the
    /// oracle tells apart: committed prefixes, leaked aborted transactions,
    /// garbage, divergent reopens and unmountable states.
    #[test]
    fn text_free_consequences_are_the_rendered_reports(
        workload in workload_strategy(),
        committed_before in 0usize..8,
        in_flight in any::<bool>(),
        picks in (0usize..64, 0usize..64),
        unmountable in 0u32..10,
    ) {
        let oracle = TxnOracle::new(&workload);
        let meta = CrashPointMeta {
            checkpoint: 3,
            committed_before: (committed_before % (oracle.num_committed() + 1)) as u32,
            in_flight: in_flight.then_some(0),
        };
        let mut candidates: Vec<KvState> = (0..=oracle.num_committed())
            .map(|j| oracle.committed_state(j).clone())
            .collect();
        for position in 0..workload.txns.len() {
            let mut leaked = oracle.final_state().clone();
            apply_txn(&mut leaked, &workload, position);
            candidates.push(leaked);
        }
        let mut garbled = oracle.final_state().clone();
        garbled.insert("k0".into(), vec![0; 4]);
        candidates.push(garbled);
        let recovery = if unmountable == 0 {
            Recovery::Unmountable("bad superblock".into())
        } else {
            Recovery::Recovered {
                recovered: candidates[picks.0 % candidates.len()].clone(),
                reopened: candidates[picks.1 % candidates.len()].clone(),
            }
        };

        let spec = CowFsSpec::new(KernelEra::Patched);
        let config = CrashMonkeyConfig::exhaustive_crash_points();
        let harness = AppHarness::new(&spec, config, EngineProfile::none());
        let point = CrashPoint::new(meta);
        let text_free = harness
            .consequences(&oracle, &point, &recovery)
            .map(|(primary, all)| (primary, all.iter().collect::<Vec<_>>()));
        let outcome = WorkloadOutcome::from_parts(workload.name.clone(), workload.skeleton_string(), "cowfs");
        let rendered = harness
            .verdict(&oracle, &point, &recovery)
            .into_report(&outcome, meta.checkpoint)
            .map(|report| (report.consequence, report.all_consequences));
        prop_assert_eq!(text_free, rendered);
    }
}

/// Scans the tiny space with the given engine and returns the first
/// violating (workload name, crash point, consequence) triple.
fn first_violation(engine: EngineProfile) -> Option<(String, u32, Consequence)> {
    let spec = CowFsSpec::new(KernelEra::Patched);
    let harness = AppHarness::new(&spec, CrashMonkeyConfig::exhaustive_crash_points(), engine);
    for workload in TxnWorkloadGenerator::new(TxnBounds::tiny()) {
        let outcome = harness.test_workload(&workload).expect("harness runs");
        if let Some(bug) = outcome.bugs.first() {
            return Some((bug.workload_name.clone(), bug.crash_point, bug.consequence));
        }
    }
    None
}

/// Each seeded bug flag fires somewhere in the tiny space, with the
/// expected consequence — and the first violation is deterministic: the
/// same workload and crash point on every run.
#[test]
fn every_seeded_bug_flag_fires_deterministically() {
    let flags = [
        (
            EngineProfile {
                commit_without_data_fsync: true,
                ..EngineProfile::none()
            },
            Consequence::TxnAtomicityBroken,
        ),
        (
            EngineProfile {
                torn_commit: true,
                ..EngineProfile::none()
            },
            Consequence::TxnAtomicityBroken,
        ),
        (
            EngineProfile {
                double_replay: true,
                ..EngineProfile::none()
            },
            Consequence::TxnReplayNotIdempotent,
        ),
    ];
    for (engine, expected) in flags {
        let first = first_violation(engine)
            .unwrap_or_else(|| panic!("{} must fire in the tiny space", engine.describe()));
        assert_eq!(
            first.2,
            expected,
            "{}: wrong consequence ({first:?})",
            engine.describe()
        );
        let again = first_violation(engine).expect("second scan fires too");
        assert_eq!(
            first,
            again,
            "{}: first violation must be deterministic",
            engine.describe()
        );
    }
}
