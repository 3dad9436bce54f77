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
//! * **Seeded-bug liveness** (deterministic, not random): each seeded bug
//!   flag fires on at least one crash state of the bounded tiny space, and
//!   the first violating (workload, crash point) pair is the same on every
//!   run — the deterministic exemplar the corpus pins.

use proptest::prelude::*;

use b3_app::generator::{Txn, TxnOp, TxnWorkload};
use b3_app::oracle::CrashPointMeta;
use b3_app::{AppHarness, EngineProfile, TxnBounds, TxnOracle, TxnWorkloadGenerator};
use b3_crashmonkey::{Consequence, CrashMonkeyConfig};
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
            let verdict = oracle.classify(&meta, &state, &state);
            prop_assert!(
                verdict.is_clean(),
                "legal prefix state S_{j} flagged: {:?}",
                verdict.violations
            );
            if j < oracle.num_committed() {
                // Crashing *inside* commit j+1 may land before or after it.
                let in_flight = CrashPointMeta {
                    checkpoint: 0,
                    committed_before: j as u32,
                    in_flight: Some(0),
                };
                let next = oracle.committed_state(j + 1).clone();
                prop_assert!(oracle.classify(&in_flight, &state, &state).is_clean());
                prop_assert!(oracle.classify(&in_flight, &next, &next).is_clean());
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
        let verdict = oracle.classify(&meta, &recovered, &reopened);
        prop_assert!(verdict.violations.iter().any(
            |v| v.consequence == Consequence::TxnReplayNotIdempotent
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
        let verdict = oracle.classify(&meta, &garbled, &garbled);
        prop_assert!(!verdict.is_clean(), "garbled state accepted");
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
