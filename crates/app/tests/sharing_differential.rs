//! Differential tests of prefix sharing in the application harness.
//!
//! The claim under test: an [`AppHarness`] that resumes every workload from
//! a fork of the deepest matching frame of its trunk, and answers a crash
//! state a sibling already recovered from the run, returns **the same
//! outcome** — names, crash points, consequences, expected and actual text
//! — as one that mounts, runs every transaction and recovers every crash
//! state for that workload alone, and therefore **byte-identical bug
//! groups** — whatever the trunk held before. One long-lived harness per
//! (host file system, engine, policy) is driven over the workloads in
//! three orders:
//!
//! * **generator order**, where almost every workload resumes deep;
//! * **reversed**, where each workload shares a prefix with its
//!   *successor* in enumeration order, so frames and held recoveries kept
//!   for one path are constantly the wrong ones and must be recognised as
//!   stale;
//! * a **seeded shuffle**, which mixes workload lengths and jumps between
//!   unrelated prefixes.
//!
//! Under `AllTriaged` the harness answers crash states from content-digest
//! witnesses instead of the trunk, across workloads that share no prefix;
//! the same claim holds for it, with and without an audit budget.
//!
//! The reference is a new harness for every workload — an empty trunk and
//! witness map — under `LastOnly` for `LastOnly` and under `All` for `All`
//! and both `AllTriaged` rows, which must cover and report exactly what
//! `All` does. (Tier-1 runs this suite in a debug build, where the harness
//! additionally asserts every outcome against a run through an empty trunk
//! and witness map; the explicit comparisons below keep the claim pinned in
//! release builds and for the group tables.) A debug build takes a slice of
//! [`TxnBounds::smoke`]; the whole space and the benchmark's
//! three-transaction space are `#[ignore]`d for `cargo test --release -p
//! b3-app --test sharing_differential -- --ignored` (CI runs it).

use b3_app::{AppHarness, EngineProfile, TxnBounds, TxnOpKind, TxnWorkload, TxnWorkloadGenerator};
use b3_crashmonkey::{BugReport, CrashMonkeyConfig, CrashPointPolicy, Sharing, WorkloadOutcome};
use b3_harness::{FsKind, GroupTable};
use b3_vfs::codec::Encoder;
use b3_vfs::{KernelEra, MutantSet};

fn engines() -> [EngineProfile; 2] {
    let all_bugs = EngineProfile {
        commit_without_data_fsync: true,
        torn_commit: true,
        double_replay: true,
    };
    [EngineProfile::none(), all_bugs]
}

/// Fisher–Yates with a fixed-seed xorshift: the same permutation every run.
fn shuffled(mut workloads: Vec<TxnWorkload>) -> Vec<TxnWorkload> {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in (1..workloads.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        workloads.swap(i, (state % (i as u64 + 1)) as usize);
    }
    workloads
}

fn orders(generated: &[TxnWorkload]) -> Vec<(&'static str, Vec<TxnWorkload>)> {
    let mut reversed = generated.to_vec();
    reversed.reverse();
    vec![
        ("generator order", generated.to_vec()),
        ("reversed", reversed),
        ("shuffled", shuffled(generated.to_vec())),
    ]
}

fn config(crash_points: CrashPointPolicy) -> CrashMonkeyConfig {
    CrashMonkeyConfig {
        crash_points,
        ..CrashMonkeyConfig::small()
    }
}

/// What a differential compares of one workload's outcome.
type Compared = (String, String, String, u32, Vec<BugReport>);

/// What a pass compared: each outcome by workload name, and the encoded
/// group table of all of them.
fn compared(outcomes: impl Iterator<Item = WorkloadOutcome>) -> (Vec<Compared>, Vec<u8>) {
    let mut table = GroupTable::new();
    let mut compared = Vec::new();
    for outcome in outcomes {
        assert!(outcome.triage_divergences.is_empty() && outcome.skipped.is_none());
        compared.push((
            outcome.workload_name,
            outcome.skeleton,
            outcome.fs_name,
            outcome.checkpoints_tested + outcome.checkpoints_reused,
            outcome.bugs.clone(),
        ));
        for bug in outcome.bugs {
            table.observe(bug);
        }
    }
    compared.sort_by(|a, b| a.0.cmp(&b.0));
    let mut enc = Encoder::new();
    table.encode(&mut enc);
    (compared, enc.finish())
}

/// The differential proper, over `generated` (in generator order) on one
/// host under every engine × policy.
fn check_outcomes_equal_from_scratch(host: FsKind, generated: &[TxnWorkload]) {
    let spec = host.spec(KernelEra::Patched);
    for engine in engines() {
        // `AllTriaged` must equal `All` from scratch: same crash states
        // covered, same reports.
        for (reference, policies) in [
            (
                CrashPointPolicy::LastOnly,
                &[CrashPointPolicy::LastOnly][..],
            ),
            (
                CrashPointPolicy::All,
                &[
                    CrashPointPolicy::All,
                    CrashPointPolicy::AllTriaged { audit: 0 },
                    CrashPointPolicy::AllTriaged { audit: 2 },
                ],
            ),
        ] {
            // A new harness for every workload: an empty trunk and witness
            // map.
            let fresh = |policy| AppHarness::new(spec.as_ref(), config(policy), engine);
            let (expected, expected_table) = compared(generated.iter().map(|workload| {
                let outcome = fresh(reference).test_workload(workload).unwrap();
                assert_eq!(outcome.checkpoints_reused, 0);
                outcome
            }));
            // A fixed engine on a patched host is clean; the differential
            // must also compare actual bugs.
            let reported = expected.iter().any(|outcome| !outcome.4.is_empty());
            assert_eq!(
                reported,
                engine != EngineProfile::none(),
                "{host:?}, {reference:?}"
            );

            for &policy in policies {
                let what = format!("{host:?}, {}, {policy:?}", engine.describe());
                for (order, workloads) in orders(generated) {
                    let harness = fresh(policy);
                    let outcomes = workloads.iter().map(|w| harness.test_workload(w).unwrap());
                    let (outcomes, table) = compared(outcomes);
                    assert!(outcomes == expected, "{what}, {order}: outcomes diverged");
                    assert!(table == expected_table, "{what}, {order}: groups diverged");
                    let sharing = harness.sharing();
                    assert_eq!(sharing.steps.mounts, 1, "{what}, {order}");
                    assert!(sharing.steps.ops_resumed > 0, "{what}, {order}");
                    // `AllTriaged` answers from witnesses, never from the
                    // trunk.
                    let inherits = policy.triage_audit().is_none();
                    assert_eq!(sharing.states_inherited > 0, inherits, "{what}, {order}");
                }
            }
        }
    }
}

/// Every single-transaction workload of the smoke space, and the
/// two-transaction workloads under twelve of its 84 first transactions:
/// four from the start, the middle and the end of the block, so committed
/// and aborted, one- and two-operation first transactions are all in.
fn smoke_slice() -> Vec<TxnWorkload> {
    let bounds = TxnBounds::smoke();
    let block = |first_txn: u64| {
        let start = 84 + first_txn * 84;
        TxnWorkloadGenerator::with_range(bounds.clone(), start, start + 4 * 84)
    };
    let slice: Vec<TxnWorkload> = TxnWorkloadGenerator::with_range(bounds.clone(), 0, 84)
        .chain(block(0))
        .chain(block(40))
        .chain(block(80))
        .collect();
    assert_eq!(slice.len(), 84 + 12 * 84);
    slice
}

// One test per host, so a debug run spreads over the cores.
#[test]
fn shared_outcomes_equal_from_scratch_outcomes_in_any_order_on_cowfs() {
    check_outcomes_equal_from_scratch(FsKind::Cow, &smoke_slice());
}

#[test]
fn shared_outcomes_equal_from_scratch_outcomes_in_any_order_on_flashfs() {
    check_outcomes_equal_from_scratch(FsKind::Flash, &smoke_slice());
}

#[test]
fn shared_outcomes_equal_from_scratch_outcomes_in_any_order_on_journalfs() {
    check_outcomes_equal_from_scratch(FsKind::Journal, &smoke_slice());
}

#[test]
#[ignore = "the whole smoke space: minutes in a debug build, seconds in release"]
fn shared_outcomes_equal_from_scratch_outcomes_on_the_whole_smoke_space() {
    let generated: Vec<TxnWorkload> = TxnWorkloadGenerator::new(TxnBounds::smoke()).collect();
    for host in [FsKind::Cow, FsKind::Flash, FsKind::Journal] {
        check_outcomes_equal_from_scratch(host, &generated);
    }
}

/// One pass in generator order under `All` with every engine bug on, and
/// what the harness counted.
fn generator_order_sharing(bounds: TxnBounds) -> (u64, Sharing) {
    let spec = FsKind::Cow.spec(KernelEra::Patched);
    let harness = AppHarness::new(spec.as_ref(), config(CrashPointPolicy::All), engines()[1]);
    let mut tested = 0;
    for workload in TxnWorkloadGenerator::new(bounds) {
        harness.test_workload(&workload).unwrap();
        tested += 1;
    }
    (tested, harness.sharing())
}

fn assert_most_is_shared(sharing: &Sharing) {
    assert!(
        sharing.steps.resumed_share() >= 0.6,
        "prefix sharing resumed only {:.0} % of the transactions: {sharing:?}",
        sharing.steps.resumed_share() * 100.0
    );
    let states = sharing.states_tested + sharing.states_inherited;
    assert!(
        sharing.states_inherited as f64 >= 0.6 * states as f64,
        "only {} of {states} crash states were answered from the trunk: {sharing:?}",
        sharing.states_inherited
    );
}

/// Generator order is what the sweeps run, and what the speed-up rests on:
/// if a change to the transaction odometer stops adjacent workloads from
/// sharing their prefix, this fails before a benchmark does. A workload of
/// `n` transactions runs at least its last, so the share that can be
/// resumed tops out near `1 - 1/n`: the bound is asserted on
/// three-transaction spaces (the smoke space, at two, cannot pass 50 %).
#[test]
fn a_three_transaction_space_in_generator_order_shares_most_of_its_work() {
    let bounds = TxnBounds {
        name_prefix: "app-share".into(),
        max_txns: 3,
        max_ops_per_txn: 1,
        keys: 2,
        ops: vec![TxnOpKind::Put, TxnOpKind::Append, TxnOpKind::Delete],
        allow_abort: true,
    };
    let (tested, sharing) = generator_order_sharing(bounds);
    assert_eq!(tested, 12 + 144 + 1728);
    assert_most_is_shared(&sharing);
}

/// The `app_walkv` benchmark space, uncut: the counts behind the claimed
/// gain (docs/APP.md, "Prefix sharing").
#[test]
#[ignore = "65 640 workloads: release builds only"]
fn the_benchmark_space_shares_what_the_docs_say() {
    let bounds = TxnBounds {
        name_prefix: "app-bench".into(),
        max_txns: 3,
        max_ops_per_txn: 2,
        keys: 2,
        ops: vec![TxnOpKind::Put, TxnOpKind::Append],
        allow_abort: true,
    };
    let (tested, sharing) = generator_order_sharing(bounds);
    assert_eq!(tested, 65_640);
    assert_most_is_shared(&sharing);
    let txns = sharing.steps;
    assert_eq!((txns.ops_applied, txns.ops_resumed), (67_360, 127_880));
    assert_eq!(
        (sharing.states_tested, sharing.states_inherited),
        (60_624, 115_092)
    );
}
