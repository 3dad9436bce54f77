//! Differential tests of prefix-sharing profiling.
//!
//! The claim under test: a [`CrashMonkey`] that resumes every workload from
//! a fork of the deepest matching frame of its trunk returns **the same
//! profile** (`IoLog` records with their sequence numbers and checkpoint
//! ids, every `CheckpointInfo`, the execution error) as profiling that
//! workload from scratch, and therefore **byte-identical bug groups** —
//! whatever the trunk held before. One long-lived harness per file system
//! is driven over the full seq-1 space and a seq-2 slice in three orders:
//!
//! * **generator order**, where almost every workload resumes deep;
//! * **reversed**, where each workload shares a prefix with its
//!   *successor* in enumeration order, so frames kept for one path are
//!   constantly the wrong ones and must be recognised as stale;
//! * a **seeded shuffle**, which jumps across shard boundaries and mixes
//!   sequence lengths, so frames and failed runs carry over between
//!   unrelated workloads.
//!
//! Under `CrashPointPolicy::All` the harness also inherits, along the
//! resumed prefix, the verdict a sibling workload left at a checkpoint. The
//! same three orders pin **equal reports and equal coverage per workload**
//! against a fresh harness per workload on every file system and era, and an
//! `#[ignore]`d release run pins the benchmark's seq-2 space on buggy CowFs,
//! where the inherited verdicts include thousands of failing ones.
//!
//! (This suite runs in a debug build, where the harness additionally
//! asserts every single prefix-shared profile against a from-scratch one
//! and re-tests every crash state it answered from the trunk; the explicit
//! comparisons below keep the claims pinned in release builds and for the
//! group tables.)

use std::rc::Rc;

use b3_ace::{Bounds, WorkloadGenerator};
use b3_crashmonkey::profiler::formatted_base_image;
use b3_crashmonkey::{CrashMonkey, CrashMonkeyConfig, CrashPointPolicy, Profiler};
use b3_harness::{FsKind, GroupTable, RunConfig, Sweep};
use b3_vfs::codec::Encoder;
use b3_vfs::workload::{FileSet, Op, Workload};
use b3_vfs::KernelEra;

/// Four workloads whose second core op cannot execute on any file system,
/// sharing everything up to and including it.
fn failing_siblings() -> Vec<Workload> {
    let lasts = [
        Op::Sync,
        Op::Fsync { path: "foo".into() },
        Op::Creat { path: "bar".into() },
        Op::Unlink { path: "foo".into() },
    ];
    lasts
        .into_iter()
        .enumerate()
        .map(|(index, last)| {
            Workload::with_setup(
                format!("failing-{index}"),
                vec![Op::Creat { path: "foo".into() }],
                vec![
                    Op::Fsync { path: "foo".into() },
                    Op::Rename {
                        from: "missing".into(),
                        to: "elsewhere".into(),
                    },
                    last,
                ],
            )
        })
        .collect()
}

/// Full seq-1 over the paper's 14 operations, one sixty-fourth of the seq-2
/// space (both over the minimal file set), and the failing siblings.
fn workloads() -> Vec<Workload> {
    let seq1 = Bounds {
        files: FileSet::minimal(),
        ..Bounds::paper_seq1()
    };
    let seq2 = Bounds {
        files: FileSet::minimal(),
        ..Bounds::paper_seq2()
    };
    let slice = seq2.shard(3, 64);
    WorkloadGenerator::new(seq1)
        .chain(WorkloadGenerator::for_shard(seq2, &slice))
        .chain(failing_siblings())
        .collect()
}

/// Fisher–Yates with a fixed-seed xorshift: the same permutation every run.
fn shuffled(mut workloads: Vec<Workload>) -> Vec<Workload> {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in (1..workloads.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        workloads.swap(i, (state % (i as u64 + 1)) as usize);
    }
    workloads
}

fn orders() -> Vec<(&'static str, Vec<Workload>)> {
    let generated = workloads();
    let mut reversed = generated.clone();
    reversed.reverse();
    vec![
        ("generator order", generated.clone()),
        ("reversed", reversed),
        ("shuffled", shuffled(generated)),
    ]
}

fn config(crash_points: CrashPointPolicy) -> CrashMonkeyConfig {
    CrashMonkeyConfig {
        crash_points,
        ..CrashMonkeyConfig::small()
    }
}

#[test]
fn shared_profiles_equal_from_scratch_profiles_in_any_order() {
    for kind in FsKind::ALL {
        let spec = kind.spec(KernelEra::V4_16);
        let config = config(CrashPointPolicy::All);
        let base = formatted_base_image(spec.as_ref(), &config).unwrap();
        let scratch = Profiler::new(spec.as_ref(), &config);
        let mut failed = 0;
        for (order, workloads) in orders() {
            let monkey = CrashMonkey::with_config(spec.as_ref(), config);
            for workload in &workloads {
                let shared = monkey.profile_only(workload).unwrap();
                let reference = scratch.profile_on(base.clone(), workload).unwrap();
                assert!(
                    shared == reference,
                    "{kind:?}, {order}: profile of {} diverged\n\
                     shared: {shared:?}\nscratch: {reference:?}",
                    workload.name
                );
                failed += usize::from(shared.exec_error.is_some());
            }
            let sharing = monkey.sharing().steps;
            assert_eq!(sharing.mounts, 1, "{kind:?}, {order}");
            assert!(sharing.ops_resumed > 0, "{kind:?}, {order}: nothing shared");
        }
        assert!(failed >= 12, "{kind:?}: every failing sibling must fail");
    }
}

/// The group table of one pass over `workloads`, each tested through the
/// harness `monkey_for` hands out for it.
fn group_table<'a>(
    workloads: &[Workload],
    mut monkey_for: impl FnMut() -> Rc<CrashMonkey<'a>>,
) -> GroupTable {
    let mut table = GroupTable::new();
    for workload in workloads {
        let outcome = monkey_for().test_workload(workload).unwrap();
        assert!(
            outcome.triage_divergences.is_empty(),
            "{}: {:?}",
            workload.name,
            outcome.triage_divergences
        );
        for bug in outcome.bugs {
            table.observe(bug);
        }
    }
    table
}

fn encoded(table: &GroupTable) -> Vec<u8> {
    let mut enc = Encoder::new();
    table.encode(&mut enc);
    enc.finish()
}

#[test]
fn group_tables_are_byte_identical_in_any_order_under_every_policy() {
    let mut bugs_somewhere = false;
    for kind in FsKind::ALL {
        let spec = kind.spec(KernelEra::V4_16);
        for policy in [
            CrashPointPolicy::LastOnly,
            CrashPointPolicy::All,
            CrashPointPolicy::AllTriaged { audit: 1 },
        ] {
            let fresh = || Rc::new(CrashMonkey::with_config(spec.as_ref(), config(policy)));
            // The reference shares nothing: a fresh harness per workload.
            let reference = group_table(&workloads(), fresh);
            bugs_somewhere |= !reference.is_empty();

            for (order, workloads) in orders() {
                let long_lived = fresh();
                assert!(
                    encoded(&group_table(&workloads, || long_lived.clone())) == encoded(&reference),
                    "{kind:?}, {policy:?}, {order}: group table diverged"
                );
            }
        }
    }
    assert!(bugs_somewhere, "the differential must compare actual bugs");
}

/// Generator order is what the sweeps run, and what the speed-up rests on:
/// if a change to the odometer (or to phase 4's setup ops) stops adjacent
/// workloads from sharing their prefix, this fails before a benchmark does.
#[test]
fn a_seq2_shard_in_generator_order_resumes_most_of_its_ops() {
    let bounds = Bounds {
        files: FileSet::minimal(),
        ..Bounds::paper_seq2()
    };
    let spec = FsKind::Cow.spec(KernelEra::V4_16);
    let monkey = CrashMonkey::with_config(spec.as_ref(), config(CrashPointPolicy::LastOnly));
    let shard = bounds.shard(3, 64);
    let mut profiled = 0u64;
    for workload in WorkloadGenerator::for_shard(bounds, &shard) {
        monkey.profile_only(&workload).unwrap();
        profiled += 1;
    }
    let sharing = monkey.sharing().steps;
    assert!(profiled > 100, "shard too small to judge: {profiled}");
    assert!(
        sharing.resumed_share() >= 0.6,
        "prefix sharing resumed only {:.0} % of {} ops: {sharing:?}",
        sharing.resumed_share() * 100.0,
        sharing.ops_applied + sharing.ops_resumed
    );
}

/// What a sibling left at a checkpoint answers for the next workload under
/// `All`: per workload the same reports and the same crash states covered
/// as a harness that has seen nothing — in any order, buggy eras (whose
/// inherited verdicts fail) included.
#[test]
fn inherited_verdicts_equal_fresh_ones_in_any_order_on_every_era() {
    let config = config(CrashPointPolicy::All);
    let generated = workloads();
    for kind in FsKind::ALL {
        for era in [KernelEra::V3_13, KernelEra::V4_16, KernelEra::Patched] {
            let spec = kind.spec(era);
            let mut table = GroupTable::new();
            let reference: std::collections::HashMap<&str, _> = generated
                .iter()
                .map(|workload| {
                    let outcome = CrashMonkey::with_config(spec.as_ref(), config)
                        .test_workload(workload)
                        .unwrap();
                    assert_eq!(outcome.checkpoints_reused, 0);
                    for bug in &outcome.bugs {
                        table.observe(bug.clone());
                    }
                    (workload.name.as_str(), outcome)
                })
                .collect();

            for (order, workloads) in orders() {
                let monkey = CrashMonkey::with_config(spec.as_ref(), config);
                let mut shared = GroupTable::new();
                for workload in &workloads {
                    let outcome = monkey.test_workload(workload).unwrap();
                    let fresh = &reference[workload.name.as_str()];
                    let context = format!("{kind:?}@{era:?}, {order}, {}", workload.name);
                    assert_eq!(outcome.bugs, fresh.bugs, "{context}");
                    assert_eq!(outcome.skipped, fresh.skipped, "{context}");
                    assert_eq!(
                        outcome.checkpoints_tested + outcome.checkpoints_reused,
                        fresh.checkpoints_tested,
                        "{context}"
                    );
                    for bug in outcome.bugs {
                        shared.observe(bug);
                    }
                }
                assert!(
                    encoded(&shared) == encoded(&table),
                    "{kind:?}@{era:?}, {order}: group table diverged"
                );
                let sharing = monkey.sharing();
                assert!(
                    sharing.states_inherited > 0,
                    "{kind:?}@{era:?}, {order}: nothing inherited: {sharing:?}"
                );
            }
        }
    }
}

/// The benchmark's seq-2 space (`b3-bench`'s `seq2_cow_triaged` /
/// `seq2_journal_all` bounds and shard count) on buggy CowFs: `All`, which
/// inherits verdicts along the trunk, against `AllTriaged`, which never
/// consults them. The pinned `seq2_journal_all` run cannot catch a wrongly
/// inherited *failing* verdict — every verdict there passes — and the debug
/// re-test does not run in release; here about 43 000 of 138 000 crash states
/// are answered from the trunk, some 2 700 of the 14 388 reports with them.
/// Run with
/// `cargo test --release -p b3-harness --test profile_sharing_differential -- --ignored`.
#[test]
#[ignore = "the benchmark's seq-2 space, twice; run explicitly in release builds"]
fn bench_seq2_all_and_triaged_sweeps_group_identically_on_buggy_cowfs() {
    let bounds = Bounds {
        files: FileSet::new(
            vec!["A".into(), "B".into()],
            vec!["foo".into(), "A/foo".into(), "B/foo".into()],
        ),
        ..Bounds::paper_seq2()
    };
    let spec = FsKind::Cow.spec(KernelEra::V4_16);
    let grouped = |crash_points| {
        let sweep = Sweep::new(
            spec.as_ref(),
            RunConfig {
                threads: 2,
                crashmonkey: CrashMonkeyConfig {
                    crash_points,
                    ..CrashMonkeyConfig::default()
                },
                ..RunConfig::default()
            },
        )
        .shards(64);
        let mut checkpoint = sweep.empty_checkpoint(&bounds);
        let summary = sweep.run_resumable(&bounds, &mut checkpoint);
        assert!(checkpoint.is_complete());
        (summary, checkpoint.grouped().clone())
    };
    let (all, all_groups) = grouped(CrashPointPolicy::All);
    let (triaged, triaged_groups) = grouped(CrashPointPolicy::AllTriaged { audit: 0 });
    assert_eq!((all.tested, all.skipped), (72_017, 13_597));
    assert_eq!(all_groups.total_reports(), 14_388);
    assert_eq!(all_groups.len(), 63);
    assert_eq!((all.tested, all.skipped), (triaged.tested, triaged.skipped));
    assert!(
        encoded(&all_groups) == encoded(&triaged_groups),
        "`All` and `AllTriaged` grouped the seq-2 space differently"
    );
}
