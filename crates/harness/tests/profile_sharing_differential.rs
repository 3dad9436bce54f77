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
//! (This suite runs in a debug build, where the harness additionally
//! asserts every single prefix-shared profile against a from-scratch one;
//! the explicit comparisons below keep the claim pinned in release builds
//! and for the group tables.)

use std::rc::Rc;

use b3_ace::{Bounds, WorkloadGenerator};
use b3_crashmonkey::profiler::formatted_base_image;
use b3_crashmonkey::{CrashMonkey, CrashMonkeyConfig, CrashPointPolicy, Profiler};
use b3_harness::{FsKind, GroupTable};
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
            let sharing = monkey.profile_sharing();
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
    let sharing = monkey.profile_sharing();
    assert!(profiled > 100, "shard too small to judge: {profiled}");
    assert!(
        sharing.resumed_share() >= 0.6,
        "prefix sharing resumed only {:.0} % of {} ops: {sharing:?}",
        sharing.resumed_share() * 100.0,
        sharing.ops_applied + sharing.ops_resumed
    );
}
