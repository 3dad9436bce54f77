//! Differential tests of block enumeration against the eager four-phase
//! pipeline.
//!
//! The generator simulates phase 4 incrementally along its odometer,
//! discards rejected prefixes a subtree at a time, and — with a classifier
//! installed — lets a caller count a non-representative core block instead
//! of building it. None of that may be observable: against
//! `phase1_skeletons` → `phase2_parameters` → `phase3_persistence` →
//! `phase4_dependencies` → `classify` per candidate, the workload stream,
//! the generation counters, the representative set and the pruned count must
//! be identical, wherever shard boundaries and `skip_to` land.
//!
//! Phase 4 itself is checked against the string-keyed simulator it
//! replaced (`reference_sim`): every candidate of a space gets the same
//! setup ops, or the same rejection text, from both.
//!
//! The paper-sized spaces are `#[ignore]`d for release-mode CI:
//! `cargo test --release -p b3-ace --test block_enumeration -- --ignored`.

mod reference_sim;

use std::sync::Arc;

use proptest::prelude::*;

use b3_ace::phases::phase2_candidates;
use b3_ace::sim::{SimOutcome, SimState};
use b3_ace::{
    phase1_skeletons, phase2_parameters, phase3_persistence, phase4_dependencies, Bounds,
    Classifier, GenerationStats, SpaceTable, WorkloadGenerator,
};
use b3_vfs::workload::{FileSet, Op, OpKind, Workload};

/// What the eager pipeline says about a space, candidate by candidate.
struct Eager {
    /// Every valid workload with its 0-based candidate index and whether
    /// the per-candidate classifier calls it a representative.
    valid: Vec<(u64, Workload, bool)>,
    candidates: u64,
}

fn eager(bounds: &Bounds, classifier: &Classifier) -> Eager {
    let mut valid = Vec::new();
    let mut candidates = 0u64;
    for skeleton in phase1_skeletons(bounds) {
        for core in phase2_parameters(&skeleton, bounds) {
            for ops in phase3_persistence(&core, bounds) {
                let name = format!("{}-{:07}", bounds.name_prefix, candidates + 1);
                if let Some(workload) = phase4_dependencies(&name, ops, bounds) {
                    let class = classifier.classify(&workload.ops).expect("decomposes");
                    valid.push((candidates, workload, class.is_representative()));
                }
                candidates += 1;
            }
        }
    }
    Eager { valid, candidates }
}

fn add(total: &mut GenerationStats, part: GenerationStats) {
    total.candidates += part.candidates;
    total.discarded += part.discarded;
    total.emitted += part.emitted;
}

/// Checks one space at one shard count, both ways the machine is driven:
/// the plain iterator, and a representative sweep's block loop.
fn check_sharded(table: &Arc<SpaceTable>, classifier: &Arc<Classifier>, eager: &Eager, of: usize) {
    let mut streamed = Vec::new();
    let mut representatives = Vec::new();
    let mut pruned = 0u64;
    let (mut plain_stats, mut block_stats) = Default::default();
    for index in 0..of {
        let shard = table.shard(index, of);
        let mut plain = WorkloadGenerator::on_table(table.clone(), shard.start, shard.end);
        streamed.extend(plain.by_ref());
        add(&mut plain_stats, plain.stats());

        let mut blocks = WorkloadGenerator::on_table(table.clone(), shard.start, shard.end)
            .classified_by(classifier.clone());
        while let Some(leaf) = blocks.next_leaf() {
            if leaf.representative {
                let workload = blocks.workload();
                assert!(workload.name.ends_with(&format!("{:07}", leaf.index + 1)));
                representatives.push(workload);
            } else {
                pruned += blocks.count_block();
            }
        }
        add(&mut block_stats, blocks.stats());
    }

    let expected = GenerationStats {
        candidates: eager.candidates,
        discarded: eager.candidates - eager.valid.len() as u64,
        emitted: eager.valid.len() as u64,
        ..GenerationStats::default()
    };
    assert_eq!(plain_stats, expected, "{of} shards, plain iterator");
    assert_eq!(block_stats, expected, "{of} shards, block loop");

    let all: Vec<&Workload> = eager.valid.iter().map(|(_, w, _)| w).collect();
    assert!(streamed.iter().eq(all), "{of} shards: workload stream");
    let reps = eager.valid.iter().filter(|(_, _, rep)| *rep).map(|v| &v.1);
    assert!(
        representatives.iter().eq(reps),
        "{of} shards: representatives"
    );
    let members = eager.valid.iter().filter(|(_, _, rep)| !*rep).count();
    assert_eq!(pruned, members as u64, "{of} shards: pruned");
}

/// Shard counts whose boundaries fall mid-block and mid-discarded-subtree.
fn check_space(bounds: &Bounds) {
    let table = SpaceTable::new(bounds);
    let classifier = Arc::new(Classifier::on_table(table.clone()));
    let eager = eager(bounds, &classifier);
    assert_eq!(table.total(), eager.candidates);
    for of in [1, 7, 64, 512] {
        check_sharded(&table, &classifier, &eager, of);
    }
}

/// Two operations over three interchangeable root files: small enough to
/// walk from every index, symmetric enough to have member cores, and with
/// `link`/`rename` sequences phase 4 rejects.
fn symmetric_seq2() -> Bounds {
    let mut bounds = Bounds::tiny();
    bounds.seq_len = 2;
    bounds.files = FileSet::new(Vec::new(), vec!["foo".into(), "bar".into(), "baz".into()]);
    bounds
}

#[test]
fn small_spaces_match_the_eager_pipeline() {
    check_space(&Bounds::tiny());
    check_space(&Bounds::paper_seq1());
    check_space(&symmetric_seq2());
}

/// `b3-bench`'s seq-2 space: all 14 operations over `foo A/foo B/foo`.
fn bench_seq2() -> Bounds {
    Bounds {
        files: FileSet::new(
            vec!["A".into(), "B".into()],
            vec!["foo".into(), "A/foo".into(), "B/foo".into()],
        ),
        ..Bounds::paper_seq2()
    }
}

/// `b3-bench`'s seq-3-metadata space: three directories with one file each.
fn bench_seq3_metadata() -> Bounds {
    Bounds {
        files: FileSet::new(
            vec!["A".into(), "B".into(), "C".into()],
            vec!["A/foo".into(), "B/foo".into(), "C/foo".into()],
        ),
        ..Bounds::paper_seq3_metadata()
    }
}

#[test]
#[ignore = "85 614 candidates through the eager pipeline; run in release"]
fn bench_seq2_space_matches_the_eager_pipeline() {
    check_space(&bench_seq2());
}

#[test]
#[ignore = "178 605 candidates through the eager pipeline; run in release"]
fn bench_seq3_metadata_space_matches_the_eager_pipeline() {
    check_space(&bench_seq3_metadata());
}

/// Both simulators' verdict on one op list: the setup ops, or the
/// rejection text.
fn plans(ops: &[Op], files: &FileSet) -> [Result<Vec<Op>, String>; 2] {
    let ours = match SimState::plan(ops, files) {
        SimOutcome::Valid { setup } => Ok(setup),
        SimOutcome::Invalid(reason) => Err(reason),
    };
    let reference = match reference_sim::SimState::plan(ops, files) {
        reference_sim::SimOutcome::Valid { setup } => Ok(setup),
        reference_sim::SimOutcome::Invalid(reason) => Err(reason),
    };
    [ours, reference]
}

/// Every phase-3 candidate of a space through both phase-4 simulators;
/// returns how many both rejected.
fn check_reference(bounds: &Bounds) -> u64 {
    let mut rejected = 0;
    for skeleton in phase1_skeletons(bounds) {
        for core in phase2_parameters(&skeleton, bounds) {
            for ops in phase3_persistence(&core, bounds) {
                let [ours, reference] = plans(&ops, &bounds.files);
                assert_eq!(ours, reference, "{ops:?}");
                rejected += u64::from(ours.is_err());
            }
        }
    }
    rejected
}

#[test]
fn small_spaces_match_the_reference_simulator() {
    check_reference(&Bounds::tiny());
    check_reference(&Bounds::paper_seq1());
    assert!(check_reference(&symmetric_seq2()) > 0);
}

#[test]
#[ignore = "265 965 candidates through both simulators; run in release"]
fn bench_spaces_match_the_reference_simulator() {
    assert!(check_reference(&bench_seq2()) > 0);
    assert!(check_reference(&bench_seq3_metadata()) > 0);
}

/// One generator repositioned to every index of the space, in an order that
/// jumps backwards and forwards, so the trunk is always stale in a different
/// way: from each index on, the stream is the eager stream's suffix.
#[test]
fn skip_to_every_index_resumes_the_eager_stream() {
    let bounds = symmetric_seq2();
    let classifier = Classifier::new(&bounds);
    let eager = eager(&bounds, &classifier);
    let total = eager.candidates;
    let mut generator = WorkloadGenerator::new(bounds);
    // 7 is coprime to the space's size, so the walk visits every index.
    assert_ne!(total % 7, 0);
    for step in 0..=total {
        let index = if step == total {
            total
        } else {
            step * 7 % total
        };
        generator.skip_to(index);
        assert_eq!(generator.cursor(), index);
        let suffix = eager.valid.iter().filter(|(i, _, _)| *i >= index);
        // A few workloads are enough to pin the position; every fiftieth
        // walk runs to the end of the space.
        let take = if step % 50 == 0 { usize::MAX } else { 4 };
        let streamed: Vec<Workload> = generator.by_ref().take(take).collect();
        assert!(
            streamed.iter().eq(suffix.take(take).map(|(_, w, _)| w)),
            "skip_to({index})"
        );
        let stats = generator.stats();
        assert_eq!(stats.candidates, stats.emitted + stats.discarded);
    }
}

const OP_POOL: [OpKind; 5] = [
    OpKind::Creat,
    OpKind::Link,
    OpKind::Unlink,
    OpKind::Rename,
    OpKind::WriteBuffered,
];

fn bounds_strategy() -> impl Strategy<Value = Bounds> {
    let ops = (1u32..32).prop_map(|mask| {
        let chosen = OP_POOL.iter().enumerate();
        chosen
            .filter(|(bit, _)| mask & (1 << bit) != 0)
            .map(|(_, kind)| *kind)
            .collect::<Vec<OpKind>>()
    });
    let files = prop_oneof![
        Just(FileSet::paper_default()),
        Just(FileSet::minimal()),
        Just(FileSet::new(
            Vec::new(),
            vec!["foo".into(), "bar".into(), "baz".into()],
        )),
        Just(FileSet::new(
            vec!["A".into(), "B".into(), "C".into()],
            vec!["A/foo".into(), "B/foo".into(), "C/foo".into()],
        )),
    ];
    (ops, files, 1usize..3).prop_map(|(ops, files, seq_len)| {
        let mut bounds = Bounds::tiny().with_ops(ops);
        bounds.files = files;
        bounds.seq_len = seq_len;
        bounds
    })
}

/// Every phase-2 candidate of every operation over the nested file set,
/// plus `mkdir`, `rmdir` and `fsync` of every path and the root, renames of
/// and onto the root, and a second xattr name.
fn op_pool() -> Vec<Op> {
    let bounds = Bounds::paper_seq1().with_nested_files();
    let mut pool: Vec<Op> = OpKind::ALL
        .iter()
        .flat_map(|kind| phase2_candidates(*kind, &bounds))
        .collect();
    let files = bounds.files.all_paths();
    for path in files.iter().chain([&String::new()]) {
        pool.push(Op::Fsync { path: path.clone() });
        pool.push(Op::Mkdir { path: path.clone() });
        pool.push(Op::Rmdir { path: path.clone() });
    }
    pool.push(Op::RemoveXattr {
        path: "A/foo".into(),
        name: "user.u2".into(),
    });
    for (from, to) in [("", "B"), ("B", "")] {
        pool.push(Op::Rename {
            from: from.into(),
            to: to.into(),
        });
    }
    pool.push(Op::Sync);
    pool
}

/// Directory renames over the nested file set with a few ops on the paths
/// they move: op lists drawn from it move an entry through several
/// renames, which is what the path table's closure must cover.
fn rename_pool() -> Vec<Op> {
    let mut pool = Vec::new();
    for (from, to) in [
        ("A", "B"),
        ("B", "A"),
        ("B", "A/C"),
        ("A/C", "B"),
        ("A", "A/C"),
    ] {
        pool.push(Op::Rename {
            from: from.into(),
            to: to.into(),
        });
    }
    for path in ["A/C/foo", "B/foo", "B/C/foo", "A/C/C/foo"] {
        pool.push(Op::Creat { path: path.into() });
        pool.push(Op::Fsync { path: path.into() });
    }
    pool.push(Op::Rmdir { path: "A/C".into() });
    pool.push(Op::Link {
        existing: "A/C/foo".into(),
        new: "B/foo".into(),
    });
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Op lists no phase-3 space holds — up to eight ops from either pool —
    /// get the same phase-4 verdict from both simulators.
    #[test]
    fn random_op_lists_match_the_reference_simulator(
        ops in prop_oneof![
            proptest::collection::vec(proptest::sample::select(op_pool()), 1..9),
            proptest::collection::vec(proptest::sample::select(rename_pool()), 1..9),
        ]
    ) {
        let [ours, reference] = plans(&ops, &FileSet::nested());
        prop_assert_eq!(ours, reference, "{:?}", ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The premise block pruning stands on: the representative verdict is a
    /// function of (skeleton, core digits) alone. The per-core verdict the
    /// generator reports must equal the per-candidate classifier's on
    /// *every* candidate of the block, whatever its persistence digits.
    #[test]
    fn the_core_verdict_holds_for_every_persistence_choice(bounds in bounds_strategy()) {
        let table = SpaceTable::new(&bounds);
        if table.total() == 0 || table.total() > 4_000 {
            return Ok(());
        }
        let classifier = Arc::new(Classifier::on_table(table.clone()));
        let mut generator =
            WorkloadGenerator::on_table(table, 0, u64::MAX).classified_by(classifier.clone());
        while let Some(leaf) = generator.next_leaf() {
            let workload = generator.workload();
            let class = classifier.classify(&workload.ops).expect("decomposes");
            prop_assert_eq!(
                class.is_representative(),
                leaf.representative,
                "{} ({})",
                workload.name,
                workload
            );
        }
        let stats = generator.stats();
        prop_assert!(stats.cores_pruned <= stats.cores_classified);
        prop_assert!(stats.cores_classified <= stats.emitted);
    }
}
