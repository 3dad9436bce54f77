//! Property tests for the checkpoint merge algebra.
//!
//! A distributed sweep reassembles its result from per-worker partial
//! checkpoints, so the correctness of the whole fan-out rests on `merge`
//! being a true set union: commutative, associative, idempotent, and
//! refusing to combine checkpoints of different sweeps. The subsets here
//! are carved (via [`SweepCheckpoint::subset`]) out of one real completed
//! sweep, so every merged shard carries real results, grouped reports
//! included.
//!
//! Shard results are deduplicated at the source (per-group exemplars +
//! counts, see `b3_harness::dedup`), so this suite additionally pins the
//! **dedup equivalence**: merging grouped shard results over *any* shard
//! partition, in *any* order, produces the same (group → count, exemplar)
//! table as post-hoc `group_reports` over the raw, ungrouped report stream
//! of a sequential, single-threaded CrashMonkey pass over the generator.

use std::sync::OnceLock;

use b3_ace::{Bounds, WorkloadGenerator};
use b3_crashmonkey::{CrashMonkey, CrashMonkeyConfig};
use b3_fs_cow::CowFsSpec;
use b3_harness::{group_reports, BugGroup, RunConfig, Sweep, SweepCheckpoint};
use b3_vfs::KernelEra;
use proptest::prelude::*;

const NUM_SHARDS: usize = 8;

/// One fully swept checkpoint over the tiny bounds, computed once.
fn full_checkpoint() -> &'static SweepCheckpoint {
    static FULL: OnceLock<SweepCheckpoint> = OnceLock::new();
    FULL.get_or_init(|| {
        let bounds = Bounds::tiny();
        let spec = CowFsSpec::new(KernelEra::V4_16);
        let mut checkpoint = SweepCheckpoint::new(&bounds, NUM_SHARDS);
        let config = RunConfig {
            threads: 2,
            ..RunConfig::default()
        };
        Sweep::new(&spec, config)
            .shards(NUM_SHARDS)
            .run_resumable(&bounds, &mut checkpoint);
        assert!(checkpoint.is_complete());
        checkpoint
    })
}

/// The post-hoc grouping of the *raw* report stream over the same bounds:
/// one CrashMonkey folded over the generator with no threads (the slow
/// path, which keeps every report), grouped after the fact — the §5.3
/// reference the grouped checkpoint must match.
fn post_hoc_groups() -> &'static Vec<BugGroup> {
    static GROUPS: OnceLock<Vec<BugGroup>> = OnceLock::new();
    GROUPS.get_or_init(|| {
        let spec = CowFsSpec::new(KernelEra::V4_16);
        let monkey = CrashMonkey::with_config(&spec, CrashMonkeyConfig::small());
        let raw: Vec<_> = WorkloadGenerator::new(Bounds::tiny())
            .filter_map(|workload| monkey.test_workload(&workload).ok())
            .flat_map(|outcome| outcome.bugs)
            .collect();
        group_reports(&raw)
    })
}

/// The sub-checkpoint holding the shards selected by `mask`'s bits.
fn subset(mask: u8) -> SweepCheckpoint {
    full_checkpoint().subset((0..NUM_SHARDS as u32).filter(|shard| mask & (1 << shard) != 0))
}

fn merged(a: &SweepCheckpoint, b: &SweepCheckpoint) -> SweepCheckpoint {
    let mut union = a.clone();
    union.merge(b).expect("same-sweep merge succeeds");
    union
}

proptest! {
    #[test]
    fn merge_is_commutative(a in 0u32..256, b in 0u32..256) {
        let (a, b) = (subset(a as u8), subset(b as u8));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    #[test]
    fn merge_is_associative(a in 0u32..256, b in 0u32..256, c in 0u32..256) {
        let (a, b, c) = (subset(a as u8), subset(b as u8), subset(c as u8));
        prop_assert_eq!(
            merged(&merged(&a, &b), &c),
            merged(&a, &merged(&b, &c))
        );
    }

    #[test]
    fn merge_is_idempotent(a in 0u32..256) {
        let a = subset(a as u8);
        prop_assert_eq!(merged(&a, &a), a);
    }

    #[test]
    fn merge_is_a_set_union_over_shards(a in 0u32..256, b in 0u32..256) {
        // Merging overlapping subsets of the same run equals the subset of
        // the bitmask union — duplicate shards collapse, nothing is counted
        // twice.
        let union = merged(&subset(a as u8), &subset(b as u8));
        prop_assert_eq!(union, subset((a | b) as u8));
    }

    #[test]
    fn merged_summary_counts_are_additive_for_disjoint_subsets(a in 0u32..256, b in 0u32..256) {
        let (a, b) = ((a as u8) & !(b as u8), b as u8);
        let union = merged(&subset(a), &subset(b));
        let summary = union.summary();
        let (sa, sb) = (subset(a).summary(), subset(b).summary());
        prop_assert_eq!(summary.tested, sa.tested + sb.tested);
        prop_assert_eq!(summary.skipped, sa.skipped + sb.skipped);
        // Raw-report totals add; group counts union (counts add per key,
        // exemplars take the lexicographic minimum), so the number of
        // *groups* is bounded by the union of the two sides' group keys.
        prop_assert_eq!(summary.raw_reports, sa.raw_reports + sb.raw_reports);
        let grouped = union.grouped();
        prop_assert_eq!(grouped.total_reports() as usize, summary.raw_reports);
        prop_assert_eq!(summary.reports.len(), grouped.len());
    }

    /// The dedup-equivalence property: split the shards into up to four
    /// partition cells by an arbitrary assignment, merge the cells in an
    /// arbitrary rotation, and the grouped result — every group's key,
    /// raw-report count, and byte-exact exemplar — equals post-hoc
    /// `group_reports` over the raw report stream of an ungrouped sweep.
    #[test]
    fn any_partition_and_order_matches_post_hoc_grouping(
        assignment in prop::collection::vec(0usize..4, NUM_SHARDS..NUM_SHARDS + 1),
        rotation in 0usize..4,
    ) {
        let mut cells = vec![Vec::new(); 4];
        for (shard, &cell) in assignment.iter().enumerate() {
            cells[cell].push(shard as u32);
        }
        let mut rebuilt = subset(0);
        for step in 0..4 {
            let cell = &cells[(step + rotation) % 4];
            rebuilt
                .merge(&full_checkpoint().subset(cell.iter().copied()))
                .expect("same-sweep merge succeeds");
        }
        prop_assert!(rebuilt.is_complete());
        let grouped = rebuilt.bug_groups();
        let reference = post_hoc_groups();
        prop_assert_eq!(grouped.len(), reference.len());
        for (ours, theirs) in grouped.iter().zip(reference.iter()) {
            prop_assert_eq!(ours, theirs);
        }
    }
}

#[test]
fn merging_checkpoints_of_different_shard_counts_is_rejected() {
    let bounds = Bounds::tiny();
    let mut ours = subset(0b0000_1111);
    let theirs = SweepCheckpoint::new(&bounds, NUM_SHARDS + 1);
    let before = ours.clone();
    assert!(ours.merge(&theirs).is_err());
    assert!(
        ours == before,
        "a rejected merge must leave the checkpoint untouched"
    );
    let mut theirs = SweepCheckpoint::new(&bounds, NUM_SHARDS + 1);
    assert!(theirs.merge(&before).is_err());
}

#[test]
fn merging_checkpoints_of_different_bounds_is_rejected() {
    let mut ours = subset(0b1111_0000);
    let theirs = SweepCheckpoint::new(&Bounds::paper_seq1(), NUM_SHARDS);
    assert!(ours.merge(&theirs).is_err());
}

/// A shard legitimately re-run (after a crash, or by a second worker)
/// reproduces identical counts and grouped reports but *different*
/// wall-clock timing. Merging the re-run into a checkpoint that already
/// holds the shard must not trip the duplicate-shard debug assertion: the
/// comparison is the timing-ignoring `same_outcome`, not full equality.
#[test]
fn rerun_shard_with_different_timing_merges_without_panic() {
    let bounds = Bounds::tiny();
    let spec = CowFsSpec::new(KernelEra::V4_16);
    let config = RunConfig {
        threads: 1,
        ..RunConfig::default()
    };
    // Two independent runs of the same sweep: same outcomes, different
    // per-shard `workload_time_nanos`.
    let mut first = SweepCheckpoint::new(&bounds, NUM_SHARDS);
    Sweep::new(&spec, config)
        .shards(NUM_SHARDS)
        .run_resumable(&bounds, &mut first);
    let mut second = SweepCheckpoint::new(&bounds, NUM_SHARDS);
    Sweep::new(&spec, config)
        .shards(NUM_SHARDS)
        .run_resumable(&bounds, &mut second);
    assert!(first.is_complete() && second.is_complete());

    // Every shard is a duplicate here; with the old full-equality debug
    // assertion this merge would spuriously panic whenever any shard's
    // timing differed between the runs.
    let summary_before = first.summary();
    first.merge(&second).expect("same-sweep merge succeeds");
    let summary_after = first.summary();
    assert_eq!(summary_before.tested, summary_after.tested);
    assert_eq!(summary_before.raw_reports, summary_after.raw_reports);
    assert_eq!(summary_before.reports, summary_after.reports);
}

#[test]
fn merging_all_single_shard_subsets_rebuilds_the_full_checkpoint() {
    let mut rebuilt = subset(0);
    for shard in 0..NUM_SHARDS {
        rebuilt
            .merge(&subset(1 << shard))
            .expect("same-sweep merge succeeds");
    }
    assert!(rebuilt.is_complete());
    assert_eq!(&rebuilt, full_checkpoint());
    assert_eq!(
        rebuilt.to_bytes(),
        full_checkpoint().to_bytes(),
        "shard-wise reassembly is byte-identical to the uninterrupted run"
    );
}
