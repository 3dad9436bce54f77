//! Property tests for the grouped result of a sharded sweep.
//!
//! Shard results are deduplicated at the source (per-group exemplars +
//! counts, see `b3_harness::dedup`), and a sweep's grouped view is the union
//! of its per-shard tables under [`GroupTable::merge_from`]. This suite pins
//! the **dedup equivalence**: merging per-shard tables over *any* shard
//! partition, in *any* order, encodes to the same bytes as post-hoc
//! `group_reports` over the raw, ungrouped report stream of a sequential,
//! single-threaded CrashMonkey pass over the generator, and as the grouped
//! checkpoint of a threaded sweep over the same shards. Over disjoint shard
//! sets the merge is a union: commutative, associative, and additive in its
//! report counts.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use b3_ace::{Bounds, WorkloadGenerator};
use b3_crashmonkey::{CrashMonkey, CrashMonkeyConfig};
use b3_fs_cow::CowFsSpec;
use b3_harness::{group_reports, GroupTable, RunConfig, Sweep, SweepCheckpoint};
use b3_vfs::codec::Encoder;
use b3_vfs::KernelEra;
use proptest::prelude::*;

/// Enough shards that four bug groups span two or more of them, so merges
/// add counts and pick exemplars across tables.
const NUM_SHARDS: usize = 16;

/// The tiny bounds at sequence length 2 (the CLI's `tiny-seq2`, 150
/// candidates): at length 1 the space holds two bug reports.
fn bounds() -> Bounds {
    let mut bounds = Bounds::tiny();
    bounds.seq_len = 2;
    bounds
}

/// The 3.13 era, whose bugs give the space 12 groups.
fn spec() -> CowFsSpec {
    CowFsSpec::new(KernelEra::V3_13)
}

fn bytes(table: &GroupTable) -> Vec<u8> {
    let mut enc = Encoder::new();
    table.encode(&mut enc);
    enc.finish()
}

/// One group table per shard, computed once: a
/// CrashMonkey folded over the shard's generator, every report observed.
fn shard_tables() -> &'static [GroupTable] {
    static TABLES: OnceLock<Vec<GroupTable>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let (bounds, spec) = (bounds(), spec());
        bounds
            .shards(NUM_SHARDS)
            .iter()
            .map(|shard| {
                let monkey = CrashMonkey::with_config(&spec, CrashMonkeyConfig::small());
                let mut table = GroupTable::new();
                for workload in WorkloadGenerator::for_shard(bounds.clone(), shard) {
                    if let Ok(outcome) = monkey.test_workload(&workload) {
                        outcome.bugs.into_iter().for_each(|bug| table.observe(bug));
                    }
                }
                table
            })
            .collect()
    })
}

/// The merge of the tables of the shards whose bits `mask` sets, in shard
/// order.
fn table(mask: u16) -> GroupTable {
    let mut table = GroupTable::new();
    for (shard, shard_table) in shard_tables().iter().enumerate() {
        if mask & (1 << shard) != 0 {
            table.merge_from(shard_table);
        }
    }
    table
}

fn merged(a: &GroupTable, b: &GroupTable) -> GroupTable {
    let mut union = a.clone();
    union.merge_from(b);
    union
}

/// The two references: the *raw* report stream over the same bounds
/// grouped post hoc and encoded (one CrashMonkey folded over the whole
/// generator with no threads, keeping every report — the §5.3 reference),
/// and a threaded sweep's checkpoint.
fn references() -> &'static (Vec<u8>, SweepCheckpoint) {
    static REFERENCES: OnceLock<(Vec<u8>, SweepCheckpoint)> = OnceLock::new();
    REFERENCES.get_or_init(|| {
        let (bounds, spec) = (bounds(), spec());
        let monkey = CrashMonkey::with_config(&spec, CrashMonkeyConfig::small());
        let raw: Vec<_> = WorkloadGenerator::new(bounds.clone())
            .filter_map(|workload| monkey.test_workload(&workload).ok())
            .flat_map(|outcome| outcome.bugs)
            .collect();
        let post_hoc = GroupTable::from_reports(&raw);
        assert!(!post_hoc.is_empty(), "the space finds bugs on 3.13");
        assert_eq!(post_hoc.groups(), group_reports(&raw));

        let mut checkpoint = SweepCheckpoint::new(&bounds, NUM_SHARDS);
        let config = RunConfig {
            threads: 2,
            ..RunConfig::default()
        };
        Sweep::new(&spec, config)
            .shards(NUM_SHARDS)
            .run_resumable(&bounds, &mut checkpoint);
        assert!(checkpoint.is_complete());
        (bytes(&post_hoc), checkpoint)
    })
}

proptest! {
    /// Split the shards into up to four partition cells by an arbitrary
    /// assignment, merge each cell's tables (in either shard order), then
    /// merge the cells in an arbitrary rotation: the result — every
    /// group's key, raw-report count and byte-exact exemplar — encodes to
    /// the references' bytes.
    #[test]
    fn any_partition_and_order_matches_post_hoc_grouping(
        assignment in prop::collection::vec(0usize..4, NUM_SHARDS..NUM_SHARDS + 1),
        rotation in 0usize..4,
        reversed in any::<bool>(),
    ) {
        let tables = shard_tables();
        let mut cells = vec![GroupTable::new(); 4];
        let mut shards: Vec<usize> = (0..NUM_SHARDS).collect();
        if reversed {
            shards.reverse();
        }
        for shard in shards {
            cells[assignment[shard]].merge_from(&tables[shard]);
        }
        let mut rebuilt = GroupTable::new();
        for step in 0..4 {
            rebuilt.merge_from(&cells[(step + rotation) % 4]);
        }
        let (post_hoc, swept) = references();
        let rebuilt = bytes(&rebuilt);
        prop_assert!(&rebuilt == post_hoc, "differs from post-hoc grouping");
        prop_assert!(
            rebuilt == bytes(&swept.grouped()),
            "differs from the sweep's grouped checkpoint"
        );
    }

    #[test]
    fn merge_is_commutative(a in any::<u16>(), b in any::<u16>()) {
        let (a, b) = (table(a & !b), table(b));
        prop_assert_eq!(bytes(&merged(&a, &b)), bytes(&merged(&b, &a)));
    }

    #[test]
    fn merge_is_associative(a in any::<u16>(), b in any::<u16>(), c in any::<u16>()) {
        let (b, c) = (b & !a, c & !(a | b));
        let (a, b, c) = (table(a), table(b), table(c));
        prop_assert_eq!(
            bytes(&merged(&merged(&a, &b), &c)),
            bytes(&merged(&a, &merged(&b, &c)))
        );
    }

    /// Merging the tables of two disjoint shard sets gives the table of
    /// their union. Over overlapping sets a shared shard's reports count
    /// twice, but the groups are still the union of both sides', each with
    /// the name-first exemplar of the two.
    #[test]
    fn merge_is_a_set_union_over_shards(a in any::<u16>(), b in any::<u16>()) {
        prop_assert_eq!(
            bytes(&merged(&table(a & !b), &table(b))),
            bytes(&table(a | b))
        );
        let (a, b) = (table(a), table(b));
        let union = merged(&a, &b);
        let keys = |table: &GroupTable| -> BTreeSet<_> {
            table.entries().map(|(key, _)| key.clone()).collect()
        };
        prop_assert_eq!(keys(&union), &keys(&a) | &keys(&b));
        for (key, entry) in union.entries() {
            let sides: Vec<_> = [&a, &b]
                .into_iter()
                .filter_map(|side| side.entries().find(|(k, _)| *k == key))
                .map(|(_, entry)| entry)
                .collect();
            let count: u64 = sides.iter().map(|side| side.count).sum();
            prop_assert_eq!(entry.count, count);
            let first = sides.iter().map(|side| &side.exemplar).min_by_key(|e| &e.workload_name);
            prop_assert_eq!(Some(&entry.exemplar), first);
        }
    }

    #[test]
    fn merged_summary_counts_are_additive_for_disjoint_subsets(
        a in any::<u16>(),
        b in any::<u16>(),
    ) {
        let (a, b) = (table(a & !b), table(b));
        let union = merged(&a, &b);
        prop_assert_eq!(union.total_reports(), a.total_reports() + b.total_reports());
        prop_assert!(union.len() >= a.len().max(b.len()));
        prop_assert!(union.len() <= a.len() + b.len());
    }
}

/// Shard by shard, the per-shard tables rebuild the threaded sweep's
/// grouped checkpoint, and with it its summary's report totals and
/// exemplars.
#[test]
fn merging_all_single_shard_subsets_rebuilds_the_full_checkpoint() {
    let mut rebuilt = GroupTable::new();
    for shard in 0..NUM_SHARDS {
        rebuilt.merge_from(&table(1 << shard));
    }
    let (_, swept) = references();
    assert!(swept.is_complete());
    assert_eq!(bytes(&rebuilt), bytes(&swept.grouped()));
    let summary = swept.summary();
    assert_eq!(summary.raw_reports as u64, rebuilt.total_reports());
    assert_eq!(summary.reports, rebuilt.into_exemplars());
}
