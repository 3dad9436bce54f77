//! First-class bug-report deduplication: the grouped (exemplar + count)
//! table shared by the sweep engine, the distributed protocol, and the
//! post-processing step.
//!
//! The paper deduplicates the flood of raw crash-test failures into a
//! handful of unique bug reports *before* a human looks at them (§5.3,
//! Figure 5). This module applies the same idea to our own data model: a
//! [`GroupTable`] keeps, per `(skeleton, consequence)` group, a running
//! count and one **exemplar** report — the lexicographically-first workload
//! of the group. Workload names are zero-padded enumeration indices, so
//! "lexicographically first" equals "first in enumeration order", and the
//! exemplar a table converges to is independent of the order in which
//! reports (or partial tables) are folded in:
//! [`GroupTable::merge_from`] adds counts and takes the name-minimal
//! exemplar, making it commutative, associative, and idempotent-friendly —
//! exactly what [`crate::sweep::SweepCheckpoint::grouped`] needs so that a
//! distributed sweep's grouped results equal post-hoc
//! [`crate::postprocess::group_reports`] over the raw report stream,
//! regardless of shard partition or arrival order.
//!
//! Memory and checkpoint size are therefore bounded by the number of bug
//! *groups* (tens), not raw *reports* (hundreds of thousands on a bug-dense
//! file system).
//!
//! Rendering is bounded the same way. A sweep's shard loop hands its shard's
//! table to the crash-point loop as its [`Exemplars`]. A report whose group
//! the table already holds from an earlier-named workload could never
//! become the exemplar, and neither could a workload's second report of a
//! group (ties keep the first observed): the loop counts such a report
//! without building its text, and [`GroupTable::count`] folds it in after
//! the workload's rendered reports are observed. Only reports that may
//! still become an exemplar are rendered and [`observe`](GroupTable::observe)d,
//! and the table ends equal to the one every report rendered would build.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use b3_crashmonkey::{BugReport, Consequence, Exemplars};
use b3_vfs::codec::{Decoder, Encoder};
use b3_vfs::error::{FsError, FsResult};

use crate::postprocess::BugGroup;

/// The grouping key of §5.3: the workload skeleton and the observed
/// consequence (see [`BugReport::group_key`]).
pub type GroupKey = (String, Consequence);

/// One deduplicated bug group: how many raw reports collapsed into it and
/// the exemplar kept to represent them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupEntry {
    /// Number of raw reports folded into this group.
    pub count: u64,
    /// The representative report: the one from the lexicographically-first
    /// workload observed for this group (ties — several same-key reports
    /// from one workload — keep the first observed).
    pub exemplar: BugReport,
}

/// A deduplicated table of bug groups: `(skeleton, consequence)` → count +
/// exemplar.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupTable {
    entries: BTreeMap<GroupKey, GroupEntry>,
}

/// A group key, owned or borrowed: lets the table look a group up by
/// `(&str, Consequence)` without building a [`GroupKey`].
trait KeyView {
    fn view(&self) -> (&str, Consequence);
}

impl KeyView for GroupKey {
    fn view(&self) -> (&str, Consequence) {
        (&self.0, self.1)
    }
}

impl KeyView for (&str, Consequence) {
    fn view(&self) -> (&str, Consequence) {
        *self
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for GroupKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for dyn KeyView + '_ {}

impl PartialOrd for dyn KeyView + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The order of [`GroupKey`] itself, so borrowed lookups find owned keys.
impl Ord for dyn KeyView + '_ {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.view().cmp(&other.view())
    }
}

impl GroupTable {
    /// An empty table.
    pub fn new() -> Self {
        GroupTable::default()
    }

    /// Builds a table from raw reports (post-hoc grouping).
    pub fn from_reports<'a>(reports: impl IntoIterator<Item = &'a BugReport>) -> Self {
        let mut table = GroupTable::new();
        for report in reports {
            table.observe(report.clone());
        }
        table
    }

    /// Folds one raw report into the table: its group's count grows by one
    /// and the exemplar moves only if this report comes from a strictly
    /// lexicographically-smaller workload.
    pub fn observe(&mut self, report: BugReport) {
        match self.entries.entry(report.group_key()) {
            std::collections::btree_map::Entry::Occupied(mut occupied) => {
                let entry = occupied.get_mut();
                entry.count += 1;
                if report.workload_name < entry.exemplar.workload_name {
                    entry.exemplar = report;
                }
            }
            std::collections::btree_map::Entry::Vacant(vacant) => {
                vacant.insert(GroupEntry {
                    count: 1,
                    exemplar: report,
                });
            }
        }
    }

    /// Folds in one raw report of the group `(skeleton, consequence)` that
    /// was counted rather than rendered: the group's count grows by one and
    /// its exemplar stays. That is what [`observe`](GroupTable::observe)
    /// of the full report would do when the exemplar comes from a workload
    /// named no later than the report's, the condition under which the
    /// crash-point loop counts a report ([`Exemplars`]; a report counted
    /// because its workload rendered one of the group first is folded in
    /// after that one is observed).
    ///
    /// # Panics
    /// Panics when the table holds no exemplar for the group: a counted
    /// report is always of a group that has one, so this is a caller bug,
    /// and counting it anyway would lose the group.
    pub fn count(&mut self, skeleton: &str, consequence: Consequence) {
        let key: &dyn KeyView = &(skeleton, consequence);
        let Some(entry) = self.entries.get_mut(key) else {
            panic!("a report of ({skeleton}, {consequence:?}) was counted, but its group has no exemplar");
        };
        entry.count += 1;
    }

    /// Unions another table into this one: counts add, and each group keeps
    /// the name-minimal exemplar of the two sides. Over tables built from
    /// disjoint report sets (e.g. per-shard tables) this is commutative and
    /// associative, so any merge order converges to the same table.
    pub fn merge_from(&mut self, other: &GroupTable) {
        for (key, incoming) in &other.entries {
            match self.entries.entry(key.clone()) {
                std::collections::btree_map::Entry::Occupied(mut occupied) => {
                    let entry = occupied.get_mut();
                    entry.count += incoming.count;
                    if incoming.exemplar.workload_name < entry.exemplar.workload_name {
                        entry.exemplar = incoming.exemplar.clone();
                    }
                }
                std::collections::btree_map::Entry::Vacant(vacant) => {
                    vacant.insert(incoming.clone());
                }
            }
        }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no report has been observed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total raw reports folded in, across all groups.
    pub fn total_reports(&self) -> u64 {
        self.entries.values().map(|entry| entry.count).sum()
    }

    /// Iterates the groups in key order.
    pub fn entries(&self) -> impl Iterator<Item = (&GroupKey, &GroupEntry)> {
        self.entries.iter()
    }

    /// The exemplar reports, in group-key order.
    pub fn into_exemplars(self) -> Vec<BugReport> {
        self.entries
            .into_values()
            .map(|entry| entry.exemplar)
            .collect()
    }

    /// Renders the table as [`BugGroup`]s (the post-processing view), in
    /// group-key order.
    pub fn groups(&self) -> Vec<BugGroup> {
        self.entries
            .iter()
            .map(|((skeleton, consequence), entry)| BugGroup {
                skeleton: skeleton.clone(),
                consequence: *consequence,
                count: entry.count as usize,
                example: entry.exemplar.clone(),
            })
            .collect()
    }

    /// Serializes the table with the workspace codec. The group key is not
    /// written: it is re-derived from the exemplar on decode (an exemplar's
    /// own `group_key` *is* the key it was filed under).
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.entries.len() as u64);
        for entry in self.entries.values() {
            enc.put_u64(entry.count);
            entry.exemplar.encode(enc);
        }
    }

    /// Deserializes a table produced by [`GroupTable::encode`]. The declared
    /// group count is validated against the remaining buffer before any
    /// allocation, so a truncated or corrupt frame yields a decode error
    /// rather than a huge allocation.
    pub fn decode(dec: &mut Decoder<'_>) -> FsResult<GroupTable> {
        let count = dec.get_u64()? as usize;
        // Every entry occupies at least its count (8 bytes) plus a minimal
        // encoded report; 9 bytes is a safe floor per entry.
        if count > dec.remaining() / 9 {
            return Err(FsError::Corrupted(format!(
                "group table declares {count} entries but only {} bytes remain",
                dec.remaining()
            )));
        }
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let group_count = dec.get_u64()?;
            let exemplar = BugReport::decode(dec)?;
            entries.insert(
                exemplar.group_key(),
                GroupEntry {
                    count: group_count,
                    exemplar,
                },
            );
        }
        Ok(GroupTable { entries })
    }
}

impl Exemplars for GroupTable {
    fn exemplar(&self, skeleton: &str, consequence: Consequence) -> Option<&str> {
        let key: &dyn KeyView = &(skeleton, consequence);
        let entry = self.entries.get(key)?;
        Some(&entry.exemplar.workload_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(skeleton: &str, consequence: Consequence, workload: &str) -> BugReport {
        BugReport {
            workload_name: workload.to_string(),
            skeleton: skeleton.to_string(),
            fs_name: "cowfs".into(),
            crash_point: 1,
            consequence,
            all_consequences: vec![consequence],
            expected: String::new(),
            actual: String::new(),
            diffs: vec![],
            write_check_failures: vec![],
        }
    }

    #[test]
    fn observe_keeps_the_lexicographically_first_exemplar() {
        let mut table = GroupTable::new();
        table.observe(report("link-write", Consequence::DataLoss, "w-0000005"));
        table.observe(report("link-write", Consequence::DataLoss, "w-0000002"));
        table.observe(report("link-write", Consequence::DataLoss, "w-0000009"));
        assert_eq!(table.len(), 1);
        assert_eq!(table.total_reports(), 3);
        let (_, entry) = table.entries().next().unwrap();
        assert_eq!(entry.exemplar.workload_name, "w-0000002");
    }

    #[test]
    fn merge_is_order_independent() {
        let reports: Vec<BugReport> = (0..20)
            .map(|i| {
                report(
                    if i % 3 == 0 { "link-write" } else { "rename" },
                    if i % 2 == 0 {
                        Consequence::DataLoss
                    } else {
                        Consequence::FileMissing
                    },
                    &format!("w-{i:07}"),
                )
            })
            .collect();
        let whole = GroupTable::from_reports(&reports);

        // Split into three slices, merge in a shuffled order.
        let parts: Vec<GroupTable> = reports.chunks(7).map(GroupTable::from_reports).collect();
        for order in [[0, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let mut merged = GroupTable::new();
            for index in order {
                merged.merge_from(&parts[index]);
            }
            assert_eq!(merged, whole);
        }
    }

    #[test]
    fn codec_round_trips() {
        let mut table = GroupTable::new();
        table.observe(report("link-write", Consequence::DataLoss, "w-0000001"));
        table.observe(report("link-write", Consequence::DataLoss, "w-0000003"));
        table.observe(report("rename", Consequence::FileMissing, "w-0000002"));
        let mut enc = Encoder::new();
        table.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        let decoded = GroupTable::decode(&mut dec).unwrap();
        assert!(dec.is_exhausted());
        assert_eq!(decoded, table);
    }

    fn encoded(table: &GroupTable) -> Vec<u8> {
        let mut enc = Encoder::new();
        table.encode(&mut enc);
        enc.finish()
    }

    #[test]
    fn counting_after_an_earlier_exemplar_equals_observing_the_report() {
        let later = report("link-write", Consequence::DataLoss, "w-0000007");
        let mut observed = GroupTable::new();
        observed.observe(report("rename", Consequence::DataLoss, "w-0000001"));
        observed.observe(report("link-write", Consequence::DataLoss, "w-0000003"));
        let mut counted = observed.clone();
        assert_eq!(
            counted.exemplar("link-write", Consequence::DataLoss),
            Some("w-0000003")
        );
        assert_eq!(
            counted.exemplar("link-write", Consequence::FileMissing),
            None
        );
        assert_eq!(counted.exemplar("link", Consequence::DataLoss), None);

        observed.observe(later.clone());
        counted.count(&later.skeleton, later.consequence);
        assert_eq!(encoded(&counted), encoded(&observed));
        assert_eq!(counted, observed);

        // A workload's second report of a group it opened: the first one,
        // observed, stays the exemplar either way.
        let first = report("rename", Consequence::FileMissing, "w-0000008");
        let second = BugReport {
            crash_point: 2,
            ..first.clone()
        };
        observed.observe(first.clone());
        observed.observe(second.clone());
        counted.observe(first);
        counted.count(&second.skeleton, second.consequence);
        assert_eq!(encoded(&counted), encoded(&observed));
    }

    #[test]
    #[should_panic(expected = "its group has no exemplar")]
    fn counting_a_group_without_an_exemplar_panics() {
        let mut table = GroupTable::new();
        table.observe(report("link-write", Consequence::DataLoss, "w-0000003"));
        table.count("link-write", Consequence::FileMissing);
    }

    #[test]
    fn decode_rejects_huge_declared_counts() {
        let mut enc = Encoder::new();
        enc.put_u64(u64::MAX); // absurd group count, no payload
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert!(GroupTable::decode(&mut dec).is_err());
    }
}
