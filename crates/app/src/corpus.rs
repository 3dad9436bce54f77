//! The application-level bug corpus: the three seeded engine bugs as
//! replayable entries, mirroring the fs-level corpus in
//! `b3_harness::corpus`.
//!
//! Entries take the target [`FsSpec`] as a parameter (any in-tree file
//! system hosts the engine; the seeded bugs are in the *engine*, so they
//! reproduce on every correct host file system).

use b3_crashmonkey::{Consequence, CrashMonkeyConfig, WorkloadOutcome};
use b3_vfs::fs::FsSpec;
use b3_vfs::{FsResult, MutantSet};

use crate::bounds::TxnBounds;
use crate::engine::EngineProfile;
use crate::generator::TxnWorkloadGenerator;
use crate::harness::AppHarness;

/// One seeded engine bug.
#[derive(Debug, Clone)]
pub struct AppCorpusEntry {
    /// Stable identifier, e.g. `app-01`.
    pub id: &'static str,
    /// Short description of the bug.
    pub title: &'static str,
    /// The WalKv mutant that causes it (an [`EngineProfile`] table id); the
    /// entry replays on the engine with only this mutant enabled.
    pub mutant: &'static str,
    /// Other WalKv mutants that each cause it on their own (usually none).
    pub also: &'static [&'static str],
    /// Index (0-based) of a `TxnBounds::tiny` workload that exposes it.
    pub workload_index: u64,
    /// Consequences the transaction oracle classifies it as.
    pub expected: &'static [Consequence],
    /// What goes wrong, mechanically.
    pub note: &'static str,
}

/// Result of replaying one app corpus entry.
#[derive(Debug)]
pub struct AppCorpusCheck {
    /// The raw harness outcome on the buggy engine.
    pub outcome: WorkloadOutcome,
    /// True if a bug was detected with one of the expected consequences.
    pub detected_expected: bool,
    /// The primary consequence observed, if any.
    pub observed: Option<Consequence>,
}

impl AppCorpusEntry {
    /// The bounded space the entry's workload index refers to.
    pub fn bounds(&self) -> TxnBounds {
        TxnBounds::tiny()
    }

    /// Replays the entry's workload on the engine with only its mutant
    /// enabled, hosted by `spec`, and checks the observed consequences
    /// against the expected set.
    pub fn replay(&self, spec: &dyn FsSpec) -> FsResult<AppCorpusCheck> {
        let engine = EngineProfile::only(self.mutant).expect("the mutant is a WalKv mutant");
        self.replay_on(spec, engine)
    }

    /// Replays the same workload on the fixed engine; it must be clean.
    pub fn replay_fixed(&self, spec: &dyn FsSpec) -> FsResult<WorkloadOutcome> {
        Ok(self.replay_on(spec, EngineProfile::none())?.outcome)
    }

    /// Replays the entry's workload on `engine` hosted by `spec`.
    pub fn replay_on(&self, spec: &dyn FsSpec, engine: EngineProfile) -> FsResult<AppCorpusCheck> {
        let config = CrashMonkeyConfig::exhaustive_crash_points();
        let harness = AppHarness::new(spec, config, engine);
        let workload = TxnWorkloadGenerator::decode(&self.bounds(), self.workload_index);
        let outcome = harness.test_workload(&workload)?;
        let observed = outcome.worst_consequence();
        let detected_expected = outcome.bugs.iter().any(|bug| {
            self.expected.contains(&bug.consequence)
                || bug
                    .all_consequences
                    .iter()
                    .any(|c| self.expected.contains(c))
        });
        Ok(AppCorpusCheck {
            outcome,
            detected_expected,
            observed,
        })
    }
}

/// The three seeded engine bugs.
pub fn seeded_bugs() -> Vec<AppCorpusEntry> {
    vec![
        AppCorpusEntry {
            id: "app-01",
            title: "commit record written before data fsync",
            mutant: "no-data-fsync",
            also: &[],
            // Workload 0: a single committed put — the record points at
            // value bytes that never became durable.
            workload_index: 0,
            expected: &[Consequence::TxnAtomicityBroken],
            note: "FIRST's motivating atomicity bug (SNIPPETS.md 1-2): the \
                   commit record is durable but the value heap is not, so \
                   recovery reads zero-filled garbage for the value",
        },
        AppCorpusEntry {
            id: "app-02",
            title: "torn commit record applied partially",
            mutant: "torn-commit",
            also: &["no-data-fsync"],
            // Workload 4: two puts in one transaction — the mid-record
            // persistence point leaves only the first op on disk, and the
            // lenient recovery applies it.
            workload_index: 4,
            expected: &[Consequence::TxnAtomicityBroken],
            note: "the commit record reaches the device in two chunks with \
                   a persistence point between them; crash recovery applies \
                   the parseable prefix, splitting the transaction",
        },
        AppCorpusEntry {
            id: "app-03",
            title: "WAL replayed twice after compaction",
            mutant: "double-replay",
            also: &[],
            // Workload 1: a single committed append — the non-idempotent
            // op that doubles when the WAL replays again.
            workload_index: 1,
            expected: &[Consequence::TxnReplayNotIdempotent],
            note: "compaction stamps the snapshot with the pre-replay \
                   sequence number, so every subsequent open replays the \
                   WAL again and appends are applied twice",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use b3_fs_flash::FlashFsSpec;
    use b3_fs_journal::JournalFsSpec;
    use b3_vfs::KernelEra;

    #[test]
    fn entry_workloads_are_in_bounds_and_ids_unique() {
        let entries = seeded_bugs();
        assert_eq!(entries.len(), 3);
        let mut ids: Vec<&str> = entries.iter().map(|e| e.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 3);
        for entry in &entries {
            assert!(entry.workload_index < entry.bounds().candidates());
            assert!(EngineProfile::only(entry.mutant).is_some(), "{}", entry.id);
        }
    }

    #[test]
    fn every_entry_detects_on_flashfs_and_fixed_engine_is_clean() {
        let spec = FlashFsSpec::new(KernelEra::Patched);
        let mut claimed = Vec::new();
        for entry in seeded_bugs() {
            let check = entry.replay(&spec).unwrap();
            assert!(
                check.detected_expected,
                "{} should detect {:?}, outcome {:?}",
                entry.id, entry.expected, check.outcome.bugs
            );
            let fixed = entry.replay_fixed(&spec).unwrap();
            assert!(
                !fixed.found_bug(),
                "{} fixed engine flagged: {:?}",
                entry.id,
                fixed.bugs
            );
            // Attribution: each `also` mutant alone detects it too, and the
            // engine's other mutants do not.
            let mut named = 0;
            for &mutant in std::iter::once(&entry.mutant).chain(entry.also) {
                let engine = EngineProfile::only(mutant).unwrap();
                named |= engine.bits();
                let check = entry.replay_on(&spec, engine).unwrap();
                assert!(check.detected_expected, "{}: {mutant} alone", entry.id);
                claimed.push(mutant);
            }
            let rest = EngineProfile::from_bits(EngineProfile::all().bits() & !named).unwrap();
            let check = entry.replay_on(&spec, rest).unwrap();
            assert!(
                !check.detected_expected,
                "{} is detected without {} and {:?}: {:?}",
                entry.id, entry.mutant, entry.also, check.outcome.bugs
            );
        }
        claimed.sort_unstable();
        claimed.dedup();
        let mut mutants: Vec<_> = EngineProfile::all().enabled().collect();
        mutants.sort_unstable();
        assert_eq!(claimed, mutants, "every WalKv mutant is claimed");
    }

    /// JournalFs's ext4-style ordered journaling flushes dirty data as part
    /// of committing the journal transaction an fsync forces, so the
    /// skipped data-fsync barrier is masked: the commit record can never be
    /// durable ahead of the value bytes. This is faithful to real ext4
    /// `data=ordered` and worth pinning — it is exactly why FIRST-style
    /// app-level bugs need testing on more than one file system.
    #[test]
    fn ordered_journaling_masks_the_data_fsync_bug() {
        let spec = JournalFsSpec::new(KernelEra::Patched);
        for entry in seeded_bugs() {
            let check = entry.replay(&spec).unwrap();
            let expect_detect = entry.id != "app-01";
            assert_eq!(
                check.detected_expected, expect_detect,
                "{} on journalfs: outcome {:?}",
                entry.id, check.outcome.bugs
            );
        }
    }
}
