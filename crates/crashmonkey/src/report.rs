//! Bug reports, consequences, and per-workload outcomes.

use std::fmt;
use std::time::Duration;

use b3_vfs::snapshot::SnapshotDiff;
use b3_vfs::workload::Workload;

/// The observable consequence of a crash-consistency bug, ordered by
/// severity. These mirror the consequence classes of the paper's Tables 1,
/// 2 and 5 ("corruption", "data inconsistency", "un-mountable file system",
/// broken rename atomicity, missing files/directories, lost blocks, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Consequence {
    /// Extended attributes differ from what was persisted.
    XattrInconsistent,
    /// A symlink recovered with an empty target.
    SymlinkEmpty,
    /// Allocated blocks (st_blocks) were lost.
    BlocksLost,
    /// The file size differs from the persisted size (but grew, or changed
    /// without data loss).
    WrongSize,
    /// Persisted file contents are corrupted.
    DataCorruption,
    /// Persisted data or size was lost (file recovered shorter or empty).
    DataLoss,
    /// A rename left the file visible in both the old and the new location.
    FileInBothLocations,
    /// A persisted directory is missing after recovery.
    DirectoryMissing,
    /// A persisted file is missing after recovery.
    FileMissing,
    /// A directory cannot be removed after recovery (stale entries/size).
    DirectoryUnremovable,
    /// New files cannot be created after recovery.
    CannotCreateFiles,
    /// The file system cannot be mounted at all.
    Unmountable,
    /// Application-level (see `b3_app`): recovering the same crash state
    /// twice yields different engine states — WAL replay is not idempotent
    /// (e.g. a stale `applied_seq` re-applies records on every open).
    TxnReplayNotIdempotent,
    /// Application-level: the recovered engine state is not an atomic
    /// prefix of the committed transaction history — some transaction
    /// applied partially (torn commit record, commit record durable before
    /// its data).
    TxnAtomicityBroken,
    /// Application-level: effects of an aborted (or never-committed)
    /// transaction survived recovery.
    TxnResurrection,
    /// Application-level: a transaction whose commit was acknowledged as
    /// durable is missing after recovery.
    TxnDurabilityLoss,
}

impl Consequence {
    /// Short human-readable description matching the paper's wording.
    pub fn describe(&self) -> &'static str {
        match self {
            Consequence::XattrInconsistent => "extended attributes inconsistent",
            Consequence::SymlinkEmpty => "symlink recovered empty",
            Consequence::BlocksLost => "allocated blocks lost",
            Consequence::WrongSize => "file recovers to incorrect size",
            Consequence::DataCorruption => "persisted data corrupted",
            Consequence::DataLoss => "persisted data lost",
            Consequence::FileInBothLocations => "rename persists file in both locations",
            Consequence::DirectoryMissing => "persisted directory missing",
            Consequence::FileMissing => "persisted file missing",
            Consequence::DirectoryUnremovable => "directory un-removable",
            Consequence::CannotCreateFiles => "unable to create new files",
            Consequence::Unmountable => "file system unmountable",
            Consequence::TxnReplayNotIdempotent => "WAL replay not idempotent",
            Consequence::TxnAtomicityBroken => "committed transaction applied partially",
            Consequence::TxnResurrection => "aborted transaction resurrected",
            Consequence::TxnDurabilityLoss => "committed transaction lost",
        }
    }

    /// The coarse study category used by Table 1 (corruption / data
    /// inconsistency / un-mountable), extended with the application-level
    /// bucket `b3_app`'s transaction oracle reports into.
    pub fn study_category(&self) -> &'static str {
        match self {
            Consequence::Unmountable => "un-mountable",
            Consequence::DataLoss
            | Consequence::DataCorruption
            | Consequence::WrongSize
            | Consequence::BlocksLost
            | Consequence::XattrInconsistent
            | Consequence::SymlinkEmpty => "data inconsistency",
            Consequence::TxnReplayNotIdempotent
            | Consequence::TxnAtomicityBroken
            | Consequence::TxnResurrection
            | Consequence::TxnDurabilityLoss => "application",
            _ => "corruption",
        }
    }
}

impl Consequence {
    /// Stable one-byte code for serialization (sweep checkpoints).
    pub fn code(&self) -> u8 {
        match self {
            Consequence::XattrInconsistent => 0,
            Consequence::SymlinkEmpty => 1,
            Consequence::BlocksLost => 2,
            Consequence::WrongSize => 3,
            Consequence::DataCorruption => 4,
            Consequence::DataLoss => 5,
            Consequence::FileInBothLocations => 6,
            Consequence::DirectoryMissing => 7,
            Consequence::FileMissing => 8,
            Consequence::DirectoryUnremovable => 9,
            Consequence::CannotCreateFiles => 10,
            Consequence::Unmountable => 11,
            Consequence::TxnReplayNotIdempotent => 12,
            Consequence::TxnAtomicityBroken => 13,
            Consequence::TxnResurrection => 14,
            Consequence::TxnDurabilityLoss => 15,
        }
    }

    /// Inverse of [`Consequence::code`].
    pub fn from_code(code: u8) -> Option<Consequence> {
        Some(match code {
            0 => Consequence::XattrInconsistent,
            1 => Consequence::SymlinkEmpty,
            2 => Consequence::BlocksLost,
            3 => Consequence::WrongSize,
            4 => Consequence::DataCorruption,
            5 => Consequence::DataLoss,
            6 => Consequence::FileInBothLocations,
            7 => Consequence::DirectoryMissing,
            8 => Consequence::FileMissing,
            9 => Consequence::DirectoryUnremovable,
            10 => Consequence::CannotCreateFiles,
            11 => Consequence::Unmountable,
            12 => Consequence::TxnReplayNotIdempotent,
            13 => Consequence::TxnAtomicityBroken,
            14 => Consequence::TxnResurrection,
            15 => Consequence::TxnDurabilityLoss,
            _ => return None,
        })
    }
}

impl fmt::Display for Consequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.describe())
    }
}

/// A set of consequences, one bit per [`Consequence::code`]: what a bug
/// report's `all_consequences` lists, held without allocating. Codes run in
/// severity order, so iteration is ascending and the last member is the
/// most severe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ConsequenceSet(u16);

impl ConsequenceSet {
    /// Adds `consequence` to the set.
    pub fn insert(&mut self, consequence: Consequence) {
        self.0 |= 1 << consequence.code();
    }

    /// The members, least severe first: the order (sorted, without
    /// duplicates) of [`BugReport::all_consequences`].
    pub fn iter(self) -> impl Iterator<Item = Consequence> {
        (0..16u8)
            .filter(move |code| self.0 >> code & 1 == 1)
            .filter_map(Consequence::from_code)
    }

    /// The most severe member.
    pub fn max(self) -> Option<Consequence> {
        self.iter().last()
    }
}

impl FromIterator<Consequence> for ConsequenceSet {
    fn from_iter<I: IntoIterator<Item = Consequence>>(consequences: I) -> Self {
        let mut set = ConsequenceSet::default();
        for consequence in consequences {
            set.insert(consequence);
        }
        set
    }
}

/// A bug report that was counted rather than rendered: its group already
/// had an exemplar the caller holds from a workload named no later than
/// this one, or an earlier report of the same workload
/// ([`Exemplars`](crate::target::Exemplars)), so its text could never be
/// kept. Everything grouping and auditing read is here; the
/// workload, skeleton and file system are the outcome's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountedReport {
    /// The checkpoint after which the crash was simulated.
    pub crash_point: u32,
    /// Primary (most severe) consequence: the group the report counts in.
    pub consequence: Consequence,
    /// Every consequence observed at this crash point.
    pub all_consequences: ConsequenceSet,
}

/// A single crash-consistency bug report, as produced by the AutoChecker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BugReport {
    /// Name of the workload that exposed the bug.
    pub workload_name: String,
    /// The workload's skeleton (core operation kinds), the grouping key used
    /// for post-processing (§5.3, Figure 5).
    pub skeleton: String,
    /// The target file system.
    pub fs_name: String,
    /// The checkpoint (persistence point) after which the crash was
    /// simulated.
    pub crash_point: u32,
    /// Primary (most severe) consequence.
    pub consequence: Consequence,
    /// Every consequence observed at this crash point (the primary one is
    /// the maximum of these).
    pub all_consequences: Vec<Consequence>,
    /// The expected state of the persisted files, human-readable.
    pub expected: String,
    /// The observed state after recovery, human-readable.
    pub actual: String,
    /// Detailed read-check differences.
    pub diffs: Vec<SnapshotDiff>,
    /// Write-check failures (un-removable directories, failed creates).
    pub write_check_failures: Vec<String>,
}

impl BugReport {
    /// The key used to group reports that are manifestations of the same
    /// underlying bug: identical skeleton and consequence (§5.3).
    pub fn group_key(&self) -> (String, Consequence) {
        (self.skeleton.clone(), self.consequence)
    }

    /// Serializes the report with the workspace codec; the inverse of
    /// [`BugReport::decode`]. Sweep checkpoints persist reports this way so
    /// a resumed sweep reproduces the uninterrupted run's `RunSummary`.
    pub fn encode(&self, enc: &mut b3_vfs::codec::Encoder) {
        enc.put_str(&self.workload_name);
        enc.put_str(&self.skeleton);
        enc.put_str(&self.fs_name);
        enc.put_u32(self.crash_point);
        enc.put_u8(self.consequence.code());
        enc.put_u64(self.all_consequences.len() as u64);
        for consequence in &self.all_consequences {
            enc.put_u8(consequence.code());
        }
        enc.put_str(&self.expected);
        enc.put_str(&self.actual);
        enc.put_u64(self.diffs.len() as u64);
        for diff in &self.diffs {
            diff.encode(enc);
        }
        enc.put_u64(self.write_check_failures.len() as u64);
        for failure in &self.write_check_failures {
            enc.put_str(failure);
        }
    }

    /// Deserializes a report produced by [`BugReport::encode`]. Every
    /// declared element count is validated against the remaining buffer
    /// before allocation, so a truncated or corrupt input (e.g. a desynced
    /// worker frame) yields an error instead of a huge allocation.
    pub fn decode(dec: &mut b3_vfs::codec::Decoder<'_>) -> b3_vfs::error::FsResult<BugReport> {
        use b3_vfs::error::FsError;
        let get_consequence = |dec: &mut b3_vfs::codec::Decoder<'_>| {
            let code = dec.get_u8()?;
            Consequence::from_code(code)
                .ok_or_else(|| FsError::Corrupted(format!("unknown consequence code {code}")))
        };
        // `min_element_bytes` is a floor on the encoded size of one element,
        // so `count * min > remaining` proves the count is bogus.
        let get_count = |dec: &mut b3_vfs::codec::Decoder<'_>, min_element_bytes: usize, what| {
            let count = dec.get_u64()? as usize;
            if count > dec.remaining() / min_element_bytes {
                return Err(FsError::Corrupted(format!(
                    "bug report declares {count} {what} but only {} bytes remain",
                    dec.remaining()
                )));
            }
            Ok(count)
        };
        let workload_name = dec.get_str()?;
        let skeleton = dec.get_str()?;
        let fs_name = dec.get_str()?;
        let crash_point = dec.get_u32()?;
        let consequence = get_consequence(dec)?;
        let count = get_count(dec, 1, "consequences")?;
        let mut all_consequences = Vec::with_capacity(count);
        for _ in 0..count {
            all_consequences.push(get_consequence(dec)?);
        }
        let expected = dec.get_str()?;
        let actual = dec.get_str()?;
        let count = get_count(dec, 9, "diffs")?;
        let mut diffs = Vec::with_capacity(count);
        for _ in 0..count {
            diffs.push(SnapshotDiff::decode(dec)?);
        }
        let count = get_count(dec, 8, "write-check failures")?;
        let mut write_check_failures = Vec::with_capacity(count);
        for _ in 0..count {
            write_check_failures.push(dec.get_str()?);
        }
        Ok(BugReport {
            workload_name,
            skeleton,
            fs_name,
            crash_point,
            consequence,
            all_consequences,
            expected,
            actual,
            diffs,
            write_check_failures,
        })
    }
}

impl fmt::Display for BugReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] {} on {} (crash point {}): {}",
            self.workload_name, self.skeleton, self.fs_name, self.crash_point, self.consequence
        )?;
        writeln!(f, "  expected: {}", self.expected)?;
        writeln!(f, "  actual:   {}", self.actual)?;
        for diff in &self.diffs {
            writeln!(f, "  - {diff}")?;
        }
        for failure in &self.write_check_failures {
            writeln!(f, "  - write check: {failure}")?;
        }
        Ok(())
    }
}

/// Wall-clock timing of the three CrashMonkey phases (§6.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTiming {
    /// Profiling the workload.
    pub profile: Duration,
    /// Constructing crash states (replaying recorded IO up to each
    /// checkpoint; includes [`PhaseTiming::recovery`]).
    pub crash_state_construction: Duration,
    /// Recovering each constructed crash state — the part of construction
    /// spent in the file system's recover (a mount without its write-back)
    /// rather than in building the state.
    pub recovery: Duration,
    /// Consistency checking.
    pub checking: Duration,
    /// End-to-end time.
    pub total: Duration,
    /// The modeled kernel-imposed delay (mount + settle) that the real
    /// CrashMonkey pays per workload; zero unless the configuration enables
    /// modeling (see `CrashMonkeyConfig::model_kernel_delays`).
    pub modeled_kernel_delay_seconds: f64,
}

impl PhaseTiming {
    /// End-to-end latency including the modeled kernel delays, in seconds —
    /// the number to compare against the paper's 4.6 s.
    pub fn modeled_total_seconds(&self) -> f64 {
        self.total.as_secs_f64() + self.modeled_kernel_delay_seconds
    }
}

/// Resource accounting for one workload (§6.5).
#[derive(Debug, Clone, Copy, Default)]
pub struct ResourceStats {
    /// Bytes of block IO recorded while profiling.
    pub recorded_io_bytes: u64,
    /// Bytes held in copy-on-write overlays across all constructed crash
    /// states (the paper's ~20 MB average memory consumption figure).
    pub crash_state_overlay_bytes: u64,
    /// Bytes of persistent storage used by the serialized workload (the
    /// paper reports ~480 KB per workload).
    pub workload_storage_bytes: u64,
}

/// Length in bytes of `value`'s text rendering, counted as it is written
/// instead of by building the string.
pub(crate) fn rendered_len(value: &impl std::fmt::Display) -> u64 {
    struct ByteCount(u64);
    impl std::fmt::Write for ByteCount {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 += s.len() as u64;
            Ok(())
        }
    }
    let mut count = ByteCount(0);
    // The sink never fails, and neither do the workload language's
    // `Display` impls.
    let _ = std::fmt::Write::write_fmt(&mut count, format_args!("{value}"));
    count.0
}

/// The outcome of testing one workload on one file system.
#[derive(Debug, Clone)]
pub struct WorkloadOutcome {
    /// The workload's name.
    pub workload_name: String,
    /// The workload's skeleton string.
    pub skeleton: String,
    /// The file system under test.
    pub fs_name: String,
    /// Bug reports, rendered in full (empty when the workload passed).
    pub bugs: Vec<BugReport>,
    /// Bug reports that were only counted: those whose group already had an
    /// exemplar the caller holds from a workload named no later than this
    /// one, or a report earlier in `bugs`. Empty unless the caller passed its exemplars to
    /// [`target::test`](crate::target::test), as the sweep's shard loop
    /// does; a report is in exactly one of `bugs` and `counted`.
    pub counted: Vec<CountedReport>,
    /// Number of crash points *dynamically* tested by this call
    /// (constructed, recovered, checked).
    pub checkpoints_tested: u32,
    /// Crash points covered without constructing and recovering their crash
    /// state. For a file-system workload that is a verdict reused: a triage
    /// witness's under `CrashPointPolicy::AllTriaged`, the one a sibling
    /// workload left at the checkpoint, inside the operation prefix the two
    /// share, under `CrashPointPolicy::All`; zero under `LastOnly`. For a
    /// `b3_app` workload it is a recovery a sibling workload left in the
    /// trunk, under every policy (the verdict is still the workload's own).
    /// Total coverage is `checkpoints_tested + checkpoints_reused`.
    pub checkpoints_reused: u32,
    /// Reused crash states that the triage audit additionally re-tested
    /// dynamically (these count toward `checkpoints_tested`, not
    /// `checkpoints_reused`).
    pub triage_audited: u32,
    /// Triage audit divergences: reused verdicts (for `b3_app`, reused
    /// recoveries) whose dynamic re-test did not match what was held.
    /// Non-empty output means the triage key failed to capture a checker
    /// input (or a digest collision occurred) — for `b3_app`, that a held
    /// recovery was answered to a crash state it does not belong to — and
    /// must be treated as a bug.
    pub triage_divergences: Vec<String>,
    /// Set when the workload could not be executed (invalid op sequence).
    pub skipped: Option<String>,
    /// Phase timings.
    pub timing: PhaseTiming,
    /// Resource accounting.
    pub resource: ResourceStats,
}

impl WorkloadOutcome {
    /// Creates an empty outcome for a workload.
    pub fn new(workload: &Workload, fs_name: &str) -> Self {
        Self::from_parts(workload.name.clone(), workload.skeleton_string(), fs_name)
    }

    /// Creates an empty outcome from raw name/skeleton strings — for
    /// workload kinds that are not syscall sequences (the `b3_app`
    /// transaction workloads).
    pub fn from_parts(workload_name: String, skeleton: String, fs_name: &str) -> Self {
        WorkloadOutcome {
            workload_name,
            skeleton,
            fs_name: fs_name.to_string(),
            bugs: Vec::new(),
            counted: Vec::new(),
            checkpoints_tested: 0,
            checkpoints_reused: 0,
            triage_audited: 0,
            triage_divergences: Vec::new(),
            skipped: None,
            timing: PhaseTiming::default(),
            resource: ResourceStats::default(),
        }
    }

    /// True if the workload ran and revealed at least one bug.
    pub fn found_bug(&self) -> bool {
        !self.bugs.is_empty() || !self.counted.is_empty()
    }

    /// The `(crash point, primary consequence)` of every bug report,
    /// rendered or counted.
    pub fn report_keys(&self) -> impl Iterator<Item = (u32, Consequence)> + '_ {
        let rendered = self
            .bugs
            .iter()
            .map(|bug| (bug.crash_point, bug.consequence));
        let counted = self.counted.iter().map(|c| (c.crash_point, c.consequence));
        rendered.chain(counted)
    }

    /// The most severe consequence among this outcome's bug reports.
    pub fn worst_consequence(&self) -> Option<Consequence> {
        self.report_keys().map(|(_, consequence)| consequence).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consequence_ordering_puts_unmountable_on_top() {
        assert!(Consequence::Unmountable > Consequence::FileMissing);
        assert!(Consequence::FileMissing > Consequence::DataLoss);
        assert!(Consequence::DataLoss > Consequence::BlocksLost);
        assert!(Consequence::CannotCreateFiles > Consequence::DirectoryUnremovable);
    }

    #[test]
    fn study_categories_match_table1_buckets() {
        assert_eq!(Consequence::Unmountable.study_category(), "un-mountable");
        assert_eq!(Consequence::DataLoss.study_category(), "data inconsistency");
        assert_eq!(Consequence::FileMissing.study_category(), "corruption");
        assert_eq!(
            Consequence::DirectoryUnremovable.study_category(),
            "corruption"
        );
        assert_eq!(
            Consequence::TxnAtomicityBroken.study_category(),
            "application"
        );
        assert_eq!(
            Consequence::TxnDurabilityLoss.study_category(),
            "application"
        );
        // Within the application bucket, durability loss outranks the rest.
        assert!(Consequence::TxnDurabilityLoss > Consequence::TxnResurrection);
        assert!(Consequence::TxnResurrection > Consequence::TxnAtomicityBroken);
        assert!(Consequence::TxnAtomicityBroken > Consequence::TxnReplayNotIdempotent);
    }

    #[test]
    fn report_display_includes_expected_and_actual() {
        let report = BugReport {
            workload_name: "w1".into(),
            skeleton: "link-write".into(),
            fs_name: "cowfs".into(),
            crash_point: 2,
            consequence: Consequence::DataLoss,
            all_consequences: vec![Consequence::DataLoss],
            expected: "foo: 16384 bytes".into(),
            actual: "foo: 0 bytes".into(),
            diffs: vec![],
            write_check_failures: vec![],
        };
        let text = report.to_string();
        assert!(text.contains("persisted data lost"));
        assert!(text.contains("16384"));
        assert!(text.contains("crash point 2"));
        assert_eq!(report.group_key().1, Consequence::DataLoss);
    }

    #[test]
    fn bug_report_codec_round_trips() {
        let report = BugReport {
            workload_name: "seq-2-0001234".into(),
            skeleton: "rename-fsync".into(),
            fs_name: "cowfs".into(),
            crash_point: 3,
            consequence: Consequence::FileInBothLocations,
            all_consequences: vec![Consequence::FileMissing, Consequence::FileInBothLocations],
            expected: "persisted: B/foo".into(),
            actual: "A/foo resurrected".into(),
            diffs: vec![
                SnapshotDiff::Unexpected {
                    path: "A/foo".into(),
                },
                SnapshotDiff::SizeMismatch {
                    path: "B/foo".into(),
                    expected: 8192,
                    actual: 0,
                },
            ],
            write_check_failures: vec!["directory 'A' cannot be removed".into()],
        };
        let mut enc = b3_vfs::codec::Encoder::new();
        report.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = b3_vfs::codec::Decoder::new(&bytes);
        let decoded = BugReport::decode(&mut dec).unwrap();
        assert_eq!(decoded, report);
        assert!(dec.is_exhausted());

        for code in 0..=15u8 {
            assert_eq!(Consequence::from_code(code).unwrap().code(), code);
        }
        // `ConsequenceSet` iterates by code: codes must run in severity order.
        for code in 1..=15u8 {
            assert!(Consequence::from_code(code - 1) < Consequence::from_code(code));
        }
        assert!(Consequence::from_code(99).is_none());
    }

    #[test]
    fn a_consequence_set_lists_its_members_sorted_and_once() {
        use Consequence::*;
        let set: ConsequenceSet = [TxnDurabilityLoss, DataLoss, XattrInconsistent, DataLoss]
            .into_iter()
            .collect();
        let members: Vec<_> = set.iter().collect();
        assert_eq!(members, [XattrInconsistent, DataLoss, TxnDurabilityLoss]);
        assert_eq!(set.max(), Some(TxnDurabilityLoss));
        assert_eq!(ConsequenceSet::default().max(), None);
    }

    #[test]
    fn modeled_total_adds_delay() {
        let timing = PhaseTiming {
            total: Duration::from_millis(100),
            modeled_kernel_delay_seconds: 3.9,
            ..PhaseTiming::default()
        };
        assert!((timing.modeled_total_seconds() - 4.0).abs() < 1e-9);
    }
}
