//! The reproduction corpus: every previously-reported crash-consistency bug
//! the paper reproduces (Appendix 9.1) and every new bug CrashMonkey and ACE
//! found (Table 5 / Appendix 9.2), as executable workloads.
//!
//! Each entry records the target file system, the kernel era whose bug set
//! exposes it, the workload in the ACE text format, and the consequences the
//! AutoChecker is expected to classify it as. `ReproStatus::Approximate`
//! marks entries whose workload had to be adapted to the simulation (for
//! example, fsync of an already-unlinked open file descriptor is not
//! expressible through a path-based API); the note explains the adaptation.
//! The two bugs the paper itself could not reproduce within the B3 bounds
//! are included as `NotReproduced` entries for completeness.

use b3_crashmonkey::{Consequence, CrashMonkey, CrashMonkeyConfig, WorkloadOutcome};
use b3_fs_cow::{CowBugs, CowFsSpec};
use b3_fs_flash::{FlashBugs, FlashFsSpec};
use b3_fs_journal::{JournalBugs, JournalFsSpec};
use b3_fs_veri::{VeriBugs, VeriFsSpec};
use b3_vfs::error::FsResult;
use b3_vfs::fs::FsSpec;
use b3_vfs::workload::{parse_workload, Workload};
use b3_vfs::{KernelEra, MutantSet};

/// Which simulated file system an entry targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsKind {
    /// CowFs, the btrfs stand-in.
    Cow,
    /// FlashFs, the F2FS stand-in.
    Flash,
    /// JournalFs, the ext4 stand-in.
    Journal,
    /// VeriFs, the FSCQ stand-in.
    Veri,
}

impl FsKind {
    /// Every simulated file system.
    pub const ALL: [FsKind; 4] = [FsKind::Cow, FsKind::Flash, FsKind::Journal, FsKind::Veri];

    /// Parses a file-system name: the paper name ([`FsKind::paper_name`],
    /// case-insensitive) or the stand-in's own name (`cowfs`, `flashfs`,
    /// `journalfs`, `verifs`, with or without the `fs` suffix).
    pub fn parse(s: &str) -> Option<FsKind> {
        match s.to_ascii_lowercase().as_str() {
            "btrfs" | "cow" | "cowfs" => Some(FsKind::Cow),
            "f2fs" | "flash" | "flashfs" => Some(FsKind::Flash),
            "ext4" | "journal" | "journalfs" => Some(FsKind::Journal),
            "fscq" | "veri" | "verifs" => Some(FsKind::Veri),
            _ => None,
        }
    }

    /// The real file system this kind stands in for.
    pub fn paper_name(&self) -> &'static str {
        match self {
            FsKind::Cow => "btrfs",
            FsKind::Flash => "F2FS",
            FsKind::Journal => "ext4",
            FsKind::Veri => "FSCQ",
        }
    }

    /// Builds the spec for this file system at the given era.
    pub fn spec(&self, era: KernelEra) -> Box<dyn FsSpec + Sync> {
        match self {
            FsKind::Cow => Box::new(CowFsSpec::new(era)),
            FsKind::Flash => Box::new(FlashFsSpec::new(era)),
            FsKind::Journal => Box::new(JournalFsSpec::new(era)),
            FsKind::Veri => Box::new(VeriFsSpec::new(era)),
        }
    }

    /// The ids of this file system's mutants present at `era` (every one
    /// for `None`), in table order.
    pub fn mutants(&self, era: Option<KernelEra>) -> Vec<&'static str> {
        fn ids<S: MutantSet>(era: Option<KernelEra>) -> Vec<&'static str> {
            era.map_or_else(S::all, S::for_era).enabled().collect()
        }
        match self {
            FsKind::Cow => ids::<CowBugs>(era),
            FsKind::Flash => ids::<FlashBugs>(era),
            FsKind::Journal => ids::<JournalBugs>(era),
            FsKind::Veri => ids::<VeriBugs>(era),
        }
    }

    /// Builds the spec with exactly the named mutants enabled; `None` if one
    /// is not in this file system's table.
    pub fn spec_of(&self, mutants: &[&str]) -> Option<Box<dyn FsSpec + Sync>> {
        Some(match self {
            FsKind::Cow => Box::new(CowFsSpec::with_bugs(set_of(mutants)?)),
            FsKind::Flash => Box::new(FlashFsSpec::with_bugs(set_of(mutants)?)),
            FsKind::Journal => Box::new(JournalFsSpec::with_bugs(set_of(mutants)?)),
            FsKind::Veri => Box::new(VeriFsSpec::with_bugs(set_of(mutants)?)),
        })
    }
}

/// The set with exactly `ids` enabled; `None` if one is not a row.
fn set_of<S: MutantSet>(ids: &[&str]) -> Option<S> {
    let bits = ids
        .iter()
        .try_fold(0, |bits, id| Some(bits | S::only(id)?.bits()))?;
    S::from_bits(bits)
}

/// How faithfully the entry reproduces the reported bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReproStatus {
    /// The reported workload runs as described and the reported consequence
    /// is observed.
    Reproduced,
    /// The workload or consequence had to be adapted to the simulation; the
    /// note explains how.
    Approximate,
    /// Not reproducible within the B3 bounds (matches the paper, which also
    /// could not reproduce these two).
    NotReproduced,
}

/// One corpus entry.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Stable identifier, e.g. `known-16` or `new-07`.
    pub id: &'static str,
    /// Short description of the bug.
    pub title: &'static str,
    /// Target file system.
    pub fs: FsKind,
    /// Kernel era whose bug set exhibits the bug.
    pub era: KernelEra,
    /// The mutant that causes it: an id of `fs`'s mutant table, present at
    /// `era` (empty for `NotReproduced` entries).
    pub mutant: &'static str,
    /// Other mutants present at `era` that each cause it on their own
    /// (usually none).
    pub also: &'static [&'static str],
    /// Workload in the ACE text format (empty for `NotReproduced` entries).
    pub workload_text: &'static str,
    /// Consequences the AutoChecker may classify this bug as.
    pub expected: &'static [Consequence],
    /// Reproduction status.
    pub status: ReproStatus,
    /// Free-form note (adaptation details, kernel reference).
    pub note: &'static str,
}

/// Result of replaying one corpus entry.
#[derive(Debug)]
pub struct CorpusCheck {
    /// The raw CrashMonkey outcome on the buggy-era file system.
    pub outcome: WorkloadOutcome,
    /// True if a bug was detected with one of the expected consequences.
    pub detected_expected: bool,
    /// The primary consequence observed, if any.
    pub observed: Option<Consequence>,
}

impl CorpusEntry {
    /// Parses the entry's workload.
    pub fn workload(&self) -> Workload {
        parse_workload(self.workload_text, self.id).expect("corpus workload must parse")
    }

    /// Runs the entry on its buggy-era file system and checks the observed
    /// consequence against the expected set.
    pub fn replay(&self) -> FsResult<CorpusCheck> {
        self.replay_on(self.fs.spec(self.era).as_ref())
    }

    /// Runs the entry on `spec` (say, one built by [`FsKind::spec_of`]) and
    /// checks the observed consequence against the expected set.
    pub fn replay_on(&self, spec: &dyn FsSpec) -> FsResult<CorpusCheck> {
        let config = CrashMonkeyConfig::exhaustive_crash_points();
        let monkey = CrashMonkey::with_config(spec, config);
        let outcome = monkey.test_workload(&self.workload())?;
        let observed = outcome.worst_consequence();
        let detected_expected = outcome.bugs.iter().any(|bug| {
            self.expected.contains(&bug.consequence)
                || bug
                    .all_consequences
                    .iter()
                    .any(|c| self.expected.contains(c))
        });
        Ok(CorpusCheck {
            outcome,
            detected_expected,
            observed,
        })
    }

    /// Runs the entry on a fully patched file system; a correct file system
    /// must pass every check.
    pub fn replay_patched(&self) -> FsResult<WorkloadOutcome> {
        let spec = self.fs.spec(KernelEra::Patched);
        let config = CrashMonkeyConfig::exhaustive_crash_points();
        let monkey = CrashMonkey::with_config(spec.as_ref(), config);
        monkey.test_workload(&self.workload())
    }

    /// True if the entry has an executable workload.
    pub fn is_runnable(&self) -> bool {
        self.status != ReproStatus::NotReproduced && !self.workload_text.trim().is_empty()
    }
}

use Consequence::{
    BlocksLost, CannotCreateFiles, DataCorruption, DataLoss, DirectoryMissing,
    DirectoryUnremovable, FileInBothLocations, FileMissing, SymlinkEmpty, Unmountable, WrongSize,
    XattrInconsistent,
};

/// The previously-reported bugs of Appendix 9.1 (24 reproduced workloads, two
/// cross-file-system variants, and the two bugs that are out of reach of the
/// B3 bounds).
pub fn known_bugs() -> Vec<CorpusEntry> {
    let era = KernelEra::V3_13;
    vec![
        CorpusEntry {
            id: "known-01",
            title: "fsync after renaming file loses the renamed file",
            fs: FsKind::Cow,
            era,
            mutant: "name_reuse_breaks_replay",
            also: &[],
            workload_text: "[setup]\nmkdir A\ncreat A/foo\n[ops]\nwrite A/foo 0 16384\nsync\nrename A/foo A/bar\ncreat A/foo\nwrite A/foo 0 4096\nfsync A/foo",
            expected: &[FileMissing, Unmountable],
            status: ReproStatus::Approximate,
            note: "generic/test for fsync after renaming file (btrfs; the F2FS half is not reproduced). The reported loss of the renamed file leaves it orphaned, which the AutoChecker cannot see: rename_source_not_logged alone reports nothing, so what is detected is the name-reuse replay abort of the same workload",
        },
        CorpusEntry {
            id: "known-02",
            title: "fdatasync after fallocate(KEEP_SIZE) loses blocks beyond EOF",
            fs: FsKind::Journal,
            era,
            mutant: "fdatasync_skips_falloc_beyond_eof",
            also: &[],
            workload_text: "[setup]\ncreat foo\n[ops]\nwrite foo 0 8192\nfsync foo\nfalloc foo keep_size 8192 8192\nfdatasync foo",
            expected: &[BlocksLost],
            status: ReproStatus::Reproduced,
            note: "ext4 & F2FS; ext4: fix fdatasync(2) after fallocate(2)",
        },
        CorpusEntry {
            id: "known-02-f2fs",
            title: "fdatasync after fallocate(KEEP_SIZE) loses blocks beyond EOF (F2FS)",
            fs: FsKind::Flash,
            era,
            mutant: "fdatasync_skips_falloc_beyond_eof",
            also: &[],
            workload_text: "[setup]\ncreat foo\n[ops]\nwrite foo 0 8192\nfsync foo\nfalloc foo keep_size 8192 8192\nfdatasync foo",
            expected: &[BlocksLost],
            status: ReproStatus::Reproduced,
            note: "F2FS variant of known-02",
        },
        CorpusEntry {
            id: "known-03",
            title: "log replay failure after linking special file and fsync",
            fs: FsKind::Cow,
            era,
            mutant: "name_reuse_breaks_replay",
            also: &[],
            workload_text: "[setup]\nmkdir A\n[ops]\nmkfifo A/foo\ncreat A/dummy\nsync\nrename A/foo A/bar\nlink A/bar A/foo\nunlink A/dummy\ncreat A/dummy\nfsync A/dummy",
            expected: &[Unmountable],
            status: ReproStatus::Approximate,
            note: "fsync of an unlinked-but-open fd is not expressible path-based; the name-reuse pattern that breaks log replay is preserved",
        },
        CorpusEntry {
            id: "known-04",
            title: "direct write past on-disk size recovers with size 0",
            fs: FsKind::Journal,
            era,
            mutant: "direct_write_skips_disksize",
            also: &[],
            workload_text: "[setup]\ncreat foo\n[ops]\nsync\nwrite foo 16384 4096\ndwrite foo 0 4096",
            expected: &[DataLoss, DataCorruption],
            status: ReproStatus::Reproduced,
            note: "ext4: update i_disksize if direct write past ondisk size",
        },
        CorpusEntry {
            id: "known-05",
            title: "unlink of hard link, recreate, fsync makes fs unmountable",
            fs: FsKind::Cow,
            era,
            mutant: "name_reuse_breaks_replay",
            also: &[],
            workload_text: "[setup]\nmkdir A\ncreat A/foo\n[ops]\nlink A/foo A/bar\nsync\nunlink A/bar\ncreat A/bar\nfsync A/bar",
            expected: &[Unmountable],
            status: ReproStatus::Reproduced,
            note: "same name-reuse pattern as Figure 1",
        },
        CorpusEntry {
            id: "known-06",
            title: "cannot create files after fsync and crash",
            fs: FsKind::Cow,
            era,
            mutant: "replay_resets_inode_allocator",
            also: &[],
            workload_text: "[setup]\nmkdir A\n[ops]\ncreat A/foo\nfsync A/foo",
            expected: &[CannotCreateFiles],
            status: ReproStatus::Reproduced,
            note: "btrfs: fix unexpected -EEXIST when creating new inode",
        },
        CorpusEntry {
            id: "known-07",
            title: "file lost on log replay after rename and fsync",
            fs: FsKind::Cow,
            era,
            mutant: "fsync_renamed_file_skips_new_name",
            also: &[],
            workload_text: "[setup]\nmkdir A\nmkdir B\nmkdir C\ncreat A/foo\n[ops]\nlink A/foo B/foo_link\ncreat B/bar\nsync\nunlink B/foo_link\nrename B/bar C/bar\nfsync C/bar",
            expected: &[FileMissing, DirectoryMissing],
            status: ReproStatus::Approximate,
            note: "original fsyncs an unrelated sibling; the reproduction persists the renamed file itself, same consequence, caused by the unlogged rename of the fsynced file",
        },
        CorpusEntry {
            id: "known-08",
            title: "renamed directory and contents missing after fsync",
            fs: FsKind::Cow,
            era,
            mutant: "dir_fsync_misses_renames",
            also: &[],
            workload_text: "[setup]\nmkdir A\nmkdir A/B\nmkdir A/C\ncreat A/B/foo\ncreat A/B/bar\n[ops]\nsync\nrename A/B A/C\nmkdir A/B\nfsync A/C",
            expected: &[FileMissing, DirectoryMissing, DataLoss, FileInBothLocations],
            status: ReproStatus::Approximate,
            note: "original fsyncs the new A/B; the reproduction persists the renamed directory, same consequence",
        },
        CorpusEntry {
            id: "known-09",
            title: "rename persists files in both directories",
            fs: FsKind::Cow,
            era,
            mutant: "fsync_logs_sibling_dentries",
            also: &[],
            workload_text: "[setup]\nmkdir A\nmkdir B\ncreat A/foo\ncreat B/baz\nmkdir B/C\n[ops]\nsync\nlink A/foo A/bar\nrename B/baz A/baz\nrename B/C A/C\nfsync A/foo",
            expected: &[FileInBothLocations, DirectoryUnremovable],
            status: ReproStatus::Approximate,
            note: "btrfs: fix for incorrect directory entries after fsync log replay; the fsync logs the renamed-in siblings' dentries without their inodes, which shows as an un-removable directory rather than as files in both directories",
        },
        CorpusEntry {
            id: "known-10",
            title: "empty symlink after fsync of parent directory",
            fs: FsKind::Cow,
            era,
            mutant: "symlink_target_not_logged",
            also: &[],
            workload_text: "[setup]\nmkdir A\n[ops]\nsync\nsymlink foo A/bar\nfsync A",
            expected: &[SymlinkEmpty],
            status: ReproStatus::Reproduced,
            note: "btrfs: fix empty symlink after creating symlink and fsync parent dir",
        },
        CorpusEntry {
            id: "known-11",
            title: "persisted file missing after fsync of renamed file",
            fs: FsKind::Cow,
            era,
            mutant: "fsync_renamed_file_skips_new_name",
            also: &["fsync_skips_other_names"],
            workload_text: "[setup]\nmkdir A\ncreat A/foo\n[ops]\nfsync A\nfsync A/foo\nrename A/foo A/bar\ncreat A/foo\nfsync A/bar",
            expected: &[FileMissing],
            status: ReproStatus::Approximate,
            note: "fstests: generic test for fsync after file rename; only the missing file is this bug: the earlier crash points show the known-06 and known-21 mechanisms, and without this mutant the last one is unmountable through replay_keeps_old_dentry_after_rename together with name_reuse_breaks_replay",
        },
        CorpusEntry {
            id: "known-12",
            title: "hole punch not persisted by fsync (no-holes feature)",
            fs: FsKind::Cow,
            era,
            mutant: "punch_hole_not_logged",
            also: &[],
            workload_text: "[setup]\ncreat foo\n[ops]\nwrite foo 0 135168\nsync\nfalloc foo punch_hole 32768 98304\nfsync foo",
            expected: &[DataCorruption, WrongSize],
            status: ReproStatus::Approximate,
            note: "the original relies on data written in the same transaction; the reproduction commits the data first so the stale extents have durable content to resurface",
        },
        CorpusEntry {
            id: "known-13",
            title: "stale directory entries after fsync log replay (sibling links)",
            fs: FsKind::Cow,
            era,
            mutant: "fsync_logs_sibling_dentries",
            also: &[],
            workload_text: "[setup]\nmkdir A\ncreat A/foo\ncreat A/bar\n[ops]\nsync\nlink A/foo A/foo_link\nlink A/bar A/bar_link\nfsync A/bar",
            expected: &[DirectoryUnremovable],
            status: ReproStatus::Reproduced,
            note: "btrfs: fix stale directory entries after fsync log replay",
        },
        CorpusEntry {
            id: "known-14",
            title: "second mmap write lost after ranged msync",
            fs: FsKind::Cow,
            era,
            mutant: "ranged_msync_clears_dirty",
            also: &[],
            workload_text: "[setup]\ncreat foo\n[ops]\nwrite foo 0 262144\nsync\nmmap foo 0 262144\nmwrite foo 0 4096\nmwrite foo 258048 4096\nmsync foo 0 65536\nmsync foo 196608 65536",
            expected: &[DataCorruption, DataLoss],
            status: ReproStatus::Reproduced,
            note: "btrfs: fix fsync data loss after a ranged fsync",
        },
        CorpusEntry {
            id: "known-15",
            title: "directory un-removable after removing hard link and fsync",
            fs: FsKind::Cow,
            era,
            mutant: "replay_skips_dentry_removal_multilink",
            also: &[],
            workload_text: "[setup]\nmkdir A\n[ops]\nsync\ncreat A/foo\nlink A/foo A/bar\nsync\nunlink A/bar\nfsync A/foo",
            expected: &[DirectoryUnremovable],
            status: ReproStatus::Reproduced,
            note: "btrfs: fix metadata inconsistencies after directory fsync",
        },
        CorpusEntry {
            id: "known-16",
            title: "fsync data loss after adding hard link",
            fs: FsKind::Cow,
            era,
            mutant: "link_fsync_stale_inode",
            also: &["append_after_link_stale_extent"],
            workload_text: "[setup]\nmkdir A\ncreat A/foo\n[ops]\nsync\nwrite A/foo 0 16384\nlink A/foo A/bar\nfsync A/foo",
            expected: &[DataLoss],
            status: ReproStatus::Reproduced,
            note: "btrfs: fix fsync data loss after adding hard link to inode",
        },
        CorpusEntry {
            id: "known-17",
            title: "punch hole of partial page not persisted",
            fs: FsKind::Cow,
            era,
            mutant: "punch_hole_not_logged",
            also: &[],
            workload_text: "[setup]\ncreat foo\n[ops]\nwrite foo 0 16384\nsync\nfalloc foo punch_hole 8000 4096\nfsync foo",
            expected: &[DataCorruption, WrongSize],
            status: ReproStatus::Approximate,
            note: "as known-12: data is committed before the punch so stale content can resurface",
        },
        CorpusEntry {
            id: "known-18",
            title: "removed xattr reappears after fsync log replay",
            fs: FsKind::Cow,
            era,
            mutant: "xattr_removal_not_logged",
            also: &[],
            workload_text: "[setup]\ncreat foo\n[ops]\nsetxattr foo user.u1 val1\nsetxattr foo user.u2 val2\nsetxattr foo user.u3 val3\nsync\nremovexattr foo user.u2\nfsync foo",
            expected: &[XattrInconsistent],
            status: ReproStatus::Reproduced,
            note: "btrfs: remove deleted xattrs on fsync log replay",
        },
        CorpusEntry {
            id: "known-19",
            title: "directory un-removable after unlinking one of multiple links",
            fs: FsKind::Cow,
            era,
            mutant: "replay_skips_dentry_removal_multilink",
            also: &[],
            workload_text: "[setup]\nmkdir A\ncreat A/foo\n[ops]\nsync\nlink A/foo A/bar1\nlink A/foo A/bar2\nsync\nunlink A/bar2\nfsync A/foo",
            expected: &[DirectoryUnremovable],
            status: ReproStatus::Reproduced,
            note: "fstests: generic test for fsync of file with multiple links",
        },
        CorpusEntry {
            id: "known-20",
            title: "renamed file missing after directory fsync",
            fs: FsKind::Cow,
            era,
            mutant: "fsync_renamed_file_skips_new_name",
            also: &[],
            workload_text: "[setup]\nmkdir A\nmkdir A/B\nmkdir C\ncreat A/B/foo\n[ops]\nsync\nrename A/B/foo C/foo\ncreat A/bar\nfsync C/foo",
            expected: &[FileMissing],
            status: ReproStatus::Approximate,
            note: "original fsyncs directory A; the reproduction persists the moved file, same consequence, caused by the unlogged rename of the fsynced file",
        },
        CorpusEntry {
            id: "known-21",
            title: "directory un-removable after fsync log recovery",
            fs: FsKind::Cow,
            era,
            mutant: "replay_dup_dentry_double_count",
            also: &[],
            workload_text: "[setup]\nmkdir A\ncreat A/foo\n[ops]\nsync\ncreat A/bar\nfsync A\nfsync A/bar",
            expected: &[DirectoryUnremovable],
            status: ReproStatus::Reproduced,
            note: "btrfs: fix directory recovery from fsync log",
        },
        CorpusEntry {
            id: "known-22",
            title: "persisted file missing after rename and fsync",
            fs: FsKind::Cow,
            era,
            mutant: "fsync_renamed_file_skips_new_name",
            also: &[],
            workload_text: "[setup]\nmkdir A\ncreat A/foo\n[ops]\nwrite A/foo 0 4096\nsync\nrename A/foo A/bar\nfsync A/bar",
            expected: &[FileMissing],
            status: ReproStatus::Reproduced,
            note: "xfstests: add a rename fsync test",
        },
        CorpusEntry {
            id: "known-23",
            title: "fsync data loss after append write to multi-link file",
            fs: FsKind::Cow,
            era,
            mutant: "append_after_link_stale_extent",
            also: &[],
            workload_text: "[setup]\ncreat foo\n[ops]\nwrite foo 0 32768\nsync\nlink foo bar\nsync\nwrite foo 32768 32768\nfsync foo",
            expected: &[DataLoss],
            status: ReproStatus::Reproduced,
            note: "btrfs: fix fsync data loss after append write",
        },
        CorpusEntry {
            id: "known-24",
            title: "directory un-removable after fsync of directory and renamed file",
            fs: FsKind::Cow,
            era,
            mutant: "replay_dup_dentry_double_count",
            also: &["dir_fsync_misses_renames", "replay_keeps_old_dentry_after_rename"],
            workload_text: "[setup]\ncreat foo\nmkdir A\n[ops]\nfsync foo\nsync\nrename foo A/bar\nfsync A\nfsync A/bar",
            expected: &[DirectoryUnremovable, FileInBothLocations],
            status: ReproStatus::Reproduced,
            note: "xfstests: add generic/321 to test fsync() on directories",
        },
        CorpusEntry {
            id: "known-25",
            title: "bug requiring dropcaches during the workload",
            fs: FsKind::Cow,
            era,
            mutant: "",
            also: &[],
            workload_text: "",
            expected: &[],
            status: ReproStatus::NotReproduced,
            note: "needs a dropcaches command mid-workload; outside the B3 bounds (also not reproduced by the paper)",
        },
        CorpusEntry {
            id: "known-26",
            title: "bug requiring 3000 pre-existing hard links",
            fs: FsKind::Cow,
            era,
            mutant: "",
            also: &[],
            workload_text: "",
            expected: &[],
            status: ReproStatus::NotReproduced,
            note: "needs thousands of pre-existing hard links to force an external reflink; outside the B3 bounds (also not reproduced by the paper)",
        },
    ]
}

/// The new bugs CrashMonkey and ACE found (Table 5 / Appendix 9.2).
pub fn new_bugs() -> Vec<CorpusEntry> {
    let era = KernelEra::V4_16;
    vec![
        CorpusEntry {
            id: "new-01",
            title: "rename atomicity broken: file disappears",
            fs: FsKind::Cow,
            era,
            mutant: "rename_over_logged_skips_new_inode",
            also: &[],
            workload_text: "[setup]\nmkdir A\nmkdir B\n[ops]\ncreat A/bar\nfsync A/bar\ncreat B/bar\nrename B/bar A/bar\ncreat A/foo\nfsync A/foo\nfsync A",
            expected: &[FileMissing],
            status: ReproStatus::Reproduced,
            note: "present since 2014",
        },
        CorpusEntry {
            id: "new-02",
            title: "rename atomicity broken: file in both locations",
            fs: FsKind::Cow,
            era,
            mutant: "replay_keeps_old_dentry_after_rename",
            also: &["fsync_skips_other_names"],
            workload_text: "[setup]\nmkdir A\nmkdir B\ncreat A/bar\n[ops]\nfsync A/bar\nrename A/bar B/bar\nfsync B/bar\nfsync B",
            expected: &[FileInBothLocations, FileMissing],
            status: ReproStatus::Approximate,
            note: "simplified from the reported double-rename sequence; the log-replay mechanism (old dentry not removed) and consequence are the same",
        },
        CorpusEntry {
            id: "new-03",
            title: "directory not persisted by fsync",
            fs: FsKind::Cow,
            era,
            mutant: "dir_fsync_skips_new_subdirs",
            also: &[],
            workload_text: "[setup]\nmkdir A\nmkdir B\n[ops]\nmkdir A/C\ncreat B/foo\nfsync B/foo\nlink B/foo A/C/foo\nfsync A",
            expected: &[DirectoryMissing, FileMissing],
            status: ReproStatus::Reproduced,
            note: "btrfs: sync log after logging new name",
        },
        CorpusEntry {
            id: "new-04",
            title: "rename not persisted by fsync",
            fs: FsKind::Cow,
            era,
            mutant: "dir_fsync_misses_renames",
            also: &["replay_keeps_old_dentry_after_rename"],
            workload_text: "[setup]\nmkdir A\n[ops]\nsync\nrename A B\ncreat B/foo\nfsync B/foo\nfsync B",
            expected: &[FileInBothLocations, FileMissing, DirectoryMissing],
            status: ReproStatus::Reproduced,
            note: "present since 2014",
        },
        CorpusEntry {
            id: "new-05",
            title: "hard links not persisted by fsync",
            fs: FsKind::Cow,
            era,
            mutant: "fsync_skips_other_names",
            also: &[],
            workload_text: "[setup]\nmkdir A\nmkdir B\n[ops]\ncreat A/foo\nlink A/foo B/foo\nfsync A/foo\nfsync B/foo",
            expected: &[FileMissing],
            status: ReproStatus::Reproduced,
            note: "present since 2014",
        },
        CorpusEntry {
            id: "new-06",
            title: "directory entry missing after fsync on directory",
            fs: FsKind::Cow,
            era,
            mutant: "dir_fsync_skips_new_files",
            also: &[],
            workload_text: "[setup]\nmkdir test\nmkdir test/A\n[ops]\ncreat test/foo\ncreat test/A/foo\nfsync test/A/foo\nfsync test",
            expected: &[FileMissing],
            status: ReproStatus::Reproduced,
            note: "file missing in spite of persisting parent directory; present since 2014",
        },
        CorpusEntry {
            id: "new-07",
            title: "fsync on file does not persist all its paths",
            fs: FsKind::Cow,
            era,
            mutant: "fsync_skips_other_names",
            also: &[],
            workload_text: "[ops]\ncreat foo\nmkdir A\nlink foo A/bar\nfsync foo",
            expected: &[FileMissing],
            status: ReproStatus::Reproduced,
            note: "present since 2014",
        },
        CorpusEntry {
            id: "new-08",
            title: "allocated blocks lost after fsync",
            fs: FsKind::Cow,
            era,
            mutant: "falloc_keep_size_not_logged",
            also: &[],
            workload_text: "[setup]\ncreat foo\n[ops]\nwrite foo 0 16384\nfsync foo\nfalloc foo keep_size 16384 4096\nfsync foo",
            expected: &[BlocksLost],
            status: ReproStatus::Reproduced,
            note: "btrfs: blocks allocated beyond eof are lost; present since 2014",
        },
        CorpusEntry {
            id: "new-09",
            title: "file recovers to incorrect size after ZERO_RANGE",
            fs: FsKind::Flash,
            era,
            mutant: "zero_range_keep_size_wrong_size",
            also: &[],
            workload_text: "[setup]\ncreat foo\n[ops]\nwrite foo 0 16384\nfsync foo\nfalloc foo zero_range_keep_size 16384 4096\nfsync foo",
            expected: &[WrongSize, DataCorruption],
            status: ReproStatus::Reproduced,
            note: "f2fs: fix to set keep size bit in f2fs_zero_range; present since 2015",
        },
        CorpusEntry {
            id: "new-10",
            title: "persisted file ends up in a different directory",
            fs: FsKind::Flash,
            era,
            mutant: "renamed_dir_recovers_old_name",
            also: &[],
            workload_text: "[setup]\nmkdir A\n[ops]\nsync\nrename A B\ncreat B/foo\nfsync B/foo",
            expected: &[FileMissing, FileInBothLocations],
            status: ReproStatus::Reproduced,
            note: "f2fs: enforce fsync_mode=strict for renamed directory; present since 2016",
        },
        CorpusEntry {
            id: "new-11",
            title: "FSCQ fdatasync loses appended data",
            fs: FsKind::Veri,
            era,
            mutant: "fdatasync_skips_appends",
            also: &[],
            workload_text: "[setup]\ncreat foo\n[ops]\nwrite foo 0 4096\nsync\nwrite foo 4096 4096\nfdatasync foo",
            expected: &[DataLoss],
            status: ReproStatus::Reproduced,
            note: "bug in the unverified C-Haskell binding; patched by the FSCQ authors",
        },
    ]
}

/// Bugs beyond the paper's tables, found by extending the checker (the
/// ROADMAP's coverage items). Kept separate so the Table 4/5 counts the
/// paper reports stay exact.
pub fn extended_bugs() -> Vec<CorpusEntry> {
    vec![CorpusEntry {
        id: "ext-01",
        title: "durable rename resurrects the old name as a distinct inode",
        fs: FsKind::Cow,
        era: KernelEra::V4_16,
        mutant: "durable_rename_resurrects_old_inode",
        also: &["replay_keeps_old_dentry_after_rename"],
        workload_text: "[setup]\nmkdir A\nmkdir B\ncreat A/foo\n[ops]\nwrite A/foo 0 8192\nsync\nrename A/foo B/foo\nfsync B/foo",
        expected: &[FileInBothLocations],
        status: ReproStatus::Reproduced,
        note: "rename; fsync(new); crash — log replay instantiates a stale back-reference as a fresh inode under the old name; invisible to the same-inode atomicity check, caught by the op-order-aware durable-rename check",
    }]
}

/// The mutants no corpus entry names (as its cause or in `also`): no known
/// workload exposes them on their own.
pub const NO_KNOWN_WORKLOAD: &[(FsKind, &str)] = &[
    (FsKind::Cow, "rename_source_not_logged"),
    (FsKind::Flash, "roll_forward_loses_renamed_file"),
];

/// All corpus entries (known, new, then extended).
pub fn all_entries() -> Vec<CorpusEntry> {
    let mut entries = known_bugs();
    entries.extend(new_bugs());
    entries.extend(extended_bugs());
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_counts_match_the_paper() {
        let known = known_bugs();
        let runnable = known.iter().filter(|e| e.is_runnable()).count();
        let not_reproduced = known
            .iter()
            .filter(|e| e.status == ReproStatus::NotReproduced)
            .count();
        // 24 unique reproduced workloads + 2 cross-FS variants.
        assert_eq!(runnable, 25);
        assert_eq!(not_reproduced, 2);
        assert_eq!(new_bugs().len(), 11);
    }

    #[test]
    fn corpus_workloads_parse_and_end_with_persistence() {
        for entry in all_entries() {
            if !entry.is_runnable() {
                continue;
            }
            let workload = entry.workload();
            assert!(
                workload.ends_with_persistence_point() || entry.id == "known-04",
                "{} must end with a persistence point",
                entry.id
            );
            assert!(workload.sequence_length() >= 1, "{}", entry.id);
        }
    }

    /// Each entry is detected on its era's whole bug set, and attributed:
    /// its mutant alone detects it, each `also` mutant alone detects it,
    /// and the era's set without all of those does not. Mutants no entry
    /// names are exactly [`NO_KNOWN_WORKLOAD`].
    #[test]
    fn every_runnable_entry_is_detected_on_its_buggy_era() {
        let mut failures = Vec::new();
        let mut claimed = Vec::new();
        for entry in all_entries() {
            if !entry.is_runnable() {
                continue;
            }
            let check = entry
                .replay()
                .unwrap_or_else(|e| panic!("{}: {e}", entry.id));
            if !check.detected_expected {
                failures.push(format!(
                    "{}: expected one of {:?}, observed {:?} (skipped: {:?})",
                    entry.id, entry.expected, check.observed, check.outcome.skipped
                ));
            }
            let era_set = entry.fs.mutants(Some(entry.era));
            let detects = |mutants: &[&str]| {
                let spec = entry
                    .fs
                    .spec_of(mutants)
                    .expect("a mutant of the entry's fs");
                let check = entry.replay_on(spec.as_ref());
                check
                    .unwrap_or_else(|e| panic!("{}: {e}", entry.id))
                    .detected_expected
            };
            for &mutant in std::iter::once(&entry.mutant).chain(entry.also) {
                claimed.push((entry.fs, mutant));
                if !era_set.contains(&mutant) {
                    failures.push(format!(
                        "{}: {mutant} is not present at {}",
                        entry.id, entry.era
                    ));
                } else if !detects(&[mutant]) {
                    failures.push(format!("{}: {mutant} alone does not detect it", entry.id));
                }
            }
            let rest: Vec<_> = era_set
                .into_iter()
                .filter(|id| *id != entry.mutant && !entry.also.contains(id))
                .collect();
            if detects(&rest) {
                failures.push(format!(
                    "{}: detected without {} and {:?}",
                    entry.id, entry.mutant, entry.also
                ));
            }
        }
        let unclaimed: Vec<_> = FsKind::ALL
            .into_iter()
            .flat_map(|fs| fs.mutants(None).into_iter().map(move |id| (fs, id)))
            .filter(|row| !claimed.contains(row))
            .collect();
        assert!(
            failures.is_empty(),
            "undetected or unattributed corpus bugs:\n{}",
            failures.join("\n")
        );
        assert_eq!(unclaimed, NO_KNOWN_WORKLOAD);
    }

    #[test]
    fn every_runnable_entry_is_clean_on_a_patched_file_system() {
        let mut failures = Vec::new();
        for entry in all_entries() {
            if !entry.is_runnable() {
                continue;
            }
            let outcome = entry
                .replay_patched()
                .unwrap_or_else(|e| panic!("{}: {e}", entry.id));
            if outcome.skipped.is_some() {
                failures.push(format!(
                    "{}: workload skipped: {:?}",
                    entry.id, outcome.skipped
                ));
            } else if outcome.found_bug() {
                failures.push(format!(
                    "{}: false positive on patched fs: {:?}",
                    entry.id,
                    outcome
                        .bugs
                        .iter()
                        .map(|b| b.consequence)
                        .collect::<Vec<_>>()
                ));
            }
        }
        assert!(
            failures.is_empty(),
            "patched file systems must pass every corpus workload:\n{}",
            failures.join("\n")
        );
    }
}
