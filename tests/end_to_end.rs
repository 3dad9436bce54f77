//! Cross-crate integration tests: ACE workloads driven through CrashMonkey
//! against every simulated file system.

use b3::block::{CowSnapshotDevice, DiskImage};
use b3::prelude::*;
use b3_harness::baseline::{regression_suite_covers, RandomWorkloads};
use b3_harness::corpus;
use b3_vfs::workload::OpKind;

/// The full seq-1 space on a patched CowFs must produce zero bug reports:
/// exhaustive generation is only useful if the checker has no false
/// positives.
#[test]
fn seq1_exhaustive_run_is_clean_on_patched_cowfs() {
    let bounds = Bounds::paper_seq1();
    let spec = CowFsSpec::patched();
    let summary = Sweep::new(&spec, RunConfig::default()).run(&bounds);
    assert!(summary.tested + summary.skipped >= 200);
    assert!(
        summary.reports.is_empty(),
        "false positives on patched CowFs: {:?}",
        summary
            .reports
            .iter()
            .map(|r| &r.workload_name)
            .collect::<Vec<_>>()
    );
    assert!(summary.tested > 150, "most seq-1 workloads must execute");
}

/// seq-1 workloads on the paper's evaluation kernel (4.16) find the
/// single-operation new bugs of Table 5 (e.g. blocks lost after fsync).
#[test]
fn seq1_on_evaluation_kernel_finds_single_op_new_bugs() {
    let bounds = Bounds::paper_seq1();
    let spec = CowFsSpec::new(KernelEra::V4_16);
    let summary = Sweep::new(&spec, RunConfig::default()).run(&bounds);
    assert!(
        !summary.reports.is_empty(),
        "seq-1 must reveal bugs on 4.16"
    );
    let groups = group_reports(&summary.reports);
    assert!(
        groups
            .iter()
            .any(|g| g.consequence == Consequence::BlocksLost),
        "the falloc KEEP_SIZE bug (new bug 8) is a seq-1 bug: {groups:?}"
    );
}

/// A targeted seq-2 subspace (link + write) finds the hard-link family of
/// bugs on an old kernel, and grouping by (skeleton, consequence) collapses
/// the many failing workloads into a handful of distinct bugs.
#[test]
fn seq2_link_subspace_finds_and_groups_bugs() {
    let bounds = Bounds::paper_seq2().with_ops(vec![OpKind::Link, OpKind::WriteBuffered]);
    let spec = CowFsSpec::new(KernelEra::V3_13);
    let summary = Sweep::new(&spec, RunConfig::default()).run(&bounds);
    assert!(summary.tested > 0);
    assert!(!summary.reports.is_empty());
    let groups = group_reports(&summary.reports);
    assert!(
        groups.len() < summary.raw_reports,
        "grouping must collapse duplicate manifestations"
    );

    // The known-bug database suppresses already-reported findings.
    let mut db = KnownBugDatabase::new();
    for group in &groups {
        db.insert(&group.skeleton, group.consequence, "already reported");
    }
    let (new, known) = db.partition(&groups);
    assert!(new.is_empty());
    assert_eq!(known.len(), groups.len());
}

/// Every file system under test survives its own clean-unmount/remount cycle
/// for a representative workload (no crash involved).
#[test]
fn all_file_systems_round_trip_cleanly() {
    let specs: Vec<Box<dyn FsSpec + Sync>> = vec![
        Box::new(CowFsSpec::patched()),
        Box::new(FlashFsSpec::patched()),
        Box::new(JournalFsSpec::patched()),
        Box::new(VeriFsSpec::patched()),
    ];
    for spec in &specs {
        let mut fs = spec
            .mkfs(Box::new(CowSnapshotDevice::new(DiskImage::empty(4096))))
            .unwrap();
        fs.mkdir("A").unwrap();
        fs.create("A/foo").unwrap();
        fs.write("A/foo", 0, &[42u8; 5000], b3_vfs::fs::WriteMode::Buffered)
            .unwrap();
        fs.setxattr("A/foo", "user.k", b"v").unwrap();
        let device = fs.unmount().unwrap();
        let fs = spec.mount(device).unwrap();
        assert_eq!(fs.metadata("A/foo").unwrap().size, 5000, "{}", spec.name());
        assert_eq!(fs.getxattr("A/foo", "user.k").unwrap(), b"v");
    }
}

/// The corpus-driven headline numbers of §6.2: 24 of 26 previously reported
/// bugs reproduced, 10 new file-system bugs plus the FSCQ bug found.
#[test]
fn corpus_headline_numbers_match_the_paper() {
    let known = corpus::known_bugs();
    let reproduced = known.iter().filter(|e| e.is_runnable()).count();
    let unique_reproduced = known
        .iter()
        .filter(|e| e.is_runnable() && !e.id.ends_with("-f2fs"))
        .count();
    assert_eq!(unique_reproduced, 24, "24 of 26 known bugs reproduce");
    assert!(reproduced >= 24);
    assert_eq!(
        known.iter().filter(|e| !e.is_runnable()).count(),
        2,
        "two known bugs stay out of reach, as in the paper"
    );
    let new = corpus::new_bugs();
    assert_eq!(new.len(), 11, "10 new FS bugs + 1 FSCQ bug");
}

/// Smoke test for the quickstart path, through the `b3` facade: one
/// representative known-bug corpus entry per file system must reproduce its
/// reported consequence under CrashMonkey, and the same workload on the
/// fully patched file system stays clean. (The exhaustive per-entry replay
/// of the whole corpus lives in `b3-harness`'s own corpus tests.)
#[test]
fn known_bug_corpus_smoke_reproduces_one_bug_per_file_system() {
    use b3_harness::FsKind;

    let entries = corpus::known_bugs();
    for kind in [FsKind::Cow, FsKind::Journal, FsKind::Flash] {
        let entry = entries
            .iter()
            .find(|e| e.fs == kind && e.is_runnable())
            .unwrap_or_else(|| panic!("no runnable corpus entry for {kind:?}"));
        let check = entry
            .replay()
            .unwrap_or_else(|e| panic!("{} failed to replay: {e}", entry.id));
        assert!(
            !check.outcome.bugs.is_empty(),
            "{}: no bug detected on the buggy era",
            entry.id
        );
        assert!(
            check.detected_expected,
            "{}: observed {:?}, expected one of {:?}",
            entry.id, check.observed, entry.expected
        );

        let patched = entry
            .replay_patched()
            .unwrap_or_else(|e| panic!("{} failed on patched fs: {e}", entry.id));
        assert!(
            patched.bugs.is_empty(),
            "{}: false positive on patched fs: {:?}",
            entry.id,
            patched.bugs
        );
    }
}

/// The application-level corpus: every seeded WAL/KV engine bug must be
/// detected with its expected consequence by the transaction oracle on two
/// different (patched) host file systems, and the fixed engine must replay
/// the same workloads clean. (The per-entry detail tests, including the
/// journaling host masking the data-fsync bug, live in `b3-app`'s corpus
/// tests.)
#[test]
fn app_corpus_smoke_detects_every_seeded_engine_bug() {
    use b3_vfs::fs::FsSpec;

    let hosts: [Box<dyn FsSpec>; 2] = [
        Box::new(b3_fs_cow::CowFsSpec::new(b3_vfs::KernelEra::Patched)),
        Box::new(b3_fs_flash::FlashFsSpec::new(b3_vfs::KernelEra::Patched)),
    ];
    let entries = b3::app::corpus::seeded_bugs();
    assert_eq!(entries.len(), 3, "three seeded engine bugs");
    for host in &hosts {
        for entry in &entries {
            let check = entry
                .replay(host.as_ref())
                .unwrap_or_else(|e| panic!("{} failed to replay: {e}", entry.id));
            assert!(
                check.detected_expected,
                "{} on {}: observed {:?}, expected one of {:?}",
                entry.id,
                host.name(),
                check.observed,
                entry.expected
            );
            let fixed = entry
                .replay_fixed(host.as_ref())
                .unwrap_or_else(|e| panic!("{} failed on the fixed engine: {e}", entry.id));
            assert!(
                fixed.bugs.is_empty(),
                "{} on {}: false positive on the fixed engine: {:?}",
                entry.id,
                host.name(),
                fixed.bugs
            );
        }
    }
}

/// The regression-suite baseline (today's xfstests practice) covers the
/// skeletons of previously reported bugs but not the skeletons of the new
/// bugs ACE found — the motivation for systematic testing in §2.
#[test]
fn regression_baseline_misses_new_bug_skeletons() {
    let mut missed = 0;
    for entry in corpus::new_bugs() {
        if !entry.is_runnable() {
            continue;
        }
        if !regression_suite_covers(&entry.workload()) {
            missed += 1;
        }
    }
    assert!(
        missed >= 5,
        "most new-bug skeletons must be absent from the regression suite (missed {missed})"
    );
}

/// Random (fuzz-style) generation over the same bounds is valid but
/// duplicates skeletons heavily, unlike exhaustive enumeration.
#[test]
fn random_baseline_produces_valid_but_redundant_workloads() {
    use std::collections::HashSet;
    let random: Vec<Workload> = RandomWorkloads::new(Bounds::paper_seq2(), 1)
        .take(200)
        .collect();
    assert_eq!(random.len(), 200);
    let skeletons: HashSet<String> = random.iter().map(Workload::skeleton_string).collect();
    assert!(
        skeletons.len() < random.len(),
        "random sampling revisits skeletons while ACE enumerates each once"
    );
}
