//! Differential test of rendering only exemplar candidates.
//!
//! The claim under test: a sweep whose shard loop counts, without rendering,
//! every report whose bug group the shard already holds from an earlier
//! workload ends with **the same group table** as grouping every report of
//! every workload, each rendered in full. Both sides are compared encoded
//! (exemplar text, counts and order, byte for byte) and by raw report
//! count. The reference is one long-lived harness per space driven through
//! `test_workload`, which renders every report.
//!
//! The tier-1 tests run the smoke app space (all three seeded engine bugs,
//! every crash point) and the tiny file-system space at two operations
//! (buggy CowFs, triaged crash points). The `#[ignore]`d release tests run the benchmark's
//! `app_walkv` space and its seq-2 space on CowFs@4.16:
//!
//! ```text
//! cargo test --release -q -p b3-harness --test exemplar_differential -- --ignored
//! ```

use b3_ace::{Bounds, WorkloadGenerator};
use b3_app::{AppHarness, EngineProfile, TxnBounds, TxnOpKind, TxnWorkloadGenerator};
use b3_crashmonkey::{BugReport, CrashMonkey, CrashPointPolicy, WorkloadOutcome};
use b3_harness::{FsKind, GroupTable, RunConfig, SweepJob, SweepSpace};
use b3_vfs::codec::Encoder;
use b3_vfs::workload::FileSet;
use b3_vfs::{FsResult, KernelEra};

fn encoded(table: &GroupTable) -> Vec<u8> {
    let mut enc = Encoder::new();
    table.encode(&mut enc);
    enc.finish()
}

/// Sweeps `job` in process, groups every report of `outcomes` (one per
/// workload of the job's space, every report rendered), and compares.
fn assert_sweep_groups_every_report(
    job: &SweepJob,
    outcomes: impl Iterator<Item = FsResult<WorkloadOutcome>>,
) {
    let mut reports: Vec<BugReport> = Vec::new();
    for outcome in outcomes.flatten() {
        assert!(
            outcome.counted.is_empty(),
            "test_workload renders every report"
        );
        reports.extend(outcome.bugs);
    }
    let reference = GroupTable::from_reports(&reports);
    assert!(
        reference.len() > 1,
        "the space must have several bug groups"
    );
    assert!(
        reports.len() > 2 * reference.len(),
        "most reports must be of a group that already has an exemplar"
    );

    let config = RunConfig {
        threads: 2,
        ..RunConfig::default()
    };
    let (summary, checkpoint) = job.run_in_process(&config).expect("the job is valid");
    assert!(checkpoint.is_complete());
    assert_eq!(summary.raw_reports, reports.len());
    assert_eq!(summary.raw_reports as u64, reference.total_reports());
    assert!(
        encoded(checkpoint.grouped()) == encoded(&reference),
        "the sweep's groups differ from grouping every rendered report"
    );
}

/// An app job on patched CowFs with every seeded engine bug, every crash
/// point tested.
fn app_job(bounds: TxnBounds, num_shards: usize) -> SweepJob {
    let engine = EngineProfile {
        commit_without_data_fsync: true,
        torn_commit: true,
        double_replay: true,
    };
    let mut job = SweepJob::new_app(bounds, engine, num_shards);
    job.era = KernelEra::Patched;
    job.crashmonkey.crash_points = CrashPointPolicy::All;
    job
}

/// A file-system job on CowFs@4.16 (the evaluation era) with triaged crash
/// points.
fn fs_job(bounds: Bounds, num_shards: usize) -> SweepJob {
    let mut job = SweepJob::new(bounds, num_shards);
    assert_eq!((job.fs, job.era), (FsKind::Cow, KernelEra::V4_16));
    job.crashmonkey.crash_points = CrashPointPolicy::AllTriaged { audit: 0 };
    job
}

fn check_app(job: &SweepJob) {
    let SweepSpace::App { bounds, engine } = &job.space else {
        unreachable!("an app job")
    };
    let spec = job.fs.spec(job.era);
    let harness = AppHarness::new(spec.as_ref(), job.crashmonkey, *engine);
    let workloads = TxnWorkloadGenerator::new(bounds.clone());
    assert_sweep_groups_every_report(job, workloads.map(|w| harness.test_workload(&w)));
}

fn check_fs(job: &SweepJob) {
    let SweepSpace::Fs(bounds) = &job.space else {
        unreachable!("a file-system job")
    };
    let spec = job.fs.spec(job.era);
    let monkey = CrashMonkey::with_config(spec.as_ref(), job.crashmonkey);
    let workloads = WorkloadGenerator::new(bounds.clone());
    assert_sweep_groups_every_report(job, workloads.map(|w| monkey.test_workload(&w)));
}

#[test]
fn the_smoke_app_space_groups_as_if_every_report_were_rendered() {
    check_app(&app_job(TxnBounds::smoke(), 8));
}

/// The tiny space has one bug report on CowFs@4.16; at two operations over
/// three files it has many, in several groups.
#[test]
fn the_tiny_fs_space_at_two_ops_groups_as_if_every_report_were_rendered() {
    let bounds = Bounds {
        seq_len: 2,
        files: FileSet::new(Vec::new(), vec!["foo".into(), "bar".into(), "baz".into()]),
        ..Bounds::tiny()
    };
    check_fs(&fs_job(bounds, 8));
}

/// The benchmark's `app_walkv` space.
#[test]
#[ignore = "release-only: the benchmark's app space (~3 s)"]
fn the_bench_app_space_groups_as_if_every_report_were_rendered() {
    let bounds = TxnBounds {
        name_prefix: "app-bench".into(),
        max_txns: 3,
        max_ops_per_txn: 2,
        keys: 2,
        ops: vec![TxnOpKind::Put, TxnOpKind::Append],
        allow_abort: true,
    };
    check_app(&app_job(bounds, 64));
}

/// The benchmark's seq-2 space (`seq2_cow_triaged`).
#[test]
#[ignore = "release-only: the benchmark's seq-2 space (~3 s)"]
fn the_bench_seq2_space_groups_as_if_every_report_were_rendered() {
    let bounds = Bounds {
        files: FileSet::new(
            vec!["A".into(), "B".into()],
            vec!["foo".into(), "A/foo".into(), "B/foo".into()],
        ),
        ..Bounds::paper_seq2()
    };
    check_fs(&fs_job(bounds, 64));
}
