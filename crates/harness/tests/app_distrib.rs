//! End-to-end tests of distributed *application-level* sweeps: `SweepJob`s
//! carrying `SweepSpace::App` fan transaction workloads out to real
//! `b3 worker` child processes, and the reassembled result must be
//! byte-identical to the in-process sweep over the same space.
//!
//! * The **differential** tests prove a 2-worker distributed app sweep
//!   (stdio children and TCP loopback) equals the in-process sweep: same
//!   tested/skipped counts, byte-identical exemplar reports, same bug
//!   groups.
//! * The **seeded-bug matrix** proves each of the three seeded engine bugs
//!   is detected through the distributed coordinator on two different host
//!   file systems, with deterministic exemplars — and that the fixed
//!   engine is clean on both.
//! * The **guard-rail** tests prove an app job asking for canonicalization
//!   is refused (pruning is a file-system-workload concept), and that app
//!   and fs checkpoints can never be confused for one another.

use b3_app::{EngineProfile, TxnBounds};
use b3_crashmonkey::{Consequence, CrashPointPolicy};
use b3_harness::distrib::{
    run_with_transport, ChildTransport, DistribConfig, SweepJob, TcpTransport, WorkerCommand,
};
use b3_harness::{AppSweep, FsKind, PruneMode, RunConfig, RunSummary, SweepSpace};
use b3_vfs::codec::Encoder;
use b3_vfs::{KernelEra, MutantSet};

const NUM_SHARDS: usize = 8;

fn worker_command() -> WorkerCommand {
    WorkerCommand::new(env!("CARGO_BIN_EXE_b3")).arg("worker")
}

/// The default pool: stdio child workers.
fn stdio_workers() -> ChildTransport {
    ChildTransport::new(worker_command())
}

/// An app job over the tiny transaction space: every crash point tested,
/// on a patched-era host file system (so every violation is the engine's
/// fault, not the file system's).
fn app_job(fs: FsKind, engine: EngineProfile) -> SweepJob {
    let mut job = SweepJob::new_app(TxnBounds::tiny(), engine, NUM_SHARDS);
    job.fs = fs;
    job.era = KernelEra::Patched;
    job.crashmonkey.crash_points = CrashPointPolicy::All;
    job
}

/// The uninterrupted in-process reference sweep over the same job.
fn in_process_summary(job: &SweepJob) -> RunSummary {
    let config = RunConfig {
        threads: 2,
        ..RunConfig::default()
    };
    job.run_in_process(&config).expect("valid job").0
}

/// Serializes every report of a summary, so equality can be asserted on
/// bytes rather than field-by-field.
fn report_bytes(summary: &RunSummary) -> Vec<u8> {
    let mut enc = Encoder::new();
    for report in &summary.reports {
        report.encode(&mut enc);
    }
    enc.finish()
}

fn assert_summaries_equivalent(distributed: &RunSummary, single: &RunSummary) {
    assert_eq!(distributed.tested, single.tested, "tested counts differ");
    assert_eq!(distributed.skipped, single.skipped, "skipped counts differ");
    assert_eq!(
        distributed.raw_reports, single.raw_reports,
        "raw report counts differ"
    );
    assert_eq!(
        report_bytes(distributed),
        report_bytes(single),
        "exemplar reports must be byte-identical (same bugs, same order)"
    );
}

/// The engine profile with every seeded bug switched on.
fn all_bugs() -> EngineProfile {
    EngineProfile {
        commit_without_data_fsync: true,
        torn_commit: true,
        double_replay: true,
    }
}

#[test]
fn two_worker_distributed_app_sweep_matches_in_process() {
    let job = app_job(FsKind::Cow, all_bugs());
    let single = in_process_summary(&job);
    assert!(single.tested > 0, "reference sweep must test workloads");
    assert!(
        !single.reports.is_empty(),
        "the all-bugs engine must produce violations"
    );

    let config = DistribConfig {
        workers: 2,
        ..DistribConfig::default()
    };
    let outcome = run_with_transport(&job, &config, &stdio_workers(), None)
        .expect("distributed app sweep runs");
    assert!(outcome.is_complete());
    assert_eq!(outcome.failed_workers, 0);
    assert_summaries_equivalent(&outcome.summary, &single);

    // The grouped view reassembled from worker frames matches too: same
    // groups, same counts, byte-identical exemplars.
    let groups = outcome.checkpoint.bug_groups();
    assert!(!groups.is_empty());
    // Buggy workloads can violate at several crash points (one raw report
    // each), so the counts are ordered, not equal.
    let buggy = outcome.checkpoint.total_buggy() as usize;
    assert!(buggy > 0);
    assert!(buggy <= outcome.summary.raw_reports);
}

#[test]
fn two_worker_tcp_app_sweep_matches_in_process() {
    let job = app_job(FsKind::Cow, all_bugs());
    let single = in_process_summary(&job);

    let config = DistribConfig {
        workers: 2,
        ..DistribConfig::default()
    };
    let transport = TcpTransport::bind("127.0.0.1:0")
        .expect("loopback listener binds")
        .with_launcher(worker_command());
    let outcome = run_with_transport(&job, &config, &transport, None).expect("tcp app sweep runs");
    assert!(outcome.is_complete());
    assert_eq!(outcome.failed_workers, 0);
    assert_summaries_equivalent(&outcome.summary, &single);
}

/// Every seeded engine bug is detected through the distributed coordinator
/// on two different host file systems, with exemplars byte-identical to
/// the in-process sweep — and the fixed engine is clean on both. (The
/// journaling host is excluded on purpose: its ext4-style data=ordered
/// flush masks the no-data-fsync bug, which the app corpus tests pin as
/// faithful behavior.)
#[test]
fn seeded_bug_matrix_is_detected_distributed_on_two_file_systems() {
    let bugs: [(EngineProfile, Consequence); 3] = [
        (
            EngineProfile {
                commit_without_data_fsync: true,
                ..EngineProfile::none()
            },
            Consequence::TxnAtomicityBroken,
        ),
        (
            EngineProfile {
                torn_commit: true,
                ..EngineProfile::none()
            },
            Consequence::TxnAtomicityBroken,
        ),
        (
            EngineProfile {
                double_replay: true,
                ..EngineProfile::none()
            },
            Consequence::TxnReplayNotIdempotent,
        ),
    ];
    let config = DistribConfig {
        workers: 2,
        ..DistribConfig::default()
    };
    for fs in [FsKind::Cow, FsKind::Flash] {
        for (engine, expected) in &bugs {
            let job = app_job(fs, *engine);
            let single = in_process_summary(&job);
            let outcome = run_with_transport(&job, &config, &stdio_workers(), None)
                .expect("distributed app sweep runs");
            assert!(outcome.is_complete());
            assert_summaries_equivalent(&outcome.summary, &single);
            assert!(
                outcome
                    .summary
                    .reports
                    .iter()
                    .any(|report| report.consequence == *expected),
                "{} on {:?}: expected {expected:?} in {:?}",
                engine.describe(),
                fs,
                outcome.summary.reports
            );
        }

        let fixed_job = app_job(fs, EngineProfile::none());
        let single = in_process_summary(&fixed_job);
        assert!(single.reports.is_empty(), "fixed engine must be clean");
        let outcome = run_with_transport(&fixed_job, &config, &stdio_workers(), None)
            .expect("distributed fixed-engine sweep runs");
        assert!(outcome.is_complete());
        assert_summaries_equivalent(&outcome.summary, &single);
        assert!(
            outcome.summary.reports.is_empty(),
            "fixed engine must be clean through the coordinator on {fs:?}"
        );
    }
}

#[test]
fn app_job_with_pruning_is_refused() {
    let mut job = app_job(FsKind::Cow, EngineProfile::none());
    job.prune = PruneMode::Representative;
    let config = DistribConfig {
        workers: 1,
        ..DistribConfig::default()
    };
    let error = run_with_transport(&job, &config, &stdio_workers(), None)
        .expect_err("app job with pruning must be refused");
    assert!(
        error.to_string().contains("prune"),
        "unexpected error: {error}"
    );
}

/// `SweepJob::run_in_process` is the facades' engine under the facades'
/// own checkpoint scope: for either space, the checkpoint it fills is one
/// the matching facade accepts (and so resumes).
#[test]
fn in_process_runner_fills_the_facades_checkpoints() {
    let config = RunConfig {
        threads: 2,
        ..RunConfig::default()
    };
    let job = app_job(FsKind::Cow, all_bugs());
    let (summary, mut checkpoint) = job.run_in_process(&config).expect("valid job");
    let SweepSpace::App { bounds, engine } = &job.space else {
        panic!("app job expected");
    };
    let spec = job.fs.spec(job.era);
    let facade_config = RunConfig {
        crashmonkey: job.crashmonkey,
        ..config
    };
    let facade = AppSweep::new(spec.as_ref(), facade_config, *engine).shards(NUM_SHARDS);
    assert_eq!(
        checkpoint.fingerprint(),
        facade.empty_checkpoint(bounds).fingerprint()
    );
    let resumed = facade.run_resumable(bounds, &mut checkpoint);
    assert_summaries_equivalent(&resumed, &summary);

    let mut job = SweepJob::new(b3_ace::Bounds::tiny(), NUM_SHARDS);
    job.crashmonkey.crash_points = CrashPointPolicy::AllTriaged { audit: 3 };
    job.prune = PruneMode::Audit {
        samples_per_class: 2,
    };
    let (_, checkpoint) = job.run_in_process(&config).expect("valid job");
    let spec = job.fs.spec(job.era);
    let facade_config = RunConfig {
        crashmonkey: job.crashmonkey,
        ..config
    };
    let facade = b3_harness::Sweep::new(spec.as_ref(), facade_config)
        .shards(NUM_SHARDS)
        .prune(job.prune);
    let bounds = job.fs_bounds().expect("fs job");
    assert_eq!(
        checkpoint.fingerprint(),
        facade.empty_checkpoint(bounds).fingerprint()
    );
    assert!(checkpoint
        .fingerprint()
        .starts_with("cp:triaged-audit3/canon"));

    // An invalid job is an error here too, not a sweep of something else.
    let mut invalid = app_job(FsKind::Cow, EngineProfile::none());
    invalid.prune = PruneMode::Representative;
    let error = invalid
        .run_in_process(&config)
        .expect_err("app job with pruning must be refused");
    assert!(error.to_string().contains("prune"), "{error}");
}

#[test]
fn app_and_fs_jobs_never_share_a_fingerprint() {
    let app = app_job(FsKind::Cow, EngineProfile::none());
    let fs = SweepJob::new(b3_ace::Bounds::tiny(), NUM_SHARDS);
    assert_ne!(
        app.empty_checkpoint().fingerprint(),
        fs.empty_checkpoint().fingerprint()
    );
    // The engine profile scopes the checkpoint: a buggy-engine sweep can
    // never resume from (or merge into) a fixed-engine one.
    let buggy = app_job(FsKind::Cow, all_bugs());
    assert_ne!(
        app.empty_checkpoint().fingerprint(),
        buggy.empty_checkpoint().fingerprint()
    );
}
