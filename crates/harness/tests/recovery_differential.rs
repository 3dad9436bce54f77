//! Differential tests of the incremental crash-state recovery engine.
//!
//! The equivalence claim under test: recovering crash states by patching
//! the previous recovered view forward with the block delta between
//! adjacent states ([`RecoveryMode::PatchForward`]) produces **the same
//! verdicts, the same bug reports, and the same group exemplars** as
//! mounting every crash state from scratch ([`RecoveryMode::Remount`]) —
//! under [`CrashPointPolicy::All`], where a workload contributes several
//! crash states and the incremental path actually engages.
//!
//! * The **in-process** test runs the same bounded seq-2 slice through the
//!   sharded sweep engine once per recovery mode on **all four** simulated
//!   file systems and asserts byte-identical exemplar reports and equal
//!   counts. (Because this suite runs in a debug build, every individual
//!   patched-forward crash state is additionally asserted bit-identical to
//!   a from-scratch mount inside `RecoverySession` itself.)
//! * The **distributed** test drives the default (patch-forward) recovery
//!   through 4 real worker processes and compares against an in-process
//!   remount-from-scratch sweep — proving the engine's equivalence holds
//!   across the process fan-out and that the wire format needed no new
//!   fields for it.
//! * An `#[ignore]`d **release** run pins what every crash state above is
//!   made of: over the benchmark's whole seq-2 space, the image the recorder
//!   froze at each checkpoint equals the recorded IO replayed onto the
//!   formatted image. Debug builds assert that inside `b3_block::crash_state`
//!   for every state they build; release builds do not, and a wrong state
//!   that still passes the checker would not move any pinned count.

use b3_ace::{Bounds, WorkloadGenerator};
use b3_block::{replay_until_checkpoint, CowSnapshotDevice};
use b3_crashmonkey::{CrashMonkey, CrashMonkeyConfig, CrashPointPolicy, RecoveryMode};
use b3_harness::distrib::{
    run_with_transport, ChildTransport, DistribConfig, SweepJob, WorkerCommand,
};
use b3_harness::{FsKind, RunConfig, RunSummary, Sweep};
use b3_vfs::codec::Encoder;
use b3_vfs::workload::FileSet;
use b3_vfs::KernelEra;

const NUM_SHARDS: usize = 8;

/// A small two-operation space (~130 workloads, several persistence points
/// per workload): big enough that `CrashPointPolicy::All` visits multiple
/// crash states per workload, small enough for debug-build CI.
fn small_seq2_bounds() -> Bounds {
    let mut bounds = Bounds::tiny();
    bounds.seq_len = 2;
    bounds.name_prefix = "recovery-seq2".into();
    bounds.files = FileSet::new(Vec::new(), vec!["foo".into(), "bar".into()]);
    bounds
}

fn all_points_config(recovery: RecoveryMode) -> RunConfig {
    RunConfig {
        threads: 2,
        crashmonkey: CrashMonkeyConfig {
            crash_points: CrashPointPolicy::All,
            recovery,
            ..CrashMonkeyConfig::small()
        },
        ..RunConfig::default()
    }
}

fn sweep(kind: FsKind, recovery: RecoveryMode) -> RunSummary {
    let spec = kind.spec(KernelEra::V4_16);
    Sweep::new(spec.as_ref(), all_points_config(recovery))
        .shards(NUM_SHARDS)
        .run(&small_seq2_bounds())
}

/// Serializes every exemplar report of a summary, so equality can be
/// asserted on bytes rather than field-by-field.
fn report_bytes(summary: &RunSummary) -> Vec<u8> {
    let mut enc = Encoder::new();
    for report in &summary.reports {
        report.encode(&mut enc);
    }
    enc.finish()
}

#[test]
fn patch_forward_matches_remount_on_all_four_file_systems() {
    let mut bugs_somewhere = false;
    for kind in FsKind::ALL {
        let remount = sweep(kind, RecoveryMode::Remount);
        let patched = sweep(kind, RecoveryMode::PatchForward);
        assert!(remount.tested > 0, "{kind:?}: sweep must test workloads");
        bugs_somewhere |= !remount.reports.is_empty();
        assert_eq!(
            patched.tested, remount.tested,
            "{kind:?}: tested counts differ"
        );
        assert_eq!(
            patched.skipped, remount.skipped,
            "{kind:?}: skipped counts differ"
        );
        assert_eq!(
            patched.raw_reports, remount.raw_reports,
            "{kind:?}: raw report counts differ"
        );
        assert_eq!(
            report_bytes(&patched),
            report_bytes(&remount),
            "{kind:?}: exemplar reports must be byte-identical"
        );
    }
    assert!(
        bugs_somewhere,
        "at least one 4.16-era file system must produce bug reports, \
         or the differential proves nothing"
    );
}

#[test]
fn distributed_patch_forward_matches_in_process_remount() {
    let bounds = small_seq2_bounds();
    // The in-process reference mounts every crash state from scratch.
    let spec = FsKind::Cow.spec(KernelEra::V4_16);
    let remount = Sweep::new(spec.as_ref(), all_points_config(RecoveryMode::Remount))
        .shards(NUM_SHARDS)
        .run(&bounds);
    assert!(
        !remount.reports.is_empty(),
        "reference sweep must find bugs on the 4.16-era CowFs"
    );

    // The workers use the default recovery mode (patch-forward); the mode
    // is deliberately absent from the wire format because it cannot change
    // outcomes.
    let mut job = SweepJob::new(bounds, NUM_SHARDS);
    job.crashmonkey = CrashMonkeyConfig {
        crash_points: CrashPointPolicy::All,
        ..CrashMonkeyConfig::small()
    };
    let config = DistribConfig {
        workers: 4,
        ..DistribConfig::default()
    };
    let workers = ChildTransport::new(WorkerCommand::new(env!("CARGO_BIN_EXE_b3")).arg("worker"));
    let outcome =
        run_with_transport(&job, &config, &workers, None).expect("distributed sweep runs");
    assert!(outcome.is_complete());
    assert_eq!(outcome.failed_workers, 0);

    assert_eq!(outcome.summary.tested, remount.tested);
    assert_eq!(outcome.summary.skipped, remount.skipped);
    assert_eq!(outcome.summary.raw_reports, remount.raw_reports);
    assert_eq!(
        report_bytes(&outcome.summary),
        report_bytes(&remount),
        "distributed patch-forward exemplars must be byte-identical to \
         the in-process remount reference"
    );
    // Group exemplars reassembled from the worker frames match too.
    let groups = outcome.checkpoint.bug_groups();
    assert_eq!(groups.len(), remount.reports.len());
    for (group, exemplar) in groups.iter().zip(&remount.reports) {
        assert_eq!(&group.example, exemplar);
    }
}

/// The benchmark's seq-2 space (`b3-bench`'s `seq2_journal_all` /
/// `seq2_cow_triaged` bounds and shard count), profiled the way a sweep
/// profiles it — shard by shard in generator order through one harness, so
/// most recordings are forks of the trunk's — on the two file systems the
/// benchmark runs it on. For every workload and every checkpoint, the image
/// the log froze must equal a replay of the log up to the marker onto a
/// fresh snapshot of the formatted image. Run with
/// `cargo test --release -p b3-harness --test recovery_differential -- --ignored`.
#[test]
#[ignore = "the benchmark's seq-2 space on two file systems; run explicitly in release builds"]
fn bench_seq2_frozen_crash_states_equal_replayed_ones() {
    const SHARDS: usize = 64;
    let bounds = Bounds {
        files: FileSet::new(
            vec!["A".into(), "B".into()],
            vec!["foo".into(), "A/foo".into(), "B/foo".into()],
        ),
        ..Bounds::paper_seq2()
    };
    for (kind, era, recorded_states) in [
        (FsKind::Journal, KernelEra::Patched, 155_532),
        (FsKind::Cow, KernelEra::V4_16, 143_123),
    ] {
        let spec = kind.spec(era);
        let (mut profiled, mut states) = (0u64, 0u64);
        for shard in bounds.shards(SHARDS) {
            // One harness per shard, as in a sweep: the trunk starts empty.
            let monkey = CrashMonkey::with_config(spec.as_ref(), CrashMonkeyConfig::default());
            for workload in WorkloadGenerator::for_shard(bounds.clone(), &shard) {
                // A candidate the sweep skips (an operation failed) still
                // recorded everything up to there, and still counts.
                let profile = monkey.profile_only(&workload).expect("profiling runs");
                profiled += 1;
                for checkpoint in 1..=profile.log.num_checkpoints() {
                    let mut replayed = CowSnapshotDevice::new(profile.base_image.clone());
                    replay_until_checkpoint(&profile.log, checkpoint, &mut replayed)
                        .expect("recorded IO replays");
                    let frozen = profile
                        .log
                        .image_at(checkpoint)
                        .expect("a recorded checkpoint has an image");
                    assert!(
                        *frozen == replayed.freeze(),
                        "{kind:?}@{era:?}, {}: the image frozen at checkpoint {checkpoint} \
                         differs from the replayed one",
                        workload.name
                    );
                    states += 1;
                }
            }
        }
        assert_eq!(
            (profiled, states),
            (85_614, recorded_states),
            "{kind:?}@{era:?}: workloads profiled, crash states compared"
        );
    }
}
