//! Differential tests of crash-state recovery.
//!
//! The equivalence claim under test: a file system's recovery session (a
//! mount without the write-back a mount may end with) gives **the same
//! logical view, or the same error**, as mounting the crash state from
//! scratch — under [`CrashPointPolicy::All`], where a workload contributes
//! several crash states.
//!
//! * The **in-process** test recovers and mounts every crash state of a
//!   bounded seq-2 slice on **all four** simulated file systems and compares
//!   the two views. It runs in any build; debug builds additionally assert
//!   the same inside the crash-point loop for every state a sweep tests.
//! * The **distributed** test drives a sweep through 4 real worker
//!   processes and compares it against the same sweep in process — the
//!   verdicts, bug reports and group exemplars must be byte-identical.
//! * An `#[ignore]`d **release** run pins what every crash state above is
//!   made of: over the benchmark's whole seq-2 space, the image the recorder
//!   froze at each checkpoint equals the recorded IO replayed onto the
//!   formatted image. Debug builds assert that inside `b3_block::crash_state`
//!   for every state they build; release builds do not, and a wrong state
//!   that still passes the checker would not move any pinned count.

use b3_ace::{Bounds, WorkloadGenerator};
use b3_block::{crash_state, replay_until_checkpoint, CowSnapshotDevice};
use b3_crashmonkey::{CrashMonkey, CrashMonkeyConfig, CrashPointPolicy};
use b3_harness::distrib::{
    run_with_transport, ChildTransport, DistribConfig, SweepJob, WorkerCommand,
};
use b3_harness::{FsKind, RunConfig, RunSummary, Sweep};
use b3_vfs::codec::Encoder;
use b3_vfs::error::FsResult;
use b3_vfs::fs::FileSystem;
use b3_vfs::snapshot::LogicalSnapshot;
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

fn all_points_config() -> CrashMonkeyConfig {
    CrashMonkeyConfig {
        crash_points: CrashPointPolicy::All,
        ..CrashMonkeyConfig::small()
    }
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

/// The logical view a recovery or a mount gives, or its error.
fn view(opened: FsResult<Box<dyn FileSystem>>) -> Result<LogicalSnapshot, String> {
    let fs = opened.map_err(|e| e.to_string())?;
    LogicalSnapshot::capture(fs.as_ref()).map_err(|e| e.to_string())
}

#[test]
fn patch_forward_matches_remount_on_all_four_file_systems() {
    for kind in FsKind::ALL {
        let spec = kind.spec(KernelEra::V4_16);
        let monkey = CrashMonkey::with_config(spec.as_ref(), all_points_config());
        let mut session = spec.recovery_session();
        let (mut workloads, mut states) = (0u64, 0u64);
        for workload in WorkloadGenerator::new(small_seq2_bounds()) {
            let profile = monkey.profile_only(&workload).expect("profiling runs");
            workloads += 1;
            for info in CrashPointPolicy::All.select(&profile.checkpoints) {
                let state = crash_state(&profile.base_image, &profile.log, info.id)
                    .expect("a recorded checkpoint has a crash state");
                let recovered = view(session.recover(spec.as_ref(), Box::new(state.clone()), None));
                let mounted = view(spec.mount(Box::new(state)));
                assert_eq!(
                    recovered, mounted,
                    "{kind:?}, {}: recovering crash point {} diverged from mounting it",
                    workload.name, info.id
                );
                states += 1;
            }
        }
        assert!(
            states > workloads,
            "{kind:?}: {states} crash states over {workloads} workloads — \
             `All` must visit several per workload"
        );
    }
}

#[test]
fn distributed_patch_forward_matches_in_process_remount() {
    let bounds = small_seq2_bounds();
    let spec = FsKind::Cow.spec(KernelEra::V4_16);
    let config = RunConfig {
        threads: 2,
        crashmonkey: all_points_config(),
        ..RunConfig::default()
    };
    let reference = Sweep::new(spec.as_ref(), config)
        .shards(NUM_SHARDS)
        .run(&bounds);
    assert!(
        !reference.reports.is_empty(),
        "reference sweep must find bugs on the 4.16-era CowFs"
    );

    let mut job = SweepJob::new(bounds, NUM_SHARDS);
    job.crashmonkey = all_points_config();
    let config = DistribConfig {
        workers: 4,
        ..DistribConfig::default()
    };
    let workers = ChildTransport::new(WorkerCommand::new(env!("CARGO_BIN_EXE_b3")).arg("worker"));
    let outcome =
        run_with_transport(&job, &config, &workers, None).expect("distributed sweep runs");
    assert!(outcome.is_complete());
    assert_eq!(outcome.failed_workers, 0);

    assert_eq!(outcome.summary.tested, reference.tested);
    assert_eq!(outcome.summary.skipped, reference.skipped);
    assert_eq!(outcome.summary.raw_reports, reference.raw_reports);
    assert_eq!(
        report_bytes(&outcome.summary),
        report_bytes(&reference),
        "distributed exemplars must be byte-identical to the in-process reference"
    );
    // Group exemplars reassembled from the worker frames match too.
    let groups = outcome.checkpoint.bug_groups();
    assert_eq!(groups.len(), reference.reports.len());
    for (group, exemplar) in groups.iter().zip(&reference.reports) {
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
