//! End-to-end tests of the multi-process sweep fan-out.
//!
//! * The **differential** test proves a 4-worker multi-process sweep is
//!   equivalent to the single-process [`Sweep`] over the same bounds: same
//!   tested/skipped counts, byte-identical exemplar reports — and, since
//!   shard results are deduplicated at the source, that its grouped result
//!   (group → raw-report count + exemplar) equals post-hoc `group_reports`
//!   over the raw report stream of a sequential, single-threaded
//!   CrashMonkey pass over the generator.
//! * The **chaos** test extends PR 2's kill/serialize/resume loop across
//!   process boundaries: every worker of the first run is killed mid-shard
//!   (via the worker binary's `--die-after-workloads` crash hook), then the
//!   coordinator itself is repeatedly stopped after partial merges, and the
//!   checkpoint file still converges to the uninterrupted run's counts.
//! * The **segment** tests cover the append-only checkpoint file: per-shard
//!   delta appends instead of full rewrites, replay equivalence, tolerance
//!   of the torn trailing record a killed coordinator can leave, and the
//!   rejection of files that are not segment logs.
//! * The **transport** tests drive the same differential and chaos
//!   equivalences over the TCP and ssh-pipe transports: 4 TCP workers are
//!   byte-identical to the single-process sweep, a TCP worker killed
//!   mid-shard is respawned (in-flight shards re-queued, a fresh
//!   connection accepted) until the sweep converges, an ssh-pipe fleet
//!   (via a stub `ssh`) matches too, and a worker refuses a job whose
//!   fingerprint does not match what it computes (the mismatched-binary
//!   handshake).
//!
//! Workers are real child processes running the `b3` binary's `worker`
//! subcommand.

use std::path::PathBuf;
use std::time::Duration;

use b3_ace::{Bounds, WorkloadGenerator};
use b3_crashmonkey::{CrashMonkey, CrashMonkeyConfig};
use b3_fs_cow::CowFsSpec;
use b3_harness::distrib::protocol::{FromWorker, Hello, ToWorker, PROTOCOL_VERSION};
use b3_harness::distrib::{
    load_checkpoint, run_with_transport, save_checkpoint, segment_stats, ChildTransport,
    DistribConfig, SshTransport, SweepJob, TcpTransport, Transport, WorkerCommand,
};
use b3_harness::{group_reports, BugGroup, RunConfig, RunSummary, Sweep};
use b3_vfs::codec::Encoder;
use b3_vfs::KernelEra;

const NUM_SHARDS: usize = 12;

fn worker_command() -> WorkerCommand {
    WorkerCommand::new(env!("CARGO_BIN_EXE_b3")).arg("worker")
}

/// The default pool: stdio child workers.
fn stdio_workers() -> ChildTransport {
    ChildTransport::new(worker_command())
}

/// A small two-operation space (~130 workloads): big enough that every
/// worker sees several shards, small enough for debug-build CI.
fn small_seq2_bounds() -> Bounds {
    let mut bounds = Bounds::tiny();
    bounds.seq_len = 2;
    bounds.name_prefix = "tiny-seq2".into();
    bounds
}

/// The uninterrupted single-process reference sweep.
fn single_process_summary(bounds: &Bounds) -> RunSummary {
    let spec = CowFsSpec::new(KernelEra::V4_16);
    let config = RunConfig {
        threads: 2,
        ..RunConfig::default()
    };
    Sweep::new(&spec, config).shards(NUM_SHARDS).run(bounds)
}

/// Post-hoc grouping of the *raw* (ungrouped) report stream over the same
/// bounds — the §5.3 reference the source-deduplicated sweeps must match.
/// The raw stream comes from the slow path: one CrashMonkey folded over the
/// generator, no threads.
fn post_hoc_reference(bounds: &Bounds) -> (usize, Vec<BugGroup>) {
    let spec = CowFsSpec::new(KernelEra::V4_16);
    let monkey = CrashMonkey::with_config(&spec, CrashMonkeyConfig::small());
    let raw: Vec<_> = WorkloadGenerator::new(bounds.clone())
        .filter_map(|workload| monkey.test_workload(&workload).ok())
        .flat_map(|outcome| outcome.bugs)
        .collect();
    (raw.len(), group_reports(&raw))
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

/// The workload budget that stops a fresh run of `job` once its first
/// `shards` shards are assigned: the coordinator assigns while the
/// candidates it has handed out stay below the budget.
fn first_shards(job: &SweepJob, shards: usize) -> Option<usize> {
    Some(job.shard_sizes()[..shards].iter().sum::<u64>() as usize)
}

/// A per-test checkpoint path in the system temp directory.
fn checkpoint_path(test: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("b3-{test}-{}.ck", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn four_worker_distributed_sweep_matches_single_process() {
    let bounds = small_seq2_bounds();
    let single = single_process_summary(&bounds);
    assert!(single.tested > 0, "reference sweep must test workloads");
    assert!(
        !single.reports.is_empty(),
        "reference sweep must find bugs on the 4.16-era CowFs"
    );

    let job = SweepJob::new(bounds.clone(), NUM_SHARDS);
    let config = DistribConfig {
        workers: 4,
        ..DistribConfig::default()
    };
    let final_progress = std::sync::Mutex::new(None);
    let callback = |p: &b3_harness::Progress| {
        *final_progress.lock().unwrap() = Some(p.clone());
    };
    let outcome = run_with_transport(&job, &config, &stdio_workers(), Some(&callback))
        .expect("distributed sweep runs");
    assert!(outcome.is_complete());
    assert_eq!(outcome.failed_workers, 0);
    assert_eq!(outcome.resumed_shards, 0);
    assert_summaries_equivalent(&outcome.summary, &single);

    // Dedup equivalence over the wire: the grouped shard frames the four
    // worker processes shipped must reassemble into exactly the table that
    // post-hoc grouping of the raw, ungrouped report stream produces —
    // same group keys, same raw-report counts, byte-identical exemplars.
    let (raw_reports, reference) = post_hoc_reference(&bounds);
    assert_eq!(outcome.summary.raw_reports, raw_reports);
    let grouped = outcome.checkpoint.bug_groups();
    assert_eq!(grouped.len(), reference.len());
    for (ours, theirs) in grouped.iter().zip(&reference) {
        assert_eq!(ours, theirs);
    }

    // The per-worker telemetry of the final progress snapshot accounts for
    // every shard and every tested workload — no work is double-counted or
    // attributed to nobody.
    let progress = final_progress
        .lock()
        .unwrap()
        .take()
        .expect("the final progress callback fires");
    assert_eq!(progress.per_worker.len(), 4);
    let telemetry_shards: u64 = progress.per_worker.iter().map(|w| w.shards).sum();
    let telemetry_tested: u64 = progress.per_worker.iter().map(|w| w.tested).sum();
    assert_eq!(telemetry_shards, NUM_SHARDS as u64);
    assert_eq!(telemetry_tested as usize, outcome.summary.tested);
}

#[test]
fn distributed_sweep_rejects_checkpoint_of_a_different_sweep() {
    let path = checkpoint_path("mismatch");
    let job = SweepJob::new(Bounds::tiny(), 4);
    b3_harness::distrib::save_checkpoint(&path, &job.empty_checkpoint()).unwrap();

    // Same file, different shard split: must be rejected, not resumed.
    let other_job = SweepJob::new(Bounds::tiny(), 5);
    let config = DistribConfig {
        workers: 1,
        checkpoint_path: Some(path.clone()),
        ..DistribConfig::default()
    };
    let result = run_with_transport(&other_job, &config, &stdio_workers(), None);
    assert!(result.is_err(), "mismatched checkpoint must be rejected");

    // Same bounds and shards, different execution context (file system):
    // shard results would come from a different file system, so the
    // checkpoint scope must reject the resume too.
    let mut other_fs_job = SweepJob::new(Bounds::tiny(), 4);
    other_fs_job.fs = b3_harness::FsKind::Journal;
    let result = run_with_transport(&other_fs_job, &config, &stdio_workers(), None);
    assert!(
        result.is_err(),
        "a checkpoint recorded on another file system must be rejected"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn chaos_killed_workers_and_coordinator_converge_to_uninterrupted_counts() {
    let bounds = small_seq2_bounds();
    let single = single_process_summary(&bounds);
    let path = checkpoint_path("chaos");
    let job = SweepJob::new(bounds, NUM_SHARDS);

    // Round 1: every worker is rigged to die abruptly mid-shard (after 15
    // workloads each, i.e. partway into its second shard). All four die, so
    // the run reports an error — but each completed shard was merged and
    // persisted before the deaths.
    let config = DistribConfig {
        workers: 4,
        checkpoint_path: Some(path.clone()),
        ..DistribConfig::default()
    };
    let dying_worker = worker_command().arg("--die-after-workloads").arg("15");
    let crashed = run_with_transport(&job, &config, &ChildTransport::new(dying_worker), None);
    assert!(
        crashed.is_err(),
        "a run whose every worker dies must report the failure"
    );
    let partial = load_checkpoint(&path)
        .expect("checkpoint file is readable")
        .expect("partial checkpoint was persisted before the workers died");
    assert!(
        partial.completed_shards() > 0,
        "shards completed before the kill must have been merged"
    );
    assert!(
        !partial.is_complete(),
        "the worker kills must actually interrupt the sweep"
    );

    // Rounds 2..: resume with healthy workers, but stop the coordinator
    // after a few newly merged shards each round — the moral equivalent of
    // killing it after a partial merge, since every merge is appended to
    // the checkpoint file as it lands. A budget one workload above the
    // largest shard stops the handing out once two shards of these
    // near-equal ones are assigned. Each round starts a fresh coordinator
    // that reloads the file from disk and merges it into one checkpoint.
    let two_shards = job.shard_sizes().into_iter().max().unwrap_or(0) as usize + 1;
    let mut rounds = 0;
    loop {
        let config = DistribConfig {
            workers: 4,
            stop_after_workloads: Some(two_shards),
            checkpoint_path: Some(path.clone()),
            ..DistribConfig::default()
        };
        let outcome = run_with_transport(&job, &config, &stdio_workers(), None)
            .expect("resumed coordinator runs");
        assert_eq!(outcome.failed_workers, 0);
        rounds += 1;
        assert!(rounds < 100, "the resume loop must converge");
        if outcome.is_complete() {
            break;
        }
    }
    assert!(
        rounds > 1,
        "the workload budget must actually interrupt the coordinator"
    );

    // The final checkpoint is indistinguishable from an uninterrupted run:
    // the same counts, and the same groups, byte for byte.
    let converged = load_checkpoint(&path)
        .expect("checkpoint file is readable")
        .expect("final checkpoint exists");
    assert!(converged.is_complete());
    assert_summaries_equivalent(&converged.summary(), &single);
    let (_, reference) = post_hoc_reference(&small_seq2_bounds());
    assert_eq!(converged.bug_groups(), reference);
    let _ = std::fs::remove_file(&path);
}

/// The checkpoint file is an append-only segment log: one snapshot written
/// at run start, then one delta record per merged shard — never a full
/// rewrite per merge — and replaying it yields the in-memory checkpoint.
#[test]
fn checkpoint_file_grows_by_deltas_not_rewrites() {
    let bounds = small_seq2_bounds();
    let path = checkpoint_path("segments");
    let job = SweepJob::new(bounds, NUM_SHARDS);
    let config = DistribConfig {
        workers: 2,
        stop_after_workloads: first_shards(&job, 3),
        checkpoint_path: Some(path.clone()),
        ..DistribConfig::default()
    };
    let outcome =
        run_with_transport(&job, &config, &stdio_workers(), None).expect("partial run succeeds");
    assert!(!outcome.is_complete());

    let stats = segment_stats(&path).expect("segment file parses");
    assert_eq!(stats.snapshots, 1, "exactly the run-start compaction");
    assert!(
        stats.deltas >= 3,
        "every merged shard must be an appended delta (got {})",
        stats.deltas
    );
    assert_eq!(stats.truncated_tail_bytes, 0);

    let replayed = load_checkpoint(&path)
        .expect("checkpoint file is readable")
        .expect("checkpoint file exists");
    assert_eq!(replayed, outcome.checkpoint);
    assert_eq!(replayed.completed_shards(), stats.deltas);
    let _ = std::fs::remove_file(&path);
}

/// A coordinator killed mid-append leaves a torn trailing record; the
/// loader must ignore it (losing only that one in-flight shard) and a
/// resumed sweep must still converge to the uninterrupted counts.
#[test]
fn torn_trailing_record_is_ignored_on_load() {
    let bounds = small_seq2_bounds();
    let single = single_process_summary(&bounds);
    let path = checkpoint_path("torn");
    let job = SweepJob::new(bounds, NUM_SHARDS);
    let config = DistribConfig {
        workers: 2,
        stop_after_workloads: first_shards(&job, 4),
        checkpoint_path: Some(path.clone()),
        ..DistribConfig::default()
    };
    run_with_transport(&job, &config, &stdio_workers(), None).expect("partial run succeeds");
    let before = load_checkpoint(&path)
        .expect("checkpoint file is readable")
        .expect("checkpoint file exists");

    // Simulate the kill: a delta record whose declared length runs past
    // end-of-file, i.e. the append was cut short.
    {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("checkpoint file opens for append");
        file.write_all(&[2u8]).expect("tag byte");
        file.write_all(&0xFFF0_u32.to_le_bytes()).expect("length");
        file.write_all(b"partial delta payload cut off by a crash")
            .expect("torn payload");
    }
    let stats = segment_stats(&path).expect("segment file still parses");
    assert!(stats.truncated_tail_bytes > 0, "the tail must look torn");
    let after = load_checkpoint(&path)
        .expect("a torn tail must not make the checkpoint unreadable")
        .expect("checkpoint file exists");
    assert_eq!(after, before, "the torn record contributes nothing");

    // And the resume completes as if nothing happened.
    let config = DistribConfig {
        workers: 2,
        checkpoint_path: Some(path.clone()),
        ..DistribConfig::default()
    };
    let outcome =
        run_with_transport(&job, &config, &stdio_workers(), None).expect("resumed run succeeds");
    assert!(outcome.is_complete());
    assert_summaries_equivalent(&outcome.summary, &single);
    let _ = std::fs::remove_file(&path);
}

/// A file without the segment magic — such as the bare serialized
/// checkpoint nothing has written since the segment log replaced it — is
/// rejected outright, never guessed at.
#[test]
fn a_bare_checkpoint_blob_is_not_a_segment_checkpoint() {
    let path = checkpoint_path("bare-blob");
    let job = SweepJob::new(small_seq2_bounds(), NUM_SHARDS);
    std::fs::write(&path, job.empty_checkpoint().to_bytes()).expect("blob write");
    let error = load_checkpoint(&path).expect_err("a bare blob must not load");
    assert!(
        error.to_string().contains("not a segment checkpoint"),
        "{error}"
    );
    assert!(segment_stats(&path).is_err());
    let _ = std::fs::remove_file(&path);
}

/// Concurrent atomic saves to the same path must not clobber each other's
/// temp files (they are uniquely named per call) and must always leave a
/// loadable checkpoint plus no temp litter behind.
#[test]
fn concurrent_saves_keep_the_checkpoint_loadable() {
    let path = checkpoint_path("concurrent");
    let job = SweepJob::new(small_seq2_bounds(), NUM_SHARDS);
    let checkpoint = job.empty_checkpoint();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..25 {
                    save_checkpoint(&path, &checkpoint).expect("save succeeds");
                }
            });
        }
    });
    let loaded = load_checkpoint(&path)
        .expect("checkpoint loads after concurrent saves")
        .expect("checkpoint file exists");
    assert_eq!(loaded, checkpoint);
    let dir = path.parent().expect("checkpoint has a parent");
    let base = path.file_name().expect("file name").to_string_lossy();
    let leftovers: Vec<String> = std::fs::read_dir(dir)
        .expect("parent dir lists")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().to_string_lossy().into_owned();
            (name.starts_with(&format!("{base}.")) && name.ends_with(".tmp")).then_some(name)
        })
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp litter left behind: {leftovers:?}"
    );
    let _ = std::fs::remove_file(&path);
}

/// Four workers over the TCP transport (loopback listener + launcher, three
/// shards per assignment) produce results byte-identical to the
/// single-process sweep, and the final telemetry labels every worker by its
/// socket endpoint.
#[test]
fn four_tcp_workers_match_single_process_with_endpoint_labels() {
    let bounds = small_seq2_bounds();
    let single = single_process_summary(&bounds);
    let job = SweepJob::new(bounds, NUM_SHARDS);
    let config = DistribConfig {
        workers: 4,
        assign_batch: 3,
        ..DistribConfig::default()
    };
    let transport = TcpTransport::bind("127.0.0.1:0")
        .expect("loopback listener binds")
        .with_launcher(worker_command());

    let final_progress = std::sync::Mutex::new(None);
    let callback = |p: &b3_harness::Progress| {
        *final_progress.lock().unwrap() = Some(p.clone());
    };
    let outcome =
        run_with_transport(&job, &config, &transport, Some(&callback)).expect("tcp sweep runs");
    assert!(outcome.is_complete());
    assert_eq!(outcome.failed_workers, 0);
    assert_eq!(outcome.respawns, 0);
    assert_summaries_equivalent(&outcome.summary, &single);

    // Every worker that did work is attributed to a host:port endpoint,
    // not a bare index, and the telemetry accounts for all shards.
    let progress = final_progress
        .lock()
        .unwrap()
        .take()
        .expect("the final progress callback fires");
    assert_eq!(progress.per_worker.len(), 4);
    let telemetry_shards: u64 = progress.per_worker.iter().map(|w| w.shards).sum();
    assert_eq!(telemetry_shards, NUM_SHARDS as u64);
    for worker in progress.per_worker.iter().filter(|w| w.shards > 0) {
        assert!(
            worker.endpoint.starts_with("127.0.0.1:"),
            "tcp workers must be labelled by socket endpoint, got {:?}",
            worker.endpoint
        );
        assert!(progress.describe().contains(&worker.endpoint));
    }
}

/// A fleet of TCP workers that *always* die mid-shard still drives the
/// sweep to completion when respawn is enabled: every death re-queues the
/// in-flight shards and accepts a replacement connection, and the final
/// counts are byte-identical to the uninterrupted single-process sweep —
/// nothing lost, nothing double-counted. Each link is assigned three shards
/// at a time and dies inside the second: the merged first shard must stay,
/// and the other two must go back on the queue — or the sweep could never
/// converge.
#[test]
fn tcp_workers_killed_mid_shard_are_respawned_until_convergence() {
    let bounds = small_seq2_bounds();
    let single = single_process_summary(&bounds);
    let job = SweepJob::new(bounds, NUM_SHARDS);
    let config = DistribConfig {
        workers: 4,
        assign_batch: 3,
        // Every generation dies after 15 workloads (mid-second-shard), so
        // convergence *requires* respawn to keep re-establishing links.
        respawn_budget: 50,
        ..DistribConfig::default()
    };
    let transport = TcpTransport::bind("127.0.0.1:0")
        .expect("loopback listener binds")
        .with_launcher(worker_command().arg("--die-after-workloads").arg("15"));

    let outcome =
        run_with_transport(&job, &config, &transport, None).expect("respawned sweep converges");
    assert!(outcome.is_complete());
    assert!(
        outcome.respawns > 0,
        "the dying workers must actually trigger respawns"
    );
    assert_eq!(
        outcome.failed_workers, 0,
        "every slot must finish cleanly once the queue drains"
    );
    assert_summaries_equivalent(&outcome.summary, &single);
}

/// The ssh-pipe transport re-execs the worker over an `ssh` program whose
/// stdio is the frame pipe. A stub `ssh` (drop options + host, exec the
/// remote command locally) proves the full path — spawn, handshake, shard
/// traffic, shutdown — without needing a real remote host.
#[test]
#[cfg(unix)]
fn ssh_pipe_workers_match_single_process() {
    use std::os::unix::fs::PermissionsExt;

    let bounds = small_seq2_bounds();
    let single = single_process_summary(&bounds);
    let stub = std::env::temp_dir().join(format!("b3-fake-ssh-{}.sh", std::process::id()));
    std::fs::write(
        &stub,
        "#!/bin/sh\n\
         # Stub ssh: skip options, drop the host argument, exec the rest.\n\
         while [ $# -gt 0 ]; do case \"$1\" in -*) shift;; *) break;; esac; done\n\
         shift\n\
         exec \"$@\"\n",
    )
    .expect("stub ssh writes");
    std::fs::set_permissions(&stub, std::fs::Permissions::from_mode(0o755))
        .expect("stub ssh becomes executable");

    let job = SweepJob::new(bounds, NUM_SHARDS);
    let config = DistribConfig {
        workers: 2,
        ..DistribConfig::default()
    };
    let transport = SshTransport::new(
        ["testhost-a", "testhost-b"],
        [env!("CARGO_BIN_EXE_b3"), "worker"],
    )
    .with_ssh_program(&stub);

    let final_progress = std::sync::Mutex::new(None);
    let callback = |p: &b3_harness::Progress| {
        *final_progress.lock().unwrap() = Some(p.clone());
    };
    let outcome =
        run_with_transport(&job, &config, &transport, Some(&callback)).expect("ssh sweep runs");
    assert!(outcome.is_complete());
    assert_eq!(outcome.failed_workers, 0);
    assert_summaries_equivalent(&outcome.summary, &single);

    // The two slots were handed one host each (round-robin), and each is
    // labelled by its ssh endpoint. Which slot got which host depends on
    // thread scheduling, so assert the *set*, not a per-index mapping.
    let progress = final_progress
        .lock()
        .unwrap()
        .take()
        .expect("the final progress callback fires");
    let mut hosts: Vec<&str> = progress
        .per_worker
        .iter()
        .map(|w| {
            w.endpoint
                .split('#')
                .next()
                .expect("ssh endpoints are host#pid")
        })
        .collect();
    hosts.sort_unstable();
    assert_eq!(hosts, ["ssh:testhost-a", "ssh:testhost-b"]);
    let _ = std::fs::remove_file(&stub);
}

/// The fingerprint half of the handshake: a worker sent a job whose
/// fingerprint differs from what it computes itself must answer `Reject`
/// (and exit) instead of producing unmergeable shard results. Drives a
/// real worker process by hand through the transport seam.
#[test]
fn worker_rejects_job_with_mismatched_fingerprint() {
    let transport = ChildTransport::new(worker_command());
    let mut link = transport
        .connect(&|| false)
        .expect("worker spawns")
        .expect("child transports always produce a link");

    // The worker reads its opening frame before speaking (it could be a
    // `Challenge` it must answer in the `Hello`), so the coordinator's
    // eager `Job` goes out first. Send one with a fingerprint no binary
    // would compute.
    let job = SweepJob::new(small_seq2_bounds(), NUM_SHARDS);
    let frame = ToWorker::Job {
        job: Box::new(job),
        fingerprint: "not-a-real-fingerprint".into(),
    }
    .to_frame();
    link.send(&frame).expect("job frame sends");

    // The worker still answers with a version-correct Hello...
    let hello = FromWorker::from_frame(&link.recv().expect("hello arrives")).unwrap();
    match hello {
        FromWorker::Hello(Hello { version, .. }) => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("worker must open with Hello, sent {other:?}"),
    }

    // ...and then refuses the job.
    match FromWorker::from_frame(&link.recv().expect("reject arrives")).unwrap() {
        FromWorker::Reject { reason } => {
            assert!(reason.contains("fingerprint mismatch"), "{reason}");
        }
        other => panic!("worker must Reject a mismatched fingerprint, sent {other:?}"),
    }
    link.abort();
}

/// The shared-secret half of the handshake, end to end over real TCP
/// links: an authenticating listener opens with a `Challenge` instead of
/// the eager `Job`, and only workers answering with the right HMAC tag are
/// ever given work. Loopback is normally exempt, so the test opts it in
/// (`with_loopback_auth`) — the same code path a non-loopback listener
/// takes unconditionally.
#[test]
fn challenged_tcp_workers_without_the_secret_are_rejected_at_the_handshake() {
    let bounds = small_seq2_bounds();
    let single = single_process_summary(&bounds);
    let job = SweepJob::new(bounds, NUM_SHARDS);
    let config = DistribConfig {
        workers: 2,
        ..DistribConfig::default()
    };
    let secret = "tcp-fleet-secret";

    // Workers holding the secret authenticate and the sweep is equivalent
    // to the single-process run — the challenge is invisible to results.
    let transport = TcpTransport::bind("127.0.0.1:0")
        .expect("loopback listener binds")
        .with_loopback_auth(true)
        .with_secret(secret.to_string())
        .with_launcher(worker_command().arg("--secret").arg(secret));
    let outcome =
        run_with_transport(&job, &config, &transport, None).expect("authenticated sweep runs");
    assert!(outcome.is_complete());
    assert_eq!(outcome.failed_workers, 0);
    assert_summaries_equivalent(&outcome.summary, &single);

    // A worker with no secret at all refuses the challenge (it cannot
    // answer) and the coordinator reports the refusal; no work is done.
    let transport = TcpTransport::bind("127.0.0.1:0")
        .expect("loopback listener binds")
        .with_loopback_auth(true)
        .with_secret(secret.to_string())
        .with_launcher(worker_command());
    let err = run_with_transport(&job, &config, &transport, None)
        .expect_err("a secretless worker must not be served");
    assert!(err.to_string().contains("secret"), "{err}");

    // A worker with the *wrong* secret sends a tag that fails
    // verification: the coordinator kills the link without ever sending
    // the job.
    let transport = TcpTransport::bind("127.0.0.1:0")
        .expect("loopback listener binds")
        .with_loopback_auth(true)
        .with_secret(secret.to_string())
        .with_launcher(worker_command().arg("--secret").arg("not-the-secret"));
    let err = run_with_transport(&job, &config, &transport, None)
        .expect_err("a wrong-secret worker must not be served");
    assert!(
        err.to_string()
            .contains("failed the shared-secret challenge"),
        "{err}"
    );
}

/// The acceptance-scale differential: the **full paper seq-2 space**
/// (~330K tested workloads) over 4 TCP-loopback workers produces a
/// checkpoint and `RunSummary` byte-identical to the single-process
/// `Sweep`. Ignored by default (tens of seconds even in release); run it
/// with `cargo test --release -p b3-harness --test distrib -- --ignored`.
#[test]
#[ignore = "full seq-2 space; run explicitly in release builds"]
fn full_seq2_tcp_sweep_matches_single_process() {
    let bounds = Bounds::paper_seq2();
    let shards = 64;
    let spec = CowFsSpec::new(KernelEra::V4_16);
    let config = RunConfig {
        threads: 2,
        ..RunConfig::default()
    };
    let single = Sweep::new(&spec, config).shards(shards).run(&bounds);
    assert!(single.tested > 100_000, "seq-2 must be the full space");

    let job = SweepJob::new(bounds, shards);
    let config = DistribConfig {
        workers: 4,
        assign_batch: 4,
        respawn_budget: 2,
        ..DistribConfig::default()
    };
    let transport = TcpTransport::bind("127.0.0.1:0")
        .expect("loopback listener binds")
        .with_launcher(worker_command());
    let outcome =
        run_with_transport(&job, &config, &transport, None).expect("tcp seq-2 sweep runs");
    assert!(outcome.is_complete());
    assert_summaries_equivalent(&outcome.summary, &single);

    // The grouped view of the checkpoint reassembled from TCP frames
    // equals the one an in-process sweep records (same groups, same
    // counts, byte-identical exemplars). The in-process checkpoint is
    // unscoped — scope is a distributed-resume concern — so the
    // comparison is on the grouped tables, which scope does not affect.
    let job_bounds = job.fs_bounds().expect("fs job");
    let mut reference = b3_harness::SweepCheckpoint::new(job_bounds, shards);
    let sweep_config = RunConfig {
        threads: 2,
        ..RunConfig::default()
    };
    let _ = Sweep::new(&spec, sweep_config)
        .shards(shards)
        .run_resumable(job_bounds, &mut reference);
    let ours = outcome.checkpoint.grouped();
    let theirs = reference.grouped();
    assert_eq!(ours.groups(), theirs.groups());
}

/// A listener serving fewer workers than slots must still finish promptly:
/// slots waiting in accept for workers that never come are cancelled the
/// moment the sweep has no work left, instead of stalling the completed
/// run until the accept timeout expires.
#[test]
fn listener_sweep_finishes_without_waiting_for_missing_workers() {
    let bounds = small_seq2_bounds();
    let single = single_process_summary(&bounds);
    let job = SweepJob::new(bounds, NUM_SHARDS);
    let config = DistribConfig {
        workers: 3,
        ..DistribConfig::default()
    };
    // An accept timeout far beyond what the test tolerates: if completion
    // depended on it, the elapsed assertion below would fail.
    let transport = TcpTransport::bind("127.0.0.1:0")
        .expect("loopback listener binds")
        .with_accept_timeout(Duration::from_secs(600));
    let addr = transport.local_addr().to_string();

    // Only ONE worker ever dials in; the other two slots wait in accept.
    let mut worker = std::process::Command::new(env!("CARGO_BIN_EXE_b3"))
        .args(["worker", "--connect"])
        .arg(&addr)
        .spawn()
        .expect("external worker starts");

    let started = std::time::Instant::now();
    let outcome =
        run_with_transport(&job, &config, &transport, None).expect("one-worker sweep runs");
    assert!(outcome.is_complete());
    assert_eq!(outcome.failed_workers, 0);
    assert_summaries_equivalent(&outcome.summary, &single);
    assert!(
        started.elapsed() < Duration::from_secs(120),
        "idle slots must cancel once the sweep is done, not wait out the accept timeout"
    );
    let _ = worker.wait();
}
