//! Distributed sweep coordinator: run (or resume) a full preset sweep
//! across worker processes on one machine *or across machines* — the
//! analogue of the paper's 780-VM cluster (§6.1), built on
//! `b3_harness::distrib`.
//!
//! The coordinator owns the shard queue and the checkpoint file; workers
//! claim shards over the framed protocol (`docs/PROTOCOL.md`) carried by
//! one of three transports:
//!
//! * `--transport stdio` (default): workers are child processes (this same
//!   binary, re-executed with `--worker`) speaking over stdio.
//! * `--transport tcp`: the coordinator binds a loopback listener and
//!   spawns children that dial it with `--connect` — the self-contained
//!   demo of the network path (CI smokes this).
//! * `--listen ADDR`: bind ADDR and wait for externally started workers
//!   (`b3-sweep-worker --connect HOST:PORT` from any machine that can
//!   reach it). With `--secret S` (or `B3_SWEEP_SECRET`), non-loopback
//!   workers must answer a shared-secret HMAC challenge before the job
//!   is revealed (`docs/PROTOCOL.md`); workers supply the same value.
//! * `--ssh HOST` (repeatable): re-exec the worker on remote hosts over
//!   ssh pipes; `--remote-worker CMD` names the worker binary on the
//!   remote side (default `b3-sweep-worker`).
//!
//! Each worker result is deduplicated at the source into per-bug-group
//! exemplars + counts, merged into the checkpoint, and durably appended to
//! the checkpoint file as one small delta record (an append-only segment
//! log, `docs/FORMATS.md`), so killing the coordinator or any worker
//! mid-sweep loses at most the in-flight shards: re-running the same
//! command resumes from the file. With `--respawn N`, dead workers are
//! replaced on the spot instead of shrinking the fleet.
//!
//! ```text
//! # a bounded smoke of the full 3.9M-candidate seq-3-metadata space:
//! cargo run --release --example sweep_coordinator -- \
//!     --workers 4 --preset seq-3-metadata --checkpoint /tmp/seq3.ck --stop-after 20000
//! # the same slice over TCP loopback with calibrated batch sizing:
//! cargo run --release --example sweep_coordinator -- \
//!     --workers 4 --transport tcp --calibrate --batch-target-ms 2000 \
//!     --preset seq-3-metadata --checkpoint /tmp/seq3.ck --stop-after 20000
//! ```
//!
//! Flags: `--workers N` (default 4), `--preset NAME` (`tiny`, `seq-1`,
//! `seq-2`, `seq-3-data`, `seq-3-metadata` (default), `seq-3-nested`,
//! `seq-4-metadata`), `--shards S` (default 64 × workers), `--fs NAME`
//! (btrfs/ext4/F2FS/FSCQ, default btrfs), `--checkpoint FILE`,
//! `--stop-after M` workloads per invocation, `--respawn N` replacement
//! links per dead worker slot, `--calibrate` (workers measure a burst and
//! report throughput), `--batch-target-ms T` (size each worker's batches
//! to ~T ms of its calibrated rate), `--prune MODE` (`off` (default),
//! `rep`/`representative` to test only each symmetry class's canonical
//! representative, `audit` to additionally re-test sampled members against
//! their representative), `--audit-k K` (members sampled per class per
//! shard in audit mode, default 2), `--crash-points P` (`last` (default)
//! to crash only at each workload's final persistence point, `all` to
//! crash at every persistence point, `triaged` to cover every persistence
//! point but dynamically test only crash states the static
//! persistence-order analysis cannot prove bit-identical to an
//! already-tested one — see docs/ANALYSIS.md), `--triage-audit N`
//! (re-test up to N triage-reused crash states per workload against their
//! witness; requires `triaged`; divergences surface as audit failures and
//! exit code 3). The policy scopes the checkpoint, so an `all` sweep
//! never resumes a `last` checkpoint or vice versa. The big
//! `seq-4-metadata` space (~688M candidates) is only practical with
//! `--prune rep`.
//!
//! For a *long-lived, multi-job* coordinator — a queue of sweeps served
//! by one resident daemon, with enqueue/status/results/cancel over TCP
//! and live bug-group streams — see the `b3-sweep-fleet` binary
//! (`b3_harness::distrib::fleet`).

use std::path::PathBuf;
use std::time::Duration;

use b3::crashmonkey::ProfileSharing;
use b3::prelude::*;
use b3_harness::distrib::{
    load_checkpoint, run_with_transport, segment_stats, worker_from_args, ChildTransport,
    DistribConfig, SshTransport, SweepJob, TcpTransport, Transport, WorkerCommand,
};
use b3_harness::{bug_group_table, FsKind, Progress, PruneMode};

struct Args {
    workers: usize,
    preset: String,
    shards: Option<usize>,
    fs: FsKind,
    checkpoint: Option<PathBuf>,
    stop_after: Option<usize>,
    transport: String,
    listen: Option<String>,
    ssh_hosts: Vec<String>,
    remote_worker: String,
    secret: Option<String>,
    respawn: usize,
    calibrate: bool,
    batch_target_ms: Option<u64>,
    prune: PruneMode,
    audit_k: Option<u32>,
    crash_points: CrashPointPolicy,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        workers: 4,
        preset: "seq-3-metadata".into(),
        shards: None,
        fs: FsKind::Cow,
        checkpoint: None,
        stop_after: None,
        transport: "stdio".into(),
        listen: None,
        ssh_hosts: Vec::new(),
        remote_worker: "b3-sweep-worker".into(),
        secret: std::env::var("B3_SWEEP_SECRET")
            .ok()
            .filter(|s| !s.is_empty()),
        respawn: 0,
        calibrate: false,
        batch_target_ms: None,
        prune: PruneMode::Off,
        audit_k: None,
        crash_points: CrashPointPolicy::LastOnly,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
            None => (arg, None),
        };
        let mut value = || -> Result<String, String> {
            inline
                .clone()
                .or_else(|| args.next())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workers" => {
                parsed.workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?;
            }
            "--preset" => parsed.preset = value()?,
            "--shards" => {
                parsed.shards = Some(value()?.parse().map_err(|e| format!("--shards: {e}"))?);
            }
            "--fs" => {
                let name = value()?;
                parsed.fs = FsKind::parse(&name).ok_or(format!("unknown file system {name:?}"))?;
            }
            "--checkpoint" => parsed.checkpoint = Some(PathBuf::from(value()?)),
            "--stop-after" => {
                parsed.stop_after =
                    Some(value()?.parse().map_err(|e| format!("--stop-after: {e}"))?);
            }
            "--transport" => {
                let name = value()?;
                if name != "stdio" && name != "tcp" {
                    return Err(format!(
                        "unknown transport {name:?} (expected stdio or tcp; \
                         use --listen/--ssh for remote workers)"
                    ));
                }
                parsed.transport = name;
            }
            "--listen" => parsed.listen = Some(value()?),
            "--secret" => parsed.secret = Some(value()?),
            "--ssh" => parsed.ssh_hosts.push(value()?),
            "--remote-worker" => parsed.remote_worker = value()?,
            "--respawn" => {
                parsed.respawn = value()?.parse().map_err(|e| format!("--respawn: {e}"))?;
            }
            "--calibrate" => parsed.calibrate = true,
            "--prune" => {
                let name = value()?;
                parsed.prune = PruneMode::parse(&name)
                    .ok_or(format!("unknown prune mode {name:?} (off/rep/audit)"))?;
            }
            "--audit-k" => {
                parsed.audit_k = Some(value()?.parse().map_err(|e| format!("--audit-k: {e}"))?);
            }
            "--crash-points" => {
                let name = value()?;
                parsed.crash_points = CrashPointPolicy::parse(&name).ok_or(format!(
                    "unknown crash-point policy {name:?} (last/all/triaged)"
                ))?;
            }
            "--triage-audit" => {
                let audit = value()?
                    .parse()
                    .map_err(|e| format!("--triage-audit: {e}"))?;
                match &mut parsed.crash_points {
                    CrashPointPolicy::AllTriaged { audit: slot } => *slot = audit,
                    _ => return Err("--triage-audit requires --crash-points triaged".into()),
                }
            }
            "--batch-target-ms" => {
                parsed.batch_target_ms = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--batch-target-ms: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(parsed)
}

fn preset_bounds(name: &str) -> Result<Bounds, String> {
    if name == "tiny" {
        return Ok(Bounds::tiny());
    }
    SequencePreset::ALL
        .iter()
        .find(|preset| preset.name() == name)
        .map(SequencePreset::bounds)
        .ok_or(format!(
            "unknown preset {name:?} (expected tiny or a Table 4 name)"
        ))
}

/// Workloads profiled locally for the summary's prefix-sharing line.
const SHARING_SAMPLE: usize = 2000;

/// Measures prefix sharing on the head of shard 0. The harnesses that ran
/// the sweep live in the worker processes and report outcomes only, so the
/// summary samples the figure here: the workloads are profiled (not crash
/// tested) through one local harness, in generator order like a worker.
fn sampled_profile_sharing(job: &SweepJob, bounds: &Bounds) -> (usize, ProfileSharing) {
    let spec = job.fs.spec(job.era);
    let monkey = CrashMonkey::with_config(spec.as_ref(), job.crashmonkey);
    let shard = bounds.shard(0, job.num_shards);
    let mut profiled = 0;
    for workload in WorkloadGenerator::for_shard(bounds.clone(), &shard).take(SHARING_SAMPLE) {
        // A workload that cannot be profiled is the sweep's to report.
        let _ = monkey.profile_only(&workload);
        profiled += 1;
    }
    (profiled, monkey.profile_sharing())
}

/// Builds the transport the flags ask for. Boxed because the choice is
/// runtime; the coordinator only sees `&dyn Transport`.
fn build_transport(args: &Args) -> Result<Box<dyn Transport>, String> {
    let self_exe = std::env::current_exe().expect("coordinator knows its own executable");
    let mut worker_cmd = WorkerCommand::new(&self_exe).arg("--worker");
    if args.calibrate {
        worker_cmd = worker_cmd.arg("--calibrate");
    }
    if !args.ssh_hosts.is_empty() {
        let mut remote = vec![args.remote_worker.clone()];
        if args.calibrate {
            remote.push("--calibrate".into());
        }
        return Ok(Box::new(SshTransport::new(args.ssh_hosts.clone(), remote)));
    }
    if let Some(addr) = &args.listen {
        let mut transport = TcpTransport::bind(addr)
            .map_err(|e| e.to_string())?
            .with_accept_timeout(Duration::from_secs(300));
        if let Some(secret) = &args.secret {
            // Non-loopback workers must now answer the HMAC challenge;
            // they pass the same value via --secret or B3_SWEEP_SECRET.
            transport = transport.with_secret(secret.clone());
        }
        println!(
            "listening on {}{}; start workers with: b3-sweep-worker --connect {}",
            transport.local_addr(),
            if args.secret.is_some() {
                " (shared-secret challenge armed)"
            } else {
                ""
            },
            transport.local_addr()
        );
        return Ok(Box::new(transport));
    }
    if args.transport == "tcp" {
        let transport = TcpTransport::bind("127.0.0.1:0")
            .map_err(|e| e.to_string())?
            .with_launcher(worker_cmd);
        println!("tcp loopback listener on {}", transport.local_addr());
        return Ok(Box::new(transport));
    }
    Ok(Box::new(ChildTransport::new(worker_cmd)))
}

fn main() {
    // Child processes re-exec this binary with `--worker`; everything after
    // that flag configures the worker side of the protocol.
    if std::env::args().any(|arg| arg == "--worker") {
        std::process::exit(worker_from_args(std::env::args().skip(1)));
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("sweep_coordinator: {message}");
            std::process::exit(2);
        }
    };
    let bounds = match preset_bounds(&args.preset) {
        Ok(bounds) => bounds,
        Err(message) => {
            eprintln!("sweep_coordinator: {message}");
            std::process::exit(2);
        }
    };

    // Shard count precedence: --shards, else the shard count of an existing
    // checkpoint (so a sweep can be resumed with a different --workers
    // without being rejected as "a different sweep"), else 64 per worker.
    let mut existing_shards = None;
    if let Some(path) = &args.checkpoint {
        match load_checkpoint(path) {
            Ok(Some(existing)) => {
                println!(
                    "resuming from {}: {}/{} shards already complete",
                    path.display(),
                    existing.completed_shards(),
                    existing.num_shards()
                );
                existing_shards = Some(existing.num_shards());
            }
            Ok(None) => println!("checkpoint file {} (new sweep)", path.display()),
            Err(error) => {
                eprintln!("sweep_coordinator: unreadable checkpoint: {error}");
                std::process::exit(1);
            }
        }
    }
    let num_shards = args
        .shards
        .or(existing_shards)
        .unwrap_or(args.workers.max(1) * 64);
    let total = WorkloadGenerator::estimate_candidates(&bounds);

    let transport = match build_transport(&args) {
        Ok(transport) => transport,
        Err(message) => {
            eprintln!("sweep_coordinator: {message}");
            std::process::exit(1);
        }
    };
    println!(
        "sweeping {} ({total} candidates) over {num_shards} shards with {} workers via {}",
        args.preset,
        args.workers,
        transport.describe()
    );

    let mut job = SweepJob::new(bounds.clone(), num_shards);
    job.fs = args.fs;
    job.crashmonkey.crash_points = args.crash_points;
    match args.crash_points {
        CrashPointPolicy::LastOnly => {}
        CrashPointPolicy::All => println!("crash points: all persistence points"),
        CrashPointPolicy::AllTriaged { audit } => println!(
            "crash points: all persistence points, statically triaged \
             (audit {audit} reused states per workload)"
        ),
    }
    job.prune = match (args.prune, args.audit_k) {
        (PruneMode::Audit { .. }, Some(k)) => PruneMode::Audit {
            samples_per_class: k,
        },
        (mode, _) => mode,
    };
    if !job.prune.is_off() {
        println!("prune mode: {:?}", job.prune);
    }
    let config = DistribConfig {
        workers: args.workers,
        checkpoint_path: args.checkpoint.clone(),
        stop_after_workloads: args.stop_after,
        respawn_budget: args.respawn,
        batch_target: args.batch_target_ms.map(Duration::from_millis),
        progress_interval: Duration::from_secs(2),
        ..DistribConfig::default()
    };

    let progress = |p: &Progress| println!("  [progress] {}", p.describe());
    let outcome = match run_with_transport(&job, &config, transport.as_ref(), Some(&progress)) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("sweep_coordinator: {error}");
            std::process::exit(1);
        }
    };

    let summary = &outcome.summary;
    let groups = outcome.checkpoint.bug_groups();
    println!(
        "\n{} of {total} candidates tested ({} skipped, {} pruned as equivalent) | \
         {:.0} workloads/s this run | \
         {} raw reports deduplicated into {} bug groups | {}/{} shards complete",
        summary.tested,
        summary.skipped,
        summary.pruned,
        outcome.throughput_this_run(),
        summary.raw_reports,
        groups.len(),
        outcome.checkpoint.completed_shards(),
        outcome.checkpoint.num_shards(),
    );
    if summary.audited > 0 {
        println!(
            "audit: {} sampled class members re-tested against their representatives",
            summary.audited
        );
    }
    if !summary.audit_failures.is_empty() {
        eprintln!(
            "\nAUDIT FAILURE: {} class member(s) diverged from their representative — \
             the canonicalization (canon v{}) is unsound for this space:",
            summary.audit_failures.len(),
            b3_ace::CANON_VERSION,
        );
        for failure in &summary.audit_failures {
            eprintln!(
                "  class {:?}: member {} vs representative {}: {}",
                failure.class, failure.member, failure.representative, failure.detail
            );
        }
        std::process::exit(3);
    }
    if let Some(path) = &args.checkpoint {
        if let (Ok(metadata), Ok(stats)) = (std::fs::metadata(path), segment_stats(path)) {
            println!(
                "checkpoint file: {} bytes ({} snapshot(s) + {} delta record(s))",
                metadata.len(),
                stats.snapshots,
                stats.deltas,
            );
        }
    }
    if outcome.respawns > 0 {
        println!(
            "{} worker respawn(s) re-established dead links",
            outcome.respawns
        );
    }
    if outcome.failed_workers > 0 {
        println!(
            "{} worker(s) died; their shards were re-queued",
            outcome.failed_workers
        );
    }
    let (profiled, sharing) = sampled_profile_sharing(&job, &bounds);
    println!(
        "prefix sharing (first {profiled} workloads of shard 0, profiled here): \
         {} ops applied, {} resumed from a shared prefix ({:.0} %), {} forks, {} mount(s)",
        sharing.ops_applied,
        sharing.ops_resumed,
        sharing.resumed_share() * 100.0,
        sharing.forks,
        sharing.mounts,
    );
    if outcome.is_complete() {
        if !groups.is_empty() {
            println!("\nde-duplicated bug groups (skeleton x consequence):");
            println!("{}", bug_group_table(&groups).render());
        }
        println!("sweep complete");
    } else if let Some(path) = &args.checkpoint {
        println!(
            "sweep incomplete; re-run the same command to resume from {}",
            path.display()
        );
    } else {
        println!("sweep incomplete and no --checkpoint was given, progress is lost");
    }
}
