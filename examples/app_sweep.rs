//! Application-level crash testing: sweep a bounded transaction space
//! against the reference WAL+KV engine (`b3_app`, see `docs/APP.md`) and
//! check every crash state with the transaction oracle.
//!
//! By default the engine is built with **all three seeded bugs**
//! (`no-data-fsync,torn-commit,double-replay`) so a bare run demonstrates
//! detection; pass `--engine fixed` for the correct engine (which must
//! come out clean). The sweep runs in-process (`--in-process`) or through
//! the distributed coordinator with stdio child workers (default) or the
//! TCP loopback path (`--transport tcp`) — the same `b3-sweep-worker`
//! code path a fleet deployment uses, dispatching on the v6 job-space
//! kind byte (`docs/PROTOCOL.md`).
//!
//! ```text
//! # every seeded bug detected on the flash FS, in-process:
//! cargo run --release --example app_sweep -- --in-process --fs f2fs
//! # one seeded bug through 2 TCP-loopback workers:
//! cargo run --release --example app_sweep -- \
//!     --workers 2 --transport tcp --preset app-tiny --engine torn-commit
//! # the fixed engine is clean:
//! cargo run --release --example app_sweep -- --engine fixed
//! ```
//!
//! Flags: `--preset NAME` (`app-tiny` (default, 20 workloads) or
//! `app-smoke` (7140 workloads, with aborts)), `--engine PROFILE`
//! (`fixed` or a comma list of `no-data-fsync`, `torn-commit`,
//! `double-replay`), `--fs NAME` (btrfs/ext4/F2FS/FSCQ, default btrfs;
//! note ext4's data=ordered flush masks `no-data-fsync` — see
//! `docs/APP.md`), `--workers N` (default 2), `--shards S` (default 8 ×
//! workers), `--in-process`, `--transport stdio|tcp`, `--checkpoint FILE`
//! (distributed only), `--stop-after M` workloads per invocation.

use std::path::PathBuf;
use std::time::Duration;

use b3::prelude::*;
use b3_harness::distrib::{
    run_with_transport, worker_from_args, ChildTransport, DistribConfig, SweepJob, TcpTransport,
    Transport, WorkerCommand,
};
use b3_harness::{bug_group_table, FsKind, Progress, RunConfig};

struct Args {
    workers: usize,
    preset: String,
    engine: EngineProfile,
    fs: FsKind,
    shards: Option<usize>,
    in_process: bool,
    transport: String,
    checkpoint: Option<PathBuf>,
    stop_after: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        workers: 2,
        preset: "app-tiny".into(),
        engine: EngineProfile {
            commit_without_data_fsync: true,
            torn_commit: true,
            double_replay: true,
        },
        fs: FsKind::Cow,
        shards: None,
        in_process: false,
        transport: "stdio".into(),
        checkpoint: None,
        stop_after: None,
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
            "--engine" => parsed.engine = EngineProfile::parse(&value()?)?,
            "--fs" => {
                let name = value()?;
                parsed.fs = FsKind::parse(&name).ok_or(format!("unknown file system {name:?}"))?;
            }
            "--shards" => {
                parsed.shards = Some(value()?.parse().map_err(|e| format!("--shards: {e}"))?);
            }
            "--in-process" => parsed.in_process = true,
            "--transport" => {
                let name = value()?;
                if name != "stdio" && name != "tcp" {
                    return Err(format!(
                        "unknown transport {name:?} (expected stdio or tcp)"
                    ));
                }
                parsed.transport = name;
            }
            "--checkpoint" => parsed.checkpoint = Some(PathBuf::from(value()?)),
            "--stop-after" => {
                parsed.stop_after =
                    Some(value()?.parse().map_err(|e| format!("--stop-after: {e}"))?);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(parsed)
}

fn preset_bounds(name: &str) -> Result<TxnBounds, String> {
    match name {
        "app-tiny" => Ok(TxnBounds::tiny()),
        "app-smoke" => Ok(TxnBounds::smoke()),
        other => Err(format!(
            "unknown preset {other:?} (expected app-tiny or app-smoke)"
        )),
    }
}

fn main() {
    // Child processes re-exec this binary with `--worker`: the generic
    // sweep worker, which dispatches on the job's space kind byte and runs
    // the transaction-oracle path for app jobs.
    if std::env::args().any(|arg| arg == "--worker") {
        std::process::exit(worker_from_args(std::env::args().skip(1)));
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("app_sweep: {message}");
            std::process::exit(2);
        }
    };
    let bounds = match preset_bounds(&args.preset) {
        Ok(bounds) => bounds,
        Err(message) => {
            eprintln!("app_sweep: {message}");
            std::process::exit(2);
        }
    };
    let num_shards = args.shards.unwrap_or(args.workers.max(1) * 8);

    // Patched-era host + every crash point: any violation is the engine's
    // fault, and the intermediate persistence points are where the seeded
    // bugs live.
    let mut job = SweepJob::new_app(bounds.clone(), args.engine, num_shards);
    job.fs = args.fs;
    job.era = KernelEra::Patched;
    job.crashmonkey.crash_points = CrashPointPolicy::All;

    let total = bounds.candidates();
    println!(
        "app sweep: {} ({total} transaction workloads) on {} @ {}, engine [{}], {num_shards} shards",
        args.preset,
        job.fs.spec(job.era).name(),
        job.era.as_str(),
        args.engine.describe(),
    );

    let (summary, groups) = if args.in_process {
        println!("mode: in-process, {} worker threads", args.workers.max(1));
        let config = RunConfig {
            threads: args.workers.max(1),
            stop_after_workloads: args.stop_after,
            ..RunConfig::default()
        };
        let (summary, checkpoint) = job.run_in_process(&config).unwrap_or_else(|error| {
            eprintln!("app_sweep: {error}");
            std::process::exit(1);
        });
        (summary, checkpoint.bug_groups())
    } else {
        let transport: Box<dyn Transport> = {
            let self_exe = std::env::current_exe().expect("example knows its own executable");
            let worker_cmd = WorkerCommand::new(&self_exe).arg("--worker");
            if args.transport == "tcp" {
                let transport = TcpTransport::bind("127.0.0.1:0")
                    .unwrap_or_else(|e| {
                        eprintln!("app_sweep: loopback listener: {e}");
                        std::process::exit(1);
                    })
                    .with_launcher(worker_cmd);
                println!(
                    "mode: distributed, {} workers dialing tcp loopback {}",
                    args.workers,
                    transport.local_addr()
                );
                Box::new(transport)
            } else {
                println!("mode: distributed, {} stdio child workers", args.workers);
                Box::new(ChildTransport::new(worker_cmd))
            }
        };
        let config = DistribConfig {
            workers: args.workers,
            checkpoint_path: args.checkpoint.clone(),
            stop_after_workloads: args.stop_after,
            progress_interval: Duration::from_secs(2),
            ..DistribConfig::default()
        };
        let progress = |p: &Progress| println!("  [progress] {}", p.describe());
        let outcome = match run_with_transport(&job, &config, transport.as_ref(), Some(&progress)) {
            Ok(outcome) => outcome,
            Err(error) => {
                eprintln!("app_sweep: {error}");
                std::process::exit(1);
            }
        };
        if outcome.failed_workers > 0 {
            println!(
                "{} worker(s) died; their shards were re-queued",
                outcome.failed_workers
            );
        }
        if !outcome.is_complete() {
            match &args.checkpoint {
                Some(path) => println!(
                    "sweep incomplete; re-run the same command to resume from {}",
                    path.display()
                ),
                None => println!("sweep incomplete and no --checkpoint was given"),
            }
        }
        let groups = outcome.checkpoint.bug_groups();
        (outcome.summary, groups)
    };

    if !groups.is_empty() {
        println!("\noracle violations by (workload skeleton x consequence):");
        println!("{}", bug_group_table(&groups).render());
    }
    println!(
        "\n{} of {total} workloads tested ({} skipped) | {} raw oracle violations | bug groups: {}",
        summary.tested,
        summary.skipped,
        summary.raw_reports,
        groups.len(),
    );
}
