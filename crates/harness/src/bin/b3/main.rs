//! `b3` — the one command line of the sweep stack. Every flag, default and
//! exit code is specified once, in README.md's "Command line" section.
//!
//! * `b3 sweep` runs (or resumes) one job to the end: in this process
//!   (`--in-process`) or as the coordinator of a worker pool.
//! * `b3 worker` is the worker side of the protocol (`docs/PROTOCOL.md`):
//!   over stdio when a coordinator spawned it, or dialing one with
//!   `--connect HOST:PORT`.
//! * `b3 groups` prints the merged bug groups of a checkpoint file,
//!   offline.
//! * `b3 analyze` prints the static persistence-order analysis of one
//!   workload (`docs/ANALYSIS.md`).
//!
//! All parsing lives in three shared pieces: the flag reader ([`args`]),
//! the job description ([`job::JobSpec`] → `SweepJob`) and the worker pool
//! ([`pool::PoolSpec`] → `DistribConfig` + `Transport`). A pool's children
//! are this executable re-run as `b3 worker`.

mod analyze;
mod args;
mod job;
mod pool;
mod sweep;

use std::path::{Path, PathBuf};

use b3_harness::distrib::{load_checkpoint, worker_connect, worker_main, WorkerOptions};
use b3_harness::{bug_group_table, GroupTable};
use b3_vfs::codec::Encoder;
use b3_vfs::error::FsError;

use args::Args;

const USAGE: &str = "\
usage: b3 sweep   [JOB] [POOL] [--in-process] [--checkpoint FILE] [--stop-after N] [--out FILE]
       b3 worker  [--connect HOST:PORT] [--secret S] [--die-after-workloads N]
       b3 groups  --checkpoint FILE [--out FILE]
       b3 analyze [--file PATH | --corpus ID] [--fs NAME] [--era ERA] [--name NAME]
JOB:  --preset P --fs NAME --era ERA --shards N --prune off|rep|audit --audit-k K
      --crash-points last|all|triaged --triage-audit N --engine PROFILE
POOL: --workers N --transport stdio|tcp --listen ADDR --ssh HOST --remote-worker CMD
      --secret S --challenge-loopback --respawn N
exit: 0 ok, 1 runtime failure, 2 usage, 3 audit divergence (README.md, \"Command line\")";

/// The exit-code table: a command ends `Ok` (0) or with one of these.
const EXIT_RUNTIME: i32 = 1;
const EXIT_USAGE: i32 = 2;
const EXIT_AUDIT: i32 = 3;

/// Why a command failed, and the process exit code that says so.
#[derive(Debug)]
struct Exit {
    code: i32,
    message: String,
}

impl Exit {
    fn usage(message: impl Into<String>) -> Exit {
        Exit {
            code: EXIT_USAGE,
            message: message.into(),
        }
    }

    fn runtime(message: impl std::fmt::Display) -> Exit {
        Exit {
            code: EXIT_RUNTIME,
            message: message.to_string(),
        }
    }
}

impl From<FsError> for Exit {
    fn from(error: FsError) -> Exit {
        Exit::runtime(error)
    }
}

/// The one group-table printer: with `--out FILE` the table's wire bytes
/// (byte-comparable across in-process and distributed runs of the same
/// job, and with `b3 groups` of the run's checkpoint), otherwise the
/// rendered table.
fn print_groups(out: Option<&Path>, groups: &GroupTable) -> Result<(), Exit> {
    let Some(path) = out else {
        let table = groups.groups();
        if table.is_empty() {
            println!("no bug groups");
        } else {
            println!("{}", bug_group_table(&table).render());
        }
        return Ok(());
    };
    let mut enc = Encoder::new();
    groups.encode(&mut enc);
    let bytes = enc.finish();
    std::fs::write(path, &bytes)
        .map_err(|e| Exit::runtime(format!("write {}: {e}", path.display())))?;
    println!(
        "{} bug group(s), {} bytes written to {}",
        groups.len(),
        bytes.len(),
        path.display()
    );
    Ok(())
}

/// `b3 worker`: parses the worker flags, then hands the link to the
/// library's worker loop and returns its exit code.
fn worker(mut args: Args) -> Result<i32, Exit> {
    let mut options = WorkerOptions {
        secret: pool::env_secret(),
        ..WorkerOptions::default()
    };
    let mut connect = None;
    while let Some(flag) = args.next_flag()? {
        match flag.as_str() {
            "--connect" => connect = Some(args.value()?),
            "--secret" => options.secret = Some(args.value()?),
            "--die-after-workloads" => options.die_after_workloads = Some(args.parsed()?),
            _ => return Err(args.unknown()),
        }
    }
    Ok(match connect {
        Some(addr) => worker_connect(&addr, options),
        None => worker_main(options),
    })
}

/// `b3 groups`: the merged bug groups of a checkpoint file, read offline.
fn groups(mut args: Args) -> Result<(), Exit> {
    let mut checkpoint: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    while let Some(flag) = args.next_flag()? {
        match flag.as_str() {
            "--checkpoint" => checkpoint = Some(args.value()?.into()),
            "--out" => out = Some(args.value()?.into()),
            _ => return Err(args.unknown()),
        }
    }
    let path = checkpoint.ok_or_else(|| Exit::usage("missing --checkpoint"))?;
    let checkpoint = load_checkpoint(&path)?
        .ok_or_else(|| Exit::runtime(format!("no checkpoint at {}", path.display())))?;
    print_groups(out.as_deref(), checkpoint.grouped())
}

fn run(mut args: Args) -> Result<i32, Exit> {
    match args.word().as_deref() {
        Some("sweep") => sweep::run(args).map(|()| 0),
        Some("worker") => worker(args),
        Some("groups") => groups(args).map(|()| 0),
        Some("analyze") => analyze::run(args).map(|()| 0),
        Some(other) => Err(Exit::usage(format!("unknown command {other:?}"))),
        None => Err(Exit::usage("missing command")),
    }
}

fn main() {
    let code = run(Args::new(std::env::args().skip(1).collect())).unwrap_or_else(|exit| {
        eprintln!("b3: {}", exit.message);
        if exit.code == EXIT_USAGE {
            eprintln!("{USAGE}");
        }
        exit.code
    });
    std::process::exit(code);
}
