//! The sweep fleet daemon and its command-line client (see
//! `b3_harness::distrib::fleet` and `docs/PROTOCOL.md`).
//!
//! `serve` runs the long-lived coordinator: it owns a fleet directory (the
//! journaled job queue `queue.b3fq` plus one segment-log checkpoint per
//! job), schedules queued jobs onto the worker pool, and serves client
//! frames on a control listener. Killing the daemon loses nothing: on
//! restart the queue reloads (a job that was mid-sweep re-queues and
//! resumes from its checkpoint).
//!
//! The remaining subcommands are clients of a running daemon — except
//! `status --dir` and `groups`, which read the fleet directory offline.
//!
//! ```text
//! # terminal 1: the daemon (workers are re-exec'd children of the daemon)
//! b3-sweep-fleet serve --dir /tmp/fleet --control 127.0.0.1:7734 --workers 4
//! # terminal 2: tenants enqueue jobs, watch them run, fetch results
//! b3-sweep-fleet enqueue --control 127.0.0.1:7734 --preset tiny-seq2 --fs btrfs
//! b3-sweep-fleet status  --control 127.0.0.1:7734
//! b3-sweep-fleet watch   --control 127.0.0.1:7734
//! b3-sweep-fleet results --control 127.0.0.1:7734 --job 1
//! ```
//!
//! `serve` flags: `--dir D` (required), `--control ADDR` (default
//! `127.0.0.1:0`, printed once bound), `--workers N`, `--transport
//! stdio|tcp` (how sweep workers attach: stdio children, or a TCP
//! listener + spawned children), `--secret S` / `B3_SWEEP_SECRET` (shared
//! secret for the worker HMAC challenge; with `--transport tcp` loopback
//! workers are exempt unless `--challenge-loopback` is also given),
//! `--respawn N`, `--calibrate`, `--batch-target-ms T`, and
//! `--exit-when-idle` (drain the queue, then exit — instead of waiting
//! for more jobs).
//!
//! `enqueue` takes `--preset` (`tiny`, `tiny-seq2`, a Table 4 name, or an
//! application-transaction preset `app-tiny`/`app-smoke` — see
//! docs/APP.md), `--fs`, `--era`, `--shards`, `--prune`, `--crash-points`
//! (`last`/`all`/`triaged`), `--triage-audit N` (per-workload re-tests
//! of triage-reused crash states; requires `triaged`), and — for `app-*`
//! presets only — `--engine` (`fixed` or a comma-joined seeded-bug list,
//! e.g. `no-data-fsync,torn-commit`). `status` exits
//! non-zero under `--assert-all-done` if any job is not `done` (CI uses
//! this after a drain). `results --out FILE` writes the job's merged
//! group table in its wire encoding — byte-comparable against `groups
//! --single-process --out FILE`, which runs the same space in-process.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use b3_ace::{Bounds, SequencePreset};
use b3_app::{EngineProfile, TxnBounds};
use b3_crashmonkey::CrashPointPolicy;
use b3_harness::distrib::{
    inspect_queue, worker_from_args, ChildTransport, DistribConfig, FleetClient, FleetConfig,
    FleetCoordinator, JobState, JobStatus, TcpTransport, Transport, WorkerCommand,
};
use b3_harness::{bug_group_table, FsKind, GroupTable, PruneMode, RunConfig};
use b3_vfs::codec::Encoder;
use b3_vfs::KernelEra;

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("b3-sweep-fleet: {message}");
    std::process::exit(1);
}

struct ArgReader {
    args: std::vec::IntoIter<String>,
}

impl ArgReader {
    fn new(args: Vec<String>) -> ArgReader {
        ArgReader {
            args: args.into_iter(),
        }
    }

    /// Next `(flag, inline value)` pair, `--flag=value` style split.
    fn next_flag(&mut self) -> Option<(String, Option<String>)> {
        let arg = self.args.next()?;
        match arg.split_once('=') {
            Some((flag, value)) => Some((flag.to_string(), Some(value.to_string()))),
            None => Some((arg, None)),
        }
    }

    fn value(&mut self, flag: &str, inline: Option<String>) -> String {
        inline
            .or_else(|| self.args.next())
            .unwrap_or_else(|| fail(format!("{flag} needs a value")))
    }
}

/// The job-space flags shared by `enqueue` and `groups --single-process`.
struct JobSpec {
    preset: String,
    fs: FsKind,
    era: KernelEra,
    shards: usize,
    prune: PruneMode,
    crash_points: CrashPointPolicy,
    engine: EngineProfile,
}

impl JobSpec {
    fn new() -> JobSpec {
        JobSpec {
            preset: "tiny-seq2".into(),
            fs: FsKind::Cow,
            era: KernelEra::V4_16,
            shards: 12,
            prune: PruneMode::Off,
            crash_points: CrashPointPolicy::LastOnly,
            engine: EngineProfile::fixed(),
        }
    }

    /// Consumes a flag if it belongs to the job spec.
    fn take(&mut self, flag: &str, inline: Option<String>, reader: &mut ArgReader) -> bool {
        match flag {
            "--preset" => self.preset = reader.value(flag, inline),
            "--fs" => {
                let name = reader.value(flag, inline);
                self.fs = FsKind::parse(&name)
                    .unwrap_or_else(|| fail(format!("unknown file system {name:?}")));
            }
            "--era" => {
                let name = reader.value(flag, inline);
                self.era = KernelEra::parse(&name)
                    .unwrap_or_else(|| fail(format!("unknown kernel era {name:?}")));
            }
            "--shards" => {
                self.shards = reader
                    .value(flag, inline)
                    .parse()
                    .unwrap_or_else(|e| fail(format!("--shards: {e}")));
            }
            "--prune" => {
                let name = reader.value(flag, inline);
                self.prune = PruneMode::parse(&name).unwrap_or_else(|| {
                    fail(format!("unknown prune mode {name:?} (off/rep/audit)"))
                });
            }
            "--crash-points" => {
                let name = reader.value(flag, inline);
                self.crash_points = CrashPointPolicy::parse(&name).unwrap_or_else(|| {
                    fail(format!(
                        "unknown crash-point policy {name:?} (last/all/triaged)"
                    ))
                });
            }
            "--triage-audit" => {
                let audit = reader
                    .value(flag, inline)
                    .parse()
                    .unwrap_or_else(|e| fail(format!("--triage-audit: {e}")));
                match &mut self.crash_points {
                    CrashPointPolicy::AllTriaged { audit: slot } => *slot = audit,
                    _ => fail("--triage-audit requires --crash-points triaged"),
                }
            }
            "--engine" => {
                let name = reader.value(flag, inline);
                self.engine =
                    EngineProfile::parse(&name).unwrap_or_else(|e| fail(format!("--engine: {e}")));
            }
            _ => return false,
        }
        true
    }

    fn job(&self) -> b3_harness::SweepJob {
        let mut job = match app_preset_bounds(&self.preset) {
            Some(bounds) => b3_harness::SweepJob::new_app(bounds, self.engine, self.shards),
            None => {
                if !self.engine.is_fixed() {
                    fail("--engine only applies to app-* presets");
                }
                b3_harness::SweepJob::new(preset_bounds(&self.preset), self.shards)
            }
        };
        job.fs = self.fs;
        job.era = self.era;
        job.prune = self.prune;
        job.crashmonkey.crash_points = self.crash_points;
        job.validate().unwrap_or_else(|e| fail(e));
        job
    }
}

/// The application-transaction presets (`None` for file-system presets).
fn app_preset_bounds(name: &str) -> Option<TxnBounds> {
    match name {
        "app-tiny" => Some(TxnBounds::tiny()),
        "app-smoke" => Some(TxnBounds::smoke()),
        _ => None,
    }
}

fn preset_bounds(name: &str) -> Bounds {
    if name == "tiny" {
        return Bounds::tiny();
    }
    if name == "tiny-seq2" {
        // The CI-sized two-operation space (~130 workloads) the distrib
        // tests sweep: big enough to find bugs, small enough for a smoke.
        let mut bounds = Bounds::tiny();
        bounds.seq_len = 2;
        bounds.name_prefix = "tiny-seq2".into();
        return bounds;
    }
    SequencePreset::ALL
        .iter()
        .find(|preset| preset.name() == name)
        .map_or_else(
            || {
                fail(format!(
                    "unknown preset {name:?} (expected tiny, tiny-seq2, or a Table 4 name)"
                ))
            },
            SequencePreset::bounds,
        )
}

fn print_status_rows(rows: &[JobStatus]) {
    if rows.is_empty() {
        println!("queue is empty");
        return;
    }
    for row in rows {
        let error = if row.error.is_empty() {
            String::new()
        } else {
            format!("  ({})", row.error)
        };
        println!(
            "job {:>4}  {:<9}  {} @ {}  {} shards{error}",
            row.id,
            row.state.as_str(),
            row.fs,
            row.era,
            row.num_shards
        );
    }
}

fn write_group_bytes(out: Option<&PathBuf>, groups: &GroupTable) {
    let mut enc = Encoder::new();
    groups.encode(&mut enc);
    let bytes = enc.finish();
    match out {
        Some(path) => {
            std::fs::write(path, &bytes)
                .unwrap_or_else(|e| fail(format!("write {}: {e}", path.display())));
            println!(
                "{} bug group(s), {} bytes written to {}",
                groups.len(),
                bytes.len(),
                path.display()
            );
        }
        None => {
            let table = groups.groups();
            if table.is_empty() {
                println!("no bug groups");
            } else {
                println!("{}", bug_group_table(&table).render());
            }
        }
    }
}

fn cmd_serve(mut reader: ArgReader) {
    let mut dir: Option<PathBuf> = None;
    let mut control = "127.0.0.1:0".to_string();
    let mut workers = 4usize;
    let mut transport_kind = "stdio".to_string();
    let mut secret = std::env::var("B3_SWEEP_SECRET")
        .ok()
        .filter(|s| !s.is_empty());
    let mut challenge_loopback = false;
    let mut respawn = 0usize;
    let mut calibrate = false;
    let mut batch_target_ms: Option<u64> = None;
    let mut exit_when_idle = false;
    while let Some((flag, inline)) = reader.next_flag() {
        match flag.as_str() {
            "--dir" => dir = Some(PathBuf::from(reader.value(&flag, inline))),
            "--control" => control = reader.value(&flag, inline),
            "--workers" => {
                workers = reader
                    .value(&flag, inline)
                    .parse()
                    .unwrap_or_else(|e| fail(format!("--workers: {e}")));
            }
            "--transport" => {
                transport_kind = reader.value(&flag, inline);
                if transport_kind != "stdio" && transport_kind != "tcp" {
                    fail(format!(
                        "unknown transport {transport_kind:?} (expected stdio or tcp)"
                    ));
                }
            }
            "--secret" => secret = Some(reader.value(&flag, inline)),
            "--challenge-loopback" => challenge_loopback = true,
            "--respawn" => {
                respawn = reader
                    .value(&flag, inline)
                    .parse()
                    .unwrap_or_else(|e| fail(format!("--respawn: {e}")));
            }
            "--calibrate" => calibrate = true,
            "--batch-target-ms" => {
                batch_target_ms = Some(
                    reader
                        .value(&flag, inline)
                        .parse()
                        .unwrap_or_else(|e| fail(format!("--batch-target-ms: {e}"))),
                );
            }
            "--exit-when-idle" => exit_when_idle = true,
            other => fail(format!("unknown serve flag {other:?}")),
        }
    }
    let dir = dir.unwrap_or_else(|| fail("serve needs --dir"));

    let config = FleetConfig {
        dir,
        distrib: DistribConfig {
            workers,
            respawn_budget: respawn,
            batch_target: batch_target_ms.map(Duration::from_millis),
            ..DistribConfig::default()
        },
        secret: secret.clone(),
    };
    let fleet = FleetCoordinator::open(config).unwrap_or_else(|e| fail(e));

    // Sweep workers are this same binary re-exec'd with `--worker`.
    let self_exe = std::env::current_exe().expect("daemon knows its own executable");
    let mut worker_cmd = WorkerCommand::new(&self_exe).arg("--worker");
    if calibrate {
        worker_cmd = worker_cmd.arg("--calibrate");
    }
    let transport: Box<dyn Transport> = if transport_kind == "tcp" {
        let mut tcp = TcpTransport::bind("127.0.0.1:0")
            .unwrap_or_else(|e| fail(e))
            .with_launcher(worker_cmd)
            .with_loopback_auth(challenge_loopback);
        if let Some(secret) = &secret {
            tcp = tcp.with_secret(secret.clone());
        }
        println!("worker listener on {}", tcp.local_addr());
        Box::new(tcp)
    } else {
        Box::new(ChildTransport::new(worker_cmd))
    };

    let listener = std::net::TcpListener::bind(&control)
        .unwrap_or_else(|e| fail(format!("bind control listener on {control}: {e}")));
    let control_addr = listener
        .local_addr()
        .expect("control listener has an address");
    println!(
        "fleet daemon: control on {control_addr}, fleet dir {}",
        fleet.dir().display()
    );

    std::thread::scope(|scope| {
        let fleet = &fleet;
        scope.spawn(move || {
            if let Err(error) = fleet.serve_clients(listener) {
                eprintln!("b3-sweep-fleet: control listener failed: {error}");
            }
        });
        let ran = if exit_when_idle {
            let ran = fleet.run_until_idle(transport.as_ref());
            fleet.request_stop();
            ran
        } else {
            fleet.run_forever(transport.as_ref())
        };
        match ran {
            Ok(ran) => println!("fleet daemon stopping after {ran} job run(s)"),
            Err(error) => eprintln!("b3-sweep-fleet: scheduler failed: {error}"),
        }
    });
}

fn cmd_enqueue(mut reader: ArgReader) {
    let mut control: Option<String> = None;
    let mut spec = JobSpec::new();
    while let Some((flag, inline)) = reader.next_flag() {
        if spec.take(&flag, inline.clone(), &mut reader) {
            continue;
        }
        match flag.as_str() {
            "--control" => control = Some(reader.value(&flag, inline)),
            other => fail(format!("unknown enqueue flag {other:?}")),
        }
    }
    let control = control.unwrap_or_else(|| fail("enqueue needs --control"));
    let job = spec.job();
    let mut client = FleetClient::connect(&control).unwrap_or_else(|e| fail(e));
    let id = client.enqueue(&job).unwrap_or_else(|e| fail(e));
    println!(
        "job {id} queued: {} on {} @ {} over {} shards",
        spec.preset,
        job.fs.paper_name(),
        job.era.as_str(),
        job.num_shards
    );
}

fn cmd_status(mut reader: ArgReader) {
    let mut control: Option<String> = None;
    let mut dir: Option<PathBuf> = None;
    let mut assert_all_done = false;
    while let Some((flag, inline)) = reader.next_flag() {
        match flag.as_str() {
            "--control" => control = Some(reader.value(&flag, inline)),
            "--dir" => dir = Some(PathBuf::from(reader.value(&flag, inline))),
            "--assert-all-done" => assert_all_done = true,
            other => fail(format!("unknown status flag {other:?}")),
        }
    }
    let rows = match (control, dir) {
        (Some(control), _) => {
            let mut client = FleetClient::connect(&control).unwrap_or_else(|e| fail(e));
            client.status().unwrap_or_else(|e| fail(e))
        }
        (None, Some(dir)) => inspect_queue(&dir).unwrap_or_else(|e| fail(e)),
        (None, None) => fail("status needs --control or --dir"),
    };
    print_status_rows(&rows);
    if assert_all_done {
        let unfinished: Vec<u64> = rows
            .iter()
            .filter(|row| row.state != JobState::Done)
            .map(|row| row.id)
            .collect();
        if rows.is_empty() || !unfinished.is_empty() {
            fail(format!(
                "--assert-all-done: jobs not done: {unfinished:?} ({} total)",
                rows.len()
            ));
        }
    }
}

fn cmd_results(mut reader: ArgReader) {
    let mut control: Option<String> = None;
    let mut job: Option<u64> = None;
    let mut out: Option<PathBuf> = None;
    while let Some((flag, inline)) = reader.next_flag() {
        match flag.as_str() {
            "--control" => control = Some(reader.value(&flag, inline)),
            "--job" => {
                job = Some(
                    reader
                        .value(&flag, inline)
                        .parse()
                        .unwrap_or_else(|e| fail(format!("--job: {e}"))),
                );
            }
            "--out" => out = Some(PathBuf::from(reader.value(&flag, inline))),
            other => fail(format!("unknown results flag {other:?}")),
        }
    }
    let control = control.unwrap_or_else(|| fail("results needs --control"));
    let job = job.unwrap_or_else(|| fail("results needs --job"));
    let mut client = FleetClient::connect(&control).unwrap_or_else(|e| fail(e));
    let (status, groups) = client.results(job).unwrap_or_else(|e| fail(e));
    println!(
        "job {} is {} ({} bug group(s), {} raw report(s))",
        status.id,
        status.state.as_str(),
        groups.len(),
        groups.total_reports()
    );
    write_group_bytes(out.as_ref(), &groups);
}

fn cmd_groups(mut reader: ArgReader) {
    let mut checkpoint: Option<PathBuf> = None;
    let mut single_process = false;
    let mut out: Option<PathBuf> = None;
    let mut spec = JobSpec::new();
    while let Some((flag, inline)) = reader.next_flag() {
        if spec.take(&flag, inline.clone(), &mut reader) {
            continue;
        }
        match flag.as_str() {
            "--checkpoint" => checkpoint = Some(PathBuf::from(reader.value(&flag, inline))),
            "--single-process" => single_process = true,
            "--out" => out = Some(PathBuf::from(reader.value(&flag, inline))),
            other => fail(format!("unknown groups flag {other:?}")),
        }
    }
    let groups = match (checkpoint, single_process) {
        (Some(path), false) => {
            let checkpoint = b3_harness::distrib::load_checkpoint(&path)
                .unwrap_or_else(|e| fail(e))
                .unwrap_or_else(|| fail(format!("no checkpoint at {}", path.display())));
            checkpoint.grouped()
        }
        (None, true) => {
            // The in-process reference sweep over the identical space: the
            // grouped table the fleet's distributed runs must byte-match.
            let config = RunConfig {
                threads: 2,
                ..RunConfig::default()
            };
            let (_, reference) = spec
                .job()
                .run_in_process(&config)
                .unwrap_or_else(|e| fail(e));
            reference.grouped()
        }
        _ => fail("groups needs exactly one of --checkpoint FILE or --single-process"),
    };
    write_group_bytes(out.as_ref(), &groups);
}

fn cmd_watch(mut reader: ArgReader) {
    let mut control: Option<String> = None;
    let mut count: Option<usize> = None;
    while let Some((flag, inline)) = reader.next_flag() {
        match flag.as_str() {
            "--control" => control = Some(reader.value(&flag, inline)),
            "--count" => {
                count = Some(
                    reader
                        .value(&flag, inline)
                        .parse()
                        .unwrap_or_else(|e| fail(format!("--count: {e}"))),
                );
            }
            other => fail(format!("unknown watch flag {other:?}")),
        }
    }
    let control = control.unwrap_or_else(|| fail("watch needs --control"));
    let client = FleetClient::connect(&control).unwrap_or_else(|e| fail(e));
    let mut stream = client.subscribe().unwrap_or_else(|e| fail(e));
    let mut seen = 0usize;
    while let Some(event) = stream.next_event() {
        println!(
            "job {}: new bug group {:?} -> {} ({} report(s))",
            event.job,
            event.skeleton,
            event.consequence.describe(),
            event.count
        );
        let _ = std::io::stdout().flush();
        seen += 1;
        if count.is_some_and(|count| seen >= count) {
            return;
        }
    }
    println!("event stream closed by the daemon");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Children the daemon spawns as sweep workers re-enter here.
    if argv.first().is_some_and(|arg| arg == "--worker") {
        std::process::exit(worker_from_args(argv));
    }
    let Some(command) = argv.first().cloned() else {
        fail("usage: b3-sweep-fleet <serve|enqueue|status|results|groups|watch> [flags]");
    };
    let reader = ArgReader::new(argv[1..].to_vec());
    match command.as_str() {
        "serve" => cmd_serve(reader),
        "enqueue" => cmd_enqueue(reader),
        "status" => cmd_status(reader),
        "results" => cmd_results(reader),
        "groups" => cmd_groups(reader),
        "watch" => cmd_watch(reader),
        other => fail(format!("unknown command {other:?}")),
    }
}
