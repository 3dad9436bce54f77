//! `b3 fleet …`: the long-lived multi-job daemon (`serve`) and its clients.
//!
//! `serve` owns a fleet directory (the journaled queue `queue.b3fq` plus
//! one segment-log checkpoint per job), schedules queued jobs onto its
//! worker pool and answers client frames on the control listener; killing
//! it loses nothing (`b3_harness::distrib::fleet`). `status --dir` and
//! `groups` read files offline; the rest talk to a running daemon.

use std::io::Write as _;
use std::path::PathBuf;

use b3_harness::distrib::{inspect_queue, load_checkpoint, FleetClient, JobState};
use b3_harness::{FleetConfig, FleetCoordinator};

use crate::args::Args;
use crate::job::JobSpec;
use crate::pool::PoolSpec;
use crate::{print_groups, Exit};

pub fn run(mut args: Args) -> Result<(), Exit> {
    match args.word().as_deref() {
        Some("serve") => serve(args),
        Some("enqueue") => enqueue(args),
        Some("status") => status(args),
        Some("results") => results(args),
        Some("groups") => groups(args),
        Some("watch") => watch(args),
        Some(other) => Err(Exit::usage(format!("unknown fleet command {other:?}"))),
        None => Err(Exit::usage("missing fleet command")),
    }
}

/// The flags every fleet client and reader shares; each command checks
/// the ones it needs with [`required`].
#[derive(Default)]
struct Common {
    control: Option<String>,
    dir: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    out: Option<PathBuf>,
    job: Option<u64>,
    count: Option<usize>,
    assert_all_done: bool,
    exit_when_idle: bool,
}

impl Common {
    /// Consumes the current flag if it is one of `accepted`.
    fn take(&mut self, flag: &str, accepted: &[&str], args: &mut Args) -> Result<bool, Exit> {
        if !accepted.contains(&flag) {
            return Ok(false);
        }
        match flag {
            "--control" => self.control = Some(args.value()?),
            "--dir" => self.dir = Some(args.value()?.into()),
            "--checkpoint" => self.checkpoint = Some(args.value()?.into()),
            "--out" => self.out = Some(args.value()?.into()),
            "--job" => self.job = Some(args.parsed()?),
            "--count" => self.count = Some(args.parsed()?),
            "--assert-all-done" => self.assert_all_done = true,
            "--exit-when-idle" => self.exit_when_idle = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Parses a command line made only of `accepted` flags.
    fn parse(accepted: &[&str], mut args: Args) -> Result<Common, Exit> {
        let mut common = Common::default();
        while let Some(flag) = args.next_flag()? {
            if !common.take(&flag, accepted, &mut args)? {
                return Err(args.unknown());
            }
        }
        Ok(common)
    }
}

fn required<T>(value: Option<T>, flag: &str) -> Result<T, Exit> {
    value.ok_or_else(|| Exit::usage(format!("missing {flag}")))
}

fn connect(control: Option<String>) -> Result<FleetClient, Exit> {
    Ok(FleetClient::connect(&required(control, "--control")?)?)
}

fn serve(mut args: Args) -> Result<(), Exit> {
    let (mut common, mut pool) = (Common::default(), PoolSpec::new());
    while let Some(flag) = args.next_flag()? {
        let accepted = ["--dir", "--control", "--exit-when-idle"];
        if !(common.take(&flag, &accepted, &mut args)? || pool.take(&flag, &mut args)?) {
            return Err(args.unknown());
        }
    }
    let dir = required(common.dir, "--dir")?;
    let control = common.control.unwrap_or_else(|| "127.0.0.1:0".into());

    let (distrib, transport) = pool.build()?;
    let fleet = FleetCoordinator::open(FleetConfig {
        dir,
        distrib,
        secret: pool.secret,
    })?;
    let listener = std::net::TcpListener::bind(&control)
        .map_err(|e| Exit::runtime(format!("bind control listener on {control}: {e}")))?;
    let control = listener
        .local_addr()
        .map_err(|e| Exit::runtime(format!("control listener address: {e}")))?;
    println!(
        "fleet daemon: control on {control}, fleet dir {}, workers via {}",
        fleet.dir().display(),
        transport.describe()
    );

    let ran = std::thread::scope(|scope| {
        let fleet = &fleet;
        scope.spawn(move || {
            if let Err(error) = fleet.serve_clients(listener) {
                eprintln!("b3: control listener failed: {error}");
            }
        });
        let ran = if common.exit_when_idle {
            fleet.run_until_idle(transport.as_ref())
        } else {
            fleet.run_forever(transport.as_ref())
        };
        fleet.request_stop();
        ran
    })?;
    println!("fleet daemon stopping after {ran} job run(s)");
    Ok(())
}

fn enqueue(mut args: Args) -> Result<(), Exit> {
    let (mut common, mut spec) = (Common::default(), JobSpec::new());
    while let Some(flag) = args.next_flag()? {
        if !(spec.take(&flag, &mut args)? || common.take(&flag, &["--control"], &mut args)?) {
            return Err(args.unknown());
        }
    }
    let job = spec.job(None)?;
    let id = connect(common.control)?.enqueue(&job)?;
    println!(
        "job {id} queued: {} ({} shards) under {}",
        spec.preset,
        job.num_shards,
        job.scope()
    );
    Ok(())
}

fn status(args: Args) -> Result<(), Exit> {
    let common = Common::parse(&["--control", "--dir", "--assert-all-done"], args)?;
    let rows = match (common.control, common.dir) {
        (None, None) => return Err(Exit::usage("status needs --control or --dir")),
        (None, Some(dir)) => inspect_queue(&dir)?,
        (control, _) => connect(control)?.status()?,
    };
    if rows.is_empty() {
        println!("queue is empty");
    }
    for row in &rows {
        println!(
            "job {:>4}  {:<9}  {} @ {}  {} shards{}",
            row.id,
            row.state.as_str(),
            row.fs,
            row.era,
            row.num_shards,
            match row.error.as_str() {
                "" => String::new(),
                error => format!("  ({error})"),
            }
        );
    }
    let unfinished: Vec<u64> = rows
        .iter()
        .filter(|row| row.state != JobState::Done)
        .map(|row| row.id)
        .collect();
    if common.assert_all_done && (rows.is_empty() || !unfinished.is_empty()) {
        return Err(Exit::runtime(format!(
            "--assert-all-done: jobs not done: {unfinished:?} ({} total)",
            rows.len()
        )));
    }
    Ok(())
}

fn results(args: Args) -> Result<(), Exit> {
    let common = Common::parse(&["--control", "--job", "--out"], args)?;
    let job = required(common.job, "--job")?;
    let (status, groups) = connect(common.control)?.results(job)?;
    println!(
        "job {} is {} ({} bug group(s), {} raw report(s))",
        status.id,
        status.state.as_str(),
        groups.len(),
        groups.total_reports()
    );
    print_groups(common.out.as_deref(), &groups)
}

fn groups(args: Args) -> Result<(), Exit> {
    let common = Common::parse(&["--checkpoint", "--out"], args)?;
    let path = required(common.checkpoint, "--checkpoint")?;
    let checkpoint = load_checkpoint(&path)?
        .ok_or_else(|| Exit::runtime(format!("no checkpoint at {}", path.display())))?;
    print_groups(common.out.as_deref(), &checkpoint.grouped())
}

fn watch(args: Args) -> Result<(), Exit> {
    let common = Common::parse(&["--control", "--count"], args)?;
    let mut stream = connect(common.control)?.subscribe()?;
    let mut seen = 0usize;
    while common.count.is_none_or(|count| seen < count) {
        let Some(event) = stream.next_event() else {
            println!("event stream closed by the daemon");
            break;
        };
        println!(
            "job {}: new bug group {:?} -> {} ({} report(s))",
            event.job,
            event.skeleton,
            event.consequence.describe(),
            event.count
        );
        let _ = std::io::stdout().flush();
        seen += 1;
    }
    Ok(())
}
