//! The worker side of the distributed sweep protocol.
//!
//! A worker is transport-agnostic: [`worker_main`] speaks frames over this
//! process's stdin/stdout (for stdio-child and ssh-pipe transports, where
//! the spawner owns the pipe), and [`worker_connect`] dials a coordinator's
//! TCP listener and speaks the same frames over the socket. Both run the
//! identical loop: read the coordinator's opening frame (a `Challenge` on
//! authenticated links, otherwise the eagerly-sent `Job`), send `Hello`
//! (carrying the HMAC challenge answer when one was issued), verify the job
//! fingerprint, then claim and run shards until `Shutdown`.

use std::io::{Read, Write};

use b3_vfs::error::{FsError, FsResult};

use super::protocol::PROTOCOL_VERSION;
use super::protocol::{read_frame, transport_err, write_frame, FromWorker, Hello, ToWorker};
use super::with_job_space;
use crate::engine::JobSpace;

/// Exit code a worker uses when its injected crash hook fires (the chaos
/// tests' stand-in for a worker VM dying mid-shard).
pub const WORKER_CRASH_EXIT: i32 = 41;

/// Options for [`worker_main`] / [`worker_connect`].
#[derive(Debug, Clone, Default)]
pub struct WorkerOptions {
    /// Chaos-test hook: exit with [`WORKER_CRASH_EXIT`] immediately before
    /// running workload `N` (counted across all assigned shards), i.e. die
    /// mid-shard. `None` disables the hook.
    pub die_after_workloads: Option<u64>,
    /// Shared secret for answering a coordinator's `Challenge` (required
    /// when dialing a non-loopback listener; see
    /// [`super::auth`]). `None` on spawned stdio/ssh workers and loopback
    /// dials, which are never challenged.
    pub secret: Option<String>,
}

/// The worker side of the protocol, speaking frames over this process's
/// stdin/stdout — used when a stdio-child or ssh-pipe transport spawned us
/// and owns the pipe. Returns the process exit code; the caller (the `b3`
/// binary's `worker` subcommand, which owns the command line) passes it to
/// [`std::process::exit`].
pub fn worker_main(options: WorkerOptions) -> i32 {
    let mut stdin = std::io::stdin().lock();
    let mut stdout = std::io::stdout().lock();
    exit_code(worker_loop(&mut stdin, &mut stdout, &options))
}

/// The worker side of the protocol over TCP: dials `addr` (a coordinator's
/// [`TcpTransport`](super::transport::TcpTransport) listener, as passed to
/// `b3 worker --connect`) and runs the same loop as [`worker_main`]
/// over the socket. Returns the process exit code.
pub fn worker_connect(addr: &str, options: WorkerOptions) -> i32 {
    let run = || -> FsResult<()> {
        let stream = std::net::TcpStream::connect(addr)
            .map_err(|e| transport_err(&format!("connect to coordinator {addr}"), e))?;
        let _ = stream.set_nodelay(true);
        let mut reader = std::io::BufReader::new(
            stream
                .try_clone()
                .map_err(|e| transport_err("clone tcp stream", e))?,
        );
        let mut writer = stream;
        worker_loop(&mut reader, &mut writer, &options)
    };
    exit_code(run())
}

fn exit_code(result: FsResult<()>) -> i32 {
    match result {
        Ok(()) => 0,
        Err(error) => {
            eprintln!("b3 worker: {error}");
            1
        }
    }
}

/// One full worker session over any framed byte pipe:
/// (`Challenge` →) `Hello` → `Job` (fingerprint-verified) →
/// `Claim`/`Assign`/`ShardDone` → `Shutdown`.
fn worker_loop(
    reader: &mut impl Read,
    writer: &mut impl Write,
    options: &WorkerOptions,
) -> FsResult<()> {
    // The coordinator always writes its opening frame eagerly — a
    // `Challenge` on authenticated links, otherwise the `Job` itself — so
    // reading before sending `Hello` cannot deadlock, and lets the worker
    // fold the challenge answer into the `Hello` it was going to send
    // anyway.
    let mut first = ToWorker::from_frame(&read_frame(reader)?)?;
    let auth = match &first {
        ToWorker::Challenge { nonce } => match &options.secret {
            Some(secret) => super::auth::auth_tag(secret, nonce),
            None => {
                return reject(
                    writer,
                    "coordinator requires a shared secret (--secret) \
                     but this worker has none"
                        .into(),
                )
            }
        },
        _ => String::new(),
    };
    write_frame(
        writer,
        &FromWorker::Hello(Hello {
            version: PROTOCOL_VERSION,
            auth,
        })
        .to_frame(),
    )?;
    // On a challenged link the `Job` only arrives after the coordinator
    // verified our `Hello`.
    if matches!(first, ToWorker::Challenge { .. }) {
        first = ToWorker::from_frame(&read_frame(reader)?)?;
    }

    let ToWorker::Job {
        job,
        fingerprint: expected_fingerprint,
    } = first
    else {
        return Err(FsError::Corrupted(
            "worker expected a Job as its first message".into(),
        ));
    };
    // The coordinator's fingerprint and ours must agree on what the job
    // *means* — bounds enumeration, scope, shard split. A divergence means
    // the two binaries would silently produce unmergeable shard results,
    // so refuse loudly instead.
    let actual_fingerprint = job.empty_checkpoint().fingerprint().to_string();
    if actual_fingerprint != expected_fingerprint {
        return reject(
            writer,
            format!(
                "job fingerprint mismatch: coordinator expects {expected_fingerprint:?} \
                 but this worker computes {actual_fingerprint:?} (mismatched binaries?)"
            ),
        );
    }
    if let Err(error) = job.validate() {
        return reject(writer, error.to_string());
    }
    let die_after = options.die_after_workloads;
    with_job_space!(&job, &job.scope(), |space| claim_loop(
        reader, writer, space, die_after
    ))
}

/// Refuses the session: tells the coordinator why, then fails the worker
/// with the same reason.
fn reject(writer: &mut impl Write, reason: String) -> FsResult<()> {
    write_frame(
        writer,
        &FromWorker::Reject {
            reason: reason.clone(),
        }
        .to_frame(),
    )?;
    Err(FsError::InvalidArgument(reason))
}

/// The steady-state worker loop over the job's space: `Claim` →
/// `Assign`/`Shutdown` → one `ShardDone` per assigned shard, each shard run
/// by the sweep engine on one tester that lives as long as the worker
/// process (so its caches dedup across every shard it runs).
fn claim_loop<S: JobSpace>(
    reader: &mut impl Read,
    writer: &mut impl Write,
    space: &S,
    mut workloads_until_crash: Option<u64>,
) -> FsResult<()> {
    let mut tester = space.tester();
    // The shard gate never stops a shard — it is the chaos hook
    // ([`WorkerOptions::die_after_workloads`]): die mid-shard, leaving the
    // claimed shard unreported.
    let mut tick = || {
        if let Some(remaining) = &mut workloads_until_crash {
            if *remaining == 0 {
                std::process::exit(WORKER_CRASH_EXIT);
            }
            *remaining -= 1;
        }
        true
    };
    loop {
        write_frame(writer, &FromWorker::Claim.to_frame())?;
        match ToWorker::from_frame(&read_frame(reader)?)? {
            ToWorker::Assign(shards) => {
                for shard in shards {
                    let (result, _) = space.run_shard(&mut tester, shard, &mut tick);
                    write_frame(writer, &FromWorker::ShardDone { shard, result }.to_frame())?;
                }
            }
            ToWorker::Shutdown => return Ok(()),
            ToWorker::Job { .. } => {
                return Err(FsError::Corrupted("unexpected second Job message".into()))
            }
            ToWorker::Challenge { .. } => {
                return Err(FsError::Corrupted(
                    "unexpected mid-session Challenge message".into(),
                ))
            }
        }
    }
}
