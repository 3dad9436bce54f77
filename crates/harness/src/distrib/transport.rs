//! Pluggable worker transports for the distributed sweep.
//!
//! The coordinator/worker protocol (see [`super::protocol`] and
//! `docs/PROTOCOL.md`) is pure length-prefixed frames, so the only thing a
//! transport has to provide is a way to *establish* a framed byte pipe to a
//! fresh worker. Three implementations cover the deployment spectrum:
//!
//! * [`ChildTransport`] — spawn a worker child process on this machine and
//!   speak over its stdio (the PR 3 behavior, still the default).
//! * [`TcpTransport`] — bind a listener; workers connect with
//!   `b3 worker --connect host:port` from anywhere on the network.
//!   Optionally, a *launcher* command spawns a local worker per connection
//!   (used by the loopback tests and `b3 sweep --transport tcp`).
//! * [`SshTransport`] — re-exec the worker on a remote host over `ssh`,
//!   whose stdio *is* the pipe; no daemon or open port needed on the remote
//!   side.
//!
//! Worker *respawn* composes with every transport: when a link dies
//! mid-shard the coordinator re-queues the in-flight shards and simply asks
//! the transport for a new link ([`Transport::connect`]) — a fresh child, a
//! fresh inbound TCP connection, or a fresh ssh session.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use b3_vfs::error::{FsError, FsResult};

use super::protocol::{read_frame, transport_err, write_frame};

/// How to launch one worker process.
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    /// Path to the worker executable (typically the `b3` binary, with
    /// `worker` as the first of `args`).
    pub program: PathBuf,
    /// Arguments passed before the protocol takes over the link.
    pub args: Vec<String>,
}

impl WorkerCommand {
    /// A worker command with no extra arguments.
    pub fn new(program: impl Into<PathBuf>) -> WorkerCommand {
        WorkerCommand {
            program: program.into(),
            args: Vec::new(),
        }
    }

    /// Appends an argument.
    pub fn arg(mut self, arg: impl Into<String>) -> WorkerCommand {
        self.args.push(arg.into());
        self
    }
}

/// One established, framed connection to a worker.
///
/// A link owns whatever resources back the pipe (a child process handle, a
/// socket) and knows how to tear them down. Frame semantics are identical
/// across implementations; only [`WorkerLink::endpoint`] differs, and that
/// string is what progress output uses to attribute work to a worker.
pub trait WorkerLink: Send {
    /// Where this worker is: `child:<pid>`, `<host>:<port>`, or
    /// `ssh:<host>` — stable for the life of the link, unique enough to
    /// attribute multi-host progress output.
    fn endpoint(&self) -> &str;

    /// Sends one frame payload.
    fn send(&mut self, payload: &[u8]) -> FsResult<()>;

    /// Receives one frame payload.
    fn recv(&mut self) -> FsResult<Vec<u8>>;

    /// Cleanly closes the link after a `Shutdown` was sent: signals EOF and
    /// waits for a child to exit, closes a socket. Idempotent.
    fn close(&mut self);

    /// Forcibly tears the link down (kills a spawned child, shuts the
    /// socket): used when the worker broke protocol or died. Idempotent.
    fn abort(&mut self);

    /// The shared secret this link's worker must prove knowledge of before
    /// it is handed a job ([`super::auth`]): `Some` makes the coordinator
    /// open the session with a `Challenge` and verify the `Hello`'s answer.
    /// The default (`None`, used by the spawned stdio/ssh links and
    /// loopback TCP) skips the challenge entirely.
    fn required_secret(&self) -> Option<&str> {
        None
    }
}

/// Establishes links to fresh workers. One transport serves every worker
/// slot of a coordinator run; [`Transport::connect`] is called once per
/// worker plus once per respawn.
pub trait Transport: Sync {
    /// Human-readable description for logs ("stdio children of …",
    /// "tcp listener on …").
    fn describe(&self) -> String;

    /// Establishes a link to one new worker: spawn a child, accept an
    /// inbound TCP connection, or open an ssh session.
    ///
    /// `cancelled` is polled by transports that can block for a long time
    /// (the TCP listener waiting for an inbound connection); when it
    /// reports true the attempt stops and `Ok(None)` is returned — the
    /// coordinator uses this so a slot waiting for a worker that will
    /// never come does not stall a sweep that other workers already
    /// finished. Transports that establish links promptly may ignore it.
    fn connect(
        &self,
        cancelled: &(dyn Fn() -> bool + Sync),
    ) -> FsResult<Option<Box<dyn WorkerLink>>>;
}

// ---------------------------------------------------------------------------
// Child processes over stdio.
// ---------------------------------------------------------------------------

/// A link to a local child process over its piped stdin/stdout.
struct ChildLink {
    child: Child,
    /// `None` once [`WorkerLink::close`] dropped it to signal EOF.
    stdin: Option<ChildStdin>,
    stdout: std::io::BufReader<ChildStdout>,
    endpoint: String,
    reaped: bool,
}

impl ChildLink {
    fn spawn(program: &PathBuf, args: &[String], endpoint_prefix: &str) -> FsResult<ChildLink> {
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| transport_err("spawn worker", e))?;
        let stdio = child.stdin.take().zip(child.stdout.take());
        let Some((stdin, stdout)) = stdio else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(transport_err(
                "open worker stdio",
                std::io::Error::other("spawned child has no piped stdin/stdout"),
            ));
        };
        let stdout = std::io::BufReader::new(stdout);
        let endpoint = format!("{endpoint_prefix}{}", child.id());
        Ok(ChildLink {
            child,
            stdin: Some(stdin),
            stdout,
            endpoint,
            reaped: false,
        })
    }

    fn reap(&mut self) {
        if !self.reaped {
            let _ = self.child.wait();
            self.reaped = true;
        }
    }
}

impl WorkerLink for ChildLink {
    fn endpoint(&self) -> &str {
        &self.endpoint
    }

    fn send(&mut self, payload: &[u8]) -> FsResult<()> {
        let stdin = self.stdin.as_mut().ok_or_else(|| {
            FsError::Device("worker transport: write after link was closed".into())
        })?;
        write_frame(stdin, payload)
    }

    fn recv(&mut self) -> FsResult<Vec<u8>> {
        read_frame(&mut self.stdout)
    }

    fn close(&mut self) {
        // Dropping stdin signals EOF; a worker that was sent Shutdown (or
        // reads EOF) exits on its own, so a plain wait reaps it.
        self.stdin = None;
        self.reap();
    }

    fn abort(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
        self.reap();
    }
}

impl Drop for ChildLink {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            self.reap();
        }
    }
}

/// The stdio transport: every [`Transport::connect`] spawns `command` as a
/// child process and frames flow over its stdin/stdout. Endpoints are
/// `child:<pid>`.
#[derive(Debug, Clone)]
pub struct ChildTransport {
    command: WorkerCommand,
}

impl ChildTransport {
    /// A transport spawning `command` per worker.
    pub fn new(command: WorkerCommand) -> ChildTransport {
        ChildTransport { command }
    }
}

impl Transport for ChildTransport {
    fn describe(&self) -> String {
        format!("stdio children of {}", self.command.program.display())
    }

    fn connect(
        &self,
        _cancelled: &(dyn Fn() -> bool + Sync),
    ) -> FsResult<Option<Box<dyn WorkerLink>>> {
        Ok(Some(Box::new(ChildLink::spawn(
            &self.command.program,
            &self.command.args,
            "child:",
        )?)))
    }
}

// ---------------------------------------------------------------------------
// TCP listener.
// ---------------------------------------------------------------------------

/// A link over an accepted TCP connection.
///
/// Deliberately does **not** own the launcher-spawned worker process:
/// connections are accepted in whatever order the kernel delivers them,
/// so when several slots connect concurrently the socket a slot accepts
/// need not belong to the child *it* triggered — killing "its" child on
/// abort could murder a healthy worker serving another slot. Instead the
/// link only manages the socket (shutting it down makes whichever worker
/// is behind it fail its next frame IO and exit), and the transport reaps
/// every launched child (see [`TcpTransport`]).
struct TcpLink {
    reader: std::io::BufReader<TcpStream>,
    writer: TcpStream,
    endpoint: String,
    /// `Some` when the transport's auth policy requires this peer to pass
    /// the shared-secret challenge (non-loopback peers, or any peer when
    /// loopback auth is forced).
    required_secret: Option<String>,
}

impl WorkerLink for TcpLink {
    fn endpoint(&self) -> &str {
        &self.endpoint
    }

    fn send(&mut self, payload: &[u8]) -> FsResult<()> {
        write_frame(&mut self.writer, payload)
    }

    fn recv(&mut self) -> FsResult<Vec<u8>> {
        read_frame(&mut self.reader)
    }

    fn close(&mut self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
    }

    fn abort(&mut self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
    }

    fn required_secret(&self) -> Option<&str> {
        self.required_secret.as_deref()
    }
}

/// The TCP transport: the coordinator binds a listener and every
/// [`Transport::connect`] accepts one inbound worker connection (a
/// `b3 worker --connect host:port` started anywhere that can reach
/// the listener). Endpoints are the worker's peer `host:port`.
///
/// With a *launcher* ([`TcpTransport::with_launcher`]), each connect first
/// spawns the given command locally with `--connect <local_addr>` appended
/// — which makes loopback fan-out (and the respawn chaos tests)
/// self-contained: the transport both launches the worker and accepts its
/// connection.
pub struct TcpTransport {
    listener: TcpListener,
    local_addr: SocketAddr,
    accept_timeout: Duration,
    launcher: Option<WorkerCommand>,
    /// Shared secret for the HMAC challenge ([`super::auth`]). Required to
    /// accept non-loopback workers; without it any non-loopback connection
    /// is refused outright.
    secret: Option<String>,
    /// Forces the challenge even for loopback peers — normally loopback is
    /// exempt (the workers are ours), but the auth tests and belt-and-
    /// braces deployments flip this.
    loopback_auth: bool,
    /// Every worker process the launcher spawned. Links do not own
    /// children (see [`TcpLink`]); exited children are reaped
    /// opportunistically on each connect, and whatever is left is killed
    /// and reaped when the transport drops.
    launched: Mutex<Vec<Child>>,
}

impl TcpTransport {
    /// Binds the listener (e.g. `"127.0.0.1:0"` for an ephemeral loopback
    /// port, `"0.0.0.0:7733"` to take workers from other machines).
    pub fn bind(addr: &str) -> FsResult<TcpTransport> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| transport_err(&format!("bind tcp listener on {addr}"), e))?;
        // Non-blocking accept + polling, so `connect` can enforce a
        // deadline (std's TcpListener has no native accept timeout).
        listener
            .set_nonblocking(true)
            .map_err(|e| transport_err("set listener non-blocking", e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| transport_err("read listener address", e))?;
        Ok(TcpTransport {
            listener,
            local_addr,
            accept_timeout: Duration::from_secs(30),
            launcher: None,
            secret: None,
            loopback_auth: false,
            launched: Mutex::new(Vec::new()),
        })
    }

    /// The bound address — what workers pass to `--connect` (and where an
    /// ephemeral `:0` port materializes).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Spawns `command --connect <local_addr>` locally before each accept,
    /// so the transport produces its own workers.
    pub fn with_launcher(mut self, command: WorkerCommand) -> TcpTransport {
        self.launcher = Some(command);
        self
    }

    /// How long one [`Transport::connect`] waits for an inbound connection
    /// before giving up (default 30s).
    pub fn with_accept_timeout(mut self, timeout: Duration) -> TcpTransport {
        self.accept_timeout = timeout;
        self
    }

    /// Sets the shared secret non-loopback workers must authenticate with
    /// (HMAC challenge, [`super::auth`]). Without a secret, non-loopback
    /// connections are refused at accept time.
    pub fn with_secret(mut self, secret: impl Into<String>) -> TcpTransport {
        self.secret = Some(secret.into());
        self
    }

    /// Requires the challenge even from loopback peers (normally exempt).
    /// Used by the auth tests — CI has only loopback — and by deployments
    /// that want every link challenged regardless of source address.
    pub fn with_loopback_auth(mut self, required: bool) -> TcpTransport {
        self.loopback_auth = required;
        self
    }

    /// The auth policy for one accepted peer: `Ok(Some(secret))` when the
    /// link must be challenged, `Ok(None)` when it may proceed
    /// unauthenticated, `Err` when it must be refused (a peer we cannot
    /// challenge because no secret is configured).
    fn peer_auth(&self, peer: &SocketAddr) -> FsResult<Option<String>> {
        let needs_auth = self.loopback_auth || !peer.ip().is_loopback();
        match (&self.secret, needs_auth) {
            (_, false) => Ok(None),
            (Some(secret), true) => Ok(Some(secret.clone())),
            (None, true) => Err(FsError::InvalidArgument(format!(
                "worker at {peer} requires the shared-secret challenge but no secret is \
                 configured on this listener (set one with --secret / TcpTransport::with_secret)"
            ))),
        }
    }

    fn accept(
        &self,
        cancelled: &(dyn Fn() -> bool + Sync),
    ) -> FsResult<Option<(TcpStream, SocketAddr)>> {
        let deadline = Instant::now() + self.accept_timeout;
        loop {
            match self.listener.accept() {
                Ok(accepted) => return Ok(Some(accepted)),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if cancelled() {
                        return Ok(None);
                    }
                    if Instant::now() >= deadline {
                        return Err(FsError::Device(format!(
                            "worker transport: no worker connected to {} within {:?}",
                            self.local_addr, self.accept_timeout
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(transport_err("accept worker connection", e)),
            }
        }
    }

    /// Reaps launched children that already exited (non-blocking).
    fn reap_exited(&self) {
        let mut launched = self
            .launched
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        launched.retain_mut(|child| !matches!(child.try_wait(), Ok(Some(_))));
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // By drop time the coordinator run is over; any launched worker
        // still alive is either stuck or lost its socket, so kill and
        // reap rather than leak.
        let mut launched = self
            .launched
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for child in launched.iter_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        launched.clear();
    }
}

impl Transport for TcpTransport {
    fn describe(&self) -> String {
        match &self.launcher {
            Some(cmd) => format!(
                "tcp listener on {} launching {}",
                self.local_addr,
                cmd.program.display()
            ),
            None => format!("tcp listener on {}", self.local_addr),
        }
    }

    fn connect(
        &self,
        cancelled: &(dyn Fn() -> bool + Sync),
    ) -> FsResult<Option<Box<dyn WorkerLink>>> {
        self.reap_exited();
        if let Some(command) = &self.launcher {
            let child = Command::new(&command.program)
                .args(&command.args)
                .arg("--connect")
                .arg(self.local_addr.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| transport_err("spawn tcp worker", e))?;
            // The pool (not the link) owns the child: the connection
            // accepted below may belong to a different, concurrently
            // launched worker, so no link may kill "its" child.
            self.launched
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(child);
        }
        let Some((stream, peer)) = self.accept(cancelled)? else {
            return Ok(None);
        };
        // A peer we must challenge but cannot (no secret configured) is
        // refused before it joins the pool.
        let required_secret = match self.peer_auth(&peer) {
            Ok(required_secret) => required_secret,
            Err(refused) => {
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return Err(refused);
            }
        };
        // The listener is non-blocking for the deadline loop above, but the
        // accepted stream must block: frames are read with read_exact.
        stream
            .set_nonblocking(false)
            .map_err(|e| transport_err("set stream blocking", e))?;
        let _ = stream.set_nodelay(true);
        let reader = stream
            .try_clone()
            .map_err(|e| transport_err("clone tcp stream", e))?;
        Ok(Some(Box::new(TcpLink {
            reader: std::io::BufReader::new(reader),
            writer: stream,
            endpoint: peer.to_string(),
            required_secret,
        })))
    }
}

// ---------------------------------------------------------------------------
// ssh pipes.
// ---------------------------------------------------------------------------

/// The ssh transport: each [`Transport::connect`] runs
/// `ssh -oBatchMode=yes <host> <remote_command…>` and frames flow over the
/// ssh process's stdio — the remote worker's stdin/stdout *are* the pipe,
/// exactly as with a local child. Multiple hosts are used round-robin, so
/// one transport can fan a coordinator's worker slots (and respawns) out
/// across machines. Endpoints are `ssh:<host>#<pid>` (the pid of the local
/// ssh client, so two sessions to the same host stay distinguishable).
///
/// `BatchMode=yes` makes a missing key/agent fail fast instead of hanging
/// the coordinator on a password prompt.
pub struct SshTransport {
    ssh_program: PathBuf,
    hosts: Vec<String>,
    remote_command: Vec<String>,
    next_host: AtomicUsize,
}

impl SshTransport {
    /// A transport running `remote_command` (program + args, e.g.
    /// `["b3", "worker"]`) on each of `hosts` via `ssh`.
    ///
    /// # Panics
    /// Panics if `hosts` or `remote_command` is empty.
    pub fn new(
        hosts: impl IntoIterator<Item = impl Into<String>>,
        remote_command: impl IntoIterator<Item = impl Into<String>>,
    ) -> SshTransport {
        let hosts: Vec<String> = hosts.into_iter().map(Into::into).collect();
        let remote_command: Vec<String> = remote_command.into_iter().map(Into::into).collect();
        assert!(!hosts.is_empty(), "ssh transport needs at least one host");
        assert!(
            !remote_command.is_empty(),
            "ssh transport needs a remote worker command"
        );
        SshTransport {
            ssh_program: PathBuf::from("ssh"),
            hosts,
            remote_command,
            next_host: AtomicUsize::new(0),
        }
    }

    /// Overrides the `ssh` binary — the tests substitute a local stub that
    /// drops the host argument and execs the "remote" command directly.
    pub fn with_ssh_program(mut self, program: impl Into<PathBuf>) -> SshTransport {
        self.ssh_program = program.into();
        self
    }
}

impl Transport for SshTransport {
    fn describe(&self) -> String {
        format!(
            "ssh pipes to [{}] running {}",
            self.hosts.join(", "),
            self.remote_command.join(" ")
        )
    }

    fn connect(
        &self,
        _cancelled: &(dyn Fn() -> bool + Sync),
    ) -> FsResult<Option<Box<dyn WorkerLink>>> {
        let host = &self.hosts[self.next_host.fetch_add(1, Ordering::Relaxed) % self.hosts.len()];
        let mut args: Vec<String> = vec!["-oBatchMode=yes".into(), host.clone()];
        args.extend(self.remote_command.iter().cloned());
        Ok(Some(Box::new(ChildLink::spawn(
            &self.ssh_program,
            &args,
            &format!("ssh:{host}#"),
        )?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_accept_times_out_when_nobody_connects() {
        let transport = TcpTransport::bind("127.0.0.1:0")
            .unwrap()
            .with_accept_timeout(Duration::from_millis(50));
        let Err(error) = transport.connect(&|| false) else {
            panic!("accept must time out with nobody connecting")
        };
        assert!(error.to_string().contains("no worker connected"));
    }

    #[test]
    fn tcp_accept_stops_early_when_cancelled() {
        let transport = TcpTransport::bind("127.0.0.1:0")
            .unwrap()
            .with_accept_timeout(Duration::from_secs(3600));
        let started = Instant::now();
        let link = transport.connect(&|| true).unwrap();
        assert!(link.is_none(), "a cancelled accept must not produce a link");
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "cancellation must beat the accept timeout"
        );
    }

    #[test]
    fn tcp_auth_policy_challenges_non_loopback_and_exempts_loopback() {
        let loopback: SocketAddr = "127.0.0.1:5000".parse().unwrap();
        let remote: SocketAddr = "192.0.2.7:5000".parse().unwrap();

        let open = TcpTransport::bind("127.0.0.1:0").unwrap();
        assert_eq!(open.peer_auth(&loopback).unwrap(), None);
        let refused = open.peer_auth(&remote).unwrap_err();
        assert!(refused.to_string().contains("no secret is configured"));

        let secured = TcpTransport::bind("127.0.0.1:0").unwrap().with_secret("s");
        assert_eq!(secured.peer_auth(&loopback).unwrap(), None);
        assert_eq!(secured.peer_auth(&remote).unwrap(), Some("s".into()));

        let strict = TcpTransport::bind("127.0.0.1:0")
            .unwrap()
            .with_secret("s")
            .with_loopback_auth(true);
        assert_eq!(strict.peer_auth(&loopback).unwrap(), Some("s".into()));
    }

    #[test]
    fn ssh_transport_round_robins_hosts() {
        let transport = SshTransport::new(["a", "b"], ["worker"]);
        // `connect` would spawn ssh; just check the host rotation logic via
        // the counter and describe().
        assert!(transport.describe().contains("a, b"));
        assert_eq!(transport.next_host.fetch_add(1, Ordering::Relaxed) % 2, 0);
        assert_eq!(transport.next_host.fetch_add(1, Ordering::Relaxed) % 2, 1);
    }
}
