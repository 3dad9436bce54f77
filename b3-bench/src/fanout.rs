//! The fan-out entry point: `run_with_transport` over TCP loopback with the
//! benchmark re-exec'd as the worker processes, and the transport wrapper
//! that times every `connect` / `send` / `recv` for the traced run.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use b3::harness::distrib::{
    segment_stats, worker_connect, DistribConfig, DistribOutcome, SegmentStats, WorkerOptions,
};
use b3::harness::{
    run_with_transport, SweepJob, TcpTransport, Transport, WorkerCommand, WorkerLink,
};
use b3::vfs::FsResult;

use crate::stats::{self, LogHistogram};
use crate::workloads::WORKERS;

/// How the fan-out's workers run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workers {
    /// This executable re-exec'd with `--worker` (what is measured).
    Processes,
    /// `worker_connect` on threads of this process — for the unit tests,
    /// whose executable is not the benchmark.
    Threads,
}

/// The build directory the executable runs from: where scratch and trace
/// files go — always inside the checkout, never `/tmp`.
pub fn build_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    exe.parent()
        .expect("executable has a directory")
        .to_path_buf()
}

/// A fresh directory of this process's own under [`build_dir`].
pub fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = build_dir().join("b3-bench-scratch").join(format!(
        "{}-{}-{tag}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Entry of a `--worker` re-exec: dial the coordinator, serve shards until
/// `Shutdown`, then leave this process's peak RSS where the parent reads it.
pub fn worker_main(args: &[String]) -> i32 {
    let value_of = |flag: &str| {
        args.iter()
            .position(|arg| arg == flag)
            .and_then(|at| args.get(at + 1))
    };
    let (Some(addr), Some(rss_dir)) = (value_of("--connect"), value_of("--rss-dir")) else {
        eprintln!("b3-bench --worker needs --connect ADDR and --rss-dir DIR");
        return 2;
    };
    let code = worker_connect(addr, WorkerOptions::default());
    let rss = Path::new(rss_dir).join(format!("worker-{}.rss_mb", std::process::id()));
    if let Err(error) = std::fs::write(rss, stats::peak_rss_mb().to_string()) {
        eprintln!("b3-bench --worker: cannot report peak RSS: {error}");
        return 1;
    }
    code
}

/// What the coordinator side of one fan-out run left behind.
#[derive(Debug, Clone, Copy)]
pub struct FanoutStats {
    pub segment: SegmentStats,
    pub segment_bytes: u64,
    /// Largest `VmHWM` any worker process reported (0 for thread workers).
    pub worker_peak_rss_mb: f64,
}

pub struct FanoutRun {
    pub outcome: DistribOutcome,
    /// Wall seconds of the `run_with_transport` call.
    pub wall_s: f64,
    pub stats: FanoutStats,
}

/// Runs `job` through `run_with_transport` with two loopback workers and a
/// segment-log checkpoint in `dir` (which must be fresh). Returns once the
/// workers have exited and been reaped, so their CPU time is visible in
/// this process's `/proc/self/stat`.
pub fn run(
    job: &SweepJob,
    dir: &Path,
    workers: Workers,
    budget: Option<usize>,
    links: Option<&Arc<LinkStats>>,
) -> Result<FanoutRun, String> {
    let checkpoint_path = dir.join("checkpoint.b3sg");
    let config = DistribConfig {
        workers: WORKERS,
        assign_batch: 1,
        stop_after_workloads: budget,
        checkpoint_path: Some(checkpoint_path.clone()),
        ..DistribConfig::default()
    };
    let mut transport = TcpTransport::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = transport.local_addr().to_string();
    if workers == Workers::Processes {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        transport = transport.with_launcher(
            WorkerCommand::new(exe)
                .arg("--worker")
                .arg("--rss-dir")
                .arg(dir.to_string_lossy()),
        );
    }
    let timed = links.map(|stats| TimedTransport {
        inner: &transport,
        stats: stats.clone(),
    });
    let product_transport: &dyn Transport = match &timed {
        Some(timed) => timed,
        None => &transport,
    };

    let (outcome, wall) = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..WORKERS)
            .filter(|_| workers == Workers::Threads)
            .map(|_| scope.spawn(|| worker_connect(&addr, WorkerOptions::default())))
            .collect();
        let start = Instant::now();
        let outcome = run_with_transport(job, &config, product_transport, None);
        let wall = start.elapsed();
        for thread in threads {
            match thread.join() {
                Ok(0) => {}
                Ok(code) => return (Err(format!("thread worker exited {code}")), wall),
                Err(_) => return (Err("thread worker panicked".to_string()), wall),
            }
        }
        (outcome.map_err(|e| e.to_string()), wall)
    });
    let outcome = outcome?;

    // A worker writes its RSS report after `Shutdown` and then exits;
    // dropping the transport kills and reaps whatever is still running, so
    // wait for the reports first.
    let mut worker_peak_rss_mb = 0.0f64;
    if workers == Workers::Processes {
        let expected = WORKERS + outcome.respawns;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let reports = rss_reports(dir)?;
            if reports.len() >= expected {
                worker_peak_rss_mb = reports.into_iter().fold(0.0, f64::max);
                break;
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "only {} of {expected} workers reported their peak RSS",
                    reports.len()
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    drop(timed);
    drop(transport);

    let segment = segment_stats(&checkpoint_path).map_err(|e| e.to_string())?;
    let segment_bytes = std::fs::metadata(&checkpoint_path)
        .map_err(|e| e.to_string())?
        .len();
    Ok(FanoutRun {
        outcome,
        wall_s: wall.as_secs_f64(),
        stats: FanoutStats {
            segment,
            segment_bytes,
            worker_peak_rss_mb,
        },
    })
}

/// The peak-RSS reports (MiB) complete in `dir` so far.
fn rss_reports(dir: &Path) -> Result<Vec<f64>, String> {
    let mut reports = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|ext| ext == "rss_mb") {
            // An empty file is a report still being written.
            if let Ok(mb) = std::fs::read_to_string(&path).unwrap_or_default().parse() {
                reports.push(mb);
            }
        }
    }
    Ok(reports)
}

/// Everything the timing wrapper saw, summed over all links of a run.
#[derive(Default, Clone)]
pub struct LinkCounters {
    pub connect_ns: u64,
    pub frames_tx: u64,
    pub frames_rx: u64,
    pub bytes_tx: u64,
    pub bytes_rx: u64,
    pub send_ns: u64,
    /// Time blocked in `recv`: the coordinator waiting for a worker.
    pub recv_wait_ns: u64,
    /// Gaps between a `recv` returning and the same link's next call: the
    /// coordinator decoding, merging and appending to the segment log.
    pub service_ns: u64,
    pub service: LogHistogram,
}

#[derive(Default)]
pub struct LinkStats(Mutex<LinkCounters>);

impl LinkStats {
    pub fn snapshot(&self) -> LinkCounters {
        self.lock().clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LinkCounters> {
        self.0.lock().expect("link stats are plain counters")
    }
}

/// A [`Transport`] that hands out [`TimedLink`]s around another's links.
struct TimedTransport<'a> {
    inner: &'a dyn Transport,
    stats: Arc<LinkStats>,
}

impl Transport for TimedTransport<'_> {
    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn connect(
        &self,
        cancelled: &(dyn Fn() -> bool + Sync),
    ) -> FsResult<Option<Box<dyn WorkerLink>>> {
        let start = Instant::now();
        let link = self.inner.connect(cancelled);
        self.stats.lock().connect_ns += start.elapsed().as_nanos() as u64;
        Ok(link?.map(|inner| {
            Box::new(TimedLink {
                inner,
                stats: self.stats.clone(),
                received_at: None,
            }) as Box<dyn WorkerLink>
        }))
    }
}

struct TimedLink {
    inner: Box<dyn WorkerLink>,
    stats: Arc<LinkStats>,
    /// When the last `recv` returned, until the next call on this link.
    received_at: Option<Instant>,
}

impl TimedLink {
    /// Closes the service gap opened by the previous `recv`, if any.
    fn end_service(&mut self, counters: &mut LinkCounters) {
        if let Some(received_at) = self.received_at.take() {
            let ns = received_at.elapsed().as_nanos() as u64;
            counters.service_ns += ns;
            counters.service.record(ns);
        }
    }
}

impl WorkerLink for TimedLink {
    fn endpoint(&self) -> &str {
        self.inner.endpoint()
    }

    fn send(&mut self, payload: &[u8]) -> FsResult<()> {
        let stats = self.stats.clone();
        self.end_service(&mut stats.lock());
        let start = Instant::now();
        let sent = self.inner.send(payload);
        let mut counters = stats.lock();
        counters.send_ns += start.elapsed().as_nanos() as u64;
        counters.frames_tx += 1;
        counters.bytes_tx += payload.len() as u64;
        sent
    }

    fn recv(&mut self) -> FsResult<Vec<u8>> {
        let stats = self.stats.clone();
        self.end_service(&mut stats.lock());
        let start = Instant::now();
        let received = self.inner.recv();
        let mut counters = stats.lock();
        counters.recv_wait_ns += start.elapsed().as_nanos() as u64;
        if let Ok(payload) = &received {
            counters.frames_rx += 1;
            counters.bytes_rx += payload.len() as u64;
            self.received_at = Some(Instant::now());
        }
        received
    }

    fn close(&mut self) {
        let stats = self.stats.clone();
        self.end_service(&mut stats.lock());
        self.inner.close();
    }

    fn abort(&mut self) {
        self.received_at = None;
        self.inner.abort();
    }

    fn required_secret(&self) -> Option<&str> {
        self.inner.required_secret()
    }
}
