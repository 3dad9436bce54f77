//! End-to-end tests of the fleet daemon (`b3_harness::distrib::fleet`).
//!
//! * The **restart** test is the acceptance scenario: two jobs on
//!   different file systems are enqueued over real client TCP frames, the
//!   daemon is stopped after draining only the first (the moral equivalent
//!   of killing it mid-queue), a fresh daemon reopens the same fleet
//!   directory, and the drained queue's per-job bug groups are
//!   byte-identical to single-process [`Sweep`] runs over the same spaces
//!   — the restart is invisible in the results.
//! * The **client-frame** test drives the whole request surface over one
//!   daemon: enqueue, status, cancel (including the must-refuse cases),
//!   results for unknown jobs, and a subscriber that receives exactly the
//!   run's bug-group discoveries as a live event stream.
//!
//! * The **dial-in** test runs the daemon as a real `b3 fleet serve
//!   --listen` process and joins its pool with a `b3 worker --connect`
//!   started by somebody else, authenticated by the shared secret.
//!
//! Sweep workers are real `b3 worker` child processes; fleet clients
//! speak real TCP to `serve_clients`.

use std::path::{Path, PathBuf};

use b3_ace::Bounds;
use b3_crashmonkey::CrashPointPolicy;
use b3_harness::distrib::{
    inspect_queue, ChildTransport, DistribConfig, FleetClient, FleetConfig, FleetCoordinator,
    JobState, SweepJob, WorkerCommand,
};
use b3_harness::{FsKind, GroupTable, PruneMode, RunConfig};
use b3_vfs::codec::Encoder;
use b3_vfs::KernelEra;

const NUM_SHARDS: usize = 12;

fn worker_command() -> WorkerCommand {
    WorkerCommand::new(env!("CARGO_BIN_EXE_b3")).arg("worker")
}

/// A per-test fleet directory in the system temp directory.
fn fleet_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("b3-fleet-e2e-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The same small two-operation space the distrib tests sweep. The two
/// tenants of the restart test differ by kernel era — the 3.13-era CowFs
/// exhibits a strict superset of the 4.16 bugs, so the two jobs must
/// produce visibly different group tables.
fn seq2_job(era: KernelEra) -> SweepJob {
    let mut bounds = Bounds::tiny();
    bounds.seq_len = 2;
    bounds.name_prefix = "tiny-seq2".into();
    let mut job = SweepJob::new(bounds, NUM_SHARDS);
    job.fs = FsKind::Cow;
    job.era = era;
    job
}

fn fleet_config(dir: &Path) -> FleetConfig {
    FleetConfig {
        dir: dir.to_path_buf(),
        distrib: DistribConfig {
            workers: 2,
            ..DistribConfig::default()
        },
        secret: None,
    }
}

fn group_bytes(groups: &GroupTable) -> Vec<u8> {
    let mut enc = Encoder::new();
    groups.encode(&mut enc);
    enc.finish()
}

/// The single-process reference: the same space swept in-process must
/// produce the byte-identical grouped table.
fn single_process_group_bytes(job: &SweepJob) -> Vec<u8> {
    let config = RunConfig {
        threads: 2,
        ..RunConfig::default()
    };
    let (_, reference) = job.run_in_process(&config).expect("valid job");
    group_bytes(&reference.grouped())
}

#[test]
fn fleet_drains_two_jobs_across_a_daemon_restart_byte_identically() {
    let dir = fleet_dir("restart");
    let transport = ChildTransport::new(worker_command());
    let job_modern = seq2_job(KernelEra::V4_16);
    let job_old = seq2_job(KernelEra::V3_13);

    // Daemon #1: accept two enqueues over real client TCP frames, drain
    // only the first job, then stop — the queue dies mid-way.
    let mut id_modern = 0;
    let mut id_old = 0;
    {
        let fleet = FleetCoordinator::open(fleet_config(&dir)).expect("fleet opens");
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("control listener binds");
        let addr = listener.local_addr().expect("control address").to_string();
        std::thread::scope(|scope| {
            let fleet = &fleet;
            scope.spawn(move || fleet.serve_clients(listener).expect("control loop runs"));

            let mut client = FleetClient::connect(&addr).expect("client connects");
            id_modern = client.enqueue(&job_modern).expect("first enqueue");
            id_old = client.enqueue(&job_old).expect("second enqueue");
            assert_ne!(id_modern, id_old);
            let rows = client.status().expect("status over the wire");
            assert_eq!(rows.len(), 2);
            assert!(rows.iter().all(|row| row.state == JobState::Queued));

            let ran = fleet.run_next_job(&transport).expect("first job runs");
            assert_eq!(ran, Some(id_modern), "jobs run in enqueue order");
            fleet.request_stop();
        });
    }

    // The journal alone tells the story: first job done, second untouched.
    let offline = inspect_queue(&dir).expect("offline queue inspection");
    assert_eq!(offline.len(), 2);
    assert_eq!(offline[0].state, JobState::Done);
    assert_eq!(offline[1].state, JobState::Queued);

    // Daemon #2: reopen the same directory and drain the rest.
    let fleet = FleetCoordinator::open(fleet_config(&dir)).expect("fleet reopens");
    let rows = fleet.status();
    assert_eq!(rows.len(), 2, "the restart must not lose or duplicate jobs");
    assert_eq!(rows[0].state, JobState::Done);
    assert_eq!(rows[1].state, JobState::Queued);
    let ran = fleet.run_until_idle(&transport).expect("queue drains");
    assert_eq!(ran, 1, "only the remaining job is (re)run");

    // Byte identity per job, against in-process sweeps of the same spaces.
    for (id, job) in [(id_modern, &job_modern), (id_old, &job_old)] {
        let (status, groups) = fleet.results(id).expect("results load");
        assert_eq!(status.state, JobState::Done);
        assert!(
            !groups.is_empty(),
            "the seq-2 space must find bugs on the {} CowFs",
            job.era.as_str()
        );
        assert_eq!(
            group_bytes(&groups),
            single_process_group_bytes(job),
            "fleet job {id} must be byte-identical to the single-process sweep"
        );
    }

    // The two tenants genuinely swept different spaces: the 3.13-era job
    // found bugs the 4.16 one did not.
    let (_, groups_modern) = fleet.results(id_modern).expect("modern results load");
    let (_, groups_old) = fleet.results(id_old).expect("old results load");
    assert!(groups_old.len() > groups_modern.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `b3 sweep --in-process --out` is the CLI's in-process reference for a
/// job spec. Under a non-default crash-point policy and prune mode it must
/// write the same bytes the fleet serves for the same job — and the same
/// bytes as the library's in-process runner.
#[test]
fn single_process_cli_reference_matches_the_fleet_under_a_non_default_scope() {
    let dir = fleet_dir("cli-reference");
    let mut job = seq2_job(KernelEra::V4_16);
    job.crashmonkey.crash_points = CrashPointPolicy::AllTriaged { audit: 0 };
    job.prune = PruneMode::Representative;

    let fleet = FleetCoordinator::open(fleet_config(&dir)).expect("fleet opens");
    let id = fleet.enqueue(job.clone()).expect("enqueue");
    let ran = fleet
        .run_until_idle(&ChildTransport::new(worker_command()))
        .expect("queue drains");
    assert_eq!(ran, 1);
    let (status, groups) = fleet.results(id).expect("results load");
    assert_eq!(status.state, JobState::Done);
    assert!(!groups.is_empty());

    let out = dir.join("single-process.groups");
    let cli = std::process::Command::new(env!("CARGO_BIN_EXE_b3"))
        .args(["sweep", "--in-process", "--preset", "tiny-seq2"])
        .args(["--crash-points", "triaged", "--prune", "rep", "--out"])
        .arg(&out)
        .output()
        .expect("b3 runs");
    assert!(
        cli.status.success(),
        "sweep --in-process failed: {}",
        String::from_utf8_lossy(&cli.stderr)
    );
    let cli_bytes = std::fs::read(&out).expect("--out file written");
    assert_eq!(cli_bytes, group_bytes(&groups));
    assert_eq!(cli_bytes, single_process_group_bytes(&job));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kills the daemon process when the test ends, pass or fail.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `b3 fleet serve --listen ADDR --secret S` takes its workers from outside
/// its own process tree: a `b3 worker --connect ADDR --secret S` somebody
/// else started joins the pool (challenged even on loopback here), while
/// one with the wrong secret is turned away (costing the daemon one of its
/// two worker slots for this job), and the job the admitted worker runs is
/// byte-identical to the in-process reference.
#[test]
fn daemon_with_a_listener_admits_an_externally_started_worker() {
    use std::io::BufRead;
    let b3 = env!("CARGO_BIN_EXE_b3");
    let dir = fleet_dir("dial-in");
    let mut daemon = std::process::Command::new(b3)
        .args(["fleet", "serve", "--workers", "2", "--dir"])
        .arg(&dir)
        .args(["--control", "127.0.0.1:0", "--listen", "127.0.0.1:0"])
        .args(["--secret", "fleet-test-secret", "--challenge-loopback"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon starts");
    let stdout = std::io::BufReader::new(daemon.stdout.take().expect("daemon stdout is piped"));
    let _daemon = KillOnDrop(daemon);

    // The daemon prints where its two listeners materialized.
    let mut lines = stdout
        .lines()
        .map(|line| line.expect("daemon stdout reads"));
    let mut address_after = |marker: &str| {
        let line = lines
            .find(|line| line.contains(marker))
            .unwrap_or_else(|| panic!("daemon never printed {marker:?}"));
        let rest = &line[line.find(marker).expect("marker found") + marker.len()..];
        rest.split([' ', ',']).next().expect("address").to_string()
    };
    let workers = address_after("worker listener on ");
    let control = address_after("control on ");

    let job = seq2_job(KernelEra::V4_16);
    let mut client = FleetClient::connect(&control).expect("client connects");
    let id = client.enqueue(&job).expect("enqueue");

    let worker = |secret: &str| {
        std::process::Command::new(b3)
            .args(["worker", "--connect", &workers, "--secret", secret])
            .status()
            .expect("worker runs")
    };
    assert!(
        !worker("not-the-secret").success(),
        "a worker with the wrong secret must be refused"
    );
    assert!(
        worker("fleet-test-secret").success(),
        "the worker runs the job to Shutdown"
    );

    // The worker leaves at Shutdown, a moment before the daemon journals
    // the job's end state.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let (status, groups) = loop {
        let (status, groups) = client.results(id).expect("results over the wire");
        if status.state.is_terminal() || std::time::Instant::now() > deadline {
            break (status, groups);
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert_eq!(status.state, JobState::Done, "{}", status.error);
    assert_eq!(group_bytes(&groups), single_process_group_bytes(&job));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_frames_cover_cancel_errors_and_live_discovery_events() {
    let dir = fleet_dir("client");
    let transport = ChildTransport::new(worker_command());
    let fleet = FleetCoordinator::open(fleet_config(&dir)).expect("fleet opens");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("control listener binds");
    let addr = listener.local_addr().expect("control address").to_string();

    std::thread::scope(|scope| {
        let fleet = &fleet;
        scope.spawn(move || fleet.serve_clients(listener).expect("control loop runs"));

        let mut client = FleetClient::connect(&addr).expect("client connects");
        let id_run = client
            .enqueue(&seq2_job(KernelEra::V4_16))
            .expect("first enqueue");
        let id_cancel = client
            .enqueue(&seq2_job(KernelEra::V3_13))
            .expect("second enqueue");

        // Cancel while still queued: allowed exactly once.
        client.cancel(id_cancel).expect("queued jobs cancel");
        let err = client
            .cancel(id_cancel)
            .expect_err("cancelling a cancelled job is refused");
        assert!(err.to_string().contains("refused"), "{err}");
        let err = client
            .results(9999)
            .expect_err("results for an unknown job are refused");
        assert!(err.to_string().contains("refused"), "{err}");

        // A subscriber on its own connection sees the run's discoveries.
        let mut events = FleetClient::connect(&addr)
            .expect("subscriber connects")
            .subscribe()
            .expect("subscription starts");

        let ran = fleet.run_until_idle(&transport).expect("queue drains");
        assert_eq!(ran, 1, "the cancelled job must not be scheduled");

        let (status, groups) = fleet.results(id_run).expect("results load");
        assert_eq!(status.state, JobState::Done);
        fleet.request_stop();

        // Stopping closes the event stream; everything broadcast during
        // the run is still buffered in the socket. Every bug group of the
        // final table was a fresh discovery (the checkpoint started
        // empty), so the stream must carry exactly one event per group.
        let mut streamed = Vec::new();
        while let Some(event) = events.next_event() {
            assert_eq!(event.job, id_run);
            assert!(event.count > 0);
            streamed.push((event.skeleton, event.consequence));
        }
        streamed.sort();
        let mut expected: Vec<(String, _)> = groups
            .groups()
            .iter()
            .map(|group| (group.skeleton.clone(), group.consequence))
            .collect();
        expected.sort();
        assert_eq!(streamed, expected);
    });

    // Offline, the journal agrees with everything the clients saw.
    let offline = inspect_queue(&dir).expect("offline queue inspection");
    let states: Vec<JobState> = offline.iter().map(|row| row.state).collect();
    assert_eq!(states, [JobState::Done, JobState::Cancelled]);
    let _ = std::fs::remove_dir_all(&dir);
}
