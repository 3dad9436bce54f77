//! The sweep fleet daemon: a long-lived, multi-tenant coordinator that owns
//! a persistent queue of sweep jobs and schedules them onto the shared
//! worker pool.
//!
//! One-shot coordinators ([`super::run_with_transport`]) run a single job and
//! exit; the [`FleetCoordinator`] stays up. Clients connect to its control
//! listener and speak the client half of the wire protocol (tags
//! `0x10`–`0x14` / `0x90`–`0x94` in [`super::protocol::wire`], specified in
//! `docs/PROTOCOL.md`): [`ClientRequest::Enqueue`] adds a job (preset × fs
//! × era × prune mode), `Status` reports the queue, `Results` fetches a
//! job's merged bug groups, `Cancel` withdraws a still-queued job, and
//! `Subscribe` turns the connection into a live stream of bug-group
//! discoveries as they are merged.
//!
//! **Everything survives a daemon restart.** The queue itself is journaled
//! to `queue.b3fq` in the fleet directory (format in `docs/FORMATS.md`):
//! one fsync'd append per job added and per state transition to the same
//! record log (`distrib/recordlog.rs`) as the `B3SG` checkpoint — a kill
//! mid-append loses at most that one record, never the queue. Each
//! job's sweep progress lives in its own segment-log checkpoint
//! (`job-<id>.ck`) next to the journal, so a job interrupted mid-sweep
//! resumes from its completed shards. On reload, jobs recorded `Running`
//! (the daemon died with them mid-flight) go back to `Queued`; the journal
//! is compacted to one job record + one state record per job, atomically.
//!
//! Job state machine (terminal states never transition again):
//!
//! ```text
//!  Enqueue ──▶ Queued ──▶ Running ──▶ Done
//!                │  ▲         │  └───▶ Failed
//!                │  └─────────┘ (daemon restart, graceful stop)
//!                └──▶ Cancelled (client Cancel; queued jobs only)
//! ```

use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use b3_crashmonkey::Consequence;
use b3_vfs::codec::{Decoder, Encoder};
use b3_vfs::error::{FsError, FsResult};

use super::protocol::{read_frame, transport_err, wire, write_frame};
use super::recordlog::{self, AppendLog, Format};
use super::segment::load_checkpoint;
use super::{run_with_transport_hooked, DistribConfig, DistribHooks, SweepJob, Transport};
use crate::dedup::GroupTable;
use crate::postprocess::BugGroup;

/// Magic prefix of the fleet queue journal (`queue.b3fq`).
pub const QUEUE_MAGIC: [u8; 4] = *b"B3FQ";
/// Journal record tag: a job joined the queue (`id u64 | SweepJob`).
pub const REC_JOB: u8 = 1;
/// Journal record tag: a job changed state (`id u64 | state u8 | error str`).
pub const REC_STATE: u8 = 2;

/// File name of the queue journal inside the fleet directory.
pub const QUEUE_FILE: &str = "queue.b3fq";

/// The `B3FQ` record-log format.
const QUEUE_LOG: Format = Format {
    magic: QUEUE_MAGIC,
    tags: &[REC_JOB, REC_STATE],
    noun: "fleet queue",
};

/// Where one job stands in the fleet queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for the scheduler (also the reload state of a job that was
    /// `Running` when the daemon died — its checkpoint keeps the progress).
    Queued,
    /// Currently being swept on the worker pool.
    Running,
    /// Swept to completion; results are final.
    Done,
    /// The sweep errored out, or completed with a diverged audit (reason
    /// in [`JobStatus::error`]). Terminal.
    Failed,
    /// Withdrawn by a client while still queued. Terminal.
    Cancelled,
}

impl JobState {
    /// Stable one-byte code for the journal and the wire.
    pub fn code(&self) -> u8 {
        match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Done => 2,
            JobState::Failed => 3,
            JobState::Cancelled => 4,
        }
    }

    /// Inverse of [`JobState::code`].
    pub fn from_code(code: u8) -> Option<JobState> {
        Some(match code {
            0 => JobState::Queued,
            1 => JobState::Running,
            2 => JobState::Done,
            3 => JobState::Failed,
            4 => JobState::Cancelled,
            _ => return None,
        })
    }

    /// Lowercase name used in status output.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// True for states that never transition again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// One job's row in a `Status` report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// The queue-assigned job id (unique for the life of the fleet dir).
    pub id: u64,
    /// Paper name of the file system under test.
    pub fs: String,
    /// Kernel era the job sweeps.
    pub era: String,
    /// Shard split of the job's workload space.
    pub num_shards: usize,
    /// Where the job stands.
    pub state: JobState,
    /// Failure reason; empty unless `state` is [`JobState::Failed`].
    pub error: String,
}

impl JobStatus {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.id);
        enc.put_str(&self.fs);
        enc.put_str(&self.era);
        enc.put_u64(self.num_shards as u64);
        enc.put_u8(self.state.code());
        enc.put_str(&self.error);
    }

    fn decode(dec: &mut Decoder<'_>) -> FsResult<JobStatus> {
        let id = dec.get_u64()?;
        let fs = dec.get_str()?;
        let era = dec.get_str()?;
        let num_shards = dec.get_u64()? as usize;
        let code = dec.get_u8()?;
        let state = JobState::from_code(code)
            .ok_or_else(|| FsError::Corrupted(format!("unknown job state code {code}")))?;
        let error = dec.get_str()?;
        Ok(JobStatus {
            id,
            fs,
            era,
            num_shards,
            state,
            error,
        })
    }
}

/// One bug-group discovery, as streamed to `Subscribe`d clients the moment
/// the coordinator merges a group it has not seen before in that job's
/// sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetEvent {
    /// The job whose sweep discovered the group.
    pub job: u64,
    /// The group's workload skeleton (the §5.3 grouping key).
    pub skeleton: String,
    /// The group's crash consequence.
    pub consequence: Consequence,
    /// Raw reports in the group at discovery time.
    pub count: u64,
}

/// Client-to-daemon requests (tags `0x10`–`0x14`).
#[derive(Debug, Clone)]
pub enum ClientRequest {
    /// Add a sweep job to the queue; answered with `Ack { id }`.
    Enqueue(SweepJob),
    /// Report every job's state; answered with `StatusReport`.
    Status,
    /// Fetch one job's state + merged bug groups; answered with
    /// `ResultsReport`.
    Results {
        /// The job to report on.
        id: u64,
    },
    /// Cancel a still-queued job (running and terminal jobs are refused);
    /// answered with `Ack { id }`.
    Cancel {
        /// The job to cancel.
        id: u64,
    },
    /// Turn this connection into a one-way stream of `Event` frames.
    Subscribe,
}

impl ClientRequest {
    /// Encodes this request as one frame payload.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            ClientRequest::Enqueue(job) => {
                enc.put_u8(wire::ENQUEUE);
                job.encode(&mut enc);
            }
            ClientRequest::Status => enc.put_u8(wire::STATUS),
            ClientRequest::Results { id } => {
                enc.put_u8(wire::RESULTS);
                enc.put_u64(*id);
            }
            ClientRequest::Cancel { id } => {
                enc.put_u8(wire::CANCEL);
                enc.put_u64(*id);
            }
            ClientRequest::Subscribe => enc.put_u8(wire::SUBSCRIBE),
        }
        enc.finish()
    }

    /// Decodes one client-to-daemon frame payload.
    pub fn from_frame(frame: &[u8]) -> FsResult<ClientRequest> {
        let mut dec = Decoder::new(frame);
        match dec.get_u8()? {
            wire::ENQUEUE => Ok(ClientRequest::Enqueue(SweepJob::decode(&mut dec)?)),
            wire::STATUS => Ok(ClientRequest::Status),
            wire::RESULTS => Ok(ClientRequest::Results { id: dec.get_u64()? }),
            wire::CANCEL => Ok(ClientRequest::Cancel { id: dec.get_u64()? }),
            wire::SUBSCRIBE => Ok(ClientRequest::Subscribe),
            tag => Err(FsError::Corrupted(format!(
                "unknown client request tag {tag:#x}"
            ))),
        }
    }
}

/// Daemon-to-client replies (tags `0x90`–`0x94`).
#[derive(Debug, Clone)]
pub enum DaemonReply {
    /// `Enqueue`/`Cancel` succeeded for this job id.
    Ack {
        /// The affected job.
        id: u64,
    },
    /// The queue's job states, id-ordered.
    Status(Vec<JobStatus>),
    /// One job's state plus its merged bug groups so far (final once the
    /// state is terminal).
    Results {
        /// The job's status row.
        status: JobStatus,
        /// The job checkpoint's merged group table.
        groups: GroupTable,
    },
    /// The request failed.
    Error {
        /// Human-readable reason.
        reason: String,
    },
    /// One newly merged bug group (subscription stream only).
    Event(FleetEvent),
}

impl DaemonReply {
    /// Encodes this reply as one frame payload.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            DaemonReply::Ack { id } => {
                enc.put_u8(wire::ACK);
                enc.put_u64(*id);
            }
            DaemonReply::Status(rows) => {
                enc.put_u8(wire::STATUS_REPORT);
                enc.put_u64(rows.len() as u64);
                for row in rows {
                    row.encode(&mut enc);
                }
            }
            DaemonReply::Results { status, groups } => {
                enc.put_u8(wire::RESULTS_REPORT);
                status.encode(&mut enc);
                groups.encode(&mut enc);
            }
            DaemonReply::Error { reason } => {
                enc.put_u8(wire::CLIENT_ERROR);
                enc.put_str(reason);
            }
            DaemonReply::Event(event) => {
                enc.put_u8(wire::EVENT);
                enc.put_u64(event.job);
                enc.put_str(&event.skeleton);
                enc.put_u8(event.consequence.code());
                enc.put_u64(event.count);
            }
        }
        enc.finish()
    }

    /// Decodes one daemon-to-client frame payload.
    pub fn from_frame(frame: &[u8]) -> FsResult<DaemonReply> {
        let mut dec = Decoder::new(frame);
        match dec.get_u8()? {
            wire::ACK => Ok(DaemonReply::Ack { id: dec.get_u64()? }),
            wire::STATUS_REPORT => {
                let count = dec.get_u64()? as usize;
                let mut rows = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    rows.push(JobStatus::decode(&mut dec)?);
                }
                Ok(DaemonReply::Status(rows))
            }
            wire::RESULTS_REPORT => Ok(DaemonReply::Results {
                status: JobStatus::decode(&mut dec)?,
                groups: GroupTable::decode(&mut dec)?,
            }),
            wire::CLIENT_ERROR => Ok(DaemonReply::Error {
                reason: dec.get_str()?,
            }),
            wire::EVENT => {
                let job = dec.get_u64()?;
                let skeleton = dec.get_str()?;
                let code = dec.get_u8()?;
                let consequence = Consequence::from_code(code).ok_or_else(|| {
                    FsError::Corrupted(format!("unknown consequence code {code}"))
                })?;
                let count = dec.get_u64()?;
                Ok(DaemonReply::Event(FleetEvent {
                    job,
                    skeleton,
                    consequence,
                    count,
                }))
            }
            tag => Err(FsError::Corrupted(format!(
                "unknown daemon reply tag {tag:#x}"
            ))),
        }
    }
}

/// Fleet daemon configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Directory holding the queue journal and per-job checkpoints. Created
    /// if missing.
    pub dir: PathBuf,
    /// Coordinator settings every scheduled job runs with (worker count,
    /// batch sizing, respawn budget). `checkpoint_path` is overridden per
    /// job.
    pub distrib: DistribConfig,
    /// Shared secret non-loopback TCP workers must answer the HMAC
    /// challenge with (see [`super::auth`]). The embedding binary passes it
    /// to [`super::TcpTransport::with_secret`]; the coordinator itself
    /// stores it only so `b3 fleet serve` has one place to configure.
    pub secret: Option<String>,
}

impl FleetConfig {
    /// A fleet rooted at `dir` with default coordinator settings.
    pub fn new(dir: impl Into<PathBuf>) -> FleetConfig {
        FleetConfig {
            dir: dir.into(),
            distrib: DistribConfig::default(),
            secret: None,
        }
    }
}

/// One job's in-memory record.
#[derive(Debug, Clone)]
struct JobRecord {
    job: SweepJob,
    state: JobState,
    error: String,
}

impl JobRecord {
    fn queued(job: SweepJob) -> JobRecord {
        JobRecord {
            job,
            state: JobState::Queued,
            error: String::new(),
        }
    }
}

/// The queue under the coordinator's mutex: job table plus the journal's
/// append handle.
struct FleetState {
    jobs: BTreeMap<u64, JobRecord>,
    next_id: u64,
    /// The record log's append handle, as for the `B3SG` deltas: every
    /// record fsync'd, and rolled back if the append fails part-way, so
    /// the journal survives the same kills and full disks the checkpoints
    /// do.
    journal: AppendLog,
}

impl FleetState {
    /// Moves job `id` to `state`: journals the state record, then updates
    /// the in-memory record to match.
    fn transition(&mut self, id: u64, state: JobState, error: String) -> FsResult<()> {
        self.journal.append(&state_record(id, state, &error))?;
        if let Some(record) = self.jobs.get_mut(&id) {
            record.state = state;
            record.error = error;
        }
        Ok(())
    }

    fn status_row(id: u64, record: &JobRecord) -> JobStatus {
        JobStatus {
            id,
            fs: record.job.fs.paper_name().to_string(),
            era: record.job.era.as_str().to_string(),
            num_shards: record.job.num_shards,
            state: record.state,
            error: record.error.clone(),
        }
    }
}

pub(super) fn job_record(id: u64, job: &SweepJob) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u64(id);
    job.encode(&mut enc);
    recordlog::frame(REC_JOB, &enc.finish())
}

pub(super) fn state_record(id: u64, state: JobState, error: &str) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u64(id);
    enc.put_u8(state.code());
    enc.put_str(error);
    recordlog::frame(REC_STATE, &enc.finish())
}

/// Loads a queue journal: jobs in id order, each at its latest recorded
/// state — a job record introduces an id, a state record moves it on — or
/// no jobs when there is no journal. A torn trailing record (at most one
/// enqueue the client never saw acknowledged, or one transition the reload
/// re-derives) is ignored; corruption anywhere else is an error.
fn load_queue(path: &Path) -> FsResult<BTreeMap<u64, JobRecord>> {
    let mut jobs: BTreeMap<u64, JobRecord> = BTreeMap::new();
    let Some(bytes) = recordlog::read(path)? else {
        return Ok(jobs);
    };
    recordlog::scan(&QUEUE_LOG, path, &bytes, |tag, dec| {
        let id = dec.get_u64()?;
        if tag == REC_JOB {
            let record = JobRecord::queued(SweepJob::decode(dec)?);
            if jobs.insert(id, record).is_some() {
                return Err(FsError::Corrupted(format!("duplicate record for job {id}")));
            }
            return Ok(());
        }
        let code = dec.get_u8()?;
        let state = JobState::from_code(code)
            .ok_or_else(|| FsError::Corrupted(format!("unknown job state code {code}")))?;
        let record = jobs
            .get_mut(&id)
            .ok_or_else(|| FsError::Corrupted(format!("state record for unknown job {id}")))?;
        record.state = state;
        record.error = dec.get_str()?;
        Ok(())
    })?;
    Ok(jobs)
}

/// The compacted journal image: one job record plus (when it has left
/// `Queued`) one state record per job, id-ordered.
fn compacted_queue_bytes(jobs: &BTreeMap<u64, JobRecord>) -> Vec<u8> {
    let mut bytes = QUEUE_MAGIC.to_vec();
    for (&id, record) in jobs {
        bytes.extend_from_slice(&job_record(id, &record.job));
        if record.state != JobState::Queued || !record.error.is_empty() {
            bytes.extend_from_slice(&state_record(id, record.state, &record.error));
        }
    }
    bytes
}

/// Reads a fleet directory's queue journal without a running daemon —
/// offline inspection for `b3 fleet status --dir`. States are
/// reported exactly as recorded (a job the daemon died with mid-flight
/// shows `Running`; [`FleetCoordinator::open`] is what re-queues it).
pub fn inspect_queue(dir: &Path) -> FsResult<Vec<JobStatus>> {
    let jobs = load_queue(&dir.join(QUEUE_FILE))?;
    Ok(jobs
        .iter()
        .map(|(&id, record)| FleetState::status_row(id, record))
        .collect())
}

/// The long-lived multi-tenant coordinator daemon: owns the persistent job
/// queue, schedules queued jobs onto the worker pool one at a time (jobs
/// share the pool serially; shards within a job run in parallel), serves
/// client requests over a control listener, and streams bug-group
/// discoveries to subscribers.
pub struct FleetCoordinator {
    config: FleetConfig,
    state: Mutex<FleetState>,
    /// Notified when the queue changes or a stop is requested.
    wake: Condvar,
    /// Cooperative shutdown flag: checked between jobs and — through the
    /// [`DistribHooks::should_stop`] hook — at every claim inside a running
    /// job, so a stop mid-sweep winds down to a resumable checkpoint.
    stop: AtomicBool,
    subscribers: Mutex<Vec<mpsc::Sender<FleetEvent>>>,
}

impl FleetCoordinator {
    /// Opens (or creates) the fleet directory: replays the queue journal
    /// (tolerating a torn trailing record), re-queues jobs that were
    /// `Running` when the previous daemon died, and compacts the journal
    /// atomically before opening it for appends.
    pub fn open(config: FleetConfig) -> FsResult<FleetCoordinator> {
        config.distrib.validate()?;
        std::fs::create_dir_all(&config.dir).map_err(|e| {
            FsError::Device(format!("create fleet dir {}: {e}", config.dir.display()))
        })?;
        let path = config.dir.join(QUEUE_FILE);
        let mut jobs = load_queue(&path)?;
        // A job recorded `Running` was mid-flight when the daemon died; its
        // checkpoint holds every shard that was merged, so re-queueing it
        // resumes rather than restarts the sweep.
        for record in jobs.values_mut() {
            if record.state == JobState::Running {
                record.state = JobState::Queued;
            }
        }
        let journal = recordlog::rewrite(&path, &compacted_queue_bytes(&jobs))?;
        let next_id = jobs.keys().next_back().map_or(1, |&id| id + 1);
        Ok(FleetCoordinator {
            config,
            state: Mutex::new(FleetState {
                jobs,
                next_id,
                journal,
            }),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            subscribers: Mutex::new(Vec::new()),
        })
    }

    /// The fleet directory this daemon owns.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// The segment-log checkpoint file of one job's sweep.
    pub fn checkpoint_path(&self, id: u64) -> PathBuf {
        self.config.dir.join(format!("job-{id}.ck"))
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, FleetState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Adds a job to the queue (journaled before the id is returned).
    pub fn enqueue(&self, job: SweepJob) -> FsResult<u64> {
        let mut state = self.locked();
        let id = state.next_id;
        state.journal.append(&job_record(id, &job))?;
        state.next_id += 1;
        state.jobs.insert(id, JobRecord::queued(job));
        drop(state);
        self.wake.notify_all();
        Ok(id)
    }

    /// Every job's status row, id-ordered.
    pub fn status(&self) -> Vec<JobStatus> {
        let state = self.locked();
        state
            .jobs
            .iter()
            .map(|(&id, record)| FleetState::status_row(id, record))
            .collect()
    }

    /// One job's status row plus its merged bug groups so far (read from
    /// the job's checkpoint file; empty before the first shard merges).
    pub fn results(&self, id: u64) -> FsResult<(JobStatus, GroupTable)> {
        let status = {
            let state = self.locked();
            let record = state
                .jobs
                .get(&id)
                .ok_or_else(|| FsError::InvalidArgument(format!("no such job {id}")))?;
            FleetState::status_row(id, record)
        };
        let groups = match load_checkpoint(&self.checkpoint_path(id))? {
            Some(checkpoint) => checkpoint.grouped(),
            None => GroupTable::new(),
        };
        Ok((status, groups))
    }

    /// Cancels a still-queued job. Running jobs cannot be cancelled (the
    /// sweep holds the worker pool; stop the daemon to interrupt it) and
    /// terminal jobs have nothing to cancel — both are refused with an
    /// error naming the state.
    pub fn cancel(&self, id: u64) -> FsResult<()> {
        let mut state = self.locked();
        let record = state
            .jobs
            .get(&id)
            .ok_or_else(|| FsError::InvalidArgument(format!("no such job {id}")))?;
        if record.state != JobState::Queued {
            return Err(FsError::InvalidArgument(format!(
                "job {id} is {}; only queued jobs can be cancelled",
                record.state.as_str()
            )));
        }
        state.transition(id, JobState::Cancelled, String::new())
    }

    /// Registers a live discovery stream: every bug group first merged by
    /// any job's sweep from now on is delivered to the returned receiver.
    /// Dropped receivers are unregistered lazily on the next broadcast.
    pub fn subscribe(&self) -> mpsc::Receiver<FleetEvent> {
        let (tx, rx) = mpsc::channel();
        self.subscribers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(tx);
        rx
    }

    fn broadcast(&self, job: u64, group: &BugGroup) {
        let event = FleetEvent {
            job,
            skeleton: group.skeleton.clone(),
            consequence: group.consequence,
            count: group.count as u64,
        };
        let mut subscribers = self
            .subscribers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        subscribers.retain(|tx| tx.send(event.clone()).is_ok());
    }

    /// Asks the daemon to stop: the scheduler starts no new job, a running
    /// job stops claiming shards (in-flight shards still merge and
    /// persist, leaving a resumable checkpoint), and the client listener
    /// winds down.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.wake.notify_all();
    }

    /// True once [`request_stop`](FleetCoordinator::request_stop) was
    /// called.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Runs the lowest-id queued job to its end state over `transport`.
    /// Returns the job id, or `None` when the queue has no runnable job. A
    /// failed *sweep* is recorded on the job (`Failed`) and is not an
    /// error of the daemon; an `Err` here means the queue journal itself
    /// could not be written.
    pub fn run_next_job(&self, transport: &dyn Transport) -> FsResult<Option<u64>> {
        let (id, job) = {
            let mut state = self.locked();
            let Some((&id, record)) = state
                .jobs
                .iter()
                .find(|(_, record)| record.state == JobState::Queued)
            else {
                return Ok(None);
            };
            let job = record.job.clone();
            state.transition(id, JobState::Running, String::new())?;
            (id, job)
        };

        let mut distrib = self.config.distrib.clone();
        distrib.checkpoint_path = Some(self.checkpoint_path(id));
        let should_stop = || self.stop.load(Ordering::Relaxed);
        let on_discovery = |group: &BugGroup| self.broadcast(id, group);
        let outcome = run_with_transport_hooked(
            &job,
            &distrib,
            transport,
            DistribHooks {
                progress: None,
                on_discovery: Some(&on_discovery),
                should_stop: Some(&should_stop),
            },
        );
        let (final_state, error) = match &outcome {
            // Wound down early (graceful stop or a stop budget): the
            // checkpoint keeps the progress, the job keeps its turn.
            Ok(outcome) if !outcome.is_complete() => (JobState::Queued, String::new()),
            Ok(outcome) => match outcome.summary.audit_failures.as_slice() {
                [] => (JobState::Done, String::new()),
                // A diverged audit is the job's verdict, not a footnote:
                // the shortcut it enabled is unsound for this space. The
                // groups stay fetchable through `results`.
                failures @ [first, ..] => (
                    JobState::Failed,
                    format!(
                        "audit failure: {} audited workload(s) diverged, first: {first}",
                        failures.len()
                    ),
                ),
            },
            Err(e) => (JobState::Failed, e.to_string()),
        };

        self.locked().transition(id, final_state, error)?;
        self.wake.notify_all();
        Ok(Some(id))
    }

    /// Runs queued jobs until the queue has none left (or a stop is
    /// requested). Returns how many job runs completed (a job re-queued by
    /// a graceful stop counts once per run).
    pub fn run_until_idle(&self, transport: &dyn Transport) -> FsResult<usize> {
        let mut ran = 0;
        while !self.stopping() {
            match self.run_next_job(transport)? {
                Some(_) => ran += 1,
                None => break,
            }
        }
        Ok(ran)
    }

    /// The daemon's scheduler loop: runs queued jobs as they arrive,
    /// sleeping on the queue condvar while idle, until
    /// [`request_stop`](FleetCoordinator::request_stop). Returns how many
    /// job runs completed.
    pub fn run_forever(&self, transport: &dyn Transport) -> FsResult<usize> {
        let mut ran = 0;
        loop {
            if self.stopping() {
                return Ok(ran);
            }
            match self.run_next_job(transport)? {
                Some(_) => ran += 1,
                None => {
                    let state = self.locked();
                    if self.stopping() {
                        return Ok(ran);
                    }
                    let _ = self
                        .wake
                        .wait_timeout(state, Duration::from_millis(200))
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
        }
    }

    /// Serves client connections on `listener` until a stop is requested.
    /// Each connection gets its own thread; `Subscribe` turns a connection
    /// into a one-way event stream. Runs on its own thread next to the
    /// scheduler loop (see `b3 fleet serve`).
    pub fn serve_clients(&self, listener: TcpListener) -> FsResult<()> {
        listener
            .set_nonblocking(true)
            .map_err(|e| transport_err("set control listener non-blocking", e))?;
        std::thread::scope(|scope| {
            while !self.stopping() {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        scope.spawn(move || {
                            let _ = self.handle_client(stream);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(25)),
                }
            }
        });
        Ok(())
    }

    /// One client connection: request/reply frames until the client hangs
    /// up (or a `Subscribe` upgrades the connection to an event stream).
    fn handle_client(&self, stream: TcpStream) -> FsResult<()> {
        let _ = stream.set_nodelay(true);
        let mut reader = stream
            .try_clone()
            .map_err(|e| transport_err("clone client stream", e))?;
        let mut writer = stream;
        loop {
            let Some(frame) = read_client_frame(&mut reader, &self.stop)? else {
                return Ok(()); // client hung up, or the daemon is stopping
            };
            let reply = match ClientRequest::from_frame(&frame) {
                Ok(ClientRequest::Enqueue(job)) => match self.enqueue(job) {
                    Ok(id) => DaemonReply::Ack { id },
                    Err(e) => DaemonReply::Error {
                        reason: e.to_string(),
                    },
                },
                Ok(ClientRequest::Status) => DaemonReply::Status(self.status()),
                Ok(ClientRequest::Results { id }) => match self.results(id) {
                    Ok((status, groups)) => DaemonReply::Results { status, groups },
                    Err(e) => DaemonReply::Error {
                        reason: e.to_string(),
                    },
                },
                Ok(ClientRequest::Cancel { id }) => match self.cancel(id) {
                    Ok(()) => DaemonReply::Ack { id },
                    Err(e) => DaemonReply::Error {
                        reason: e.to_string(),
                    },
                },
                Ok(ClientRequest::Subscribe) => {
                    // Register before acking: a client that has seen the
                    // Ack is guaranteed every discovery broadcast after it.
                    let events = self.subscribe();
                    write_frame(&mut writer, &DaemonReply::Ack { id: 0 }.to_frame())?;
                    return self.stream_events(&mut writer, events);
                }
                Err(e) => DaemonReply::Error {
                    reason: e.to_string(),
                },
            };
            write_frame(&mut writer, &reply.to_frame())?;
        }
    }

    /// The subscription stream: forwards broadcast events to the client as
    /// `Event` frames until the client hangs up or the daemon stops.
    fn stream_events(
        &self,
        writer: &mut TcpStream,
        events: mpsc::Receiver<FleetEvent>,
    ) -> FsResult<()> {
        loop {
            match events.recv_timeout(Duration::from_millis(100)) {
                Ok(event) => {
                    write_frame(writer, &DaemonReply::Event(event).to_frame())?;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if self.stopping() {
                        return Ok(());
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
            }
        }
    }
}

/// How long a client may take to send the rest of a frame once its first
/// byte arrived. Client requests are small, so a client that stalls this
/// long mid-frame is dead or hostile, and its connection is closed.
const CLIENT_FRAME_TIMEOUT: Duration = Duration::from_secs(2);

/// Reads one client frame. The first byte is awaited in 200 ms polls, so an
/// idle connection notices a daemon stop; the frame itself is then read by
/// [`read_frame`] within [`CLIENT_FRAME_TIMEOUT`], so a stalled one cannot
/// keep the connection (and a stopping daemon) waiting. `Ok(None)` means the
/// client hung up cleanly, or the daemon is stopping and the connection was
/// idle.
fn read_client_frame(stream: &mut TcpStream, stop: &AtomicBool) -> FsResult<Option<Vec<u8>>> {
    let timeout = |timeout| {
        stream
            .set_read_timeout(timeout)
            .map_err(|e| transport_err("set client read timeout", e))
    };
    timeout(Some(Duration::from_millis(200)))?;
    loop {
        match stream.peek(&mut [0u8]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Relaxed) {
                    return Ok(None);
                }
            }
            Err(e) => return Err(transport_err("wait for a client frame", e)),
        }
    }
    timeout(Some(CLIENT_FRAME_TIMEOUT))?;
    read_frame(stream).map(Some)
}

/// A blocking client of a fleet daemon's control listener — what
/// `b3 fleet enqueue/status/results/watch` and the
/// integration tests use.
pub struct FleetClient {
    reader: std::io::BufReader<TcpStream>,
    writer: TcpStream,
}

impl FleetClient {
    /// Dials a daemon's control address (e.g. `127.0.0.1:7734`).
    pub fn connect(addr: &str) -> FsResult<FleetClient> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| transport_err(&format!("connect to fleet daemon {addr}"), e))?;
        let _ = stream.set_nodelay(true);
        let reader = stream
            .try_clone()
            .map_err(|e| transport_err("clone client stream", e))?;
        Ok(FleetClient {
            reader: std::io::BufReader::new(reader),
            writer: stream,
        })
    }

    fn roundtrip(&mut self, request: &ClientRequest) -> FsResult<DaemonReply> {
        write_frame(&mut self.writer, &request.to_frame())?;
        let reply = DaemonReply::from_frame(&read_frame(&mut self.reader)?)?;
        if let DaemonReply::Error { reason } = &reply {
            return Err(FsError::InvalidArgument(format!(
                "fleet daemon refused the request: {reason}"
            )));
        }
        Ok(reply)
    }

    /// Enqueues a job; returns its queue id.
    pub fn enqueue(&mut self, job: &SweepJob) -> FsResult<u64> {
        match self.roundtrip(&ClientRequest::Enqueue(job.clone()))? {
            DaemonReply::Ack { id } => Ok(id),
            other => Err(unexpected_reply("Ack", &other)),
        }
    }

    /// Fetches every job's status row.
    pub fn status(&mut self) -> FsResult<Vec<JobStatus>> {
        match self.roundtrip(&ClientRequest::Status)? {
            DaemonReply::Status(rows) => Ok(rows),
            other => Err(unexpected_reply("StatusReport", &other)),
        }
    }

    /// Fetches one job's status and merged bug groups.
    pub fn results(&mut self, id: u64) -> FsResult<(JobStatus, GroupTable)> {
        match self.roundtrip(&ClientRequest::Results { id })? {
            DaemonReply::Results { status, groups } => Ok((status, groups)),
            other => Err(unexpected_reply("ResultsReport", &other)),
        }
    }

    /// Cancels a still-queued job.
    pub fn cancel(&mut self, id: u64) -> FsResult<()> {
        match self.roundtrip(&ClientRequest::Cancel { id })? {
            DaemonReply::Ack { .. } => Ok(()),
            other => Err(unexpected_reply("Ack", &other)),
        }
    }

    /// Upgrades this connection to a live discovery stream. Blocks until
    /// the daemon acknowledges the subscription: once this returns, every
    /// later discovery is guaranteed to arrive via
    /// [`FleetSubscription::next_event`].
    pub fn subscribe(mut self) -> FsResult<FleetSubscription> {
        write_frame(&mut self.writer, &ClientRequest::Subscribe.to_frame())?;
        match read_frame(&mut self.reader).and_then(|f| DaemonReply::from_frame(&f))? {
            DaemonReply::Ack { .. } => Ok(FleetSubscription {
                reader: self.reader,
            }),
            other => Err(unexpected_reply("Ack", &other)),
        }
    }
}

fn unexpected_reply(wanted: &str, got: &DaemonReply) -> FsError {
    FsError::Corrupted(format!(
        "fleet daemon replied out of protocol: wanted {wanted}, got {got:?}"
    ))
}

/// The receiving end of a `Subscribe`d connection.
pub struct FleetSubscription {
    reader: std::io::BufReader<TcpStream>,
}

impl FleetSubscription {
    /// Blocks for the next discovery event. `None` once the daemon closes
    /// the stream (stop or restart).
    pub fn next_event(&mut self) -> Option<FleetEvent> {
        match read_frame(&mut self.reader).and_then(|f| DaemonReply::from_frame(&f)) {
            Ok(DaemonReply::Event(event)) => Some(event),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b3_ace::Bounds;

    fn fleet_dir(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("b3-fleet-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_job() -> SweepJob {
        SweepJob::new(Bounds::tiny(), 4)
    }

    #[test]
    fn job_state_codes_round_trip() {
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::from_code(state.code()), Some(state));
        }
        assert_eq!(JobState::from_code(9), None);
    }

    #[test]
    fn client_frames_round_trip() {
        let job = tiny_job();
        let frame = ClientRequest::Enqueue(job.clone()).to_frame();
        match ClientRequest::from_frame(&frame).unwrap() {
            ClientRequest::Enqueue(decoded) => assert_eq!(decoded.scope(), job.scope()),
            other => panic!("expected Enqueue, got {other:?}"),
        }
        let frame = ClientRequest::Results { id: 7 }.to_frame();
        assert!(matches!(
            ClientRequest::from_frame(&frame).unwrap(),
            ClientRequest::Results { id: 7 }
        ));
        let status = JobStatus {
            id: 3,
            fs: "btrfs".into(),
            era: "4.16".into(),
            num_shards: 12,
            state: JobState::Failed,
            error: "boom".into(),
        };
        let frame = DaemonReply::Status(vec![status.clone()]).to_frame();
        match DaemonReply::from_frame(&frame).unwrap() {
            DaemonReply::Status(rows) => assert_eq!(rows, vec![status]),
            other => panic!("expected Status, got {other:?}"),
        }
        let event = FleetEvent {
            job: 3,
            skeleton: "link;fsync".into(),
            consequence: Consequence::FileMissing,
            count: 2,
        };
        let frame = DaemonReply::Event(event.clone()).to_frame();
        match DaemonReply::from_frame(&frame).unwrap() {
            DaemonReply::Event(decoded) => assert_eq!(decoded, event),
            other => panic!("expected Event, got {other:?}"),
        }
    }

    /// Satellite: the queue journal must survive a daemon killed between
    /// job-state transitions — jobs reload at their last durable state, a
    /// `Running` job re-queues, and nothing is lost or duplicated.
    #[test]
    fn queue_journal_survives_restart_between_transitions() {
        let dir = fleet_dir("restart");
        let (first, second) = {
            let fleet = FleetCoordinator::open(FleetConfig::new(&dir)).expect("fleet opens");
            let first = fleet.enqueue(tiny_job()).expect("job 1 enqueues");
            let second = fleet.enqueue(tiny_job()).expect("job 2 enqueues");
            (first, second)
            // Dropped without any job running: the "kill" leaves two
            // queued jobs in the journal.
        };
        assert_eq!(first + 1, second);

        // Simulate dying mid-job: append the Running transition by hand,
        // exactly as run_next_job journals it before the sweep starts.
        {
            use std::io::Write;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join(QUEUE_FILE))
                .expect("journal opens");
            file.write_all(&state_record(first, JobState::Running, ""))
                .expect("running record appends");
        }
        let offline = inspect_queue(&dir).expect("offline inspection reads the journal");
        assert_eq!(offline.len(), 2, "no job lost or duplicated");
        assert_eq!(offline[0].state, JobState::Running);
        assert_eq!(offline[1].state, JobState::Queued);

        // Reload: the mid-flight job goes back to Queued (its checkpoint
        // keeps the progress), ids are stable, and new ids don't collide.
        let fleet = FleetCoordinator::open(FleetConfig::new(&dir)).expect("fleet reopens");
        let rows = fleet.status();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].id, first);
        assert_eq!(
            rows[0].state,
            JobState::Queued,
            "Running re-queues on reload"
        );
        assert_eq!(rows[1].id, second);
        assert_eq!(rows[1].state, JobState::Queued);
        let third = fleet.enqueue(tiny_job()).expect("job 3 enqueues");
        assert_eq!(third, second + 1, "ids keep counting across restarts");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite: a kill mid-append leaves a torn trailing record; the
    /// reload must ignore exactly that record — the job's previous durable
    /// state survives and the journal stays loadable.
    #[test]
    fn torn_trailing_record_preserves_the_prior_state() {
        let dir = fleet_dir("torn");
        let id = {
            let fleet = FleetCoordinator::open(FleetConfig::new(&dir)).expect("fleet opens");
            let id = fleet.enqueue(tiny_job()).expect("job enqueues");
            fleet.cancel(id).expect("queued job cancels");
            id
        };

        // A state transition cut off mid-payload: tag + length promised,
        // payload truncated — the B3SG torn-tail signature.
        let path = dir.join(QUEUE_FILE);
        {
            use std::io::Write;
            let full = state_record(id, JobState::Done, "");
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("journal opens");
            file.write_all(&full[..full.len() - 3])
                .expect("torn record appends");
        }
        let rows = inspect_queue(&dir).expect("a torn tail must not make the queue unreadable");
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].state,
            JobState::Cancelled,
            "the torn record contributes nothing; the prior state survives"
        );

        // Reopening compacts the torn tail away; the journal replays clean.
        let fleet = FleetCoordinator::open(FleetConfig::new(&dir)).expect("fleet reopens");
        assert_eq!(fleet.status()[0].state, JobState::Cancelled);
        let jobs = load_queue(&path).expect("compacted journal replays");
        assert_eq!(jobs.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `B3FQ` half of the corruption table (the framing half, shared
    /// with `B3SG`, is in `recordlog`): mid-journal records that make no
    /// sense refuse to load rather than silently dropping jobs, naming the
    /// case and the file.
    #[test]
    fn corrupt_journal_bodies_are_rejected() {
        let dir = fleet_dir("corrupt");
        std::fs::create_dir_all(&dir).expect("fleet dir");
        for (records, needle) in [
            (
                vec![state_record(9, JobState::Done, "")],
                "state record for unknown job 9",
            ),
            (
                vec![job_record(1, &tiny_job()), job_record(1, &tiny_job())],
                "duplicate record for job 1",
            ),
        ] {
            let bytes = [&QUEUE_MAGIC[..], &records.concat()].concat();
            std::fs::write(dir.join(QUEUE_FILE), bytes).expect("journal writes");
            let error = inspect_queue(&dir).expect_err(needle).to_string();
            assert!(error.contains(needle), "{error}");
            assert!(error.contains(QUEUE_FILE), "{error}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A one-job, one-state journal, captured byte for byte from the code
    /// before the record log was factored out of this module: job 1 (the
    /// tiny space, 4 shards) enqueued, then cancelled.
    const GOLDEN_JOURNAL: &str = "
        4233465101e50000000100000000000000050000000000000062747266730400
        000000000000342e313600040000000000000074696e79010000000000000003
        000000000000000500000000000000637265617404000000000000006c696e6b
        060000000000000072656e616d65010000000000000001000000000000004102
        000000000000000300000000000000666f6f0500000000000000412f666f6f01
        000000000000000600000000000000617070656e640100000000000000090000
        00000000006b6565705f73697a65010001010400000000000000001000000000
        0000000000000001000000000000021100000001000000000000000400000000
        00000000";

    fn enqueue_and_cancel(dir: &Path) -> PathBuf {
        let fleet = FleetCoordinator::open(FleetConfig::new(dir)).expect("fleet opens");
        let id = fleet.enqueue(tiny_job()).expect("job enqueues");
        fleet.cancel(id).expect("queued job cancels");
        dir.join(QUEUE_FILE)
    }

    #[test]
    fn queue_journal_bytes_match_the_golden() {
        let dir = fleet_dir("golden");
        let bytes = std::fs::read(enqueue_and_cancel(&dir)).expect("journal reads");
        let hex: String = bytes.iter().map(|byte| format!("{byte:02x}")).collect();
        let golden: String = GOLDEN_JOURNAL.split_whitespace().collect();
        assert_eq!(hex, golden, "the B3FQ bytes moved");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A record whose declared length swallows the next one is refused:
    /// read leniently, the job record below would swallow the cancel and
    /// the scheduler would run a job its client cancelled.
    #[test]
    fn a_job_record_swallowing_its_cancel_is_corrupt() {
        let dir = fleet_dir("swallow");
        let path = enqueue_and_cancel(&dir);
        let mut bytes = std::fs::read(&path).expect("journal reads");
        assert_eq!(bytes[5..9], 229u32.to_le_bytes(), "the job record's length");
        bytes[5..9].copy_from_slice(&251u32.to_le_bytes());
        std::fs::write(&path, bytes).expect("journal writes");
        let error = inspect_queue(&dir).expect_err("offline inspection refuses");
        assert!(error.to_string().contains("left over"), "{error}");
        assert!(FleetCoordinator::open(FleetConfig::new(&dir)).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A job whose sweep completes but whose audit diverged must not be
    /// reported `done`: it ends `Failed` with the divergence in its error,
    /// durably, and its groups stay fetchable.
    #[test]
    fn complete_run_with_audit_failures_fails_the_job() {
        use crate::sweep::{AuditFailure, ShardResult};
        let dir = fleet_dir("audit");
        let mut job = SweepJob::new(Bounds::tiny(), 1);
        job.prune = crate::PruneMode::Audit {
            samples_per_class: 2,
        };
        let fleet = FleetCoordinator::open(FleetConfig::new(&dir)).expect("fleet opens");
        let id = fleet.enqueue(job.clone()).expect("job enqueues");

        // The job's checkpoint already holds its only shard — with one
        // audited member that diverged from its representative.
        let mut checkpoint = job.empty_checkpoint();
        checkpoint.record(
            0,
            ShardResult {
                tested: 3,
                audited: 1,
                audit_failures: vec![AuditFailure {
                    class: "creat(A)".into(),
                    representative: "tiny-0000001".into(),
                    member: "tiny-0000004".into(),
                    detail: "member reports a bug its representative does not".into(),
                }],
                ..ShardResult::default()
            },
        );
        super::super::save_checkpoint(&fleet.checkpoint_path(id), &checkpoint)
            .expect("checkpoint seeds");

        // Nothing is left to sweep, so no worker is ever needed.
        let transport =
            super::super::ChildTransport::new(super::super::WorkerCommand::new("unused"));
        assert_eq!(fleet.run_until_idle(&transport).expect("queue drains"), 1);
        let check = |fleet: &FleetCoordinator| {
            let (status, groups) = fleet.results(id).expect("results stay fetchable");
            assert_eq!(status.state, JobState::Failed);
            for needle in [
                "1 audited workload(s) diverged",
                "creat(A)",
                "tiny-0000004",
                "tiny-0000001",
            ] {
                assert!(
                    status.error.contains(needle),
                    "{needle:?} not in {:?}",
                    status.error
                );
            }
            assert!(groups.is_empty());
        };
        check(&fleet);
        drop(fleet);
        check(&FleetCoordinator::open(FleetConfig::new(&dir)).expect("fleet reopens"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_refuses_running_and_terminal_jobs() {
        let dir = fleet_dir("cancel");
        let fleet = FleetCoordinator::open(FleetConfig::new(&dir)).expect("fleet opens");
        let id = fleet.enqueue(tiny_job()).expect("job enqueues");
        fleet.cancel(id).expect("queued job cancels");
        let error = fleet.cancel(id).unwrap_err();
        assert!(error.to_string().contains("cancelled"), "{error}");
        let error = fleet.cancel(id + 100).unwrap_err();
        assert!(error.to_string().contains("no such job"), "{error}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Compaction on open collapses the transition history to one job +
    /// one state record per job without changing what replays.
    #[test]
    fn reopen_compacts_the_journal_without_changing_its_content() {
        let dir = fleet_dir("compact");
        {
            let fleet = FleetCoordinator::open(FleetConfig::new(&dir)).expect("fleet opens");
            let id = fleet.enqueue(tiny_job()).expect("job enqueues");
            // A noisy history: many redundant state appends.
            let mut state = fleet.locked();
            for _ in 0..20 {
                state
                    .transition(id, JobState::Running, String::new())
                    .unwrap();
                state
                    .transition(id, JobState::Queued, String::new())
                    .unwrap();
            }
        }
        let before = std::fs::metadata(dir.join(QUEUE_FILE)).unwrap().len();
        let fleet = FleetCoordinator::open(FleetConfig::new(&dir)).expect("fleet reopens");
        let after = std::fs::metadata(dir.join(QUEUE_FILE)).unwrap().len();
        assert!(
            after < before,
            "reopen must compact the history ({before} -> {after} bytes)"
        );
        let rows = fleet.status();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].state, JobState::Queued);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Serves `fleet`'s control listener on a thread of its own; the
    /// receiver hears once `serve_clients` has returned.
    fn serve_in_background(
        fleet: &std::sync::Arc<FleetCoordinator>,
    ) -> (std::net::SocketAddr, mpsc::Receiver<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("listener binds");
        let addr = listener.local_addr().expect("listener has an address");
        let (returned, rx) = mpsc::channel();
        let fleet = std::sync::Arc::clone(fleet);
        std::thread::spawn(move || {
            fleet
                .serve_clients(listener)
                .expect("control listener serves");
            let _ = returned.send(());
        });
        (addr, rx)
    }

    /// A client that connects and then says nothing must not pin the
    /// daemon: its connection notices the stop between polls.
    #[test]
    fn an_idle_client_does_not_keep_serve_clients_from_returning() {
        let dir = fleet_dir("idle-client");
        let fleet = std::sync::Arc::new(FleetCoordinator::open(FleetConfig::new(&dir)).unwrap());
        let (addr, returned) = serve_in_background(&fleet);
        let _idle = TcpStream::connect(addr).expect("client connects");
        std::thread::sleep(Duration::from_millis(300));
        fleet.request_stop();
        returned
            .recv_timeout(Duration::from_secs(10))
            .expect("serve_clients returns with an idle client still connected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A client that stalls inside a frame must not pin its connection
    /// thread either: the rest of the frame is waited for a bounded time,
    /// then the connection is closed and a stopping daemon returns.
    #[test]
    fn a_client_stalled_mid_frame_does_not_keep_serve_clients_from_returning() {
        use std::io::Write;
        let dir = fleet_dir("stalled-client");
        let fleet = std::sync::Arc::new(FleetCoordinator::open(FleetConfig::new(&dir)).unwrap());
        let (addr, returned) = serve_in_background(&fleet);
        let mut stalled = TcpStream::connect(addr).expect("client connects");
        stalled
            .write_all(&[8, 0])
            .expect("half a length prefix sends");
        std::thread::sleep(Duration::from_millis(300));
        fleet.request_stop();
        returned
            .recv_timeout(Duration::from_secs(10))
            .expect("serve_clients returns with a client stalled mid-frame");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A length prefix over the protocol limit is a desynced stream: the
    /// daemon closes the connection instead of waiting for the payload.
    #[test]
    fn an_oversized_client_frame_closes_the_connection() {
        use crate::distrib::protocol::MAX_FRAME_BYTES;
        use std::io::{Read, Write};
        let dir = fleet_dir("oversized");
        let fleet = std::sync::Arc::new(FleetCoordinator::open(FleetConfig::new(&dir)).unwrap());
        let (addr, returned) = serve_in_background(&fleet);
        let mut client = TcpStream::connect(addr).expect("client connects");
        let oversized = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        client.write_all(&oversized).expect("length prefix sends");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        match client.read(&mut [0u8; 16]) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("the daemon must close the connection, got {other:?}"),
        }
        fleet.request_stop();
        returned.recv_timeout(Duration::from_secs(10)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
