//! The coordinator/worker wire protocol: length-prefixed, codec-serialized
//! frames.
//!
//! This module is the *implementation* of the protocol; the authoritative
//! human-readable specification — frame grammar, handshake sequence, and
//! error behavior — is `docs/PROTOCOL.md` at the repository root, and the
//! [`wire`] constants below are cross-checked against the tag table in that
//! document by the `docs` integration test. Every frame travels over a
//! [`Transport`](super::transport::Transport) link: the same bytes flow
//! whether the link is a child's stdio, a TCP socket, or an ssh pipe.
//!
//! A session is strictly ordered:
//!
//! 1. on a link that requires authentication (a non-loopback TCP worker,
//!    see [`super::auth`]) the coordinator first sends
//!    [`ToWorker::Challenge`] with a fresh nonce,
//! 2. the worker sends [`Hello`] (protocol version + the HMAC answer to
//!    the challenge, empty when unchallenged),
//! 3. the coordinator validates the version (and the challenge answer) and
//!    replies with `Job` (the [`SweepJob`] plus the checkpoint fingerprint
//!    it expects) — on unauthenticated links the `Job` is sent eagerly,
//!    crossing the `Hello` on the wire,
//! 4. the worker recomputes the fingerprint from the decoded job and either
//!    [`FromWorker::Reject`]s a mismatch or starts the `Claim` →
//!    `Assign`/`Shutdown` → `ShardDone` loop.

use std::io::{Read, Write};

use b3_vfs::codec::{Decoder, Encoder};
use b3_vfs::error::{FsError, FsResult};

use super::SweepJob;
use crate::sweep::ShardResult;

/// Version of the frame grammar and handshake. Bumped on any change to
/// frame tags, payload layouts, or the handshake sequence; a coordinator
/// refuses a worker whose [`Hello`] carries a different version (a
/// mismatched binary would desync on the very next frame).
///
/// History: v1 was the PR 3 stdio-only protocol (no handshake); v2 added
/// the `Hello`/`Reject` handshake, the job fingerprint echo, and grouped
/// report frames; v3 added the prune mode to `SweepJob` and the
/// pruned/audited counters + audit-failure list to `ShardResult`
/// (representative sweeps); v4 added the shared-secret `Challenge` frame
/// and the `auth` field in `Hello` (authenticated TCP workers), plus a
/// job-queue daemon's client frames (tags `0x10`–`0x14` and
/// `0x90`–`0x94`); v5 widened the crash-point policy in
/// `SweepJob` from an `All` bool to a one-byte policy code plus the triage
/// audit budget (`CrashPointPolicy::AllTriaged`, see docs/ANALYSIS.md);
/// v6 added the job-space kind byte ([`wire::SPACE_FS`]/[`wire::SPACE_APP`])
/// to `SweepJob`, so a job can carry either the ACE file-system bounds or
/// the application transaction bounds plus the WAL/KV engine profile
/// (`b3_app`, see docs/APP.md); v7 dropped the calibrated rate from
/// `Hello` (shard batches are a fixed size). The daemon and its client
/// frames were later deleted without a bump: no worker session frame
/// changed, a worker never sent or received those tags, and both sides
/// still refuse them as unknown.
pub const PROTOCOL_VERSION: u32 = 7;

/// Frame tag bytes. Coordinator-to-worker tags occupy the low range,
/// worker-to-coordinator tags have the high bit set — so a desynced stream
/// (a frame read in the wrong direction) fails tag dispatch immediately
/// instead of mis-parsing a payload.
pub mod wire {
    /// Coordinator → worker: the sweep job + expected checkpoint fingerprint.
    pub const JOB: u8 = 0x01;
    /// Coordinator → worker: a batch of shard indices to run.
    pub const ASSIGN: u8 = 0x02;
    /// Coordinator → worker: no more work; exit cleanly.
    pub const SHUTDOWN: u8 = 0x03;
    /// Coordinator → worker: shared-secret challenge nonce (auth links only).
    pub const CHALLENGE: u8 = 0x04;
    /// Worker → coordinator: version handshake (first frame).
    pub const HELLO: u8 = 0x80;
    /// Worker → coordinator: idle, requesting shards.
    pub const CLAIM: u8 = 0x81;
    /// Worker → coordinator: one assigned shard ran to completion.
    pub const SHARD_DONE: u8 = 0x82;
    /// Worker → coordinator: the job was refused (fingerprint mismatch).
    pub const REJECT: u8 = 0x83;
    /// Job-space kind inside a `Job` frame: ACE file-system bounds follow.
    pub const SPACE_FS: u8 = 0x00;
    /// Job-space kind inside a `Job` frame: app transaction bounds + one
    /// engine-profile byte follow.
    pub const SPACE_APP: u8 = 0x01;
}

/// Largest frame either side accepts. Real frames are far smaller (a Job
/// is a few KB, a ShardDone carries one shard's grouped reports); the cap
/// exists so a desynced stream — stray bytes on a worker's stdout, say —
/// surfaces as a protocol error instead of a multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

pub(super) fn transport_err(context: &str, error: std::io::Error) -> FsError {
    FsError::Device(format!("worker transport: {context}: {error}"))
}

/// Writes one length-prefixed frame: a little-endian `u32` payload length,
/// then the payload, then a flush (frames are the protocol's only unit of
/// buffering).
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> FsResult<()> {
    writer
        .write_all(&(payload.len() as u32).to_le_bytes())
        .and_then(|()| writer.write_all(payload))
        .and_then(|()| writer.flush())
        .map_err(|e| transport_err("write frame", e))
}

/// Reads one length-prefixed frame. A declared length beyond
/// [`MAX_FRAME_BYTES`] is rejected before any allocation; a stream that
/// ends mid-frame (short read) surfaces the underlying IO error.
pub fn read_frame(reader: &mut impl Read) -> FsResult<Vec<u8>> {
    let mut len = [0u8; 4];
    reader
        .read_exact(&mut len)
        .map_err(|e| transport_err("read frame length", e))?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FsError::Corrupted(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte protocol limit \
             (desynced stream?)"
        )));
    }
    let mut payload = vec![0u8; len];
    reader
        .read_exact(&mut payload)
        .map_err(|e| transport_err("read frame payload", e))?;
    Ok(payload)
}

/// The worker's opening handshake frame: which protocol it speaks, and its
/// answer to the coordinator's challenge.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// The worker binary's [`PROTOCOL_VERSION`]. The coordinator refuses
    /// any other value — and never respawns after a refusal, since the
    /// same binary would fail the same way.
    pub version: u32,
    /// Answer to a [`ToWorker::Challenge`]: lowercase hex of
    /// `HMAC-SHA-256(secret, nonce)` (see [`super::auth`]). Empty on links
    /// that were not challenged (spawned stdio/ssh workers, loopback TCP).
    pub auth: String,
}

/// Coordinator-to-worker messages.
#[derive(Debug, Clone)]
pub enum ToWorker {
    /// The sweep job, plus the checkpoint fingerprint the coordinator
    /// computed for it. The worker recomputes the fingerprint from the
    /// decoded job; a difference means the two binaries disagree about
    /// what the job *means* (e.g. a changed enumeration order), so the
    /// worker must refuse rather than silently produce unmergeable
    /// results.
    Job {
        /// Everything the worker needs to reproduce its slice of the sweep.
        /// Boxed: the job description dwarfs every other frame, and keeping
        /// it inline would bloat each `ToWorker` value to its size.
        job: Box<SweepJob>,
        /// `job.empty_checkpoint().fingerprint()` as the coordinator sees it.
        fingerprint: String,
    },
    /// Shard indices to run, in order: `DistribConfig::assign_batch` of
    /// them, or what is left of the queue.
    Assign(Vec<u32>),
    /// No more work; the worker exits cleanly.
    Shutdown,
    /// Shared-secret challenge, sent *before* the `Job` on links that
    /// require authentication (non-loopback TCP workers). The worker must
    /// answer in its `Hello.auth` field; a worker without the secret can
    /// only `Reject`. Unauthenticated links never see this frame.
    Challenge {
        /// Fresh per-link nonce the worker's HMAC must cover.
        nonce: String,
    },
}

impl ToWorker {
    /// Encodes this message as one frame payload.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            ToWorker::Job { job, fingerprint } => {
                enc.put_u8(wire::JOB);
                job.encode(&mut enc);
                enc.put_str(fingerprint);
            }
            ToWorker::Assign(shards) => {
                enc.put_u8(wire::ASSIGN);
                enc.put_u64(shards.len() as u64);
                for shard in shards {
                    enc.put_u32(*shard);
                }
            }
            ToWorker::Shutdown => enc.put_u8(wire::SHUTDOWN),
            ToWorker::Challenge { nonce } => {
                enc.put_u8(wire::CHALLENGE);
                enc.put_str(nonce);
            }
        }
        enc.finish()
    }

    /// Decodes one coordinator-to-worker frame payload.
    pub fn from_frame(frame: &[u8]) -> FsResult<ToWorker> {
        let mut dec = Decoder::new(frame);
        match dec.get_u8()? {
            wire::JOB => {
                let job = Box::new(SweepJob::decode(&mut dec)?);
                let fingerprint = dec.get_str()?;
                Ok(ToWorker::Job { job, fingerprint })
            }
            wire::ASSIGN => {
                let count = dec.get_u64()? as usize;
                // Validate the declared length against the remaining frame
                // before allocating, so a corrupt frame errors instead of
                // attempting a huge allocation.
                if count > dec.remaining() / 4 {
                    return Err(FsError::Corrupted(format!(
                        "assignment declares {count} shards but only {} bytes remain",
                        dec.remaining()
                    )));
                }
                let mut shards = Vec::with_capacity(count);
                for _ in 0..count {
                    shards.push(dec.get_u32()?);
                }
                Ok(ToWorker::Assign(shards))
            }
            wire::SHUTDOWN => Ok(ToWorker::Shutdown),
            wire::CHALLENGE => Ok(ToWorker::Challenge {
                nonce: dec.get_str()?,
            }),
            tag => Err(FsError::Corrupted(format!(
                "unknown coordinator message tag {tag:#x}"
            ))),
        }
    }
}

/// Worker-to-coordinator messages.
#[derive(Debug, Clone)]
pub enum FromWorker {
    /// The opening handshake (must be the worker's first frame, and must
    /// never repeat).
    Hello(Hello),
    /// The worker is idle and wants shards.
    Claim,
    /// One assigned shard ran to completion.
    ShardDone {
        /// The shard index the result belongs to.
        shard: u32,
        /// The shard's grouped (exemplar + count) result.
        result: ShardResult,
    },
    /// The worker refuses the job (fingerprint mismatch) and is about to
    /// exit. Terminal: the coordinator must not respawn, since the same
    /// binary would refuse again.
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
}

impl FromWorker {
    /// Encodes this message as one frame payload.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            FromWorker::Hello(hello) => {
                enc.put_u8(wire::HELLO);
                enc.put_u32(hello.version);
                enc.put_str(&hello.auth);
            }
            FromWorker::Claim => enc.put_u8(wire::CLAIM),
            FromWorker::ShardDone { shard, result } => {
                enc.put_u8(wire::SHARD_DONE);
                enc.put_u32(*shard);
                result.encode(&mut enc);
            }
            FromWorker::Reject { reason } => {
                enc.put_u8(wire::REJECT);
                enc.put_str(reason);
            }
        }
        enc.finish()
    }

    /// Decodes one worker-to-coordinator frame payload.
    pub fn from_frame(frame: &[u8]) -> FsResult<FromWorker> {
        let mut dec = Decoder::new(frame);
        match dec.get_u8()? {
            wire::HELLO => {
                // Another version may lay the rest out differently: stop at
                // the version, so `validate_hello` refuses the worker as a
                // mismatched binary instead of the decoder as a desync.
                let version = dec.get_u32()?;
                let auth = match version {
                    PROTOCOL_VERSION => dec.get_str()?,
                    _ => String::new(),
                };
                Ok(FromWorker::Hello(Hello { version, auth }))
            }
            wire::CLAIM => Ok(FromWorker::Claim),
            wire::SHARD_DONE => Ok(FromWorker::ShardDone {
                shard: dec.get_u32()?,
                result: ShardResult::decode(&mut dec)?,
            }),
            wire::REJECT => Ok(FromWorker::Reject {
                reason: dec.get_str()?,
            }),
            tag => Err(FsError::Corrupted(format!(
                "unknown worker message tag {tag:#x}"
            ))),
        }
    }
}

/// Validates a worker's handshake against this coordinator's protocol
/// version. A mismatch is terminal for the worker slot: respawning the
/// same binary cannot fix it.
pub fn validate_hello(hello: &Hello) -> FsResult<()> {
    if hello.version != PROTOCOL_VERSION {
        return Err(FsError::InvalidArgument(format!(
            "worker speaks protocol version {} but this coordinator speaks {} \
             (mismatched binaries?)",
            hello.version, PROTOCOL_VERSION
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trips_including_rate_and_auth() {
        let hello = Hello {
            version: PROTOCOL_VERSION,
            auth: "0123abcd".into(),
        };
        let frame = FromWorker::Hello(hello.clone()).to_frame();
        match FromWorker::from_frame(&frame).unwrap() {
            FromWorker::Hello(decoded) => assert_eq!(decoded, hello),
            other => panic!("expected Hello, got {other:?}"),
        }
    }

    #[test]
    fn challenge_round_trips_its_nonce() {
        let frame = ToWorker::Challenge {
            nonce: "feedface".into(),
        }
        .to_frame();
        match ToWorker::from_frame(&frame).unwrap() {
            ToWorker::Challenge { nonce } => assert_eq!(nonce, "feedface"),
            other => panic!("expected Challenge, got {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_is_rejected_and_current_version_accepted() {
        assert!(validate_hello(&Hello {
            version: PROTOCOL_VERSION,
            auth: String::new(),
        })
        .is_ok());
        let stale = Hello {
            version: PROTOCOL_VERSION + 1,
            auth: String::new(),
        };
        let error = validate_hello(&stale).unwrap_err();
        assert!(error.to_string().contains("protocol version"));
    }

    /// A v6 worker's `Hello` carries a rate where v7 has `auth`'s length:
    /// read as v7 it would fail as a desync. It must be refused for its
    /// version instead, which the coordinator never respawns.
    #[test]
    fn a_v6_hello_is_refused_by_its_version() {
        let mut enc = Encoder::new();
        enc.put_u8(wire::HELLO);
        enc.put_u32(6);
        enc.put_u64(1234.5678_f64.to_bits());
        enc.put_str("");
        let FromWorker::Hello(hello) = FromWorker::from_frame(&enc.finish()).unwrap() else {
            panic!("expected Hello");
        };
        let error = validate_hello(&hello).unwrap_err();
        assert!(error.to_string().contains("protocol version 6"), "{error}");
    }

    #[test]
    fn reject_round_trips_its_reason() {
        let frame = FromWorker::Reject {
            reason: "fingerprint mismatch".into(),
        }
        .to_frame();
        match FromWorker::from_frame(&frame).unwrap() {
            FromWorker::Reject { reason } => assert_eq!(reason, "fingerprint mismatch"),
            other => panic!("expected Reject, got {other:?}"),
        }
    }

    /// The job-queue daemon's client tags (`0x10`–`0x14` requests,
    /// `0x90`–`0x94` replies) were retired without a version bump, which is
    /// only sound while both sides refuse them as unknown: a stray client
    /// frame on a worker link must desync loudly, not parse.
    #[test]
    fn retired_client_tags_are_refused_in_both_directions() {
        for tag in (0x10..=0x14).chain(0x90..=0x94) {
            let to_worker = ToWorker::from_frame(&[tag]).unwrap_err().to_string();
            assert!(
                to_worker.contains(&format!("unknown coordinator message tag {tag:#x}")),
                "{to_worker}"
            );
            let from_worker = FromWorker::from_frame(&[tag]).unwrap_err().to_string();
            assert!(
                from_worker.contains(&format!("unknown worker message tag {tag:#x}")),
                "{from_worker}"
            );
        }
    }

    /// A `Job` frame carries both kinds of space and every non-default
    /// knob a scope depends on: the decoded job re-encodes to the same
    /// bytes, keeps its scope, and carries the fingerprint unchanged.
    #[test]
    fn job_frames_round_trip_both_spaces_with_their_fingerprint() {
        use crate::sweep::PruneMode;
        use b3_ace::Bounds;
        use b3_app::{EngineProfile, TxnBounds};
        use b3_crashmonkey::CrashPointPolicy;

        let mut fs_job = SweepJob::new(Bounds::tiny(), 3);
        fs_job.crashmonkey.crash_points = CrashPointPolicy::AllTriaged { audit: 2 };
        fs_job.prune = PruneMode::Audit {
            samples_per_class: 4,
        };
        let engine = EngineProfile {
            torn_commit: true,
            ..EngineProfile::default()
        };
        let mut app_job = SweepJob::new_app(TxnBounds::tiny(), engine, 5);
        app_job.crashmonkey.crash_points = CrashPointPolicy::All;
        for job in [fs_job, app_job] {
            let fingerprint = job.empty_checkpoint().fingerprint().to_string();
            let frame = ToWorker::Job {
                job: Box::new(job.clone()),
                fingerprint: fingerprint.clone(),
            }
            .to_frame();
            let ToWorker::Job {
                job: decoded,
                fingerprint: echoed,
            } = ToWorker::from_frame(&frame).unwrap()
            else {
                panic!("expected Job");
            };
            assert_eq!(echoed, fingerprint);
            assert_eq!(decoded.scope(), job.scope());
            assert_eq!(decoded.empty_checkpoint().fingerprint(), fingerprint);
            let reencoded = ToWorker::Job {
                job: decoded,
                fingerprint,
            }
            .to_frame();
            assert_eq!(reencoded, frame, "{}", job.scope());
        }
    }

    /// `Assign` keeps its shard order, and one that declares more shards
    /// than its bytes hold is refused before the allocation it asks for.
    #[test]
    fn assign_round_trips_and_an_overlong_count_is_corrupt() {
        let frame = ToWorker::Assign(vec![7, 0, u32::MAX]).to_frame();
        match ToWorker::from_frame(&frame).unwrap() {
            ToWorker::Assign(shards) => assert_eq!(shards, [7, 0, u32::MAX]),
            other => panic!("expected Assign, got {other:?}"),
        }
        let mut enc = Encoder::new();
        enc.put_u8(wire::ASSIGN);
        enc.put_u64(u64::MAX);
        enc.put_u32(1);
        let error = ToWorker::from_frame(&enc.finish()).unwrap_err();
        assert!(matches!(error, FsError::Corrupted(_)), "{error}");
        assert!(error.to_string().contains("only 4 bytes remain"), "{error}");
    }

    #[test]
    fn shard_done_round_trips_its_shard_and_result() {
        let result = ShardResult {
            tested: 11,
            ..ShardResult::default()
        };
        let frame = FromWorker::ShardDone {
            shard: 3,
            result: result.clone(),
        }
        .to_frame();
        match FromWorker::from_frame(&frame).unwrap() {
            FromWorker::ShardDone {
                shard,
                result: decoded,
            } => {
                assert_eq!(shard, 3);
                assert_eq!(decoded, result);
            }
            other => panic!("expected ShardDone, got {other:?}"),
        }
    }

    /// Frames written back to back read back one at a time; a stream that
    /// ends inside a frame is a transport error (a dead link, retried), not
    /// a corrupt one.
    #[test]
    fn frames_read_back_in_order_and_a_cut_frame_is_a_transport_error() {
        let mut stream = Vec::new();
        write_frame(&mut stream, &FromWorker::Claim.to_frame()).unwrap();
        write_frame(&mut stream, b"second").unwrap();
        let cut = stream.len() - 2;
        let mut reader = std::io::Cursor::new(&stream[..cut]);
        assert!(matches!(
            FromWorker::from_frame(&read_frame(&mut reader).unwrap()).unwrap(),
            FromWorker::Claim
        ));
        let error = read_frame(&mut reader).unwrap_err();
        assert!(matches!(error, FsError::Device(_)), "{error}");
        assert!(error.to_string().contains("read frame payload"), "{error}");
    }

    #[test]
    fn oversized_frame_is_refused_before_allocation() {
        let mut stream: Vec<u8> = Vec::new();
        stream.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut reader = std::io::Cursor::new(stream);
        let error = read_frame(&mut reader).unwrap_err();
        assert!(error.to_string().contains("protocol limit"));
    }
}
