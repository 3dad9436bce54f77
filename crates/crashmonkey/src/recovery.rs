//! Incremental crash-state recovery for one workload.
//!
//! A [`RecoverySession`] ties together the two halves of the incremental
//! pipeline:
//!
//! * the [`CrashStateStream`], which hands out the image the recorder froze
//!   at each selected checkpoint and reports the *block delta* between
//!   adjacent crash states, and
//! * the file system's [`RecoverDelta`] session, which consumes those deltas
//!   to patch its recovered view forward instead of re-reading and
//!   re-decoding the whole image at every crash point.
//!
//! In debug builds every patched-forward recovered view is cross-checked
//! against a from-scratch [`FsSpec::mount`] of the same crash state: on
//! success the logical snapshots must be identical, on failure the error
//! strings must match. The test suite therefore doubles as an equivalence
//! proof for the recovery engine.

use b3_block::{CowSnapshotDevice, CrashStateStream, DiskImage, IoLog};
use b3_vfs::error::FsResult;
use b3_vfs::fs::{FileSystem, FsSpec};
use b3_vfs::recover::{RecoverDelta, RemountSession};
use b3_vfs::snapshot::LogicalSnapshot;

use crate::config::RecoveryMode;

/// Creates a fresh recovery session for `mode`: the file system's native
/// incremental session, or the always-remount baseline. Sessions outlive
/// individual workloads — [`RecoverySession::new`] re-primes them at every
/// workload boundary, so one session carries its caches (most profitably
/// the pinned base-image decode) across an entire sweep.
pub fn session_for(spec: &dyn FsSpec, mode: RecoveryMode) -> Box<dyn RecoverDelta + Send> {
    match mode {
        RecoveryMode::Remount => Box::new(RemountSession),
        RecoveryMode::PatchForward => spec.recovery_session(),
    }
}

/// Per-workload recovery engine: streams crash states in checkpoint order
/// and recovers each one, incrementally when the file system supports it.
///
/// The underlying [`RecoverDelta`] session is borrowed, not owned: it
/// persists across workloads (see [`session_for`]) and is re-primed against
/// the workload's base image here.
pub struct RecoverySession<'a> {
    spec: &'a dyn FsSpec,
    stream: CrashStateStream<'a>,
    session: &'a mut (dyn RecoverDelta + Send),
    /// Cross-check every patched-forward view against a from-scratch mount.
    debug_check: bool,
    /// Cumulative time spent in the recovery step proper (excluding
    /// crash-state construction and the debug cross-check).
    recovery_time: std::time::Duration,
}

impl<'a> RecoverySession<'a> {
    /// Creates a per-workload engine recovering crash states of `log`,
    /// recorded over `base`, priming `session` against `base` so state
    /// cached from previous workloads is either re-validated (same base)
    /// or dropped.
    pub fn new(
        spec: &'a dyn FsSpec,
        base: &'a DiskImage,
        log: &'a IoLog,
        session: &'a mut (dyn RecoverDelta + Send),
    ) -> Self {
        session.prime(spec, base);
        let debug_check = cfg!(debug_assertions) && session.is_incremental();
        RecoverySession {
            spec,
            stream: CrashStateStream::new(base, log),
            session,
            debug_check,
            recovery_time: std::time::Duration::ZERO,
        }
    }

    /// Constructs the crash state for `checkpoint` and recovers it. Returns
    /// the raw crash-state device (for fsck on recovery failure) alongside
    /// the recovery result. Checkpoints must be visited in increasing order
    /// for the incremental path to engage; out-of-order visits silently fall
    /// back to a from-scratch recovery.
    pub fn recover_at(
        &mut self,
        checkpoint: u32,
    ) -> FsResult<(CowSnapshotDevice, FsResult<Box<dyn FileSystem>>)> {
        let step = self
            .stream
            .step_to(checkpoint)
            .map_err(b3_vfs::error::FsError::from)?;
        // Cloning the crash-state device is construction cost, not recovery
        // cost — keep it outside the recovery timer.
        let device = Box::new(step.state.clone());
        let recover_start = std::time::Instant::now();
        let recovered = self.session.recover(self.spec, device, step.delta.as_ref());
        self.recovery_time += recover_start.elapsed();
        if self.debug_check {
            Self::assert_equivalent(self.spec, &step.state, &recovered, checkpoint);
        }
        Ok((step.state, recovered))
    }

    /// Bytes of copy-on-write state the crash states visited hold on top
    /// of the base image (each written block counts once, however many
    /// checkpoints are visited).
    pub fn replayed_bytes(&self) -> u64 {
        self.stream.replayed_bytes()
    }

    /// Cumulative time spent in the recovery step proper across every
    /// [`RecoverySession::recover_at`] call — crash-state construction and
    /// the debug cross-check excluded.
    pub fn recovery_time(&self) -> std::time::Duration {
        self.recovery_time
    }

    /// Debug-build invariant: the incrementally recovered view must be
    /// bit-identical (logically) to a from-scratch mount of the same state.
    fn assert_equivalent(
        spec: &dyn FsSpec,
        state: &CowSnapshotDevice,
        recovered: &FsResult<Box<dyn FileSystem>>,
        checkpoint: u32,
    ) {
        let fresh = spec.mount(Box::new(state.clone()));
        match (recovered, fresh) {
            (Ok(patched), Ok(mounted)) => {
                let patched_snapshot = LogicalSnapshot::capture(patched.as_ref());
                let fresh_snapshot = LogicalSnapshot::capture(mounted.as_ref());
                assert!(
                    snapshots_equal(&patched_snapshot, &fresh_snapshot),
                    "incremental recovery diverged from remount at checkpoint \
                     {checkpoint} on {}",
                    spec.name()
                );
            }
            (Err(patched), Err(fresh)) => {
                assert_eq!(
                    patched.to_string(),
                    fresh.to_string(),
                    "incremental recovery failed differently from remount at \
                     checkpoint {checkpoint} on {}",
                    spec.name()
                );
            }
            (Ok(_), Err(fresh)) => panic!(
                "incremental recovery succeeded where remount failed ({fresh}) \
                 at checkpoint {checkpoint} on {}",
                spec.name()
            ),
            (Err(patched), Ok(_)) => panic!(
                "incremental recovery failed ({patched}) where remount \
                 succeeded at checkpoint {checkpoint} on {}",
                spec.name()
            ),
        }
    }
}

/// Compares two capture results: equal snapshots, or equal capture errors.
fn snapshots_equal(a: &FsResult<LogicalSnapshot>, b: &FsResult<LogicalSnapshot>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => a == b,
        (Err(a), Err(b)) => a.to_string() == b.to_string(),
        _ => false,
    }
}
