//! Crash-state recovery for one workload.
//!
//! A [`RecoverySession`] walks the [`CrashStateStream`] of one recorded run
//! (the image the recorder froze at each selected checkpoint) and recovers
//! each state through the file system's [`RecoverDelta`] session: the view
//! `mount` would give, without the write-back a mount may end with.
//!
//! In debug builds every recovered view is cross-checked against a
//! from-scratch [`FsSpec::mount`] of the same crash state: on success the
//! logical snapshots must be identical, on failure the error strings must
//! match. The test suite therefore doubles as an equivalence proof for each
//! file system's recover.

use b3_block::{CowSnapshotDevice, CrashStateStream, DiskImage, IoLog};
use b3_vfs::error::FsResult;
use b3_vfs::fs::{FileSystem, FsSpec};
use b3_vfs::recover::RecoverDelta;
use b3_vfs::snapshot::LogicalSnapshot;

/// Per-workload recovery: streams crash states in checkpoint order and
/// recovers each one.
pub struct RecoverySession<'a> {
    spec: &'a dyn FsSpec,
    stream: CrashStateStream<'a>,
    session: Box<dyn RecoverDelta + Send>,
    /// Cumulative time spent in the recovery step proper (excluding
    /// crash-state construction and the debug cross-check).
    recovery_time: std::time::Duration,
}

impl<'a> RecoverySession<'a> {
    /// Creates a per-workload session recovering crash states of `log`,
    /// recorded over `base`.
    pub fn new(spec: &'a dyn FsSpec, base: &'a DiskImage, log: &'a IoLog) -> Self {
        RecoverySession {
            spec,
            stream: CrashStateStream::new(base, log),
            session: spec.recovery_session(),
            recovery_time: std::time::Duration::ZERO,
        }
    }

    /// Constructs the crash state for `checkpoint` and recovers it. Returns
    /// the raw crash-state device (for fsck on recovery failure) alongside
    /// the recovery result.
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
        let recovered = self.session.recover(self.spec, device, None);
        self.recovery_time += recover_start.elapsed();
        if cfg!(debug_assertions) {
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

    /// Debug-build invariant: the recovered view must be logically identical
    /// to a from-scratch mount of the same state.
    fn assert_equivalent(
        spec: &dyn FsSpec,
        state: &CowSnapshotDevice,
        recovered: &FsResult<Box<dyn FileSystem>>,
        checkpoint: u32,
    ) {
        let fresh = spec.mount(Box::new(state.clone()));
        match (recovered, fresh) {
            (Ok(recovered), Ok(mounted)) => {
                let recovered_snapshot = LogicalSnapshot::capture(recovered.as_ref());
                let fresh_snapshot = LogicalSnapshot::capture(mounted.as_ref());
                assert!(
                    snapshots_equal(&recovered_snapshot, &fresh_snapshot),
                    "recovery diverged from remount at checkpoint {checkpoint} on {}",
                    spec.name()
                );
            }
            (Err(recovered), Err(fresh)) => {
                assert_eq!(
                    recovered.to_string(),
                    fresh.to_string(),
                    "recovery failed differently from remount at checkpoint \
                     {checkpoint} on {}",
                    spec.name()
                );
            }
            (Ok(_), Err(fresh)) => panic!(
                "recovery succeeded where remount failed ({fresh}) at checkpoint \
                 {checkpoint} on {}",
                spec.name()
            ),
            (Err(recovered), Ok(_)) => panic!(
                "recovery failed ({recovered}) where remount succeeded at \
                 checkpoint {checkpoint} on {}",
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
