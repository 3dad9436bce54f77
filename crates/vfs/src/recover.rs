//! The crash-state recovery seam.
//!
//! The paper reports that mount-and-recover dominates per-crash-state cost
//! (§6.3): CrashMonkey mounts every crash state from scratch. Most of a
//! simulated mount is the decode and replay that builds the recovered view;
//! the rest is the write-back some file systems end their mount with (CowFs
//! commits the replayed log, FlashFs writes a fresh checkpoint). That
//! write-back re-serializes a view that is already built, and a crash state
//! is checked once and dropped, so recovering one needs the view alone.
//!
//! [`RecoverDelta`] is the seam: [`FsSpec::recovery_session`] returns a
//! stateless session whose [`recover`](RecoverDelta::recover) is the view
//! `mount` would give. The default, [`RemountSession`], *is* `mount`; CowFs
//! and FlashFs return a [`ViewSession`](crate::treefs::ViewSession), the
//! tree-backed core's view without its write-back. Debug builds of
//! CrashMonkey assert every recovered view equal to a from-scratch mount.

use b3_block::{BlockDevice, DiskImage, StateDelta};

use crate::error::FsResult;
use crate::fs::{FileSystem, FsSpec};

/// A recovery session: recovers a mounted view from each crash state of one
/// recorded run.
pub trait RecoverDelta {
    /// No session reads this. It survives because the `b3-bench` layer
    /// probe still calls it once per workload before its first `recover`.
    fn prime(&mut self, spec: &dyn FsSpec, base: &DiskImage) {
        let _ = (spec, base);
    }

    /// Recovers the file system from `device` (a crash state, i.e. an
    /// uncleanly unmounted image). No session reads `delta`: it survives
    /// because the `b3-bench` layer probe still passes the stream's block
    /// delta here.
    ///
    /// The result must be observationally identical to `spec.mount(device)`:
    /// the same logical view on success, an equal error on failure. Unlike
    /// a mount it need not write anything back to `device`.
    fn recover(
        &mut self,
        spec: &dyn FsSpec,
        device: Box<dyn BlockDevice>,
        delta: Option<&StateDelta>,
    ) -> FsResult<Box<dyn FileSystem>>;
}

/// The default session: recovers by mounting via [`FsSpec::mount`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RemountSession;

impl RecoverDelta for RemountSession {
    fn recover(
        &mut self,
        spec: &dyn FsSpec,
        device: Box<dyn BlockDevice>,
        _delta: Option<&StateDelta>,
    ) -> FsResult<Box<dyn FileSystem>> {
        spec.mount(device)
    }
}
