//! Crash-state recovery: the one call every crash state is recovered by.
//!
//! [`recover`] hands a crash state to the file system's recovery session:
//! the view `mount` would give, without the write-back a mount may end
//! with. In debug builds every recovered view is cross-checked against a
//! from-scratch [`FsSpec::mount`] of the same crash state: on success the
//! logical snapshots must be identical, on failure the error strings must
//! match. The test suite therefore doubles as an equivalence proof for each
//! file system's recover.

use b3_block::CowSnapshotDevice;
use b3_vfs::error::FsResult;
use b3_vfs::fs::{FileSystem, FsSpec};
use b3_vfs::snapshot::LogicalSnapshot;

/// Recovers the crash state `state` (of checkpoint `checkpoint`, for the
/// debug message).
pub(crate) fn recover(
    spec: &dyn FsSpec,
    state: &CowSnapshotDevice,
    checkpoint: u32,
) -> FsResult<Box<dyn FileSystem>> {
    let recovered = spec
        .recovery_session()
        .recover(spec, Box::new(state.clone()), None);
    if cfg!(debug_assertions) {
        let view = |result: &FsResult<Box<dyn FileSystem>>| {
            result
                .as_ref()
                .map(|fs| LogicalSnapshot::capture(fs.as_ref()))
                .map_err(ToString::to_string)
        };
        let mounted = spec.mount(Box::new(state.clone()));
        assert!(
            view(&recovered) == view(&mounted),
            "recovery diverged from remount at checkpoint {checkpoint} on {}",
            spec.name()
        );
    }
    recovered
}
