//! Simulated block-device substrate for the B3 crash-testing framework.
//!
//! The original CrashMonkey implementation (OSDI '18) uses two Linux kernel
//! modules: a *wrapper block device* that records every block IO request a
//! workload generates (including persistence-point "checkpoint" markers), and
//! an in-memory *copy-on-write block device* that provides cheap writable
//! snapshots from which crash states are constructed by replaying recorded IO.
//!
//! This crate provides the userspace equivalents of both modules:
//!
//! * [`RecordingDevice`] — a wrapper device that forwards IO to a snapshot
//!   device while appending every write, flush, and checkpoint to an
//!   [`IoLog`] it shares with a [`LogHandle`], through which the recording
//!   can be forked. At every checkpoint it freezes the snapshot device's
//!   contents into the log ([`IoLog::image_at`]).
//! * [`CowSnapshotDevice`] — a copy-on-write overlay over an immutable
//!   [`DiskImage`]; resetting a snapshot simply drops the overlay. Over
//!   [`DiskImage::empty`] it is also the blank disk a file system is
//!   formatted on.
//! * [`replay`] — the *crash states* the paper describes: since the
//!   recorder is itself a snapshot device, [`crash_state`] and
//!   [`CrashStateStream`] hand out snapshots of the images it froze, and
//!   [`replay_until_checkpoint`] — the paper's construction, replaying a
//!   recorded [`IoLog`] up to a chosen checkpoint onto a fresh snapshot —
//!   is the reference they are asserted against.
//!
//! All file systems in this workspace speak to storage exclusively through
//! the object-safe [`BlockDevice`] trait, which keeps CrashMonkey strictly
//! black-box with respect to the file system under test.

pub mod cow;
pub mod device;
pub mod error;
pub mod flags;
pub mod record;
pub mod replay;

pub use cow::{CowSnapshotDevice, DiskImage, MAX_CHAIN_DEPTH};
pub use device::{BlockDevice, BlockIndex, BLOCK_SIZE};
pub use error::{BlockError, BlockResult};
pub use flags::IoFlags;
pub use record::{CheckpointId, IoLog, IoRecord, LogHandle, RecordingDevice};
pub use replay::{
    crash_state, replay_log, replay_until_checkpoint, CrashStateStep, CrashStateStream, StateDelta,
};
