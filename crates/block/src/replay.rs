//! Crash states of a recorded run, and the replay they are checked against.
//!
//! "To create a crash state, CrashMonkey starts from the initial state of the
//! file system (before the workload was run), and uses a utility similar to
//! dd to replay all recorded IO requests from the start of the workload until
//! the next checkpoint in the IO stream." (§5.1)
//!
//! The paper replays because its wrapper device and its snapshot device are
//! two kernel objects. Here the recorder *is* a snapshot device, so the
//! state a replay up to a checkpoint rebuilds is the one the recorder held
//! when the marker went in, and the log kept it ([`IoLog::image_at`]).
//! [`crash_state`] and [`CrashStateStream`] hand out snapshots of those
//! frozen images — "dropping the modified data blocks" (§5.1) is all a
//! crash state costs — and work out what changed between two of them from
//! the record stream's block indexes, never touching a payload.
//!
//! Replay itself stays: [`replay_until_checkpoint`] and [`replay_log`] are
//! the reference every frozen image must equal (asserted on every crash
//! state in debug builds), and the tool any *reordering* of the recorded
//! IO — a crash state no recorder ever held — would be built with.

use crate::cow::{CowSnapshotDevice, DiskImage};
use crate::device::{BlockDevice, BlockIndex, BLOCK_SIZE};
use crate::error::{BlockError, BlockResult};
use crate::record::{CheckpointId, IoLog, IoRecord};

/// The set of distinct blocks written between two adjacent crash states of
/// one recorded run — the structural difference [`CrashStateStream`] applies
/// when stepping from one checkpoint to the next. Blocks are sorted and
/// deduplicated.
///
/// No recovery session reads it: every crash state is recovered on its
/// own. It survives because the `b3-bench` layer probe still hands each
/// step's delta to `RecoverDelta::recover`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StateDelta {
    blocks: Vec<BlockIndex>,
}

impl StateDelta {
    /// Builds a delta from an arbitrary collection of touched blocks.
    pub fn from_blocks(mut blocks: Vec<BlockIndex>) -> Self {
        blocks.sort_unstable();
        blocks.dedup();
        StateDelta { blocks }
    }

    /// The touched blocks, sorted ascending and deduplicated.
    pub fn blocks(&self) -> &[BlockIndex] {
        &self.blocks
    }

    /// Number of distinct blocks that changed between the two states.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Bytes of device state the delta covers (distinct blocks × block size).
    pub fn bytes(&self) -> u64 {
        self.blocks.len() as u64 * BLOCK_SIZE as u64
    }

    /// True when no block differs between the two states.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// True when the delta touches `block`.
    pub fn contains(&self, block: BlockIndex) -> bool {
        self.blocks.binary_search(&block).is_ok()
    }
}

impl<'a> IntoIterator for &'a StateDelta {
    type Item = BlockIndex;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, BlockIndex>>;

    fn into_iter(self) -> Self::IntoIter {
        self.blocks.iter().copied()
    }
}

/// One step of a [`CrashStateStream`]: the crash state at the requested
/// checkpoint plus, when the stream advanced in order, the [`StateDelta`]
/// between the previously returned state and this one.
///
/// On the first step of a stream `delta` is relative to the *base image*
/// the run was recorded on (the base acts as crash state zero). `delta` is
/// `None` for out-of-order requests, and for every step after one (the step
/// cursor no longer corresponds to the returned states).
#[derive(Debug)]
pub struct CrashStateStep {
    /// The crash state at the requested checkpoint.
    pub state: CowSnapshotDevice,
    /// Distinct blocks written since the previous in-order step (or since
    /// the base image on the first step), if known.
    pub delta: Option<StateDelta>,
}

/// Replays every record of `log` onto `target`.
pub fn replay_log(log: &IoLog, target: &mut dyn BlockDevice) -> BlockResult<usize> {
    replay_records(log.records(), target)
}

/// Replays `log` onto `target`, stopping immediately after the checkpoint
/// marker with id `checkpoint` (i.e. the resulting state contains exactly the
/// writes that had reached the device when that persistence operation
/// completed). Returns the number of write records applied. An id the log
/// does not hold replays everything.
///
/// This is the paper's construction and the reference for
/// [`IoLog::image_at`]: replayed onto a fresh snapshot of the image the run
/// was recorded on, it rebuilds the frozen image block for block.
pub fn replay_until_checkpoint(
    log: &IoLog,
    checkpoint: CheckpointId,
    target: &mut dyn BlockDevice,
) -> BlockResult<usize> {
    let end = log
        .marker_position(checkpoint)
        .unwrap_or(log.records().len());
    replay_records(&log.records()[..end], target)
}

/// The crash state for `checkpoint`: a fresh copy-on-write snapshot of the
/// image the recorder froze when that marker was inserted. O(1) — nothing
/// is replayed and no block is copied. `base` must be the image the run was
/// recorded on; debug builds replay the log onto it and assert the frozen
/// image equals the result.
///
/// The returned device "represents the state of the storage just after the
/// persistence-related call completed on the storage device" and is
/// considered uncleanly unmounted; mounting a file system on it will trigger
/// that file system's recovery code.
///
/// # Errors
///
/// [`BlockError::UnknownCheckpoint`] when the log holds no such marker.
pub fn crash_state(
    base: &DiskImage,
    log: &IoLog,
    checkpoint: CheckpointId,
) -> BlockResult<CowSnapshotDevice> {
    let image = log
        .image_at(checkpoint)
        .ok_or(BlockError::UnknownCheckpoint {
            checkpoint,
            recorded: log.num_checkpoints(),
        })?;
    debug_assert!(
        *image == replayed_image(base, log, checkpoint),
        "the image frozen at checkpoint {checkpoint} differs from a replay of the log \
         onto the base image"
    );
    Ok(CowSnapshotDevice::new(image.clone()))
}

/// The paper's crash state: the records before marker `checkpoint`
/// replayed onto a fresh snapshot of `base`.
fn replayed_image(base: &DiskImage, log: &IoLog, checkpoint: CheckpointId) -> DiskImage {
    let mut target = CowSnapshotDevice::new(base.clone());
    replay_until_checkpoint(log, checkpoint, &mut target)
        .expect("a recorded write fits the device it was recorded on");
    target.freeze()
}

/// The crash states of one recorded run, visited checkpoint by checkpoint.
///
/// Each state is [`crash_state`]'s — a snapshot of the image the log froze
/// at that checkpoint — so consecutive states share every block of their
/// common prefix. What the stream adds is the bookkeeping between them: the
/// [`StateDelta`] of each step and the running
/// [`replayed_bytes`](Self::replayed_bytes) footprint, both read off the
/// block indexes of the records between two markers.
///
/// Checkpoints may be requested in any order at the same cost, but only a
/// stream visited in increasing order (the order [`IoLog`] assigns them)
/// reports deltas.
pub struct CrashStateStream<'a> {
    base: &'a DiskImage,
    log: &'a IoLog,
    /// Index of the first record in `log` past the furthest marker reached.
    position: usize,
    /// Highest checkpoint id reached.
    reached: CheckpointId,
    /// Set by the first out-of-order request: the step cursor no longer
    /// corresponds to the states handed out, so no later step may claim a
    /// delta.
    diverged: bool,
}

impl<'a> CrashStateStream<'a> {
    /// Creates a stream positioned at the start of the log. `base` must be
    /// the image the run was recorded on (see [`crash_state`]).
    pub fn new(base: &'a DiskImage, log: &'a IoLog) -> Self {
        CrashStateStream {
            base,
            log,
            position: 0,
            reached: 0,
            diverged: false,
        }
    }

    /// Bytes of copy-on-write state the furthest crash state reached holds
    /// on top of the base image (distinct written blocks × block size) —
    /// §6.5's accounting, and what a replay up to that checkpoint would
    /// have copied.
    pub fn replayed_bytes(&self) -> u64 {
        StateDelta::from_blocks(written_blocks(&self.log.records()[..self.position])).bytes()
    }

    /// Returns the crash state at `checkpoint`.
    pub fn state_at(&mut self, checkpoint: CheckpointId) -> BlockResult<CowSnapshotDevice> {
        Ok(self.step_to(checkpoint)?.state)
    }

    /// Like [`state_at`](Self::state_at), but also reports the
    /// [`StateDelta`] — the distinct blocks written between the previously
    /// returned state and this one (the base image, on the first step). The
    /// delta is `None` on out-of-order requests and on every step after
    /// one.
    pub fn step_to(&mut self, checkpoint: CheckpointId) -> BlockResult<CrashStateStep> {
        let state = crash_state(self.base, self.log, checkpoint)?;
        if checkpoint <= self.reached {
            self.diverged = true;
            return Ok(CrashStateStep { state, delta: None });
        }
        let marker = self
            .log
            .marker_position(checkpoint)
            .expect("crash_state found the marker");
        let delta = (!self.diverged).then(|| {
            StateDelta::from_blocks(written_blocks(&self.log.records()[self.position..marker]))
        });
        self.position = marker + 1;
        self.reached = checkpoint;
        Ok(CrashStateStep { state, delta })
    }
}

/// The destination block of every write among `records`, in order.
fn written_blocks(records: &[IoRecord]) -> Vec<BlockIndex> {
    records
        .iter()
        .filter_map(|record| match record {
            IoRecord::Write { index, .. } => Some(*index),
            _ => None,
        })
        .collect()
}

fn replay_records(records: &[IoRecord], target: &mut dyn BlockDevice) -> BlockResult<usize> {
    let mut applied = 0;
    for record in records {
        match record {
            IoRecord::Write {
                index, data, flags, ..
            } => {
                target.write_block(*index, data, *flags)?;
                applied += 1;
            }
            IoRecord::Flush { .. } => target.flush()?,
            IoRecord::Checkpoint { .. } => {}
        }
    }
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::IoFlags;
    use crate::ramdisk::RamDisk;
    use crate::record::RecordingDevice;

    /// Builds a base image, then records a three-checkpoint run on top of it.
    fn recorded_run() -> (DiskImage, IoLog) {
        let mut base = RamDisk::new(32);
        base.write_block(0, b"superblock-v0", IoFlags::META)
            .unwrap();
        let image = base.snapshot();

        let mut dev = RecordingDevice::new(CowSnapshotDevice::new(image.clone()));
        let log = dev.log_handle();

        dev.write_block(1, b"first", IoFlags::DATA).unwrap();
        dev.flush().unwrap();
        log.checkpoint(); // cp 1

        dev.write_block(2, b"second", IoFlags::DATA).unwrap();
        dev.write_block(0, b"superblock-v1", IoFlags::META | IoFlags::FUA)
            .unwrap();
        log.checkpoint(); // cp 2

        dev.write_block(3, b"third", IoFlags::DATA).unwrap();
        log.checkpoint(); // cp 3

        (image, log.snapshot())
    }

    #[test]
    fn crash_state_at_first_checkpoint_excludes_later_writes() {
        let (image, log) = recorded_run();
        let state = crash_state(&image, &log, 1).unwrap();
        assert_eq!(&state.read_block(1).unwrap()[..5], b"first");
        assert!(state.read_block(2).unwrap().iter().all(|&b| b == 0));
        assert_eq!(&state.read_block(0).unwrap()[..13], b"superblock-v0");
    }

    #[test]
    fn crash_state_at_second_checkpoint_includes_prefix() {
        let (image, log) = recorded_run();
        let state = crash_state(&image, &log, 2).unwrap();
        assert_eq!(&state.read_block(1).unwrap()[..5], b"first");
        assert_eq!(&state.read_block(2).unwrap()[..6], b"second");
        assert_eq!(&state.read_block(0).unwrap()[..13], b"superblock-v1");
        assert!(state.read_block(3).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn replay_full_log_equals_final_state() {
        let (image, log) = recorded_run();
        let mut full = CowSnapshotDevice::new(image);
        let applied = replay_log(&log, &mut full).unwrap();
        assert_eq!(applied, 4);
        assert_eq!(&full.read_block(3).unwrap()[..5], b"third");
    }

    /// A replay up to a checkpoint copies each block written before its
    /// marker once, however often it was written: the overlay holds the
    /// distinct written blocks, which is how a crash state's copy-on-write
    /// memory is counted from the log alone.
    #[test]
    fn replay_overlays_each_block_written_before_the_marker_once() {
        let image = DiskImage::empty(32);
        let mut dev = RecordingDevice::new(CowSnapshotDevice::new(image.clone()));
        let log = dev.log_handle();
        dev.write_block(1, b"one", IoFlags::DATA).unwrap();
        dev.write_block(1, b"two", IoFlags::DATA).unwrap();
        dev.write_block(2, b"three", IoFlags::DATA).unwrap();
        log.checkpoint(); // cp 1
        dev.write_block(1, b"four", IoFlags::DATA).unwrap();
        dev.write_block(3, b"five", IoFlags::DATA).unwrap();
        log.checkpoint(); // cp 2
        let log = log.snapshot();
        for (checkpoint, writes, distinct) in [(1, 3, 2), (2, 5, 3)] {
            let mut replayed = CowSnapshotDevice::new(image.clone());
            let applied = replay_until_checkpoint(&log, checkpoint, &mut replayed).unwrap();
            assert_eq!(applied, writes, "checkpoint {checkpoint}");
            assert_eq!(
                replayed.overlay_blocks(),
                distinct,
                "checkpoint {checkpoint}"
            );
        }
        let state = crash_state(&image, &log, 1).unwrap();
        assert_eq!(&state.read_block(1).unwrap()[..3], b"two");
    }

    #[test]
    fn replay_until_unknown_checkpoint_applies_everything() {
        let (image, log) = recorded_run();
        let mut dev = CowSnapshotDevice::new(image);
        let applied = replay_until_checkpoint(&log, 99, &mut dev).unwrap();
        assert_eq!(applied, 4);
    }

    #[test]
    fn crash_states_are_independent() {
        let (image, log) = recorded_run();
        let mut s1 = crash_state(&image, &log, 1).unwrap();
        let s2 = crash_state(&image, &log, 2).unwrap();
        s1.write_block(9, b"mutate", IoFlags::DATA).unwrap();
        assert!(s2.read_block(9).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn frozen_states_match_from_scratch_replay_at_every_checkpoint() {
        let (image, log) = recorded_run();
        let mut stream = CrashStateStream::new(&image, &log);
        for checkpoint in 1..=log.num_checkpoints() {
            let frozen = stream.state_at(checkpoint).unwrap();
            let mut replayed = CowSnapshotDevice::new(image.clone());
            replay_until_checkpoint(&log, checkpoint, &mut replayed).unwrap();
            for block in 0..image.num_blocks() {
                assert_eq!(
                    frozen.read_block(block).unwrap(),
                    replayed.read_block(block).unwrap(),
                    "checkpoint {checkpoint}, block {block}"
                );
            }
            assert!(*frozen.base() == replayed.freeze());
            // A crash state is a snapshot of the log's image, nothing more.
            assert_eq!(frozen.overlay_blocks(), 0);
            assert!(frozen.base().ptr_eq(log.image_at(checkpoint).unwrap()));
        }
    }

    #[test]
    fn a_checkpoint_the_log_does_not_hold_has_no_crash_state() {
        let (image, log) = recorded_run();
        for unknown in [0, 4, 99] {
            let expected = BlockError::UnknownCheckpoint {
                checkpoint: unknown,
                recorded: 3,
            };
            assert_eq!(crash_state(&image, &log, unknown).unwrap_err(), expected);
            let mut stream = CrashStateStream::new(&image, &log);
            assert_eq!(stream.step_to(unknown).unwrap_err(), expected);
            // The failed request left the stream where it was.
            assert!(stream.step_to(1).unwrap().delta.is_some());
        }
        assert!(log.image_at(0).is_none() && log.image_at(4).is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "differs from a replay of the log")]
    fn debug_builds_catch_a_base_the_run_was_not_recorded_on() {
        let (_, log) = recorded_run();
        let _ = crash_state(&DiskImage::empty(32), &log, 1);
    }

    #[test]
    fn stream_states_are_independent_and_share_the_prefix() {
        let (image, log) = recorded_run();
        let mut stream = CrashStateStream::new(&image, &log);
        let mut s1 = stream.state_at(1).unwrap();
        let s2 = stream.state_at(2).unwrap();
        // Layered images: the second state's chain extends the first's.
        assert!(s2.base().chain_depth() > s1.base().chain_depth());
        s1.write_block(9, b"mutate", IoFlags::DATA).unwrap();
        assert!(s2.read_block(9).unwrap().iter().all(|&b| b == 0));
        assert_eq!(&s2.read_block(1).unwrap()[..5], b"first");
    }

    /// Brute-force diff of two crash states: every block whose contents
    /// differ between them.
    fn brute_force_delta(a: &CowSnapshotDevice, b: &CowSnapshotDevice) -> Vec<BlockIndex> {
        (0..a.num_blocks())
            .filter(|&i| a.read_block(i).unwrap() != b.read_block(i).unwrap())
            .collect()
    }

    #[test]
    fn step_delta_covers_every_block_that_differs_between_adjacent_states() {
        let (image, log) = recorded_run();
        let mut stream = CrashStateStream::new(&image, &log);
        // The first step diffs against the base image itself: the base acts
        // as crash state zero.
        let mut previous = CowSnapshotDevice::new(image.clone());
        for checkpoint in 1..=log.num_checkpoints() {
            let step = stream.step_to(checkpoint).unwrap();
            let delta = step
                .delta
                .as_ref()
                .unwrap_or_else(|| panic!("in-order step {checkpoint} must report a delta"));
            // The delta may over-approximate (a block rewritten with
            // identical contents still counts) but must never miss a
            // block that actually differs.
            for block in brute_force_delta(&previous, &step.state) {
                assert!(
                    delta.contains(block),
                    "checkpoint {checkpoint}: block {block} differs but is \
                     missing from the delta {:?}",
                    delta.blocks()
                );
            }
            // Sorted + deduplicated.
            assert!(delta.blocks().windows(2).all(|w| w[0] < w[1]));
            previous = step.state;
        }
    }

    #[test]
    fn step_delta_matches_recorded_writes_between_checkpoints() {
        let (image, log) = recorded_run();
        let mut stream = CrashStateStream::new(&image, &log);
        let first = stream.step_to(1).unwrap();
        // The first step's delta is relative to the base image.
        let base_delta = first
            .delta
            .expect("first step reports a base-relative delta");
        assert!(!base_delta.is_empty());
        let second = stream.step_to(2).unwrap();
        // Between cp 1 and cp 2 the run wrote blocks 2 and 0.
        let delta = second.delta.expect("in-order step reports a delta");
        assert_eq!(delta.blocks(), &[0, 2]);
        assert_eq!(delta.num_blocks(), 2);
        assert_eq!(delta.bytes(), 2 * crate::device::BLOCK_SIZE as u64);
        assert!(delta.contains(0) && delta.contains(2) && !delta.contains(1));
        assert_eq!((&delta).into_iter().collect::<Vec<_>>(), vec![0, 2]);
        let third = stream.step_to(3).unwrap();
        assert_eq!(third.delta.unwrap().blocks(), &[3]);
    }

    #[test]
    fn step_after_out_of_order_request_reports_no_delta() {
        let (image, log) = recorded_run();
        let mut stream = CrashStateStream::new(&image, &log);
        let _ = stream.step_to(2).unwrap();
        let earlier = stream.step_to(1).unwrap();
        assert!(earlier.delta.is_none(), "out-of-order step has no delta");
        // The stream's cursor no longer matches the state the caller holds,
        // so the next in-order step must not claim one either.
        let next = stream.step_to(3).unwrap();
        assert!(next.delta.is_none());
        assert_eq!(&next.state.read_block(3).unwrap()[..5], b"third");
    }

    #[test]
    fn stream_out_of_order_request_returns_the_earlier_state() {
        let (image, log) = recorded_run();
        let mut stream = CrashStateStream::new(&image, &log);
        let _ = stream.state_at(3).unwrap();
        let footprint = stream.replayed_bytes();
        assert_eq!(footprint, 4 * BLOCK_SIZE as u64);
        let s1 = stream.state_at(1).unwrap();
        assert_eq!(&s1.read_block(1).unwrap()[..5], b"first");
        assert!(s1.read_block(2).unwrap().iter().all(|&b| b == 0));
        // The footprint stays that of the furthest state reached.
        assert_eq!(stream.replayed_bytes(), footprint);
    }
}
