//! Replaying recorded IO to construct crash states.
//!
//! "To create a crash state, CrashMonkey starts from the initial state of the
//! file system (before the workload was run), and uses a utility similar to
//! dd to replay all recorded IO requests from the start of the workload until
//! the next checkpoint in the IO stream." (§5.1)

use crate::cow::{CowSnapshotDevice, DiskImage};
use crate::device::{BlockDevice, BlockIndex, BLOCK_SIZE};
use crate::error::BlockResult;
use crate::record::{CheckpointId, IoLog, IoRecord};

/// The set of distinct blocks written between two adjacent crash states of
/// one recorded run — the structural difference [`CrashStateStream`] applies
/// when stepping from one checkpoint to the next.
///
/// A file system that knows which blocks changed can patch its recovered
/// view forward instead of remounting from scratch; this type makes that
/// delta a first-class value instead of an internal detail of the stream.
/// Blocks are sorted and deduplicated.
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

    /// True when the delta touches any block in `start..start + len`.
    pub fn overlaps_range(&self, start: BlockIndex, len: u64) -> bool {
        let from = self.blocks.partition_point(|&b| b < start);
        self.blocks
            .get(from)
            .is_some_and(|&b| b < start.saturating_add(len))
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
/// the stream replays onto — the base acts as crash state zero, which is
/// what lets a recovery session primed on the (shared) base treat even the
/// first crash state incrementally. `delta` is `None` for out-of-order
/// requests that fell back to a from-scratch replay, and for every step
/// after one (the step cursor no longer corresponds to the returned
/// states).
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
/// completed). Returns the number of write records applied.
pub fn replay_until_checkpoint(
    log: &IoLog,
    checkpoint: CheckpointId,
    target: &mut dyn BlockDevice,
) -> BlockResult<usize> {
    let mut applied = 0;
    for record in log.records() {
        match record {
            IoRecord::Write {
                index, data, flags, ..
            } => {
                target.write_block(*index, data, *flags)?;
                applied += 1;
            }
            IoRecord::Flush { .. } => target.flush()?,
            IoRecord::Checkpoint { id, .. } => {
                if *id == checkpoint {
                    return Ok(applied);
                }
            }
        }
    }
    Ok(applied)
}

/// Constructs the crash state for `checkpoint`: a fresh copy-on-write
/// snapshot of `base` with the recorded IO replayed up to that checkpoint.
///
/// The returned device "represents the state of the storage just after the
/// persistence-related call completed on the storage device" and is
/// considered uncleanly unmounted; mounting a file system on it will trigger
/// that file system's recovery code.
///
/// Each call replays the log from the start; when constructing crash states
/// for several checkpoints of one recorded run, prefer
/// [`CrashStateStream`], which replays every record exactly once.
pub fn crash_state(
    base: &DiskImage,
    log: &IoLog,
    checkpoint: CheckpointId,
) -> BlockResult<CowSnapshotDevice> {
    let mut snapshot = CowSnapshotDevice::new(base.clone());
    replay_until_checkpoint(log, checkpoint, &mut snapshot)?;
    Ok(snapshot)
}

/// Incremental crash-state construction over one recorded run.
///
/// [`crash_state`] replays the whole prefix of the log for every checkpoint,
/// so constructing the states of checkpoints 1..n replays O(n²) records and
/// each state carries its own copy of the replayed blocks. The stream
/// instead replays every record exactly once: after reaching a checkpoint it
/// freezes the accumulated writes into a new [`DiskImage`] layer
/// ([`CowSnapshotDevice::commit`]) and hands out a fresh snapshot of it, so
/// adjacent crash states *share* the replayed prefix structurally.
///
/// Checkpoints must be requested in increasing order (the order
/// [`IoLog`] assigns them); requesting an already-passed checkpoint falls
/// back to a from-scratch [`crash_state`] replay.
pub struct CrashStateStream<'a> {
    base: &'a DiskImage,
    log: &'a IoLog,
    device: CowSnapshotDevice,
    /// Index of the next unapplied record in `log`.
    position: usize,
    /// Highest checkpoint id already passed.
    reached: CheckpointId,
    /// Distinct blocks written since the start of the log (the copy-on-write
    /// memory the crash state occupies on top of the base image — §6.5's
    /// accounting, which used to be the snapshot device's own overlay before
    /// crash states became layered).
    written: std::collections::HashSet<BlockIndex>,
    /// Blocks written since the previous in-order [`CrashStateStream::step_to`]
    /// call — or since the base image, before the first one (not
    /// deduplicated; `StateDelta::from_blocks` dedups on handoff).
    step_blocks: Vec<BlockIndex>,
    /// Set once an out-of-order request falls back to a from-scratch
    /// replay: the step cursor no longer corresponds to the states handed
    /// out, so no later step may claim a delta.
    diverged: bool,
}

impl<'a> CrashStateStream<'a> {
    /// Creates a stream positioned at the start of the log.
    pub fn new(base: &'a DiskImage, log: &'a IoLog) -> Self {
        CrashStateStream {
            base,
            log,
            device: CowSnapshotDevice::new(base.clone()),
            position: 0,
            reached: 0,
            written: std::collections::HashSet::new(),
            step_blocks: Vec::new(),
            diverged: false,
        }
    }

    /// Bytes of copy-on-write state the current position's crash state holds
    /// on top of the base image (distinct replayed blocks × block size).
    pub fn replayed_bytes(&self) -> u64 {
        self.written.len() as u64 * crate::device::BLOCK_SIZE as u64
    }

    /// Returns the crash state at `checkpoint`, replaying only the records
    /// between the previously requested checkpoint and this one.
    pub fn state_at(&mut self, checkpoint: CheckpointId) -> BlockResult<CowSnapshotDevice> {
        Ok(self.step_to(checkpoint)?.state)
    }

    /// Like [`state_at`](Self::state_at), but also reports the
    /// [`StateDelta`] — the distinct blocks written between the previously
    /// returned state and this one (the base image, on the first step). The
    /// delta is `None` on out-of-order requests, which fall back to a
    /// from-scratch replay, and on every step after one.
    pub fn step_to(&mut self, checkpoint: CheckpointId) -> BlockResult<CrashStateStep> {
        if checkpoint <= self.reached && self.reached != 0 {
            // Out-of-order request: the incremental prefix is already past
            // this point, so construct the state the slow way. The stream's
            // step cursor no longer corresponds to the returned state, so
            // subsequent in-order steps must not claim a delta either.
            self.diverged = true;
            self.step_blocks.clear();
            return Ok(CrashStateStep {
                state: crash_state(self.base, self.log, checkpoint)?,
                delta: None,
            });
        }
        let records = self.log.records();
        while self.position < records.len() {
            let record = &records[self.position];
            self.position += 1;
            match record {
                IoRecord::Write {
                    index, data, flags, ..
                } => {
                    self.device.write_block(*index, data, *flags)?;
                    self.written.insert(*index);
                    self.step_blocks.push(*index);
                }
                IoRecord::Flush { .. } => self.device.flush()?,
                IoRecord::Checkpoint { id, .. } => {
                    self.reached = *id;
                    if *id == checkpoint {
                        break;
                    }
                }
            }
        }
        let delta = if self.diverged {
            self.step_blocks.clear();
            None
        } else {
            Some(StateDelta::from_blocks(std::mem::take(
                &mut self.step_blocks,
            )))
        };
        let image = self.device.commit();
        Ok(CrashStateStep {
            state: CowSnapshotDevice::new(image),
            delta,
        })
    }
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
    fn stream_matches_from_scratch_replay_at_every_checkpoint() {
        let (image, log) = recorded_run();
        let mut stream = CrashStateStream::new(&image, &log);
        for checkpoint in 1..=log.num_checkpoints() {
            let incremental = stream.state_at(checkpoint).unwrap();
            let scratch = crash_state(&image, &log, checkpoint).unwrap();
            for block in 0..image.num_blocks() {
                assert_eq!(
                    incremental.read_block(block).unwrap(),
                    scratch.read_block(block).unwrap(),
                    "checkpoint {checkpoint}, block {block}"
                );
            }
        }
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
        assert!(delta.overlaps_range(1, 2));
        assert!(!delta.overlaps_range(3, 4));
        assert!(!delta.overlaps_range(1, 0));
        assert_eq!((&delta).into_iter().collect::<Vec<_>>(), vec![0, 2]);
        let third = stream.step_to(3).unwrap();
        assert_eq!(third.delta.unwrap().blocks(), &[3]);
    }

    #[test]
    fn step_after_out_of_order_fallback_reports_no_delta() {
        let (image, log) = recorded_run();
        let mut stream = CrashStateStream::new(&image, &log);
        let _ = stream.step_to(2).unwrap();
        let fallback = stream.step_to(1).unwrap();
        assert!(fallback.delta.is_none(), "fallback step has no delta");
        // The stream's cursor no longer matches the state the caller holds,
        // so the next in-order step must not claim one either.
        let next = stream.step_to(3).unwrap();
        assert!(next.delta.is_none());
        assert_eq!(&next.state.read_block(3).unwrap()[..5], b"third");
    }

    #[test]
    fn stream_out_of_order_request_falls_back_to_full_replay() {
        let (image, log) = recorded_run();
        let mut stream = CrashStateStream::new(&image, &log);
        let _ = stream.state_at(3).unwrap();
        let s1 = stream.state_at(1).unwrap();
        assert_eq!(&s1.read_block(1).unwrap()[..5], b"first");
        assert!(s1.read_block(2).unwrap().iter().all(|&b| b == 0));
    }
}
