//! The IO-recording wrapper device and its shared IO log.
//!
//! This is the userspace analogue of CrashMonkey's first kernel module
//! (§5.1 "Profiling workloads"): a wrapper block device that records every
//! write the target file system issues — sector, payload, and flags — and
//! into whose request stream CrashMonkey inserts *checkpoint* markers, one
//! per completed persistence operation, so that the low-level IO stream can
//! later be cut at exactly the persistence points.
//!
//! In the paper the wrapper and the copy-on-write snapshot device are two
//! kernel objects, and a crash state is rebuilt by replaying the recorded
//! IO onto a fresh snapshot. Here the wrapper sits *on* a
//! [`CowSnapshotDevice`], so what a replay up to a checkpoint would rebuild
//! is, byte for byte, what the recorder holds when the marker is inserted:
//! [`LogHandle::checkpoint`] commits the overlay into a [`DiskImage`] layer
//! (O(1)) and the log keeps that image per checkpoint
//! ([`IoLog::image_at`]). The record stream stays the single source of
//! *order* — what any reordering of the IO would be replayed from — and
//! [`replay_until_checkpoint`](crate::replay_until_checkpoint) stays the
//! reference every frozen image is asserted against in debug builds.
//!
//! A recorded write is padded once into one buffer: the overlay holds the
//! block and the log record holds a view of its payload bytes
//! ([`Bytes::slice`]). The wrapper keeps both — the snapshot and the log —
//! behind the state it shares with its [`LogHandle`], so the holder of the
//! handle can *fork* the recording ([`LogHandle::fork_device`]): an
//! independent device with the same contents, the same log and the same
//! images so far, all reference-counted and shared with the original, never
//! copied.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::cow::{CowSnapshotDevice, DiskImage};
use crate::device::{BlockDevice, BlockIndex};
use crate::error::BlockResult;
use crate::flags::IoFlags;
use crate::stats::DeviceStats;

/// Identifier of a checkpoint (persistence point) within a recorded run.
/// Checkpoints are numbered from 1 in the order they are inserted.
pub type CheckpointId = u32;

/// One entry in the recorded IO stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoRecord {
    /// A block write with its payload and flags.
    Write {
        /// Monotonic sequence number within the log.
        seq: u64,
        /// Destination block.
        index: BlockIndex,
        /// Payload (at most one block).
        data: Bytes,
        /// Request flags.
        flags: IoFlags,
    },
    /// An explicit cache flush.
    Flush {
        /// Monotonic sequence number within the log.
        seq: u64,
    },
    /// A CrashMonkey checkpoint marker: "an empty block IO request with a
    /// special flag, to correlate the completion of a persistence operation
    /// with the low-level block IO stream".
    Checkpoint {
        /// Monotonic sequence number within the log.
        seq: u64,
        /// Checkpoint number (1-based).
        id: CheckpointId,
    },
}

impl IoRecord {
    /// The record's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            IoRecord::Write { seq, .. }
            | IoRecord::Flush { seq }
            | IoRecord::Checkpoint { seq, .. } => *seq,
        }
    }
}

/// What the log keeps per checkpoint marker, besides the marker record.
#[derive(Debug, Clone)]
struct Marker {
    /// Index of the marker in [`IoLog::records`].
    position: usize,
    /// Number of write records before the marker — kept on append so
    /// [`IoLog::writes_until_checkpoint`] is a lookup instead of a rescan.
    writes: usize,
    /// The recorder's contents when the marker was inserted.
    image: DiskImage,
}

/// The complete recorded IO stream of one workload execution, with the
/// device image the recorder held at each checkpoint.
///
/// Equality is equality of the record stream: every other field, the images
/// included, is a function of the records (and of the image the recording
/// started on), so two logs with the same records hold the same states.
#[derive(Debug, Default, Clone)]
pub struct IoLog {
    records: Vec<IoRecord>,
    /// Running total of write payload bytes appended so far.
    recorded_bytes: u64,
    /// Running number of write records appended so far.
    writes: usize,
    /// `markers[id - 1]` belongs to checkpoint `id`.
    markers: Vec<Marker>,
}

impl PartialEq for IoLog {
    fn eq(&self, other: &IoLog) -> bool {
        self.records == other.records
    }
}

impl Eq for IoLog {}

impl IoLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        IoLog::default()
    }

    /// All records in arrival order.
    pub fn records(&self) -> &[IoRecord] {
        &self.records
    }

    /// Number of records of any kind.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of checkpoint markers recorded so far.
    pub fn num_checkpoints(&self) -> u32 {
        self.markers.len() as u32
    }

    fn marker(&self, checkpoint: CheckpointId) -> Option<&Marker> {
        self.markers.get(checkpoint.checked_sub(1)? as usize)
    }

    /// The device contents when checkpoint `checkpoint` was inserted: the
    /// image the recording started on plus every write recorded before the
    /// marker — the crash state of that persistence point, frozen by the
    /// recorder instead of replayed. `None` for an id the log does not hold.
    /// Consecutive images share their common blocks, and each block with
    /// the record that wrote it.
    pub fn image_at(&self, checkpoint: CheckpointId) -> Option<&DiskImage> {
        self.marker(checkpoint).map(|marker| &marker.image)
    }

    /// Index in [`IoLog::records`] of the marker of `checkpoint`.
    pub(crate) fn marker_position(&self, checkpoint: CheckpointId) -> Option<usize> {
        self.marker(checkpoint).map(|marker| marker.position)
    }

    /// Total bytes of write payload recorded. The paper reports ~480 KB of
    /// persistent storage per workload (§6.5); this figure feeds that
    /// comparison.
    pub fn recorded_bytes(&self) -> u64 {
        self.recorded_bytes
    }

    /// Number of write records between the start of the log and the given
    /// checkpoint (exclusive of later records). Unknown checkpoint ids count
    /// every write in the log.
    ///
    /// Checkpoint ids are assigned densely from 1 on append, so this is an
    /// O(1) index lookup; [`IoLog::writes_until_checkpoint_scanning`] is the
    /// reference implementation it must agree with.
    pub fn writes_until_checkpoint(&self, checkpoint: CheckpointId) -> usize {
        self.marker(checkpoint)
            .map_or(self.writes, |marker| marker.writes)
    }

    /// The pre-index implementation of [`IoLog::writes_until_checkpoint`]:
    /// a linear rescan of the record stream. Kept as the behavioural
    /// reference the O(1) index is tested against.
    pub fn writes_until_checkpoint_scanning(&self, checkpoint: CheckpointId) -> usize {
        let mut count = 0;
        for record in &self.records {
            match record {
                IoRecord::Checkpoint { id, .. } if *id == checkpoint => return count,
                IoRecord::Write { .. } => count += 1,
                _ => {}
            }
        }
        count
    }

    /// Sequence numbers are dense: a record's is its index.
    fn next_seq(&self) -> u64 {
        self.records.len() as u64
    }

    fn push_write(&mut self, index: BlockIndex, data: Bytes, flags: IoFlags) {
        self.writes += 1;
        self.recorded_bytes += data.len() as u64;
        self.records.push(IoRecord::Write {
            seq: self.next_seq(),
            index,
            data,
            flags,
        });
    }

    fn push_flush(&mut self) {
        self.records.push(IoRecord::Flush {
            seq: self.next_seq(),
        });
    }

    fn push_checkpoint(&mut self, image: DiskImage) -> CheckpointId {
        self.markers.push(Marker {
            position: self.records.len(),
            writes: self.writes,
            image,
        });
        let id = self.num_checkpoints();
        self.records.push(IoRecord::Checkpoint {
            seq: self.next_seq(),
            id,
        });
        id
    }
}

/// What a [`RecordingDevice`] and its [`LogHandle`]s share: the snapshot the
/// file system writes to and the log of what it wrote.
#[derive(Clone)]
struct Recording {
    inner: CowSnapshotDevice,
    log: IoLog,
}

/// A cloneable handle onto the shared state of a [`RecordingDevice`].
///
/// CrashMonkey keeps one of these while the file system under test owns the
/// device itself; the handle is how CrashMonkey inserts checkpoint markers,
/// forks the recording, and later retrieves the recorded stream.
#[derive(Clone)]
pub struct LogHandle {
    shared: Arc<Mutex<Recording>>,
}

impl LogHandle {
    /// Inserts a checkpoint marker into the IO stream and returns its id.
    /// The device's contents at this instant are frozen into the log
    /// ([`IoLog::image_at`]): the overlay becomes an image layer, no block
    /// is copied.
    pub fn checkpoint(&self) -> CheckpointId {
        let mut shared = self.shared.lock();
        let image = shared.inner.commit();
        shared.log.push_checkpoint(image)
    }

    /// Returns a snapshot (clone) of the log at this instant.
    pub fn snapshot(&self) -> IoLog {
        self.shared.lock().log.clone()
    }

    /// Moves the log out, leaving an empty one behind — for when recording
    /// is over and the stream is wanted without a copy. (The device keeps
    /// its contents: a log recorded from here on starts from them, not from
    /// the image this recording started on.)
    pub fn take_log(&self) -> IoLog {
        std::mem::take(&mut self.shared.lock().log)
    }

    /// Forks the recording: a new device holding the blocks and the log this
    /// one holds now, sharing nothing mutable with it. Later IO on either
    /// side is invisible to the other; sequence numbers and checkpoint ids
    /// continue from the fork point on both. O(overlay + log) reference
    /// count bumps — no block, payload or checkpoint image is copied.
    pub fn fork_device(&self) -> RecordingDevice {
        RecordingDevice {
            shared: Arc::new(Mutex::new(self.shared.lock().clone())),
        }
    }

    /// Number of checkpoints inserted so far.
    pub fn num_checkpoints(&self) -> u32 {
        self.shared.lock().log.num_checkpoints()
    }

    /// Number of records of any kind.
    pub fn len(&self) -> usize {
        self.shared.lock().log.len()
    }

    /// True if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.shared.lock().log.is_empty()
    }
}

impl std::fmt::Debug for LogHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shared = self.shared.lock();
        f.debug_struct("LogHandle")
            .field("records", &shared.log.len())
            .field("checkpoints", &shared.log.num_checkpoints())
            .finish()
    }
}

/// The wrapper block device that records all IO passing through it.
pub struct RecordingDevice {
    shared: Arc<Mutex<Recording>>,
}

impl RecordingDevice {
    /// Wraps `inner`, recording every write and flush into a fresh log.
    /// What `inner` holds now is the image the recording starts on: the
    /// base the log's records replay onto.
    pub fn new(inner: CowSnapshotDevice) -> Self {
        RecordingDevice {
            shared: Arc::new(Mutex::new(Recording {
                inner,
                log: IoLog::new(),
            })),
        }
    }

    /// Returns a handle to the shared state. Call this before handing the
    /// device to the file system under test.
    pub fn log_handle(&self) -> LogHandle {
        LogHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl std::fmt::Debug for RecordingDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordingDevice")
            .field("num_blocks", &self.num_blocks())
            .field("log", &self.log_handle())
            .finish()
    }
}

impl BlockDevice for RecordingDevice {
    fn num_blocks(&self) -> u64 {
        self.shared.lock().inner.num_blocks()
    }

    fn read_block(&self, index: BlockIndex) -> BlockResult<Vec<u8>> {
        self.shared.lock().inner.read_block(index)
    }

    fn read_blocks(&self, index: BlockIndex, count: u64) -> BlockResult<Vec<u8>> {
        self.shared.lock().inner.read_blocks(index, count)
    }

    fn write_block(&mut self, index: BlockIndex, data: &[u8], flags: IoFlags) -> BlockResult<()> {
        let mut shared = self.shared.lock();
        let block = shared.inner.store_block(index, data, flags)?;
        shared
            .log
            .push_write(index, block.slice(..data.len()), flags);
        Ok(())
    }

    fn flush(&mut self) -> BlockResult<()> {
        let mut shared = self.shared.lock();
        shared.inner.flush()?;
        shared.log.push_flush();
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        self.shared.lock().inner.stats()
    }

    fn freeze_image(&self) -> Option<crate::DiskImage> {
        self.shared.lock().inner.freeze_image()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cow::DiskImage;
    use crate::device::BLOCK_SIZE;

    fn recording(blocks: u64) -> (RecordingDevice, LogHandle) {
        let device = RecordingDevice::new(CowSnapshotDevice::new(DiskImage::empty(blocks)));
        let handle = device.log_handle();
        (device, handle)
    }

    #[test]
    fn writes_are_forwarded_and_recorded() {
        let (mut dev, log) = recording(16);
        dev.write_block(3, b"recorded", IoFlags::DATA).unwrap();
        assert_eq!(&dev.read_block(3).unwrap()[..8], b"recorded");
        let snapshot = log.snapshot();
        assert_eq!(snapshot.len(), 1);
        match &snapshot.records()[0] {
            IoRecord::Write {
                index, data, flags, ..
            } => {
                assert_eq!(*index, 3);
                assert_eq!(&data[..], b"recorded");
                assert!(flags.contains(IoFlags::DATA));
            }
            other => panic!("unexpected record {other:?}"),
        }
    }

    #[test]
    fn flushes_and_checkpoints_are_recorded_in_order() {
        let (mut dev, log) = recording(16);
        dev.write_block(0, b"a", IoFlags::META).unwrap();
        dev.flush().unwrap();
        let cp1 = log.checkpoint();
        dev.write_block(1, b"b", IoFlags::META).unwrap();
        let cp2 = log.checkpoint();
        assert_eq!(cp1, 1);
        assert_eq!(cp2, 2);

        let snapshot = log.snapshot();
        assert_eq!(snapshot.num_checkpoints(), 2);
        let seqs: Vec<u64> = snapshot
            .records()
            .iter()
            .map(super::IoRecord::seq)
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "records must be in arrival order");
    }

    #[test]
    fn writes_until_checkpoint_counts_prefix_writes() {
        let (mut dev, log) = recording(16);
        dev.write_block(0, b"a", IoFlags::META).unwrap();
        dev.write_block(1, b"b", IoFlags::META).unwrap();
        log.checkpoint();
        dev.write_block(2, b"c", IoFlags::META).unwrap();
        log.checkpoint();
        let snapshot = log.snapshot();
        assert_eq!(snapshot.writes_until_checkpoint(1), 2);
        assert_eq!(snapshot.writes_until_checkpoint(2), 3);
        // Unknown checkpoint: counts all writes.
        assert_eq!(snapshot.writes_until_checkpoint(9), 3);
    }

    #[test]
    fn writes_until_checkpoint_index_matches_scanning_reference() {
        let (mut dev, log) = recording(64);
        // An irregular interleaving: bare checkpoints, runs of writes,
        // flushes between markers, writes after the last marker.
        log.checkpoint();
        for i in 0..5u64 {
            dev.write_block(i, b"w", IoFlags::DATA).unwrap();
        }
        dev.flush().unwrap();
        log.checkpoint();
        log.checkpoint();
        dev.write_block(9, b"tail", IoFlags::META).unwrap();
        log.checkpoint();
        dev.write_block(10, b"post", IoFlags::META).unwrap();

        let snapshot = log.snapshot();
        // Checkpoint 0 is never assigned; 9 is unknown; both must agree
        // with the scan (which counts all writes for ids it never finds).
        for id in 0..=9 {
            assert_eq!(
                snapshot.writes_until_checkpoint(id),
                snapshot.writes_until_checkpoint_scanning(id),
                "checkpoint {id}"
            );
        }
        assert_eq!(snapshot.writes_until_checkpoint(1), 0);
        assert_eq!(snapshot.writes_until_checkpoint(4), 6);
        assert_eq!(snapshot.writes_until_checkpoint(9), 7);
    }

    #[test]
    fn recorded_bytes_sums_payloads() {
        let (mut dev, log) = recording(16);
        dev.write_block(0, &[1u8; 100], IoFlags::DATA).unwrap();
        dev.write_block(1, &[2u8; 200], IoFlags::DATA).unwrap();
        assert_eq!(log.snapshot().recorded_bytes(), 300);
    }

    #[test]
    fn recorded_bytes_counter_matches_a_rescan() {
        let (mut dev, log) = recording(16);
        dev.write_block(0, &[1u8; 100], IoFlags::DATA).unwrap();
        dev.flush().unwrap();
        log.checkpoint();
        dev.write_block(1, &[2u8; BLOCK_SIZE], IoFlags::DATA)
            .unwrap();
        let snapshot = log.snapshot();
        let rescanned: u64 = snapshot
            .records()
            .iter()
            .map(|r| match r {
                IoRecord::Write { data, .. } => data.len() as u64,
                _ => 0,
            })
            .sum();
        assert_eq!(snapshot.recorded_bytes(), rescanned);
        let fork = log.fork_device().log_handle().snapshot();
        assert_eq!(fork.recorded_bytes(), rescanned);
    }

    #[test]
    fn log_handle_survives_device_consumption() {
        let (mut dev, log) = recording(16);
        dev.write_block(0, b"kept", IoFlags::DATA).unwrap();
        drop(dev);
        assert_eq!(log.len(), 1);
        let taken = log.take_log();
        assert_eq!(taken.len(), 1);
        assert!(log.is_empty());
    }

    #[test]
    fn a_fork_carries_blocks_and_log_and_then_diverges() {
        let (mut dev, log) = recording(16);
        dev.write_block(0, b"shared", IoFlags::META).unwrap();
        log.checkpoint();

        let mut fork = log.fork_device();
        let fork_log = fork.log_handle();
        assert_eq!(&fork.read_block(0).unwrap()[..6], b"shared");
        assert_eq!(fork_log.snapshot(), log.snapshot());

        // Each side's later IO is invisible to the other, in both directions.
        fork.write_block(1, b"fork-only", IoFlags::DATA).unwrap();
        dev.write_block(2, b"parent-only", IoFlags::DATA).unwrap();
        dev.write_block(0, b"parent", IoFlags::META).unwrap();
        assert!(dev.read_block(1).unwrap().iter().all(|&b| b == 0));
        assert!(fork.read_block(2).unwrap().iter().all(|&b| b == 0));
        assert_eq!(&fork.read_block(0).unwrap()[..6], b"shared");
        assert_eq!(fork_log.len(), 3);
        assert_eq!(log.len(), 4);

        // Sequence numbers and checkpoint ids continue from the fork point
        // on both sides, as if each had recorded the prefix itself.
        assert_eq!(fork_log.checkpoint(), 2);
        assert_eq!(log.checkpoint(), 2);
        assert_eq!(fork_log.snapshot().records()[2].seq(), 2);
        assert_eq!(log.snapshot().records()[2].seq(), 2);
    }
}
