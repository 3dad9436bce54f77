//! Property-based tests for the block layer: recorded IO replays losslessly,
//! copy-on-write snapshots never leak writes into their base image, and the
//! crash states the recorder freezes at its checkpoints are the ones a
//! replay of the log rebuilds — on every side of every fork.

use proptest::prelude::*;

use b3_block::{
    crash_state, replay_log, replay_until_checkpoint, BlockDevice, BlockIndex, CheckpointId,
    CowSnapshotDevice, CrashStateStream, DiskImage, IoFlags, IoLog, IoRecord, LogHandle,
    RecordingDevice, StateDelta, BLOCK_SIZE, MAX_CHAIN_DEPTH,
};

#[derive(Debug, Clone)]
enum Action {
    Write { block: u64, byte: u8, len: usize },
    Flush,
    Checkpoint,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u64..64, any::<u8>(), 1usize..BLOCK_SIZE).prop_map(|(block, byte, len)| Action::Write {
            block,
            byte,
            len
        }),
        Just(Action::Flush),
        Just(Action::Checkpoint),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replaying the full recorded log onto a fresh snapshot reproduces the
    /// final device contents block for block.
    #[test]
    fn full_replay_reproduces_final_state(actions in prop::collection::vec(action_strategy(), 1..40)) {
        let base = DiskImage::empty(64);
        let mut device = RecordingDevice::new(CowSnapshotDevice::new(base.clone()));
        let log_handle = device.log_handle();

        for action in &actions {
            match action {
                Action::Write { block, byte, len } => {
                    device
                        .write_block(*block, &vec![*byte; *len], IoFlags::DATA)
                        .unwrap();
                }
                Action::Flush => device.flush().unwrap(),
                Action::Checkpoint => {
                    log_handle.checkpoint();
                }
            }
        }

        let mut replayed = CowSnapshotDevice::new(base.clone());
        replay_log(&log_handle.snapshot(), &mut replayed).unwrap();
        for block in 0..64 {
            prop_assert_eq!(
                device.read_block(block).unwrap(),
                replayed.read_block(block).unwrap(),
                "block {} differs after replay",
                block
            );
        }
    }

    /// A crash state constructed at checkpoint k contains exactly the writes
    /// issued before the k-th checkpoint and none issued after it.
    #[test]
    fn crash_states_respect_checkpoint_boundaries(
        before in prop::collection::vec((0u64..32, any::<u8>()), 1..10),
        after in prop::collection::vec((32u64..64, any::<u8>()), 1..10),
    ) {
        let base = DiskImage::empty(64);
        let mut device = RecordingDevice::new(CowSnapshotDevice::new(base.clone()));
        let log_handle = device.log_handle();
        for (block, byte) in &before {
            device.write_block(*block, &[*byte; 16], IoFlags::DATA).unwrap();
        }
        let checkpoint = log_handle.checkpoint();
        for (block, byte) in &after {
            device.write_block(*block, &[*byte; 16], IoFlags::DATA).unwrap();
        }
        log_handle.checkpoint();

        let state = crash_state(&base, &log_handle.snapshot(), checkpoint).unwrap();
        // Last write to each block before the checkpoint wins.
        let mut expected = std::collections::HashMap::new();
        for (block, byte) in &before {
            expected.insert(*block, *byte);
        }
        for (block, byte) in expected {
            prop_assert_eq!(state.read_block(block).unwrap()[0], byte);
        }
        for (block, _) in &after {
            prop_assert!(state.read_block(*block).unwrap().iter().all(|&b| b == 0));
        }
    }

    /// Copy-on-write snapshots never modify their base image, and a fresh
    /// snapshot of it reads the base contents exactly.
    #[test]
    fn cow_snapshots_isolate_their_base(writes in prop::collection::vec((0u64..32, any::<u8>()), 1..20)) {
        let mut disk = CowSnapshotDevice::new(DiskImage::empty(32));
        disk.write_block(0, b"base", IoFlags::META).unwrap();
        let image = disk.freeze().flatten();
        let mut snapshot = CowSnapshotDevice::new(image.clone());
        for (block, byte) in &writes {
            snapshot.write_block(*block, &[*byte; 8], IoFlags::DATA).unwrap();
        }
        for block in 0..32 {
            prop_assert_eq!(image.read_block(block).unwrap(), disk.read_block(block).unwrap());
        }
        let fresh = CowSnapshotDevice::new(image);
        for block in 0..32 {
            prop_assert_eq!(fresh.read_block(block).unwrap(), disk.read_block(block).unwrap());
        }
    }
}

// ---------------------------------------------------------------------------
// Frozen crash states against the replay they replaced.
// ---------------------------------------------------------------------------

/// Small enough that random writes overwrite each other all the time.
const FORK_DEVICE_BLOCKS: u64 = 8;

/// `CrashStateStream` as it was while crash states were replayed: it applied
/// every record to a device of its own, committed a layer per step, and fell
/// back to a from-scratch replay for a checkpoint it had already passed.
/// Kept here (an integration test cannot see a `#[cfg(test)]` item of the
/// library) as the reference for the deltas the frozen stream reads off
/// record indexes.
struct ReplayingStream<'a> {
    base: &'a DiskImage,
    log: &'a IoLog,
    device: CowSnapshotDevice,
    position: usize,
    reached: CheckpointId,
    step_blocks: Vec<BlockIndex>,
    diverged: bool,
}

impl<'a> ReplayingStream<'a> {
    fn new(base: &'a DiskImage, log: &'a IoLog) -> Self {
        ReplayingStream {
            base,
            log,
            device: CowSnapshotDevice::new(base.clone()),
            position: 0,
            reached: 0,
            step_blocks: Vec::new(),
            diverged: false,
        }
    }

    fn step_to(&mut self, checkpoint: CheckpointId) -> (CowSnapshotDevice, Option<StateDelta>) {
        if checkpoint <= self.reached && self.reached != 0 {
            self.diverged = true;
            self.step_blocks.clear();
            return (replayed_state(self.base, self.log, checkpoint), None);
        }
        let records = self.log.records();
        while self.position < records.len() {
            let record = &records[self.position];
            self.position += 1;
            match record {
                IoRecord::Write {
                    index, data, flags, ..
                } => {
                    self.device.write_block(*index, data, *flags).unwrap();
                    self.step_blocks.push(*index);
                }
                IoRecord::Flush { .. } => self.device.flush().unwrap(),
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
        (CowSnapshotDevice::new(self.device.commit()), delta)
    }
}

/// The paper's crash state: the log replayed up to `checkpoint` onto a
/// fresh snapshot of the base.
fn replayed_state(base: &DiskImage, log: &IoLog, checkpoint: CheckpointId) -> CowSnapshotDevice {
    let mut state = CowSnapshotDevice::new(base.clone());
    replay_until_checkpoint(log, checkpoint, &mut state).unwrap();
    state
}

fn blocks_of(device: &dyn BlockDevice) -> Vec<Vec<u8>> {
    (0..device.num_blocks())
        .map(|block| device.read_block(block).unwrap())
        .collect()
}

/// A base with contents of its own, so a crash state's unwritten blocks
/// fall through to something that is not zeroes.
fn written_base(num_blocks: u64) -> DiskImage {
    let mut disk = CowSnapshotDevice::new(DiskImage::empty(num_blocks));
    disk.write_block(0, b"base-superblock", IoFlags::META)
        .unwrap();
    disk.write_block(num_blocks - 1, &[0xb5; BLOCK_SIZE], IoFlags::DATA)
        .unwrap();
    disk.freeze().flatten()
}

fn recording_on(base: &DiskImage) -> (RecordingDevice, LogHandle) {
    let device = RecordingDevice::new(CowSnapshotDevice::new(base.clone()));
    let handle = device.log_handle();
    (device, handle)
}

/// Everything the frozen states of one log must agree with: per checkpoint,
/// `image_at` and `crash_state` read like a replay onto the base; visited in
/// the order `visits` gives (any order, repeats included), the stream hands
/// out the replaying stream's states and deltas.
fn check_log(base: &DiskImage, log: &IoLog, visits: &[CheckpointId]) -> Result<(), TestCaseError> {
    for checkpoint in 1..=log.num_checkpoints() {
        let replayed = blocks_of(&replayed_state(base, log, checkpoint));
        let image = log.image_at(checkpoint).expect("a recorded checkpoint");
        prop_assert!(
            blocks_of(&CowSnapshotDevice::new(image.clone())) == replayed,
            "image_at({checkpoint}) differs from the replay"
        );
        prop_assert!(
            blocks_of(&crash_state(base, log, checkpoint).unwrap()) == replayed,
            "crash_state({checkpoint}) differs from the replay"
        );
    }
    prop_assert!(log.image_at(0).is_none());
    prop_assert!(log.image_at(log.num_checkpoints() + 1).is_none());

    let mut frozen = CrashStateStream::new(base, log);
    let mut replaying = ReplayingStream::new(base, log);
    for &checkpoint in visits {
        let step = frozen.step_to(checkpoint).unwrap();
        let (state, delta) = replaying.step_to(checkpoint);
        prop_assert!(
            blocks_of(&step.state) == blocks_of(&state),
            "step_to({checkpoint}) of {visits:?}: state"
        );
        prop_assert_eq!(
            &step.delta,
            &delta,
            "step_to({}) of {:?}",
            checkpoint,
            visits
        );
    }
    Ok(())
}

/// One step on one of the recordings (`side`, taken modulo how many
/// there are by then).
#[derive(Debug, Clone)]
enum ForkStep {
    Write { block: u64, byte: u8, len: usize },
    Flush,
    Checkpoint,
    Fork,
}

/// Empty, short and full payloads, on few enough blocks to collide.
fn fork_write_strategy() -> impl Strategy<Value = ForkStep> {
    let len = prop_oneof![
        Just(0usize),
        1usize..64,
        1usize..BLOCK_SIZE,
        Just(BLOCK_SIZE)
    ];
    (0..FORK_DEVICE_BLOCKS, any::<u8>(), len).prop_map(|(block, byte, len)| ForkStep::Write {
        block,
        byte,
        len,
    })
}

fn fork_step_strategy() -> impl Strategy<Value = (usize, ForkStep)> {
    let step = prop_oneof![
        fork_write_strategy(),
        fork_write_strategy(),
        Just(ForkStep::Flush),
        Just(ForkStep::Checkpoint),
        Just(ForkStep::Checkpoint),
        Just(ForkStep::Fork),
    ];
    (0usize..4, step)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random writes, flushes, checkpoints and forks over up to four
    /// recordings of one base: on every side, every checkpoint's frozen
    /// image is the replayed one, and the stream's deltas are the replaying
    /// stream's, in order and out of order.
    #[test]
    fn frozen_states_equal_replayed_ones_on_every_side_of_every_fork(
        steps in prop::collection::vec(fork_step_strategy(), 1..60),
        visits in prop::collection::vec(0u32..1000, 0..12),
    ) {
        let base = written_base(FORK_DEVICE_BLOCKS);
        let mut sides = vec![recording_on(&base)];
        for (side, step) in &steps {
            let side = side % sides.len();
            match step {
                ForkStep::Write { block, byte, len } => {
                    sides[side].0.write_block(*block, &vec![*byte; *len], IoFlags::DATA).unwrap();
                }
                ForkStep::Flush => sides[side].0.flush().unwrap(),
                ForkStep::Checkpoint => {
                    sides[side].1.checkpoint();
                }
                ForkStep::Fork if sides.len() < 4 => {
                    let (parent, parent_log) = &sides[side];
                    let fork = parent_log.fork_device();
                    let fork_log = fork.log_handle();
                    prop_assert!(blocks_of(&fork) == blocks_of(parent));
                    // The images travel with the log by reference count.
                    let (ours, theirs) = (parent_log.snapshot(), fork_log.snapshot());
                    prop_assert!(ours == theirs);
                    for checkpoint in 1..=ours.num_checkpoints() {
                        let image = theirs.image_at(checkpoint).unwrap();
                        prop_assert!(image.ptr_eq(ours.image_at(checkpoint).unwrap()));
                    }
                    sides.push((fork, fork_log));
                }
                ForkStep::Fork => {}
            }
        }
        for (device, handle) in &sides {
            let log = handle.snapshot();
            let checkpoints = log.num_checkpoints();
            // The live device is the whole log replayed.
            prop_assert!(blocks_of(device) == blocks_of(&replayed_state(&base, &log, 0)));
            if checkpoints == 0 {
                check_log(&base, &log, &[])?;
                continue;
            }
            let in_order: Vec<CheckpointId> = (1..=checkpoints).collect();
            check_log(&base, &log, &in_order)?;
            let any_order: Vec<CheckpointId> =
                visits.iter().map(|v| v % checkpoints + 1).collect();
            check_log(&base, &log, &any_order)?;
            // `take_log` moves the same images out.
            let taken = handle.take_log();
            prop_assert!(taken == log);
            check_log(&base, &taken, &in_order)?;
        }
    }
}

/// More checkpoints than `MAX_CHAIN_DEPTH`: the recorder's layer chain is
/// flattened under way, and the images on both sides of the flatten — the
/// ones frozen before it keep their own chains — still equal the replay.
#[test]
fn frozen_states_survive_the_chain_flatten() {
    let base = written_base(16);
    let (mut device, handle) = recording_on(&base);
    let checkpoints = MAX_CHAIN_DEPTH + 9;
    for round in 0..u64::from(checkpoints) {
        let payload = format!("round-{round}");
        device
            .write_block(round % 16, payload.as_bytes(), IoFlags::DATA)
            .unwrap();
        device
            .write_block(
                (round * 7 + 3) % 16,
                &[round as u8; BLOCK_SIZE],
                IoFlags::META,
            )
            .unwrap();
        if round % 5 == 0 {
            device.flush().unwrap();
        }
        assert_eq!(u64::from(handle.checkpoint()), round + 1);
    }
    let log = handle.snapshot();
    assert_eq!(log.num_checkpoints(), checkpoints);
    let depths: Vec<u32> = (1..=checkpoints)
        .map(|id| log.image_at(id).unwrap().chain_depth())
        .collect();
    assert!(
        depths.windows(2).any(|pair| pair[1] < pair[0]),
        "the chain was never flattened: {depths:?}"
    );
    assert!(depths.iter().all(|&depth| depth <= MAX_CHAIN_DEPTH + 1));

    let in_order: Vec<CheckpointId> = (1..=checkpoints).collect();
    check_log(&base, &log, &in_order).unwrap();
    let backwards: Vec<CheckpointId> = (1..=checkpoints).rev().collect();
    check_log(&base, &log, &backwards).unwrap();
}

/// A write after a fork shows in no image the other side freezes later —
/// not one of a block the fork point had already written, nor of a fresh
/// one, nor through a checkpoint both sides number the same.
#[test]
fn writes_after_a_fork_never_show_in_the_other_sides_images() {
    let base = written_base(FORK_DEVICE_BLOCKS);
    let (mut parent, parent_log) = recording_on(&base);
    parent.write_block(1, b"shared", IoFlags::DATA).unwrap();
    parent_log.checkpoint();
    parent.write_block(2, b"unfrozen", IoFlags::DATA).unwrap();

    let mut fork = parent_log.fork_device();
    let fork_log = fork.log_handle();
    fork.write_block(1, b"fork-1", IoFlags::DATA).unwrap();
    fork.write_block(3, b"fork-3", IoFlags::DATA).unwrap();
    parent.write_block(2, b"parent-2", IoFlags::DATA).unwrap();
    parent.write_block(4, b"parent-4", IoFlags::DATA).unwrap();
    assert_eq!(fork_log.checkpoint(), 2);
    assert_eq!(parent_log.checkpoint(), 2);
    fork.write_block(5, b"fork-5", IoFlags::DATA).unwrap();
    assert_eq!(parent_log.checkpoint(), 3);

    let (ours, theirs) = (parent_log.snapshot(), fork_log.snapshot());
    let starts = |image: &DiskImage, block: u64, with: &[u8]| {
        image.read_block(block).unwrap().starts_with(with)
    };
    let zero =
        |image: &DiskImage, block: u64| image.read_block(block).unwrap().iter().all(|&b| b == 0);
    for id in [2, 3] {
        let image = ours.image_at(id).unwrap();
        assert!(starts(image, 1, b"shared"), "parent image {id}");
        assert!(starts(image, 2, b"parent-2") && starts(image, 4, b"parent-4"));
        assert!(zero(image, 3) && zero(image, 5), "parent image {id}");
    }
    let image = theirs.image_at(2).unwrap();
    assert!(starts(image, 1, b"fork-1") && starts(image, 3, b"fork-3"));
    assert!(starts(image, 2, b"unfrozen"));
    assert!(zero(image, 4) && zero(image, 5));
    assert!(theirs.image_at(3).is_none());
    // The checkpoint frozen before the fork is one image on both sides.
    assert!(ours
        .image_at(1)
        .unwrap()
        .ptr_eq(theirs.image_at(1).unwrap()));
    assert!(zero(ours.image_at(1).unwrap(), 2));

    for log in [&ours, &theirs] {
        let in_order: Vec<CheckpointId> = (1..=log.num_checkpoints()).collect();
        check_log(&base, log, &in_order).unwrap();
    }
}
