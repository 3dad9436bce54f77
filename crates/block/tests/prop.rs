//! Property-based tests for the block layer: recorded IO replays losslessly
//! and copy-on-write snapshots never leak writes into their base image.

use proptest::prelude::*;

use b3_block::{
    crash_state, replay_log, BlockDevice, CowSnapshotDevice, DiskImage, IoFlags, RamDisk,
    RecordingDevice, BLOCK_SIZE,
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

    /// Copy-on-write snapshots never modify their base image, and resetting
    /// them restores the base contents exactly.
    #[test]
    fn cow_snapshots_isolate_and_reset(writes in prop::collection::vec((0u64..32, any::<u8>()), 1..20)) {
        let mut disk = RamDisk::new(32);
        disk.write_block(0, b"base", IoFlags::META).unwrap();
        let image = disk.snapshot();
        let mut snapshot = CowSnapshotDevice::new(image.clone());
        for (block, byte) in &writes {
            snapshot.write_block(*block, &[*byte; 8], IoFlags::DATA).unwrap();
        }
        for block in 0..32 {
            prop_assert_eq!(image.read_block(block).unwrap(), disk.read_block(block).unwrap());
        }
        snapshot.reset();
        for block in 0..32 {
            prop_assert_eq!(snapshot.read_block(block).unwrap(), disk.read_block(block).unwrap());
        }
    }
}
