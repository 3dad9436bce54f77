//! Property tests of the [`FileSystem::fork`] contract, one per simulated
//! file system: after a fork, nothing done to either side — persistence
//! operations included — changes what the other side holds (its logical
//! state, its device's blocks, its recorded IO), in both directions; and
//! the fork behaves exactly like a file system that ran the shared prefix
//! itself. Prefix-sharing profiling rests on both halves.

use proptest::prelude::*;

use b3_block::{BlockDevice, CowSnapshotDevice, DiskImage, IoLog, LogHandle, RecordingDevice};
use b3_fs_cow::CowFsSpec;
use b3_fs_flash::FlashFsSpec;
use b3_fs_journal::JournalFsSpec;
use b3_fs_veri::VeriFsSpec;
use b3_vfs::exec::Executor;
use b3_vfs::fs::{FileSystem, FsSpec, WriteMode};
use b3_vfs::snapshot::LogicalSnapshot;
use b3_vfs::workload::{FallocMode, Op, WritePattern, WriteSpec};
use b3_vfs::KernelEra;

const DEVICE_BLOCKS: u64 = 4096;

fn path_strategy() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "foo".to_string(),
        "bar".to_string(),
        "A".to_string(),
        "A/foo".to_string(),
        "A/bar".to_string(),
    ])
}

/// Namespace, data (buffered, direct, mmap, falloc) and persistence
/// operations; about a third persist.
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        path_strategy().prop_map(|path| Op::Creat { path }),
        path_strategy().prop_map(|path| Op::Mkdir { path }),
        (path_strategy(), path_strategy()).prop_map(|(existing, new)| Op::Link { existing, new }),
        (path_strategy(), path_strategy()).prop_map(|(from, to)| Op::Rename { from, to }),
        path_strategy().prop_map(|path| Op::Unlink { path }),
        (
            path_strategy(),
            prop::sample::select(WritePattern::ALL.to_vec())
        )
            .prop_map(|(path, pattern)| Op::Write {
                path,
                mode: WriteMode::Buffered,
                spec: WriteSpec::Pattern(pattern),
            }),
        (path_strategy(), 0u64..32_768, 1u64..16_384).prop_map(|(path, offset, len)| Op::Write {
            path,
            mode: WriteMode::Direct,
            spec: WriteSpec::Range { offset, len },
        }),
        (path_strategy(), 0u64..32_768, 1u64..16_384).prop_map(|(path, offset, len)| Op::Write {
            path,
            mode: WriteMode::Mmap,
            spec: WriteSpec::Range { offset, len },
        }),
        (
            path_strategy(),
            prop::sample::select(WritePattern::ALL.to_vec())
        )
            .prop_map(|(path, pattern)| Op::Write {
                path,
                mode: WriteMode::Direct,
                spec: WriteSpec::Pattern(pattern),
            }),
        (
            path_strategy(),
            prop::sample::select(FallocMode::ALL.to_vec()),
            0u64..32_768,
            1u64..16_384
        )
            .prop_map(|(path, mode, offset, len)| Op::Falloc {
                path,
                mode,
                offset,
                len
            }),
        path_strategy().prop_map(|path| Op::Fsync { path }),
        path_strategy().prop_map(|path| Op::Fsync { path }),
        path_strategy().prop_map(|path| Op::Fdatasync { path }),
        (path_strategy(), 0u64..16_384, 1u64..16_384).prop_map(|(path, offset, len)| Op::Msync {
            path,
            offset,
            len
        }),
        Just(Op::Sync),
    ]
}

/// A mounted file system on a recording device, with the executor whose
/// counter seeds its write data.
struct Side {
    fs: Box<dyn FileSystem>,
    log: LogHandle,
    executor: Executor,
}

impl Side {
    /// A fresh file system holding `A`, `foo` (8 KiB, committed) and
    /// `A/foo` (not yet persisted), so that most random operations apply;
    /// `bar` and `A/bar` are left for creat, link and rename to make.
    fn format(spec: &dyn FsSpec) -> Side {
        let device = RecordingDevice::new(CowSnapshotDevice::new(DiskImage::empty(DEVICE_BLOCKS)));
        let log = device.log_handle();
        let mut side = Side {
            fs: spec.mkfs(Box::new(device)).expect("mkfs"),
            log,
            executor: Executor::new(),
        };
        let setup = side.apply(&[
            Op::Mkdir { path: "A".into() },
            Op::Creat { path: "foo".into() },
            Op::Write {
                path: "foo".into(),
                mode: WriteMode::Buffered,
                spec: WriteSpec::Range {
                    offset: 0,
                    len: 8192,
                },
            },
            Op::Sync,
            Op::Creat {
                path: "A/foo".into(),
            },
        ]);
        assert!(setup.iter().all(Result::is_ok), "setup applies: {setup:?}");
        side
    }

    fn fork(&self) -> Side {
        let device = self.log.fork_device();
        let log = device.log_handle();
        Side {
            fs: self.fs.fork(Box::new(device)),
            log,
            executor: self.executor.clone(),
        }
    }

    /// Applies the ops; random sequences fail often, which is part of the
    /// behaviour under test, so the results are returned, not unwrapped.
    fn apply(&mut self, ops: &[Op]) -> Vec<Result<(), String>> {
        ops.iter()
            .map(|op| {
                self.executor
                    .apply(self.fs.as_mut(), op)
                    .map_err(|e| e.to_string())
            })
            .collect()
    }

    /// Everything the other side must not be able to change: the logical
    /// state, the device's blocks (frozen through a fork of the recorder,
    /// so the image cannot alias the live overlay), and the recorded IO.
    fn observe(&self) -> (LogicalSnapshot, DiskImage, IoLog) {
        (
            LogicalSnapshot::capture(self.fs.as_ref()).expect("capture"),
            self.log.fork_device().freeze_image(),
            self.log.snapshot(),
        )
    }
}

fn check_fork(
    spec: &dyn FsSpec,
    prefix: &[Op],
    on_fork: &[Op],
    on_parent: &[Op],
) -> Result<(), TestCaseError> {
    let mut parent = Side::format(spec);
    parent.apply(prefix);
    let mut fork = parent.fork();
    let at_fork = parent.observe();
    prop_assert!(fork.observe() == at_fork, "a fork starts out identical");

    // Fork → parent: nothing the fork does shows on the parent.
    let fork_results = fork.apply(on_fork);
    prop_assert!(
        parent.observe() == at_fork,
        "{}: ops on the fork changed the parent\nprefix {prefix:?}\nfork ops {on_fork:?}",
        spec.name()
    );

    // Parent → fork: nothing the parent does shows on the fork.
    let after_fork_ops = fork.observe();
    parent.apply(on_parent);
    prop_assert!(
        fork.observe() == after_fork_ops,
        "{}: ops on the parent changed the fork\nprefix {prefix:?}\nparent ops {on_parent:?}",
        spec.name()
    );

    // The fork is indistinguishable from a run that never forked.
    let mut scratch = Side::format(spec);
    scratch.apply(prefix);
    let scratch_results = scratch.apply(on_fork);
    prop_assert_eq!(&fork_results, &scratch_results);
    prop_assert!(
        scratch.observe() == after_fork_ops,
        "{}: the fork diverged from an unforked run\nprefix {prefix:?}\nops {on_fork:?}",
        spec.name()
    );
    Ok(())
}

/// Both the era the sweeps test (bugs active: more partial-persistence
/// paths, more per-transaction state to alias) and the patched one.
fn check_both_eras<S: FsSpec>(
    make: impl Fn(KernelEra) -> S,
    prefix: &[Op],
    on_fork: &[Op],
    on_parent: &[Op],
) -> Result<(), TestCaseError> {
    for era in [KernelEra::V4_16, KernelEra::Patched] {
        check_fork(&make(era), prefix, on_fork, on_parent)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn cowfs_forks_are_isolated(
        prefix in prop::collection::vec(op_strategy(), 0..8),
        on_fork in prop::collection::vec(op_strategy(), 1..8),
        on_parent in prop::collection::vec(op_strategy(), 1..8),
    ) {
        // 3.13 too: the era with the most CowFs log-tree bugs switched on.
        check_fork(&CowFsSpec::new(KernelEra::V3_13), &prefix, &on_fork, &on_parent)?;
        check_both_eras(CowFsSpec::new, &prefix, &on_fork, &on_parent)?;
    }

    #[test]
    fn journalfs_forks_are_isolated(
        prefix in prop::collection::vec(op_strategy(), 0..8),
        on_fork in prop::collection::vec(op_strategy(), 1..8),
        on_parent in prop::collection::vec(op_strategy(), 1..8),
    ) {
        check_both_eras(JournalFsSpec::new, &prefix, &on_fork, &on_parent)?;
    }

    #[test]
    fn flashfs_forks_are_isolated(
        prefix in prop::collection::vec(op_strategy(), 0..8),
        on_fork in prop::collection::vec(op_strategy(), 1..8),
        on_parent in prop::collection::vec(op_strategy(), 1..8),
    ) {
        check_both_eras(FlashFsSpec::new, &prefix, &on_fork, &on_parent)?;
    }

    #[test]
    fn verifs_forks_are_isolated(
        prefix in prop::collection::vec(op_strategy(), 0..8),
        on_fork in prop::collection::vec(op_strategy(), 1..8),
        on_parent in prop::collection::vec(op_strategy(), 1..8),
    ) {
        check_both_eras(VeriFsSpec::new, &prefix, &on_fork, &on_parent)?;
    }
}
