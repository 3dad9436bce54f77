//! Property-based tests for the VFS layer: the workload text format and the
//! in-memory tree's serialization and namespace invariants.

use proptest::prelude::*;

use b3_vfs::fs::WriteMode;
use b3_vfs::tree::MemTree;
use b3_vfs::workload::{parse_workload, FallocMode, Op, Workload, WritePattern, WriteSpec};

/// Strategy for a path from the bounded file set (plus a nested variant).
fn path_strategy() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "foo".to_string(),
        "bar".to_string(),
        "A".to_string(),
        "B".to_string(),
        "A/foo".to_string(),
        "A/bar".to_string(),
        "B/foo".to_string(),
        "B/bar".to_string(),
        "A/C/foo".to_string(),
    ])
}

/// Strategy for one workload operation.
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        path_strategy().prop_map(|path| Op::Creat { path }),
        path_strategy().prop_map(|path| Op::Mkdir { path }),
        (path_strategy(), path_strategy()).prop_map(|(existing, new)| Op::Link { existing, new }),
        (path_strategy(), path_strategy()).prop_map(|(from, to)| Op::Rename { from, to }),
        path_strategy().prop_map(|path| Op::Unlink { path }),
        (path_strategy(), 0u64..200_000, 1u64..65_536).prop_map(|(path, offset, len)| Op::Write {
            path,
            mode: WriteMode::Buffered,
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
            0u64..100_000,
            1u64..65_536
        )
            .prop_map(|(path, mode, offset, len)| Op::Falloc {
                path,
                mode,
                offset,
                len
            }),
        (path_strategy(), 0u64..100_000).prop_map(|(path, size)| Op::Truncate { path, size }),
        path_strategy().prop_map(|path| Op::Fsync { path }),
        path_strategy().prop_map(|path| Op::Fdatasync { path }),
        Just(Op::Sync),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every workload the strategy can produce survives a
    /// serialize-then-parse round trip unchanged.
    #[test]
    fn workload_text_round_trips(
        setup in prop::collection::vec(op_strategy(), 0..4),
        ops in prop::collection::vec(op_strategy(), 1..6),
    ) {
        let workload = Workload::with_setup("prop", setup, ops);
        let text = workload.to_string();
        let parsed = parse_workload(&text, "fallback").expect("round trip parses");
        prop_assert_eq!(parsed, workload);
    }

    /// Applying a random operation sequence to the in-memory tree never
    /// breaks its internal invariants, and the tree always survives an
    /// encode/decode round trip exactly.
    #[test]
    fn memtree_serialization_round_trips(ops in prop::collection::vec(op_strategy(), 0..24)) {
        let mut tree = MemTree::new();
        for op in &ops {
            // Errors (missing files, existing targets, …) are expected for
            // random sequences; the property is about the surviving state.
            let _ = apply(&mut tree, op);
        }
        let decoded = MemTree::decode(&tree.encode()).expect("decodes");
        prop_assert_eq!(&decoded, &tree);

        // Invariant: every directory entry resolves to a live inode and the
        // directory size bookkeeping matches the number of entries.
        for inode in tree.inodes() {
            if inode.is_dir() {
                prop_assert_eq!(
                    inode.dir_size,
                    inode.entries.len() as u64 * b3_vfs::tree::DIRENT_SIZE
                );
                for child in inode.entries.values() {
                    prop_assert!(tree.inode(*child).is_some());
                }
            }
        }
    }

    /// A clone shares its inodes with the tree it was taken from. Whatever
    /// either side does afterwards, the other still encodes to the bytes it
    /// encoded to at the clone and still equals a deep copy decoded from
    /// them.
    #[test]
    fn a_clone_is_unmoved_by_operations_on_the_original(
        before in prop::collection::vec(op_strategy(), 0..16),
        after in prop::collection::vec(op_strategy(), 1..16),
    ) {
        let mut tree = MemTree::new();
        for op in &before {
            let _ = apply(&mut tree, op);
        }
        let snapshot = tree.clone();
        let bytes = snapshot.encode();
        let deep = MemTree::decode(&bytes).expect("decodes");
        for op in &after {
            let _ = apply(&mut tree, op);
            prop_assert_eq!(&snapshot, &deep);
        }
        prop_assert_eq!(snapshot.encode(), bytes);
    }

    #[test]
    fn the_original_is_unmoved_by_operations_on_a_clone(
        before in prop::collection::vec(op_strategy(), 0..16),
        after in prop::collection::vec(op_strategy(), 1..16),
    ) {
        let mut tree = MemTree::new();
        for op in &before {
            let _ = apply(&mut tree, op);
        }
        let bytes = tree.encode();
        let deep = MemTree::decode(&bytes).expect("decodes");
        let mut snapshot = tree.clone();
        let mut reference = deep.clone();
        for op in &after {
            // The clone behaves exactly as a deep copy would ...
            prop_assert_eq!(
                apply(&mut snapshot, op).is_ok(),
                apply(&mut reference, op).is_ok()
            );
            prop_assert_eq!(&snapshot, &reference);
            // ... and the tree it came from does not see it.
            prop_assert_eq!(&tree, &deep);
        }
        prop_assert_eq!(tree.encode(), bytes);
    }
}

fn apply(tree: &mut MemTree, op: &Op) -> Result<(), b3_vfs::FsError> {
    match op {
        Op::Creat { path } => tree.create_file(path).map(|_| ()),
        Op::Mkdir { path } => tree.mkdir(path).map(|_| ()),
        Op::Link { existing, new } => tree.link(existing, new).map(|_| ()),
        Op::Rename { from, to } => tree.rename(from, to),
        Op::Unlink { path } => tree.unlink(path),
        Op::Write {
            path,
            spec: WriteSpec::Range { offset, len },
            ..
        } => tree.write(path, *offset, &vec![7u8; (*len as usize).min(65_536)]),
        Op::Write { path, .. } => tree.write(path, 0, &[7u8; 512]),
        Op::Falloc {
            path,
            mode,
            offset,
            len,
        } => tree.fallocate(path, *mode, *offset, *len),
        Op::Truncate { path, size } => tree.truncate(path, *size),
        _ => Ok(()),
    }
}
