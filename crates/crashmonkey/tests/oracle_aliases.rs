//! Hard-link aliases under a renamed directory.
//!
//! The profiler's incremental oracle re-captures, at each persistence
//! point, only the paths the operations since the last one touched, plus
//! the hard-link aliases of those paths. The aliases are found through the
//! inode number each dirty path had; a directory renamed since (a dirty
//! subtree) contributes only its own entry's inode, not those of the paths
//! under it. Unlinking a file under the renamed directory then leaves its
//! alias elsewhere with the link count it had before, and the stale oracle
//! turns a correct recovery into a bug report.
//!
//! The workload below is the smallest such case the seq-3-metadata space
//! holds; on buggy CowFs at 4.16 it is one of the benchmark's pinned
//! `seq3m_cow_pruned` reports (`seq-3-metadata-0041730` and the three
//! workloads grouped with it). Debug builds catch the divergence when the
//! oracle settles: `incremental oracle diverged at ["B/foo"]`.

use b3_crashmonkey::{CrashMonkey, CrashMonkeyConfig, CrashPointPolicy};
use b3_fs_cow::CowFsSpec;
use b3_vfs::workload::{Op, Workload};
use b3_vfs::KernelEra;

#[test]
#[ignore = "known false positive: the incremental oracle does not expand hard-link aliases \
            through the entries under a renamed directory; un-ignore with the fix, which \
            also re-pins the seq3m_cow_pruned benchmark workload"]
fn unlink_under_a_renamed_directory_refreshes_the_alias() {
    let workload = Workload::with_setup(
        "renamed-alias",
        vec![
            Op::Mkdir { path: "A".into() },
            Op::Creat {
                path: "A/foo".into(),
            },
            Op::Mkdir { path: "B".into() },
        ],
        vec![
            Op::Link {
                existing: "A/foo".into(),
                new: "B/foo".into(),
            },
            Op::Fsync {
                path: "A/foo".into(),
            },
            Op::Rename {
                from: "A".into(),
                to: "C".into(),
            },
            Op::Unlink {
                path: "C/foo".into(),
            },
            Op::Sync,
        ],
    );
    let spec = CowFsSpec::new(KernelEra::V4_16);
    let config = CrashMonkeyConfig {
        crash_points: CrashPointPolicy::LastOnly,
        ..CrashMonkeyConfig::small()
    };
    let outcome = CrashMonkey::with_config(&spec, config)
        .test_workload(&workload)
        .expect("the workload executes");
    assert!(
        outcome.bugs.is_empty(),
        "a correct recovery was reported: {:?}",
        outcome.bugs
    );
}
