//! The catalogue of injectable CowFs crash-consistency bugs.
//!
//! Each flag corresponds to one distinct *mechanism* from the paper's btrfs
//! corpus (several reported workloads can share a mechanism, exactly as
//! several reported bugs shared a root cause in the real kernel). Flags are
//! era-gated: [`CowBugs::for_era`] enables exactly the bugs that were
//! unfixed in the given kernel release, so a `KernelEra::Patched` file
//! system has no injected bugs at all and `KernelEra::V4_16` (the paper's
//! evaluation kernel) has exactly the still-unfixed "new" bugs of Table 5.

use b3_vfs::{mutant, Mutant, MutantSet};

/// Which CowFs crash-consistency bugs are active.
///
/// The `Default` value has every bug disabled (a fully patched file system).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(clippy::struct_excessive_bools)]
pub struct CowBugs {
    // ----- inode / data logging bugs -------------------------------------------------
    /// fsync of a file that gained a hard link in the current transaction
    /// logs the *committed* (stale) inode size and contents, so the file
    /// recovers with size 0 / old data. (Known bug: "fsync data loss after
    /// adding hard link to inode", workload 16.)
    pub link_fsync_stale_inode: bool,

    /// fsync of a file whose link count is greater than one only logs data
    /// up to the committed size, losing appends. (Known bug: "fsync data
    /// loss after append write", workload 23.)
    pub append_after_link_stale_extent: bool,

    /// Blocks allocated beyond EOF with `fallocate(KEEP_SIZE)` are not
    /// logged by fsync and disappear after recovery. (New bug 8.)
    pub falloc_keep_size_not_logged: bool,

    /// Holes punched since the last commit are not logged: recovery restores
    /// the committed data for the punched range. (Known bugs: workloads 12
    /// and 17, hole punching not persisted.)
    pub punch_hole_not_logged: bool,

    /// fsync logs the union of committed and working xattrs, so xattrs
    /// removed in this transaction reappear after recovery. (Known bug:
    /// workload 18, "remove deleted xattrs on fsync log replay".)
    pub xattr_removal_not_logged: bool,

    /// A symlink logged through an fsync of its parent directory loses its
    /// target, recovering as an empty symlink. (Known bug: workload 10.)
    pub symlink_target_not_logged: bool,

    /// A ranged `msync` logs only the synced range *and* clears the whole
    /// file's dirty state, so a second ranged msync of a different range
    /// logs nothing. (Known bug: workload 14, "fsync data loss after a
    /// ranged fsync".)
    pub ranged_msync_clears_dirty: bool,

    // ----- name / dentry logging bugs -------------------------------------------------
    /// fsync of a file logs only the directory entry for the path that was
    /// fsynced; hard-link names added this transaction under other paths
    /// are not logged (and a second fsync of the same inode skips name
    /// logging entirely). (New bugs 5 and 7.)
    pub fsync_skips_other_names: bool,

    /// fsync of a file that was renamed in the current transaction (away
    /// from its committed name, or from a name an earlier fsync of this
    /// transaction logged) fails to log the name change; the file recovers
    /// under its old name. (Known bugs: workloads 7, 11, 20 and 22; the
    /// file-rename half of new bug 4.)
    pub fsync_renamed_file_skips_new_name: bool,

    /// fsync of a renamed file logs, alongside the correct new name, a stale
    /// back-reference that replay instantiates as a *fresh* inode carrying
    /// the committed (pre-rename) contents under the old name. After
    /// `rename; fsync(new); crash`, recovery shows the old name as a
    /// **distinct** inode — so the same-inode rename-atomicity check stays
    /// silent and only an op-order-aware durable-rename check catches it.
    /// (ROADMAP "Rename-atomicity coverage"; corpus entry `ext-01`.)
    pub durable_rename_resurrects_old_inode: bool,

    /// When fsyncing a file created at a name that used to belong to a
    /// different (renamed-away) inode, the renamed inode's new location is
    /// not logged and the old file disappears entirely. (The mechanism
    /// reported as known workload 1. The lost file is left orphaned, which
    /// the AutoChecker cannot see, so no corpus workload exposes it on its
    /// own: that entry is detected through `name_reuse_breaks_replay`.)
    pub rename_source_not_logged: bool,

    /// fsync of a file also logs directory entries for *sibling* names
    /// created in the same directory during this transaction, without
    /// logging the sibling inodes — leaving entries whose link counts are
    /// wrong after replay and making the directory un-removable. (Known bugs:
    /// workload 13, "stale directory entries after fsync log replay", and
    /// workload 9.)
    pub fsync_logs_sibling_dentries: bool,

    /// fsync of a directory logs entries for newly created child *files*
    /// but not the child inodes themselves, so the children are missing
    /// after recovery. (New bug 6.)
    pub dir_fsync_skips_new_files: bool,

    /// fsync of a directory does not log newly created child *directories*
    /// (nor anything under them). (New bug 3.)
    pub dir_fsync_skips_new_subdirs: bool,

    /// fsync of a directory fails to persist renames of files into or out of
    /// the directory's subtree performed in this transaction. (Known bug:
    /// workload 8; the directory half of new bug 4.)
    pub dir_fsync_misses_renames: bool,

    /// When a rename replaces a name belonging to an already-logged inode,
    /// fsync of the directory logs the replacing entry but not the replacing
    /// inode, so *both* the old and the new file vanish — broken rename
    /// atomicity. (New bug 1.)
    pub rename_over_logged_skips_new_inode: bool,

    // ----- log replay bugs --------------------------------------------------------------
    /// Log replay increments the directory size for every dentry item even
    /// when the entry already exists, leaving the directory claiming a
    /// larger size than its entries and making it un-removable. (Known bugs:
    /// workloads 21 and 24, "fix directory recovery from fsync log".)
    pub replay_dup_dentry_double_count: bool,

    /// Log replay skips dentry *removals* for inodes with multiple hard
    /// links, resurrecting removed names with broken link counts and making
    /// the directory un-removable. (Known bugs: workloads 15 and 19.)
    pub replay_skips_dentry_removal_multilink: bool,

    /// Log replay does not remove the old name of a renamed entry when the
    /// new name appears in the same log, so the file is visible in both
    /// directories after recovery. (New bug 2.)
    pub replay_keeps_old_dentry_after_rename: bool,

    /// Log replay aborts when a logged dentry targets a name that exists in
    /// the committed tree with a different inode (the unlink+link /
    /// unlink+create name-reuse pattern), leaving the file system
    /// un-mountable. (Known bugs: Figure 1 / workloads 3 and 5, and what
    /// the reproduction of workload 1 shows.)
    pub name_reuse_breaks_replay: bool,

    /// Log replay restores the committed inode-allocator cursor, so the
    /// first creation after recovery collides with a replayed inode and the
    /// file system refuses to create new files. (Known bug: workload 6.)
    pub replay_resets_inode_allocator: bool,
}

/// The era table, in field order. Known (previously reported) bugs were
/// all fixed by the kernel release following their report; the ten bugs
/// CrashMonkey and ACE found (Table 5) were still present in 4.16 and are
/// only disabled for [`KernelEra::Patched`](b3_vfs::KernelEra::Patched).
impl MutantSet for CowBugs {
    const MUTANTS: &'static [Mutant<Self>] = &[
        mutant!(link_fsync_stale_inode, V3_12..V4_1_1),
        mutant!(append_after_link_stale_extent, V3_12..V4_4),
        mutant!(falloc_keep_size_not_logged, V3_13..), // new bug 8 (2014)
        mutant!(punch_hole_not_logged, V3_12..V4_4),
        mutant!(xattr_removal_not_logged, V3_12..V4_1_1),
        mutant!(symlink_target_not_logged, V3_12..V4_15),
        mutant!(ranged_msync_clears_dirty, V3_12..V3_16),
        mutant!(fsync_skips_other_names, V3_13..), // new bugs 5 & 7 (2014)
        mutant!(fsync_renamed_file_skips_new_name, V3_12..V4_15),
        mutant!(durable_rename_resurrects_old_inode, V4_16..), // beyond the paper
        mutant!(rename_source_not_logged, V3_12..V4_15),
        mutant!(fsync_logs_sibling_dentries, V3_12..V4_4),
        mutant!(dir_fsync_skips_new_files, V3_16..), // new bug 6 (2014)
        mutant!(dir_fsync_skips_new_subdirs, V3_13..), // new bug 3 (2014)
        // Covers both previously-reported workloads and the still-unfixed
        // "rename not persisted by fsync" new bug 4, so it never closes.
        mutant!(dir_fsync_misses_renames, V3_12..),
        mutant!(rename_over_logged_skips_new_inode, V3_13..), // new bug 1 (2014)
        mutant!(replay_dup_dentry_double_count, V3_12..V3_16),
        mutant!(replay_skips_dentry_removal_multilink, V3_12..V4_4),
        // New bug 2 (from 4.15) reuses a mechanism present since 3.12: the
        // two windows meet, so one row covers both.
        mutant!(replay_keeps_old_dentry_after_rename, V3_12..),
        mutant!(name_reuse_breaks_replay, V3_12..V4_16),
        mutant!(replay_resets_inode_allocator, V3_12..V4_16),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use b3_vfs::KernelEra;

    #[test]
    fn patched_era_has_no_bugs() {
        assert_eq!(CowBugs::for_era(KernelEra::Patched), CowBugs::none());
    }

    #[test]
    fn evaluation_kernel_has_only_new_bugs() {
        let bugs = CowBugs::for_era(KernelEra::V4_16);
        // The new bugs of Table 5 are present…
        assert!(bugs.rename_over_logged_skips_new_inode);
        assert!(bugs.dir_fsync_skips_new_subdirs);
        assert!(bugs.dir_fsync_skips_new_files);
        assert!(bugs.fsync_skips_other_names);
        assert!(bugs.falloc_keep_size_not_logged);
        assert!(bugs.replay_keeps_old_dentry_after_rename);
        // …while long-fixed known bugs are not.
        assert!(!bugs.link_fsync_stale_inode);
        assert!(!bugs.ranged_msync_clears_dirty);
        assert!(!bugs.replay_dup_dentry_double_count);
    }

    #[test]
    fn known_bug_window_closes() {
        assert!(CowBugs::for_era(KernelEra::V3_13).replay_dup_dentry_double_count);
        assert!(!CowBugs::for_era(KernelEra::V4_4).replay_dup_dentry_double_count);
        assert!(CowBugs::for_era(KernelEra::V4_15).name_reuse_breaks_replay);
        assert!(!CowBugs::for_era(KernelEra::V4_16).name_reuse_breaks_replay);
    }

    /// The enabled ids of every era, as literals: a table edit that moves
    /// a window shows here.
    #[test]
    fn era_sets_are_pinned() {
        use KernelEra::*;
        let pinned: [(KernelEra, &[&str]); 8] = [
            (
                V3_12,
                &[
                    "link_fsync_stale_inode",
                    "append_after_link_stale_extent",
                    "punch_hole_not_logged",
                    "xattr_removal_not_logged",
                    "symlink_target_not_logged",
                    "ranged_msync_clears_dirty",
                    "fsync_renamed_file_skips_new_name",
                    "rename_source_not_logged",
                    "fsync_logs_sibling_dentries",
                    "dir_fsync_misses_renames",
                    "replay_dup_dentry_double_count",
                    "replay_skips_dentry_removal_multilink",
                    "replay_keeps_old_dentry_after_rename",
                    "name_reuse_breaks_replay",
                    "replay_resets_inode_allocator",
                ],
            ),
            (
                V3_13,
                &[
                    "link_fsync_stale_inode",
                    "append_after_link_stale_extent",
                    "falloc_keep_size_not_logged",
                    "punch_hole_not_logged",
                    "xattr_removal_not_logged",
                    "symlink_target_not_logged",
                    "ranged_msync_clears_dirty",
                    "fsync_skips_other_names",
                    "fsync_renamed_file_skips_new_name",
                    "rename_source_not_logged",
                    "fsync_logs_sibling_dentries",
                    "dir_fsync_skips_new_subdirs",
                    "dir_fsync_misses_renames",
                    "rename_over_logged_skips_new_inode",
                    "replay_dup_dentry_double_count",
                    "replay_skips_dentry_removal_multilink",
                    "replay_keeps_old_dentry_after_rename",
                    "name_reuse_breaks_replay",
                    "replay_resets_inode_allocator",
                ],
            ),
            (
                V3_16,
                &[
                    "link_fsync_stale_inode",
                    "append_after_link_stale_extent",
                    "falloc_keep_size_not_logged",
                    "punch_hole_not_logged",
                    "xattr_removal_not_logged",
                    "symlink_target_not_logged",
                    "fsync_skips_other_names",
                    "fsync_renamed_file_skips_new_name",
                    "rename_source_not_logged",
                    "fsync_logs_sibling_dentries",
                    "dir_fsync_skips_new_files",
                    "dir_fsync_skips_new_subdirs",
                    "dir_fsync_misses_renames",
                    "rename_over_logged_skips_new_inode",
                    "replay_skips_dentry_removal_multilink",
                    "replay_keeps_old_dentry_after_rename",
                    "name_reuse_breaks_replay",
                    "replay_resets_inode_allocator",
                ],
            ),
            (
                V4_1_1,
                &[
                    "append_after_link_stale_extent",
                    "falloc_keep_size_not_logged",
                    "punch_hole_not_logged",
                    "symlink_target_not_logged",
                    "fsync_skips_other_names",
                    "fsync_renamed_file_skips_new_name",
                    "rename_source_not_logged",
                    "fsync_logs_sibling_dentries",
                    "dir_fsync_skips_new_files",
                    "dir_fsync_skips_new_subdirs",
                    "dir_fsync_misses_renames",
                    "rename_over_logged_skips_new_inode",
                    "replay_skips_dentry_removal_multilink",
                    "replay_keeps_old_dentry_after_rename",
                    "name_reuse_breaks_replay",
                    "replay_resets_inode_allocator",
                ],
            ),
            (
                V4_4,
                &[
                    "falloc_keep_size_not_logged",
                    "symlink_target_not_logged",
                    "fsync_skips_other_names",
                    "fsync_renamed_file_skips_new_name",
                    "rename_source_not_logged",
                    "dir_fsync_skips_new_files",
                    "dir_fsync_skips_new_subdirs",
                    "dir_fsync_misses_renames",
                    "rename_over_logged_skips_new_inode",
                    "replay_keeps_old_dentry_after_rename",
                    "name_reuse_breaks_replay",
                    "replay_resets_inode_allocator",
                ],
            ),
            (
                V4_15,
                &[
                    "falloc_keep_size_not_logged",
                    "fsync_skips_other_names",
                    "dir_fsync_skips_new_files",
                    "dir_fsync_skips_new_subdirs",
                    "dir_fsync_misses_renames",
                    "rename_over_logged_skips_new_inode",
                    "replay_keeps_old_dentry_after_rename",
                    "name_reuse_breaks_replay",
                    "replay_resets_inode_allocator",
                ],
            ),
            (
                V4_16,
                &[
                    "falloc_keep_size_not_logged",
                    "fsync_skips_other_names",
                    "durable_rename_resurrects_old_inode",
                    "dir_fsync_skips_new_files",
                    "dir_fsync_skips_new_subdirs",
                    "dir_fsync_misses_renames",
                    "rename_over_logged_skips_new_inode",
                    "replay_keeps_old_dentry_after_rename",
                ],
            ),
            (Patched, &[]),
        ];
        for (era, ids) in pinned {
            assert_eq!(
                CowBugs::for_era(era).enabled().collect::<Vec<_>>(),
                ids,
                "{era}"
            );
        }
        assert_eq!(CowBugs::all().enabled().count(), 21);
        let unique: std::collections::HashSet<_> = CowBugs::MUTANTS.iter().map(|m| m.id).collect();
        assert_eq!(unique.len(), CowBugs::MUTANTS.len(), "ids are unique");
    }

    #[test]
    fn durable_rename_resurrection_is_evaluation_kernel_only() {
        assert!(CowBugs::for_era(KernelEra::V4_16).durable_rename_resurrects_old_inode);
        assert!(!CowBugs::for_era(KernelEra::V4_15).durable_rename_resurrects_old_inode);
        assert!(!CowBugs::for_era(KernelEra::Patched).durable_rename_resurrects_old_inode);
    }
}
