//! ACE — the Automatic Crash Explorer.
//!
//! ACE exhaustively generates workloads within user-specified bounds
//! (§5.2 of the paper), in four phases:
//!
//! 1. **Phase 1 — skeletons**: choose the sequence of core file-system
//!    operations (with repetition) from the bounded operation set.
//! 2. **Phase 2 — parameters**: choose the arguments of every operation from
//!    the bounded file set, pruning symmetrical choices (e.g. only one of
//!    `link(foo, bar)` / `link(bar, foo)`).
//! 3. **Phase 3 — persistence points**: optionally follow each operation
//!    with `fsync`/`fdatasync` of one of the files it touches or a global
//!    `sync`; the final operation is always followed by a persistence point
//!    so the workload is not equivalent to a shorter one.
//! 4. **Phase 4 — dependencies**: prepend the `mkdir`/`creat` operations
//!    required for the workload to execute on a POSIX file system, and
//!    discard argument combinations that can never execute successfully.
//!
//! The output is a stream of [`Workload`]s consumed directly by CrashMonkey
//! (the in-process equivalent of the paper's ACE→C++ adapter).

pub mod adapter;
pub mod bounds;
pub mod canon;
pub mod generator;
pub mod phases;
pub mod sim;
pub mod table;

pub use adapter::to_crashmonkey_test;
pub use bounds::{Bounds, PersistenceChoices, SequencePreset};
pub use canon::{
    apply_path_map, forest_automorphisms, Class, Classifier, CoreClass, CANON_VERSION,
};
pub use generator::{GenerationStats, Leaf, WorkloadGenerator};
pub use phases::{phase1_skeletons, phase2_parameters, phase3_persistence, phase4_dependencies};
pub use table::SpaceTable;

use b3_vfs::workload::Workload;

/// Generates every workload within `bounds`, materialized into a vector.
/// For large bounds prefer iterating [`WorkloadGenerator`] lazily.
pub fn generate_all(bounds: &Bounds) -> Vec<Workload> {
    WorkloadGenerator::new(bounds.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use b3_vfs::workload::OpKind;

    #[test]
    fn seq1_workloads_are_generated_and_end_with_persistence() {
        let bounds = Bounds::paper_seq1();
        let workloads = generate_all(&bounds);
        assert!(
            workloads.len() >= 200,
            "expected a few hundred seq-1 workloads, got {}",
            workloads.len()
        );
        for workload in &workloads {
            assert_eq!(workload.sequence_length(), 1, "{workload}");
            assert!(workload.ends_with_persistence_point(), "{workload}");
        }
    }

    #[test]
    fn generated_workload_names_are_unique() {
        use std::collections::HashSet;
        let workloads = generate_all(&Bounds::paper_seq1());
        let names: HashSet<&String> = workloads.iter().map(|w| &w.name).collect();
        assert_eq!(names.len(), workloads.len());
    }

    #[test]
    fn seq2_subset_has_two_core_ops() {
        let mut bounds = Bounds::paper_seq2();
        bounds.ops = vec![OpKind::Link, OpKind::Rename];
        let workloads = generate_all(&bounds);
        assert!(!workloads.is_empty());
        for workload in &workloads {
            assert_eq!(workload.sequence_length(), 2);
        }
    }
}
