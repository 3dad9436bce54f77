//! The enumeration tables of one [`Bounds`]: everything the odometer
//! arithmetic needs that is a pure function of the bounds, built once and
//! shared (`Arc`) by every [`WorkloadGenerator`](crate::WorkloadGenerator)
//! and the [`Classifier`](crate::Classifier) of a sweep.
//!
//! The candidate space is totally ordered — skeletons outermost (a
//! rightmost-fastest odometer over `bounds.ops`), then the phase-2 argument
//! digits, then the phase-3 persistence digits — so a global candidate index
//! decomposes as `prefix(skeleton) + core_index * per_core + persist_index`.
//! The table holds the per-kind digit alphabets (phase-2 candidates and the
//! phase-3 options each of them admits), the per-skeleton prefix sums, and
//! the phase-4 path table every option is resolved against.

use std::collections::HashMap;
use std::sync::Arc;

use b3_vfs::workload::{Op, OpKind};

use crate::bounds::Bounds;
use crate::generator::WorkloadShard;
use crate::phases::{persistence_options, phase2_candidates};
use crate::sim::{Paths, SimOp};

/// The digit alphabet of one operation kind.
pub(crate) struct KindTable {
    /// Phase-2 argument candidates: core digit `i` selects `candidates[i]`.
    pub(crate) candidates: Vec<Op>,
    /// Inverse of `candidates`.
    pub(crate) index: HashMap<Op, usize>,
    /// Phase-3 options of each candidate, `[not last, last]`: persistence
    /// digit `p` after core digit `i` selects `persistence[i][is_last][p]`.
    pub(crate) persistence: Vec<[Vec<Option<Op>>; 2]>,
    /// Phase-3 option count `[not last, last]` — the same for every
    /// candidate of the kind.
    pub(crate) persist_radix: [u64; 2],
    /// `candidates` resolved against the table's [`Paths`].
    pub(crate) sim_candidates: Vec<SimOp>,
    /// `persistence` resolved against the table's [`Paths`].
    pub(crate) sim_persistence: Vec<[Vec<Option<SimOp>>; 2]>,
}

/// The shared per-[`Bounds`] enumeration tables.
pub struct SpaceTable {
    bounds: Bounds,
    /// Aligned with `bounds.ops`.
    kinds: Vec<KindTable>,
    /// Kind indices (into `bounds.ops`) of every skeleton, `seq_len` per
    /// skeleton, in enumeration order.
    skeleton_kinds: Vec<usize>,
    /// `prefix[s]` is the global index of skeleton `s`'s first candidate;
    /// the final entry is the size of the whole space.
    prefix: Vec<u64>,
    /// Every path phase 4 can meet in the space.
    paths: Paths,
}

impl SpaceTable {
    /// Builds the tables for `bounds`.
    pub fn new(bounds: &Bounds) -> Arc<SpaceTable> {
        let mut kinds: Vec<KindTable> = bounds
            .ops
            .iter()
            .map(|kind| {
                let candidates = phase2_candidates(*kind, bounds);
                let persist_radix =
                    [false, true].map(|is_last| persistence_option_count(*kind, is_last, bounds));
                let persistence: Vec<[Vec<Option<Op>>; 2]> = candidates
                    .iter()
                    .map(|op| [false, true].map(|is_last| persistence_options(op, is_last, bounds)))
                    .collect();
                // Sharding arithmetic relies on the analytic count and the
                // option builder staying in lock-step.
                debug_assert!(persistence.iter().all(|options| {
                    options[0].len() as u64 == persist_radix[0]
                        && options[1].len() as u64 == persist_radix[1]
                }));
                let index = candidates
                    .iter()
                    .enumerate()
                    .map(|(i, op)| (op.clone(), i))
                    .collect();
                KindTable {
                    candidates,
                    index,
                    persistence,
                    persist_radix,
                    sim_candidates: Vec::new(),
                    sim_persistence: Vec::new(),
                }
            })
            .collect();
        // A candidate holds at most one rename per core op.
        let options = kinds.iter().flat_map(|kind| {
            let persistence = kind.persistence.iter().flatten().flatten().flatten();
            kind.candidates.iter().chain(persistence)
        });
        let paths = Paths::new(&bounds.files, options, bounds.seq_len);
        for kind in &mut kinds {
            kind.sim_candidates = kind.candidates.iter().map(|op| paths.resolve(op)).collect();
            kind.sim_persistence = kind
                .persistence
                .iter()
                .map(|options| {
                    options.each_ref().map(|options| {
                        options
                            .iter()
                            .map(|option| option.as_ref().map(|op| paths.resolve(op)))
                            .collect()
                    })
                })
                .collect();
        }

        let seq_len = bounds.seq_len;
        let mut skeleton_kinds = Vec::new();
        let mut prefix = vec![0u64];
        if !bounds.ops.is_empty() || seq_len == 0 {
            let mut digits = vec![0usize; seq_len];
            loop {
                let mut product = 1u64;
                for (position, &kind) in digits.iter().enumerate() {
                    let table = &kinds[kind];
                    product = product
                        .saturating_mul(table.candidates.len() as u64)
                        .saturating_mul(table.persist_radix[usize::from(position + 1 == seq_len)]);
                }
                let start = *prefix.last().expect("prefix starts non-empty");
                prefix.push(start.saturating_add(product));
                skeleton_kinds.extend_from_slice(&digits);
                if !bump(&mut digits, |_| bounds.ops.len() as u64) {
                    break;
                }
            }
        }
        Arc::new(SpaceTable {
            bounds: bounds.clone(),
            kinds,
            skeleton_kinds,
            prefix,
            paths,
        })
    }

    /// The bounds these tables describe.
    pub fn bounds(&self) -> &Bounds {
        &self.bounds
    }

    /// The exact number of candidate workloads the bounds expand to (before
    /// phase-4 filtering).
    pub fn total(&self) -> u64 {
        *self.prefix.last().expect("prefix is never empty")
    }

    /// Skeletons produced by phase 1.
    pub fn num_skeletons(&self) -> usize {
        self.prefix.len() - 1
    }

    /// Shard `index` of `of` near-equal shards of the candidate space (see
    /// [`Bounds::shard`]).
    ///
    /// # Panics
    /// Panics when `index >= of` or `of == 0`.
    pub fn shard(&self, index: usize, of: usize) -> WorkloadShard {
        assert!(of > 0, "cannot split a space into zero shards");
        assert!(index < of, "shard index {index} out of range 0..{of}");
        let total = self.total() as u128;
        WorkloadShard {
            index,
            of,
            start: (total * index as u128 / of as u128) as u64,
            end: (total * (index as u128 + 1) / of as u128) as u64,
        }
    }

    /// The workload name of the candidate at a global index (names are
    /// 1-based zero-padded enumeration indices).
    pub fn workload_name(&self, index: u64) -> String {
        format!("{}-{:07}", self.bounds.name_prefix, index + 1)
    }

    pub(crate) fn kind(&self, kind: usize) -> &KindTable {
        &self.kinds[kind]
    }

    /// The path table the kinds' `sim_*` ops are resolved against.
    pub(crate) fn paths(&self) -> &Paths {
        &self.paths
    }

    /// Index into `bounds.ops` of an operation kind.
    pub(crate) fn kind_index(&self, kind: OpKind) -> Option<usize> {
        self.bounds.ops.iter().rposition(|k| *k == kind)
    }

    /// Kind indices per sequence position of skeleton `skeleton`.
    pub(crate) fn skeleton_kinds(&self, skeleton: usize) -> &[usize] {
        let len = self.bounds.seq_len;
        &self.skeleton_kinds[skeleton * len..(skeleton + 1) * len]
    }

    /// The skeleton whose kind indices are `kinds` (the inverse of
    /// [`SpaceTable::skeleton_kinds`]).
    pub(crate) fn skeleton_of(&self, kinds: &[usize]) -> usize {
        kinds
            .iter()
            .fold(0, |index, &kind| index * self.bounds.ops.len() + kind)
    }

    /// Global index of skeleton `skeleton`'s first candidate.
    pub(crate) fn skeleton_start(&self, skeleton: usize) -> u64 {
        self.prefix[skeleton]
    }

    /// The skeleton containing global candidate `index`; `None` past the end
    /// of the space. Skeletons with an empty candidate product contain
    /// nothing and are never returned.
    pub(crate) fn skeleton_containing(&self, index: u64) -> Option<usize> {
        let skeleton = self.prefix[1..].partition_point(|&end| end <= index);
        (skeleton < self.num_skeletons()).then_some(skeleton)
    }

    /// Phase-2 radix per position of a skeleton.
    pub(crate) fn core_radix(&self, skeleton: usize) -> impl Iterator<Item = u64> + '_ {
        self.skeleton_kinds(skeleton)
            .iter()
            .map(|&kind| self.kinds[kind].candidates.len() as u64)
    }

    /// Phase-3 radix per position of a skeleton.
    pub(crate) fn persist_radix(&self, skeleton: usize) -> impl Iterator<Item = u64> + '_ {
        let len = self.bounds.seq_len;
        self.skeleton_kinds(skeleton)
            .iter()
            .enumerate()
            .map(move |(position, &kind)| {
                self.kinds[kind].persist_radix[usize::from(position + 1 == len)]
            })
    }

    /// The global candidate index of the digits `(skeleton, core, persist)`.
    pub(crate) fn index_of(&self, skeleton: usize, core: &[usize], persist: &[usize]) -> u64 {
        let mut index = 0u64;
        for (radix, &digit) in self.core_radix(skeleton).zip(core) {
            index = index * radix + digit as u64;
        }
        for (radix, &digit) in self.persist_radix(skeleton).zip(persist) {
            index = index * radix + digit as u64;
        }
        self.prefix[skeleton] + index
    }
}

/// The phase-3 alternatives a single operation admits, without building the
/// option list. Mirrors [`persistence_options`]; the sharding arithmetic
/// relies on the two staying in lock-step, which
/// `generator::tests::persistence_counts_match_options` pins down.
pub(crate) fn persistence_option_count(kind: OpKind, is_last: bool, bounds: &Bounds) -> u64 {
    let choices = &bounds.persistence;
    let mut count = 0u64;
    if choices.fsync {
        count += 1;
    }
    if choices.fdatasync && is_last && kind.is_data_op() {
        count += 1;
    }
    if choices.sync {
        count += 1;
    }
    if !is_last && choices.allow_none {
        count += 1;
    }
    count.max(1)
}

/// Increments a mixed-radix odometer (rightmost digit fastest); returns
/// false when the odometer wrapped around (i.e. it was at its last value).
pub(crate) fn bump(digits: &mut [usize], radix: impl Fn(usize) -> u64) -> bool {
    for position in (0..digits.len()).rev() {
        digits[position] += 1;
        if (digits[position] as u64) < radix(position) {
            return true;
        }
        digits[position] = 0;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_arithmetic_round_trips_through_the_skeleton_lookup() {
        let table = SpaceTable::new(&Bounds::paper_seq2());
        assert_eq!(table.num_skeletons(), 14 * 14);
        for skeleton in 0..table.num_skeletons() {
            assert_eq!(table.skeleton_of(table.skeleton_kinds(skeleton)), skeleton);
            let (start, end) = (table.prefix[skeleton], table.prefix[skeleton + 1]);
            if start < end {
                assert_eq!(table.skeleton_containing(start), Some(skeleton));
                assert_eq!(table.skeleton_containing(end - 1), Some(skeleton));
                let zeros = vec![0; 2];
                assert_eq!(table.index_of(skeleton, &zeros, &zeros), start);
            }
        }
        assert_eq!(table.skeleton_containing(table.total()), None);
    }
}
