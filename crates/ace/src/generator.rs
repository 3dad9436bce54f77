//! The streaming workload generator: a pure odometer machine over the
//! phase-1/2/3 combination space, finishing each candidate with phase 4 and
//! yielding valid workloads one at a time. No phase output is ever
//! materialized: generation state is a few hundred bytes regardless of how
//! many millions of workloads a bound expands to.
//!
//! The candidate space is totally ordered (skeletons outermost, then
//! phase-2 argument choices, then phase-3 persistence choices, rightmost
//! position fastest), which makes it *addressable*: [`WorkloadGenerator::skip_to`]
//! positions the generator at any global candidate index in
//! O(log |skeletons| + seq_len), and [`Bounds::shard`] splits the space into
//! deterministic, independently enumerable chunks whose concatenation is
//! exactly the unsharded enumeration — including workload names.
//!
//! Phase 4 rides the odometer. The generator keeps one [`SimState`] per op
//! position along `c1 p1 c2 p2 …` (core op, its persistence choice, next
//! core op, …) and, when the odometer moves, re-simulates only from the
//! first position whose digit changed. The states and the table's ops are
//! over the [`SpaceTable`]'s interned paths, so re-simulating a slot copies
//! a state into a warm buffer and allocates nothing; setup ops become
//! [`Op`]s only for a built candidate. A prefix phase 4 rejects takes every
//! candidate that shares it along: the subtree is discarded by cursor
//! arithmetic, without assembling any of its members. Nothing is built —
//! no op vector, no name, no [`Workload`] — until a caller asks for the
//! parked candidate ([`WorkloadGenerator::workload`]), so a caller that only
//! needs to *count* a block of candidates ([`WorkloadGenerator::count_block`],
//! how a representative sweep prunes a non-representative core) pays for
//! the simulation alone.

use std::sync::Arc;

use b3_vfs::workload::{Op, Workload};

use crate::bounds::Bounds;
use crate::canon::Classifier;
use crate::phases::phase4_dependencies;
use crate::sim::{SimOutcome, SimState};
use crate::table::{bump, SpaceTable};

/// Counters describing one generation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenerationStats {
    /// Skeletons produced by phase 1 (for a shard: the whole space's count).
    pub skeletons: u64,
    /// Candidate workloads examined (phase 2 × phase 3 combinations),
    /// including those discarded a subtree at a time.
    pub candidates: u64,
    /// Candidates discarded by phase 4 as impossible to execute.
    pub discarded: u64,
    /// Valid workloads found: emitted, or counted by
    /// [`WorkloadGenerator::count_block`] without being built.
    pub emitted: u64,
    /// Operations simulated by phase 4 (re-simulating every candidate from
    /// an empty namespace would be `candidates × ops per candidate`).
    pub sim_applies: u64,
    /// Rejected prefixes whose candidates were discarded by cursor
    /// arithmetic (a prefix cut by a range boundary counts on both sides).
    pub subtrees_discarded: u64,
    /// Cores (phase-2 digit tuples) the installed classifier was asked
    /// about — once per core with at least one valid candidate.
    pub cores_classified: u64,
    /// Of those, the cores that are not their class's representative.
    pub cores_pruned: u64,
}

/// One deterministic chunk of a bounded workload space.
///
/// Produced by [`Bounds::shard`] / [`Bounds::shards`]; consumed by
/// [`WorkloadGenerator::for_shard`]. Shards partition the *candidate* space
/// (phase 1 × 2 × 3, before phase-4 filtering), so every shard can be
/// enumerated without touching any other shard's state, and
/// `shards(n)` concatenated in order reproduces the unsharded stream
/// exactly, workload names included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadShard {
    /// Shard number, `0..of`.
    pub index: usize,
    /// Total number of shards in this split.
    pub of: usize,
    /// First global candidate index covered (inclusive).
    pub start: u64,
    /// One past the last global candidate index covered.
    pub end: u64,
}

impl WorkloadShard {
    /// Number of candidates this shard covers.
    pub fn candidates(&self) -> u64 {
        self.end - self.start
    }

    /// True when the shard covers no candidates at all.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

impl Bounds {
    /// Splits the bounded candidate space into `of` near-equal shards and
    /// returns shard `index` (zero-based). Builds the bounds'
    /// [`SpaceTable`]; callers cutting many shards should build it once and
    /// use [`SpaceTable::shard`].
    ///
    /// # Panics
    /// Panics when `index >= of` or `of == 0`.
    pub fn shard(&self, index: usize, of: usize) -> WorkloadShard {
        SpaceTable::new(self).shard(index, of)
    }

    /// All `of` shards of this space, in order.
    pub fn shards(&self, of: usize) -> Vec<WorkloadShard> {
        let table = SpaceTable::new(self);
        (0..of).map(|i| table.shard(i, of)).collect()
    }
}

/// One valid candidate a [`WorkloadGenerator`] is parked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leaf {
    /// Global candidate index (0-based). The candidate's workload name ends
    /// in `index + 1`.
    pub index: u64,
    /// False when the installed [`Classifier`] says the candidate's core is
    /// not its class's representative — constant over the core's whole
    /// persistence block. Always true without a classifier.
    pub representative: bool,
}

/// The phase-4 trunk: the namespace after every op position of the last
/// simulated candidate, `c1 p1 c2 p2 …`.
struct SimStack {
    /// `states[k]` is the namespace after the first `k` slots (`states[0]`
    /// stays empty); `2 * seq_len + 1` entries.
    states: Vec<SimState>,
    /// The digit of each slot that `states` was simulated for, under the
    /// generator's current skeleton. `digits.len()` slots are valid.
    digits: Vec<usize>,
}

/// A lazy, exhaustive, addressable workload generator for one [`Bounds`]
/// configuration (optionally restricted to a candidate range — a shard).
///
/// As an [`Iterator`] it yields every valid workload. The block-level API
/// underneath — [`next_leaf`](Self::next_leaf), [`workload`](Self::workload),
/// [`count_block`](Self::count_block) — is the same machine, for callers
/// that do not need every candidate built.
pub struct WorkloadGenerator {
    table: Arc<SpaceTable>,
    /// The core filter: asked once per core, reported on every [`Leaf`].
    classifier: Option<Arc<Classifier>>,
    /// The odometers. They describe candidate `cursor` whenever
    /// `cursor < end`; past the end of the space they are stale.
    skeleton: usize,
    core: Vec<usize>,
    persist: Vec<usize>,
    /// Per-position radices of the current skeleton.
    core_radix: Vec<u64>,
    persist_radix: Vec<u64>,
    /// Global index of the candidate the odometers describe.
    cursor: u64,
    /// True when candidate `cursor` was handed out as a [`Leaf`] (and is
    /// counted in `stats`); the next step moves past it first.
    parked: bool,
    /// One past the last candidate this generator may examine.
    end: u64,
    sim: SimStack,
    /// The last classified core block: (its first candidate, its verdict).
    verdict: Option<(u64, bool)>,
    stats: GenerationStats,
}

impl WorkloadGenerator {
    /// Creates a generator for the whole space of the given bounds.
    pub fn new(bounds: Bounds) -> Self {
        Self::with_range(bounds, 0, u64::MAX)
    }

    /// Creates a generator for one shard of the bounded space.
    pub fn for_shard(bounds: Bounds, shard: &WorkloadShard) -> Self {
        Self::with_range(bounds, shard.start, shard.end)
    }

    /// Creates a generator restricted to global candidate indices
    /// `start..end`.
    pub fn with_range(bounds: Bounds, start: u64, end: u64) -> Self {
        Self::on_table(SpaceTable::new(&bounds), start, end)
    }

    /// Creates a generator over `start..end` of an already built table —
    /// what a sweep uses, so its shards do not each rebuild the tables.
    pub fn on_table(table: Arc<SpaceTable>, start: u64, end: u64) -> Self {
        let seq_len = table.bounds().seq_len;
        let mut generator = WorkloadGenerator {
            classifier: None,
            skeleton: usize::MAX,
            core: vec![0; seq_len],
            persist: vec![0; seq_len],
            core_radix: Vec::with_capacity(seq_len),
            persist_radix: Vec::with_capacity(seq_len),
            cursor: 0,
            parked: false,
            end: end.min(table.total()),
            sim: SimStack {
                states: vec![SimState::new(table.paths()); 2 * seq_len + 1],
                digits: Vec::with_capacity(2 * seq_len),
            },
            verdict: None,
            stats: GenerationStats {
                skeletons: table.num_skeletons() as u64,
                ..GenerationStats::default()
            },
            table,
        };
        generator.seek(start);
        generator
    }

    /// Installs the core filter: every [`Leaf`] reports whether its core is
    /// its equivalence class's representative, decided once per core.
    ///
    /// # Panics
    /// Panics when the classifier was built for other bounds.
    pub fn classified_by(mut self, classifier: Arc<Classifier>) -> Self {
        assert!(
            classifier.bounds() == self.table.bounds(),
            "the classifier belongs to different bounds"
        );
        self.classifier = Some(classifier);
        self
    }

    /// Statistics so far (complete once the iterator is exhausted). For a
    /// sharded generator the candidate/emitted/discarded counters cover only
    /// this shard.
    pub fn stats(&self) -> GenerationStats {
        self.stats
    }

    /// The bounds this generator explores.
    pub fn bounds(&self) -> &Bounds {
        self.table.bounds()
    }

    /// The global candidate index of the next candidate to be examined.
    pub fn cursor(&self) -> u64 {
        self.cursor + u64::from(self.parked)
    }

    /// Repositions the generator at the given global candidate index without
    /// enumerating the candidates before it. Runs in
    /// O(log |skeletons| + seq_len); the skipped candidates do not appear in
    /// [`GenerationStats`].
    pub fn skip_to(&mut self, index: u64) {
        self.seek(index);
    }

    /// The exact number of candidate workloads the bounds expand to
    /// (before phase-4 filtering), computed analytically without walking the
    /// space.
    pub fn estimate_candidates(bounds: &Bounds) -> u64 {
        SpaceTable::new(bounds).total()
    }

    /// Parks on the next valid candidate of the range and reports it; `None`
    /// once the range is exhausted. Nothing is built: ask
    /// [`workload`](Self::workload) for the candidate, or
    /// [`count_block`](Self::count_block) to count its core block instead.
    pub fn next_leaf(&mut self) -> Option<Leaf> {
        if !self.park(self.end) {
            return None;
        }
        Some(Leaf {
            index: self.cursor,
            representative: self.core_is_representative(),
        })
    }

    /// Builds the parked candidate: its ops, its phase-4 setup (read off the
    /// simulation that validated it) and its name.
    ///
    /// # Panics
    /// Panics when the generator is not parked on a candidate.
    pub fn workload(&self) -> Workload {
        assert!(self.parked, "no parked candidate: call next_leaf first");
        let setup = self.sim.states[self.sim.digits.len()].setup_ops(self.table.paths());
        let name = self.table.workload_name(self.cursor);
        let workload = Workload::with_setup(name, setup, self.assemble());
        debug_assert_eq!(
            Some(&workload),
            phase4_dependencies(&workload.name, workload.ops.clone(), self.bounds()).as_ref(),
            "the incremental simulation diverged from phase 4"
        );
        workload
    }

    /// Counts the parked candidate plus the valid candidates after it in its
    /// core block (the candidates sharing its phase-2 digits) and range,
    /// without building any of them, and leaves the generator past the
    /// block.
    ///
    /// # Panics
    /// Panics when the generator is not parked on a candidate.
    pub fn count_block(&mut self) -> u64 {
        assert!(self.parked, "no parked candidate: call next_leaf first");
        let (_, block_end) = self.block();
        let limit = block_end.min(self.end);
        let mut valid = 1;
        while self.park(limit) {
            valid += 1;
        }
        valid
    }

    /// The core block holding candidate `cursor`: first index, one past the
    /// last.
    fn block(&self) -> (u64, u64) {
        let per_core: u64 = self.persist_radix.iter().product();
        let start = self.table.skeleton_start(self.skeleton);
        let block_start = start + (self.cursor - start) / per_core * per_core;
        (block_start, block_start + per_core)
    }

    /// Positions the odometers at global candidate index `index`.
    fn seek(&mut self, index: u64) {
        self.cursor = index;
        self.parked = false;
        let Some(skeleton) = self.table.skeleton_containing(index) else {
            return;
        };
        if skeleton != self.skeleton {
            self.skeleton = skeleton;
            self.sim.digits.clear();
            self.core_radix.clear();
            self.core_radix.extend(self.table.core_radix(skeleton));
            self.persist_radix.clear();
            self.persist_radix
                .extend(self.table.persist_radix(skeleton));
        }
        // Within a skeleton the index is one mixed-radix number: argument
        // digits above persistence digits, rightmost position fastest.
        let mut rest = index - self.table.skeleton_start(skeleton);
        for (digit, radix) in self.persist.iter_mut().zip(&self.persist_radix).rev() {
            *digit = (rest % radix) as usize;
            rest /= radix;
        }
        for (digit, radix) in self.core.iter_mut().zip(&self.core_radix).rev() {
            *digit = (rest % radix) as usize;
            rest /= radix;
        }
    }

    /// Moves the odometers to the next candidate: persistence digits first,
    /// then arguments, then the next non-empty skeleton.
    fn advance(&mut self) {
        self.cursor += 1;
        let moved = bump(&mut self.persist, |i| self.persist_radix[i])
            || bump(&mut self.core, |i| self.core_radix[i]);
        if !moved {
            self.seek(self.cursor);
        }
    }

    /// Parks on the next valid candidate before `limit`; false (and
    /// unparked at `limit` or beyond) when there is none.
    fn park(&mut self, limit: u64) -> bool {
        if self.parked {
            self.parked = false;
            self.advance();
        }
        while self.cursor < limit {
            match self.simulate() {
                Ok(()) => {
                    self.parked = true;
                    self.stats.candidates += 1;
                    self.stats.emitted += 1;
                    return true;
                }
                Err(slot) => self.discard_subtree(slot, limit),
            }
        }
        false
    }

    /// Brings the trunk up to candidate `cursor`, re-simulating from the
    /// first slot whose digit differs from what the trunk holds. `Err(slot)`
    /// when phase 4 rejects the op at `slot`.
    fn simulate(&mut self) -> Result<(), usize> {
        let table = &*self.table;
        let kinds = table.skeleton_kinds(self.skeleton);
        let (core, persist) = (&self.core, &self.persist);
        let digit = |slot: usize| [core, persist][slot % 2][slot / 2];
        let sim = &mut self.sim;
        let shared = sim
            .digits
            .iter()
            .enumerate()
            .take_while(|&(slot, &simulated)| simulated == digit(slot))
            .count();
        sim.digits.truncate(shared);
        for slot in shared..2 * kinds.len() {
            let position = slot / 2;
            let kind = table.kind(kinds[position]);
            let op = if slot % 2 == 0 {
                Some(kind.sim_candidates[core[position]])
            } else {
                let is_last = position + 1 == kinds.len();
                kind.sim_persistence[core[position]][usize::from(is_last)][persist[position]]
            };
            let (below, above) = sim.states.split_at_mut(slot + 1);
            above[0].clone_from(&below[slot]);
            if let Some(op) = op {
                self.stats.sim_applies += 1;
                if above[0].apply(op, table.paths()).is_err() {
                    return Err(slot);
                }
            }
            sim.digits.push(digit(slot));
        }
        Ok(())
    }

    /// Discards, by cursor arithmetic, the candidates from `cursor` on that
    /// share the prefix phase 4 rejected at `slot`: within the core block,
    /// every persistence choice of the positions after the rejected slot.
    /// (Argument digits are outside the persistence digits in enumeration
    /// order, so the candidates sharing the prefix under other later
    /// arguments are not contiguous with these.) Stops at `limit`.
    fn discard_subtree(&mut self, slot: usize, limit: u64) {
        debug_assert!(
            matches!(
                SimState::plan(&self.assemble(), &self.bounds().files),
                SimOutcome::Invalid(_)
            ),
            "phase 4 accepts candidate {} of a discarded subtree",
            self.cursor
        );
        let free: u64 = self.persist_radix[slot.div_ceil(2)..].iter().product();
        let start = self.table.skeleton_start(self.skeleton);
        let subtree_end = start + ((self.cursor - start) / free + 1) * free;
        let stop = subtree_end.min(limit);
        self.stats.candidates += stop - self.cursor;
        self.stats.discarded += stop - self.cursor;
        self.stats.subtrees_discarded += 1;
        self.seek(stop);
    }

    /// The installed classifier's verdict on the parked candidate's core,
    /// asked once per core block.
    fn core_is_representative(&mut self) -> bool {
        let Some(classifier) = &self.classifier else {
            return true;
        };
        let (block, _) = self.block();
        if let Some((_, verdict)) = self.verdict.filter(|(classified, _)| *classified == block) {
            return verdict;
        }
        let verdict = classifier
            .classify_core(self.skeleton, &self.core)
            .is_representative();
        debug_assert_eq!(
            classifier
                .classify(&self.assemble())
                .map(|class| class.is_representative()),
            Some(verdict),
            "the per-core verdict diverged from the per-candidate classifier"
        );
        self.stats.cores_classified += 1;
        self.stats.cores_pruned += u64::from(!verdict);
        self.verdict = Some((block, verdict));
        verdict
    }

    /// Assembles the candidate op sequence at the current odometer position.
    fn assemble(&self) -> Vec<Op> {
        let kinds = self.table.skeleton_kinds(self.skeleton);
        let mut ops = Vec::with_capacity(kinds.len() * 2);
        for (position, &kind) in kinds.iter().enumerate() {
            let kind = self.table.kind(kind);
            let core = self.core[position];
            let is_last = position + 1 == kinds.len();
            ops.push(kind.candidates[core].clone());
            ops.extend(
                kind.persistence[core][usize::from(is_last)][self.persist[position]].clone(),
            );
        }
        ops
    }
}

impl Iterator for WorkloadGenerator {
    type Item = Workload;

    fn next(&mut self) -> Option<Workload> {
        self.next_leaf().map(|_| self.workload())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::{
        persistence_options, phase1_skeletons, phase2_candidates, phase2_parameters,
        phase3_persistence,
    };
    use crate::table::persistence_option_count;

    #[test]
    fn tiny_bounds_generate_quickly_and_deterministically() {
        let first: Vec<Workload> = WorkloadGenerator::new(Bounds::tiny()).collect();
        let second: Vec<Workload> = WorkloadGenerator::new(Bounds::tiny()).collect();
        assert_eq!(first, second, "generation must be deterministic");
        assert!(!first.is_empty());
        for workload in &first {
            assert!(workload.ends_with_persistence_point());
            assert_eq!(workload.sequence_length(), 1);
        }
    }

    #[test]
    fn stats_account_for_every_candidate() {
        let mut generator = WorkloadGenerator::new(Bounds::tiny());
        let emitted = generator.by_ref().count() as u64;
        let stats = generator.stats();
        assert_eq!(stats.emitted, emitted);
        assert_eq!(stats.candidates, stats.emitted + stats.discarded);
        assert!(stats.skeletons > 0);

        // The same holds when subtrees are discarded unexamined, member
        // blocks are counted unbuilt and the space is entered mid-way: two
        // operations over three interchangeable files.
        let mut bounds = Bounds::tiny();
        bounds.seq_len = 2;
        bounds.files = b3_vfs::workload::FileSet::new(
            Vec::new(),
            vec!["foo".into(), "bar".into(), "baz".into()],
        );
        let total = WorkloadGenerator::estimate_candidates(&bounds);
        let entry = total / 3;
        let mut plain = WorkloadGenerator::new(bounds.clone());
        plain.skip_to(entry);
        let from_scratch: u64 = plain.map(|workload| workload.ops.len() as u64).sum();
        let classifier = Arc::new(Classifier::new(&bounds));
        let mut generator = WorkloadGenerator::new(bounds).classified_by(classifier);
        generator.skip_to(entry);
        let mut valid = 0;
        while let Some(leaf) = generator.next_leaf() {
            valid += if leaf.representative {
                1
            } else {
                generator.count_block()
            };
        }
        let stats = generator.stats();
        assert_eq!(generator.cursor(), total);
        assert_eq!(
            stats.candidates,
            total - entry,
            "skipped-over candidates do not count"
        );
        assert_eq!(stats.emitted, valid);
        assert_eq!(stats.candidates, stats.emitted + stats.discarded);
        assert!(0 < stats.subtrees_discarded && stats.subtrees_discarded < stats.discarded);
        assert!(0 < stats.cores_pruned && stats.cores_pruned < stats.cores_classified);
        assert!(
            stats.sim_applies < from_scratch,
            "{} applies against {from_scratch} from scratch",
            stats.sim_applies
        );
    }

    #[test]
    fn estimate_is_an_upper_bound_on_emitted() {
        let bounds = Bounds::tiny();
        let estimate = WorkloadGenerator::estimate_candidates(&bounds);
        let mut generator = WorkloadGenerator::new(bounds);
        let emitted = generator.by_ref().count() as u64;
        let candidates = generator.stats().candidates;
        assert_eq!(estimate, candidates);
        assert!(estimate >= emitted);
    }

    #[test]
    fn seq1_estimate_matches_exhaustive_walk() {
        let bounds = Bounds::paper_seq1();
        let estimate = WorkloadGenerator::estimate_candidates(&bounds);
        let mut generator = WorkloadGenerator::new(bounds);
        let _ = generator.by_ref().count();
        assert_eq!(generator.stats().candidates, estimate);
    }

    /// The streaming odometer must enumerate candidates in exactly the
    /// order of the eager phase pipeline (phase 1 → 2 → 3 in sequence).
    #[test]
    fn streaming_order_matches_eager_phases() {
        for bounds in [Bounds::tiny(), Bounds::paper_seq1()] {
            let mut eager: Vec<Workload> = Vec::new();
            let mut candidate = 0u64;
            for skeleton in phase1_skeletons(&bounds) {
                for core in phase2_parameters(&skeleton, &bounds) {
                    for ops in phase3_persistence(&core, &bounds) {
                        candidate += 1;
                        let name = format!("{}-{:07}", bounds.name_prefix, candidate);
                        if let Some(w) = phase4_dependencies(&name, ops, &bounds) {
                            eager.push(w);
                        }
                    }
                }
            }
            let streamed: Vec<Workload> = WorkloadGenerator::new(bounds).collect();
            assert_eq!(streamed, eager);
        }
    }

    #[test]
    fn skip_to_agrees_with_plain_enumeration() {
        let bounds = Bounds::tiny();
        let all: Vec<Workload> = WorkloadGenerator::new(bounds.clone()).collect();
        let total = WorkloadGenerator::estimate_candidates(&bounds);
        for start in [0u64, 1, total / 2, total.saturating_sub(1), total] {
            let mut skipped = WorkloadGenerator::new(bounds.clone());
            skipped.skip_to(start);
            let tail: Vec<Workload> = skipped.collect();
            let expected: Vec<Workload> = WorkloadGenerator::new(bounds.clone())
                .skip_while(|w| {
                    let index: u64 = w
                        .name
                        .rsplit('-')
                        .next()
                        .unwrap()
                        .parse()
                        .expect("workload names end in the candidate index");
                    index <= start
                })
                .collect();
            assert_eq!(tail, expected, "skip_to({start})");
            assert!(tail.len() <= all.len());
        }
    }

    #[test]
    fn concatenated_shards_equal_unsharded_enumeration() {
        for num_shards in [1usize, 2, 3, 7] {
            let bounds = Bounds::tiny();
            let mut sharded: Vec<Workload> = Vec::new();
            for shard in bounds.shards(num_shards) {
                sharded.extend(WorkloadGenerator::for_shard(bounds.clone(), &shard));
            }
            let unsharded: Vec<Workload> = WorkloadGenerator::new(bounds).collect();
            assert_eq!(sharded, unsharded, "{num_shards} shards");
        }
    }

    #[test]
    fn shards_partition_the_candidate_space() {
        let bounds = Bounds::paper_seq2();
        let total = WorkloadGenerator::estimate_candidates(&bounds);
        let shards = bounds.shards(16);
        assert_eq!(shards[0].start, 0);
        assert_eq!(shards.last().unwrap().end, total);
        for pair in shards.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        let covered: u64 = shards.iter().map(WorkloadShard::candidates).sum();
        assert_eq!(covered, total);
    }

    #[test]
    fn empty_op_set_is_exhausted_and_skip_to_does_not_panic() {
        let bounds = Bounds::tiny().with_ops(Vec::new());
        assert_eq!(WorkloadGenerator::estimate_candidates(&bounds), 0);
        let mut generator = WorkloadGenerator::new(bounds);
        assert!(generator.next().is_none());
        generator.skip_to(5);
        assert!(generator.next().is_none());
    }

    #[test]
    fn persistence_counts_match_options() {
        // The analytic count must stay in lock-step with the option builder
        // for every kind in every preset, else sharding arithmetic drifts.
        for preset in crate::bounds::SequencePreset::ALL {
            let bounds = preset.bounds();
            for kind in &bounds.ops {
                for candidate in phase2_candidates(*kind, &bounds) {
                    for is_last in [false, true] {
                        let options = persistence_options(&candidate, is_last, &bounds);
                        let count = persistence_option_count(*kind, is_last, &bounds);
                        assert_eq!(options.len() as u64, count, "{kind:?} is_last={is_last}");
                    }
                }
            }
        }
    }
}
