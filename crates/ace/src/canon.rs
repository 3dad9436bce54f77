//! Equivalence-class canonicalization for representative sweeps.
//!
//! The bounded spaces ACE enumerates are full of crash-behaviorally
//! equivalent candidates: the paper's default file set (`foo`, `bar`,
//! `A/foo`, `A/bar`, `B/foo`, `B/bar` under directories `A` and `B`) is
//! symmetric under swapping `foo`↔`bar` at every level and swapping the
//! isomorphic directories `A`↔`B`, so `creat foo; fsync foo` and
//! `creat bar; fsync bar` exercise exactly the same file-system logic.
//! Testing one *representative* per equivalence class preserves the set of
//! discovered bug groups while cutting the tested-workload count by the
//! average orbit size (up to 16× for the paper file set) — the lever that
//! opens the seq-4 spaces the paper never reached.
//!
//! Three pieces:
//!
//! * **Automorphisms** ([`Classifier::new`] enumerates them): the
//!   permutations of the bounded [`FileSet`] that preserve its forest
//!   structure — sibling files under one parent may be permuted, and
//!   sibling directories may be swapped when their subtrees are isomorphic
//!   (the swap maps everything inside along). Applying an automorphism to a
//!   workload's operations yields a workload with identical crash behavior
//!   on any path-name-agnostic file system.
//! * **Canonical keys** ([`Classifier::key`]): a first-use relabeling of
//!   every path in the op sequence. Walking the ops in order, each path is
//!   renamed to `d<rank>`/`f<rank>` labels by order of first use among its
//!   parent's used children of that type (see `docs/FORMATS.md` for the
//!   grammar). The key is invariant under every automorphism, so all
//!   members of an orbit share one key.
//! * **Representatives** ([`Classifier::classify`]): a candidate is the
//!   representative of its class iff no automorphism — whose image stays
//!   inside the enumerated candidate space — maps it to a candidate with a
//!   strictly smaller phase-2 digit tuple. Because the automorphism set is
//!   closed under composition, exactly one in-space member of each orbit
//!   passes this test, and it is the orbit's enumeration-minimal member —
//!   so the full sweep's lexicographically-first exemplar per bug group is
//!   always a representative, and a representative-only sweep reproduces
//!   the exact exemplar bytes. The check is purely local to the candidate,
//!   which keeps representative selection stable under any
//!   [`Bounds::shard`] split — and it reads the skeleton and the phase-2
//!   digits only, never the persistence digits, so the verdict is one per
//!   *core* ([`Classifier::classify_core`]): a sweep asks once per core
//!   block and prunes a non-representative block without building it.
//!
//! The scheme is versioned ([`CANON_VERSION`]): the harness mixes the
//! version into checkpoint fingerprints and the distributed job scope, so
//! a coordinator and worker that disagree about what "equivalent" means
//! reject each other instead of silently pruning different candidates.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use b3_vfs::workload::{FileSet, Op, Workload};

use crate::bounds::Bounds;
use crate::phases::phase4_dependencies;
use crate::table::SpaceTable;

/// Version of the canonicalization scheme (key grammar + automorphism
/// definition + representative rule). Bump whenever any of the three
/// changes meaning, so mixed-version sweeps fail the fingerprint check
/// instead of producing an inconsistent prune.
pub const CANON_VERSION: u32 = 1;

/// Safety cap on the enumerated automorphism group. The paper file sets
/// have at most 16 automorphisms; a pathological file set whose group
/// exceeds the cap degrades to the identity-only group (no pruning, still
/// sound) rather than an incomplete — and therefore non-closed — subset.
const MAX_AUTOMORPHISMS: usize = 4096;

/// How [`Classifier::classify`] placed one candidate within its class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Class {
    /// The candidate is its class's representative (the enumeration-minimal
    /// in-space orbit member) and should be tested.
    Representative {
        /// The canonical key shared by every member of the class.
        key: String,
    },
    /// The candidate is a non-representative member; a representative sweep
    /// prunes it.
    Member {
        /// The canonical key shared by every member of the class.
        key: String,
        /// The representative's op sequence (the candidate's ops mapped
        /// through the minimizing automorphism).
        rep_ops: Vec<Op>,
        /// The representative's global candidate index (0-based), from
        /// which its workload name derives.
        rep_index: u64,
    },
}

impl Class {
    /// The canonical key shared by every member of the class.
    pub fn key(&self) -> &str {
        match self {
            Class::Representative { key } | Class::Member { key, .. } => key,
        }
    }

    /// True for [`Class::Representative`].
    pub fn is_representative(&self) -> bool {
        matches!(self, Class::Representative { .. })
    }
}

/// One file-set automorphism, pre-compiled into per-kind digit-translation
/// tables: `digit[kind][i]` is the phase-2 candidate index the automorphism
/// maps candidate `i` of `kind` to, or `None` when the image falls outside
/// the enumerated candidate list (e.g. a `link` pair whose image is in the
/// pruned reversed order).
struct Sigma {
    /// Path mapping (total over the file set; identity entries omitted).
    map: HashMap<String, String>,
    /// Per-kind digit translation, aligned with `bounds.ops`.
    digit: Vec<Vec<Option<usize>>>,
}

impl Sigma {
    fn map_path(&self, path: &str) -> String {
        self.map
            .get(path)
            .cloned()
            .unwrap_or_else(|| path.to_string())
    }

    /// Applies the automorphism to one operation (all path fields mapped,
    /// every other parameter kept verbatim).
    fn apply(&self, op: &Op) -> Op {
        map_op_paths(op, &mut |p| self.map_path(p))
    }
}

/// Decomposition of an assembled candidate back into odometer digits.
struct Decomposed {
    skeleton: usize,
    core_digits: Vec<usize>,
    persist_digits: Vec<usize>,
}

/// How [`Classifier::classify_core`] placed one core (a skeleton plus its
/// phase-2 digit tuple) within its class. Holds for every candidate of the
/// core's persistence block.
pub struct CoreClass<'c> {
    /// The minimizing in-space automorphism and the core digits it maps to;
    /// `None` for a representative.
    best: Option<(Vec<usize>, &'c Sigma)>,
}

impl CoreClass<'_> {
    /// True when no automorphism maps the core to an earlier one.
    pub fn is_representative(&self) -> bool {
        self.best.is_none()
    }
}

/// Classifies candidates into canonical equivalence classes for one
/// [`Bounds`] configuration. Read-only after construction; share across
/// sweep worker threads.
pub struct Classifier {
    /// The bounds' enumeration tables, shared with the sweep's generators.
    table: Arc<SpaceTable>,
    /// Directory paths of the file set (for dir/file typing in keys).
    dirs: HashSet<String>,
    /// Non-identity automorphisms as digit-translation tables.
    sigmas: Vec<Sigma>,
    /// Test-only hook: collapse directory structure out of keys (see
    /// [`Classifier::unsound_for_tests`]).
    flatten_keys: bool,
}

impl Classifier {
    /// Builds the classifier for `bounds` on tables of its own.
    pub fn new(bounds: &Bounds) -> Classifier {
        Self::on_table(SpaceTable::new(bounds))
    }

    /// Builds the classifier on a sweep's shared tables: enumerates the
    /// file-set automorphism group and compiles each automorphism into
    /// per-kind digit-translation tables.
    pub fn on_table(table: Arc<SpaceTable>) -> Classifier {
        let maps = forest_automorphisms(&table.bounds().files);
        Self::with_maps(table, maps, false)
    }

    /// The bounds this classifier was built for.
    pub fn bounds(&self) -> &Bounds {
        self.table.bounds()
    }

    /// The number of non-identity automorphisms in use (16 for the paper
    /// file set, 0 for a file set with no symmetry).
    pub fn num_automorphisms(&self) -> usize {
        self.sigmas.len()
    }

    /// Test-only: a deliberately **over-coarse** classifier that treats
    /// every pair of files as interchangeable regardless of their parent
    /// directory (and flattens directory structure out of keys). This
    /// merges classes whose members genuinely differ in crash behavior —
    /// e.g. `fsync foo` vs `fsync A/foo` hit different directory-persistence
    /// logic — which is exactly the false pruning Audit mode must detect.
    /// Never use outside tests.
    #[doc(hidden)]
    pub fn unsound_for_tests(bounds: &Bounds) -> Classifier {
        let files = bounds.files.files().to_vec();
        let mut maps = forest_automorphisms(&bounds.files);
        for i in 0..files.len() {
            for j in i + 1..files.len() {
                let mut map = HashMap::new();
                map.insert(files[i].clone(), files[j].clone());
                map.insert(files[j].clone(), files[i].clone());
                maps.push(map);
            }
        }
        Self::with_maps(SpaceTable::new(bounds), maps, true)
    }

    fn with_maps(
        table: Arc<SpaceTable>,
        maps: Vec<HashMap<String, String>>,
        flatten_keys: bool,
    ) -> Classifier {
        let bounds = table.bounds();
        let sigmas = maps
            .into_iter()
            .filter(|map| map.iter().any(|(from, to)| from != to))
            .map(|map| {
                let digit = (0..bounds.ops.len())
                    .map(|kind| {
                        let kind = table.kind(kind);
                        kind.candidates
                            .iter()
                            .map(|op| {
                                let mapped = map_op_paths(op, &mut |p| {
                                    map.get(p).cloned().unwrap_or_else(|| p.to_string())
                                });
                                kind.index.get(&mapped).copied()
                            })
                            .collect()
                    })
                    .collect();
                Sigma { map, digit }
            })
            .collect();
        Classifier {
            dirs: bounds.files.dirs().iter().cloned().collect(),
            sigmas,
            flatten_keys,
            table,
        }
    }

    /// The canonical key of an assembled op sequence: every path replaced by
    /// its first-use `d<rank>`/`f<rank>` label, all other parameters
    /// verbatim, ops joined with `"; "`. Invariant under every file-set
    /// automorphism. See `docs/FORMATS.md` for the grammar.
    pub fn key(&self, ops: &[Op]) -> String {
        let mut labels: HashMap<String, String> = HashMap::new();
        let mut counters: HashMap<(String, bool), usize> = HashMap::new();
        let mut rendered = Vec::with_capacity(ops.len());
        for op in ops {
            let relabeled =
                map_op_paths(op, &mut |path| self.label(path, &mut labels, &mut counters));
            rendered.push(render(&relabeled));
        }
        rendered.join("; ")
    }

    fn label(
        &self,
        path: &str,
        labels: &mut HashMap<String, String>,
        counters: &mut HashMap<(String, bool), usize>,
    ) -> String {
        if let Some(label) = labels.get(path) {
            return label.clone();
        }
        let is_dir = self.dirs.contains(path);
        let parent_label = if self.flatten_keys {
            String::new()
        } else {
            match path.rsplit_once('/') {
                Some((parent, _)) => self.label(parent, labels, counters),
                None => String::new(),
            }
        };
        let rank = counters
            .entry((parent_label.clone(), is_dir))
            .and_modify(|r| *r += 1)
            .or_insert(0);
        let tag = if is_dir { 'd' } else { 'f' };
        let label = if parent_label.is_empty() {
            format!("{tag}{rank}")
        } else {
            format!("{parent_label}/{tag}{rank}")
        };
        labels.insert(path.to_string(), label.clone());
        label
    }

    /// Classifies one core: the skeleton (its index in enumeration order)
    /// and the phase-2 digit per position. The verdict never reads the
    /// persistence digits, so it holds for the core's whole block.
    pub fn classify_core(&self, skeleton: usize, core_digits: &[usize]) -> CoreClass<'_> {
        let kinds = self.table.skeleton_kinds(skeleton);
        let mut best: Option<(Vec<usize>, &Sigma)> = None;
        let mut digits = Vec::with_capacity(core_digits.len());
        for sigma in &self.sigmas {
            digits.clear();
            digits.extend(
                core_digits
                    .iter()
                    .zip(kinds)
                    .map_while(|(&digit, &kind)| sigma.digit[kind][digit]),
            );
            // A shorter tuple means an image outside the enumerated space.
            if digits.len() < core_digits.len() || digits.as_slice() >= core_digits {
                continue;
            }
            match &mut best {
                Some((smallest, _)) if digits >= *smallest => {}
                Some((smallest, by)) => {
                    smallest.clone_from(&digits);
                    *by = sigma;
                }
                None => best = Some((digits.clone(), sigma)),
            }
        }
        CoreClass { best }
    }

    /// Classifies one assembled candidate (core ops interleaved with their
    /// phase-3 persistence ops, i.e. a generated `Workload`'s `ops`):
    /// [`classify_core`](Self::classify_core) of its digits plus the
    /// canonical key and, for a member, its representative. Returns `None`
    /// when the sequence does not decompose into this bounds' candidate
    /// space (never the case for workloads the bounds' own generator
    /// emitted).
    pub fn classify(&self, ops: &[Op]) -> Option<Class> {
        let d = self.decompose(ops)?;
        let key = self.key(ops);
        Some(match self.classify_core(d.skeleton, &d.core_digits).best {
            None => Class::Representative { key },
            Some((digits, sigma)) => Class::Member {
                key,
                rep_ops: ops.iter().map(|op| sigma.apply(op)).collect(),
                rep_index: self.table.index_of(d.skeleton, &digits, &d.persist_digits),
            },
        })
    }

    /// The global candidate index (0-based) of an assembled candidate —
    /// the inverse of the generator's `skip_to` addressing, computed
    /// analytically from the table's skeleton prefix sums.
    pub fn candidate_index(&self, ops: &[Op]) -> Option<u64> {
        let d = self.decompose(ops)?;
        Some(
            self.table
                .index_of(d.skeleton, &d.core_digits, &d.persist_digits),
        )
    }

    /// The workload name the generator gives the candidate at a global
    /// index (names are 1-based zero-padded enumeration indices).
    pub fn workload_name(&self, index: u64) -> String {
        self.table.workload_name(index)
    }

    /// Builds the representative's full workload (phase-4 setup included)
    /// from a [`Class::Member`]'s `rep_ops` and `rep_index` — what Audit
    /// mode crash-tests against the pruned member. Returns `None` when
    /// phase 4 rejects the sequence (for a sound classifier this cannot
    /// happen when the member itself was emitted; a divergence here is
    /// itself an audit failure).
    pub fn representative_workload(&self, rep_ops: &[Op], rep_index: u64) -> Option<Workload> {
        let name = self.workload_name(rep_index);
        phase4_dependencies(&name, rep_ops.to_vec(), self.bounds())
    }

    /// Splits an assembled sequence back into per-position (core op,
    /// persistence choice) pairs and resolves the odometer digits.
    fn decompose(&self, ops: &[Op]) -> Option<Decomposed> {
        let seq_len = self.bounds().seq_len;
        let mut kinds = Vec::with_capacity(seq_len);
        let mut core_digits = Vec::with_capacity(seq_len);
        let mut chosen: Vec<Option<&Op>> = Vec::with_capacity(seq_len);
        let mut iter = ops.iter().peekable();
        while let Some(op) = iter.next() {
            if op.is_persistence_point() {
                return None; // persistence op with no preceding core op
            }
            let kind = self.table.kind_index(op.kind())?;
            kinds.push(kind);
            core_digits.push(*self.table.kind(kind).index.get(op)?);
            chosen.push(iter.next_if(|next| next.is_persistence_point()));
        }
        if kinds.len() != seq_len {
            return None;
        }
        let persist_digits = (0..seq_len)
            .map(|position| {
                let is_last = position + 1 == seq_len;
                self.table.kind(kinds[position]).persistence[core_digits[position]]
                    [usize::from(is_last)]
                .iter()
                .position(|option| option.as_ref() == chosen[position])
            })
            .collect::<Option<_>>()?;
        Some(Decomposed {
            skeleton: self.table.skeleton_of(&kinds),
            core_digits,
            persist_digits,
        })
    }
}

/// Applies a file-set symmetry (a path relabeling such as one returned by
/// [`forest_automorphisms`]) to every path argument of an op sequence —
/// the workload's image under the symmetry. Paths absent from the map are
/// kept verbatim.
pub fn apply_path_map(ops: &[Op], map: &HashMap<String, String>) -> Vec<Op> {
    ops.iter()
        .map(|op| {
            map_op_paths(op, &mut |p| {
                map.get(p).cloned().unwrap_or_else(|| p.to_string())
            })
        })
        .collect()
}

/// Rewrites every path field of an operation through `f`, in
/// [`Op::paths`] order, keeping all other parameters verbatim.
fn map_op_paths(op: &Op, f: &mut impl FnMut(&str) -> String) -> Op {
    match op {
        Op::Creat { path } => Op::Creat { path: f(path) },
        Op::Mkdir { path } => Op::Mkdir { path: f(path) },
        Op::Mkfifo { path } => Op::Mkfifo { path: f(path) },
        Op::Symlink { target, linkpath } => Op::Symlink {
            target: f(target),
            linkpath: f(linkpath),
        },
        Op::Link { existing, new } => Op::Link {
            existing: f(existing),
            new: f(new),
        },
        Op::Unlink { path } => Op::Unlink { path: f(path) },
        Op::Remove { path } => Op::Remove { path: f(path) },
        Op::Rmdir { path } => Op::Rmdir { path: f(path) },
        Op::Rename { from, to } => Op::Rename {
            from: f(from),
            to: f(to),
        },
        Op::Write { path, mode, spec } => Op::Write {
            path: f(path),
            mode: *mode,
            spec: *spec,
        },
        Op::Mmap { path, offset, len } => Op::Mmap {
            path: f(path),
            offset: *offset,
            len: *len,
        },
        Op::Msync { path, offset, len } => Op::Msync {
            path: f(path),
            offset: *offset,
            len: *len,
        },
        Op::Truncate { path, size } => Op::Truncate {
            path: f(path),
            size: *size,
        },
        Op::Falloc {
            path,
            mode,
            offset,
            len,
        } => Op::Falloc {
            path: f(path),
            mode: *mode,
            offset: *offset,
            len: *len,
        },
        Op::SetXattr { path, name, value } => Op::SetXattr {
            path: f(path),
            name: name.clone(),
            value: value.clone(),
        },
        Op::RemoveXattr { path, name } => Op::RemoveXattr {
            path: f(path),
            name: name.clone(),
        },
        Op::Fsync { path } => Op::Fsync { path: f(path) },
        Op::Fdatasync { path } => Op::Fdatasync { path: f(path) },
        Op::Sync => Op::Sync,
    }
}

/// Compact, stable rendering of one (relabeled) operation for canonical
/// keys. The grammar is specified in `docs/FORMATS.md` and enforced by the
/// `docs` integration test.
fn render(op: &Op) -> String {
    match op {
        Op::Creat { path } => format!("creat({path})"),
        Op::Mkdir { path } => format!("mkdir({path})"),
        Op::Mkfifo { path } => format!("mkfifo({path})"),
        Op::Symlink { target, linkpath } => format!("symlink({target},{linkpath})"),
        Op::Link { existing, new } => format!("link({existing},{new})"),
        Op::Unlink { path } => format!("unlink({path})"),
        Op::Remove { path } => format!("remove({path})"),
        Op::Rmdir { path } => format!("rmdir({path})"),
        Op::Rename { from, to } => format!("rename({from},{to})"),
        Op::Write { path, mode, spec } => format!("write({path},{mode:?},{spec:?})"),
        Op::Mmap { path, offset, len } => format!("mmap({path},{offset},{len})"),
        Op::Msync { path, offset, len } => format!("msync({path},{offset},{len})"),
        Op::Truncate { path, size } => format!("truncate({path},{size})"),
        Op::Falloc {
            path,
            mode,
            offset,
            len,
        } => format!("falloc({path},{mode:?},{offset},{len})"),
        Op::SetXattr { path, name, value } => format!("setxattr({path},{name},{value})"),
        Op::RemoveXattr { path, name } => format!("removexattr({path},{name})"),
        Op::Fsync { path } => format!("fsync({path})"),
        Op::Fdatasync { path } => format!("fdatasync({path})"),
        Op::Sync => "sync".to_string(),
    }
}

/// One node of the file-set forest (children keyed by their single path
/// segment relative to this node).
#[derive(Default)]
struct Node {
    files: Vec<String>,
    dirs: Vec<(String, Node)>,
}

impl Node {
    fn child_dir(&mut self, name: &str) -> &mut Node {
        let position = match self.dirs.iter().position(|(n, _)| n == name) {
            Some(position) => position,
            None => {
                self.dirs.push((name.to_string(), Node::default()));
                self.dirs.len() - 1
            }
        };
        &mut self.dirs[position].1
    }

    fn descend(&mut self, path: &str) -> &mut Node {
        let mut node = self;
        for segment in path.split('/') {
            node = node.child_dir(segment);
        }
        node
    }

    /// Canonical shape string; equal shapes ⟺ isomorphic subtrees.
    fn shape(&self) -> String {
        let mut child_shapes: Vec<String> = self.dirs.iter().map(|(_, n)| n.shape()).collect();
        child_shapes.sort();
        format!("f{};[{}]", self.files.len(), child_shapes.join(","))
    }

    /// All structure-preserving permutations of this subtree, as maps over
    /// paths *relative to this node* (identity entries included).
    fn automorphisms(&self) -> Vec<HashMap<String, String>> {
        // Per-parent file permutations.
        let mut factors: Vec<Vec<HashMap<String, String>>> = Vec::new();
        let file_maps: Vec<HashMap<String, String>> = permutations(self.files.len())
            .into_iter()
            .map(|perm| {
                self.files
                    .iter()
                    .enumerate()
                    .map(|(i, name)| (name.clone(), self.files[perm[i]].clone()))
                    .collect()
            })
            .collect();
        factors.push(file_maps);

        // Directory siblings grouped into isomorphism classes; a class of k
        // members contributes (permutation of the class) × (independent
        // subtree automorphisms per member).
        let mut classes: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, (_, node)) in self.dirs.iter().enumerate() {
            classes.entry(node.shape()).or_default().push(i);
        }
        let mut class_list: Vec<Vec<usize>> = classes.into_values().collect();
        class_list.sort();
        for members in class_list {
            let subtree_autos: Vec<Vec<HashMap<String, String>>> = members
                .iter()
                .map(|&i| self.dirs[i].1.automorphisms())
                .collect();
            let mut class_maps: Vec<HashMap<String, String>> = Vec::new();
            for perm in permutations(members.len()) {
                // Independent subtree automorphism choice per member.
                let mut partial: Vec<HashMap<String, String>> = vec![HashMap::new()];
                for (slot, &member) in members.iter().enumerate() {
                    let source = &self.dirs[member].0;
                    let target = &self.dirs[members[perm[slot]]].0;
                    let mut extended = Vec::new();
                    for base in &partial {
                        for auto in &subtree_autos[slot] {
                            let mut map = base.clone();
                            map.insert(source.clone(), target.clone());
                            for (from, to) in auto {
                                map.insert(format!("{source}/{from}"), format!("{target}/{to}"));
                            }
                            extended.push(map);
                            if extended.len() > MAX_AUTOMORPHISMS {
                                break;
                            }
                        }
                        if extended.len() > MAX_AUTOMORPHISMS {
                            break;
                        }
                    }
                    partial = extended;
                }
                class_maps.extend(partial);
                if class_maps.len() > MAX_AUTOMORPHISMS {
                    break;
                }
            }
            factors.push(class_maps);
        }

        // Cartesian product of all factors.
        let mut result: Vec<HashMap<String, String>> = vec![HashMap::new()];
        for factor in factors {
            let mut extended = Vec::with_capacity(result.len() * factor.len().max(1));
            for base in &result {
                for addition in &factor {
                    let mut map = base.clone();
                    map.extend(addition.iter().map(|(k, v)| (k.clone(), v.clone())));
                    extended.push(map);
                    if extended.len() > MAX_AUTOMORPHISMS {
                        return vec![HashMap::new()]; // identity-only fallback
                    }
                }
            }
            result = extended;
        }
        result
    }
}

/// Enumerates the automorphism group of a [`FileSet`]'s forest: every map
/// from paths to paths that permutes sibling files under each parent and
/// swaps sibling directories with isomorphic subtrees (moving their
/// contents along). Includes the identity.
pub fn forest_automorphisms(files: &FileSet) -> Vec<HashMap<String, String>> {
    let mut root = Node::default();
    for dir in files.dirs() {
        root.descend(dir);
    }
    for file in files.files() {
        match file.rsplit_once('/') {
            Some((parent, name)) => root.descend(parent).files.push(name.to_string()),
            None => root.files.push(file.clone()),
        }
    }
    root.automorphisms()
}

/// All permutations of `0..n` (lexicographic order, identity first).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut result = Vec::new();
    let mut items: Vec<usize> = (0..n).collect();
    heap_permute(&mut items, 0, &mut result);
    result.sort();
    result
}

fn heap_permute(items: &mut Vec<usize>, start: usize, out: &mut Vec<Vec<usize>>) {
    if start == items.len() {
        out.push(items.clone());
        return;
    }
    for i in start..items.len() {
        items.swap(start, i);
        heap_permute(items, start + 1, out);
        items.swap(start, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadGenerator;

    #[test]
    fn paper_file_set_has_sixteen_automorphisms() {
        let maps = forest_automorphisms(&FileSet::paper_default());
        // foo↔bar at the root (2) × A↔B with contents (2) × foo↔bar inside
        // A (2) × foo↔bar inside B (2) = 16, identity included.
        assert_eq!(maps.len(), 16);
        // Spot-check the A↔B swap maps contained files along.
        assert!(maps.iter().any(|m| {
            m.get("A").map(String::as_str) == Some("B")
                && m.get("A/foo").map(String::as_str) == Some("B/foo")
        }));
    }

    #[test]
    fn minimal_file_set_has_no_symmetry() {
        // foo (root) and A/foo live under different parents; A is the only
        // directory — the group is trivial.
        let classifier = Classifier::new(&Bounds::tiny());
        assert_eq!(classifier.num_automorphisms(), 0);
    }

    #[test]
    fn nested_file_set_keeps_asymmetric_dirs_apart() {
        // nested(): A contains C, B does not — A and B are not isomorphic,
        // so only the per-parent file swaps remain: root(2) × A(2) × B(2)
        // × C(2) = 16.
        let maps = forest_automorphisms(&FileSet::nested());
        assert_eq!(maps.len(), 16);
        assert!(maps
            .iter()
            .all(|m| m.get("A").map(String::as_str) != Some("B")));
    }

    #[test]
    fn keys_are_invariant_under_automorphisms() {
        let bounds = Bounds::paper_seq2();
        let classifier = Classifier::new(&bounds);
        let maps = forest_automorphisms(&bounds.files);
        for workload in WorkloadGenerator::new(bounds.clone()).take(500) {
            let key = classifier.key(&workload.ops);
            for map in &maps {
                let mapped: Vec<Op> = workload
                    .ops
                    .iter()
                    .map(|op| {
                        map_op_paths(op, &mut |p| {
                            map.get(p).cloned().unwrap_or_else(|| p.to_string())
                        })
                    })
                    .collect();
                assert_eq!(classifier.key(&mapped), key, "workload {}", workload.name);
            }
        }
    }

    #[test]
    fn every_class_has_exactly_one_representative() {
        use std::collections::HashMap;
        let bounds = Bounds::paper_seq1();
        let classifier = Classifier::new(&bounds);
        // orbit key (canonical) -> (reps seen, members seen)
        let mut classes: HashMap<String, (u64, u64)> = HashMap::new();
        for workload in WorkloadGenerator::new(bounds.clone()) {
            let class = classifier.classify(&workload.ops).expect("decomposes");
            let entry = classes.entry(class.key().to_string()).or_insert((0, 0));
            entry.1 += 1;
            if class.is_representative() {
                entry.0 += 1;
            } else if let Class::Member {
                rep_ops, rep_index, ..
            } = &class
            {
                // The representative must itself classify as representative
                // and share the member's key.
                let rep = classifier.classify(rep_ops).expect("rep decomposes");
                assert!(rep.is_representative(), "double hop for {}", workload.name);
                assert_eq!(rep.key(), class.key());
                assert_eq!(classifier.candidate_index(rep_ops), Some(*rep_index));
            }
        }
        for (key, (reps, members)) in &classes {
            assert!(
                *reps >= 1,
                "class {key:?} with {members} members has no representative"
            );
        }
        // With a sound (subgroup) symmetry every key-class has exactly one
        // representative for the paper file set.
        assert!(classes.values().all(|(reps, _)| *reps == 1));
        // And the pruning is real: seq-1 has many multi-member classes.
        assert!(classes.values().any(|(_, members)| *members > 1));
    }

    #[test]
    fn candidate_index_inverts_generator_names() {
        let bounds = Bounds::tiny();
        let classifier = Classifier::new(&bounds);
        for workload in WorkloadGenerator::new(bounds.clone()) {
            let index = classifier
                .candidate_index(&workload.ops)
                .expect("decomposes");
            assert_eq!(classifier.workload_name(index), workload.name);
        }
    }
}
