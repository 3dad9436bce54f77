//! Verdict triage: content-addressed reuse of crash-state check results.
//!
//! [`CrashPointPolicy::AllTriaged`](crate::CrashPointPolicy::AllTriaged)
//! covers every persistence point but only *dynamically tests* crash states
//! the static layer cannot prove equivalent to one already tested.
//! Equivalence is established by a **triage key** that fingerprints every
//! input of [`AutoChecker::check_recovered`](crate::AutoChecker):
//!
//! * the crash state's **content digest** — a
//!   [`StateDigest`](b3_analyze::StateDigest) over the recorded IO stream,
//!   i.e. the device bytes the checker would mount (the base image is fixed
//!   per harness, so the digest of the writes on top of it pins the full
//!   image);
//! * the checkpoint's **checker projection** — the persisted expectations,
//!   the persisted/durable rename sets, the oracle entries at every path the
//!   checker reads, and the workload's rename operations (which seed the
//!   rename-atomicity candidates).
//!
//! Two crash states with equal keys present the checker with bit-identical
//! inputs, so the verdict recorded for the first — the *witness* — is reused
//! verbatim for the second. Only verdict-determined fields are cached;
//! workload identity (name, skeleton) is re-attached when a reused verdict
//! is turned into a report, which is what makes `AllTriaged` bug groups
//! byte-identical to [`CrashPointPolicy::All`](crate::CrashPointPolicy::All)
//! by construction. The differential suite and the optional per-workload
//! audit (the analysis-layer analogue of the sweep's `PruneMode::Audit`)
//! both pin that claim dynamically.

use std::collections::HashMap;
use std::sync::Arc;

use b3_analyze::Digest128;
use b3_vfs::snapshot::EntrySnapshot;
use b3_vfs::workload::{Op, Workload};

use crate::profiler::CheckpointInfo;

/// Triage witnesses keyed by triage key, scoped to one harness (fixed
/// file-system spec, era, device geometry and formatted image — all of
/// which are constant for a harness, so they need not be part of the key).
/// Generic over what a witness holds: a check verdict for a file-system
/// workload, a recovery for an application one.
#[derive(Debug)]
pub struct TriageCache<H> {
    witnesses: HashMap<u128, H>,
    /// Per-entry digest memo, keyed by `Arc` pointer identity. Oracle
    /// entries are interned (`EntryInterner`), so the same snapshot is
    /// revisited at checkpoint after checkpoint; hashing its data payload
    /// once instead of every time is what keeps key construction off the
    /// profile. The memoized `Weak` pins the *allocation* (an `ArcInner` is
    /// not freed while weak references remain), so a pointer in this map can
    /// never be reused for different content — pointer equality alone proves
    /// the memoized digest applies — while the entry's heap payload is still
    /// freed the moment the last `Arc` drops.
    entry_digests: HashMap<usize, (std::sync::Weak<EntrySnapshot>, u128)>,
}

/// The workload-constant part of a triage key, computed once per workload
/// and shared by every checkpoint's [`TriageCache::key`] call. Hoisting it
/// matters: under `AllTriaged` the key is on the per-crash-state hot path,
/// and the rename list (plus its digest) never changes within a workload.
pub(crate) struct KeySeed<'w> {
    /// Every `(from, to)` rename of the workload, in program order. These
    /// seed the checker's rename-atomicity candidates, so their endpoints
    /// are part of the relevant-path set of every checkpoint.
    rename_ops: Vec<(&'w str, &'w str)>,
    /// Digest of the domain-separated rename-op section, absorbed into each
    /// key as a single chunk.
    rename_section: u128,
}

impl<'w> KeySeed<'w> {
    pub(crate) fn of(workload: &'w Workload) -> Self {
        let rename_ops: Vec<(&str, &str)> = workload
            .all_ops()
            .filter_map(|op| match op {
                Op::Rename { from, to } => Some((from.as_str(), to.as_str())),
                _ => None,
            })
            .collect();
        let mut d = Digest128::new();
        d.write(&[3u8]);
        d.write_u64(rename_ops.len() as u64);
        for (from, to) in &rename_ops {
            d.write_str(from);
            d.write_str(to);
        }
        KeySeed {
            rename_section: d.value(),
            rename_ops,
        }
    }
}

/// Upper bound on recorded witnesses. On overflow the whole verdict map is
/// dropped (an epoch flip, like a shard boundary): later states re-test
/// dynamically, which is always sound. The flip point is a deterministic
/// function of the workload sequence, so shard results stay reproducible.
const VERDICT_CAP: usize = 262_144;

/// Upper bound on memoized entry digests. The memo pins its `Arc`s (that is
/// what makes pointer identity safe), so an unbounded memo would defeat the
/// interner's eviction; clearing it is semantically free — digests are pure
/// content functions.
const ENTRY_MEMO_CAP: usize = 32_768;

impl<H> Default for TriageCache<H> {
    fn default() -> Self {
        TriageCache {
            witnesses: HashMap::new(),
            entry_digests: HashMap::new(),
        }
    }
}

impl<H> TriageCache<H> {
    /// Drops every witness (and the entry-digest memo). Shard boundaries
    /// call this so a shard's outcome never depends on which other shards
    /// ran in the same process.
    pub(crate) fn reset(&mut self) {
        self.witnesses.clear();
        self.entry_digests.clear();
    }

    /// The witness for `key`, if one was recorded.
    pub(crate) fn lookup(&self, key: u128) -> Option<&H> {
        self.witnesses.get(&key)
    }

    /// Records what a dynamically tested crash state came to.
    pub(crate) fn record(&mut self, key: u128, held: H) {
        if self.witnesses.len() >= VERDICT_CAP {
            self.witnesses.clear();
        }
        self.witnesses.insert(key, held);
    }

    /// Number of distinct witnesses recorded.
    pub(crate) fn len(&self) -> usize {
        self.witnesses.len()
    }

    /// The content digest of one entry snapshot, memoized by `Arc` identity.
    fn entry_digest(&mut self, entry: &Arc<EntrySnapshot>) -> u128 {
        let ptr = Arc::as_ptr(entry) as usize;
        if let Some((_, digest)) = self.entry_digests.get(&ptr) {
            return *digest;
        }
        let mut d = Digest128::new();
        digest_entry(&mut d, entry);
        let digest = d.value();
        if self.entry_digests.len() >= ENTRY_MEMO_CAP {
            self.entry_digests.clear();
        }
        self.entry_digests
            .insert(ptr, (Arc::downgrade(entry), digest));
        digest
    }

    /// Computes the triage key for one crash point: the crash state's
    /// content digest combined with the checker projection of its
    /// checkpoint.
    pub(crate) fn key(
        &mut self,
        state_digest: u128,
        seed: &KeySeed<'_>,
        info: &CheckpointInfo,
    ) -> u128 {
        let mut d = Digest128::new();
        d.write(&state_digest.to_le_bytes());

        // Persisted expectations: path, strength, and the exact entry state
        // the persistence operation guaranteed.
        d.write_u64(info.persisted.len() as u64);
        for (path, expectation) in info.persisted.iter() {
            d.write_str(path);
            d.write(&[u8::from(expectation.existence_only)]);
            let entry = self.entry_digest(&expectation.entry);
            d.write(&entry.to_le_bytes());
        }

        // Rename sets, each with a domain separator so an entry moving
        // between lists changes the key.
        for (tag, renames) in [(1u8, &info.persisted_renames), (2u8, &info.durable_renames)] {
            d.write(&[tag]);
            d.write_u64(renames.len() as u64);
            for (from, to) in renames {
                d.write_str(from);
                d.write_str(to);
            }
        }

        // The workload's rename operations, in program order: together with
        // the persisted set above they determine the checker's
        // rename-atomicity candidate pairs. Precomputed per workload and
        // absorbed as one chunk.
        d.write(&seed.rename_section.to_le_bytes());

        // Oracle state at every path the checker can read: the persisted
        // paths plus both endpoints of every rename the checks may consult.
        // This is a superset of the checker's `relevant` set, so equal keys
        // imply equal oracle views wherever the checks look. Sorted and
        // deduplicated so the digest does not depend on discovery order.
        let mut relevant: Vec<&str> = Vec::with_capacity(
            info.persisted.len()
                + 2 * (seed.rename_ops.len()
                    + info.persisted_renames.len()
                    + info.durable_renames.len()),
        );
        relevant.extend(info.persisted.keys().map(String::as_str));
        for (from, to) in seed
            .rename_ops
            .iter()
            .copied()
            .chain(
                info.persisted_renames
                    .iter()
                    .map(|(f, t)| (f.as_str(), t.as_str())),
            )
            .chain(
                info.durable_renames
                    .iter()
                    .map(|(f, t)| (f.as_str(), t.as_str())),
            )
        {
            relevant.push(from);
            relevant.push(to);
        }
        relevant.sort_unstable();
        relevant.dedup();
        d.write(&[4u8]);
        d.write_u64(relevant.len() as u64);
        for path in relevant {
            d.write_str(path);
            match info.oracle.get_shared(path) {
                Some(entry) => {
                    d.write(&[1]);
                    let entry = self.entry_digest(&entry);
                    d.write(&entry.to_le_bytes());
                }
                None => d.write(&[0]),
            }
        }

        d.value()
    }
}

/// Digests every field of an entry snapshot, length-prefixing the variable
/// parts so adjacent fields cannot alias.
fn digest_entry(d: &mut Digest128, entry: &EntrySnapshot) {
    d.write(&[match entry.file_type {
        b3_vfs::metadata::FileType::Regular => 0u8,
        b3_vfs::metadata::FileType::Directory => 1,
        b3_vfs::metadata::FileType::Symlink => 2,
        b3_vfs::metadata::FileType::Fifo => 3,
    }]);
    d.write_u64(entry.size);
    d.write_u32(entry.nlink);
    d.write_u64(entry.blocks);
    match &entry.data {
        Some(data) => {
            d.write(&[1]);
            d.write_u64(data.len() as u64);
            d.write(data);
        }
        None => d.write(&[0]),
    }
    match &entry.symlink_target {
        Some(target) => {
            d.write(&[1]);
            d.write_str(target);
        }
        None => d.write(&[0]),
    }
    match &entry.children {
        Some(children) => {
            d.write(&[1]);
            d.write_u64(children.len() as u64);
            for child in children {
                d.write_str(child);
            }
        }
        None => d.write(&[0]),
    }
    d.write_u64(entry.xattrs.len() as u64);
    for (name, value) in &entry.xattrs {
        d.write_str(name);
        d.write_u64(value.len() as u64);
        d.write(value);
    }
}

/// Describes how what an audited crash state came to diverged from its
/// witness. `None` when they agree.
pub(crate) fn audit_divergence<H: PartialEq + std::fmt::Debug>(
    checkpoint: u32,
    witness: &H,
    fresh: &H,
) -> Option<String> {
    (witness != fresh).then(|| {
        format!(
            "crash point {checkpoint}: the witness held {witness:?}, testing the crash state \
             again gave {fresh:?}"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use b3_vfs::metadata::FileType;
    use b3_vfs::snapshot::LogicalSnapshot;

    use crate::checker::CheckVerdict;
    use crate::profiler::Expectation;

    fn entry(file_type: FileType, size: u64, data: Option<&[u8]>) -> Arc<EntrySnapshot> {
        Arc::new(EntrySnapshot {
            file_type,
            size,
            nlink: 1,
            blocks: size.div_ceil(512),
            data: data.map(<[u8]>::to_vec),
            symlink_target: None,
            children: None,
            xattrs: BTreeMap::new(),
        })
    }

    fn info_with(persisted: Vec<(&str, Arc<EntrySnapshot>)>) -> CheckpointInfo {
        let mut oracle = LogicalSnapshot::default();
        let mut map = BTreeMap::new();
        for (path, e) in persisted {
            oracle.insert(path.to_string(), (*e).clone());
            map.insert(
                path.to_string(),
                Expectation {
                    entry: e,
                    existence_only: false,
                },
            );
        }
        CheckpointInfo {
            id: 1,
            op_index: 0,
            persisted: Arc::new(map),
            persisted_renames: Vec::new(),
            durable_renames: Vec::new(),
            oracle: Arc::new(oracle),
            verdict: Default::default(),
        }
    }

    #[test]
    fn key_ignores_workload_identity_but_not_renames() {
        let mut cache = TriageCache::<()>::default();
        let info = info_with(vec![("foo", entry(FileType::Regular, 4, Some(b"data")))]);
        let a = Workload::new("name-a", vec![Op::Creat { path: "foo".into() }]);
        let b = Workload::new("name-b", vec![Op::Mkdir { path: "X".into() }]);
        let (seed_a, seed_b) = (KeySeed::of(&a), KeySeed::of(&b));
        assert_eq!(cache.key(7, &seed_a, &info), cache.key(7, &seed_b, &info));

        let with_rename = Workload::new(
            "name-c",
            vec![Op::Rename {
                from: "foo".into(),
                to: "bar".into(),
            }],
        );
        assert_ne!(
            cache.key(7, &seed_a, &info),
            cache.key(7, &KeySeed::of(&with_rename), &info)
        );

        // The entry-digest memo must not change what a key hashes to: a
        // fresh cache (empty memo) computes the same key.
        assert_eq!(
            TriageCache::<()>::default().key(7, &seed_a, &info),
            cache.key(7, &seed_a, &info)
        );
    }

    #[test]
    fn key_depends_on_state_digest_and_projection() {
        let mut cache = TriageCache::<()>::default();
        let info = info_with(vec![("foo", entry(FileType::Regular, 4, Some(b"data")))]);
        let w = Workload::new("w", vec![Op::Creat { path: "foo".into() }]);
        let seed = KeySeed::of(&w);
        assert_ne!(cache.key(1, &seed, &info), cache.key(2, &seed, &info));

        let other = info_with(vec![("foo", entry(FileType::Regular, 5, Some(b"datum")))]);
        assert_ne!(cache.key(1, &seed, &info), cache.key(1, &seed, &other));

        let mut durable = info_with(vec![("foo", entry(FileType::Regular, 4, Some(b"data")))]);
        durable.durable_renames.push(("a".into(), "foo".into()));
        assert_ne!(cache.key(1, &seed, &info), cache.key(1, &seed, &durable));
    }

    #[test]
    fn cache_round_trips_and_resets() {
        let mut cache = TriageCache::default();
        let verdict = CheckVerdict {
            expected: "x".into(),
            ..CheckVerdict::default()
        };
        cache.record(42, verdict);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(42).map(|v| v.expected.as_str()), Some("x"));
        assert!(cache.lookup(7).is_none());
        cache.reset();
        assert_eq!(cache.len(), 0);
        assert!(cache.lookup(42).is_none());
    }

    #[test]
    fn audit_divergence_reports_only_mismatches() {
        let clean = CheckVerdict::default();
        assert!(audit_divergence(3, &clean, &clean.clone()).is_none());
        let failed = CheckVerdict {
            write_failures: vec!["cannot create".into()],
            ..CheckVerdict::default()
        };
        let text = audit_divergence(3, &clean, &failed).unwrap();
        assert!(text.contains("crash point 3"), "{text}");
        assert!(text.contains("cannot create"), "{text}");
    }
}
