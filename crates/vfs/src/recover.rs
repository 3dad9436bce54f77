//! The incremental crash-state recovery seam.
//!
//! The paper reports that mount-and-recover dominates per-crash-state cost
//! (§6.3): CrashMonkey mounts every crash state from scratch, so testing all
//! persistence points of a workload multiplies that cost by the number of
//! checkpoints. Adjacent crash states of one recorded run differ only in the
//! blocks written between the two checkpoints, though — a file system that
//! knows that delta can *patch its recovered view forward* instead of
//! re-reading and re-decoding everything.
//!
//! [`RecoverDelta`] is the seam: a per-workload session that recovers a
//! mountable view from each crash state in turn, optionally exploiting the
//! [`StateDelta`] between the previous state it recovered and the current
//! one. The default implementation ([`RemountSession`], returned by
//! [`FsSpec::recovery_session`]) simply remounts from scratch, so the seam
//! is always correct even for file systems that never opt in. Native
//! sessions must be *observationally identical* to a from-scratch mount:
//! same logical view on success, same error on failure. Debug builds of
//! CrashMonkey assert exactly that for every patched-forward state.

use b3_block::{BlockDevice, DiskImage, StateDelta};

use crate::diskfmt::{BlobRef, SuperBlock};
use crate::error::FsResult;
use crate::fs::{FileSystem, FsSpec};
use crate::tree::MemTree;

/// A recovery session: recovers a mounted view from each crash state of one
/// recorded run, in checkpoint order.
///
/// Implementations may carry state between calls (decoded trees, verified
/// structures) and reuse it when `delta` proves the underlying bytes did not
/// change. A `delta` of `None` means "no information about what changed"
/// (an out-of-order fallback, or a caller that never primed the session) —
/// the session must then recover from scratch.
///
/// One session may serve many workloads: the caller re-[primes](Self::prime)
/// it with the workload's base image at each workload boundary, which resets
/// the delta chain (and is what makes the *first* crash state of a run
/// incremental too, since all workloads of a sweep share one formatted base
/// image).
pub trait RecoverDelta {
    /// Establishes `base` as the reference state for the next `recover`
    /// call: that call's `delta` (if any) will be relative to `base`, as if
    /// a previous `recover` call had been made with it.
    ///
    /// Implementations carrying cached state MUST drop anything whose
    /// validity chain is not anchored to `base` — deltas from a different
    /// run prove nothing about this one. Priming is purely an optimization
    /// hook and must never fail a workload: sessions swallow errors (a
    /// corrupt base simply yields no reusable state, and `recover` reports
    /// the error exactly as a mount would).
    fn prime(&mut self, spec: &dyn FsSpec, base: &DiskImage) {
        let _ = (spec, base);
    }

    /// Recovers the file system from `device` (a crash state, i.e. an
    /// uncleanly unmounted image). `delta` is the set of blocks that
    /// changed since the state passed to the previous `recover` call on
    /// this session — or since the [primed](Self::prime) base image, on the
    /// first call after priming — when known.
    ///
    /// The result must be observationally identical to `spec.mount(device)`:
    /// the same logical view on success, an equal error on failure.
    fn recover(
        &mut self,
        spec: &dyn FsSpec,
        device: Box<dyn BlockDevice>,
        delta: Option<&StateDelta>,
    ) -> FsResult<Box<dyn FileSystem>>;

    /// True when this session actually patches forward (and therefore is
    /// worth cross-checking against a from-scratch mount in debug builds).
    /// The default remount session returns `false`.
    fn is_incremental(&self) -> bool {
        false
    }
}

/// The always-correct default session: ignores deltas and remounts from
/// scratch via [`FsSpec::mount`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RemountSession;

impl RecoverDelta for RemountSession {
    fn recover(
        &mut self,
        spec: &dyn FsSpec,
        device: Box<dyn BlockDevice>,
        _delta: Option<&StateDelta>,
    ) -> FsResult<Box<dyn FileSystem>> {
        spec.mount(device)
    }
}

/// Memoizes the expensive part of every simulated file system's mount: the
/// decode of the committed tree blob the superblock points at.
///
/// All four file systems in this workspace store their committed state as a
/// [`MemTree`] blob referenced from the [`SuperBlock`]; decoding it is the
/// bulk of mount cost. Between adjacent crash states the blob is usually
/// untouched — the cache returns the previously decoded tree when the
/// [`StateDelta`] proves the blob's blocks did not change.
///
/// The cache key is the blob reference *plus* the commit generation:
/// identical `(tree, generation)` alone does not guarantee identical bytes,
/// because the blob allocator wraps around when the device fills
/// ([`write_blob`](crate::diskfmt::write_blob)) and can overwrite an old
/// blob in place — which is exactly why a hit additionally requires the
/// delta to be disjoint from the blob's block range. Validity is inductive:
/// every fresh decode is stored, so a cached tree always describes the blob
/// bytes of the *previous* state, and a disjoint delta proves those bytes
/// survived into the current one.
///
/// When the delta chain cannot prove a blob unchanged (a commit moved it,
/// or a new run started), the entry is not thrown away: it keeps the raw
/// blob bytes it was decoded from, and [`verify`](Self::verify) revalidates
/// it against the current state's bytes directly. A byte compare is several
/// times cheaper than a decode, and adjacent workloads of an exhaustive
/// sweep constantly re-commit identical trees (bounded workload generation
/// varies the tail of the op sequence fastest, so long runs of neighbours
/// share their commit prefix).
///
/// Every distinct tree the cache hands out carries a `stamp`, a session-
/// unique id of the tree's *content*: two resolutions returning the same
/// stamp are guaranteed to have returned identical trees, even across runs.
/// Callers layering further caches on top (e.g. CowFs's replayed-log cache)
/// compare stamps to prove "same committed tree as last time" without
/// touching the tree itself.
#[derive(Debug, Default)]
pub struct CommittedTreeCache {
    entry: Option<CacheEntry>,
    /// True while `entry` is proven to describe the blob bytes of the state
    /// passed to the most recent [`lookup`](Self::lookup) — the premise the
    /// next lookup's delta extends. Cleared by a miss or a new run; set
    /// again by [`store`](Self::store) and a successful
    /// [`verify`](Self::verify).
    anchored: bool,
    /// Decode of the *base image's* committed tree, installed by
    /// [`pin`](Self::pin) when the session is primed. Unlike `entry` it
    /// survives [`start_run`](Self::start_run), so the first crash state of
    /// every workload replayed onto that base can hit the cache too (its
    /// delta is relative to the base).
    pinned: Option<(CacheKey, MemTree, u64)>,
    /// True while every lookup since the last [`start_run`](Self::start_run)
    /// hit. A miss means the current state's blob bytes were not proven
    /// equal to the previous state's — the validity chain from the pinned
    /// base is broken, so the pinned entry must not be consulted again
    /// until the next run re-anchors it.
    chain_intact: bool,
    /// Source of fresh stamps; `last_stamp` is the stamp of the tree the
    /// most recent successful resolution (lookup hit, verify hit, or store)
    /// referred to. Zero means "nothing resolved yet".
    next_stamp: u64,
    last_stamp: u64,
}

#[derive(Debug)]
struct CacheEntry {
    key: CacheKey,
    /// The raw blob bytes `tree` was decoded from, kept for
    /// [`verify`](CommittedTreeCache::verify).
    bytes: Vec<u8>,
    /// Sessions hand out clones: a [`MemTree`] clone shares every inode, so
    /// a recovered view costs no copy of what the tree holds.
    tree: MemTree,
    stamp: u64,
}

#[derive(Debug, PartialEq, Eq)]
struct CacheKey {
    tree: BlobRef,
    generation: u64,
}

impl CacheKey {
    fn of(sb: &SuperBlock) -> CacheKey {
        CacheKey {
            tree: sb.tree,
            generation: sb.generation,
        }
    }
}

impl CommittedTreeCache {
    /// An empty cache.
    pub fn new() -> Self {
        CommittedTreeCache::default()
    }

    fn mint_stamp(&mut self) -> u64 {
        self.next_stamp += 1;
        self.next_stamp
    }

    /// Returns the cached decode of `sb.tree` when `delta` proves the blob's
    /// bytes are unchanged since the tree was cached. `None` demands the
    /// caller read the blob and try [`verify`](Self::verify), then decode
    /// and [`store`](Self::store) on a verify miss.
    ///
    /// A miss un-anchors the floating entry and breaks the pinned entry's
    /// chain: the bytes behind them were not proven to survive into this
    /// state, so neither may satisfy a later state's *delta-based* lookup
    /// (whose delta is relative to this one). The floating entry itself is
    /// retained — byte verification can still prove it valid.
    pub fn lookup(&mut self, sb: &SuperBlock, delta: Option<&StateDelta>) -> Option<&MemTree> {
        let key = CacheKey::of(sb);
        let unchanged = |d: &StateDelta| !d.overlaps_range(sb.tree.start, sb.tree.num_blocks());
        let floating_hit = self.anchored
            && delta.is_some_and(&unchanged)
            && self.entry.as_ref().is_some_and(|e| e.key == key);
        if floating_hit {
            let entry = self.entry.as_ref().expect("checked above");
            self.last_stamp = entry.stamp;
            return Some(&entry.tree);
        }
        self.anchored = false;
        let pinned_hit = self.chain_intact
            && delta.is_some_and(&unchanged)
            && self.pinned.as_ref().is_some_and(|(k, _, _)| *k == key);
        if pinned_hit {
            let (_, tree, stamp) = self.pinned.as_ref().expect("checked above");
            self.last_stamp = *stamp;
            return Some(tree);
        }
        self.chain_intact = false;
        None
    }

    /// After a [`lookup`](Self::lookup) miss: revalidates the floating
    /// entry against the current state's freshly read blob bytes. Equal
    /// bytes prove the cached tree is exactly the decode of this state's
    /// blob — no delta chain needed — so the entry is re-anchored (keeping
    /// its stamp: the content did not change) and returned.
    pub fn verify(&mut self, sb: &SuperBlock, bytes: &[u8]) -> Option<&MemTree> {
        let key = CacheKey::of(sb);
        let entry = self
            .entry
            .as_ref()
            .filter(|e| e.key == key && e.bytes == bytes)?;
        self.last_stamp = entry.stamp;
        self.anchored = true;
        Some(&entry.tree)
    }

    /// Records a freshly decoded committed tree for `sb` together with the
    /// blob bytes it was decoded from, re-anchoring the floating entry to
    /// the current state under a fresh stamp.
    pub fn store(&mut self, sb: &SuperBlock, bytes: Vec<u8>, tree: MemTree) {
        let stamp = self.mint_stamp();
        self.entry = Some(CacheEntry {
            key: CacheKey::of(sb),
            bytes,
            tree,
            stamp,
        });
        self.anchored = true;
        self.last_stamp = stamp;
    }

    /// The tree returned by the most recent successful resolution
    /// ([`lookup`](Self::lookup) hit, [`verify`](Self::verify) hit, or
    /// [`store`](Self::store)) — lets callers borrow it back without
    /// re-running the resolution, sidestepping the borrow the resolution
    /// methods hold on `self`.
    pub fn resolved(&self) -> Option<&MemTree> {
        if let Some(entry) = self.entry.as_ref().filter(|e| e.stamp == self.last_stamp) {
            return Some(&entry.tree);
        }
        self.pinned
            .as_ref()
            .filter(|(_, _, stamp)| *stamp == self.last_stamp)
            .map(|(_, tree, _)| tree)
    }

    /// Content stamp of the most recently resolved tree: equal stamps from
    /// the same cache guarantee identical tree content. Zero until the
    /// first resolution.
    pub fn last_stamp(&self) -> u64 {
        self.last_stamp
    }

    /// Installs the decode of the primed base image's committed tree. The
    /// entry survives [`start_run`](Self::start_run) and satisfies lookups
    /// whose delta chain proves the blob unchanged since the base.
    pub fn pin(&mut self, sb: &SuperBlock, tree: MemTree) {
        let stamp = self.mint_stamp();
        self.pinned = Some((CacheKey::of(sb), tree, stamp));
    }

    /// Starts a new run over the pinned base image: un-anchors the floating
    /// entry (it describes a state of the *previous* run, which the new
    /// run's deltas prove nothing about — though its content remains
    /// reusable through [`verify`](Self::verify)) and re-arms the pinned
    /// entry (the first delta of the new run is relative to the base).
    pub fn start_run(&mut self) {
        self.anchored = false;
        self.chain_intact = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb_with(tree: BlobRef, generation: u64) -> SuperBlock {
        let mut sb = SuperBlock::new(0x7e57);
        sb.tree = tree;
        sb.generation = generation;
        sb
    }

    #[test]
    fn cache_hits_only_with_matching_key_and_disjoint_delta() {
        let disjoint = StateDelta::from_blocks(vec![0, 50]);
        let sb = sb_with(
            BlobRef {
                start: 10,
                len: 8192,
            },
            3,
        );

        let mut cache = CommittedTreeCache::new();
        cache.store(&sb, vec![1, 2, 3], MemTree::new());
        assert!(cache.lookup(&sb, Some(&disjoint)).is_some());
        let touching = StateDelta::from_blocks(vec![0, 11]);
        assert!(
            cache.lookup(&sb, Some(&touching)).is_none(),
            "delta overlaps blob"
        );

        let mut cache = CommittedTreeCache::new();
        cache.store(&sb, vec![1, 2, 3], MemTree::new());
        assert!(cache.lookup(&sb, None).is_none(), "no delta, no proof");

        let mut cache = CommittedTreeCache::new();
        cache.store(&sb, vec![1, 2, 3], MemTree::new());
        let moved = sb_with(
            BlobRef {
                start: 20,
                len: 8192,
            },
            3,
        );
        assert!(
            cache.lookup(&moved, Some(&disjoint)).is_none(),
            "blob moved"
        );

        let mut cache = CommittedTreeCache::new();
        cache.store(&sb, vec![1, 2, 3], MemTree::new());
        let committed = sb_with(sb.tree, 4);
        assert!(
            cache.lookup(&committed, Some(&disjoint)).is_none(),
            "generation bumped"
        );
    }

    #[test]
    fn a_miss_unanchors_the_floating_entry() {
        // The chain of per-state deltas is what keeps the entry valid: once
        // a state's delta fails to prove the blob unchanged, a later state's
        // (delta-disjoint) lookup must not resurrect the stale tree.
        let mut cache = CommittedTreeCache::new();
        let sb = sb_with(
            BlobRef {
                start: 10,
                len: 8192,
            },
            3,
        );
        cache.store(&sb, vec![1, 2, 3], MemTree::new());
        let touching = StateDelta::from_blocks(vec![11]);
        assert!(cache.lookup(&sb, Some(&touching)).is_none());
        let disjoint = StateDelta::from_blocks(vec![50]);
        assert!(
            cache.lookup(&sb, Some(&disjoint)).is_none(),
            "entry must not survive a broken delta chain"
        );
        // A fresh store re-anchors the entry to the current state.
        cache.store(&sb, vec![1, 2, 3], MemTree::new());
        assert!(cache.lookup(&sb, Some(&disjoint)).is_some());
    }

    #[test]
    fn byte_verification_revives_an_unanchored_entry() {
        let mut cache = CommittedTreeCache::new();
        let sb = sb_with(
            BlobRef {
                start: 10,
                len: 8192,
            },
            3,
        );
        cache.store(&sb, vec![1, 2, 3], MemTree::new());
        let first_stamp = cache.last_stamp();

        // A miss (overlapping delta) un-anchors the entry...
        let touching = StateDelta::from_blocks(vec![11]);
        assert!(cache.lookup(&sb, Some(&touching)).is_none());
        // ... but matching bytes prove the cached decode still describes
        // this state's blob, reviving it with the *same* content stamp.
        assert!(cache.verify(&sb, &[1, 2, 3]).is_some());
        assert_eq!(cache.last_stamp(), first_stamp, "content did not change");
        assert!(cache.resolved().is_some());

        // Once re-anchored, the delta chain works again.
        let disjoint = StateDelta::from_blocks(vec![50]);
        assert!(cache.lookup(&sb, Some(&disjoint)).is_some());

        // Different bytes, a different key, or a bumped generation refuse.
        assert!(cache.lookup(&sb, Some(&touching)).is_none());
        assert!(cache.verify(&sb, &[9, 9, 9]).is_none());
        let committed = sb_with(sb.tree, 4);
        assert!(cache.verify(&committed, &[1, 2, 3]).is_none());

        // A fresh store mints a fresh stamp: distinct content, distinct id.
        cache.store(&sb, vec![4, 5], MemTree::new());
        assert_ne!(cache.last_stamp(), first_stamp);
    }

    #[test]
    fn the_entry_survives_run_boundaries_through_verification() {
        // Adjacent workloads of a sweep constantly re-commit identical
        // trees; the entry outlives start_run so the next run can revive it
        // by byte compare instead of re-decoding.
        let mut cache = CommittedTreeCache::new();
        let sb = sb_with(
            BlobRef {
                start: 10,
                len: 8192,
            },
            3,
        );
        cache.store(&sb, vec![1, 2, 3], MemTree::new());
        let stamp = cache.last_stamp();

        cache.start_run();
        let disjoint = StateDelta::from_blocks(vec![50]);
        assert!(
            cache.lookup(&sb, Some(&disjoint)).is_none(),
            "deltas of a new run prove nothing about the old entry"
        );
        assert!(cache.verify(&sb, &[1, 2, 3]).is_some());
        assert_eq!(cache.last_stamp(), stamp);
    }

    #[test]
    fn pinned_entry_survives_runs_but_not_a_broken_chain() {
        let mut cache = CommittedTreeCache::new();
        let base_sb = sb_with(
            BlobRef {
                start: 10,
                len: 8192,
            },
            3,
        );
        cache.pin(&base_sb, MemTree::new());
        let disjoint = StateDelta::from_blocks(vec![50]);

        // First state of a run: delta relative to the base proves the blob
        // unchanged, so the pinned entry satisfies the lookup.
        cache.start_run();
        assert!(cache.lookup(&base_sb, Some(&disjoint)).is_some());
        // ... and keeps doing so while the chain holds.
        assert!(cache.lookup(&base_sb, Some(&disjoint)).is_some());

        // A miss (here: an overlapping delta) breaks the chain; the pinned
        // entry stays dormant for the rest of the run even when later
        // deltas are disjoint again.
        let touching = StateDelta::from_blocks(vec![11]);
        assert!(cache.lookup(&base_sb, Some(&touching)).is_none());
        assert!(cache.lookup(&base_sb, Some(&disjoint)).is_none());

        // The next run re-anchors it.
        cache.start_run();
        assert!(cache.lookup(&base_sb, Some(&disjoint)).is_some());

        // A floating entry shadows the pinned one at the same key, so a
        // re-decoded (current) tree wins over the base's.
        cache.start_run();
        cache.store(&base_sb, vec![1, 2, 3], MemTree::new());
        assert!(cache.lookup(&base_sb, Some(&disjoint)).is_some());
    }

    #[test]
    fn remount_session_is_not_incremental() {
        assert!(!RemountSession.is_incremental());
    }
}
