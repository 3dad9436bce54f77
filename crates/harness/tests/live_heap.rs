//! Live heap across repeated sweeps: a pass leaves nothing behind.
//!
//! A counting global allocator tracks the bytes this process holds. An app
//! sweep and a file-system sweep each run three times on two threads, as
//! the benchmark's in-process pass does, and the live bytes after the
//! second and third pass must equal those after the first within a few
//! KiB. Anything a pass leaves behind — a cache, an interner, a
//! thread-local, a leak — grows them pass by pass. The first pass is the
//! baseline, so state built once per process is not counted.
//!
//! The same counter bounds what a finished sweep keeps: its checkpoint
//! holds the one merged bug-group table, not one table per shard.

// A global allocator is `unsafe` to implement; this binary's counting one
// only forwards to the system allocator.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Mutex, PoisonError};

use b3_ace::Bounds;
use b3_app::{EngineProfile, TxnBounds, TxnOpKind};
use b3_crashmonkey::{CrashMonkeyConfig, CrashPointPolicy};
use b3_harness::{AppSweep, FsKind, RunConfig, RunSummary, Sweep};
use b3_vfs::workload::FileSet;
use b3_vfs::{KernelEra, MutantSet};

/// The system allocator, counting the bytes it has handed out and not had
/// back.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is only arithmetic on the
// side and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` guarantees hold for `System` too.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller guarantees `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as for `realloc`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The counter is process-wide: the tests of this binary take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// How far a later pass's live bytes may sit from the first pass's.
const SLACK: isize = 4 << 10;

/// Two threads, every crash point covered under `crash_points`.
fn two_threads(crash_points: CrashPointPolicy) -> RunConfig {
    RunConfig {
        threads: 2,
        crashmonkey: CrashMonkeyConfig {
            crash_points,
            ..CrashMonkeyConfig::small()
        },
        ..RunConfig::default()
    }
}

/// Two threads, every crash point tested.
fn all_points() -> RunConfig {
    two_threads(CrashPointPolicy::All)
}

/// Runs `pass` three times and checks the live heap after each pass
/// against the first. Every pass must test something and report a bug.
fn passes_leave_nothing_behind(pass: impl Fn() -> RunSummary) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let mut live = Vec::new();
    for _ in 0..3 {
        let summary = pass();
        assert!(summary.tested > 0 && !summary.reports.is_empty());
        drop(summary);
        live.push(LIVE.load(Ordering::Relaxed));
    }
    eprintln!("live heap after each pass: {live:?} bytes");
    for (pass, &bytes) in live.iter().enumerate().skip(1) {
        assert!(
            (bytes - live[0]).abs() <= SLACK,
            "live heap after pass {}: {bytes} bytes, after pass 1: {} bytes (all: {live:?})",
            pass + 1,
            live[0]
        );
    }
}

/// How many times the live bytes of a copy of a finished checkpoint's
/// `grouped()` table its checkpoint may hold: the table itself, the
/// recorded shard ids and the counters fit well inside.
const CHECKPOINT_OVER_TABLE: f64 = 1.25;

/// Runs `bounds` as [`passes_leave_nothing_behind`] does, once, and checks
/// the live bytes its checkpoint holds (what dropping it frees) against
/// those of a copy of its merged group table.
fn checkpoint_holds_one_group_table(bounds: &TxnBounds, shards: usize) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let spec = FsKind::Cow.spec(KernelEra::Patched);
    let sweep = AppSweep::new(spec.as_ref(), all_points(), EngineProfile::all()).shards(shards);
    let mut checkpoint = sweep.empty_checkpoint(bounds);
    sweep.run_resumable(bounds, &mut checkpoint);
    assert!(checkpoint.is_complete() && !checkpoint.grouped().is_empty());

    let before = LIVE.load(Ordering::Relaxed);
    let table = checkpoint.grouped().clone();
    let table_bytes = LIVE.load(Ordering::Relaxed) - before;
    let groups = table.len();
    drop(table);
    let before = LIVE.load(Ordering::Relaxed);
    drop(checkpoint);
    let held = before - LIVE.load(Ordering::Relaxed);
    eprintln!(
        "{shards} shards, {groups} groups: checkpoint {held} bytes, table {table_bytes} bytes"
    );
    assert!(
        held as f64 <= CHECKPOINT_OVER_TABLE * table_bytes as f64,
        "a checkpoint of {shards} shards holds {held} bytes, its {groups}-group table {table_bytes}"
    );
}

#[test]
fn a_finished_checkpoint_holds_one_group_table() {
    checkpoint_holds_one_group_table(&TxnBounds::tiny(), 16);
}

/// The benchmark's app space (`app_walkv`): run in release.
#[test]
#[ignore]
fn a_finished_checkpoint_holds_one_group_table_on_the_bench_space() {
    checkpoint_holds_one_group_table(&bench_bounds(), 64);
}

/// `AppSweep::run` of `bounds` with all three seeded engine bugs on
/// patched CowFs, every crash point tested.
fn app_passes(bounds: &TxnBounds, shards: usize) {
    let spec = FsKind::Cow.spec(KernelEra::Patched);
    passes_leave_nothing_behind(|| {
        AppSweep::new(spec.as_ref(), all_points(), EngineProfile::all())
            .shards(shards)
            .run(bounds)
    });
}

/// `Sweep::run` of `bounds` on CowFs of the evaluation era, every crash
/// point covered and triaged, as the benchmark's `seq2_cow_triaged` does.
fn fs_passes(bounds: &Bounds, shards: usize) {
    let spec = FsKind::Cow.spec(KernelEra::EVALUATION);
    let config = two_threads(CrashPointPolicy::AllTriaged { audit: 0 });
    passes_leave_nothing_behind(|| Sweep::new(spec.as_ref(), config).shards(shards).run(bounds));
}

#[test]
fn app_passes_leave_the_live_heap_unchanged() {
    app_passes(&TxnBounds::tiny(), 4);
}

/// The benchmark's app space (`app_walkv`): run in release.
#[test]
#[ignore]
fn app_passes_leave_the_live_heap_unchanged_on_the_bench_space() {
    app_passes(&bench_bounds(), 64);
}

#[test]
fn fs_passes_leave_the_live_heap_unchanged() {
    let bounds = Bounds {
        seq_len: 2,
        ..Bounds::tiny()
    };
    fs_passes(&bounds, 4);
}

/// The benchmark's seq-2 space (`seq2_cow_triaged`): run in release.
#[test]
#[ignore]
fn fs_passes_leave_the_live_heap_unchanged_on_the_bench_space() {
    fs_passes(&bench_seq2(), 64);
}

/// The benchmark's app space (`app_walkv`).
fn bench_bounds() -> TxnBounds {
    TxnBounds {
        name_prefix: "app-bench".into(),
        max_txns: 3,
        max_ops_per_txn: 2,
        keys: 2,
        ops: vec![TxnOpKind::Put, TxnOpKind::Append],
        allow_abort: true,
    }
}

/// The benchmark's seq-2 space: the paper's 14 operations, two core
/// operations, over two directories with one file each and one top-level
/// file.
fn bench_seq2() -> Bounds {
    Bounds {
        files: FileSet::new(
            vec!["A".into(), "B".into()],
            vec!["foo".into(), "A/foo".into(), "B/foo".into()],
        ),
        ..Bounds::paper_seq2()
    }
}
