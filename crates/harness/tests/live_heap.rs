//! Live heap across repeated app sweeps: a pass leaves nothing behind.
//!
//! A counting global allocator tracks the bytes this process holds. The
//! sweep runs three times on two threads, as the benchmark's in-process pass
//! does, and the live bytes after the second and third pass must equal
//! those after the first within a few KiB. Anything a pass leaves behind —
//! a cache, an interner, a thread-local, a leak — grows them pass by pass.
//! The first pass is the baseline, so state built once per process is not
//! counted.

// A global allocator is `unsafe` to implement; this binary's counting one
// only forwards to the system allocator.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Mutex, PoisonError};

use b3_app::{EngineProfile, TxnBounds, TxnOpKind};
use b3_crashmonkey::CrashPointPolicy;
use b3_harness::{AppSweep, FsKind, RunConfig};
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

/// Runs `bounds` with all three seeded engine bugs on patched CowFs, every
/// crash point tested, `AppSweep::run` three times on two threads, and
/// checks the live heap after each pass against the first.
fn passes_leave_nothing_behind(bounds: &TxnBounds, shards: usize) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let spec = FsKind::Cow.spec(KernelEra::Patched);
    let config = RunConfig {
        threads: 2,
        crashmonkey: b3_crashmonkey::CrashMonkeyConfig {
            crash_points: CrashPointPolicy::All,
            ..b3_crashmonkey::CrashMonkeyConfig::small()
        },
        ..RunConfig::default()
    };
    let engine = EngineProfile::all();
    let mut live = Vec::new();
    for _ in 0..3 {
        let summary = AppSweep::new(spec.as_ref(), config, engine)
            .shards(shards)
            .run(bounds);
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

#[test]
fn app_passes_leave_the_live_heap_unchanged() {
    passes_leave_nothing_behind(&TxnBounds::tiny(), 4);
}

/// The benchmark's app space (`app_walkv`): run in release.
#[test]
#[ignore]
fn app_passes_leave_the_live_heap_unchanged_on_the_bench_space() {
    let bounds = TxnBounds {
        name_prefix: "app-bench".into(),
        max_txns: 3,
        max_ops_per_txn: 2,
        keys: 2,
        ops: vec![TxnOpKind::Put, TxnOpKind::Append],
        allow_abort: true,
    };
    passes_leave_nothing_behind(&bounds, 64);
}
