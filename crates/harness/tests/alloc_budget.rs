//! Allocations per crash-tested workload: a budget the crash-testing path
//! must stay within.
//!
//! A counting global allocator counts every allocation and reallocation
//! this process makes. One thread sweeps a fixed slice of the benchmark's
//! seq-2 space (the `seq2_journal_all` job: patched JournalFs, every crash
//! point built, recovered and checked) and the count, divided by the
//! workloads executed, must stay at or below [`BUDGET`]. A sweep on one
//! thread makes the same calls in the same order every time, so the count
//! repeats from pass to pass. The counter is process-wide, though: what
//! else the process runs meanwhile, the test runner's own threads included,
//! is counted too, and under load a pass has been seen a few allocations
//! over the others. So the slice is swept three times, the smallest count
//! is the one judged, and the passes may differ by [`NOISE`] at most.
//!
//! Debug builds run reference readings and cross-checks on this path, so
//! the test is `#[ignore]`d and counts in release only:
//!
//! ```text
//! cargo test --release -q -p b3-harness --test alloc_budget -- --ignored
//! ```
//!
//! A change that lowers the count re-pins [`BUDGET`]; one that raises it
//! says why where it re-pins it.

// A global allocator is `unsafe` to implement; this binary's counting one
// only forwards to the system allocator.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use b3_ace::Bounds;
use b3_crashmonkey::{CrashMonkeyConfig, CrashPointPolicy};
use b3_harness::{FsKind, RunConfig, Sweep};
use b3_vfs::workload::FileSet;
use b3_vfs::KernelEra;

/// The system allocator, counting the allocations it has handed out
/// (a reallocation counts as one).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is only arithmetic on the
// side and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` guarantees hold for `System` too.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Workloads the slice executes: the first ones of the seq-2 space in
/// shard order, the first seven of its 64 shards and part of the eighth.
const SLICE: usize = 10_000;

/// Allocations the slice may make: 72.68 per executed workload, counted as
/// the command above runs it. With `--nocapture` the count is 2 lower: the
/// test runner's output capture allocates inside the counted window. The
/// tree before blobs were written from one shared buffer, paths were
/// shared and the checks stopped copying them made 990 095 (99.01 per
/// workload); the one before the sweep stopped interning oracle entries and
/// `All` stopped building triage key seeds made 727 289 (72.73).
const BUDGET: u64 = 726_828;

/// How far apart the passes' counts may be.
const NOISE: u64 = 64;

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

/// Sweeps the slice on one thread and returns (allocations, workloads
/// executed).
fn sweep_slice(bounds: &Bounds) -> (u64, usize) {
    let spec = FsKind::Journal.spec(KernelEra::Patched);
    let config = RunConfig {
        threads: 1,
        stop_after_workloads: Some(SLICE),
        crashmonkey: CrashMonkeyConfig {
            crash_points: CrashPointPolicy::All,
            ..CrashMonkeyConfig::small()
        },
        ..RunConfig::default()
    };
    let sweep = Sweep::new(spec.as_ref(), config).shards(64);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let summary = sweep.run(bounds);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        summary.reports.is_empty(),
        "patched JournalFs reports nothing"
    );
    (allocations, summary.tested + summary.skipped)
}

#[test]
#[ignore = "counts in release only: cargo test --release --test alloc_budget -- --ignored"]
fn crash_testing_the_seq2_slice_stays_within_its_allocation_budget() {
    let bounds = bench_seq2();
    let mut counts = Vec::new();
    for _ in 0..3 {
        let (allocations, executed) = sweep_slice(&bounds);
        assert_eq!(executed, SLICE, "the slice runs its whole budget");
        counts.push(allocations);
    }
    let (least, most) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
    let per_workload = |count: u64| count as f64 / SLICE as f64;
    eprintln!(
        "{least} allocations over {SLICE} workloads: {:.2} per workload (passes: {counts:?})",
        per_workload(*least)
    );
    assert!(
        most - least <= NOISE,
        "the count repeats from pass to pass: {counts:?}"
    );
    assert!(
        *least <= BUDGET,
        "{least} allocations ({:.2} per executed workload), budget {BUDGET} ({:.2})",
        per_workload(*least),
        per_workload(BUDGET)
    );
}
