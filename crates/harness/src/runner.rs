//! A multi-threaded workload runner.
//!
//! The paper tests 3.37 million workloads by fanning them out to 780 virtual
//! machines on a 65-node Chameleon Cloud cluster; each VM runs one
//! CrashMonkey instance over its share of the workloads (§6.1). In this
//! reproduction the fan-out is in-process: a pool of worker threads pulls
//! *chunks* of workloads from a shared stream (one lock acquisition per
//! chunk, not per workload), each worker owning its own CrashMonkey
//! instance, and the per-workload outcomes are folded into one summary.
//!
//! For sharded, resumable sweeps over ACE-generated spaces — where workers
//! steal whole generator shards instead of chunks of a single iterator —
//! see [`crate::sweep`].

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use b3_crashmonkey::{BugReport, CrashMonkey, CrashMonkeyConfig, WorkloadOutcome};
use b3_vfs::fs::FsSpec;
use b3_vfs::workload::Workload;

use crate::sweep::{Absorbed, Progress};

/// Runner configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Number of worker threads (the paper's analogue is VMs per node).
    pub threads: usize,
    /// Stop after this many workloads have produced bug reports (None = run
    /// the whole stream).
    pub stop_after_bugs: Option<usize>,
    /// Workload budget: stop after pulling this many workloads from the
    /// stream (None = run the whole stream). The `--stop-after` knob of the
    /// examples.
    pub stop_after_workloads: Option<usize>,
    /// How many workloads a worker pulls from the shared stream per lock
    /// acquisition.
    pub chunk_size: usize,
    /// CrashMonkey configuration used by every worker.
    pub crashmonkey: CrashMonkeyConfig,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
            stop_after_bugs: None,
            stop_after_workloads: None,
            chunk_size: 64,
            crashmonkey: CrashMonkeyConfig::small(),
        }
    }
}

/// Aggregate results of a run.
#[derive(Debug, Default)]
pub struct RunSummary {
    /// Workloads tested (executed and crash-checked).
    pub tested: usize,
    /// Workloads skipped because they could not execute.
    pub skipped: usize,
    /// Candidates pruned without testing because a sweep's
    /// [`PruneMode`](crate::sweep::PruneMode) classified them as
    /// equivalent to an already-tested class representative. Always zero
    /// for [`run_stream`] and for sweeps with pruning off. Kept separate
    /// from `skipped` so `tested + skipped + pruned` reconstructs the full
    /// candidate coverage and throughput stays honest.
    pub pruned: usize,
    /// Pruned candidates that Audit mode additionally crash-tested against
    /// their representative (a subset of `pruned`; never part of `tested`).
    pub audited: usize,
    /// Divergences Audit mode found — pruned members whose outcome did not
    /// match their representative's. Any entry here means the
    /// canonicalization was too coarse for this space and the
    /// representative results cannot be trusted.
    pub audit_failures: Vec<crate::sweep::AuditFailure>,
    /// Total raw bug reports produced, before any deduplication. For
    /// [`run_stream`] summaries this equals `reports.len()`; for sweep
    /// summaries (which deduplicate at the source and keep only group
    /// exemplars in `reports`) it counts every underlying report.
    pub raw_reports: usize,
    /// The bug reports kept: every raw report for [`run_stream`], one
    /// exemplar per (skeleton, consequence) group for sweeps.
    pub reports: Vec<BugReport>,
    /// Total wall-clock time of the run.
    pub elapsed: Duration,
    /// Sum of per-workload end-to-end times (for computing the average
    /// latency the paper reports in §6.3).
    pub total_workload_time: Duration,
}

impl RunSummary {
    /// Average per-workload latency.
    pub fn avg_workload_latency(&self) -> Duration {
        if self.tested == 0 {
            Duration::ZERO
        } else {
            self.total_workload_time / self.tested as u32
        }
    }

    /// Workloads tested per second of wall-clock time.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.tested as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// Live counters shared between workers and the progress monitor.
#[derive(Default)]
pub(crate) struct LiveCounters {
    pub tested: AtomicUsize,
    pub skipped: AtomicUsize,
    pub pruned: AtomicUsize,
    pub bugs: AtomicUsize,
    pub completed_shards: AtomicUsize,
}

impl LiveCounters {
    /// Mirrors one absorbed workload outcome into the live counters.
    pub fn record(&self, absorbed: Absorbed) {
        match absorbed {
            Absorbed::Tested { buggy } => {
                self.tested.fetch_add(1, Ordering::Relaxed);
                self.bugs.fetch_add(usize::from(buggy), Ordering::Relaxed);
            }
            Absorbed::Skipped => {
                self.skipped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub fn snapshot(
        &self,
        started: Instant,
        total_workloads: Option<u64>,
        total_shards: usize,
        seeded_shards: usize,
    ) -> Progress {
        let tested = self.tested.load(Ordering::Relaxed);
        let skipped = self.skipped.load(Ordering::Relaxed);
        let elapsed = started.elapsed();
        let completed_shards = self.completed_shards.load(Ordering::Relaxed);
        // ETA from shard completion this run: shards are near-equal slices
        // of the candidate space, and unlike tested-workload counts the
        // shard total is exact, so the estimate converges to zero.
        let done_this_run = completed_shards.saturating_sub(seeded_shards);
        let remaining = total_shards.saturating_sub(completed_shards);
        let eta = (total_shards > 0 && done_this_run > 0 && remaining > 0)
            .then(|| elapsed.mul_f64(remaining as f64 / done_this_run as f64));
        Progress {
            tested,
            skipped,
            pruned: self.pruned.load(Ordering::Relaxed),
            bugs: self.bugs.load(Ordering::Relaxed),
            completed_shards,
            total_shards,
            total_workloads,
            elapsed,
            eta,
            per_worker: Vec::new(),
        }
    }
}

/// Releases the progress monitor when the last worker exits — via `Drop`,
/// so a panicking worker (e.g. a failed debug assertion) still shuts the
/// monitor down instead of hanging the thread scope forever.
pub(crate) struct WorkerGuard<'a> {
    active: &'a AtomicUsize,
    done: &'a AtomicBool,
}

impl<'a> WorkerGuard<'a> {
    pub fn new(active: &'a AtomicUsize, done: &'a AtomicBool) -> Self {
        WorkerGuard { active, done }
    }
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        if self.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.done.store(true, Ordering::Relaxed);
        }
    }
}

/// Spawns the periodic progress-monitor thread inside `scope`. Fires the
/// callback with a fresh `snapshot` every `interval` until `done` is set,
/// then once more with the final one.
pub(crate) fn spawn_progress_monitor<'scope, 'env>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    callback: &'env (dyn Fn(&Progress) + Sync),
    interval: Duration,
    done: &'env AtomicBool,
    snapshot: impl Fn() -> Progress + Send + 'scope,
) {
    scope.spawn(move || {
        let mut last_fired = Instant::now();
        while !done.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(20));
            if last_fired.elapsed() >= interval {
                callback(&snapshot());
                last_fired = Instant::now();
            }
        }
        callback(&snapshot());
    });
}

/// Runs CrashMonkey over every workload in `workloads` using
/// `config.threads` worker threads pulling chunks from the shared stream.
pub fn run_stream<I>(spec: &(dyn FsSpec + Sync), workloads: I, config: &RunConfig) -> RunSummary
where
    I: IntoIterator<Item = Workload>,
    I::IntoIter: Send,
{
    run_stream_observed(spec, workloads, config, None, Duration::from_secs(1))
}

/// [`run_stream`] with a periodic progress callback (fired roughly every
/// `interval`, plus once with the final counters).
pub fn run_stream_observed<I>(
    spec: &(dyn FsSpec + Sync),
    workloads: I,
    config: &RunConfig,
    progress: Option<&(dyn Fn(&Progress) + Sync)>,
    interval: Duration,
) -> RunSummary
where
    I: IntoIterator<Item = Workload>,
    I::IntoIter: Send,
{
    struct Queue<I> {
        iterator: I,
        pulled: usize,
    }

    let start = Instant::now();
    let queue = Mutex::new(Queue {
        iterator: workloads.into_iter(),
        pulled: 0,
    });
    let summary = Mutex::new(RunSummary::default());
    let counters = LiveCounters::default();
    // Shared oracle interner: content-equal oracle/expectation entries
    // produced by different workloads collapse to one allocation.
    let interner = std::sync::Arc::new(b3_vfs::snapshot::EntryInterner::new());
    let done = AtomicBool::new(false);
    let threads = config.threads.max(1);
    let active_workers = AtomicUsize::new(threads);
    let chunk_size = config.chunk_size.max(1);
    let budget = config.stop_after_workloads.unwrap_or(usize::MAX);

    std::thread::scope(|scope| {
        if let Some(callback) = progress {
            spawn_progress_monitor(scope, callback, interval, &done, || {
                counters.snapshot(start, None, 0, 0)
            });
        }
        for _ in 0..threads {
            scope.spawn(|| {
                let _guard = WorkerGuard::new(&active_workers, &done);
                let monkey = CrashMonkey::with_interner(spec, config.crashmonkey, interner.clone());
                let mut chunk: Vec<Workload> = Vec::with_capacity(chunk_size);
                'work: loop {
                    if let Some(limit) = config.stop_after_bugs {
                        if counters.bugs.load(Ordering::Relaxed) >= limit {
                            break 'work;
                        }
                    }
                    chunk.clear();
                    {
                        let mut queue = queue.lock().expect("queue poisoned");
                        while queue.pulled < budget && chunk.len() < chunk_size {
                            match queue.iterator.next() {
                                Some(workload) => {
                                    queue.pulled += 1;
                                    chunk.push(workload);
                                }
                                None => break,
                            }
                        }
                    }
                    if chunk.is_empty() {
                        break 'work;
                    }
                    for workload in chunk.drain(..) {
                        // Re-check the bug limit per workload, not just per
                        // chunk, so the overshoot past `stop_after_bugs` is
                        // bounded by the number of workers, not chunk size.
                        if let Some(limit) = config.stop_after_bugs {
                            if counters.bugs.load(Ordering::Relaxed) >= limit {
                                break 'work;
                            }
                        }
                        match monkey.test_workload(&workload) {
                            Ok(outcome) => {
                                if outcome.found_bug() {
                                    counters.bugs.fetch_add(1, Ordering::Relaxed);
                                }
                                record(&summary, &counters, outcome);
                            }
                            Err(error) => {
                                counters.skipped.fetch_add(1, Ordering::Relaxed);
                                let mut summary = summary.lock().expect("summary poisoned");
                                summary.skipped += 1;
                                drop(error);
                            }
                        }
                    }
                }
            });
        }
    });

    let mut summary = summary.into_inner().expect("summary poisoned");
    summary.elapsed = start.elapsed();
    summary
}

fn record(summary: &Mutex<RunSummary>, counters: &LiveCounters, outcome: WorkloadOutcome) {
    if outcome.skipped.is_some() {
        counters.skipped.fetch_add(1, Ordering::Relaxed);
    } else {
        counters.tested.fetch_add(1, Ordering::Relaxed);
    }
    let mut summary = summary.lock().expect("summary poisoned");
    if outcome.skipped.is_some() {
        summary.skipped += 1;
        return;
    }
    summary.tested += 1;
    summary.total_workload_time += outcome.timing.total;
    summary.raw_reports += outcome.bugs.len();
    summary.reports.extend(outcome.bugs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use b3_ace::{Bounds, WorkloadGenerator};
    use b3_fs_cow::CowFsSpec;
    use b3_vfs::KernelEra;

    #[test]
    fn parallel_run_over_tiny_bounds_is_clean_on_patched_fs() {
        let spec = CowFsSpec::patched();
        let workloads: Vec<Workload> = WorkloadGenerator::new(Bounds::tiny()).collect();
        let total = workloads.len();
        let config = RunConfig {
            threads: 4,
            ..RunConfig::default()
        };
        let summary = run_stream(&spec, workloads, &config);
        assert_eq!(summary.tested + summary.skipped, total);
        assert!(
            summary.reports.is_empty(),
            "patched CowFs must not produce reports: {:?}",
            summary.reports
        );
        assert!(summary.tested > 0);
        assert!(summary.throughput() > 0.0);
    }

    #[test]
    fn buggy_fs_produces_reports_from_generated_workloads() {
        // seq-1 creat workloads on the 4.16 kernel find the "fsync file does
        // not persist all its names" family via link workloads; use a link
        // oriented tiny bound to keep the test fast.
        let spec = CowFsSpec::new(KernelEra::V3_13);
        let bounds = Bounds::tiny();
        let workloads: Vec<Workload> = WorkloadGenerator::new(bounds).collect();
        let config = RunConfig {
            threads: 2,
            ..RunConfig::default()
        };
        let summary = run_stream(&spec, workloads, &config);
        assert!(summary.tested > 0);
        // The 3.13-era CowFs has many injected bugs; at least one of the
        // tiny link/rename workloads must trip one.
        assert!(
            !summary.reports.is_empty(),
            "expected at least one report on the 3.13-era file system"
        );
    }

    #[test]
    fn stop_after_bugs_short_circuits() {
        let spec = CowFsSpec::new(KernelEra::V3_13);
        let workloads: Vec<Workload> = WorkloadGenerator::new(Bounds::tiny()).collect();
        let config = RunConfig {
            threads: 1,
            chunk_size: 1,
            stop_after_bugs: Some(1),
            ..RunConfig::default()
        };
        let summary = run_stream(&spec, workloads.clone(), &config);
        assert!(summary.tested <= workloads.len());
        assert!(!summary.reports.is_empty());
    }

    #[test]
    fn stop_after_workloads_budget_is_respected() {
        let spec = CowFsSpec::patched();
        let workloads: Vec<Workload> = WorkloadGenerator::new(Bounds::tiny()).collect();
        assert!(workloads.len() > 5);
        let config = RunConfig {
            threads: 2,
            stop_after_workloads: Some(5),
            ..RunConfig::default()
        };
        let summary = run_stream(&spec, workloads, &config);
        assert_eq!(summary.tested + summary.skipped, 5);
    }

    #[test]
    fn progress_callback_fires_with_final_counters() {
        use std::sync::atomic::AtomicUsize;
        let spec = CowFsSpec::patched();
        let workloads: Vec<Workload> = WorkloadGenerator::new(Bounds::tiny()).collect();
        let total = workloads.len();
        let calls = AtomicUsize::new(0);
        let last_processed = AtomicUsize::new(0);
        let callback = |p: &Progress| {
            calls.fetch_add(1, Ordering::Relaxed);
            last_processed.store(p.tested + p.skipped, Ordering::Relaxed);
        };
        let summary = run_stream_observed(
            &spec,
            workloads,
            &RunConfig::default(),
            Some(&callback),
            Duration::from_millis(1),
        );
        assert!(calls.load(Ordering::Relaxed) >= 1, "final callback fires");
        assert_eq!(last_processed.load(Ordering::Relaxed), total);
        assert_eq!(summary.tested + summary.skipped, total);
    }
}
