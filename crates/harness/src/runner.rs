//! What an in-process run is configured with and what it reports: the
//! [`RunConfig`] a sweep runs under, the [`RunSummary`] it folds its shard
//! results into, and the progress monitor the shard engine (the crate's
//! `engine` module) and the distributed coordinator share.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use b3_crashmonkey::{BugReport, CrashMonkeyConfig};

use crate::sweep::Progress;

/// Runner configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Number of worker threads (the paper's analogue is VMs per node).
    pub threads: usize,
    /// Stop handing out shards once this many workloads of the merged
    /// shards have produced bug reports (None = run the whole space).
    /// Checked whenever a thread claims its next shard: shards already
    /// running finish and are recorded, so a run can end past the limit.
    pub stop_after_bugs: Option<usize>,
    /// Workload budget: stop after crash-testing this many workloads (None
    /// = run the whole space). An in-process run takes one unit before
    /// every workload it executes (tested, skipped or audited), so it
    /// executes exactly this many unless the space runs out first; pruned
    /// candidates take none. The `--stop-after` knob of the examples.
    pub stop_after_workloads: Option<usize>,
    /// CrashMonkey configuration used by every worker.
    pub crashmonkey: CrashMonkeyConfig,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
            stop_after_bugs: None,
            stop_after_workloads: None,
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
    /// for sweeps with pruning off. Kept separate
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
    /// Total raw bug reports produced, before any deduplication: sweeps
    /// deduplicate at the source and keep only group exemplars in
    /// `reports`, so this counts every underlying report.
    pub raw_reports: usize,
    /// The bug reports kept: one exemplar per (skeleton, consequence)
    /// group.
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

/// Stops the progress monitor when dropped, also while a panic unwinds:
/// a panicking slot thread then fails its run instead of leaving the thread
/// scope waiting for the monitor forever.
pub(crate) struct MonitorStop(Arc<AtomicBool>);

impl Drop for MonitorStop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Spawns the periodic progress-monitor thread inside `scope`. Fires the
/// callback with a fresh `snapshot` every `interval` until the returned
/// guard is dropped, then once more with the final one. Both sweep runners
/// (the in-process engine and the distributed shell) hold the guard until
/// their slot threads are joined.
pub(crate) fn spawn_progress_monitor<'scope, 'env>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    callback: &'env (dyn Fn(&Progress) + Sync),
    interval: Duration,
    snapshot: impl Fn() -> Progress + Send + 'scope,
) -> MonitorStop {
    let done = Arc::new(AtomicBool::new(false));
    let stop = MonitorStop(Arc::clone(&done));
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
    stop
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Sweep;
    use b3_ace::{Bounds, WorkloadGenerator};
    use b3_fs_cow::CowFsSpec;
    use b3_vfs::KernelEra;
    use std::sync::atomic::AtomicUsize;

    fn tiny_total() -> usize {
        WorkloadGenerator::new(Bounds::tiny()).count()
    }

    #[test]
    fn parallel_run_over_tiny_bounds_is_clean_on_patched_fs() {
        let spec = CowFsSpec::patched();
        let config = RunConfig {
            threads: 4,
            ..RunConfig::default()
        };
        let summary = Sweep::new(&spec, config).run(&Bounds::tiny());
        assert_eq!(summary.tested + summary.skipped, tiny_total());
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
        // The 3.13-era CowFs has many injected bugs; at least one of the
        // tiny link/rename workloads must trip one.
        let spec = CowFsSpec::new(KernelEra::V3_13);
        let config = RunConfig {
            threads: 2,
            ..RunConfig::default()
        };
        let summary = Sweep::new(&spec, config).run(&Bounds::tiny());
        assert!(summary.tested > 0);
        assert!(
            !summary.reports.is_empty(),
            "expected at least one report on the 3.13-era file system"
        );
    }

    #[test]
    fn stop_after_bugs_short_circuits() {
        let spec = CowFsSpec::new(KernelEra::V3_13);
        let config = RunConfig {
            threads: 1,
            stop_after_bugs: Some(1),
            ..RunConfig::default()
        };
        let summary = Sweep::new(&spec, config).shards(8).run(&Bounds::tiny());
        assert!(summary.tested < tiny_total(), "the first bug stops the run");
        assert!(!summary.reports.is_empty());
    }

    #[test]
    fn stop_after_workloads_budget_is_respected() {
        let spec = CowFsSpec::patched();
        assert!(tiny_total() > 5);
        let config = RunConfig {
            threads: 2,
            stop_after_workloads: Some(5),
            ..RunConfig::default()
        };
        let summary = Sweep::new(&spec, config).run(&Bounds::tiny());
        assert_eq!(summary.tested + summary.skipped, 5);
    }

    #[test]
    fn progress_callback_fires_with_final_counters() {
        let spec = CowFsSpec::patched();
        let calls = AtomicUsize::new(0);
        let last_processed = AtomicUsize::new(0);
        let callback = |p: &Progress| {
            calls.fetch_add(1, Ordering::Relaxed);
            last_processed.store(p.tested + p.skipped, Ordering::Relaxed);
        };
        let summary = Sweep::new(&spec, RunConfig::default())
            .on_progress(&callback, Duration::from_millis(1))
            .run(&Bounds::tiny());
        assert!(calls.load(Ordering::Relaxed) >= 1, "final callback fires");
        assert_eq!(last_processed.load(Ordering::Relaxed), tiny_total());
        assert_eq!(summary.tested + summary.skipped, tiny_total());
    }
}
