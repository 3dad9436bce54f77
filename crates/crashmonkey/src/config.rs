//! CrashMonkey configuration.

use b3_block::BLOCK_SIZE;

use crate::profiler::CheckpointInfo;

/// Which checkpoints of a workload to crash at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashPointPolicy {
    /// Only the final persistence point. This is the paper's testing
    /// strategy (§5.3): when workloads are generated in increasing sequence
    /// length, crashing at an earlier persistence point is equivalent to an
    /// already-tested shorter workload.
    #[default]
    LastOnly,
    /// Every persistence point (used when reproducing individual corpus
    /// workloads outside the exhaustive-generation setting, and the
    /// reference the other policies' shortcuts are pinned against). An
    /// earlier persistence point that lies inside the operation prefix the
    /// harness resumed from its trunk is the very crash state the workload
    /// that ran the prefix tested: its verdict is inherited — with the
    /// rename candidates it was found under, which must be this workload's
    /// too — instead of being found again. Debug builds test the state
    /// anyway and assert the two verdicts equal.
    All,
    /// Every persistence point *covered*, but only triage-new states
    /// *dynamically tested*: crash states whose content digest and checker
    /// projection match an already-tested state (see `b3_analyze` and
    /// docs/ANALYSIS.md) reuse the recorded verdict of their witness
    /// instead of being re-constructed, re-mounted, and re-checked. Bug
    /// groups are byte-identical to [`CrashPointPolicy::All`] by
    /// construction; the differential suite pins it.
    AllTriaged {
        /// When non-zero, deterministically re-test up to this many reused
        /// states per workload dynamically and compare against the cached
        /// verdict (the analysis-layer analogue of `PruneMode::Audit`).
        /// Divergences are reported in the workload outcome. On a `b3_app`
        /// job, where the reuse is of recoveries held along the trunk, the
        /// first `audit` answered crash states of each workload are built
        /// and recovered again and compared with the held recovery.
        audit: u32,
    },
}

impl CrashPointPolicy {
    /// Parses the `--crash-points` CLI spellings (`triaged` starts with no
    /// audit budget).
    pub fn parse(text: &str) -> Option<CrashPointPolicy> {
        match text {
            "last" => Some(CrashPointPolicy::LastOnly),
            "all" => Some(CrashPointPolicy::All),
            "triaged" => Some(CrashPointPolicy::AllTriaged { audit: 0 }),
            _ => None,
        }
    }

    /// Selects the checkpoints to test from a profile.
    pub fn select<'a>(&self, checkpoints: &'a [CheckpointInfo]) -> Vec<&'a CheckpointInfo> {
        match self {
            CrashPointPolicy::LastOnly => checkpoints.last().into_iter().collect(),
            CrashPointPolicy::All | CrashPointPolicy::AllTriaged { .. } => {
                checkpoints.iter().collect()
            }
        }
    }

    /// True when the policy covers every persistence point (dynamically or
    /// via triage reuse).
    pub fn covers_all(&self) -> bool {
        !matches!(self, CrashPointPolicy::LastOnly)
    }

    /// The triage audit budget, when the policy is triaged.
    pub fn triage_audit(&self) -> Option<u32> {
        match self {
            CrashPointPolicy::AllTriaged { audit } => Some(*audit),
            _ => None,
        }
    }
}

/// Configuration of a CrashMonkey run.
#[derive(Debug, Clone, Copy)]
pub struct CrashMonkeyConfig {
    /// Size of the test device in blocks. Defaults to the paper's 100 MB
    /// initial file-system image (Table 3).
    pub device_blocks: u64,
    /// Which persistence points to crash at.
    pub crash_points: CrashPointPolicy,
    /// Treat `O_DIRECT` writes as persistence points (their data reaches the
    /// device synchronously). Needed to reproduce the ext4 direct-write
    /// i_disksize bug (known workload 4).
    pub direct_write_is_persistence_point: bool,
    /// Model the kernel-imposed delays the paper reports for the real
    /// CrashMonkey (§6.3): ~1 s to mount a file system plus a 2 s settle
    /// delay after the workload, which together account for 84% of the 4.6 s
    /// per-workload latency. The simulated file systems have no such delays;
    /// when this flag is set the reported *modeled* latency adds them so the
    /// benchmark output can be compared against the paper's numbers.
    pub model_kernel_delays: bool,
}

impl Default for CrashMonkeyConfig {
    fn default() -> Self {
        CrashMonkeyConfig {
            device_blocks: 100 * 1024 * 1024 / BLOCK_SIZE as u64,
            crash_points: CrashPointPolicy::LastOnly,
            direct_write_is_persistence_point: true,
            model_kernel_delays: false,
        }
    }
}

impl CrashMonkeyConfig {
    /// A configuration matching the paper's evaluation setup.
    pub fn paper_default() -> Self {
        CrashMonkeyConfig::default()
    }

    /// A small, fast configuration for unit tests and property tests.
    pub fn small() -> Self {
        CrashMonkeyConfig {
            device_blocks: 4096,
            ..CrashMonkeyConfig::default()
        }
    }

    /// A configuration that crashes at every persistence point.
    pub fn exhaustive_crash_points() -> Self {
        CrashMonkeyConfig {
            crash_points: CrashPointPolicy::All,
            ..CrashMonkeyConfig::small()
        }
    }

    /// A configuration that covers every persistence point with verdict
    /// triage (see [`CrashPointPolicy::AllTriaged`]).
    pub fn triaged_crash_points() -> Self {
        CrashMonkeyConfig {
            crash_points: CrashPointPolicy::AllTriaged { audit: 0 },
            ..CrashMonkeyConfig::small()
        }
    }

    /// The kernel-imposed delay (in seconds) the paper measured per
    /// workload: ~1 s mount delay + 2 s settle delay + ~0.9 s of other
    /// kernel-side waits, i.e. 84% of the 4.6 s end-to-end latency.
    pub fn modeled_kernel_delay_seconds(&self) -> f64 {
        if self.model_kernel_delays {
            4.6 * 0.84
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_device_size() {
        let config = CrashMonkeyConfig::default();
        assert_eq!(config.device_blocks * BLOCK_SIZE as u64, 100 * 1024 * 1024);
        assert_eq!(config.crash_points, CrashPointPolicy::LastOnly);
    }

    #[test]
    fn modeled_delay_only_when_enabled() {
        assert_eq!(
            CrashMonkeyConfig::default().modeled_kernel_delay_seconds(),
            0.0
        );
        let modeled = CrashMonkeyConfig {
            model_kernel_delays: true,
            ..CrashMonkeyConfig::default()
        };
        assert!((modeled.modeled_kernel_delay_seconds() - 3.864).abs() < 1e-9);
    }
}
