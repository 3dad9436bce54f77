//! CrashMonkey configuration.

use b3_block::BLOCK_SIZE;

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
    /// reference the other policies' shortcuts are pinned against). Under
    /// this policy and [`LastOnly`](CrashPointPolicy::LastOnly) alike, a
    /// persistence point that lies inside the step prefix the harness
    /// resumed from its trunk is the very crash state the workload that ran
    /// the prefix tested: what that workload found there is inherited —
    /// for a file-system workload only with the rename candidates it was
    /// found under, which must be this workload's too — instead of being
    /// found again. Debug builds test the state anyway and assert the two
    /// equal.
    All,
    /// Every persistence point *covered*, but only triage-new states
    /// *dynamically tested*: crash states whose triage key matches an
    /// already-tested state's — the content digest (see `b3_analyze` and
    /// docs/ANALYSIS.md), plus the checker projection for a file-system
    /// workload — reuse what their witness came to instead of being
    /// re-constructed, re-mounted, and re-checked. Nothing is inherited
    /// from the trunk. Bug groups are byte-identical to
    /// [`CrashPointPolicy::All`] by construction; the differential suites
    /// pin it.
    AllTriaged {
        /// When non-zero, deterministically re-test up to this many reused
        /// states per workload dynamically and compare against the witness
        /// (the analysis-layer analogue of `PruneMode::Audit`). Divergences
        /// are reported in the workload outcome.
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

    /// Selects the persistence points to crash at from a run's, in order.
    pub fn select<'a, P>(&self, points: &'a [P]) -> &'a [P] {
        match self {
            CrashPointPolicy::LastOnly => &points[points.len().saturating_sub(1)..],
            CrashPointPolicy::All | CrashPointPolicy::AllTriaged { .. } => points,
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
}

impl Default for CrashMonkeyConfig {
    fn default() -> Self {
        CrashMonkeyConfig {
            device_blocks: 100 * 1024 * 1024 / BLOCK_SIZE as u64,
            crash_points: CrashPointPolicy::LastOnly,
            direct_write_is_persistence_point: true,
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
}
