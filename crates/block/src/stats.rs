//! Per-device IO statistics.
//!
//! Section 6.5 of the paper reports CrashMonkey's resource consumption
//! (memory of the copy-on-write device, storage per workload, CPU). These
//! counters are the per-device view of that accounting; the §6.5 table the
//! `quickstart` example prints averages the accounting of each workload's
//! outcome.

/// Cumulative counters maintained by every block device implementation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Number of block writes accepted.
    pub writes: u64,
    /// Bytes of payload written (pre-padding).
    pub bytes_written: u64,
    /// Number of explicit cache flushes.
    pub flushes: u64,
    /// Number of writes carrying the FUA flag.
    pub fua_writes: u64,
}

impl DeviceStats {
    /// Creates a zeroed statistics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a write of `bytes` bytes with the given FUA disposition.
    pub fn record_write(&mut self, bytes: usize, fua: bool) {
        self.writes += 1;
        self.bytes_written += bytes as u64;
        if fua {
            self.fua_writes += 1;
        }
    }

    /// Records a flush request.
    pub fn record_flush(&mut self) {
        self.flushes += 1;
    }

    /// Merges another statistics block into this one.
    pub fn merge(&mut self, other: &DeviceStats) {
        self.writes += other.writes;
        self.bytes_written += other.bytes_written;
        self.flushes += other.flushes;
        self.fua_writes += other.fua_writes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge() {
        let mut a = DeviceStats::new();
        a.record_write(100, true);
        a.record_write(200, false);
        a.record_flush();
        assert_eq!(a.writes, 2);
        assert_eq!(a.bytes_written, 300);
        assert_eq!(a.fua_writes, 1);
        assert_eq!(a.flushes, 1);

        let mut b = DeviceStats::new();
        b.record_write(50, false);
        b.merge(&a);
        assert_eq!(b.writes, 3);
        assert_eq!(b.bytes_written, 350);
        assert_eq!(b.fua_writes, 1);
        assert_eq!(b.flushes, 1);
    }
}
