//! Order statistics, the log-bucket histogram, `/proc` readers and the
//! seeded permutation — the arithmetic the benchmark's numbers rest on.

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) does, so a
/// spread printed here is the spread the driver computes from the same
/// values. One value is its own quartiles.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len == 1 {
        return [sorted[0]; 3];
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// The median (the middle value, or the mean of the middle two).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Interquartile range as a share of the median — the driver's "spread".
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Sub-buckets per power of two: bucket bounds are ~4.4 % apart, which is
/// the resolution of every percentile read back out.
const SUB_BUCKETS: u64 = 16;
const NUM_BUCKETS: usize = (64 * SUB_BUCKETS) as usize;

/// A histogram of nanosecond durations in logarithmic buckets. Constant
/// memory however many values are recorded, so every span of a run can be
/// aggregated without keeping the spans.
#[derive(Clone)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
        }
    }
}

impl LogHistogram {
    /// The bucket a value falls into: values below `SUB_BUCKETS` get a
    /// bucket each; above, the position of the top bit selects the octave
    /// and the next four bits the sub-bucket.
    fn bucket_of(value: u64) -> usize {
        if value < SUB_BUCKETS {
            return value as usize;
        }
        let top = 63 - u64::from(value.leading_zeros());
        let sub = (value >> (top - 4)) & (SUB_BUCKETS - 1);
        ((top - 3) * SUB_BUCKETS + sub) as usize
    }

    /// Smallest value of a bucket.
    fn lower_bound(bucket: usize) -> u64 {
        let bucket = bucket as u64;
        if bucket < SUB_BUCKETS {
            return bucket;
        }
        let top = bucket / SUB_BUCKETS + 3;
        let sub = bucket % SUB_BUCKETS;
        (SUB_BUCKETS + sub) << (top - 4)
    }

    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
    }

    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The value at quantile `q` in `0.0..=1.0`: the midpoint of the bucket
    /// holding the `ceil(q * count)`-th smallest value. Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let low = Self::lower_bound(bucket);
                let high = Self::lower_bound(bucket + 1);
                return low + (high - low) / 2;
            }
        }
        unreachable!("rank is at most the recorded count")
    }

    /// Non-empty buckets as `(lower bound, count)`, for the trace file.
    pub fn non_empty(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(bucket, &n)| (Self::lower_bound(bucket), n))
            .collect()
    }
}

/// `VmHWM` (peak resident set, kB) out of a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// utime + stime + cutime + cstime (clock ticks) out of a
/// `/proc/<pid>/stat` line. The command name (field 2) may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime..cstime are 14..=17.
    let fields: Vec<&str> = after_comm.split_ascii_whitespace().collect();
    fields
        .get(11..15)?
        .iter()
        .map(|field| field.parse::<u64>().ok())
        .sum()
}

/// Linux reports process times in units of `USER_HZ`, which is 100 on
/// every architecture the kernel supports.
const TICKS_PER_SECOND: f64 = 100.0;

/// Peak resident set of this process in MiB, as measured.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    parse_vm_hwm_kb(&status).expect("status has VmHWM") as f64 / 1024.0
}

/// CPU seconds charged to this process and the children it has reaped.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    parse_stat_cpu_ticks(&stat).expect("stat has cpu times") as f64 / TICKS_PER_SECOND
}

/// SplitMix64: the whole benchmark's only source of pseudo-randomness.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Reorders `items` by a Fisher–Yates shuffle seeded with `seed`. Seed 0 is
/// the identity, so the pinned numbers are those of the paper's enumeration
/// order; every other seed is some permutation of the same items.
pub fn permute<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    if seed == 0 {
        return out;
    }
    let mut state = seed;
    for i in (1..out.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(spread(&ten), 1.0);
    }

    #[test]
    fn histogram_buckets_tile_the_range_and_bound_the_error() {
        // Every value lands in the bucket whose bounds enclose it.
        for value in (0..4096).chain([u64::from(u32::MAX), 1 << 40, (1 << 40) + 12345]) {
            let bucket = LogHistogram::bucket_of(value);
            assert!(LogHistogram::lower_bound(bucket) <= value, "{value}");
            assert!(value < LogHistogram::lower_bound(bucket + 1), "{value}");
        }
        let mut hist = LogHistogram::default();
        assert_eq!(hist.quantile(0.5), 0);
        for value in 1..=1000u64 {
            hist.record(value * 1000);
        }
        assert_eq!(hist.count(), 1000);
        for (q, exact) in [(0.5, 500_000.0), (0.99, 990_000.0), (1.0, 1_000_000.0)] {
            let got = hist.quantile(q) as f64;
            assert!((got - exact).abs() / exact < 0.05, "q{q}: {got} vs {exact}");
        }
        assert_eq!(hist.non_empty().iter().map(|(_, n)| n).sum::<u64>(), 1000);
    }

    #[test]
    fn proc_parsers_read_the_documented_fields() {
        let status = "Name:\tb3-bench\nVmPeak:\t  9000 kB\nVmHWM:\t    4312 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(4312));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        // A command name with spaces and parentheses must not shift fields.
        let stat = "4242 (b3 (bench) x) S 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                    12 3 40 5 20 0 2 0 100 1000000 250 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 0 0 0 0 0 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(12 + 3 + 40 + 5));
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
        // And the live files parse.
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }

    #[test]
    fn permutation_is_identity_at_seed_zero_and_bijective_otherwise() {
        let items: Vec<u32> = (0..14).collect();
        assert_eq!(permute(&items, 0), items);
        let mut moved = 0;
        for seed in 1..=32 {
            let shuffled = permute(&items, seed);
            assert_eq!(permute(&items, seed), shuffled, "same seed, same order");
            let mut sorted = shuffled.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, items, "seed {seed} lost or duplicated an item");
            moved += usize::from(shuffled != items);
        }
        assert!(moved >= 31, "non-zero seeds must actually reorder");
        assert_eq!(permute(&[1u8], 9), vec![1]);
        assert_eq!(permute::<u8>(&[], 9), Vec::<u8>::new());
    }
}
