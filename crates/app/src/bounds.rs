//! Bounded enumeration space for transaction workloads.
//!
//! [`TxnBounds`] plays the role `b3_ace::Bounds` plays for syscall
//! workloads: it defines a finite, totally ordered space of transaction
//! sequences, counts it exactly, and splits it into contiguous shards so
//! the sweep/distrib stack can fan it out unchanged. Enumeration
//! order is the odometer order the decode in
//! [`generator`](crate::generator) realises: workload index `i` always
//! decodes to the same transaction sequence, on any worker.

use b3_vfs::codec::{Decoder, Encoder};
use b3_vfs::{FsError, FsResult};

/// One kind of KV operation inside a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TxnOpKind {
    /// `put(key, value)` — idempotent overwrite.
    Put,
    /// `append(key, value)` — the non-idempotent op; what double replay
    /// visibly corrupts.
    Append,
    /// `delete(key)`.
    Delete,
}

impl TxnOpKind {
    /// One-letter skeleton code.
    pub fn letter(&self) -> char {
        match self {
            TxnOpKind::Put => 'P',
            TxnOpKind::Append => 'A',
            TxnOpKind::Delete => 'D',
        }
    }

    /// Stable wire code (matches the engine's record op kinds).
    pub fn code(&self) -> u8 {
        match self {
            TxnOpKind::Put => 1,
            TxnOpKind::Delete => 2,
            TxnOpKind::Append => 3,
        }
    }

    /// Inverse of [`TxnOpKind::code`].
    pub fn from_code(code: u8) -> FsResult<Self> {
        match code {
            1 => Ok(TxnOpKind::Put),
            2 => Ok(TxnOpKind::Delete),
            3 => Ok(TxnOpKind::Append),
            other => Err(FsError::Corrupted(format!(
                "unknown transaction op code {other}"
            ))),
        }
    }
}

/// The bounded transaction-workload space.
///
/// A workload is a sequence of 1..=`max_txns` transactions; each
/// transaction is 1..=`max_ops_per_txn` ops drawn from `ops` over `keys`
/// distinct keys, and either commits or (when `allow_abort`) aborts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnBounds {
    /// Prefix for generated workload names (`{prefix}-0000001`, 1-based,
    /// zero-padded so lexicographic order is enumeration order).
    pub name_prefix: String,
    /// Maximum transactions per workload (≥ 1).
    pub max_txns: u32,
    /// Maximum ops per transaction (≥ 1).
    pub max_ops_per_txn: u32,
    /// Number of distinct keys (`k0`, `k1`, …).
    pub keys: u32,
    /// The op kinds to draw from, in enumeration order.
    pub ops: Vec<TxnOpKind>,
    /// Also enumerate aborted transactions (no-resurrection coverage).
    pub allow_abort: bool,
}

impl TxnBounds {
    /// The smallest space that still exercises all three seeded engine
    /// bugs: one transaction of up to two puts/appends over two keys,
    /// always committed — 20 workloads. This is the CI smoke preset.
    pub fn tiny() -> Self {
        TxnBounds {
            name_prefix: "app-tiny".to_string(),
            max_txns: 1,
            max_ops_per_txn: 2,
            keys: 2,
            ops: vec![TxnOpKind::Put, TxnOpKind::Append],
            allow_abort: false,
        }
    }

    /// A broader space (7140 workloads): up to two transactions of up to
    /// two ops over put/append/delete and two keys, with aborts.
    pub fn smoke() -> Self {
        TxnBounds {
            name_prefix: "app-smoke".to_string(),
            max_txns: 2,
            max_ops_per_txn: 2,
            keys: 2,
            ops: vec![TxnOpKind::Put, TxnOpKind::Append, TxnOpKind::Delete],
            allow_abort: true,
        }
    }

    /// Per-op choice count: kinds × keys.
    pub(crate) fn per_op(&self) -> u128 {
        self.ops.len() as u128 * u128::from(self.keys)
    }

    /// Choice count for one transaction: op sequences of length
    /// 1..=`max_ops_per_txn`, times the commit/abort terminator.
    pub(crate) fn per_txn(&self) -> u128 {
        let p = self.per_op();
        let mut ops_total = 0u128;
        let mut power = 1u128;
        for _ in 0..self.max_ops_per_txn {
            power = power.saturating_mul(p);
            ops_total = ops_total.saturating_add(power);
        }
        ops_total.saturating_mul(self.terminators())
    }

    /// Number of transaction terminators (commit, plus abort when allowed).
    pub(crate) fn terminators(&self) -> u128 {
        1 + u128::from(self.allow_abort)
    }

    /// Exact size of the whole space.
    pub fn candidates(&self) -> u64 {
        let m = self.per_txn();
        let mut total = 0u128;
        let mut power = 1u128;
        for _ in 0..self.max_txns {
            power = power.saturating_mul(m);
            total = total.saturating_add(power);
        }
        u64::try_from(total).unwrap_or(u64::MAX)
    }

    /// The `index`-th of `of` contiguous, maximally even shards. Mirrors
    /// `b3_ace::Bounds::shard`: concatenating all shards in order tiles the
    /// space exactly, and shard sizes differ by at most one.
    pub fn shard(&self, index: usize, of: usize) -> TxnShard {
        assert!(of > 0, "cannot split into zero shards");
        assert!(index < of, "shard index {index} out of range 0..{of}");
        let total = u128::from(self.candidates());
        let of128 = of as u128;
        let start = total * index as u128 / of128;
        let end = total * (index as u128 + 1) / of128;
        TxnShard {
            index,
            of,
            start: u64::try_from(start).unwrap_or(u64::MAX),
            end: u64::try_from(end).unwrap_or(u64::MAX),
        }
    }

    /// All `of` shards, in order.
    pub fn shards(&self, of: usize) -> Vec<TxnShard> {
        (0..of).map(|index| self.shard(index, of)).collect()
    }

    /// Stable description used in checkpoint fingerprints.
    pub fn describe(&self) -> String {
        let letters: String = self.ops.iter().map(TxnOpKind::letter).collect();
        format!(
            "t{}c{}k{}[{}]a{}",
            self.max_txns,
            self.max_ops_per_txn,
            self.keys,
            letters,
            u8::from(self.allow_abort)
        )
    }

    /// Serializes with the workspace codec (the distrib job wire form).
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.name_prefix);
        enc.put_u32(self.max_txns);
        enc.put_u32(self.max_ops_per_txn);
        enc.put_u32(self.keys);
        enc.put_u64(self.ops.len() as u64);
        for op in &self.ops {
            enc.put_u8(op.code());
        }
        enc.put_bool(self.allow_abort);
    }

    /// Inverse of [`TxnBounds::encode`].
    pub fn decode(dec: &mut Decoder<'_>) -> FsResult<Self> {
        let name_prefix = dec.get_str()?;
        let max_txns = dec.get_u32()?;
        let max_ops_per_txn = dec.get_u32()?;
        let keys = dec.get_u32()?;
        let num_ops = dec.get_u64()?;
        if num_ops > 16 {
            return Err(FsError::Corrupted(format!(
                "implausible transaction op-kind count {num_ops}"
            )));
        }
        let mut ops = Vec::with_capacity(num_ops as usize);
        for _ in 0..num_ops {
            ops.push(TxnOpKind::from_code(dec.get_u8()?)?);
        }
        let allow_abort = dec.get_bool()?;
        Ok(TxnBounds {
            name_prefix,
            max_txns,
            max_ops_per_txn,
            keys,
            ops,
            allow_abort,
        })
    }
}

/// A contiguous slice `[start, end)` of a [`TxnBounds`] space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnShard {
    /// This shard's position.
    pub index: usize,
    /// Total number of shards in the decomposition.
    pub of: usize,
    /// First workload index covered (0-based, inclusive).
    pub start: u64,
    /// One past the last workload index covered.
    pub end: u64,
}

impl TxnShard {
    /// Number of workloads in this shard.
    pub fn candidates(&self) -> u64 {
        self.end - self.start
    }

    /// True when the shard covers nothing (more shards than workloads).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_counts_are_exact() {
        assert_eq!(TxnBounds::tiny().candidates(), 20);
        assert_eq!(TxnBounds::smoke().candidates(), 7140);
    }

    #[test]
    fn shards_tile_the_space() {
        let bounds = TxnBounds::smoke();
        for of in [1usize, 2, 3, 7, 64] {
            let shards = bounds.shards(of);
            assert_eq!(shards[0].start, 0);
            assert_eq!(shards[of - 1].end, bounds.candidates());
            for pair in shards.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            let sizes: Vec<u64> = shards.iter().map(TxnShard::candidates).collect();
            let max = sizes.iter().max().unwrap();
            let min = sizes.iter().min().unwrap();
            assert!(max - min <= 1, "uneven shards: {sizes:?}");
        }
    }

    #[test]
    fn bounds_codec_round_trip() {
        for bounds in [TxnBounds::tiny(), TxnBounds::smoke()] {
            let mut enc = Encoder::new();
            bounds.encode(&mut enc);
            let bytes = enc.finish();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(TxnBounds::decode(&mut dec).unwrap(), bounds);
            assert_eq!(dec.remaining(), 0);
        }
    }

    #[test]
    fn describe_is_stable() {
        assert_eq!(TxnBounds::tiny().describe(), "t1c2k2[PA]a0");
        assert_eq!(TxnBounds::smoke().describe(), "t2c2k2[PAD]a1");
    }
}
