//! Error type for block-device operations.

use std::fmt;

/// Result alias used throughout the block layer.
pub type BlockResult<T> = Result<T, BlockError>;

/// Errors produced by block devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// A read or write addressed a block beyond the end of the device.
    OutOfRange {
        /// The offending block index.
        index: u64,
        /// The number of blocks on the device.
        num_blocks: u64,
    },
    /// A write supplied more than [`BLOCK_SIZE`](crate::BLOCK_SIZE) bytes.
    OversizedWrite {
        /// The length of the rejected payload.
        len: usize,
    },
    /// A crash state was requested for a checkpoint the log does not hold.
    UnknownCheckpoint {
        /// The requested checkpoint id.
        checkpoint: u32,
        /// The number of checkpoints the log holds (ids run from 1).
        recorded: u32,
    },
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::OutOfRange { index, num_blocks } => write!(
                f,
                "block index {index} out of range for device with {num_blocks} blocks"
            ),
            BlockError::OversizedWrite { len } => {
                write!(f, "write of {len} bytes exceeds block size")
            }
            BlockError::UnknownCheckpoint {
                checkpoint,
                recorded,
            } => write!(
                f,
                "no checkpoint {checkpoint} in a log of {recorded} checkpoints"
            ),
        }
    }
}

impl std::error::Error for BlockError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_out_of_range() {
        let err = BlockError::OutOfRange {
            index: 10,
            num_blocks: 4,
        };
        let msg = err.to_string();
        assert!(msg.contains("10"));
        assert!(msg.contains("4"));
    }

    #[test]
    fn display_oversized() {
        let err = BlockError::OversizedWrite { len: 9000 };
        assert!(err.to_string().contains("9000"));
    }

    #[test]
    fn display_unknown_checkpoint() {
        let err = BlockError::UnknownCheckpoint {
            checkpoint: 7,
            recorded: 3,
        };
        assert_eq!(err.to_string(), "no checkpoint 7 in a log of 3 checkpoints");
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&BlockError::OversizedWrite { len: 1 });
    }
}
