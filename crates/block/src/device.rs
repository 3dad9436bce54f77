//! The object-safe [`BlockDevice`] trait.

use bytes::{Bytes, BytesMut};

use crate::error::{BlockError, BlockResult};
use crate::flags::IoFlags;
use crate::stats::DeviceStats;

/// Size of one logical block, in bytes. All file systems in this workspace
/// use 4 KiB blocks, matching the page size the paper's file systems use.
pub const BLOCK_SIZE: usize = 4096;

/// Index of a block on a device.
pub type BlockIndex = u64;

/// An object-safe block device.
///
/// File systems own a `Box<dyn BlockDevice>` and perform all persistence
/// through it; CrashMonkey interposes a [`RecordingDevice`](crate::RecordingDevice)
/// without the file system being aware of it — exactly the black-box contract
/// of the paper.
pub trait BlockDevice: Send {
    /// Total number of addressable blocks.
    fn num_blocks(&self) -> u64;

    /// Reads one block. Blocks that were never written read as zeroes.
    fn read_block(&self, index: BlockIndex) -> BlockResult<Vec<u8>>;

    /// Writes one block. `data` may be shorter than [`BLOCK_SIZE`]; the
    /// remainder of the block is zero-filled. Longer payloads are rejected.
    fn write_block(&mut self, index: BlockIndex, data: &[u8], flags: IoFlags) -> BlockResult<()>;

    /// Flushes the device's volatile write cache.
    fn flush(&mut self) -> BlockResult<()>;

    /// Cumulative IO statistics for this device.
    fn stats(&self) -> DeviceStats;

    /// Reads `count` consecutive blocks starting at `index` into one buffer.
    fn read_blocks(&self, index: BlockIndex, count: u64) -> BlockResult<Vec<u8>> {
        let mut out = Vec::with_capacity((count as usize) * BLOCK_SIZE);
        for i in 0..count {
            out.extend_from_slice(&self.read_block(index + i)?);
        }
        Ok(out)
    }

    /// Writes `data` across consecutive blocks starting at `index`. The last
    /// block is zero-padded.
    fn write_blocks(&mut self, index: BlockIndex, data: &[u8], flags: IoFlags) -> BlockResult<()> {
        for (i, chunk) in data.chunks(BLOCK_SIZE).enumerate() {
            self.write_block(index + i as u64, chunk, flags)?;
        }
        Ok(())
    }

    /// Capacity of the device in bytes.
    fn size_bytes(&self) -> u64 {
        self.num_blocks() * BLOCK_SIZE as u64
    }

    /// Freezes the device's current contents into an immutable
    /// [`DiskImage`](crate::DiskImage), when the implementation supports it.
    /// Used to capture a formatted file system once and re-mount snapshots
    /// of it for every workload instead of re-running mkfs.
    fn freeze_image(&self) -> Option<crate::DiskImage> {
        None
    }
}

/// Validates the common preconditions shared by all device implementations.
pub(crate) fn check_write(index: BlockIndex, num_blocks: u64, data: &[u8]) -> BlockResult<()> {
    if index >= num_blocks {
        return Err(BlockError::OutOfRange { index, num_blocks });
    }
    if data.len() > BLOCK_SIZE {
        return Err(BlockError::OversizedWrite { len: data.len() });
    }
    Ok(())
}

/// Validates a read address.
pub(crate) fn check_read(index: BlockIndex, num_blocks: u64) -> BlockResult<()> {
    if index >= num_blocks {
        return Err(BlockError::OutOfRange { index, num_blocks });
    }
    Ok(())
}

/// Copies `data` into a fresh zero-padded [`BLOCK_SIZE`] block: the one
/// buffer a written block lives in, shared from then on by reference count.
pub(crate) fn pad_block(data: &[u8]) -> Bytes {
    let mut block = BytesMut::zeroed(BLOCK_SIZE);
    block[..data.len()].copy_from_slice(data);
    block.freeze()
}

/// What a block reads as: the stored buffer, or zeroes when it was never
/// written.
pub(crate) fn or_zeroes(stored: Option<&Bytes>) -> &[u8] {
    const ZEROES: &[u8] = &[0u8; BLOCK_SIZE];
    stored.map_or(ZEROES, |block| &block[..])
}

/// [`BlockDevice::read_blocks`] over blocks stored as shared buffers: each
/// block is copied once, from where `stored` holds it straight into the
/// result.
pub(crate) fn gather_blocks<'a>(
    index: BlockIndex,
    count: u64,
    num_blocks: u64,
    stored: impl Fn(BlockIndex) -> Option<&'a Bytes>,
) -> BlockResult<Vec<u8>> {
    // `count` may come from a corrupted on-disk length: the device's size
    // bounds the allocation, and the first block past it ends the read.
    let mut out = Vec::with_capacity(count.min(num_blocks) as usize * BLOCK_SIZE);
    for i in index..index.saturating_add(count) {
        check_read(i, num_blocks)?;
        out.extend_from_slice(or_zeroes(stored(i)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_block_zero_fills() {
        let block = pad_block(b"hello");
        assert_eq!(block.len(), BLOCK_SIZE);
        assert_eq!(&block[..5], b"hello");
        assert!(block[5..].iter().all(|&b| b == 0));
    }

    #[test]
    fn check_write_rejects_out_of_range() {
        assert_eq!(
            check_write(5, 5, &[0u8; 10]),
            Err(BlockError::OutOfRange {
                index: 5,
                num_blocks: 5
            })
        );
    }

    #[test]
    fn check_write_rejects_oversized() {
        let big = vec![0u8; BLOCK_SIZE + 1];
        assert_eq!(
            check_write(0, 5, &big),
            Err(BlockError::OversizedWrite {
                len: BLOCK_SIZE + 1
            })
        );
    }

    #[test]
    fn check_read_bounds() {
        assert!(check_read(4, 5).is_ok());
        assert!(check_read(5, 5).is_err());
    }
}
