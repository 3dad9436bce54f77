//! The object-safe [`BlockDevice`] trait.

use bytes::Bytes;

use crate::error::{BlockError, BlockResult};
use crate::flags::IoFlags;

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

    /// Reads the first `out.len()` bytes of one block into `out`, for a
    /// caller that needs only the head of a block (a superblock) and no
    /// block-sized buffer.
    ///
    /// # Panics
    ///
    /// If `out` is longer than [`BLOCK_SIZE`].
    fn read_block_into(&self, index: BlockIndex, out: &mut [u8]) -> BlockResult<()>;

    /// Reads `count` consecutive blocks starting at `index` into one buffer.
    fn read_blocks(&self, index: BlockIndex, count: u64) -> BlockResult<Vec<u8>>;

    /// Writes one block. `data` may be shorter than [`BLOCK_SIZE`]; the
    /// remainder of the block reads as zeroes. Longer payloads are rejected.
    fn write_block(&mut self, index: BlockIndex, data: &[u8], flags: IoFlags) -> BlockResult<()>;

    /// [`write_block`](BlockDevice::write_block) from a shared buffer: the
    /// device keeps `data` itself — a view of a larger buffer included —
    /// instead of a copy.
    fn write_block_bytes(
        &mut self,
        index: BlockIndex,
        data: Bytes,
        flags: IoFlags,
    ) -> BlockResult<()>;

    /// Flushes the device's volatile write cache.
    fn flush(&mut self) -> BlockResult<()>;

    /// Freezes the device's current contents into an immutable
    /// [`DiskImage`](crate::DiskImage). Used to capture a formatted file
    /// system once and re-mount snapshots of it for every workload instead
    /// of re-running mkfs.
    fn freeze_image(&self) -> crate::DiskImage;
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

// Both devices keep blocks as shared buffers and store each write's payload
// as it came: a stored block may be shorter than `BLOCK_SIZE`, and what it
// lacks reads as zeroes, as a block that was never written does. A written
// block therefore costs no padded copy, and a block written from a view of
// a larger buffer (a blob's) shares that buffer.

/// Appends the block `stored` holds to `out`, zero-filled to
/// [`BLOCK_SIZE`]; a block never written (`None`) appends zeroes only.
pub(crate) fn push_block(out: &mut Vec<u8>, stored: Option<&Bytes>) {
    let payload = stored.map_or(&[][..], |block| &block[..]);
    out.extend_from_slice(payload);
    out.resize(out.len() + BLOCK_SIZE - payload.len(), 0);
}

/// [`BlockDevice::read_block`] over a block stored as a shared buffer.
pub(crate) fn read_stored(stored: Option<&Bytes>) -> Vec<u8> {
    let mut out = Vec::with_capacity(BLOCK_SIZE);
    push_block(&mut out, stored);
    out
}

/// [`BlockDevice::read_block_into`] over a block stored as a shared buffer.
pub(crate) fn copy_stored(stored: Option<&Bytes>, out: &mut [u8]) {
    assert!(out.len() <= BLOCK_SIZE, "a read ends inside its block");
    let payload = stored.map_or(&[][..], |block| &block[..]);
    let copied = payload.len().min(out.len());
    out[..copied].copy_from_slice(&payload[..copied]);
    out[copied..].fill(0);
}

/// True when two stored blocks read the same: the longer one's tail past
/// the shorter one's payload is zeroes (a block never written is empty).
pub(crate) fn same_block(a: Option<&Bytes>, b: Option<&Bytes>) -> bool {
    let a = a.map_or(&[][..], |block| &block[..]);
    let b = b.map_or(&[][..], |block| &block[..]);
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    long[..short.len()] == *short && long[short.len()..].iter().all(|&byte| byte == 0)
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
        push_block(&mut out, stored(i));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_stored_block_reads_zero_filled() {
        let block = read_stored(Some(&Bytes::from("hello")));
        assert_eq!(block.len(), BLOCK_SIZE);
        assert_eq!(&block[..5], b"hello");
        assert!(block[5..].iter().all(|&b| b == 0));
        assert_eq!(read_stored(None), vec![0u8; BLOCK_SIZE]);
        let mut head = [7u8; 8];
        copy_stored(Some(&Bytes::from("hello")), &mut head);
        assert_eq!(&head, b"hello\0\0\0");
        let mut short = [7u8; 2];
        copy_stored(Some(&Bytes::from("hello")), &mut short);
        assert_eq!(&short, b"he");
        copy_stored(None, &mut head);
        assert_eq!(head, [0u8; 8]);
    }

    #[test]
    fn stored_blocks_compare_as_they_read() {
        let short = Bytes::from("ab");
        let padded = Bytes::from(vec![b'a', b'b', 0, 0]);
        assert!(same_block(Some(&short), Some(&padded)));
        assert!(same_block(Some(&padded), Some(&short)));
        assert!(same_block(None, Some(&Bytes::from(vec![0u8; BLOCK_SIZE]))));
        assert!(same_block(None, Some(&Bytes::new())));
        assert!(!same_block(Some(&short), Some(&Bytes::from("ac"))));
        assert!(!same_block(Some(&short), Some(&Bytes::from("ab\0x"))));
        assert!(!same_block(None, Some(&short)));
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
