//! A RAM-backed block device.

use std::collections::HashMap;

use bytes::Bytes;

use crate::cow::DiskImage;
use crate::device::{
    check_read, check_write, copy_stored, read_stored, BlockDevice, BlockIndex, BLOCK_SIZE,
};
use crate::error::BlockResult;
use crate::flags::IoFlags;
use crate::stats::DeviceStats;

/// A sparse, RAM-backed block device.
///
/// Blocks are stored in a hash map keyed by block index; unwritten blocks
/// read as zeroes, which keeps even a "100 MB" device (the paper's initial
/// file-system image size, Table 3) cheap to instantiate.
#[derive(Debug, Clone)]
pub struct RamDisk {
    blocks: HashMap<BlockIndex, Bytes>,
    num_blocks: u64,
    stats: DeviceStats,
}

impl RamDisk {
    /// Creates a device with `num_blocks` blocks of [`BLOCK_SIZE`] bytes.
    pub fn new(num_blocks: u64) -> Self {
        RamDisk {
            blocks: HashMap::new(),
            num_blocks,
            stats: DeviceStats::new(),
        }
    }

    /// Creates a device of the paper's default size: a 100 MB image
    /// (Table 3, "initial file-system state").
    pub fn paper_default() -> Self {
        RamDisk::new(100 * 1024 * 1024 / BLOCK_SIZE as u64)
    }

    /// Number of blocks that have actually been written (sparse footprint).
    pub fn allocated_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Freezes the current contents into an immutable [`DiskImage`] that can
    /// back any number of copy-on-write snapshots.
    pub fn snapshot(&self) -> DiskImage {
        DiskImage::new(self.blocks.clone(), self.num_blocks)
    }
}

impl BlockDevice for RamDisk {
    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    fn read_block(&self, index: BlockIndex) -> BlockResult<Vec<u8>> {
        check_read(index, self.num_blocks)?;
        Ok(read_stored(self.blocks.get(&index)))
    }

    fn read_block_into(&self, index: BlockIndex, out: &mut [u8]) -> BlockResult<()> {
        check_read(index, self.num_blocks)?;
        copy_stored(self.blocks.get(&index), out);
        Ok(())
    }

    fn write_block(&mut self, index: BlockIndex, data: &[u8], flags: IoFlags) -> BlockResult<()> {
        self.write_block_bytes(index, Bytes::copy_from_slice(data), flags)
    }

    fn write_block_bytes(
        &mut self,
        index: BlockIndex,
        data: Bytes,
        flags: IoFlags,
    ) -> BlockResult<()> {
        check_write(index, self.num_blocks, &data)?;
        self.stats
            .record_write(data.len(), flags.contains(IoFlags::FUA));
        self.blocks.insert(index, data);
        Ok(())
    }

    fn flush(&mut self) -> BlockResult<()> {
        self.stats.record_flush();
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }

    fn freeze_image(&self) -> Option<crate::DiskImage> {
        Some(self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::BlockError;

    #[test]
    fn unwritten_blocks_read_zero() {
        let disk = RamDisk::new(16);
        let block = disk.read_block(3).unwrap();
        assert_eq!(block.len(), BLOCK_SIZE);
        assert!(block.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut disk = RamDisk::new(16);
        disk.write_block(7, b"payload", IoFlags::DATA).unwrap();
        let block = disk.read_block(7).unwrap();
        assert_eq!(&block[..7], b"payload");
        assert_eq!(disk.allocated_blocks(), 1);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut disk = RamDisk::new(4);
        assert!(matches!(
            disk.read_block(4),
            Err(BlockError::OutOfRange { .. })
        ));
        assert!(matches!(
            disk.write_block(9, b"x", IoFlags::NONE),
            Err(BlockError::OutOfRange { .. })
        ));
    }

    #[test]
    fn multi_block_helpers() {
        let mut disk = RamDisk::new(16);
        let data = Bytes::from(vec![0xabu8; BLOCK_SIZE + 100]);
        disk.write_block_bytes(2, data.slice(..BLOCK_SIZE), IoFlags::DATA)
            .unwrap();
        disk.write_block_bytes(3, data.slice(BLOCK_SIZE..), IoFlags::DATA)
            .unwrap();
        let read = disk.read_blocks(2, 2).unwrap();
        assert_eq!(&read[..data.len()], &data[..]);
        assert!(read[data.len()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn snapshot_is_independent_of_later_writes() {
        let mut disk = RamDisk::new(8);
        disk.write_block(0, b"before", IoFlags::META).unwrap();
        let image = disk.snapshot();
        disk.write_block(0, b"after!", IoFlags::META).unwrap();
        assert_eq!(&image.read_block(0).unwrap()[..6], b"before");
        assert_eq!(&disk.read_block(0).unwrap()[..6], b"after!");
    }

    #[test]
    fn stats_track_writes_and_flushes() {
        let mut disk = RamDisk::new(8);
        disk.write_block(0, b"abc", IoFlags::FUA).unwrap();
        disk.write_block(1, b"defg", IoFlags::NONE).unwrap();
        disk.flush().unwrap();
        let stats = disk.stats();
        assert_eq!(stats.writes, 2);
        assert_eq!(stats.bytes_written, 7);
        assert_eq!(stats.fua_writes, 1);
        assert_eq!(stats.flushes, 1);
    }

    #[test]
    fn paper_default_is_100mb() {
        let disk = RamDisk::paper_default();
        assert_eq!(disk.size_bytes(), 100 * 1024 * 1024);
    }
}
