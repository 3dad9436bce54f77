//! Shared on-disk layout helpers for the simulated file systems.
//!
//! Every file system in this workspace persists two kinds of structures
//! through its block device: large *blobs* (serialized trees, checkpoints,
//! journal transactions, fsync logs) and a single *superblock* in block 0
//! that locates the current blobs. Blobs are written copy-on-write style to
//! fresh blocks from a bump allocator, and the superblock is flipped last
//! with FLUSH+FUA — the write ordering every journaling/COW file system
//! relies on for crash consistency.
//!
//! A blob is handed over as one [`Bytes`] buffer, and [`write_blob`] writes
//! each of its blocks as a view of that buffer
//! ([`BlockDevice::write_block_bytes`]): a device that keeps blocks as
//! shared buffers — the recorder's snapshot and its IO log — stores and
//! logs the views, so the bytes are written into memory once, by the
//! encoder. The tree ([`MemTree::encode`](crate::tree::MemTree::encode)),
//! CowFs's log and the superblock are each encoded into a buffer of exactly
//! their length; FlashFs's node log still grows a `Vec` and is copied into
//! its buffer once. Reads copy: [`read_blob`] gathers the blocks into one
//! `Vec` the decoder walks, and decoding copies again into the tree.

use b3_block::{BlockDevice, BlockIndex, IoFlags, BLOCK_SIZE};
use bytes::Bytes;

use crate::codec::{Decoder, Encoder};
use crate::error::{FsError, FsResult};

/// First block available to blob allocation (block 0 is the superblock; a
/// few blocks are reserved for future use, mirroring real layouts that keep
/// backup superblocks).
pub const FIRST_DATA_BLOCK: u64 = 8;

/// Location and length of one serialized blob on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlobRef {
    /// First block of the blob (0 = no blob).
    pub start: BlockIndex,
    /// Length of the blob in bytes.
    pub len: u64,
}

impl BlobRef {
    /// A reference to "no blob".
    pub const EMPTY: BlobRef = BlobRef { start: 0, len: 0 };

    /// True if the reference points at an actual blob.
    pub fn is_present(&self) -> bool {
        self.start != 0 && self.len > 0
    }

    /// Number of blocks the blob occupies.
    pub fn num_blocks(&self) -> u64 {
        self.len.div_ceil(BLOCK_SIZE as u64)
    }
}

/// The generic superblock shared by the simulated file systems.
///
/// `tree` points at the last committed full tree (the "FS tree" in btrfs
/// terms, the last checkpoint in F2FS terms, the primary metadata image in
/// ext4 terms); `log` points at the persistence log written by fsync-class
/// operations (the btrfs log tree, the F2FS roll-forward node log, the ext4
/// journal). `alloc_cursor` is the bump allocator position for blob writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperBlock {
    /// File-system magic number (distinct per implementation).
    pub magic: u32,
    /// Commit generation, incremented on every full commit.
    pub generation: u64,
    /// Last committed full tree.
    pub tree: BlobRef,
    /// Current persistence log (empty after a full commit).
    pub log: BlobRef,
    /// Next free block for blob allocation.
    pub alloc_cursor: BlockIndex,
    /// Set while the file system is mounted read-write; a cleanly unmounted
    /// image has this cleared. Mounting an image with the flag set triggers
    /// crash recovery.
    pub dirty: bool,
}

impl SuperBlock {
    /// Creates a fresh superblock for a newly formatted file system.
    pub fn new(magic: u32) -> Self {
        SuperBlock {
            magic,
            generation: 0,
            tree: BlobRef::EMPTY,
            log: BlobRef::EMPTY,
            alloc_cursor: FIRST_DATA_BLOCK,
            dirty: false,
        }
    }

    /// Length of [`SuperBlock::encode`]'s output: the magic, six `u64`s and
    /// the dirty flag.
    pub const ENCODED_LEN: usize = 4 + 6 * 8 + 1;

    /// Serializes the superblock into a single block payload.
    pub fn encode(&self) -> Bytes {
        let mut enc = Encoder::exact(Self::ENCODED_LEN);
        enc.put_u32(self.magic);
        enc.put_u64(self.generation);
        enc.put_u64(self.tree.start);
        enc.put_u64(self.tree.len);
        enc.put_u64(self.log.start);
        enc.put_u64(self.log.len);
        enc.put_u64(self.alloc_cursor);
        enc.put_bool(self.dirty);
        enc.freeze()
    }

    /// Decodes a superblock previously written with [`SuperBlock::encode`],
    /// verifying the expected magic.
    pub fn decode(bytes: &[u8], expected_magic: u32) -> FsResult<SuperBlock> {
        let mut dec = Decoder::new(bytes);
        let magic = dec.get_u32()?;
        if magic != expected_magic {
            return Err(FsError::Unmountable(format!(
                "bad superblock magic {magic:#x}, expected {expected_magic:#x}"
            )));
        }
        Ok(SuperBlock {
            magic,
            generation: dec.get_u64()?,
            tree: BlobRef {
                start: dec.get_u64()?,
                len: dec.get_u64()?,
            },
            log: BlobRef {
                start: dec.get_u64()?,
                len: dec.get_u64()?,
            },
            alloc_cursor: dec.get_u64()?,
            dirty: dec.get_bool()?,
        })
    }

    /// Writes the superblock to block 0 with FLUSH|FUA semantics (the
    /// ordering point of every commit).
    pub fn write_to(&self, dev: &mut dyn BlockDevice) -> FsResult<()> {
        dev.flush()?;
        dev.write_block_bytes(
            0,
            self.encode(),
            IoFlags::META | IoFlags::FLUSH | IoFlags::FUA,
        )?;
        Ok(())
    }

    /// Reads and validates the superblock from block 0 — its encoded
    /// length only, into a buffer on the stack.
    pub fn read_from(dev: &dyn BlockDevice, expected_magic: u32) -> FsResult<SuperBlock> {
        let mut head = [0u8; Self::ENCODED_LEN];
        dev.read_block_into(0, &mut head)?;
        SuperBlock::decode(&head, expected_magic)
    }
}

/// Writes `bytes` as a blob starting at the superblock's allocation cursor,
/// advancing the cursor. Returns the blob reference. Each block is written
/// as a view of `bytes` (the last one short, an empty blob as one empty
/// write), so a device that keeps blocks as shared buffers copies nothing.
pub fn write_blob(
    dev: &mut dyn BlockDevice,
    sb: &mut SuperBlock,
    bytes: Bytes,
    flags: IoFlags,
) -> FsResult<BlobRef> {
    let num_blocks = (bytes.len() as u64).div_ceil(BLOCK_SIZE as u64).max(1);
    let fits = |start: u64| {
        start
            .checked_add(num_blocks)
            .is_some_and(|end| end < dev.num_blocks())
    };
    if !fits(sb.alloc_cursor) {
        // Wrap the bump allocator back to the start of the data area — once.
        // With the paper's 100 MB image and three-operation workloads this
        // never overwrites a live blob; it simply keeps long-running
        // property tests from exhausting the device. A blob that does not
        // fit an empty data area does not fit at all.
        if !fits(FIRST_DATA_BLOCK) {
            return Err(FsError::NoSpace);
        }
        sb.alloc_cursor = FIRST_DATA_BLOCK;
    }
    let start = sb.alloc_cursor;
    let len = bytes.len();
    if bytes.is_empty() {
        dev.write_block_bytes(start, Bytes::new(), flags)?;
    }
    for (index, offset) in (start..).zip((0..len).step_by(BLOCK_SIZE)) {
        let block = bytes.slice(offset..len.min(offset + BLOCK_SIZE));
        dev.write_block_bytes(index, block, flags)?;
    }
    sb.alloc_cursor = start + num_blocks;
    Ok(BlobRef {
        start,
        len: len as u64,
    })
}

/// Reads a blob previously written with [`write_blob`].
pub fn read_blob(dev: &dyn BlockDevice, blob: BlobRef) -> FsResult<Vec<u8>> {
    if !blob.is_present() {
        return Ok(Vec::new());
    }
    let mut bytes = dev.read_blocks(blob.start, blob.num_blocks())?;
    bytes.truncate(blob.len as usize);
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use b3_block::{CowSnapshotDevice, DiskImage};

    fn blank_disk(num_blocks: u64) -> CowSnapshotDevice {
        CowSnapshotDevice::new(DiskImage::empty(num_blocks))
    }

    const MAGIC: u32 = 0xc0ff_ee01;

    #[test]
    fn superblock_round_trip() {
        let mut dev = blank_disk(64);
        let mut sb = SuperBlock::new(MAGIC);
        sb.generation = 5;
        sb.tree = BlobRef { start: 9, len: 777 };
        sb.dirty = true;
        sb.write_to(&mut dev).unwrap();
        let read = SuperBlock::read_from(&dev, MAGIC).unwrap();
        assert_eq!(read, sb);
    }

    #[test]
    fn wrong_magic_is_unmountable() {
        let mut dev = blank_disk(64);
        SuperBlock::new(MAGIC).write_to(&mut dev).unwrap();
        let err = SuperBlock::read_from(&dev, 0x1234).unwrap_err();
        assert!(matches!(err, FsError::Unmountable(_)));
    }

    #[test]
    fn zeroed_device_is_unmountable() {
        let dev = blank_disk(64);
        assert!(SuperBlock::read_from(&dev, MAGIC).is_err());
    }

    #[test]
    fn blob_round_trip_and_cursor_advance() {
        let mut dev = blank_disk(64);
        let mut sb = SuperBlock::new(MAGIC);
        let data = vec![0x5au8; BLOCK_SIZE + 123];
        let blob = write_blob(&mut dev, &mut sb, data.clone().into(), IoFlags::META).unwrap();
        assert_eq!(blob.start, FIRST_DATA_BLOCK);
        assert_eq!(blob.num_blocks(), 2);
        assert_eq!(sb.alloc_cursor, FIRST_DATA_BLOCK + 2);
        assert_eq!(read_blob(&dev, blob).unwrap(), data);

        let second = write_blob(&mut dev, &mut sb, Bytes::from("tiny"), IoFlags::META).unwrap();
        assert_eq!(second.start, FIRST_DATA_BLOCK + 2);
        assert_eq!(read_blob(&dev, second).unwrap(), b"tiny");
    }

    #[test]
    fn empty_blob_reference() {
        let dev = blank_disk(16);
        assert!(!BlobRef::EMPTY.is_present());
        assert!(read_blob(&dev, BlobRef::EMPTY).unwrap().is_empty());
    }

    #[test]
    fn allocator_wraps_when_full() {
        let mut dev = blank_disk(16);
        let mut sb = SuperBlock::new(MAGIC);
        sb.alloc_cursor = 15;
        let data = vec![1u8; 2 * BLOCK_SIZE];
        let blob = write_blob(&mut dev, &mut sb, data.clone().into(), IoFlags::DATA).unwrap();
        assert_eq!(blob.start, FIRST_DATA_BLOCK);
    }

    #[test]
    fn blob_larger_than_the_device_is_no_space() {
        let mut dev = blank_disk(16);
        let mut sb = SuperBlock::new(MAGIC);
        sb.alloc_cursor = 12;
        // 8 + 8 >= 16: the largest blob a 16-block device holds is 7 blocks.
        let data = vec![1u8; 8 * BLOCK_SIZE];
        let err = write_blob(&mut dev, &mut sb, data.clone().into(), IoFlags::DATA).unwrap_err();
        assert!(matches!(err, FsError::NoSpace));
        assert_eq!(sb.alloc_cursor, 12, "a refused blob moves no cursor");
        let data = vec![1u8; 9 * BLOCK_SIZE];
        assert!(write_blob(&mut dev, &mut sb, data.clone().into(), IoFlags::DATA).is_err());
        let data = vec![1u8; 7 * BLOCK_SIZE];
        let blob = write_blob(&mut dev, &mut sb, data.clone().into(), IoFlags::DATA).unwrap();
        assert_eq!(blob.start, FIRST_DATA_BLOCK);
    }
}
