//! Copy-on-write snapshot device with layered (incremental) images.
//!
//! CrashMonkey needs to construct many *crash states* from the same base
//! file-system image. The paper does this with an in-memory copy-on-write
//! block device kernel module: "resetting a snapshot to the base image simply
//! means dropping the modified data blocks, making it efficient" (§5.1).
//! [`CowSnapshotDevice`] is the userspace equivalent.
//!
//! A [`DiskImage`] is a *stack* of immutable block layers: freezing a
//! snapshot produces a new image that records only the overlay and points at
//! its base, so adjacent crash states share every block of their common
//! prefix instead of re-merging the whole map. Reads walk the chain
//! newest-layer first; the chain is flattened once it grows past
//! [`MAX_CHAIN_DEPTH`] so lookups stay O(1) amortized.
//!
//! The snapshot device is also what the [recording
//! wrapper](crate::RecordingDevice) writes to, so a crash state is not
//! rebuilt from the recorded IO: at every checkpoint the recorder
//! [commits](CowSnapshotDevice::commit) its overlay into a layer, and that
//! image *is* the crash state. A written block lives in one buffer that the
//! overlay, the image layers it moves into and the log record share by
//! reference count.
//!
//! What is shared and what is copied: a block is stored as the write's
//! payload, unpadded — what it lacks of [`BLOCK_SIZE`](crate::BLOCK_SIZE)
//! reads as zeroes — so [`BlockDevice::write_block_bytes`] stores the
//! caller's buffer (often a view of a whole blob) as it is, and only
//! [`BlockDevice::write_block`] copies, once, from a borrowed slice. Reads
//! copy: [`BlockDevice::read_block`] and
//! [`read_blocks`](BlockDevice::read_blocks) hand out owned, zero-filled
//! buffers, since the file systems decode from them; a superblock-sized
//! head is read with [`BlockDevice::read_block_into`], into the caller's
//! buffer. A layer and its link to the parent image are one allocation.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;

use crate::device::{
    check_read, check_write, copy_stored, gather_blocks, read_stored, same_block, BlockDevice,
    BlockIndex,
};
use crate::error::BlockResult;
use crate::flags::IoFlags;

/// Chain length at which [`DiskImage::layered`] collapses the stack into a
/// single layer. A recording produces one layer per checkpoint that wrote
/// something, and workloads have a handful of checkpoints, so flattening is
/// rare; the bound exists to keep pathological chains from degrading reads.
pub const MAX_CHAIN_DEPTH: u32 = 32;

/// An immutable, reference-counted disk image: one block layer plus an
/// optional parent image the layer shadows.
///
/// Built as a single layer by [`DiskImage::new`] / [`DiskImage::empty`],
/// or as a layer over the frozen base by [`CowSnapshotDevice::freeze`] /
/// [`CowSnapshotDevice::commit`], and shared by any number of snapshots.
/// Cloning is O(1): one reference count on the top layer, which holds its
/// parent image.
#[derive(Debug, Clone)]
pub struct DiskImage {
    top: Arc<Layer>,
    num_blocks: u64,
    depth: u32,
}

/// One immutable block layer and the image it shadows: a layer and its
/// link to the rest of the chain are one allocation.
#[derive(Debug)]
struct Layer {
    blocks: HashMap<BlockIndex, Bytes>,
    parent: Option<DiskImage>,
}

impl DiskImage {
    /// Wraps an existing block map as a single-layer image.
    pub fn new(blocks: HashMap<BlockIndex, Bytes>, num_blocks: u64) -> Self {
        DiskImage {
            top: Arc::new(Layer {
                blocks,
                parent: None,
            }),
            num_blocks,
            depth: 0,
        }
    }

    /// Creates an empty (all-zero) image of the given size.
    pub fn empty(num_blocks: u64) -> Self {
        DiskImage::new(HashMap::new(), num_blocks)
    }

    /// True when both images are clones of one original (and therefore hold
    /// identical contents). Layers are immutable and a layer `Arc` is only
    /// ever stacked on the one parent it was built over, so pointer identity
    /// of the top layer is a sound, O(1) content-identity witness — two
    /// independently built images never share it, however equal their bytes.
    pub fn ptr_eq(&self, other: &DiskImage) -> bool {
        Arc::ptr_eq(&self.top, &other.top)
    }

    /// Stacks `layer` on top of `parent` without copying the parent's
    /// blocks. Flattens the chain when it grows past [`MAX_CHAIN_DEPTH`].
    pub fn layered(parent: &DiskImage, layer: HashMap<BlockIndex, Bytes>) -> Self {
        let image = DiskImage {
            top: Arc::new(Layer {
                blocks: layer,
                parent: Some(parent.clone()),
            }),
            num_blocks: parent.num_blocks,
            depth: parent.depth + 1,
        };
        if image.depth >= MAX_CHAIN_DEPTH {
            image.flatten()
        } else {
            image
        }
    }

    /// Collapses the layer chain into a single-layer image with identical
    /// contents.
    pub fn flatten(&self) -> DiskImage {
        let mut merged: HashMap<BlockIndex, Bytes> = HashMap::new();
        self.for_each_layer_oldest_first(&mut |layer| {
            for (index, block) in layer {
                merged.insert(*index, block.clone());
            }
        });
        DiskImage::new(merged, self.num_blocks)
    }

    fn for_each_layer_oldest_first(&self, f: &mut dyn FnMut(&HashMap<BlockIndex, Bytes>)) {
        if let Some(parent) = &self.top.parent {
            parent.for_each_layer_oldest_first(f);
        }
        f(&self.top.blocks);
    }

    /// Number of addressable blocks.
    pub fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    /// Number of layers stacked in this image (1 for a flat image).
    pub fn chain_depth(&self) -> u32 {
        self.depth + 1
    }

    /// Reads one block from the image.
    pub fn read_block(&self, index: BlockIndex) -> BlockResult<Vec<u8>> {
        check_read(index, self.num_blocks)?;
        Ok(read_stored(self.get(index)))
    }

    pub(crate) fn get(&self, index: BlockIndex) -> Option<&Bytes> {
        let mut image = self;
        loop {
            if let Some(block) = image.top.blocks.get(&index) {
                return Some(block);
            }
            match &image.top.parent {
                Some(parent) => image = parent,
                None => return None,
            }
        }
    }
}

/// Content equality: the same size and every block reads the same, however
/// the layers are stacked (a block no layer holds equals one written with
/// zeroes). Clones of one image compare in O(1).
impl PartialEq for DiskImage {
    fn eq(&self, other: &DiskImage) -> bool {
        if self.num_blocks != other.num_blocks {
            return false;
        }
        if self.ptr_eq(other) {
            return true;
        }
        let mut written: std::collections::HashSet<BlockIndex> = std::collections::HashSet::new();
        for image in [self, other] {
            image.for_each_layer_oldest_first(&mut |layer| written.extend(layer.keys()));
        }
        written
            .into_iter()
            .all(|index| same_block(self.get(index), other.get(index)))
    }
}

/// A writable copy-on-write overlay on top of a [`DiskImage`].
///
/// Reads fall through to the base image unless the block has been overwritten
/// in the overlay. Going back to the base image is a new snapshot of it,
/// O(1): the base is shared, not copied.
#[derive(Debug, Clone)]
pub struct CowSnapshotDevice {
    base: DiskImage,
    overlay: HashMap<BlockIndex, Bytes>,
}

impl CowSnapshotDevice {
    /// Creates a snapshot of `base` with an empty overlay.
    pub fn new(base: DiskImage) -> Self {
        CowSnapshotDevice {
            base,
            overlay: HashMap::new(),
        }
    }

    /// Number of blocks currently held in the copy-on-write overlay.
    #[cfg(test)]
    pub(crate) fn overlay_blocks(&self) -> usize {
        self.overlay.len()
    }

    /// Reference to the base image this snapshot overlays.
    pub fn base(&self) -> &DiskImage {
        &self.base
    }

    /// Freezes base + overlay into a new immutable [`DiskImage`].
    ///
    /// O(overlay): the new image stacks the overlay as a layer over the
    /// (shared, uncopied) base instead of merging the base's block map.
    pub fn freeze(&self) -> DiskImage {
        DiskImage::layered(&self.base, self.overlay.clone())
    }

    /// Freezes base + overlay and makes the frozen image this device's new
    /// base, leaving the overlay empty. Subsequent writes accumulate a fresh
    /// layer on top — the primitive crash states are built on: the recorder
    /// commits at every checkpoint, so each checkpoint's image shares the
    /// blocks of every earlier one. O(1): the overlay map moves into the
    /// layer, and an empty overlay adds no layer at all.
    pub fn commit(&mut self) -> DiskImage {
        if !self.overlay.is_empty() {
            let overlay = std::mem::take(&mut self.overlay);
            self.base = DiskImage::layered(&self.base, overlay);
        }
        self.base.clone()
    }

    /// The stored buffer of a block, if the overlay or the base holds one.
    fn stored(&self, index: BlockIndex) -> Option<&Bytes> {
        self.overlay.get(&index).or_else(|| self.base.get(index))
    }
}

impl BlockDevice for CowSnapshotDevice {
    fn num_blocks(&self) -> u64 {
        self.base.num_blocks()
    }

    fn read_block(&self, index: BlockIndex) -> BlockResult<Vec<u8>> {
        check_read(index, self.num_blocks())?;
        Ok(read_stored(self.stored(index)))
    }

    fn read_block_into(&self, index: BlockIndex, out: &mut [u8]) -> BlockResult<()> {
        check_read(index, self.num_blocks())?;
        copy_stored(self.stored(index), out);
        Ok(())
    }

    fn read_blocks(&self, index: BlockIndex, count: u64) -> BlockResult<Vec<u8>> {
        gather_blocks(index, count, self.num_blocks(), |i| self.stored(i))
    }

    fn write_block(&mut self, index: BlockIndex, data: &[u8], flags: IoFlags) -> BlockResult<()> {
        self.write_block_bytes(index, Bytes::copy_from_slice(data), flags)
    }

    fn write_block_bytes(
        &mut self,
        index: BlockIndex,
        data: Bytes,
        _flags: IoFlags,
    ) -> BlockResult<()> {
        check_write(index, self.num_blocks(), &data)?;
        self.overlay.insert(index, data);
        Ok(())
    }

    fn flush(&mut self) -> BlockResult<()> {
        Ok(())
    }

    fn freeze_image(&self) -> DiskImage {
        self.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BLOCK_SIZE;
    use crate::error::BlockError;

    /// A single-layer image with two written blocks.
    fn base_image() -> DiskImage {
        let blocks = HashMap::from([
            (0, Bytes::from("base-block-0")),
            (5, Bytes::from("base-block-5")),
        ]);
        DiskImage::new(blocks, 32)
    }

    #[test]
    fn unwritten_blocks_read_zeroes() {
        let disk = CowSnapshotDevice::new(DiskImage::empty(16));
        assert_eq!(disk.read_block(3).unwrap(), vec![0u8; BLOCK_SIZE]);
        let mut head = [9u8; 4];
        disk.read_block_into(3, &mut head).unwrap();
        assert_eq!(head, [0u8; 4]);
    }

    #[test]
    fn a_short_write_reads_back_zero_filled() {
        let mut disk = CowSnapshotDevice::new(DiskImage::empty(16));
        disk.write_block(7, b"payload", IoFlags::DATA).unwrap();
        let block = disk.read_block(7).unwrap();
        assert_eq!(&block[..7], b"payload");
        assert!(block[7..].iter().all(|&b| b == 0));
        let mut head = [9u8; 10];
        disk.read_block_into(7, &mut head).unwrap();
        assert_eq!(&head, b"payload\0\0\0");
        assert_eq!(disk.overlay_blocks(), 1);
    }

    #[test]
    fn out_of_range_io_is_rejected() {
        let mut disk = CowSnapshotDevice::new(DiskImage::empty(4));
        let past_end = |index| BlockError::OutOfRange {
            index,
            num_blocks: 4,
        };
        assert_eq!(disk.read_block(4).unwrap_err(), past_end(4));
        let mut head = [0u8; 8];
        assert_eq!(disk.read_block_into(4, &mut head).unwrap_err(), past_end(4));
        assert_eq!(disk.read_blocks(3, 2).unwrap_err(), past_end(4));
        let write = disk.write_block(9, b"x", IoFlags::NONE);
        assert_eq!(write.unwrap_err(), past_end(9));
        let write = disk.write_block_bytes(4, Bytes::from("x"), IoFlags::NONE);
        assert_eq!(write.unwrap_err(), past_end(4));
        assert_eq!(disk.overlay_blocks(), 0);
    }

    #[test]
    fn oversized_writes_are_rejected() {
        let mut disk = CowSnapshotDevice::new(DiskImage::empty(4));
        let oversized = BlockError::OversizedWrite {
            len: BLOCK_SIZE + 1,
        };
        let big = vec![1u8; BLOCK_SIZE + 1];
        let write = disk.write_block(0, &big, IoFlags::DATA);
        assert_eq!(write.unwrap_err(), oversized);
        let write = disk.write_block_bytes(0, Bytes::from(big), IoFlags::DATA);
        assert_eq!(write.unwrap_err(), oversized);
        // A rejected write leaves nothing behind.
        assert_eq!(disk.overlay_blocks(), 0);
        assert_eq!(disk.read_block(0).unwrap(), vec![0u8; BLOCK_SIZE]);
    }

    #[test]
    fn read_blocks_spans_written_and_unwritten_blocks() {
        let mut disk = CowSnapshotDevice::new(DiskImage::empty(16));
        let data = Bytes::from(vec![0xabu8; BLOCK_SIZE + 100]);
        disk.write_block_bytes(2, data.slice(..BLOCK_SIZE), IoFlags::DATA)
            .unwrap();
        disk.write_block_bytes(3, data.slice(BLOCK_SIZE..), IoFlags::DATA)
            .unwrap();
        let read = disk.read_blocks(1, 4).unwrap();
        assert_eq!(read.len(), 4 * BLOCK_SIZE);
        assert!(read[..BLOCK_SIZE].iter().all(|&b| b == 0));
        assert_eq!(&read[BLOCK_SIZE..BLOCK_SIZE + data.len()], &data[..]);
        assert!(read[BLOCK_SIZE + data.len()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn a_frozen_image_keeps_what_was_written_before_it() {
        let mut disk = CowSnapshotDevice::new(DiskImage::empty(8));
        disk.write_block(0, b"before", IoFlags::META).unwrap();
        let image = disk.freeze_image();
        assert!(image == disk.freeze());
        disk.write_block(0, b"after!", IoFlags::META).unwrap();
        assert_eq!(&image.read_block(0).unwrap()[..6], b"before");
        assert_eq!(&disk.read_block(0).unwrap()[..6], b"after!");
    }

    #[test]
    fn reads_fall_through_to_base() {
        let snap = CowSnapshotDevice::new(base_image());
        assert_eq!(&snap.read_block(0).unwrap()[..12], b"base-block-0");
        assert!(snap.read_block(9).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn writes_shadow_base_without_mutating_it() {
        let image = base_image();
        let mut snap = CowSnapshotDevice::new(image.clone());
        snap.write_block(0, b"overlay!", IoFlags::DATA).unwrap();
        assert_eq!(&snap.read_block(0).unwrap()[..8], b"overlay!");
        assert_eq!(&image.read_block(0).unwrap()[..12], b"base-block-0");
        assert_eq!(snap.overlay_blocks(), 1);
    }

    #[test]
    fn freeze_layers_overlay_over_base() {
        let mut snap = CowSnapshotDevice::new(base_image());
        snap.write_block(5, b"frozen", IoFlags::DATA).unwrap();
        snap.write_block(7, b"extra", IoFlags::DATA).unwrap();
        let frozen = snap.freeze();
        assert_eq!(&frozen.read_block(5).unwrap()[..6], b"frozen");
        assert_eq!(&frozen.read_block(7).unwrap()[..5], b"extra");
        assert_eq!(&frozen.read_block(0).unwrap()[..12], b"base-block-0");
        // The frozen image shares the base instead of copying it.
        assert_eq!(frozen.chain_depth(), 2);
    }

    #[test]
    fn commit_accumulates_layers_sharing_the_prefix() {
        let mut snap = CowSnapshotDevice::new(base_image());
        snap.write_block(1, b"cp1", IoFlags::DATA).unwrap();
        let first = snap.commit();
        assert_eq!(snap.overlay_blocks(), 0);
        snap.write_block(2, b"cp2", IoFlags::DATA).unwrap();
        let second = snap.commit();

        assert_eq!(&first.read_block(1).unwrap()[..3], b"cp1");
        assert!(first.read_block(2).unwrap().iter().all(|&b| b == 0));
        assert_eq!(&second.read_block(1).unwrap()[..3], b"cp1");
        assert_eq!(&second.read_block(2).unwrap()[..3], b"cp2");
        assert_eq!(second.chain_depth(), first.chain_depth() + 1);
    }

    #[test]
    fn deep_chains_flatten_and_preserve_contents() {
        let mut snap = CowSnapshotDevice::new(DiskImage::empty(64));
        let mut images = Vec::new();
        for i in 0..(MAX_CHAIN_DEPTH as u64 + 8) {
            snap.write_block(i % 64, format!("layer-{i}").as_bytes(), IoFlags::DATA)
                .unwrap();
            images.push(snap.commit());
        }
        let last = images.last().unwrap();
        assert!(last.chain_depth() <= MAX_CHAIN_DEPTH + 1);
        // Later layers win for the blocks they overwrote.
        let block = last.read_block((MAX_CHAIN_DEPTH as u64 + 7) % 64).unwrap();
        assert!(block.starts_with(format!("layer-{}", MAX_CHAIN_DEPTH as u64 + 7).as_bytes()));

        let flat = last.flatten();
        assert_eq!(flat.chain_depth(), 1);
        for i in 0..64 {
            assert_eq!(flat.read_block(i).unwrap(), last.read_block(i).unwrap());
        }
    }

    #[test]
    fn images_compare_by_content_not_by_layering() {
        let mut snap = CowSnapshotDevice::new(base_image());
        snap.write_block(7, b"layered", IoFlags::DATA).unwrap();
        snap.write_block(9, &[0u8; BLOCK_SIZE], IoFlags::DATA)
            .unwrap();
        let layered = snap.freeze();
        assert!(layered == layered.flatten());
        assert!(layered != base_image());

        // A block written with zeroes reads like one never written.
        let mut other = CowSnapshotDevice::new(base_image());
        other.write_block(7, b"layered", IoFlags::DATA).unwrap();
        assert!(layered == other.freeze());
        assert!(DiskImage::empty(8) != DiskImage::empty(9));
    }

    #[test]
    fn multiple_snapshots_share_one_base() {
        let image = base_image();
        let mut a = CowSnapshotDevice::new(image.clone());
        let mut b = CowSnapshotDevice::new(image);
        a.write_block(0, b"from-a", IoFlags::DATA).unwrap();
        b.write_block(0, b"from-b", IoFlags::DATA).unwrap();
        assert_eq!(&a.read_block(0).unwrap()[..6], b"from-a");
        assert_eq!(&b.read_block(0).unwrap()[..6], b"from-b");
    }
}
