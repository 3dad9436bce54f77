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

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;

use crate::device::{
    check_read, check_write, gather_blocks, or_zeroes, pad_block, BlockDevice, BlockIndex,
};
use crate::error::BlockResult;
use crate::flags::IoFlags;
use crate::stats::DeviceStats;

/// Chain length at which [`DiskImage::layered`] collapses the stack into a
/// single layer. A recording produces one layer per checkpoint that wrote
/// something, and workloads have a handful of checkpoints, so flattening is
/// rare; the bound exists to keep pathological chains from degrading reads.
pub const MAX_CHAIN_DEPTH: u32 = 32;

/// An immutable, reference-counted disk image: one block layer plus an
/// optional parent image the layer shadows.
///
/// Produced by [`RamDisk::snapshot`](crate::RamDisk::snapshot) (a single
/// layer) or [`CowSnapshotDevice::freeze`] / [`CowSnapshotDevice::commit`]
/// (a layer over the frozen base), and shared by any number of snapshots.
/// Cloning is O(1).
#[derive(Debug, Clone)]
pub struct DiskImage {
    layer: Arc<HashMap<BlockIndex, Bytes>>,
    parent: Option<Arc<DiskImage>>,
    num_blocks: u64,
    depth: u32,
}

impl DiskImage {
    /// Wraps an existing block map as a single-layer image.
    pub fn new(blocks: Arc<HashMap<BlockIndex, Bytes>>, num_blocks: u64) -> Self {
        DiskImage {
            layer: blocks,
            parent: None,
            num_blocks,
            depth: 0,
        }
    }

    /// Creates an empty (all-zero) image of the given size.
    pub fn empty(num_blocks: u64) -> Self {
        DiskImage::new(Arc::new(HashMap::new()), num_blocks)
    }

    /// True when both images are clones of one original (and therefore hold
    /// identical contents). Layers are immutable and a layer `Arc` is only
    /// ever stacked on the one parent it was built over, so pointer identity
    /// of the top layer is a sound, O(1) content-identity witness — two
    /// independently built images never share it, however equal their bytes.
    pub fn ptr_eq(&self, other: &DiskImage) -> bool {
        Arc::ptr_eq(&self.layer, &other.layer)
    }

    /// Stacks `layer` on top of `parent` without copying the parent's
    /// blocks. Flattens the chain when it grows past [`MAX_CHAIN_DEPTH`].
    pub fn layered(parent: &DiskImage, layer: HashMap<BlockIndex, Bytes>) -> Self {
        let image = DiskImage {
            layer: Arc::new(layer),
            parent: Some(Arc::new(parent.clone())),
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
        DiskImage::new(Arc::new(merged), self.num_blocks)
    }

    fn for_each_layer_oldest_first(&self, f: &mut dyn FnMut(&HashMap<BlockIndex, Bytes>)) {
        if let Some(parent) = &self.parent {
            parent.for_each_layer_oldest_first(f);
        }
        f(&self.layer);
    }

    /// Number of addressable blocks.
    pub fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    /// Number of layers stacked in this image (1 for a flat image).
    pub fn chain_depth(&self) -> u32 {
        self.depth + 1
    }

    /// Number of distinct blocks with non-default contents across all
    /// layers.
    pub fn allocated_blocks(&self) -> usize {
        if self.parent.is_none() {
            return self.layer.len();
        }
        let mut seen: std::collections::HashSet<BlockIndex> = std::collections::HashSet::new();
        self.for_each_layer_oldest_first(&mut |layer| seen.extend(layer.keys()));
        seen.len()
    }

    /// Reads one block from the image.
    pub fn read_block(&self, index: BlockIndex) -> BlockResult<Vec<u8>> {
        check_read(index, self.num_blocks)?;
        Ok(or_zeroes(self.get(index)).to_vec())
    }

    pub(crate) fn get(&self, index: BlockIndex) -> Option<&Bytes> {
        let mut image = self;
        loop {
            if let Some(block) = image.layer.get(&index) {
                return Some(block);
            }
            match &image.parent {
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
            .all(|index| or_zeroes(self.get(index)) == or_zeroes(other.get(index)))
    }
}

/// A writable copy-on-write overlay on top of a [`DiskImage`].
///
/// Reads fall through to the base image unless the block has been overwritten
/// in the overlay. [`CowSnapshotDevice::reset`] drops the overlay, returning
/// the device to the base image in O(overlay) time.
#[derive(Debug, Clone)]
pub struct CowSnapshotDevice {
    base: DiskImage,
    overlay: HashMap<BlockIndex, Bytes>,
    stats: DeviceStats,
}

impl CowSnapshotDevice {
    /// Creates a snapshot of `base` with an empty overlay.
    pub fn new(base: DiskImage) -> Self {
        CowSnapshotDevice {
            base,
            overlay: HashMap::new(),
            stats: DeviceStats::new(),
        }
    }

    /// Drops all modifications, returning to the base image.
    pub fn reset(&mut self) {
        self.overlay.clear();
    }

    /// Number of blocks currently held in the copy-on-write overlay.
    pub fn overlay_blocks(&self) -> usize {
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

    /// [`BlockDevice::write_block`], handing back the padded block the
    /// overlay now holds so a recorder can log a view of the same buffer.
    pub(crate) fn store_block(
        &mut self,
        index: BlockIndex,
        data: &[u8],
        flags: IoFlags,
    ) -> BlockResult<Bytes> {
        check_write(index, self.num_blocks(), data)?;
        self.stats
            .record_write(data.len(), flags.contains(IoFlags::FUA));
        let block = pad_block(data);
        self.overlay.insert(index, block.clone());
        Ok(block)
    }
}

impl BlockDevice for CowSnapshotDevice {
    fn num_blocks(&self) -> u64 {
        self.base.num_blocks()
    }

    fn read_block(&self, index: BlockIndex) -> BlockResult<Vec<u8>> {
        check_read(index, self.num_blocks())?;
        Ok(or_zeroes(self.stored(index)).to_vec())
    }

    fn read_blocks(&self, index: BlockIndex, count: u64) -> BlockResult<Vec<u8>> {
        gather_blocks(index, count, self.num_blocks(), |i| self.stored(i))
    }

    fn write_block(&mut self, index: BlockIndex, data: &[u8], flags: IoFlags) -> BlockResult<()> {
        self.store_block(index, data, flags).map(drop)
    }

    fn flush(&mut self) -> BlockResult<()> {
        self.stats.record_flush();
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }

    fn freeze_image(&self) -> Option<DiskImage> {
        Some(self.freeze())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BLOCK_SIZE;
    use crate::ramdisk::RamDisk;

    fn base_image() -> DiskImage {
        let mut disk = RamDisk::new(32);
        disk.write_block(0, b"base-block-0", IoFlags::META).unwrap();
        disk.write_block(5, b"base-block-5", IoFlags::DATA).unwrap();
        disk.snapshot()
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
    fn reset_drops_overlay() {
        let mut snap = CowSnapshotDevice::new(base_image());
        snap.write_block(0, b"overlay!", IoFlags::DATA).unwrap();
        snap.write_block(20, b"new", IoFlags::DATA).unwrap();
        assert_eq!(snap.overlay_blocks(), 2);
        snap.reset();
        assert_eq!(snap.overlay_blocks(), 0);
        assert_eq!(&snap.read_block(0).unwrap()[..12], b"base-block-0");
        assert!(snap.read_block(20).unwrap().iter().all(|&b| b == 0));
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
        assert_eq!(frozen.allocated_blocks(), 3);
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
