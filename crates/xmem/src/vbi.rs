//! The Virtual Block Interface (Hajinazar+, ISCA 2020): instead of one
//! flat virtual address space managed by page tables, programs name
//! *virtual blocks* — variable-sized regions with declared semantic
//! properties — and the memory system translates and manages each block
//! according to those properties.
//!
//! This module models the interface: block allocation in a global virtual
//! block space, block-granularity translation to physical memory, and
//! per-block property-directed placement (which physical memory type the
//! block lands in).

use std::collections::HashMap;

use crate::attributes::DataAttributes;
use crate::policies::reliability_tier;
use crate::XmemError;

/// Identifier of a virtual block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

/// Fixed block size classes (the VBI design exposes a small set of
/// power-of-two sizes so translation stays one lookup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockSize {
    /// 4 KiB.
    Small,
    /// 2 MiB.
    Medium,
    /// 1 GiB.
    Large,
}

impl BlockSize {
    /// Size in bytes.
    #[must_use]
    pub fn bytes(self) -> u64 {
        match self {
            BlockSize::Small => 4 << 10,
            BlockSize::Medium => 2 << 20,
            BlockSize::Large => 1 << 30,
        }
    }
}

/// A virtual block: size class + semantic properties + physical placement.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualBlock {
    /// The block's identifier.
    pub id: BlockId,
    /// Size class.
    pub size: BlockSize,
    /// Declared properties (the VBI "block attributes").
    pub attrs: DataAttributes,
    /// Physical base address assigned by the memory controller.
    pub phys_base: u64,
    /// Physical memory tier chosen from the attributes (0 = most
    /// reliable, 2 = commodity).
    pub tier: usize,
}

/// The system-wide virtual block table: allocation + translation.
///
/// # Examples
///
/// ```
/// use ia_xmem::{BlockSize, DataAttributes, VblTable};
///
/// # fn main() -> Result<(), ia_xmem::XmemError> {
/// let mut vbl = VblTable::new(64 << 20);
/// let id = vbl.allocate(BlockSize::Small, DataAttributes::new())?;
/// let pa = vbl.translate(id, 128)?;
/// assert_eq!(pa % 4096, 128 % 4096);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct VblTable {
    blocks: HashMap<BlockId, VirtualBlock>,
    next_id: u64,
    /// Physical bump allocator per tier.
    next_phys: [u64; 3],
    /// Physical capacity per tier.
    capacity: u64,
}

impl VblTable {
    /// Creates a table with `capacity_per_tier` bytes of physical memory
    /// in each reliability tier.
    #[must_use]
    pub fn new(capacity_per_tier: u64) -> Self {
        VblTable {
            blocks: HashMap::new(),
            next_id: 1,
            next_phys: [0; 3],
            capacity: capacity_per_tier,
        }
    }

    /// Number of live blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if no blocks are allocated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Allocates a block, placing it in the physical tier its attributes
    /// demand (error-vulnerability-directed, as in heterogeneous
    /// reliability memory).
    ///
    /// # Errors
    ///
    /// Returns [`XmemError`] if the chosen tier is out of capacity.
    pub fn allocate(
        &mut self,
        size: BlockSize,
        attrs: DataAttributes,
    ) -> Result<BlockId, XmemError> {
        let tier = reliability_tier(&attrs);
        let base = self.next_phys[tier];
        if base + size.bytes() > self.capacity {
            return Err(XmemError::invalid("physical tier out of capacity"));
        }
        self.next_phys[tier] += size.bytes();
        let id = BlockId(self.next_id);
        self.next_id += 1;
        self.blocks.insert(
            id,
            VirtualBlock {
                id,
                size,
                attrs,
                phys_base: base,
                tier,
            },
        );
        Ok(id)
    }

    /// Frees a block.
    pub fn free(&mut self, id: BlockId) -> Option<VirtualBlock> {
        self.blocks.remove(&id)
    }

    /// Looks up a block.
    #[must_use]
    pub fn block(&self, id: BlockId) -> Option<&VirtualBlock> {
        self.blocks.get(&id)
    }

    /// Translates `(block, offset)` to a physical address — a single
    /// lookup, the VBI replacement for the multi-level page walk.
    ///
    /// # Errors
    ///
    /// Returns [`XmemError`] if the block does not exist or `offset` is
    /// outside it.
    pub fn translate(&self, id: BlockId, offset: u64) -> Result<u64, XmemError> {
        let b = self
            .blocks
            .get(&id)
            .ok_or(XmemError::invalid("no such block"))?;
        if offset >= b.size.bytes() {
            return Err(XmemError::invalid("offset outside block"));
        }
        Ok(b.phys_base + offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::DataAttributes;

    #[test]
    fn allocate_translate_free() {
        let mut vbl = VblTable::new(16 << 20);
        let id = vbl
            .allocate(BlockSize::Small, DataAttributes::new())
            .unwrap();
        assert_eq!(vbl.len(), 1);
        assert!(!vbl.is_empty());
        let pa = vbl.translate(id, 100).unwrap();
        assert_eq!(pa, vbl.block(id).unwrap().phys_base + 100);
        assert!(
            vbl.translate(id, 4096).is_err(),
            "offset beyond a small block"
        );
        let freed = vbl.free(id).unwrap();
        assert_eq!(freed.id, id);
        assert!(vbl.translate(id, 0).is_err());
    }

    #[test]
    fn blocks_do_not_overlap_within_a_tier() {
        let mut vbl = VblTable::new(16 << 20);
        let a = vbl
            .allocate(BlockSize::Small, DataAttributes::new())
            .unwrap();
        let b = vbl
            .allocate(BlockSize::Small, DataAttributes::new())
            .unwrap();
        let (ba, bb) = (vbl.block(a).unwrap(), vbl.block(b).unwrap());
        assert_eq!(ba.tier, bb.tier);
        assert!(bb.phys_base >= ba.phys_base + ba.size.bytes());
    }

    #[test]
    fn vulnerability_directs_tier_placement() {
        let mut vbl = VblTable::new(16 << 20);
        let critical = vbl
            .allocate(
                BlockSize::Small,
                DataAttributes::new().error_vulnerability(95),
            )
            .unwrap();
        let tolerant = vbl
            .allocate(
                BlockSize::Small,
                DataAttributes::new().error_vulnerability(5),
            )
            .unwrap();
        assert_eq!(
            vbl.block(critical).unwrap().tier,
            0,
            "vulnerable data → reliable tier"
        );
        assert_eq!(
            vbl.block(tolerant).unwrap().tier,
            2,
            "tolerant data → commodity tier"
        );
        let usage = vbl.next_phys;
        assert!(usage[0] > 0 && usage[2] > 0 && usage[1] == 0);
    }

    #[test]
    fn capacity_is_enforced_per_tier() {
        let mut vbl = VblTable::new(8 << 10); // two small blocks per tier
        vbl.allocate(BlockSize::Small, DataAttributes::new())
            .unwrap();
        vbl.allocate(BlockSize::Small, DataAttributes::new())
            .unwrap();
        assert!(vbl
            .allocate(BlockSize::Small, DataAttributes::new())
            .is_err());
        // A different tier still has room.
        assert!(vbl
            .allocate(
                BlockSize::Small,
                DataAttributes::new().error_vulnerability(95)
            )
            .is_ok());
    }

    #[test]
    fn size_classes() {
        assert_eq!(BlockSize::Small.bytes(), 4096);
        assert_eq!(BlockSize::Medium.bytes(), 2 << 20);
        assert_eq!(BlockSize::Large.bytes(), 1 << 30);
    }
}
