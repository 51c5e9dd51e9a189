//! Page tables, frame allocation, and per-context address spaces.
//!
//! soNUMA's OS "interacts with the virtual memory subsystem to allocate and
//! pin pages in physical memory" (§5.1), and the RMC walks the same page
//! tables the OS maintains. We model a per-context address space with a
//! flat page table (the walk *cost* is a configurable number of memory
//! references, standing in for a radix walk) and a bump-with-free-list frame
//! allocator per node.

use crate::addr::{PAddr, VAddr, PAGE_BYTES};
use crate::error::MemError;
use crate::fasthash::FastMap;

/// Allocates physical frames within one node.
///
/// # Example
///
/// ```
/// use sonuma_memory::FrameAllocator;
///
/// let mut alloc = FrameAllocator::new(4 << 20); // 4 MiB = 512 frames
/// let f = alloc.alloc().unwrap();
/// alloc.free(f);
/// assert_eq!(alloc.alloc().unwrap(), f); // free list is reused first
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    total_frames: u64,
    next_fresh: u64,
    free_list: Vec<u64>,
}

impl FrameAllocator {
    /// Creates an allocator over `capacity_bytes` of physical memory.
    pub fn new(capacity_bytes: u64) -> Self {
        FrameAllocator {
            total_frames: capacity_bytes / PAGE_BYTES,
            next_fresh: 0,
            free_list: Vec::new(),
        }
    }

    /// Allocates one frame.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] when memory is exhausted.
    pub fn alloc(&mut self) -> Result<u64, MemError> {
        if let Some(f) = self.free_list.pop() {
            return Ok(f);
        }
        if self.next_fresh < self.total_frames {
            let f = self.next_fresh;
            self.next_fresh += 1;
            Ok(f)
        } else {
            Err(MemError::OutOfFrames)
        }
    }

    /// Returns a frame to the allocator.
    pub fn free(&mut self, frame: u64) {
        debug_assert!(frame < self.total_frames);
        self.free_list.push(frame);
    }

    /// Frames still available.
    pub fn available(&self) -> u64 {
        self.total_frames - self.next_fresh + self.free_list.len() as u64
    }
}

/// One context's virtual address space: a page table plus walk cost model.
///
/// # Example
///
/// ```
/// use sonuma_memory::{AddressSpace, FrameAllocator, VAddr};
///
/// let mut alloc = FrameAllocator::new(1 << 20);
/// let mut space = AddressSpace::new(7);
/// space.map_range(VAddr::new(0x10000), 3 * 8192, &mut alloc).unwrap();
/// let pa = space.translate(VAddr::new(0x10000 + 100)).unwrap();
/// assert_eq!(pa.frame_offset(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    asid: u32,
    table: FastMap<u64, u64>, // vpn -> pfn; looked up, never iterated
}

impl AddressSpace {
    /// Creates an empty address space with identifier `asid`.
    pub fn new(asid: u32) -> Self {
        AddressSpace {
            asid,
            table: FastMap::default(),
        }
    }

    /// The address-space identifier (tags TLB entries).
    pub fn asid(&self) -> u32 {
        self.asid
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.table.len()
    }

    /// Maps `len` bytes starting at page-aligned `base`, allocating frames.
    ///
    /// # Errors
    ///
    /// * [`MemError::AlreadyMapped`] if any page in the range is mapped.
    /// * [`MemError::OutOfFrames`] if the node runs out of memory (pages
    ///   mapped before the failure stay mapped).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page-aligned or `len` is zero.
    pub fn map_range(
        &mut self,
        base: VAddr,
        len: u64,
        alloc: &mut FrameAllocator,
    ) -> Result<(), MemError> {
        assert!(base.is_aligned(PAGE_BYTES), "unaligned mapping base {base}");
        assert!(len > 0, "empty mapping");
        let first = base.page_number();
        let pages = len.div_ceil(PAGE_BYTES);
        for vpn in first..first + pages {
            if self.table.contains_key(&vpn) {
                return Err(MemError::AlreadyMapped(VAddr::new(vpn * PAGE_BYTES)));
            }
        }
        for vpn in first..first + pages {
            let pfn = alloc.alloc()?;
            self.table.insert(vpn, pfn);
        }
        Ok(())
    }

    /// Unmaps `len` bytes starting at `base`, returning frames to `alloc`.
    pub fn unmap_range(&mut self, base: VAddr, len: u64, alloc: &mut FrameAllocator) {
        let first = base.page_number();
        let pages = len.div_ceil(PAGE_BYTES);
        for vpn in first..first + pages {
            if let Some(pfn) = self.table.remove(&vpn) {
                alloc.free(pfn);
            }
        }
    }

    /// Translates a virtual address to a physical address.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Unmapped`] if no mapping covers `va`.
    pub fn translate(&self, va: VAddr) -> Result<PAddr, MemError> {
        let pfn = self
            .table
            .get(&va.page_number())
            .ok_or(MemError::Unmapped(va))?;
        Ok(PAddr::new(pfn * PAGE_BYTES + va.page_offset()))
    }

    /// Number of memory references a hardware walk of this table performs.
    ///
    /// Stands in for a two-level radix walk; the hierarchy charges this many
    /// dependent memory accesses on a TLB miss.
    pub fn walk_references(&self) -> u32 {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_bump_and_free_list() {
        let mut a = FrameAllocator::new(3 * PAGE_BYTES);
        assert_eq!(a.available(), 3);
        let f0 = a.alloc().unwrap();
        let f1 = a.alloc().unwrap();
        assert_ne!(f0, f1);
        a.free(f0);
        assert_eq!(a.alloc().unwrap(), f0);
        let _ = a.alloc().unwrap();
        assert_eq!(a.alloc(), Err(MemError::OutOfFrames));
    }

    #[test]
    fn map_translate_roundtrip() {
        let mut alloc = FrameAllocator::new(1 << 20);
        let mut s = AddressSpace::new(1);
        s.map_range(VAddr::new(0), 2 * PAGE_BYTES, &mut alloc)
            .unwrap();
        let pa0 = s.translate(VAddr::new(10)).unwrap();
        let pa1 = s.translate(VAddr::new(PAGE_BYTES + 10)).unwrap();
        assert_eq!(pa0.frame_offset(), 10);
        assert_eq!(pa1.frame_offset(), 10);
        assert_ne!(pa0.frame_number(), pa1.frame_number());
    }

    #[test]
    fn translate_unmapped_fails() {
        let s = AddressSpace::new(1);
        assert_eq!(
            s.translate(VAddr::new(0x5000)),
            Err(MemError::Unmapped(VAddr::new(0x5000)))
        );
    }

    #[test]
    fn double_map_rejected_atomically() {
        let mut alloc = FrameAllocator::new(1 << 20);
        let mut s = AddressSpace::new(1);
        s.map_range(VAddr::new(PAGE_BYTES * 2), PAGE_BYTES, &mut alloc)
            .unwrap();
        // Overlapping range: refused before allocating anything.
        let avail_before = alloc.available();
        let err = s
            .map_range(VAddr::new(0), PAGE_BYTES * 4, &mut alloc)
            .unwrap_err();
        assert!(matches!(err, MemError::AlreadyMapped(_)));
        assert_eq!(alloc.available(), avail_before);
        assert_eq!(s.mapped_pages(), 1);
    }

    #[test]
    fn unmap_returns_frames() {
        let mut alloc = FrameAllocator::new(4 * PAGE_BYTES);
        let mut s = AddressSpace::new(1);
        s.map_range(VAddr::new(0), 4 * PAGE_BYTES, &mut alloc)
            .unwrap();
        assert_eq!(alloc.available(), 0);
        s.unmap_range(VAddr::new(0), 2 * PAGE_BYTES, &mut alloc);
        assert_eq!(alloc.available(), 2);
        assert!(s.translate(VAddr::new(0)).is_err());
        assert!(s.translate(VAddr::new(2 * PAGE_BYTES)).is_ok());
    }

    #[test]
    fn partial_page_len_rounds_up() {
        let mut alloc = FrameAllocator::new(1 << 20);
        let mut s = AddressSpace::new(1);
        s.map_range(VAddr::new(0), 100, &mut alloc).unwrap();
        assert_eq!(s.mapped_pages(), 1);
        assert!(s.translate(VAddr::new(PAGE_BYTES - 1)).is_ok());
    }

    #[test]
    #[should_panic(expected = "unaligned mapping")]
    fn unaligned_base_panics() {
        let mut alloc = FrameAllocator::new(1 << 20);
        let mut s = AddressSpace::new(1);
        let _ = s.map_range(VAddr::new(100), PAGE_BYTES, &mut alloc);
    }
}
