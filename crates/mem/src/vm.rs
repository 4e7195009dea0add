//! Virtual memory: per-domain address spaces, translation, wiring.
//!
//! §2.2: "contiguous virtual memory pages used to store a PDU are generally
//! not contiguous in the physical address space" — this module is where
//! that fact is manufactured (via the frame allocator's policy) and
//! observed (via [`AddressSpace::translate`], which turns a virtual range
//! into the physical buffer list the driver must hand the board).
//!
//! §2.4: pages handed to the board for DMA must be **wired** (pinned).
//! Wiring state lives here; the *cost* of the two wiring services the
//! paper compares (Mach's heavyweight `vm_wire` vs. the low-level pmap
//! path) is modelled in `osiris-host`.

use std::collections::BTreeMap;

use crate::buffer::PhysBuffer;
use crate::phys::{FrameAllocator, PhysAddr};

/// A virtual byte address (per address space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// Byte offset addition.
    pub fn offset(self, bytes: u64) -> VirtAddr {
        VirtAddr(self.0 + bytes)
    }
}

/// A mapped virtual range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtRegion {
    /// First byte (always page-aligned as returned by `alloc_and_map`).
    pub base: VirtAddr,
    /// Length in bytes.
    pub len: u64,
}

/// Errors from mapping and translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// Frame allocator exhausted.
    OutOfMemory,
    /// A page in the requested range is not mapped.
    Unmapped,
    /// Zero-length or overflowing range.
    BadRange,
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::OutOfMemory => write!(f, "out of physical memory"),
            MapError::Unmapped => write!(f, "address not mapped"),
            MapError::BadRange => write!(f, "bad virtual range"),
        }
    }
}

impl std::error::Error for MapError {}

#[derive(Debug, Clone, Copy)]
struct PageEntry {
    frame: usize,
    wired: bool,
}

/// One protection domain's address space.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    page_size: u64,
    table: BTreeMap<u64, PageEntry>,
    next_vpn: u64,
}

impl AddressSpace {
    /// An empty address space over pages of `page_size` bytes.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size.is_power_of_two());
        // Start mappings above page 16 so null-ish addresses stay unmapped.
        AddressSpace {
            page_size: page_size as u64,
            table: BTreeMap::new(),
            next_vpn: 16,
        }
    }

    /// Allocates frames for `len` bytes and maps them at a fresh
    /// page-aligned virtual base.
    pub fn alloc_and_map(
        &mut self,
        len: u64,
        alloc: &mut FrameAllocator,
    ) -> Result<VirtRegion, MapError> {
        if len == 0 {
            return Err(MapError::BadRange);
        }
        let pages = len.div_ceil(self.page_size);
        let frames = alloc.alloc(pages as usize).ok_or(MapError::OutOfMemory)?;
        Ok(self.map_frames(&frames, len))
    }

    /// Maps the given frames (in order) at a fresh virtual base; the region
    /// reports `len` bytes (the final page may be partially used).
    pub fn map_frames(&mut self, frames: &[usize], len: u64) -> VirtRegion {
        let base_vpn = self.next_vpn;
        for (i, &f) in frames.iter().enumerate() {
            self.table.insert(
                base_vpn + i as u64,
                PageEntry {
                    frame: f,
                    wired: false,
                },
            );
        }
        // Leave a one-page guard gap between regions.
        self.next_vpn = base_vpn + frames.len() as u64 + 1;
        VirtRegion {
            base: VirtAddr(base_vpn * self.page_size),
            len,
        }
    }

    /// Unmaps a region and returns its frames to `alloc`.
    pub fn unmap(&mut self, region: VirtRegion, alloc: &mut FrameAllocator) {
        let frames = self.frames_of(region).expect("unmap of unmapped region");
        let first = region.base.0 / self.page_size;
        let pages = region.len.div_ceil(self.page_size);
        for vpn in first..first + pages {
            self.table.remove(&vpn);
        }
        alloc.free(&frames);
    }

    /// The frames backing a region, in virtual order.
    pub fn frames_of(&self, region: VirtRegion) -> Result<Vec<usize>, MapError> {
        if region.len == 0 {
            return Err(MapError::BadRange);
        }
        let first = region.base.0 / self.page_size;
        let pages = region.len.div_ceil(self.page_size);
        let mut out = Vec::with_capacity(pages as usize);
        for vpn in first..first + pages {
            out.push(self.table.get(&vpn).ok_or(MapError::Unmapped)?.frame);
        }
        Ok(out)
    }

    /// Translates a single virtual address.
    pub fn translate_addr(&self, va: VirtAddr) -> Result<PhysAddr, MapError> {
        let vpn = va.0 / self.page_size;
        let off = va.0 % self.page_size;
        let e = self.table.get(&vpn).ok_or(MapError::Unmapped)?;
        Ok(PhysAddr(e.frame as u64 * self.page_size + off))
    }

    /// Translates `[va, va+len)` into a list of physical buffers, merging
    /// physically adjacent pages. The length of the returned list is the
    /// §2.2 "physical buffer count" that drives per-PDU driver cost.
    pub fn translate(&self, va: VirtAddr, len: u64) -> Result<Vec<PhysBuffer>, MapError> {
        let mut bufs = Vec::new();
        self.translate_into(va, len, &mut bufs)?;
        Ok(bufs)
    }

    /// Appends the physical buffers of `[va, va+len)` to `out`, merging
    /// each page's piece into the last buffer of `out` when they abut —
    /// exactly what [`crate::buffer::coalesce`] does to the concatenated
    /// list, with no intermediate list. Translating several ranges into
    /// one `out` therefore yields the coalesced chain of their
    /// concatenation. On error `out` may hold a prefix of the range.
    pub fn translate_into(
        &self,
        va: VirtAddr,
        len: u64,
        out: &mut Vec<PhysBuffer>,
    ) -> Result<(), MapError> {
        if len == 0 {
            return Err(MapError::BadRange);
        }
        let mut cur = va.0;
        let end = va.0.checked_add(len).ok_or(MapError::BadRange)?;
        while cur < end {
            let page_end = (cur / self.page_size + 1) * self.page_size;
            let take = page_end.min(end) - cur;
            let piece = PhysBuffer::new(self.translate_addr(VirtAddr(cur))?, take as u32);
            match out.last_mut() {
                Some(last) if last.abuts(&piece) => last.len += piece.len,
                _ => out.push(piece),
            }
            cur += take;
        }
        Ok(())
    }

    /// Wires all pages overlapping the range; returns how many pages
    /// changed state (the wiring service is charged per page).
    pub fn wire(&mut self, va: VirtAddr, len: u64) -> Result<u64, MapError> {
        if len == 0 {
            return Err(MapError::BadRange);
        }
        let first = va.0 / self.page_size;
        let last = (va.0 + len - 1) / self.page_size;
        let mut changed = 0;
        for vpn in first..=last {
            let e = self.table.get_mut(&vpn).ok_or(MapError::Unmapped)?;
            if !e.wired {
                e.wired = true;
                changed += 1;
            }
        }
        Ok(changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phys::{AllocPolicy, PhysMemory};

    fn setup(policy: AllocPolicy) -> (AddressSpace, FrameAllocator, PhysMemory) {
        let mem = PhysMemory::new(256 * 4096, 4096);
        let alloc = FrameAllocator::new(&mem, policy, 42);
        (AddressSpace::new(4096), alloc, mem)
    }

    #[test]
    fn map_translate_roundtrip() {
        let (mut asp, mut alloc, _m) = setup(AllocPolicy::Sequential);
        let r = asp.alloc_and_map(10_000, &mut alloc).unwrap();
        assert_eq!(r.len, 10_000);
        let pa = asp.translate_addr(r.base.offset(5000)).unwrap();
        // Sequential frames 0..3 mapped in order: offset is preserved.
        assert_eq!(pa, PhysAddr(5000));
    }

    #[test]
    fn sequential_frames_coalesce_to_one_buffer() {
        let (mut asp, mut alloc, _m) = setup(AllocPolicy::Sequential);
        let r = asp.alloc_and_map(16 * 1024, &mut alloc).unwrap();
        let bufs = asp.translate(r.base, r.len).unwrap();
        assert_eq!(bufs.len(), 1, "contiguous frames must merge: {bufs:?}");
        assert_eq!(bufs[0].len, 16 * 1024);
    }

    #[test]
    fn scattered_frames_yield_one_buffer_per_page() {
        let (mut asp, mut alloc, _m) = setup(AllocPolicy::Scattered);
        let r = asp.alloc_and_map(16 * 1024, &mut alloc).unwrap();
        let bufs = asp.translate(r.base, r.len).unwrap();
        // §2.2: a PDU of n pages usually occupies n physical buffers.
        assert_eq!(bufs.len(), 4, "{bufs:?}");
        assert_eq!(bufs.iter().map(|b| b.len as u64).sum::<u64>(), 16 * 1024);
    }

    #[test]
    fn unaligned_range_spans_extra_page() {
        let (mut asp, mut alloc, _m) = setup(AllocPolicy::Scattered);
        let r = asp.alloc_and_map(3 * 4096, &mut alloc).unwrap();
        // 4096 bytes starting 100 bytes into a page touch two pages.
        let bufs = asp.translate(r.base.offset(100), 4096).unwrap();
        assert_eq!(bufs.len(), 2);
        assert_eq!(bufs[0].len, 4096 - 100);
        assert_eq!(bufs[1].len, 100);
    }

    #[test]
    fn translate_unmapped_fails() {
        let (asp, _alloc, _m) = setup(AllocPolicy::Sequential);
        assert_eq!(
            asp.translate(VirtAddr(0), 10).unwrap_err(),
            MapError::Unmapped
        );
    }

    #[test]
    fn zero_len_is_bad_range() {
        let (asp, _alloc, _m) = setup(AllocPolicy::Sequential);
        assert_eq!(
            asp.translate(VirtAddr(0), 0).unwrap_err(),
            MapError::BadRange
        );
    }

    #[test]
    fn unmap_frees_frames() {
        let (mut asp, mut alloc, _m) = setup(AllocPolicy::Scattered);
        let before = alloc.free_frames();
        let r = asp.alloc_and_map(8 * 4096, &mut alloc).unwrap();
        assert_eq!(alloc.free_frames(), before - 8);
        asp.unmap(r, &mut alloc);
        assert_eq!(alloc.free_frames(), before);
        assert!(asp.translate(r.base, 1).is_err());
    }

    #[test]
    fn wiring_state_machine() {
        let (mut asp, mut alloc, _m) = setup(AllocPolicy::Sequential);
        let r = asp.alloc_and_map(3 * 4096, &mut alloc).unwrap();
        assert_eq!(asp.wire(r.base, 4096).unwrap(), 1);
        // Re-wiring is idempotent: only the two unwired pages change.
        assert_eq!(asp.wire(r.base, r.len).unwrap(), 2);
        assert_eq!(asp.wire(r.base, r.len).unwrap(), 0);
        assert_eq!(asp.wire(r.base, 0), Err(MapError::BadRange));
    }

    #[test]
    fn regions_are_separated_by_guard_pages() {
        let (mut asp, mut alloc, _m) = setup(AllocPolicy::Sequential);
        let a = asp.alloc_and_map(4096, &mut alloc).unwrap();
        let b = asp.alloc_and_map(4096, &mut alloc).unwrap();
        assert!(b.base.0 >= a.base.0 + 2 * 4096, "guard gap expected");
        // The guard page itself is unmapped.
        assert!(asp.translate_addr(VirtAddr(a.base.0 + 4096)).is_err());
    }

    #[test]
    fn frames_of_matches_mapping_order() {
        let (mut asp, mut alloc, _m) = setup(AllocPolicy::Scattered);
        let r = asp.alloc_and_map(3 * 4096, &mut alloc).unwrap();
        let frames = asp.frames_of(r).unwrap();
        assert_eq!(frames.len(), 3);
        for (i, f) in frames.iter().enumerate() {
            let pa = asp.translate_addr(r.base.offset(i as u64 * 4096)).unwrap();
            assert_eq!(pa.0 / 4096, *f as u64);
        }
    }
}
