//! Virtual-address DMA via a scatter/gather map (§2.2, last paragraph).
//!
//! "Several modern workstations, such as the IBM RISC System/6000 and DEC
//! 3000 AXP Systems provide support for virtual address DMA through the
//! use of a hardware virtual-to-physical translation buffer
//! (scatter/gather map). Host driver software must set up the map to
//! contain appropriate mappings for all the fragments of a buffer before
//! a DMA transfer. When data is transferred directly from and to
//! application buffers, it may be necessary to update the map for each
//! individual message. As a result, physical buffer fragmentation is a
//! potential performance concern even when virtual DMA is available."
//!
//! The model: a bounded table of page-granular entries mapping *bus*
//! pages to physical frames. Loading an entry costs an I/O-register write
//! (charged by the caller per [`SgMap::PIO_WORDS_PER_ENTRY`]); a DMA
//! through the map needs every covered bus page resident. The punchline
//! the paper draws survives intact: scattered physical pages cost one map
//! update each, so §2.2's buffer-count arithmetic becomes map-update
//! arithmetic instead of descriptor arithmetic — it does not disappear.

use std::collections::HashMap;

use crate::buffer::PhysBuffer;
use crate::phys::PhysAddr;

/// A bus-visible DMA address produced by the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BusAddr(pub u64);

/// Errors from map operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SgError {
    /// The map's entry table is full.
    MapFull,
    /// A translation touched an unmapped bus page.
    NotMapped,
}

impl std::fmt::Display for SgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SgError::MapFull => write!(f, "scatter/gather map full"),
            SgError::NotMapped => write!(f, "bus page not mapped"),
        }
    }
}

impl std::error::Error for SgError {}

/// The hardware translation buffer.
#[derive(Debug)]
pub struct SgMap {
    page_size: u64,
    entries: usize,
    table: HashMap<u64, usize>, // bus page -> physical frame
    next_bus_page: u64,
    loads: u64,
}

impl SgMap {
    /// I/O-register words written per entry load (address + frame + valid
    /// bit packed into two words on the machines the paper cites).
    pub const PIO_WORDS_PER_ENTRY: u64 = 2;

    /// A map with `entries` slots over `page_size` pages.
    pub fn new(entries: usize, page_size: u64) -> Self {
        assert!(page_size.is_power_of_two());
        SgMap {
            page_size,
            entries,
            table: HashMap::new(),
            next_bus_page: 1, // bus page 0 stays invalid (catches null DMA)
            loads: 0,
        }
    }

    /// Entry loads performed (each costs [`Self::PIO_WORDS_PER_ENTRY`]
    /// I/O writes — the per-message map-update traffic the paper warns
    /// about).
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Maps a buffer's physical pages into consecutive bus pages,
    /// returning the buffer's bus-contiguous base address. One entry load
    /// per covered physical page.
    pub fn map_buffer(&mut self, buf: PhysBuffer) -> Result<BusAddr, SgError> {
        let first = buf.addr.0 / self.page_size;
        let last = (buf.addr.0 + buf.len as u64 - 1) / self.page_size;
        let pages = (last - first + 1) as usize;
        if self.table.len() + pages > self.entries {
            return Err(SgError::MapFull);
        }
        let base_bus_page = self.next_bus_page;
        for (i, ppage) in (first..=last).enumerate() {
            self.table.insert(base_bus_page + i as u64, ppage as usize);
            self.loads += 1;
        }
        self.next_bus_page += pages as u64;
        Ok(BusAddr(
            base_bus_page * self.page_size + buf.addr.0 % self.page_size,
        ))
    }

    /// Maps a whole fragment list (one call per §2.2 "fragment of a
    /// buffer"), returning per-fragment bus addresses. Entry loads equal
    /// the total covered pages: the fragmentation cost in map currency.
    pub fn map_fragments(&mut self, bufs: &[PhysBuffer]) -> Result<Vec<BusAddr>, SgError> {
        bufs.iter().map(|&b| self.map_buffer(b)).collect()
    }

    /// Translates a bus address back to physical (what the DMA engine does
    /// per transaction).
    pub fn translate(&self, bus: BusAddr) -> Result<PhysAddr, SgError> {
        let page = bus.0 / self.page_size;
        let off = bus.0 % self.page_size;
        let frame = *self.table.get(&page).ok_or(SgError::NotMapped)?;
        Ok(PhysAddr(frame as u64 * self.page_size + off))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(addr: u64, len: u32) -> PhysBuffer {
        PhysBuffer::new(PhysAddr(addr), len)
    }

    #[test]
    fn contiguous_buffer_maps_with_offset_preserved() {
        let mut m = SgMap::new(32, 4096);
        let bus = m.map_buffer(b(3 * 4096 + 100, 5000)).unwrap();
        assert_eq!(bus.0 % 4096, 100);
        // 100..5100 covers two physical pages → two entry loads.
        assert_eq!(m.loads(), 2);
        // Translation round-trips at both ends of the buffer.
        assert_eq!(m.translate(bus).unwrap(), PhysAddr(3 * 4096 + 100));
        let end = BusAddr(bus.0 + 4999);
        assert_eq!(m.translate(end).unwrap(), PhysAddr(3 * 4096 + 100 + 4999));
    }

    #[test]
    fn scattered_fragments_cost_one_load_per_page() {
        let mut m = SgMap::new(64, 4096);
        // A §2.2-style fragmented message: 4 scattered pages + a header.
        let frags = [
            b(9 * 4096, 64),
            b(2 * 4096, 4096),
            b(7 * 4096, 4096),
            b(4096, 4096),
            b(5 * 4096, 4096),
        ];
        let bus = m.map_fragments(&frags).unwrap();
        assert_eq!(bus.len(), 5);
        assert_eq!(
            m.loads(),
            5,
            "one map update per page: fragmentation persists"
        );
        for (addr, frag) in bus.iter().zip(&frags) {
            assert_eq!(m.translate(*addr).unwrap(), frag.addr);
        }
    }

    #[test]
    fn map_exhaustion_is_reported() {
        let mut m = SgMap::new(2, 4096);
        m.map_buffer(b(0, 4096)).unwrap();
        m.map_buffer(b(4096, 4096)).unwrap();
        assert_eq!(m.map_buffer(b(8192, 1)).unwrap_err(), SgError::MapFull);
    }

    #[test]
    fn unmapped_bus_page_faults() {
        let m = SgMap::new(8, 4096);
        assert_eq!(m.translate(BusAddr(0)).unwrap_err(), SgError::NotMapped);
        assert_eq!(
            m.translate(BusAddr(5 * 4096)).unwrap_err(),
            SgError::NotMapped
        );
    }

    #[test]
    fn bus_space_is_contiguous_across_a_scattered_buffer() {
        // The whole point of the map: a physically scattered region looks
        // contiguous to the DMA engine.
        let mut m = SgMap::new(8, 4096);
        // Map three scattered pages as one "buffer list" of page pieces.
        let bus = m
            .map_fragments(&[b(6 * 4096, 4096), b(4096, 4096), b(3 * 4096, 4096)])
            .unwrap();
        // Consecutive fragments land on consecutive bus pages.
        assert_eq!(bus[1].0, bus[0].0 + 4096);
        assert_eq!(bus[2].0, bus[1].0 + 4096);
    }
}
