//! Physical buffers — the unit of host/board data exchange.
//!
//! §2.2: "The unit of data exchanged between host driver software and
//! on-board processors is a physical buffer — a set of memory locations
//! with contiguous physical addresses." Per-PDU driver cost grows with the
//! number of physical buffers, so the library tracks and minimises them.

use crate::phys::PhysAddr;

/// A physically contiguous region `[addr, addr + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysBuffer {
    /// First byte.
    pub addr: PhysAddr,
    /// Length in bytes (never zero in a well-formed buffer list).
    pub len: u32,
}

impl PhysBuffer {
    /// Constructs a buffer.
    pub fn new(addr: PhysAddr, len: u32) -> Self {
        PhysBuffer { addr, len }
    }

    /// One past the last byte.
    pub fn end(&self) -> PhysAddr {
        self.addr.offset(self.len as u64)
    }

    /// True if `other` begins exactly where `self` ends.
    pub fn abuts(&self, other: &PhysBuffer) -> bool {
        self.end() == other.addr
    }
}

/// Merges physically adjacent buffers, preserving order.
///
/// The driver applies this before handing buffer lists to the board: with a
/// fragmented frame allocator it rarely helps (the §2.2 problem); with
/// contiguous allocation it collapses a message to one descriptor.
pub fn coalesce(buffers: &[PhysBuffer]) -> Vec<PhysBuffer> {
    let mut out: Vec<PhysBuffer> = Vec::with_capacity(buffers.len());
    for b in buffers {
        if b.len == 0 {
            continue;
        }
        match out.last_mut() {
            Some(last) if last.abuts(b) => last.len += b.len,
            _ => out.push(*b),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(addr: u64, len: u32) -> PhysBuffer {
        PhysBuffer::new(PhysAddr(addr), len)
    }

    #[test]
    fn end_and_abuts() {
        let x = b(0, 100);
        let y = b(100, 50);
        let z = b(151, 50);
        assert_eq!(x.end(), PhysAddr(100));
        assert!(x.abuts(&y));
        assert!(!y.abuts(&z));
    }

    #[test]
    fn coalesce_merges_adjacent() {
        let list = vec![b(0, 4096), b(4096, 4096), b(16384, 100)];
        let merged = coalesce(&list);
        assert_eq!(merged, vec![b(0, 8192), b(16384, 100)]);
        let bytes = |l: &[PhysBuffer]| l.iter().map(|b| b.len).sum::<u32>();
        assert_eq!(bytes(&merged), bytes(&list));
    }

    #[test]
    fn coalesce_keeps_order_and_gaps() {
        // Adjacent in address space but out of order must NOT merge:
        // buffer order is wire order.
        let list = vec![b(4096, 4096), b(0, 4096)];
        assert_eq!(coalesce(&list).len(), 2);
    }

    #[test]
    fn coalesce_drops_empty_buffers() {
        let list = vec![b(0, 0), b(0, 10), b(10, 0), b(10, 5)];
        assert_eq!(coalesce(&list), vec![b(0, 15)]);
    }

    #[test]
    fn coalesce_chain_of_many() {
        let list: Vec<PhysBuffer> = (0..16).map(|i| b(i * 256, 256)).collect();
        assert_eq!(coalesce(&list), vec![b(0, 4096)]);
    }
}
