//! Protection domains.
//!
//! Mach is a microkernel: "device drivers, network protocols, and
//! application software might all reside in different protection domains"
//! (§3.1), and the x-kernel lets the protocol graph span them. A domain
//! here is an identity owning an address space; crossing between domains
//! costs a trap (`SoftwareCosts::syscall`), which is exactly the cost
//! fbufs amortise and ADCs eliminate from the data path.

/// Domain identity (0 = the kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub u32);

impl DomainId {
    /// The kernel's domain.
    pub const KERNEL: DomainId = DomainId(0);

    /// True for the kernel domain.
    pub fn is_kernel(self) -> bool {
        self.0 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osiris_mem::AddressSpace;

    #[test]
    fn kernel_identity() {
        assert!(DomainId::KERNEL.is_kernel());
        assert!(!DomainId(3).is_kernel());
    }

    #[test]
    fn domains_have_independent_spaces() {
        let mut mem = osiris_mem::PhysMemory::new(64 * 4096, 4096);
        let mut alloc =
            osiris_mem::FrameAllocator::new(&mem, osiris_mem::AllocPolicy::Sequential, 0);
        let mut a = AddressSpace::new(4096);
        let mut b = AddressSpace::new(4096);
        let ra = a.alloc_and_map(4096, &mut alloc).unwrap();
        let rb = b.alloc_and_map(4096, &mut alloc).unwrap();
        // Same virtual base (separate spaces), different frames.
        assert_eq!(ra.base, rb.base);
        let pa = a.translate_addr(ra.base).unwrap();
        let pb = b.translate_addr(rb.base).unwrap();
        assert_ne!(pa, pb);
        mem.write(pa, b"aa");
        mem.write(pb, b"bb");
        assert_eq!(mem.read(pa, 2), b"aa");
    }
}
