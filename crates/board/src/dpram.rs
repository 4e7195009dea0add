//! Dual-port memory layout (§3.2).
//!
//! "From the host's perspective, the adaptor looks like a 128 KB region of
//! memory." Each half (transmit / receive) exposes 16 pages of 4 KB:
//!
//! * transmit half: one transmit queue per page;
//! * receive half: one free-buffer queue **and** one receive queue per page.
//!
//! Page 0 of each half belongs to the operating system; the remaining
//! pages are grouped into (transmit, receive) pairs that can be mapped
//! directly into application address spaces to form application device
//! channels. This module only captures the geometry; queue behaviour lives
//! in [`crate::descriptor`], and the protection rules in `osiris-adc`.

/// Queue pages per half (16 × 4 KB = 64 KB per half, 128 KB total).
pub const QUEUE_PAGES: usize = 16;

/// Geometry of the shared memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpramLayout {
    /// Descriptor ring slots per transmit queue.
    pub tx_ring_slots: u32,
    /// Slots per free-buffer ring.
    pub free_ring_slots: u32,
    /// Slots per receive ring.
    pub rx_ring_slots: u32,
}

impl DpramLayout {
    /// The paper's configuration: 64-entry free and receive queues
    /// (§2.3: "a free buffer queue and a receive queue with a length of 64
    /// buffers each"); transmit rings sized to match.
    pub fn paper_default() -> Self {
        DpramLayout {
            tx_ring_slots: 64,
            free_ring_slots: 64,
            rx_ring_slots: 64,
        }
    }

    /// Index of the queue page owned by the kernel.
    pub const KERNEL_PAGE: usize = 0;

    /// Queue-page indices available for application device channels.
    pub fn adc_pages() -> impl Iterator<Item = usize> {
        1..QUEUE_PAGES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adc_pages_exclude_kernel_page() {
        let pages: Vec<usize> = DpramLayout::adc_pages().collect();
        assert_eq!(pages.len(), QUEUE_PAGES - 1);
        assert!(!pages.contains(&DpramLayout::KERNEL_PAGE));
    }
}
