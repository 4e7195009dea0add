//! IP fragmentation arithmetic and the §2.2 page-alignment rule.
//!
//! The paper's worked example: a page-aligned 16 KB message sent with a
//! 4 KB MTU. "The inclusion of the IP header reduces the data space
//! available in each fragment to slightly less than 4 KB. Consequently,
//! the data portions of most fragments are not page-aligned, and occupy
//! two physical pages … the transmission of a single, 16 KB application
//! message can result in the processing of up to 14 physical buffers."
//!
//! The fix: "ensuring page alignment of application messages, and …
//! choosing an MTU size that is a multiple of the page size, plus the IP
//! header size" — then every fragment's data portion starts and ends on
//! page boundaries and contributes one buffer per page plus one for the
//! header.
//!
//! # Example
//!
//! ```
//! use osiris_proto::frag::{fragment_layout, page_aligned_mtu};
//!
//! // §2.2's recipe: MTU = k pages + IP header keeps fragments aligned.
//! let mtu = page_aligned_mtu(4, 4096); // 16 KB of data per fragment
//! let plan = fragment_layout(256 * 1024, mtu);
//! assert_eq!(plan.count(), 16);
//! assert!(plan.sizes().all(|s| s == 16 * 1024));
//! ```

use crate::wire::IP_HEADER_BYTES;

/// How one datagram splits into fragments: every fragment but the last
/// carries `per` data bytes. The plan is arithmetic only — nothing is
/// listed, so planning a datagram allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragPlan {
    total: u64,
    per: u64,
}

impl FragPlan {
    /// Number of fragments (a zero-length datagram is one empty fragment).
    pub fn count(&self) -> usize {
        self.total.div_ceil(self.per).max(1) as usize
    }

    /// Data bytes carried by fragment `i` (`i < count()`).
    pub fn size(&self, i: usize) -> u32 {
        let off = i as u64 * self.per;
        self.total.saturating_sub(off).min(self.per) as u32
    }

    /// Data bytes carried by each fragment, in order.
    pub fn sizes(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.count()).map(|i| self.size(i))
    }

    /// Byte offset of fragment `i`.
    pub fn offset_of(&self, i: usize) -> u32 {
        (i as u64 * self.per).min(self.total) as u32
    }

    /// Total bytes across fragments.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Splits `total_len` data bytes under `mtu` (the largest PDU the driver
/// accepts, *including* the IP header). Every fragment except possibly the
/// last carries `mtu - IP_HEADER_BYTES` data bytes.
pub fn fragment_layout(total_len: u64, mtu: u32) -> FragPlan {
    let per = mtu as u64 - IP_HEADER_BYTES as u64;
    assert!(per > 0, "MTU smaller than the IP header");
    FragPlan {
        total: total_len,
        per,
    }
}

/// The MTU that makes fragment data portions page-aligned: `k` pages of
/// data plus the IP header (§2.2's recommendation).
pub fn page_aligned_mtu(pages_per_fragment: u32, page_size: u32) -> u32 {
    pages_per_fragment * page_size + IP_HEADER_BYTES as u32
}

/// Counts the physical buffers a fragment occupies, given where its data
/// starts relative to a page boundary. The header always contributes one
/// buffer; the data portion contributes one per page it touches (assuming
/// the §2.2 worst case of no physically contiguous pages).
pub fn fragment_buffer_count(data_offset_in_page: u32, data_len: u32, page_size: u32) -> u32 {
    if data_len == 0 {
        return 1;
    }
    let first = data_offset_in_page / page_size;
    let last = (data_offset_in_page + data_len - 1) / page_size;
    1 + (last - first + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_fragmentation_below_mtu() {
        let plan = fragment_layout(1000, 16 * 1024 + IP_HEADER_BYTES as u32);
        assert_eq!(plan.sizes().collect::<Vec<_>>(), vec![1000]);
        assert_eq!(plan.count(), 1);
    }

    #[test]
    fn exact_multiples_split_cleanly() {
        let mtu = page_aligned_mtu(1, 4096); // 4096 + 24
        let plan = fragment_layout(16 * 1024, mtu);
        assert_eq!(plan.sizes().collect::<Vec<_>>(), vec![4096; 4]);
        assert_eq!(plan.total(), 16 * 1024);
        assert_eq!(plan.offset_of(2), 8192);
    }

    #[test]
    fn trailing_partial_fragment() {
        let mtu = page_aligned_mtu(1, 4096);
        let plan = fragment_layout(10_000, mtu);
        assert_eq!(plan.sizes().collect::<Vec<_>>(), vec![4096, 4096, 1808]);
    }

    #[test]
    fn papers_worked_example_misaligned_mtu() {
        // MTU = 4 KB exactly (page size): data per fragment = 4096 - 24 =
        // 4072, so fragments 2.. start mid-page and straddle two pages.
        let plan = fragment_layout(16 * 1024, 4096);
        assert_eq!(plan.count(), 5, "16 KB no longer fits in 4 fragments");
        // Count buffers: fragment i's data starts at offset 4072*i within
        // the page-aligned message.
        let total: u32 = (0..plan.count())
            .map(|i| fragment_buffer_count(plan.offset_of(i) % 4096, plan.size(i), 4096))
            .sum();
        // The paper says "up to 14": 4 two-page fragments + headers = 12,
        // plus the runt fragment ≈ 13–14 depending on alignment.
        assert!((12..=14).contains(&total), "got {total} buffers");
    }

    #[test]
    fn aligned_mtu_minimises_buffers() {
        // §2.2's fix: MTU = page size + header.
        let mtu = page_aligned_mtu(1, 4096);
        let plan = fragment_layout(16 * 1024, mtu);
        let total: u32 = (0..plan.count())
            .map(|i| fragment_buffer_count(plan.offset_of(i) % 4096, plan.size(i), 4096))
            .sum();
        // 4 fragments × (1 header + 1 page) = 8 buffers.
        assert_eq!(total, 8);
    }

    #[test]
    fn buffer_count_header_only_for_empty_data() {
        assert_eq!(fragment_buffer_count(0, 0, 4096), 1);
        assert_eq!(fragment_buffer_count(0, 4096, 4096), 2);
        assert_eq!(
            fragment_buffer_count(1, 4096, 4096),
            3,
            "unaligned spans two pages"
        );
    }

    #[test]
    fn zero_length_datagram_has_one_empty_fragment() {
        let plan = fragment_layout(0, 4096);
        assert_eq!(plan.sizes().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn large_message_fragment_count() {
        // 256 KB with the paper's 16 KB MTU (16 KB data + header per frag
        // when page-aligned).
        let mtu = page_aligned_mtu(4, 4096);
        let plan = fragment_layout(256 * 1024, mtu);
        assert_eq!(plan.count(), 16);
        assert!(plan.sizes().all(|s| s == 16 * 1024));
    }
}
