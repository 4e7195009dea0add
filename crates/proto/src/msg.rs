//! The x-kernel message tool.
//!
//! A message is a chain of `(address, length)` segments; protocols prepend
//! headers and split messages *without copying data* — the property that
//! makes the copy-free data path of reference \[9\] possible and that turns into the
//! physical-buffer-count arithmetic of §2.2 once addresses are translated.
//!
//! The chain is generic over its address type: `Message<VirtAddr>` on the
//! transmit side (application/kernel virtual memory), `Message<PhysAddr>`
//! on the receive side (the driver's physically contiguous buffers).
//!
//! The chain lives inline up to [`INLINE_SEGS`] segments — an IP header,
//! a UDP header and the data, or a reassembled datagram of up to four
//! fragments — so building, splitting and joining messages on the
//! per-datagram path allocates nothing.

use osiris_sim::SmallVec;

/// Segments a message holds without touching the heap.
const INLINE_SEGS: usize = 4;

/// Address types a message can reference.
pub trait MsgAddr: Copy + Default + std::fmt::Debug {
    /// Address arithmetic.
    fn add(self, bytes: u64) -> Self;
}

impl MsgAddr for osiris_mem::VirtAddr {
    fn add(self, bytes: u64) -> Self {
        self.offset(bytes)
    }
}

impl MsgAddr for osiris_mem::PhysAddr {
    fn add(self, bytes: u64) -> Self {
        self.offset(bytes)
    }
}

/// One contiguous segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Seg<A> {
    /// Segment start.
    pub addr: A,
    /// Length in bytes.
    pub len: u32,
}

/// A message: an ordered chain of segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message<A: MsgAddr> {
    segs: SmallVec<Seg<A>, INLINE_SEGS>,
}

impl<A: MsgAddr> Default for Message<A> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<A: MsgAddr> Message<A> {
    /// The empty message.
    pub fn empty() -> Self {
        Message {
            segs: SmallVec::new(),
        }
    }

    /// A message of one segment.
    pub fn single(addr: A, len: u32) -> Self {
        let mut m = Message::empty();
        if len > 0 {
            m.segs.push(Seg { addr, len });
        }
        m
    }

    /// Total length in bytes.
    pub fn len(&self) -> u64 {
        self.segs.iter().map(|s| s.len as u64).sum()
    }

    /// True if the message carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// The segments, in order.
    pub fn segs(&self) -> &[Seg<A>] {
        &self.segs
    }

    /// Prepends a header segment (x-kernel `msgPush`).
    pub fn push_header(&mut self, addr: A, len: u32) {
        if len > 0 {
            self.segs.insert(0, Seg { addr, len });
        }
    }

    /// Strips `n` bytes from the front (x-kernel `msgPop`), returning the
    /// stripped prefix as its own message. Panics if `n > len`.
    pub fn pop_header(&mut self, n: u32) -> Message<A> {
        assert!(n as u64 <= self.len(), "pop beyond message");
        let mut popped = Message::empty();
        let mut need = n;
        while need > 0 {
            let first = self.segs[0];
            if first.len <= need {
                popped.segs.push(first);
                self.segs.remove(0);
                need -= first.len;
            } else {
                popped.segs.push(Seg {
                    addr: first.addr,
                    len: need,
                });
                self.segs[0] = Seg {
                    addr: first.addr.add(need as u64),
                    len: first.len - need,
                };
                need = 0;
            }
        }
        popped
    }

    /// Splits off the first `n` bytes (x-kernel fragmentation), leaving the
    /// remainder in `self`. Panics if `n > len`.
    pub fn split_off_front(&mut self, n: u64) -> Message<A> {
        assert!(n <= self.len(), "split beyond message");
        let mut front = Message::empty();
        let mut need = n;
        while need > 0 {
            let first = self.segs[0];
            if first.len as u64 <= need {
                front.segs.push(first);
                self.segs.remove(0);
                need -= first.len as u64;
            } else {
                front.segs.push(Seg {
                    addr: first.addr,
                    len: need as u32,
                });
                self.segs[0] = Seg {
                    addr: first.addr.add(need),
                    len: first.len - need as u32,
                };
                need = 0;
            }
        }
        front
    }

    /// Appends another message (x-kernel `msgJoin`).
    pub fn join(&mut self, other: Message<A>) {
        self.segs.extend_from_slice(&other.segs);
    }

    /// Appends one segment (a no-op for `len == 0`).
    pub fn push_seg(&mut self, addr: A, len: u32) {
        if len > 0 {
            self.segs.push(Seg { addr, len });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osiris_mem::VirtAddr;

    fn va(x: u64) -> VirtAddr {
        VirtAddr(x)
    }

    #[test]
    fn single_and_len() {
        let m = Message::single(va(0x1000), 500);
        assert_eq!(m.len(), 500);
        assert_eq!(m.segs().len(), 1);
        assert!(Message::<VirtAddr>::single(va(0), 0).is_empty());
    }

    #[test]
    fn push_pop_roundtrip() {
        let mut m = Message::single(va(0x1000), 100);
        m.push_header(va(0x2000), 24);
        assert_eq!(m.len(), 124);
        assert_eq!(m.segs().len(), 2);
        let hdr = m.pop_header(24);
        assert_eq!(hdr.len(), 24);
        assert_eq!(hdr.segs()[0].addr, va(0x2000));
        assert_eq!(m.len(), 100);
        assert_eq!(m.segs()[0].addr, va(0x1000));
    }

    #[test]
    fn pop_across_segments() {
        let mut m = Message::single(va(0x1000), 10);
        m.push_header(va(0x2000), 4);
        let popped = m.pop_header(7); // all of the header + 3 data bytes
        assert_eq!(popped.len(), 7);
        assert_eq!(popped.segs().len(), 2);
        assert_eq!(m.len(), 7);
        assert_eq!(m.segs()[0].addr, va(0x1003));
    }

    #[test]
    fn split_partial_segment() {
        let mut m = Message::single(va(0), 1000);
        let front = m.split_off_front(300);
        assert_eq!(front.len(), 300);
        assert_eq!(m.len(), 700);
        assert_eq!(m.segs()[0].addr, va(300));
    }

    #[test]
    fn split_and_rejoin_preserves_layout() {
        let mut m = Message::single(va(0), 4096);
        m.push_header(va(0x9000), 24);
        let original = m.clone();
        let front = m.split_off_front(2000);
        let mut rejoined = front;
        rejoined.join(m);
        assert_eq!(rejoined.len(), original.len());
        // Byte-position ↔ address mapping is preserved even if the segment
        // count differs.
        let flat = |msg: &Message<VirtAddr>| -> Vec<(u64, u64)> {
            msg.segs().iter().map(|s| (s.addr.0, s.len as u64)).fold(
                Vec::new(),
                |mut acc, (a, l)| {
                    // Coalesce adjacent for comparison.
                    if let Some(last) = acc.last_mut() {
                        if last.0 + last.1 == a {
                            last.1 += l;
                            return acc;
                        }
                    }
                    acc.push((a, l));
                    acc
                },
            )
        };
        assert_eq!(flat(&rejoined), flat(&original));
    }

    #[test]
    #[should_panic(expected = "split beyond message")]
    fn split_too_far_panics() {
        let mut m = Message::single(va(0), 10);
        m.split_off_front(11);
    }

    #[test]
    fn fragmenting_a_message_like_ip_does() {
        // 16 KB message, 4072-byte fragments (the misaligned case).
        let mut m = Message::single(va(0x4000), 16 * 1024);
        let mut frags = Vec::new();
        while !m.is_empty() {
            let take = m.len().min(4072);
            frags.push(m.split_off_front(take));
        }
        assert_eq!(frags.len(), 5);
        assert_eq!(frags.iter().map(|f| f.len()).sum::<u64>(), 16 * 1024);
        // Each fragment starts where the previous ended.
        for w in frags.windows(2) {
            let end = w[0].segs().last().map(|s| s.addr.0 + s.len as u64).unwrap();
            assert_eq!(w[1].segs()[0].addr.0, end);
        }
    }
}
