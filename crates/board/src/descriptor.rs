//! Buffer descriptors and the shared queues of §2.1.1.
//!
//! The dual-port memory "guarantees atomicity of individual 32-bit load
//! and store operations only". The paper's queues exploit exactly that: a
//! one-reader-one-writer ring where **the head pointer is only modified by
//! the writer and the tail pointer only by the reader**, so no lock is
//! needed:
//!
//! ```text
//! head == tail                    → queue is empty
//! (head + 1) mod size == tail     → queue is full
//! ```
//!
//! Every operation returns its cost in 32-bit loads and stores so the
//! caller can charge the right number of (expensive) TURBOchannel accesses
//! — minimising those was design goal (1) of §2.1.
//!
//! [`LockedRing`] is the rejected alternative: the same ring guarded by the
//! board's test-and-set register. Its cost includes the lock round trips,
//! and because host and board must serialise, it creates the contention the
//! lock-free design avoids.
//!
//! # Example
//!
//! ```
//! use osiris_board::descriptor::{DescRing, Descriptor};
//! use osiris_mem::PhysAddr;
//! use osiris_atm::Vci;
//!
//! let mut ring = DescRing::new(64);
//! // Host side: one load to check, then the descriptor + head pointer.
//! let (full, check) = ring.producer_check();
//! assert!(!full);
//! assert_eq!(check.loads, 1);
//! let cost = ring.push(Descriptor::tx(PhysAddr(0x4000), 1500, Vci(9), true)).unwrap();
//! assert_eq!(cost.stores, 4); // 3 descriptor words + head pointer
//! // Board side: pop and transmit.
//! let (desc, _) = ring.pop().unwrap();
//! assert_eq!(desc.len, 1500);
//! ```

use osiris_atm::Vci;
use osiris_mem::PhysAddr;
use osiris_sim::resource::Grant;
use osiris_sim::{FifoResource, SimDuration, SimTime, TraceCtx};

/// 32-bit words per descriptor: packed address, length+flags, VCI.
pub const DESC_WORDS: u64 = 3;

/// A buffer descriptor exchanged through the dual-port memory.
///
/// Each element "describes a single buffer in main memory by its physical
/// address and length". The end-of-PDU flag lets the host pass a PDU as a
/// chain of discontiguous buffers (§2.5.2), and the VCI carries the
/// demultiplexing decision (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Descriptor {
    /// Physical address of the buffer.
    pub addr: PhysAddr,
    /// Buffer length in bytes.
    pub len: u32,
    /// Virtual circuit this buffer belongs to.
    pub vci: Vci,
    /// True on the last buffer of a PDU.
    pub eop: bool,
    /// Receive direction only: set on the EOP descriptor when the PDU
    /// failed its AAL CRC (the host must discard and recycle the buffers).
    pub err: bool,
    /// Simulation-side causal identity of the PDU this buffer belongs to
    /// (per-PDU tracing metadata; not part of the 3 descriptor words and
    /// never charged as a load or store).
    pub ctx: Option<TraceCtx>,
}

impl Descriptor {
    /// A transmit-direction descriptor (no error flag).
    pub fn tx(addr: PhysAddr, len: u32, vci: Vci, eop: bool) -> Self {
        Descriptor {
            addr,
            len,
            vci,
            eop,
            err: false,
            ctx: None,
        }
    }

    /// The same descriptor tagged with a PDU's trace identity.
    pub fn with_ctx(mut self, ctx: Option<TraceCtx>) -> Self {
        self.ctx = ctx;
        self
    }
}

/// Error: push attempted on a full ring — a protocol violation by the
/// producer, which must check [`DescRing::producer_check`] first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingFull;

impl std::fmt::Display for RingFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("descriptor ring full")
    }
}

impl std::error::Error for RingFull {}

/// Loads and stores one queue operation performed (charged to the
/// accessing side — the host pays TURBOchannel prices, the board pays
/// local dual-port prices).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingCosts {
    /// 32-bit loads.
    pub loads: u64,
    /// 32-bit stores.
    pub stores: u64,
}

impl RingCosts {
    fn new(loads: u64, stores: u64) -> Self {
        RingCosts { loads, stores }
    }
}

/// The lock-free one-reader-one-writer descriptor ring.
#[derive(Debug, Clone)]
pub struct DescRing {
    slots: Vec<Option<Descriptor>>,
    head: u32,
    tail: u32,
    size: u32,
}

impl DescRing {
    /// A ring with `size` slots; one slot is sacrificed to distinguish
    /// full from empty, so capacity is `size - 1`.
    pub fn new(size: u32) -> Self {
        assert!(size >= 2, "ring needs at least 2 slots");
        DescRing {
            slots: vec![None; size as usize],
            head: 0,
            tail: 0,
            size,
        }
    }

    /// Usable capacity (`size - 1`).
    pub fn capacity(&self) -> u32 {
        self.size - 1
    }

    /// Entries currently queued.
    pub fn len(&self) -> u32 {
        (self.head + self.size - self.tail) % self.size
    }

    /// `head == tail`.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// `(head + 1) mod size == tail`.
    pub fn is_full(&self) -> bool {
        (self.head + 1) % self.size == self.tail
    }

    /// True once the queue has drained to half capacity or less — the
    /// level at which the transmit processor wakes a blocked host (§2.1.2).
    pub fn at_most_half_full(&self) -> bool {
        self.len() <= self.capacity() / 2
    }

    /// Producer: the writer's fullness check (one load of the tail; the
    /// head is the writer's own variable and costs nothing to read).
    pub fn producer_check(&self) -> (bool, RingCosts) {
        (self.is_full(), RingCosts::new(1, 0))
    }

    /// Producer: queue a descriptor and advance the head.
    ///
    /// Returns the store/load cost, or `Err` if full (the caller should
    /// have checked; a full push is a protocol violation by the writer).
    pub fn push(&mut self, d: Descriptor) -> Result<RingCosts, RingFull> {
        if self.is_full() {
            return Err(RingFull);
        }
        self.slots[self.head as usize] = Some(d);
        self.head = (self.head + 1) % self.size;
        // Descriptor words + the head-pointer store. The fullness load is
        // charged by `producer_check`.
        Ok(RingCosts::new(0, DESC_WORDS + 1))
    }

    /// Consumer: the reader's emptiness check (one load of the head).
    pub fn consumer_check(&self) -> (bool, RingCosts) {
        (self.is_empty(), RingCosts::new(1, 0))
    }

    /// Consumer: dequeue the descriptor at the tail and advance it.
    pub fn pop(&mut self) -> Option<(Descriptor, RingCosts)> {
        if self.is_empty() {
            return None;
        }
        let d = self.slots[self.tail as usize]
            .take()
            .expect("slot must be occupied");
        self.tail = (self.tail + 1) % self.size;
        // Descriptor words loaded + the tail-pointer store.
        Some((d, RingCosts::new(DESC_WORDS, 1)))
    }

    /// Consumer peek without consuming (used by the transmit processor to
    /// look at a chain's next buffer).
    pub fn peek(&self) -> Option<&Descriptor> {
        if self.is_empty() {
            None
        } else {
            self.slots[self.tail as usize].as_ref()
        }
    }

    /// Iterates over queued descriptors, oldest (tail) first. Used by the
    /// board side, which can scan its local dual-port memory cheaply.
    pub fn iter_live(&self) -> impl Iterator<Item = &Descriptor> + '_ {
        (0..self.len()).map(move |i| {
            let idx = (self.tail + i) % self.size;
            self.slots[idx as usize]
                .as_ref()
                .expect("live slot occupied")
        })
    }
}

/// The rejected design: the same ring guarded by the board's test-and-set
/// register. Host and board must serialise on the lock, so every operation
/// pays lock round trips *and* possibly waits out the other side — the
/// contention §2.1.1 set out to avoid.
#[derive(Debug)]
pub struct LockedRing {
    ring: DescRing,
    lock: FifoResource,
    /// Extra loads for acquiring the test-and-set register (≥ 1; more
    /// under contention) and one store to release.
    pub lock_acquire_loads: u64,
}

impl LockedRing {
    /// A locked ring with `size` slots.
    pub fn new(size: u32) -> Self {
        LockedRing {
            ring: DescRing::new(size),
            lock: FifoResource::default(),
            lock_acquire_loads: 1,
        }
    }

    /// Performs `op` under the lock. `hold` is how long the critical
    /// section occupies the lock; the returned grant tells the caller when
    /// it actually ran (queueing behind the other side included), and the
    /// extra lock costs are added to the operation's own.
    pub fn with_lock<T>(
        &mut self,
        now: SimTime,
        hold: SimDuration,
        op: impl FnOnce(&mut DescRing) -> T,
    ) -> (T, Grant, RingCosts) {
        let grant = self.lock.acquire(now, hold);
        let out = op(&mut self.ring);
        (out, grant, RingCosts::new(self.lock_acquire_loads, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(len: u32) -> Descriptor {
        Descriptor::tx(PhysAddr(0x1000), len, Vci(5), true)
    }

    #[test]
    fn empty_and_full_conditions() {
        let mut r = DescRing::new(4);
        assert!(r.is_empty());
        assert!(!r.is_full());
        assert_eq!(r.capacity(), 3);
        for i in 0..3 {
            r.push(d(i)).unwrap();
        }
        assert!(r.is_full());
        assert_eq!(r.len(), 3);
        assert!(r.push(d(9)).is_err());
    }

    #[test]
    fn fifo_order() {
        let mut r = DescRing::new(8);
        for i in 0..5 {
            r.push(d(i)).unwrap();
        }
        for i in 0..5 {
            let (desc, _) = r.pop().unwrap();
            assert_eq!(desc.len, i);
        }
        assert!(r.pop().is_none());
    }

    #[test]
    fn wraparound_many_times() {
        let mut r = DescRing::new(4);
        for round in 0..100u32 {
            r.push(d(round)).unwrap();
            r.push(d(round + 1000)).unwrap();
            assert_eq!(r.pop().unwrap().0.len, round);
            assert_eq!(r.pop().unwrap().0.len, round + 1000);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn cost_accounting_minimises_loads_and_stores() {
        let mut r = DescRing::new(8);
        let (_, check) = r.producer_check();
        assert_eq!(check, RingCosts::new(1, 0));
        let push = r.push(d(1)).unwrap();
        // 3 descriptor words + head pointer = 4 stores, no loads.
        assert_eq!(push, RingCosts::new(0, 4));
        let (_, pop) = r.pop().unwrap();
        assert_eq!(pop, RingCosts::new(3, 1));
    }

    #[test]
    fn half_full_threshold() {
        let mut r = DescRing::new(9); // capacity 8
        assert!(r.at_most_half_full());
        for i in 0..8 {
            r.push(d(i)).unwrap();
        }
        assert!(!r.at_most_half_full());
        for _ in 0..4 {
            r.pop().unwrap();
        }
        assert!(r.at_most_half_full(), "4 of 8 left = half");
    }

    #[test]
    fn peek_does_not_consume() {
        let mut r = DescRing::new(4);
        r.push(d(42)).unwrap();
        assert_eq!(r.peek().unwrap().len, 42);
        assert_eq!(r.len(), 1);
        assert_eq!(r.pop().unwrap().0.len, 42);
    }

    #[test]
    fn locked_ring_serialises_sides() {
        let mut r = LockedRing::new(8);
        let hold = SimDuration::from_us(2);
        // "Host" grabs the lock at t=0 for 2 us.
        let (_, g1, c1) = r.with_lock(SimTime::ZERO, hold, |ring| ring.push(d(1)).unwrap());
        assert_eq!(g1.start, SimTime::ZERO);
        assert_eq!(c1.loads, 1);
        assert_eq!(c1.stores, 1);
        // "Board" arrives at t=1 us and must wait until 2 us.
        let (got, g2, _) = r.with_lock(SimTime::from_us(1), hold, |ring| ring.pop());
        assert_eq!(g2.start, SimTime::from_us(2));
        assert!(got.is_some());
    }
}
