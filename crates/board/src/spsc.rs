//! The §2.1.1 queue discipline on real hardware.
//!
//! The paper's claim: a one-reader-one-writer ring is correct given only
//! atomic 32-bit loads and stores, because the head pointer has a single
//! writer (the producer) and the tail a single writer (the consumer). On a
//! modern memory model "plain atomic store" must be release and "plain
//! atomic load" acquire for the payload to be visible; this module encodes
//! the discipline with exactly those orderings and the test suite hammers
//! it from two real threads (see `tests/` at the workspace root for the
//! cross-thread stress test).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};

/// A fixed-capacity single-producer single-consumer ring of `T`.
///
/// Safety contract: at most one thread calls [`SpscRing::push`]
/// (the producer) and at most one thread calls [`SpscRing::pop`]
/// (the consumer), concurrently.
pub struct SpscRing<T> {
    slots: Box<[UnsafeCell<Option<T>>]>,
    head: AtomicU32,
    tail: AtomicU32,
    size: u32,
}

// SAFETY: the ring owns its slots and the `T`s in them; moving it to
// another thread moves those `T`s, which `T: Send` allows. The atomics
// and `size` are plain data.
unsafe impl<T: Send> Send for SpscRing<T> {}
// SAFETY: the SPSC discipline (one producer thread, one consumer thread)
// partitions slot access: the producer only writes slots in
// [head, head+1) when they are empty (consumer has advanced past), the
// consumer only reads slots in [tail, tail+1) when they are full. The
// acquire/release pairs on head/tail order the payload accesses. A `T`
// crosses threads by value (written by one, taken by the other), never
// by shared reference, so `T: Send` suffices.
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// A ring with `size` slots (capacity `size - 1`).
    pub fn new(size: u32) -> Self {
        assert!(size >= 2);
        let slots: Vec<UnsafeCell<Option<T>>> = (0..size).map(|_| UnsafeCell::new(None)).collect();
        SpscRing {
            slots: slots.into_boxed_slice(),
            head: AtomicU32::new(0),
            tail: AtomicU32::new(0),
            size,
        }
    }

    /// Producer side: attempts to enqueue. Returns the value back if full.
    pub fn push(&self, value: T) -> Result<(), T> {
        // The producer owns `head`; a relaxed read of our own variable is
        // fine. The `tail` load is acquire so we observe the consumer's
        // slot release before reusing it.
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if (head + 1) % self.size == tail {
            return Err(value); // full
        }
        // SAFETY: SPSC discipline — this slot is outside the consumer's
        // visible window until the release store below.
        unsafe { *self.slots[head as usize].get() = Some(value) };
        self.head.store((head + 1) % self.size, Ordering::Release);
        Ok(())
    }

    /// Consumer side: attempts to dequeue.
    pub fn pop(&self) -> Option<T> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if head == tail {
            return None; // empty
        }
        // SAFETY: SPSC discipline — the producer released this slot with
        // the head store we just acquired.
        let value = unsafe { (*self.slots[tail as usize].get()).take() };
        self.tail.store((tail + 1) % self.size, Ordering::Release);
        Some(value.expect("occupied slot in [tail, head)"))
    }

    /// Snapshot of the occupancy (approximate under concurrency).
    pub fn len(&self) -> u32 {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        (head + self.size - tail) % self.size
    }

    /// True if a snapshot sees no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_thread_fifo() {
        let r = SpscRing::new(4);
        assert!(r.push(1).is_ok());
        assert!(r.push(2).is_ok());
        assert!(r.push(3).is_ok());
        assert_eq!(r.push(4), Err(4), "capacity is size-1");
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.pop(), Some(2));
        assert!(r.push(4).is_ok());
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(4));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn two_thread_stress_preserves_fifo_and_loses_nothing() {
        const N: u64 = 10_000;
        let ring = Arc::new(SpscRing::<u64>::new(64));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while i < N {
                    if ring.push(i).is_ok() {
                        i += 1;
                    } else {
                        // One yield per failed attempt: on a single-core
                        // host a pure spin loop starves the peer thread.
                        std::thread::yield_now();
                    }
                }
            })
        };
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut expected = 0u64;
                while expected < N {
                    match ring.pop() {
                        Some(v) => {
                            assert_eq!(v, expected, "FIFO violation");
                            expected += 1;
                        }
                        None => std::thread::yield_now(),
                    }
                }
            })
        };
        producer.join().unwrap();
        consumer.join().unwrap();
        assert!(ring.is_empty());
    }

    #[test]
    fn payload_visibility_with_boxed_values() {
        // Heap payloads catch missing release/acquire pairs under tools
        // like Miri; under normal runs this is a smoke test.
        const N: u64 = 10_000;
        let ring = Arc::new(SpscRing::<Box<u64>>::new(8));
        let r2 = Arc::clone(&ring);
        let producer = std::thread::spawn(move || {
            let mut i = 0u64;
            while i < N {
                if r2.push(Box::new(i * 3)).is_ok() {
                    i += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
        let mut seen = 0u64;
        while seen < N {
            if let Some(b) = ring.pop() {
                assert_eq!(*b, seen * 3);
                seen += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
    }
}
