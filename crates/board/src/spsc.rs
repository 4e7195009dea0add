//! The §2.1.1 queue discipline on real hardware.
//!
//! The paper's claim: a one-reader-one-writer ring is correct given only
//! atomic 32-bit loads and stores, because the head pointer has a single
//! writer (the producer) and the tail a single writer (the consumer). On a
//! modern memory model "plain atomic store" must be release and "plain
//! atomic load" acquire for the payload to be visible; this module encodes
//! the discipline with exactly those orderings, makes "single writer" a
//! property of its types (one [`Producer`], one [`Consumer`]), and the
//! test suite hammers it from two real threads (see `tests/` at the
//! workspace root for the cross-thread stress test).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A fixed-capacity single-producer single-consumer ring of `T` with
/// `size` slots (capacity `size - 1`), split into its two ends.
///
/// The discipline is in the types: neither end is `Clone`, and `push` and
/// `pop` take `&mut self`, so there is exactly one producer and one
/// consumer however the ends are shared. Two threads pushing through one
/// producer do not compile:
///
/// ```compile_fail
/// let (mut tx, _rx) = osiris_board::spsc::ring::<u32>(4);
/// std::thread::scope(|s| {
///     s.spawn(|| tx.push(1));
///     s.spawn(|| tx.push(2));
/// });
/// ```
///
/// # Panics
/// Panics if `size < 2`.
pub fn ring<T>(size: u32) -> (Producer<T>, Consumer<T>) {
    assert!(size >= 2);
    let slots: Vec<UnsafeCell<Option<T>>> = (0..size).map(|_| UnsafeCell::new(None)).collect();
    let ring = Arc::new(SpscRing {
        slots: slots.into_boxed_slice(),
        head: AtomicU32::new(0),
        tail: AtomicU32::new(0),
        size,
    });
    (
        Producer {
            ring: Arc::clone(&ring),
        },
        Consumer { ring },
    )
}

/// The slots and indices both ends share. Only [`Producer::push`] writes
/// `head` and fills slots; only [`Consumer::pop`] writes `tail` and
/// empties them.
struct SpscRing<T> {
    slots: Box<[UnsafeCell<Option<T>>]>,
    head: AtomicU32,
    tail: AtomicU32,
    size: u32,
}

// SAFETY: the ring owns its slots and the `T`s in them; moving it to
// another thread moves those `T`s, which `T: Send` allows. The atomics
// and `size` are plain data.
unsafe impl<T: Send> Send for SpscRing<T> {}
// SAFETY: the ring is shared only by one `Producer` and one `Consumer`
// (neither is `Clone`, and `push`/`pop` take `&mut self`), so at most one
// thread fills slots and at most one empties them. That partitions slot
// access: the producer only writes the slot at `head` when it is empty
// (the consumer has advanced past it), the consumer only takes the slot
// at `tail` when it is full. The acquire/release pairs on head/tail order
// the payload accesses. A `T` crosses threads by value (written by one,
// taken by the other), never by shared reference, so `T: Send` suffices.
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// Snapshot of the occupancy (approximate under concurrency).
    fn len(&self) -> u32 {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        (head + self.size - tail) % self.size
    }
}

/// The one writing end of a [`ring`].
pub struct Producer<T> {
    ring: Arc<SpscRing<T>>,
}

impl<T> Producer<T> {
    /// Attempts to enqueue. Returns the value back if the ring is full.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let ring = &*self.ring;
        // The producer owns `head`; a relaxed read of our own variable is
        // fine. The `tail` load is acquire so we observe the consumer's
        // slot release before reusing it.
        let head = ring.head.load(Ordering::Relaxed);
        let tail = ring.tail.load(Ordering::Acquire);
        if (head + 1) % ring.size == tail {
            return Err(value); // full
        }
        // SAFETY: `&mut self` on the only producer — this slot is empty
        // and outside the consumer's visible window until the release
        // store below.
        unsafe { *ring.slots[head as usize].get() = Some(value) };
        ring.head.store((head + 1) % ring.size, Ordering::Release);
        Ok(())
    }
}

/// The one reading end of a [`ring`].
pub struct Consumer<T> {
    ring: Arc<SpscRing<T>>,
}

impl<T> Consumer<T> {
    /// Attempts to dequeue.
    pub fn pop(&mut self) -> Option<T> {
        let ring = &*self.ring;
        let tail = ring.tail.load(Ordering::Relaxed);
        let head = ring.head.load(Ordering::Acquire);
        if head == tail {
            return None; // empty
        }
        // SAFETY: `&mut self` on the only consumer — the producer released
        // this slot with the head store we just acquired, and will not
        // touch it again until our tail store below.
        let value = unsafe { (*ring.slots[tail as usize].get()).take() };
        ring.tail.store((tail + 1) % ring.size, Ordering::Release);
        Some(value.expect("occupied slot in [tail, head)"))
    }

    /// Snapshot of the occupancy (approximate under concurrency).
    pub fn len(&self) -> u32 {
        self.ring.len()
    }

    /// True if a snapshot sees no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_fifo() {
        let (mut tx, mut rx) = ring(4);
        assert!(tx.push(1).is_ok());
        assert!(tx.push(2).is_ok());
        assert!(tx.push(3).is_ok());
        assert_eq!(tx.push(4), Err(4), "capacity is size-1");
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        assert!(tx.push(4).is_ok());
        assert_eq!(rx.pop(), Some(3));
        assert_eq!(rx.pop(), Some(4));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn two_thread_stress_preserves_fifo_and_loses_nothing() {
        const N: u64 = 10_000;
        let (mut tx, mut rx) = ring::<u64>(64);
        let producer = std::thread::spawn(move || {
            let mut i = 0u64;
            while i < N {
                if tx.push(i).is_ok() {
                    i += 1;
                } else {
                    // One yield per failed attempt: on a single-core
                    // host a pure spin loop starves the peer thread.
                    std::thread::yield_now();
                }
            }
        });
        let consumer = std::thread::spawn(move || {
            let mut expected = 0u64;
            while expected < N {
                match rx.pop() {
                    Some(v) => {
                        assert_eq!(v, expected, "FIFO violation");
                        expected += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
            rx
        });
        producer.join().unwrap();
        assert!(consumer.join().unwrap().is_empty());
    }

    #[test]
    fn payload_visibility_with_boxed_values() {
        // Heap payloads catch missing release/acquire pairs under tools
        // like Miri; under normal runs this is a smoke test.
        const N: u64 = 10_000;
        let (mut tx, mut rx) = ring::<Box<u64>>(8);
        let producer = std::thread::spawn(move || {
            let mut i = 0u64;
            while i < N {
                if tx.push(Box::new(i * 3)).is_ok() {
                    i += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
        let mut seen = 0u64;
        while seen < N {
            if let Some(b) = rx.pop() {
                assert_eq!(*b, seen * 3);
                seen += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
    }
}
