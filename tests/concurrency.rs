//! Real-thread validation of the §2.1.1 queue discipline.
//!
//! The paper's claim: a one-reader-one-writer ring needs only atomic
//! 32-bit loads and stores. On a modern memory model that means one
//! release/acquire pair per side; `spsc::ring` encodes exactly that, and
//! these tests hammer it from a producer and a consumer thread.
//!
//! Each property runs 64 seeded cases drawn with `SimRng` (ring size,
//! item count, burst shape); a failing case prints its seed, and
//! `SimRng::new(seed)` replays its parameters. The thread interleaving
//! itself is up to the host scheduler.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::thread;

use osiris::board::spsc::{ring, Consumer, Producer};
use osiris::sim::SimRng;

/// Cases per property.
const CASES: u64 = 64;

/// Runs `property` on `CASES` generators seeded `base`, `base + 1`, …,
/// naming the seed of the first case that panics.
fn for_each_case(base: u64, property: impl Fn(&mut SimRng)) {
    for seed in base..base + CASES {
        if let Err(e) = catch_unwind(AssertUnwindSafe(|| property(&mut SimRng::new(seed)))) {
            eprintln!("property failed on seed {seed:#x}");
            resume_unwind(e);
        }
    }
}

/// A ring size: half the cases a tiny ring (every push meets the wrap
/// and the full check), the rest anything up to 1024 slots.
fn ring_size(rng: &mut SimRng) -> u32 {
    if rng.gen_bool(0.5) {
        rng.gen_range_inclusive(2, 5) as u32
    } else {
        rng.gen_range_inclusive(2, 1024) as u32
    }
}

/// Pushes `items` in order from one thread, spinning while the ring is
/// full.
fn produce<T>(tx: &mut Producer<T>, items: impl Iterator<Item = T>) {
    for mut item in items {
        while let Err(back) = tx.push(item) {
            item = back;
            thread::yield_now();
        }
    }
}

/// Pops `n` values on one thread, spinning while the ring is empty. The
/// caller checks them after both threads joined: a consumer that
/// panicked mid-run would leave the producer spinning on a full ring.
fn consume<T>(rx: &mut Consumer<T>, n: u64) -> Vec<T> {
    let mut out = Vec::with_capacity(n as usize);
    while (out.len() as u64) < n {
        match rx.pop() {
            Some(v) => out.push(v),
            None => thread::yield_now(),
        }
    }
    out
}

#[test]
fn spsc_ring_is_linearizable_across_threads() {
    for_each_case(0x5C00, |rng| {
        let size = ring_size(rng);
        let n = rng.gen_range_inclusive(1, 4_000);
        let (mut tx, mut rx) = ring::<u64>(size);
        let got = thread::scope(|s| {
            s.spawn(|| produce(&mut tx, 0..n));
            s.spawn(|| consume(&mut rx, n)).join().expect("consumer")
        });
        assert!(got.into_iter().eq(0..n), "FIFO violation at size {size}");
        assert!(rx.is_empty());
    });
}

#[test]
fn spsc_ring_transfers_owned_payloads_safely() {
    // Boxed payloads: a missing release/acquire would show up as a torn
    // or dangling pointer under sanitizers; here we verify content.
    for_each_case(0x5D00, |rng| {
        let size = ring_size(rng);
        let n = rng.gen_range_inclusive(1, 2_000);
        let (mut tx, mut rx) = ring::<Box<[u8; 44]>>(size);
        let fill = |i: u64| (i % 251) as u8;
        let got = thread::scope(|s| {
            s.spawn(|| produce(&mut tx, (0..n).map(|i| Box::new([fill(i); 44]))));
            s.spawn(|| consume(&mut rx, n)).join().expect("consumer")
        });
        for (i, cell) in (0..n).zip(got) {
            assert_eq!(*cell, [fill(i); 44], "payload {i} at size {size}");
        }
        assert!(rx.is_empty());
    });
}

#[test]
fn spsc_ring_survives_bursty_producers() {
    // The producer sends in bursts and yields between them; the consumer
    // drains eagerly. The empty/full transitions (the
    // interrupt-suppression edges of §2.1.2) get exercised thousands of
    // times.
    for_each_case(0x5E00, |rng| {
        let size = ring_size(rng);
        let bursts: Vec<u64> = (0..rng.gen_range_inclusive(1, 40))
            .map(|_| rng.gen_range_inclusive(1, 2 * size as u64))
            .collect();
        let n: u64 = bursts.iter().sum();
        let (mut tx, mut rx) = ring::<u64>(size);
        let got = thread::scope(|s| {
            s.spawn(|| {
                let mut v = 0u64;
                for &burst in &bursts {
                    produce(&mut tx, v..v + burst);
                    v += burst;
                    thread::yield_now();
                }
            });
            s.spawn(|| consume(&mut rx, n)).join().expect("consumer")
        });
        assert!(got.into_iter().eq(0..n), "FIFO violation at size {size}");
        assert!(rx.is_empty());
    });
}
