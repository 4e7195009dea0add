//! The simulated lock-free ring of §2.1.1 (with its TURBOchannel cost
//! accounting) against a bounded FIFO reference: a `size`-slot ring keeps
//! one slot empty to tell full from empty, so it must accept, refuse and
//! yield exactly what a queue of capacity `size - 1` does.
//!
//! Each property runs 64 seeded cases drawn with `SimRng`; a failing case
//! prints its seed, and `SimRng::new(seed)` replays it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use osiris_atm::Vci;
use osiris_board::descriptor::{DescRing, Descriptor, DESC_WORDS};
use osiris_mem::PhysAddr;
use osiris_sim::SimRng;

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

/// A bounded FIFO of `size - 1` values: what a `size`-slot ring holds.
struct Reference {
    queue: VecDeque<u32>,
    cap: usize,
}

impl Reference {
    fn new(size: u32) -> Reference {
        Reference {
            queue: VecDeque::new(),
            cap: size as usize - 1,
        }
    }

    fn push(&mut self, v: u32) -> bool {
        let ok = self.queue.len() < self.cap;
        if ok {
            self.queue.push_back(v);
        }
        ok
    }
}

/// The DES ring and the bounded reference accept/refuse the exact same
/// operation sequences and yield the same values.
#[test]
fn both_rings_agree() {
    for_each_case(0xB000, |rng| {
        let size = rng.gen_range_inclusive(2, 31) as u32;
        let ops = rng.gen_range_inclusive(1, 299);
        let mut des = DescRing::new(size);
        let mut reference = Reference::new(size);
        let mut n = 0u32;
        for _ in 0..ops {
            if rng.gen_bool(0.5) {
                let des_ok = des
                    .push(Descriptor::tx(PhysAddr(n as u64), n, Vci(1), false))
                    .is_ok();
                assert_eq!(des_ok, reference.push(n), "full disagreement at {n}");
                n += 1;
            } else {
                let a = des.pop().map(|(d, _)| d.len);
                let b = reference.queue.pop_front();
                assert_eq!(a, b, "pop disagreement");
            }
            assert_eq!(des.len() as usize, reference.queue.len());
        }
    });
}

/// Ring cost accounting is constant per operation: the §2.1 goal of
/// "minimizing the number of load and store operations" is a fixed,
/// verifiable budget (2 loads + 4 stores per producer cycle; 4 loads +
/// 1 store per consumer cycle).
#[test]
fn ring_costs_are_constant() {
    for_each_case(0xB100, |rng| {
        let count = rng.gen_range_inclusive(1, 59) as u32;
        let mut ring = DescRing::new(64);
        let mut loads = 0;
        let mut stores = 0;
        for i in 0..count {
            let (_, c) = ring.producer_check();
            loads += c.loads;
            stores += c.stores;
            let c = ring
                .push(Descriptor::tx(PhysAddr(0), i, Vci(1), true))
                .unwrap();
            loads += c.loads;
            stores += c.stores;
        }
        assert_eq!(loads, count as u64);
        assert_eq!(stores, count as u64 * (DESC_WORDS + 1));
        let mut loads = 0;
        let mut stores = 0;
        for _ in 0..count {
            let (_, c) = ring.consumer_check();
            loads += c.loads;
            stores += c.stores;
            let (_, c) = ring.pop().unwrap();
            loads += c.loads;
            stores += c.stores;
        }
        assert_eq!(loads, count as u64 * (1 + DESC_WORDS));
        assert_eq!(stores, count as u64);
    });
}

#[test]
fn wraparound_equivalence_long_run() {
    // Deterministic long interleaving crossing the wrap point many times.
    let mut des = DescRing::new(5);
    let mut reference = Reference::new(5);
    let mut next = 0u32;
    for round in 0..1000u32 {
        let pushes = (round % 4) + 1;
        for _ in 0..pushes {
            let a = des
                .push(Descriptor::tx(PhysAddr(0), next, Vci(1), false))
                .is_ok();
            assert_eq!(a, reference.push(next));
            if a {
                next += 1;
            }
        }
        let pops = (round % 3) + 1;
        for _ in 0..pops {
            assert_eq!(des.pop().map(|(d, _)| d.len), reference.queue.pop_front());
        }
    }
}
