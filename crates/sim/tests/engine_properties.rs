//! Property tests for the DES kernel itself: the ordering guarantees
//! every other crate builds on.
//!
//! Each property runs 64 seeded cases drawn with `SimRng`; a failing case
//! prints its seed, and `SimRng::new(seed)` replays it.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use osiris_sim::{EventQueue, FifoResource, Model, SimDuration, SimRng, SimTime, Simulation};

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

/// `lo..=hi` values, each in `0..bound`.
fn values(rng: &mut SimRng, lo: u64, hi: u64, bound: u64) -> Vec<u64> {
    let n = rng.gen_range_inclusive(lo, hi);
    (0..n).map(|_| rng.gen_range(bound)).collect()
}

struct Collector {
    seen: Vec<(SimTime, u64)>,
}

impl Model for Collector {
    type Event = u64;
    fn handle(&mut self, now: SimTime, ev: u64, _q: &mut EventQueue<u64>) {
        self.seen.push((now, ev));
    }
}

/// Dispatch order is total: by time, then by push order.
#[test]
fn dispatch_is_time_then_fifo() {
    for_each_case(0xE000, |rng| {
        let times = values(rng, 1, 199, 1000);
        let mut sim = Simulation::new(Collector { seen: Vec::new() });
        for (i, &t) in times.iter().enumerate() {
            sim.queue.push(SimTime::from_ns(t), i as u64);
        }
        sim.run_to_completion();
        // Expected: stable sort of (time, index).
        let mut expect: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u64))
            .collect();
        expect.sort_by_key(|&(t, i)| (t, i));
        let got: Vec<(u64, u64)> = sim
            .model
            .seen
            .iter()
            .map(|&(t, e)| (t.as_ps() / 1000, e))
            .collect();
        assert_eq!(got, expect);
    });
}

/// A FIFO resource never overlaps grants and never idles while work is
/// queued contiguously.
#[test]
fn fifo_resource_grants_are_disjoint_and_ordered() {
    for_each_case(0xE100, |rng| {
        let n = rng.gen_range_inclusive(1, 99);
        // Request times must be non-decreasing (as the DES guarantees).
        let mut reqs: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(500), rng.gen_range_inclusive(1, 49)))
            .collect();
        reqs.sort_by_key(|&(t, _)| t);
        let mut r = FifoResource::default();
        let mut last_finish = SimTime::ZERO;
        let mut total_busy = SimDuration::ZERO;
        for &(t, d) in &reqs {
            let at = SimTime::from_us(t);
            let g = r.acquire(at, SimDuration::from_us(d));
            assert!(g.start >= last_finish, "grants must not overlap");
            assert!(g.start >= at, "no service before request");
            assert_eq!(g.finish.since(g.start), SimDuration::from_us(d));
            // No idle gap if the request arrived before the previous finish.
            if at <= last_finish {
                assert_eq!(g.start, last_finish, "work-conserving");
            }
            last_finish = g.finish;
            total_busy += SimDuration::from_us(d);
        }
        assert_eq!(r.total_busy(), total_busy);
        assert_eq!(r.grants(), reqs.len() as u64);
    });
}

/// `run_until` never dispatches past the deadline and leaves the rest.
#[test]
fn run_until_partitions_cleanly() {
    for_each_case(0xE200, |rng| {
        let times = values(rng, 1, 49, 100);
        let deadline = rng.gen_range(100);
        let mut sim = Simulation::new(Collector { seen: Vec::new() });
        for (i, &t) in times.iter().enumerate() {
            sim.queue.push(SimTime::from_ns(t), i as u64);
        }
        sim.run_until(SimTime::from_ns(deadline));
        let dispatched = sim.model.seen.len();
        assert_eq!(dispatched + sim.queue.len(), times.len());
        assert!(sim
            .model
            .seen
            .iter()
            .all(|&(t, _)| t <= SimTime::from_ns(deadline)));
        assert_eq!(dispatched, times.iter().filter(|&&t| t <= deadline).count());
    });
}
