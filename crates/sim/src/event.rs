//! Time-ordered, FIFO-stable event queue: a monotone radix heap
//! (Ahuja, Mehlhorn, Orlin and Tarjan, "Faster algorithms for the
//! shortest path problem", JACM 1990).
//!
//! A simulation never schedules before the instant it last dispatched
//! (`Simulation::step` asserts causality on every pop), so the queue
//! keeps an anchor `last` — the time of the last pop — and files each
//! pending entry by the highest bit in which its time differs from
//! `last`: bucket `b` holds the times `t > last` whose highest set bit
//! of `t ^ last` is `b`, and a FIFO holds the entries at exactly
//! `last`. Every time in bucket `b` is below every time in bucket
//! `b + 1`, so the earliest pending entry is in the FIFO or else in the
//! lowest non-empty bucket, found from a `u64` occupancy mask. Push is
//! one `leading_zeros` and a `Vec::push`; pop takes the FIFO's front.
//! When the FIFO is empty, pop re-anchors `last` at the lowest non-empty
//! bucket's minimum and redistributes that bucket. Its entries share
//! every bit above `b` with the new anchor as well, so each lands
//! strictly below `b`, and no other bucket moves: an entry is
//! redistributed at most 64 times over its life.
//!
//! **FIFO within an instant without a sequence number.** Entries with
//! equal times always share a bucket (the bucket is a function of the
//! time and the anchor). Buckets only ever receive appends, and a
//! redistribution walks its bucket in order into the FIFO and the lower
//! buckets, all of them empty, so equal-time entries keep their push
//! order all the way into the FIFO. The pop sequence is
//! therefore exactly the `(time, push order)` order — the total order
//! every model in the workspace leans on: a DMA completion and a cell
//! arrival landing on the same picosecond always resolve the same way.
//! The `queue_equivalence` integration test holds the queue to a
//! `(time, seq)` binary-heap reference pop by pop.
//!
//! A push below `last` is legal on a standalone queue (a reference
//! dispatch loop that stages each dispatch's pushes through one sees
//! one after every far-future push). On an empty queue it only re-anchors `last`; on a non-empty
//! one it re-files every entry against the new anchor, which keeps both
//! properties above.
//!
//! Entries are stored inline, `(time, event)`, with no sequence number.
//! A pending set that sweeps down through the buckets would leave each
//! bucket it crossed holding storage for all of it, so a drained bucket
//! hands large storage back to the allocator when keeping it would
//! leave the buckets holding more than twice the pending high water.

use std::collections::VecDeque;

use crate::obs::{Counter, Gauge, Probe};
use crate::time::SimTime;

/// Bucket count: one per bit of a picosecond timestamp.
const BUCKETS: usize = 64;
/// Drained bucket storage below this many entries is always kept;
/// larger storage is weighed against the retention cap first.
const RETAIN_CHECK: usize = 1024;

/// A priority queue of `(SimTime, E)` pairs, earliest first, FIFO within a
/// single instant.
pub struct EventQueue<E> {
    /// The entries stamped exactly `last`, in push order.
    current: VecDeque<E>,
    /// `buckets[b]`: the entries whose time first differs from `last`
    /// at bit `b`, in push order.
    buckets: [Vec<(u64, E)>; BUCKETS],
    /// Earliest time in each bucket (`u64::MAX` while it is empty).
    mins: [u64; BUCKETS],
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    occupied: u64,
    /// The anchor, in picoseconds: no pending entry is earlier.
    last: u64,
    len: usize,
    /// Lifetime push count; mirrored to `<scope>.events.scheduled` once
    /// a probe is attached.
    scheduled: Counter,
    /// Most entries ever pending at once (mirrored to
    /// `queue.pending_high_water`).
    pending_hw: usize,
    high_water: Gauge,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            current: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            mins: [u64::MAX; BUCKETS],
            occupied: 0,
            last: 0,
            len: 0,
            scheduled: Counter::detached(),
            pending_hw: 0,
            high_water: Gauge::default(),
        }
    }

    /// Publishes the lifetime push count as `<scope>.events.scheduled` in
    /// `probe`'s registry. Pushes made before attaching are carried over,
    /// so the counter always equals [`EventQueue::total_pushed`].
    ///
    /// The most entries ever pending at once rides along as the
    /// `<scope>.queue.pending_high_water` gauge. It is a diagnostic of
    /// the engine, not a result: a reference loop that stages through
    /// the queue sees another pending set, so equivalence comparisons
    /// strip `<scope>.queue.*` before byte-comparing.
    pub fn attach_probe(&mut self, probe: &Probe) {
        let pushed = self.scheduled.get();
        self.scheduled = probe.scoped("events").counter("scheduled");
        self.scheduled.add(pushed);
        self.high_water = probe.scoped("queue").gauge("pending_high_water");
        self.high_water.set(self.pending_hw as f64);
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        self.scheduled.incr();
        self.len += 1;
        if self.len > self.pending_hw {
            self.pending_hw = self.len;
            self.high_water.set(self.len as f64);
        }
        let t = at.as_ps();
        if t < self.last {
            if self.len == 1 {
                self.last = t;
            } else {
                self.rebase(t);
            }
        }
        self.file(t, event);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.current.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            let b = self.occupied.trailing_zeros() as usize;
            if self.buckets[b].len() == 1 {
                // A lone minimum needs no redistribution: re-anchoring
                // at it leaves every other bucket's index unchanged.
                let (t, event) = self.buckets[b].pop().expect("one entry");
                self.mins[b] = u64::MAX;
                self.occupied &= !(1 << b);
                self.last = t;
                self.len -= 1;
                return Some((SimTime(t), event));
            }
            self.redistribute(b);
        }
        let event = self
            .current
            .pop_front()
            .expect("redistribution fills the FIFO");
        self.len -= 1;
        Some((SimTime(self.last), event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.current.is_empty() {
            Some(SimTime(self.last))
        } else if self.occupied != 0 {
            Some(SimTime(self.mins[self.occupied.trailing_zeros() as usize]))
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever pushed (diagnostic).
    pub fn total_pushed(&self) -> u64 {
        self.scheduled.get()
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.current.clear();
        for b in &mut self.buckets {
            b.clear();
        }
        self.mins = [u64::MAX; BUCKETS];
        self.occupied = 0;
        self.len = 0;
    }

    /// Files `event` at time `t >= last`: into the FIFO at `last`, else
    /// into the bucket of the highest bit where `t` and `last` differ.
    fn file(&mut self, t: u64, event: E) {
        if t == self.last {
            self.current.push_back(event);
            return;
        }
        let b = 63 - (t ^ self.last).leading_zeros() as usize;
        self.buckets[b].push((t, event));
        self.mins[b] = self.mins[b].min(t);
        self.occupied |= 1 << b;
    }

    /// Re-anchors at the minimum of bucket `b`, the lowest non-empty
    /// one, and re-files that bucket. Its entries all land in the FIFO
    /// or in lower buckets (see the module docs), so its emptied storage
    /// is kept for reuse, unless it is large and keeping it would leave
    /// the buckets holding more than twice the pending high water.
    fn redistribute(&mut self, b: usize) {
        self.last = self.mins[b];
        self.mins[b] = u64::MAX;
        self.occupied &= !(1 << b);
        let mut moving = std::mem::take(&mut self.buckets[b]);
        for (t, event) in moving.drain(..) {
            self.file(t, event);
        }
        debug_assert!(self.buckets[b].is_empty(), "radix heap entry moved up");
        if moving.capacity() < RETAIN_CHECK
            || self.buckets.iter().map(Vec::capacity).sum::<usize>() + moving.capacity()
                <= 2 * self.pending_hw
        {
            self.buckets[b] = moving;
        }
    }

    /// Re-anchors a non-empty queue at `t`, below every pending time,
    /// and re-files every entry against it. The FIFO goes first and
    /// each bucket in its own order, so equal times keep push order.
    fn rebase(&mut self, t: u64) {
        let old = self.last;
        let current = std::mem::take(&mut self.current);
        let buckets = std::mem::replace(&mut self.buckets, std::array::from_fn(|_| Vec::new()));
        self.mins = [u64::MAX; BUCKETS];
        self.occupied = 0;
        self.last = t;
        for event in current {
            self.file(old, event);
        }
        for (time, event) in buckets.into_iter().flatten() {
            self.file(time, event);
        }
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("total_pushed", &self.total_pushed())
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_earliest_first() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(5), "b");
        q.push(SimTime::from_ns(1), "a");
        q.push(SimTime::from_ns(9), "c");
        assert_eq!(q.pop(), Some((SimTime::from_ns(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(5), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(9), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_preserve_push_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(3);
        for i in 0..1000 {
            q.push(t, i);
        }
        for i in 0..1000 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(30), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_ns(20), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn bookkeeping() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ns(1), ());
        q.push(SimTime::from_ns(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(1)));
        q.clear();
        assert!(q.is_empty());
        // total_pushed survives clear (it is a lifetime diagnostic).
        assert_eq!(q.total_pushed(), 2);
    }

    #[test]
    fn attached_probe_mirrors_total_pushed() {
        use crate::obs::Registry;
        let reg = Registry::new();
        let mut q = EventQueue::new();
        // Pushes before attaching are carried over...
        q.push(SimTime::from_ns(1), ());
        q.attach_probe(&reg.probe("engine"));
        assert_eq!(reg.snapshot().counter("engine.events.scheduled"), 1);
        // ...and later pushes keep the counter in lockstep, across clear().
        q.push(SimTime::from_ns(2), ());
        q.clear();
        q.push(SimTime::from_ns(3), ());
        assert_eq!(
            reg.snapshot().counter("engine.events.scheduled"),
            q.total_pushed()
        );
    }

    #[test]
    fn queue_pending_high_water_is_probed() {
        use crate::obs::Registry;
        // The queue registers one `engine.queue.*` key and reports its
        // real pending high water, not its current length.
        let reg = Registry::new();
        let mut q = EventQueue::new();
        q.attach_probe(&reg.probe("engine"));
        for i in 0..200u64 {
            q.push(SimTime::from_us(i % 7), i);
        }
        for _ in 0..150 {
            q.pop();
        }
        q.push(SimTime::from_us(9), 0);
        let snap = reg.snapshot();
        let queue_keys: Vec<&String> = snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .filter(|k| k.starts_with("engine.queue."))
            .collect();
        assert_eq!(queue_keys, vec!["engine.queue.pending_high_water"]);
        assert_eq!(snap.gauge("engine.queue.pending_high_water"), 200.0);
    }

    #[test]
    fn queue_internals_carry_over_at_attach() {
        use crate::obs::Registry;
        let reg = Registry::new();
        let mut q = EventQueue::new();
        for i in 0..200u64 {
            q.push(SimTime::from_us(i % 7), i);
        }
        q.clear();
        q.attach_probe(&reg.probe("engine"));
        assert_eq!(
            reg.snapshot().gauge("engine.queue.pending_high_water"),
            200.0
        );
    }

    #[test]
    fn scattered_times_survive_redistribution() {
        // Scattered times across many bit widths, drained, then a second
        // scatter far past the first anchor: the order never wavers.
        let mut q = EventQueue::new();
        for base in [0u64, 1 << 20] {
            let mut times: Vec<u64> = (0..500u64).map(|i| base + (i * 7919) % 4093).collect();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_us(t), i);
            }
            times.sort();
            for &t in &times {
                let (at, _) = q.pop().unwrap();
                assert_eq!(at, SimTime::from_us(t));
            }
            assert!(q.is_empty());
        }
    }

    #[test]
    fn retained_storage_stays_near_the_pending_high_water() {
        // Cell-train bursts far apart: each burst's entries sweep down
        // through a dozen buckets as they drain. Without the retention
        // cap every one of those buckets would keep storage for a whole
        // burst.
        let mut q = EventQueue::new();
        let burst = 50_000u64;
        for round in 0..4 {
            let start = round << 40;
            for c in 0..burst {
                q.push(SimTime(start + c * 681_000), c);
            }
            while q.pop().is_some() {}
        }
        let held: usize = q.buckets.iter().map(Vec::capacity).sum();
        assert_eq!(q.pending_hw, burst as usize);
        assert!(
            held <= 2 * q.pending_hw + BUCKETS * RETAIN_CHECK,
            "buckets hold {held} entries of storage"
        );
    }

    #[test]
    fn handles_sparse_far_future_events() {
        // A lone event far beyond the rest lands in a high bucket and
        // is found through the occupancy mask.
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(1), 0);
        q.push(SimTime::from_secs(20), 1);
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(20)));
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn pushes_below_the_anchor_stay_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(100), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        // Empty queue: the push only re-anchors.
        q.push(SimTime::from_ns(50), 1);
        q.push(SimTime::from_ns(70), 2);
        q.push(SimTime::from_ns(70), 3);
        // Non-empty queue: every entry is re-filed below 50 ns.
        q.push(SimTime::from_ns(10), 4);
        q.push(SimTime::from_ns(70), 5);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let ns = |n| SimTime::from_ns(n);
        assert_eq!(
            order,
            vec![
                (ns(10), 4),
                (ns(50), 1),
                (ns(70), 2),
                (ns(70), 3),
                (ns(70), 5)
            ]
        );
    }

    #[test]
    fn backends_pop_identical_sequences_under_seeded_schedules() {
        use crate::rng::SimRng;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // The radix heap against a `(time, seq)` binary-heap reference.
        for seed in [1u64, 42, 1994] {
            let mut rng = SimRng::new(seed);
            let mut heap = BinaryHeap::new();
            let mut q = EventQueue::new();
            let mut now = 0u64;
            for i in 0..5000u64 {
                // Mostly forward pushes with clustered instants, plus
                // interleaved pops, like a real simulation schedule.
                let at = now + rng.gen_range(2_000_000);
                heap.push(Reverse((SimTime(at), i)));
                q.push(SimTime(at), i);
                if rng.gen_bool(0.4) {
                    let a = heap.pop().map(|Reverse(e)| e);
                    assert_eq!(a, q.pop());
                    if let Some((t, _)) = a {
                        now = now.max(t.as_ps());
                    }
                }
            }
            while let Some(Reverse(e)) = heap.pop() {
                assert_eq!(Some(e), q.pop());
            }
            assert_eq!(q.pop(), None);
        }
    }
}
