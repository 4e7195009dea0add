//! Time-ordered, FIFO-stable event queue.
//!
//! Two interchangeable backends sit behind one API, both keyed by
//! `(time, sequence)` so events scheduled for the same instant are
//! dispatched in the order they were pushed:
//!
//! * [`QueueKind::Heap`] — a binary heap: O(log n) push/pop, the
//!   original engine, kept as the reference the equivalence tests and
//!   the engine bench compare the calendar against.
//! * [`QueueKind::Calendar`] — a bucketed calendar queue (Brown's
//!   "Calendar Queues", CACM 1988): events hash into time-sliced
//!   buckets like appointments onto the days of a desk calendar, and
//!   the pop scan walks forward from the last-popped day. Push and pop
//!   are O(1) amortised once the bucket width matches the event
//!   density, which is what makes million-event runs cheap. This is
//!   [`QueueKind::default`], so [`EventQueue::new`] and `SimConfig`
//!   agree.
//!
//! The `(time, seq)` key is a *total* order, so any correct priority
//! queue over it yields the same pop sequence: the backend choice can
//! never change simulation results, only how fast they arrive. The
//! `queue_equivalence` integration test drives both backends through
//! identical seeded schedules and asserts the sequences match; the
//! bench-snapshot gates assert the stronger end-to-end form (same
//! snapshots bit-for-bit).
//!
//! This stability is what makes whole-system simulations reproducible —
//! e.g. a DMA-completion and a cell-arrival landing on the same
//! picosecond always resolve the same way.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::obs::{Counter, Gauge, Probe};
use crate::time::SimTime;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The total dispatch order.
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other.key().cmp(&self.key())
    }
}

/// Which backing store an [`EventQueue`] uses. Both produce identical
/// pop sequences (the key is a total order); they differ only in cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Binary heap: O(log n) push/pop. The original engine.
    Heap,
    /// Bucketed calendar queue: O(1) amortised push/pop. The default
    /// for scenario runs (`SimConfig::queue`).
    #[default]
    Calendar,
}

/// Smallest bucket count the calendar ever uses.
const MIN_BUCKETS: usize = 16;
/// Initial bucket width: 256 ns of virtual time per bucket (cell times
/// on a 622 Mbps link are ~680 ns, so fresh queues start near the
/// density they will see). Resizes re-derive it from the live spread.
const INITIAL_WIDTH_PS: u64 = 256_000;
/// Floor for the derived bucket width (1 ns): a degenerate spread must
/// not drive the width to zero.
const MIN_WIDTH_PS: u64 = 1_000;

/// The calendar backend: `buckets[day % nbuckets]` holds every pending
/// entry whose "day" (`time / width`) hashes there; days alias
/// year-periodically, so each scan filters for the day it is visiting.
///
/// Invariant: `cursor_day` never exceeds the day of the earliest
/// pending entry (pop re-anchors it to the popped minimum; push rewinds
/// it for out-of-order arrivals), so the forward year-scan always meets
/// the earliest day first.
struct Calendar<E> {
    buckets: Vec<Vec<Entry<E>>>,
    /// Picoseconds of virtual time each bucket spans.
    width_ps: u64,
    /// Absolute day (`time / width`) the pop scan starts from.
    cursor_day: u64,
    len: usize,
    /// Lifetime grow+shrink rebuilds (mirrored to `queue.resizes`).
    resizes_total: u64,
    /// Most entries any bucket ever held after a push (mirrored to
    /// `queue.bucket_high_water`) — the calendar's load-balance health:
    /// a high value means the width no longer matches event density.
    bucket_hw: usize,
    resizes: Counter,
    high_water: Gauge,
}

impl<E> Calendar<E> {
    fn new() -> Self {
        Calendar {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width_ps: INITIAL_WIDTH_PS,
            cursor_day: 0,
            len: 0,
            resizes_total: 0,
            bucket_hw: 0,
            resizes: Counter::detached(),
            high_water: Gauge::default(),
        }
    }

    fn day_of(&self, t: SimTime) -> u64 {
        t.as_ps() / self.width_ps
    }

    fn push(&mut self, e: Entry<E>) {
        let day = self.day_of(e.time);
        // An entry landing before the scan cursor (legal for standalone
        // queues; simulations never rewind) drags the cursor back so
        // the next scan still meets the earliest day first.
        if day < self.cursor_day {
            self.cursor_day = day;
        }
        let b = (day % self.buckets.len() as u64) as usize;
        self.buckets[b].push(e);
        self.len += 1;
        let occ = self.buckets[b].len();
        if occ > self.bucket_hw {
            self.bucket_hw = occ;
            self.high_water.set(occ as f64);
        }
        if self.len > 2 * self.buckets.len() {
            self.resize(self.buckets.len() * 2);
        }
    }

    /// `(bucket, index)` of the earliest entry by `(time, seq)`.
    ///
    /// Walks one calendar year forward from the cursor — the common
    /// case finds the next event within a few days — then falls back to
    /// a global scan when the pending set is sparser than a year.
    fn find_min(&self) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        let n = self.buckets.len() as u64;
        for i in 0..n {
            let day = self.cursor_day + i;
            let b = (day % n) as usize;
            // Day membership as a half-open time range — two compares
            // per entry instead of a division.
            let day_lo = day.saturating_mul(self.width_ps);
            let day_hi = day_lo.saturating_add(self.width_ps);
            let mut best: Option<(usize, (SimTime, u64))> = None;
            for (j, e) in self.buckets[b].iter().enumerate() {
                let ps = e.time.as_ps();
                if ps < day_lo || ps >= day_hi {
                    continue; // lives in another year of this bucket
                }
                if best.is_none_or(|(_, k)| e.key() < k) {
                    best = Some((j, e.key()));
                }
            }
            if let Some((j, _)) = best {
                return Some((b, j));
            }
        }
        // Sparse tail: nothing within a year of the cursor.
        let mut best: Option<((usize, usize), (SimTime, u64))> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (j, e) in bucket.iter().enumerate() {
                if best.is_none_or(|(_, k)| e.key() < k) {
                    best = Some(((b, j), e.key()));
                }
            }
        }
        best.map(|(pos, _)| pos)
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        let (b, j) = self.find_min()?;
        let e = self.buckets[b].swap_remove(j);
        self.len -= 1;
        // The popped entry had the minimum time, so its day lower-bounds
        // every remaining day: re-anchoring the cursor here keeps the
        // scan invariant and skips the already-drained past.
        self.cursor_day = self.day_of(e.time);
        if self.buckets.len() > MIN_BUCKETS && self.len < self.buckets.len() / 2 {
            self.resize(self.buckets.len() / 2);
        }
        Some(e)
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.find_min().map(|(b, j)| self.buckets[b][j].time)
    }

    /// Rebuilds with `n` buckets and a width re-derived from the live
    /// spread of pending times, so one year keeps covering the working
    /// set as the simulation's event density drifts.
    fn resize(&mut self, n: usize) {
        self.resizes_total += 1;
        self.resizes.incr();
        let entries: Vec<Entry<E>> = self.buckets.iter_mut().flat_map(std::mem::take).collect();
        if !entries.is_empty() {
            let mut lo = u64::MAX;
            let mut hi = 0u64;
            for e in &entries {
                lo = lo.min(e.time.as_ps());
                hi = hi.max(e.time.as_ps());
            }
            self.width_ps = ((hi - lo) / entries.len() as u64).max(MIN_WIDTH_PS);
            self.cursor_day = lo / self.width_ps;
        }
        self.buckets = (0..n).map(|_| Vec::new()).collect();
        for e in entries {
            let b = ((e.time.as_ps() / self.width_ps) % n as u64) as usize;
            self.buckets[b].push(e);
        }
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.len = 0;
    }
}

enum Backend<E> {
    Heap(BinaryHeap<Entry<E>>),
    Calendar(Calendar<E>),
}

/// A priority queue of `(SimTime, E)` pairs, earliest first, FIFO within a
/// single instant.
pub struct EventQueue<E> {
    backend: Backend<E>,
    next_seq: u64,
    pushed: u64,
    scheduled: Counter,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue on the default backend ([`QueueKind::default`]).
    pub fn new() -> Self {
        Self::with_kind(QueueKind::default())
    }

    /// An empty queue on the chosen backend.
    pub fn with_kind(kind: QueueKind) -> Self {
        EventQueue {
            backend: match kind {
                QueueKind::Heap => Backend::Heap(BinaryHeap::new()),
                QueueKind::Calendar => Backend::Calendar(Calendar::new()),
            },
            next_seq: 0,
            pushed: 0,
            scheduled: Counter::detached(),
        }
    }

    /// Which backend this queue runs on.
    pub fn kind(&self) -> QueueKind {
        match self.backend {
            Backend::Heap(_) => QueueKind::Heap,
            Backend::Calendar(_) => QueueKind::Calendar,
        }
    }

    /// Publishes the lifetime push count as `<scope>.events.scheduled` in
    /// `probe`'s registry. Pushes made before attaching are carried over,
    /// so the counter always equals [`EventQueue::total_pushed`].
    ///
    /// Queue internals ride along under `<scope>.queue.*`: calendar
    /// rebuilds (`resizes`) and the bucket-occupancy high water
    /// (`bucket_high_water`). Both keys are registered for **every**
    /// backend so the snapshot key set is identical across
    /// [`QueueKind`]s — the heap has no buckets and legitimately
    /// reports zero. The values are backend diagnostics, not semantics:
    /// equivalence comparisons strip `<scope>.queue.*` before
    /// byte-comparing.
    pub fn attach_probe(&mut self, probe: &Probe) {
        self.scheduled = probe.scoped("events").counter("scheduled");
        self.scheduled.add(self.pushed);
        let qp = probe.scoped("queue");
        let resizes = qp.counter("resizes");
        let high_water = qp.gauge("bucket_high_water");
        if let Backend::Calendar(c) = &mut self.backend {
            resizes.add(c.resizes_total);
            high_water.set(c.bucket_hw as f64);
            c.resizes = resizes;
            c.high_water = high_water;
        }
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        self.scheduled.incr();
        let entry = Entry {
            time: at,
            seq,
            event,
        };
        match &mut self.backend {
            Backend::Heap(h) => h.push(entry),
            Backend::Calendar(c) => c.push(entry),
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match &mut self.backend {
            Backend::Heap(h) => h.pop(),
            Backend::Calendar(c) => c.pop(),
        }
        .map(|e| (e.time, e.event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.backend {
            Backend::Heap(h) => h.peek().map(|e| e.time),
            Backend::Calendar(c) => c.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(h) => h.len(),
            Backend::Calendar(c) => c.len,
        }
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever pushed (diagnostic).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        match &mut self.backend {
            Backend::Heap(h) => h.clear(),
            Backend::Calendar(c) => c.clear(),
        }
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("kind", &self.kind())
            .field("pending", &self.len())
            .field("total_pushed", &self.pushed)
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOTH: [QueueKind; 2] = [QueueKind::Heap, QueueKind::Calendar];

    #[test]
    fn pops_earliest_first() {
        for kind in BOTH {
            let mut q = EventQueue::with_kind(kind);
            q.push(SimTime::from_ns(5), "b");
            q.push(SimTime::from_ns(1), "a");
            q.push(SimTime::from_ns(9), "c");
            assert_eq!(q.pop(), Some((SimTime::from_ns(1), "a")));
            assert_eq!(q.pop(), Some((SimTime::from_ns(5), "b")));
            assert_eq!(q.pop(), Some((SimTime::from_ns(9), "c")));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn equal_times_preserve_push_order() {
        for kind in BOTH {
            let mut q = EventQueue::with_kind(kind);
            let t = SimTime::from_us(3);
            for i in 0..1000 {
                q.push(t, i);
            }
            for i in 0..1000 {
                assert_eq!(q.pop().unwrap().1, i);
            }
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        for kind in BOTH {
            let mut q = EventQueue::with_kind(kind);
            q.push(SimTime::from_ns(10), 1);
            q.push(SimTime::from_ns(30), 3);
            assert_eq!(q.pop().unwrap().1, 1);
            q.push(SimTime::from_ns(20), 2);
            assert_eq!(q.pop().unwrap().1, 2);
            assert_eq!(q.pop().unwrap().1, 3);
        }
    }

    #[test]
    fn bookkeeping() {
        for kind in BOTH {
            let mut q = EventQueue::with_kind(kind);
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
    }

    #[test]
    fn attached_probe_mirrors_total_pushed() {
        use crate::obs::Registry;
        for kind in BOTH {
            let reg = Registry::new();
            let mut q = EventQueue::with_kind(kind);
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
    }

    #[test]
    fn queue_internals_are_probed_on_both_backends() {
        use crate::obs::Registry;
        for kind in BOTH {
            let reg = Registry::new();
            let mut q = EventQueue::with_kind(kind);
            q.attach_probe(&reg.probe("engine"));
            // Drive far past the grow threshold so the calendar resizes
            // and fills buckets.
            for i in 0..200u64 {
                q.push(SimTime::from_us(i % 7), i);
            }
            let snap = reg.snapshot();
            // The key set is identical across backends (satellite:
            // snapshot equivalence across QueueKinds)…
            assert!(snap.counters.contains_key("engine.queue.resizes"));
            assert!(snap.gauges.contains_key("engine.queue.bucket_high_water"));
            match kind {
                // …the heap legitimately reports zero…
                QueueKind::Heap => {
                    assert_eq!(snap.counter("engine.queue.resizes"), 0);
                    assert_eq!(snap.gauge("engine.queue.bucket_high_water"), 0.0);
                }
                // …and the calendar reports real internals.
                QueueKind::Calendar => {
                    assert!(snap.counter("engine.queue.resizes") > 0);
                    assert!(snap.gauge("engine.queue.bucket_high_water") >= 1.0);
                }
            }
        }
    }

    #[test]
    fn calendar_internals_carry_over_at_attach() {
        use crate::obs::Registry;
        let reg = Registry::new();
        let mut q = EventQueue::with_kind(QueueKind::Calendar);
        for i in 0..200u64 {
            q.push(SimTime::from_us(i % 7), i);
        }
        q.attach_probe(&reg.probe("engine"));
        let snap = reg.snapshot();
        assert!(snap.counter("engine.queue.resizes") > 0);
        assert!(snap.gauge("engine.queue.bucket_high_water") >= 1.0);
    }

    #[test]
    fn new_uses_the_default_kind_and_with_kind_selects() {
        assert_eq!(EventQueue::<()>::new().kind(), QueueKind::default());
        assert_eq!(
            EventQueue::<()>::with_kind(QueueKind::Heap).kind(),
            QueueKind::Heap
        );
        assert_eq!(
            EventQueue::<()>::with_kind(QueueKind::Calendar).kind(),
            QueueKind::Calendar
        );
        assert_eq!(QueueKind::default(), QueueKind::Calendar);
    }

    #[test]
    fn calendar_survives_resize_cycles() {
        // Push far past the grow threshold, drain past the shrink one,
        // and check the order never wavers. Times are scattered widely
        // so resizes actually re-derive the width.
        let mut q = EventQueue::with_kind(QueueKind::Calendar);
        let mut times: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 4093).collect();
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

    #[test]
    fn calendar_handles_sparse_far_future_events() {
        // A lone event many "years" ahead of the cursor exercises the
        // global-scan fallback.
        let mut q = EventQueue::with_kind(QueueKind::Calendar);
        q.push(SimTime::from_ns(1), 0);
        q.push(SimTime::from_secs(20), 1);
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(20)));
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn backends_pop_identical_sequences_under_seeded_schedules() {
        use crate::rng::SimRng;
        for seed in [1u64, 42, 1994] {
            let mut rng = SimRng::new(seed);
            let mut heap = EventQueue::with_kind(QueueKind::Heap);
            let mut cal = EventQueue::with_kind(QueueKind::Calendar);
            let mut now = 0u64;
            for i in 0..5000u64 {
                // Mostly forward pushes with clustered instants, plus
                // interleaved pops, like a real simulation schedule.
                let at = now + rng.gen_range(2_000_000);
                heap.push(SimTime(at), i);
                cal.push(SimTime(at), i);
                if rng.gen_bool(0.4) {
                    let a = heap.pop();
                    let b = cal.pop();
                    assert_eq!(a, b);
                    if let Some((t, _)) = a {
                        now = now.max(t.as_ps());
                    }
                }
            }
            loop {
                let a = heap.pop();
                let b = cal.pop();
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
