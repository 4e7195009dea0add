//! Parallel discrete-event support: the shard-local event queue and the
//! partition-invariant tie-breaking key.
//!
//! The sequential engine orders same-instant events by a global push
//! sequence number — cheap and exact, but meaningless once pushes happen
//! concurrently on several threads: the interleaving of a global counter
//! would depend on scheduling, not on the simulation. The parallel
//! engine replaces it with a [`PushKey`] that is a pure function of the
//! *causal* push site:
//!
//! * `t_push` — the virtual time of the event whose handler pushed this
//!   one (`SimTime::ZERO` for scenario seed events);
//! * `origin` — the node whose handler performed the push (handlers
//!   only ever run on the shard owning their node, so this names the
//!   pushing shard too);
//! * `ctr` — a per-origin monotone counter, incremented on every push
//!   the origin makes.
//!
//! Within one origin the key increases in push order, so same-instant
//! events from one node dispatch exactly as the sequential `(time, seq)`
//! order does. Across origins, same-instant ties fall back to
//! `(t_push, origin)` — an order every partitioning computes
//! identically, because none of the three fields mentions a shard
//! count. That is the whole determinism argument in one line: the
//! dispatch order `(time, PushKey)` is a total order over events that
//! any number of threads agree on, so `shards = 1, 2, 4, …` all replay
//! the same history. The shard-equivalence suite enforces the remaining
//! obligation (that the fallback matches the sequential engine's pick
//! on the workloads we run) by byte-comparing registry snapshots.
//!
//! [`ShardQueue`] is the per-shard pending set: a plain binary heap over
//! `(SimTime, PushKey)`. Each shard's queue publishes its lifetime push
//! count as `<scope>.events.scheduled`, exactly like
//! [`EventQueue`](crate::EventQueue) does, so the merged registry keeps
//! the invariant *merged `engine.events.scheduled` = Σ per-shard
//! `total_pushed`* that `tests/observability.rs` pins.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::obs::{Counter, Gauge, Probe};
use crate::time::SimTime;

/// Partition-invariant tie-break key for same-instant events. Ordering
/// is lexicographic over `(t_push, origin, ctr)` — the derived `Ord`
/// on the field order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PushKey {
    /// Virtual time of the handler that pushed the event
    /// (`SimTime::ZERO` for scenario seeds).
    pub t_push: SimTime,
    /// Index of the node whose handler pushed the event.
    pub origin: u32,
    /// Per-origin push counter (monotone across that origin's pushes).
    pub ctr: u64,
}

impl PushKey {
    /// The key for the `n`-th seed event enqueued on behalf of `origin`
    /// before the simulation starts.
    pub fn seed(origin: u32, ctr: u64) -> Self {
        PushKey {
            t_push: SimTime::ZERO,
            origin,
            ctr,
        }
    }
}

/// A shard's pending-event set, ordered by `(time, PushKey)` — the
/// global dispatch order restricted to the events this shard owns.
pub struct ShardQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    pushed: u64,
    scheduled: Counter,
    /// Most entries ever pending at once (mirrored to
    /// `queue.pending_high_water`).
    pending_hw: usize,
    high_water: Gauge,
}

struct Entry<E> {
    time: SimTime,
    key: PushKey,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, PushKey) {
        (self.time, self.key)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl<E> Default for ShardQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ShardQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        ShardQueue {
            heap: BinaryHeap::new(),
            pushed: 0,
            scheduled: Counter::detached(),
            pending_hw: 0,
            high_water: Gauge::default(),
        }
    }

    /// Publishes the lifetime push count as `<scope>.events.scheduled`
    /// in `probe`'s registry, carrying over pushes made before
    /// attaching — the same contract as `EventQueue::attach_probe`, so
    /// a shard's registry scope is indistinguishable from the
    /// sequential engine's. That contract includes the `<scope>.queue.*`
    /// key set: this shard's pending high water, as
    /// `queue.pending_high_water`.
    pub fn attach_probe(&mut self, probe: &Probe) {
        self.scheduled = probe.scoped("events").counter("scheduled");
        self.scheduled.add(self.pushed);
        self.high_water = probe.scoped("queue").gauge("pending_high_water");
        self.high_water.set(self.pending_hw as f64);
    }

    /// Schedules `event` at `at` under tie-break key `key`.
    pub fn push(&mut self, at: SimTime, key: PushKey, event: E) {
        self.pushed += 1;
        self.scheduled.incr();
        self.heap.push(Reverse(Entry {
            time: at,
            key,
            event,
        }));
        if self.heap.len() > self.pending_hw {
            self.pending_hw = self.heap.len();
            self.high_water.set(self.pending_hw as f64);
        }
    }

    /// Removes and returns the earliest `(time, key, event)`.
    pub fn pop(&mut self) -> Option<(SimTime, PushKey, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.key, e.event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever pushed (diagnostic; mirrors the
    /// `events.scheduled` counter when a probe is attached).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }
}

impl<E> std::fmt::Debug for ShardQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardQueue")
            .field("pending", &self.len())
            .field("total_pushed", &self.pushed)
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t_push: u64, origin: u32, ctr: u64) -> PushKey {
        PushKey {
            t_push: SimTime(t_push),
            origin,
            ctr,
        }
    }

    #[test]
    fn pops_by_time_then_key() {
        let mut q = ShardQueue::new();
        let t = SimTime::from_us(5);
        // Same instant: order falls back to (t_push, origin, ctr).
        q.push(t, key(30, 0, 0), "late-push");
        q.push(t, key(10, 1, 4), "early-push-high-origin");
        q.push(t, key(10, 0, 7), "early-push-low-origin");
        q.push(SimTime::from_us(1), key(99, 9, 9), "earlier-time");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(
            order,
            vec![
                "earlier-time",
                "early-push-low-origin",
                "early-push-high-origin",
                "late-push"
            ]
        );
    }

    #[test]
    fn same_origin_same_instant_preserves_push_order() {
        // The sequential engine's FIFO-within-instant contract, restated
        // for one origin: ctr is monotone in push order, so the pops
        // come back in push order.
        let mut q = ShardQueue::new();
        let t = SimTime::from_us(3);
        for i in 0..100u64 {
            q.push(t, key(1_000, 2, i), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().2, i);
        }
    }

    #[test]
    fn probe_mirrors_total_pushed() {
        use crate::obs::Registry;
        let reg = Registry::new();
        let mut q = ShardQueue::new();
        q.push(SimTime::from_ns(1), PushKey::seed(0, 0), ());
        q.attach_probe(&reg.probe("engine"));
        assert_eq!(reg.snapshot().counter("engine.events.scheduled"), 1);
        q.push(SimTime::from_ns(2), PushKey::seed(0, 1), ());
        assert_eq!(
            reg.snapshot().counter("engine.events.scheduled"),
            q.total_pushed()
        );
    }

    #[test]
    fn key_ordering_is_lexicographic() {
        assert!(key(1, 5, 9) < key(2, 0, 0));
        assert!(key(2, 0, 9) < key(2, 1, 0));
        assert!(key(2, 1, 0) < key(2, 1, 1));
    }
}
