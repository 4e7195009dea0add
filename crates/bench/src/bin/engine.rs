//! Regenerates the **event-engine** snapshot: how many events per second
//! the simulator's event queue sustains.
//!
//! The workload is a classic *hold model* — prefill a large pending set,
//! then pop one event and push its successor, over and over. This is the
//! steady state of a saturated simulation and isolates the queue. It runs
//! on the engine's [`EventQueue`] (a monotone radix heap: `O(1)` push,
//! amortised `O(log range)` pop) and on a bench-local reference, a `std`
//! binary heap keyed on `(time, seq)` that pays `O(log n)` sifts against
//! the pending-set size. The `queue_speedup` headline is their ratio; CI
//! guards it (a ratio of two runs on the same machine, so it is far more
//! stable than absolute ns).
//!
//! Both queues pop the same `(time, push order)` sequence, so this
//! bench guards wall-clock only. Timing is wall-clock and therefore
//! noisy; CI compares with a generous threshold. The end-to-end event
//! counts of real workloads are exact and live in the `events` bench.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use osiris::sim::{EventQueue, SimDuration, SimRng, SimTime};
use osiris_bench::{bench_out_path, quick_requested, BenchSnapshot, Better, ExperimentResult};

/// The pop/push surface the hold model drives.
trait HoldQueue {
    fn push(&mut self, at: SimTime, ev: u32);
    fn pop(&mut self) -> Option<(SimTime, u32)>;
}

impl HoldQueue for EventQueue<u32> {
    fn push(&mut self, at: SimTime, ev: u32) {
        EventQueue::push(self, at, ev);
    }
    fn pop(&mut self) -> Option<(SimTime, u32)> {
        EventQueue::pop(self)
    }
}

/// The reference: a binary heap over `(time, seq)`, FIFO within an
/// instant through the push sequence number.
#[derive(Default)]
struct RefHeap {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    seq: u64,
}

impl HoldQueue for RefHeap {
    fn push(&mut self, at: SimTime, ev: u32) {
        self.heap.push(Reverse((at, self.seq, ev)));
        self.seq += 1;
    }
    fn pop(&mut self) -> Option<(SimTime, u32)> {
        self.heap.pop().map(|Reverse((t, _, ev))| (t, ev))
    }
}

/// One hold-model pass: `ops` pop+push cycles against a pending set of
/// `pending` events, times drawn from a deterministic RNG. Returns
/// events per second (one op = one event dispatched).
fn hold_model(q: &mut impl HoldQueue, pending: usize, ops: u64) -> f64 {
    let mut rng = SimRng::new(0x0517_1994);
    // Mean inter-event gap of ~1 µs in picoseconds (the testbed's
    // cell-time cadence); the pending set then spans `pending` µs, and
    // drawing successor deltas over that same spread keeps the process
    // stationary — the spread neither compresses nor drifts, which is
    // the regime a long saturated simulation sits in.
    let spread = pending as u64 * 1_000_000;
    for i in 0..pending {
        q.push(SimTime(rng.next_u64() % spread), i as u32);
    }
    let t0 = Instant::now();
    for _ in 0..ops {
        let (now, ev) = q.pop().expect("hold model never drains");
        q.push(now + SimDuration::from_ps(1 + rng.next_u64() % spread), ev);
    }
    let secs = t0.elapsed().as_secs_f64();
    ops as f64 / secs
}

fn main() {
    let quick = quick_requested();
    // The pending set is what separates the queues: the heap's sifts
    // miss cache more as it deepens. The full profile uses a deeper set
    // than quick.
    let (pending, ops) = if quick {
        (1 << 20, 400_000)
    } else {
        (1 << 22, 2_000_000)
    };

    // Best of two passes per queue — same noise treatment as the micro
    // harness (report the least-disturbed measurement).
    let heap = (0..2)
        .map(|_| hold_model(&mut RefHeap::default(), pending, ops))
        .fold(0.0, f64::max);
    let queue = (0..2)
        .map(|_| hold_model(&mut EventQueue::new(), pending, ops))
        .fold(0.0, f64::max);
    let speedup = queue / heap;

    let mut r = ExperimentResult::new("engine", "Event-engine throughput (hold model)", "events/s");
    let x = [pending as u64];
    r.push_series("heap", &x, &[heap], None);
    r.push_series("queue", &x, &[queue], None);

    if let Some(path) = bench_out_path() {
        let mut snap = BenchSnapshot::new("engine");
        snap.headline("hold_events_per_sec", queue, "events/s", Better::Higher);
        snap.headline("hold_heap_events_per_sec", heap, "events/s", Better::Higher);
        snap.headline("queue_speedup", speedup, "x", Better::Higher);
        snap.push_result(&r);
        std::fs::write(&path, snap.to_json()).expect("write bench snapshot");
        eprintln!("wrote {path}");
    }
    println!("event engine, hold model ({pending} pending, {ops} ops):");
    println!("  reference heap  {heap:>12.0} events/s");
    println!("  event queue     {queue:>12.0} events/s   ({speedup:.1}x)");
}
