//! Regenerates the **event-engine** snapshot: how many events per second
//! the simulator's event queue sustains, and how fast a real receive
//! bench runs end to end.
//!
//! Two workloads:
//!
//! * A classic *hold model* — prefill a large pending set, then pop one
//!   event and push its successor, over and over. This is the steady
//!   state of a saturated simulation and isolates the queue. It runs on
//!   the engine's [`EventQueue`] (a monotone radix heap: `O(1)` push,
//!   amortised `O(log range)` pop) and on a bench-local reference, a
//!   `std` binary heap keyed on `(time, seq)` that pays `O(log n)` sifts
//!   against the pending-set size. The `queue_speedup` headline is
//!   their ratio; CI guards it (a ratio of two runs on the same machine,
//!   so it is far more stable than absolute ns).
//! * The quick Figure-2 receive bench — real events through the real
//!   dispatcher, with the slab cell arena and interned timeline keys on
//!   the path. Its events/sec headline guards the end-to-end hot path,
//!   not just the queue in isolation.
//!
//! Both queues pop the same `(time, push order)` sequence, so this
//! bench guards wall-clock only. Timing is wall-clock and therefore
//! noisy; CI compares with a generous threshold.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use osiris::config::TestbedConfig;
use osiris::sim::{EventQueue, SimDuration, SimRng, SimTime};
use osiris_bench::{
    bench_out_path, json_requested, quick_requested, BenchSnapshot, Better, ExperimentResult,
};

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

/// The receive bench wall-clock, best of three runs (least scheduler
/// noise): returns `(events_per_sec, wall_ms, events)`.
fn rx_bench_wall(messages: u64) -> (f64, f64, u64) {
    let mut best: Option<(f64, f64, u64)> = None;
    for _ in 0..3 {
        let mut cfg = TestbedConfig::ds5000_200_udp();
        cfg.msg_size = 16 * 1024;
        cfg.messages = messages;
        cfg.warmup = 2;
        let t0 = Instant::now();
        let events = {
            let mut sim = osiris::Scenario::RxBench.launch(cfg);
            sim.model.meter = osiris::sim::stats::ThroughputMeter::new(2);
            while !sim.model.done && sim.step() {}
            assert!(sim.model.done, "rx bench did not complete");
            assert_eq!(sim.model.verify_failures, 0);
            sim.queue.total_pushed()
        };
        let secs = t0.elapsed().as_secs_f64();
        if best.is_none_or(|(_, ms, _)| secs * 1e3 < ms) {
            best = Some((events as f64 / secs, secs * 1e3, events));
        }
    }
    best.expect("three runs")
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
    let messages = if quick { 24 } else { 96 };

    // Best of two passes per queue — same noise treatment as the micro
    // harness (report the least-disturbed measurement).
    let heap = (0..2)
        .map(|_| hold_model(&mut RefHeap::default(), pending, ops))
        .fold(0.0, f64::max);
    let queue = (0..2)
        .map(|_| hold_model(&mut EventQueue::new(), pending, ops))
        .fold(0.0, f64::max);
    let speedup = queue / heap;

    let (rx_eps, rx_ms, rx_events) = rx_bench_wall(messages);

    let mut r = ExperimentResult::new(
        "engine",
        "Event-engine throughput (hold model + quick rx bench)",
        "events/s",
    );
    let x = [pending as u64];
    r.push_series("heap", &x, &[heap], None);
    r.push_series("queue", &x, &[queue], None);
    r.push_series("rx_bench", &[rx_events], &[rx_eps], None);

    if let Some(path) = bench_out_path() {
        let mut snap = BenchSnapshot::new("engine");
        snap.headline("hold_events_per_sec", queue, "events/s", Better::Higher);
        snap.headline("hold_heap_events_per_sec", heap, "events/s", Better::Higher);
        snap.headline("queue_speedup", speedup, "x", Better::Higher);
        snap.headline(
            "rx_bench_events_per_sec",
            rx_eps,
            "events/s",
            Better::Higher,
        );
        snap.headline("rx_bench_wall_ms", rx_ms, "ms", Better::Lower);
        snap.push_result(&r);
        std::fs::write(&path, snap.to_json()).expect("write bench snapshot");
        eprintln!("wrote {path}");
    }
    if json_requested() {
        println!("{}", r.to_json());
        return;
    }
    println!("event engine, hold model ({pending} pending, {ops} ops):");
    println!("  reference heap  {heap:>12.0} events/s");
    println!("  event queue     {queue:>12.0} events/s   ({speedup:.1}x)");
    println!("quick rx bench: {rx_events} events in {rx_ms:.1} ms = {rx_eps:.0} events/s");
}
