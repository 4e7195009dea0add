//! The event queue's contract, end to end: a full testbed run produces a
//! **byte-identical** registry snapshot whether events flow through the
//! radix-heap [`EventQueue`] under `run_to_completion`, or through a
//! reference loop written here that orders events by `(time, seq)` in a
//! `std` binary heap. The queue's FIFO-within-an-instant order fixes
//! the dispatch sequence, so the two may only differ in wall-clock —
//! never in simulated results.
//!
//! This is the system-level companion to the pop-by-pop property test in
//! `crates/sim/tests/queue_equivalence.rs`: that one proves the queue
//! agrees with the reference in isolation; this one proves the whole
//! dispatcher — slab cell arena, interned timeline keys, striped links,
//! the bounded switch, reassembly, retransmission, metering — observes
//! no difference either.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use osiris::config::TestbedConfig;
use osiris::sim::{EventQueue, Model, SimTime, Simulation};
use osiris::testbed::{Event, Testbed};
use osiris::Scenario;

/// The rendered snapshot minus the `engine.queue.*` keys: the queue's
/// own pending high water differs between the engine's queue and the
/// reference loop's staging queue. Everything else must match exactly.
fn semantic_json(sim: &Simulation<Testbed>) -> String {
    let mut snap = sim.model.snapshot();
    snap.counters.retain(|k, _| !k.starts_with("engine.queue."));
    snap.gauges.retain(|k, _| !k.starts_with("engine.queue."));
    snap.to_json().render_pretty()
}

/// The reference dispatch loop. Handlers push into the simulation's own
/// queue (its probe counts `engine.events.scheduled`), which only ever
/// holds one dispatch's pushes; they are popped and re-keyed with a
/// global sequence number into the reference heap, the way the sharded
/// engine re-keys its staging queue. Events live in a side table the
/// heap indexes, since `Event` has no order of its own.
fn run_reference(sim: &mut Simulation<Testbed>) {
    type Heap = BinaryHeap<Reverse<(SimTime, usize)>>;
    fn stage(q: &mut EventQueue<Event>, heap: &mut Heap, events: &mut Vec<Option<Event>>) {
        while let Some((at, ev)) = q.pop() {
            heap.push(Reverse((at, events.len())));
            events.push(Some(ev));
        }
    }
    let mut heap = Heap::new();
    let mut events = Vec::new();
    stage(&mut sim.queue, &mut heap, &mut events);
    while let Some(Reverse((t, seq))) = heap.pop() {
        let ev = events[seq].take().expect("dispatched once");
        sim.model.handle(t, ev, &mut sim.queue);
        stage(&mut sim.queue, &mut heap, &mut events);
    }
}

/// Runs `scenario` both ways and asserts byte-identical snapshots;
/// returns the engine run's full snapshot for further checks.
fn assert_identical(scenario: Scenario, cfg: TestbedConfig) -> osiris::sim::Snapshot {
    let mut engine = scenario.launch(cfg.clone());
    engine.run_to_completion();
    assert!(engine.model.done, "{scenario:?} did not complete");
    assert_eq!(
        engine.model.verify_failures, 0,
        "{scenario:?} payload verify"
    );

    let mut reference = scenario.launch(cfg);
    run_reference(&mut reference);
    assert_eq!(
        semantic_json(&engine),
        semantic_json(&reference),
        "{scenario:?}: registry snapshot diverged from the (time, seq) reference"
    );
    engine.model.snapshot()
}

#[test]
fn rx_bench_snapshot_matches_the_reference_heap() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 16 * 1024;
    cfg.messages = 8;
    cfg.warmup = 2;
    let snap = assert_identical(Scenario::RxBench, cfg);
    // The generator cuts each cell as it feeds it and hands it over by
    // reference: no cell passes through the slab on this path.
    assert_eq!(snap.counter("cells.slab_recycled"), 0);
    assert!(snap.counter("engine.events.scheduled") > 0);
}

#[test]
fn lossy_incast_snapshot_matches_the_reference_heap() {
    // A small reliable incast through the bounded switch at 1 % cell
    // loss: millisecond retransmit and reap timers among nanosecond
    // cell arrivals, switch drops and retransmissions.
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 1024;
    cfg.messages = 4;
    cfg.window = 8;
    cfg.reliable = true;
    cfg.transport = osiris::proto::stack::TransportMode::SelectiveRepeat;
    cfg.reassembly = osiris::atm::sar::ReassemblyMode::FourWay { lanes: 4 };
    cfg.reassembly_timeout = Some(osiris::sim::SimDuration::from_us(1000));
    cfg.sim.faults.switch_max_queue_cells = Some(512);
    let plan = osiris::sim::FaultPlan::uniform_loss(1e-2, 4, cfg.seed);
    cfg.sim.faults.lane_drop_prob = plan.lane_drop_prob;
    cfg.sim.faults.seed = cfg.seed;
    let snap = assert_identical(Scenario::Incast { senders: 8 }, cfg);
    // The slab arena is live on this path: tx and fabric cells were
    // recycled through the free list, not leaked and reallocated.
    assert!(
        snap.counter("cells.slab_recycled") > 0,
        "expected slab recycling on the tx and fabric path"
    );
    let recovered = snap
        .counters
        .iter()
        .any(|(k, &v)| k.ends_with(".retransmits") && v > 0);
    assert!(recovered, "expected retransmissions on the lossy incast");
}
