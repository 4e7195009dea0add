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
//! no difference either. The scenario shapes below cover every fabric
//! and workload the testbed builds: back-to-back and switched pairs,
//! fan-out, many pairs, incast up to 64 senders, and the lossy
//! windowed, paced and faulty shapes where timers, retransmissions and
//! switch drops interleave with cell arrivals.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use osiris::atm::sar::ReassemblyMode;
use osiris::config::TestbedConfig;
use osiris::proto::stack::CcScheme;
use osiris::sim::{EventQueue, FaultPlan, Model, SimDuration, SimTime, Simulation};
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
/// global sequence number into the reference heap. Events live in a
/// side table the heap indexes, since `Event` has no order of its own.
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

/// A reliable selective-repeat incast through the bounded switch (512
/// cells) at 1 % cell loss, with FourWay reassembly and a 1 ms reap
/// timeout. A `cc` scheme other than `None` also marks ECN above 128
/// queued cells: the congestion-control matrix's shape.
fn lossy_incast_cfg(cc: CcScheme, messages: u64, window: u32) -> TestbedConfig {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 1024;
    cfg.messages = messages;
    cfg.window = window;
    cfg.reliable = true;
    cfg.cc = cc;
    cfg.reassembly = ReassemblyMode::FourWay { lanes: 4 };
    cfg.reassembly_timeout = Some(SimDuration::from_us(1000));
    if cc != CcScheme::None {
        cfg.ecn_threshold_cells = Some(128);
    }
    cfg.sim.faults.switch_max_queue_cells = Some(512);
    let plan = FaultPlan::uniform_loss(1e-2, 4, cfg.seed);
    cfg.sim.faults.lane_drop_prob = plan.lane_drop_prob;
    cfg.sim.faults.seed = cfg.seed;
    cfg
}

#[test]
fn lossy_incast_snapshot_matches_the_reference_heap() {
    // A small reliable incast through the bounded switch at 1 % cell
    // loss: millisecond retransmit and reap timers among nanosecond
    // cell arrivals, switch drops and retransmissions. A bounded switch
    // routes every cell, acks included, on arrival.
    let cfg = lossy_incast_cfg(CcScheme::None, 4, 8);
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

/// `messages` UDP/IP messages of `kb` KB each, under `seed`.
fn udp(kb: u64, messages: u64, seed: u64) -> TestbedConfig {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = kb * 1024;
    cfg.messages = messages;
    cfg.seed = seed;
    cfg
}

/// The same with FourWay reassembly, as striped switched runs use.
fn udp_fourway(kb: u64, messages: u64, seed: u64) -> TestbedConfig {
    let mut cfg = udp(kb, messages, seed);
    cfg.reassembly = ReassemblyMode::FourWay { lanes: 4 };
    cfg
}

#[test]
fn pairs_snapshot_matches_the_reference_heap() {
    // Back-to-back and switched, two seeds each. Both route every cell
    // when it is sent: a direct link, and a pair's port block on the
    // switch, each have a single feeder.
    for seed in [1, 42] {
        assert_identical(Scenario::Pair, udp(8, 4, seed));
        assert_identical(Scenario::ManyPairs { pairs: 1 }, udp_fourway(8, 4, seed));
    }
}

#[test]
fn fan_out_snapshot_matches_the_reference_heap() {
    // Raw ATM fanned out through the switch: four sources, each on its
    // own VCI to its own receiver's port block.
    for seed in [1, 42] {
        let mut cfg = TestbedConfig::ds5000_200_atm();
        cfg.msg_size = 4 * 1024;
        cfg.messages = 3;
        cfg.seed = seed;
        assert_identical(Scenario::ManyPairs { pairs: 4 }, cfg);
    }
}

#[test]
fn many_pairs_and_incast_16_snapshots_match_the_reference_heap() {
    assert_identical(Scenario::ManyPairs { pairs: 4 }, udp_fourway(4, 2, 42));
    for seed in [1, 42] {
        assert_identical(Scenario::Incast { senders: 16 }, udp_fourway(4, 2, seed));
    }
}

#[test]
fn incast_64_snapshot_matches_the_reference_heap() {
    // 64 concurrent PDUs overrun even a maxed-out 63-buffer free ring;
    // reliable mode reaps and retransmits whatever the overrun sheds.
    // Both routing moments occur in this run: the unbounded switch routes
    // the data cells, which share the receiver's ports, on arrival, and
    // each sender's acks, which have its ports to themselves, when sent.
    let mut cfg = udp_fourway(2, 1, 42);
    cfg.rx_buffers = 63;
    cfg.reliable = true;
    cfg.reassembly_timeout = Some(SimDuration::from_us(1000));
    let snap = assert_identical(Scenario::Incast { senders: 64 }, cfg);
    assert_eq!(snap.counter("node64.stack.delivered"), 64);
    let transits = snap.counter("engine.dispatch.fabric_transit");
    assert!(transits > 0 && transits < snap.counter("engine.dispatch.cell_arrival"));
}

#[test]
fn lossy_paced_incast_snapshot_matches_the_reference_heap() {
    // Receiver-driven pacing: `RetransTick` is also the pacing-release
    // timer, so a tick with no RTO due still admits deferred datagrams.
    // At 16 messages per sender the window (8) fills and deferred
    // datagrams leave on pacing releases.
    assert_identical(
        Scenario::Incast { senders: 8 },
        lossy_incast_cfg(CcScheme::Pacing, 16, 8),
    );
}

#[test]
fn lossy_windowed_incast_with_an_unfilled_window_matches_the_reference_heap() {
    // Window 16 over 16 messages per sender: the window never fills, so
    // every datagram leaves at once and the run is paced by loss
    // recovery alone.
    assert_identical(
        Scenario::Incast { senders: 8 },
        lossy_incast_cfg(CcScheme::Ecn, 16, 16),
    );
}

#[test]
fn faulty_pair_snapshot_matches_the_reference_heap() {
    // Per-lane loss and corruption with reliable recovery.
    let mut cfg = udp(8, 4, 42);
    cfg.reliable = true;
    cfg.reassembly_timeout = Some(SimDuration::from_us(1000));
    cfg.sim.faults.lane_drop_prob = vec![1e-3; 4];
    cfg.sim.faults.lane_corrupt_prob = vec![1e-4; 4];
    cfg.sim.faults.seed = 7;
    let snap = assert_identical(Scenario::Pair, cfg);
    assert!(snap.counter("node1.stack.delivered") > 0);
}
