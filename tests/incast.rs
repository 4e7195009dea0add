//! End-to-end incast: N sender nodes stream onto one receiver through
//! the switched fabric — the first workload class the node/fabric split
//! unlocks, and the shape where the paper's free-ring and
//! interrupt-suppression lessons actually bite.

use osiris::atm::sar::ReassemblyMode;
use osiris::atm::stripe::SkewConfig;
use osiris::board::dma::DmaMode;
use osiris::config::TestbedConfig;
use osiris::experiments::{cc_point, incast_throughput};
use osiris::node::NodeId;
use osiris::proto::stack::CcScheme;
use osiris::sim::{FaultPlan, SimDuration, SimTime};
use osiris::testbed::Event;
use osiris::Scenario;

#[test]
fn four_sender_incast_completes_through_the_switch() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 8 * 1024;
    cfg.messages = 4; // per sender
    cfg.reassembly = osiris::atm::sar::ReassemblyMode::FourWay { lanes: 4 };
    let senders = 4;
    let mut sim = Scenario::Incast { senders }.launch(cfg);
    loop {
        if sim.model.done || sim.now() > SimTime::from_secs(30) {
            break;
        }
        if !sim.step() {
            break;
        }
    }
    let m = &sim.model;
    assert!(m.done, "incast must run to completion");
    assert_eq!(m.verify_failures, 0, "every delivery verifies");
    assert_eq!(m.nodes.len(), senders + 1);

    let snap = m.snapshot();
    // Every sender transmitted on its own VCI; the receiver delivered all
    // of it up the stack.
    for s in 0..senders {
        assert!(
            snap.counter(&format!("node{s}.board.tx.cells_sent")) > 0,
            "sender {s} must have transmitted"
        );
    }
    assert_eq!(
        snap.counter(&format!("node{senders}.stack.delivered")),
        (senders as u64) * 4,
        "receiver must deliver every message from every sender"
    );

    // The switch's per-port queues are registry-visible: the receiver's
    // port block carried every cell, and the N-to-1 fan-in queued.
    let lanes = 4;
    let mut cells = 0u64;
    let mut queue_ps = 0u64;
    for p in senders * lanes..(senders + 1) * lanes {
        cells += snap.counter(&format!("fabric.switch.port{p}.cells"));
        queue_ps += snap.counter(&format!("fabric.switch.port{p}.queueing_ps"));
    }
    assert!(cells > 0, "receiver port block must carry the traffic");
    assert!(
        queue_ps > 0,
        "four concurrent senders must queue at the fan-in"
    );
    assert_eq!(snap.counter("fabric.switch.unrouted"), 0, "no cell dropped");
}

#[test]
fn only_outputs_with_two_feeders_route_cells_on_arrival() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 8 * 1024;
    cfg.messages = 2;
    cfg.reassembly = ReassemblyMode::FourWay { lanes: 4 };
    let snapshot = |scenario: Scenario, cfg: TestbedConfig| {
        let mut sim = scenario.launch(cfg);
        sim.run_to_completion();
        assert!(sim.model.done, "{scenario:?} must complete");
        assert_eq!(sim.model.verify_failures, 0);
        sim.model.snapshot()
    };

    // Each pair's port block has one feeder: every cell is routed when
    // it is sent, and no transit event is dispatched.
    let snap = snapshot(Scenario::ManyPairs { pairs: 4 }, cfg.clone());
    assert_eq!(snap.counter("engine.dispatch.fabric_transit"), 0);
    assert!(snap.counter("engine.dispatch.cell_arrival") > 0);

    // An incast's senders share the receiver's block, so their data
    // cells are routed on arrival. The acks back to each sender have a
    // block of their own and are routed when sent.
    cfg.reliable = true;
    let senders = 4;
    let snap = snapshot(Scenario::Incast { senders }, cfg);
    let data: u64 = (0..senders)
        .map(|s| snap.counter(&format!("node{s}.board.tx.cells_sent")))
        .sum();
    assert!(data > 0);
    assert_eq!(snap.counter("engine.dispatch.fabric_transit"), data);
    assert!(
        snap.counter(&format!("node{senders}.board.tx.cells_sent")) > 0,
        "the receiver must have sent acks"
    );
}

/// Runs `scenario` with the timeline on and returns its
/// `fabric_transit` dispatch count, its registry snapshot without the
/// `engine.*` keys (the dispatch counts are what the routing moment
/// changes) and its `switch.q` spans, sorted: each routing moment emits
/// the spans of different ports in a different order, but the same
/// spans. With the timeline on, every train cell waits for its turn, so
/// this compares the routing moments alone;
/// `trains_match_per_cell_arrivals` compares cells run ahead.
fn routed_result(
    scenario: Scenario,
    cfg: TestbedConfig,
) -> (u64, osiris::sim::Snapshot, Vec<osiris::sim::TimelineEvent>) {
    let mut sim = scenario.launch(cfg);
    sim.model.timeline.set_enabled(true);
    sim.run_to_completion();
    assert!(sim.model.done, "{scenario:?} must complete");
    assert_eq!(sim.model.verify_failures, 0);
    assert_eq!(sim.model.timeline.dropped(), 0, "timeline evicted spans");
    let mut snap = sim.model.snapshot();
    let transits = snap.counter("engine.dispatch.fabric_transit");
    snap.counters.retain(|k, _| !k.starts_with("engine."));
    snap.gauges.retain(|k, _| !k.starts_with("engine."));
    let mut spans: Vec<_> = sim
        .model
        .timeline
        .events()
        .into_iter()
        .filter(|e| e.name == "switch.q")
        .collect();
    spans.sort_by(|a, b| (&a.track, a.at, a.dur, a.ctx).cmp(&(&b.track, b.at, b.dur, b.ctx)));
    (transits, snap, spans)
}

#[test]
fn routing_at_send_matches_routing_on_arrival() {
    // An ECN threshold no queue can exceed marks nothing, but a switch
    // that may mark routes every cell on arrival. So the same run
    // through both routing moments must leave the same registry and the
    // same switch-queue spans.
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 8 * 1024;
    cfg.messages = 2;
    cfg.reassembly = ReassemblyMode::FourWay { lanes: 4 };
    // Skewed lanes deliver a PDU's cells out of send order, which is
    // where routing at send has to sort them by arrival time.
    let mut skewed = cfg.clone();
    skewed.skew = SkewConfig::mux_skew();
    let mut incast = cfg.clone();
    incast.reliable = true;
    let runs = [
        (Scenario::ManyPairs { pairs: 4 }, cfg.clone()),
        (Scenario::ManyPairs { pairs: 1 }, cfg),
        (Scenario::ManyPairs { pairs: 1 }, skewed),
        (Scenario::Incast { senders: 4 }, incast),
    ];
    for (scenario, cfg) in runs {
        let mut on_arrival = cfg.clone();
        on_arrival.ecn_threshold_cells = Some(u32::MAX);
        let (send_transits, send_snap, send_spans) = routed_result(scenario, cfg);
        let (arrival_transits, arrival_snap, arrival_spans) = routed_result(scenario, on_arrival);
        assert!(
            send_transits < arrival_transits,
            "{scenario:?}: {send_transits} transits at send, {arrival_transits} on arrival"
        );
        assert_eq!(send_snap, arrival_snap, "{scenario:?}: registry differs");
        assert!(!send_spans.is_empty(), "{scenario:?}: no switch.q spans");
        assert_eq!(send_spans, arrival_spans, "{scenario:?}: switch.q differs");
    }
}

/// A run's virtual-time result, rendered: the registry without the
/// `engine.*` keys (the dispatch counts are what trains change) and
/// without `sim.timeline.dropped` (the spans a full timeline evicted,
/// a fact about the trace, not the run), the latency record, the meter
/// and the last event's time. Also returns the number of arrival events
/// dispatched.
fn virtual_result(scenario: Scenario, cfg: TestbedConfig, timeline: bool) -> (u64, String) {
    let mut sim = scenario.launch(cfg);
    sim.model.timeline.set_enabled(timeline);
    sim.run_to_completion();
    assert!(sim.model.done, "{scenario:?} must complete");
    assert_eq!(sim.model.verify_failures, 0);
    let mut snap = sim.model.snapshot();
    let arrivals = snap.counter("engine.dispatch.cell_arrival");
    snap.counters.retain(|k, _| !k.starts_with("engine."));
    snap.gauges.retain(|k, _| !k.starts_with("engine."));
    snap.counters.remove("sim.timeline.dropped");
    let m = &sim.model;
    let rendered = format!(
        "{}\nlatency {:?}\nmeter {} bytes over {:?}, {:?} Mbps\nlast event {:?}",
        snap.to_json().render_pretty(),
        m.latency.summary(),
        m.meter.bytes(),
        m.meter.window(),
        m.meter.mbps(),
        sim.now(),
    );
    (arrivals, rendered)
}

#[test]
fn trains_match_per_cell_arrivals() {
    // Trains run cells ahead of their turn only where nothing can tell;
    // each shape below makes one part of that rule bind. Switched shapes
    // compare against an ECN threshold no queue reaches, which routes
    // every cell on arrival (one event per cell). Back-to-back links
    // always route at send, so a pair compares against a run with the
    // timeline on, where every cell waits for its own turn.
    let mut base = TestbedConfig::ds5000_200_udp();
    base.msg_size = 8 * 1024;
    base.messages = 4;
    let four_way = |mut c: TestbedConfig| {
        c.reassembly = ReassemblyMode::FourWay { lanes: 4 };
        c
    };
    let double_cell = |mut c: TestbedConfig| {
        c.rx_dma = DmaMode::DoubleCell;
        c
    };
    let reaping = |mut c: TestbedConfig| {
        c.reassembly_timeout = Some(SimDuration::from_us(200));
        c
    };
    let skewed = |mut c: TestbedConfig| {
        c.skew = SkewConfig::mux_skew();
        c
    };
    // 8 KB both ways: the receiver's own transmit kick and drain fall
    // inside the arriving train.
    let pairs = [
        base.clone(),
        double_cell(base.clone()),
        reaping(base.clone()),
    ];
    for cfg in pairs {
        let (trains, with_trains) = virtual_result(Scenario::Pair, cfg.clone(), false);
        let (per_cell, reference) = virtual_result(Scenario::Pair, cfg, true);
        assert!(
            trains < per_cell,
            "pair: {trains} train events, {per_cell} per cell"
        );
        assert_eq!(
            with_trains, reference,
            "pair: trains differ from per-cell arrival"
        );
    }
    let many = Scenario::ManyPairs { pairs: 4 };
    let switched = [
        // Pairs in lockstep: cells of different receivers arrive at
        // the same instants.
        four_way(base.clone()),
        // Skewed lanes: cells arrive out of send order.
        skewed(four_way(base.clone())),
        // Two IP fragments per message, sent back to back over skewed
        // lanes: the second PDU's early cells overtake the first's late
        // ones, so a train must stop where the next one may land.
        TestbedConfig {
            msg_size: 20 * 1024,
            ..skewed(four_way(base.clone()))
        },
        // Flush deadlines inside a PDU.
        double_cell(four_way(base.clone())),
        // Reassembly sweeps while PDUs are partial.
        reaping(skewed(four_way(base.clone()))),
    ];
    for cfg in switched {
        let mut on_arrival = cfg.clone();
        on_arrival.ecn_threshold_cells = Some(u32::MAX);
        let (trains, with_trains) = virtual_result(many, cfg, false);
        let (per_cell, reference) = virtual_result(many, on_arrival, false);
        assert!(
            trains < per_cell,
            "many pairs: {trains} train events, {per_cell} per cell"
        );
        assert_eq!(
            with_trains, reference,
            "many pairs: trains differ from per-cell arrival"
        );
    }
}

#[test]
fn tracing_is_invisible_on_the_incasts() {
    // The timeline records what a run does and must not change it, also
    // where many feeders share a switch port and where cells are lost,
    // retransmitted and reaped. The lossy run overflows the timeline, so
    // the traced run differs in `sim.timeline.dropped` alone, which
    // `virtual_result` strips.
    let mut four_way = TestbedConfig::ds5000_200_udp();
    four_way.msg_size = 2 * 1024;
    four_way.messages = 1;
    four_way.reassembly = ReassemblyMode::FourWay { lanes: 4 };
    let mut lossy = four_way.clone();
    lossy.messages = 2;
    lossy.reliable = true;
    lossy.reassembly_timeout = Some(SimDuration::from_us(1000));
    lossy.sim.faults = FaultPlan::uniform_loss(0.01, 4, 42);
    for (senders, cfg) in [(16, four_way), (64, lossy)] {
        let incast = Scenario::Incast { senders };
        let (arrivals, plain) = virtual_result(incast, cfg.clone(), false);
        let (traced_arrivals, traced) = virtual_result(incast, cfg, true);
        assert_eq!(
            arrivals, traced_arrivals,
            "{senders}-sender incast: tracing changed the arrival count"
        );
        assert_eq!(
            plain, traced,
            "{senders}-sender incast: tracing changed the result"
        );
    }
}

#[test]
fn receiver_events_queued_first_stop_the_train_at_their_instant() {
    // A drain queued at the very instant a cell arrives, and queued
    // before that cell was routed, runs first, so it does not see the
    // descriptor the cell completes. One such drain sits on every cell
    // of the first PDU: a train that ran a cell ahead of its drain would
    // let the drain take the descriptor early.
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 8 * 1024;
    cfg.messages = 2;
    let pair = Scenario::ManyPairs { pairs: 1 };
    let sink = NodeId(1);
    let mut probe = pair.launch(cfg.clone());
    probe.model.timeline.set_enabled(true);
    probe.run_to_completion();
    let cells: Vec<SimTime> = probe
        .model
        .timeline
        .events()
        .into_iter()
        .filter(|e| e.track == "node1.board.rx" && e.name == "cell")
        .map(|e| e.at)
        .collect();
    let first_pdu = &cells[..cells.len() / 2];
    let run = |cfg: TestbedConfig| {
        let mut sim = pair.launch(cfg);
        for &at in first_pdu {
            let drain = Event::RxDrain { host: sink };
            sim.model.schedule(&mut sim.queue, at, drain);
        }
        sim.run_to_completion();
        let mut snap = sim.model.snapshot();
        let arrivals = snap.counter("engine.dispatch.cell_arrival");
        snap.counters.retain(|k, _| !k.starts_with("engine."));
        snap.gauges.retain(|k, _| !k.starts_with("engine."));
        let latency = sim.model.latency.summary();
        (arrivals, snap, format!("{latency:?} {:?}", sim.now()))
    };
    let mut on_arrival = cfg.clone();
    on_arrival.ecn_threshold_cells = Some(u32::MAX);
    let (trains, snap, end) = run(cfg);
    let (per_cell, ref_snap, ref_end) = run(on_arrival);
    assert!(
        trains < per_cell,
        "{trains} train events, {per_cell} per cell"
    );
    assert_eq!(snap, ref_snap, "registry differs");
    assert_eq!(end, ref_end, "latency or end time differs");
}

#[test]
fn fragmenting_incast_recovers_by_retransmission() {
    // Regression: messages bigger than the IP MTU used to be rejected up
    // front ("incast requires single-fragment messages") because the
    // trailing short fragment loses the four-way lane race under fan-in
    // queueing. The guard is gone: incast_throughput now turns on
    // reliable mode and the reassembly timeout, and whatever the lane
    // races shed is reaped and retransmitted until every datagram lands.
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 20 * 1024; // two IP fragments per message
    cfg.messages = 3;
    cfg.warmup = 1;
    let r = incast_throughput(&cfg, 2);
    assert_eq!(
        r.delivered, 6,
        "every fragmented message must eventually be delivered"
    );
    assert!(r.mbps > 0.0, "goodput must be nonzero");
}

#[test]
fn incast_report_scales_with_senders() {
    // Single-fragment messages: four-way framing over the uncoordinated
    // switch requires every PDU to span all lanes (see incast_throughput).
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 12 * 1024;
    cfg.messages = 3;
    cfg.warmup = 1;
    let one = incast_throughput(&cfg, 1);
    let four = incast_throughput(&cfg, 4);
    assert_eq!(one.senders, 1);
    assert_eq!(four.senders, 4);
    assert_eq!(four.delivered, 12, "4 senders x 3 messages");
    assert!(four.switch_cells > one.switch_cells);
    assert!(
        four.max_port_queueing_us >= one.max_port_queueing_us,
        "fan-in must not reduce port queueing"
    );
    assert_eq!(one.dropped_pdus + four.dropped_pdus, 0);
}

/// The reliable-incast config the CC matrix runs: bounded switch queue,
/// ECN threshold, FourWay reassembly with a reaping timeout (set inside
/// `cc_point`), 16 one-KiB messages per sender, window 8.
fn cc_cfg() -> TestbedConfig {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 1024;
    cfg.messages = 16;
    cfg.warmup = 0;
    cfg.window = 8;
    cfg
}

#[test]
fn selective_repeat_beats_stop_and_wait_3x_under_lossy_incast() {
    // A reliable 16-to-1 incast through the bounded switch at 1% cell
    // loss. Stop-and-wait (`saw`, a window of 1) serializes each sender
    // on its round trips: every lost cell costs a full RTO with nothing
    // else in flight, and no SACK evidence can arrive for a lone
    // datagram. A window of 8 keeps the link busy across a loss and
    // recovers holes via SACK before the RTO fires, so it must hold at
    // least 3x stop-and-wait's goodput here.
    let cfg = cc_cfg();
    let saw = cc_point(&cfg, 16, 1e-2, "saw");
    let sr = cc_point(&cfg, 16, 1e-2, "sr");

    assert!(sr.converged, "selective repeat must converge");
    assert_eq!(sr.gave_up, 0, "no datagram may be abandoned");
    assert!(sr.block_acks > 0, "block acks must be flowing");
    assert!(
        sr.goodput_mbps >= 3.0 * saw.goodput_mbps,
        "selective repeat must hold >= 3x stop-and-wait goodput \
         (sr {:.2} Mbps vs saw {:.2} Mbps)",
        sr.goodput_mbps,
        saw.goodput_mbps
    );
}

#[test]
fn stop_and_wait_remains_selectable() {
    // Stop-and-wait is selective repeat at window 1: a clean 4-way
    // incast converges, the window defers every datagram queued behind
    // the one in flight, and with one datagram in flight no block ack
    // can show a hole below newer data, so SACK never fires.
    let mut cfg = cc_cfg();
    cfg.messages = 8;
    let saw = cc_point(&cfg, 4, 0.0, "saw");
    assert!(
        saw.converged,
        "stop-and-wait completes a clean 4-way incast"
    );
    assert_eq!(saw.gave_up, 0);
    assert_eq!(
        saw.sack_retransmits, 0,
        "one datagram in flight leaves no SACK evidence"
    );
    assert!(
        saw.deferred > 0,
        "window 1 defers the datagrams behind the one in flight"
    );
    assert!(saw.block_acks > 0, "acks travel the one block-ack path");
}

#[test]
fn selective_repeat_window_bounds_switch_pressure() {
    // The mechanism, not just the outcome: at the same offered load a
    // window of 8 must put less pressure on the bounded switch queue
    // than a window of 64, which does not bind at 16 messages per sender
    // (every datagram is admitted at once), and the window-8 gate must
    // actually defer sends.
    let cfg = cc_cfg();
    let sr = cc_point(&cfg, 16, 1e-2, "sr");
    let mut open = cfg.clone();
    open.window = 64;
    let unbound = cc_point(&open, 16, 1e-2, "sr");
    assert_eq!(unbound.deferred, 0, "window 64 must not bind");
    assert!(
        sr.switch_overflow < unbound.switch_overflow,
        "windowing must shrink switch overflow (window 8 {} vs 64 {})",
        sr.switch_overflow,
        unbound.switch_overflow
    );
    assert!(sr.deferred > 0, "the window gate must actually defer sends");
}

#[test]
fn windowed_schemes_abandon_nothing_at_other_seeds() {
    // The cc bin asserts at its one seed that every column converges
    // with no datagram abandoned. At these seeds of its 64-sender, 1 %
    // loss row, a constant 2 ms RTO abandoned 1, 2 and 2 datagrams.
    for (scheme, seed) in [("sr", 1), ("sr+ecn", 8), ("sr+pace", 10)] {
        let mut cfg = cc_cfg();
        cfg.seed = seed;
        let p = cc_point(&cfg, 64, 1e-2, scheme);
        assert!(p.converged, "{scheme} at seed {seed} must converge");
        assert_eq!(p.gave_up, 0, "{scheme} at seed {seed} abandoned datagrams");
    }
}

#[test]
fn lossy_incast_is_deterministic() {
    let cfg = cc_cfg();
    let a = cc_point(&cfg, 16, 1e-2, "sr+ecn");
    let b = cc_point(&cfg, 16, 1e-2, "sr+ecn");
    assert_eq!(a.goodput_mbps.to_bits(), b.goodput_mbps.to_bits());
    assert_eq!(
        (a.delivered, a.retransmits, a.sack_retransmits, a.block_acks),
        (b.delivered, b.retransmits, b.sack_retransmits, b.block_acks)
    );
}

/// `engine.dispatch.retrans_tick` of a reliable SR+ECN 16-sender incast
/// through the bounded switch at 1% cell loss, window 4, `messages` per
/// sender.
fn retrans_ticks(messages: u64) -> u64 {
    let mut cfg = cc_cfg();
    cfg.messages = messages;
    cfg.window = 4;
    cfg.reliable = true;
    cfg.cc = CcScheme::Ecn;
    cfg.reassembly = ReassemblyMode::FourWay { lanes: 4 };
    cfg.reassembly_timeout = Some(SimDuration::from_us(1000));
    cfg.sim.faults = FaultPlan::uniform_loss(1e-2, 4, cfg.seed);
    cfg.sim.faults.switch_max_queue_cells = Some(512);
    cfg.ecn_threshold_cells = Some(128);
    let out = Scenario::Incast { senders: 16 }.run(cfg);
    assert!(
        out.done,
        "the incast must complete at {messages} per sender"
    );
    out.snapshot.counter("engine.dispatch.retrans_tick")
}

#[test]
fn retransmit_ticks_grow_linearly_with_run_length() {
    // Regression: every reliable send, block ack and tick used to push a
    // new `RetransTick`, and a tick with nothing due still re-armed, so
    // duplicates lived as long as a window stayed open. Dispatches grew
    // with the square of the run length: 12x for 4x the messages, 37
    // ticks per message at 40 per sender. The testbed now queues at most
    // one tick per host and deadline.
    let (senders, l) = (16, 10);
    let short = retrans_ticks(l);
    let long = retrans_ticks(4 * l);
    assert!(
        long <= 5 * short,
        "4x the messages took {long} ticks against {short}"
    );
    assert!(
        long <= 3 * senders * 4 * l,
        "{long} ticks for {} messages",
        senders * 4 * l
    );
}
