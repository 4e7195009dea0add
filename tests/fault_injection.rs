//! Fault injection across the full stack: corrupted cells must never
//! reach an application, and stale caches must never corrupt a
//! checksummed delivery.

use osiris::atm::sar::ReassemblyMode;
use osiris::config::{TestbedConfig, TouchMode};
use osiris::proto::stack::RTO_INITIAL;
use osiris::sim::faults::{LaneOutage, PointFault, PointFaultKind};
use osiris::sim::{FaultPlan, SimDuration, SimTime, Simulation};
use osiris::testbed::{Event, NodeId, Testbed};
use osiris::Scenario;

/// Runs a ping-pong testbed until `pings` round trips complete or the
/// budget is exhausted; returns the finished testbed.
fn run_pings(cfg: TestbedConfig) -> Testbed {
    let tb = Scenario::Pair.build(cfg);
    let mut sim = Simulation::new(tb);
    sim.model.schedule(
        &mut sim.queue,
        SimTime::ZERO,
        Event::AppSend { host: NodeId(0) },
    );
    loop {
        if sim.model.done || sim.now() > SimTime::from_secs(30) {
            break;
        }
        if !sim.step() {
            break;
        }
    }
    sim.model
}

/// Like [`run_pings`], but keeps stepping after the budget completes so
/// stragglers drain — in-flight acks, armed retransmit timers, pending
/// reap sweeps. Buffer-conservation checks need the *quiesced* testbed:
/// right at `done` a retransmitted PDU can still hold receive buffers.
fn run_pings_to_quiescence(cfg: TestbedConfig) -> Testbed {
    let tb = Scenario::Pair.build(cfg);
    let mut sim = Simulation::new(tb);
    sim.model.schedule(
        &mut sim.queue,
        SimTime::ZERO,
        Event::AppSend { host: NodeId(0) },
    );
    loop {
        if sim.model.done || sim.now() > SimTime::from_secs(30) {
            break;
        }
        if !sim.step() {
            break;
        }
    }
    // Retransmit chains terminate (ack or give-up) and reap sweeps cap
    // themselves, so the queue provably drains.
    sim.run_until(SimTime::from_secs(60));
    sim.model
}

#[test]
fn corrupted_cells_are_dropped_by_the_board_crc() {
    // Corrupt ~2 % of cells; every corrupted PDU must be caught by the
    // per-PDU CRC and recycled on the host, never delivered, whichever
    // strategy reassembles it.
    for reassembly in [
        ReassemblyMode::InOrder,
        ReassemblyMode::SeqNum { max_cells: 4096 },
        ReassemblyMode::FourWay { lanes: 4 },
    ] {
        let mut cfg = TestbedConfig::ds5000_200_udp();
        cfg.msg_size = 4096;
        cfg.messages = 30;
        cfg.reassembly = reassembly;
        cfg.sim.faults.lane_corrupt_prob = vec![0.02; 4];
        cfg.sim.faults.seed = 1234;
        let tb = run_pings(cfg);
        // The experiment may stall (a lost ping is never retransmitted —
        // UDP!) but nothing corrupt may have been delivered.
        assert_eq!(
            tb.verify_failures, 0,
            "{reassembly:?}: corrupt data must never reach the app"
        );
        let snap = tb.snapshot();
        let sum = |counter: &str| -> u64 {
            (0..tb.nodes.len())
                .map(|i| snap.counters[&format!("node{i}.{counter}")])
                .sum()
        };
        assert!(
            sum("link.cells_corrupted") > 0,
            "{reassembly:?}: fault injection must have fired"
        );
        let err_pdus = sum("driver.err_pdus");
        let crc_failed = sum("board.rx.pdus_crc_failed");
        assert!(
            crc_failed > 0,
            "{reassembly:?}: the AAL CRC must have caught something"
        );
        assert_eq!(
            err_pdus, crc_failed,
            "{reassembly:?}: every flagged PDU is recycled by the driver"
        );
    }
}

#[test]
fn clean_run_has_no_crc_failures() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 4096;
    cfg.messages = 10;
    let tb = run_pings(cfg);
    assert!(tb.done);
    assert_eq!(tb.verify_failures, 0);
    let snap = tb.snapshot();
    for i in 0..tb.nodes.len() {
        assert_eq!(
            snap.counters[&format!("node{i}.board.rx.pdus_crc_failed")],
            0
        );
        assert_eq!(snap.counters[&format!("node{i}.driver.err_pdus")], 0);
    }
}

#[test]
fn checksummed_transfers_survive_and_verify() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 8192;
    cfg.messages = 6;
    cfg.udp_checksum = true;
    cfg.touch = TouchMode::WritePerMessage;
    let tb = run_pings(cfg);
    assert!(tb.done);
    assert_eq!(tb.verify_failures, 0);
    let snap = tb.snapshot();
    for i in 0..tb.nodes.len() {
        assert_eq!(
            snap.counters[&format!("node{i}.stack.dropped")],
            0,
            "no false checksum failures"
        );
    }
}

#[test]
fn interrupt_accounting_is_conserved() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 2048;
    cfg.messages = 8;
    let tb = run_pings(cfg);
    let snap = tb.snapshot();
    for i in 0..tb.nodes.len() {
        let count = |counter: &str| snap.counters[&format!("node{i}.{counter}")];
        let asserted = count("board.rx.intr_raised") - count("board.rx.intr_suppressed");
        let taken = count("host.interrupts_taken");
        // Every asserted receive interrupt is fielded (transmit wakeups
        // would add to `taken`, but these runs never fill the ring).
        assert_eq!(asserted, taken, "asserted {asserted} vs taken {taken}");
    }
}

/// Property-style sweep: under *any* seeded [`FaultPlan`] — random
/// drops, random bit corruption, deterministic point faults and a lane
/// outage — reliable mode must (a) converge, (b) deliver every payload
/// byte-exact, and (c) return every receive buffer to the free ring
/// once the run quiesces. Plain seed loop rather than proptest: the
/// fault streams are already pseudo-random functions of the seed.
#[test]
fn reliable_mode_survives_arbitrary_fault_plans() {
    for seed in [1u64, 7, 42, 1994] {
        let mut cfg = TestbedConfig::ds5000_200_udp();
        cfg.msg_size = 4096;
        cfg.messages = 8;
        cfg.udp_checksum = true;
        cfg.reliable = true;
        cfg.reassembly_timeout = Some(SimDuration::from_us(1000));
        cfg.sim.faults = FaultPlan {
            lane_drop_prob: vec![1e-3; 4],
            lane_corrupt_prob: vec![1e-3; 4],
            point_faults: vec![
                PointFault {
                    lane: 0,
                    nth: 2,
                    kind: PointFaultKind::Drop,
                },
                PointFault {
                    lane: 1,
                    nth: 5,
                    kind: PointFaultKind::Corrupt,
                },
            ],
            outages: vec![LaneOutage {
                lane: 2,
                from: SimTime::from_us(500),
                until: SimTime::from_us(1500),
            }],
            remap_on_outage: true,
            switch_max_queue_cells: None,
            seed,
        };
        let tb = run_pings_to_quiescence(cfg);
        assert!(tb.done, "seed {seed}: reliable run must converge");
        assert_eq!(
            tb.verify_failures, 0,
            "seed {seed}: every delivered payload must be byte-exact"
        );
        let snap = tb.snapshot();
        let hit: u64 = (0..tb.nodes.len())
            .map(|i| {
                snap.counters[&format!("node{i}.link.cells_dropped")]
                    + snap.counters[&format!("node{i}.link.cells_corrupted")]
            })
            .sum();
        assert!(hit > 0, "seed {seed}: the fault plan must have fired");
        for (i, n) in tb.nodes.iter().enumerate() {
            assert_eq!(
                n.rx.free_ring(n.driver.page).len() as usize,
                tb.cfg.rx_buffers,
                "seed {seed}: node {i} leaked receive buffers"
            );
        }
    }
}

/// Graceful stripe degradation: a lane that goes dark mid-run is
/// remapped onto a live neighbour, and because the stripe preserves the
/// *logical* lane, four-way reassembly absorbs the timing shift with
/// zero loss — no retransmission machinery needed.
#[test]
fn lane_outage_with_remap_degrades_gracefully() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 8000;
    cfg.messages = 10;
    cfg.reassembly = ReassemblyMode::FourWay { lanes: 4 };
    cfg.sim.faults = FaultPlan {
        outages: vec![LaneOutage {
            lane: 2,
            from: SimTime::from_us(200),
            until: SimTime::from_us(1200),
        }],
        remap_on_outage: true,
        ..FaultPlan::default()
    };
    let tb = run_pings(cfg);
    assert!(tb.done, "remap must keep the connection alive");
    assert_eq!(tb.verify_failures, 0);
    let snap = tb.snapshot();
    let sum = |counter: &str| -> u64 {
        (0..tb.nodes.len())
            .map(|i| snap.counters[&format!("node{i}.{counter}")])
            .sum()
    };
    assert!(
        sum("link.cells_remapped") > 0,
        "the outage window must have remapped traffic"
    );
    assert_eq!(sum("link.cells_dropped"), 0, "remap is loss-free");
    assert_eq!(
        sum("board.rx.pdus_crc_failed"),
        0,
        "logical-lane remap must be invisible to reassembly"
    );
}

/// Bounded switch output queues under fan-in: two senders overload one
/// receiver port block, the switch sheds the overflow (counted), and
/// reliable mode recovers every shed message.
#[test]
fn switch_overflow_is_counted_and_recovered() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 8 * 1024;
    cfg.messages = 3; // per sender
    cfg.reassembly = ReassemblyMode::FourWay { lanes: 4 };
    cfg.reliable = true;
    cfg.reassembly_timeout = Some(SimDuration::from_us(1000));
    cfg.sim.faults.switch_max_queue_cells = Some(12);
    let mut sim = Scenario::Incast { senders: 2 }.launch(cfg);
    loop {
        if sim.model.done || sim.now() > SimTime::from_secs(30) {
            break;
        }
        if !sim.step() {
            break;
        }
    }
    let m = &sim.model;
    assert!(m.done, "retransmission must recover the shed messages");
    assert_eq!(m.verify_failures, 0);
    let snap = m.snapshot();
    assert!(
        snap.counter("fabric.switch.overflow_dropped") > 0,
        "the 2:1 fan-in must overflow a 12-cell output queue"
    );
    assert_eq!(snap.counter("node2.stack.delivered"), 6, "2 senders x 3");
}

/// A crossed ack must not collapse the retransmit backoff. One point
/// fault per direction: the data PDU's first lane-0 cell is dropped
/// (forcing an RTO retransmit), and — because the plan is installed on
/// every link with its own per-lane counters — the receiver's first ack
/// loses *its* first lane-0 cell too. The sender retransmits again, the
/// receiver suppresses the duplicate and re-acks, and that re-ack is for
/// a datagram with `retries > 0`: not a clean RTT sample, so the carried
/// backoff must survive it rather than snap back to `RTO_INITIAL`.
#[test]
fn crossed_ack_does_not_reset_rto_backoff() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 1024;
    cfg.messages = 1;
    cfg.reliable = true;
    cfg.reassembly = ReassemblyMode::FourWay { lanes: 4 };
    cfg.reassembly_timeout = Some(SimDuration::from_us(1000));
    cfg.sim.faults.point_faults = vec![PointFault {
        lane: 0,
        nth: 0,
        kind: PointFaultKind::Drop,
    }];
    let mut sim = Scenario::Incast { senders: 1 }.launch(cfg);
    loop {
        if sim.model.done || sim.now() > SimTime::from_secs(30) {
            break;
        }
        if !sim.step() {
            break;
        }
    }
    // `done` fires at delivery; keep running so the lost-ack retransmit
    // chain (retransmit -> dup -> forced re-ack) plays out.
    sim.run_until(SimTime::from_secs(60));
    let m = &sim.model;
    assert!(m.done, "the retransmit chain must deliver the message");
    assert_eq!(m.verify_failures, 0);

    let sender = &m.nodes[0].stack;
    let snap = m.snapshot();
    assert!(
        snap.counters["node0.stack.retransmits"] >= 2,
        "one data retransmit and one ack-loss retransmit"
    );
    assert!(
        snap.counters["node1.stack.dup_datagrams"] >= 1,
        "the ack-loss retransmit must arrive as a duplicate"
    );
    assert!(
        !sender.has_unacked(),
        "the crossed re-ack must still clear the pending datagram"
    );
    // The regression: the re-ack used to reset the backoff as if it were
    // a clean sample. Two expiry rounds doubled 2ms -> 8ms, and the ack
    // of a retried datagram must leave that carried value alone.
    let rto = sender.current_rto(1).expect("sender opened a window to 1");
    assert!(
        rto > RTO_INITIAL,
        "backoff must survive the crossed ack (rto {rto:?})"
    );
}

/// Give-up must not leak: when a lane stays dark (no remap) past the
/// whole retry budget, the sender abandons the datagram and frees its
/// packets, and every partially-reassembled copy the receiver collected
/// is reaped back onto the free ring. The run never completes — that is
/// the point — but the buffer ledger still balances on both ends.
#[test]
fn give_up_frees_sender_packets_and_conserves_receive_buffers() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 4096;
    cfg.messages = 1;
    cfg.reliable = true;
    cfg.reassembly = ReassemblyMode::FourWay { lanes: 4 };
    cfg.reassembly_timeout = Some(SimDuration::from_us(1000));
    // Lane 0 is dark from the first cell until well past the 16-retry
    // backoff chain (2+4+...+64ms capped, ~766ms total), and outage
    // remap is off: every copy of the PDU loses its lane-0 stripe.
    cfg.sim.faults = FaultPlan {
        outages: vec![LaneOutage {
            lane: 0,
            from: SimTime::ZERO,
            until: SimTime::from_secs(2),
        }],
        remap_on_outage: false,
        ..FaultPlan::default()
    };
    let tb = run_pings_to_quiescence(cfg);
    assert!(!tb.done, "a permanently dark lane must starve the transfer");
    assert_eq!(tb.verify_failures, 0, "nothing torn may be delivered");

    let snap = tb.snapshot();
    assert!(
        snap.counters["node0.stack.gave_up"] >= 1,
        "the retry budget must exhaust into a give-up"
    );
    assert!(
        !tb.nodes[0].stack.has_unacked(),
        "give-up must free the pending datagram and its packets"
    );
    assert!(
        snap.counters["node1.stack.delivered"] == 0,
        "no three-lane PDU may complete"
    );
    assert!(
        snap.counters["node1.board.rx.pdus_dropped_timeout"] >= 1,
        "the reap sweep must reclaim the partial reassemblies"
    );
    for (i, n) in tb.nodes.iter().enumerate() {
        assert_eq!(
            n.rx.free_ring(n.driver.page).len() as usize,
            tb.cfg.rx_buffers,
            "node {i} leaked receive buffers across give-up"
        );
    }
}

#[test]
fn buffers_are_conserved_across_a_long_run() {
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 50_000;
    cfg.messages = 10;
    let tb = run_pings(cfg);
    assert!(tb.done);
    for n in &tb.nodes {
        // All provisioned buffers are back in the free ring once the run
        // quiesces: none leaked in reassembly or delivery paths.
        assert_eq!(
            n.rx.free_ring(n.driver.page).len() as usize,
            tb.cfg.rx_buffers,
            "receive buffers must be conserved"
        );
    }
}
