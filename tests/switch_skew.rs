//! End-to-end §2.6 scenario with a real switch in the path: the third
//! skew source (per-port queueing) produced by actual cross traffic, not
//! by injected jitter.

use osiris::atm::sar::{FramingMode, Reassembler, ReassemblyMode, SegmentUnit, Segmenter};
use osiris::atm::switch::{Switch, SwitchSpec};
use osiris::atm::Vci;
use osiris::sim::{Registry, SimDuration, SimTime};

/// Sends `data` as one striped PDU through four switch ports (one per
/// lane), with `cross` cells of background load on port 1, and returns
/// the arrivals in departure order.
fn via_switch(
    data: &[u8],
    cross: u64,
    coordinated: bool,
    framing: FramingMode,
) -> Vec<(usize, osiris::atm::Cell)> {
    let spec = if coordinated {
        SwitchSpec::coordinated()
    } else {
        SwitchSpec::sts3c_16port()
    };
    let mut sw = Switch::new(spec);
    // Lane l leaves through port l (the stripe crosses distinct ports).
    sw.route_group(Vci(0), 0, 4);
    sw.background_load(SimTime::ZERO, 1, cross);

    let cells = Segmenter {
        framing,
        unit: SegmentUnit::Pdu,
    }
    .segment(Vci(0), &[data]);
    let mut arrivals = Vec::new();
    for (i, cell) in cells.into_iter().enumerate() {
        let t = SimTime::ZERO + SimDuration::from_ns(700 * i as u64); // wire pacing
        let (port, departure, _) = sw.forward(t, &cell, i % 4).expect("routed");
        arrivals.push((departure, port, cell));
    }
    arrivals.sort_by_key(|&(at, _, _)| at);
    arrivals.into_iter().map(|(_, lane, c)| (lane, c)).collect()
}

fn reassemble(arrivals: &[(usize, osiris::atm::Cell)]) -> Option<(bool, Vec<u8>)> {
    let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, true);
    let mut out = None;
    for (lane, cell) in arrivals {
        r.receive(*lane, cell).unwrap();
        out = r.take_completed().or(out);
    }
    out.map(|p| (p.crc_ok, p.data.unwrap_or_default()))
}

#[test]
fn switch_cross_traffic_skews_but_fourway_recovers() {
    let data: Vec<u8> = (0..44 * 25).map(|i| (i % 247) as u8).collect();
    let arrivals = via_switch(&data, 30, false, FramingMode::FourWay { lanes: 4 });
    // The loaded port's cells arrive late: global order is broken.
    let lanes_in_order: Vec<usize> = arrivals.iter().map(|&(l, _)| l).collect();
    let round_robin: Vec<usize> = (0..arrivals.len()).map(|i| i % 4).collect();
    assert_ne!(
        lanes_in_order, round_robin,
        "cross traffic must reorder the stripe"
    );
    // Four-way reassembly still yields the exact bytes.
    let (crc_ok, got) = reassemble(&arrivals).expect("completes");
    assert!(crc_ok);
    assert_eq!(got, data);
}

#[test]
fn unloaded_switch_preserves_stripe_order() {
    let data = vec![7u8; 44 * 12];
    let arrivals = via_switch(&data, 0, false, FramingMode::FourWay { lanes: 4 });
    let lanes: Vec<usize> = arrivals.iter().map(|&(l, _)| l).collect();
    let round_robin: Vec<usize> = (0..arrivals.len()).map(|i| i % 4).collect();
    assert_eq!(lanes, round_robin);
    let (crc_ok, got) = reassemble(&arrivals).unwrap();
    assert!(crc_ok);
    assert_eq!(got, data);
}

#[test]
fn four_sender_incast_preserves_per_lane_fifo_and_per_vci_reassembly() {
    // Four senders stripe one PDU each, on distinct VCIs, into the SAME
    // receiver port block (ports 0..4) — the incast shape the scenario
    // layer builds. Contention queues cells, but two invariants must
    // survive: each output port serves its cells in offer order (per-lane
    // FIFO), and per-VCI reassembly on the receiver never mixes bytes
    // across VCIs.
    use std::collections::HashMap;

    let reg = Registry::new();
    let mut sw = Switch::with_probe(SwitchSpec::sts3c_16port(), &reg.probe("fabric"));
    for s in 0..4u16 {
        sw.route_group(Vci(100 + s), 0, 4);
    }
    let seg = Segmenter {
        framing: FramingMode::FourWay { lanes: 4 },
        unit: SegmentUnit::Pdu,
    };
    // Distinct byte patterns per sender so any interleaving corrupts a CRC
    // or a payload comparison.
    let payloads: Vec<Vec<u8>> = (0..4usize)
        .map(|s| {
            (0..44 * 20)
                .map(|i| ((i * 7 + s * 41) % 249) as u8)
                .collect()
        })
        .collect();

    // Offer cells in global wall-clock order, as concurrent senders would.
    let mut offers = Vec::new();
    for (s, data) in payloads.iter().enumerate() {
        for (i, cell) in seg
            .segment(Vci(100 + s as u16), &[data.as_slice()])
            .into_iter()
            .enumerate()
        {
            let t = SimTime::ZERO + SimDuration::from_ns(700 * i as u64);
            offers.push((t, s, i % 4, cell));
        }
    }
    offers.sort_by_key(|&(t, s, _, _)| (t, s));

    // (port, offer_seq, departure, lane, cell)
    let mut arrivals = Vec::new();
    for (seq, (t, _, lane, cell)) in offers.into_iter().enumerate() {
        let (port, at, _) = sw.forward(t, &cell, lane).expect("routed");
        assert_eq!(port, lane, "stripe lane must map onto its block port");
        arrivals.push((port, seq, at, lane, cell));
    }

    // Per-lane FIFO: on every output port, departures are non-decreasing
    // in offer order.
    for port in 0..4 {
        let deps: Vec<SimTime> = arrivals
            .iter()
            .filter(|a| a.0 == port)
            .map(|a| a.2)
            .collect();
        assert!(!deps.is_empty());
        assert!(
            deps.windows(2).all(|w| w[0] <= w[1]),
            "port {port} reordered cells"
        );
    }
    // Four senders on one port block must actually contend.
    let snap = reg.snapshot();
    let queued: u64 = (0..4)
        .map(|p| snap.counters[&format!("fabric.switch.port{p}.queueing_ps")])
        .sum();
    assert!(queued > 0, "incast must queue at the shared ports");

    // Receiver side: demux by VCI (as the board does) into per-VCI
    // four-way reassemblers, feeding cells in departure order.
    arrivals.sort_by_key(|a| (a.2, a.1));
    let mut reasm: HashMap<Vci, Reassembler> = HashMap::new();
    let mut done: HashMap<Vci, (bool, Vec<u8>)> = HashMap::new();
    for (_, _, _, lane, cell) in &arrivals {
        let vci = cell.header.vci;
        let r = reasm.entry(vci).or_insert_with(|| {
            Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, true)
        });
        r.receive(*lane, cell).unwrap();
        if let Some(p) = r.take_completed() {
            done.insert(vci, (p.crc_ok, p.data.unwrap_or_default()));
        }
    }
    assert_eq!(done.len(), 4, "every sender's PDU must complete");
    for (s, data) in payloads.iter().enumerate() {
        let (crc_ok, got) = &done[&Vci(100 + s as u16)];
        assert!(crc_ok, "VCI {} CRC failed: streams interleaved", 100 + s);
        assert_eq!(got, data, "VCI {} payload mixed across VCIs", 100 + s);
    }
}

#[test]
fn coordinated_switch_removes_skew_at_a_price() {
    let data = vec![3u8; 44 * 16];
    // Same cross traffic, coordinated port group, plain AAL5 framing —
    // exactly the world the coordinated switch was meant to preserve.
    let arrivals = via_switch(&data, 30, true, FramingMode::EndOfPdu);
    let lanes: Vec<usize> = arrivals.iter().map(|&(l, _)| l).collect();
    let round_robin: Vec<usize> = (0..arrivals.len()).map(|i| i % 4).collect();
    assert_eq!(lanes, round_robin, "coordination must restore global order");
    // Even a naive in-order reassembler now works (the price was paid in
    // delay: every lane waited out the loaded port).
    let mut r = Reassembler::new(ReassemblyMode::InOrder, 1 << 20, true);
    let mut out = None;
    for (_, cell) in &arrivals {
        r.receive(0, cell).unwrap();
        out = r.take_completed().or(out);
    }
    let p = out.expect("completes in order");
    assert!(p.crc_ok);
    assert_eq!(p.data.unwrap(), data);
}
