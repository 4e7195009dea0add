//! A stripe crossing a real switch with real cross traffic — the AURORA
//! deployment scenario behind §2.6's third skew source.
//!
//! Four lanes of a striped PDU traverse four distinct switch ports. Ports
//! 1 and 3 also carry bursty on/off background traffic, so the stripe's
//! lanes pick up *different* queueing delays — the skew "it was not
//! within our power to eliminate". The four-way reassembler absorbs it;
//! a coordinated switch would remove it by making every lane as slow as
//! the busiest.

use osiris::atm::sar::{FramingMode, Reassembler, ReassemblyMode, SegmentUnit, Segmenter};
use osiris::atm::switch::{Switch, SwitchSpec};
use osiris::atm::traffic::{TrafficModel, TrafficSource};
use osiris::atm::Vci;
use osiris::sim::{Registry, SimDuration, SimTime};

fn main() {
    for (label, spec) in [
        (
            "uncoordinated switch (the real AURORA)",
            SwitchSpec::sts3c_16port(),
        ),
        (
            "coordinated ports (the rejected design)",
            SwitchSpec::coordinated(),
        ),
    ] {
        let reg = Registry::new();
        let mut sw = Switch::with_probe(spec, &reg.probe("fabric"));
        // Lane l leaves through port l (the stripe crosses distinct ports).
        sw.route_group(Vci(0), 0, 4);

        // Bursty cross traffic hammers ports 1 and 3.
        for (port, seed) in [(1usize, 11u64), (3, 13)] {
            let mut src = TrafficSource::new(
                TrafficModel::OnOff {
                    mean_burst: 25,
                    mean_gap: 30,
                },
                155_520_000,
                SimTime::ZERO,
                seed,
            );
            for at in src.arrivals_until(SimTime::from_ms(1)) {
                sw.background_load(at, port, 1);
            }
        }

        // One 30-cell striped PDU enters mid-storm.
        let data: Vec<u8> = (0..44 * 30).map(|i| (i % 251) as u8).collect();
        let cells = Segmenter {
            framing: FramingMode::FourWay { lanes: 4 },
            unit: SegmentUnit::Pdu,
        }
        .segment(Vci(0), &[&data]);
        let mut arrivals = Vec::new();
        for (i, cell) in cells.into_iter().enumerate() {
            let t = SimTime::from_us(300) + SimDuration::from_ns(700 * i as u64);
            let (port, dep, _) = sw.forward(t, &cell, i % 4).expect("routed");
            arrivals.push((dep, port, cell));
        }
        arrivals.sort_by_key(|&(at, _, _)| at);

        // Per-lane queueing the stripe experienced.
        print!("{label}: per-port queueing =");
        let snap = reg.snapshot();
        for p in 0..4 {
            let ps = snap.counters[&format!("fabric.switch.port{p}.queueing_ps")];
            print!(" {:.0}us", SimDuration::from_ps(ps).as_us_f64());
        }
        let first = arrivals.first().unwrap().0;
        let last = arrivals.last().unwrap().0;
        println!("  (PDU spread {:.0} us)", last.since(first).as_us_f64());

        // Reassemble with strategy 2.
        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, true);
        let mut done = None;
        for (_, lane, cell) in &arrivals {
            r.receive(*lane, cell).unwrap();
            done = r.take_completed().or(done);
        }
        let pdu = done.expect("PDU completes");
        assert!(pdu.crc_ok);
        assert_eq!(pdu.data.unwrap(), data);
        println!("  four-way reassembly: complete, CRC ok, data intact\n");
    }
    println!("Lesson (§2.6): live with the skew and reassemble around it —");
    println!("coordination equalises delay only by giving every lane the worst one.");
}
