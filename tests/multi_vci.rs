//! The §3.1 regime: "each of the potentially hundreds of paths
//! (connections) on a given host is bound to a VCI". The receive
//! processor must keep per-VCI reassembly state and demultiplex early,
//! even when cells from many connections interleave arbitrarily.

use osiris::atm::sar::{FramingMode, SegmentUnit, Segmenter};
use osiris::atm::Vci;
use osiris::board::descriptor::Descriptor;
use osiris::board::dpram::DpramLayout;
use osiris::board::rx::{RxConfig, RxProcessor};
use osiris::host::machine::{HostMachine, MachineSpec};
use osiris::mem::PhysAddr;
use osiris::sim::{Registry, SimDuration, SimRng, SimTime};

#[test]
fn sixty_interleaved_connections_reassemble_independently() {
    let mut host = HostMachine::boot(MachineSpec::ds5000_200(), 5);
    let reg = Registry::new();
    let mut rx = RxProcessor::with_probe(
        RxConfig {
            buffer_bytes: 4096,
            ..RxConfig::paper_default()
        },
        DpramLayout::paper_default(),
        &reg.probe("board"),
    );
    // One shared kernel page with a deep free ring (cell interleaving
    // means many PDUs are in flight at once).
    for i in 0..60u64 {
        rx.free_ring_mut(0)
            .push(Descriptor::tx(
                PhysAddr(0x10_0000 + i * 0x1000),
                4096,
                Vci(0),
                false,
            ))
            .unwrap();
    }

    // 60 connections, each sending one distinct message.
    let n_conn = 60u16;
    let seg = Segmenter {
        framing: FramingMode::EndOfPdu,
        unit: SegmentUnit::Pdu,
    };
    let mut streams: Vec<(usize, Vec<osiris::atm::Cell>)> = (0..n_conn)
        .map(|c| {
            let data: Vec<u8> = (0..800)
                .map(|i| ((i as u32 * (c as u32 + 3)) % 251) as u8)
                .collect();
            (
                0usize,
                seg.segment(Vci(100 + c), &data.chunks(800).collect::<Vec<_>>()),
            )
        })
        .collect();

    // Interleave: repeatedly pick a random stream and deliver its next cell
    // (per-VCI cell order preserved — VCIs don't reorder on one link).
    let mut rng = SimRng::new(99);
    let mut t = SimTime::ZERO;
    let mut completed = 0u64;
    let total_cells: usize = streams.iter().map(|(_, cells)| cells.len()).sum();
    for _ in 0..total_cells {
        // Pick a stream with cells remaining.
        let live: Vec<usize> = (0..streams.len())
            .filter(|&i| streams[i].0 < streams[i].1.len())
            .collect();
        let pick = live[rng.gen_range(live.len() as u64) as usize];
        let (pos, cells) = &mut streams[pick];
        let cell = cells[*pos].clone();
        *pos += 1;
        let out = rx.receive_cell(
            t,
            0,
            &cell,
            &mut host.mem_sys,
            &mut host.cache,
            &mut host.phys,
        );
        if let Some(info) = out.completed {
            assert!(info.crc_ok, "VCI {:?} failed CRC", info.vci);
            assert!(!info.dropped);
            assert_eq!(info.len, 800);
            completed += 1;
        }
        t += SimDuration::from_ns(700);
    }
    assert_eq!(
        completed, n_conn as u64,
        "every connection's message completes"
    );
    let snap = reg.snapshot();
    assert_eq!(snap.counters["board.rx.pdus_delivered"], n_conn as u64);
    assert_eq!(snap.counters["board.rx.cells_rejected"], 0);

    // Each delivered buffer holds exactly its own connection's bytes.
    let mut seen_vcis = std::collections::HashSet::new();
    let ring = rx.rx_ring_mut(0);
    while let Some((desc, _)) = ring.pop() {
        assert!(desc.eop);
        assert!(!desc.err);
        seen_vcis.insert(desc.vci);
        let got = host.phys.read(desc.addr, desc.len as usize);
        let c = desc.vci.0 - 100;
        let expect: Vec<u8> = (0..800)
            .map(|i| ((i as u32 * (c as u32 + 3)) % 251) as u8)
            .collect();
        assert_eq!(got, &expect[..], "VCI {} data intact", desc.vci.0);
    }
    assert_eq!(seen_vcis.len(), n_conn as usize);
}

#[test]
fn early_demux_spreads_connections_over_pages() {
    // 15 ADC-style pages, 15 connections, one per page; interleaved cells
    // land on the right receive ring with no cross-talk.
    let mut host = HostMachine::boot(MachineSpec::dec3000_600(), 6);
    let mut rx = RxProcessor::new(
        RxConfig {
            buffer_bytes: 4096,
            ..RxConfig::paper_default()
        },
        DpramLayout::paper_default(),
    );
    for page in 1..16usize {
        rx.bind_vci(Vci(200 + page as u16), page);
        for b in 0..2u64 {
            rx.free_ring_mut(page)
                .push(Descriptor::tx(
                    PhysAddr(0x20_0000 + (page as u64 * 8 + b) * 0x1000),
                    4096,
                    Vci(0),
                    false,
                ))
                .unwrap();
        }
    }
    let seg = Segmenter {
        framing: FramingMode::EndOfPdu,
        unit: SegmentUnit::Pdu,
    };
    let mut all: Vec<(usize, osiris::atm::Cell)> = Vec::new();
    for page in 1..16usize {
        let data = vec![page as u8; 500];
        for (i, c) in seg
            .segment(Vci(200 + page as u16), &[&data])
            .into_iter()
            .enumerate()
        {
            all.push((i, c));
        }
    }
    // Round-robin across connections (cells of one VCI stay ordered).
    all.sort_by_key(|&(i, _)| i);
    let mut t = SimTime::ZERO;
    for (_, cell) in &all {
        rx.receive_cell(
            t,
            0,
            cell,
            &mut host.mem_sys,
            &mut host.cache,
            &mut host.phys,
        );
        t += SimDuration::from_ns(700);
    }
    for page in 1..16usize {
        assert_eq!(
            rx.rx_ring(page).len(),
            1,
            "page {page} must hold exactly its PDU"
        );
        let desc = *rx.rx_ring(page).peek().unwrap();
        assert_eq!(desc.vci, Vci(200 + page as u16));
        assert_eq!(host.phys.read(desc.addr, 500), &vec![page as u8; 500][..]);
    }
    assert_eq!(rx.rx_ring(0).len(), 0, "nothing leaks onto the kernel page");
}
