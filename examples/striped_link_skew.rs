//! Striping and skew: the §2.6 story, end to end.
//!
//! The OSIRIS link reaches 622 Mbps by striping cells over four 155 Mbps
//! lanes — and striping introduces *skew*, a bounded misordering in which
//! each lane stays FIFO while lanes shift against each other. This
//! example walks the paper's whole argument:
//!
//! 1. a naive in-order reassembler silently corrupts PDUs under skew —
//!    caught only by the (real) AAL CRC-32;
//! 2. strategy 1 (sequence numbers) and strategy 2 (four concurrent
//!    AAL5 reassemblies) both deliver correct data under the same skew;
//! 3. skew destroys the double-cell DMA combining optimisation — the
//!    serious disadvantage §2.6 ends on.

use osiris::atm::sar::{FramingMode, ReassemblyMode, SegmentUnit, Segmenter};
use osiris::atm::stripe::{SkewConfig, StripedLink};
use osiris::atm::{LinkSpec, Vci};
use osiris::config::TestbedConfig;
use osiris::experiments::skew_vs_merging;
use osiris::host::machine::MachineSpec;
use osiris::sim::SimTime;

/// Pushes one PDU through a (possibly skewed) striped link and collects
/// the cells in arrival order with their lanes.
fn send_over(
    skew: SkewConfig,
    framing: FramingMode,
    data: &[u8],
) -> Vec<(usize, osiris::atm::Cell)> {
    let seg = Segmenter {
        framing,
        unit: SegmentUnit::Pdu,
    };
    let cells = seg.segment(Vci(1), &[data]);
    let mut link = StripedLink::new(LinkSpec::sts3c_back_to_back(), &skew);
    let mut arrivals: Vec<(osiris::sim::SimTime, usize, osiris::atm::Cell)> = Vec::new();
    for (i, mut cell) in cells.into_iter().enumerate() {
        if let Some((lane, at)) = link.send_cell(SimTime::ZERO, i as u32, &mut cell) {
            arrivals.push((at, lane, cell));
        }
    }
    // Stable sort by arrival time keeps per-lane FIFO order intact.
    arrivals.sort_by_key(|&(at, _, _)| at);
    arrivals
        .into_iter()
        .map(|(_, lane, cell)| (lane, cell))
        .collect()
}

fn reassemble(mode: ReassemblyMode, arrivals: &[(usize, osiris::atm::Cell)]) -> (bool, Vec<u8>) {
    let mut r = osiris::atm::Reassembler::new(mode, 1 << 20, true);
    let mut out = None;
    for (lane, cell) in arrivals {
        if r.receive(*lane, cell).is_ok() {
            out = r.take_completed().or(out);
        }
    }
    match out {
        Some(p) => (p.crc_ok, p.data.unwrap_or_default()),
        None => (false, Vec::new()),
    }
}

fn main() {
    let data: Vec<u8> = (0..44 * 40).map(|i| (i % 251) as u8).collect();
    let skew = SkewConfig::mux_skew();

    // 1. In-order reassembly under skew: corrupted, CRC catches it.
    let arrivals = send_over(skew.clone(), FramingMode::EndOfPdu, &data);
    let (crc_ok, got) = reassemble(ReassemblyMode::InOrder, &arrivals);
    println!(
        "in-order reassembly under mux skew: crc_ok={crc_ok}, data intact={}",
        got == data
    );
    assert!(!crc_ok, "the CRC must flag misordered assembly");

    // 2a. Strategy 1: AAL sequence numbers place each cell.
    let (crc_ok, got) = reassemble(ReassemblyMode::SeqNum { max_cells: 4096 }, &arrivals);
    println!(
        "sequence-number reassembly:          crc_ok={crc_ok}, data intact={}",
        got == data
    );
    assert!(crc_ok && got == data);

    // 2b. Strategy 2: four concurrent AAL5 reassemblies.
    let arrivals = send_over(skew, FramingMode::FourWay { lanes: 4 }, &data);
    let (crc_ok, got) = reassemble(ReassemblyMode::FourWay { lanes: 4 }, &arrivals);
    println!(
        "four-way (per-lane AAL5) reassembly: crc_ok={crc_ok}, data intact={}",
        got == data
    );
    assert!(crc_ok && got == data);

    // 3. The cost: double-cell combining collapses.
    let (aligned, skewed) = skew_vs_merging(MachineSpec::ds5000_200());
    println!(
        "\ndouble-cell DMA merge ratio: {aligned:.2} with aligned lanes, {skewed:.2} under skew"
    );
    let mut cfg = TestbedConfig::ds5000_200_udp();
    cfg.msg_size = 16 * 1024;
    let _ = cfg; // (see `cargo run -p osiris-bench --bin lessons` for the sweep)
    println!("→ skew trades ~20% of the DMA-throughput gain for link scalability (§2.6).");
}
