//! Property tests over the core data structures and invariants.
//!
//! Each property runs 64 seeded cases drawn with `SimRng`; a failing case
//! prints its seed, and `SimRng::new(seed)` replays it.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use osiris::atm::sar::{CellDisposition, FramingMode, Reassembler, ReassemblyMode, Segmenter};
use osiris::atm::stripe::{SkewConfig, StripedLink};
use osiris::atm::{crc32, Cell, LinkSpec, Vci};
use osiris::board::descriptor::{DescRing, Descriptor};
use osiris::board::dma::{plan_dma, DmaMode};
use osiris::host::machine::internet_checksum;
use osiris::mem::{AddressSpace, AllocPolicy, FrameAllocator, PhysAddr, PhysMemory, VirtAddr};
use osiris::proto::frag::fragment_layout;
use osiris::proto::msg::Message;
use osiris::proto::wire::{IpHeader, UdpHeader, IPPROTO_UDP};
use osiris::sim::{SimDuration, SimRng, SimTime};

/// Cases per property.
const CASES: u64 = 64;

/// Runs `property` on `CASES` generators seeded `base`, `base + 1`, …,
/// naming the seed of the first case that panics.
fn for_each_case(base: u64, property: impl Fn(&mut SimRng)) {
    for seed in base..base + CASES {
        if let Err(e) = catch_unwind(AssertUnwindSafe(|| property(&mut SimRng::new(seed)))) {
            eprintln!("property failed on seed {seed:#x}");
            resume_unwind(e);
        }
    }
}

/// A uniform value in `lo..hi`.
fn range(rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
    lo + rng.gen_range(hi - lo)
}

/// `lo..hi` uniformly random bytes.
fn bytes(rng: &mut SimRng, lo: u64, hi: u64) -> Vec<u8> {
    let n = range(rng, lo, hi);
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

/// Writes `cell`'s valid bytes at its disposition's offset in the buffer
/// of the PDU it names (`placed[pdu]`), the way the board places them.
fn place(placed: &mut Vec<Vec<u8>>, d: CellDisposition, cell: &Cell) {
    let pdu = d.pdu as usize;
    if placed.len() <= pdu {
        placed.resize(pdu + 1, Vec::new());
    }
    let (at, bytes) = (d.offset as usize, cell.data_bytes());
    let buf = &mut placed[pdu];
    if buf.len() < at + bytes.len() {
        buf.resize(at + bytes.len(), 0);
    }
    buf[at..at + bytes.len()].copy_from_slice(bytes);
}

/// The lock-free ring is a FIFO for any interleaving of pushes/pops.
#[test]
fn desc_ring_matches_a_vecdeque() {
    for_each_case(0x1000, |rng| {
        let ops: Vec<bool> = (0..range(rng, 1, 200)).map(|_| rng.gen_bool(0.5)).collect();
        let size = range(rng, 2, 16) as u32;
        let mut ring = DescRing::new(size);
        let mut model = std::collections::VecDeque::new();
        let mut counter = 0u32;
        for push in ops {
            if push {
                let d = Descriptor::tx(PhysAddr(counter as u64 * 64), counter, Vci(1), false);
                counter += 1;
                match ring.push(d) {
                    Ok(_) => model.push_back(d),
                    Err(_) => assert!(ring.is_full()),
                }
            } else {
                match ring.pop() {
                    Some((d, _)) => assert_eq!(Some(d), model.pop_front()),
                    None => assert!(model.is_empty()),
                }
            }
            assert_eq!(ring.len() as usize, model.len());
            assert_eq!(ring.is_empty(), model.is_empty());
        }
    });
}

/// Segmentation followed by in-order reassembly is the identity, for any
/// buffer split.
#[test]
fn sar_roundtrip_in_order() {
    for_each_case(0x2000, |rng| {
        let data = bytes(rng, 1, 6000);
        let split = (range(rng, 0, 6000) as usize).min(data.len());
        let (a, b) = data.split_at(split);
        let bufs: Vec<&[u8]> = [a, b].into_iter().filter(|s| !s.is_empty()).collect();
        let cells = Segmenter {
            framing: FramingMode::EndOfPdu,
        }
        .segment(Vci(3), &bufs);
        let mut r = Reassembler::new(ReassemblyMode::InOrder, 1 << 20);
        let (mut placed, mut out) = (Vec::new(), None);
        for c in &cells {
            place(&mut placed, r.receive(0, c).unwrap(), c);
            out = r.take_completed().or(out);
        }
        let p = out.expect("must complete");
        assert!(p.crc_ok);
        assert_eq!(p.len as usize, data.len());
        assert_eq!(placed[p.pdu as usize], data);
        assert_eq!(r.in_flight(), 0);
    });
}

/// Four-way reassembly is the identity under ANY skew in the
/// per-lane-FIFO class (generated by a real skewed striped link).
#[test]
fn sar_roundtrip_under_arbitrary_lane_skew() {
    for_each_case(0x3000, |rng| {
        let data = bytes(rng, 1, 5000);
        let skew = SkewConfig {
            lane_offsets: (0..4)
                .map(|_| SimDuration::from_us(range(rng, 0, 30)))
                .collect(),
            queue_jitter_max: SimDuration::from_us(range(rng, 0, 25)),
        };
        let seed = rng.next_u64();
        let cells = Segmenter {
            framing: FramingMode::FourWay { lanes: 4 },
        }
        .segment(Vci(1), &[&data]);
        let mut link = StripedLink::new(LinkSpec::sts3c_back_to_back(), &skew);
        link.reseed(seed);
        let mut arrivals = Vec::new();
        for (i, mut c) in cells.into_iter().enumerate() {
            let (lane, at) = link.send_cell(SimTime::ZERO, i as u32, &mut c).unwrap();
            arrivals.push((at, lane, c));
        }
        arrivals.sort_by_key(|&(at, _, _)| at); // stable: preserves lane FIFO
        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20);
        let (mut placed, mut out) = (Vec::new(), None);
        for (_, lane, c) in &arrivals {
            place(&mut placed, r.receive(*lane, c).unwrap(), c);
            out = r.take_completed().or(out);
        }
        let p = out.expect("must complete under bounded skew");
        assert!(p.crc_ok);
        assert_eq!(p.len as usize, data.len());
        assert_eq!(placed[p.pdu as usize], data);
    });
}

/// Back-to-back PDUs stay correctly framed under skew — for PDUs at
/// least as long as the stripe is wide. (Shorter PDUs under deep skew
/// are ambiguous by lane position alone; the per-VCI PDU tag resolves
/// them — see `short_pdu_under_deep_skew_resolves_via_pdu_tag`.)
#[test]
fn sar_multiple_pdus_under_skew() {
    for_each_case(0x4000, |rng| {
        let lens: Vec<usize> = (0..range(rng, 1, 5))
            .map(|_| range(rng, 133, 2000) as usize)
            .collect();
        let seg = Segmenter {
            framing: FramingMode::FourWay { lanes: 4 },
        };
        let skew = SkewConfig::switch_queueing(SimDuration::from_us(12));
        let mut link = StripedLink::new(LinkSpec::sts3c_back_to_back(), &skew);
        link.reseed(rng.next_u64());
        let mut arrivals = Vec::new();
        let mut t = SimTime::ZERO;
        let datasets: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(k, &l)| vec![(k + 1) as u8; l])
            .collect();
        for (k, data) in datasets.iter().enumerate() {
            for (i, mut c) in seg
                .segment_numbered(Vci(1), k as u16, &[data])
                .into_iter()
                .enumerate()
            {
                let (lane, at) = link.send_cell(t, i as u32, &mut c).unwrap();
                arrivals.push((at, lane, c));
            }
            t += SimDuration::from_us(5);
        }
        arrivals.sort_by_key(|&(at, _, _)| at);
        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20);
        let (mut placed, mut done) = (Vec::new(), Vec::new());
        for (_, lane, c) in &arrivals {
            place(&mut placed, r.receive(*lane, c).unwrap(), c);
            if let Some(p) = r.take_completed() {
                done.push(p);
            }
        }
        assert_eq!(done.len(), datasets.len());
        done.sort_by_key(|p| p.pdu);
        for (p, data) in done.iter().zip(&datasets) {
            assert!(p.crc_ok);
            assert_eq!(p.len as usize, data.len());
            assert_eq!(&placed[p.pdu as usize], data);
        }
    });
}

/// DMA plans conserve bytes, never cross pages, and respect caps.
#[test]
fn dma_plans_are_sound() {
    for_each_case(0x5000, |rng| {
        let addr = range(rng, 0, 100_000);
        let len = range(rng, 1, 40_000) as u32;
        let modes = [DmaMode::SingleCell, DmaMode::DoubleCell, DmaMode::Arbitrary];
        let mode = modes[rng.gen_range(3) as usize];
        let plan: Vec<_> = plan_dma(mode, PhysAddr(addr), len, 4096).collect();
        assert_eq!(plan.iter().map(|x| x.len as u64).sum::<u64>(), len as u64);
        let mut cur = addr;
        for x in &plan {
            assert_eq!(x.addr.0, cur);
            cur += x.len as u64;
            assert_eq!(x.addr.0 / 4096, (x.addr.0 + x.len as u64 - 1) / 4096);
            if let Some(cap) = mode.max_len() {
                assert!(x.len <= cap);
            }
        }
    });
}

/// The message tool preserves the byte-position → address mapping
/// through any sequence of header pushes, pops and splits.
#[test]
fn message_tool_preserves_layout() {
    for_each_case(0x6000, |rng| {
        let base_len = range(rng, 1, 50_000) as u32;
        let hdr = range(rng, 1, 64) as u32;
        let pop = (range(rng, 0, 32) as u32).min(hdr);
        let mut m = Message::single(VirtAddr(1 << 20), base_len);
        m.push_header(VirtAddr(1 << 10), hdr);
        let _ = m.pop_header(pop);
        let split = rng.next_u64() % (m.len() + 1);
        let front = m.split_off_front(split);
        let mut whole = front;
        whole.join(m);
        // Flatten to (addr, len) byte map and compare with the expectation.
        let mut expect = Vec::new();
        for i in pop..hdr {
            expect.push((1u64 << 10) + i as u64);
        }
        for i in 0..base_len {
            expect.push((1u64 << 20) + i as u64);
        }
        let mut got = Vec::new();
        for seg in whole.segs() {
            for i in 0..seg.len {
                got.push(seg.addr.0 + i as u64);
            }
        }
        assert_eq!(got, expect);
    });
}

/// IP fragmentation plans tile the datagram exactly.
#[test]
fn fragment_layout_tiles() {
    use osiris::proto::wire::IP_HEADER_BYTES;
    for_each_case(0x7000, |rng| {
        let total = range(rng, 0, 1_000_000);
        let mtu = range(rng, 1, 5) as u32 * 4096 + IP_HEADER_BYTES as u32;
        let plan = fragment_layout(total, mtu);
        assert_eq!(plan.total(), total);
        for (i, s) in plan.sizes().enumerate() {
            assert!(s as u64 + IP_HEADER_BYTES as u64 <= mtu as u64);
            if i + 1 < plan.count() {
                assert_eq!(s, mtu - IP_HEADER_BYTES as u32);
            }
        }
    });
}

/// Headers round-trip and single-bit corruption never decodes.
#[test]
fn ip_header_roundtrip_and_corruption() {
    for_each_case(0x8000, |rng| {
        let h = IpHeader {
            id: rng.next_u64() as u32,
            total_len: rng.next_u64() as u32,
            frag_off: rng.next_u64() as u32,
            more_frags: rng.gen_bool(0.5),
            proto: IPPROTO_UDP,
            src: rng.next_u64() as u16,
            dst: rng.next_u64() as u16,
        };
        let bit = rng.gen_range(8 * 19) as usize;
        let enc = h.encode();
        assert_eq!(IpHeader::decode(&enc), Some(h));
        let mut bad = enc;
        bad[bit / 8] ^= 1 << (bit % 8);
        // Any flip in the live bytes (0..19) must be rejected.
        assert_eq!(IpHeader::decode(&bad), None);
    });
}

/// UDP headers round-trip.
#[test]
fn udp_header_roundtrip() {
    for_each_case(0x9000, |rng| {
        let h = UdpHeader {
            src_port: rng.next_u64() as u16,
            dst_port: rng.next_u64() as u16,
            len: rng.next_u64() as u32,
            cksum: rng.next_u64() as u16,
        };
        assert_eq!(UdpHeader::decode(&h.encode()), Some(h));
    });
}

/// `data` with one bit flipped, at a position drawn from `rng`.
fn flip_one_bit(rng: &mut SimRng, data: &[u8]) -> Vec<u8> {
    let mut bad = data.to_vec();
    let i = rng.gen_range(data.len() as u64 * 8) as usize;
    bad[i / 8] ^= 1 << (i % 8);
    bad
}

/// CRC-32 detects every single-bit error.
#[test]
fn crc32_detects_single_bit_errors() {
    for_each_case(0xa000, |rng| {
        let data = bytes(rng, 1, 2000);
        let bad = flip_one_bit(rng, &data);
        assert_ne!(crc32(&bad), crc32(&data));
    });
}

/// The Internet checksum detects every single-bit error.
#[test]
fn internet_checksum_detects_single_bit_errors() {
    for_each_case(0xb000, |rng| {
        let data = bytes(rng, 1, 2000);
        let bad = flip_one_bit(rng, &data);
        assert_ne!(internet_checksum(&bad), internet_checksum(&data));
    });
}

/// VM translation tiles a mapped region exactly, one buffer per
/// physically contiguous run, and unmap restores the allocator.
#[test]
fn vm_translate_tiles_regions() {
    for_each_case(0xc000, |rng| {
        let len = range(rng, 1, 200_000);
        let offset = range(rng, 0, 4096);
        let mem = PhysMemory::new(256 * 4096, 4096);
        let mut alloc = FrameAllocator::new(&mem, AllocPolicy::Scattered, rng.next_u64());
        let mut asp = AddressSpace::new(4096);
        let free0 = alloc.free_frames();
        let region = asp.alloc_and_map(len + offset, &mut alloc).unwrap();
        let bufs = asp.translate(region.base.offset(offset), len).unwrap();
        assert_eq!(bufs.iter().map(|b| b.len as u64).sum::<u64>(), len);
        for w in bufs.windows(2) {
            assert!(w[0].end() != w[1].addr, "coalesce must have merged these");
        }
        asp.unmap(region, &mut alloc);
        assert_eq!(alloc.free_frames(), free0);
    });
}

/// The §2.6 corner the paper leaves open: a PDU with fewer cells than
/// lanes, whose `last_cell` is skew-delayed past the NEXT PDU's cells,
/// cannot be attributed by per-lane framing *position* alone. The per-VCI
/// PDU tag every FourWay cell now carries resolves it: lanes that see the
/// next PDU's cells before the short PDU completes resynchronise onto the
/// right record, and both PDUs deliver CRC-verified bytes.
#[test]
fn short_pdu_under_deep_skew_resolves_via_pdu_tag() {
    use osiris::atm::sar::{FramingMode, Reassembler, ReassemblyMode, Segmenter};
    use osiris::atm::Vci;

    let seg = Segmenter {
        framing: FramingMode::FourWay { lanes: 4 },
    };
    let short = seg.segment_numbered(Vci(1), 0, &[&[9u8; 10][..]]); // 1 cell, lane 0
    let long = seg.segment_numbered(Vci(1), 1, &[&[5u8; 176][..]]); // 4 cells, lanes 0..3
    let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20);

    // Deep skew on lane 0: the long PDU's lane-1..3 cells arrive first.
    let (mut placed, mut done) = (Vec::new(), Vec::new());
    for (lane, cell) in [(1usize, &long[1]), (2, &long[2]), (3, &long[3])] {
        place(&mut placed, r.receive(lane, cell).unwrap(), cell);
        if let Some(p) = r.take_completed() {
            done.push(p);
        }
    }
    // Lane 0 catches up: short PDU's cell, then the long PDU's cell 0.
    for cell in [&short[0], &long[0]] {
        place(&mut placed, r.receive(0, cell).unwrap(), cell);
        if let Some(p) = r.take_completed() {
            done.push(p);
        }
    }
    assert_eq!(done.len(), 2, "both PDUs complete despite the deep skew");
    assert!(done.iter().all(|p| p.crc_ok));
    assert_eq!((done[0].pdu, done[0].len), (0, 10));
    assert_eq!(placed[0], vec![9u8; 10]);
    assert_eq!((done[1].pdu, done[1].len), (1, 176));
    assert_eq!(placed[1], vec![5u8; 176]);
    assert_eq!(r.in_flight(), 0);
}
