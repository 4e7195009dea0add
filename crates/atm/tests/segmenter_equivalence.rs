//! The lazy segmenter against the eager cell-building loop it replaced:
//! for seeded buffer chains, both framing modes, both segmentation units
//! and PDU tags around the `u16` wrap, every cell — header, AAL fields,
//! payload, carried CRC remainder and trailer — must be identical, and
//! each cell's remainder must be its payload's. FourWay framings of one to
//! four lanes run through the cutter's inline per-lane state, over byte
//! slices and over a chain read by index.

use osiris_atm::crc::cell_remainder;
use osiris_atm::sar::{
    BufferChain, FramingMode, Reassembler, ReassemblyMode, SegmentUnit, Segmenter, MAX_LANES,
};
use osiris_atm::{Cell, Crc32, Trailer, Vci, CELL_PAYLOAD};
use osiris_sim::SimRng;

/// The eager segmenter: build every cell first, then attach trailers by
/// re-walking the finished cells.
fn eager_segment_numbered(seg: &Segmenter, vci: Vci, pdu_seq: u16, buffers: &[&[u8]]) -> Vec<Cell> {
    let total: usize = buffers.iter().map(|b| b.len()).sum();
    assert!(total > 0, "cannot segment an empty PDU");

    let seq_of = |i: usize| match seg.framing {
        FramingMode::EndOfPdu => (i % (u16::MAX as usize + 1)) as u16,
        FramingMode::FourWay { .. } => pdu_seq,
    };
    let mut cells: Vec<Cell> = Vec::with_capacity(total / CELL_PAYLOAD + buffers.len());
    for buf in buffers {
        let mut rest: &[u8] = buf;
        if seg.unit == SegmentUnit::Pdu {
            if let Some(last) = cells.last_mut() {
                let fill = last.aal.fill as usize;
                let take = (CELL_PAYLOAD - fill).min(rest.len());
                last.write_payload(fill, &rest[..take]);
                last.aal.fill += take as u8;
                rest = &rest[take..];
            }
        }
        for piece in rest.chunks(CELL_PAYLOAD) {
            let seq = seq_of(cells.len());
            cells.push(Cell::data(vci, seq, piece));
        }
    }

    let n = cells.len();
    cells[n - 1].header.last_cell = true;

    match seg.framing {
        FramingMode::EndOfPdu => {
            let mut crc = Crc32::new();
            for buf in buffers {
                crc.update(buf);
            }
            let last = &mut cells[n - 1];
            last.aal.eom = true;
            last.trailer = Some(Trailer {
                len: total as u32,
                crc: crc.finish(),
            });
        }
        FramingMode::FourWay { lanes } => {
            let lanes = lanes as usize;
            assert!(lanes >= 1, "need at least one lane");
            for lane in 0..lanes.min(n) {
                let mut crc = Crc32::new();
                let mut lane_len = 0u32;
                let mut last_idx = lane;
                let mut i = lane;
                while i < n {
                    crc.update(cells[i].data_bytes());
                    lane_len += cells[i].aal.fill as u32;
                    last_idx = i;
                    i += lanes;
                }
                // The lane CRC ends with the PDU's tag.
                crc.update(&pdu_seq.to_le_bytes());
                let c = &mut cells[last_idx];
                c.aal.eom = true;
                c.trailer = Some(Trailer {
                    len: lane_len,
                    crc: crc.finish(),
                });
            }
        }
    }
    cells
}

/// `total` bytes split into a chain of `1..=5` buffers at random cut
/// points (a buffer may be empty).
fn chain(rng: &mut SimRng, total: usize) -> Vec<Vec<u8>> {
    let n = 1 + rng.gen_range(5) as usize;
    let mut cuts: Vec<usize> = (1..n)
        .map(|_| rng.gen_range(total as u64 + 1) as usize)
        .collect();
    cuts.sort_unstable();
    let mut out = Vec::with_capacity(n);
    let mut at = 0;
    for end in cuts.into_iter().chain(std::iter::once(total)) {
        out.push((at..end).map(|_| rng.next_u64() as u8).collect());
        at = end;
    }
    out
}

/// A chain read by index out of one backing store, the way the board's
/// transmit processor reads descriptors out of host memory.
struct Indexed {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl BufferChain for Indexed {
    fn count(&self) -> usize {
        self.ends.len()
    }

    fn buffer(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }
}

fn assert_same(seg: &Segmenter, vci: Vci, pdu_seq: u16, buffers: &[&[u8]], what: &str) {
    let want = eager_segment_numbered(seg, vci, pdu_seq, buffers);
    let indexed = Indexed {
        bytes: buffers.concat(),
        ends: buffers
            .iter()
            .scan(0, |end, b| {
                *end += b.len();
                Some(*end)
            })
            .collect(),
    };
    let by_index: Vec<Cell> = seg.cells(vci, pdu_seq, &indexed).collect();
    assert_eq!(by_index, want, "{what}: chain read by index");
    let got: Vec<Cell> = seg.cells(vci, pdu_seq, buffers).collect();
    assert_eq!(got.len(), want.len(), "{what}: cell count");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g.header, w.header, "{what}: cell {i} header");
        assert_eq!(g.aal, w.aal, "{what}: cell {i} AAL fields");
        assert_eq!(g.payload(), w.payload(), "{what}: cell {i} payload");
        assert_eq!(
            g.remainder(),
            cell_remainder(g.payload()),
            "{what}: cell {i} carried remainder"
        );
        assert_eq!(g.trailer, w.trailer, "{what}: cell {i} trailer");
        assert_eq!(g, w, "{what}: cell {i}");
    }
    assert_eq!(seg.segment_numbered(vci, pdu_seq, buffers), want, "{what}");
}

#[test]
fn lazy_cutter_matches_the_eager_segmenter() {
    let framings = [
        FramingMode::EndOfPdu,
        FramingMode::FourWay { lanes: 1 },
        FramingMode::FourWay { lanes: 2 },
        FramingMode::FourWay { lanes: 3 },
        FramingMode::FourWay { lanes: 4 },
    ];
    let seqs = [0u16, 1, 0x7fff, 0xfffe, 0xffff];
    let mut lengths: Vec<usize> = (1..=50).collect();
    lengths.extend((1..=20).map(|k| 44 * k));
    lengths.extend([176, 352, 1760, 44 * 455, 176 * 113]);
    let mut rng = SimRng::new(0x5E6_2026);
    lengths.extend((0..60).map(|_| 1 + rng.gen_range(20_000) as usize));

    let mut cases = 0;
    for &total in &lengths {
        let bufs = chain(&mut rng, total);
        let slices: Vec<&[u8]> = bufs.iter().map(Vec::as_slice).collect();
        for framing in framings {
            for unit in [SegmentUnit::Pdu, SegmentUnit::Buffer] {
                let seg = Segmenter { framing, unit };
                let pdu_seq = seqs[rng.gen_range(seqs.len() as u64) as usize];
                let what = format!("{total} B in {} bufs, {framing:?}, {unit:?}", bufs.len());
                assert_same(&seg, Vci(7), pdu_seq, &slices, &what);
                cases += 1;
            }
        }
    }
    assert!(cases >= 1000, "{cases} cases");
}

#[test]
fn end_of_pdu_cell_index_wraps_like_the_eager_segmenter() {
    // More than 2^16 cells: the AAL sequence number of EndOfPdu cells
    // (their index) wraps past 0xffff.
    let data: Vec<u8> = (0..(65_536 + 40) * CELL_PAYLOAD + 5)
        .map(|i| (i * 131 % 251) as u8)
        .collect();
    let half = data.len() / 2 + 3;
    let chain: [&[u8]; 2] = [&data[..half], &data[half..]];
    for unit in [SegmentUnit::Pdu, SegmentUnit::Buffer] {
        let seg = Segmenter {
            framing: FramingMode::EndOfPdu,
            unit,
        };
        assert_same(&seg, Vci(1), 0, &chain, &format!("wrap {unit:?}"));
    }
}

#[test]
fn framings_wider_than_the_stripe_are_rejected_at_construction() {
    let data = [1u8; 500];
    for lanes in 1..=MAX_LANES as u8 {
        let seg = Segmenter {
            framing: FramingMode::FourWay { lanes },
            unit: SegmentUnit::Pdu,
        };
        assert_eq!(seg.cursor(Vci(1), 0, &[&data[..]]).remaining(), 12);
        Reassembler::new(ReassemblyMode::FourWay { lanes }, 1 << 16, false);
    }
    let wide = Segmenter {
        framing: FramingMode::FourWay { lanes: 5 },
        unit: SegmentUnit::Pdu,
    };
    let cut = std::panic::catch_unwind(|| wide.cursor(Vci(1), 0, &[&data[..]]));
    assert!(cut.is_err(), "a 5-lane cursor must not be built");
    let reasm = std::panic::catch_unwind(|| {
        Reassembler::new(ReassemblyMode::FourWay { lanes: 5 }, 1 << 16, false)
    });
    assert!(reasm.is_err(), "a 5-lane reassembler must not be built");
}
