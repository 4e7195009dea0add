//! Segmentation and reassembly — the algorithms running on the two i80960s.
//!
//! Transmit side: [`Segmenter`] turns a PDU (a chain of physical buffers)
//! into cells, cut one at a time by a [`SegCursor`] as the caller asks for
//! them. Two unit disciplines are modelled (§2.5.2):
//!
//! * [`SegmentUnit::Pdu`] — cells are filled across buffer boundaries, so
//!   only the final cell of the PDU is partial. This is what the modified
//!   page-boundary-splitting DMA controller enables.
//! * [`SegmentUnit::Buffer`] — each buffer is flushed independently,
//!   producing partially filled cells mid-PDU: "not only is this inelegant,
//!   but it also makes interoperating with other systems impossible".
//!
//! Receive side: [`Reassembler`] supports the three strategies of §2.6:
//!
//! * [`ReassemblyMode::InOrder`] — classic AAL5; assumes no misordering.
//!   Under skew it produces corrupted PDUs that the (real) CRC-32 catches.
//! * [`ReassemblyMode::SeqNum`] — strategy 1: an AAL-header sequence number
//!   places each cell. Sequence space is finite ("we can never guarantee
//!   that the sequence number space is large enough") and partial fills
//!   mid-stream are unsupported — both failure modes are surfaced as
//!   typed errors.
//! * [`ReassemblyMode::FourWay`] — strategy 2: one AAL5-style reassembly
//!   per stripe lane, with a per-lane CRC trailer; the PDU completes when
//!   every contributing lane has completed, and the extra ATM-header
//!   `last_cell` bit resolves PDUs shorter than the stripe width.
//!
//! # Example
//!
//! ```
//! use osiris_atm::sar::{FramingMode, ReassemblyMode, Reassembler, SegmentUnit, Segmenter};
//! use osiris_atm::Vci;
//!
//! let data = vec![7u8; 1000];
//! let seg = Segmenter { framing: FramingMode::EndOfPdu, unit: SegmentUnit::Pdu };
//! let cells = seg.segment(Vci(5), &[&data]);
//! assert_eq!(cells.len(), 23); // ceil(1000 / 44)
//!
//! let mut r = Reassembler::new(ReassemblyMode::InOrder, 1 << 20, true);
//! let mut done = None;
//! for cell in &cells {
//!     done = r.receive(0, cell).unwrap().completed.or(done);
//! }
//! let pdu = done.unwrap();
//! assert!(pdu.crc_ok);
//! assert_eq!(pdu.data.unwrap(), data);
//! ```

use std::collections::VecDeque;

use osiris_sim::FxHashMap;

use crate::cell::{AalHeader, Cell, CellHeader, Trailer, CELL_PAYLOAD};
use crate::crc::Crc32;
use crate::vci::Vci;

/// The widest stripe a framing may name: the paper's four-lane link.
/// Per-lane segmentation and reassembly state is held inline at this
/// bound, so a wider [`FramingMode::FourWay`] or
/// [`ReassemblyMode::FourWay`] is rejected when the segmenter's cursor or
/// the reassembler is built.
pub const MAX_LANES: usize = 4;

/// Panics unless `lanes` is a supported stripe width (`1..=MAX_LANES`).
pub fn check_lanes(lanes: u8) {
    assert!(
        (1..=MAX_LANES).contains(&(lanes as usize)),
        "stripe width {lanes} outside 1..={MAX_LANES}"
    );
}

/// A PDU's buffer chain as the segmenter reads it: `count` buffers,
/// fetched by index. A slice of byte slices is one; the board's transmit
/// processor reads its descriptor chain straight out of host memory
/// without collecting the slices first.
pub trait BufferChain {
    /// Number of buffers in the chain.
    fn count(&self) -> usize;
    /// Buffer `i` (`i < count()`).
    fn buffer(&self, i: usize) -> &[u8];
}

impl<T: AsRef<[u8]>> BufferChain for [T] {
    fn count(&self) -> usize {
        self.len()
    }

    fn buffer(&self, i: usize) -> &[u8] {
        self[i].as_ref()
    }
}

impl<T: AsRef<[u8]>, const N: usize> BufferChain for [T; N] {
    fn count(&self) -> usize {
        N
    }

    fn buffer(&self, i: usize) -> &[u8] {
        self[i].as_ref()
    }
}

/// How end-of-PDU framing is encoded at segmentation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramingMode {
    /// One end-of-message bit + trailer on the final cell of the PDU.
    EndOfPdu,
    /// Per-lane framing for an `n`-lane striped link: the last cell on
    /// *each lane* carries an EOM bit and a trailer over that lane's bytes.
    FourWay {
        /// Stripe width (the paper's hardware: 4; at most [`MAX_LANES`]).
        lanes: u8,
    },
}

/// Whether cells may span physical-buffer boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentUnit {
    /// Fill cells across buffers; only the last cell of the PDU is partial.
    Pdu,
    /// Flush a (possibly partial) cell at every buffer boundary — the
    /// problematic original hardware model of §2.5.2.
    Buffer,
}

/// The transmit-side segmentation algorithm.
#[derive(Debug, Clone, Copy)]
pub struct Segmenter {
    /// Framing discipline.
    pub framing: FramingMode,
    /// Buffer-boundary discipline.
    pub unit: SegmentUnit,
}

impl Segmenter {
    /// Segments a PDU presented as a chain of buffers into cells, as the
    /// first PDU of its VCI (`pdu_seq` 0). Senders emitting more than one
    /// PDU per VCI under [`FramingMode::FourWay`] must use
    /// [`Segmenter::segment_numbered`] so the reassembler can detect
    /// cross-PDU lane slips after cell loss.
    ///
    /// # Panics
    /// Panics if the PDU is empty.
    pub fn segment(&self, vci: Vci, buffers: &[&[u8]]) -> Vec<Cell> {
        self.segment_numbered(vci, 0, buffers)
    }

    /// Segments PDU number `pdu_seq` (per-VCI, wrapping) into cells: the
    /// whole of [`Segmenter::cells`], collected.
    ///
    /// # Panics
    /// Panics if the PDU is empty.
    pub fn segment_numbered(&self, vci: Vci, pdu_seq: u16, buffers: &[&[u8]]) -> Vec<Cell> {
        self.cells(vci, pdu_seq, buffers).collect()
    }

    /// The cells of PDU number `pdu_seq`, cut on demand from `buffers`.
    ///
    /// # Panics
    /// Panics if the PDU is empty.
    pub fn cells<'a, B: BufferChain + ?Sized>(
        &self,
        vci: Vci,
        pdu_seq: u16,
        buffers: &'a B,
    ) -> Cells<'a, B> {
        Cells {
            cursor: self.cursor(vci, pdu_seq, buffers),
            buffers,
        }
    }

    /// An owned cutting position over PDU number `pdu_seq`, for callers
    /// that hold the PDU's bytes across events: each
    /// [`SegCursor::next_cell`] call is handed the same `buffers` again.
    ///
    /// Under [`FramingMode::EndOfPdu`], AAL sequence numbers are assigned
    /// in global cell order (strategy 1 places cells by them) and `pdu_seq`
    /// is unused. Under [`FramingMode::FourWay`], per-lane framing makes a
    /// within-PDU sequence number redundant — so every cell instead carries
    /// `pdu_seq` in its AAL header, giving the reassembler PDU *identity*:
    /// without it, a lane that lost a cell silently attributes the next
    /// PDU's cell to the old record, and the per-lane CRCs (each computed
    /// over an individually intact lane contribution) cannot catch the
    /// stitch. The final cell carries the ATM-header `last_cell` bit;
    /// trailers are attached per the framing mode.
    ///
    /// # Panics
    /// Panics if the PDU is empty, or if a FourWay framing names more
    /// than [`MAX_LANES`] lanes.
    pub fn cursor<B: BufferChain + ?Sized>(
        &self,
        vci: Vci,
        pdu_seq: u16,
        buffers: &B,
    ) -> SegCursor {
        let lens = (0..buffers.count()).map(|i| buffers.buffer(i).len());
        let total: usize = lens.clone().sum();
        assert!(total > 0, "cannot segment an empty PDU");
        let cells = match self.unit {
            SegmentUnit::Pdu => total.div_ceil(CELL_PAYLOAD),
            SegmentUnit::Buffer => lens.map(|l| l.div_ceil(CELL_PAYLOAD)).sum(),
        };
        // EndOfPdu framing is one trailer over the whole PDU: a single
        // lane, in trailer terms.
        let (seq, lanes) = match self.framing {
            FramingMode::EndOfPdu => (None, 1),
            FramingMode::FourWay { lanes } => {
                check_lanes(lanes);
                (Some(pdu_seq), lanes as usize)
            }
        };
        SegCursor {
            vci,
            unit: self.unit,
            seq,
            next: 0,
            lane: 0,
            cells,
            buf: 0,
            off: 0,
            n_lanes: lanes.min(cells),
            lanes: [(Crc32::new(), 0); MAX_LANES],
        }
    }
}

/// An owned cutting position in one PDU: which cell comes next, where its
/// bytes start in the buffer chain, and the running trailer CRC and
/// length of each framing lane.
#[derive(Debug, Clone)]
pub struct SegCursor {
    vci: Vci,
    unit: SegmentUnit,
    /// FourWay: the PDU tag every cell carries; EndOfPdu: `None` (cells
    /// carry their index).
    seq: Option<u16>,
    next: usize,
    /// Trailer lane of the next cell: `next` modulo the lane count.
    lane: usize,
    cells: usize,
    buf: usize,
    off: usize,
    /// Trailer lanes in use: the stripe width, or fewer for a PDU of
    /// fewer cells (one under EndOfPdu framing).
    n_lanes: usize,
    /// Per trailer lane: CRC and byte count so far (`lanes[..n_lanes]`).
    lanes: [(Crc32, u32); MAX_LANES],
}

impl SegCursor {
    /// Cells not yet cut.
    pub fn remaining(&self) -> usize {
        self.cells - self.next
    }

    /// Framing lane of the next cell to be cut: its index modulo the
    /// stripe width (always 0 under [`FramingMode::EndOfPdu`]).
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// Cuts the next cell from `buffers` — the chain this cursor was built
    /// over — or returns `None` once the PDU is exhausted.
    pub fn next_cell<B: BufferChain + ?Sized>(&mut self, buffers: &B) -> Option<Cell> {
        if self.next == self.cells {
            return None;
        }
        let i = self.next;
        self.next += 1;
        let mut payload = [0u8; CELL_PAYLOAD];
        let mut fill = 0;
        // Pdu fills across buffer boundaries; Buffer stops at the end of
        // the buffer the cell started in. Empty buffers yield no cells.
        while fill < CELL_PAYLOAD && self.buf < buffers.count() {
            let buf = buffers.buffer(self.buf);
            let rest = &buf[self.off..];
            let take = (CELL_PAYLOAD - fill).min(rest.len());
            if take == CELL_PAYLOAD {
                // A whole cell from one buffer: a fixed-size copy.
                payload = *rest.first_chunk().expect("take bytes remain");
            } else {
                payload[fill..fill + take].copy_from_slice(&rest[..take]);
            }
            fill += take;
            self.off += take;
            if self.off == buf.len() {
                self.buf += 1;
                self.off = 0;
                if self.unit == SegmentUnit::Buffer && fill > 0 {
                    break;
                }
            }
        }
        debug_assert!(fill > 0, "cursor used over a different buffer chain");

        let n_lanes = self.n_lanes;
        let lane = &mut self.lanes[self.lane];
        self.lane = if self.lane + 1 == n_lanes {
            0
        } else {
            self.lane + 1
        };
        lane.0.update(&payload[..fill]);
        lane.1 += fill as u32;
        // The last cell of each lane carries that lane's trailer. Under
        // FourWay framing its CRC also covers the PDU's tag, which binds
        // the lane's bytes to their PDU.
        let trailer = (i + n_lanes >= self.cells).then(|| {
            let mut crc = lane.0;
            if let Some(tag) = self.seq {
                crc.update(&tag.to_le_bytes());
            }
            Trailer {
                len: lane.1,
                crc: crc.finish(),
            }
        });
        Some(Cell {
            header: CellHeader {
                vci: self.vci,
                last_cell: i + 1 == self.cells,
            },
            aal: AalHeader {
                seq: self.seq.unwrap_or(i as u16),
                eom: trailer.is_some(),
                fill: fill as u8,
            },
            payload,
            trailer,
            ctx: None,
        })
    }
}

/// The cells of one PDU, cut on demand (see [`Segmenter::cells`]).
pub struct Cells<'a, B: BufferChain + ?Sized = [&'a [u8]]> {
    cursor: SegCursor,
    buffers: &'a B,
}

impl<B: BufferChain + ?Sized> Iterator for Cells<'_, B> {
    type Item = Cell;

    fn next(&mut self) -> Option<Cell> {
        self.cursor.next_cell(self.buffers)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.cursor.remaining();
        (n, Some(n))
    }
}

impl<B: BufferChain + ?Sized> ExactSizeIterator for Cells<'_, B> {}

/// Receive-side reassembly strategy (§2.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReassemblyMode {
    /// Assume cells arrive in order (no striping skew).
    InOrder,
    /// Place cells by AAL sequence number; `max_cells` is the sequence
    /// window (bounded sequence space — the strategy's Achilles heel).
    SeqNum {
        /// Largest per-PDU cell count representable.
        max_cells: u32,
    },
    /// One concurrent AAL5 reassembly per stripe lane.
    FourWay {
        /// Stripe width.
        lanes: u8,
    },
}

/// Typed reassembly failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxError {
    /// A sequence number outside the configured window arrived.
    SeqOutOfRange,
    /// Too many cells for a future PDU arrived while one was incomplete.
    StashOverflow,
    /// A cell arrived on a lane index ≥ the configured stripe width.
    LaneOutOfRange,
    /// An EOM cell carried no trailer (malformed framing).
    NoTrailer,
    /// A partially filled cell mid-stream, unsupported by this strategy
    /// (SeqNum/FourWay place cells at `index × 44`).
    PartialFillUnsupported,
    /// The assembled PDU would exceed the configured maximum size.
    PduTooLarge,
    /// A FourWay cell tagged with a PDU number the lane has already moved
    /// past (a straggler delayed behind an abort). Attributing it
    /// positionally would stitch two PDUs together, so it is dropped.
    StaleSeq,
    /// A cell claims more data bytes than a cell carries.
    FillOutOfRange,
}

impl std::fmt::Display for RxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RxError::SeqOutOfRange => "sequence number out of window",
            RxError::StashOverflow => "next-PDU stash overflow",
            RxError::LaneOutOfRange => "lane index out of range",
            RxError::NoTrailer => "EOM cell without trailer",
            RxError::PartialFillUnsupported => "partial fill mid-stream unsupported",
            RxError::PduTooLarge => "PDU exceeds configured maximum",
            RxError::StaleSeq => "straggler cell of an abandoned PDU",
            RxError::FillOutOfRange => "fill exceeds the cell payload",
        };
        f.write_str(s)
    }
}

impl std::error::Error for RxError {}

/// A completed PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PduComplete {
    /// Monotonic PDU number on this reassembler (0-based arrival order of
    /// *starts*, i.e. segmentation order).
    pub pdu: u64,
    /// Data length in bytes.
    pub len: u32,
    /// True if every framing CRC over the assembled data matched.
    pub crc_ok: bool,
    /// The assembled bytes (present when the reassembler keeps data).
    pub data: Option<Vec<u8>>,
}

/// Where an accepted cell's payload belongs, and whether it completed a PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellDisposition {
    /// PDU number the cell belongs to.
    pub pdu: u64,
    /// Byte offset of the cell's data within the PDU.
    pub offset: u32,
    /// Set when this cell completed the PDU.
    pub completed: Option<PduComplete>,
}

#[derive(Debug, Default)]
struct PduRecord {
    received_cells: u32,
    received_bytes: u32,
    expected_total_cells: Option<u32>,
    /// Per-lane CRC accumulators and completion flags (FourWay; lanes
    /// beyond the stripe width stay unused).
    lane_crc: [Crc32; MAX_LANES],
    lane_ok: [Option<bool>; MAX_LANES],
    lane_len: u32,
    /// Whole-PDU trailer (EndOfPdu framing), checked at completion.
    pdu_trailer: Option<Trailer>,
    /// Seen-sequence bitmap (SeqNum mode duplicate detection).
    seen: Vec<bool>,
    data: Vec<u8>,
    high_water: u32,
}

/// The receive-side reassembly state machine for one VCI.
#[derive(Debug)]
pub struct Reassembler {
    mode: ReassemblyMode,
    keep_data: bool,
    max_pdu_bytes: u32,
    /// SeqNum/FourWay: every open PDU's record.
    records: FxHashMap<u64, PduRecord>,
    /// InOrder: the one open PDU's record (always `current_pdu`'s),
    /// kept out of `records` so a cell needs no map probe.
    inorder: Option<PduRecord>,
    /// InOrder/SeqNum: the PDU currently being assembled.
    current_pdu: u64,
    /// InOrder: running byte offset.
    inorder_offset: u32,
    /// InOrder: running CRC.
    inorder_crc: Crc32,
    /// SeqNum: stash of cells that belong to the next PDU.
    stash: Vec<Cell>,
    stash_limit: usize,
    /// SeqNum: PDUs that stash replay completed, oldest first, waiting
    /// for [`Reassembler::take_replayed`].
    replayed: VecDeque<PduComplete>,
    /// FourWay: per-lane (pdu number, within-lane cell index).
    lane_pos: Vec<(u64, u32)>,
    /// FourWay: total cell counts of completed PDUs, kept until every
    /// lane has advanced past them. A lane finishing PDU p must skip any
    /// already-completed PDUs that carried no cells on its lane — the
    /// short-PDU / skew interaction §2.6 calls "significant complexity".
    completed_totals: FxHashMap<u64, u32>,
    completed_count: u64,
}

impl Reassembler {
    /// A reassembler for `mode`, assembling PDUs of at most `max_pdu_bytes`
    /// bytes. When `keep_data` is set, completed PDUs carry their bytes
    /// (standalone use and tests); the board integration can disable it and
    /// rely on placement offsets alone.
    ///
    /// # Panics
    /// Panics if a FourWay mode names more than [`MAX_LANES`] lanes.
    pub fn new(mode: ReassemblyMode, max_pdu_bytes: u32, keep_data: bool) -> Self {
        let lanes = match mode {
            ReassemblyMode::FourWay { lanes } => {
                check_lanes(lanes);
                lanes as usize
            }
            _ => 0,
        };
        Reassembler {
            mode,
            keep_data,
            max_pdu_bytes,
            records: FxHashMap::default(),
            inorder: None,
            current_pdu: 0,
            inorder_offset: 0,
            inorder_crc: Crc32::new(),
            stash: Vec::new(),
            stash_limit: 4096,
            replayed: VecDeque::new(),
            lane_pos: vec![(0, 0); lanes],
            completed_totals: FxHashMap::default(),
            completed_count: 0,
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> ReassemblyMode {
        self.mode
    }

    /// Number of PDUs completed so far.
    pub fn completed(&self) -> u64 {
        self.completed_count
    }

    /// The oldest PDU completed by SeqNum stash replay and not yet taken.
    /// Each one completed after the PDU the last [`Reassembler::receive`]
    /// returned.
    pub fn take_replayed(&mut self) -> Option<PduComplete> {
        self.replayed.pop_front()
    }

    /// Number of PDUs currently in flight (diagnostics).
    pub fn in_flight(&self) -> usize {
        self.records.len() + self.inorder.is_some() as usize
    }

    /// Processes one received cell. `lane` is the physical link the cell
    /// arrived on (ignored by [`ReassemblyMode::InOrder`] and
    /// [`ReassemblyMode::SeqNum`]).
    ///
    /// Under SeqNum a cell that completes a PDU can also complete later
    /// ones: their cells overtook it and waited in the stash. Those
    /// completions follow the returned one through
    /// [`Reassembler::take_replayed`], so a caller drains it after every
    /// cell.
    pub fn receive(&mut self, lane: usize, cell: &Cell) -> Result<CellDisposition, RxError> {
        // Malformed cells are turned away before they touch any state: a
        // cell stored and then rejected would shift the placement of the
        // cells behind it while the running CRCs still cover them all.
        if cell.aal.fill as usize > CELL_PAYLOAD {
            return Err(RxError::FillOutOfRange);
        }
        if cell.aal.eom && cell.trailer.is_none() {
            return Err(RxError::NoTrailer);
        }
        match self.mode {
            ReassemblyMode::InOrder => self.receive_inorder(cell),
            ReassemblyMode::SeqNum { max_cells } => self.receive_seqnum(cell, max_cells),
            ReassemblyMode::FourWay { lanes } => self.receive_fourway(lane, lanes as usize, cell),
        }
    }

    fn record(&mut self, pdu: u64) -> &mut PduRecord {
        self.records.entry(pdu).or_default()
    }

    fn store(
        keep: bool,
        max: u32,
        rec: &mut PduRecord,
        offset: u32,
        data: &[u8],
    ) -> Result<(), RxError> {
        let end = offset + data.len() as u32;
        if end > max {
            return Err(RxError::PduTooLarge);
        }
        rec.received_cells += 1;
        rec.received_bytes += data.len() as u32;
        rec.high_water = rec.high_water.max(end);
        if keep {
            if rec.data.len() < end as usize {
                rec.data.resize(end as usize, 0);
            }
            rec.data[offset as usize..end as usize].copy_from_slice(data);
        }
        Ok(())
    }

    fn receive_inorder(&mut self, cell: &Cell) -> Result<CellDisposition, RxError> {
        let trailer = match cell.aal.eom || cell.header.last_cell {
            true => Some(cell.trailer.ok_or(RxError::NoTrailer)?),
            false => None,
        };
        let pdu = self.current_pdu;
        let offset = self.inorder_offset;
        let rec = self.inorder.get_or_insert_with(PduRecord::default);
        Self::store(
            self.keep_data,
            self.max_pdu_bytes,
            rec,
            offset,
            cell.data_bytes(),
        )?;
        self.inorder_offset += cell.aal.fill as u32;
        self.inorder_crc.update(cell.data_bytes());

        let mut completed = None;
        if let Some(trailer) = trailer {
            let crc_ok = std::mem::take(&mut self.inorder_crc).finish() == trailer.crc
                && trailer.len == self.inorder_offset;
            let rec = self.inorder.take().expect("record exists");
            completed = Some(PduComplete {
                pdu,
                len: rec.received_bytes,
                crc_ok,
                data: self.keep_data.then_some(rec.data),
            });
            self.completed_count += 1;
            self.current_pdu += 1;
            self.inorder_offset = 0;
        }
        Ok(CellDisposition {
            pdu,
            offset,
            completed,
        })
    }

    fn receive_seqnum(&mut self, cell: &Cell, max_cells: u32) -> Result<CellDisposition, RxError> {
        let seq = cell.aal.seq as u32;
        if seq >= max_cells {
            return Err(RxError::SeqOutOfRange);
        }
        // Partial fills are only placeable for the final cell.
        if (cell.aal.fill as usize) < CELL_PAYLOAD && !cell.header.last_cell {
            return Err(RxError::PartialFillUnsupported);
        }
        let offset = seq * CELL_PAYLOAD as u32;
        // Checked before the stash so a stashed cell always places on
        // replay.
        if offset + cell.aal.fill as u32 > self.max_pdu_bytes {
            return Err(RxError::PduTooLarge);
        }
        let pdu = self.current_pdu;
        // A duplicate sequence number means this cell belongs to the
        // *next* PDU (per-lane FIFO guarantees intra-PDU uniqueness);
        // stash it until the current PDU completes. This is exactly the
        // "significant complexity" §2.6 attributes to strategy 1.
        if self.record(pdu).seen(seq) {
            if self.stash.len() >= self.stash_limit {
                return Err(RxError::StashOverflow);
            }
            self.stash.push(cell.clone());
            // Disposition points at the next PDU; offset as usual.
            return Ok(CellDisposition {
                pdu: pdu + 1,
                offset,
                completed: None,
            });
        }
        let completed = self.place_seqnum(pdu, cell).then(|| {
            let done = self.complete_seqnum(pdu);
            self.replay_stash();
            done
        });
        Ok(CellDisposition {
            pdu,
            offset,
            completed,
        })
    }

    /// Stores a validated SeqNum cell in PDU `pdu`, whose record has not
    /// seen its sequence number. Returns whether the PDU is complete.
    fn place_seqnum(&mut self, pdu: u64, cell: &Cell) -> bool {
        let seq = cell.aal.seq as u32;
        let (keep, max) = (self.keep_data, self.max_pdu_bytes);
        let rec = self.record(pdu);
        Self::store(keep, max, rec, seq * CELL_PAYLOAD as u32, cell.data_bytes())
            .expect("size checked on arrival");
        rec.note_seen(seq);
        if cell.header.last_cell {
            rec.expected_total_cells = Some(seq + 1);
        }
        if cell.trailer.is_some() && cell.aal.eom {
            rec.pdu_trailer = cell.trailer;
        }
        rec.is_complete()
    }

    /// Replays the stash into the PDU that just became current, in
    /// arrival order. A stashed cell whose sequence number that PDU has
    /// already seen is stashed again for the one after. A replayed cell
    /// that completes the PDU (all of it overtook its predecessor's
    /// tail) queues the completion for [`Reassembler::take_replayed`],
    /// and replay goes on into the next PDU with the re-stashed cells
    /// first, since they arrived before the rest.
    fn replay_stash(&mut self) {
        let mut pending = VecDeque::from(std::mem::take(&mut self.stash));
        while let Some(cell) = pending.pop_front() {
            let pdu = self.current_pdu;
            if self.record(pdu).seen(cell.aal.seq as u32) {
                self.stash.push(cell);
            } else if self.place_seqnum(pdu, &cell) {
                let done = self.complete_seqnum(pdu);
                self.replayed.push_back(done);
                for c in self.stash.drain(..).rev() {
                    pending.push_front(c);
                }
            }
        }
    }

    /// Completes SeqNum PDU `pdu`, whose record holds every cell.
    fn complete_seqnum(&mut self, pdu: u64) -> PduComplete {
        let rec = self.records.remove(&pdu).expect("record exists");
        let crc_ok = match rec.pdu_trailer {
            Some(tr) => {
                tr.len == rec.received_bytes
                    && (!self.keep_data || {
                        let mut c = Crc32::new();
                        c.update(&rec.data[..rec.received_bytes as usize]);
                        c.finish() == tr.crc
                    })
            }
            None => false,
        };
        self.completed_count += 1;
        self.current_pdu += 1;
        PduComplete {
            pdu,
            len: rec.received_bytes,
            crc_ok,
            data: self.keep_data.then(|| {
                let mut d = rec.data;
                d.truncate(rec.received_bytes as usize);
                d
            }),
        }
    }

    fn receive_fourway(
        &mut self,
        lane: usize,
        lanes: usize,
        cell: &Cell,
    ) -> Result<CellDisposition, RxError> {
        if lane >= lanes {
            return Err(RxError::LaneOutOfRange);
        }
        if (cell.aal.fill as usize) < CELL_PAYLOAD && !cell.aal.eom && !cell.header.last_cell {
            return Err(RxError::PartialFillUnsupported);
        }
        // FourWay cells carry their PDU's per-VCI (wrapping) sequence
        // number in the AAL header. Check it against the PDU this lane is
        // positioned on *before* attributing the cell: positional framing
        // alone cannot tell "next cell of the current PDU" from "first cell
        // of a later PDU after this lane's tail was lost", and the per-lane
        // CRCs — each over an individually intact lane contribution — pass
        // on such a stitch, delivering a torn PDU as good.
        let (pdu, within) = {
            let (pdu, within) = self.lane_pos[lane];
            let delta = cell.aal.seq.wrapping_sub((pdu & 0xffff) as u16);
            if delta == 0 {
                (pdu, within)
            } else if delta < 0x8000 {
                // The lane lost the tail of its current PDU (and possibly
                // whole later PDUs): this cell starts the lane's
                // contribution to a later PDU. Resynchronise forward; the
                // abandoned record can never complete and is reclaimed by
                // the reassembly timeout. If the new PDU's earlier cells on
                // this lane were *also* lost, `within` is wrong — the lane
                // CRC then fails at EOM, so that costs a drop, never a
                // corrupted delivery.
                let next = pdu + delta as u64;
                self.lane_pos[lane] = (next, 0);
                (next, 0)
            } else {
                return Err(RxError::StaleSeq);
            }
        };
        let global_index = within * lanes as u32 + lane as u32;
        let offset = global_index * CELL_PAYLOAD as u32;
        let keep = self.keep_data;
        let max = self.max_pdu_bytes;
        let done = {
            let rec = self.record(pdu);
            Self::store(keep, max, rec, offset, cell.data_bytes())?;
            rec.lane_crc[lane].update(cell.data_bytes());
            rec.lane_len += cell.aal.fill as u32;
            if cell.header.last_cell {
                rec.expected_total_cells = Some(global_index + 1);
            }
            if let (true, Some(trailer)) = (cell.aal.eom, cell.trailer) {
                // The trailer's CRC ends with the PDU's tag, so a lane
                // contribution attributed to the wrong PDU fails it.
                let mut lane_crc = std::mem::take(&mut rec.lane_crc[lane]);
                lane_crc.update(&(pdu as u16).to_le_bytes());
                rec.lane_ok[lane] = Some(lane_crc.finish() == trailer.crc);
            }
            rec.is_complete()
        };
        // Advance this lane: next cell on the lane belongs to the next PDU
        // if we just saw this lane's EOM — skipping any already-completed
        // PDUs that had no cells on this lane (short PDUs under skew).
        if cell.aal.eom {
            let next = self.skip_empty_completed(pdu + 1, lane, lanes);
            self.lane_pos[lane] = (next, 0);
        } else {
            self.lane_pos[lane] = (pdu, within + 1);
        }

        let completed = done.then(|| self.complete_fourway(pdu, lanes));
        Ok(CellDisposition {
            pdu,
            offset,
            completed,
        })
    }

    /// Abandons an in-flight PDU, discarding its partial state. Used by the
    /// receive path's reassembly timeout to reclaim physical buffers when a
    /// dropped cell (or a dropped per-lane EOM) would otherwise wedge the
    /// reassembly forever.
    ///
    /// Late or straggling cells of the aborted PDU are rejected as
    /// [`RxError::StaleSeq`] under FourWay (their PDU tag is behind the
    /// lane position) and caught by the per-PDU CRC under the other
    /// strategies, so an abort can cause extra *drops* but never causes
    /// corrupted data to be delivered.
    pub fn abort(&mut self, pdu: u64) {
        self.records.remove(&pdu);
        match self.mode {
            ReassemblyMode::InOrder => {
                if pdu == self.current_pdu {
                    self.inorder = None;
                    self.current_pdu += 1;
                    self.inorder_offset = 0;
                    self.inorder_crc = Crc32::new();
                }
            }
            ReassemblyMode::SeqNum { .. } => {
                if pdu == self.current_pdu {
                    self.current_pdu += 1;
                }
            }
            ReassemblyMode::FourWay { lanes } => {
                let lanes = lanes as usize;
                // Lanes still parked on the aborted PDU resynchronise at the
                // next PDU (skipping completed PDUs that carried no cells for
                // them). Lanes already past it need no help; lanes still
                // *behind* it will recreate a record for `pdu` if stragglers
                // arrive — that record can never complete with a good CRC and
                // is reclaimed by the next timeout sweep.
                for l in 0..lanes {
                    if self.lane_pos[l].0 == pdu {
                        let next = self.skip_empty_completed(pdu + 1, l, lanes);
                        self.lane_pos[l] = (next, 0);
                    }
                }
            }
        }
    }

    /// Completes FourWay PDU `pdu`, whose record holds every cell.
    fn complete_fourway(&mut self, pdu: u64, lanes: usize) -> PduComplete {
        let rec = self.records.remove(&pdu).expect("record exists");
        let total = rec.expected_total_cells.expect("complete");
        // Lanes l < min(lanes, total) contributed cells and must have
        // passed their per-lane CRC.
        let contributing = (total as usize).min(lanes);
        let mut crc_ok = (0..contributing).all(|l| rec.lane_ok[l] == Some(true));
        self.completed_count += 1;
        self.completed_totals.insert(pdu, total);
        // Fast-forward lanes that carried no cells for this PDU (short-PDU
        // case) and are already waiting on it; lanes still busy with an
        // earlier PDU will skip it when they advance (`skip_empty_completed`).
        for l in 0..lanes {
            let (p, w) = self.lane_pos[l];
            if p == pdu && Self::lane_cells(total, l, lanes) == 0 {
                // Cells on a lane this PDU leaves empty came from another
                // PDU (a mangled tag): the PDU is torn.
                crc_ok &= w == 0;
                let next = self.skip_empty_completed(pdu + 1, l, lanes);
                self.lane_pos[l] = (next, 0);
            }
        }
        // Prune totals every lane has moved past.
        let min_pdu = self.lane_pos.iter().map(|&(p, _)| p).min().unwrap_or(0);
        self.completed_totals.retain(|&p, _| p >= min_pdu);
        PduComplete {
            pdu,
            len: rec.received_bytes,
            crc_ok,
            data: self.keep_data.then(|| {
                let mut d = rec.data;
                d.truncate(rec.high_water as usize);
                d
            }),
        }
    }
}

impl Reassembler {
    /// Cells PDU of `total` cells places on `lane` (round-robin stripe).
    fn lane_cells(total: u32, lane: usize, lanes: usize) -> u32 {
        let lane = lane as u32;
        let lanes = lanes as u32;
        if total > lane {
            (total - 1 - lane) / lanes + 1
        } else {
            0
        }
    }

    /// First PDU at or after `from` that is not an already-completed PDU
    /// with zero cells on `lane`.
    fn skip_empty_completed(&self, from: u64, lane: usize, lanes: usize) -> u64 {
        let mut p = from;
        while let Some(&total) = self.completed_totals.get(&p) {
            if Self::lane_cells(total, lane, lanes) == 0 {
                p += 1;
            } else {
                break;
            }
        }
        p
    }
}

impl PduRecord {
    /// Every cell of the PDU has arrived: its last cell fixed the total
    /// and that many were stored.
    fn is_complete(&self) -> bool {
        self.expected_total_cells == Some(self.received_cells)
    }

    /// Has a cell with this sequence number been stored? (Under SeqNum a
    /// duplicate signals the start of the next PDU.)
    fn seen(&self, seq: u32) -> bool {
        self.seen.get(seq as usize).copied().unwrap_or(false)
    }

    fn note_seen(&mut self, seq: u32) {
        if self.seen.len() <= seq as usize {
            self.seen.resize(seq as usize + 1, false);
        }
        self.seen[seq as usize] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    fn seg(framing: FramingMode, unit: SegmentUnit) -> Segmenter {
        Segmenter { framing, unit }
    }

    #[test]
    fn segment_counts_and_fills() {
        let data = payload(100);
        let cells = seg(FramingMode::EndOfPdu, SegmentUnit::Pdu).segment(Vci(9), &[&data]);
        assert_eq!(cells.len(), 3); // 44 + 44 + 12
        assert_eq!(cells[0].aal.fill, 44);
        assert_eq!(cells[1].aal.fill, 44);
        assert_eq!(cells[2].aal.fill, 12);
        assert!(cells[2].header.last_cell);
        assert!(cells[2].aal.eom);
        assert_eq!(cells[2].trailer.unwrap().len, 100);
        assert_eq!(
            cells.iter().map(|c| c.aal.seq as usize).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn segment_pdu_unit_spans_buffers() {
        let a = payload(50);
        let b = payload(30);
        let cells = seg(FramingMode::EndOfPdu, SegmentUnit::Pdu).segment(Vci(1), &[&a, &b]);
        // 80 bytes → 44 + 36: the second cell mixes bytes of both buffers.
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1].aal.fill, 36);
    }

    #[test]
    fn segment_buffer_unit_flushes_partials() {
        let a = payload(50);
        let b = payload(30);
        let cells = seg(FramingMode::EndOfPdu, SegmentUnit::Buffer).segment(Vci(1), &[&a, &b]);
        // 50 → 44 + 6 (partial mid-PDU!), 30 → 30.
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[1].aal.fill, 6);
        assert_eq!(cells[2].aal.fill, 30);
    }

    #[test]
    fn fourway_framing_marks_each_lane() {
        let data = payload(44 * 10);
        let cells =
            seg(FramingMode::FourWay { lanes: 4 }, SegmentUnit::Pdu).segment(Vci(1), &[&data]);
        assert_eq!(cells.len(), 10);
        // Lane l gets cells l, l+4, ...; the last per lane carries EOM.
        // 10 cells: lane0 {0,4,8}, lane1 {1,5,9}, lane2 {2,6}, lane3 {3,7}.
        let eoms: Vec<usize> = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.aal.eom)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(eoms, vec![6, 7, 8, 9]);
        assert!(cells[9].header.last_cell);
        for i in eoms {
            assert!(cells[i].trailer.is_some());
        }
    }

    #[test]
    fn inorder_roundtrip() {
        let data = payload(1000);
        let cells = seg(FramingMode::EndOfPdu, SegmentUnit::Pdu).segment(Vci(1), &[&data]);
        let mut r = Reassembler::new(ReassemblyMode::InOrder, 1 << 20, true);
        let mut complete = None;
        for c in &cells {
            let d = r.receive(0, c).unwrap();
            if let Some(p) = d.completed {
                complete = Some(p);
            }
        }
        let p = complete.expect("PDU must complete");
        assert!(p.crc_ok);
        assert_eq!(p.len, 1000);
        assert_eq!(p.data.unwrap(), data);
    }

    #[test]
    fn inorder_roundtrip_buffer_unit_partials() {
        // Partial cells mid-PDU reassemble fine in order (offsets are
        // running, not computed from indices).
        let a = payload(50);
        let b = payload(51);
        let cells = seg(FramingMode::EndOfPdu, SegmentUnit::Buffer).segment(Vci(1), &[&a, &b]);
        let mut r = Reassembler::new(ReassemblyMode::InOrder, 1 << 20, true);
        let mut out = None;
        for c in &cells {
            out = r.receive(0, c).unwrap().completed.or(out);
        }
        let p = out.unwrap();
        assert!(p.crc_ok);
        let mut expect = a.clone();
        expect.extend_from_slice(&b);
        assert_eq!(p.data.unwrap(), expect);
    }

    #[test]
    fn inorder_detects_swapped_cells_via_crc() {
        let data = payload(44 * 4);
        let mut cells = seg(FramingMode::EndOfPdu, SegmentUnit::Pdu).segment(Vci(1), &[&data]);
        cells.swap(1, 2); // skew-style misordering
        let mut r = Reassembler::new(ReassemblyMode::InOrder, 1 << 20, true);
        let mut out = None;
        for c in &cells {
            out = r.receive(0, c).unwrap().completed.or(out);
        }
        let p = out.unwrap();
        assert!(!p.crc_ok, "CRC must catch misordered reassembly");
    }

    #[test]
    fn inorder_detects_corruption() {
        let data = payload(500);
        let mut cells = seg(FramingMode::EndOfPdu, SegmentUnit::Pdu).segment(Vci(1), &[&data]);
        cells[3].corrupt_bit(7, 2);
        let mut r = Reassembler::new(ReassemblyMode::InOrder, 1 << 20, true);
        let mut out = None;
        for c in &cells {
            out = r.receive(0, c).unwrap().completed.or(out);
        }
        assert!(!out.unwrap().crc_ok);
    }

    #[test]
    fn seqnum_reassembles_skewed_arrivals() {
        let data = payload(44 * 8);
        let cells = seg(FramingMode::EndOfPdu, SegmentUnit::Pdu).segment(Vci(1), &[&data]);
        // Simulate lane skew: cells 1,2,3 overtake cell 0; per-lane order
        // within each residue class is preserved.
        let order = [1usize, 2, 3, 0, 5, 6, 7, 4];
        let mut r = Reassembler::new(ReassemblyMode::SeqNum { max_cells: 1024 }, 1 << 20, true);
        let mut out = None;
        for &i in &order {
            out = r.receive(0, &cells[i]).unwrap().completed.or(out);
        }
        let p = out.expect("complete");
        assert!(p.crc_ok);
        assert_eq!(p.data.unwrap(), data);
    }

    #[test]
    fn seqnum_returns_a_pdu_completed_by_stash_replay() {
        // PDU 0 has two cells; PDU 1 is one cell that overtakes PDU 0's
        // tail: arrivals a0, b0, a1. a1 completes PDU 0, and replaying
        // the stashed b0 then completes PDU 1.
        let s = seg(FramingMode::EndOfPdu, SegmentUnit::Pdu);
        let a = payload(44 + 30);
        let b: Vec<u8> = payload(20).iter().map(|x| x ^ 0x5a).collect();
        let (ca, cb) = (s.segment(Vci(1), &[&a]), s.segment(Vci(1), &[&b]));
        let mut r = Reassembler::new(ReassemblyMode::SeqNum { max_cells: 64 }, 1 << 20, true);
        assert_eq!(r.receive(0, &ca[0]).unwrap().completed, None);
        let d = r.receive(1, &cb[0]).unwrap();
        assert_eq!((d.pdu, d.completed), (1, None), "b0 is stashed for PDU 1");
        let p0 = r.receive(0, &ca[1]).unwrap().completed.expect("PDU 0");
        assert_eq!((p0.pdu, p0.crc_ok), (0, true));
        assert_eq!(p0.data.as_deref(), Some(&a[..]));
        let p1 = r.take_replayed().expect("replay completes PDU 1");
        assert_eq!((p1.pdu, p1.crc_ok), (1, true));
        assert_eq!(p1.data.as_deref(), Some(&b[..]));
        assert_eq!(r.take_replayed(), None);
        assert_eq!((r.completed(), r.in_flight()), (2, 0));
    }

    #[test]
    fn out_of_range_fill_is_rejected() {
        let mut c = Cell::data(Vci(1), 0, &[0u8; 44]);
        c.aal.fill = 45;
        for mode in [
            ReassemblyMode::InOrder,
            ReassemblyMode::SeqNum { max_cells: 64 },
            ReassemblyMode::FourWay { lanes: 4 },
        ] {
            let mut r = Reassembler::new(mode, 1 << 20, true);
            assert_eq!(r.receive(0, &c).unwrap_err(), RxError::FillOutOfRange);
        }
    }

    #[test]
    fn seqnum_rejects_out_of_window() {
        let mut r = Reassembler::new(ReassemblyMode::SeqNum { max_cells: 4 }, 1 << 20, true);
        let c = Cell::data(Vci(1), 4, &[0u8; 44]);
        assert_eq!(r.receive(0, &c).unwrap_err(), RxError::SeqOutOfRange);
    }

    #[test]
    fn seqnum_rejects_partial_fill_midstream() {
        let mut r = Reassembler::new(ReassemblyMode::SeqNum { max_cells: 64 }, 1 << 20, true);
        let c = Cell::data(Vci(1), 0, &[0u8; 10]); // partial, not last
        assert_eq!(
            r.receive(0, &c).unwrap_err(),
            RxError::PartialFillUnsupported
        );
    }

    #[test]
    fn fourway_reassembles_under_lane_skew() {
        let data = payload(44 * 13 + 7);
        let cells =
            seg(FramingMode::FourWay { lanes: 4 }, SegmentUnit::Pdu).segment(Vci(1), &[&data]);
        let n = cells.len();
        // Interleave lanes with heavy skew: deliver lane 3 first, then 2,
        // then 1, then 0 — per-lane order preserved (the §2.6 skew class).
        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, true);
        let mut out = None;
        for lane in (0..4usize).rev() {
            let mut i = lane;
            while i < n {
                let d = r.receive(lane, &cells[i]).unwrap();
                out = d.completed.or(out);
                i += 4;
            }
        }
        let p = out.expect("complete");
        assert!(p.crc_ok);
        assert_eq!(p.len as usize, data.len());
        assert_eq!(p.data.unwrap(), data);
    }

    #[test]
    fn fourway_short_pdu_completes_via_last_cell_bit() {
        // A 2-cell PDU on a 4-lane stripe: lanes 2 and 3 carry nothing.
        let data = payload(60);
        let cells =
            seg(FramingMode::FourWay { lanes: 4 }, SegmentUnit::Pdu).segment(Vci(1), &[&data]);
        assert_eq!(cells.len(), 2);
        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, true);
        assert!(r.receive(0, &cells[0]).unwrap().completed.is_none());
        let p = r
            .receive(1, &cells[1])
            .unwrap()
            .completed
            .expect("complete");
        assert!(p.crc_ok);
        assert_eq!(p.data.unwrap(), data);
        // Lanes 2/3 skipped the PDU; a following PDU still works.
        let data2 = payload(44 * 6);
        let cells2 = seg(FramingMode::FourWay { lanes: 4 }, SegmentUnit::Pdu).segment_numbered(
            Vci(1),
            1,
            &[&data2],
        );
        let mut out = None;
        for (i, c) in cells2.iter().enumerate() {
            out = r.receive(i % 4, c).unwrap().completed.or(out);
        }
        let p2 = out.expect("second PDU completes");
        assert!(p2.crc_ok);
        assert_eq!(p2.pdu, 1);
        assert_eq!(p2.data.unwrap(), data2);
    }

    #[test]
    fn fourway_back_to_back_pdus_with_skew() {
        // Two PDUs; lane 0 lags a full PDU behind the other lanes.
        let d1 = payload(44 * 8);
        let d2 = payload(44 * 8);
        let s = seg(FramingMode::FourWay { lanes: 4 }, SegmentUnit::Pdu);
        let c1 = s.segment(Vci(1), &[&d1]);
        let c2 = s.segment_numbered(Vci(1), 1, &[&d2]);
        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, true);
        let mut done = Vec::new();
        // Lanes 1..3 deliver both PDUs first.
        for lane in 1..4usize {
            for cells in [&c1, &c2] {
                let mut i = lane;
                while i < cells.len() {
                    if let Some(p) = r.receive(lane, &cells[i]).unwrap().completed {
                        done.push(p);
                    }
                    i += 4;
                }
            }
        }
        assert!(done.is_empty(), "nothing completes without lane 0");
        // Lane 0 catches up.
        for cells in [&c1, &c2] {
            let mut i = 0;
            while i < cells.len() {
                if let Some(p) = r.receive(0, &cells[i]).unwrap().completed {
                    done.push(p);
                }
                i += 4;
            }
        }
        assert_eq!(done.len(), 2);
        assert!(done.iter().all(|p| p.crc_ok));
        assert_eq!(done[0].data.as_ref().unwrap(), &d1);
        assert_eq!(done[1].data.as_ref().unwrap(), &d2);
    }

    #[test]
    fn fourway_lane_out_of_range() {
        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, true);
        let c = Cell::data(Vci(1), 0, &[0u8; 44]);
        assert_eq!(r.receive(4, &c).unwrap_err(), RxError::LaneOutOfRange);
    }

    #[test]
    fn fourway_detects_lane_corruption() {
        let data = payload(44 * 9);
        let mut cells =
            seg(FramingMode::FourWay { lanes: 4 }, SegmentUnit::Pdu).segment(Vci(1), &[&data]);
        cells[5].corrupt_bit(0, 0);
        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, true);
        let mut out = None;
        for (i, c) in cells.iter().enumerate() {
            out = r.receive(i % 4, c).unwrap().completed.or(out);
        }
        assert!(!out.unwrap().crc_ok);
    }

    #[test]
    fn fourway_abort_unwedges_a_lane_missing_its_eom() {
        // Two 8-cell PDUs on a 4-lane stripe. Drop lane 2's EOM cell of the
        // first PDU (global cell 6): without intervention lane 2 is parked on
        // PDU 0 forever and PDU 1 can never complete.
        let d1 = payload(44 * 8);
        let d2 = payload(44 * 8);
        let s = seg(FramingMode::FourWay { lanes: 4 }, SegmentUnit::Pdu);
        let c1 = s.segment(Vci(1), &[&d1]);
        let c2 = s.segment_numbered(Vci(1), 1, &[&d2]);
        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, true);
        for (i, c) in c1.iter().enumerate() {
            if i == 6 {
                continue; // the dropped cell
            }
            assert!(r.receive(i % 4, c).unwrap().completed.is_none());
        }
        assert_eq!(r.in_flight(), 1);

        // Timeout fires: reclaim PDU 0.
        r.abort(0);
        assert_eq!(r.in_flight(), 0);

        // The next PDU now reassembles cleanly on all four lanes.
        let mut out = None;
        for (i, c) in c2.iter().enumerate() {
            out = r.receive(i % 4, c).unwrap().completed.or(out);
        }
        let p = out.expect("PDU 1 completes after the abort");
        assert_eq!(p.pdu, 1);
        assert!(p.crc_ok);
        assert_eq!(p.data.unwrap(), d2);
    }

    #[test]
    fn inorder_abort_resets_running_state() {
        let d1 = payload(44 * 3);
        let d2 = payload(100);
        let s = seg(FramingMode::EndOfPdu, SegmentUnit::Pdu);
        let c1 = s.segment(Vci(1), &[&d1]);
        let c2 = s.segment(Vci(1), &[&d2]);
        let mut r = Reassembler::new(ReassemblyMode::InOrder, 1 << 20, true);
        // Deliver the first two cells of PDU 0, then lose the tail.
        r.receive(0, &c1[0]).unwrap();
        r.receive(0, &c1[1]).unwrap();
        r.abort(0);
        assert_eq!(r.in_flight(), 0);
        let mut out = None;
        for c in &c2 {
            out = r.receive(0, c).unwrap().completed.or(out);
        }
        let p = out.expect("complete");
        assert!(p.crc_ok);
        assert_eq!(p.pdu, 1);
        assert_eq!(p.data.unwrap(), d2);
    }

    /// InOrder keeps its one open PDU's record outside the map, with or
    /// without the bytes: both reassemblers give the same verdict for
    /// every cell and report the same PDUs open. Seeded streams of short
    /// and oversized PDUs, with dropped cells, cells stripped of their
    /// trailer (`NoTrailer` on an EOM cell and on a bare last-cell mark)
    /// and aborts in mid-PDU.
    #[test]
    fn inorder_keep_data_does_not_change_dispositions() {
        use osiris_sim::SimRng;
        let (mut completed, mut too_large, mut no_trailer, mut aborts) = (0, 0, 0, 0);
        for seed in 0..64u64 {
            let mut rng = SimRng::new(seed);
            let max = 44 * 20;
            let mut kept = Reassembler::new(ReassemblyMode::InOrder, max, true);
            let mut lean = Reassembler::new(ReassemblyMode::InOrder, max, false);
            let s = seg(FramingMode::EndOfPdu, SegmentUnit::Pdu);
            let mut cells = Vec::new();
            for _ in 0..1 + rng.gen_range(8) {
                let len = 1 + rng.gen_range(44 * 30) as usize;
                let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                cells.extend(s.segment(Vci(5), &[&data]));
            }
            let mut open = None;
            for mut cell in cells {
                match rng.gen_range(20) {
                    0 => continue,
                    1 => cell.trailer = None,
                    2 => {
                        cell.trailer = None;
                        cell.aal.eom = false;
                        cell.header.last_cell = true;
                    }
                    3 => {
                        if let Some(pdu) = open {
                            kept.abort(pdu);
                            lean.abort(pdu);
                            aborts += 1;
                        }
                    }
                    _ => {}
                }
                let (a, b) = (kept.receive(0, &cell), lean.receive(0, &cell));
                match (&a, &b) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!((a.pdu, a.offset), (b.pdu, b.offset), "seed {seed}");
                        let verdict = |c: &PduComplete| (c.pdu, c.len, c.crc_ok);
                        let (ca, cb) = (a.completed.as_ref(), b.completed.as_ref());
                        assert_eq!(ca.map(verdict), cb.map(verdict), "seed {seed}");
                        if let Some(c) = ca {
                            assert_eq!(c.data.as_ref().map(Vec::len), Some(c.len as usize));
                            assert!(cb.is_some_and(|c| c.data.is_none()));
                            completed += 1;
                        }
                        open = a.completed.is_none().then_some(a.pdu);
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b, "seed {seed}");
                        too_large += (*a == RxError::PduTooLarge) as u32;
                        no_trailer += (*a == RxError::NoTrailer) as u32;
                    }
                    _ => panic!("seed {seed}: {a:?} vs {b:?}"),
                }
                assert_eq!(kept.in_flight(), lean.in_flight(), "seed {seed}");
                assert!(kept.in_flight() <= 1, "seed {seed}");
            }
        }
        // Every branch the property speaks for was taken.
        assert!(completed > 50 && too_large > 50 && no_trailer > 50 && aborts > 50);
    }

    #[test]
    fn pdu_too_large_rejected() {
        let mut r = Reassembler::new(ReassemblyMode::InOrder, 40, true);
        let c = Cell::data(Vci(1), 0, &[0u8; 44]);
        assert_eq!(r.receive(0, &c).unwrap_err(), RxError::PduTooLarge);
    }

    #[test]
    fn disposition_offsets_are_placement_addresses() {
        let data = payload(44 * 5);
        let cells =
            seg(FramingMode::FourWay { lanes: 4 }, SegmentUnit::Pdu).segment(Vci(1), &[&data]);
        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, false);
        // Deliver in a skewed but per-lane-FIFO order and check offsets
        // equal global_cell_index * 44.
        let order = [(1usize, 1usize), (2, 2), (0, 0), (3, 3), (0, 4)];
        for &(lane, idx) in &order {
            let d = r.receive(lane, &cells[idx]).unwrap();
            assert_eq!(d.offset as usize, idx * 44, "cell {idx}");
        }
    }

    #[test]
    fn fourway_lost_cell_does_not_stitch_consecutive_pdus() {
        // Regression: two consecutive 2-cell PDUs on the same VCI (the
        // shape of every block-ack), with PDU A's lane-0 cell lost. Under
        // purely positional framing, lane 0 stays parked on A's record and
        // silently attributes B's lane-0 cell to it — completing A's record
        // as a stitch of [B-cell0, A-cell1] whose per-lane CRCs BOTH pass
        // (each lane's contribution is individually intact), so a torn PDU
        // was delivered with `crc_ok`. The per-VCI PDU tag in the AAL
        // header now resynchronises lane 0 onto B instead.
        let a = payload(60);
        let b: Vec<u8> = payload(60).iter().map(|x| x ^ 0xa5).collect();
        let s = seg(FramingMode::FourWay { lanes: 4 }, SegmentUnit::Pdu);
        let ca = s.segment_numbered(Vci(1), 0, &[&a]);
        let cb = s.segment_numbered(Vci(1), 1, &[&b]);
        assert_eq!((ca.len(), cb.len()), (2, 2));

        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, true);
        // ca[0] (lane 0) is dropped on the wire.
        assert!(r.receive(1, &ca[1]).unwrap().completed.is_none());
        let d = r.receive(0, &cb[0]).unwrap();
        assert_eq!(d.pdu, 1, "lane 0 must resync onto PDU 1, not stitch PDU 0");
        assert!(d.completed.is_none());
        let p = r
            .receive(1, &cb[1])
            .unwrap()
            .completed
            .expect("PDU 1 completes");
        assert_eq!(p.pdu, 1);
        assert!(p.crc_ok);
        assert_eq!(p.data.unwrap(), b, "B delivered intact, not torn");
        // A's partial record lingers until the reassembly timeout reaps it;
        // it can never complete (and thus never deliver torn data).
        assert_eq!(r.in_flight(), 1);
    }

    #[test]
    fn fourway_straggler_after_abort_is_rejected() {
        // A cell of an aborted PDU arriving after its lane resynchronised
        // must be dropped, not attributed to the successor PDU.
        let a = payload(60);
        let s = seg(FramingMode::FourWay { lanes: 4 }, SegmentUnit::Pdu);
        let ca = s.segment_numbered(Vci(1), 0, &[&a]);
        let mut r = Reassembler::new(ReassemblyMode::FourWay { lanes: 4 }, 1 << 20, true);
        assert!(r.receive(1, &ca[1]).unwrap().completed.is_none());
        r.abort(0);
        assert_eq!(
            r.receive(0, &ca[0]).unwrap_err(),
            RxError::StaleSeq,
            "straggler of the aborted PDU is rejected by its stale tag"
        );
    }

    /// One seeded fuzz case: a few PDUs segmented for `mode`, each PDU's
    /// cells striped round-robin over the lanes, then mutated per lane
    /// and merged into one arrival sequence.
    struct FuzzCase {
        mode: ReassemblyMode,
        sent: Vec<Vec<u8>>,
        arrivals: Vec<(usize, Cell)>,
        /// No mutation, and lanes merged in global cell order.
        clean: bool,
        /// No mutation (the merge may still skew the lanes).
        unmutated: bool,
    }

    /// Fuzz case `seed`; its mode cycles through InOrder, SeqNum and
    /// FourWay over one to four lanes.
    fn fuzz_case(seed: u64) -> FuzzCase {
        use osiris_sim::SimRng;
        let mut rng = SimRng::new(seed);
        let mode = match seed % 6 {
            0 => ReassemblyMode::InOrder,
            1 => ReassemblyMode::SeqNum { max_cells: 64 },
            l => ReassemblyMode::FourWay { lanes: l as u8 - 1 },
        };
        let (framing, lanes) = match mode {
            ReassemblyMode::FourWay { lanes } => (FramingMode::FourWay { lanes }, lanes as usize),
            // The striped link still spreads the cells over four lanes.
            _ => (FramingMode::EndOfPdu, 4),
        };
        let s = seg(framing, SegmentUnit::Pdu);
        // Each lane's cells with their place in segmentation order.
        let mut per_lane: Vec<VecDeque<(usize, Cell)>> = vec![VecDeque::new(); lanes];
        let mut sent = Vec::new();
        for n in 0..1 + rng.gen_range(4) {
            let len = 1 + rng.gen_range(44 * 10) as usize;
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            for (i, c) in s
                .segment_numbered(Vci(9), n as u16, &[&data])
                .into_iter()
                .enumerate()
            {
                let order = per_lane.iter().map(VecDeque::len).sum();
                per_lane[i % lanes].push_back((order, c));
            }
            sent.push(data);
        }
        // Mutations act within one lane, so a lane stays a FIFO.
        let mutations = rng.gen_range(4);
        for _ in 0..mutations {
            let lane = rng.gen_range(lanes as u64) as usize;
            let q = &mut per_lane[lane];
            if q.is_empty() {
                continue;
            }
            let at = rng.gen_range(q.len() as u64) as usize;
            match rng.gen_range(5) {
                0 => {
                    q.remove(at);
                }
                1 => {
                    let c = q[at].clone();
                    q.insert(at + 1, c);
                }
                2 => {
                    q[at].1.aal.seq ^= if rng.gen_bool(0.5) {
                        1 << rng.gen_range(16)
                    } else {
                        1 + rng.gen_range(u16::MAX as u64) as u16
                    };
                }
                3 => q[at].1.aal.fill = rng.next_u64() as u8,
                _ => q[at].1.aal.eom = !q[at].1.aal.eom,
            }
        }
        // Merge the lanes: either in segmentation order, or with random
        // skew (any interleaving that keeps each lane's order).
        let skew = rng.gen_bool(0.5);
        let mut arrivals = Vec::new();
        loop {
            let live: Vec<usize> = (0..lanes).filter(|&l| !per_lane[l].is_empty()).collect();
            let Some(&first) = live.iter().min_by_key(|&&l| per_lane[l][0].0) else {
                break;
            };
            let lane = if skew {
                live[rng.gen_range(live.len() as u64) as usize]
            } else {
                first
            };
            let (_, cell) = per_lane[lane].pop_front().expect("live lane");
            arrivals.push((lane, cell));
        }
        FuzzCase {
            mode,
            sent,
            arrivals,
            clean: mutations == 0 && !skew,
            unmutated: mutations == 0,
        }
    }

    /// Feeds every arrival, collecting each completion — the cell's own
    /// and any stash replay produced — and counting the replayed ones.
    fn reassemble(case: &FuzzCase) -> (Vec<PduComplete>, usize) {
        let mut r = Reassembler::new(case.mode, 1 << 20, true);
        let (mut done, mut replayed) = (Vec::new(), 0);
        for (lane, cell) in &case.arrivals {
            if let Ok(d) = r.receive(*lane, cell) {
                done.extend(d.completed);
            }
            while let Some(p) = r.take_replayed() {
                done.push(p);
                replayed += 1;
            }
        }
        (done, replayed)
    }

    /// Every sent PDU completed once, intact, under its own number.
    fn delivers_every_pdu(case: &FuzzCase, done: &[PduComplete]) -> bool {
        let mut pdus: Vec<u64> = done.iter().map(|p| p.pdu).collect();
        pdus.sort_unstable();
        pdus == (0..case.sent.len() as u64).collect::<Vec<_>>()
            && done
                .iter()
                .all(|p| p.crc_ok && p.data.as_ref() == Some(&case.sent[p.pdu as usize]))
    }

    /// Runs fuzz case `seed` and checks it: no panic, no good CRC on
    /// bytes that were not sent, and an unmutated stream delivered whole
    /// wherever the mode promises it (every mode in cell order, FourWay
    /// under any lane skew). Returns the good and bad completions.
    fn check_fuzz_case(seed: u64) -> (usize, usize) {
        let case = fuzz_case(seed);
        let (done, _) = reassemble(&case);
        for p in done.iter().filter(|p| p.crc_ok) {
            assert!(
                case.sent.contains(p.data.as_ref().expect("kept")),
                "seed {seed}: {:?} reported a good CRC on bytes never sent",
                case.mode
            );
        }
        let whole =
            case.clean || (case.unmutated && matches!(case.mode, ReassemblyMode::FourWay { .. }));
        if whole {
            assert!(
                delivers_every_pdu(&case, &done),
                "seed {seed}: {:?}",
                case.mode
            );
        }
        let good = done.iter().filter(|p| p.crc_ok).count();
        (good, done.len() - good)
    }

    /// Seeded mutation fuzz of the AAL sequence tags and framing bits:
    /// dropped, duplicated, skewed, re-tagged, re-filled and re-framed
    /// cells under every reassembly mode (see [`check_fuzz_case`]).
    #[test]
    fn mutated_cell_streams_never_panic_or_misdeliver() {
        let (mut good, mut bad) = (0, 0);
        for seed in 0..6_000u64 {
            let (g, b) = check_fuzz_case(seed);
            good += g;
            bad += b;
        }
        // Both verdicts must be exercised for the property to mean much.
        assert!(good > 1000 && bad > 1000, "{good}/{bad}");
    }

    /// Fuzz seeds that found bugs, each still checked on its own:
    /// * 27: a FourWay end-of-lane cell without a trailer was stored
    ///   before being rejected, shifting its lane's later cells while the
    ///   lane CRC still covered them all;
    /// * 4113: a re-tagged FourWay cell moved a whole lane contribution
    ///   into a later PDU of the same shape, and the lane CRC, over the
    ///   bytes alone, passed the stitch;
    /// * 9167: a cell on a lane its PDU leaves empty tripped a debug
    ///   assertion at completion.
    #[test]
    fn fuzz_seeds_that_found_bugs_stay_fixed() {
        for seed in [27, 4113, 9167] {
            check_fuzz_case(seed);
        }
    }

    /// The fuzz seed whose SeqNum stream has a whole PDU overtake its
    /// predecessor's tail, so stash replay completes it.
    const SEQNUM_OVERTAKE_SEED: u64 = 73;

    #[test]
    fn fuzz_seed_with_a_seqnum_overtake_delivers_every_pdu() {
        let case = fuzz_case(SEQNUM_OVERTAKE_SEED);
        assert_eq!(case.mode, ReassemblyMode::SeqNum { max_cells: 64 });
        assert!(case.unmutated);
        let (done, replayed) = reassemble(&case);
        assert!(replayed > 0, "stash replay completed a PDU");
        assert!(delivers_every_pdu(&case, &done));
    }
}
