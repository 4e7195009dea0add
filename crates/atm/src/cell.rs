//! ATM cells as OSIRIS uses them.
//!
//! A cell occupies 53 bytes on the wire (5-byte ATM header + 48-byte
//! payload). Of the 48 payload bytes, 4 are AAL overhead, leaving the
//! paper's **44 bytes of data per cell** (§2.5: "44 bytes, because of AAL
//! overhead") — which is also why the 622 Mbps SONET link delivers only
//! 516 Mbps of data bandwidth.
//!
//! Model-level layout:
//!
//! * The ATM header carries the VCI and the extra "very last cell of the
//!   PDU" framing bit §2.6 proposes for PDUs shorter than the stripe width.
//! * The AAL header carries a 16-bit cell sequence number (strategy 1 of
//!   §2.6) and an end-of-(sub)stream framing bit (AAL5-style, used per
//!   stripe lane by strategy 2).
//! * The AAL5-style trailer (PDU/sub-stream length + real CRC-32) is carried
//!   out-of-band in the `Trailer` field of the end-of-stream cell rather
//!   than inside the 44 data bytes. This keeps the paper's throughput
//!   arithmetic (44 data bytes per 53 wire bytes) exact while the CRC is
//!   still genuinely computed and checked; documented in DESIGN.md.
//! * The payload is private. Every writer of a full cell's payload also
//!   stores the CRC register contribution of its 44 bytes
//!   ([`crc::cell_remainder`]), so a full cell's bytes go through the CRC
//!   kernel once, where they are written, and every CRC over them folds
//!   the carried remainder ([`Cell::absorb`]). A partial cell carries
//!   none: a CRC over it updates over its valid bytes.

use crate::crc::{self, Crc32};
use crate::vci::Vci;
use osiris_sim::TraceCtx;

/// Data bytes carried per cell.
pub const CELL_PAYLOAD: usize = 44;
/// Bytes a cell occupies on the wire (ATM header + 48-byte payload).
pub const CELL_BYTES_ON_WIRE: u64 = 53;

/// The ATM cell header fields the OSIRIS firmware looks at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellHeader {
    /// Virtual circuit identifier — the early-demultiplexing key (§3.1).
    pub vci: Vci,
    /// §2.6's extra framing bit: set on the very last cell of a PDU so
    /// reassembly completes even when the PDU has fewer cells than lanes.
    pub last_cell: bool,
}

/// AAL (adaptation layer) per-cell header — the 4 bytes of overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AalHeader {
    /// Cell index within the PDU (mod 2^16). Strategy 1 of §2.6 uses this
    /// to place out-of-order cells.
    pub seq: u16,
    /// End-of-stream framing bit. With [`FramingMode::EndOfPdu`] it marks
    /// the last cell of the PDU; with [`FramingMode::FourWay`] it marks the
    /// last cell of this *lane's* sub-stream.
    ///
    /// [`FramingMode::EndOfPdu`]: crate::sar::FramingMode::EndOfPdu
    /// [`FramingMode::FourWay`]: crate::sar::FramingMode::FourWay
    pub eom: bool,
    /// Number of valid data bytes, `1..=44`. Less than 44 mid-PDU only in
    /// the "partially filled cells" mode §2.5.2 criticises.
    pub fill: u8,
}

/// AAL5-style trailer carried by end-of-stream cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trailer {
    /// Total data length of the protected stream (PDU or lane sub-stream).
    pub len: u32,
    /// CRC-32 over the protected stream's data bytes, in order.
    pub crc: u32,
}

/// A cell in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// ATM header.
    pub header: CellHeader,
    /// AAL per-cell header. Only a full cell carries a remainder
    /// ([`Cell::remainder`]), so changing `fill` after a write leaves it
    /// stale.
    pub aal: AalHeader,
    /// The 44-byte data payload (only `aal.fill` bytes valid).
    payload: [u8; CELL_PAYLOAD],
    /// `crc::cell_remainder(&payload)` of a full cell, refreshed by every
    /// writer of `payload`; 0 for a partial cell.
    rem: u32,
    /// Present on cells with `aal.eom` set.
    pub trailer: Option<Trailer>,
    /// Simulation-side causal identity of the PDU this cell carries a
    /// piece of — metadata for per-PDU tracing, **not** wire bytes (it
    /// costs nothing in the 44/53 throughput arithmetic).
    pub ctx: Option<TraceCtx>,
}

impl Cell {
    /// A data cell with the given sequence number and payload bytes.
    ///
    /// # Panics
    /// Panics if `data` is empty or longer than 44 bytes.
    pub fn data(vci: Vci, seq: u16, data: &[u8]) -> Self {
        assert!(
            !data.is_empty() && data.len() <= CELL_PAYLOAD,
            "bad cell fill {}",
            data.len()
        );
        let mut payload = [0u8; CELL_PAYLOAD];
        payload[..data.len()].copy_from_slice(data);
        let header = CellHeader {
            vci,
            last_cell: false,
        };
        let aal = AalHeader {
            seq,
            eom: false,
            fill: data.len() as u8,
        };
        Cell::cut(header, aal, payload)
    }

    /// A cell of `payload`, with no trailer and no trace identity: the
    /// segmenter's writer.
    pub(crate) fn cut(header: CellHeader, aal: AalHeader, payload: [u8; CELL_PAYLOAD]) -> Self {
        let mut cell = Cell {
            header,
            aal,
            rem: 0,
            payload,
            trailer: None,
            ctx: None,
        };
        cell.refresh_remainder();
        cell
    }

    /// All 44 payload bytes (only `aal.fill` of them valid).
    pub fn payload(&self) -> &[u8; CELL_PAYLOAD] {
        &self.payload
    }

    /// The valid data bytes.
    #[inline]
    pub fn data_bytes(&self) -> &[u8] {
        &self.payload[..self.aal.fill as usize]
    }

    /// The carried CRC remainder of a full cell's 44 payload bytes
    /// ([`crc::cell_remainder`]), as the last writer stored it. Writers
    /// compute it only when `aal.fill` is the whole payload, the one case
    /// [`Cell::absorb`] folds it; a partial cell carries 0.
    pub fn remainder(&self) -> u32 {
        self.rem
    }

    /// Recomputes the carried remainder after a write to the payload or a
    /// change of `aal.fill`: a full cell's, or 0 for a partial one.
    pub(crate) fn refresh_remainder(&mut self) {
        self.rem = if self.aal.fill as usize == CELL_PAYLOAD {
            crc::cell_remainder(&self.payload)
        } else {
            0
        };
    }

    /// Absorbs the valid data bytes into `crc`: a full cell folds its
    /// carried remainder ([`Crc32::absorb_cell`]), a partial one
    /// updates over its bytes. Debug builds recompute the remainder at
    /// every fold and check it against the carried one.
    #[inline]
    pub fn absorb(&self, crc: &mut Crc32) {
        if self.aal.fill as usize == CELL_PAYLOAD {
            debug_assert_eq!(
                self.rem,
                crc::cell_remainder(&self.payload),
                "carried remainder is stale"
            );
            crc.absorb_cell(self.rem);
        } else {
            crc.update(self.data_bytes());
        }
    }

    /// Overwrites payload bytes `at..at + bytes.len()` and refreshes the
    /// carried remainder (the partial writer: a sender restamping a
    /// header into a cell it keeps).
    ///
    /// # Panics
    /// Panics if the range runs past the payload.
    pub fn write_payload(&mut self, at: usize, bytes: &[u8]) {
        self.payload[at..at + bytes.len()].copy_from_slice(bytes);
        self.refresh_remainder();
    }

    /// Flips one payload bit (fault injection for CRC tests) and
    /// refreshes the carried remainder, so the cell carries the
    /// remainder of its corrupted bytes.
    pub fn corrupt_bit(&mut self, byte: usize, bit: u8) {
        self.payload[byte % CELL_PAYLOAD] ^= 1 << (bit % 8);
        self.refresh_remainder();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_sets_fill() {
        let c = Cell::data(Vci(5), 3, b"hello");
        assert_eq!(c.aal.fill, 5);
        assert_eq!(c.data_bytes(), b"hello");
        assert_eq!(c.aal.seq, 3);
        assert!(!c.aal.eom);
        assert!(!c.header.last_cell);
        assert_eq!(c.header.vci, Vci(5));
    }

    #[test]
    fn full_cell() {
        let data = [7u8; CELL_PAYLOAD];
        let c = Cell::data(Vci(1), 0, &data);
        assert_eq!(c.aal.fill as usize, CELL_PAYLOAD);
        assert_eq!(c.data_bytes(), &data);
    }

    #[test]
    #[should_panic(expected = "bad cell fill")]
    fn empty_cell_panics() {
        Cell::data(Vci(1), 0, b"");
    }

    #[test]
    #[should_panic(expected = "bad cell fill")]
    fn oversize_cell_panics() {
        Cell::data(Vci(1), 0, &[0u8; CELL_PAYLOAD + 1]);
    }

    #[test]
    fn corrupt_bit_flips_payload() {
        let mut c = Cell::data(Vci(1), 0, &[0u8; 44]);
        c.corrupt_bit(10, 3);
        assert_eq!(c.payload()[10], 0b1000);
        c.corrupt_bit(10, 3);
        assert_eq!(c.payload()[10], 0);
    }

    #[test]
    fn every_writer_refreshes_the_carried_remainder() {
        // Full cells only: a partial cell carries no remainder.
        let fresh = |c: &Cell| crc::cell_remainder(c.payload());
        let mut rng = osiris_sim::SimRng::new(0xCE11_4E44);
        let data: Vec<u8> = (0..CELL_PAYLOAD).map(|_| rng.next_u64() as u8).collect();
        let mut c = Cell::data(Vci(2), 0, &data);
        assert_eq!(c.remainder(), fresh(&c), "data");
        for _ in 0..32 {
            let at = rng.gen_range(CELL_PAYLOAD as u64) as usize;
            let len = rng.gen_range((CELL_PAYLOAD - at) as u64 + 1) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            c.write_payload(at, &bytes);
            assert_eq!(&c.payload()[at..at + len], &bytes[..]);
            assert_eq!(c.remainder(), fresh(&c), "write_payload {at}+{len}");
            c.corrupt_bit(rng.next_u64() as usize, rng.next_u64() as u8);
            assert_eq!(c.remainder(), fresh(&c), "corrupt_bit");
        }
    }

    #[test]
    fn absorbing_a_cell_equals_updating_its_valid_bytes() {
        for fill in [1, 30, CELL_PAYLOAD] {
            let data: Vec<u8> = (0..fill as u8).map(|b| b.wrapping_mul(37)).collect();
            let c = Cell::data(Vci(2), 0, &data);
            let (mut absorbed, mut updated) = (Crc32::new(), Crc32::new());
            c.absorb(&mut absorbed);
            updated.update(&data);
            assert_eq!(absorbed, updated, "fill {fill}");
        }
    }

    #[test]
    fn wire_size_constants() {
        // 44/53 payload efficiency on a 622 Mbps link ⇒ ~516 Mbps of data,
        // the paper's figure for usable bandwidth.
        let payload_rate: f64 = 622.0 * CELL_PAYLOAD as f64 / CELL_BYTES_ON_WIRE as f64;
        assert!((payload_rate - 516.4).abs() < 0.1);
    }
}
