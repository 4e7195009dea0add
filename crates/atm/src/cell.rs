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
    /// AAL per-cell header.
    pub aal: AalHeader,
    /// The 44-byte data payload (only `aal.fill` bytes valid).
    pub payload: [u8; CELL_PAYLOAD],
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
        Cell {
            header: CellHeader {
                vci,
                last_cell: false,
            },
            aal: AalHeader {
                seq,
                eom: false,
                fill: data.len() as u8,
            },
            payload,
            trailer: None,
            ctx: None,
        }
    }

    /// The valid data bytes.
    pub fn data_bytes(&self) -> &[u8] {
        &self.payload[..self.aal.fill as usize]
    }

    /// Flips one payload bit (fault injection for CRC tests).
    pub fn corrupt_bit(&mut self, byte: usize, bit: u8) {
        self.payload[byte % CELL_PAYLOAD] ^= 1 << (bit % 8);
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
        assert_eq!(c.payload[10], 0b1000);
        c.corrupt_bit(10, 3);
        assert_eq!(c.payload[10], 0);
    }

    #[test]
    fn wire_size_constants() {
        // 44/53 payload efficiency on a 622 Mbps link ⇒ ~516 Mbps of data,
        // the paper's figure for usable bandwidth.
        let payload_rate: f64 = 622.0 * CELL_PAYLOAD as f64 / CELL_BYTES_ON_WIRE as f64;
        assert!((payload_rate - 516.4).abs() < 0.1);
    }
}
