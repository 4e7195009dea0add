//! # osiris-atm — ATM substrate
//!
//! Everything between the two OSIRIS boards: 53-byte cells with a 44-byte
//! AAL payload (§2.5: "44 bytes, because of AAL overhead"), CRC-protected
//! framing, segmentation-and-reassembly algorithms — including the two
//! skew-tolerant reassembly strategies of §2.6 — and the striped physical
//! link (4 × 155 Mbps lanes treated as one 622 Mbps channel) with the three
//! skew sources the paper identifies.
//!
//! The SAR code here is "the software running on the two 80960s": it is
//! deliberately written as plain, allocation-light state machines, because
//! in the paper this logic had to fit a tight on-board instruction budget.

pub mod cell;
pub mod crc;
pub mod link;
pub mod sar;
pub mod slab;
pub mod stripe;
pub mod switch;
pub mod traffic;
pub mod vci;

pub use cell::{AalHeader, Cell, CellHeader, Trailer, CELL_BYTES_ON_WIRE, CELL_PAYLOAD};
pub use crc::{crc10, crc32, Crc32};
pub use link::{LinkLane, LinkSpec};
pub use sar::{
    CellDisposition, FramingMode, PduComplete, Reassembler, ReassemblyMode, RxError, SegCursor,
    SegmentUnit, Segmenter,
};
pub use slab::{CellRef, CellSlab};
pub use stripe::{SkewConfig, StripedLink};
pub use switch::{Switch, SwitchSpec};
pub use traffic::{TrafficModel, TrafficSource};
pub use vci::{Vci, VciTable};
