//! # osiris-proto — the protocol substrate (x-kernel analog)
//!
//! The paper's host software is "the Mach 3.0 operating system retrofitted
//! with a network subsystem based on the x-kernel", running UDP/IP over the
//! OSIRIS driver with a 16 KB MTU and optional UDP checksumming. This crate
//! supplies that stack:
//!
//! * [`wire`] — header formats with real byte encodings and the Internet
//!   checksum. Following the paper's footnote ("our otherwise standard
//!   implementations of IP and UDP were modified to support message sizes
//!   larger than 64 KB"), length and offset fields are 32-bit.
//! * [`frag`] — IP fragmentation arithmetic, including §2.2's rule:
//!   "choosing an MTU size that is a multiple of the page size, plus the
//!   IP header size … ensures that fragment boundaries align with page
//!   boundaries".
//! * [`msg`] — the x-kernel message tool: a chain of address/length
//!   segments supporting cheap header prepend and fragment split without
//!   copying data.
//! * [`stack`] — the cost-charging protocol engine: builds real packets in
//!   host memory on output, parses and reassembles on input, and — when
//!   UDP checksumming meets a stale cache (§2.3) — performs the paper's
//!   lazy invalidate-and-re-evaluate recovery. Its opt-in reliable mode
//!   (the windowed selective repeat with block acks the loss and
//!   congestion-control experiments run) lives in the private `reliable`
//!   module; its constants and [`stack::CcScheme`] are re-exported by
//!   [`stack`].
//! * [`graph`] — protocol paths: the connection ↔ VCI binding that feeds
//!   early demultiplexing (§3.1).

pub mod frag;
pub mod graph;
pub mod msg;
mod reliable;
pub mod stack;
pub mod wire;

pub use frag::{fragment_layout, FragPlan};
pub use graph::{PathId, PathTable, PortAddr};
pub use msg::Message;
pub use stack::{ProtoConfig, ProtoStack, RxVerdict, TxPacket};
pub use wire::{IpHeader, UdpHeader, IP_HEADER_BYTES, UDP_HEADER_BYTES};
