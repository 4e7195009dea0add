//! Virtual circuit identifiers, treated as an abundant resource.
//!
//! §3.1: "we treat VCIs as a fairly abundant resource; each of the
//! potentially hundreds of paths (connections) on a given host is bound to
//! a VCI for the duration of the path". The host keeps those bindings in
//! its path table (`osiris_proto::graph::PathTable`).

/// A virtual circuit identifier (16 bits on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vci(pub u16);
