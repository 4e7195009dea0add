//! Virtual circuit identifiers, treated as an abundant resource.
//!
//! §3.1: "we treat VCIs as a fairly abundant resource; each of the
//! potentially hundreds of paths (connections) on a given host is bound to
//! a VCI for the duration of the path". The table below holds those
//! bindings: VCI → path identifier.

use std::collections::HashMap;

/// A virtual circuit identifier (16 bits on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vci(pub u16);

/// VCI → path binding table: each VCI binds to at most one path.
#[derive(Debug, Clone, Default)]
pub struct VciTable {
    bindings: HashMap<Vci, u32>,
}

impl VciTable {
    /// Binds a specific VCI (used by the passive side of a connection).
    ///
    /// Returns `false` if the VCI was already bound to a different path.
    pub fn bind(&mut self, vci: Vci, path: u32) -> bool {
        match self.bindings.get(&vci) {
            Some(&p) if p != path => false,
            _ => {
                self.bindings.insert(vci, path);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_conflict_rejected() {
        let mut t = VciTable::default();
        assert!(t.bind(Vci(50), 1));
        assert!(
            !t.bind(Vci(50), 2),
            "rebinding to a different path must fail"
        );
        assert!(t.bind(Vci(50), 1), "idempotent rebind is fine");
    }
}
