//! Protocol paths: the connection ↔ VCI binding of §3.1.
//!
//! "The x-kernel provides a mechanism for establishing a path through the
//! protocol graph, where a path is given by the sequence of sessions that
//! will process incoming and outgoing messages on behalf of a particular
//! application-level connection. Each path is then bound to an unused VCI
//! by the device driver." The path table is the host-side mirror of the
//! board's VCI table: it keys fbuf caches, ADC ownership, and delivery.

use std::collections::HashMap;

use osiris_atm::Vci;
use osiris_host::domain::DomainId;

/// A path (connection) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(pub u32);

/// A UDP-level endpoint pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortAddr {
    /// Local port.
    pub local_port: u16,
    /// Remote port.
    pub remote_port: u16,
    /// Remote host (model address).
    pub remote_host: u16,
}

/// One established path.
#[derive(Debug, Clone, Copy)]
pub struct PathEntry {
    /// The path's VCI (bound for the connection's lifetime).
    pub vci: Vci,
    /// The UDP endpoints.
    pub ports: PortAddr,
    /// The protection domain that owns the endpoint.
    pub domain: DomainId,
    /// The board queue page serving this path (0 = kernel).
    pub queue_page: usize,
}

/// Host-side path registry: each VCI binds to at most one path.
#[derive(Debug)]
pub struct PathTable {
    paths: HashMap<PathId, PathEntry>,
    by_port: HashMap<u16, PathId>,
    next_id: u32,
}

impl Default for PathTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PathTable {
    /// A table treating VCIs as abundant (hundreds available).
    pub fn new() -> Self {
        PathTable {
            paths: HashMap::new(),
            by_port: HashMap::new(),
            next_id: 1,
        }
    }

    /// Opens a path on a *specific* VCI (the passive side agrees on the
    /// initiator's choice out of band, as the testbed harness does).
    /// Returns `None` if another path already holds the VCI.
    pub fn open_on_vci(
        &mut self,
        vci: Vci,
        ports: PortAddr,
        domain: DomainId,
        queue_page: usize,
    ) -> Option<PathId> {
        if self.paths.values().any(|p| p.vci == vci) {
            return None;
        }
        let id = PathId(self.next_id);
        self.next_id += 1;
        self.paths.insert(
            id,
            PathEntry {
                vci,
                ports,
                domain,
                queue_page,
            },
        );
        self.by_port.insert(ports.local_port, id);
        Some(id)
    }

    /// Delivery demultiplexing by local port.
    pub fn by_local_port(&self, port: u16) -> Option<(PathId, &PathEntry)> {
        let id = *self.by_port.get(&port)?;
        Some((id, self.paths.get(&id)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ports(p: u16) -> PortAddr {
        PortAddr {
            local_port: p,
            remote_port: p + 1,
            remote_host: 2,
        }
    }

    #[test]
    fn open_on_vci_refuses_a_bound_vci() {
        let mut t = PathTable::new();
        let a = t
            .open_on_vci(Vci(40), ports(100), DomainId::KERNEL, 0)
            .unwrap();
        let b = t.open_on_vci(Vci(41), ports(200), DomainId(1), 3).unwrap();
        assert_ne!(a, b);
        assert!(t
            .open_on_vci(Vci(40), ports(300), DomainId::KERNEL, 0)
            .is_none());
        assert!(
            t.by_local_port(300).is_none(),
            "a refused path is not registered"
        );
        assert_eq!(t.by_local_port(100).unwrap().1.queue_page, 0);
        assert_eq!(t.by_local_port(200).unwrap().1.domain, DomainId(1));
    }

    #[test]
    fn port_demux() {
        let mut t = PathTable::new();
        let id = t
            .open_on_vci(Vci(40), ports(7), DomainId::KERNEL, 0)
            .unwrap();
        let (found, entry) = t.by_local_port(7).unwrap();
        assert_eq!(found, id);
        assert_eq!(entry.ports.remote_port, 8);
        assert_eq!(entry.vci, Vci(40));
        assert!(t.by_local_port(99).is_none());
    }

    #[test]
    fn hundreds_of_paths() {
        let mut t = PathTable::new();
        for i in 0..500u16 {
            let vci = Vci(32 + i);
            assert!(t
                .open_on_vci(vci, ports(1000 + i), DomainId::KERNEL, 0)
                .is_some());
        }
        for i in 0..500u16 {
            assert_eq!(t.by_local_port(1000 + i).unwrap().1.vci, Vci(32 + i));
        }
    }
}
