//! Page wiring services (§2.4).
//!
//! "Whenever the address of a buffer is passed to the OSIRIS on-board
//! processors for use in DMA transfers, the corresponding pages must be
//! wired." Two services are modelled:
//!
//! * [`WiringMode::MachStandard`] — Mach's `vm_wire`-style service, which
//!   "provides stronger guarantees than are actually needed" (it also
//!   protects page-table pages) and showed "surprisingly high overhead";
//! * [`WiringMode::LowLevel`] — the pmap-level path the authors switched
//!   to, "with acceptable performance".
//!
//! Costs are charged per page whose wiring state actually changes; pages
//! already wired are free (the driver keeps its receive pool permanently
//! wired, so the cost shows up on the transmit path).

use osiris_mem::{AddressSpace, MapError, VirtAddr};
use osiris_sim::resource::Grant;
use osiris_sim::{SimDuration, SimTime};

use crate::machine::HostMachine;

/// Which wiring service the driver uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WiringMode {
    /// Mach's standard service (heavyweight).
    MachStandard,
    /// Low-level pmap functionality (what the paper converged on).
    LowLevel,
}

impl WiringMode {
    /// Cost per page whose state changes, on the given machine. The Mach
    /// path is dominated by machine-independent VM bookkeeping, so it is
    /// taken as ~6× the low-level path (no absolute figure is published;
    /// the ratio is an estimate recorded in DESIGN.md).
    pub fn cost_per_page(self, h: &HostMachine) -> SimDuration {
        let base = match h.spec.bus.topology {
            osiris_mem::MemTopology::SharedBus => SimDuration::from_us(9),
            osiris_mem::MemTopology::Crossbar => SimDuration::from_us(4),
        };
        match self {
            WiringMode::LowLevel => base,
            WiringMode::MachStandard => SimDuration::from_ps(base.as_ps() * 6),
        }
    }
}

/// Charges wiring costs and tracks state through the address space.
#[derive(Debug, Clone, Copy)]
pub struct WiringService {
    /// The service in use.
    pub mode: WiringMode,
}

impl WiringService {
    /// Wires `[va, va+len)` in `asp`, charging CPU time for each page that
    /// changed state. Returns the completion grant and pages changed.
    pub fn wire(
        &self,
        now: SimTime,
        h: &mut HostMachine,
        asp: &mut AddressSpace,
        va: VirtAddr,
        len: u64,
    ) -> Result<(Grant, u64), MapError> {
        let changed = asp.wire(va, len)?;
        let cost = SimDuration::from_ps(self.mode.cost_per_page(h).as_ps() * changed);
        Ok((h.run_cpu(now, cost), changed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineSpec;

    fn setup() -> (HostMachine, AddressSpace) {
        let h = HostMachine::boot(MachineSpec::ds5000_200(), 3);
        let asp = AddressSpace::new(h.spec.page_size);
        (h, asp)
    }

    #[test]
    fn mach_standard_is_much_slower() {
        let (mut h, mut asp) = setup();
        let r = asp.alloc_and_map(4 * 4096, &mut h.alloc).unwrap();
        let std_svc = WiringService {
            mode: WiringMode::MachStandard,
        };
        let (g1, n1) = std_svc
            .wire(SimTime::ZERO, &mut h, &mut asp, r.base, r.len)
            .unwrap();
        assert_eq!(n1, 4);
        let t_std = g1.finish.since(g1.start);

        let (mut h2, mut asp2) = setup();
        let r2 = asp2.alloc_and_map(4 * 4096, &mut h2.alloc).unwrap();
        let low = WiringService {
            mode: WiringMode::LowLevel,
        };
        let (g2, _) = low
            .wire(SimTime::ZERO, &mut h2, &mut asp2, r2.base, r2.len)
            .unwrap();
        let t_low = g2.finish.since(g2.start);
        assert!(t_std.as_ps() >= 5 * t_low.as_ps(), "{t_std} vs {t_low}");
    }

    #[test]
    fn rewiring_wired_pages_is_free() {
        let (mut h, mut asp) = setup();
        let r = asp.alloc_and_map(2 * 4096, &mut h.alloc).unwrap();
        let svc = WiringService {
            mode: WiringMode::LowLevel,
        };
        let (_, n1) = svc
            .wire(SimTime::ZERO, &mut h, &mut asp, r.base, r.len)
            .unwrap();
        assert_eq!(n1, 2);
        let (g, n2) = svc
            .wire(SimTime::ZERO, &mut h, &mut asp, r.base, r.len)
            .unwrap();
        assert_eq!(n2, 0);
        assert_eq!(g.finish.since(g.start), SimDuration::ZERO);
    }

    #[test]
    fn alpha_wiring_is_cheaper() {
        let ds = HostMachine::boot(MachineSpec::ds5000_200(), 1);
        let ax = HostMachine::boot(MachineSpec::dec3000_600(), 1);
        assert!(WiringMode::LowLevel.cost_per_page(&ax) < WiringMode::LowLevel.cost_per_page(&ds));
    }
}
