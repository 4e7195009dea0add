//! # osiris-adc — application device channels (§3.2)
//!
//! "An ADC gives an application program restricted but direct access to
//! the OSIRIS network adaptor, bypassing the operating system kernel."
//!
//! Mechanism, as the paper describes it:
//!
//! * the dual-port memory's queue pages are grouped into (transmit,
//!   receive) pairs; opening a channel maps one pair into the
//!   application's address space;
//! * the OS assigns the channel a set of VCIs, a transmit priority, and a
//!   list of physical pages the application may use for buffers;
//! * the board enforces that list: queueing a buffer with an unauthorized
//!   address raises an interrupt, and the OS turns it into an access-
//!   violation exception in the offending process;
//! * interrupts are still fielded by the kernel, which "directly signals a
//!   thread in the ADC channel driver" — the only kernel involvement on
//!   the data path.
//!
//! The channel driver itself is the same code as the kernel driver
//! ([`osiris_host::driver::OsirisDriver`]) pointed at the channel's queue
//! page — which is precisely the paper's point: "linked with the
//! application is an ADC channel driver, which performs essentially the
//! same functions as the in-kernel OSIRIS device driver".

use std::collections::HashSet;

use osiris_atm::Vci;
use osiris_board::dpram::{DpramLayout, QUEUE_PAGES};
use osiris_board::rx::RxProcessor;
use osiris_board::tx::TxProcessor;
use osiris_host::domain::DomainId;
use osiris_host::machine::HostMachine;
use osiris_sim::SimTime;

/// Errors opening a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdcError {
    /// All 15 application queue pages are in use.
    NoFreePages,
    /// The kernel may not be given an ADC (it owns page 0 already).
    KernelDomain,
}

impl std::fmt::Display for AdcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdcError::NoFreePages => write!(f, "no free queue pages"),
            AdcError::KernelDomain => write!(f, "kernel does not use ADCs"),
        }
    }
}

impl std::error::Error for AdcError {}

/// Kernel-side channel management: page assignment, board programming,
/// violation delivery.
#[derive(Debug)]
pub struct AdcManager {
    free_pages: Vec<usize>,
    /// Queue pages with an open channel (the same index on the transmit
    /// and receive halves).
    open_pages: HashSet<usize>,
}

impl Default for AdcManager {
    fn default() -> Self {
        Self::new()
    }
}

impl AdcManager {
    /// A manager over the 15 non-kernel queue pages.
    pub fn new() -> Self {
        AdcManager {
            free_pages: {
                let mut pages: Vec<usize> = DpramLayout::adc_pages().collect();
                pages.reverse(); // pop() hands out page 1 first
                pages
            },
            open_pages: HashSet::new(),
        }
    }

    /// Opens a channel: claims a queue-page pair, programs the board's
    /// VCI table, priority, and authorized page list. (The page mapping
    /// into the application's address space is connection-establishment
    /// work — kernel involvement is allowed here; §3.2: "The OS need only
    /// be involved in connection establishment and termination.")
    pub fn open(
        &mut self,
        domain: DomainId,
        vcis: Vec<Vci>,
        frames: HashSet<u64>,
        priority: u8,
        tx: &mut TxProcessor,
        rx: &mut RxProcessor,
    ) -> Result<usize, AdcError> {
        if domain.is_kernel() {
            return Err(AdcError::KernelDomain);
        }
        let page = self.free_pages.pop().ok_or(AdcError::NoFreePages)?;
        tx.set_priority(page, priority);
        tx.set_authorized_frames(page, Some(frames.clone()));
        rx.set_authorized_frames(page, Some(frames));
        for &vci in &vcis {
            rx.bind_vci(vci, page);
        }
        self.open_pages.insert(page);
        Ok(page)
    }

    /// Handles a board violation interrupt: the kernel fields the
    /// interrupt and raises an access-violation exception in the owning
    /// application (§3.2). Returns when the exception was delivered.
    pub fn deliver_violation(
        &mut self,
        now: SimTime,
        host: &mut HostMachine,
        page: usize,
    ) -> SimTime {
        assert!(
            self.open_pages.contains(&page),
            "violation on unopened page {page}"
        );
        let g = host.take_interrupt(now);
        // Exception dispatch into the application.
        let d = host.run_cpu(g.finish, host.spec.costs.syscall);
        d.finish
    }
}

/// Sanity bound: queue pages are a scarce-ish resource (15 channels).
pub const MAX_CHANNELS: usize = QUEUE_PAGES - 1;

#[cfg(test)]
mod tests {
    use super::*;
    use osiris_board::rx::RxConfig;
    use osiris_board::tx::TxConfig;
    use osiris_host::machine::MachineSpec;
    use osiris_mem::{PhysAddr, PhysBuffer};

    fn boards() -> (TxProcessor, RxProcessor) {
        (
            TxProcessor::new(TxConfig::paper_default(), DpramLayout::paper_default()),
            RxProcessor::new(RxConfig::paper_default(), DpramLayout::paper_default()),
        )
    }

    fn frames(range: std::ops::Range<u64>) -> HashSet<u64> {
        range.collect()
    }

    #[test]
    fn open_programs_the_board() {
        let (mut tx, mut rx) = boards();
        let mut mgr = AdcManager::new();
        let page = mgr
            .open(
                DomainId(1),
                vec![Vci(100)],
                frames(64..96),
                5,
                &mut tx,
                &mut rx,
            )
            .unwrap();
        assert!(page > 0, "page 0 stays the kernel's");
        let next = mgr
            .open(
                DomainId(2),
                vec![Vci(101)],
                frames(96..128),
                5,
                &mut tx,
                &mut rx,
            )
            .unwrap();
        assert_ne!(next, page, "each channel gets its own page pair");
    }

    #[test]
    fn kernel_cannot_open_adc() {
        let (mut tx, mut rx) = boards();
        let mut mgr = AdcManager::new();
        assert_eq!(
            mgr.open(DomainId::KERNEL, vec![], frames(0..1), 0, &mut tx, &mut rx),
            Err(AdcError::KernelDomain)
        );
    }

    #[test]
    fn pages_exhaust_at_15_channels() {
        let (mut tx, mut rx) = boards();
        let mut mgr = AdcManager::new();
        for i in 0..MAX_CHANNELS {
            mgr.open(
                DomainId(i as u32 + 1),
                vec![],
                frames(0..1),
                0,
                &mut tx,
                &mut rx,
            )
            .unwrap();
        }
        assert_eq!(
            mgr.open(DomainId(99), vec![], frames(0..1), 0, &mut tx, &mut rx),
            Err(AdcError::NoFreePages)
        );
    }

    #[test]
    fn unauthorized_tx_descriptor_trips_the_board() {
        let (mut tx, mut rx) = boards();
        let mut mgr = AdcManager::new();
        let mut host = HostMachine::boot(MachineSpec::ds5000_200(), 7);
        // Authorize frames 64..96 (addresses 0x40000..0x60000).
        let page = mgr
            .open(
                DomainId(1),
                vec![Vci(50)],
                frames(64..96),
                0,
                &mut tx,
                &mut rx,
            )
            .unwrap();
        // The app queues a buffer OUTSIDE its pages.
        use osiris_board::descriptor::Descriptor;
        tx.queue_mut(page)
            .push(Descriptor::tx(PhysAddr(0x1000), 100, Vci(50), true))
            .unwrap();
        let mut link = osiris_atm::StripedLink::new(
            osiris_atm::LinkSpec::sts3c_back_to_back(),
            &osiris_atm::stripe::SkewConfig::none(),
        );
        let mut slab = osiris_atm::CellSlab::new();
        let out = tx
            .service(
                SimTime::ZERO,
                &mut host.mem_sys,
                &host.phys,
                &mut link,
                &mut slab,
            )
            .unwrap();
        assert!(out.violation);
        assert!(tx.arrivals().is_empty(), "nothing transmitted");
        // Kernel converts the interrupt into an exception.
        let t = mgr.deliver_violation(SimTime::ZERO, &mut host, page);
        assert!(t >= SimTime::from_us(75));
    }

    #[test]
    fn authorized_tx_descriptor_passes() {
        let (mut tx, mut rx) = boards();
        let mut mgr = AdcManager::new();
        let mut host = HostMachine::boot(MachineSpec::ds5000_200(), 7);
        let page = mgr
            .open(
                DomainId(1),
                vec![Vci(50)],
                frames(64..96),
                0,
                &mut tx,
                &mut rx,
            )
            .unwrap();
        host.phys.write(PhysAddr(64 * 4096), &[1u8; 100]);
        let buf = PhysBuffer::new(PhysAddr(64 * 4096), 100);
        use osiris_board::descriptor::Descriptor;
        tx.queue_mut(page)
            .push(Descriptor::tx(buf.addr, buf.len, Vci(50), true))
            .unwrap();
        let mut link = osiris_atm::StripedLink::new(
            osiris_atm::LinkSpec::sts3c_back_to_back(),
            &osiris_atm::stripe::SkewConfig::none(),
        );
        let mut slab = osiris_atm::CellSlab::new();
        let out = tx
            .service(
                SimTime::ZERO,
                &mut host.mem_sys,
                &host.phys,
                &mut link,
                &mut slab,
            )
            .unwrap();
        assert!(!out.violation);
        assert_eq!(tx.arrivals().len(), 3);
    }

    #[test]
    fn adc_priority_beats_kernel_queue() {
        let (mut tx, mut rx) = boards();
        let mut mgr = AdcManager::new();
        let mut host = HostMachine::boot(MachineSpec::ds5000_200(), 7);
        let page = mgr
            .open(
                DomainId(1),
                vec![Vci(60)],
                frames(0..8192),
                7,
                &mut tx,
                &mut rx,
            )
            .unwrap();
        use osiris_board::descriptor::Descriptor;
        // Kernel PDU on page 0, ADC PDU on its page.
        tx.queue_mut(0)
            .push(Descriptor::tx(PhysAddr(0x1000), 44, Vci(1), true))
            .unwrap();
        tx.queue_mut(page)
            .push(Descriptor::tx(PhysAddr(0x2000), 44, Vci(60), true))
            .unwrap();
        let mut link = osiris_atm::StripedLink::new(
            osiris_atm::LinkSpec::sts3c_back_to_back(),
            &osiris_atm::stripe::SkewConfig::none(),
        );
        let mut slab = osiris_atm::CellSlab::new();
        let first = tx
            .service(
                SimTime::ZERO,
                &mut host.mem_sys,
                &host.phys,
                &mut link,
                &mut slab,
            )
            .unwrap();
        assert_eq!(first.queue, page, "priority 7 transmits first");
    }
}
