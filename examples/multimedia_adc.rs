//! Application device channels for a latency-sensitive application
//! (§3.2's motivating scenario).
//!
//! "In many distributed applications, such as multimedia, network I/O is
//! a frequent and common component of program execution. ADCs recognise
//! this and allow the operating system kernel to be bypassed in the
//! common case of network data delivery."
//!
//! This example:
//! 1. compares message latency for an application using the kernel path,
//!    a plain user process, and an ADC;
//! 2. shows the transmit-priority mechanism: the ADC's queue is served
//!    before the kernel's;
//! 3. shows the protection mechanism: a descriptor naming memory outside
//!    the channel's authorized page list is stopped on the board and
//!    surfaced as an access-violation exception.

use std::collections::HashSet;

use osiris::adc::AdcManager;
use osiris::atm::stripe::SkewConfig;
use osiris::atm::{LinkSpec, StripedLink, Vci};
use osiris::board::descriptor::Descriptor;
use osiris::board::dpram::DpramLayout;
use osiris::board::rx::{RxConfig, RxProcessor};
use osiris::board::tx::{TxConfig, TxProcessor};
use osiris::config::{DataPath, TestbedConfig, TouchMode};
use osiris::experiments::round_trip_latency;
use osiris::host::domain::DomainId;
use osiris::host::machine::{HostMachine, MachineSpec};
use osiris::mem::PhysAddr;
use osiris::sim::SimTime;

fn main() {
    // ── 1. Latency: kernel vs user vs ADC ─────────────────────────────
    println!("1 KB UDP/IP round trips on a DEC 5000/200 pair:");
    for (label, path) in [
        ("test programs in the kernel", DataPath::Kernel),
        ("user process via the kernel", DataPath::UserViaKernel),
        ("user process with an ADC", DataPath::Adc),
    ] {
        let mut cfg = TestbedConfig::ds5000_200_udp();
        cfg.msg_size = 1024;
        cfg.messages = 12;
        cfg.touch = TouchMode::WritePerMessage;
        cfg.data_path = path;
        let lat = round_trip_latency(&cfg);
        println!("  {label:<30} {:>6.0} us", lat.mean_us());
    }
    println!("  → the ADC matches the in-kernel latency; the syscall path does not.\n");

    // ── 2. Transmit priority ───────────────────────────────────────────
    let mut host = HostMachine::boot(MachineSpec::ds5000_200(), 7);
    let mut tx = TxProcessor::new(TxConfig::paper_default(), DpramLayout::paper_default());
    let mut rx = RxProcessor::new(RxConfig::paper_default(), DpramLayout::paper_default());
    let mut mgr = AdcManager::new();
    let frames: HashSet<u64> = (64..128).collect();
    let page = mgr
        .open(DomainId(1), vec![Vci(80)], frames, 7, &mut tx, &mut rx)
        .expect("channel");
    // Bulk kernel traffic on queue 0, one urgent video frame on the ADC.
    for i in 0..4u64 {
        tx.queue_mut(0)
            .push(Descriptor::tx(
                PhysAddr(0x1000 + i * 0x100),
                44,
                Vci(1),
                true,
            ))
            .unwrap();
    }
    host.phys.write(PhysAddr(64 * 4096), &[0xEE; 44]);
    tx.queue_mut(page)
        .push(Descriptor::tx(PhysAddr(64 * 4096), 44, Vci(80), true))
        .unwrap();
    let mut link = StripedLink::new(LinkSpec::sts3c_back_to_back(), &SkewConfig::none());
    let mut slab = osiris::atm::CellSlab::new();
    let first = tx
        .service(
            SimTime::ZERO,
            &mut host.mem_sys,
            &host.phys,
            &mut link,
            &mut slab,
        )
        .unwrap();
    println!(
        "first PDU transmitted came from queue {} (the priority-7 ADC)",
        first.queue
    );
    assert_eq!(first.queue, page);

    // ── 3. Protection ──────────────────────────────────────────────────
    tx.queue_mut(page)
        .push(Descriptor::tx(PhysAddr(0x2000), 44, Vci(80), true))
        .unwrap();
    let mut caught = false;
    let mut t = first.finished_at;
    while let Some(o) = tx.service(t, &mut host.mem_sys, &host.phys, &mut link, &mut slab) {
        t = o.finished_at;
        if o.violation {
            caught = true;
            break;
        }
    }
    assert!(caught, "the rogue descriptor must be caught");
    assert!(tx.arrivals().is_empty());
    let t = mgr.deliver_violation(t, &mut host, page);
    println!(
        "rogue descriptor (outside the authorized pages) blocked on the board; \
         exception delivered to the application at t={t}"
    );
}
