//! Lazy cache invalidation (§2.3), demonstrated with real stale bytes.
//!
//! The DECstation 5000/200 gives the CPU no coherent view of memory after
//! DMA. The paper's trick: don't invalidate eagerly; let the protocol
//! checksum *detect* stale reads and only then invalidate and re-evaluate.
//! This works because (1) the network already needs error handling,
//! (2) 64 buffers × 16 KB of rotation flushes a 64 KB cache long before a
//! buffer is reused, and (3) per-stream buffer recycling keeps any stale
//! bytes an application could see confined to its own earlier traffic.
//!
//! Here we *force* the unlikely event — a cached line surviving until its
//! buffer is reused — and watch the UDP checksum catch it and the lazy
//! recovery repair it, with the genuine stale bytes flowing through.

use osiris::atm::Vci;
use osiris::board::descriptor::Descriptor;
use osiris::host::driver::DeliveredPdu;
use osiris::host::machine::{HostMachine, MachineSpec};
use osiris::mem::{AddressSpace, PhysAddr};
use osiris::proto::stack::{ProtoConfig, ProtoStack, RxVerdict};
use osiris::sim::SimTime;

fn main() {
    let mut host = HostMachine::boot(MachineSpec::ds5000_200(), 3);
    let mut asp = AddressSpace::new(host.spec.page_size);
    let mut stack = ProtoStack::new(
        ProtoConfig {
            udp_checksum: true,
            ..ProtoConfig::paper_default()
        },
        &mut host,
        &mut asp,
    );
    let buffer = PhysAddr(0x40_0000);

    // 1. The buffer's previous life: an earlier message's bytes end up in
    //    the CPU cache when the application reads them.
    let old = vec![0x11u8; 2048];
    host.phys.write(buffer, &old);
    let mut scratch = vec![0u8; 2048];
    let t0 = host
        .cpu_read(SimTime::ZERO, buffer, &mut scratch)
        .grant
        .finish;
    println!("t={t0}: application read the previous message; its bytes are cached");

    // 2. The board DMAs a NEW PDU into the same buffer. The 5000/200's
    //    cache is not updated — the cached lines are now stale.
    let payload = vec![0xC3u8; 1500];
    let pdus = ProtoStack::build_wire_pdus(stack.cfg, 77, 9, 10, &payload);
    let wire = &pdus[0];
    let mut phys = std::mem::replace(&mut host.phys, osiris::mem::PhysMemory::new(4096, 4096));
    host.cache.dma_write(&mut phys, buffer, wire);
    host.phys = phys;
    println!(
        "t={t0}: DMA stored a new {}-byte PDU behind the cache's back",
        wire.len()
    );

    // 3. Protocol input: the checksum reads through the cache, sees the
    //    STALE bytes, mismatches, invalidates, re-reads, and delivers.
    let pdu = DeliveredPdu {
        vci: Vci(5),
        bufs: [Descriptor::tx(buffer, wire.len() as u32, Vci(5), true)]
            .into_iter()
            .collect(),
        len: wire.len() as u32,
        ready_at: t0,
        ctx: None,
    };
    let (verdict, t1) = stack.input(t0, &mut host, pdu.clone());
    match verdict {
        RxVerdict::Deliver { len, data, .. } => {
            println!("t={t1}: delivered {len} bytes after lazy recovery");
            let mut bytes = Vec::new();
            for seg in data.segs() {
                bytes.extend_from_slice(host.phys.read(seg.addr, seg.len as usize));
            }
            assert_eq!(bytes, payload, "recovered data must be the new message");
        }
        other => panic!("expected delivery, got {other:?}"),
    }
    println!(
        "lazy recoveries performed: {} (stale lines invalidated, message re-evaluated)",
        stack.stats().lazy_recoveries
    );
    assert!(stack.stats().lazy_recoveries >= 1);

    // 4. The price the eager strategy would have paid on EVERY buffer:
    let words = 16 * 1024 / 4;
    println!(
        "eager alternative: ~{words} cycles (~{} us at 25 MHz) of invalidation per 16 KB buffer",
        words as f64 / 25.0
    );
}
