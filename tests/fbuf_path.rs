//! §3.1 end to end: early demultiplexing picks a *cached fbuf* as the
//! reassembly buffer, the PDU lands in it via DMA, and delivery to the
//! application domain is a cheap mapping transfer instead of a copy.

use osiris::atm::sar::{FramingMode, Segmenter};
use osiris::atm::Vci;
use osiris::board::descriptor::Descriptor;
use osiris::board::dpram::DpramLayout;
use osiris::board::rx::{RxConfig, RxProcessor};
use osiris::fbuf::{FbufAllocator, FbufCosts, FbufSource};
use osiris::host::machine::{HostMachine, MachineSpec};
use osiris::mem::PhysAddr;
use osiris::sim::{Registry, SimDuration, SimTime};

const BUF: u32 = 16 * 1024;

struct Rig {
    host: HostMachine,
    rx: RxProcessor,
    fbufs: FbufAllocator,
    /// Holds the allocator's counters under `fbuf.*`.
    reg: Registry,
}

fn rig() -> Rig {
    let host = HostMachine::boot(MachineSpec::ds5000_200(), 31);
    let rx = RxProcessor::new(
        RxConfig {
            buffer_bytes: BUF,
            ..RxConfig::paper_default()
        },
        DpramLayout::paper_default(),
    );
    let costs = FbufCosts::for_machine(&host);
    let reg = Registry::new();
    let fbufs = FbufAllocator::with_probe(costs, PhysAddr(0x40_0000), BUF, 16, &reg.probe(""));
    Rig {
        host,
        rx,
        fbufs,
        reg,
    }
}

/// The driver's per-PDU buffer provisioning: take an fbuf for the path
/// (cached if the path is hot) and queue it as a receive buffer.
fn stock_free_ring(rig: &mut Rig, path: u32, vci: Vci) -> FbufSource {
    let (fb, src) = rig.fbufs.alloc_for_path(path).expect("fbuf available");
    rig.rx
        .free_ring_mut(0)
        .push(Descriptor::tx(fb.addr, fb.len, vci, false))
        .unwrap();
    src
}

fn receive_pdu(rig: &mut Rig, vci: Vci, data: &[u8]) -> Descriptor {
    let cells = Segmenter {
        framing: FramingMode::EndOfPdu,
    }
    .segment(vci, &[data]);
    let mut t = SimTime::ZERO;
    let mut desc = None;
    for c in &cells {
        rig.rx.receive_cell(
            t,
            0,
            c,
            &mut rig.host.mem_sys,
            &mut rig.host.cache,
            &mut rig.host.phys,
        );
        for &(_, _, d) in rig.rx.pushed() {
            if d.eop {
                desc = Some(d);
            }
        }
        t += SimDuration::from_ns(700);
    }
    desc.expect("PDU delivered")
}

#[test]
fn first_pdu_uses_uncached_fbuf_then_path_warms_up() {
    let mut r = rig();
    let path = 7u32;
    let vci = Vci(70);

    // Cold path: the driver falls back to the uncached pool (the board
    // "uses a buffer from the queue of uncached fbufs").
    let src = stock_free_ring(&mut r, path, vci);
    assert_eq!(src, FbufSource::Uncached);
    let data: Vec<u8> = (0..5000).map(|i| (i % 241) as u8).collect();
    let desc = receive_pdu(&mut r, vci, &data);
    assert_eq!(r.host.phys.read(desc.addr, data.len()), &data[..]);

    // Deliver to the app domain: first transfer pays the mapping...
    let mut fb = osiris::fbuf::Fbuf {
        id: osiris::fbuf::FbufId(0),
        addr: desc.addr,
        len: BUF,
        cached_for: None,
    };
    let g1 = r.fbufs.transfer(SimTime::ZERO, &mut r.host, &mut fb, path);
    let cold = g1.finish.since(g1.start);
    // ...and the buffer is now cached for the path.
    r.fbufs.release(fb);
    let src = stock_free_ring(&mut r, path, vci);
    assert_eq!(src, FbufSource::Cached, "warm path must hit the fbuf cache");

    // Warm delivery is an order of magnitude cheaper.
    let data2 = vec![9u8; 3000];
    let desc2 = receive_pdu(&mut r, vci, &data2);
    let mut fb2 = osiris::fbuf::Fbuf {
        id: osiris::fbuf::FbufId(1),
        addr: desc2.addr,
        len: BUF,
        cached_for: Some(path),
    };
    let g2 = r.fbufs.transfer(SimTime::ZERO, &mut r.host, &mut fb2, path);
    let warm = g2.finish.since(g2.start);
    assert!(
        cold.as_ps() >= 10 * warm.as_ps(),
        "order of magnitude: cold {cold} vs warm {warm}"
    );
    assert_eq!(r.host.phys.read(desc2.addr, data2.len()), &data2[..]);
}

#[test]
fn sixteen_paths_stay_cached_the_seventeenth_evicts() {
    let mut r = rig();
    // Warm 16 paths (transfer once each).
    for path in 0..16u32 {
        let (mut fb, _) = r.fbufs.alloc_for_path(path).unwrap();
        r.fbufs.transfer(SimTime::ZERO, &mut r.host, &mut fb, path);
        r.fbufs.release(fb);
    }
    for path in 0..16u32 {
        let (fb, src) = r.fbufs.alloc_for_path(path).expect("pool");
        assert_eq!(src, FbufSource::Cached, "path {path}");
        r.fbufs.release(fb);
    }
    // A 17th path shows up: its buffer is one recycled from another
    // path's traffic (path 0's cached queue), re-mapped for path 16 by
    // the transfer. Releasing it caches the 17th path and evicts the LRU.
    let (mut fb, src) = r.fbufs.alloc_for_path(0).expect("path 0 is cached");
    assert_eq!(src, FbufSource::Cached);
    r.fbufs.transfer(SimTime::ZERO, &mut r.host, &mut fb, 16);
    r.fbufs.release(fb);
    assert_eq!(
        r.reg.snapshot().counters["fbuf.evictions"],
        1,
        "the 17th path evicts the LRU"
    );
    // The evicted path's next allocation falls back to the uncached pool.
    let (_, src) = r
        .fbufs
        .alloc_for_path(1)
        .expect("pool refilled by eviction");
    assert_eq!(src, FbufSource::Uncached);
}
