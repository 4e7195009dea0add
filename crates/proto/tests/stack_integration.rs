//! Stack-level integration: output → wire bytes → input across two
//! independent hosts' stacks, exercising the paths a single-host unit
//! test can't (different cache states, fragment interleaving of several
//! datagrams, duplicate fragments).

use osiris_atm::Vci;
use osiris_board::descriptor::Descriptor;
use osiris_host::driver::DeliveredPdu;
use osiris_host::machine::{HostMachine, MachineSpec};
use osiris_mem::AddressSpace;
use osiris_mem::PhysAddr;
use osiris_proto::stack::{ProtoConfig, ProtoStack, RxVerdict};
use osiris_proto::wire::IP_HEADER_BYTES;
use osiris_sim::SimTime;

fn rig(checksum: bool) -> (HostMachine, AddressSpace, ProtoStack) {
    let mut host = HostMachine::boot(MachineSpec::dec3000_600(), 21);
    let mut asp = AddressSpace::new(host.spec.page_size);
    let stack = ProtoStack::new(
        ProtoConfig {
            udp_checksum: checksum,
            ..ProtoConfig::paper_default()
        },
        &mut host,
        &mut asp,
    );
    (host, asp, stack)
}

fn deliver(
    host: &mut HostMachine,
    stack: &mut ProtoStack,
    base: u64,
    pdu_bytes: &[u8],
    t: SimTime,
) -> RxVerdict {
    let addr = PhysAddr(base);
    host.phys.write(addr, pdu_bytes);
    let pdu = DeliveredPdu {
        vci: Vci(9),
        bufs: [Descriptor::tx(addr, pdu_bytes.len() as u32, Vci(9), true)]
            .into_iter()
            .collect(),
        len: pdu_bytes.len() as u32,
        ready_at: t,
        ctx: None,
    };
    stack.input(t, host, pdu.clone()).0
}

#[test]
fn interleaved_datagrams_reassemble_by_id() {
    let (mut host, _asp, mut stack) = rig(false);
    let a: Vec<u8> = (0..40_000).map(|i| (i % 13) as u8).collect();
    let b: Vec<u8> = (0..40_000).map(|i| (i % 7) as u8).collect();
    let pdus_a = ProtoStack::build_wire_pdus(stack.cfg, 1, 10, 20, &a);
    let pdus_b = ProtoStack::build_wire_pdus(stack.cfg, 2, 10, 21, &b);
    // Interleave fragments of the two datagrams.
    let mut delivered = Vec::new();
    let mut t = SimTime::ZERO;
    let mut base = 0x10_0000u64;
    for i in 0..pdus_a.len().max(pdus_b.len()) {
        for pdus in [&pdus_a, &pdus_b] {
            if let Some(p) = pdus.get(i) {
                if let RxVerdict::Deliver {
                    dst_port,
                    data,
                    len,
                    ..
                } = deliver(&mut host, &mut stack, base, p, t)
                {
                    let mut bytes = Vec::new();
                    for seg in data.segs() {
                        bytes.extend_from_slice(host.phys.read(seg.addr, seg.len as usize));
                    }
                    assert_eq!(bytes.len() as u64, len);
                    delivered.push((dst_port, bytes));
                }
                base += 0x10_000;
                t += osiris_sim::SimDuration::from_us(10);
            }
        }
    }
    assert_eq!(delivered.len(), 2);
    delivered.sort_by_key(|&(p, _)| p);
    assert_eq!(delivered[0].0, 20);
    assert_eq!(delivered[0].1, a);
    assert_eq!(delivered[1].0, 21);
    assert_eq!(delivered[1].1, b);
}

#[test]
fn out_of_order_fragments_still_assemble() {
    let (mut host, _asp, mut stack) = rig(true);
    let data: Vec<u8> = (0..50_000).map(|i| (i % 251) as u8).collect();
    let mut pdus = ProtoStack::build_wire_pdus(stack.cfg, 5, 1, 2, &data);
    pdus.reverse(); // worst-case fragment arrival order
    let mut got = None;
    let mut t = SimTime::ZERO;
    let mut base = 0x20_0000u64;
    for p in &pdus {
        if let RxVerdict::Deliver { data, .. } = deliver(&mut host, &mut stack, base, p, t) {
            let mut bytes = Vec::new();
            for seg in data.segs() {
                bytes.extend_from_slice(host.phys.read(seg.addr, seg.len as usize));
            }
            got = Some(bytes);
        }
        base += 0x10_000;
        t += osiris_sim::SimDuration::from_us(3);
    }
    assert_eq!(got.expect("delivered"), data);
    assert_eq!(stack.stats().dropped, 0);
}

#[test]
fn junk_pdu_is_dropped_not_crashed() {
    let (mut host, _asp, mut stack) = rig(false);
    let junk = vec![0xFFu8; 4000];
    match deliver(&mut host, &mut stack, 0x30_0000, &junk, SimTime::ZERO) {
        RxVerdict::Drop { reason, descs } => {
            assert_eq!(reason, "bad IP header");
            assert_eq!(descs.len(), 1, "buffers returned for recycling");
        }
        other => panic!("junk must be dropped, got {other:?}"),
    }
    assert_eq!(stack.stats().dropped, 1);
}

#[test]
fn truncated_fragment_fails_length_check() {
    let (mut host, _asp, mut stack) = rig(false);
    let data = vec![1u8; 1000];
    let mut pdus = ProtoStack::build_wire_pdus(stack.cfg, 6, 1, 2, &data);
    // Chop the tail off the single fragment: UDP length disagrees.
    let p = &mut pdus[0];
    p.truncate(p.len() - 100);
    match deliver(&mut host, &mut stack, 0x40_0000, p, SimTime::ZERO) {
        RxVerdict::Drop { reason, .. } => assert_eq!(reason, "UDP length mismatch"),
        other => panic!("expected drop, got {other:?}"),
    }
}

#[test]
fn header_overhead_is_what_design_says() {
    // One datagram: UDP header + one IP header per fragment.
    let cfg = ProtoConfig::paper_default();
    let payload = vec![0u8; 100_000];
    let pdus = ProtoStack::build_wire_pdus(cfg, 9, 1, 2, &payload);
    let wire_total: usize = pdus.iter().map(|p| p.len()).sum();
    let expect = payload.len() + 12 + pdus.len() * IP_HEADER_BYTES;
    assert_eq!(wire_total, expect);
}
