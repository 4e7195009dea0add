//! `ProtoStack::to_phys` against the extend-then-coalesce it replaced:
//! for seeded packets — slab headers plus data ranges over scattered and
//! physically adjacent frames, page-crossing, with zero-length pieces —
//! translating every segment straight into one chain must give the same
//! buffers as translating each segment on its own, concatenating, and
//! coalescing the result.

use osiris_host::machine::{HostMachine, MachineSpec};
use osiris_mem::buffer::coalesce;
use osiris_mem::{AddressSpace, VirtAddr};
use osiris_proto::msg::Message;
use osiris_proto::stack::{ProtoConfig, ProtoStack, TxPacket};
use osiris_sim::{SimRng, TraceCtx};

#[test]
fn to_phys_matches_extend_then_coalesce() {
    let mut host = HostMachine::boot(MachineSpec::ds5000_200(), 5);
    let page = host.spec.page_size as u64;
    let mut asp = AddressSpace::new(host.spec.page_size);
    let stack = ProtoStack::new(ProtoConfig::paper_default(), &mut host, &mut asp);
    let mut rng = SimRng::new(0x70_F4_75);
    // A 16-page region of scattered singles and adjacent-frame runs.
    let mut frames = Vec::new();
    while frames.len() < 16 {
        let run = (1 + rng.gen_range(4) as usize).min(16 - frames.len());
        let got = if rng.gen_bool(0.5) {
            host.alloc.alloc_contiguous(run)
        } else {
            host.alloc.alloc(run)
        };
        frames.extend(got.expect("frames available"));
    }
    let region = asp.map_frames(&frames, 16 * page);
    let slab = stack.slab_region().base;
    let (mut merged, mut chain) = (0, Vec::new());
    for i in 0..2000u64 {
        // Headers from the slab, then up to four data ranges, some empty
        // (the message drops those) and some back-to-back in memory.
        let mut msg = Message::<VirtAddr>::empty();
        let mut at = rng.gen_range(12 * page);
        for _ in 0..1 + rng.gen_range(4) {
            let len = rng.gen_range(2 * page) as u32 * rng.gen_range(2) as u32;
            msg.push_seg(region.base.offset(at), len);
            if rng.gen_bool(0.5) {
                at += len as u64;
            } else {
                at = rng.gen_range(12 * page);
            }
        }
        msg.push_header(slab.offset(64 * (i % 1000)), 12);
        msg.push_header(slab.offset(64 * ((i + 1) % 1000)), 24);
        let pkt = TxPacket {
            msg,
            ctx: TraceCtx {
                host: 0,
                pdu: i as u32,
            },
        };
        let mut want = Vec::new();
        for seg in pkt.msg.segs() {
            want.extend(asp.translate(seg.addr, seg.len as u64).unwrap());
        }
        let per_segment = want.len();
        let want = coalesce(&want);
        stack.to_phys(&asp, &pkt, &mut chain).unwrap();
        assert_eq!(chain, want, "packet {i}: {:?}", pkt.msg);
        merged += (chain.len() < per_segment) as u32;
    }
    assert!(merged > 100, "merged across segments in {merged} packets");
}
