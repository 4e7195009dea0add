//! `AddressSpace::translate_into` against the translate-then-coalesce it
//! replaced: seeded ranges over regions built from scattered and
//! physically adjacent frames must yield the same buffer lists, and
//! translating several ranges into one list must equal coalescing their
//! concatenated per-page pieces.

use osiris_mem::buffer::coalesce;
use osiris_mem::{
    AddressSpace, AllocPolicy, FrameAllocator, MapError, PhysBuffer, PhysMemory, VirtAddr,
};
use osiris_sim::SimRng;

const PAGE: u64 = 4096;

/// The per-page piece list the old `translate` built before coalescing.
fn pieces(asp: &AddressSpace, va: VirtAddr, len: u64) -> Result<Vec<PhysBuffer>, MapError> {
    if len == 0 {
        return Err(MapError::BadRange);
    }
    let end = va.0.checked_add(len).ok_or(MapError::BadRange)?;
    let mut bufs = Vec::new();
    let mut cur = va.0;
    while cur < end {
        let page_end = (cur / PAGE + 1) * PAGE;
        let take = page_end.min(end) - cur;
        bufs.push(PhysBuffer::new(
            asp.translate_addr(VirtAddr(cur))?,
            take as u32,
        ));
        cur += take;
    }
    Ok(bufs)
}

/// A region whose frames mix scattered singles and runs of physically
/// adjacent frames, so some page boundaries merge and some do not.
fn mixed_region(
    asp: &mut AddressSpace,
    alloc: &mut FrameAllocator,
    rng: &mut SimRng,
    pages: usize,
) -> (VirtAddr, u64) {
    let mut frames = Vec::new();
    while frames.len() < pages {
        let run = (1 + rng.gen_range(4) as usize).min(pages - frames.len());
        let got = if rng.gen_bool(0.5) {
            alloc.alloc_contiguous(run)
        } else {
            alloc.alloc(run)
        };
        frames.extend(got.expect("memory sized for the test"));
    }
    let len = pages as u64 * PAGE;
    (asp.map_frames(&frames, len).base, len)
}

#[test]
fn translate_into_matches_translate_then_coalesce() {
    let mut checked = 0;
    for seed in 0..16u64 {
        let mem = PhysMemory::new(1024 * PAGE as usize, PAGE as usize);
        let mut alloc = FrameAllocator::new(&mem, AllocPolicy::Scattered, seed);
        let mut asp = AddressSpace::new(PAGE as usize);
        let mut rng = SimRng::new(seed ^ 0x7A5_1A7E);
        let (base, region_len) = mixed_region(&mut asp, &mut alloc, &mut rng, 12);
        for _ in 0..200 {
            let off = rng.gen_range(region_len);
            // Zero-length ranges included; some run into the guard page.
            let len = rng.gen_range(region_len - off + PAGE / 2);
            let va = base.offset(off);
            let want = pieces(&asp, va, len).map(|p| coalesce(&p));
            assert_eq!(asp.translate(va, len), want, "{va:?}+{len}");
            checked += 1;
        }
    }
    assert_eq!(checked, 16 * 200);
}

#[test]
fn translating_ranges_into_one_list_coalesces_their_concatenation() {
    let mut merged_across = 0;
    for seed in 0..16u64 {
        let mem = PhysMemory::new(1024 * PAGE as usize, PAGE as usize);
        let mut alloc = FrameAllocator::new(&mem, AllocPolicy::Scattered, seed);
        let mut asp = AddressSpace::new(PAGE as usize);
        let mut rng = SimRng::new(seed ^ 0xC0A1_E5CE);
        let (base, region_len) = mixed_region(&mut asp, &mut alloc, &mut rng, 12);
        for _ in 0..100 {
            let mut out = Vec::new();
            let mut all_pieces = Vec::new();
            let mut at = rng.gen_range(region_len / 2);
            for _ in 0..1 + rng.gen_range(5) {
                // Back-to-back ranges, zero-length ones included: the list
                // must merge across range boundaries exactly as coalesce
                // merges across page boundaries.
                let len = rng.gen_range(3 * PAGE / 2).min(region_len - at);
                let va = base.offset(at);
                match pieces(&asp, va, len) {
                    Ok(p) => {
                        let before = out.len();
                        asp.translate_into(va, len, &mut out).unwrap();
                        if before > 0 && out.len() < before + coalesce(&p).len() {
                            merged_across += 1;
                        }
                        all_pieces.extend(p);
                    }
                    Err(e) => {
                        let before = out.clone();
                        assert_eq!(asp.translate_into(va, len, &mut out), Err(e));
                        assert_eq!(out, before, "a zero-length range appends nothing");
                    }
                }
                at += len;
            }
            assert_eq!(out, coalesce(&all_pieces));
        }
    }
    assert!(
        merged_across > 50,
        "ranges merged across boundaries {merged_across} times"
    );
}
