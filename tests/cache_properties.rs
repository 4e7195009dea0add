//! Property tests for the data-cache model — the §2.3 substrate. The
//! invariants: an incoherent cache may serve stale bytes but only ever
//! bytes that *were* at that address before a DMA; invalidation always
//! restores truth; a coherent cache never serves stale bytes at all.
//!
//! Each property runs 64 seeded cases drawn with `SimRng`; a failing case
//! prints its seed, and `SimRng::new(seed)` replays it.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use osiris::mem::{CacheSpec, DataCache, PhysAddr, PhysMemory};
use osiris::sim::SimRng;

/// Cases per property.
const CASES: u64 = 64;

/// Runs `property` on `CASES` generators seeded `base`, `base + 1`, …,
/// naming the seed of the first case that panics.
fn for_each_case(base: u64, property: impl Fn(&mut SimRng)) {
    for seed in base..base + CASES {
        if let Err(e) = catch_unwind(AssertUnwindSafe(|| property(&mut SimRng::new(seed)))) {
            eprintln!("property failed on seed {seed:#x}");
            resume_unwind(e);
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    CpuWrite { at: u16, val: u8, len: u8 },
    DmaWrite { at: u16, val: u8, len: u8 },
    Invalidate { at: u16, len: u8 },
    Read { at: u16, len: u8 },
}

/// One op, each kind equally likely: any address, any value, a length in
/// `1..64`.
fn gen_op(rng: &mut SimRng) -> Op {
    let at = rng.next_u64() as u16;
    let val = rng.next_u64() as u8;
    let len = 1 + rng.gen_range(63) as u8;
    match rng.gen_range(4) {
        0 => Op::CpuWrite { at, val, len },
        1 => Op::DmaWrite { at, val, len },
        2 => Op::Invalidate { at, len },
        _ => Op::Read { at, len },
    }
}

/// A sequence of `1..120` ops.
fn gen_ops(rng: &mut SimRng) -> Vec<Op> {
    let n = 1 + rng.gen_range(119);
    (0..n).map(|_| gen_op(rng)).collect()
}

/// A shadow model: `truth` is memory contents; `cpu_view` is what the CPU
/// would see (tracks CPU writes and *observed* reads, never DMA directly).
fn run_ops(coherent: bool, ops: &[Op]) {
    let spec = CacheSpec {
        size: 1024,
        line_size: 16,
        coherent_dma: coherent,
    };
    let mut cache = DataCache::new(spec);
    let mut mem = PhysMemory::new(1 << 16, 4096);
    // Shadow of every byte-version ever present at each address.
    let mut history: Vec<Vec<u8>> = (0..(1 << 16)).map(|_| vec![0u8]).collect();

    for op in ops {
        match *op {
            Op::CpuWrite { at, val, len } => {
                let at = (at as usize) % ((1 << 16) - 64);
                let data = vec![val; len as usize];
                cache.write(&mut mem, PhysAddr(at as u64), &data);
                for i in 0..len as usize {
                    history[at + i].push(val);
                }
            }
            Op::DmaWrite { at, val, len } => {
                let at = (at as usize) % ((1 << 16) - 64);
                let data = vec![val; len as usize];
                cache.dma_write(&mut mem, PhysAddr(at as u64), &data);
                for i in 0..len as usize {
                    history[at + i].push(val);
                }
            }
            Op::Invalidate { at, len } => {
                let at = (at as usize) % ((1 << 16) - 64);
                cache.invalidate(PhysAddr(at as u64), len as usize);
            }
            Op::Read { at, len } => {
                let at = (at as usize) % ((1 << 16) - 64);
                let mut buf = vec![0u8; len as usize];
                let acc = cache.read(&mem, PhysAddr(at as u64), &mut buf);
                for (i, &b) in buf.iter().enumerate() {
                    // Every observed byte must be SOME historical value of
                    // that address — the cache can be stale, never wild.
                    assert!(
                        history[at + i].contains(&b),
                        "byte at {} was never {b}",
                        at + i
                    );
                    if coherent {
                        // A coherent cache serves only the current value.
                        assert_eq!(b, *history[at + i].last().unwrap());
                    }
                }
                if coherent {
                    assert_eq!(acc.stale_bytes, 0, "coherent cache can't be stale");
                }
            }
        }
    }

    // Final invariant: after a full invalidation, reads equal memory.
    cache.invalidate_all();
    let mut buf = vec![0u8; 4096];
    let acc = cache.read(&mem, PhysAddr(0), &mut buf);
    assert_eq!(acc.stale_bytes, 0);
    assert_eq!(&buf[..], mem.read(PhysAddr(0), 4096));
}

#[test]
fn incoherent_cache_serves_only_historical_bytes() {
    for_each_case(0xCAC4_0000, |rng| run_ops(false, &gen_ops(rng)));
}

#[test]
fn coherent_cache_is_never_stale() {
    for_each_case(0xCAC4_1000, |rng| run_ops(true, &gen_ops(rng)));
}

/// Invalidation cost equals the word count of the covered lines,
/// resident or not (the §2.3 per-word price).
#[test]
fn invalidation_cost_is_word_exact() {
    for_each_case(0xCAC4_2000, |rng| {
        let at = rng.next_u64() as u16 as u64;
        let len = 1 + rng.gen_range(4095) as usize;
        let spec = CacheSpec {
            size: 1024,
            line_size: 16,
            coherent_dma: false,
        };
        let mut cache = DataCache::new(spec);
        let words = cache.invalidate(PhysAddr(at), len);
        let first = at / 16;
        let last = (at + len as u64 - 1) / 16;
        assert_eq!(words, (last - first + 1) * 4, "at {at} len {len}");
    });
}
