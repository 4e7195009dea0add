//! A deterministic multiply-rotate hasher for the per-cell hot path.
//!
//! `std`'s default `RandomState` runs SipHash-1-3 with a per-process
//! random key: DoS-resistant, but several times slower than the lookup it
//! guards on the small integer keys the datapath probes (VCIs, PDU
//! numbers). [`FxHasher`] is the Firefox/rustc "Fx" hash: per word,
//! `h = (h.rotl(5) ^ w) · K`. It has no key and no per-process state, so
//! a map's iteration order depends only on its insert/remove sequence —
//! never on the run. The inputs are simulator-internal identifiers, never
//! attacker-chosen, so flooding resistance buys nothing here.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The odd multiplier of rustc's `FxHasher` (64-bit).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Fx hash state: one `u64`, mixed once per written word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`] (stateless, so every map hashes alike).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use std::hash::BuildHasher;

    fn fx<T: std::hash::Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn same_insert_sequence_iterates_in_the_same_order() {
        let mut rng = SimRng::new(7);
        let keys: Vec<(u16, u64)> = (0..500)
            .map(|_| (rng.next_u64() as u16, rng.next_u64() % 10_000))
            .collect();
        let build = || {
            let mut m: FxHashMap<(u16, u64), usize> = FxHashMap::default();
            for (i, &k) in keys.iter().enumerate() {
                m.insert(k, i);
                if i % 7 == 0 {
                    m.remove(&keys[i / 2]);
                }
            }
            m
        };
        let a: Vec<_> = build().into_iter().collect();
        let b: Vec<_> = build().into_iter().collect();
        assert!(!a.is_empty());
        assert_eq!(a, b, "iteration order must depend only on the inserts");
    }

    #[test]
    fn one_bit_flips_do_not_collide() {
        let mut rng = SimRng::new(0xF1_F1);
        for _ in 0..64 {
            let k = rng.next_u64();
            let vci = rng.next_u64() as u16;
            for bit in 0..64 {
                let k2 = k ^ (1 << bit);
                assert_ne!(fx(k), fx(k2), "u64 key {k:#x} bit {bit}");
                assert_ne!(fx((vci, k)), fx((vci, k2)), "pair key bit {bit}");
            }
            for bit in 0..16 {
                assert_ne!(fx((vci, k)), fx((vci ^ (1 << bit), k)), "vci bit {bit}");
            }
        }
    }
}
