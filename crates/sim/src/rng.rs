//! Deterministic random numbers for the simulation.
//!
//! Skew jitter (§2.6 of the paper: queueing delays in switch ports), fault
//! injection (cell corruption for the lazy-cache-invalidation recovery
//! path, §2.3) and workload generation all need randomness that is
//! *reproducible*: the same seed must yield the same simulation. We use
//! SplitMix64 — tiny, well-distributed, and dependency-free — rather than a
//! cryptographic generator; nothing here is security-sensitive.

/// A SplitMix64 pseudo-random generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a seed. Two generators with the same seed
    /// produce identical streams.
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. Returns 0 when `bound` is 0.
    ///
    /// Uses Lemire's multiply-shift reduction with rejection to avoid
    /// modulo bias.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in `[lo, hi]` inclusive.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.gen_range(hi - lo + 1)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 high-quality bits → uniform double.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// A derived generator with an independent-looking stream; used to give
    /// each simulation component its own RNG from one experiment seed.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64() ^ 0xA5A5_5A5A_DEAD_BEEF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            assert!(r.gen_range(13) < 13);
        }
        assert_eq!(r.gen_range(0), 0);
        assert_eq!(r.gen_range(1), 0);
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut r = SimRng::new(99);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            seen[r.gen_range(8) as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all residues should appear: {seen:?}"
        );
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = SimRng::new(5);
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
        // Out-of-range probabilities clamp instead of panicking.
        assert!(r.gen_bool(2.0));
        assert!(!r.gen_bool(-1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(11);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "50 elements should not shuffle to identity"
        );
    }

    #[test]
    fn fork_produces_distinct_stream() {
        let mut a = SimRng::new(4);
        let mut b = a.fork();
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn inclusive_range_hits_both_ends() {
        let mut r = SimRng::new(21);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..10_000 {
            match r.gen_range_inclusive(5, 7) {
                5 => lo_seen = true,
                7 => hi_seen = true,
                6 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
    }
}
