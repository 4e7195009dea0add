//! CRC-32 (AAL5) and CRC-10 (ATM OAM) — table-driven, incremental.
//!
//! AAL5 protects each PDU with the IEEE 802.3 CRC-32 (polynomial
//! 0x04C11DB8, reflected 0xEDB88320). The reproduction computes real CRCs
//! over real payload bytes so that cell corruption, cell misordering under
//! an in-order-only reassembler, and stale-cache reads (§2.3) are all
//! *detected the way the paper relies on*: by the error check, not by
//! simulator fiat.

/// Reflected CRC-32 polynomial (IEEE 802.3 / AAL5).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// CRC-10 polynomial x^10 + x^9 + x^5 + x^4 + x + 1 (ITU I.610), MSB-first.
const CRC10_POLY: u16 = 0x633;

/// Slicing-by-16 lookup tables: `CRC32_TABLES[0]` is the classic
/// bytewise table; `CRC32_TABLES[k][b]` is the CRC contribution of byte
/// `b` followed by `k` zero bytes, so sixteen table lookups absorb sixteen
/// bytes at once. Built at compile time — no lazy initialisation on the
/// hot path.
static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ CRC32_POLY
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// The table lookups absorbing one little-endian word `w` whose last
/// byte is followed by `zeros` more bytes in the same step.
#[inline(always)]
fn fold(w: u32, zeros: usize) -> u32 {
    let t = &CRC32_TABLES;
    t[zeros + 3][(w & 0xFF) as usize]
        ^ t[zeros + 2][((w >> 8) & 0xFF) as usize]
        ^ t[zeros + 1][((w >> 16) & 0xFF) as usize]
        ^ t[zeros][(w >> 24) as usize]
}

/// The little-endian word in `b`'s first four bytes.
fn word(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Incremental CRC-32 state. AAL5-style: initial value all-ones, final
/// complement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorbs bytes.
    ///
    /// Slicing-by-16: sixteen bytes per step through [`CRC32_TABLES`],
    /// then at most one 8-byte step, one 4-byte step and three single
    /// bytes — a 44-byte cell payload takes four dependent steps.
    /// Bit-identical to the one-byte-per-step loop.
    pub fn update(&mut self, data: &[u8]) {
        let mut c = self.state;
        let mut blocks = data.chunks_exact(16);
        for b in &mut blocks {
            c = fold(c ^ word(&b[0..4]), 12)
                ^ fold(word(&b[4..8]), 8)
                ^ fold(word(&b[8..12]), 4)
                ^ fold(word(&b[12..16]), 0);
        }
        let mut rest = blocks.remainder();
        if rest.len() >= 8 {
            c = fold(c ^ word(&rest[0..4]), 4) ^ fold(word(&rest[4..8]), 0);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            c = fold(c ^ word(&rest[0..4]), 0);
            rest = &rest[4..];
        }
        for &b in rest {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Final CRC value.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// `a · b mod P` in the reflected bit order CRC-32 values are kept in
/// (bit 31 is `x^0`): one 32-step shift-and-add, the step zlib's
/// `multmodp` does.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        b = if b & 1 != 0 {
            (b >> 1) ^ CRC32_POLY
        } else {
            b >> 1
        };
        m >>= 1;
    }
    p
}

/// `X2N[k]` is `x^(2^k) mod P`, so a shift by any bit count is a product
/// of them. The order of `x` modulo P divides `2^32 − 1`, so
/// `x^(2^32) = x` and the powers repeat with period 32 (a unit test
/// checks it): `X2N[k % 32]` serves every `k`.
static X2N: [u32; 32] = x2n_table();

const fn x2n_table() -> [u32; 32] {
    let mut t = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        t[k] = p;
        p = mul_mod_p(p, p);
        k += 1;
    }
    t
}

/// The operator `x^(8·len) mod P` that carries a CRC-32 past `len` more
/// bytes: what [`crc32_combine`] multiplies the first part's CRC by.
/// Building one costs a multiply per set bit of `len`; a caller that
/// combines at one length many times keeps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrcShift(u32);

impl CrcShift {
    /// The shift past `len` bytes.
    pub fn bytes(len: u64) -> CrcShift {
        let mut p = 1u32 << 31; // x^0
        let mut n = len;
        let mut k = 3; // one byte is 2^3 bits
        while n != 0 {
            if n & 1 != 0 {
                p = mul_mod_p(X2N[k % 32], p);
            }
            n >>= 1;
            k += 1;
        }
        CrcShift(p)
    }
}

/// The CRC-32 of `a ‖ b` from `crc32(a)`, `crc32(b)` and the shift for
/// `b`'s length. CRC-32 is linear over GF(2), so
/// `crc(a ‖ b) = crc(a) · x^(8|b|) mod P ⊕ crc(b)`: the all-ones preset
/// and final complement cancel between the two parts (zlib's
/// `crc32_combine_op`).
pub fn crc32_combine(crc_a: u32, crc_b: u32, shift_b: CrcShift) -> u32 {
    mul_mod_p(shift_b.0, crc_a) ^ crc_b
}

/// One-shot CRC-10 of a byte slice (bit-serial MSB-first; used for the
/// cell-header-style integrity check in tests and fault injection).
pub fn crc10(data: &[u8]) -> u16 {
    let mut crc: u16 = 0;
    for &b in data {
        for bit in (0..8).rev() {
            let inbit = ((b >> bit) & 1) as u16;
            let topbit = (crc >> 9) & 1;
            crc = (crc << 1) & 0x3FF;
            if topbit ^ inbit != 0 {
                crc ^= CRC10_POLY & 0x3FF;
            }
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use osiris_sim::SimRng;

    /// The one-byte-per-step reference the slicing-by-16 loop must match.
    fn crc32_bytewise(state: u32, data: &[u8]) -> u32 {
        let mut c = state;
        for &b in data {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    #[test]
    fn slicing_by_16_matches_bytewise_reference() {
        // Lengths 0..=300 give every combination of 16-byte blocks and an
        // 8/4/1-byte tail, one-shot and at random incremental splits.
        let mut rng = SimRng::new(0xC3C3_2024);
        for len in 0..=300usize {
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            // One-shot.
            assert_eq!(
                crc32(&data),
                !crc32_bytewise(0xFFFF_FFFF, &data),
                "len {len}"
            );
            // Incremental at random split points: every update, whatever
            // its length and alignment, must match the reference state.
            let mut inc = Crc32::new();
            let mut reference = 0xFFFF_FFFF;
            let mut at = 0;
            while at < len {
                let take = 1 + rng.gen_range((len - at) as u64) as usize;
                inc.update(&data[at..at + take]);
                reference = crc32_bytewise(reference, &data[at..at + take]);
                assert_eq!(inc.state, reference, "len {len} split at {at}+{take}");
                at += take;
            }
            assert_eq!(inc.finish(), !reference);
        }
    }

    #[test]
    fn combine_matches_crc_of_the_concatenation() {
        // Every length 0..=4096 split at a seeded random point, plus both
        // empty-half splits: the combine must equal the CRC of the whole.
        let mut rng = SimRng::new(0xC0B1_4E32);
        let data: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
        for len in 0..=4096usize {
            let whole = crc32(&data[..len]);
            let random = rng.gen_range(len as u64 + 1) as usize;
            for at in [0, random, len] {
                let (a, b) = data[..len].split_at(at);
                let shift = CrcShift::bytes(b.len() as u64);
                assert_eq!(
                    crc32_combine(crc32(a), crc32(b), shift),
                    whole,
                    "len {len} split at {at}"
                );
            }
        }
    }

    #[test]
    fn powers_of_x_repeat_with_period_32() {
        // x^(2^32) = x^(2^0): the wrap `CrcShift::bytes` relies on.
        assert_eq!(mul_mod_p(X2N[31], X2N[31]), X2N[0]);
        // So the largest length still shifts like its bit pattern says:
        // 2^63 bytes is 2^66 bits, the same operator as 2^2 bits.
        assert_eq!(CrcShift::bytes(1 << 63).0, X2N[2]);
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut inc = Crc32::new();
        for chunk in data.chunks(44) {
            inc.update(chunk);
        }
        assert_eq!(inc.finish(), crc32(&data));
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let mut data = vec![0u8; 1024];
        data[500] = 0x55;
        let good = crc32(&data);
        for bit in 0..8 {
            let mut bad = data.clone();
            bad[123] ^= 1 << bit;
            assert_ne!(crc32(&bad), good, "bit {bit} flip undetected");
        }
    }

    #[test]
    fn crc32_detects_cell_swap() {
        // Two swapped 44-byte cells — the §2.6 misordering failure an
        // in-order reassembler must catch via CRC.
        let data: Vec<u8> = (0..88u8).collect();
        let mut swapped = data.clone();
        swapped.rotate_left(44);
        assert_ne!(crc32(&data), crc32(&swapped));
    }

    #[test]
    fn crc10_range_and_determinism() {
        let c = crc10(b"OSIRIS");
        assert!(c < 1024);
        assert_eq!(c, crc10(b"OSIRIS"));
        assert_ne!(crc10(b"OSIRIS"), crc10(b"OSIRIX"));
    }

    #[test]
    fn crc10_self_check_property() {
        // Appending the CRC (as 2 bytes, 10 significant bits left-aligned
        // in a 16-bit field) then re-checking yields 0 for MSB-first CRCs
        // when the message is extended by exactly 10 zero bits. We verify
        // the weaker but sufficient property: distinct small messages give
        // distinct CRCs often enough to catch corruption.
        let mut seen = std::collections::HashSet::new();
        for i in 0..200u32 {
            seen.insert(crc10(&i.to_be_bytes()));
        }
        assert!(seen.len() > 150, "CRC-10 collides too much: {}", seen.len());
    }
}
