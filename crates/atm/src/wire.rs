//! Cell wire format: 53-byte images with a real HEC.
//!
//! The simulation mostly moves [`Cell`] structs, but interoperability and
//! fault-injection realism want actual octets: a 5-byte ATM header
//! protected by the standard HEC (CRC-8, polynomial x⁸+x²+x+1, XORed with
//! 0x55 per I.432), a 4-byte AAL header (sequence number, framing bits,
//! fill), and the 44-byte payload. Trailers of EOM cells are carried in a
//! 9-byte extension record (see DESIGN.md: trailers are out-of-band in
//! the model so the 44-data-bytes-per-cell arithmetic stays exact).
//!
//! `encode`/`decode` round-trip every cell, and `decode` rejects any
//! header corruption via the HEC — the property the fault-injection
//! tests lean on. Beyond the HEC, `decode` accepts only images `encode`
//! can produce: reserved header bits clear, an EOM byte of 0 or 1, and a
//! `0xA1`-marked trailer extension exactly on EOM cells. So whenever it
//! returns a cell, re-encoding that cell reproduces the bytes consumed.

use crate::cell::{AalHeader, Cell, CellHeader, Trailer, CELL_PAYLOAD};
use crate::vci::Vci;

/// Bytes in an encoded cell without a trailer extension.
pub const WIRE_BASE: usize = 5 + 4 + CELL_PAYLOAD;
/// Extra bytes when a trailer extension is present.
pub const WIRE_TRAILER: usize = 9;

/// Header flag bits: the `last_cell` framing bit and the trailer flag.
const FLAG_LAST_CELL: u8 = 0b01;
const FLAG_TRAILER: u8 = 0b10;
/// First byte of the trailer extension.
const TRAILER_MARKER: u8 = 0xA1;

/// CRC-8 with polynomial x⁸ + x² + x + 1 (0x07), as used by the ATM HEC.
pub fn hec(bytes: &[u8]) -> u8 {
    let mut crc: u8 = 0;
    for &b in bytes {
        crc ^= b;
        for _ in 0..8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ 0x07
            } else {
                crc << 1
            };
        }
    }
    // I.432 recommends XORing the HEC with 0x55 for better delineation.
    crc ^ 0x55
}

/// Wire-format decode errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than a base cell.
    Truncated,
    /// The header checksum did not match.
    BadHec,
    /// The fill field was 0 or exceeded 44.
    BadFill,
    /// An EOM cell without its trailer extension (or length mismatch).
    MissingTrailer,
    /// Reserved header bits (unused flag bits, the spare byte) were set.
    Reserved,
    /// The AAL end-of-message byte was neither 0 nor 1.
    BadEom,
    /// A trailer extension on a non-EOM cell, or one without the `0xA1`
    /// marker.
    BadTrailer,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WireError::Truncated => "truncated cell",
            WireError::BadHec => "header checksum mismatch",
            WireError::BadFill => "invalid fill",
            WireError::MissingTrailer => "missing trailer extension",
            WireError::Reserved => "reserved header bits set",
            WireError::BadEom => "invalid end-of-message byte",
            WireError::BadTrailer => "invalid trailer extension",
        };
        f.write_str(s)
    }
}

impl std::error::Error for WireError {}

/// Encodes a cell to its wire image.
pub fn encode(cell: &Cell) -> Vec<u8> {
    let has_trailer = cell.trailer.is_some();
    let mut out = Vec::with_capacity(WIRE_BASE + if has_trailer { WIRE_TRAILER } else { 0 });
    // ── ATM header (5 bytes): flags, VCI, spare, HEC ──
    let mut flags = 0u8;
    if cell.header.last_cell {
        flags |= FLAG_LAST_CELL;
    }
    if has_trailer {
        flags |= FLAG_TRAILER;
    }
    out.push(flags);
    out.extend_from_slice(&cell.header.vci.0.to_be_bytes());
    out.push(0); // spare (GFC/PT/CLP territory in real ATM)
    out.push(hec(&out[0..4]));
    // ── AAL header (4 bytes): seq, eom|fill ──
    out.extend_from_slice(&cell.aal.seq.to_be_bytes());
    out.push(if cell.aal.eom { 1 } else { 0 });
    out.push(cell.aal.fill);
    // ── payload ──
    out.extend_from_slice(&cell.payload);
    // ── trailer extension ──
    if let Some(t) = cell.trailer {
        out.push(TRAILER_MARKER);
        out.extend_from_slice(&t.len.to_be_bytes());
        out.extend_from_slice(&t.crc.to_be_bytes());
    }
    out
}

/// Decodes a wire image back into a cell, verifying the HEC and
/// rejecting every image [`encode`] cannot produce. Bytes past the cell
/// (and its trailer extension, if flagged) are ignored.
pub fn decode(bytes: &[u8]) -> Result<Cell, WireError> {
    if bytes.len() < WIRE_BASE {
        return Err(WireError::Truncated);
    }
    if hec(&bytes[0..4]) != bytes[4] {
        return Err(WireError::BadHec);
    }
    let flags = bytes[0];
    if flags & !(FLAG_LAST_CELL | FLAG_TRAILER) != 0 || bytes[3] != 0 {
        return Err(WireError::Reserved);
    }
    let last_cell = flags & FLAG_LAST_CELL != 0;
    let has_trailer = flags & FLAG_TRAILER != 0;
    let vci = Vci(u16::from_be_bytes([bytes[1], bytes[2]]));
    let seq = u16::from_be_bytes([bytes[5], bytes[6]]);
    let eom = match bytes[7] {
        0 => false,
        1 => true,
        _ => return Err(WireError::BadEom),
    };
    let fill = bytes[8];
    if fill == 0 || fill as usize > CELL_PAYLOAD {
        return Err(WireError::BadFill);
    }
    let mut payload = [0u8; CELL_PAYLOAD];
    payload.copy_from_slice(&bytes[9..9 + CELL_PAYLOAD]);
    let trailer = match (eom, has_trailer) {
        (false, false) => None,
        (true, false) => return Err(WireError::MissingTrailer),
        (false, true) => return Err(WireError::BadTrailer),
        (true, true) => {
            let Some(t) = bytes.get(WIRE_BASE..WIRE_BASE + WIRE_TRAILER) else {
                return Err(WireError::MissingTrailer);
            };
            if t[0] != TRAILER_MARKER {
                return Err(WireError::BadTrailer);
            }
            Some(Trailer {
                len: u32::from_be_bytes([t[1], t[2], t[3], t[4]]),
                crc: u32::from_be_bytes([t[5], t[6], t[7], t[8]]),
            })
        }
    };
    Ok(Cell {
        header: CellHeader { vci, last_cell },
        aal: AalHeader { seq, eom, fill },
        payload,
        trailer,
        // Trace identity is sim-side metadata, never encoded.
        ctx: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(with_trailer: bool) -> Cell {
        let mut c = Cell::data(Vci(0x1234), 77, &[0xAB; 30]);
        c.header.last_cell = true;
        if with_trailer {
            c.aal.eom = true;
            c.trailer = Some(Trailer {
                len: 1234,
                crc: 0xDEADBEEF,
            });
        }
        c
    }

    #[test]
    fn roundtrip_plain_and_trailer() {
        for t in [false, true] {
            let c = sample(t);
            let bytes = encode(&c);
            assert_eq!(bytes.len(), WIRE_BASE + if t { WIRE_TRAILER } else { 0 });
            assert_eq!(decode(&bytes).unwrap(), c);
        }
    }

    #[test]
    fn hec_catches_every_header_bit_flip() {
        let bytes = encode(&sample(false));
        for bit in 0..(5 * 8) {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(decode(&bad).unwrap_err(), WireError::BadHec, "bit {bit}");
        }
    }

    #[test]
    fn payload_corruption_is_not_hecs_job() {
        // The HEC protects the header only; payload errors are the AAL
        // CRC-32's job (checked at reassembly).
        let c = sample(false);
        let mut bytes = encode(&c);
        bytes[20] ^= 0xFF;
        let decoded = decode(&bytes).unwrap();
        assert_ne!(decoded.payload, c.payload);
    }

    #[test]
    fn truncation_and_bad_fill_rejected() {
        let bytes = encode(&sample(false));
        assert_eq!(decode(&bytes[..10]).unwrap_err(), WireError::Truncated);
        let mut bad = bytes.clone();
        bad[8] = 0;
        assert_eq!(decode(&bad).unwrap_err(), WireError::BadFill);
        let mut bad = bytes;
        bad[8] = 45;
        assert_eq!(decode(&bad).unwrap_err(), WireError::BadFill);
    }

    #[test]
    fn missing_trailer_detected() {
        let bytes = encode(&sample(true));
        assert_eq!(
            decode(&bytes[..WIRE_BASE]).unwrap_err(),
            WireError::MissingTrailer
        );
    }

    #[test]
    fn malformed_framing_rejected() {
        // An EOM cell whose trailer flag is clear.
        let mut c = sample(false);
        c.aal.eom = true;
        let bytes = encode(&c);
        assert_eq!(decode(&bytes).unwrap_err(), WireError::MissingTrailer);
        // A trailer on a non-EOM cell.
        let mut c = sample(true);
        c.aal.eom = false;
        assert_eq!(decode(&encode(&c)).unwrap_err(), WireError::BadTrailer);
        // A trailer extension without its marker.
        let mut bytes = encode(&sample(true));
        bytes[WIRE_BASE] = 0xA2;
        assert_eq!(decode(&bytes).unwrap_err(), WireError::BadTrailer);
        // An EOM byte other than 0/1.
        let mut bytes = encode(&sample(true));
        bytes[7] = 2;
        assert_eq!(decode(&bytes).unwrap_err(), WireError::BadEom);
        // Reserved flag bits and the spare byte, with a valid HEC.
        for (at, v) in [(0, 0b101), (3, 1)] {
            let mut bytes = encode(&sample(false));
            bytes[at] |= v;
            bytes[4] = hec(&bytes[0..4]);
            assert_eq!(decode(&bytes).unwrap_err(), WireError::Reserved);
        }
    }

    /// Seeded mutation fuzz: byte flips, truncations and splices of
    /// encoded cells (half of them with the HEC recomputed so the
    /// mutation reaches the checks behind it). The decoder must never
    /// panic, and every cell it accepts must re-encode to exactly the
    /// bytes it consumed.
    #[test]
    fn mutated_images_never_panic_and_accepted_ones_round_trip() {
        use osiris_sim::SimRng;
        let mut rng = SimRng::new(0x5EED_A7A5);
        let cell = |rng: &mut SimRng| {
            let fill = 1 + rng.gen_range(CELL_PAYLOAD as u64) as usize;
            let data: Vec<u8> = (0..fill).map(|_| rng.next_u64() as u8).collect();
            let mut c = Cell::data(Vci(rng.next_u64() as u16), rng.next_u64() as u16, &data);
            c.header.last_cell = rng.gen_bool(0.5);
            if rng.gen_bool(0.5) {
                c.aal.eom = true;
                c.trailer = Some(Trailer {
                    len: rng.next_u64() as u32,
                    crc: rng.next_u64() as u32,
                });
            }
            encode(&c)
        };
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..20_000 {
            let mut bytes = cell(&mut rng);
            match rng.gen_range(3) {
                0 => {
                    for _ in 0..1 + rng.gen_range(3) {
                        let at = rng.gen_range(bytes.len() as u64) as usize;
                        bytes[at] ^= 1 + rng.gen_range(255) as u8;
                    }
                }
                1 => bytes.truncate(rng.gen_range(bytes.len() as u64 + 1) as usize),
                _ => {
                    let other = cell(&mut rng);
                    let a = rng.gen_range(bytes.len() as u64 + 1) as usize;
                    let b = rng.gen_range(other.len() as u64 + 1) as usize;
                    bytes.truncate(a);
                    bytes.extend_from_slice(&other[b..]);
                }
            }
            if bytes.len() >= 5 && rng.gen_bool(0.5) {
                bytes[4] = hec(&bytes[0..4]);
            }
            match decode(&bytes) {
                Ok(c) => {
                    let image = encode(&c);
                    assert_eq!(&bytes[..image.len()], &image[..], "accepted {bytes:?}");
                    accepted += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        // Both outcomes must be exercised for the property to mean much.
        assert!(accepted > 1000 && rejected > 1000, "{accepted}/{rejected}");
    }

    #[test]
    fn hec_distributes() {
        let mut seen = std::collections::HashSet::new();
        for v in 0..256u16 {
            seen.insert(hec(&v.to_be_bytes()));
        }
        assert!(seen.len() > 200, "HEC should spread: {}", seen.len());
    }
}
