//! Wire formats with real byte encodings.
//!
//! Deviation (recorded in DESIGN.md): to support the paper's >64 KB
//! messages (footnote 5), the IP-like header carries 32-bit total-length
//! and fragment-offset fields (24 bytes total) and the UDP-like header a
//! 32-bit length (12 bytes total). Everything else — version field,
//! identification, more-fragments flag, protocol number, one's-complement
//! header checksum — follows IPv4/UDP structure, and the header checksum
//! is really computed and really verified.

use osiris_host::machine::internet_checksum;

/// Bytes in the IP-like header.
pub const IP_HEADER_BYTES: usize = 24;
/// Bytes in the UDP-like header.
pub const UDP_HEADER_BYTES: usize = 12;

/// The IP protocol number we use for UDP (matching IPv4).
pub const IPPROTO_UDP: u8 = 17;

/// The IP-like header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpHeader {
    /// Datagram identification (fragment grouping key).
    pub id: u32,
    /// Total payload length of the *original* datagram in bytes.
    pub total_len: u32,
    /// This fragment's payload offset in bytes.
    pub frag_off: u32,
    /// More fragments follow.
    pub more_frags: bool,
    /// Payload protocol.
    pub proto: u8,
    /// Source host (model-level address).
    pub src: u16,
    /// Destination host.
    pub dst: u16,
}

impl IpHeader {
    /// Encodes with a valid header checksum.
    pub fn encode(&self) -> [u8; IP_HEADER_BYTES] {
        let mut b = [0u8; IP_HEADER_BYTES];
        b[0] = 0x45; // version 4, "header length" marker
        b[1] = self.proto;
        b[2..4].copy_from_slice(&self.src.to_be_bytes());
        b[4..6].copy_from_slice(&self.dst.to_be_bytes());
        b[6..10].copy_from_slice(&self.id.to_be_bytes());
        b[10..14].copy_from_slice(&self.total_len.to_be_bytes());
        b[14..18].copy_from_slice(&self.frag_off.to_be_bytes());
        b[18] = self.more_frags as u8;
        // b[19] reserved, b[20..22] checksum, b[22..24] padding.
        let ck = internet_checksum(&b);
        b[20..22].copy_from_slice(&ck.to_be_bytes());
        b
    }

    /// Decodes and verifies the header checksum. Rejects anything
    /// [`IpHeader::encode`] cannot produce: a more-fragments byte other
    /// than 0 or 1, or a non-zero reserved (19) or padding (22–23) byte.
    pub fn decode(b: &[u8]) -> Option<IpHeader> {
        if b.len() < IP_HEADER_BYTES
            || b[0] != 0x45
            || b[18] > 1
            || b[19] != 0
            || b[22..24] != [0, 0]
        {
            return None;
        }
        // Re-checksum with the checksum field zeroed.
        let mut copy = [0u8; IP_HEADER_BYTES];
        copy.copy_from_slice(&b[..IP_HEADER_BYTES]);
        let stored = u16::from_be_bytes([copy[20], copy[21]]);
        copy[20] = 0;
        copy[21] = 0;
        if internet_checksum(&copy) != stored {
            return None;
        }
        Some(IpHeader {
            proto: b[1],
            src: u16::from_be_bytes([b[2], b[3]]),
            dst: u16::from_be_bytes([b[4], b[5]]),
            id: u32::from_be_bytes([b[6], b[7], b[8], b[9]]),
            total_len: u32::from_be_bytes([b[10], b[11], b[12], b[13]]),
            frag_off: u32::from_be_bytes([b[14], b[15], b[16], b[17]]),
            more_frags: b[18] == 1,
        })
    }
}

/// The UDP-like header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Data length in bytes (excluding this header).
    pub len: u32,
    /// Optional data checksum; 0 = checksumming disabled (as in §4's
    /// latency measurements: "UDP checksumming was turned off").
    pub cksum: u16,
}

impl UdpHeader {
    /// Encodes the header.
    pub fn encode(&self) -> [u8; UDP_HEADER_BYTES] {
        let mut b = [0u8; UDP_HEADER_BYTES];
        b[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        b[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        b[4..8].copy_from_slice(&self.len.to_be_bytes());
        b[8..10].copy_from_slice(&self.cksum.to_be_bytes());
        b
    }

    /// Decodes the header (no checksum over the header itself, as in
    /// UDP). Rejects non-zero padding (bytes 10–11).
    pub fn decode(b: &[u8]) -> Option<UdpHeader> {
        if b.len() < UDP_HEADER_BYTES || b[10..12] != [0, 0] {
            return None;
        }
        Some(UdpHeader {
            src_port: u16::from_be_bytes([b[0], b[1]]),
            dst_port: u16::from_be_bytes([b[2], b[3]]),
            len: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
            cksum: u16::from_be_bytes([b[8], b[9]]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr() -> IpHeader {
        IpHeader {
            id: 0xDEADBEEF,
            total_len: 100_000,
            frag_off: 16 * 1024,
            more_frags: true,
            proto: IPPROTO_UDP,
            src: 1,
            dst: 2,
        }
    }

    #[test]
    fn ip_roundtrip() {
        let h = hdr();
        let b = h.encode();
        assert_eq!(IpHeader::decode(&b), Some(h));
    }

    #[test]
    fn ip_supports_large_datagrams() {
        // The >64 KB modification of footnote 5.
        let mut h = hdr();
        h.total_len = 256 * 1024;
        h.frag_off = 240 * 1024;
        let b = h.encode();
        let d = IpHeader::decode(&b).unwrap();
        assert_eq!(d.total_len, 256 * 1024);
        assert_eq!(d.frag_off, 240 * 1024);
    }

    #[test]
    fn ip_header_checksum_catches_corruption() {
        let b = hdr().encode();
        for i in 0..IP_HEADER_BYTES {
            let mut bad = b;
            bad[i] ^= 0x40;
            assert_eq!(
                IpHeader::decode(&bad),
                None,
                "byte {i} corruption undetected"
            );
        }
    }

    #[test]
    fn ip_rejects_short_or_alien_input() {
        assert_eq!(IpHeader::decode(&[0u8; 10]), None);
        let mut b = hdr().encode();
        b[0] = 0x60; // "IPv6"
        assert_eq!(IpHeader::decode(&b), None);
    }

    #[test]
    fn udp_roundtrip() {
        let h = UdpHeader {
            src_port: 5001,
            dst_port: 7,
            len: 1 << 20,
            cksum: 0xABCD,
        };
        assert_eq!(UdpHeader::decode(&h.encode()), Some(h));
        assert_eq!(UdpHeader::decode(&[0u8; 4]), None);
    }

    /// Writes a valid checksum over a (possibly mutated) IP image.
    fn reseal(b: &mut [u8]) {
        b[20] = 0;
        b[21] = 0;
        let ck = internet_checksum(&b[..IP_HEADER_BYTES]);
        b[20..22].copy_from_slice(&ck.to_be_bytes());
    }

    #[test]
    fn ip_rejects_fields_encode_never_writes() {
        // Each with a valid checksum, so only the field check can catch it.
        for (at, v) in [(18, 2u8), (18, 0x80), (19, 1), (22, 1), (23, 0x40)] {
            let mut b = hdr().encode();
            b[at] = v;
            reseal(&mut b);
            assert_eq!(IpHeader::decode(&b), None, "byte {at} = {v:#x} accepted");
        }
        let mut b = UdpHeader {
            src_port: 1,
            dst_port: 2,
            len: 3,
            cksum: 0,
        }
        .encode();
        b[11] = 1;
        assert_eq!(UdpHeader::decode(&b), None);
    }

    /// Seeded mutation fuzz: byte flips, truncations and splices of
    /// encoded IP + UDP header pairs (half of them with the IP checksum
    /// recomputed so the mutation reaches the checks behind it). The
    /// decoders must never panic, and every header one accepts must
    /// re-encode to exactly the bytes it consumed.
    #[test]
    fn mutated_headers_never_panic_and_accepted_ones_round_trip() {
        use osiris_sim::SimRng;
        let mut rng = SimRng::new(0x1F_0D_0D);
        let image = |rng: &mut SimRng| {
            let ip = IpHeader {
                id: rng.next_u64() as u32,
                total_len: rng.next_u64() as u32,
                frag_off: rng.next_u64() as u32,
                more_frags: rng.gen_bool(0.5),
                proto: if rng.gen_bool(0.8) {
                    IPPROTO_UDP
                } else {
                    rng.next_u64() as u8
                },
                src: rng.next_u64() as u16,
                dst: rng.next_u64() as u16,
            };
            let udp = UdpHeader {
                src_port: rng.next_u64() as u16,
                dst_port: rng.next_u64() as u16,
                len: rng.next_u64() as u32,
                cksum: rng.next_u64() as u16,
            };
            let mut b = ip.encode().to_vec();
            b.extend_from_slice(&udp.encode());
            b
        };
        let mut counts = [[0u32; 2]; 2];
        for _ in 0..20_000 {
            let mut bytes = image(&mut rng);
            match rng.gen_range(3) {
                0 => {
                    for _ in 0..1 + rng.gen_range(3) {
                        let at = rng.gen_range(bytes.len() as u64) as usize;
                        bytes[at] ^= 1 + rng.gen_range(255) as u8;
                    }
                }
                1 => bytes.truncate(rng.gen_range(bytes.len() as u64 + 1) as usize),
                _ => {
                    let other = image(&mut rng);
                    let a = rng.gen_range(bytes.len() as u64 + 1) as usize;
                    let b = rng.gen_range(other.len() as u64 + 1) as usize;
                    bytes.truncate(a);
                    bytes.extend_from_slice(&other[b..]);
                }
            }
            if bytes.len() >= IP_HEADER_BYTES && rng.gen_bool(0.5) {
                reseal(&mut bytes);
            }
            let ip = IpHeader::decode(&bytes);
            if let Some(h) = ip {
                assert_eq!(
                    &bytes[..IP_HEADER_BYTES],
                    &h.encode()[..],
                    "accepted {bytes:?}"
                );
            }
            counts[0][ip.is_some() as usize] += 1;
            let rest = &bytes[IP_HEADER_BYTES.min(bytes.len())..];
            let udp = UdpHeader::decode(rest);
            if let Some(h) = udp {
                assert_eq!(
                    &rest[..UDP_HEADER_BYTES],
                    &h.encode()[..],
                    "accepted {rest:?}"
                );
            }
            counts[1][udp.is_some() as usize] += 1;
        }
        // Both outcomes must be exercised for the property to mean much.
        for [rejected, accepted] in counts {
            assert!(accepted > 1000 && rejected > 1000, "{accepted}/{rejected}");
        }
    }
}
