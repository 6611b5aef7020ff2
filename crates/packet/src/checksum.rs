//! The Internet checksum (RFC 1071) and the IPv6 pseudo-header (RFC 8200 §8.1).
//!
//! ICMPv6, TCP and UDP all checksum their header + payload prepended with a
//! pseudo-header of source address, destination address, upper-layer packet
//! length and next-header value.

use std::net::Ipv6Addr;

/// Incremental one's-complement sum. Feed byte slices, then [`Checksum::finish`].
#[derive(Debug, Default, Clone)]
pub struct Checksum {
    /// Deferred-carry accumulator. One's-complement addition is associative
    /// and commutative, so words may be summed in any grouping before the
    /// final fold; a 64-bit accumulator absorbs exabytes of input without
    /// overflow, which is what lets `add_bytes` sum eight bytes per step.
    sum: u64,
    /// A pending odd byte from the previous `add_bytes` call.
    pending: Option<u8>,
}

impl Checksum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a 16-bit word.
    pub fn add_u16(&mut self, w: u16) {
        debug_assert!(
            self.pending.is_none(),
            "add_u16 between odd byte boundaries"
        );
        self.sum += w as u64;
    }

    /// Adds a byte slice (handles odd lengths across calls).
    ///
    /// The inner loop is word-at-a-time SWAR: each 8-byte chunk is loaded
    /// as one big-endian `u64` and its four 16-bit words are summed in two
    /// paired 32-bit lanes (no lane can carry: two 16-bit words top out at
    /// `0x1fffe`). The grouping is fold-equivalent to the byte-pair loop it
    /// replaces, and the branch-free body autovectorizes.
    pub fn add_bytes(&mut self, mut data: &[u8]) {
        if let Some(hi) = self.pending.take() {
            if let Some((&lo, rest)) = data.split_first() {
                self.sum += u16::from_be_bytes([hi, lo]) as u64;
                data = rest;
            } else {
                self.pending = Some(hi);
                return;
            }
        }
        const LANES: u64 = 0x0000_ffff_0000_ffff;
        let mut wide = data.chunks_exact(8);
        for c in &mut wide {
            let v = u64::from_be_bytes(c.try_into().expect("8-byte chunk"));
            let pairs = (v & LANES) + ((v >> 16) & LANES);
            self.sum += (pairs & 0xffff_ffff) + (pairs >> 32);
        }
        let mut chunks = wide.remainder().chunks_exact(2);
        for c in &mut chunks {
            self.sum += u16::from_be_bytes([c[0], c[1]]) as u64;
        }
        if let [last] = chunks.remainder() {
            self.pending = Some(*last);
        }
    }

    /// Folds and complements the sum into the final checksum value.
    pub fn finish(mut self) -> u16 {
        if let Some(hi) = self.pending.take() {
            self.sum += u16::from_be_bytes([hi, 0]) as u64;
        }
        let mut sum = self.sum;
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// Computes the upper-layer checksum over the IPv6 pseudo-header plus
/// `upper` (transport header + payload, with its checksum field zeroed).
pub fn pseudo_header_checksum(src: Ipv6Addr, dst: Ipv6Addr, next_header: u8, upper: &[u8]) -> u16 {
    let mut ck = Checksum::new();
    ck.add_bytes(&src.octets());
    ck.add_bytes(&dst.octets());
    // Upper-layer packet length as a 32-bit field.
    let len = upper.len() as u32;
    ck.add_u16((len >> 16) as u16);
    ck.add_u16(len as u16);
    // Three zero bytes then the next-header value.
    ck.add_u16(0);
    ck.add_u16(next_header as u16);
    ck.add_bytes(upper);
    ck.finish()
}

/// Verifies an upper-layer checksum: summing the packet *including* its
/// checksum field must yield zero.
pub fn verify_pseudo_header_checksum(
    src: Ipv6Addr,
    dst: Ipv6Addr,
    next_header: u8,
    upper_with_checksum: &[u8],
) -> bool {
    // finish() returns the complement; a valid packet sums to 0xffff, so the
    // complement is 0.
    pseudo_header_checksum(src, dst, next_header, upper_with_checksum) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // Classic example from RFC 1071 §3: words 0x0001, 0xf203, 0xf4f5, 0xf6f7.
        let mut ck = Checksum::new();
        ck.add_bytes(&[0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7]);
        // Sum = 0x2ddf0 -> fold -> 0xddf2 -> complement -> 0x220d.
        assert_eq!(ck.finish(), 0x220d);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        let mut a = Checksum::new();
        a.add_bytes(&[0xab]);
        let mut b = Checksum::new();
        b.add_bytes(&[0xab, 0x00]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn odd_boundary_across_calls() {
        let mut split = Checksum::new();
        split.add_bytes(&[0x12, 0x34, 0x56]);
        split.add_bytes(&[0x78, 0x9a, 0xbc]);
        let mut whole = Checksum::new();
        whole.add_bytes(&[0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc]);
        assert_eq!(split.finish(), whole.finish());
    }

    #[test]
    fn pseudo_header_checksum_round_trip() {
        let src: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let dst: Ipv6Addr = "2001:db8::2".parse().unwrap();
        // A fake 8-byte upper-layer packet with checksum bytes at [2..4].
        let mut pkt = vec![0x80u8, 0x00, 0x00, 0x00, 0x12, 0x34, 0x00, 0x01];
        let ck = pseudo_header_checksum(src, dst, 58, &pkt);
        pkt[2..4].copy_from_slice(&ck.to_be_bytes());
        assert!(verify_pseudo_header_checksum(src, dst, 58, &pkt));
        // Corrupt one byte: verification must fail.
        pkt[5] ^= 0x01;
        assert!(!verify_pseudo_header_checksum(src, dst, 58, &pkt));
    }

    #[test]
    fn swar_matches_scalar_reference_at_every_length_and_split() {
        // Reference: the plain byte-pair sum the SWAR loop replaced.
        fn reference(data: &[u8]) -> u16 {
            let mut sum = 0u64;
            let mut chunks = data.chunks_exact(2);
            for c in &mut chunks {
                sum += u16::from_be_bytes([c[0], c[1]]) as u64;
            }
            if let [last] = chunks.remainder() {
                sum += u16::from_be_bytes([*last, 0]) as u64;
            }
            while sum >> 16 != 0 {
                sum = (sum & 0xffff) + (sum >> 16);
            }
            !(sum as u16)
        }
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            let slice = &data[..len];
            let mut whole = Checksum::new();
            whole.add_bytes(slice);
            assert_eq!(whole.finish(), reference(slice), "len {len}");
            // Split at an odd/even boundary to cross the pending-byte path.
            let mid = len / 3;
            let mut split = Checksum::new();
            split.add_bytes(&slice[..mid]);
            split.add_bytes(&slice[mid..]);
            assert_eq!(split.finish(), reference(slice), "len {len} split {mid}");
        }
    }

    #[test]
    fn empty_payload_checksums() {
        let src: Ipv6Addr = "::1".parse().unwrap();
        let dst: Ipv6Addr = "::2".parse().unwrap();
        let ck = pseudo_header_checksum(src, dst, 17, &[]);
        // Deterministic and non-panicking; value depends only on pseudo-header.
        assert_eq!(ck, pseudo_header_checksum(src, dst, 17, &[]));
    }
}
