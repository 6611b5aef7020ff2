//! TCP header (RFC 9293) — enough for SYN scanning and the reactive
//! telescope's SYN/ACK responses.
//!
//! In the paper TCP carries only 10.5% of packets but 92.8% of *sessions*:
//! port scanners send a handful of SYNs each. We encode a full 20-byte
//! header with correct checksums; options are not generated but a decoded
//! data-offset larger than 5 is tolerated.

use crate::checksum::pseudo_header_checksum;
use crate::error::PacketError;
use std::net::Ipv6Addr;

/// Length of a TCP header without options.
pub const TCP_HEADER_LEN: usize = 20;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN flag.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST flag.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH flag.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK flag.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// SYN|ACK combination.
    pub const SYN_ACK: TcpFlags = TcpFlags(0x12);

    /// True if every bit of `other` is set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two flag sets.
    pub fn union(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }
}

/// A decoded TCP header (options, if present, are skipped on decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
}

impl TcpHeader {
    /// A SYN probe as emitted by a port scanner.
    pub fn syn(src_port: u16, dst_port: u16, seq: u32) -> Self {
        TcpHeader {
            src_port,
            dst_port,
            seq,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65_535,
        }
    }

    /// The SYN/ACK a reactive telescope sends back for this SYN.
    pub fn syn_ack_for(&self, own_seq: u32) -> Self {
        TcpHeader {
            src_port: self.dst_port,
            dst_port: self.src_port,
            seq: own_seq,
            ack: self.seq.wrapping_add(1),
            flags: TcpFlags::SYN_ACK,
            window: 65_535,
        }
    }

    /// Encodes header + `payload` into `out` with a valid checksum.
    pub fn encode(&self, src: Ipv6Addr, dst: Ipv6Addr, payload: &[u8], out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        out.push(5 << 4); // data offset 5 words, no options
        out.push(self.flags.0);
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&[0, 0]); // urgent pointer
        out.extend_from_slice(payload);
        let ck = pseudo_header_checksum(src, dst, 6, &out[start..]);
        out[start + 16..start + 18].copy_from_slice(&ck.to_be_bytes());
    }

    /// Decodes the header; returns it together with the segment payload
    /// (skipping any options indicated by the data offset).
    pub fn decode(buf: &[u8]) -> Result<(TcpHeader, &[u8]), PacketError> {
        if buf.len() < TCP_HEADER_LEN {
            return Err(PacketError::Truncated {
                what: "TCP header",
                need: TCP_HEADER_LEN,
                have: buf.len(),
            });
        }
        let data_offset = (buf[12] >> 4) as usize * 4;
        if data_offset < TCP_HEADER_LEN || data_offset > buf.len() {
            return Err(PacketError::LengthMismatch {
                what: "TCP data offset",
                declared: data_offset,
                actual: buf.len(),
            });
        }
        Ok((
            TcpHeader {
                src_port: u16::from_be_bytes([buf[0], buf[1]]),
                dst_port: u16::from_be_bytes([buf[2], buf[3]]),
                seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
                ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
                flags: TcpFlags(buf[13]),
                window: u16::from_be_bytes([buf[14], buf[15]]),
            },
            &buf[data_offset..],
        ))
    }

    /// Verifies the checksum of a full TCP segment.
    pub fn verify_checksum(src: Ipv6Addr, dst: Ipv6Addr, segment: &[u8]) -> bool {
        crate::checksum::verify_pseudo_header_checksum(src, dst, 6, segment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv6Addr, Ipv6Addr) {
        (
            "2001:db8::a".parse().unwrap(),
            "2001:db8::b".parse().unwrap(),
        )
    }

    #[test]
    fn syn_round_trip_with_valid_checksum() {
        let (src, dst) = addrs();
        let hdr = TcpHeader::syn(54321, 443, 0xdeadbeef);
        let mut buf = Vec::new();
        hdr.encode(src, dst, &[], &mut buf);
        assert_eq!(buf.len(), TCP_HEADER_LEN);
        assert!(TcpHeader::verify_checksum(src, dst, &buf));
        let (decoded, payload) = TcpHeader::decode(&buf).unwrap();
        assert_eq!(decoded, hdr);
        assert!(payload.is_empty());
    }

    #[test]
    fn syn_ack_swaps_ports_and_acks_seq() {
        let syn = TcpHeader::syn(1000, 80, 41);
        let sa = syn.syn_ack_for(7);
        assert_eq!(sa.src_port, 80);
        assert_eq!(sa.dst_port, 1000);
        assert_eq!(sa.ack, 42);
        assert!(sa.flags.contains(TcpFlags::SYN) && sa.flags.contains(TcpFlags::ACK));
    }

    #[test]
    fn payload_is_checksummed() {
        let (src, dst) = addrs();
        let mut buf = Vec::new();
        TcpHeader::syn(1, 2, 3).encode(src, dst, b"probe-data", &mut buf);
        assert!(TcpHeader::verify_checksum(src, dst, &buf));
        buf[TCP_HEADER_LEN] ^= 0x01;
        assert!(!TcpHeader::verify_checksum(src, dst, &buf));
    }

    #[test]
    fn decode_skips_options() {
        let (src, dst) = addrs();
        let mut buf = Vec::new();
        TcpHeader::syn(1, 2, 3).encode(src, dst, &[], &mut buf);
        // Fake a data offset of 6 words (one 4-byte option) and append NOP padding.
        buf[12] = 6 << 4;
        buf.extend_from_slice(&[1, 1, 1, 0]);
        buf.extend_from_slice(b"xy");
        let (_, payload) = TcpHeader::decode(&buf).unwrap();
        assert_eq!(payload, b"xy");
    }

    #[test]
    fn decode_rejects_bad_offset() {
        let mut buf = vec![0u8; TCP_HEADER_LEN];
        buf[12] = 2 << 4; // offset 8 bytes < minimum 20
        assert!(matches!(
            TcpHeader::decode(&buf),
            Err(PacketError::LengthMismatch { .. })
        ));
        let mut buf = vec![0u8; TCP_HEADER_LEN];
        buf[12] = 15 << 4; // offset 60 > buffer
        assert!(TcpHeader::decode(&buf).is_err());
    }

    #[test]
    fn flags_algebra() {
        let f = TcpFlags::SYN.union(TcpFlags::ACK);
        assert_eq!(f, TcpFlags::SYN_ACK);
        assert!(f.contains(TcpFlags::SYN));
        assert!(!f.contains(TcpFlags::RST));
    }
}
