//! UDP header (RFC 768 over IPv6 per RFC 8200).
//!
//! UDP probes in the paper are dominated by traceroute (71% of UDP sessions,
//! ports 33434–33523) and DNS; one heavy hitter alone contributed 85% of all
//! UDP packets as DNS requests.

use crate::checksum::pseudo_header_checksum;
use crate::error::PacketError;
use std::net::Ipv6Addr;

/// Length of the UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// A decoded UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Total datagram length (header + payload).
    pub length: u16,
}

impl UdpHeader {
    /// Creates a header for a payload of the given length.
    pub fn new(src_port: u16, dst_port: u16, payload_len: usize) -> Self {
        UdpHeader {
            src_port,
            dst_port,
            length: (UDP_HEADER_LEN + payload_len) as u16,
        }
    }

    /// Encodes header + `payload` into `out` with a valid checksum.
    ///
    /// Note: over IPv6 the UDP checksum is mandatory (RFC 8200 §8.1); a zero
    /// checksum result is transmitted as 0xffff.
    pub fn encode(&self, src: Ipv6Addr, dst: Ipv6Addr, payload: &[u8], out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.length.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(payload);
        let mut ck = pseudo_header_checksum(src, dst, 17, &out[start..]);
        if ck == 0 {
            ck = 0xffff;
        }
        out[start + 6..start + 8].copy_from_slice(&ck.to_be_bytes());
    }

    /// Decodes the header; returns it together with the datagram payload.
    pub fn decode(buf: &[u8]) -> Result<(UdpHeader, &[u8]), PacketError> {
        if buf.len() < UDP_HEADER_LEN {
            return Err(PacketError::Truncated {
                what: "UDP header",
                need: UDP_HEADER_LEN,
                have: buf.len(),
            });
        }
        let length = u16::from_be_bytes([buf[4], buf[5]]) as usize;
        if length < UDP_HEADER_LEN || length > buf.len() {
            return Err(PacketError::LengthMismatch {
                what: "UDP length",
                declared: length,
                actual: buf.len(),
            });
        }
        Ok((
            UdpHeader {
                src_port: u16::from_be_bytes([buf[0], buf[1]]),
                dst_port: u16::from_be_bytes([buf[2], buf[3]]),
                length: length as u16,
            },
            &buf[UDP_HEADER_LEN..length],
        ))
    }

    /// Verifies the checksum of a full UDP datagram.
    pub fn verify_checksum(src: Ipv6Addr, dst: Ipv6Addr, datagram: &[u8]) -> bool {
        crate::checksum::verify_pseudo_header_checksum(src, dst, 17, datagram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv6Addr, Ipv6Addr) {
        (
            "2001:db8::1".parse().unwrap(),
            "2001:db8::53".parse().unwrap(),
        )
    }

    #[test]
    fn round_trip_with_valid_checksum() {
        let (src, dst) = addrs();
        let hdr = UdpHeader::new(40000, 53, 5);
        let mut buf = Vec::new();
        hdr.encode(src, dst, b"query", &mut buf);
        assert_eq!(buf.len(), UDP_HEADER_LEN + 5);
        assert!(UdpHeader::verify_checksum(src, dst, &buf));
        let (decoded, payload) = UdpHeader::decode(&buf).unwrap();
        assert_eq!(decoded, hdr);
        assert_eq!(payload, b"query");
    }

    #[test]
    fn length_field_matches() {
        let hdr = UdpHeader::new(1, 2, 100);
        assert_eq!(hdr.length, 108);
    }

    #[test]
    fn decode_trims_trailing_bytes_beyond_length() {
        let (src, dst) = addrs();
        let mut buf = Vec::new();
        UdpHeader::new(1, 33434, 3).encode(src, dst, b"abc", &mut buf);
        buf.extend_from_slice(b"JUNK");
        let (_, payload) = UdpHeader::decode(&buf).unwrap();
        assert_eq!(payload, b"abc");
    }

    #[test]
    fn decode_rejects_undersized_length() {
        let mut buf = vec![0u8; 8];
        buf[4..6].copy_from_slice(&4u16.to_be_bytes());
        assert!(matches!(
            UdpHeader::decode(&buf),
            Err(PacketError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn decode_rejects_truncated_payload() {
        let (src, dst) = addrs();
        let mut buf = Vec::new();
        UdpHeader::new(1, 2, 10).encode(src, dst, &[0u8; 10], &mut buf);
        assert!(UdpHeader::decode(&buf[..12]).is_err());
    }

    #[test]
    fn corrupted_datagram_fails_checksum() {
        let (src, dst) = addrs();
        let mut buf = Vec::new();
        UdpHeader::new(9, 10, 4).encode(src, dst, b"data", &mut buf);
        buf[8] ^= 0x40;
        assert!(!UdpHeader::verify_checksum(src, dst, &buf));
    }
}
