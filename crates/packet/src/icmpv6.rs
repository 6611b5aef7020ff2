//! ICMPv6 (RFC 4443) — the dominant protocol at every telescope in the paper
//! (66% of all captured packets).
//!
//! Scanners mostly send Echo Requests; topology tools (Yarrp, traceroute)
//! elicit Time Exceeded and Destination Unreachable from routers. The
//! reactive telescope T4 answers Echo Requests with Echo Replies.

use crate::checksum::pseudo_header_checksum;
use crate::error::PacketError;
use std::net::Ipv6Addr;

/// Length of the ICMPv6 fixed header (type, code, checksum, 4 message bytes).
pub const ICMPV6_HEADER_LEN: usize = 8;

/// ICMPv6 message types the telescope understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Icmpv6Type {
    /// Destination Unreachable (1).
    DestUnreachable,
    /// Packet Too Big (2).
    PacketTooBig,
    /// Time Exceeded (3).
    TimeExceeded,
    /// Parameter Problem (4).
    ParamProblem,
    /// Echo Request (128).
    EchoRequest,
    /// Echo Reply (129).
    EchoReply,
    /// Any other type, kept verbatim.
    Other(u8),
}

impl Icmpv6Type {
    /// Wire value.
    pub fn value(self) -> u8 {
        match self {
            Icmpv6Type::DestUnreachable => 1,
            Icmpv6Type::PacketTooBig => 2,
            Icmpv6Type::TimeExceeded => 3,
            Icmpv6Type::ParamProblem => 4,
            Icmpv6Type::EchoRequest => 128,
            Icmpv6Type::EchoReply => 129,
            Icmpv6Type::Other(v) => v,
        }
    }

    /// Classifies a wire value.
    pub fn from_value(v: u8) -> Icmpv6Type {
        match v {
            1 => Icmpv6Type::DestUnreachable,
            2 => Icmpv6Type::PacketTooBig,
            3 => Icmpv6Type::TimeExceeded,
            4 => Icmpv6Type::ParamProblem,
            128 => Icmpv6Type::EchoRequest,
            129 => Icmpv6Type::EchoReply,
            other => Icmpv6Type::Other(other),
        }
    }
}

/// A decoded ICMPv6 header. For echo messages the 4 message-body bytes are
/// the identifier and sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Icmpv6Header {
    /// Message type.
    pub icmp_type: Icmpv6Type,
    /// Message code.
    pub code: u8,
    /// Echo identifier (or upper half of the reserved/message field).
    pub identifier: u16,
    /// Echo sequence number (or lower half of the reserved/message field).
    pub sequence: u16,
}

impl Icmpv6Header {
    /// A standard Echo Request header.
    pub fn echo_request(identifier: u16, sequence: u16) -> Self {
        Icmpv6Header {
            icmp_type: Icmpv6Type::EchoRequest,
            code: 0,
            identifier,
            sequence,
        }
    }

    /// The Echo Reply answering this Echo Request (same id/seq).
    pub fn echo_reply_for(&self) -> Self {
        Icmpv6Header {
            icmp_type: Icmpv6Type::EchoReply,
            code: 0,
            identifier: self.identifier,
            sequence: self.sequence,
        }
    }

    /// Encodes header + `payload` into `out`, computing the checksum over the
    /// pseudo-header for `src`/`dst`.
    pub fn encode(&self, src: Ipv6Addr, dst: Ipv6Addr, payload: &[u8], out: &mut Vec<u8>) {
        let start = out.len();
        out.push(self.icmp_type.value());
        out.push(self.code);
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.identifier.to_be_bytes());
        out.extend_from_slice(&self.sequence.to_be_bytes());
        out.extend_from_slice(payload);
        let ck = pseudo_header_checksum(src, dst, 58, &out[start..]);
        out[start + 2..start + 4].copy_from_slice(&ck.to_be_bytes());
    }

    /// Decodes the header; returns it together with the message payload.
    pub fn decode(buf: &[u8]) -> Result<(Icmpv6Header, &[u8]), PacketError> {
        if buf.len() < ICMPV6_HEADER_LEN {
            return Err(PacketError::Truncated {
                what: "ICMPv6 header",
                need: ICMPV6_HEADER_LEN,
                have: buf.len(),
            });
        }
        Ok((
            Icmpv6Header {
                icmp_type: Icmpv6Type::from_value(buf[0]),
                code: buf[1],
                identifier: u16::from_be_bytes([buf[4], buf[5]]),
                sequence: u16::from_be_bytes([buf[6], buf[7]]),
            },
            &buf[ICMPV6_HEADER_LEN..],
        ))
    }

    /// Verifies the checksum of a full ICMPv6 message (header + payload).
    pub fn verify_checksum(src: Ipv6Addr, dst: Ipv6Addr, message: &[u8]) -> bool {
        crate::checksum::verify_pseudo_header_checksum(src, dst, 58, message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv6Addr, Ipv6Addr) {
        (
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
        )
    }

    #[test]
    fn echo_round_trip_with_valid_checksum() {
        let (src, dst) = addrs();
        let hdr = Icmpv6Header::echo_request(0x1234, 7);
        let mut buf = Vec::new();
        hdr.encode(src, dst, b"sixscope-probe", &mut buf);
        assert!(Icmpv6Header::verify_checksum(src, dst, &buf));
        let (decoded, payload) = Icmpv6Header::decode(&buf).unwrap();
        assert_eq!(decoded, hdr);
        assert_eq!(payload, b"sixscope-probe");
    }

    #[test]
    fn corrupted_message_fails_checksum() {
        let (src, dst) = addrs();
        let mut buf = Vec::new();
        Icmpv6Header::echo_request(1, 1).encode(src, dst, b"x", &mut buf);
        buf[8] ^= 0xff;
        assert!(!Icmpv6Header::verify_checksum(src, dst, &buf));
    }

    #[test]
    fn echo_reply_mirrors_id_and_seq() {
        let req = Icmpv6Header::echo_request(42, 9);
        let rep = req.echo_reply_for();
        assert_eq!(rep.icmp_type, Icmpv6Type::EchoReply);
        assert_eq!(rep.identifier, 42);
        assert_eq!(rep.sequence, 9);
    }

    #[test]
    fn type_classification() {
        assert_eq!(Icmpv6Type::from_value(3), Icmpv6Type::TimeExceeded);
        assert_eq!(Icmpv6Type::from_value(135), Icmpv6Type::Other(135));
    }

    #[test]
    fn decode_rejects_short_buffer() {
        assert!(matches!(
            Icmpv6Header::decode(&[128, 0, 0]),
            Err(PacketError::Truncated { .. })
        ));
    }
}
