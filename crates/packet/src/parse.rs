//! Whole-packet parsing — the telescope's first processing step.
//!
//! [`ParsedView`] decodes the IPv6 header and the transport header against
//! a borrowed buffer without allocating; the upper-layer payload stays a
//! subslice of the input. Payload bytes feed the tool-fingerprint
//! clustering of §5.4. The ingest hot path parses views and copies the
//! payload only of the packets that survive telescope filtering
//! (DESIGN.md §11).

use crate::error::PacketError;
use crate::icmpv6::Icmpv6Header;
use crate::ipv6::{ext, Ipv6Header, NextHeader, IPV6_HEADER_LEN};
use crate::tcp::TcpHeader;
use crate::udp::UdpHeader;

/// Upper bound on chained extension headers (RFC-conformant packets use at
/// most ~6; anything deeper is treated as damage, not walked forever).
const MAX_EXT_HEADERS: usize = 16;

/// The decoded transport header of a captured packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// ICMPv6 message.
    Icmpv6(Icmpv6Header),
    /// TCP segment.
    Tcp(TcpHeader),
    /// UDP datagram.
    Udp(UdpHeader),
    /// An upper-layer protocol the telescope does not decode.
    Other(u8),
}

/// A parsed IPv6 packet borrowing its payload from the capture buffer.
///
/// Headers are decoded into small owned structs (they are a few dozen
/// bytes), but the upper-layer payload stays a subslice of the input; a
/// consumer that keeps the packet past the buffer copies the payload
/// itself, as telescope retention does after filtering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedView<'a> {
    /// The IPv6 fixed header.
    pub header: Ipv6Header,
    /// The decoded transport header.
    pub transport: Transport,
    /// Upper-layer payload (after the transport header), borrowed.
    pub payload: &'a [u8],
    /// Number of extension headers walked to reach the transport.
    pub ext_headers: u8,
}

impl<'a> ParsedView<'a> {
    /// Parses raw IPv6 packet bytes without copying the payload.
    ///
    /// The declared IPv6 payload length must fit in the buffer; extra
    /// trailing bytes (link padding) are ignored. Extension headers
    /// (hop-by-hop, routing, fragment, destination options) are walked so
    /// an extension-headered TCP/UDP/ICMPv6 probe still yields its ports
    /// and fingerprint payload; a non-first fragment (offset ≠ 0) carries
    /// no transport header and decodes as [`Transport::Other`] with the
    /// fragment's inner protocol. Transport checksums are *not* enforced
    /// here — telescopes record damaged probes too — use the per-protocol
    /// `verify_checksum` helpers when validity matters.
    pub fn parse(buf: &'a [u8]) -> Result<ParsedView<'a>, PacketError> {
        let header = Ipv6Header::decode(buf)?;
        let declared = header.payload_len as usize;
        let rest = &buf[IPV6_HEADER_LEN..];
        if declared > rest.len() {
            return Err(PacketError::LengthMismatch {
                what: "IPv6 payload length",
                declared,
                actual: rest.len(),
            });
        }
        let upper = &rest[..declared];

        // Walk the extension-header chain to the real transport protocol.
        // Each step consumes at least 8 bytes, so the walk is bounded by
        // the buffer; MAX_EXT_HEADERS rejects absurd chains early.
        let mut proto = header.next_header.value();
        let mut at = 0usize;
        let mut ext_headers = 0usize;
        let mut offset_fragment = false;
        while ext::is_walkable(proto) && !offset_fragment {
            let remain = &upper[at..];
            if remain.len() < 8 {
                return Err(PacketError::Truncated {
                    what: "IPv6 extension header",
                    need: 8,
                    have: remain.len(),
                });
            }
            ext_headers += 1;
            if ext_headers > MAX_EXT_HEADERS {
                return Err(PacketError::ExtensionChainTooLong(MAX_EXT_HEADERS));
            }
            let len = if proto == ext::FRAGMENT {
                // Fixed 8 bytes; the offset field decides whether a
                // transport header follows (first fragment) or not.
                let frag_offset = u16::from_be_bytes([remain[2], remain[3]]) >> 3;
                offset_fragment = frag_offset != 0;
                8
            } else {
                8 * (remain[1] as usize + 1)
            };
            if len > remain.len() {
                return Err(PacketError::LengthMismatch {
                    what: "IPv6 extension header length",
                    declared: len,
                    actual: remain.len(),
                });
            }
            proto = remain[0];
            at += len;
        }
        let upper = &upper[at..];

        let (transport, payload) = if offset_fragment {
            (Transport::Other(proto), upper)
        } else {
            match NextHeader::from_value(proto) {
                NextHeader::Icmpv6 => {
                    let (h, p) = Icmpv6Header::decode(upper)?;
                    (Transport::Icmpv6(h), p)
                }
                NextHeader::Tcp => {
                    let (h, p) = TcpHeader::decode(upper)?;
                    (Transport::Tcp(h), p)
                }
                NextHeader::Udp => {
                    let (h, p) = UdpHeader::decode(upper)?;
                    (Transport::Udp(h), p)
                }
                NextHeader::Other(v) => (Transport::Other(v), upper),
            }
        };
        Ok(ParsedView {
            header,
            transport,
            payload,
            ext_headers: ext_headers.min(u8::MAX as usize) as u8,
        })
    }

    /// Destination port, if the transport has ports.
    pub fn dst_port(&self) -> Option<u16> {
        match &self.transport {
            Transport::Tcp(h) => Some(h.dst_port),
            Transport::Udp(h) => Some(h.dst_port),
            _ => None,
        }
    }

    /// Source port, if the transport has ports.
    pub fn src_port(&self) -> Option<u16> {
        match &self.transport {
            Transport::Tcp(h) => Some(h.src_port),
            Transport::Udp(h) => Some(h.src_port),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use std::net::Ipv6Addr;

    fn b() -> PacketBuilder {
        PacketBuilder::new(
            "2001:db8::1".parse::<Ipv6Addr>().unwrap(),
            "2001:db8::2".parse::<Ipv6Addr>().unwrap(),
        )
    }

    #[test]
    fn parse_rejects_overdeclared_payload() {
        let mut bytes = b().udp(1, 2, b"hello");
        // Claim 200 bytes of payload.
        bytes[4..6].copy_from_slice(&200u16.to_be_bytes());
        assert!(matches!(
            ParsedView::parse(&bytes),
            Err(PacketError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn parse_ignores_link_padding() {
        let mut bytes = b().udp(1, 2, b"hi");
        bytes.extend_from_slice(&[0u8; 6]); // Ethernet-style padding
        let p = ParsedView::parse(&bytes).unwrap();
        assert_eq!(p.payload, b"hi");
    }

    #[test]
    fn other_protocol_is_preserved() {
        let src: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let dst: Ipv6Addr = "2001:db8::2".parse().unwrap();
        let mut hdr = crate::ipv6::Ipv6Header::new(src, dst, NextHeader::Other(132), 4);
        let mut bytes = Vec::new();
        hdr.payload_len = 4;
        hdr.encode(&mut bytes);
        bytes.extend_from_slice(&[1, 2, 3, 4]);
        let p = ParsedView::parse(&bytes).unwrap();
        assert_eq!(p.transport, Transport::Other(132));
        assert_eq!(p.payload, &[1, 2, 3, 4]);
        assert_eq!(p.dst_port(), None);
    }

    /// Assembles an IPv6 packet whose payload starts with a hand-built
    /// extension-header chain followed by `inner` (transport bytes).
    fn ext_packet(first_nh: u8, chain: &[u8], inner: &[u8]) -> Vec<u8> {
        let src: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let dst: Ipv6Addr = "2001:db8::2".parse().unwrap();
        let hdr = crate::ipv6::Ipv6Header::new(
            src,
            dst,
            NextHeader::from_value(first_nh),
            (chain.len() + inner.len()) as u16,
        );
        let mut bytes = Vec::new();
        hdr.encode(&mut bytes);
        bytes.extend_from_slice(chain);
        bytes.extend_from_slice(inner);
        bytes
    }

    /// A TCP segment (valid checksum) for use behind extension headers.
    fn tcp_segment(src_port: u16, dst_port: u16, payload: &[u8]) -> Vec<u8> {
        let mut seg = Vec::new();
        TcpHeader::syn(src_port, dst_port, 7).encode(
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
            payload,
            &mut seg,
        );
        seg
    }

    #[test]
    fn hop_by_hop_tcp_keeps_ports_and_payload() {
        // Hop-by-hop: next = TCP (6), length 0 (8 bytes total), PadN filler.
        let hbh = [6, 0, 1, 4, 0, 0, 0, 0];
        let bytes = ext_packet(0, &hbh, &tcp_segment(40_000, 443, b"zmap6-probe"));
        let p = ParsedView::parse(&bytes).unwrap();
        assert!(matches!(p.transport, Transport::Tcp(_)));
        assert_eq!(p.src_port(), Some(40_000));
        assert_eq!(p.dst_port(), Some(443));
        assert_eq!(p.payload, b"zmap6-probe");
        assert_eq!(p.ext_headers, 1);
    }

    #[test]
    fn chained_extension_headers_walk_to_the_transport() {
        // Hop-by-hop → destination options (16 bytes) → routing → UDP.
        let mut chain = Vec::new();
        chain.extend_from_slice(&[60, 0, 1, 4, 0, 0, 0, 0]); // hbh, next=dst-opts
        chain.extend_from_slice(&[43, 1, 1, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]); // dst-opts, next=routing
        chain.extend_from_slice(&[17, 0, 0, 0, 0, 0, 0, 0]); // routing, next=UDP
        let mut udp = Vec::new();
        crate::udp::UdpHeader::new(1234, 33_434, 5).encode(
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
            b"trace",
            &mut udp,
        );
        let bytes = ext_packet(0, &chain, &udp);
        let p = ParsedView::parse(&bytes).unwrap();
        assert!(matches!(p.transport, Transport::Udp(_)));
        assert_eq!(p.dst_port(), Some(33_434));
        assert_eq!(p.payload, b"trace");
        assert_eq!(p.ext_headers, 3);
    }

    #[test]
    fn first_fragment_parses_the_transport_header() {
        // Fragment header with offset 0 (first fragment), next = ICMPv6.
        let frag = [58, 0, 0, 0, 0, 0, 0, 1];
        let inner = &b().icmpv6_echo_request(9, 1, b"frag")[40..];
        let bytes = ext_packet(44, &frag, inner);
        let p = ParsedView::parse(&bytes).unwrap();
        assert!(matches!(p.transport, Transport::Icmpv6(_)));
        assert_eq!(p.payload, b"frag");
        assert_eq!(p.ext_headers, 1);
    }

    #[test]
    fn non_first_fragment_has_no_transport_header() {
        // Offset 1 (in 8-octet units → raw 0x0008), next = TCP: the body is
        // a mid-packet fragment, so no ports can be recovered.
        let frag = [6, 0, 0x00, 0x08, 0, 0, 0, 1];
        let body = [0xaa; 16];
        let bytes = ext_packet(44, &frag, &body);
        let p = ParsedView::parse(&bytes).unwrap();
        assert_eq!(p.transport, Transport::Other(6));
        assert_eq!(p.dst_port(), None);
        assert_eq!(p.payload, &body[..]);
    }

    #[test]
    fn truncated_extension_header_is_a_typed_error() {
        // Hop-by-hop claiming 24 bytes with only 8 present.
        let hbh = [6, 2, 1, 4, 0, 0, 0, 0];
        let bytes = ext_packet(0, &hbh, &[]);
        assert!(matches!(
            ParsedView::parse(&bytes),
            Err(PacketError::LengthMismatch { .. })
        ));
        // Chain cut off before 8 bytes of header exist.
        let bytes = ext_packet(0, &[6, 0, 0], &[]);
        assert!(matches!(
            ParsedView::parse(&bytes),
            Err(PacketError::Truncated { .. })
        ));
    }

    #[test]
    fn absurd_extension_chains_are_rejected() {
        // 17 chained hop-by-hop headers (each pointing at another).
        let mut chain = Vec::new();
        for _ in 0..17 {
            chain.extend_from_slice(&[0, 0, 1, 4, 0, 0, 0, 0]);
        }
        let bytes = ext_packet(0, &chain, &[]);
        assert!(matches!(
            ParsedView::parse(&bytes),
            Err(PacketError::ExtensionChainTooLong(_))
        ));
    }
}
