//! T4's responder: the reactive telescope answers probes (paper §3.1).
//!
//! * ICMPv6 Echo Request → Echo Reply,
//! * TCP SYN → SYN/ACK (every address "accepts" connections),
//! * UDP → ICMPv6 Destination Unreachable, code 4 (port unreachable), which
//!   is what traceroute-type tools interpret as "destination reached".
//!
//! Notably the paper observes that T4 — although responsive from *every*
//! address — never appeared on the TUM aliased-prefix list.

use sixscope_packet::{Icmpv6Header, Icmpv6Type, PacketBuilder, ParsedView, TcpFlags, Transport};

/// Builds the response the reactive telescope sends for `probe`, if any.
///
/// Returns raw IPv6 bytes ready for the wire (source = probed address).
pub fn respond(probe: &ParsedView) -> Option<Vec<u8>> {
    // Respond from the probed address back to the prober.
    let builder = PacketBuilder::new(probe.header.dst, probe.header.src);
    match &probe.transport {
        Transport::Icmpv6(h) if h.icmp_type == Icmpv6Type::EchoRequest => {
            Some(builder.icmpv6(h.echo_reply_for(), probe.payload))
        }
        Transport::Icmpv6(_) => None,
        Transport::Tcp(h)
            if h.flags.contains(TcpFlags::SYN) && !h.flags.contains(TcpFlags::ACK) =>
        {
            // Deterministic ISN derived from the probe so replies are
            // reproducible run to run.
            let isn = h.seq.rotate_left(16) ^ 0x5153_4f36; // "QSO6"
            Some(builder.tcp(h.syn_ack_for(isn), &[]))
        }
        Transport::Tcp(_) => None,
        Transport::Udp(_) => {
            // Port unreachable, embedding the invoking packet per RFC 4443
            // (truncated to keep replies small).
            let hdr = Icmpv6Header {
                icmp_type: Icmpv6Type::DestUnreachable,
                code: 4,
                identifier: 0,
                sequence: 0,
            };
            // Invoking packet: we reconstruct just the payload head.
            let quote: &[u8] = &probe.payload[..probe.payload.len().min(64)];
            Some(builder.icmpv6(hdr, quote))
        }
        Transport::Other(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv6Addr;

    fn scanner() -> Ipv6Addr {
        "2001:db8:f00::1".parse().unwrap()
    }
    fn target() -> Ipv6Addr {
        "2001:db8:4::42".parse().unwrap()
    }

    #[test]
    fn echo_request_gets_echo_reply() {
        let probe = PacketBuilder::new(scanner(), target()).icmpv6_echo_request(9, 4, b"hello");
        let parsed = ParsedView::parse(&probe).unwrap();
        let reply = respond(&parsed).expect("echo reply");
        let reply = ParsedView::parse(&reply).unwrap();
        assert_eq!(reply.header.src, target());
        assert_eq!(reply.header.dst, scanner());
        match reply.transport {
            Transport::Icmpv6(h) => {
                assert_eq!(h.icmp_type, Icmpv6Type::EchoReply);
                assert_eq!(h.identifier, 9);
                assert_eq!(h.sequence, 4);
            }
            _ => panic!("not ICMPv6"),
        }
        assert_eq!(reply.payload, b"hello");
    }

    #[test]
    fn syn_gets_syn_ack() {
        let probe = PacketBuilder::new(scanner(), target()).tcp_syn(55555, 443, 1000, &[]);
        let parsed = ParsedView::parse(&probe).unwrap();
        let reply = respond(&parsed).expect("syn/ack");
        let reply = ParsedView::parse(&reply).unwrap();
        match reply.transport {
            Transport::Tcp(h) => {
                assert!(h.flags.contains(TcpFlags::SYN));
                assert!(h.flags.contains(TcpFlags::ACK));
                assert_eq!(h.ack, 1001);
                assert_eq!(h.src_port, 443);
                assert_eq!(h.dst_port, 55555);
            }
            _ => panic!("not TCP"),
        }
    }

    #[test]
    fn udp_gets_port_unreachable() {
        let probe = PacketBuilder::new(scanner(), target()).udp(40000, 33434, b"trace-payload");
        let parsed = ParsedView::parse(&probe).unwrap();
        let reply = respond(&parsed).expect("unreachable");
        let reply = ParsedView::parse(&reply).unwrap();
        match reply.transport {
            Transport::Icmpv6(h) => {
                assert_eq!(h.icmp_type, Icmpv6Type::DestUnreachable);
                assert_eq!(h.code, 4);
            }
            _ => panic!("not ICMPv6"),
        }
    }

    #[test]
    fn non_syn_tcp_and_echo_reply_are_ignored() {
        // A stray ACK gets nothing.
        let mut hdr = sixscope_packet::TcpHeader::syn(1, 2, 3);
        hdr.flags = TcpFlags::ACK;
        let probe = PacketBuilder::new(scanner(), target()).tcp(hdr, &[]);
        assert!(respond(&ParsedView::parse(&probe).unwrap()).is_none());
        // An echo reply (e.g. backscatter) gets nothing.
        let reply_hdr = Icmpv6Header {
            icmp_type: Icmpv6Type::EchoReply,
            code: 0,
            identifier: 0,
            sequence: 0,
        };
        let probe = PacketBuilder::new(scanner(), target()).icmpv6(reply_hdr, &[]);
        assert!(respond(&ParsedView::parse(&probe).unwrap()).is_none());
    }

    #[test]
    fn responses_are_deterministic() {
        let probe = PacketBuilder::new(scanner(), target()).tcp_syn(1, 2, 3, &[]);
        let parsed = ParsedView::parse(&probe).unwrap();
        assert_eq!(respond(&parsed), respond(&parsed));
    }
}
