//! High-level packet construction.
//!
//! [`PacketBuilder`] assembles complete IPv6 packets (header + transport +
//! payload) as `Vec<u8>`; the scanner models call these and hand the bytes to
//! the simulated network, exactly as a real scanning host would hand them to
//! a raw socket.

use crate::icmpv6::{Icmpv6Header, ICMPV6_HEADER_LEN};
use crate::ipv6::{Ipv6Header, NextHeader, IPV6_HEADER_LEN};
use crate::tcp::{TcpHeader, TCP_HEADER_LEN};
use crate::udp::{UdpHeader, UDP_HEADER_LEN};
use std::net::Ipv6Addr;

/// Builder for complete IPv6 packets.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    src: Ipv6Addr,
    dst: Ipv6Addr,
    hop_limit: u8,
    flow_label: u32,
}

impl PacketBuilder {
    /// Starts a packet from `src` to `dst` with default hop limit 64.
    pub fn new(src: Ipv6Addr, dst: Ipv6Addr) -> Self {
        PacketBuilder {
            src,
            dst,
            hop_limit: 64,
            flow_label: 0,
        }
    }

    /// Overrides the hop limit (traceroute-type tools ramp this up).
    pub fn hop_limit(mut self, hl: u8) -> Self {
        self.hop_limit = hl;
        self
    }

    /// Overrides the flow label.
    pub fn flow_label(mut self, fl: u32) -> Self {
        self.flow_label = fl;
        self
    }

    /// Appends the IPv6 header for an upper layer of known length. The
    /// transport encoders are append-only, so the header can be written
    /// first and the packet assembled in the caller's buffer with no
    /// intermediate allocation.
    fn start_into(&self, next: NextHeader, upper_len: usize, out: &mut Vec<u8>) {
        let mut hdr = Ipv6Header::new(self.src, self.dst, next, upper_len as u16);
        hdr.hop_limit = self.hop_limit;
        hdr.flow_label = self.flow_label;
        out.reserve(IPV6_HEADER_LEN + upper_len);
        hdr.encode(out);
    }

    /// Builds an ICMPv6 Echo Request with the given payload.
    pub fn icmpv6_echo_request(&self, identifier: u16, sequence: u16, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.icmpv6_echo_request_into(identifier, sequence, payload, &mut out);
        out
    }

    /// Appends a complete ICMPv6 Echo Request packet to `out`.
    pub fn icmpv6_echo_request_into(
        &self,
        identifier: u16,
        sequence: u16,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) {
        self.icmpv6_into(
            Icmpv6Header::echo_request(identifier, sequence),
            payload,
            out,
        );
    }

    /// Builds an arbitrary ICMPv6 message.
    pub fn icmpv6(&self, header: Icmpv6Header, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.icmpv6_into(header, payload, &mut out);
        out
    }

    /// Appends a complete ICMPv6 packet to `out`.
    pub fn icmpv6_into(&self, header: Icmpv6Header, payload: &[u8], out: &mut Vec<u8>) {
        self.start_into(NextHeader::Icmpv6, ICMPV6_HEADER_LEN + payload.len(), out);
        header.encode(self.src, self.dst, payload, out);
    }

    /// Builds a TCP SYN probe (optionally with a payload, which some scan
    /// tools use to carry a fingerprint).
    pub fn tcp_syn(&self, src_port: u16, dst_port: u16, seq: u32, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.tcp_syn_into(src_port, dst_port, seq, payload, &mut out);
        out
    }

    /// Appends a complete TCP SYN packet to `out`.
    pub fn tcp_syn_into(
        &self,
        src_port: u16,
        dst_port: u16,
        seq: u32,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) {
        self.tcp_into(TcpHeader::syn(src_port, dst_port, seq), payload, out);
    }

    /// Builds an arbitrary TCP segment.
    pub fn tcp(&self, header: TcpHeader, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.tcp_into(header, payload, &mut out);
        out
    }

    /// Appends a complete TCP packet to `out`.
    pub fn tcp_into(&self, header: TcpHeader, payload: &[u8], out: &mut Vec<u8>) {
        self.start_into(NextHeader::Tcp, TCP_HEADER_LEN + payload.len(), out);
        header.encode(self.src, self.dst, payload, out);
    }

    /// Builds a UDP datagram.
    pub fn udp(&self, src_port: u16, dst_port: u16, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.udp_into(src_port, dst_port, payload, &mut out);
        out
    }

    /// Appends a complete UDP packet to `out`.
    pub fn udp_into(&self, src_port: u16, dst_port: u16, payload: &[u8], out: &mut Vec<u8>) {
        self.start_into(NextHeader::Udp, UDP_HEADER_LEN + payload.len(), out);
        UdpHeader::new(src_port, dst_port, payload.len()).encode(self.src, self.dst, payload, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{ParsedView, Transport};

    fn builder() -> PacketBuilder {
        PacketBuilder::new(
            "2001:db8::1".parse().unwrap(),
            "2001:db8:8000::99".parse().unwrap(),
        )
    }

    #[test]
    fn echo_request_parses_back() {
        let bytes = builder().icmpv6_echo_request(7, 3, b"ping");
        let p = ParsedView::parse(&bytes).unwrap();
        assert_eq!(p.header.next_header, NextHeader::Icmpv6);
        match &p.transport {
            Transport::Icmpv6(h) => {
                assert_eq!(h.identifier, 7);
                assert_eq!(h.sequence, 3);
            }
            other => panic!("wrong transport {other:?}"),
        }
        assert_eq!(p.payload, b"ping");
    }

    #[test]
    fn tcp_syn_parses_back() {
        let bytes = builder().tcp_syn(55555, 443, 1, &[]);
        let p = ParsedView::parse(&bytes).unwrap();
        assert_eq!(p.dst_port(), Some(443));
        assert_eq!(p.src_port(), Some(55555));
        assert!(p.payload.is_empty());
    }

    #[test]
    fn udp_parses_back_with_payload() {
        let bytes = builder().udp(40000, 33434, b"traceroute!");
        let p = ParsedView::parse(&bytes).unwrap();
        assert_eq!(p.dst_port(), Some(33434));
        assert_eq!(p.payload, b"traceroute!");
    }

    #[test]
    fn hop_limit_and_flow_label_pass_through() {
        let bytes = builder().hop_limit(3).flow_label(0x1234).udp(1, 2, &[]);
        let p = ParsedView::parse(&bytes).unwrap();
        assert_eq!(p.header.hop_limit, 3);
        assert_eq!(p.header.flow_label, 0x1234);
    }

    #[test]
    fn into_variants_match_allocating_builders_across_reuse() {
        let b = builder();
        let mut buf = Vec::new();
        b.icmpv6_echo_request_into(7, 3, b"ping", &mut buf);
        assert_eq!(buf, b.icmpv6_echo_request(7, 3, b"ping"));
        buf.clear();
        b.tcp_syn_into(55555, 443, 9, b"fp", &mut buf);
        assert_eq!(buf, b.tcp_syn(55555, 443, 9, b"fp"));
        buf.clear();
        b.udp_into(40000, 33434, b"traceroute!", &mut buf);
        assert_eq!(buf, b.udp(40000, 33434, b"traceroute!"));
    }

    #[test]
    fn payload_len_field_is_exact() {
        let bytes = builder().icmpv6_echo_request(1, 1, &[0u8; 100]);
        let p = ParsedView::parse(&bytes).unwrap();
        assert_eq!(p.header.payload_len as usize, bytes.len() - IPV6_HEADER_LEN);
    }
}
