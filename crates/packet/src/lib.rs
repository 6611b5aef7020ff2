//! # sixscope-packet
//!
//! Byte-accurate wire formats for the packets a network telescope captures:
//! the IPv6 fixed header, ICMPv6, TCP and UDP — with real Internet checksums
//! over the IPv6 pseudo-header — plus a classic-pcap (LINKTYPE_RAW) reader
//! and writer so captures open in tcpdump/Wireshark.
//!
//! The design follows the smoltcp school: small typed structs with explicit
//! `encode` / `decode` pairs over plain byte slices, no macros, and unsafe
//! confined to the read-only `mmap(2)` backing of [`pcap::MappedPcap`].
//! Real packet bytes are parsed wherever they exist: pcap files (the
//! `analyze`, `shard` and `serve` paths, and `run --pcap-dir` output read
//! back) and the simulator's test oracles, which encode every probe and
//! parse it again. The simulator's own delivery loop hands captures the
//! decoded fields directly, and those oracles pin them equal to the parsed
//! bytes. Either way, classification sees only what a capture records,
//! never generator-internal state, which keeps the measurement half honest.

pub mod builder;
pub mod checksum;
pub mod error;
pub mod icmpv6;
pub mod ipv6;
pub mod parse;
pub mod pcap;
pub mod tcp;
pub mod udp;

pub use builder::PacketBuilder;
pub use error::{MalformedRecord, PacketError};
pub use icmpv6::{Icmpv6Header, Icmpv6Type};
pub use ipv6::{Ipv6Header, NextHeader, IPV6_HEADER_LEN};
pub use parse::{ParsedView, Transport};
pub use pcap::{
    MappedPcap, PcapRecord, PcapWriter, RecordView, SliceReader, SliceReaderState, ViewOutcome,
    MAX_RECORD_LEN,
};
pub use tcp::{TcpFlags, TcpHeader, TCP_HEADER_LEN};
pub use udp::{UdpHeader, UDP_HEADER_LEN};
