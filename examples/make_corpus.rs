//! Regenerates the checked-in corrupted-pcap corpus under `tests/corpus/`.
//!
//! The corpus exercises every branch of the recovery contract
//! (DESIGN.md §8): valid records, each `MalformedRecord` reason, a
//! packet-level malformation, and a file cut off mid-record. The files
//! are committed so the integration tests and the CI smoke step that runs
//! `sixscope analyze` over them see fixed bytes; this generator documents
//! their provenance and rebuilds them byte-identically:
//!
//! ```sh
//! cargo run -p sixscope-examples --bin make-corpus --release [out-dir]
//! ```

use sixscope_packet::{PacketBuilder, PcapRecord, PcapWriter, MAX_RECORD_LEN};
use sixscope_types::SimTime;
use std::net::Ipv6Addr;

const LINKTYPE_RAW: u32 = 101;

/// Classic pcap global header, LE microsecond variant.
fn global_header(snaplen: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(24);
    out.extend_from_slice(&0xa1b2_c3d4u32.to_le_bytes());
    out.extend_from_slice(&2u16.to_le_bytes());
    out.extend_from_slice(&4u16.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // thiszone
    out.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
    out.extend_from_slice(&snaplen.to_le_bytes());
    out.extend_from_slice(&LINKTYPE_RAW.to_le_bytes());
    out
}

/// One record with independently controllable length fields and body.
fn record(out: &mut Vec<u8>, ts: u32, incl_len: u32, orig_len: u32, body: &[u8]) {
    out.extend_from_slice(&ts.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&incl_len.to_le_bytes());
    out.extend_from_slice(&orig_len.to_le_bytes());
    out.extend_from_slice(body);
}

/// A well-formed record: lengths match the body.
fn valid(out: &mut Vec<u8>, ts: u32, body: &[u8]) {
    record(out, ts, body.len() as u32, body.len() as u32, body);
}

fn src(n: u16) -> Ipv6Addr {
    format!("2a0a::bad:{n:x}").parse().unwrap()
}

fn dst(n: u16) -> Ipv6Addr {
    format!("2001:db8::{n:x}").parse().unwrap()
}

/// Hop-by-hop extension header followed by a TCP SYN — the probe shape
/// the extension-header walker must see through.
fn hbh_tcp_probe() -> Vec<u8> {
    let b = PacketBuilder::new(src(2), dst(2));
    let tcp = &b.tcp_syn(40_000, 443, 7, b"zmap6")[40..];
    let hbh = [6u8, 0, 1, 4, 0, 0, 0, 0];
    let mut out = Vec::new();
    let hdr = sixscope_packet::Ipv6Header::new(
        src(2),
        dst(2),
        sixscope_packet::NextHeader::Other(sixscope_packet::ipv6::ext::HOP_BY_HOP),
        (hbh.len() + tcp.len()) as u16,
    );
    hdr.encode(&mut out);
    out.extend_from_slice(&hbh);
    out.extend_from_slice(tcp);
    out
}

/// Three valid records, written through the library writer.
fn clean() -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    let bodies = [
        PacketBuilder::new(src(1), dst(1)).icmpv6_echo_request(7, 1, b"yarrp"),
        hbh_tcp_probe(),
        PacketBuilder::new(src(3), dst(3)).udp(40_001, 33_434, b"probe"),
    ];
    for (i, data) in bodies.into_iter().enumerate() {
        w.write_record(&PcapRecord {
            ts: SimTime::from_secs(100 + i as u64),
            ts_micros: 0,
            data,
        })
        .unwrap();
    }
    w.into_inner().unwrap()
}

/// The main damage mix: every recoverable reason, a malformed packet,
/// an out-of-prefix packet, and a truncated tail. Snaplen is 128 so a
/// snaplen violation stays tiny.
fn mixed() -> Vec<u8> {
    let mut out = global_header(128);
    // 1. valid ICMPv6 echo (parsed).
    valid(
        &mut out,
        100,
        &PacketBuilder::new(src(1), dst(1)).icmpv6_echo_request(7, 1, b"yarrp"),
    );
    // 2. valid hop-by-hop + TCP SYN (parsed; exercises the ext walker).
    valid(&mut out, 101, &hbh_tcp_probe());
    // 3. incl_len > orig_len: length-inconsistent, 90 filler bytes are
    //    discarded so the stream re-syncs on the next record.
    record(&mut out, 102, 90, 40, &[0xcc; 90]);
    // 4. valid record whose body is not IPv6 (version nibble 5):
    //    a malformed *packet*, not a malformed *record*.
    valid(&mut out, 103, &[0x5a; 60]);
    // 5. incl_len 200 > snaplen 128: snaplen-exceeded, body discarded.
    record(&mut out, 104, 200, 200, &[0xdd; 200]);
    // 6. valid UDP to an address outside 2001:db8::/32 (filtered when
    //    the test ingests under that prefix).
    valid(
        &mut out,
        105,
        &PacketBuilder::new(src(3), "2001:4860::99".parse().unwrap()).udp(40_001, 53, b"x"),
    );
    // 7. header promises 80 body bytes, file ends after 10: truncated
    //    tail — everything above must still have been yielded.
    record(&mut out, 106, 80, 80, &[0xee; 10]);
    out
}

/// Snaplen 0 (unset) so the hard allocation cap is the binding check:
/// a record claiming `MAX_RECORD_LEN + 1` bytes must be rejected before
/// allocation. Its discard runs off the end of the file, so the skip
/// also flags the truncated tail.
fn lying_lengths() -> Vec<u8> {
    let mut out = global_header(0);
    valid(
        &mut out,
        200,
        &PacketBuilder::new(src(4), dst(4)).icmpv6_echo_request(8, 1, b"ping"),
    );
    record(
        &mut out,
        201,
        MAX_RECORD_LEN + 1,
        MAX_RECORD_LEN + 1,
        &[0xaa; 16],
    );
    out
}

/// Two valid records, then 7 stray bytes — a partial record header.
fn truncated_header() -> Vec<u8> {
    let mut out = global_header(65_535);
    for (i, n) in [5u16, 6].into_iter().enumerate() {
        valid(
            &mut out,
            300 + i as u32,
            &PacketBuilder::new(src(n), dst(n)).icmpv6_echo_request(9, n, b"scan"),
        );
    }
    out.extend_from_slice(&[0x01; 7]);
    out
}

fn main() {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "tests/corpus".into());
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    for (name, bytes) in [
        ("clean.pcap", clean()),
        ("mixed.pcap", mixed()),
        ("lying_lengths.pcap", lying_lengths()),
        ("truncated_header.pcap", truncated_header()),
    ] {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, &bytes).expect("write corpus file");
        println!("wrote {path} ({} bytes)", bytes.len());
    }
}
