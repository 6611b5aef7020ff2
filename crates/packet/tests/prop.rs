//! Property tests: every packet the builder can produce must parse back to
//! the same fields with a valid checksum, and pcap round-trips are lossless.

use proptest::prelude::*;
use sixscope_packet::{
    PacketBuilder, ParsedView, PcapRecord, PcapWriter, SliceReader, Transport, ViewOutcome,
};
use sixscope_types::SimTime;
use std::net::Ipv6Addr;

fn arb_addr() -> impl Strategy<Value = Ipv6Addr> {
    any::<u128>().prop_map(Ipv6Addr::from)
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..256)
}

/// Every record of a damage-free pcap image, copied out.
fn read_all(bytes: &[u8]) -> Vec<PcapRecord> {
    SliceReader::new(bytes)
        .unwrap()
        .map(|outcome| match outcome {
            ViewOutcome::Record(rec) => rec.to_owned(),
            other => panic!("expected a record, got {other:?}"),
        })
        .collect()
}

proptest! {
    #[test]
    fn icmpv6_build_parse_round_trip(
        src in arb_addr(), dst in arb_addr(),
        id in any::<u16>(), seq in any::<u16>(),
        payload in arb_payload(),
        hop in any::<u8>(),
    ) {
        let bytes = PacketBuilder::new(src, dst)
            .hop_limit(hop)
            .icmpv6_echo_request(id, seq, &payload);
        let p = ParsedView::parse(&bytes).unwrap();
        prop_assert_eq!(p.header.src, src);
        prop_assert_eq!(p.header.dst, dst);
        prop_assert_eq!(p.header.hop_limit, hop);
        match p.transport {
            Transport::Icmpv6(h) => {
                prop_assert_eq!(h.identifier, id);
                prop_assert_eq!(h.sequence, seq);
            }
            ref other => prop_assert!(false, "wrong transport {:?}", other),
        }
        prop_assert_eq!(p.payload, &payload[..]);
        // Checksums must verify.
        let upper = &bytes[40..];
        prop_assert!(sixscope_packet::icmpv6::Icmpv6Header::verify_checksum(src, dst, upper));
    }

    #[test]
    fn tcp_build_parse_round_trip(
        src in arb_addr(), dst in arb_addr(),
        sp in any::<u16>(), dp in any::<u16>(), seq in any::<u32>(),
        payload in arb_payload(),
    ) {
        let bytes = PacketBuilder::new(src, dst).tcp_syn(sp, dp, seq, &payload);
        let p = ParsedView::parse(&bytes).unwrap();
        prop_assert_eq!(p.src_port(), Some(sp));
        prop_assert_eq!(p.dst_port(), Some(dp));
        prop_assert_eq!(p.payload, &payload[..]);
        let upper = &bytes[40..];
        prop_assert!(sixscope_packet::tcp::TcpHeader::verify_checksum(src, dst, upper));
    }

    #[test]
    fn udp_build_parse_round_trip(
        src in arb_addr(), dst in arb_addr(),
        sp in any::<u16>(), dp in any::<u16>(),
        payload in arb_payload(),
    ) {
        let bytes = PacketBuilder::new(src, dst).udp(sp, dp, &payload);
        let p = ParsedView::parse(&bytes).unwrap();
        prop_assert_eq!(p.src_port(), Some(sp));
        prop_assert_eq!(p.dst_port(), Some(dp));
        prop_assert_eq!(p.payload, &payload[..]);
        let upper = &bytes[40..];
        prop_assert!(sixscope_packet::udp::UdpHeader::verify_checksum(src, dst, upper));
    }

    #[test]
    fn parse_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = ParsedView::parse(&bytes);
    }

    #[test]
    fn pcap_round_trip_all_endiannesses_and_resolutions(
        records in proptest::collection::vec(
            (any::<u32>(), 0u32..1_000_000, proptest::collection::vec(any::<u8>(), 0..128)),
            0..12,
        ),
        big_endian in any::<bool>(),
        nanos in any::<bool>(),
    ) {
        // Hand-roll the four on-disk variants the reader accepts
        // (LE/BE × µs/ns); the writer itself only emits LE-µs.
        let magic: u32 = if nanos { 0xa1b2_3c4d } else { 0xa1b2_c3d4 };
        let put32 = |out: &mut Vec<u8>, v: u32| {
            out.extend_from_slice(&if big_endian { v.to_be_bytes() } else { v.to_le_bytes() });
        };
        let put16 = |out: &mut Vec<u8>, v: u16| {
            out.extend_from_slice(&if big_endian { v.to_be_bytes() } else { v.to_le_bytes() });
        };
        let mut bytes = Vec::new();
        put32(&mut bytes, magic);
        put16(&mut bytes, 2);
        put16(&mut bytes, 4);
        put32(&mut bytes, 0); // thiszone
        put32(&mut bytes, 0); // sigfigs
        put32(&mut bytes, 65_535); // snaplen
        put32(&mut bytes, 101); // LINKTYPE_RAW
        for (ts, us, data) in &records {
            put32(&mut bytes, *ts);
            put32(&mut bytes, if nanos { us * 1000 } else { *us });
            put32(&mut bytes, data.len() as u32);
            put32(&mut bytes, data.len() as u32);
            bytes.extend_from_slice(data);
        }
        let back = read_all(&bytes);
        prop_assert_eq!(back.len(), records.len());
        for (rec, (ts, us, data)) in back.iter().zip(&records) {
            prop_assert_eq!(rec.ts, SimTime::from_secs(*ts as u64));
            prop_assert_eq!(rec.ts_micros, *us);
            prop_assert_eq!(&rec.data, data);
        }
    }

    #[test]
    fn recovering_reader_never_errors_on_arbitrary_tails(
        prefix_records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..96),
            0..6,
        ),
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // Valid records followed by arbitrary garbage: the recovering
        // reader must yield every valid record, then classify the damage
        // without ever returning a hard error on in-memory input.
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for data in &prefix_records {
            w.write_record(&PcapRecord {
                ts: SimTime::from_secs(1),
                ts_micros: 0,
                data: data.clone(),
            }).unwrap();
        }
        let mut bytes = w.into_inner().unwrap();
        bytes.extend_from_slice(&garbage);
        let mut yielded = 0usize;
        for outcome in SliceReader::new(&bytes).unwrap() {
            if let ViewOutcome::Record(rec) = outcome {
                if yielded < prefix_records.len() {
                    prop_assert_eq!(rec.data, &prefix_records[yielded][..]);
                }
                yielded += 1;
            }
        }
        prop_assert!(yielded >= prefix_records.len());
    }

    #[test]
    fn pcap_round_trip(
        records in proptest::collection::vec(
            (any::<u32>(), 0u32..1_000_000, proptest::collection::vec(any::<u8>(), 0..128)),
            0..20,
        )
    ) {
        let records: Vec<PcapRecord> = records
            .into_iter()
            .map(|(ts, us, data)| PcapRecord {
                ts: SimTime::from_secs(ts as u64),
                ts_micros: us,
                data,
            })
            .collect();
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for r in &records {
            w.write_record(r).unwrap();
        }
        let bytes = w.into_inner().unwrap();
        prop_assert_eq!(read_all(&bytes), records);
    }
}
