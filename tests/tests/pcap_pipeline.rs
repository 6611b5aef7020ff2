//! Integration: the offline pcap pipeline — capture bytes written to pcap,
//! read back, and analyzed must yield identical results to the live path.

use sixscope_packet::{PcapWriter, SliceReader, ViewOutcome};
use sixscope_scanners::scanner::StaticContext;
use sixscope_scanners::{
    AddressStrategy, NetworkStrategy, ScannerSpec, SourceModel, TemporalModel, ToolProfile,
};
use sixscope_telescope::{AggLevel, Capture, Sessionizer, TelescopeConfig};
use sixscope_types::{Asn, SimDuration, SimTime, Xoshiro256pp};

fn wire_traffic() -> Vec<(SimTime, Vec<u8>)> {
    let prefix = "2001:db8:77::/48".parse().unwrap();
    let ctx = StaticContext {
        announced: vec![prefix],
        events: vec![],
        hitlist: vec![],
        responsive: None,
        end: SimTime::EPOCH + SimDuration::days(3),
    };
    let spec = ScannerSpec {
        id: 9,
        source: SourceModel::Fixed("2a0a::9".parse().unwrap()),
        asn: Asn(64700),
        temporal: TemporalModel::Periodic {
            start: SimTime::from_secs(100),
            period: SimDuration::hours(12),
            jitter: SimDuration::ZERO,
            until: ctx.end,
        },
        network: NetworkStrategy::AllAnnounced,
        address: AddressStrategy::LowByte { max: 20 },
        tool: ToolProfile::yarrp6(),
        packets_per_prefix: 20,
        pps: 1.0,
        reactive: None,
        tga_followups: None,
    };
    let mut rng = Xoshiro256pp::seed_from_u64(123);
    let mut buf = Vec::new();
    let mut wire: Vec<(SimTime, Vec<u8>)> = spec
        .generate(&ctx, &mut rng)
        .into_iter()
        .map(|pr| {
            pr.encode_into(&mut buf);
            (pr.ts, buf.clone())
        })
        .collect();
    wire.sort_by_key(|(ts, _)| *ts);
    wire
}

#[test]
fn live_and_offline_pipelines_agree() {
    let config = TelescopeConfig::t3("2001:db8:77::/48".parse().unwrap());
    let wire = wire_traffic();

    // Live path.
    let mut live = Capture::new(config.clone());
    for (ts, bytes) in &wire {
        live.ingest(*ts, bytes);
    }

    // Offline path: write pcap, read pcap.
    let mut writer = PcapWriter::new(Vec::new()).unwrap();
    for (ts, bytes) in &wire {
        writer
            .write_record(&sixscope_packet::PcapRecord {
                ts: *ts,
                ts_micros: 0,
                data: bytes.clone(),
            })
            .unwrap();
    }
    let pcap_bytes = writer.into_inner().unwrap();
    let mut offline = Capture::new(config);
    let stats = offline.ingest_pcap_recovering(&pcap_bytes[..]).unwrap();
    assert_eq!(stats.parsed, wire.len() as u64, "no record lost or damaged");

    assert_eq!(live.packets(), offline.packets());

    // Sessionization and session-level metadata agree.
    let s_live = Sessionizer::paper(AggLevel::Addr128).sessionize(&live);
    let s_off = Sessionizer::paper(AggLevel::Addr128).sessionize(&offline);
    assert_eq!(s_live, s_off);
    assert_eq!(s_live.len(), 6, "12-hourly sessions over 3 days");
}

#[test]
fn pcap_files_are_self_describing() {
    let wire = wire_traffic();
    let mut writer = PcapWriter::new(Vec::new()).unwrap();
    for (ts, bytes) in &wire {
        writer
            .write_record(&sixscope_packet::PcapRecord {
                ts: *ts,
                ts_micros: 42,
                data: bytes.clone(),
            })
            .unwrap();
    }
    let bytes = writer.into_inner().unwrap();
    let records: Vec<_> = SliceReader::new(&bytes)
        .unwrap()
        .map(|outcome| match outcome {
            ViewOutcome::Record(rec) => rec,
            other => panic!("expected a record, got {other:?}"),
        })
        .collect();
    assert_eq!(records.len(), wire.len());
    for (rec, (ts, data)) in records.iter().zip(&wire) {
        assert_eq!(rec.ts, *ts);
        assert_eq!(rec.data, &data[..]);
        // Every record re-parses as a valid IPv6 packet.
        sixscope_packet::ParsedView::parse(rec.data).unwrap();
    }
}
