//! Integration: the offline pcap pipeline — capture bytes written to pcap,
//! read back, and analyzed must yield identical results to the live path.

mod common;

use sixscope::sim::ScenarioConfig;
use sixscope::{serve, Pipeline};
use sixscope_packet::{PacketBuilder, PcapRecord, PcapWriter, SliceReader, ViewOutcome};
use sixscope_scanners::scanner::StaticContext;
use sixscope_scanners::{
    AddressStrategy, NetworkStrategy, ScannerSpec, SourceModel, TemporalModel, ToolProfile,
};
use sixscope_telescope::{AggLevel, Capture, Sessionizer, TelescopeConfig, TelescopeId};
use sixscope_types::{Asn, SimDuration, SimTime, Xoshiro256pp};
use std::net::Ipv6Addr;

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

/// A simulated T1 capture written as `sixscope run --pcap-dir` writes it
/// (`Capture::write_pcap`) and read back through the pcap path gives the
/// simulated packets, sessions and report again.
#[test]
fn simulated_t1_capture_survives_the_pcap_path() {
    let simulated = Pipeline::simulate(ScenarioConfig::new(20230824, 0.004))
        .run()
        .expect("simulated runs cannot fail");
    let t1 = simulated.capture(TelescopeId::T1);
    assert!(!t1.is_empty());
    let path = std::env::temp_dir().join(format!(
        "sixscope-t1-round-trip-{}.pcap",
        std::process::id()
    ));
    let file = std::fs::File::create(&path).expect("create the pcap");
    t1.write_pcap(file).expect("write the pcap");
    let read = Pipeline::from_pcaps([&path]).run_detailed();
    std::fs::remove_file(&path).ok();
    let read = read.expect("read the pcap back");
    assert_eq!(
        read.stats.parsed,
        t1.len() as u64,
        "no record lost or damaged"
    );

    // Compare without printing whole captures: name the first difference.
    let a = &read.analyzed;
    let (read_packets, sim_packets) = (a.capture(TelescopeId::T1).packets(), t1.packets());
    assert_eq!(read_packets.len(), sim_packets.len());
    if let Some(i) = (0..sim_packets.len()).find(|&i| read_packets[i] != sim_packets[i]) {
        panic!(
            "packet {i} changed on the pcap path: {:?} became {:?}",
            sim_packets[i], read_packets[i]
        );
    }
    assert!(
        a.sessions128(TelescopeId::T1) == simulated.sessions128(TelescopeId::T1),
        "/128 sessions changed on the pcap path"
    );
    assert!(
        a.sessions64(TelescopeId::T1) == simulated.sessions64(TelescopeId::T1),
        "/64 sessions changed on the pcap path"
    );
    assert_eq!(
        serve::analysis_report(a, &read.stats, false),
        serve::analysis_report(&simulated, &read.stats, false)
    );
}

/// Twenty sources, each sending three packets at `s`, `10⁹ + s` and
/// `4·10⁹ + s` seconds (127 years end to end): three sessions each, whose
/// uneven gaps the inter-arrival test rejects, so every source is decided
/// by the autocorrelation over about 1.1 M hourly buckets, and none has a
/// period. The pcap is built here rather than kept in `tests/corpus/`,
/// which `make-corpus` rebuilds byte for byte.
#[test]
fn sources_spanning_127_years_classify_intermittent() {
    let dir = common::ScratchDir::new("long-span");
    let path = dir.join("long-span.pcap");
    let mut w = PcapWriter::new(std::fs::File::create(&path).unwrap()).unwrap();
    for offset in [0, 1_000_000_000, 4_000_000_000] {
        for s in 1..=20u64 {
            let src = Ipv6Addr::from((0x2a0a_u128 << 112) | u128::from(s));
            let dst: Ipv6Addr = "2001:db8::1".parse().unwrap();
            w.write_record(&PcapRecord {
                ts: SimTime::from_secs(offset + s),
                ts_micros: 0,
                data: PacketBuilder::new(src, dst).icmpv6_echo_request(1, s as u16, b"scan"),
            })
            .unwrap();
        }
    }
    w.into_inner().unwrap();
    let run = Pipeline::from_pcaps([&path]).run_detailed().unwrap();
    let report = serve::analysis_report(&run.analyzed, &run.stats, true);
    assert_eq!(report.matches(r#""sessions":3,"#).count(), 20, "{report}");
    assert_eq!(
        report.matches(r#""temporal":"Intermittent""#).count(),
        20,
        "{report}"
    );
}
