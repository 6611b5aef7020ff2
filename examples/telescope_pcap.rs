//! Operate a telescope on pcap files — the workflow a real deployment uses.
//!
//! This example plays the role of a small darknet operator:
//!
//! 1. scan traffic arrives as raw IPv6 packets (here: synthesized by a few
//!    scanner models, exactly the bytes a NIC would deliver),
//! 2. every packet the telescope retains is written to a classic pcap
//!    file (`sixscope-telescope.pcap`, LINKTYPE_RAW — opens in Wireshark)
//!    with [`PcapWriter`],
//! 3. the pcap is read back into a fresh capture, sessionized with the
//!    paper's 1-hour timeout, and every session is classified.
//!
//! ```sh
//! cargo run -p sixscope-examples --bin telescope-pcap --release
//! ```

use sixscope_analysis::classify::{addr_selection, profile_scanners};
use sixscope_analysis::fingerprint::identify;
use sixscope_packet::{MappedPcap, PcapRecord, PcapWriter};
use sixscope_scanners::scanner::StaticContext;
use sixscope_scanners::{
    AddressStrategy, NetworkStrategy, ScannerSpec, SourceModel, TemporalModel, ToolProfile,
};
use sixscope_telescope::{AggLevel, Capture, Sessionizer, TelescopeConfig};
use sixscope_types::{Asn, SimDuration, SimTime, Xoshiro256pp};

fn main() {
    let prefix = "2001:db8:fade::/48".parse().unwrap();
    let config = TelescopeConfig::t3(prefix);

    // --- 1. synthesize a day of scan traffic from three scanner models ---
    let ctx = StaticContext {
        announced: vec![prefix],
        events: vec![],
        hitlist: vec![],
        responsive: None,
        end: SimTime::EPOCH + SimDuration::days(2),
    };
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let scanners = vec![
        ScannerSpec {
            id: 1,
            source: SourceModel::Fixed("2a0a::1:1".parse().unwrap()),
            asn: Asn(64601),
            temporal: TemporalModel::OneOff {
                at: SimTime::from_secs(600),
            },
            network: NetworkStrategy::AllAnnounced,
            address: AddressStrategy::LowByte { max: 32 },
            tool: ToolProfile::yarrp6(),
            packets_per_prefix: 32,
            pps: 2.0,
            reactive: None,
            tga_followups: None,
        },
        ScannerSpec {
            id: 2,
            source: SourceModel::Fixed("2a0a::2:2".parse().unwrap()),
            asn: Asn(64602),
            temporal: TemporalModel::Periodic {
                start: SimTime::from_secs(3600),
                period: SimDuration::hours(6),
                jitter: SimDuration::mins(5),
                until: ctx.end,
            },
            network: NetworkStrategy::AllAnnounced,
            address: AddressStrategy::RandomIid,
            tool: ToolProfile::random_bytes(),
            packets_per_prefix: 150,
            pps: 5.0,
            reactive: None,
            tga_followups: None,
        },
        ScannerSpec {
            id: 3,
            source: SourceModel::Fixed("2a0a::3:3".parse().unwrap()),
            asn: Asn(64603),
            temporal: TemporalModel::OneOff {
                at: SimTime::from_secs(7200),
            },
            network: NetworkStrategy::AllAnnounced,
            address: AddressStrategy::ServicePorts,
            tool: ToolProfile::web_syn(),
            packets_per_prefix: 10,
            pps: 1.0,
            reactive: None,
            tga_followups: None,
        },
    ];

    // --- 2. capture, writing every retained packet to a pcap file ---
    let mut wire: Vec<PcapRecord> = Vec::new();
    let mut buf = Vec::new();
    for spec in &scanners {
        let mut stream = rng.split(&format!("scanner-{}", spec.id));
        for probe in spec.generate(&ctx, &mut stream) {
            probe.encode_into(&mut buf);
            wire.push(PcapRecord {
                ts: probe.ts,
                ts_micros: 0,
                data: buf.clone(),
            });
        }
    }
    wire.sort_by_key(|rec| rec.ts);
    let pcap_path = std::env::temp_dir().join("sixscope-telescope.pcap");
    let file = std::fs::File::create(&pcap_path).expect("create pcap");
    let mut writer = PcapWriter::new(std::io::BufWriter::new(file)).expect("write pcap header");
    let mut live = Capture::new(config.clone());
    for rec in &wire {
        if live.ingest(rec.ts, &rec.data) {
            writer.write_record(rec).expect("write pcap record");
        }
    }
    writer.into_inner().expect("flush pcap");
    println!(
        "wrote {} packets to {} (classic pcap, LINKTYPE_RAW — try `tcpdump -r`)",
        wire.len(),
        pcap_path.display()
    );

    // --- 3. read back and analyze, as an offline pipeline would ---
    // The recovering reader is what a real deployment uses: damaged
    // records are skipped and counted instead of aborting the file.
    let mut offline = Capture::new(config);
    let pcap = MappedPcap::open(&pcap_path).expect("open pcap");
    let stats = offline
        .ingest_pcap_recovering(pcap.data())
        .expect("parse pcap");
    println!("re-read from disk: {stats}");

    let sessions = Sessionizer::paper(AggLevel::Addr128).sessionize(&offline);
    println!("\n{} scan sessions:", sessions.len());
    let profiles = profile_scanners(&sessions);
    for profile in &profiles {
        let first_session = &sessions[profile.session_indices[0]];
        let selection = addr_selection(first_session, &offline, 48);
        let payload = first_session
            .packets(&offline)
            .find(|p| !p.payload.is_empty())
            .map(|p| p.payload.clone())
            .unwrap_or_default();
        println!(
            "  {} — {} sessions, {} packets, temporal: {}, addresses: {}, tool: {}",
            profile.source,
            profile.session_indices.len(),
            profile.packets,
            profile.temporal,
            selection,
            identify(&payload, None),
        );
    }
}
