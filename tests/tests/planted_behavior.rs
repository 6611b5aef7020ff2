//! Planted-behavior recovery: construct scanners with a *known* taxonomy
//! class, run them through capture + sessionization + classification, and
//! assert the measured class matches the planted one. This is the
//! validation loop that makes the substitution (simulated scanners for the
//! real Internet) trustworthy.

use sixscope_analysis::classify::{
    addr_selection, network_selection, profile_scanners, AddrSelection, CycleCounts,
    NetworkSelection, TemporalClass,
};
use sixscope_scanners::scanner::StaticContext;
use sixscope_scanners::{
    AddressStrategy, NetworkStrategy, ScannerSpec, SourceModel, TemporalModel, ToolProfile,
};
use sixscope_telescope::{AggLevel, Capture, ScanSession, Sessionizer, TelescopeConfig};
use sixscope_types::{Asn, Ipv6Prefix, SimDuration, SimTime, Xoshiro256pp};

fn t1_prefix() -> Ipv6Prefix {
    "2001:db8::/32".parse().unwrap()
}

fn ctx(announced: Vec<Ipv6Prefix>) -> StaticContext {
    StaticContext {
        announced,
        events: vec![],
        hitlist: vec![],
        responsive: None,
        end: SimTime::EPOCH + SimDuration::weeks(20),
    }
}

fn run_and_sessionize(
    spec: &ScannerSpec,
    context: &StaticContext,
    seed: u64,
) -> (Capture, Vec<ScanSession>) {
    let mut capture = Capture::new(TelescopeConfig::t1(t1_prefix()));
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut probes = spec.generate(context, &mut rng);
    probes.sort_by_key(|p| p.ts);
    let mut buf = Vec::new();
    for probe in &probes {
        probe.encode_into(&mut buf);
        capture.ingest(probe.ts, &buf);
    }
    let sessions = Sessionizer::paper(AggLevel::Addr128).sessionize(&capture);
    (capture, sessions)
}

fn base_spec(temporal: TemporalModel, address: AddressStrategy) -> ScannerSpec {
    ScannerSpec {
        id: 77,
        source: SourceModel::Fixed("2a0a::77".parse().unwrap()),
        asn: Asn(64800),
        temporal,
        network: NetworkStrategy::AllAnnounced,
        address,
        tool: ToolProfile::random_bytes(),
        packets_per_prefix: 120,
        pps: 2.0,
        reactive: None,
        tga_followups: None,
    }
}

#[test]
fn planted_periodic_random_scanner_is_recovered() {
    let context = ctx(vec![t1_prefix()]);
    let spec = base_spec(
        TemporalModel::Periodic {
            start: SimTime::from_secs(1000),
            period: SimDuration::days(2),
            jitter: SimDuration::mins(30),
            until: context.end,
        },
        AddressStrategy::RandomIid,
    );
    let (capture, sessions) = run_and_sessionize(&spec, &context, 1);
    let profiles = profile_scanners(&sessions);
    assert_eq!(profiles.len(), 1);
    assert_eq!(profiles[0].temporal, TemporalClass::Periodic);
    for s in &sessions {
        assert_eq!(addr_selection(s, &capture), AddrSelection::Random);
    }
}

#[test]
fn planted_one_off_structured_scanner_is_recovered() {
    let context = ctx(vec![t1_prefix()]);
    let spec = base_spec(
        TemporalModel::OneOff {
            at: SimTime::from_secs(5000),
        },
        AddressStrategy::LowByte { max: 120 },
    );
    let (capture, sessions) = run_and_sessionize(&spec, &context, 2);
    let profiles = profile_scanners(&sessions);
    assert_eq!(profiles.len(), 1);
    assert_eq!(profiles[0].temporal, TemporalClass::OneOff);
    assert_eq!(sessions.len(), 1);
    assert_eq!(
        addr_selection(&sessions[0], &capture),
        AddrSelection::Structured
    );
}

#[test]
fn planted_intermittent_scanner_is_recovered() {
    let context = ctx(vec![t1_prefix()]);
    let spec = base_spec(
        TemporalModel::Intermittent {
            start: SimTime::from_secs(100),
            until: context.end,
            mean_gap: SimDuration::days(5),
            max_sessions: 12,
        },
        AddressStrategy::RandomIid,
    );
    let (_, sessions) = run_and_sessionize(&spec, &context, 3);
    assert!(sessions.len() >= 3);
    let profiles = profile_scanners(&sessions);
    assert_eq!(profiles[0].temporal, TemporalClass::Intermittent);
}

#[test]
fn planted_network_selection_classes_are_recovered() {
    // Build per-cycle counts directly from two announcement sets.
    let set_a: Vec<Ipv6Prefix> = vec![
        "2001:db8::/33".parse().unwrap(),
        "2001:db8:8000::/33".parse().unwrap(),
    ];
    let set_b: Vec<Ipv6Prefix> = vec![
        "2001:db8::/33".parse().unwrap(),
        "2001:db8:8000::/34".parse().unwrap(),
        "2001:db8:c000::/34".parse().unwrap(),
    ];
    // Size-independent: equal sessions everywhere in both cycles.
    let si = vec![
        CycleCounts {
            announced: set_a.clone(),
            sessions: vec![6, 6],
        },
        CycleCounts {
            announced: set_b.clone(),
            sessions: vec![7, 6, 7],
        },
    ];
    assert_eq!(
        network_selection(&si),
        Some(NetworkSelection::SizeIndependent)
    );
    // Single-prefix in both cycles.
    let sp = vec![
        CycleCounts {
            announced: set_a.clone(),
            sessions: vec![4, 0],
        },
        CycleCounts {
            announced: set_b.clone(),
            sessions: vec![0, 0, 3],
        },
    ];
    assert_eq!(network_selection(&sp), Some(NetworkSelection::SinglePrefix));
    // Mode change across cycles → inconsistent.
    let inc = vec![
        CycleCounts {
            announced: set_a,
            sessions: vec![5, 5],
        },
        CycleCounts {
            announced: set_b,
            sessions: vec![4, 0, 0],
        },
    ];
    assert_eq!(
        network_selection(&inc),
        Some(NetworkSelection::Inconsistent)
    );
}

#[test]
fn planted_tool_fingerprints_survive_the_wire() {
    // Every tool's probes, after encode → capture → payload extraction,
    // identify back to the same tool.
    use sixscope_analysis::fingerprint::{identify, ToolMatch};
    let context = ctx(vec![t1_prefix()]);
    for (tool, expect) in [
        (ToolProfile::yarrp6(), "Yarrp6"),
        (ToolProfile::htrace6(), "Htrace6"),
        (ToolProfile::six_seeks(), "6Seeks"),
        (ToolProfile::six_scan(), "6Scan"),
        (ToolProfile::caida_ark(), "CAIDA Ark"),
        (ToolProfile::traceroute(), "Traceroute"),
    ] {
        let mut spec = base_spec(
            TemporalModel::OneOff {
                at: SimTime::from_secs(50),
            },
            AddressStrategy::LowByte { max: 10 },
        );
        spec.tool = tool;
        spec.packets_per_prefix = 10;
        let (capture, sessions) = run_and_sessionize(&spec, &context, 4);
        let payload = sessions[0]
            .packets(&capture)
            .find(|p| !p.payload.is_empty())
            .map(|p| p.payload.clone())
            .expect("tool probes carry payloads");
        match identify(&payload, None) {
            ToolMatch::Tool(t) => assert_eq!(t.to_string(), expect),
            other => panic!("{expect} identified as {other}"),
        }
    }
}

#[test]
fn rotating_source_collapses_at_64_aggregation() {
    let context = ctx(vec![t1_prefix()]);
    let mut spec = base_spec(
        TemporalModel::OneOff {
            at: SimTime::from_secs(100),
        },
        AddressStrategy::LowByte { max: 50 },
    );
    spec.source = SourceModel::RotatingIid {
        subnet: "2a0a::77:0:0:0:0/64".parse().unwrap(),
        per_probe: true,
    };
    spec.packets_per_prefix = 50;
    let mut capture = Capture::new(TelescopeConfig::t1(t1_prefix()));
    let mut rng = Xoshiro256pp::seed_from_u64(5);
    let mut buf = Vec::new();
    for probe in spec.generate(&context, &mut rng) {
        probe.encode_into(&mut buf);
        capture.ingest(probe.ts, &buf);
    }
    let s128 = Sessionizer::paper(AggLevel::Addr128).sessionize(&capture);
    let s64 = Sessionizer::paper(AggLevel::Subnet64).sessionize(&capture);
    assert!(s128.len() > 10, "rotation should fragment /128 sessions");
    assert_eq!(s64.len(), 1, "one /64 session");
}
