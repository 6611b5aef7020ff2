//! Property tests: the columnar corpus index must agree with a naive
//! recomputation straight off the captures, for randomized small corpora.
//!
//! The index trades per-query scans for one up-front columnarization pass;
//! these tests pin the contract that the trade is observationally free —
//! table2, table3 and the corpus overview are pure functions of the raw
//! packets and sessions, however they are computed.

use proptest::prelude::*;
use sixscope::analysis::addrtype::{self, AddressType};
use sixscope::analysis::stats::percent_change;
use sixscope::bgp::{RouteEvent, RouteEventKind};
use sixscope::scanners::population::Population;
use sixscope::scanners::{ExperimentLayout, PopulationSpec};
use sixscope::sim::{ExperimentResult, TumHitlist, Visibility};
use sixscope::tables;
use sixscope::telescope::{
    Bytes, Capture, CapturedPacket, Protocol, SplitSchedule, TelescopeConfig, TelescopeId,
};
use sixscope::types::{Asn, Ipv6Prefix, PrefixTrie, SimDuration, SimTime};
use sixscope::Analyzed;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv6Addr;
use std::sync::OnceLock;

/// One tiny population shared by all cases (building it per case would
/// dominate the test; the packets vary, the metadata world does not).
fn population() -> &'static (ExperimentLayout, Population) {
    static CELL: OnceLock<(ExperimentLayout, Population)> = OnceLock::new();
    CELL.get_or_init(|| {
        let layout = ExperimentLayout::default_plan();
        let pop = PopulationSpec::tiny(7).build(&layout);
        (layout, pop)
    })
}

/// A raw generated packet, before placement into a capture.
#[derive(Debug, Clone)]
struct RawPacket {
    telescope: usize,
    src_choice: usize,
    iid: u8,
    dst_bits: u128,
    ts_secs: u64,
    proto: u8,
    port: u16,
}

fn raw_packet() -> impl Strategy<Value = RawPacket> {
    (
        0..4usize,
        0..16usize,
        any::<u8>(),
        any::<u128>(),
        0..SimDuration::weeks(44).as_secs(),
        0..3u8,
        any::<u16>(),
    )
        .prop_map(
            |(telescope, src_choice, iid, dst_bits, ts_secs, proto, port)| RawPacket {
                telescope,
                src_choice,
                iid,
                dst_bits,
                ts_secs,
                proto,
                port,
            },
        )
}

/// Materializes raw packets into the four telescope captures.
fn build_result(raws: &[RawPacket]) -> ExperimentResult {
    let (layout, pop) = population();
    // Source pool: scanner subnets (so the AS join resolves) plus ULA
    // subnets outside the population (so the NO_ID path is exercised).
    let known: Vec<Ipv6Prefix> = pop
        .scanners
        .iter()
        .take(12)
        .map(|s| s.source.subnet())
        .collect();
    let unknown: Vec<Ipv6Prefix> = (0..4u32)
        .map(|i| {
            let addr: Ipv6Addr = format!("fd00:{i}::").parse().unwrap();
            Ipv6Prefix::new(addr, 64).unwrap()
        })
        .collect();
    let configs = [
        TelescopeConfig::t1(layout.t1),
        TelescopeConfig::t2(layout.t2),
        TelescopeConfig::t3(layout.t3),
        TelescopeConfig::t4(layout.t4),
    ];
    let mut packets: BTreeMap<TelescopeId, Vec<CapturedPacket>> = BTreeMap::new();
    for raw in raws {
        let config = &configs[raw.telescope];
        let subnet = if raw.src_choice < known.len() {
            known[raw.src_choice]
        } else {
            unknown[raw.src_choice - known.len()]
        };
        let src = subnet.nth_address(1 + u128::from(raw.iid % 8));
        let (protocol, dst_port) = match raw.proto {
            0 => (Protocol::Icmpv6, None),
            1 => (Protocol::Tcp, Some(raw.port)),
            _ => (Protocol::Udp, Some(raw.port)),
        };
        packets.entry(config.id).or_default().push(CapturedPacket {
            ts: SimTime::from_secs(raw.ts_secs),
            src,
            dst: config.prefix.nth_address(raw.dst_bits),
            protocol,
            src_port: dst_port.map(|_| 40000),
            dst_port,
            payload: Bytes::new(),
        });
    }
    let mut captures = BTreeMap::new();
    for config in configs {
        let id = config.id;
        let mut capture = Capture::new(config);
        let mut list = packets.remove(&id).unwrap_or_default();
        list.sort_by_key(|p| p.ts);
        for p in list {
            capture.push(p);
        }
        captures.insert(id, capture);
    }
    let visibility = Visibility::from_events(&[]);
    let hitlist = TumHitlist::build(&[], &visibility);
    ExperimentResult {
        layout: layout.clone(),
        schedule: SplitSchedule::paper(layout.t1, layout.start),
        captures,
        events: Vec::new(),
        visibility,
        population: pop.clone(),
        hitlist,
        t4_responses: 0,
        dropped_unrouted: 0,
        truncated_probes: 0,
    }
}

/// A T1-only corpus whose routing view is a random announcement timeline
/// over the split schedule's prefixes (the /32, both /33s and every split
/// below them). `packets` are `(prefix pick, address bits, seconds)`, each
/// destination drawn inside its picked prefix; `events` are `(seconds,
/// prefix pick, announce?)`.
fn routed_t1_result(
    packets: &[(usize, u128, u64)],
    events: &[(u64, usize, bool)],
) -> ExperimentResult {
    let mut result = build_result(&[]);
    let schedule = &result.schedule;
    let prefixes: Vec<Ipv6Prefix> = (0..=schedule.cycles)
        .flat_map(|c| schedule.announced_set(c))
        .chain([
            schedule.covering,
            schedule.companion(),
            schedule.split_side(),
        ])
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut events: Vec<RouteEvent> = events
        .iter()
        .map(|&(secs, pick, announce)| RouteEvent {
            ts: SimTime::from_secs(secs),
            prefix: prefixes[pick % prefixes.len()],
            kind: if announce {
                RouteEventKind::Announce {
                    origin_as: Asn(64500),
                    as_path: vec![Asn(64500)],
                }
            } else {
                RouteEventKind::Withdraw
            },
        })
        .collect();
    events.sort_by_key(|e| e.ts);
    let mut list: Vec<CapturedPacket> = packets
        .iter()
        .map(|&(pick, bits, secs)| CapturedPacket {
            ts: SimTime::from_secs(secs),
            src: "2a0a::1".parse().unwrap(),
            dst: prefixes[pick % prefixes.len()].nth_address(bits),
            protocol: Protocol::Icmpv6,
            src_port: None,
            dst_port: None,
            payload: Bytes::new(),
        })
        .collect();
    list.sort_by_key(|p| p.ts);
    let t1 = result
        .captures
        .get_mut(&TelescopeId::T1)
        .expect("every telescope");
    for p in list {
        t1.push(p);
    }
    result.visibility = Visibility::from_events(&events);
    result.events = events;
    result
}

proptest! {
    #[test]
    fn table2_matches_naive_recomputation(raws in proptest::collection::vec(raw_packet(), 0..80)) {
        let a = Analyzed::from_result(build_result(&raws));
        let t2 = tables::table2(&a);

        let mut packets: BTreeMap<Protocol, u64> = BTreeMap::new();
        let mut sources: BTreeMap<Protocol, BTreeSet<Ipv6Addr>> = BTreeMap::new();
        let mut all_sources: BTreeSet<Ipv6Addr> = BTreeSet::new();
        let mut total_packets = 0u64;
        for id in TelescopeId::ALL {
            for p in a.capture(id).packets() {
                total_packets += 1;
                *packets.entry(p.protocol).or_default() += 1;
                sources.entry(p.protocol).or_default().insert(p.src);
                all_sources.insert(p.src);
            }
        }
        let mut sessions: BTreeMap<Protocol, u64> = BTreeMap::new();
        let mut total_sessions = 0u64;
        for id in TelescopeId::ALL {
            for s in a.sessions128(id) {
                total_sessions += 1;
                let protos: BTreeSet<Protocol> = s
                    .packets(a.capture(id))
                    .map(|p| p.protocol)
                    .collect();
                for proto in protos {
                    *sessions.entry(proto).or_default() += 1;
                }
            }
        }

        prop_assert_eq!(t2.total_packets, total_packets);
        prop_assert_eq!(t2.total_sessions, total_sessions);
        prop_assert_eq!(t2.total_sources, all_sources.len() as u64);
        for row in &t2.rows {
            prop_assert_eq!(row.packets, packets.get(&row.protocol).copied().unwrap_or(0));
            prop_assert_eq!(row.sessions, sessions.get(&row.protocol).copied().unwrap_or(0));
            prop_assert_eq!(
                row.sources,
                sources.get(&row.protocol).map_or(0, |s| s.len() as u64)
            );
        }
    }

    #[test]
    fn table3_matches_naive_recomputation(raws in proptest::collection::vec(raw_packet(), 0..80)) {
        let a = Analyzed::from_result(build_result(&raws));
        let t3 = tables::table3(&a);

        let mut packets: BTreeMap<u8, u64> = BTreeMap::new();
        let mut sources: BTreeMap<u8, BTreeSet<Ipv6Addr>> = BTreeMap::new();
        for id in TelescopeId::ALL {
            for p in a.capture(id).packets() {
                let code = addrtype::classify(p.dst).code();
                *packets.entry(code).or_default() += 1;
                sources.entry(code).or_default().insert(p.src);
            }
        }
        prop_assert_eq!(t3.len(), AddressType::ALL.len());
        for row in &t3 {
            let code = row.address_type.code();
            prop_assert_eq!(row.packets, packets.get(&code).copied().unwrap_or(0));
            prop_assert_eq!(
                row.sources,
                sources.get(&code).map_or(0, |s| s.len() as u64)
            );
        }
        // Sorted by packets descending.
        for pair in t3.windows(2) {
            prop_assert!(pair[0].packets >= pair[1].packets);
        }
    }

    #[test]
    fn overview_matches_naive_recomputation(
        raws in proptest::collection::vec(raw_packet(), 0..80),
        w1 in 0..SimDuration::weeks(45).as_secs(),
        w2 in 0..SimDuration::weeks(45).as_secs(),
    ) {
        let a = Analyzed::from_result(build_result(&raws));
        let from = SimTime::from_secs(w1.min(w2));
        let until = SimTime::from_secs(w1.max(w2));
        let ov = tables::corpus_overview(&a, from, until);

        let mut packets = 0u64;
        let mut srcs: BTreeSet<Ipv6Addr> = BTreeSet::new();
        let mut subnets: BTreeSet<Ipv6Prefix> = BTreeSet::new();
        for id in TelescopeId::ALL {
            for p in a.capture(id).packets() {
                if p.ts >= from && p.ts < until {
                    packets += 1;
                    srcs.insert(p.src);
                    subnets.insert(Ipv6Prefix::new(p.src, 64).unwrap());
                }
            }
        }
        // The naive IP-to-AS join: scanner subnet -> AS, longest match.
        let population = &a.result.population;
        let mut asn_by_subnet = PrefixTrie::new();
        for scanner in &population.scanners {
            asn_by_subnet.insert(scanner.source.subnet(), scanner.asn);
        }
        let mut ases = BTreeSet::new();
        let mut countries = BTreeSet::new();
        for &src in &srcs {
            let info = asn_by_subnet
                .lookup(src)
                .and_then(|(_, &asn)| population.as_info(asn));
            // Table 8's join, read off the index, agrees for every
            // captured source.
            prop_assert_eq!(a.as_info_of(src).map(|i| i.asn), info.map(|i| i.asn));
            if let Some(info) = info {
                ases.insert(info.asn);
                countries.insert(info.country);
            }
        }
        let in_window = |s: &&sixscope::telescope::ScanSession| s.start >= from && s.start < until;
        let sessions128: usize = TelescopeId::ALL
            .iter()
            .map(|&id| a.sessions128(id).iter().filter(in_window).count())
            .sum();
        let sessions64: usize = TelescopeId::ALL
            .iter()
            .map(|&id| a.sessions64(id).iter().filter(in_window).count())
            .sum();

        prop_assert_eq!(ov.packets, packets);
        prop_assert_eq!(ov.sources128, srcs.len() as u64);
        prop_assert_eq!(ov.sources64, subnets.len() as u64);
        prop_assert_eq!(ov.sessions128, sessions128 as u64);
        prop_assert_eq!(ov.sessions64, sessions64 as u64);
        prop_assert_eq!(ov.ases, ases.len() as u64);
        prop_assert_eq!(ov.countries, countries.len() as u64);
    }

    /// Scatter the corpus over shard *files* and gather them back: the
    /// merged corpus must equal the in-process one — packets, sessions at
    /// both aggregation levels, and the whole tables report in both
    /// backends — for any capture and any piece count (DESIGN.md §13).
    #[test]
    fn shard_files_round_trip_to_the_in_process_corpus(
        raws in proptest::collection::vec(raw_packet(), 0..60),
        pieces in 1..4usize,
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = std::env::temp_dir().join(format!(
            "sixscope-prop-shards-{}-{nanos}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let direct = Analyzed::from_result(build_result(&raws));
        let paths = sixscope::shardfile::write_experiment_shards(&build_result(&raws), pieces, &dir)
            .expect("scatter of a valid corpus cannot fail");
        let merged = sixscope::shardfile::merge_experiment(build_result(&raws), &paths, None)
            .expect("gather of freshly written shards cannot fail");
        std::fs::remove_dir_all(&dir).ok();
        for id in TelescopeId::ALL {
            prop_assert_eq!(merged.capture(id).packets(), direct.capture(id).packets());
            prop_assert_eq!(merged.sessions128(id), direct.sessions128(id));
            prop_assert_eq!(merged.sessions64(id), direct.sessions64(id));
        }
        prop_assert_eq!(
            sixscope::render::render_table2(&tables::table2(&merged)),
            sixscope::render::render_table2(&tables::table2(&direct))
        );
        prop_assert_eq!(
            sixscope::render::render_table3(&tables::table3(&merged)),
            sixscope::render::render_table3(&tables::table3(&direct))
        );
        for json in [false, true] {
            prop_assert_eq!(
                sixscope::serve::tables_report(&merged, json),
                sixscope::serve::tables_report(&direct, json)
            );
        }
    }

    /// The §7.1 headline's split-vs-companion packet growth is a count by
    /// destination half over the split period, whatever the routing view
    /// announced when each packet arrived.
    #[test]
    fn headline_split_vs_companion_counts_destination_halves(
        packets in proptest::collection::vec(
            (any::<usize>(), any::<u128>(), 0..SimDuration::weeks(44).as_secs()),
            0..80,
        ),
        events in proptest::collection::vec(
            (0..SimDuration::weeks(44).as_secs(), any::<usize>(), any::<bool>()),
            0..24,
        ),
    ) {
        let a = Analyzed::from_result(routed_t1_result(&packets, &events));
        let schedule = &a.result.schedule;
        let boundary = schedule.cycle_start(1);
        let mut companion = 0u64;
        let mut split = 0u64;
        for p in a.capture(TelescopeId::T1).packets() {
            if p.ts >= boundary {
                if schedule.companion().contains(p.dst) {
                    companion += 1;
                } else if schedule.split_side().contains(p.dst) {
                    split += 1;
                }
            }
        }
        prop_assert_eq!(
            tables::headline(&a).split_vs_companion_packets_pct.to_bits(),
            percent_change(companion as f64, split as f64).to_bits()
        );
    }
}
