//! Regenerates every table of the paper's evaluation from an [`Analyzed`]
//! corpus. Each function returns a typed structure; [`crate::render`]
//! prints them in the paper's row format.

use crate::corpus::Analyzed;
use crate::index::{decode_port, proto_code, NO_ID, PORT_NONE, PROTO_TCP, PROTO_UDP};
use sixscope_analysis::addrtype::AddressType;
use sixscope_analysis::classify::{
    network_selection, CycleCounts, NetworkSelection, TemporalClass,
};
use sixscope_analysis::fingerprint::{match_tool, KnownTool};
use sixscope_analysis::heavy::HeavyHitter;
use sixscope_analysis::stats::percent_change;
use sixscope_telescope::{Protocol, SourceKey, TelescopeId};
use sixscope_types::ports::PortLabel;
use sixscope_types::{Ipv6Prefix, NetworkType};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv6Addr;

/// The §4 data-corpus overview: totals for a time range.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusOverview {
    /// Packets captured across all telescopes.
    pub packets: u64,
    /// Distinct /128 source addresses.
    pub sources128: u64,
    /// Distinct /64 source subnets.
    pub sources64: u64,
    /// Scan sessions at /128 aggregation.
    pub sessions128: u64,
    /// Scan sessions at /64 aggregation.
    pub sessions64: u64,
    /// Distinct origin ASes.
    pub ases: u64,
    /// Distinct source countries.
    pub countries: u64,
}

/// Computes the corpus overview for `[from, until)` across all telescopes
/// (§4.1 uses the initial 12 weeks; §4.2 the full period).
pub fn corpus_overview(
    a: &Analyzed,
    from: sixscope_types::SimTime,
    until: sixscope_types::SimTime,
) -> CorpusOverview {
    let idx = &a.index;
    let mut packets = 0u64;
    let mut seen128 = vec![false; idx.sources.len128()];
    let mut seen64 = vec![false; idx.sources.len64()];
    for id in TelescopeId::ALL {
        let col = idx.telescope(id);
        let range = col.range(from, until);
        packets += range.len() as u64;
        for i in range {
            seen128[col.src128[i] as usize] = true;
            seen64[col.src64[i] as usize] = true;
        }
    }
    // AS metadata is a function of the source, so distinct ASes/countries
    // over packets equal distinct ASes/countries over the seen sources.
    let mut ases: BTreeSet<u32> = BTreeSet::new();
    let mut countries: BTreeSet<u32> = BTreeSet::new();
    for (i, &seen) in seen128.iter().enumerate() {
        if seen && idx.sources.info_asn(i as u32) != NO_ID {
            ases.insert(idx.sources.info_asn(i as u32));
            countries.insert(idx.sources.country(i as u32));
        }
    }
    let mut sessions128 = 0;
    let mut sessions64 = 0;
    for id in TelescopeId::ALL {
        sessions128 += idx.sessions128(id).range(from, until).len() as u64;
        sessions64 += idx.sessions64(id).range(from, until).len() as u64;
    }
    CorpusOverview {
        packets,
        sources128: seen128.iter().filter(|&&s| s).count() as u64,
        sources64: seen64.iter().filter(|&&s| s).count() as u64,
        sessions128,
        sessions64,
        ases: ases.len() as u64,
        countries: countries.len() as u64,
    }
}

/// One row of Table 2: traffic per transport protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolRow {
    /// Protocol label.
    pub protocol: Protocol,
    /// Packets and share of all packets.
    pub packets: u64,
    /// Packet share in percent.
    pub packet_pct: f64,
    /// /128 sessions containing the protocol.
    pub sessions: u64,
    /// Session share in percent (can exceed 100% summed).
    pub session_pct: f64,
    /// /128 sources probing the protocol.
    pub sources: u64,
    /// Source share in percent.
    pub source_pct: f64,
}

/// Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// Rows in paper order (ICMPv6, UDP, TCP).
    pub rows: Vec<ProtocolRow>,
    /// Total packets across all telescopes.
    pub total_packets: u64,
    /// Total /128 sessions.
    pub total_sessions: u64,
    /// Total /128 sources.
    pub total_sources: u64,
}

/// Computes Table 2 over the full corpus (all telescopes, full period).
pub fn table2(a: &Analyzed) -> Table2 {
    let idx = &a.index;
    let mut packets = [0u64; 4];
    let mut total_packets = 0u64;
    let mut src_mask = vec![0u8; idx.sources.len128()];
    for id in TelescopeId::ALL {
        let col = idx.telescope(id);
        total_packets += col.len() as u64;
        for i in 0..col.len() {
            packets[col.proto[i] as usize] += 1;
            src_mask[col.src128[i] as usize] |= 1 << col.proto[i];
        }
    }
    let mut sessions = [0u64; 4];
    let mut total_sessions = 0u64;
    for id in TelescopeId::ALL {
        let cols = idx.sessions128(id);
        total_sessions += cols.len() as u64;
        for &mask in &cols.proto_mask {
            for (code, count) in sessions.iter_mut().enumerate() {
                if mask & (1 << code) != 0 {
                    *count += 1;
                }
            }
        }
    }
    let mut sources = [0u64; 4];
    for &mask in &src_mask {
        for (code, count) in sources.iter_mut().enumerate() {
            if mask & (1 << code) != 0 {
                *count += 1;
            }
        }
    }
    // The source table is exactly the set of sources seen in any packet.
    let total_sources = idx.sources.len128() as u64;
    let rows = Protocol::REPORTED
        .iter()
        .map(|&proto| {
            let code = proto_code(proto) as usize;
            ProtocolRow {
                protocol: proto,
                packets: packets[code],
                packet_pct: pct(packets[code], total_packets),
                sessions: sessions[code],
                session_pct: pct(sessions[code], total_sessions),
                sources: sources[code],
                source_pct: pct(sources[code], total_sources),
            }
        })
        .collect();
    Table2 {
        rows,
        total_packets,
        total_sessions,
        total_sources,
    }
}

fn pct(n: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        n as f64 / total as f64 * 100.0
    }
}

/// One row of Table 3: target address types.
#[derive(Debug, Clone, PartialEq)]
pub struct AddressTypeRow {
    /// The RFC 7707 class.
    pub address_type: AddressType,
    /// Packets targeting that class.
    pub packets: u64,
    /// Packet share in percent.
    pub packet_pct: f64,
    /// /128 sources probing at least one address of the class.
    pub sources: u64,
    /// Source share in percent.
    pub source_pct: f64,
}

/// Table 3: distribution of target types, sorted by packets descending.
pub fn table3(a: &Analyzed) -> Vec<AddressTypeRow> {
    let idx = &a.index;
    let mut packets = [0u64; AddressType::ALL.len()];
    let mut class_mask = vec![0u8; idx.sources.len128()];
    let mut total_packets = 0u64;
    for id in TelescopeId::ALL {
        let col = idx.telescope(id);
        total_packets += col.len() as u64;
        for i in 0..col.len() {
            packets[col.class[i] as usize] += 1;
            class_mask[col.src128[i] as usize] |= 1 << col.class[i];
        }
    }
    let mut sources = [0u64; AddressType::ALL.len()];
    for &mask in &class_mask {
        for (code, count) in sources.iter_mut().enumerate() {
            if mask & (1 << code) != 0 {
                *count += 1;
            }
        }
    }
    let total_sources = idx.sources.len128() as u64;
    let mut rows: Vec<AddressTypeRow> = AddressType::ALL
        .iter()
        .map(|&ty| {
            let code = ty.code() as usize;
            AddressTypeRow {
                address_type: ty,
                packets: packets[code],
                packet_pct: pct(packets[code], total_packets),
                sources: sources[code],
                source_pct: pct(sources[code], total_sources),
            }
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.packets));
    rows
}

/// One row of Table 4: a top port.
#[derive(Debug, Clone, PartialEq)]
pub struct PortRow {
    /// Rank (1-based).
    pub rank: usize,
    /// Port label (traceroute range collapsed for UDP).
    pub port: PortLabel,
    /// /64 sessions containing the port.
    pub sessions: u64,
    /// Share of /64 sessions carrying this protocol.
    pub pct: f64,
}

/// Table 4: top-5 TCP and UDP ports by /64 sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4 {
    /// Top TCP rows.
    pub tcp: Vec<PortRow>,
    /// Top UDP rows.
    pub udp: Vec<PortRow>,
    /// Distinct TCP ports seen at least once.
    pub distinct_tcp_ports: usize,
    /// Distinct UDP port labels seen at least once.
    pub distinct_udp_ports: usize,
}

/// Computes Table 4 over /64 sessions of all telescopes.
pub fn table4(a: &Analyzed) -> Table4 {
    // Port codes order like port labels, so code-keyed maps iterate in
    // label order and sorted code vectors dedup like label sets.
    let mut tcp_sessions: BTreeMap<u32, u64> = BTreeMap::new();
    let mut udp_sessions: BTreeMap<u32, u64> = BTreeMap::new();
    let mut tcp_total = 0u64;
    let mut udp_total = 0u64;
    for id in TelescopeId::ALL {
        let col = a.index.telescope(id);
        for session in a.sessions64(id) {
            let mut tcp_ports: Vec<u32> = Vec::new();
            let mut udp_ports: Vec<u32> = Vec::new();
            for &pi in &session.packet_indices {
                let i = pi as usize;
                if col.port[i] == PORT_NONE {
                    continue;
                }
                match col.proto[i] {
                    PROTO_TCP => tcp_ports.push(col.port[i]),
                    PROTO_UDP => udp_ports.push(col.port[i]),
                    _ => {}
                }
            }
            tcp_ports.sort_unstable();
            tcp_ports.dedup();
            udp_ports.sort_unstable();
            udp_ports.dedup();
            if !tcp_ports.is_empty() {
                tcp_total += 1;
                for code in tcp_ports {
                    *tcp_sessions.entry(code).or_default() += 1;
                }
            }
            if !udp_ports.is_empty() {
                udp_total += 1;
                for code in udp_ports {
                    *udp_sessions.entry(code).or_default() += 1;
                }
            }
        }
    }
    let top = |counts: &BTreeMap<u32, u64>, total: u64| -> Vec<PortRow> {
        let mut entries: Vec<(u32, u64)> = counts.iter().map(|(c, &n)| (*c, n)).collect();
        entries.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        entries
            .into_iter()
            .take(5)
            .enumerate()
            .map(|(i, (code, sessions))| PortRow {
                rank: i + 1,
                port: decode_port(code).expect("counted ports are labeled"),
                sessions,
                pct: pct(sessions, total),
            })
            .collect()
    };
    Table4 {
        tcp: top(&tcp_sessions, tcp_total),
        udp: top(&udp_sessions, udp_total),
        distinct_tcp_ports: tcp_sessions.len(),
        distinct_udp_ports: udp_sessions.len(),
    }
}

/// One telescope's column of Table 5(a).
#[derive(Debug, Clone, PartialEq)]
pub struct Table5aColumn {
    /// Telescope.
    pub telescope: TelescopeId,
    /// Distinct /128 sources.
    pub sources128: u64,
    /// Distinct /64 sources.
    pub sources64: u64,
    /// Distinct origin ASes.
    pub asns: u64,
    /// Distinct destination addresses.
    pub destinations: u64,
    /// Packets.
    pub packets: u64,
}

/// One cell group of Table 5(b): distinct sources per protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5bColumn {
    /// Telescope.
    pub telescope: TelescopeId,
    /// `(protocol, distinct /128 sources, percent of telescope sources)`.
    pub rows: Vec<(Protocol, u64, f64)>,
}

/// Table 5: per-telescope comparison over the initial 12 weeks.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5 {
    /// Part (a).
    pub a: Vec<Table5aColumn>,
    /// Part (b).
    pub b: Vec<Table5bColumn>,
}

/// Computes Table 5 over the initial observation period.
pub fn table5(a: &Analyzed) -> Table5 {
    let idx = &a.index;
    let boundary = a.split_start();
    let mut part_a = Vec::new();
    let mut part_b = Vec::new();
    for id in TelescopeId::ALL {
        let col = idx.telescope(id);
        let hi = col.range_until(boundary).end;
        let mut seen128 = vec![false; idx.sources.len128()];
        let mut seen64 = vec![false; idx.sources.len64()];
        let mut proto_mask = vec![0u8; idx.sources.len128()];
        for i in 0..hi {
            seen128[col.src128[i] as usize] = true;
            seen64[col.src64[i] as usize] = true;
            proto_mask[col.src128[i] as usize] |= 1 << col.proto[i];
        }
        let s128 = seen128.iter().filter(|&&s| s).count() as u64;
        let mut asns: BTreeSet<u32> = BTreeSet::new();
        for (i, &seen) in seen128.iter().enumerate() {
            if seen && idx.sources.asn(i as u32) != NO_ID {
                asns.insert(idx.sources.asn(i as u32));
            }
        }
        // Destinations are not interned (the randomized-target space is
        // nearly all-distinct); dedup them from the raw capture window.
        let mut dsts: Vec<u128> = a.capture(id).packets()[..hi]
            .iter()
            .map(|p| u128::from(p.dst))
            .collect();
        dsts.sort_unstable();
        dsts.dedup();
        part_a.push(Table5aColumn {
            telescope: id,
            sources128: s128,
            sources64: seen64.iter().filter(|&&s| s).count() as u64,
            asns: asns.len() as u64,
            destinations: dsts.len() as u64,
            packets: hi as u64,
        });
        let rows = [Protocol::Icmpv6, Protocol::Tcp, Protocol::Udp]
            .iter()
            .map(|&proto| {
                let bit = 1 << proto_code(proto);
                let n = proto_mask.iter().filter(|&&m| m & bit != 0).count() as u64;
                (proto, n, pct(n, s128))
            })
            .collect();
        part_b.push(Table5bColumn {
            telescope: id,
            rows,
        });
    }
    Table5 {
        a: part_a,
        b: part_b,
    }
}

/// A classification row of Table 6: scanners and sessions per class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassRow {
    /// Class label.
    pub label: String,
    /// Scanners (/128 sources).
    pub scanners: u64,
    /// Scanner share in percent.
    pub scanner_pct: f64,
    /// Sessions.
    pub sessions: u64,
    /// Session share in percent.
    pub session_pct: f64,
}

/// Table 6: taxonomy classification of T1 scanners during the split period.
#[derive(Debug, Clone, PartialEq)]
pub struct Table6 {
    /// Temporal behavior rows (one-off, intermittent, periodic).
    pub temporal: Vec<ClassRow>,
    /// Network selection rows.
    pub network: Vec<ClassRow>,
}

/// Computes Table 6.
pub fn table6(a: &Analyzed) -> Table6 {
    let (sessions, profiles) = a.t1_split_profiles();
    let split = a.index.split();
    let schedule = &a.result.schedule;
    let total_scanners = profiles.len() as u64;
    let total_sessions = sessions.len() as u64;

    // Temporal rows.
    let mut temporal = Vec::new();
    for class in TemporalClass::ALL {
        let scanners = profiles.iter().filter(|p| p.temporal == class).count() as u64;
        let class_sessions: u64 = profiles
            .iter()
            .filter(|p| p.temporal == class)
            .map(|p| p.session_indices.len() as u64)
            .sum();
        temporal.push(ClassRow {
            label: class.to_string(),
            scanners,
            scanner_pct: pct(scanners, total_scanners),
            sessions: class_sessions,
            session_pct: pct(class_sessions, total_sessions),
        });
    }

    // Network selection: per scanner, per announcement cycle. Cycle
    // attribution and per-session prefix hits come pre-computed from the
    // split cache (window-relative indices).
    let mut by_class: BTreeMap<NetworkSelection, (u64, u64)> = BTreeMap::new();
    for profile in profiles {
        // Group this scanner's sessions by cycle.
        let mut per_cycle: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for &idx in &profile.session_indices {
            if let Some(cycle) = split.cycles[idx] {
                if cycle >= 1 {
                    per_cycle.entry(cycle).or_default().push(idx);
                }
            }
        }
        let cycles: Vec<CycleCounts> = per_cycle
            .iter()
            .map(|(&cycle, sess)| {
                let announced = schedule.announced_set(cycle);
                let mut counts = vec![0u64; announced.len()];
                for &si in sess {
                    for prefix in &split.prefix_hits[si] {
                        let i = announced.iter().position(|p| p == prefix).unwrap();
                        counts[i] += 1;
                    }
                }
                CycleCounts {
                    announced,
                    sessions: counts,
                }
            })
            .collect();
        if let Some(class) = network_selection(&cycles) {
            let entry = by_class.entry(class).or_default();
            entry.0 += 1;
            entry.1 += profile.session_indices.len() as u64;
        }
    }
    let order = [
        NetworkSelection::SinglePrefix,
        NetworkSelection::SizeIndependent,
        NetworkSelection::Inconsistent,
        NetworkSelection::SizeDependent,
    ];
    let network = order
        .iter()
        .map(|class| {
            let (scanners, class_sessions) = by_class.get(class).copied().unwrap_or((0, 0));
            ClassRow {
                label: class.to_string(),
                scanners,
                scanner_pct: pct(scanners, total_scanners),
                sessions: class_sessions,
                session_pct: pct(class_sessions, total_sessions),
            }
        })
        .collect();

    Table6 { temporal, network }
}

/// One row of Table 7: an identified public scan tool.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolRow {
    /// The tool.
    pub tool: KnownTool,
    /// Scanners attributed to it.
    pub scanners: u64,
    /// Scanner share in percent (of all T1 split-period scanners).
    pub scanner_pct: f64,
    /// Their sessions.
    pub sessions: u64,
    /// Session share in percent.
    pub session_pct: f64,
}

/// Table 7: public tools identified at T1 during the split period.
///
/// A scanner is attributed to the tool of its first packet that
/// [`match_tool`] recognizes by payload signature or rDNS. The table counts
/// tools only, so no packet pays for the byte-entropy check that
/// `fingerprint::identify` falls back to, and the scan is one serial pass
/// over the scanners' packets.
pub fn table7(a: &Analyzed) -> Vec<ToolRow> {
    let (sessions, profiles) = a.t1_split_profiles();
    let capture = a.capture(TelescopeId::T1);
    let total_scanners = profiles.len() as u64;
    let total_sessions = sessions.len() as u64;
    let mut by_tool: BTreeMap<KnownTool, (u64, u64)> = BTreeMap::new();
    for profile in profiles {
        let rdns = a.rdns_of(profile.source.prefix.network());
        let tool = profile.session_indices.iter().find_map(|&idx| {
            sessions[idx]
                .packets(capture)
                .find_map(|p| match_tool(&p.payload, rdns))
        });
        if let Some(t) = tool {
            let entry = by_tool.entry(t).or_default();
            entry.0 += 1;
            entry.1 += profile.session_indices.len() as u64;
        }
    }
    let mut rows: Vec<ToolRow> = by_tool
        .into_iter()
        .map(|(tool, (scanners, tool_sessions))| ToolRow {
            tool,
            scanners,
            scanner_pct: pct(scanners, total_scanners),
            sessions: tool_sessions,
            session_pct: pct(tool_sessions, total_sessions),
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.scanners));
    rows
}

/// One row of Table 8: scanner origin network types.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkTypeRow {
    /// The network type.
    pub network_type: NetworkType,
    /// With heavy hitters excluded? (extra rows for Hosting/Education).
    pub without_heavy_hitters: bool,
    /// Scanners.
    pub scanners: u64,
    /// Scanner share in percent.
    pub scanner_pct: f64,
    /// Sessions.
    pub sessions: u64,
    /// Session share in percent.
    pub session_pct: f64,
    /// Packets.
    pub packets: u64,
    /// Packet share in percent.
    pub packet_pct: f64,
}

/// Table 8: network types of T1 split-period scan sources, with
/// without-heavy-hitter rows where heavy hitters are present.
pub fn table8(a: &Analyzed) -> Vec<NetworkTypeRow> {
    let (sessions, profiles) = a.t1_split_profiles();
    let heavy: BTreeSet<SourceKey> = TelescopeId::ALL
        .iter()
        .flat_map(|&id| a.index.heavy(id))
        .map(|h| h.source)
        .collect();
    let total_scanners = profiles.len() as u64;
    let total_sessions = sessions.len() as u64;
    let total_packets: u64 = profiles.iter().map(|p| p.packets).sum();

    struct Acc {
        scanners: u64,
        sessions: u64,
        packets: u64,
        nh_scanners: u64,
        nh_sessions: u64,
        nh_packets: u64,
        has_heavy: bool,
    }
    let mut acc: BTreeMap<NetworkType, Acc> = BTreeMap::new();
    for profile in profiles {
        let ty = a
            .as_info_of(profile.source.prefix.network())
            .map_or(NetworkType::Unknown, |i| i.network_type);
        let e = acc.entry(ty).or_insert(Acc {
            scanners: 0,
            sessions: 0,
            packets: 0,
            nh_scanners: 0,
            nh_sessions: 0,
            nh_packets: 0,
            has_heavy: false,
        });
        let s = profile.session_indices.len() as u64;
        e.scanners += 1;
        e.sessions += s;
        e.packets += profile.packets;
        if heavy.contains(&profile.source) {
            e.has_heavy = true;
        } else {
            e.nh_scanners += 1;
            e.nh_sessions += s;
            e.nh_packets += profile.packets;
        }
    }
    let mut rows = Vec::new();
    for ty in NetworkType::ALL {
        let Some(e) = acc.get(&ty) else { continue };
        rows.push(NetworkTypeRow {
            network_type: ty,
            without_heavy_hitters: false,
            scanners: e.scanners,
            scanner_pct: pct(e.scanners, total_scanners),
            sessions: e.sessions,
            session_pct: pct(e.sessions, total_sessions),
            packets: e.packets,
            packet_pct: pct(e.packets, total_packets),
        });
        if e.has_heavy {
            rows.push(NetworkTypeRow {
                network_type: ty,
                without_heavy_hitters: true,
                scanners: e.nh_scanners,
                scanner_pct: pct(e.nh_scanners, total_scanners),
                sessions: e.nh_sessions,
                session_pct: pct(e.nh_sessions, total_sessions),
                packets: e.nh_packets,
                packet_pct: pct(e.nh_packets, total_packets),
            });
        }
    }
    rows
}

/// The headline findings of §7.1 / the abstract.
#[derive(Debug, Clone, PartialEq)]
pub struct Headline {
    /// Packet growth of the iteratively split /33 vs. the stable companion
    /// (paper: +286%).
    pub split_vs_companion_packets_pct: f64,
    /// Average weekly /128 sources, split period vs. baseline (paper: +275%).
    pub weekly_sources_growth_pct: f64,
    /// Average weekly sessions, split period vs. baseline (paper: +555%).
    pub weekly_sessions_growth_pct: f64,
    /// Share of scanners observed only once (paper: ~70%).
    pub one_off_scanner_pct: f64,
    /// Session share of the two /48s in the final cycle (paper: 15.7%).
    pub final_48_session_pct: f64,
    /// Heavy hitters found across all telescopes (paper: 10).
    pub heavy_hitters: Vec<HeavyHitter>,
    /// Heavy-hitter packet share of all packets (paper: 73%).
    pub heavy_packet_pct: f64,
    /// Heavy-hitter session share (paper: 0.04%).
    pub heavy_session_pct: f64,
}

/// Computes the headline numbers.
pub fn headline(a: &Analyzed) -> Headline {
    let idx = &a.index;
    let schedule = &a.result.schedule;
    let boundary = a.split_start();

    // Split side vs. companion packets during the split period: the /33
    // half of T1's /32 that holds each packet's destination.
    let companion = schedule.companion();
    let split_side = schedule.split_side();
    let col = idx.telescope(TelescopeId::T1);
    let mut companion_packets = 0u64;
    let mut split_packets = 0u64;
    for &dst in &col.dst[col.range_from(boundary)] {
        let dst = Ipv6Addr::from(dst);
        if companion.contains(dst) {
            companion_packets += 1;
        } else if split_side.contains(dst) {
            split_packets += 1;
        }
    }

    // Weekly averages of sources and sessions, baseline vs. split period.
    let baseline_weeks = (boundary - schedule.cycle_start(0)).as_secs() as f64 / 604_800.0;
    let split_weeks = (schedule.end() - boundary).as_secs() as f64 / 604_800.0;
    // Average number of distinct weekly sources (sum of per-week distinct
    // source counts divided by the number of weeks in the range).
    let t1_sessions = idx.sessions128(TelescopeId::T1);
    let weekly_sources = |from, until, weeks: f64| -> f64 {
        let mut per_week: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
        for i in t1_sessions.range(from, until) {
            per_week
                .entry(t1_sessions.start[i].week())
                .or_default()
                .insert(t1_sessions.source[i]);
        }
        let sources: u64 = per_week.values().map(|v| v.len() as u64).sum();
        sources as f64 / weeks.max(1e-9)
    };
    let weekly_sessions = |from, until, weeks: f64| -> f64 {
        t1_sessions.range(from, until).len() as f64 / weeks.max(1e-9)
    };
    let base_sources = weekly_sources(schedule.cycle_start(0), boundary, baseline_weeks);
    let split_sources = weekly_sources(boundary, schedule.end(), split_weeks);
    let base_sessions = weekly_sessions(schedule.cycle_start(0), boundary, baseline_weeks);
    let split_sessions = weekly_sessions(boundary, schedule.end(), split_weeks);

    // One-off share and final-cycle /48 share.
    let (sessions, profiles) = a.t1_split_profiles();
    let split = idx.split();
    let one_off = profiles
        .iter()
        .filter(|p| p.temporal == TemporalClass::OneOff)
        .count() as u64;
    let final_cycle = schedule.cycles;
    let final_set = schedule.announced_set(final_cycle);
    let final_48s: Vec<Ipv6Prefix> = final_set
        .iter()
        .filter(|p| p.len() == 48)
        .copied()
        .collect();
    let final_start = schedule.cycle_start(final_cycle);
    // Per-prefix session counting (as in Fig. 10): a session counts toward
    // every announced prefix it probes; the /48 share is the share of those
    // (session, prefix) incidences that land on the two /48s. The cached
    // prefix hits of final-cycle sessions were evaluated against the final
    // announced set, exactly what this counter needs.
    let mut incidences = 0u64;
    let mut in_48 = 0u64;
    let lo = sessions.partition_point(|s| s.start < final_start);
    for hits in &split.prefix_hits[lo..] {
        for prefix in hits {
            incidences += 1;
            if final_48s.contains(prefix) {
                in_48 += 1;
            }
        }
    }
    let final_sessions = incidences;

    // Heavy hitters across all telescopes.
    let mut heavy: Vec<HeavyHitter> = TelescopeId::ALL
        .iter()
        .flat_map(|&id| idx.heavy(id).to_vec())
        .collect();
    heavy.sort_by_key(|h| std::cmp::Reverse(h.packets));
    let mut is_heavy = vec![false; idx.sources.len128()];
    for h in &heavy {
        let id = idx.sources.id128(&h.source).expect("heavy source interned");
        is_heavy[id as usize] = true;
    }
    let mut total_packets = 0u64;
    let mut heavy_packets = 0u64;
    for id in TelescopeId::ALL {
        let col = idx.telescope(id);
        total_packets += col.len() as u64;
        for &src in &col.src128 {
            if is_heavy[src as usize] {
                heavy_packets += 1;
            }
        }
    }
    let mut total_sessions = 0u64;
    let mut heavy_sessions = 0u64;
    for id in TelescopeId::ALL {
        let cols = idx.sessions128(id);
        total_sessions += cols.len() as u64;
        for &src in &cols.source {
            if is_heavy[src as usize] {
                heavy_sessions += 1;
            }
        }
    }

    Headline {
        split_vs_companion_packets_pct: percent_change(
            companion_packets as f64,
            split_packets as f64,
        ),
        weekly_sources_growth_pct: percent_change(base_sources, split_sources),
        weekly_sessions_growth_pct: percent_change(base_sessions, split_sessions),
        one_off_scanner_pct: pct(one_off, profiles.len() as u64),
        final_48_session_pct: pct(in_48, final_sessions),
        heavy_hitters: heavy,
        heavy_packet_pct: pct(heavy_packets, total_packets),
        heavy_session_pct: pct(heavy_sessions, total_sessions),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixscope_sim::ScenarioConfig;
    use std::sync::OnceLock;

    /// One shared small experiment for all table tests (running it per
    /// test would dominate the suite's runtime).
    fn analyzed() -> &'static Analyzed {
        static CELL: OnceLock<Analyzed> = OnceLock::new();
        CELL.get_or_init(|| {
            crate::Pipeline::simulate(ScenarioConfig::new(1234, 0.02))
                .run()
                .expect("simulated runs cannot fail")
        })
    }

    #[test]
    fn table2_shape_matches_paper() {
        let t = table2(analyzed());
        assert_eq!(t.rows.len(), 3);
        let icmp = &t.rows[0];
        let udp = &t.rows[1];
        let tcp = &t.rows[2];
        assert_eq!(icmp.protocol, Protocol::Icmpv6);
        // ICMPv6 dominates packets.
        assert!(icmp.packets > udp.packets && icmp.packets > tcp.packets);
        // TCP dominates sessions (92.8% in the paper).
        assert!(tcp.session_pct > icmp.session_pct);
        assert!(
            tcp.session_pct > 50.0,
            "TCP session share {}",
            tcp.session_pct
        );
        // Packet shares sum to ≤ 100 (plus an "other" remainder).
        let sum: f64 = t.rows.iter().map(|r| r.packet_pct).sum();
        assert!(sum <= 100.5);
    }

    #[test]
    fn table3_randomized_packets_dominate_but_few_sources() {
        let rows = table3(analyzed());
        let randomized = rows
            .iter()
            .find(|r| r.address_type == AddressType::Randomized)
            .unwrap();
        let low_byte = rows
            .iter()
            .find(|r| r.address_type == AddressType::LowByte)
            .unwrap();
        assert!(
            randomized.packets > low_byte.packets,
            "randomized {} vs low-byte {}",
            randomized.packets,
            low_byte.packets
        );
        // Low-byte is probed by far more sources than randomized.
        assert!(low_byte.sources > randomized.sources);
        assert!(low_byte.source_pct > 50.0);
    }

    #[test]
    fn table4_http_dominates_tcp_and_traceroute_dominates_udp() {
        let t = table4(analyzed());
        assert_eq!(t.tcp[0].port, PortLabel::Port(80));
        assert!(t.tcp[0].pct > 50.0);
        assert!(t.tcp.iter().any(|r| r.port == PortLabel::Port(443)));
        assert_eq!(t.udp[0].port, PortLabel::Traceroute);
        assert!(t.distinct_tcp_ports >= 5);
    }

    #[test]
    fn table5_telescope_ordering() {
        let t = table5(analyzed());
        let get = |id: TelescopeId| t.a.iter().find(|c| c.telescope == id).unwrap();
        let t1 = get(TelescopeId::T1);
        let t2 = get(TelescopeId::T2);
        let t3 = get(TelescopeId::T3);
        let t4 = get(TelescopeId::T4);
        // Separately announced telescopes see orders of magnitude more.
        assert!(t1.packets > 50 * t3.packets.max(1));
        assert!(t2.packets > 50 * t3.packets.max(1));
        // The reactive T4 sees more than the silent T3.
        assert!(t4.packets > t3.packets);
        // T2 attracts more sources than T1.
        assert!(t2.sources128 > t1.sources128);
        // T2's /128-vs-/64 ratio exceeds T1's (address rotation).
        let ratio = |c: &Table5aColumn| c.sources128 as f64 / c.sources64.max(1) as f64;
        assert!(ratio(t2) > ratio(t1));
    }

    #[test]
    fn table6_temporal_shares() {
        let t = table6(analyzed());
        assert_eq!(t.temporal.len(), 3);
        let one_off = &t.temporal[0];
        assert_eq!(one_off.label, "One-off");
        assert!(
            one_off.scanner_pct > 50.0,
            "one-off share {}",
            one_off.scanner_pct
        );
        // Periodic scanners carry the session mass.
        let periodic = t.temporal.iter().find(|r| r.label == "Periodic").unwrap();
        assert!(periodic.session_pct > periodic.scanner_pct);
        // Network selection: single-prefix dominates scanners.
        let single = &t.network[0];
        assert_eq!(single.label, "Single-prefix scanning");
        assert!(
            single.scanner_pct > 50.0,
            "single-prefix {}",
            single.scanner_pct
        );
    }

    #[test]
    fn table7_finds_atlas_and_tools() {
        let rows = table7(analyzed());
        assert!(!rows.is_empty());
        assert_eq!(
            rows[0].tool,
            KnownTool::RipeAtlasProbe,
            "Atlas should top Table 7, got {:?}",
            rows
        );
        assert!(rows[0].scanner_pct > 30.0);
        let names: Vec<KnownTool> = rows.iter().map(|r| r.tool).collect();
        assert!(names.contains(&KnownTool::Yarrp6));
    }

    #[test]
    fn table8_hosting_and_isp_dominate() {
        let rows = table8(analyzed());
        let hosting = rows
            .iter()
            .find(|r| r.network_type == NetworkType::Hosting && !r.without_heavy_hitters)
            .unwrap();
        let isp = rows
            .iter()
            .find(|r| r.network_type == NetworkType::Isp && !r.without_heavy_hitters)
            .unwrap();
        assert!(hosting.scanner_pct + isp.scanner_pct > 80.0);
        // Without-heavy-hitter rows reduce packets where present.
        for r in rows.iter().filter(|r| r.without_heavy_hitters) {
            let with = rows
                .iter()
                .find(|x| x.network_type == r.network_type && !x.without_heavy_hitters)
                .unwrap();
            assert!(r.packets < with.packets);
        }
    }

    #[test]
    fn headline_directions_match_paper() {
        let h = headline(analyzed());
        assert!(
            h.split_vs_companion_packets_pct > 0.0,
            "split side should exceed companion, got {}",
            h.split_vs_companion_packets_pct
        );
        assert!(h.weekly_sources_growth_pct > 50.0);
        assert!(h.weekly_sessions_growth_pct > 50.0);
        assert!(h.one_off_scanner_pct > 50.0);
        assert!(!h.heavy_hitters.is_empty());
        assert!(
            h.heavy_packet_pct > 30.0,
            "heavy share {}",
            h.heavy_packet_pct
        );
        assert!(h.heavy_session_pct < 15.0);
    }
}
