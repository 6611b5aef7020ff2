//! Text renderers: print the regenerated tables in the paper's row
//! format. The report registry (`crate::report`) prints them in every
//! report; its figure text lives there too.

use crate::tables::{AddressTypeRow, NetworkTypeRow, ToolRow};
use crate::tables::{CorpusOverview, Headline, Table2, Table4, Table5, Table6};
use std::fmt::Write;

/// Renders the §4 corpus overview.
pub fn render_overview(label: &str, o: &CorpusOverview) -> String {
    format!(
        "Corpus overview ({label}): {} packets from {} /128 sources ({} /64 subnets), \
         {} (/128) / {} (/64) sessions, {} ASes, {} countries\n",
        o.packets, o.sources128, o.sources64, o.sessions128, o.sessions64, o.ases, o.countries
    )
}

/// Renders Table 2.
pub fn render_table2(t: &Table2) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table 2 — packets, sessions, sources per transport protocol"
    )
    .unwrap();
    writeln!(
        out,
        "{:<8} {:>12} {:>6} {:>10} {:>6} {:>10} {:>6}",
        "Protocol", "Packets", "[%]", "Sessions", "[%]", "Sources", "[%]"
    )
    .unwrap();
    for r in &t.rows {
        writeln!(
            out,
            "{:<8} {:>12} {:>6.1} {:>10} {:>6.1} {:>10} {:>6.1}",
            r.protocol.name(),
            r.packets,
            r.packet_pct,
            r.sessions,
            r.session_pct,
            r.sources,
            r.source_pct
        )
        .unwrap();
    }
    writeln!(
        out,
        "total    {:>12}        {:>10}        {:>10}",
        t.total_packets, t.total_sessions, t.total_sources
    )
    .unwrap();
    out
}

/// Renders Table 3.
pub fn render_table3(rows: &[AddressTypeRow]) -> String {
    let mut out = String::new();
    writeln!(out, "Table 3 — distribution of target address types").unwrap();
    writeln!(
        out,
        "{:<15} {:>12} {:>7} {:>10} {:>7}",
        "Address Type", "Packets", "[%]", "Sources", "[%]"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:<15} {:>12} {:>7.2} {:>10} {:>7.2}",
            r.address_type.to_string(),
            r.packets,
            r.packet_pct,
            r.sources,
            r.source_pct
        )
        .unwrap();
    }
    out
}

/// Renders Table 4.
pub fn render_table4(t: &Table4) -> String {
    let mut out = String::new();
    writeln!(out, "Table 4 — top 5 ports by /64 sessions").unwrap();
    writeln!(
        out,
        "{:<5} {:<12} {:>9} {:>6}   {:<12} {:>9} {:>6}",
        "Rank", "TCP Port", "[#]", "[%]", "UDP Port", "[#]", "[%]"
    )
    .unwrap();
    for i in 0..5 {
        let tcp = t.tcp.get(i);
        let udp = t.udp.get(i);
        writeln!(
            out,
            "#{:<4} {:<12} {:>9} {:>6.1}   {:<12} {:>9} {:>6.1}",
            i + 1,
            tcp.map_or(String::new(), |r| r.port.to_string()),
            tcp.map_or(0, |r| r.sessions),
            tcp.map_or(0.0, |r| r.pct),
            udp.map_or(String::new(), |r| r.port.to_string()),
            udp.map_or(0, |r| r.sessions),
            udp.map_or(0.0, |r| r.pct),
        )
        .unwrap();
    }
    writeln!(
        out,
        "distinct ports: {} TCP, {} UDP (traceroute range aggregated)",
        t.distinct_tcp_ports, t.distinct_udp_ports
    )
    .unwrap();
    out
}

/// Renders Table 5 (both halves).
pub fn render_table5(t: &Table5) -> String {
    let mut out = String::new();
    writeln!(out, "Table 5a — telescope comparison, initial period").unwrap();
    write!(out, "{:<18}", "").unwrap();
    for c in &t.a {
        write!(out, "{:>12}", c.telescope.to_string()).unwrap();
    }
    writeln!(out).unwrap();
    type ColumnGetter = fn(&crate::tables::Table5aColumn) -> u64;
    let rows: [(&str, ColumnGetter); 5] = [
        ("/128 sources", |c| c.sources128),
        ("/64 sources", |c| c.sources64),
        ("ASN", |c| c.asns),
        ("Destination addr.", |c| c.destinations),
        ("Packets", |c| c.packets),
    ];
    for (label, get) in rows {
        write!(out, "{label:<18}").unwrap();
        for c in &t.a {
            write!(out, "{:>12}", get(c)).unwrap();
        }
        writeln!(out).unwrap();
    }
    writeln!(out, "\nTable 5b — distinct sources per protocol").unwrap();
    for c in &t.b {
        write!(out, "{:<4}", c.telescope.to_string()).unwrap();
        for (proto, n, p) in &c.rows {
            write!(out, "  {}: {} ({:.1}%)", proto.name(), n, p).unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// Renders Table 6.
pub fn render_table6(t: &Table6) -> String {
    let mut out = String::new();
    writeln!(out, "Table 6 — taxonomy classification (T1, split period)").unwrap();
    writeln!(
        out,
        "{:<26} {:>9} {:>7} {:>9} {:>7}",
        "Classification", "Scanners", "[%]", "Sessions", "[%]"
    )
    .unwrap();
    writeln!(out, "Temporal behavior").unwrap();
    for r in &t.temporal {
        writeln!(
            out,
            "  {:<24} {:>9} {:>7.2} {:>9} {:>7.2}",
            r.label, r.scanners, r.scanner_pct, r.sessions, r.session_pct
        )
        .unwrap();
    }
    writeln!(out, "Network selection").unwrap();
    for r in &t.network {
        writeln!(
            out,
            "  {:<24} {:>9} {:>7.2} {:>9} {:>7.2}",
            r.label, r.scanners, r.scanner_pct, r.sessions, r.session_pct
        )
        .unwrap();
    }
    out
}

/// Renders Table 7.
pub fn render_table7(rows: &[ToolRow]) -> String {
    let mut out = String::new();
    writeln!(out, "Table 7 — identified scan tools (T1, split period)").unwrap();
    writeln!(
        out,
        "{:<16} {:>9} {:>7} {:>9} {:>7}",
        "Scan Tool", "Scanners", "[%]", "Sessions", "[%]"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:<16} {:>9} {:>7.2} {:>9} {:>7.2}",
            r.tool.to_string(),
            r.scanners,
            r.scanner_pct,
            r.sessions,
            r.session_pct
        )
        .unwrap();
    }
    out
}

/// Renders Table 8.
pub fn render_table8(rows: &[NetworkTypeRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table 8 — network types of scan sources (T1, split period)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<12} {:>9} {:>7} {:>9} {:>7} {:>12} {:>7}",
        "Network", "Scanners", "[%]", "Sessions", "[%]", "Packets", "[%]"
    )
    .unwrap();
    for r in rows {
        let label = if r.without_heavy_hitters {
            "  w/o Hit.".to_string()
        } else {
            r.network_type.to_string()
        };
        writeln!(
            out,
            "{:<12} {:>9} {:>7.2} {:>9} {:>7.2} {:>12} {:>7.2}",
            label, r.scanners, r.scanner_pct, r.sessions, r.session_pct, r.packets, r.packet_pct
        )
        .unwrap();
    }
    out
}

/// Renders the §7.1 headline numbers.
pub fn render_headline(h: &Headline) -> String {
    let mut out = String::new();
    writeln!(out, "Headline findings (§7.1)").unwrap();
    writeln!(
        out,
        "  packets, split /33 vs companion /33:   {:+.0}%   (paper: +286%)",
        h.split_vs_companion_packets_pct
    )
    .unwrap();
    writeln!(
        out,
        "  weekly sources growth (split period):  {:+.0}%   (paper: +275%)",
        h.weekly_sources_growth_pct
    )
    .unwrap();
    writeln!(
        out,
        "  weekly sessions growth (split period): {:+.0}%   (paper: +555%)",
        h.weekly_sessions_growth_pct
    )
    .unwrap();
    writeln!(
        out,
        "  one-off scanner share:                 {:.1}%  (paper: 69.7%)",
        h.one_off_scanner_pct
    )
    .unwrap();
    writeln!(
        out,
        "  final-cycle /48 session share:         {:.1}%  (paper: 15.7%)",
        h.final_48_session_pct
    )
    .unwrap();
    writeln!(
        out,
        "  heavy hitters: {} sources, {:.0}% of packets, {:.2}% of sessions (paper: 10 / 73% / 0.04%)",
        h.heavy_hitters.len(),
        h.heavy_packet_pct,
        h.heavy_session_pct
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::{ClassRow, ProtocolRow};
    use sixscope_telescope::Protocol;

    #[test]
    fn table2_renders_all_rows() {
        let t = Table2 {
            rows: vec![ProtocolRow {
                protocol: Protocol::Icmpv6,
                packets: 1000,
                packet_pct: 66.2,
                sessions: 10,
                session_pct: 20.1,
                sources: 5,
                source_pct: 56.5,
            }],
            total_packets: 1000,
            total_sessions: 10,
            total_sources: 5,
        };
        let s = render_table2(&t);
        assert!(s.contains("ICMPv6"));
        assert!(s.contains("66.2"));
        assert!(s.contains("total"));
    }

    #[test]
    fn table6_renders_sections() {
        let row = ClassRow {
            label: "One-off".into(),
            scanners: 10,
            scanner_pct: 69.7,
            sessions: 10,
            session_pct: 8.9,
        };
        let t = Table6 {
            temporal: vec![row.clone()],
            network: vec![ClassRow {
                label: "Single-prefix scanning".into(),
                ..row
            }],
        };
        let s = render_table6(&t);
        assert!(s.contains("Temporal behavior"));
        assert!(s.contains("Network selection"));
        assert!(s.contains("One-off"));
        assert!(s.contains("Single-prefix"));
    }
}
