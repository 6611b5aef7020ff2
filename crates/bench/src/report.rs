//! The EXPERIMENTS.md report body: every table and figure of the paper
//! rendered from an [`Analyzed`] corpus, with the paper-vs-measured
//! comparison rows each section returns.
//!
//! The `repro` binary and the report-determinism test both build the report
//! through these two functions, so byte-identity checks exercise exactly
//! what ships in EXPERIMENTS.md.
//!
//! Each table and figure is an independent pure function of the corpus, so
//! the sections dispatch their items through the order-preserving
//! [`map_indexed`] helper: items compute (text + comparison rows) in
//! parallel, then the section appends the text and collects the rows
//! serially in report order. Output is byte-identical at any thread count.

use crate::Comparison;
use sixscope::tables::{self, Headline};
use sixscope::{figures, render, Analyzed};
use sixscope_analysis::classify::TemporalClass;
use sixscope_telescope::TelescopeId;
use sixscope_types::{map_indexed, num_threads};
use std::fmt::Write as _;

/// One parallel report item: its rendered text plus the comparison rows it
/// contributes, in order.
struct Item {
    text: String,
    rows: Vec<Comparison>,
}

type ItemFn = fn(&Analyzed) -> Item;

/// Builds a comparison row.
fn row(experiment: &str, metric: &str, paper: &str, measured: String, holds: bool) -> Comparison {
    Comparison {
        experiment: experiment.to_string(),
        metric: metric.to_string(),
        paper: paper.to_string(),
        measured,
        holds,
    }
}

/// Computes the items in parallel, then appends their text and returns
/// their rows, both in item order.
fn run_items(a: &Analyzed, items: &[ItemFn], out: &mut String) -> Vec<Comparison> {
    let built = map_indexed(num_threads(None), items, |_, item| item(a));
    let mut rows = Vec::new();
    for item in built {
        out.push_str(&item.text);
        rows.extend(item.rows);
    }
    rows
}

/// Appends the tables section (overview, Tables 2–8, headline numbers) and
/// returns its comparison rows in report order.
pub fn tables_section(a: &Analyzed, out: &mut String) -> Vec<Comparison> {
    writeln!(out, "## Tables\n").unwrap();
    const ITEMS: &[ItemFn] = &[
        overview_item,
        table2_item,
        table3_item,
        table4_item,
        table5_item,
        table6_item,
        table7_item,
        table8_item,
        headline_item,
    ];
    run_items(a, ITEMS, out)
}

/// Appends the figures section (Figs. 3–17) and returns its comparison
/// rows in report order.
pub fn figures_section(a: &Analyzed, out: &mut String) -> Vec<Comparison> {
    writeln!(out, "## Figures\n").unwrap();
    const ITEMS: &[ItemFn] = &[
        fig3_item,
        fig4_item,
        fig5_item,
        fig7a_item,
        fig7b_item,
        fig8_item,
        fig9_item,
        fig10_item,
        fig11_item,
        fig12_13_item,
        fig14_item,
        fig15_item,
        fig16_item,
        fig17_item,
    ];
    run_items(a, ITEMS, out)
}

fn overview_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    // §4 corpus overview: initial period and full period.
    let start = sixscope_types::SimTime::EPOCH;
    let boundary = a.split_start();
    let end = a.result.layout.end;
    let initial = tables::corpus_overview(a, start, boundary);
    let full = tables::corpus_overview(a, start, end);
    writeln!(out, "```").unwrap();
    out.push_str(&render::render_overview("initial 12 weeks", &initial));
    out.push_str(&render::render_overview("full period", &full));
    writeln!(out, "```").unwrap();
    let rows = vec![
        row(
            "§4",
            "full/initial packet ratio",
            "~11x (51M vs 4.6M)",
            format!(
                "{:.1}x",
                full.packets as f64 / initial.packets.max(1) as f64
            ),
            full.packets > 3 * initial.packets,
        ),
        row(
            "§4",
            "/128 sessions exceed /64 sessions",
            "754k vs 151k",
            format!("{} vs {}", full.sessions128, full.sessions64),
            full.sessions128 >= full.sessions64,
        ),
    ];
    Item { text: out, rows }
}

fn table2_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let t2 = tables::table2(a);
    writeln!(out, "```\n{}```", render::render_table2(&t2)).unwrap();
    let icmp = &t2.rows[0];
    let udp = &t2.rows[1];
    let tcp = &t2.rows[2];
    let rows = vec![
        row(
            "Table 2",
            "ICMPv6 packet share",
            "66.2%",
            format!("{:.1}%", icmp.packet_pct),
            icmp.packet_pct > udp.packet_pct && icmp.packet_pct > tcp.packet_pct,
        ),
        row(
            "Table 2",
            "TCP session share",
            "92.8%",
            format!("{:.1}%", tcp.session_pct),
            tcp.session_pct > 50.0 && tcp.session_pct > icmp.session_pct,
        ),
        row(
            "Table 2",
            "UDP packet share",
            "23.4%",
            format!("{:.1}%", udp.packet_pct),
            udp.packet_pct > tcp.packet_pct,
        ),
    ];
    Item { text: out, rows }
}

fn table3_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let t3 = tables::table3(a);
    writeln!(out, "```\n{}```", render::render_table3(&t3)).unwrap();
    let randomized = t3
        .iter()
        .find(|r| r.address_type.to_string() == "randomized")
        .unwrap();
    let low_byte = t3
        .iter()
        .find(|r| r.address_type.to_string() == "low-byte")
        .unwrap();
    let rows = vec![
        row(
            "Table 3",
            "randomized packet share",
            "64.2%",
            format!("{:.1}%", randomized.packet_pct),
            randomized.packets > low_byte.packets,
        ),
        row(
            "Table 3",
            "low-byte source share",
            "89.7%",
            format!("{:.1}%", low_byte.source_pct),
            low_byte.source_pct > 50.0 && low_byte.source_pct > randomized.source_pct,
        ),
    ];
    Item { text: out, rows }
}

fn table4_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let t4 = tables::table4(a);
    writeln!(out, "```\n{}```", render::render_table4(&t4)).unwrap();
    let rows = vec![
        row(
            "Table 4",
            "top TCP port",
            "80 (87.2%)",
            format!("{} ({:.1}%)", t4.tcp[0].port, t4.tcp[0].pct),
            t4.tcp[0].port.to_string() == "80",
        ),
        row(
            "Table 4",
            "top UDP label",
            "Traceroute (71.4%)",
            format!("{} ({:.1}%)", t4.udp[0].port, t4.udp[0].pct),
            t4.udp[0].port.to_string() == "Traceroute",
        ),
    ];
    Item { text: out, rows }
}

fn table5_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let t5 = tables::table5(a);
    writeln!(out, "```\n{}```", render::render_table5(&t5)).unwrap();
    let col = |id: TelescopeId| t5.a.iter().find(|c| c.telescope == id).unwrap();
    let ratio = |id: TelescopeId| col(id).sources128 as f64 / col(id).sources64.max(1) as f64;
    let rows = vec![
        row(
            "Table 5a",
            "T1/T3 packet ratio (orders of magnitude)",
            "~50,000x",
            format!(
                "{:.0}x",
                col(TelescopeId::T1).packets as f64 / col(TelescopeId::T3).packets.max(1) as f64
            ),
            col(TelescopeId::T1).packets > 100 * col(TelescopeId::T3).packets.max(1),
        ),
        row(
            "Table 5a",
            "T4/T3 packet ratio",
            "~80x (two orders)",
            format!(
                "{:.0}x",
                col(TelescopeId::T4).packets as f64 / col(TelescopeId::T3).packets.max(1) as f64
            ),
            col(TelescopeId::T4).packets > col(TelescopeId::T3).packets,
        ),
        row(
            "Table 5a",
            "T2 vs T1 /128 sources",
            "+380% (6611 vs 1386)",
            format!(
                "{} vs {}",
                col(TelescopeId::T2).sources128,
                col(TelescopeId::T1).sources128
            ),
            col(TelescopeId::T2).sources128 > col(TelescopeId::T1).sources128,
        ),
        row(
            "Table 5a",
            "T2 /128-to-/64 source ratio vs T1",
            "~3x vs ~1.2x",
            format!(
                "{:.1}x vs {:.1}x",
                ratio(TelescopeId::T2),
                ratio(TelescopeId::T1)
            ),
            ratio(TelescopeId::T2) > ratio(TelescopeId::T1),
        ),
    ];
    Item { text: out, rows }
}

fn table6_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let t6 = tables::table6(a);
    writeln!(out, "```\n{}```", render::render_table6(&t6)).unwrap();
    let one_off = &t6.temporal[0];
    let periodic = t6.temporal.iter().find(|r| r.label == "Periodic").unwrap();
    let single = &t6.network[0];
    let rows = vec![
        row(
            "Table 6",
            "one-off scanner share",
            "69.7%",
            format!("{:.1}%", one_off.scanner_pct),
            one_off.scanner_pct > 50.0,
        ),
        row(
            "Table 6",
            "periodic session share",
            "72.8%",
            format!("{:.1}%", periodic.session_pct),
            periodic.session_pct > periodic.scanner_pct && periodic.session_pct > 40.0,
        ),
        row(
            "Table 6",
            "single-prefix scanner share",
            "90.5%",
            format!("{:.1}%", single.scanner_pct),
            single.scanner_pct > 60.0,
        ),
    ];
    Item { text: out, rows }
}

fn table7_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let t7 = tables::table7(a);
    writeln!(out, "```\n{}```", render::render_table7(&t7)).unwrap();
    let rows = vec![
        row(
            "Table 7",
            "top tool",
            "RIPEAtlasProbe (54.8% of scanners)",
            t7.first()
                .map(|r| format!("{} ({:.1}%)", r.tool, r.scanner_pct))
                .unwrap_or_default(),
            t7.first().map(|r| r.tool.to_string()) == Some("RIPEAtlasProbe".into()),
        ),
        row(
            "Table 7",
            "tools identified",
            "7 public tools",
            format!("{}", t7.len()),
            t7.len() >= 5,
        ),
    ];
    Item { text: out, rows }
}

fn table8_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let t8 = tables::table8(a);
    writeln!(out, "```\n{}```", render::render_table8(&t8)).unwrap();
    let hosting = t8
        .iter()
        .find(|r| r.network_type.to_string() == "Hosting" && !r.without_heavy_hitters)
        .unwrap();
    let isp = t8
        .iter()
        .find(|r| r.network_type.to_string() == "ISP" && !r.without_heavy_hitters)
        .unwrap();
    let rows = vec![row(
        "Table 8",
        "hosting + ISP scanner share",
        "95.6%",
        format!("{:.1}%", hosting.scanner_pct + isp.scanner_pct),
        hosting.scanner_pct + isp.scanner_pct > 80.0,
    )];
    Item { text: out, rows }
}

fn headline_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let h: Headline = tables::headline(a);
    writeln!(out, "```\n{}```", render::render_headline(&h)).unwrap();
    let rows = vec![
        row(
            "§7.1",
            "split /33 vs companion packets",
            "+286%",
            format!("{:+.0}%", h.split_vs_companion_packets_pct),
            h.split_vs_companion_packets_pct > 50.0,
        ),
        row(
            "§7.1",
            "weekly sources growth",
            "+275%",
            format!("{:+.0}%", h.weekly_sources_growth_pct),
            h.weekly_sources_growth_pct > 50.0,
        ),
        row(
            "§7.1",
            "weekly sessions growth",
            "+555%",
            format!("{:+.0}%", h.weekly_sessions_growth_pct),
            h.weekly_sessions_growth_pct > 50.0,
        ),
        row(
            "§4.2",
            "heavy hitters: count / packet share / session share",
            "10 / 73% / 0.04%",
            format!(
                "{} / {:.0}% / {:.2}%",
                h.heavy_hitters.len(),
                h.heavy_packet_pct,
                h.heavy_session_pct
            ),
            (5..=20).contains(&h.heavy_hitters.len())
                && h.heavy_packet_pct > 40.0
                && h.heavy_session_pct < 5.0,
        ),
    ];
    Item { text: out, rows }
}

fn fig3_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let f3 = figures::fig3(a);
    writeln!(
        out,
        "### Fig. 3 — new source /64 prefixes per baseline week\n```"
    )
    .unwrap();
    for (week, n) in &f3 {
        writeln!(out, "week {week:>2}: {n}").unwrap();
    }
    writeln!(out, "```").unwrap();
    let first_two: u64 = f3.iter().filter(|&&(w, _)| w < 2).map(|&(_, n)| n).sum();
    let total: u64 = f3.iter().map(|&(_, n)| n).sum();
    let rows = vec![row(
        "Fig. 3",
        "new prefixes concentrate early (first 2 weeks share)",
        "majority in ~2 weeks",
        format!("{:.0}%", first_two as f64 / total.max(1) as f64 * 100.0),
        first_two * 3 > total,
    )];
    Item { text: out, rows }
}

fn fig4_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let f4 = figures::fig4(a);
    writeln!(out, "### Fig. 4 — relative growth (quartile samples)\n```").unwrap();
    out.push_str(&render::render_growth(&f4));
    writeln!(out, "```").unwrap();
    let packets = f4.iter().find(|c| c.label == "packets").unwrap();
    let mid = packets.points[packets.points.len() / 2].1;
    let rows = vec![row(
        "Fig. 4",
        "packet growth is discontinuous (mid-run share)",
        "step-like, < linear at midpoint",
        format!("{:.0}% at half time", mid * 100.0),
        mid < 0.75,
    )];
    Item { text: out, rows }
}

fn fig5_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let f5 = figures::fig5(a);
    writeln!(
        out,
        "### Fig. 5 — heavy-hitter daily activity: {} bubbles across {} sources\n",
        f5.len(),
        f5.iter()
            .map(|b| b.source)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    )
    .unwrap();
    let rows = vec![row(
        "Fig. 5",
        "heavy hitters burst in short windows",
        "few active days each",
        format!("{} bubbles", f5.len()),
        !f5.is_empty(),
    )];
    Item { text: out, rows }
}

fn fig7a_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let f7a = figures::fig7a(a);
    let sum = |id: TelescopeId| f7a[&id].iter().map(|&(_, n)| n).sum::<u64>();
    writeln!(
        out,
        "### Fig. 7a — initial-period packets/hour totals: T1={} T2={} T3={} T4={}\n",
        sum(TelescopeId::T1),
        sum(TelescopeId::T2),
        sum(TelescopeId::T3),
        sum(TelescopeId::T4)
    )
    .unwrap();
    let rows = vec![row(
        "Fig. 7a",
        "announced telescopes dwarf covered ones",
        "4–6 orders of magnitude",
        format!(
            "T1/T3 = {:.0}x",
            sum(TelescopeId::T1) as f64 / sum(TelescopeId::T3).max(1) as f64
        ),
        sum(TelescopeId::T1) > 100 * sum(TelescopeId::T3).max(1),
    )];
    Item { text: out, rows }
}

fn fig7b_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let f7b = figures::fig7b(a);
    writeln!(out, "### Fig. 7b — taxonomy (initial period)\n```").unwrap();
    out.push_str(&render::render_taxonomy(&f7b));
    writeln!(out, "```").unwrap();
    let structured: u64 = f7b
        .iter()
        .filter(|c| c.addr_selection.to_string() == "structured")
        .map(|c| c.sessions)
        .sum();
    let total7b: u64 = f7b.iter().map(|c| c.sessions).sum();
    let rows = vec![row(
        "Fig. 7b",
        "structured address selection dominates",
        "most sessions structured",
        format!("{:.0}%", structured as f64 / total7b.max(1) as f64 * 100.0),
        structured * 2 > total7b,
    )];
    Item { text: out, rows }
}

fn fig8_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let (as_upset, src_upset) = figures::fig8(a);
    writeln!(
        out,
        "### Fig. 8 — UpSet: {} ASes, {} sources; exclusive source share {:.0}%\n",
        as_upset.universe,
        src_upset.universe,
        src_upset.exclusive_share() * 100.0
    )
    .unwrap();
    let rows = vec![row(
        "Fig. 8",
        "sources exclusive to one telescope",
        "≈90%",
        format!("{:.0}%", src_upset.exclusive_share() * 100.0),
        src_upset.exclusive_share() > 0.6,
    )];
    Item { text: out, rows }
}

fn fig9_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let f9 = figures::fig9(a);
    let weekly_sum = |id: TelescopeId, lo: u64, hi: u64| {
        f9[&id]
            .iter()
            .filter(|&&(w, _)| w >= lo && w < hi)
            .map(|&(_, n)| n)
            .sum::<u64>()
    };
    writeln!(out, "### Fig. 9 — weekly sessions per telescope (totals)\n").unwrap();
    let rows = vec![row(
        "Fig. 9",
        "T1 weekly sessions rise after the split begins",
        "stable → rising",
        format!(
            "baseline {} vs split {}",
            weekly_sum(TelescopeId::T1, 0, 13),
            weekly_sum(TelescopeId::T1, 13, 45)
        ),
        weekly_sum(TelescopeId::T1, 13, 45) > weekly_sum(TelescopeId::T1, 0, 13),
    )];
    Item { text: out, rows }
}

fn fig10_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let f10 = figures::fig10(a);
    writeln!(out, "### Fig. 10 — cumulative sessions per prefix\n```").unwrap();
    for g in &f10 {
        let last = g.points.last().map_or(0, |&(_, n)| n);
        writeln!(out, "{:<28} {:>8} sessions", g.prefix.to_string(), last).unwrap();
    }
    writeln!(out, "```").unwrap();
    let deep = f10.iter().filter(|g| g.prefix.len() >= 40).count();
    let rows = vec![row(
        "Fig. 10",
        "more-specific prefixes attract sessions once announced",
        "every announced prefix gains",
        format!("{} prefixes ≥/40 with sessions", deep),
        deep >= 2,
    )];
    Item { text: out, rows }
}

fn fig11_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let f11 = figures::fig11(a);
    writeln!(out, "### Fig. 11 — bi-weekly T1 vs rest\n```").unwrap();
    out.push_str(&render::render_biweekly(&f11));
    writeln!(out, "```").unwrap();
    let t1_first: u64 = f11.t1.iter().take(3).map(|&(_, n, _)| n).sum();
    let t1_last: u64 = f11.t1.iter().rev().take(3).map(|&(_, n, _)| n).sum();
    let rows = vec![row(
        "Fig. 11",
        "T1 sessions grow across split cycles",
        "monotone-ish growth",
        format!("first 3 buckets {} vs last 3 {}", t1_first, t1_last),
        t1_last > t1_first,
    )];
    Item { text: out, rows }
}

fn fig12_13_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let (structured_m, random_m) = figures::fig12(a);
    writeln!(out, "### Fig. 12/13 — nibble matrices\n```").unwrap();
    if let Some(m) = &structured_m {
        writeln!(out, "structured sample:").unwrap();
        out.push_str(&render::render_nibbles(m, 8));
    }
    if let Some(m) = &random_m {
        writeln!(out, "random sample:").unwrap();
        out.push_str(&render::render_nibbles(m, 8));
    }
    // Fig. 13 reuses the already-computed Fig. 12(a) matrix.
    if let Some(m) = figures::fig13_from(structured_m.clone()) {
        writeln!(out, "structured sample, sorted (Fig. 13):").unwrap();
        out.push_str(&render::render_nibbles(&m, 8));
    }
    writeln!(out, "```").unwrap();
    let rows = vec![row(
        "Fig. 12",
        "a structured and a random large session exist",
        "both shown",
        format!(
            "structured: {}, random: {}",
            structured_m.is_some(),
            random_m.is_some()
        ),
        structured_m.is_some() && random_m.is_some(),
    )];
    Item { text: out, rows }
}

fn fig14_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let f14 = figures::fig14(a);
    writeln!(
        out,
        "### Fig. 14 — packets per scanner type across /48 subnets\n```"
    )
    .unwrap();
    for (class, counts) in &f14 {
        writeln!(
            out,
            "{:<14} {} subnets, top {:?}",
            class.to_string(),
            counts.len(),
            &counts[..counts.len().min(5)]
        )
        .unwrap();
    }
    writeln!(out, "```").unwrap();
    let breadth = |c: TemporalClass| f14.get(&c).map_or(0, |v| v.len());
    let rows = vec![row(
        "Fig. 14",
        "intermittent scanners cover subnets more evenly than one-off",
        "intermittent widest",
        format!(
            "one-off {} vs intermittent {} subnets",
            breadth(TemporalClass::OneOff),
            breadth(TemporalClass::Intermittent)
        ),
        breadth(TemporalClass::Intermittent) >= breadth(TemporalClass::OneOff),
    )];
    Item { text: out, rows }
}

fn fig15_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let f15 = figures::fig15(a);
    writeln!(out, "### Fig. 15 — taxonomy (T1, split period)\n```").unwrap();
    out.push_str(&render::render_taxonomy(&f15));
    writeln!(out, "```").unwrap();
    Item {
        text: out,
        rows: Vec::new(),
    }
}

fn fig16_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let f16a = figures::fig16a(a);
    let f16b = figures::fig16b(a);
    writeln!(
        out,
        "### Fig. 16 — cross-telescope sources: {} all-telescope bubbles; T1∩T2 overlap {}\n",
        f16a.len(),
        f16b.total
    )
    .unwrap();
    let rows = vec![row(
        "Fig. 16b",
        "T1∩T2 source overlap exists and most co-observations cluster",
        "75% same-day initially, declining",
        format!("{} overlapping sources", f16b.total),
        f16b.total > 0,
    )];
    Item { text: out, rows }
}

fn fig17_item(a: &Analyzed) -> Item {
    let mut out = String::new();
    let f17 = figures::fig17(a);
    writeln!(
        out,
        "### Fig. 17 — NIST outcomes (T1, ≥100-packet sessions)\n```"
    )
    .unwrap();
    let rate = |iid: bool| {
        let (p, f, u) = f17
            .iter()
            .filter(|c| c.iid_part == iid)
            .fold((0u64, 0u64, 0u64), |(p, f, u), c| {
                (p + c.pass, f + c.fail, u + c.undecided)
            });
        (p, f, u, p as f64 / (p + f).max(1) as f64)
    };
    // Printed only when non-zero, so a fully decided figure keeps its text.
    let undecided = |u: u64| {
        if u > 0 {
            format!(", undecided {u}")
        } else {
            String::new()
        }
    };
    let (ip, if_, iu, irate) = rate(true);
    let (sp, sf, su, srate) = rate(false);
    writeln!(
        out,
        "IID    : pass {ip}, fail {if_}{} ({:.0}%)",
        undecided(iu),
        irate * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "subnet : pass {sp}, fail {sf}{} ({:.0}%)",
        undecided(su),
        srate * 100.0
    )
    .unwrap();
    writeln!(out, "```").unwrap();
    let rows = vec![row(
        "Fig. 17",
        "IIDs pass NIST more often than subnet bits",
        "IID > subnet pass rate",
        format!("{:.0}% vs {:.0}%", irate * 100.0, srate * 100.0),
        irate >= srate,
    )];
    Item { text: out, rows }
}
