//! The report registry: every item of the paper's evaluation — the §4
//! corpus overview, Tables 2–8, the §7.1 headline and Figs. 3–17 — defined
//! once, and the three reports printed as backends over that one list.
//!
//! An item is a pure function of an [`Analyzed`] corpus. It computes its
//! table or figure once and returns everything a backend prints from it:
//! a `###` heading (figures only), a text body (absent for figures that
//! their heading summarizes), the JSON value of a paper table, and the
//! paper-vs-measured comparison rows. The backends are:
//!
//! * **text** — `sixscope run` (through [`crate::serve::tables_report`]):
//!   each paper table's body, then a blank line;
//! * **JSON** — `sixscope run --json`: one object keyed by table;
//! * **markdown** — the EXPERIMENTS.md body that `repro` writes
//!   ([`markdown`] over [`Section::tables`] and [`Section::figures`]):
//!   fenced tables, `###` figure sections, then the comparison summary.
//!
//! Items are computed through the order-preserving `map_indexed`: in
//! parallel, then kept in list order, so every backend prints the same
//! bytes at any thread count.
//!
//! A comparison row whose input row or series is missing — Table 4
//! without a TCP or UDP session, Table 7 without an identified tool,
//! Table 8 without AS metadata (a pcap corpus), Fig. 4 on an empty
//! corpus — does not hold and reads `n/a`.

use crate::figures::{self, BiweeklySeries, GrowthCurve, NibbleMatrix, TaxonomyCell};
use crate::json::Json;
use crate::tables::{self, ClassRow, PortRow, Table5aColumn};
use crate::{render, Analyzed};
use sixscope_analysis::classify::TemporalClass;
use sixscope_telescope::TelescopeId;
use sixscope_types::{map_indexed, num_threads, SimTime};
use std::fmt::Write as _;

/// One computed report item.
struct Item {
    /// The `###` heading of a figure; tables have none.
    heading: Option<String>,
    /// The text, fenced in markdown; `None` for a figure its heading
    /// summarizes.
    body: Option<String>,
    /// `sixscope run --json`'s key and value (paper tables only).
    json: Option<(&'static str, Json)>,
    /// The item's paper-vs-measured rows, in order.
    checks: Vec<Comparison>,
}

impl Item {
    fn table(body: String, json: Option<(&'static str, Json)>, checks: Vec<Comparison>) -> Item {
        Item {
            heading: None,
            body: Some(body),
            json,
            checks,
        }
    }

    fn figure(heading: String, body: Option<String>, checks: Vec<Comparison>) -> Item {
        Item {
            heading: Some(heading),
            body,
            json: None,
            checks,
        }
    }
}

/// One paper-vs-measured comparison row.
struct Comparison {
    /// The paper's side as markdown cells: experiment id ("Table 2",
    /// "Fig. 10", …) | quantity compared | the paper's value (textual, may
    /// be approximate).
    paper: &'static str,
    /// Our measured value (`n/a` when its input is missing).
    measured: String,
    /// Does the shape hold?
    holds: bool,
}

fn row(paper: &'static str, measured: String, holds: bool) -> Comparison {
    Comparison {
        paper,
        measured,
        holds,
    }
}

/// A comparison row over an input that may be missing: `None` does not
/// hold and reads `n/a`.
fn row_if(paper: &'static str, measured: Option<(String, bool)>) -> Comparison {
    let (measured, holds) = measured.unwrap_or_else(|| ("n/a".to_string(), false));
    row(paper, measured, holds)
}

/// A JSON array with one object per table row.
fn json_rows<T>(rows: &[T], object: impl Fn(&T) -> Json) -> Json {
    Json::Arr(rows.iter().map(object).collect())
}

type Build = fn(&Analyzed) -> Item;

/// EXPERIMENTS.md's "Tables" section: the corpus overview, then the paper
/// tables `sixscope run` prints.
const TABLES: [Build; 9] = [
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

/// EXPERIMENTS.md's "Figures" section (Figs. 12 and 13 are one item).
const FIGURES: [Build; 14] = [
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

fn build(a: &Analyzed, items: &[Build]) -> Vec<Item> {
    map_indexed(num_threads(None), items, |_, item| item(a))
}

/// `sixscope run`'s stdout: the text backend (each paper table, then a
/// blank line) or, with `json`, the JSON backend (one object keyed by
/// table, then a newline). The corpus overview is EXPERIMENTS.md's alone.
pub(crate) fn run(a: &Analyzed, json: bool) -> String {
    let items = build(a, &TABLES[1..]);
    if json {
        let doc = Json::Obj(
            items
                .into_iter()
                .filter_map(|item| item.json)
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        );
        return format!("{}\n", doc.render());
    }
    items
        .iter()
        .filter_map(|item| item.body.as_deref())
        .map(|body| format!("{body}\n"))
        .collect()
}

/// One computed section of EXPERIMENTS.md.
pub struct Section {
    title: &'static str,
    items: Vec<Item>,
}

impl Section {
    /// The "Tables" section: the §4 corpus overview, Tables 2–8 and the
    /// §7.1 headline.
    pub fn tables(a: &Analyzed) -> Section {
        Section {
            title: "Tables",
            items: build(a, &TABLES),
        }
    }

    /// The "Figures" section: Figs. 3–17.
    pub fn figures(a: &Analyzed) -> Section {
        Section {
            title: "Figures",
            items: build(a, &FIGURES),
        }
    }
}

/// The markdown backend's output.
pub struct Markdown {
    /// The sections, then the comparison summary and its tally line.
    pub text: String,
    /// Comparison rows whose shape holds.
    pub holds: usize,
    /// All comparison rows.
    pub checks: usize,
}

/// The markdown backend: the body of EXPERIMENTS.md. Each section is a
/// `##` heading over its items — a table fenced, a figure under its `###`
/// heading — and the comparison rows of all items follow as one table.
pub fn markdown(sections: &[Section]) -> Markdown {
    let mut text = String::new();
    for section in sections {
        write!(text, "## {}\n\n", section.title).unwrap();
        for item in &section.items {
            if let Some(heading) = &item.heading {
                writeln!(text, "### {heading}").unwrap();
            }
            match &item.body {
                Some(body) => write!(text, "```\n{body}```\n").unwrap(),
                None => text.push('\n'),
            }
        }
    }
    let rows: Vec<&Comparison> = sections
        .iter()
        .flat_map(|s| &s.items)
        .flat_map(|item| &item.checks)
        .collect();
    let holds = rows.iter().filter(|r| r.holds).count();
    text.push_str("\n## Comparison summary\n\n");
    text.push_str("| Experiment | Metric | Paper | Measured | Shape holds |\n");
    text.push_str("|---|---|---|---|---|\n");
    for r in &rows {
        let mark = if r.holds { "✓" } else { "✗" };
        writeln!(text, "| {} | {} | {mark} |", r.paper, r.measured).unwrap();
    }
    writeln!(text, "\n**{holds} of {} shape checks hold.**", rows.len()).unwrap();
    Markdown {
        text,
        holds,
        checks: rows.len(),
    }
}

fn overview_item(a: &Analyzed) -> Item {
    // §4 corpus overview: initial period and full period.
    let initial = tables::corpus_overview(a, SimTime::EPOCH, a.split_start());
    let full = tables::corpus_overview(a, SimTime::EPOCH, a.result.layout.end);
    let body = render::render_overview("initial 12 weeks", &initial)
        + &render::render_overview("full period", &full);
    let checks = vec![
        row(
            "§4 | full/initial packet ratio | ~11x (51M vs 4.6M)",
            format!(
                "{:.1}x",
                full.packets as f64 / initial.packets.max(1) as f64
            ),
            full.packets > 3 * initial.packets,
        ),
        row(
            "§4 | /128 sessions exceed /64 sessions | 754k vs 151k",
            format!("{} vs {}", full.sessions128, full.sessions64),
            full.sessions128 >= full.sessions64,
        ),
    ];
    Item::table(body, None, checks)
}

fn table2_item(a: &Analyzed) -> Item {
    let t2 = tables::table2(a);
    let json = json_rows(&t2.rows, |r| {
        Json::obj([
            ("protocol", Json::s(r.protocol.name())),
            ("packets", Json::u(r.packets)),
            ("packet_pct", Json::Num(r.packet_pct)),
            ("sessions", Json::u(r.sessions)),
            ("session_pct", Json::Num(r.session_pct)),
            ("sources", Json::u(r.sources)),
            ("source_pct", Json::Num(r.source_pct)),
        ])
    });
    // The rows are `Protocol::REPORTED`, always all three.
    let (icmp, udp, tcp) = (&t2.rows[0], &t2.rows[1], &t2.rows[2]);
    let checks = vec![
        row(
            "Table 2 | ICMPv6 packet share | 66.2%",
            format!("{:.1}%", icmp.packet_pct),
            icmp.packet_pct > udp.packet_pct && icmp.packet_pct > tcp.packet_pct,
        ),
        row(
            "Table 2 | TCP session share | 92.8%",
            format!("{:.1}%", tcp.session_pct),
            tcp.session_pct > 50.0 && tcp.session_pct > icmp.session_pct,
        ),
        row(
            "Table 2 | UDP packet share | 23.4%",
            format!("{:.1}%", udp.packet_pct),
            udp.packet_pct > tcp.packet_pct,
        ),
    ];
    Item::table(render::render_table2(&t2), Some(("table2", json)), checks)
}

fn table3_item(a: &Analyzed) -> Item {
    let t3 = tables::table3(a);
    let json = json_rows(&t3, |r| {
        Json::obj([
            ("address_type", Json::s(r.address_type.to_string())),
            ("packets", Json::u(r.packets)),
            ("packet_pct", Json::Num(r.packet_pct)),
            ("sources", Json::u(r.sources)),
            ("source_pct", Json::Num(r.source_pct)),
        ])
    });
    let class = |name: &str| {
        t3.iter()
            .find(|r| r.address_type.to_string() == name)
            .expect("Table 3 lists every address type")
    };
    let (randomized, low_byte) = (class("randomized"), class("low-byte"));
    let checks = vec![
        row(
            "Table 3 | randomized packet share | 64.2%",
            format!("{:.1}%", randomized.packet_pct),
            randomized.packets > low_byte.packets,
        ),
        row(
            "Table 3 | low-byte source share | 89.7%",
            format!("{:.1}%", low_byte.source_pct),
            low_byte.source_pct > 50.0 && low_byte.source_pct > randomized.source_pct,
        ),
    ];
    Item::table(render::render_table3(&t3), Some(("table3", json)), checks)
}

fn table4_item(a: &Analyzed) -> Item {
    let t4 = tables::table4(a);
    let ports = |rows: &[PortRow]| {
        json_rows(rows, |r| {
            Json::obj([
                ("port", Json::s(r.port.to_string())),
                ("sessions", Json::u(r.sessions)),
                ("pct", Json::Num(r.pct)),
            ])
        })
    };
    let json = Json::obj([("tcp", ports(&t4.tcp)), ("udp", ports(&t4.udp))]);
    let top = |rows: &[PortRow], expected: &str| {
        rows.first().map(|r| {
            (
                format!("{} ({:.1}%)", r.port, r.pct),
                r.port.to_string() == expected,
            )
        })
    };
    let checks = vec![
        row_if("Table 4 | top TCP port | 80 (87.2%)", top(&t4.tcp, "80")),
        row_if(
            "Table 4 | top UDP label | Traceroute (71.4%)",
            top(&t4.udp, "Traceroute"),
        ),
    ];
    Item::table(render::render_table4(&t4), Some(("table4", json)), checks)
}

fn table5_item(a: &Analyzed) -> Item {
    let t5 = tables::table5(a);
    let json = json_rows(&t5.a, |c| {
        Json::obj([
            ("telescope", Json::s(c.telescope.to_string())),
            ("sources128", Json::u(c.sources128)),
            ("sources64", Json::u(c.sources64)),
            ("asns", Json::u(c.asns)),
            ("destinations", Json::u(c.destinations)),
            ("packets", Json::u(c.packets)),
        ])
    });
    let [t1, t2, t3, t4] = TelescopeId::ALL.map(|id| {
        t5.a.iter()
            .find(|c| c.telescope == id)
            .expect("Table 5a has a column per telescope")
    });
    let ratio = |c: &Table5aColumn| c.sources128 as f64 / c.sources64.max(1) as f64;
    let checks = vec![
        row(
            "Table 5a | T1/T3 packet ratio (orders of magnitude) | ~50,000x",
            format!("{:.0}x", t1.packets as f64 / t3.packets.max(1) as f64),
            t1.packets > 100 * t3.packets.max(1),
        ),
        row(
            "Table 5a | T4/T3 packet ratio | ~80x (two orders)",
            format!("{:.0}x", t4.packets as f64 / t3.packets.max(1) as f64),
            t4.packets > t3.packets,
        ),
        row(
            "Table 5a | T2 vs T1 /128 sources | +380% (6611 vs 1386)",
            format!("{} vs {}", t2.sources128, t1.sources128),
            t2.sources128 > t1.sources128,
        ),
        row(
            "Table 5a | T2 /128-to-/64 source ratio vs T1 | ~3x vs ~1.2x",
            format!("{:.1}x vs {:.1}x", ratio(t2), ratio(t1)),
            ratio(t2) > ratio(t1),
        ),
    ];
    Item::table(render::render_table5(&t5), Some(("table5a", json)), checks)
}

fn table6_item(a: &Analyzed) -> Item {
    let t6 = tables::table6(a);
    let classes = |rows: &[ClassRow]| {
        json_rows(rows, |r| {
            Json::obj([
                ("label", Json::s(r.label.clone())),
                ("scanners", Json::u(r.scanners)),
                ("scanner_pct", Json::Num(r.scanner_pct)),
                ("sessions", Json::u(r.sessions)),
                ("session_pct", Json::Num(r.session_pct)),
            ])
        })
    };
    let json = Json::obj([
        ("temporal", classes(&t6.temporal)),
        ("network", classes(&t6.network)),
    ]);
    // Both halves list every class, with or without scanners.
    let one_off = &t6.temporal[0];
    let periodic = t6
        .temporal
        .iter()
        .find(|r| r.label == "Periodic")
        .expect("Table 6 lists every temporal class");
    let single = &t6.network[0];
    let checks = vec![
        row(
            "Table 6 | one-off scanner share | 69.7%",
            format!("{:.1}%", one_off.scanner_pct),
            one_off.scanner_pct > 50.0,
        ),
        row(
            "Table 6 | periodic session share | 72.8%",
            format!("{:.1}%", periodic.session_pct),
            periodic.session_pct > periodic.scanner_pct && periodic.session_pct > 40.0,
        ),
        row(
            "Table 6 | single-prefix scanner share | 90.5%",
            format!("{:.1}%", single.scanner_pct),
            single.scanner_pct > 60.0,
        ),
    ];
    Item::table(render::render_table6(&t6), Some(("table6", json)), checks)
}

fn table7_item(a: &Analyzed) -> Item {
    let t7 = tables::table7(a);
    let json = json_rows(&t7, |r| {
        Json::obj([
            ("tool", Json::s(r.tool.to_string())),
            ("scanners", Json::u(r.scanners)),
            ("scanner_pct", Json::Num(r.scanner_pct)),
            ("sessions", Json::u(r.sessions)),
            ("session_pct", Json::Num(r.session_pct)),
        ])
    });
    let checks = vec![
        row_if(
            "Table 7 | top tool | RIPEAtlasProbe (54.8% of scanners)",
            t7.first().map(|r| {
                (
                    format!("{} ({:.1}%)", r.tool, r.scanner_pct),
                    r.tool.to_string() == "RIPEAtlasProbe",
                )
            }),
        ),
        row(
            "Table 7 | tools identified | 7 public tools",
            format!("{}", t7.len()),
            t7.len() >= 5,
        ),
    ];
    Item::table(render::render_table7(&t7), Some(("table7", json)), checks)
}

fn table8_item(a: &Analyzed) -> Item {
    let t8 = tables::table8(a);
    let json = json_rows(&t8, |r| {
        Json::obj([
            ("network_type", Json::s(r.network_type.to_string())),
            ("without_heavy_hitters", Json::Bool(r.without_heavy_hitters)),
            ("scanners", Json::u(r.scanners)),
            ("sessions", Json::u(r.sessions)),
            ("packets", Json::u(r.packets)),
        ])
    });
    // A network type without scanners has no row.
    let share = |ty: &str| {
        t8.iter()
            .find(|r| r.network_type.to_string() == ty && !r.without_heavy_hitters)
            .map(|r| r.scanner_pct)
    };
    let hosting_isp = share("Hosting").zip(share("ISP")).map(|(h, i)| h + i);
    let checks = vec![row_if(
        "Table 8 | hosting + ISP scanner share | 95.6%",
        hosting_isp.map(|s| (format!("{s:.1}%"), s > 80.0)),
    )];
    Item::table(render::render_table8(&t8), Some(("table8", json)), checks)
}

fn headline_item(a: &Analyzed) -> Item {
    let h = tables::headline(a);
    let json = Json::obj([
        (
            "split_vs_companion_packets_pct",
            Json::Num(h.split_vs_companion_packets_pct),
        ),
        (
            "weekly_sources_growth_pct",
            Json::Num(h.weekly_sources_growth_pct),
        ),
        (
            "weekly_sessions_growth_pct",
            Json::Num(h.weekly_sessions_growth_pct),
        ),
        ("one_off_scanner_pct", Json::Num(h.one_off_scanner_pct)),
        ("final_48_session_pct", Json::Num(h.final_48_session_pct)),
        ("heavy_hitters", Json::u(h.heavy_hitters.len() as u64)),
        ("heavy_packet_pct", Json::Num(h.heavy_packet_pct)),
        ("heavy_session_pct", Json::Num(h.heavy_session_pct)),
    ]);
    let checks = vec![
        row(
            "§7.1 | split /33 vs companion packets | +286%",
            format!("{:+.0}%", h.split_vs_companion_packets_pct),
            h.split_vs_companion_packets_pct > 50.0,
        ),
        row(
            "§7.1 | weekly sources growth | +275%",
            format!("{:+.0}%", h.weekly_sources_growth_pct),
            h.weekly_sources_growth_pct > 50.0,
        ),
        row(
            "§7.1 | weekly sessions growth | +555%",
            format!("{:+.0}%", h.weekly_sessions_growth_pct),
            h.weekly_sessions_growth_pct > 50.0,
        ),
        row(
            "§4.2 | heavy hitters: count / packet share / session share | 10 / 73% / 0.04%",
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
    Item::table(
        render::render_headline(&h),
        Some(("headline", json)),
        checks,
    )
}

fn fig3_item(a: &Analyzed) -> Item {
    let f3 = figures::fig3(a);
    let mut body = String::new();
    for (week, n) in &f3 {
        writeln!(body, "week {week:>2}: {n}").unwrap();
    }
    let first_two: u64 = f3.iter().filter(|&&(w, _)| w < 2).map(|&(_, n)| n).sum();
    let total: u64 = f3.iter().map(|&(_, n)| n).sum();
    let checks = vec![row(
        "Fig. 3 | new prefixes concentrate early (first 2 weeks share) | majority in ~2 weeks",
        format!("{:.0}%", first_two as f64 / total.max(1) as f64 * 100.0),
        first_two * 3 > total,
    )];
    Item::figure(
        "Fig. 3 — new source /64 prefixes per baseline week".into(),
        Some(body),
        checks,
    )
}

fn fig4_item(a: &Analyzed) -> Item {
    let f4 = figures::fig4(a);
    let mid = f4
        .iter()
        .find(|c| c.label == "packets")
        .and_then(|c| c.points.get(c.points.len() / 2))
        .map(|&(_, share)| share);
    let checks = vec![row_if(
        "Fig. 4 | packet growth is discontinuous (mid-run share) | step-like, < linear at midpoint",
        mid.map(|mid| (format!("{:.0}% at half time", mid * 100.0), mid < 0.75)),
    )];
    Item::figure(
        "Fig. 4 — relative growth (quartile samples)".into(),
        Some(render_growth(&f4)),
        checks,
    )
}

fn fig5_item(a: &Analyzed) -> Item {
    let f5 = figures::fig5(a);
    let sources = f5
        .iter()
        .map(|b| b.source)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let checks = vec![row(
        "Fig. 5 | heavy hitters burst in short windows | few active days each",
        format!("{} bubbles", f5.len()),
        !f5.is_empty(),
    )];
    Item::figure(
        format!(
            "Fig. 5 — heavy-hitter daily activity: {} bubbles across {sources} sources",
            f5.len()
        ),
        None,
        checks,
    )
}

fn fig7a_item(a: &Analyzed) -> Item {
    let f7a = figures::fig7a(a);
    let sum = |id: TelescopeId| f7a[&id].iter().map(|&(_, n)| n).sum::<u64>();
    let checks = vec![row(
        "Fig. 7a | announced telescopes dwarf covered ones | 4–6 orders of magnitude",
        format!(
            "T1/T3 = {:.0}x",
            sum(TelescopeId::T1) as f64 / sum(TelescopeId::T3).max(1) as f64
        ),
        sum(TelescopeId::T1) > 100 * sum(TelescopeId::T3).max(1),
    )];
    Item::figure(
        format!(
            "Fig. 7a — initial-period packets/hour totals: T1={} T2={} T3={} T4={}",
            sum(TelescopeId::T1),
            sum(TelescopeId::T2),
            sum(TelescopeId::T3),
            sum(TelescopeId::T4)
        ),
        None,
        checks,
    )
}

fn fig7b_item(a: &Analyzed) -> Item {
    let f7b = figures::fig7b(a);
    let structured: u64 = f7b
        .iter()
        .filter(|c| c.addr_selection.to_string() == "structured")
        .map(|c| c.sessions)
        .sum();
    let total7b: u64 = f7b.iter().map(|c| c.sessions).sum();
    let checks = vec![row(
        "Fig. 7b | structured address selection dominates | most sessions structured",
        format!("{:.0}%", structured as f64 / total7b.max(1) as f64 * 100.0),
        structured * 2 > total7b,
    )];
    Item::figure(
        "Fig. 7b — taxonomy (initial period)".into(),
        Some(render_taxonomy(&f7b)),
        checks,
    )
}

fn fig8_item(a: &Analyzed) -> Item {
    let (as_upset, src_upset) = figures::fig8(a);
    let checks = vec![row(
        "Fig. 8 | sources exclusive to one telescope | ≈90%",
        format!("{:.0}%", src_upset.exclusive_share() * 100.0),
        src_upset.exclusive_share() > 0.6,
    )];
    Item::figure(
        format!(
            "Fig. 8 — UpSet: {} ASes, {} sources; exclusive source share {:.0}%",
            as_upset.universe,
            src_upset.universe,
            src_upset.exclusive_share() * 100.0
        ),
        None,
        checks,
    )
}

fn fig9_item(a: &Analyzed) -> Item {
    let f9 = figures::fig9(a);
    let weekly_sum = |id: TelescopeId, lo: u64, hi: u64| {
        f9[&id]
            .iter()
            .filter(|&&(w, _)| w >= lo && w < hi)
            .map(|&(_, n)| n)
            .sum::<u64>()
    };
    let checks = vec![row(
        "Fig. 9 | T1 weekly sessions rise after the split begins | stable → rising",
        format!(
            "baseline {} vs split {}",
            weekly_sum(TelescopeId::T1, 0, 13),
            weekly_sum(TelescopeId::T1, 13, 45)
        ),
        weekly_sum(TelescopeId::T1, 13, 45) > weekly_sum(TelescopeId::T1, 0, 13),
    )];
    Item::figure(
        "Fig. 9 — weekly sessions per telescope (totals)".into(),
        None,
        checks,
    )
}

fn fig10_item(a: &Analyzed) -> Item {
    let f10 = figures::fig10(a);
    let mut body = String::new();
    for g in &f10 {
        let last = g.points.last().map_or(0, |&(_, n)| n);
        writeln!(body, "{:<28} {:>8} sessions", g.prefix.to_string(), last).unwrap();
    }
    let deep = f10.iter().filter(|g| g.prefix.len() >= 40).count();
    let checks = vec![row(
        "Fig. 10 | more-specific prefixes attract sessions once announced \
         | every announced prefix gains",
        format!("{} prefixes ≥/40 with sessions", deep),
        deep >= 2,
    )];
    Item::figure(
        "Fig. 10 — cumulative sessions per prefix".into(),
        Some(body),
        checks,
    )
}

fn fig11_item(a: &Analyzed) -> Item {
    let f11 = figures::fig11(a);
    let t1_first: u64 = f11.t1.iter().take(3).map(|&(_, n, _)| n).sum();
    let t1_last: u64 = f11.t1.iter().rev().take(3).map(|&(_, n, _)| n).sum();
    let checks = vec![row(
        "Fig. 11 | T1 sessions grow across split cycles | monotone-ish growth",
        format!("first 3 buckets {} vs last 3 {}", t1_first, t1_last),
        t1_last > t1_first,
    )];
    Item::figure(
        "Fig. 11 — bi-weekly T1 vs rest".into(),
        Some(render_biweekly(&f11)),
        checks,
    )
}

fn fig12_13_item(a: &Analyzed) -> Item {
    let (structured_m, random_m) = figures::fig12(a);
    let mut body = String::new();
    if let Some(m) = &structured_m {
        writeln!(body, "structured sample:").unwrap();
        body.push_str(&render_nibbles(m, 8));
    }
    if let Some(m) = &random_m {
        writeln!(body, "random sample:").unwrap();
        body.push_str(&render_nibbles(m, 8));
    }
    // Fig. 13 reuses the already-computed Fig. 12(a) matrix.
    if let Some(m) = figures::fig13_from(structured_m.clone()) {
        writeln!(body, "structured sample, sorted (Fig. 13):").unwrap();
        body.push_str(&render_nibbles(&m, 8));
    }
    let checks = vec![row(
        "Fig. 12 | a structured and a random large session exist | both shown",
        format!(
            "structured: {}, random: {}",
            structured_m.is_some(),
            random_m.is_some()
        ),
        structured_m.is_some() && random_m.is_some(),
    )];
    Item::figure("Fig. 12/13 — nibble matrices".into(), Some(body), checks)
}

fn fig14_item(a: &Analyzed) -> Item {
    let f14 = figures::fig14(a);
    let mut body = String::new();
    for (class, counts) in &f14 {
        writeln!(
            body,
            "{:<14} {} subnets, top {:?}",
            class.to_string(),
            counts.len(),
            &counts[..counts.len().min(5)]
        )
        .unwrap();
    }
    let breadth = |c: TemporalClass| f14.get(&c).map_or(0, |v| v.len());
    let checks = vec![row(
        "Fig. 14 | intermittent scanners cover subnets more evenly than one-off \
         | intermittent widest",
        format!(
            "one-off {} vs intermittent {} subnets",
            breadth(TemporalClass::OneOff),
            breadth(TemporalClass::Intermittent)
        ),
        breadth(TemporalClass::Intermittent) >= breadth(TemporalClass::OneOff),
    )];
    Item::figure(
        "Fig. 14 — packets per scanner type across /48 subnets".into(),
        Some(body),
        checks,
    )
}

fn fig15_item(a: &Analyzed) -> Item {
    let f15 = figures::fig15(a);
    Item::figure(
        "Fig. 15 — taxonomy (T1, split period)".into(),
        Some(render_taxonomy(&f15)),
        Vec::new(),
    )
}

fn fig16_item(a: &Analyzed) -> Item {
    let f16a = figures::fig16a(a);
    let f16b = figures::fig16b(a);
    let checks = vec![row(
        "Fig. 16b | T1∩T2 source overlap exists and most co-observations cluster \
         | 75% same-day initially, declining",
        format!("{} overlapping sources", f16b.total),
        f16b.total > 0,
    )];
    Item::figure(
        format!(
            "Fig. 16 — cross-telescope sources: {} all-telescope bubbles; T1∩T2 overlap {}",
            f16a.len(),
            f16b.total
        ),
        None,
        checks,
    )
}

fn fig17_item(a: &Analyzed) -> Item {
    let f17 = figures::fig17(a);
    let mut body = String::new();
    // One line per part, IID first; each yields the part's pass rate.
    let [irate, srate] = [("IID    ", true), ("subnet ", false)].map(|(label, iid)| {
        let (p, f, u) = f17
            .iter()
            .filter(|c| c.iid_part == iid)
            .fold((0u64, 0u64, 0u64), |(p, f, u), c| {
                (p + c.pass, f + c.fail, u + c.undecided)
            });
        let rate = p as f64 / (p + f).max(1) as f64;
        // Printed only when non-zero, so a fully decided figure keeps its text.
        let undecided = if u > 0 {
            format!(", undecided {u}")
        } else {
            String::new()
        };
        let pct = rate * 100.0;
        writeln!(body, "{label}: pass {p}, fail {f}{undecided} ({pct:.0}%)").unwrap();
        rate
    });
    let checks = vec![row(
        "Fig. 17 | IIDs pass NIST more often than subnet bits | IID > subnet pass rate",
        format!("{:.0}% vs {:.0}%", irate * 100.0, srate * 100.0),
        irate >= srate,
    )];
    Item::figure(
        "Fig. 17 — NIST outcomes (T1, ≥100-packet sessions)".into(),
        Some(body),
        checks,
    )
}

/// Renders a taxonomy cell grid (Figs. 7b / 15).
fn render_taxonomy(cells: &[TaxonomyCell]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<4} {:<14} {:<12} {:>9}",
        "Tel", "Temporal", "AddrSel", "Sessions"
    )
    .unwrap();
    for c in cells {
        writeln!(
            out,
            "{:<4} {:<14} {:<12} {:>9}",
            c.telescope.to_string(),
            c.temporal.to_string(),
            c.addr_selection.to_string(),
            c.sessions
        )
        .unwrap();
    }
    out
}

/// Renders growth curves (Fig. 4) at a few sample points.
fn render_growth(curves: &[GrowthCurve]) -> String {
    let mut out = String::new();
    for c in curves {
        let n = c.points.len();
        let samples: Vec<String> = [0, n / 4, n / 2, 3 * n / 4, n.saturating_sub(1)]
            .iter()
            .filter(|&&i| i < n)
            .map(|&i| format!("{:.2}", c.points[i].1))
            .collect();
        writeln!(out, "{:<14} {}", c.label, samples.join(" → ")).unwrap();
    }
    out
}

/// Renders the bi-weekly T1-vs-rest series (Fig. 11).
fn render_biweekly(s: &BiweeklySeries) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<8} {:>12} {:>12}",
        "bi-week", "T1 sessions", "rest sessions"
    )
    .unwrap();
    let rest: std::collections::BTreeMap<u64, u64> =
        s.others.iter().map(|&(b, n, _)| (b, n)).collect();
    for &(b, n, _) in &s.t1 {
        writeln!(
            out,
            "{:<8} {:>12} {:>12}",
            b,
            n,
            rest.get(&b).copied().unwrap_or(0)
        )
        .unwrap();
    }
    out
}

/// Renders a nibble matrix as hex art (down-sampled to at most `max_rows`).
fn render_nibbles(m: &NibbleMatrix, max_rows: usize) -> String {
    let mut out = String::new();
    writeln!(out, "session from {} — {} targets", m.source, m.rows.len()).unwrap();
    let step = (m.rows.len() / max_rows.max(1)).max(1);
    for row in m.rows.iter().step_by(step).take(max_rows) {
        for &n in row {
            write!(out, "{n:x}").unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nibble_rendering_downsamples() {
        let m = NibbleMatrix {
            source: sixscope_telescope::SourceKey::new(
                "2001:db8::1".parse().unwrap(),
                sixscope_telescope::AggLevel::Addr128,
            ),
            rows: vec![[0xa; 32]; 1000],
        };
        let s = render_nibbles(&m, 10);
        let hex_lines = s.lines().filter(|l| l.starts_with('a')).count();
        assert!(hex_lines <= 10);
        assert!(s.contains("1000 targets"));
    }
}
