//! End-to-end integration: run small experiments and assert the paper's
//! qualitative findings hold on the analyzed corpus — planted behavior must
//! be recovered by the measurement pipeline, never read from generator
//! state.

use sixscope::sim::ScenarioConfig;
use sixscope::{figures, tables, Analyzed, Pipeline};
use sixscope_analysis::classify::TemporalClass;
use sixscope_telescope::{AggLevel, Sessionizer, TelescopeId};
use std::sync::OnceLock;

fn run(seed: u64, scale: f64) -> Analyzed {
    Pipeline::simulate(ScenarioConfig::new(seed, scale))
        .run()
        .expect("simulated runs cannot fail")
}

fn corpus() -> &'static Analyzed {
    static CELL: OnceLock<Analyzed> = OnceLock::new();
    CELL.get_or_init(|| run(20230824, 0.02))
}

#[test]
fn telescope_visibility_ordering_holds() {
    // §6: separately announced telescopes receive orders of magnitude more
    // traffic than covered ones; reactive beats silent.
    let a = corpus();
    let t = tables::table5(a);
    let col = |id: TelescopeId| t.a.iter().find(|c| c.telescope == id).unwrap();
    assert!(col(TelescopeId::T1).packets > 100 * col(TelescopeId::T3).packets.max(1));
    assert!(col(TelescopeId::T2).packets > 100 * col(TelescopeId::T3).packets.max(1));
    assert!(col(TelescopeId::T4).packets > col(TelescopeId::T3).packets);
}

#[test]
fn bgp_splits_attract_traffic() {
    // §7.1: the split side outgrows the stable companion; weekly sources
    // and sessions grow during the split period.
    let h = tables::headline(corpus());
    assert!(h.split_vs_companion_packets_pct > 50.0);
    assert!(h.weekly_sources_growth_pct > 50.0);
    assert!(h.weekly_sessions_growth_pct > 50.0);
}

#[test]
fn one_off_scanners_dominate_scanner_counts() {
    // Table 6: ~70% of scanners appear only once, but periodic scanners
    // own the session mass.
    let t = tables::table6(corpus());
    let one_off = &t.temporal[0];
    assert_eq!(one_off.label, "One-off");
    assert!(
        (55.0..90.0).contains(&one_off.scanner_pct),
        "{}",
        one_off.scanner_pct
    );
    let periodic = t.temporal.iter().find(|r| r.label == "Periodic").unwrap();
    assert!(periodic.session_pct > 2.0 * periodic.scanner_pct);
}

#[test]
fn single_prefix_scanning_dominates_network_selection() {
    let t = tables::table6(corpus());
    let single = &t.network[0];
    assert_eq!(single.label, "Single-prefix scanning");
    assert!(single.scanner_pct > 70.0, "{}", single.scanner_pct);
    // Size-independent scanners are few but session-heavy.
    let si = t
        .network
        .iter()
        .find(|r| r.label == "Network-size independent")
        .unwrap();
    assert!(si.session_pct > si.scanner_pct);
}

#[test]
fn classifier_recovers_planted_tools() {
    // Table 7: the payload fingerprints planted by the generator must be
    // recovered from capture bytes alone, with Atlas on top.
    let rows = tables::table7(corpus());
    assert_eq!(rows[0].tool.to_string(), "RIPEAtlasProbe");
    assert!(rows[0].scanner_pct > 30.0);
    let names: Vec<String> = rows.iter().map(|r| r.tool.to_string()).collect();
    assert!(names.contains(&"Yarrp6".to_string()));
    assert!(names.contains(&"CAIDA Ark".to_string()));
}

#[test]
fn heavy_hitters_carry_packets_not_sessions() {
    let h = tables::headline(corpus());
    assert!(!h.heavy_hitters.is_empty());
    assert!(h.heavy_packet_pct > 40.0);
    assert!(h.heavy_session_pct < 10.0);
    assert!(h.heavy_packet_pct > 20.0 * h.heavy_session_pct);
}

#[test]
fn address_rotation_shows_only_at_t2() {
    // §6: T2 sees noticeably more /128 than /64 sources (rotators); T1's
    // levels stay close.
    let a = corpus();
    let t = tables::table5(a);
    let col = |id: TelescopeId| t.a.iter().find(|c| c.telescope == id).unwrap();
    let ratio = |id| col(id).sources128 as f64 / col(id).sources64.max(1) as f64;
    assert!(ratio(TelescopeId::T2) > ratio(TelescopeId::T1));
}

#[test]
fn derived_sixty_four_sessions_equal_direct_sessionization() {
    // The corpus's /64 sessions are derived from its /128 ones; they must
    // equal a direct /64 pass over every capture. T2's rotating sources
    // make the two levels differ.
    for seed in [20230824, 7] {
        let a = run(seed, 0.004);
        for id in TelescopeId::ALL {
            let direct = Sessionizer::paper(AggLevel::Subnet64).sessionize(a.capture(id));
            assert!(
                a.sessions64(id) == direct,
                "seed {seed}, {id:?}: derived /64 sessions differ from a direct /64 pass"
            );
        }
        assert!(
            a.sessions64(TelescopeId::T2).len() < a.sessions128(TelescopeId::T2).len(),
            "seed {seed}: T2's /64 sessions must merge rotating /128 sources"
        );
    }
}

#[test]
fn t4_responds_and_t3_stays_silent() {
    let a = corpus();
    // T4 answers every probe kind the scanners send, so it sends exactly
    // one response per probe it records.
    assert!(a.result.t4_responses > 0);
    assert_eq!(
        a.result.t4_responses,
        a.capture(TelescopeId::T4).len() as u64
    );
    // T3 records packets but never answers anything (it has no responder
    // in the pipeline at all); its volume stays a trickle.
    assert!(a.capture(TelescopeId::T3).len() < 100);
}

#[test]
fn withdrawn_prefixes_receive_nothing() {
    let a = corpus();
    let schedule = &a.result.schedule;
    for cycle in [1u32, 5, 10] {
        let gap_start = schedule.cycle_start(cycle);
        let gap_end = gap_start + sixscope_types::SimDuration::days(1);
        let during = a
            .capture(TelescopeId::T1)
            .packets()
            .iter()
            .filter(|p| p.ts >= gap_start && p.ts < gap_end)
            .count();
        assert_eq!(during, 0, "cycle {cycle}: packets during withdrawal gap");
    }
}

#[test]
fn figures_are_internally_consistent() {
    let a = corpus();
    // Fig. 4 curves end at 1.0 and are monotone.
    for curve in figures::fig4(a) {
        assert!(curve.points.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!((curve.points.last().unwrap().1 - 1.0).abs() < 1e-9);
    }
    // Fig. 15 session totals equal the split-period session count.
    let cells = figures::fig15(a);
    let total: u64 = cells.iter().map(|c| c.sessions).sum();
    let boundary = a.split_start();
    let split = a
        .sessions128(TelescopeId::T1)
        .iter()
        .filter(|s| s.start >= boundary);
    assert_eq!(total, split.count() as u64);
    // Fig. 14: every rank curve is non-increasing.
    for counts in figures::fig14(a).values() {
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
    }
}

#[test]
fn nist_iid_vs_subnet_asymmetry() {
    // Appendix B / Fig. 17: scanners structure subnets but randomize IIDs.
    let cells = figures::fig17(corpus());
    assert!(!cells.is_empty());
    let rate = |iid: bool| {
        let (p, f) = cells
            .iter()
            .filter(|c| c.iid_part == iid)
            .fold((0u64, 0u64), |(p, f), c| (p + c.pass, f + c.fail));
        p as f64 / (p + f).max(1) as f64
    };
    assert!(rate(true) >= rate(false));
}

#[test]
fn intermittent_scanners_spread_wider_than_one_off() {
    // Fig. 14's key observation.
    let curves = figures::fig14(corpus());
    let breadth = |c: TemporalClass| curves.get(&c).map_or(0, Vec::len);
    assert!(breadth(TemporalClass::Intermittent) >= breadth(TemporalClass::OneOff));
}

#[test]
fn experiment_is_deterministic_across_runs() {
    let a = run(5, 0.002);
    let b = run(5, 0.002);
    assert_eq!(a.result.total_packets(), b.result.total_packets());
    for id in TelescopeId::ALL {
        assert_eq!(a.capture(id).packets(), b.capture(id).packets());
    }
    // And a different seed genuinely changes the world.
    let c = run(6, 0.002);
    assert_ne!(
        a.capture(TelescopeId::T1).len(),
        0,
        "sanity: T1 captured something"
    );
    assert_ne!(
        a.capture(TelescopeId::T1).packets(),
        c.capture(TelescopeId::T1).packets()
    );
}
