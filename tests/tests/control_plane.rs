//! Integration tests of the BGP substrate against the telescope schedule:
//! wire-format propagation, visibility correctness, and reactive timing.

use sixscope_bgp::topology::standard_topology;
use sixscope_sim::{Scenario, ScenarioConfig, Visibility};
use sixscope_telescope::{ScheduleActionKind, SplitSchedule};
use sixscope_types::{Asn, Ipv6Prefix, SimDuration, SimTime};

fn p(s: &str) -> Ipv6Prefix {
    s.parse().unwrap()
}

#[test]
fn schedule_execution_matches_announced_sets_every_cycle() {
    let config = ScenarioConfig::new(3, 0.002);
    let events = Scenario::new(config.clone()).run_control_plane();
    let vis = Visibility::from_events(&events);
    let schedule = config.schedule();
    for cycle in 0..=schedule.cycles {
        // Mid-cycle, two days after the re-announcement.
        let probe_time = schedule.cycle_start(cycle) + SimDuration::days(3);
        let announced = schedule.announced_set(cycle);
        let visible = vis.announced_at(probe_time);
        for prefix in &announced {
            assert!(
                visible.contains(prefix),
                "cycle {cycle}: {prefix} should be visible at {probe_time}"
            );
        }
        // Exactly the announced T1 prefixes are visible under the /32.
        let visible_t1: Vec<Ipv6Prefix> = visible
            .iter()
            .filter(|pre| config.layout.t1.covers(pre))
            .copied()
            .collect();
        assert_eq!(visible_t1, announced, "cycle {cycle} set mismatch");
    }
}

#[test]
fn withdrawal_gap_is_globally_dark_for_t1() {
    let config = ScenarioConfig::new(3, 0.002);
    let events = Scenario::new(config.clone()).run_control_plane();
    let vis = Visibility::from_events(&events);
    let schedule = config.schedule();
    // An hour into the withdrawal day of cycle 4, nothing under the /32 is
    // routed, while T2 and the covering /29 stay up.
    let t = schedule.cycle_start(4) + SimDuration::hours(1);
    assert!(vis.lpm(config.layout.t1.low_byte_address(), t).is_none());
    assert!(vis.lpm(config.layout.t2.low_byte_address(), t).is_some());
    assert!(vis
        .lpm(config.layout.t3.low_byte_address(), t)
        .is_some_and(|pre| pre == config.layout.covering));
}

#[test]
fn live_monitors_react_within_thirty_minutes() {
    // §7.2: 18 sources reliably show up within 30 minutes of a new
    // announcement. Verify reactive scanners in the population fire fast.
    let result = Scenario::new(ScenarioConfig::new(11, 0.01)).run();
    let schedule = &result.schedule;
    // Count T1 packets arriving within 30 minutes of any cycle's
    // re-announcement instant.
    let mut fast_reactions = 0;
    for cycle in 1..=schedule.cycles {
        let announce_at = schedule.cycle_start(cycle) + SimDuration::days(1);
        let window_end = announce_at + SimDuration::mins(35);
        fast_reactions += result.captures[&sixscope_telescope::TelescopeId::T1]
            .packets()
            .iter()
            .filter(|pkt| pkt.ts >= announce_at && pkt.ts < window_end)
            .count();
    }
    assert!(
        fast_reactions > 0,
        "no probes within 30 minutes of re-announcements"
    );
}

#[test]
fn propagation_delay_is_path_dependent() {
    let mut topo = standard_topology(Asn(64500), Asn(64510), Asn(64999), SimTime::EPOCH);
    let t0 = SimTime::from_secs(10_000);
    topo.announce(Asn(64500), p("2001:db8::/32"), t0);
    topo.run_until(t0 + SimDuration::mins(5));
    let first = topo
        .collector()
        .events()
        .iter()
        .find(|e| e.is_announce())
        .expect("announce event");
    // Fastest path: origin→transit1 (2s) →collector (8s).
    assert_eq!(first.ts, t0 + SimDuration::secs(10));
}

#[test]
fn full_schedule_converges_with_no_stuck_messages() {
    let covering = p("2001:db8::/32");
    let schedule = SplitSchedule::paper(covering, SimTime::EPOCH + SimDuration::days(1));
    let mut topo = standard_topology(Asn(64500), Asn(64510), Asn(64999), SimTime::EPOCH);
    for action in schedule.actions() {
        topo.run_until(action.at);
        match action.kind {
            ScheduleActionKind::Announce => topo.announce(Asn(64500), action.prefix, action.at),
            ScheduleActionKind::Withdraw => topo.withdraw(Asn(64500), action.prefix, action.at),
        }
    }
    topo.run_until(schedule.end() + SimDuration::hours(1));
    assert_eq!(topo.in_flight(), 0);
    // Final table is exactly the 17-prefix set of Fig. 2.
    let mut expected = schedule.announced_set(schedule.cycles);
    expected.sort();
    let mut table = topo.global_table();
    table.sort();
    assert_eq!(table, expected);
}

#[test]
fn hitlist_lag_matches_paper_observation() {
    // §3.2: the T1 prefix appeared on the hitlist 5 days after its first
    // announcement; presence has no traffic impact (checked implicitly by
    // the calibrated tables), but the latency itself must hold.
    let result = Scenario::new(ScenarioConfig::new(13, 0.002)).run();
    let t1 = result.layout.t1;
    let (first, _) = *result
        .visibility
        .announce_transitions()
        .iter()
        .find(|(_, prefix)| *prefix == t1)
        .unwrap();
    let published = result.hitlist.published_at(t1.low_byte_address()).unwrap();
    assert_eq!(published.as_secs() - first.as_secs(), 5 * 86_400);
}
