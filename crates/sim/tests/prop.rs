//! `Visibility`'s epochs against the interval model they compile: the
//! collector's events folded into per-prefix `[announced, withdrawn)`
//! intervals and scanned per query. Both must give the same
//! longest-prefix match, the same announced set (content and order) and
//! the same announce transitions, for arbitrary event streams and queries.

use proptest::collection::vec;
use proptest::prelude::*;
use sixscope_bgp::{RouteEvent, RouteEventKind};
use sixscope_sim::Visibility;
use sixscope_types::{Asn, Ipv6Prefix, SimTime};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

/// The interval model: per prefix, its `[from, until)` intervals (`None`
/// = still visible), answered by scanning every prefix per query.
struct Intervals(BTreeMap<Ipv6Prefix, Vec<(SimTime, Option<SimTime>)>>);

impl Intervals {
    /// Duplicate announcements extend nothing; a withdraw closes the open
    /// interval if one exists.
    fn from_events(events: &[RouteEvent]) -> Intervals {
        let mut intervals: BTreeMap<Ipv6Prefix, Vec<(SimTime, Option<SimTime>)>> = BTreeMap::new();
        for ev in events {
            let list = intervals.entry(ev.prefix).or_default();
            match &ev.kind {
                RouteEventKind::Announce { .. } => {
                    if !list.last().is_some_and(|(_, until)| until.is_none()) {
                        list.push((ev.ts, None));
                    }
                }
                RouteEventKind::Withdraw => {
                    if let Some(last) = list.last_mut() {
                        if last.1.is_none() {
                            last.1 = Some(ev.ts);
                        }
                    }
                }
            }
        }
        Intervals(intervals)
    }

    fn visible(list: &[(SimTime, Option<SimTime>)], t: SimTime) -> bool {
        list.iter()
            .any(|(from, until)| *from <= t && until.is_none_or(|u| t < u))
    }

    fn announced_at(&self, t: SimTime) -> Vec<Ipv6Prefix> {
        self.0
            .iter()
            .filter(|(_, list)| Self::visible(list, t))
            .map(|(p, _)| *p)
            .collect()
    }

    fn lpm(&self, addr: Ipv6Addr, t: SimTime) -> Option<Ipv6Prefix> {
        self.0
            .iter()
            .filter(|(p, list)| p.contains(addr) && Self::visible(list, t))
            .map(|(p, _)| *p)
            .max_by_key(|p| p.len())
    }

    fn announce_transitions(&self) -> Vec<(SimTime, Ipv6Prefix)> {
        let mut out: Vec<(SimTime, Ipv6Prefix)> = self
            .0
            .iter()
            .flat_map(|(p, list)| list.iter().map(move |(from, _)| (*from, *p)))
            .collect();
        out.sort();
        out
    }
}

/// A pool of nested and disjoint prefixes so LPM has real work to do.
const PREFIXES: [&str; 6] = [
    "2001:db8::/32",
    "2001:db8::/33",
    "2001:db8:8000::/33",
    "2001:db8:1234::/48",
    "2001:db8:1234:5600::/56",
    "3fff::/20",
];

fn event(ts: u64, prefix: &str, up: bool) -> RouteEvent {
    RouteEvent {
        ts: SimTime::from_secs(ts),
        prefix: prefix.parse().unwrap(),
        kind: if up {
            RouteEventKind::Announce {
                origin_as: Asn(64_500),
                as_path: vec![Asn(64_500)],
            }
        } else {
            RouteEventKind::Withdraw
        },
    }
}

fn announce(ts: u64, prefix: &str) -> RouteEvent {
    event(ts, prefix, true)
}

fn withdraw(ts: u64, prefix: &str) -> RouteEvent {
    event(ts, prefix, false)
}

/// Query addresses concentrate inside the 2001:db8::/32 so most lookups
/// traverse the nested-prefix chain; the raw bits occasionally land
/// elsewhere, covering the no-match path.
fn query_addr(bits: u128, inside: bool) -> Ipv6Addr {
    if inside {
        let net: u128 = 0x2001_0db8 << 96;
        Ipv6Addr::from(net | (bits & ((1u128 << 96) - 1)))
    } else {
        Ipv6Addr::from(bits)
    }
}

proptest! {
    #[test]
    fn compiled_visibility_matches_naive(
        raw_events in vec((0u64..10_000, 0usize..6, any::<bool>()), 0..40),
        queries in vec((any::<u128>(), any::<bool>(), 0u64..12_000), 1..60),
    ) {
        let mut events: Vec<RouteEvent> = raw_events
            .iter()
            .map(|&(ts, idx, up)| event(ts, PREFIXES[idx], up))
            .collect();
        // Collector streams are time-ordered; the fold requires it.
        events.sort_by_key(|e| e.ts);
        let vis = Visibility::from_events(&events);
        let naive = Intervals::from_events(&events);
        let transitions = naive.announce_transitions();
        prop_assert_eq!(vis.announce_transitions(), transitions.as_slice());
        // The random query times, plus every epoch boundary and the second
        // before it.
        let times: Vec<u64> = queries
            .iter()
            .map(|&(_, _, ts)| ts)
            .chain(events.iter().flat_map(|e| [e.ts.as_secs(), e.ts.as_secs().saturating_sub(1)]))
            .collect();
        for &ts in &times {
            let t = SimTime::from_secs(ts);
            let announced = naive.announced_at(t);
            prop_assert_eq!(
                vis.announced_at(t),
                announced.as_slice(),
                "announced_at diverged at t={}",
                ts
            );
            for &(bits, inside, _) in &queries {
                let addr = query_addr(bits, inside);
                prop_assert_eq!(
                    vis.lpm(addr, t),
                    naive.lpm(addr, t),
                    "lpm diverged for {} at t={}",
                    addr,
                    ts
                );
            }
        }
    }
}

#[test]
fn matches_naive_on_a_small_schedule() {
    let events = [
        announce(100, "2001:db8::/32"),
        announce(100, "2001:db8:1234::/48"),
        withdraw(500, "2001:db8:1234::/48"),
        announce(900, "2001:db8:1234::/48"),
        withdraw(1200, "2001:db8::/32"),
    ];
    let vis = Visibility::from_events(&events);
    let naive = Intervals::from_events(&events);
    let addr: Ipv6Addr = "2001:db8:1234::1".parse().unwrap();
    for ts in [0, 99, 100, 499, 500, 899, 900, 1199, 1200, 5000] {
        let t = SimTime::from_secs(ts);
        assert_eq!(
            vis.lpm(addr, t),
            naive.lpm(addr, t),
            "lpm diverged at t={ts}"
        );
        assert_eq!(
            vis.announced_at(t),
            naive.announced_at(t).as_slice(),
            "announced_at diverged at t={ts}"
        );
    }
}

/// Forty prefixes visible at once, nested and disjoint — more than any
/// epoch of the simulated control plane holds — through the one LPM
/// path, queried forward, backward and with regressing times.
#[test]
fn forty_visible_prefixes_match_naive_lpm() {
    let mut prefixes = vec!["2001:db8::/32".to_string()];
    prefixes.extend((1..=20).map(|i| format!("2001:db8:{i:x}::/48")));
    prefixes.extend((1..=5).map(|i| format!("2001:db8:1:{i:x}00::/56")));
    prefixes.extend((1..=4).map(|i| format!("2001:db8:1:1{i:02x}::/64")));
    prefixes.extend((1..=10).map(|i| format!("3fff:{i:x}::/48")));
    let mut events: Vec<RouteEvent> = prefixes.iter().map(|p| announce(100, p)).collect();
    // Withdrawn at 500 and back at 900: every second /48 under the /32,
    // and the /56s.
    let flapping: Vec<&String> = prefixes[2..=20]
        .iter()
        .step_by(2)
        .chain(&prefixes[21..26])
        .collect();
    events.extend(flapping.iter().map(|p| withdraw(500, p)));
    events.extend(flapping.iter().map(|p| announce(900, p)));
    events.push(withdraw(1200, "2001:db8::/32"));
    let vis = Visibility::from_events(&events);
    let naive = Intervals::from_events(&events);
    assert_eq!(vis.announced_at(SimTime::from_secs(100)).len(), 40);

    let mut addrs: Vec<Ipv6Addr> = Vec::new();
    for p in &prefixes {
        let prefix: Ipv6Prefix = p.parse().unwrap();
        addrs.push(prefix.network());
        addrs.push(prefix.nth_address(0x1_0001));
    }
    // Outside every prefix, and inside a /56 but none of its /64s.
    for a in ["2001:db7::1", "3fff:ff::1", "4000::1", "2001:db8:1:1ff::1"] {
        addrs.push(a.parse().unwrap());
    }
    let forward = [0u64, 99, 100, 101, 499, 500, 899, 900, 1199, 1200, 5000];
    let backward: Vec<u64> = forward.iter().rev().copied().collect();
    let regressing = [100u64, 950, 120, 600, 1300, 450, 900, 99, 1100];
    for times in [&forward[..], &backward, &regressing] {
        let cursor = Cell::new(0);
        let hint = Cell::new(None);
        for &ts in times {
            let t = SimTime::from_secs(ts);
            for &addr in &addrs {
                let expected = naive.lpm(addr, t);
                assert_eq!(vis.lpm(addr, t), expected, "lpm of {addr} at t={ts}");
                assert_eq!(
                    vis.routed_cached(addr, t, &cursor, &hint),
                    expected.is_some(),
                    "routed {addr} at t={ts}"
                );
            }
        }
    }
}
