//! Per-prefix visibility intervals derived from the collector feed.
//!
//! The collector's announce/withdraw events are folded into half-open
//! intervals `[announced, withdrawn)` per prefix. Everything downstream
//! asks this structure: *was this prefix visible at time t?* (scanner world
//! view), *which prefix routes this address at time t?* (data-plane
//! delivery), and *when did a prefix first become visible?* (BGP-reactive
//! triggers, hitlist publication lag).

use sixscope_bgp::{RouteEvent, RouteEventKind};
use sixscope_types::{Ipv6Prefix, SimTime};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

/// Visibility intervals for every prefix ever seen at the collector.
#[derive(Debug, Clone, Default)]
pub struct Visibility {
    /// prefix → list of `[from, until)` intervals (None = still visible).
    intervals: BTreeMap<Ipv6Prefix, Vec<(SimTime, Option<SimTime>)>>,
}

impl Visibility {
    /// Folds a collector event stream into intervals.
    ///
    /// Duplicate announcements (e.g. via two upstreams) extend nothing; a
    /// withdraw closes the open interval if one exists.
    pub fn from_events(events: &[RouteEvent]) -> Visibility {
        let mut vis = Visibility::default();
        for ev in events {
            let list = vis.intervals.entry(ev.prefix).or_default();
            match &ev.kind {
                RouteEventKind::Announce { .. } => {
                    let open = list.last().is_some_and(|(_, until)| until.is_none());
                    if !open {
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
        vis
    }

    /// True if `prefix` was visible at `t`.
    pub fn visible(&self, prefix: &Ipv6Prefix, t: SimTime) -> bool {
        self.intervals
            .get(prefix)
            .is_some_and(|list| Self::in_intervals(list, t))
    }

    fn in_intervals(list: &[(SimTime, Option<SimTime>)], t: SimTime) -> bool {
        list.iter()
            .any(|(from, until)| *from <= t && until.is_none_or(|u| t < u))
    }

    /// All prefixes visible at `t`, in prefix order.
    pub fn announced_at(&self, t: SimTime) -> Vec<Ipv6Prefix> {
        self.intervals
            .iter()
            .filter(|(_, list)| Self::in_intervals(list, t))
            .map(|(p, _)| *p)
            .collect()
    }

    /// Longest visible prefix covering `addr` at `t` (data-plane LPM).
    pub fn lpm(&self, addr: Ipv6Addr, t: SimTime) -> Option<Ipv6Prefix> {
        self.intervals
            .iter()
            .filter(|(p, list)| p.contains(addr) && Self::in_intervals(list, t))
            .map(|(p, _)| *p)
            .max_by_key(|p| p.len())
    }

    /// Every transition invisible→visible: `(time, prefix)`, time-ordered.
    /// These are the events BGP-reactive scanners fire on.
    pub fn announce_transitions(&self) -> Vec<(SimTime, Ipv6Prefix)> {
        let mut out: Vec<(SimTime, Ipv6Prefix)> = self
            .intervals
            .iter()
            .flat_map(|(p, list)| list.iter().map(move |(from, _)| (*from, *p)))
            .collect();
        out.sort();
        out
    }

    /// Every distinct interval endpoint (announce and withdraw times),
    /// sorted ascending. Between two consecutive endpoints the visible set
    /// is constant — these are the epoch boundaries the compiled LPM
    /// snapshots (see `compiled::CompiledVisibility`).
    pub fn endpoints(&self) -> Vec<SimTime> {
        let mut out: Vec<SimTime> = self
            .intervals
            .values()
            .flatten()
            .flat_map(|(from, until)| std::iter::once(*from).chain(*until))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// First time each prefix became visible.
    pub fn first_seen(&self, prefix: &Ipv6Prefix) -> Option<SimTime> {
        self.intervals
            .get(prefix)
            .and_then(|l| l.first())
            .map(|(from, _)| *from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixscope_types::Asn;

    fn announce(ts: u64, prefix: &str) -> RouteEvent {
        RouteEvent {
            ts: SimTime::from_secs(ts),
            prefix: prefix.parse().unwrap(),
            kind: RouteEventKind::Announce {
                origin_as: Asn(64500),
                as_path: vec![Asn(3320), Asn(64500)],
            },
        }
    }

    fn withdraw(ts: u64, prefix: &str) -> RouteEvent {
        RouteEvent {
            ts: SimTime::from_secs(ts),
            prefix: prefix.parse().unwrap(),
            kind: RouteEventKind::Withdraw,
        }
    }

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn announce_withdraw_cycle() {
        let vis = Visibility::from_events(&[
            announce(100, "2001:db8::/32"),
            withdraw(500, "2001:db8::/32"),
            announce(900, "2001:db8::/32"),
        ]);
        let pre = p("2001:db8::/32");
        assert!(!vis.visible(&pre, SimTime::from_secs(99)));
        assert!(vis.visible(&pre, SimTime::from_secs(100)));
        assert!(vis.visible(&pre, SimTime::from_secs(499)));
        assert!(
            !vis.visible(&pre, SimTime::from_secs(500)),
            "withdraw boundary is exclusive"
        );
        assert!(!vis.visible(&pre, SimTime::from_secs(700)));
        assert!(vis.visible(&pre, SimTime::from_secs(900)));
        assert!(
            vis.visible(&pre, SimTime::from_secs(1_000_000)),
            "still open"
        );
    }

    #[test]
    fn duplicate_announcements_are_idempotent() {
        let vis = Visibility::from_events(&[
            announce(100, "2001:db8::/32"),
            announce(105, "2001:db8::/32"), // second upstream
            withdraw(500, "2001:db8::/32"),
        ]);
        assert!(!vis.visible(&p("2001:db8::/32"), SimTime::from_secs(600)));
        // Only one transition recorded.
        assert_eq!(vis.announce_transitions().len(), 1);
    }

    #[test]
    fn lpm_prefers_most_specific_visible() {
        let vis = Visibility::from_events(&[
            announce(0, "2001:db8::/32"),
            announce(0, "2001:db8:1234::/48"),
            withdraw(100, "2001:db8:1234::/48"),
        ]);
        let addr: Ipv6Addr = "2001:db8:1234::1".parse().unwrap();
        assert_eq!(
            vis.lpm(addr, SimTime::from_secs(50)),
            Some(p("2001:db8:1234::/48"))
        );
        assert_eq!(
            vis.lpm(addr, SimTime::from_secs(150)),
            Some(p("2001:db8::/32"))
        );
        assert_eq!(
            vis.lpm("3fff::1".parse().unwrap(), SimTime::from_secs(50)),
            None
        );
    }

    #[test]
    fn announced_at_snapshot() {
        let vis = Visibility::from_events(&[
            announce(0, "2001:db8::/33"),
            announce(0, "2001:db8:8000::/33"),
            withdraw(100, "2001:db8::/33"),
        ]);
        assert_eq!(
            vis.announced_at(SimTime::from_secs(50)),
            vec![p("2001:db8::/33"), p("2001:db8:8000::/33")]
        );
        assert_eq!(
            vis.announced_at(SimTime::from_secs(150)),
            vec![p("2001:db8:8000::/33")]
        );
    }

    #[test]
    fn transitions_and_first_seen() {
        let vis = Visibility::from_events(&[
            announce(100, "2001:db8::/32"),
            withdraw(200, "2001:db8::/32"),
            announce(300, "2001:db8::/32"),
            announce(250, "2001:db8:8000::/33"),
        ]);
        let transitions = vis.announce_transitions();
        assert_eq!(transitions.len(), 3);
        assert!(transitions.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(
            vis.first_seen(&p("2001:db8::/32")),
            Some(SimTime::from_secs(100))
        );
        assert_eq!(vis.first_seen(&p("3fff::/20")), None);
    }

    #[test]
    fn orphan_withdraw_is_ignored() {
        let vis = Visibility::from_events(&[withdraw(10, "2001:db8::/32")]);
        assert!(!vis.visible(&p("2001:db8::/32"), SimTime::from_secs(20)));
        assert!(vis.announce_transitions().is_empty());
    }
}
