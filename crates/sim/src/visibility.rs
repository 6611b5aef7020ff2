//! BGP visibility: which prefixes the route collector saw, and when.
//!
//! The collector's announce/withdraw events fold into per-prefix
//! half-open intervals `[announced, withdrawn)`, and the intervals compile
//! into *epochs*: the visible set only changes at an interval endpoint, so
//! between two consecutive endpoints it is constant. Each epoch keeps one
//! prefix-ordered snapshot of the announced set and one copy in
//! descending prefix length; a query is a binary search over the epoch
//! starts (or a burst cursor) plus a first-match scan of that copy. The
//! simulated control plane announces at most 19 prefixes at once (T2, the
//! covering /29 and up to 17 T1 prefixes), so the scan stays short.
//!
//! Everything downstream asks this structure: *which prefixes are
//! announced at t?* (scanner world view), *which prefix routes this
//! address at t?* (data-plane delivery), and *when did a prefix become
//! visible?* (BGP-reactive triggers, hitlist publication lag). Scanners
//! consume the announced set in order, so its order is part of the
//! byte-identical-output contract. `crates/sim/tests/prop.rs` restates
//! the interval model as the oracle the epochs are checked against: same
//! LPM for every `(addr, t)`, same announced set in content and order.

use sixscope_bgp::{RouteEvent, RouteEventKind};
use sixscope_types::{Ipv6Prefix, SimTime};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

/// BGP visibility of every prefix ever seen at the collector, compiled
/// into epochs.
#[derive(Debug, Clone, Default)]
pub struct Visibility {
    /// Epoch start times, ascending: every distinct announce and withdraw
    /// time. Epoch `i` covers `[starts[i], starts[i+1])`; times before
    /// `starts[0]` fall into an implicit empty epoch (nothing announced
    /// before the first event).
    starts: Vec<SimTime>,
    /// Visible prefixes per epoch, in prefix order.
    announced: Vec<Vec<Ipv6Prefix>>,
    /// Visible prefixes per epoch in *descending length* order. Two
    /// distinct prefixes of equal length cannot both contain an address,
    /// so the first containing prefix in this order is the longest match,
    /// for a set of any size.
    by_len: Vec<Vec<Ipv6Prefix>>,
    /// Every invisible→visible transition `(time, prefix)`, time-ordered.
    transitions: Vec<(SimTime, Ipv6Prefix)>,
}

impl Visibility {
    /// Folds a time-ordered collector event stream into epochs.
    ///
    /// Duplicate announcements (e.g. via two upstreams) extend nothing; a
    /// withdraw closes the open interval if one exists.
    pub fn from_events(events: &[RouteEvent]) -> Visibility {
        // prefix → `[from, until)` intervals (None = still visible).
        let mut intervals: BTreeMap<Ipv6Prefix, Vec<(SimTime, Option<SimTime>)>> = BTreeMap::new();
        for ev in events {
            let list = intervals.entry(ev.prefix).or_default();
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
        let mut starts: Vec<SimTime> = intervals
            .values()
            .flatten()
            .flat_map(|(from, until)| std::iter::once(*from).chain(*until))
            .collect();
        starts.sort_unstable();
        starts.dedup();
        let announced: Vec<Vec<Ipv6Prefix>> = starts
            .iter()
            .map(|&t| {
                intervals
                    .iter()
                    .filter(|(_, list)| {
                        list.iter()
                            .any(|(from, until)| *from <= t && until.is_none_or(|u| t < u))
                    })
                    .map(|(p, _)| *p)
                    .collect()
            })
            .collect();
        let by_len = announced
            .iter()
            .map(|visible| {
                let mut longest_first = visible.clone();
                longest_first.sort_by_key(|p| std::cmp::Reverse(p.len()));
                longest_first
            })
            .collect();
        let mut transitions: Vec<(SimTime, Ipv6Prefix)> = intervals
            .iter()
            .flat_map(|(p, list)| list.iter().map(move |(from, _)| (*from, *p)))
            .collect();
        transitions.sort();
        Visibility {
            starts,
            announced,
            by_len,
            transitions,
        }
    }

    /// Every transition invisible→visible: `(time, prefix)`, time-ordered.
    /// These are the events BGP-reactive scanners fire on.
    pub fn announce_transitions(&self) -> &[(SimTime, Ipv6Prefix)] {
        &self.transitions
    }

    /// Epoch index for `t`, or `None` before the first event.
    fn epoch(&self, t: SimTime) -> Option<usize> {
        self.starts.partition_point(|&s| s <= t).checked_sub(1)
    }

    /// LPM within epoch `e`: the first prefix of the descending-length
    /// list that contains `addr`.
    fn lpm_in_epoch(&self, e: usize, addr: Ipv6Addr) -> Option<Ipv6Prefix> {
        self.by_len[e].iter().find(|p| p.contains(addr)).copied()
    }

    /// Longest visible prefix covering `addr` at `t` (data-plane LPM).
    pub fn lpm(&self, addr: Ipv6Addr, t: SimTime) -> Option<Ipv6Prefix> {
        let e = self.epoch(t)?;
        self.lpm_in_epoch(e, addr)
    }

    /// All prefixes visible at `t`, in prefix order, without allocating.
    pub fn announced_at(&self, t: SimTime) -> &[Ipv6Prefix] {
        match self.epoch(t) {
            Some(e) => &self.announced[e],
            None => &[],
        }
    }

    /// Epoch index for `t` with a monotone cursor. The cursor holds the
    /// count of epoch starts ≤ the previous query time; a time-sorted probe
    /// burst advances it a step at a time instead of re-running the binary
    /// search per probe, and a regressing `t` falls back to the search.
    /// Results are identical to `epoch` for any query sequence.
    fn epoch_cached(&self, t: SimTime, cursor: &Cell<usize>) -> Option<usize> {
        let mut idx = cursor.get().min(self.starts.len());
        if idx > 0 && self.starts[idx - 1] > t {
            idx = self.starts.partition_point(|&s| s <= t);
        } else {
            while idx < self.starts.len() && self.starts[idx] <= t {
                idx += 1;
            }
        }
        cursor.set(idx);
        idx.checked_sub(1)
    }

    /// [`Visibility::announced_at`] with a burst cursor.
    pub fn announced_at_cached(&self, t: SimTime, cursor: &Cell<usize>) -> &[Ipv6Prefix] {
        match self.epoch_cached(t, cursor) {
            Some(e) => &self.announced[e],
            None => &[],
        }
    }

    /// True when any visible prefix covers `addr` at `t` — the boolean of
    /// [`Visibility::lpm`], with both a burst cursor and a covering-prefix
    /// hint. The DFZ gate only needs *some* visible cover, not the longest
    /// one, so when the previous probe's covering prefix is still visible
    /// (same epoch) and contains `addr`, the LPM scan is skipped entirely;
    /// scanners probe one region at a time, so the hint hits for nearly
    /// every routed probe.
    pub fn routed_cached(
        &self,
        addr: Ipv6Addr,
        t: SimTime,
        cursor: &Cell<usize>,
        hint: &Cell<Option<(usize, Ipv6Prefix)>>,
    ) -> bool {
        let Some(e) = self.epoch_cached(t, cursor) else {
            return false;
        };
        if let Some((hint_epoch, prefix)) = hint.get() {
            if hint_epoch == e && prefix.contains(addr) {
                return true;
            }
        }
        match self.lpm_in_epoch(e, addr) {
            Some(prefix) => {
                hint.set(Some((e, prefix)));
                true
            }
            None => false,
        }
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

    fn visible(vis: &Visibility, prefix: &str, ts: u64) -> bool {
        vis.announced_at(SimTime::from_secs(ts))
            .contains(&p(prefix))
    }

    #[test]
    fn announce_withdraw_cycle() {
        let vis = Visibility::from_events(&[
            announce(100, "2001:db8::/32"),
            withdraw(500, "2001:db8::/32"),
            announce(900, "2001:db8::/32"),
        ]);
        let pre = "2001:db8::/32";
        assert!(!visible(&vis, pre, 99));
        assert!(visible(&vis, pre, 100));
        assert!(visible(&vis, pre, 499));
        assert!(!visible(&vis, pre, 500), "withdraw boundary is exclusive");
        assert!(!visible(&vis, pre, 700));
        assert!(visible(&vis, pre, 900));
        assert!(visible(&vis, pre, 1_000_000), "still open");
    }

    #[test]
    fn duplicate_announcements_are_idempotent() {
        let vis = Visibility::from_events(&[
            announce(100, "2001:db8::/32"),
            announce(105, "2001:db8::/32"), // second upstream
            withdraw(500, "2001:db8::/32"),
        ]);
        assert!(!visible(&vis, "2001:db8::/32", 600));
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
            [p("2001:db8::/33"), p("2001:db8:8000::/33")]
        );
        assert_eq!(
            vis.announced_at(SimTime::from_secs(150)),
            [p("2001:db8:8000::/33")]
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
        assert_eq!(
            transitions,
            [
                (SimTime::from_secs(100), p("2001:db8::/32")),
                (SimTime::from_secs(250), p("2001:db8:8000::/33")),
                (SimTime::from_secs(300), p("2001:db8::/32")),
            ]
        );
        // A prefix's first transition is when it was first seen.
        let first_seen = |prefix: Ipv6Prefix| {
            transitions
                .iter()
                .find(|(_, p)| *p == prefix)
                .map(|(t, _)| *t)
        };
        assert_eq!(
            first_seen(p("2001:db8::/32")),
            Some(SimTime::from_secs(100))
        );
        assert_eq!(first_seen(p("3fff::/20")), None);
    }

    #[test]
    fn orphan_withdraw_is_ignored() {
        let vis = Visibility::from_events(&[withdraw(10, "2001:db8::/32")]);
        assert!(!visible(&vis, "2001:db8::/32", 20));
        assert!(vis.announce_transitions().is_empty());
    }

    #[test]
    fn before_first_event_nothing_is_routed() {
        let vis = Visibility::from_events(&[announce(100, "2001:db8::/32")]);
        let addr: Ipv6Addr = "2001:db8::1".parse().unwrap();
        assert_eq!(vis.lpm(addr, SimTime::from_secs(99)), None);
        assert!(vis.announced_at(SimTime::from_secs(99)).is_empty());
    }

    #[test]
    fn cached_lookups_match_uncached_for_any_query_order() {
        let vis = Visibility::from_events(&[
            announce(100, "2001:db8::/32"),
            announce(100, "2001:db8:1234::/48"),
            withdraw(500, "2001:db8:1234::/48"),
            announce(900, "2001:db8:1234::/48"),
            withdraw(1200, "2001:db8::/32"),
        ]);
        // Forward sweep, a time regression mid-burst, then forward again.
        let times = [
            0u64, 99, 100, 450, 499, 500, 950, 120, 900, 1199, 1200, 9000,
        ];
        let cursor = Cell::new(0);
        for ts in times {
            let t = SimTime::from_secs(ts);
            assert_eq!(
                vis.announced_at_cached(t, &cursor),
                vis.announced_at(t),
                "announced_at diverged at t={ts}"
            );
        }
    }

    #[test]
    fn routed_cached_matches_lpm_presence_for_any_query_order() {
        let vis = Visibility::from_events(&[
            announce(100, "2001:db8::/32"),
            announce(100, "2001:db8:1234::/48"),
            withdraw(500, "2001:db8:1234::/48"),
            withdraw(1200, "2001:db8::/32"),
        ]);
        let addrs: [Ipv6Addr; 3] = [
            "2001:db8:1234::1".parse().unwrap(),
            "2001:db8:ffff::1".parse().unwrap(),
            "3fff::1".parse().unwrap(), // never routed
        ];
        let cursor = Cell::new(0);
        let hint = Cell::new(None);
        // Forward sweep with a regression, alternating addresses so the
        // hint both hits and misses across epoch changes.
        for ts in [0u64, 99, 100, 100, 450, 499, 500, 120, 900, 1200, 9000] {
            let t = SimTime::from_secs(ts);
            for addr in addrs {
                assert_eq!(
                    vis.routed_cached(addr, t, &cursor, &hint),
                    vis.lpm(addr, t).is_some(),
                    "routed diverged for {addr} at t={ts}"
                );
            }
        }
    }

    #[test]
    fn empty_visibility_compiles_to_no_epochs() {
        for vis in [Visibility::default(), Visibility::from_events(&[])] {
            assert!(vis.starts.is_empty());
            assert_eq!(vis.lpm("::1".parse().unwrap(), SimTime::EPOCH), None);
            assert!(vis.announced_at(SimTime::from_secs(u64::MAX)).is_empty());
        }
    }
}
