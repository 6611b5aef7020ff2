//! World metadata: the TUM-style hitlist with publication lag.
//!
//! §3.2/§7.2 of the paper: the T1 /32 appeared on the TUM hitlist five days
//! after its first announcement; new split prefixes appeared within days;
//! presence on the list had no measurable effect on traffic. The model
//! publishes each newly visible prefix's low-byte address after a fixed
//! lag, plus statically listed entries (T2 and the covering /29 were listed
//! before the experiment).

use crate::visibility::Visibility;
use sixscope_types::{Ipv6Prefix, SimDuration, SimTime};
use std::net::Ipv6Addr;

/// The paper's observed publication lag (≈ 5 days).
pub const PUBLICATION_LAG: SimDuration = SimDuration(5 * 86_400);

/// A hitlist entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitlistEntry {
    /// When the entry became visible on the list.
    pub published: SimTime,
    /// The listed address.
    pub addr: Ipv6Addr,
}

/// The TUM-style public hitlist.
#[derive(Debug, Clone, Default)]
pub struct TumHitlist {
    entries: Vec<HitlistEntry>,
    /// The entry addresses in publication order, cached so [`Self::as_of`]
    /// can hand out a borrowed prefix of the list without allocating.
    addrs: Vec<Ipv6Addr>,
}

impl TumHitlist {
    /// Builds the hitlist: `static_entries` are pre-listed (published at
    /// epoch); every first-visibility transition adds the prefix's
    /// low-byte address after [`PUBLICATION_LAG`].
    pub fn build(static_entries: &[Ipv6Addr], visibility: &Visibility) -> TumHitlist {
        let mut entries: Vec<HitlistEntry> = static_entries
            .iter()
            .map(|&addr| HitlistEntry {
                published: SimTime::EPOCH,
                addr,
            })
            .collect();
        let mut seen: Vec<Ipv6Prefix> = Vec::new();
        for &(ts, prefix) in visibility.announce_transitions() {
            if seen.contains(&prefix) {
                continue; // re-announcements do not re-publish
            }
            seen.push(prefix);
            entries.push(HitlistEntry {
                published: ts + PUBLICATION_LAG,
                addr: prefix.low_byte_address(),
            });
        }
        entries.sort_by_key(|e| e.published);
        let addrs = entries.iter().map(|e| e.addr).collect();
        TumHitlist { entries, addrs }
    }

    /// Addresses listed at `t`, borrowed: the publication-ordered prefix of
    /// the full list, found by binary search. This is the hot-path variant
    /// behind `ScanContext::hitlist`.
    pub fn as_of(&self, t: SimTime) -> &[Ipv6Addr] {
        let n = self.entries.partition_point(|e| e.published <= t);
        &self.addrs[..n]
    }

    /// [`TumHitlist::as_of`] with a monotone burst cursor holding the count
    /// of entries published ≤ the previous query time: time-sorted probe
    /// bursts advance it stepwise instead of re-running the binary search,
    /// and a regressing `t` falls back to the search. Identical results to
    /// [`TumHitlist::as_of`] for any query sequence.
    pub fn as_of_cached(&self, t: SimTime, cursor: &std::cell::Cell<usize>) -> &[Ipv6Addr] {
        let mut n = cursor.get().min(self.entries.len());
        if n > 0 && self.entries[n - 1].published > t {
            n = self.entries.partition_point(|e| e.published <= t);
        } else {
            while n < self.entries.len() && self.entries[n].published <= t {
                n += 1;
            }
        }
        cursor.set(n);
        &self.addrs[..n]
    }

    /// When `addr` was first published, if ever.
    pub fn published_at(&self, addr: Ipv6Addr) -> Option<SimTime> {
        self.entries
            .iter()
            .find(|e| e.addr == addr)
            .map(|e| e.published)
    }

    /// Total entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixscope_bgp::{RouteEvent, RouteEventKind};
    use sixscope_types::Asn;

    fn vis(events: &[(u64, &str, bool)]) -> Visibility {
        let evs: Vec<RouteEvent> = events
            .iter()
            .map(|(ts, prefix, up)| RouteEvent {
                ts: SimTime::from_secs(*ts),
                prefix: prefix.parse().unwrap(),
                kind: if *up {
                    RouteEventKind::Announce {
                        origin_as: Asn(1),
                        as_path: vec![Asn(1)],
                    }
                } else {
                    RouteEventKind::Withdraw
                },
            })
            .collect();
        Visibility::from_events(&evs)
    }

    #[test]
    fn publication_lag_applies() {
        let v = vis(&[(1000, "2001:db8::/32", true)]);
        let list = TumHitlist::build(&[], &v);
        let addr: Ipv6Addr = "2001:db8::1".parse().unwrap();
        assert_eq!(
            list.published_at(addr),
            Some(SimTime::from_secs(1000) + PUBLICATION_LAG)
        );
        assert!(list.as_of(SimTime::from_secs(1000)).is_empty());
        assert_eq!(
            list.as_of(SimTime::from_secs(1000) + PUBLICATION_LAG),
            &[addr]
        );
    }

    #[test]
    fn static_entries_are_listed_from_epoch() {
        let addr: Ipv6Addr = "3fff:800::1".parse().unwrap();
        let list = TumHitlist::build(&[addr], &Visibility::default());
        assert_eq!(list.as_of(SimTime::EPOCH), &[addr]);
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn reannouncement_does_not_duplicate() {
        let v = vis(&[
            (100, "2001:db8::/32", true),
            (200, "2001:db8::/32", false),
            (300, "2001:db8::/32", true),
        ]);
        let list = TumHitlist::build(&[], &v);
        assert_eq!(list.len(), 1);
        assert_eq!(
            list.published_at("2001:db8::1".parse().unwrap()),
            Some(SimTime::from_secs(100) + PUBLICATION_LAG)
        );
    }

    #[test]
    fn as_of_respects_publication_boundaries() {
        let v = vis(&[
            (100, "2001:db8::/33", true),
            (5000, "2001:db8:8000::/33", true),
        ]);
        let list = TumHitlist::build(&["3fff::1".parse().unwrap()], &v);
        let full = list.as_of(SimTime::from_secs(u64::MAX));
        for ts in [0, 99, 100, 100 + 5 * 86_400, 5000 + 5 * 86_400, 10_000_000] {
            let t = SimTime::from_secs(ts);
            let snapshot = list.as_of(t);
            let expected = full
                .iter()
                .filter(|a| list.published_at(**a).expect("listed") <= t)
                .count();
            assert_eq!(snapshot.len(), expected, "wrong prefix at t={ts}");
            assert_eq!(snapshot, &full[..expected], "order diverged at t={ts}");
        }
    }

    #[test]
    fn as_of_cached_matches_as_of_for_any_query_order() {
        let v = vis(&[
            (100, "2001:db8::/33", true),
            (5000, "2001:db8:8000::/33", true),
        ]);
        let list = TumHitlist::build(&["3fff::1".parse().unwrap()], &v);
        let cursor = std::cell::Cell::new(0);
        // Forward sweep with a mid-burst regression.
        for ts in [
            0,
            99,
            100 + 5 * 86_400,
            50,
            5000 + 5 * 86_400,
            10_000_000u64,
        ] {
            let t = SimTime::from_secs(ts);
            assert_eq!(list.as_of_cached(t, &cursor), list.as_of(t), "t={ts}");
        }
    }

    #[test]
    fn entries_appear_in_publication_order() {
        let v = vis(&[
            (5000, "2001:db8:8000::/33", true),
            (100, "2001:db8::/33", true),
        ]);
        let list = TumHitlist::build(&[], &v);
        let at_later = list.as_of(SimTime::from_secs(5000) + PUBLICATION_LAG);
        assert_eq!(at_later.len(), 2);
        assert_eq!(at_later[0], "2001:db8::1".parse::<Ipv6Addr>().unwrap());
    }
}
