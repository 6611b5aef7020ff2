//! Epoch-compiled visibility: cheap LPM and announced-set snapshots for
//! the data-plane hot loop.
//!
//! [`Visibility::lpm`] scans every prefix's interval list per probe — fine
//! for tests, quadratic pain for the ~10⁶-probe delivery loop. The visible
//! set only changes at interval endpoints (announce/withdraw times), so the
//! schedule compiles into *epochs*: between two consecutive endpoints the
//! set is constant. Each epoch gets one prefix-ordered snapshot of the
//! announced set and one copy in descending prefix length; a query is a
//! binary search over epoch boundaries plus a first-match scan of that
//! copy. The simulated control plane announces at most 19 prefixes at
//! once (T2, the covering /29 and up to 17 T1 prefixes), so the scan
//! stays short.
//!
//! Equivalence with the naive structure is exact (property-tested in
//! `crates/sim/tests/prop.rs`): same LPM result for every `(addr, t)` and
//! the same `announced_at` content *and order* — the latter matters because
//! scanners consume the announced set in order, so any deviation would
//! change their RNG draw sequence and break the byte-identical-output
//! contract.

use crate::visibility::Visibility;
use sixscope_types::{Ipv6Prefix, SimTime};
use std::cell::Cell;
use std::net::Ipv6Addr;

/// Visibility compiled into per-epoch snapshots.
#[derive(Debug, Clone, Default)]
pub struct CompiledVisibility {
    /// Epoch start times, ascending. Epoch `i` covers
    /// `[starts[i], starts[i+1])`; times before `starts[0]` fall into an
    /// implicit empty epoch (nothing announced before the first event).
    starts: Vec<SimTime>,
    /// Visible prefixes per epoch, in prefix order (matching
    /// [`Visibility::announced_at`]).
    announced: Vec<Vec<Ipv6Prefix>>,
    /// Visible prefixes per epoch in *descending length* order. Two
    /// distinct prefixes of equal length cannot both contain an address,
    /// so the first containing prefix in this order is the longest match,
    /// for a set of any size.
    by_len: Vec<Vec<Ipv6Prefix>>,
}

impl CompiledVisibility {
    /// Compiles the interval structure into epoch snapshots.
    pub fn compile(visibility: &Visibility) -> CompiledVisibility {
        let starts = visibility.endpoints();
        let mut announced = Vec::with_capacity(starts.len());
        let mut by_len = Vec::with_capacity(starts.len());
        for &start in &starts {
            let visible = visibility.announced_at(start);
            let mut longest_first = visible.clone();
            longest_first.sort_by_key(|p| std::cmp::Reverse(p.len()));
            by_len.push(longest_first);
            announced.push(visible);
        }
        CompiledVisibility {
            starts,
            announced,
            by_len,
        }
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

    /// Longest visible prefix covering `addr` at `t` — same result as
    /// [`Visibility::lpm`].
    pub fn lpm(&self, addr: Ipv6Addr, t: SimTime) -> Option<Ipv6Prefix> {
        let e = self.epoch(t)?;
        self.lpm_in_epoch(e, addr)
    }

    /// All prefixes visible at `t`, in prefix order — same content and
    /// order as [`Visibility::announced_at`], without allocating.
    pub fn announced_at(&self, t: SimTime) -> &[Ipv6Prefix] {
        match self.epoch(t) {
            Some(e) => &self.announced[e],
            None => &[],
        }
    }

    /// Number of compiled epochs.
    pub fn epochs(&self) -> usize {
        self.starts.len()
    }

    /// Epoch index for `t` with a monotone cursor. The cursor holds the
    /// count of epoch starts ≤ the previous query time; a time-sorted probe
    /// burst advances it a step at a time instead of re-running the binary
    /// search per probe, and a regressing `t` falls back to the search.
    /// Results are identical to [`CompiledVisibility::epoch`] for any query
    /// sequence.
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

    /// [`CompiledVisibility::announced_at`] with a burst cursor.
    pub fn announced_at_cached(&self, t: SimTime, cursor: &Cell<usize>) -> &[Ipv6Prefix] {
        match self.epoch_cached(t, cursor) {
            Some(e) => &self.announced[e],
            None => &[],
        }
    }

    /// True when any visible prefix covers `addr` at `t` — the boolean of
    /// [`CompiledVisibility::lpm`], with both a burst cursor and a
    /// covering-prefix hint. The DFZ gate only needs *some* visible cover,
    /// not the longest one, so when the previous probe's covering prefix
    /// is still visible (same epoch) and contains `addr`, the LPM scan is
    /// skipped entirely; scanners probe one region at a time, so the hint
    /// hits for nearly every routed probe.
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
    use sixscope_bgp::{RouteEvent, RouteEventKind};
    use sixscope_types::Asn;

    fn announce(ts: u64, prefix: &str) -> RouteEvent {
        RouteEvent {
            ts: SimTime::from_secs(ts),
            prefix: prefix.parse().unwrap(),
            kind: RouteEventKind::Announce {
                origin_as: Asn(64500),
                as_path: vec![Asn(64500)],
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

    #[test]
    fn matches_naive_on_a_small_schedule() {
        let vis = Visibility::from_events(&[
            announce(100, "2001:db8::/32"),
            announce(100, "2001:db8:1234::/48"),
            withdraw(500, "2001:db8:1234::/48"),
            announce(900, "2001:db8:1234::/48"),
            withdraw(1200, "2001:db8::/32"),
        ]);
        let compiled = CompiledVisibility::compile(&vis);
        assert_eq!(compiled.epochs(), 4);
        let addr: Ipv6Addr = "2001:db8:1234::1".parse().unwrap();
        for ts in [0, 99, 100, 499, 500, 899, 900, 1199, 1200, 5000] {
            let t = SimTime::from_secs(ts);
            assert_eq!(
                compiled.lpm(addr, t),
                vis.lpm(addr, t),
                "lpm diverged at t={ts}"
            );
            assert_eq!(
                compiled.announced_at(t),
                vis.announced_at(t).as_slice(),
                "announced_at diverged at t={ts}"
            );
        }
    }

    #[test]
    fn before_first_event_nothing_is_routed() {
        let vis = Visibility::from_events(&[announce(100, "2001:db8::/32")]);
        let compiled = CompiledVisibility::compile(&vis);
        let addr: Ipv6Addr = "2001:db8::1".parse().unwrap();
        assert_eq!(compiled.lpm(addr, SimTime::from_secs(99)), None);
        assert!(compiled.announced_at(SimTime::from_secs(99)).is_empty());
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
        let compiled = CompiledVisibility::compile(&vis);
        // Forward sweep, a time regression mid-burst, then forward again.
        let times = [
            0u64, 99, 100, 450, 499, 500, 950, 120, 900, 1199, 1200, 9000,
        ];
        let cursor = Cell::new(0);
        for ts in times {
            let t = SimTime::from_secs(ts);
            assert_eq!(
                compiled.announced_at_cached(t, &cursor),
                compiled.announced_at(t),
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
        let compiled = CompiledVisibility::compile(&vis);
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
                    compiled.routed_cached(addr, t, &cursor, &hint),
                    compiled.lpm(addr, t).is_some(),
                    "routed diverged for {addr} at t={ts}"
                );
            }
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
        // Withdrawn at 500 and back at 900: every second /48 under the
        // /32, and the /56s.
        let flapping: Vec<&String> = prefixes[2..=20]
            .iter()
            .step_by(2)
            .chain(&prefixes[21..26])
            .collect();
        events.extend(flapping.iter().map(|p| withdraw(500, p)));
        events.extend(flapping.iter().map(|p| announce(900, p)));
        events.push(withdraw(1200, "2001:db8::/32"));
        let vis = Visibility::from_events(&events);
        let compiled = CompiledVisibility::compile(&vis);
        assert_eq!(compiled.announced_at(SimTime::from_secs(100)).len(), 40);

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
                    let naive = vis.lpm(addr, t);
                    assert_eq!(compiled.lpm(addr, t), naive, "lpm of {addr} at t={ts}");
                    assert_eq!(
                        compiled.routed_cached(addr, t, &cursor, &hint),
                        naive.is_some(),
                        "routed {addr} at t={ts}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_visibility_compiles_to_no_epochs() {
        let compiled = CompiledVisibility::compile(&Visibility::default());
        assert_eq!(compiled.epochs(), 0);
        assert_eq!(compiled.lpm("::1".parse().unwrap(), SimTime::EPOCH), None);
    }
}
