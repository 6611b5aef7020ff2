//! Property tests: sessionizer invariants, the derivation of coarser
//! sessions from /128 ones, and split-schedule algebra.

use bytes::Bytes;
use proptest::prelude::*;
use sixscope_telescope::{
    AggLevel, Capture, CapturedPacket, IncrementalSessionizer, Protocol, ScanSession, Sessionizer,
    SourceKey, SplitSchedule, TelescopeConfig,
};
use sixscope_types::{Ipv6Prefix, SimDuration, SimTime};
use std::net::Ipv6Addr;

fn capture_from(packets: Vec<(u64, u64)>) -> Capture {
    // (ts, source-index) pairs inside the T3 prefix.
    let mut cap = Capture::new(TelescopeConfig::t3("2001:db8:3::/48".parse().unwrap()));
    for (ts, src_idx) in packets {
        let src = Ipv6Addr::from((0x2a0a_u128 << 112) | ((src_idx % 5) as u128) << 64 | 1);
        cap.push(CapturedPacket {
            ts: SimTime::from_secs(ts),
            src,
            dst: "2001:db8:3::1".parse().unwrap(),
            protocol: Protocol::Icmpv6,
            src_port: None,
            dst_port: None,
            payload: Bytes::new(),
        });
    }
    cap
}

/// A time-sorted capture whose packets fall near multiples of `timeout`
/// (`k·T + d`, `d` in 0..3, so gaps of T−1, T and T+1 and same-second
/// packets are common) or, for one in four, anywhere in the first 12 T.
/// Sources
/// come from two /48s × two /64s × three /128s, so /64 sources rotate
/// addresses and /48 sources span subnets.
fn lattice_capture(timeout: u64, spec: Vec<(u64, u64, u8, u64, u64)>) -> Capture {
    let mut packets: Vec<(u64, Ipv6Addr)> = spec
        .into_iter()
        .map(|(k, d, free, offset, src)| {
            let ts = if free == 0 {
                offset % (12 * timeout)
            } else {
                k * timeout + d
            };
            let (p48, p64, iid) = (src / 6, src / 3 % 2, src % 3 + 1);
            let bits =
                (0x2001_0db8_u128 << 96) | (p48 as u128) << 80 | (p64 as u128) << 64 | iid as u128;
            (ts, Ipv6Addr::from(bits))
        })
        .collect();
    packets.sort_by_key(|&(ts, _)| ts);
    let mut cap = Capture::new(TelescopeConfig::t3("2001:db8:3::/48".parse().unwrap()));
    for (ts, src) in packets {
        cap.push(CapturedPacket {
            ts: SimTime::from_secs(ts),
            src,
            dst: "2001:db8:3::1".parse().unwrap(),
            protocol: Protocol::Icmpv6,
            src_port: None,
            dst_port: None,
            payload: Bytes::new(),
        });
    }
    cap
}

proptest! {
    /// Sessions derived from the /128 ones equal direct sessionization at
    /// /64 and /48, element for element, at any timeout; and after every
    /// packet, the /64 count derived from the incremental /128 state
    /// equals the incremental /64 count (what a serve checkpoint reports).
    #[test]
    fn derived_sessions_equal_direct_sessionization(
        timeout in 1u64..40,
        spec in proptest::collection::vec(
            (0u64..12, 0u64..3, 0u8..4, any::<u64>(), 0u64..12),
            0..150,
        ),
    ) {
        let cap = lattice_capture(timeout, spec);
        let timeout = SimDuration::secs(timeout);
        let fine = Sessionizer { level: AggLevel::Addr128, timeout }.sessionize(&cap);
        for level in [AggLevel::Subnet64, AggLevel::Prefix48] {
            let coarse = Sessionizer { level, timeout };
            let derived: Vec<ScanSession> = coarse.derive(&fine).collect();
            prop_assert_eq!(derived, coarse.sessionize(&cap), "at {}", level);
        }
        let subnet64 = Sessionizer { level: AggLevel::Subnet64, timeout };
        let mut inc128 = IncrementalSessionizer::new(AggLevel::Addr128, timeout);
        let mut inc64 = IncrementalSessionizer::new(AggLevel::Subnet64, timeout);
        for (i, p) in cap.packets().iter().enumerate() {
            inc128.push(i as u32, p);
            inc64.push(i as u32, p);
            prop_assert_eq!(
                subnet64.derive(inc128.sessions()).len(),
                inc64.len(),
                "after packet {}", i
            );
        }
    }

    /// Sessions partition the packets: every packet index appears in
    /// exactly one session.
    #[test]
    fn sessions_partition_packets(
        packets in proptest::collection::vec((0u64..2_000_000, any::<u64>()), 0..200)
    ) {
        let cap = capture_from(packets);
        let sessions = Sessionizer::paper(AggLevel::Addr128).sessionize(&cap);
        let mut seen = vec![false; cap.len()];
        for s in &sessions {
            for &i in &s.packet_indices {
                prop_assert!(!seen[i as usize], "packet {} in two sessions", i);
                seen[i as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b), "some packet not in any session");
    }

    /// Within a session: same source, time-ordered, gaps below the timeout.
    /// Across sessions of one source: gaps at or above the timeout.
    #[test]
    fn session_gap_invariants(
        packets in proptest::collection::vec((0u64..5_000_000, any::<u64>()), 1..200)
    ) {
        let cap = capture_from(packets);
        let timeout = SimDuration::hours(1);
        let sessions = Sessionizer::paper(AggLevel::Addr128).sessionize(&cap);
        for s in &sessions {
            let pkts: Vec<&CapturedPacket> = s.packets(&cap).collect();
            prop_assert!(pkts.windows(2).all(|w| w[0].ts <= w[1].ts));
            prop_assert!(pkts
                .windows(2)
                .all(|w| w[1].ts.since(w[0].ts) < timeout));
            prop_assert!(pkts
                .iter()
                .all(|p| SourceKey::new(p.src, AggLevel::Addr128) == s.source));
            prop_assert_eq!(s.start, pkts.first().unwrap().ts);
            prop_assert_eq!(s.end, pkts.last().unwrap().ts);
        }
        // Consecutive sessions of the same source are separated by >= timeout.
        let mut by_source: std::collections::BTreeMap<SourceKey, Vec<(SimTime, SimTime)>> =
            Default::default();
        for s in &sessions {
            by_source.entry(s.source).or_default().push((s.start, s.end));
        }
        for ranges in by_source.values_mut() {
            ranges.sort();
            prop_assert!(ranges
                .windows(2)
                .all(|w| w[1].0.since(w[0].1) >= timeout));
        }
    }

    /// The incremental sessionizer with eviction active is exactly the
    /// batch sessionizer: eviction can only remove open entries whose gap
    /// already exceeds the timeout, so a session is never split while its
    /// packet gaps stay below the horizon — and the open table stays
    /// bounded by the number of live sources (5 here), not the corpus.
    #[test]
    fn incremental_eviction_never_splits_sessions(
        packets in proptest::collection::vec((0u64..5_000_000, any::<u64>()), 0..200)
    ) {
        let cap = capture_from(packets);
        let timeout = SimDuration::hours(1);
        let batch = Sessionizer::paper(AggLevel::Addr128).sessionize(&cap);
        let mut order: Vec<u32> = (0..cap.len() as u32).collect();
        order.sort_by_key(|&i| cap.packets()[i as usize].ts);
        let mut inc = IncrementalSessionizer::new(AggLevel::Addr128, timeout);
        for &i in &order {
            inc.push(i, &cap.packets()[i as usize]);
        }
        prop_assert!(inc.peak_open() <= 5, "open table grew past the live sources");
        let sessions = inc.finish();
        prop_assert_eq!(&sessions, &batch);
        for s in &sessions {
            let pkts: Vec<&CapturedPacket> = s.packets(&cap).collect();
            prop_assert!(pkts
                .windows(2)
                .all(|w| w[1].ts.since(w[0].ts) < timeout),
                "a session was split below the eviction horizon");
        }
    }

    /// Coarser aggregation never increases the session count.
    #[test]
    fn coarser_aggregation_merges(
        packets in proptest::collection::vec((0u64..2_000_000, any::<u64>()), 0..150)
    ) {
        let cap = capture_from(packets);
        let n128 = Sessionizer::paper(AggLevel::Addr128).sessionize(&cap).len();
        let n64 = Sessionizer::paper(AggLevel::Subnet64).sessionize(&cap).len();
        let n48 = Sessionizer::paper(AggLevel::Prefix48).sessionize(&cap).len();
        prop_assert!(n128 >= n64);
        prop_assert!(n64 >= n48);
    }

    /// A longer timeout never increases the session count.
    #[test]
    fn longer_timeout_merges(
        packets in proptest::collection::vec((0u64..2_000_000, any::<u64>()), 0..150),
        t1 in 60u64..7200,
        t2 in 60u64..7200,
    ) {
        let (short, long) = (t1.min(t2), t1.max(t2));
        let cap = capture_from(packets);
        let n_short = Sessionizer {
            level: AggLevel::Addr128,
            timeout: SimDuration::secs(short),
        }
        .sessionize(&cap)
        .len();
        let n_long = Sessionizer {
            level: AggLevel::Addr128,
            timeout: SimDuration::secs(long),
        }
        .sessionize(&cap)
        .len();
        prop_assert!(n_short >= n_long);
    }

    /// Schedule algebra: for any /32 covering prefix the announced sets are
    /// disjoint, cover the /32 exactly, and grow by one per cycle.
    #[test]
    fn schedule_partitions_for_any_covering(bits in any::<u128>()) {
        let covering = Ipv6Prefix::from_bits(bits, 32).unwrap();
        let schedule = SplitSchedule::paper(covering, SimTime::EPOCH);
        for cycle in 1..=schedule.cycles {
            let set = schedule.announced_set(cycle);
            prop_assert_eq!(set.len() as u32, cycle + 1);
            let total: u128 = set.iter().map(|p| p.address_count()).sum();
            prop_assert_eq!(total, covering.address_count());
            for (i, a) in set.iter().enumerate() {
                for b in set.iter().skip(i + 1) {
                    prop_assert!(!a.overlaps(b));
                }
            }
            // The split target of the next cycle is in this cycle's set.
            if cycle < schedule.cycles {
                prop_assert!(set.contains(&schedule.split_target(cycle + 1)));
            }
        }
    }
}
