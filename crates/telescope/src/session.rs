//! Scan-session construction (paper §3.3).
//!
//! A *scan session* is a maximal run of packets from one source (at a chosen
//! aggregation level) whose inter-arrival gaps stay below the timeout T.
//! The paper adopts T = 1 hour from Richter et al. and Zhao et al. — long
//! enough for scanners traversing huge subnets, short enough not to glue
//! unrelated campaigns — and deliberately applies no minimum packet count.
//!
//! Coarser levels take no second pass over the packets:
//! [`Sessionizer::derive`] builds the /64 sessions from the /128 ones.

use crate::capture::{Capture, CapturedPacket, Protocol};
use crate::source::{AggLevel, SourceKey};
use sixscope_types::{FxBuildHasher, SimDuration, SimTime};
use std::collections::HashMap;

/// The paper's session timeout (1 hour).
pub const SESSION_TIMEOUT: SimDuration = SimDuration(3600);

/// One scan session: indices into the capture's packet vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanSession {
    /// The source (at the sessionizer's aggregation level).
    pub source: SourceKey,
    /// First packet time.
    pub start: SimTime,
    /// Last packet time.
    pub end: SimTime,
    /// Indices into [`Capture::packets`], in time order.
    pub packet_indices: Vec<u32>,
}

impl ScanSession {
    /// Number of packets in the session.
    pub fn packet_count(&self) -> usize {
        self.packet_indices.len()
    }

    /// Session duration.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// Iterates the session's packets out of `capture`.
    pub fn packets<'a>(
        &'a self,
        capture: &'a Capture,
    ) -> impl Iterator<Item = &'a CapturedPacket> + 'a {
        self.packet_indices
            .iter()
            .map(move |&i| &capture.packets()[i as usize])
    }

    /// The set of transport protocols probed in this session.
    pub fn protocols(&self, capture: &Capture) -> Vec<Protocol> {
        let mut seen = [false; 4];
        for p in self.packets(capture) {
            let idx = match p.protocol {
                Protocol::Icmpv6 => 0,
                Protocol::Tcp => 1,
                Protocol::Udp => 2,
                Protocol::Other => 3,
            };
            seen[idx] = true;
        }
        let mut out = Vec::new();
        if seen[0] {
            out.push(Protocol::Icmpv6);
        }
        if seen[1] {
            out.push(Protocol::Tcp);
        }
        if seen[2] {
            out.push(Protocol::Udp);
        }
        if seen[3] {
            out.push(Protocol::Other);
        }
        out
    }
}

/// Builds scan sessions from a capture.
#[derive(Debug, Clone)]
pub struct Sessionizer {
    /// Aggregation level for source identity.
    pub level: AggLevel,
    /// Inter-arrival timeout.
    pub timeout: SimDuration,
}

impl Sessionizer {
    /// The paper's configuration at a given aggregation level.
    pub fn paper(level: AggLevel) -> Self {
        Sessionizer {
            level,
            timeout: SESSION_TIMEOUT,
        }
    }

    /// Sessionizes a capture: [`Sessionizer::incremental`], closed.
    pub fn sessionize(&self, capture: &Capture) -> Vec<ScanSession> {
        self.incremental(capture).finish()
    }

    /// Feeds the whole capture through an [`IncrementalSessionizer`] in
    /// one pass, in stable time order, and returns it still open, so a
    /// caller can read [`IncrementalSessionizer::peak_open`] before
    /// closing it. Batch and chunked runs share this one code path
    /// (DESIGN.md §10). An out-of-order capture is walked through an
    /// index list sorted by time (stable, so ties keep arrival order);
    /// session indices still point into the capture as it is.
    pub fn incremental(&self, capture: &Capture) -> IncrementalSessionizer {
        let packets = capture.packets();
        let mut inc = IncrementalSessionizer::new(self.level, self.timeout);
        if capture.is_time_sorted() {
            // Fast path — always taken for simulated captures — iterates
            // indices directly with no side allocation.
            for (idx, pkt) in packets.iter().enumerate() {
                inc.push(idx as u32, pkt);
            }
        } else {
            let mut order: Vec<u32> = (0..packets.len() as u32).collect();
            order.sort_by_key(|&i| packets[i as usize].ts);
            for &idx in &order {
                inc.push(idx, &packets[idx as usize]);
            }
        }
        inc
    }

    /// Derives this level's sessions from `fine`: the sessions of the same
    /// packets at a finer level (/128 for a /64 target), built with the
    /// same timeout and listed in creation order, as
    /// [`Sessionizer::sessionize`] and [`IncrementalSessionizer::sessions`]
    /// list them.
    ///
    /// Consecutive packets of a fine session are less than the timeout
    /// apart, so every session here is a union of fine sessions, and a gap
    /// of at least the timeout in one source's packets can only fall
    /// between the running maximum `end` of its fine sessions, taken in
    /// creation order, and the next one's `start` (DESIGN.md §10,
    /// "Derivation soundness"). The walk keeps, per source at this level,
    /// the open session and that maximum: one hash operation per fine
    /// session.
    ///
    /// Sessions come out in creation order (by first packet), each with its
    /// first member's `start`, the running maximum as `end`, and its
    /// members' packet indices in ascending order. Ascending is time order
    /// only over a time-sorted capture, so a caller that keeps the sessions
    /// derives them from one; [`ExactSizeIterator::len`] gives the count
    /// without copying a packet index.
    pub fn derive<'a>(
        &self,
        fine: &'a [ScanSession],
    ) -> impl ExactSizeIterator<Item = ScanSession> + 'a {
        /// One session of this level: its first and last member, the
        /// running maximum end and the members' packet count.
        struct Group {
            first: u32,
            last: u32,
            end: SimTime,
            packets: usize,
        }
        const NONE: u32 = u32::MAX;
        let level = self.level;
        let mut open: HashMap<SourceKey, u32, FxBuildHasher> = HashMap::default();
        let mut groups: Vec<Group> = Vec::new();
        // The member after each fine session in its group (NONE at the tail).
        let mut next = vec![NONE; fine.len()];
        for (i, s) in fine.iter().enumerate() {
            debug_assert!(
                s.source.prefix.len() >= level.bits(),
                "fine sessions are finer"
            );
            let i = i as u32;
            let group = open
                .entry(SourceKey::new(s.source.prefix.network(), level))
                .or_insert(NONE);
            match groups.get_mut(*group as usize) {
                Some(g) if s.start.since(g.end) < self.timeout => {
                    next[g.last as usize] = i;
                    g.last = i;
                    g.end = g.end.max(s.end);
                    g.packets += s.packet_count();
                }
                _ => {
                    *group = groups.len() as u32;
                    groups.push(Group {
                        first: i,
                        last: i,
                        end: s.end,
                        packets: s.packet_count(),
                    });
                }
            }
        }
        groups.into_iter().map(move |g| {
            let head = &fine[g.first as usize];
            let mut packet_indices = Vec::with_capacity(g.packets);
            let mut member = g.first;
            while member != NONE {
                packet_indices.extend_from_slice(&fine[member as usize].packet_indices);
                member = next[member as usize];
            }
            if g.first != g.last {
                packet_indices.sort_unstable();
            }
            ScanSession {
                source: SourceKey::new(head.source.prefix.network(), level),
                start: head.start,
                end: g.end,
                packet_indices,
            }
        })
    }
}

/// Incremental sessionizer: the rolling-session-table core of the streaming
/// pipeline (DESIGN.md §10).
///
/// Packets are pushed one at a time in non-decreasing time order; the open
/// table maps each source to its latest session and is swept once per
/// timeout interval, evicting sources whose session can never extend again
/// (their last packet is at least `timeout` old). Eviction is therefore
/// invisible in the output — an evicted source would fail the gap check on
/// its next packet anyway — which makes the incremental result *identical*
/// to batch sessionization of the same packet sequence, while the live
/// table stays bounded by the number of sources active inside one eviction
/// horizon ([`IncrementalSessionizer::peak_open`] tracks the high-water
/// mark).
#[derive(Debug, Clone)]
pub struct IncrementalSessionizer {
    level: AggLevel,
    timeout: SimDuration,
    /// Open-session table. Keyed with the deterministic FxHash mixer — the
    /// per-packet lookup is the sessionizer's hottest operation, and
    /// SipHash spent more cycles hashing the 17-byte key than the probe
    /// itself. Iteration order is only ever used by `retain` (an
    /// order-independent eviction), so the hasher change cannot affect
    /// output (DESIGN.md §11).
    open: HashMap<SourceKey, usize, FxBuildHasher>,
    sessions: Vec<ScanSession>,
    last_sweep: SimTime,
    peak_open: usize,
}

impl IncrementalSessionizer {
    /// An empty session table at the given level and idle timeout.
    pub fn new(level: AggLevel, timeout: SimDuration) -> Self {
        Self::with_capacity(level, timeout, 0)
    }

    /// An empty session table pre-sized for `sources` concurrently open
    /// sources. Capacity never affects output; the table holds at most the
    /// sources active within one timeout, so [`IncrementalSessionizer::new`]
    /// suits every input, and a larger table only makes each eviction
    /// sweep walk more empty slots.
    pub fn with_capacity(level: AggLevel, timeout: SimDuration, sources: usize) -> Self {
        IncrementalSessionizer {
            level,
            timeout,
            open: HashMap::with_capacity_and_hasher(sources, FxBuildHasher::default()),
            sessions: Vec::new(),
            last_sweep: SimTime::EPOCH,
            peak_open: 0,
        }
    }

    /// The paper's configuration (1-hour timeout) at a given level.
    pub fn paper(level: AggLevel) -> Self {
        Self::new(level, SESSION_TIMEOUT)
    }

    /// Feeds one packet. `idx` is the packet's index in the capture the
    /// session indices will be resolved against. Packets must arrive in
    /// non-decreasing time order (chunk boundaries are irrelevant — only
    /// the packet sequence matters).
    pub fn push(&mut self, idx: u32, pkt: &CapturedPacket) {
        if pkt.ts.since(self.last_sweep) >= self.timeout {
            // Periodic eviction sweep: drop open entries whose session
            // ended at least one timeout ago — no future packet (ts only
            // grows) can extend them, so removal cannot change the output.
            let sessions = &self.sessions;
            let timeout = self.timeout;
            self.open
                .retain(|_, sid| pkt.ts.since(sessions[*sid].end) < timeout);
            self.last_sweep = pkt.ts;
        }
        let key = SourceKey::new(pkt.src, self.level);
        match self.open.get(&key) {
            Some(&sid) if pkt.ts.since(self.sessions[sid].end) < self.timeout => {
                let s = &mut self.sessions[sid];
                s.end = pkt.ts;
                s.packet_indices.push(idx);
            }
            _ => {
                let sid = self.sessions.len();
                self.sessions.push(ScanSession {
                    source: key,
                    start: pkt.ts,
                    end: pkt.ts,
                    packet_indices: vec![idx],
                });
                self.open.insert(key, sid);
                self.peak_open = self.peak_open.max(self.open.len());
            }
        }
    }

    /// Sessions created so far (closed and still open).
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True before the first packet.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// High-water mark of the open-session table — the live-memory bound
    /// of the streaming pipeline.
    pub fn peak_open(&self) -> usize {
        self.peak_open
    }

    /// Non-consuming view of all sessions so far (open and closed, in
    /// creation order). The live daemon renders its checkpoints from it,
    /// borrowed; once the input ends it equals what
    /// [`finish`](Self::finish) returns.
    pub fn sessions(&self) -> &[ScanSession] {
        &self.sessions
    }

    /// Closes the table and returns all sessions in creation (first-packet)
    /// order — byte-identical to [`Sessionizer::sessionize`] over the same
    /// packet sequence.
    pub fn finish(self) -> Vec<ScanSession> {
        self.sessions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TelescopeConfig;
    use bytes::Bytes;
    use std::net::Ipv6Addr;

    fn capture_with(packets: Vec<(u64, &str, &str)>) -> Capture {
        let mut cap = Capture::new(TelescopeConfig::t3("2001:db8:3::/48".parse().unwrap()));
        for (ts, src, dst) in packets {
            cap.push(CapturedPacket {
                ts: SimTime::from_secs(ts),
                src: src.parse().unwrap(),
                dst: dst.parse().unwrap(),
                protocol: Protocol::Icmpv6,
                src_port: None,
                dst_port: None,
                payload: Bytes::new(),
            });
        }
        cap
    }

    #[test]
    fn gap_below_timeout_stays_one_session() {
        let cap = capture_with(vec![
            (0, "2001:db8:f00::1", "2001:db8:3::1"),
            (3599, "2001:db8:f00::1", "2001:db8:3::2"),
            (7198, "2001:db8:f00::1", "2001:db8:3::3"),
        ]);
        let sessions = Sessionizer::paper(AggLevel::Addr128).sessionize(&cap);
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].packet_count(), 3);
        assert_eq!(sessions[0].duration(), SimDuration::secs(7198));
    }

    #[test]
    fn gap_at_timeout_splits_sessions() {
        let cap = capture_with(vec![
            (0, "2001:db8:f00::1", "2001:db8:3::1"),
            (3600, "2001:db8:f00::1", "2001:db8:3::2"),
        ]);
        let sessions = Sessionizer::paper(AggLevel::Addr128).sessionize(&cap);
        assert_eq!(sessions.len(), 2);
    }

    #[test]
    fn distinct_sources_get_distinct_sessions() {
        let cap = capture_with(vec![
            (0, "2001:db8:f00::1", "2001:db8:3::1"),
            (1, "2001:db8:f00::2", "2001:db8:3::1"),
        ]);
        let sessions = Sessionizer::paper(AggLevel::Addr128).sessionize(&cap);
        assert_eq!(sessions.len(), 2);
    }

    #[test]
    fn sixty_four_aggregation_merges_rotating_sources() {
        // Address rotation inside one /64 (the T2 phenomenon): /128 sees
        // many sessions, /64 sees one.
        let cap = capture_with(vec![
            (0, "2001:db8:f00::aaaa", "2001:db8:3::1"),
            (10, "2001:db8:f00::bbbb", "2001:db8:3::2"),
            (20, "2001:db8:f00::cccc", "2001:db8:3::3"),
        ]);
        let s128 = Sessionizer::paper(AggLevel::Addr128).sessionize(&cap);
        let s64 = Sessionizer::paper(AggLevel::Subnet64).sessionize(&cap);
        assert_eq!(s128.len(), 3);
        assert_eq!(s64.len(), 1);
        assert_eq!(s64[0].packet_count(), 3);
    }

    #[test]
    fn out_of_order_capture_is_sorted() {
        let cap = capture_with(vec![
            (100, "2001:db8:f00::1", "2001:db8:3::2"),
            (0, "2001:db8:f00::1", "2001:db8:3::1"),
        ]);
        let sessions = Sessionizer::paper(AggLevel::Addr128).sessionize(&cap);
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].start, SimTime::from_secs(0));
        assert_eq!(sessions[0].end, SimTime::from_secs(100));
        // Packet indices follow time order, not arrival order.
        let cap_packets = cap.packets();
        assert!(
            cap_packets[sessions[0].packet_indices[0] as usize].ts
                <= cap_packets[sessions[0].packet_indices[1] as usize].ts
        );
    }

    #[test]
    fn out_of_order_matches_sorted_equivalent() {
        // The sort fallback must produce sessions identical (up to the
        // index permutation) to sessionizing the same packets pre-sorted.
        let shuffled = vec![
            (50, "2001:db8:f00::2", "2001:db8:3::1"),
            (0, "2001:db8:f00::1", "2001:db8:3::1"),
            (7000, "2001:db8:f00::1", "2001:db8:3::4"),
            (10, "2001:db8:f00::1", "2001:db8:3::2"),
            (60, "2001:db8:f00::2", "2001:db8:3::3"),
            (9000, "2001:db8:f00::2", "2001:db8:3::2"),
        ];
        let mut in_order = shuffled.clone();
        in_order.sort_by_key(|&(ts, _, _)| ts);
        let cap_shuffled = capture_with(shuffled);
        let cap_sorted = capture_with(in_order);
        assert!(!cap_shuffled.is_time_sorted());
        assert!(cap_sorted.is_time_sorted());
        for level in [AggLevel::Addr128, AggLevel::Subnet64] {
            let a = Sessionizer::paper(level).sessionize(&cap_shuffled);
            let b = Sessionizer::paper(level).sessionize(&cap_sorted);
            assert_eq!(a.len(), b.len());
            for (sa, sb) in a.iter().zip(&b) {
                assert_eq!(sa.source, sb.source);
                assert_eq!(sa.start, sb.start);
                assert_eq!(sa.end, sb.end);
                // Same packets in the same time order, modulo the index
                // permutation between the two captures.
                let times_a: Vec<_> = sa.packets(&cap_shuffled).map(|p| (p.ts, p.dst)).collect();
                let times_b: Vec<_> = sb.packets(&cap_sorted).map(|p| (p.ts, p.dst)).collect();
                assert_eq!(times_a, times_b);
            }
        }
    }

    #[test]
    fn interleaved_sources_session_correctly() {
        let cap = capture_with(vec![
            (0, "2001:db8:f00::1", "2001:db8:3::1"),
            (5, "2001:db8:f00::2", "2001:db8:3::1"),
            (10, "2001:db8:f00::1", "2001:db8:3::2"),
            (15, "2001:db8:f00::2", "2001:db8:3::2"),
        ]);
        let sessions = Sessionizer::paper(AggLevel::Addr128).sessionize(&cap);
        assert_eq!(sessions.len(), 2);
        assert!(sessions.iter().all(|s| s.packet_count() == 2));
    }

    #[test]
    fn empty_capture_yields_no_sessions() {
        let cap = capture_with(vec![]);
        assert!(Sessionizer::paper(AggLevel::Addr128)
            .sessionize(&cap)
            .is_empty());
    }

    #[test]
    fn session_packets_accessor_resolves_indices() {
        let cap = capture_with(vec![
            (0, "2001:db8:f00::1", "2001:db8:3::1"),
            (1, "2001:db8:f00::1", "2001:db8:3::2"),
        ]);
        let sessions = Sessionizer::paper(AggLevel::Addr128).sessionize(&cap);
        let dsts: Vec<Ipv6Addr> = sessions[0].packets(&cap).map(|p| p.dst).collect();
        assert_eq!(
            dsts,
            vec![
                "2001:db8:3::1".parse::<Ipv6Addr>().unwrap(),
                "2001:db8:3::2".parse::<Ipv6Addr>().unwrap()
            ]
        );
    }

    #[test]
    fn incremental_matches_batch_with_eviction_active() {
        // The sweep evicts idle sources along the way (the gaps exceed the
        // timeout repeatedly), yet the final session vector must be exactly
        // what the batch sessionizer produces.
        let mut spec = Vec::new();
        for i in 0u64..200 {
            let src = ["2001:db8:f00::1", "2001:db8:f00::2", "2001:db8:f01::3"][(i % 3) as usize];
            // Bursts with occasional >1h gaps.
            let ts = i * 97 + (i / 40) * 5000;
            spec.push((ts, src, "2001:db8:3::1"));
        }
        let cap = capture_with(spec);
        for level in [AggLevel::Addr128, AggLevel::Subnet64] {
            let batch = Sessionizer::paper(level).sessionize(&cap);
            let mut inc = IncrementalSessionizer::paper(level);
            for (i, p) in cap.packets().iter().enumerate() {
                inc.push(i as u32, p);
            }
            assert!(inc.peak_open() <= 3);
            assert_eq!(inc.finish(), batch, "incremental diverged at {level}");
        }
    }

    #[test]
    fn eviction_bounds_open_table() {
        // 100 sources, each sending one packet then going silent: after the
        // sweep horizon passes, the open table must shrink instead of
        // growing without bound.
        let mut inc = IncrementalSessionizer::new(AggLevel::Addr128, SimDuration::secs(10));
        for i in 0u64..100 {
            let pkt = CapturedPacket {
                ts: SimTime::from_secs(i * 30),
                src: format!("2001:db8:f00::{:x}", i + 1).parse().unwrap(),
                dst: "2001:db8:3::1".parse().unwrap(),
                protocol: Protocol::Icmpv6,
                src_port: None,
                dst_port: None,
                payload: Bytes::new(),
            };
            inc.push(i as u32, &pkt);
        }
        assert_eq!(inc.len(), 100);
        assert!(
            inc.peak_open() <= 2,
            "open table grew to {} despite 30s gaps and a 10s timeout",
            inc.peak_open()
        );
    }

    #[test]
    fn protocol_set_is_deduplicated() {
        let mut cap = capture_with(vec![(0, "2001:db8:f00::1", "2001:db8:3::1")]);
        cap.push(CapturedPacket {
            ts: SimTime::from_secs(1),
            src: "2001:db8:f00::1".parse().unwrap(),
            dst: "2001:db8:3::1".parse().unwrap(),
            protocol: Protocol::Tcp,
            src_port: Some(1),
            dst_port: Some(80),
            payload: Bytes::new(),
        });
        let sessions = Sessionizer::paper(AggLevel::Addr128).sessionize(&cap);
        assert_eq!(
            sessions[0].protocols(&cap),
            vec![Protocol::Icmpv6, Protocol::Tcp]
        );
    }
}
