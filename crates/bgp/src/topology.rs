//! A simulated AS graph: speakers wired by delayed links, plus a route
//! collector recording the global view.
//!
//! Every inter-AS message is real wire bytes queued with a per-link
//! propagation delay; [`Topology::run_until`] delivers them in timestamp
//! order and re-queues whatever the receiving speaker emits. The
//! [`Collector`] AS mirrors RIPE RIS: it records every announce/withdraw it
//! processes as a [`RouteEvent`] and maintains the table used both by
//! BGP-reactive scanners (the *signal*) and by the data plane (can a probe
//! reach the telescope right now?).

use crate::events::{RouteEvent, RouteEventKind};
use crate::message::BgpMessage;
use crate::rib::PeerId;
use crate::speaker::{Outbox, PeerRelation, Speaker};
use sixscope_types::{Asn, Ipv6Prefix, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::net::Ipv6Addr;

/// A BGP adjacency between two ASes.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// One endpoint.
    pub a: Asn,
    /// Other endpoint.
    pub b: Asn,
    /// One-way message propagation delay.
    pub delay: SimDuration,
}

/// The collector view: event log + current table.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    events: Vec<RouteEvent>,
}

impl Collector {
    /// All recorded events in arrival order.
    pub fn events(&self) -> &[RouteEvent] {
        &self.events
    }
}

#[derive(Debug)]
struct InFlight {
    deliver_at: SimTime,
    to: Asn,
    from: Asn,
    bytes: Vec<u8>,
}

/// The simulated AS topology.
#[derive(Debug)]
pub struct Topology {
    speakers: BTreeMap<Asn, Speaker>,
    /// (local, remote) → peer id of remote inside local speaker.
    peer_ids: BTreeMap<(Asn, Asn), PeerId>,
    /// (local, remote) → link delay.
    delays: BTreeMap<(Asn, Asn), SimDuration>,
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    in_flight: BTreeMap<u64, InFlight>,
    seq: u64,
    collector_asn: Option<Asn>,
    collector: Collector,
    now: SimTime,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology {
            speakers: BTreeMap::new(),
            peer_ids: BTreeMap::new(),
            delays: BTreeMap::new(),
            queue: BinaryHeap::new(),
            in_flight: BTreeMap::new(),
            seq: 0,
            collector_asn: None,
            collector: Collector::default(),
            now: SimTime::EPOCH,
        }
    }

    /// Adds an AS with its next-hop address.
    pub fn add_as(&mut self, asn: Asn, next_hop: Ipv6Addr) {
        self.speakers
            .insert(asn, Speaker::new(asn, asn.get(), next_hop));
    }

    /// Marks an AS as the route collector (it must already exist and be
    /// connected via [`Topology::connect`] with [`PeerRelation::Collector`]
    /// on the feeding side).
    pub fn set_collector(&mut self, asn: Asn) {
        assert!(self.speakers.contains_key(&asn), "collector AS must exist");
        self.collector_asn = Some(asn);
    }

    /// Connects `a` and `b`; `b_is` states what `b` is *to a* (e.g.
    /// `Provider` means b is a's provider). The reciprocal relation is
    /// derived automatically.
    pub fn connect(&mut self, a: Asn, b: Asn, b_is: PeerRelation, delay: SimDuration) {
        let a_is = match b_is {
            PeerRelation::Customer => PeerRelation::Provider,
            PeerRelation::Provider => PeerRelation::Customer,
            PeerRelation::Peer => PeerRelation::Peer,
            // If b is a collector from a's view, a is a provider-ish feed
            // from b's view; the collector never exports anyway.
            PeerRelation::Collector => PeerRelation::Provider,
        };
        let id_b_in_a = self
            .speakers
            .get_mut(&a)
            .expect("AS a exists")
            .add_peer(b, b_is);
        let id_a_in_b = self
            .speakers
            .get_mut(&b)
            .expect("AS b exists")
            .add_peer(a, a_is);
        self.peer_ids.insert((a, b), id_b_in_a);
        self.peer_ids.insert((b, a), id_a_in_b);
        self.delays.insert((a, b), delay);
        self.delays.insert((b, a), delay);
    }

    /// Starts every session and pumps until quiescent; returns when all
    /// sessions are Established.
    pub fn establish_all(&mut self, now: SimTime) {
        self.now = now;
        let starts: Vec<(Asn, Asn)> = self
            .peer_ids
            .keys()
            .filter(|(a, b)| a < b) // start each adjacency once, from one side
            .copied()
            .collect();
        for (a, b) in &starts {
            let pid = self.peer_ids[&(*a, *b)];
            let out = self.speakers.get_mut(a).unwrap().start_peer(pid, now);
            self.enqueue(*a, out, now);
            let pid = self.peer_ids[&(*b, *a)];
            let out = self.speakers.get_mut(b).unwrap().start_peer(pid, now);
            self.enqueue(*b, out, now);
        }
        // Deliver handshake traffic; establishment takes a few RTTs.
        let horizon = now + SimDuration::secs(600);
        self.run_until(horizon);
        for ((a, b), pid) in &self.peer_ids {
            assert!(
                self.speakers[a].peer_established(*pid),
                "session {a}->{b} failed to establish"
            );
        }
    }

    fn enqueue(&mut self, from: Asn, out: Outbox, now: SimTime) {
        for (pid, bytes) in out {
            // Reverse-map the peer id to the remote ASN.
            let to = *self
                .peer_ids
                .iter()
                .find(|((local, _), id)| *local == from && **id == pid)
                .map(|((_, remote), _)| remote)
                .expect("peer id maps to a remote AS");
            let delay = self.delays[&(from, to)];
            let deliver_at = now + delay;
            let seq = self.seq;
            self.seq += 1;
            self.queue.push(Reverse((deliver_at.as_secs(), seq)));
            self.in_flight.insert(
                seq,
                InFlight {
                    deliver_at,
                    to,
                    from,
                    bytes,
                },
            );
        }
    }

    /// Delivers all in-flight messages scheduled at or before `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(Reverse((at, seq))) = self.queue.peek().copied() {
            if at > t.as_secs() {
                break;
            }
            self.queue.pop();
            let msg = self.in_flight.remove(&seq).expect("queued message exists");
            self.now = msg.deliver_at.max(self.now);
            self.deliver(msg);
        }
        self.now = self.now.max(t);
    }

    fn deliver(&mut self, msg: InFlight) {
        // Record collector events before the speaker mutates state.
        if Some(msg.to) == self.collector_asn {
            self.record_collector_events(&msg);
        }
        let pid = self.peer_ids[&(msg.to, msg.from)];
        let now = msg.deliver_at;
        let out = match self
            .speakers
            .get_mut(&msg.to)
            .expect("destination AS exists")
            .handle_bytes(pid, now, &msg.bytes)
        {
            Ok(out) => out,
            // Session-level errors drop the message (a real router would
            // reset the session; our links never corrupt, so this only
            // fires in fault-injection tests).
            Err(_) => return,
        };
        self.enqueue(msg.to, out, now);
    }

    fn record_collector_events(&mut self, msg: &InFlight) {
        let mut bytes: &[u8] = &msg.bytes;
        while !bytes.is_empty() {
            let Ok((parsed, rest)) = BgpMessage::decode(bytes) else {
                return;
            };
            bytes = rest;
            if let BgpMessage::Update(update) = parsed {
                if let Some(reach) = &update.attrs.mp_reach {
                    for prefix in &reach.prefixes {
                        self.collector.events.push(RouteEvent {
                            ts: msg.deliver_at,
                            prefix: *prefix,
                            kind: RouteEventKind::Announce {
                                origin_as: update.attrs.as_path.last().copied().unwrap_or(Asn(0)),
                                as_path: update.attrs.as_path.clone(),
                            },
                        });
                    }
                }
                for prefix in &update.attrs.mp_unreach {
                    self.collector.events.push(RouteEvent {
                        ts: msg.deliver_at,
                        prefix: *prefix,
                        kind: RouteEventKind::Withdraw,
                    });
                }
            }
        }
    }

    /// Originates `prefix` from `asn` and queues the propagation.
    pub fn announce(&mut self, asn: Asn, prefix: Ipv6Prefix, now: SimTime) {
        self.now = self.now.max(now);
        let out = self
            .speakers
            .get_mut(&asn)
            .expect("origin AS exists")
            .announce(prefix, now);
        self.enqueue(asn, out, now);
    }

    /// Withdraws `prefix` at `asn` and queues the propagation.
    pub fn withdraw(&mut self, asn: Asn, prefix: Ipv6Prefix, now: SimTime) {
        self.now = self.now.max(now);
        let out = self
            .speakers
            .get_mut(&asn)
            .expect("origin AS exists")
            .withdraw(prefix, now);
        self.enqueue(asn, out, now);
    }

    /// The collector's event feed.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Longest-prefix match in the *collector's* table — the global
    /// reachability test used by the data plane.
    pub fn reachable(&self, addr: Ipv6Addr) -> Option<Ipv6Prefix> {
        let asn = self.collector_asn?;
        self.speakers[&asn].rib().lookup(addr).map(|(p, _)| *p)
    }

    /// The current set of globally visible prefixes (collector table).
    pub fn global_table(&self) -> Vec<Ipv6Prefix> {
        match self.collector_asn {
            Some(asn) => self.speakers[&asn]
                .rib()
                .best_routes()
                .into_iter()
                .map(|(p, _)| *p)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Direct read access to one speaker (looking glass on any AS).
    pub fn speaker(&self, asn: Asn) -> Option<&Speaker> {
        self.speakers.get(&asn)
    }

    /// Number of messages still in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Current topology clock.
    pub fn now(&self) -> SimTime {
        self.now
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::new()
    }
}

/// Builds the standard experiment topology of the paper's setup (§3.2):
///
/// * `origin` — the authors' AS running FRR (hosts T1 and T2),
/// * two upstream transit providers interconnected at an IXP core,
/// * a `borrower` AS announcing the covering /29 (hosts T3 and T4),
/// * a route collector fed by both transits.
///
/// Returns the topology with all sessions established at `start`.
pub fn standard_topology(origin: Asn, borrower: Asn, collector: Asn, start: SimTime) -> Topology {
    let transit1 = Asn(3320);
    let transit2 = Asn(6939);
    let core = Asn(174);
    let mut topo = Topology::new();
    topo.add_as(origin, "2001:db8:ffff::1".parse().unwrap());
    topo.add_as(borrower, "2001:db8:ffff::2".parse().unwrap());
    topo.add_as(transit1, "2001:db8:ffff::10".parse().unwrap());
    topo.add_as(transit2, "2001:db8:ffff::11".parse().unwrap());
    topo.add_as(core, "2001:db8:ffff::12".parse().unwrap());
    topo.add_as(collector, "2001:db8:ffff::99".parse().unwrap());
    // Origin multihomes to both transits (seconds of BGP delay per hop).
    topo.connect(
        origin,
        transit1,
        PeerRelation::Provider,
        SimDuration::secs(2),
    );
    topo.connect(
        origin,
        transit2,
        PeerRelation::Provider,
        SimDuration::secs(3),
    );
    topo.connect(
        borrower,
        transit2,
        PeerRelation::Provider,
        SimDuration::secs(2),
    );
    topo.connect(transit1, core, PeerRelation::Peer, SimDuration::secs(5));
    topo.connect(transit2, core, PeerRelation::Peer, SimDuration::secs(4));
    topo.connect(
        transit1,
        collector,
        PeerRelation::Collector,
        SimDuration::secs(8),
    );
    topo.connect(
        transit2,
        collector,
        PeerRelation::Collector,
        SimDuration::secs(10),
    );
    topo.set_collector(collector);
    topo.establish_all(start);
    topo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    fn topo() -> Topology {
        standard_topology(Asn(64500), Asn(64510), Asn(64999), SimTime::EPOCH)
    }

    #[test]
    fn standard_topology_establishes() {
        let t = topo();
        assert_eq!(t.in_flight(), 0, "handshake traffic drained");
        assert!(t.global_table().is_empty(), "nothing announced yet");
    }

    #[test]
    fn announcement_reaches_collector_with_delay() {
        let mut t = topo();
        let t0 = SimTime::from_secs(1000);
        t.announce(Asn(64500), p("2001:db8::/32"), t0);
        // Not yet visible immediately.
        t.run_until(t0 + SimDuration::secs(1));
        assert!(t.reachable("2001:db8::1".parse().unwrap()).is_none());
        // Fastest path: origin→transit1 (2 s) →collector (8 s) = 10 s.
        t.run_until(t0 + SimDuration::secs(60));
        assert_eq!(
            t.reachable("2001:db8::1".parse().unwrap()),
            Some(p("2001:db8::/32"))
        );
        let events = t.collector().events();
        assert!(!events.is_empty());
        let first = events.iter().find(|e| e.is_announce()).unwrap();
        assert_eq!(first.prefix, p("2001:db8::/32"));
        assert!(first.ts >= t0 + SimDuration::secs(10));
        match &first.kind {
            RouteEventKind::Announce { origin_as, as_path } => {
                assert_eq!(*origin_as, Asn(64500));
                assert!(!as_path.is_empty());
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn withdrawal_removes_reachability() {
        let mut t = topo();
        let t0 = SimTime::from_secs(1000);
        t.announce(Asn(64500), p("2001:db8::/32"), t0);
        t.run_until(t0 + SimDuration::secs(120));
        assert!(t.reachable("2001:db8::1".parse().unwrap()).is_some());
        let t1 = t0 + SimDuration::secs(3600);
        t.withdraw(Asn(64500), p("2001:db8::/32"), t1);
        t.run_until(t1 + SimDuration::secs(120));
        assert!(t.reachable("2001:db8::1".parse().unwrap()).is_none());
        assert!(t
            .collector()
            .events()
            .iter()
            .any(|e| matches!(e.kind, RouteEventKind::Withdraw)));
    }

    #[test]
    fn more_specific_wins_in_global_table() {
        let mut t = topo();
        let t0 = SimTime::from_secs(0);
        t.announce(Asn(64510), p("2001:db8::/29"), t0);
        t.announce(Asn(64500), p("2001:db8:4::/48"), t0);
        t.run_until(t0 + SimDuration::secs(120));
        // An address in the /48 resolves to the /48, not the covering /29.
        assert_eq!(
            t.reachable("2001:db8:4::1".parse().unwrap()),
            Some(p("2001:db8:4::/48"))
        );
        // An address outside the /48 but inside the /29 resolves to the /29.
        assert_eq!(
            t.reachable("2001:db8:5::1".parse().unwrap()),
            Some(p("2001:db8::/29"))
        );
    }

    #[test]
    fn silent_subnet_is_covered_not_distinct() {
        // T3's situation: never announced separately; only the covering /29
        // appears in the table.
        let mut t = topo();
        t.announce(Asn(64510), p("2001:db8::/29"), SimTime::EPOCH);
        t.run_until(SimTime::from_secs(120));
        let table = t.global_table();
        assert_eq!(table, vec![p("2001:db8::/29")]);
    }

    #[test]
    fn sixteen_prefix_announcement_converges() {
        // The final state of the T1 experiment: 17 prefixes at once.
        let mut t = topo();
        let base = p("2001:db8::/32");
        let mut prefixes = vec![base];
        // Generate the asymmetric split chain: /33 .. /48 plus companions.
        let mut current = base;
        for _ in 0..16 {
            let (lo, hi) = current.split().unwrap();
            prefixes.push(hi);
            current = lo;
        }
        prefixes.push(current);
        for (i, pre) in prefixes.iter().enumerate() {
            t.announce(Asn(64500), *pre, SimTime::from_secs(i as u64));
        }
        t.run_until(SimTime::from_secs(600));
        assert_eq!(t.in_flight(), 0);
        let table = t.global_table();
        assert_eq!(table.len(), prefixes.len());
    }
}
