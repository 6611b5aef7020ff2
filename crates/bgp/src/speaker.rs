//! A BGP speaker: sessions, import/export policy, origination, propagation.
//!
//! Speakers exchange *wire bytes* — every UPDATE that crosses a simulated
//! link is really encoded and decoded, so the codec is exercised on every
//! propagation step. Policy follows the Gao–Rexford model that shapes the
//! real DFZ: routes learned from customers are exported to everyone; routes
//! learned from peers or providers are exported to customers only; a
//! collector session receives everything and sends nothing.

use crate::attrs::{MpReach, Origin, PathAttributes};
use crate::error::BgpError;
use crate::fsm::SessionFsm;
use crate::message::{BgpMessage, OpenMessage, UpdateMessage};
use crate::rib::{LocRib, PeerId, RibChange, Route, LOCAL_PEER};
use sixscope_types::{Asn, Ipv6Prefix, SimTime};
use std::collections::BTreeSet;
use std::net::Ipv6Addr;

/// Commercial relationship with a peer, deciding import preference and
/// export scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerRelation {
    /// They pay us; routes preferred, exported everywhere.
    Customer,
    /// Settlement-free peer; exported to customers only.
    Peer,
    /// We pay them; least preferred, exported to customers only.
    Provider,
    /// A route collector / looking glass: receives our full view
    /// (like a customer) but never sends routes.
    Collector,
}

impl PeerRelation {
    /// LOCAL_PREF assigned on import (customer > peer > provider).
    fn import_local_pref(self) -> u32 {
        match self {
            PeerRelation::Customer => 200,
            PeerRelation::Peer => 100,
            PeerRelation::Provider => 50,
            PeerRelation::Collector => 0, // collectors never send routes
        }
    }
}

/// Per-peer state inside a speaker.
#[derive(Debug, Clone)]
struct Peer {
    asn: Asn,
    relation: PeerRelation,
    fsm: SessionFsm,
    /// Set once the initial full-table dump has been sent.
    synced: bool,
}

/// Outgoing wire traffic: `(peer, encoded message bytes)`.
pub type Outbox = Vec<(PeerId, Vec<u8>)>;

/// A BGP router with peers, a Loc-RIB and origination.
#[derive(Debug, Clone)]
pub struct Speaker {
    asn: Asn,
    bgp_id: u32,
    next_hop: Ipv6Addr,
    peers: Vec<Peer>,
    rib: LocRib,
    originated: BTreeSet<Ipv6Prefix>,
    /// Communities attached to locally originated routes (e.g.
    /// [`crate::attrs::NO_EXPORT`] to keep an announcement at the
    /// upstream).
    origin_communities: Vec<u32>,
}

impl Speaker {
    /// Creates a speaker for `asn` announcing `next_hop` as its next hop.
    pub fn new(asn: Asn, bgp_id: u32, next_hop: Ipv6Addr) -> Self {
        Speaker {
            asn,
            bgp_id,
            next_hop,
            peers: Vec::new(),
            rib: LocRib::new(),
            originated: BTreeSet::new(),
            origin_communities: Vec::new(),
        }
    }

    /// Sets the communities attached to future locally originated routes.
    pub fn set_origin_communities(&mut self, communities: Vec<u32>) {
        self.origin_communities = communities;
    }

    /// This speaker's ASN.
    pub fn asn(&self) -> Asn {
        self.asn
    }

    /// Read access to the Loc-RIB (the looking-glass view of this router).
    pub fn rib(&self) -> &LocRib {
        &self.rib
    }

    /// Registers a peer; returns its id. Sessions start Idle.
    pub fn add_peer(&mut self, peer_asn: Asn, relation: PeerRelation) -> PeerId {
        let id = self.peers.len() as PeerId;
        self.peers.push(Peer {
            asn: peer_asn,
            relation,
            fsm: SessionFsm::new(OpenMessage::standard(self.asn, self.bgp_id)),
            synced: false,
        });
        id
    }

    /// True once the session with `peer` is Established.
    pub fn peer_established(&self, peer: PeerId) -> bool {
        self.peers[peer as usize].fsm.is_established()
    }

    /// Starts the session toward `peer`; returns wire bytes to deliver.
    pub fn start_peer(&mut self, peer: PeerId, now: SimTime) -> Outbox {
        let msgs = self.peers[peer as usize].fsm.start(now);
        self.peers[peer as usize].synced = false;
        msgs.into_iter().map(|m| (peer, m.encode())).collect()
    }

    /// Handles received wire bytes from `peer`; returns traffic to send
    /// (possibly to *other* peers, when an UPDATE propagates).
    pub fn handle_bytes(
        &mut self,
        peer: PeerId,
        now: SimTime,
        mut bytes: &[u8],
    ) -> Result<Outbox, BgpError> {
        let mut out = Outbox::new();
        while !bytes.is_empty() {
            let (msg, rest) = BgpMessage::decode(bytes)?;
            bytes = rest;
            out.extend(self.handle_message(peer, now, &msg)?);
        }
        Ok(out)
    }

    fn handle_message(
        &mut self,
        peer: PeerId,
        now: SimTime,
        msg: &BgpMessage,
    ) -> Result<Outbox, BgpError> {
        let was_established = self.peers[peer as usize].fsm.is_established();
        let replies = match self.peers[peer as usize].fsm.handle(now, msg) {
            Ok(r) => r,
            Err(e) => {
                // Session death: flush routes learned from this peer.
                let changes = self.rib.drop_peer(peer);
                let mut out: Outbox = changes
                    .into_iter()
                    .flat_map(|c| self.propagate_change(&c, peer, now))
                    .collect();
                out.retain(|(p, _)| self.peers[*p as usize].fsm.is_established());
                // The error is surfaced; any withdraw traffic still flows.
                return if out.is_empty() { Err(e) } else { Ok(out) };
            }
        };
        let mut out: Outbox = replies.into_iter().map(|m| (peer, m.encode())).collect();
        // First transition into Established: send the initial table.
        if !was_established && self.peers[peer as usize].fsm.is_established() {
            out.extend(self.initial_table_for(peer, now));
        }
        if let BgpMessage::Update(update) = msg {
            out.extend(self.process_update(peer, now, update)?);
        }
        Ok(out)
    }

    /// Advances all session timers; returns keepalive traffic. Peers whose
    /// hold timer expired have their routes flushed (withdrawals propagate).
    pub fn tick(&mut self, now: SimTime) -> Outbox {
        let mut out = Outbox::new();
        for id in 0..self.peers.len() as PeerId {
            match self.peers[id as usize].fsm.tick(now) {
                Ok(msgs) => out.extend(msgs.into_iter().map(|m| (id, m.encode()))),
                Err(_) => {
                    let changes = self.rib.drop_peer(id);
                    for c in changes {
                        out.extend(self.propagate_change(&c, id, now));
                    }
                }
            }
        }
        out.retain(|(p, _)| self.peers[*p as usize].fsm.is_established());
        out
    }

    /// Originates `prefix` from this AS; returns announcement traffic.
    pub fn announce(&mut self, prefix: Ipv6Prefix, now: SimTime) -> Outbox {
        self.originated.insert(prefix);
        let route = Route {
            prefix,
            next_hop: self.next_hop,
            as_path: vec![],
            origin: Origin::Igp,
            med: 0,
            local_pref: 1000, // own routes always win locally
            communities: self.origin_communities.clone(),
            learned_from: LOCAL_PEER,
            learned_at: now,
        };
        let change = self.rib.insert(route);
        self.propagate_change(&change, LOCAL_PEER, now)
    }

    /// Withdraws an originated prefix; returns withdrawal traffic.
    pub fn withdraw(&mut self, prefix: Ipv6Prefix, now: SimTime) -> Outbox {
        self.originated.remove(&prefix);
        let change = self.rib.withdraw(prefix, LOCAL_PEER);
        self.propagate_change(&change, LOCAL_PEER, now)
    }

    /// Processes a received UPDATE: import policy, RIB, propagation.
    fn process_update(
        &mut self,
        peer: PeerId,
        now: SimTime,
        update: &UpdateMessage,
    ) -> Result<Outbox, BgpError> {
        let mut out = Outbox::new();
        let relation = self.peers[peer as usize].relation;
        if let Some(reach) = &update.attrs.mp_reach {
            // Loop prevention: drop paths containing our own ASN.
            if !update.attrs.as_path.contains(&self.asn) {
                for prefix in &reach.prefixes {
                    let route = Route {
                        prefix: *prefix,
                        next_hop: reach.next_hop,
                        as_path: update.attrs.as_path.clone(),
                        origin: update.attrs.origin.unwrap_or(Origin::Incomplete),
                        med: update.attrs.med.unwrap_or(0),
                        local_pref: relation.import_local_pref(),
                        communities: update.attrs.communities.clone(),
                        learned_from: peer,
                        learned_at: now,
                    };
                    let change = self.rib.insert(route);
                    out.extend(self.propagate_change(&change, peer, now));
                }
            }
        }
        for prefix in &update.attrs.mp_unreach {
            let change = self.rib.withdraw(*prefix, peer);
            out.extend(self.propagate_change(&change, peer, now));
        }
        Ok(out)
    }

    /// Gao–Rexford export test plus RFC 1997 well-known communities: may
    /// the best route learned from `learned_from` be exported to `to_peer`?
    fn may_export_route(&self, route: &Route, to_peer: PeerId) -> bool {
        use crate::attrs::{NO_ADVERTISE, NO_EXPORT};
        if route.communities.contains(&NO_ADVERTISE) {
            return false;
        }
        // NO_EXPORT: keep within the receiving AS — never re-export a
        // *learned* route carrying it (locally originated routes may still
        // go to our own peers, who then stop it).
        if route.communities.contains(&NO_EXPORT) && route.learned_from != LOCAL_PEER {
            return false;
        }
        self.may_export(route.learned_from, to_peer)
    }

    /// Gao–Rexford export test: may the best route learned from
    /// `learned_from` be exported to `to_peer`?
    fn may_export(&self, learned_from: PeerId, to_peer: PeerId) -> bool {
        if learned_from == to_peer {
            return false; // never echo back
        }
        if self.peers[to_peer as usize].relation == PeerRelation::Collector {
            return true; // collectors see the full view
        }
        let from_rel = if learned_from == LOCAL_PEER {
            None
        } else {
            Some(self.peers[learned_from as usize].relation)
        };
        match from_rel {
            None | Some(PeerRelation::Customer) => true,
            Some(PeerRelation::Peer) | Some(PeerRelation::Provider) => {
                self.peers[to_peer as usize].relation == PeerRelation::Customer
            }
            Some(PeerRelation::Collector) => false, // collectors never send
        }
    }

    fn export_update(&self, route: &Route) -> UpdateMessage {
        let mut as_path = Vec::with_capacity(route.as_path.len() + 1);
        as_path.push(self.asn);
        as_path.extend_from_slice(&route.as_path);
        UpdateMessage {
            attrs: PathAttributes {
                origin: Some(route.origin),
                as_path,
                med: None,
                local_pref: None,
                communities: route.communities.clone(),
                mp_reach: Some(MpReach {
                    next_hop: self.next_hop,
                    prefixes: vec![route.prefix],
                }),
                mp_unreach: vec![],
            },
        }
    }

    fn withdraw_update(&self, prefix: Ipv6Prefix) -> UpdateMessage {
        UpdateMessage {
            attrs: PathAttributes {
                mp_unreach: vec![prefix],
                ..Default::default()
            },
        }
    }

    fn propagate_change(&mut self, change: &RibChange, cause: PeerId, _now: SimTime) -> Outbox {
        let mut out = Outbox::new();
        match change {
            RibChange::NoChange => {}
            RibChange::NewBest(route) => {
                let msg = BgpMessage::Update(self.export_update(route));
                let bytes = msg.encode();
                for to in 0..self.peers.len() as PeerId {
                    if self.peers[to as usize].fsm.is_established()
                        && self.peers[to as usize].synced
                        && self.may_export_route(route, to)
                        // Don't announce into the AS that gave us the path.
                        && !route.as_path.contains(&self.peers[to as usize].asn)
                    {
                        out.push((to, bytes.clone()));
                    }
                }
            }
            RibChange::Withdrawn(prefix) => {
                // A withdrawal goes to every synced peer we might have
                // announced to — over-withdrawing is harmless, under-
                // withdrawing leaves ghost routes.
                let msg = BgpMessage::Update(self.withdraw_update(*prefix));
                let bytes = msg.encode();
                for to in 0..self.peers.len() as PeerId {
                    if to != cause
                        && self.peers[to as usize].fsm.is_established()
                        && self.peers[to as usize].synced
                    {
                        out.push((to, bytes.clone()));
                    }
                }
            }
        }
        out
    }

    /// Sends the current exportable table to a freshly established peer.
    fn initial_table_for(&mut self, peer: PeerId, _now: SimTime) -> Outbox {
        self.peers[peer as usize].synced = true;
        let mut out = Outbox::new();
        let routes: Vec<Route> = self
            .rib
            .best_routes()
            .into_iter()
            .map(|(_, r)| r.clone())
            .collect();
        for route in routes {
            if self.may_export_route(&route, peer)
                && !route.as_path.contains(&self.peers[peer as usize].asn)
            {
                out.push((
                    peer,
                    BgpMessage::Update(self.export_update(&route)).encode(),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    /// A tiny two-speaker harness delivering bytes instantly.
    struct Pair {
        a: Speaker,
        b: Speaker,
        a_peer: PeerId, // id of b in a
        b_peer: PeerId, // id of a in b
    }

    impl Pair {
        fn new(rel_ab: PeerRelation, rel_ba: PeerRelation) -> Pair {
            let mut a = Speaker::new(Asn(64500), 1, "2001:db8:f00::1".parse().unwrap());
            let mut b = Speaker::new(Asn(64501), 2, "2001:db8:f00::2".parse().unwrap());
            let a_peer = a.add_peer(Asn(64501), rel_ab);
            let b_peer = b.add_peer(Asn(64500), rel_ba);
            Pair {
                a,
                b,
                a_peer,
                b_peer,
            }
        }

        /// Ping-pongs traffic until quiescent; returns rounds taken.
        fn establish(&mut self, now: SimTime) {
            let mut to_b = self.a.start_peer(self.a_peer, now);
            let mut to_a = self.b.start_peer(self.b_peer, now);
            for _ in 0..8 {
                if to_a.is_empty() && to_b.is_empty() {
                    break;
                }
                let mut next_to_a = Vec::new();
                for (_, bytes) in to_b.drain(..) {
                    next_to_a.extend(self.b.handle_bytes(self.b_peer, now, &bytes).unwrap());
                }
                let mut next_to_b = Vec::new();
                for (_, bytes) in to_a.drain(..) {
                    next_to_b.extend(self.a.handle_bytes(self.a_peer, now, &bytes).unwrap());
                }
                to_a = next_to_a;
                to_b = next_to_b;
            }
            assert!(self.a.peer_established(self.a_peer));
            assert!(self.b.peer_established(self.b_peer));
        }

        /// Delivers an outbox produced by `a` into `b` (all traffic flows on
        /// the single link), returning b's responses.
        fn a_to_b(&mut self, out: Outbox, now: SimTime) -> Outbox {
            let mut responses = Outbox::new();
            for (_, bytes) in out {
                responses.extend(self.b.handle_bytes(self.b_peer, now, &bytes).unwrap());
            }
            responses
        }
    }

    #[test]
    fn sessions_establish_over_wire_bytes() {
        let mut pair = Pair::new(PeerRelation::Customer, PeerRelation::Provider);
        pair.establish(SimTime::EPOCH);
    }

    #[test]
    fn announcement_installs_route_at_peer() {
        let mut pair = Pair::new(PeerRelation::Peer, PeerRelation::Peer);
        let now = SimTime::EPOCH;
        pair.establish(now);
        let out = pair.a.announce(p("2001:db8::/32"), now);
        assert_eq!(out.len(), 1, "one update to the single peer");
        pair.a_to_b(out, now);
        let route = pair
            .b
            .rib()
            .best(&p("2001:db8::/32"))
            .expect("route installed");
        assert_eq!(route.as_path, vec![Asn(64500)]);
        // Data-plane reachability follows.
        assert!(pair
            .b
            .rib()
            .lookup("2001:db8::1".parse().unwrap())
            .is_some());
    }

    #[test]
    fn withdrawal_removes_route_at_peer() {
        let mut pair = Pair::new(PeerRelation::Peer, PeerRelation::Peer);
        let now = SimTime::EPOCH;
        pair.establish(now);
        let out = pair.a.announce(p("2001:db8::/32"), now);
        pair.a_to_b(out, now);
        let out = pair.a.withdraw(
            p("2001:db8::/32"),
            now + sixscope_types::SimDuration::secs(5),
        );
        assert_eq!(out.len(), 1);
        pair.a_to_b(out, now);
        assert!(pair.b.rib().best(&p("2001:db8::/32")).is_none());
    }

    #[test]
    fn routes_announced_before_establishment_flow_in_initial_table() {
        let mut a = Speaker::new(Asn(64500), 1, "2001:db8:f00::1".parse().unwrap());
        let mut b = Speaker::new(Asn(64501), 2, "2001:db8:f00::2".parse().unwrap());
        let now = SimTime::EPOCH;
        // Announce before any peer exists/establishes.
        let out = a.announce(p("2001:db8::/32"), now);
        assert!(out.is_empty(), "no established peers yet");
        let a_peer = a.add_peer(Asn(64501), PeerRelation::Peer);
        let b_peer = b.add_peer(Asn(64500), PeerRelation::Peer);
        // Establish manually.
        let mut to_b = a.start_peer(a_peer, now);
        let mut to_a = b.start_peer(b_peer, now);
        for _ in 0..8 {
            if to_a.is_empty() && to_b.is_empty() {
                break;
            }
            let mut nta = Vec::new();
            for (_, bytes) in to_b.drain(..) {
                nta.extend(b.handle_bytes(b_peer, now, &bytes).unwrap());
            }
            let mut ntb = Vec::new();
            for (_, bytes) in to_a.drain(..) {
                ntb.extend(a.handle_bytes(a_peer, now, &bytes).unwrap());
            }
            to_a = nta;
            to_b = ntb;
        }
        assert!(
            b.rib().best(&p("2001:db8::/32")).is_some(),
            "initial table synced"
        );
    }

    #[test]
    fn own_asn_in_path_is_rejected() {
        let mut pair = Pair::new(PeerRelation::Peer, PeerRelation::Peer);
        let now = SimTime::EPOCH;
        pair.establish(now);
        // Hand-craft an update whose path already contains b's ASN.
        let update = UpdateMessage {
            attrs: PathAttributes {
                origin: Some(Origin::Igp),
                as_path: vec![Asn(64500), Asn(64501)],
                mp_reach: Some(MpReach {
                    next_hop: "2001:db8:f00::1".parse().unwrap(),
                    prefixes: vec![p("2001:db8::/32")],
                }),
                ..Default::default()
            },
        };
        let bytes = BgpMessage::Update(update).encode();
        pair.b.handle_bytes(pair.b_peer, now, &bytes).unwrap();
        assert!(
            pair.b.rib().best(&p("2001:db8::/32")).is_none(),
            "looped path dropped"
        );
    }

    #[test]
    fn gao_rexford_peer_routes_do_not_reach_other_peers() {
        // b has two peers: a (peer) and c (peer). A route learned from a
        // must NOT be exported to c; a route from a customer must.
        let now = SimTime::EPOCH;
        let mut b = Speaker::new(Asn(20), 20, "2001:db8:f00::20".parse().unwrap());
        let from_peer = b.add_peer(Asn(10), PeerRelation::Peer);
        let to_peer = b.add_peer(Asn(30), PeerRelation::Peer);
        let to_customer = b.add_peer(Asn(40), PeerRelation::Customer);
        // Force sessions up by exchanging with throwaway speakers.
        let mut others: Vec<(Speaker, PeerId)> =
            [(10u32, from_peer), (30, to_peer), (40, to_customer)]
                .iter()
                .map(|&(asn, _)| {
                    let mut s = Speaker::new(Asn(asn), asn, "2001:db8:f00::ff".parse().unwrap());
                    let pid = s.add_peer(Asn(20), PeerRelation::Peer);
                    (s, pid)
                })
                .collect();
        for (i, (other, opid)) in others.iter_mut().enumerate() {
            let bpid = i as PeerId;
            let mut to_other = b.start_peer(bpid, now);
            let mut to_b = other.start_peer(*opid, now);
            for _ in 0..8 {
                if to_other.is_empty() && to_b.is_empty() {
                    break;
                }
                let mut ntb = Vec::new();
                for (_, bytes) in to_other.drain(..) {
                    ntb.extend(other.handle_bytes(*opid, now, &bytes).unwrap());
                }
                let mut nto = Vec::new();
                for (_, bytes) in to_b.drain(..) {
                    nto.extend(b.handle_bytes(bpid, now, &bytes).unwrap());
                }
                to_other = nto;
                to_b = ntb;
            }
            assert!(b.peer_established(bpid));
        }
        // Deliver a route from the peer AS10.
        let update = UpdateMessage {
            attrs: PathAttributes {
                origin: Some(Origin::Igp),
                as_path: vec![Asn(10)],
                mp_reach: Some(MpReach {
                    next_hop: "2001:db8:f00::10".parse().unwrap(),
                    prefixes: vec![p("2001:db8::/32")],
                }),
                ..Default::default()
            },
        };
        let out = b
            .handle_bytes(from_peer, now, &BgpMessage::Update(update).encode())
            .unwrap();
        let targets: Vec<PeerId> = out.iter().map(|(p, _)| *p).collect();
        assert!(targets.contains(&to_customer), "customer gets peer routes");
        assert!(!targets.contains(&to_peer), "other peers do not");
    }

    #[test]
    fn collector_receives_but_never_sends() {
        let now = SimTime::EPOCH;
        let mut transit = Speaker::new(Asn(20), 20, "2001:db8:f00::20".parse().unwrap());
        let col_id = transit.add_peer(Asn(99), PeerRelation::Collector);
        let mut collector = Speaker::new(Asn(99), 99, "2001:db8:f00::99".parse().unwrap());
        let tr_id = collector.add_peer(Asn(20), PeerRelation::Provider);
        let mut to_col = transit.start_peer(col_id, now);
        let mut to_tr = collector.start_peer(tr_id, now);
        for _ in 0..8 {
            if to_col.is_empty() && to_tr.is_empty() {
                break;
            }
            let mut ntt = Vec::new();
            for (_, bytes) in to_col.drain(..) {
                ntt.extend(collector.handle_bytes(tr_id, now, &bytes).unwrap());
            }
            let mut ntc = Vec::new();
            for (_, bytes) in to_tr.drain(..) {
                ntc.extend(transit.handle_bytes(col_id, now, &bytes).unwrap());
            }
            to_col = ntc;
            to_tr = ntt;
        }
        assert!(transit.peer_established(col_id));
        // Transit originates: collector must receive it.
        let out = transit.announce(p("2001:db8::/32"), now);
        assert!(out.iter().any(|(pid, _)| *pid == col_id));
    }
}

#[cfg(test)]
mod community_tests {
    use super::*;
    use crate::attrs::{NO_ADVERTISE, NO_EXPORT};

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    /// Builds an established chain a ── b ── c (all plain peers) and
    /// returns the speakers plus peer ids (id of the *other* side in each).
    fn chain() -> (Speaker, Speaker, Speaker, PeerId, PeerId, PeerId, PeerId) {
        let now = SimTime::EPOCH;
        let mut a = Speaker::new(Asn(1), 1, "2001:db8:f::1".parse().unwrap());
        let mut b = Speaker::new(Asn(2), 2, "2001:db8:f::2".parse().unwrap());
        let mut c = Speaker::new(Asn(3), 3, "2001:db8:f::3".parse().unwrap());
        // b is a's provider so the route propagates onward to c (customer
        // routes export everywhere).
        let a_b = a.add_peer(Asn(2), PeerRelation::Provider);
        let b_a = b.add_peer(Asn(1), PeerRelation::Customer);
        let b_c = b.add_peer(Asn(3), PeerRelation::Peer);
        let c_b = c.add_peer(Asn(2), PeerRelation::Peer);
        // Establish a-b.
        pump(&mut a, a_b, &mut b, b_a, now);
        // Establish b-c.
        pump(&mut b, b_c, &mut c, c_b, now);
        (a, b, c, a_b, b_a, b_c, c_b)
    }

    fn pump(x: &mut Speaker, x_peer: PeerId, y: &mut Speaker, y_peer: PeerId, now: SimTime) {
        let mut to_y = x.start_peer(x_peer, now);
        let mut to_x = y.start_peer(y_peer, now);
        for _ in 0..8 {
            if to_x.is_empty() && to_y.is_empty() {
                break;
            }
            let mut next_to_x = Vec::new();
            for (_, bytes) in to_y.drain(..) {
                next_to_x.extend(y.handle_bytes(y_peer, now, &bytes).unwrap());
            }
            let mut next_to_y = Vec::new();
            for (_, bytes) in to_x.drain(..) {
                next_to_y.extend(x.handle_bytes(x_peer, now, &bytes).unwrap());
            }
            // Route any messages addressed to other peers nowhere (chain
            // tests deliver those explicitly).
            to_x = next_to_x
                .into_iter()
                .filter(|(p, _)| *p == y_peer)
                .collect();
            to_y = next_to_y
                .into_iter()
                .filter(|(p, _)| *p == x_peer)
                .collect();
        }
        assert!(x.peer_established(x_peer) && y.peer_established(y_peer));
    }

    #[test]
    fn no_export_stops_at_the_first_hop() {
        let (mut a, mut b, mut c, _a_b, b_a, b_c, c_b) = chain();
        let now = SimTime::from_secs(100);
        a.set_origin_communities(vec![NO_EXPORT]);
        let out = a.announce(p("2001:db8::/32"), now);
        assert_eq!(out.len(), 1, "a exports its own route to b");
        // Deliver to b; b must install it but NOT forward to c.
        let mut forwarded = Vec::new();
        for (_, bytes) in out {
            forwarded.extend(b.handle_bytes(b_a, now, &bytes).unwrap());
        }
        assert!(b.rib().best(&p("2001:db8::/32")).is_some(), "b installed");
        assert!(
            forwarded.iter().all(|(peer, _)| *peer != b_c),
            "NO_EXPORT route was forwarded to c"
        );
        // Sanity: without the community, the same route does flow to c.
        a.set_origin_communities(vec![]);
        let out = a.announce(p("2001:db9::/32"), now);
        let mut forwarded = Vec::new();
        for (_, bytes) in out {
            forwarded.extend(b.handle_bytes(b_a, now, &bytes).unwrap());
        }
        let to_c: Vec<_> = forwarded
            .into_iter()
            .filter(|(peer, _)| *peer == b_c)
            .collect();
        assert!(!to_c.is_empty(), "plain route must reach c");
        for (_, bytes) in to_c {
            c.handle_bytes(c_b, now, &bytes).unwrap();
        }
        assert!(c.rib().best(&p("2001:db9::/32")).is_some());
    }

    #[test]
    fn no_advertise_never_leaves_the_router() {
        let (mut a, mut b, _c, a_b, b_a, b_c, _c_b) = chain();
        let now = SimTime::from_secs(100);
        // Hand-deliver a NO_ADVERTISE route into b.
        let update = UpdateMessage {
            attrs: PathAttributes {
                origin: Some(Origin::Igp),
                as_path: vec![Asn(1)],
                communities: vec![NO_ADVERTISE],
                mp_reach: Some(MpReach {
                    next_hop: "2001:db8:f::1".parse().unwrap(),
                    prefixes: vec![p("2001:db8::/32")],
                }),
                ..Default::default()
            },
        };
        let forwarded = b
            .handle_bytes(b_a, now, &BgpMessage::Update(update).encode())
            .unwrap();
        assert!(b.rib().best(&p("2001:db8::/32")).is_some());
        assert!(forwarded.iter().all(|(peer, _)| *peer != b_c));
        let _ = (&mut a, a_b);
    }

    #[test]
    fn communities_survive_the_wire() {
        let (mut a, mut b, _c, _a_b, b_a, _b_c, _c_b) = chain();
        let now = SimTime::from_secs(50);
        a.set_origin_communities(vec![0x0001_0002, NO_EXPORT]);
        let out = a.announce(p("2001:db8::/32"), now);
        for (_, bytes) in out {
            let _ = b.handle_bytes(b_a, now, &bytes).unwrap();
        }
        let route = b.rib().best(&p("2001:db8::/32")).unwrap();
        assert_eq!(route.communities, vec![0x0001_0002, NO_EXPORT]);
    }
}
