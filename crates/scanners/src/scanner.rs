//! The full scanner model: source addressing, scheduling, BGP reactivity
//! and probe emission.
//!
//! A [`ScannerSpec`] combines one choice per taxonomy axis and emits
//! [`Probe`]s — timestamped, fully specified packets. Scanners observe the
//! world only through [`ScanContext`]: the announced-prefix view (what a
//! real scanner learns from public BGP collectors), the hitlist, and
//! end-to-end responsiveness (what its own probes reveal).
//! [`Probe::encode_into`] encodes a probe to real IPv6 wire bytes, as the
//! pcap writer and the simulator's test oracle do; the simulator itself
//! delivers the decoded fields, which are exactly what parsing those bytes
//! yields.

use crate::address::AddressStrategy;
use crate::batch::{GenScratch, ProbeBatch};
use crate::netsel::NetworkStrategy;
use crate::temporal::TemporalModel;
use crate::tools::{ProbeKindTemplate, ToolProfile};
use sixscope_packet::PacketBuilder;
use sixscope_types::{Asn, Ipv6Prefix, SimDuration, SimTime, Xoshiro256pp};
use std::net::Ipv6Addr;

/// The world as a scanner sees it.
///
/// The view methods return borrowed slices: probe generation queries them
/// once per session, and the simulation backs them with pre-compiled
/// snapshots (per-epoch announced sets, publication-ordered hitlists) so
/// the hot path allocates nothing.
pub trait ScanContext {
    /// Prefixes visible in the global table at `t` (collector view).
    fn announced_at(&self, t: SimTime) -> &[Ipv6Prefix];
    /// First-visibility events `(time, prefix)` for BGP-reactive scanners.
    fn announce_events(&self) -> &[(SimTime, Ipv6Prefix)];
    /// The public hitlist as of `t`.
    fn hitlist(&self, t: SimTime) -> &[Ipv6Addr];
    /// Whether probing `addr` elicits a response (feeds dynamic TGAs).
    fn responds(&self, addr: Ipv6Addr) -> bool;
    /// End of the observation window.
    fn horizon(&self) -> SimTime;
}

/// How a scanner chooses its source address(es).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceModel {
    /// A single fixed address.
    Fixed(Ipv6Addr),
    /// Rotating IIDs within one /64 — per probe or per session (the T2
    /// phenomenon: 3× more /128 sources than /64).
    RotatingIid {
        /// The scanner's /64.
        subnet: Ipv6Prefix,
        /// Rotate per probe (`true`) or per session (`false`).
        per_probe: bool,
    },
}

impl SourceModel {
    /// The /64 the scanner lives in.
    pub fn subnet(&self) -> Ipv6Prefix {
        match self {
            SourceModel::Fixed(addr) => Ipv6Prefix::new(*addr, 64).expect("64 is valid"),
            SourceModel::RotatingIid { subnet, .. } => *subnet,
        }
    }
}

/// BGP reactivity: sessions triggered by announce events.
#[derive(Debug, Clone, PartialEq)]
pub struct Reactivity {
    /// Latency between the collector event and the scan (live monitors in
    /// the paper react within 30 minutes).
    pub delay: SimDuration,
    /// Probability of reacting to any given announce event.
    pub probability: f64,
}

/// Transport-level description of one probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// ICMPv6 echo request.
    Icmp {
        /// Echo identifier.
        ident: u16,
        /// Echo sequence.
        seq: u16,
    },
    /// TCP SYN.
    Tcp {
        /// Ephemeral source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Initial sequence number.
        seq: u32,
    },
    /// UDP datagram.
    Udp {
        /// Ephemeral source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
    },
}

/// One emitted probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Probe {
    /// Send time.
    pub ts: SimTime,
    /// Source address.
    pub src: Ipv6Addr,
    /// Target address.
    pub dst: Ipv6Addr,
    /// Transport specifics.
    pub kind: ProbeKind,
    /// Upper-layer payload.
    pub payload: Vec<u8>,
}

impl Probe {
    /// Encodes the probe into `buf`, clearing it first, so a caller can
    /// reuse one scratch buffer instead of allocating per probe.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        let builder = PacketBuilder::new(self.src, self.dst);
        match self.kind {
            ProbeKind::Icmp { ident, seq } => {
                builder.icmpv6_echo_request_into(ident, seq, &self.payload, buf)
            }
            ProbeKind::Tcp {
                src_port,
                dst_port,
                seq,
            } => builder.tcp_syn_into(src_port, dst_port, seq, &self.payload, buf),
            ProbeKind::Udp { src_port, dst_port } => {
                builder.udp_into(src_port, dst_port, &self.payload, buf)
            }
        }
    }
}

/// A complete scanner specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ScannerSpec {
    /// Unique id (also the RNG stream label).
    pub id: u32,
    /// Source addressing.
    pub source: SourceModel,
    /// Origin AS (consumed by the world model's metadata join).
    pub asn: Asn,
    /// Session scheduling.
    pub temporal: TemporalModel,
    /// Network selection.
    pub network: NetworkStrategy,
    /// Address selection within chosen networks.
    pub address: AddressStrategy,
    /// Tool profile (protocol mix + payload format).
    pub tool: ToolProfile,
    /// Probes per selected prefix per session.
    pub packets_per_prefix: u64,
    /// Probe rate in packets/second within a session.
    pub pps: f64,
    /// Optional BGP-reactive triggering (in addition to the schedule).
    pub reactive: Option<Reactivity>,
    /// Dynamic-TGA feedback: follow-up probes around each responsive
    /// target (concentrating on reactive space like T4).
    pub tga_followups: Option<u64>,
}

impl ScannerSpec {
    /// Generates every probe this scanner sends during the experiment.
    ///
    /// Probes are returned sorted by time (stable: equal times keep
    /// emission order). Determinism: the caller passes a per-scanner RNG
    /// stream (usually `master.split(&format!("scanner-{id}"))`). This
    /// collects [`ScannerSpec::generate_into`]'s batch; the simulator uses
    /// the batch directly.
    pub fn generate(&self, ctx: &dyn ScanContext, rng: &mut Xoshiro256pp) -> Vec<Probe> {
        let mut batch = ProbeBatch::new();
        self.generate_into(ctx, rng, &mut GenScratch::new(), &mut batch);
        batch.sort_by_ts();
        batch
            .sorted()
            .iter()
            .map(|&row| batch.probe(row as usize))
            .collect()
    }

    /// Emits every probe this scanner sends into a columnar [`ProbeBatch`],
    /// reusing `scratch` buffers so a warmed-up shard allocates nothing.
    ///
    /// The batch is left in emission order; call [`ProbeBatch::sort_by_ts`]
    /// for time order.
    pub fn generate_into(
        &self,
        ctx: &dyn ScanContext,
        rng: &mut Xoshiro256pp,
        scratch: &mut GenScratch,
        out: &mut ProbeBatch,
    ) {
        out.clear();
        self.temporal.session_starts_into(rng, &mut scratch.starts);
        if let Some(reactive) = &self.reactive {
            for (ts, _prefix) in ctx.announce_events() {
                if rng.bool(reactive.probability) {
                    scratch.starts.push(*ts + reactive.delay);
                }
            }
        }
        let horizon = ctx.horizon();
        scratch.starts.retain(|t| *t < horizon);
        scratch.starts.sort_unstable();
        self.tool.mix.weights_into(&mut scratch.mix_weights);
        let mut probe_counter: u64 = 0;
        let starts = std::mem::take(&mut scratch.starts);
        for &start in &starts {
            self.emit_session_into(ctx, rng, start, &mut probe_counter, scratch, out);
        }
        scratch.starts = starts;
    }

    /// Emits one session's probes: targets, then TGA follow-ups, then one
    /// probe per target (source, payload, kind, gap — in that RNG draw
    /// order), with every intermediate vector recycled and payload bytes
    /// written straight into the batch arena.
    fn emit_session_into(
        &self,
        ctx: &dyn ScanContext,
        rng: &mut Xoshiro256pp,
        start: SimTime,
        probe_counter: &mut u64,
        scratch: &mut GenScratch,
        out: &mut ProbeBatch,
    ) {
        let GenScratch {
            prefixes,
            weights,
            mix_weights,
            targets,
            inside,
            regions,
            ..
        } = scratch;
        // Resolve this session's targets.
        targets.clear();
        match &self.network {
            NetworkStrategy::FixedTargets(addrs) => {
                for _ in 0..self.packets_per_prefix.max(1) {
                    targets.extend_from_slice(addrs);
                }
            }
            strategy => {
                let announced = ctx.announced_at(start);
                let hitlist = ctx.hitlist(start);
                strategy.select_into(announced, rng, weights, prefixes);
                for &prefix in prefixes.iter() {
                    self.address.generate_into(
                        prefix,
                        self.packets_per_prefix,
                        rng,
                        hitlist,
                        inside,
                        targets,
                    );
                }
            }
        }
        if targets.is_empty() {
            return;
        }
        // Dynamic-TGA feedback: concentrate on the /48s of responders.
        if let Some(followups) = self.tga_followups {
            regions.clear();
            regions.extend(
                targets
                    .iter()
                    .filter(|&&t| ctx.responds(t))
                    .map(|&t| Ipv6Prefix::new(t, 48).expect("48 is valid")),
            );
            regions.sort();
            regions.dedup();
            for &region in regions.iter().take(8) {
                // Refinement probes use dense low-byte exploration of the
                // responsive region regardless of the seeding strategy.
                AddressStrategy::LowByte { max: followups }.generate_into(
                    region,
                    followups,
                    rng,
                    &[],
                    inside,
                    targets,
                );
            }
        }
        // Emit probes spaced at the scanner's rate. Gaps are capped well
        // below the 1 h session timeout so one emission stays one session.
        let mean_gap = (1.0 / self.pps.max(1e-6)).min(1800.0);
        let mut t = start;
        let session_src = self.current_src(rng);
        for &dst in targets.iter() {
            let src = match &self.source {
                SourceModel::RotatingIid {
                    per_probe: true, ..
                } => self.current_src(rng),
                _ => session_src,
            };
            let n = *probe_counter;
            *probe_counter += 1;
            self.tool.payload.bytes_into(n, rng, out.payload_arena());
            let kind = self.make_kind_with(n, rng, mix_weights);
            out.push(t, src, dst, kind);
            let gap = rng.exponential(1.0 / mean_gap.max(1e-9)).min(3000.0);
            t += SimDuration::secs(gap.max(0.0) as u64);
        }
    }

    fn current_src(&self, rng: &mut Xoshiro256pp) -> Ipv6Addr {
        match &self.source {
            SourceModel::Fixed(addr) => *addr,
            SourceModel::RotatingIid { subnet, .. } => {
                Ipv6Addr::from(subnet.bits() | rng.next_u64() as u128)
            }
        }
    }

    /// The transport of probe `n`: an ephemeral port draw, then the
    /// protocol-mix draw (weight column precomputed once per burst).
    fn make_kind_with(&self, n: u64, rng: &mut Xoshiro256pp, mix_weights: &[f64]) -> ProbeKind {
        let ephemeral = 32_768 + (rng.next_u32() % 28_000) as u16;
        match self.tool.mix.draw_with(mix_weights, rng) {
            ProbeKindTemplate::Icmp => ProbeKind::Icmp {
                ident: (self.id & 0xffff) as u16,
                seq: (n & 0xffff) as u16,
            },
            ProbeKindTemplate::TcpPorts(ports) => ProbeKind::Tcp {
                src_port: ephemeral,
                dst_port: ports[(n % ports.len() as u64) as usize],
                seq: rng.next_u32(),
            },
            ProbeKindTemplate::UdpPorts(ports) => ProbeKind::Udp {
                src_port: ephemeral,
                dst_port: ports[(n % ports.len() as u64) as usize],
            },
            ProbeKindTemplate::UdpTraceroute => ProbeKind::Udp {
                src_port: ephemeral,
                dst_port: 33434 + (n % 90) as u16,
            },
        }
    }
}

/// A simple static context for tests and examples: fixed announcement set,
/// fixed hitlist, configurable responder prefix.
#[derive(Debug, Clone, Default)]
pub struct StaticContext {
    /// Always-announced prefixes.
    pub announced: Vec<Ipv6Prefix>,
    /// Announce events.
    pub events: Vec<(SimTime, Ipv6Prefix)>,
    /// Hitlist entries.
    pub hitlist: Vec<Ipv6Addr>,
    /// Prefix whose addresses respond (T4-like), if any.
    pub responsive: Option<Ipv6Prefix>,
    /// Observation end.
    pub end: SimTime,
}

impl ScanContext for StaticContext {
    fn announced_at(&self, _t: SimTime) -> &[Ipv6Prefix] {
        &self.announced
    }
    fn announce_events(&self) -> &[(SimTime, Ipv6Prefix)] {
        &self.events
    }
    fn hitlist(&self, _t: SimTime) -> &[Ipv6Addr] {
        &self.hitlist
    }
    fn responds(&self, addr: Ipv6Addr) -> bool {
        self.responsive.is_some_and(|p| p.contains(addr))
    }
    fn horizon(&self) -> SimTime {
        self.end
    }
}

/// The per-probe generator, shared with `tests/prop.rs`.
#[cfg(test)]
#[path = "../tests/probe_oracle/mod.rs"]
mod probe_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use sixscope_packet::ParsedView;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    fn ctx() -> StaticContext {
        StaticContext {
            announced: vec![p("2001:db8::/33"), p("2001:db8:8000::/33")],
            events: vec![],
            hitlist: vec![],
            responsive: None,
            end: SimTime::EPOCH + SimDuration::weeks(44),
        }
    }

    fn base_spec() -> ScannerSpec {
        ScannerSpec {
            id: 7,
            source: SourceModel::Fixed("2001:db8:f00::7".parse().unwrap()),
            asn: Asn(64600),
            temporal: TemporalModel::OneOff {
                at: SimTime::from_secs(1000),
            },
            network: NetworkStrategy::AllAnnounced,
            address: AddressStrategy::LowByte { max: 5 },
            tool: ToolProfile::yarrp6(),
            packets_per_prefix: 5,
            pps: 1.0,
            reactive: None,
            tga_followups: None,
        }
    }

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(42)
    }

    #[test]
    fn one_off_all_announced_probes_both_prefixes() {
        let probes = base_spec().generate(&ctx(), &mut rng());
        assert_eq!(probes.len(), 10, "5 targets × 2 prefixes");
        let in_lo = probes
            .iter()
            .filter(|pr| p("2001:db8::/33").contains(pr.dst))
            .count();
        let in_hi = probes
            .iter()
            .filter(|pr| p("2001:db8:8000::/33").contains(pr.dst))
            .count();
        assert_eq!(in_lo, 5);
        assert_eq!(in_hi, 5);
        // All probes carry the Yarrp signature.
        assert!(probes.iter().all(|pr| pr.payload.starts_with(b"yrp6")));
    }

    #[test]
    fn probes_encode_to_parseable_packets() {
        let probes = base_spec().generate(&ctx(), &mut rng());
        let mut bytes = Vec::new();
        for probe in &probes {
            probe.encode_into(&mut bytes);
            let parsed = ParsedView::parse(&bytes).expect("wire bytes parse");
            assert_eq!(parsed.header.src, probe.src);
            assert_eq!(parsed.header.dst, probe.dst);
            assert_eq!(parsed.payload, &probe.payload[..]);
        }
    }

    #[test]
    fn batched_generation_matches_reference() {
        // Cover reactive triggering and TGA feedback in one spec.
        let mut context = ctx();
        context.events = vec![(SimTime::from_secs(10_000), p("2001:db8:8000::/34"))];
        context.responsive = Some(p("2001:db8:4::/48"));
        context.hitlist = vec!["2001:db8:4::1".parse().unwrap()];
        let mut spec = base_spec();
        spec.reactive = Some(Reactivity {
            delay: SimDuration::mins(20),
            probability: 0.5,
        });
        spec.tga_followups = Some(10);
        spec.temporal = TemporalModel::Periodic {
            start: SimTime::from_secs(1000),
            period: SimDuration::weeks(2),
            jitter: SimDuration::hours(1),
            until: SimTime::EPOCH + SimDuration::weeks(40),
        };
        let reference = probe_oracle::generate(&spec, &context, &mut rng());
        let batched = spec.generate(&context, &mut rng());
        assert_eq!(batched.len(), reference.len());
        for (pos, (got, want)) in batched.iter().zip(&reference).enumerate() {
            assert_eq!(got, want, "row {pos}");
        }
    }

    #[test]
    fn probes_are_time_sorted_and_gapped_below_timeout() {
        let mut spec = base_spec();
        spec.packets_per_prefix = 50;
        spec.pps = 0.1; // slow scanner, still one session
        let probes = spec.generate(&ctx(), &mut rng());
        assert!(probes.windows(2).all(|w| w[0].ts <= w[1].ts));
        assert!(probes
            .windows(2)
            .all(|w| (w[1].ts - w[0].ts).as_secs() < 3600));
    }

    #[test]
    fn reactive_scanner_fires_after_events() {
        let mut context = ctx();
        context.events = vec![
            (SimTime::from_secs(10_000), p("2001:db8:8000::/34")),
            (SimTime::from_secs(20_000), p("2001:db8:c000::/34")),
        ];
        let mut spec = base_spec();
        // No scheduled sessions: only reactive ones.
        spec.temporal = TemporalModel::OneOff {
            at: SimTime::from_secs(u64::MAX / 2),
        };
        spec.reactive = Some(Reactivity {
            delay: SimDuration::mins(20),
            probability: 1.0,
        });
        let probes = spec.generate(&context, &mut rng());
        assert!(!probes.is_empty());
        let first = probes.first().unwrap().ts;
        assert_eq!(first, SimTime::from_secs(10_000) + SimDuration::mins(20));
    }

    #[test]
    fn fixed_targets_ignore_announcements() {
        let mut spec = base_spec();
        let dns_target: Ipv6Addr = "2001:db8:2:100::1".parse().unwrap();
        spec.network = NetworkStrategy::FixedTargets(vec![dns_target]);
        spec.packets_per_prefix = 3;
        let probes = spec.generate(&ctx(), &mut rng());
        assert_eq!(probes.len(), 3);
        assert!(probes.iter().all(|pr| pr.dst == dns_target));
    }

    #[test]
    fn rotating_per_probe_sources_differ() {
        let mut spec = base_spec();
        spec.source = SourceModel::RotatingIid {
            subnet: p("2001:db8:f00:1::/64"),
            per_probe: true,
        };
        spec.packets_per_prefix = 20;
        let probes = spec.generate(&ctx(), &mut rng());
        let distinct: std::collections::HashSet<Ipv6Addr> = probes.iter().map(|p| p.src).collect();
        assert!(
            distinct.len() > 10,
            "only {} distinct sources",
            distinct.len()
        );
        assert!(probes
            .iter()
            .all(|pr| p("2001:db8:f00:1::/64").contains(pr.src)));
    }

    #[test]
    fn tga_followups_concentrate_on_responsive_space() {
        let mut context = ctx();
        context.announced = vec![p("2001:db8::/29")];
        context.responsive = Some(p("2001:db8:4::/48"));
        let mut spec = base_spec();
        spec.network = NetworkStrategy::CoveringRandom(p("2001:db8::/29"));
        // Seed probes into the /29 low-bytes; ::1 of the covering prefix is
        // NOT in the responsive /48, so craft targets that include it.
        spec.address = AddressStrategy::Hitlist;
        context.hitlist = vec![
            "2001:db8:4::1".parse().unwrap(), // responds
            "2001:db8:5::1".parse().unwrap(), // silent
        ];
        spec.packets_per_prefix = 10;
        spec.tga_followups = Some(30);
        let probes = spec.generate(&context, &mut rng());
        let in_responsive = probes
            .iter()
            .filter(|pr| p("2001:db8:4::/48").contains(pr.dst))
            .count();
        let elsewhere = probes.len() - in_responsive;
        assert!(
            in_responsive > elsewhere,
            "followups did not concentrate: {in_responsive} vs {elsewhere}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = base_spec().generate(&ctx(), &mut rng());
        let b = base_spec().generate(&ctx(), &mut rng());
        assert_eq!(a, b);
    }

    #[test]
    fn horizon_cuts_sessions() {
        let mut context = ctx();
        context.end = SimTime::from_secs(500); // before the scheduled session
        let probes = base_spec().generate(&context, &mut rng());
        assert!(probes.is_empty());
    }
}
