//! The full scanner model: source addressing, scheduling, BGP reactivity
//! and probe emission.
//!
//! A [`ScannerSpec`] combines one choice per taxonomy axis and emits
//! [`Probe`]s — timestamped, fully specified packets. Scanners observe the
//! world only through [`ScanContext`]: the announced-prefix view (what a
//! real scanner learns from public BGP collectors), the hitlist, and
//! end-to-end responsiveness (what its own probes reveal). The emitted
//! probes are encoded to real IPv6 wire bytes before delivery.

use crate::address::AddressStrategy;
use crate::batch::{GenScratch, ProbeBatch};
use crate::netsel::NetworkStrategy;
use crate::temporal::TemporalModel;
use crate::tools::{ProbeKindTemplate, ToolProfile};
use sixscope_packet::{PacketBuilder, RunEncoder};
use sixscope_types::{Asn, Ipv6Prefix, SimDuration, SimTime, Xoshiro256pp};
use std::net::Ipv6Addr;

/// The world as a scanner sees it.
///
/// The view methods return borrowed slices: probe generation queries them
/// once per session, and the simulation backs them with pre-compiled
/// snapshots (epoch tries, publication-ordered hitlists) so the hot path
/// allocates nothing.
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

impl ProbeKind {
    /// Encodes a probe of this kind through a [`RunEncoder`], which caches
    /// the pseudo-header checksum prefix across probes sharing a source.
    /// `buf` is replaced with the wire bytes, identical to
    /// [`Probe::encode_into`].
    pub fn encode_run(
        &self,
        enc: &mut RunEncoder,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        payload: &[u8],
        buf: &mut Vec<u8>,
    ) {
        match *self {
            ProbeKind::Icmp { ident, seq } => {
                enc.icmpv6_echo_request_into(src, dst, ident, seq, payload, buf)
            }
            ProbeKind::Tcp {
                src_port,
                dst_port,
                seq,
            } => enc.tcp_syn_into(src, dst, src_port, dst_port, seq, payload, buf),
            ProbeKind::Udp { src_port, dst_port } => {
                enc.udp_into(src, dst, src_port, dst_port, payload, buf)
            }
        }
    }
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
    /// Encodes the probe into `buf`, clearing it first. The delivery loop
    /// reuses one scratch buffer per shard instead of allocating per probe.
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
    /// Probes are returned sorted by time. Determinism: the caller passes a
    /// per-scanner RNG stream (usually `master.split(&format!("scanner-{id}"))`).
    pub fn generate(&self, ctx: &dyn ScanContext, rng: &mut Xoshiro256pp) -> Vec<Probe> {
        let mut starts = self.temporal.session_starts(rng);
        if let Some(reactive) = &self.reactive {
            for (ts, _prefix) in ctx.announce_events() {
                if rng.bool(reactive.probability) {
                    starts.push(*ts + reactive.delay);
                }
            }
        }
        starts.retain(|t| *t < ctx.horizon());
        starts.sort_unstable();
        let mut probes = Vec::new();
        let mut probe_counter: u64 = 0;
        for (session_index, &start) in starts.iter().enumerate() {
            self.emit_session(
                ctx,
                rng,
                start,
                session_index as u64,
                &mut probe_counter,
                &mut probes,
            );
        }
        probes.sort_by_key(|p| p.ts);
        probes
    }

    /// Batched variant of [`ScannerSpec::generate`]: emits the same probe
    /// stream (same RNG draws, same values) into a columnar [`ProbeBatch`],
    /// reusing `scratch` buffers so a warmed-up shard allocates nothing.
    ///
    /// The batch is left in emission order; call [`ProbeBatch::sort_by_ts`]
    /// for the time order [`ScannerSpec::generate`] returns.
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
        for (session_index, &start) in starts.iter().enumerate() {
            self.emit_session_into(
                ctx,
                rng,
                start,
                session_index as u64,
                &mut probe_counter,
                scratch,
                out,
            );
        }
        scratch.starts = starts;
    }

    fn emit_session(
        &self,
        ctx: &dyn ScanContext,
        rng: &mut Xoshiro256pp,
        start: SimTime,
        session_index: u64,
        probe_counter: &mut u64,
        out: &mut Vec<Probe>,
    ) {
        // Resolve this session's targets.
        let mut targets: Vec<Ipv6Addr> = Vec::new();
        match &self.network {
            NetworkStrategy::FixedTargets(addrs) => {
                for _ in 0..self.packets_per_prefix.max(1) {
                    targets.extend_from_slice(addrs);
                }
            }
            strategy => {
                let announced = ctx.announced_at(start);
                let hitlist = ctx.hitlist(start);
                for prefix in strategy.select(announced, session_index, rng) {
                    targets.extend(self.address.generate(
                        prefix,
                        self.packets_per_prefix,
                        rng,
                        hitlist,
                    ));
                }
            }
        }
        if targets.is_empty() {
            return;
        }
        // Dynamic-TGA feedback: concentrate on the /48s of responders.
        if let Some(followups) = self.tga_followups {
            let mut regions: Vec<Ipv6Prefix> = targets
                .iter()
                .filter(|&&t| ctx.responds(t))
                .map(|&t| Ipv6Prefix::new(t, 48).expect("48 is valid"))
                .collect();
            regions.sort();
            regions.dedup();
            for region in regions.iter().take(8) {
                // Refinement probes use dense low-byte exploration of the
                // responsive region regardless of the seeding strategy.
                targets.extend(AddressStrategy::LowByte { max: followups }.generate(
                    *region,
                    followups,
                    rng,
                    &[],
                ));
            }
        }
        // Emit probes spaced at the scanner's rate. Gaps are capped well
        // below the 1 h session timeout so one emission stays one session.
        let mean_gap = (1.0 / self.pps.max(1e-6)).min(1800.0);
        let mut t = start;
        let session_src = self.current_src(rng, false);
        for dst in targets {
            let src = match &self.source {
                SourceModel::RotatingIid {
                    per_probe: true, ..
                } => self.current_src(rng, true),
                _ => session_src,
            };
            let n = *probe_counter;
            *probe_counter += 1;
            let payload = self.tool.payload.bytes(n, rng);
            let kind = self.make_kind(n, rng);
            out.push(Probe {
                ts: t,
                src,
                dst,
                kind,
                payload,
            });
            let gap = rng.exponential(1.0 / mean_gap.max(1e-9)).min(3000.0);
            t += SimDuration::secs(gap.max(0.0) as u64);
        }
    }

    /// Scratch-backed twin of [`ScannerSpec::emit_session`]: the same RNG
    /// draws in the same order, with every intermediate vector recycled and
    /// payload bytes written straight into the batch arena.
    #[allow(clippy::too_many_arguments)]
    fn emit_session_into(
        &self,
        ctx: &dyn ScanContext,
        rng: &mut Xoshiro256pp,
        start: SimTime,
        session_index: u64,
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
                strategy.select_into(announced, session_index, rng, weights, prefixes);
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
        let session_src = self.current_src(rng, false);
        for &dst in targets.iter() {
            let src = match &self.source {
                SourceModel::RotatingIid {
                    per_probe: true, ..
                } => self.current_src(rng, true),
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

    fn current_src(&self, rng: &mut Xoshiro256pp, _fresh: bool) -> Ipv6Addr {
        match &self.source {
            SourceModel::Fixed(addr) => *addr,
            SourceModel::RotatingIid { subnet, .. } => {
                Ipv6Addr::from(subnet.bits() | rng.next_u64() as u128)
            }
        }
    }

    fn make_kind(&self, n: u64, rng: &mut Xoshiro256pp) -> ProbeKind {
        let ephemeral = 32_768 + (rng.next_u32() % 28_000) as u16;
        let template = self.tool.mix.draw(rng);
        self.kind_from_template(n, ephemeral, template, rng)
    }

    /// [`ScannerSpec::make_kind`] with the protocol-mix weight column
    /// precomputed once per burst.
    fn make_kind_with(&self, n: u64, rng: &mut Xoshiro256pp, mix_weights: &[f64]) -> ProbeKind {
        let ephemeral = 32_768 + (rng.next_u32() % 28_000) as u16;
        let template = self.tool.mix.draw_with(mix_weights, rng);
        self.kind_from_template(n, ephemeral, template, rng)
    }

    fn kind_from_template(
        &self,
        n: u64,
        ephemeral: u16,
        template: ProbeKindTemplate,
        rng: &mut Xoshiro256pp,
    ) -> ProbeKind {
        match template {
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
    fn run_encoder_bytes_match_per_probe_encoding() {
        let mut spec = base_spec();
        // Mixed transports over rotating sources exercise the prefix cache.
        spec.source = SourceModel::RotatingIid {
            subnet: p("2001:db8:f00:1::/64"),
            per_probe: true,
        };
        spec.tool = ToolProfile::caida_ark();
        spec.packets_per_prefix = 30;
        let probes = spec.generate(&ctx(), &mut rng());
        let mut enc = sixscope_packet::RunEncoder::new();
        let mut run_buf = Vec::new();
        let mut ref_buf = Vec::new();
        for probe in &probes {
            probe
                .kind
                .encode_run(&mut enc, probe.src, probe.dst, &probe.payload, &mut run_buf);
            probe.encode_into(&mut ref_buf);
            assert_eq!(run_buf, ref_buf);
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
        let reference = spec.generate(&context, &mut rng());
        let mut batch = ProbeBatch::new();
        let mut scratch = GenScratch::new();
        spec.generate_into(&context, &mut rng(), &mut scratch, &mut batch);
        batch.sort_by_ts();
        assert_eq!(batch.len(), reference.len());
        for (pos, &row) in batch.sorted().iter().enumerate() {
            assert_eq!(batch.probe(row as usize), reference[pos], "row {pos}");
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
