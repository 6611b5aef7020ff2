//! Tool profiles: protocol mixes and payload formats (§5.4, Table 7).
//!
//! Each profile emits the payload bytes of its real-world counterpart —
//! the same signatures `sixscope-analysis::fingerprint` knows, exactly as
//! a real Yarrp binary emits the format its source code documents.

use sixscope_analysis::fingerprint::signatures;
use sixscope_types::{ports, Xoshiro256pp};

/// What probe payloads look like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// No payload (bare SYNs, minimal pings).
    Empty,
    /// A static tool signature followed by an incrementing counter (state
    /// encoding, like Yarrp's timestamp/TTL fields).
    SignatureCounter(&'static [u8]),
    /// High-entropy random bytes of a fixed length.
    Random {
        /// Payload length.
        len: usize,
    },
    /// A fixed literal.
    Fixed(&'static [u8]),
}

impl Payload {
    /// Materializes the payload for the `n`-th probe.
    pub fn bytes(&self, n: u64, rng: &mut Xoshiro256pp) -> Vec<u8> {
        let mut out = Vec::new();
        self.bytes_into(n, rng, &mut out);
        out
    }

    /// Appends the payload for the `n`-th probe to `out`. The batched
    /// generator writes straight into the probe arena; bytes and RNG draws
    /// are identical to [`Payload::bytes`].
    pub fn bytes_into(&self, n: u64, rng: &mut Xoshiro256pp, out: &mut Vec<u8>) {
        match self {
            Payload::Empty => {}
            Payload::SignatureCounter(sig) => {
                out.extend_from_slice(sig);
                // `-{n:010}` without the format machinery: a dash, then the
                // decimal digits zero-padded to at least ten places.
                let mut digits = [b'0'; 20];
                let mut i = digits.len();
                let mut v = n;
                loop {
                    i -= 1;
                    digits[i] = b'0' + (v % 10) as u8;
                    v /= 10;
                    if v == 0 {
                        break;
                    }
                }
                i = i.min(digits.len() - 10);
                out.push(b'-');
                out.extend_from_slice(&digits[i..]);
            }
            Payload::Random { len } => {
                for _ in 0..*len {
                    out.push(rng.next_u32() as u8);
                }
            }
            Payload::Fixed(bytes) => out.extend_from_slice(bytes),
        }
    }
}

/// One probe's transport choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKindTemplate {
    /// ICMPv6 echo request.
    Icmp,
    /// TCP SYN to one of the listed ports (cycled).
    TcpPorts(&'static [u16]),
    /// UDP to one of the listed ports (cycled).
    UdpPorts(&'static [u16]),
    /// UDP to the traceroute range (incrementing within it).
    UdpTraceroute,
}

/// Weighted protocol mix of a tool.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolMix {
    /// `(template, weight)` pairs.
    pub choices: Vec<(ProbeKindTemplate, f64)>,
}

impl ProtocolMix {
    /// Pure ICMPv6.
    pub fn icmp() -> Self {
        ProtocolMix {
            choices: vec![(ProbeKindTemplate::Icmp, 1.0)],
        }
    }

    /// Pure UDP traceroute.
    pub fn traceroute() -> Self {
        ProtocolMix {
            choices: vec![(ProbeKindTemplate::UdpTraceroute, 1.0)],
        }
    }

    /// TCP SYN scanning over the given ports.
    pub fn tcp(ports: &'static [u16]) -> Self {
        ProtocolMix {
            choices: vec![(ProbeKindTemplate::TcpPorts(ports), 1.0)],
        }
    }

    /// Draws a template for the `n`-th probe.
    pub fn draw(&self, rng: &mut Xoshiro256pp) -> ProbeKindTemplate {
        let mut weights = Vec::new();
        self.weights_into(&mut weights);
        self.draw_with(&weights, rng)
    }

    /// Fills `out` with the weight column, for reuse across a whole burst
    /// via [`ProtocolMix::draw_with`].
    pub fn weights_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.choices.iter().map(|(_, w)| *w));
    }

    /// Like [`ProtocolMix::draw`] with a precomputed weight column.
    pub fn draw_with(&self, weights: &[f64], rng: &mut Xoshiro256pp) -> ProbeKindTemplate {
        self.choices[rng.weighted_index(weights)].0
    }
}

/// A complete tool profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolProfile {
    /// Human-readable name (matches Table 7 where applicable).
    pub name: &'static str,
    /// Payload format.
    pub payload: Payload,
    /// Protocol mix.
    pub mix: ProtocolMix,
}

/// The common TCP scan ports, HTTP-weighted: port 80 appears in 87% of
/// TCP sessions vs. 29% for 443 (Table 4), so knocks favor HTTP 2:1.
pub const WEB_PORTS: [u16; 3] = [ports::HTTP, ports::HTTPS, ports::HTTP];
/// Per-service single-port lists so one prober sticks to one service.
pub const UDP_SERVICE_PORTS: [[u16; 1]; 4] =
    [[ports::DNS], [ports::SNMP], [ports::ISAKMP], [ports::NTP]];
/// A broad port list for wide vertical scans (72 ports ≥ 1k sessions in
/// the paper; scanners cycling this list reproduce the tail).
pub const BROAD_TCP_PORTS: [u16; 72] = [
    21, 22, 23, 25, 53, 80, 81, 88, 110, 111, 113, 119, 123, 135, 137, 139, 143, 161, 179, 389,
    427, 443, 444, 445, 465, 500, 512, 513, 514, 515, 548, 554, 587, 631, 636, 646, 873, 902, 990,
    993, 995, 1025, 1080, 1099, 1433, 1521, 1723, 1900, 2049, 2121, 2181, 2375, 3128, 3268, 3306,
    3389, 4443, 5060, 5432, 5555, 5900, 5985, 6379, 7001, 8000, 8080, 8443, 8888, 9090, 9200,
    11211, 27017,
];

impl ToolProfile {
    /// RIPE Atlas probe: ICMP/UDP traceroute toward `::1` targets.
    pub fn ripe_atlas() -> Self {
        ToolProfile {
            name: "RIPEAtlasProbe",
            payload: Payload::SignatureCounter(signatures::RIPE_ATLAS),
            mix: ProtocolMix {
                choices: vec![
                    (ProbeKindTemplate::Icmp, 0.85),
                    (ProbeKindTemplate::UdpTraceroute, 0.15),
                ],
            },
        }
    }

    /// Yarrp6: randomized high-speed topology probing.
    pub fn yarrp6() -> Self {
        ToolProfile {
            name: "Yarrp6",
            payload: Payload::SignatureCounter(signatures::YARRP6),
            mix: ProtocolMix::icmp(),
        }
    }

    /// Classic traceroute6.
    pub fn traceroute() -> Self {
        ToolProfile {
            name: "Traceroute",
            payload: Payload::Fixed(signatures::TRACEROUTE),
            mix: ProtocolMix::traceroute(),
        }
    }

    /// Htrace6.
    pub fn htrace6() -> Self {
        ToolProfile {
            name: "Htrace6",
            payload: Payload::SignatureCounter(signatures::HTRACE6),
            mix: ProtocolMix::icmp(),
        }
    }

    /// 6Seeks.
    pub fn six_seeks() -> Self {
        ToolProfile {
            name: "6Seeks",
            payload: Payload::SignatureCounter(signatures::SIX_SEEKS),
            mix: ProtocolMix::icmp(),
        }
    }

    /// 6Scan (regional-encoding scanner).
    pub fn six_scan() -> Self {
        ToolProfile {
            name: "6Scan",
            payload: Payload::SignatureCounter(signatures::SIX_SCAN),
            mix: ProtocolMix::icmp(),
        }
    }

    /// CAIDA Ark / scamper.
    pub fn caida_ark() -> Self {
        ToolProfile {
            name: "CAIDA Ark",
            payload: Payload::SignatureCounter(signatures::CAIDA_ARK),
            mix: ProtocolMix {
                choices: vec![
                    (ProbeKindTemplate::Icmp, 0.8),
                    (ProbeKindTemplate::UdpTraceroute, 0.2),
                ],
            },
        }
    }

    /// A bare TCP SYN scanner over the top web ports.
    pub fn web_syn() -> Self {
        ToolProfile {
            name: "web-syn",
            payload: Payload::Empty,
            mix: ProtocolMix::tcp(&WEB_PORTS),
        }
    }

    /// A broad vertical TCP scanner.
    pub fn broad_tcp() -> Self {
        ToolProfile {
            name: "broad-tcp",
            payload: Payload::Empty,
            mix: ProtocolMix::tcp(&BROAD_TCP_PORTS),
        }
    }

    /// An unknown tool with random-byte payloads (the unattributed
    /// clusters of §5.4).
    pub fn random_bytes() -> Self {
        ToolProfile {
            name: "random-bytes",
            payload: Payload::Random { len: 32 },
            mix: ProtocolMix::icmp(),
        }
    }

    /// A UDP service prober for one service (DNS, SNMP, ISAKMP or NTP) —
    /// the non-traceroute rows of Table 4's UDP side. `service` indexes
    /// [`UDP_SERVICE_PORTS`].
    pub fn udp_services(service: usize) -> Self {
        ToolProfile {
            name: "udp-services",
            payload: Payload::Random { len: 24 },
            mix: ProtocolMix {
                choices: vec![(
                    ProbeKindTemplate::UdpPorts(&UDP_SERVICE_PORTS[service % 4]),
                    1.0,
                )],
            },
        }
    }

    /// A DNS query blaster (the UDP heavy hitter: 85% of all UDP packets
    /// were DNS requests from a single scanner).
    pub fn dns_blaster() -> Self {
        ToolProfile {
            name: "dns-blaster",
            payload: Payload::SignatureCounter(b"\x12\x34\x01\x00dnsq"),
            mix: ProtocolMix {
                choices: vec![(ProbeKindTemplate::UdpPorts(&DNS_PORT), 1.0)],
            },
        }
    }
}

const DNS_PORT: [u16; 1] = [ports::DNS];

#[cfg(test)]
mod tests {
    use super::*;
    use sixscope_analysis::fingerprint::{identify, KnownTool, ToolMatch};

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(1)
    }

    #[test]
    fn tool_payloads_are_identified_by_the_analysis_side() {
        let cases = [
            (ToolProfile::ripe_atlas(), KnownTool::RipeAtlasProbe),
            (ToolProfile::yarrp6(), KnownTool::Yarrp6),
            (ToolProfile::traceroute(), KnownTool::Traceroute),
            (ToolProfile::htrace6(), KnownTool::Htrace6),
            (ToolProfile::six_seeks(), KnownTool::SixSeeks),
            (ToolProfile::six_scan(), KnownTool::SixScan),
            (ToolProfile::caida_ark(), KnownTool::CaidaArk),
        ];
        let mut r = rng();
        for (profile, expect) in cases {
            let payload = profile.payload.bytes(42, &mut r);
            assert_eq!(
                identify(&payload, None),
                ToolMatch::Tool(expect),
                "{} not identified",
                profile.name
            );
        }
    }

    #[test]
    fn random_payloads_classify_as_random_bytes() {
        let mut r = rng();
        let payload = ToolProfile::random_bytes().payload.bytes(0, &mut r);
        assert_eq!(identify(&payload, None), ToolMatch::RandomBytes);
    }

    #[test]
    fn empty_payloads_are_unidentified() {
        let mut r = rng();
        let payload = ToolProfile::web_syn().payload.bytes(0, &mut r);
        assert!(payload.is_empty());
        assert_eq!(identify(&payload, None), ToolMatch::Unidentified);
    }

    #[test]
    fn signature_counter_varies_but_keeps_prefix() {
        let mut r = rng();
        let p = Payload::SignatureCounter(signatures::YARRP6);
        let a = p.bytes(1, &mut r);
        let b = p.bytes(2, &mut r);
        assert_ne!(a, b);
        assert!(a.starts_with(signatures::YARRP6));
        assert!(b.starts_with(signatures::YARRP6));
    }

    #[test]
    fn signature_counter_encoding_matches_format_at_all_widths() {
        let mut r = rng();
        let p = Payload::SignatureCounter(signatures::YARRP6);
        for n in [
            0u64,
            1,
            9,
            1_234_567_890,
            9_999_999_999,
            10_000_000_000,
            u64::MAX,
        ] {
            let mut expect = signatures::YARRP6.to_vec();
            expect.extend_from_slice(format!("-{n:010}").as_bytes());
            assert_eq!(p.bytes(n, &mut r), expect, "n = {n}");
        }
    }

    #[test]
    fn protocol_mix_draw_respects_weights() {
        let mix = ProtocolMix {
            choices: vec![
                (ProbeKindTemplate::Icmp, 0.9),
                (ProbeKindTemplate::UdpTraceroute, 0.1),
            ],
        };
        let mut r = rng();
        let icmp = (0..1000)
            .filter(|_| matches!(mix.draw(&mut r), ProbeKindTemplate::Icmp))
            .count();
        assert!(icmp > 850 && icmp < 950, "icmp draws: {icmp}");
    }

    #[test]
    fn broad_port_list_has_72_unique_ports() {
        let mut sorted = BROAD_TCP_PORTS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 72);
    }
}
