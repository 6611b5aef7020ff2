//! The calibrated scanner population.
//!
//! [`PopulationSpec::build`] generates the ecosystem whose *measured*
//! behavior reproduces the paper's marginal distributions: class counts are
//! the paper's numbers times a configurable [`PopulationSpec::scale`].
//! The classes and their calibration targets:
//!
//! | class | paper anchor |
//! |---|---|
//! | RIPE Atlas probes | 55% of T1 sources, one-off, `::1` targets (Tab. 7) |
//! | Alpha Strike Labs | 36% of single-prefix scanners, hosting (§7.1) |
//! | misc one-off | remainder of the 69.7% one-off share (Tab. 6) |
//! | size-independent | 1035 sources / 31% of sessions (Tab. 6) |
//! | inconsistent | 64 sources / 48% of sessions, short periods (Tab. 6) |
//! | size-dependent | 24 sources (Tab. 6) |
//! | BGP live monitors | 18 sources reacting < 30 min (§7.2) |
//! | heavy hitters | 10 sources / 73% of packets / 0.04% of sessions (§4.2) |
//! | DNS-attracted | 50% of T2 scanners target only the exposed name (§6) |
//! | /64 rotators | T2's 3× /128-vs-/64 source ratio (§6) |
//! | web knockers | TCP in 92.8% of sessions, port 80 in 87% (Tab. 2/4) |
//! | covering-grid scanners | T3's handful of structured probes (Tab. 5) |
//! | reactive hunters | T4's 253 sources, 97% ICMPv6 (Tab. 5) |

use crate::address::AddressStrategy;
use crate::netsel::NetworkStrategy;
use crate::scanner::{Reactivity, ScannerSpec, SourceModel};
use crate::temporal::TemporalModel;
use crate::tools::ToolProfile;
use sixscope_telescope::{ScheduleAction, ScheduleActionKind, SplitSchedule};
use sixscope_types::{
    AsInfo, Asn, CountryCode, Ipv6Prefix, NetworkType, SimDuration, SimTime, Xoshiro256pp,
};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

/// Where the telescopes live — the address-plan of the experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentLayout {
    /// T1's covering /32 (BGP-controlled).
    pub t1: Ipv6Prefix,
    /// T2's stable /48.
    pub t2: Ipv6Prefix,
    /// T3's silent /48 (inside `covering`).
    pub t3: Ipv6Prefix,
    /// T4's reactive /48 (inside `covering`).
    pub t4: Ipv6Prefix,
    /// The /29 covering T3 and T4.
    pub covering: Ipv6Prefix,
    /// T2's DNS-exposed address.
    pub t2_dns_exposed: Ipv6Addr,
    /// Experiment start.
    pub start: SimTime,
    /// Experiment end (11 months = 44 weeks by default).
    pub end: SimTime,
}

impl ExperimentLayout {
    /// The default address plan in documentation space: T1 in
    /// `2001:db8::/32`; T2, the covering /29 and T3/T4 in `3fff::/20`.
    pub fn default_plan() -> Self {
        let t2: Ipv6Prefix = "3fff:800::/48".parse().unwrap();
        let t2_cfg_exposed = t2
            .subnets(56)
            .nth(1)
            .expect("second /56")
            .low_byte_address();
        ExperimentLayout {
            t1: "2001:db8::/32".parse().unwrap(),
            t2,
            t3: "3fff:3::/48".parse().unwrap(),
            t4: "3fff:4::/48".parse().unwrap(),
            covering: "3fff::/29".parse().unwrap(),
            t2_dns_exposed: t2_cfg_exposed,
            start: SimTime::EPOCH,
            end: SimTime::EPOCH + SimDuration::weeks(44),
        }
    }
}

/// Scanner-population configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSpec {
    /// Master seed; every scanner derives its own stream.
    pub seed: u64,
    /// Scale relative to the paper's population (1.0 = full study size,
    /// ~36k sources / ~51M packets).
    pub scale: f64,
}

impl PopulationSpec {
    /// A tiny population for tests.
    pub fn tiny(seed: u64) -> Self {
        PopulationSpec { seed, scale: 0.004 }
    }
}

/// The generated world population.
#[derive(Debug, Clone)]
pub struct Population {
    /// All scanner specifications.
    pub scanners: Vec<ScannerSpec>,
    /// AS metadata for every ASN used by a scanner.
    pub ases: Vec<AsInfo>,
    /// Reverse-DNS entries for sources that have them.
    pub rdns: BTreeMap<Ipv6Addr, String>,
}

impl Population {
    /// Metadata lookup by ASN.
    pub fn as_info(&self, asn: Asn) -> Option<&AsInfo> {
        self.ases.iter().find(|a| a.asn == asn)
    }

    /// Number of scanners in the population.
    pub fn len(&self) -> usize {
        self.scanners.len()
    }

    /// True when no scanners were generated.
    pub fn is_empty(&self) -> bool {
        self.scanners.is_empty()
    }
}

/// Scales a paper-scale count, keeping small classes alive.
fn scaled(paper_count: u64, scale: f64) -> u64 {
    ((paper_count as f64 * scale).round() as u64).max(1)
}

/// Country pool: the paper observes sources from 127 countries; the pool
/// below covers the long tail proportionally at reduced scales.
const COUNTRIES: [&str; 64] = [
    "US", "DE", "CN", "NL", "GB", "FR", "RU", "JP", "BR", "IN", "CA", "AU", "SE", "CH", "PL", "IT",
    "ES", "KR", "SG", "HK", "ZA", "MX", "AR", "TR", "UA", "RO", "CZ", "AT", "BE", "DK", "FI", "NO",
    "PT", "GR", "HU", "BG", "HR", "SI", "SK", "LT", "LV", "EE", "IE", "IS", "LU", "MT", "CY", "IL",
    "SA", "AE", "EG", "NG", "KE", "TH", "VN", "ID", "MY", "PH", "TW", "NZ", "CL", "CO", "PE", "VE",
];

/// Deterministic /64 source subnet for scanner `i` of AS index `a`.
fn scanner_subnet(as_index: u32, scanner_index: u32) -> Ipv6Prefix {
    // Synthetic global unicast space for scanner homes: 2a0a::/16.
    let bits: u128 =
        (0x2a0a_u128 << 112) | ((as_index as u128) << 80) | ((scanner_index as u128) << 64);
    Ipv6Prefix::from_bits(bits, 64).expect("valid /64")
}

/// Fixed /128 inside a scanner's /64.
fn scanner_addr(subnet: Ipv6Prefix, iid: u64) -> Ipv6Addr {
    Ipv6Addr::from(subnet.bits() | iid as u128)
}

struct Builder<'a> {
    layout: &'a ExperimentLayout,
    rng: Xoshiro256pp,
    scanners: Vec<ScannerSpec>,
    ases: Vec<AsInfo>,
    rdns: BTreeMap<Ipv6Addr, String>,
    next_id: u32,
    /// Every announcement action of the experiment (time, prefix): the
    /// signals announcement-reactive one-off scanners key on. The later
    /// cycles announce more prefixes, so a draw over actions naturally
    /// yields the paper's growing per-cycle attraction.
    announce_actions: Vec<(SimTime, Ipv6Prefix)>,
    /// Draw weight per action: first-ever announcements of a prefix attract
    /// far more attention than bi-weekly re-announcements (Fig. 3's decline
    /// after a fresh announcement).
    action_weights: Vec<f64>,
}

impl<'a> Builder<'a> {
    fn new(layout: &'a ExperimentLayout, seed: u64) -> Self {
        let schedule = SplitSchedule::paper(layout.t1, layout.start);
        let mut announce_actions: Vec<(SimTime, Ipv6Prefix)> = schedule
            .actions()
            .into_iter()
            .filter(|a: &ScheduleAction| a.kind == ScheduleActionKind::Announce)
            .map(|a| (a.at, a.prefix))
            .collect();
        // The stable announcements also attract their initial wave.
        announce_actions.push((layout.start, layout.t2));
        announce_actions.push((layout.start, layout.covering));
        announce_actions.sort();
        let mut seen: Vec<Ipv6Prefix> = Vec::new();
        let action_weights: Vec<f64> = announce_actions
            .iter()
            .map(|(_, prefix)| {
                if seen.contains(prefix) {
                    1.0
                } else {
                    seen.push(*prefix);
                    8.0
                }
            })
            .collect();
        Builder {
            layout,
            rng: Xoshiro256pp::seed_from_u64(seed),
            scanners: Vec::new(),
            ases: Vec::new(),
            rdns: BTreeMap::new(),
            next_id: 0,
            announce_actions,
            action_weights,
        }
    }

    /// Picks an announce action (novelty-weighted) and a reaction time
    /// shortly after it.
    fn random_announce_reaction(&mut self, mean_delay: SimDuration) -> (SimTime, Ipv6Prefix) {
        let idx = self.rng.weighted_index(&self.action_weights);
        let (at, prefix) = self.announce_actions[idx];
        let delay = self.rng.exponential(1.0 / mean_delay.as_secs() as f64) as u64;
        let latest = SimTime::from_secs(self.layout.end.as_secs().saturating_sub(3600));
        let t = (at + SimDuration::mins(30) + SimDuration::secs(delay)).min(latest);
        (t, prefix)
    }

    fn add_as(&mut self, network_type: NetworkType, name: &str) -> Asn {
        let asn = Asn(64_512 + self.ases.len() as u32);
        let country = CountryCode::new(COUNTRIES[(self.ases.len()) % COUNTRIES.len()]);
        self.ases.push(AsInfo {
            asn,
            network_type,
            country,
            name: name.to_string(),
        });
        asn
    }

    /// A pool of ASes of one type, for spreading a scanner class.
    fn as_pool(&mut self, network_type: NetworkType, label: &str, n: usize) -> Vec<Asn> {
        (0..n)
            .map(|i| self.add_as(network_type, &format!("{label}-{i}")))
            .collect()
    }

    fn push(&mut self, spec: ScannerSpec) {
        self.scanners.push(spec);
    }

    fn new_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Uniform random session time inside the experiment.
    fn random_time(&mut self) -> SimTime {
        let span = self.layout.end.as_secs() - self.layout.start.as_secs();
        self.layout.start + SimDuration::secs(self.rng.below(span))
    }
}

impl PopulationSpec {
    /// Builds the full population for an experiment layout.
    pub fn build(&self, layout: &ExperimentLayout) -> Population {
        let mut b = Builder::new(layout, self.seed);
        let s = self.scale;

        self.build_atlas(&mut b, s);
        self.build_alpha_strike(&mut b, s);
        self.build_one_off_misc(&mut b, s);
        self.build_size_independent(&mut b, s);
        self.build_revisitors(&mut b, s);
        self.build_inconsistent(&mut b, s);
        self.build_size_dependent(&mut b, s);
        self.build_heavy_hitters(&mut b, s);
        self.build_t2_classes(&mut b, s);
        self.build_covering_and_t4(&mut b, s);

        Population {
            scanners: b.scanners,
            ases: b.ases,
            rdns: b.rdns,
        }
    }

    /// RIPE Atlas probes: one-off traceroutes to `::1` of a freshly
    /// announced prefix, from many ISP ASes, with identifying rDNS. Each
    /// probe source appears once; collectively the platform reacts to every
    /// announcement, so cycles with more prefixes attract more probes —
    /// the +275%-sources mechanism of §7.1.
    fn build_atlas(&self, b: &mut Builder, s: f64) {
        let count = scaled(6483, s);
        let pool = b.as_pool(
            NetworkType::Isp,
            "isp-atlas",
            ((count / 12).max(4)) as usize,
        );
        let hosting_pool = b.as_pool(NetworkType::Hosting, "hosting-atlas", 3);
        for i in 0..count {
            // 22% of Atlas probes live in hosting networks (§7.2).
            let asn = if i % 9 < 2 {
                hosting_pool[(i % hosting_pool.len() as u64) as usize]
            } else {
                pool[(i % pool.len() as u64) as usize]
            };
            let as_index = asn.get() - 64_512;
            let subnet = scanner_subnet(as_index, 10_000 + i as u32);
            let addr = scanner_addr(subnet, 0x10 + i);
            b.rdns.insert(addr, format!("p{i}.probes.atlas.ripe.net"));
            let (at, prefix) = b.random_announce_reaction(SimDuration::days(3));
            let id = b.new_id();
            b.push(ScannerSpec {
                id,
                source: SourceModel::Fixed(addr),
                asn,
                temporal: TemporalModel::OneOff { at },
                network: NetworkStrategy::FixedTargets(vec![prefix.low_byte_address()]),
                address: AddressStrategy::LowByteOne,
                tool: ToolProfile::ripe_atlas(),
                packets_per_prefix: 3, // a short traceroute burst
                pps: 0.5,
                reactive: None,
                tga_followups: None,
            });
        }
    }

    /// Alpha Strike Labs: a single hosting company, many sources, one-off
    /// or lightly recurring single-prefix low-byte scans.
    fn build_alpha_strike(&self, b: &mut Builder, s: f64) {
        let count = scaled(2200, s);
        let asn = b.add_as(NetworkType::Hosting, "alpha-strike-labs");
        for i in 0..count {
            let subnet = scanner_subnet(asn.get() - 64_512, 20_000 + i as u32);
            let addr = scanner_addr(subnet, 0x100 + i);
            // ASL sources scan the low-bytes of one freshly announced
            // prefix shortly after its announcement.
            let (at, prefix) = b.random_announce_reaction(SimDuration::days(2));
            let targets: Vec<Ipv6Addr> = (1..=6u128).map(|n| prefix.nth_address(n)).collect();
            let recurring = b.rng.bool(0.3);
            let until = b.layout.end;
            let id = b.new_id();
            b.push(ScannerSpec {
                id,
                source: SourceModel::Fixed(addr),
                asn,
                temporal: if recurring {
                    TemporalModel::Intermittent {
                        start: at,
                        until,
                        mean_gap: SimDuration::weeks(5),
                        max_sessions: 4,
                    }
                } else {
                    TemporalModel::OneOff { at }
                },
                network: NetworkStrategy::FixedTargets(targets),
                address: AddressStrategy::LowByte { max: 8 },
                tool: ToolProfile::web_syn(),
                packets_per_prefix: 1,
                pps: 1.0,
                reactive: None,
                tga_followups: None,
            });
        }
    }

    /// Miscellaneous one-off scanners with varied structured strategies.
    fn build_one_off_misc(&self, b: &mut Builder, s: f64) {
        let count = scaled(1700, s);
        let hosting = b.as_pool(
            NetworkType::Hosting,
            "hosting-misc",
            ((count / 20).max(3)) as usize,
        );
        let business = b.as_pool(NetworkType::Business, "business-misc", 3);
        let strategies = [
            AddressStrategy::LowByte { max: 16 },
            AddressStrategy::ServicePorts,
            AddressStrategy::EmbeddedIpv4 { base: 0xc0a8_0001 },
            AddressStrategy::SubnetAnycast,
            AddressStrategy::PatternWords,
            AddressStrategy::Eui64 {
                oui: [0x00, 0x50, 0x56],
            },
        ];
        for i in 0..count {
            let asn = if b.rng.bool(0.85) {
                hosting[(i % hosting.len() as u64) as usize]
            } else {
                business[(i % business.len() as u64) as usize]
            };
            let subnet = scanner_subnet(asn.get() - 64_512, 30_000 + i as u32);
            let addr = scanner_addr(subnet, 1 + i);
            let at = b.random_time();
            let strategy = strategies[(i % strategies.len() as u64) as usize].clone();
            let tool = if b.rng.bool(0.5) {
                ToolProfile::random_bytes()
            } else {
                ToolProfile::web_syn()
            };
            let id = b.new_id();
            b.push(ScannerSpec {
                id,
                source: SourceModel::Fixed(addr),
                asn,
                temporal: TemporalModel::OneOff { at },
                network: NetworkStrategy::SinglePrefix,
                address: strategy,
                tool,
                packets_per_prefix: 24,
                pps: 0.5,
                reactive: None,
                tga_followups: None,
            });
        }
    }

    /// Size-independent recurrent scanners, including the identified public
    /// tools of Table 7 and the 18 BGP live monitors.
    fn build_size_independent(&self, b: &mut Builder, s: f64) {
        let total = scaled(1035, s);
        // Public-tool sub-counts at paper scale (Table 7).
        let yarrp = scaled(22, s);
        let traceroute = scaled(19, s);
        let htrace = scaled(9, s);
        let seeks = scaled(5, s);
        let sixscan = scaled(3, s);
        let ark = scaled(2, s);
        let monitors = scaled(18, s);
        let pool = b.as_pool(NetworkType::Hosting, "hosting-si", 8);
        let edu = b.as_pool(NetworkType::Education, "edu-si", 4);
        let mut built = 0u64;
        let make = |b: &mut Builder,
                    built: &mut u64,
                    tool: ToolProfile,
                    periodic: bool,
                    sessions_hint: u32,
                    packets_per_prefix: u64,
                    reactive: bool,
                    rdns: Option<String>| {
            let idx = *built;
            *built += 1;
            let research = matches!(
                tool.name,
                "Yarrp6" | "Traceroute" | "Htrace6" | "6Seeks" | "6Scan" | "CAIDA Ark"
            );
            let research_home = research && b.rng.bool(0.7);
            let unnamed_edu = !research && b.rng.bool(0.4);
            let asn = if research_home || unnamed_edu {
                edu[(idx % edu.len() as u64) as usize]
            } else {
                pool[(idx % pool.len() as u64) as usize]
            };
            let subnet = scanner_subnet(asn.get() - 64_512, 40_000 + idx as u32);
            let addr = scanner_addr(subnet, 0xa000 + idx);
            if let Some(name) = rdns {
                b.rdns.insert(addr, name);
            }
            // Recurrent scanners appear throughout the experiment — new
            // announcements keep attracting new recurring visitors, which
            // is what makes weekly sources/sessions grow during the split
            // period (§7.1).
            let start = b.random_time();
            let temporal = if periodic {
                let period = SimDuration::hours(*b.rng.choose(&[24u64, 48, 72, 168]));
                TemporalModel::Periodic {
                    start,
                    period,
                    jitter: SimDuration::mins(30),
                    until: b.layout.end,
                }
            } else {
                TemporalModel::Intermittent {
                    start,
                    until: b.layout.end,
                    mean_gap: SimDuration::days(10),
                    max_sessions: sessions_hint,
                }
            };
            let address = match idx % 4 {
                0 => AddressStrategy::RandomIid,
                1 => AddressStrategy::LowByte { max: 6 },
                2 => AddressStrategy::SortedTraversal { stride_bits: 12 },
                _ => AddressStrategy::RandomIid,
            };
            let reactivity = if reactive {
                Some(Reactivity {
                    delay: SimDuration::mins(5 + b.rng.below(25)),
                    probability: 0.9,
                })
            } else {
                None
            };
            let id = b.new_id();
            b.push(ScannerSpec {
                id,
                source: SourceModel::Fixed(addr),
                asn,
                temporal,
                network: NetworkStrategy::AllAnnounced,
                address,
                tool,
                packets_per_prefix,
                pps: 2.0,
                reactive: reactivity,
                tga_followups: None,
            });
        };
        for i in 0..yarrp {
            make(
                b,
                &mut built,
                ToolProfile::yarrp6(),
                true,
                20,
                6,
                false,
                Some(format!("yarrp-{i}.example.net")),
            );
        }
        for _ in 0..traceroute {
            make(
                b,
                &mut built,
                ToolProfile::traceroute(),
                false,
                10,
                6,
                false,
                None,
            );
        }
        for _ in 0..htrace {
            make(
                b,
                &mut built,
                ToolProfile::htrace6(),
                false,
                3,
                6,
                false,
                None,
            );
        }
        for _ in 0..seeks {
            make(
                b,
                &mut built,
                ToolProfile::six_seeks(),
                false,
                4,
                6,
                false,
                None,
            );
        }
        for _ in 0..sixscan {
            make(
                b,
                &mut built,
                ToolProfile::six_scan(),
                false,
                6,
                6,
                false,
                None,
            );
        }
        for i in 0..ark {
            // Ark nodes probe with high frequency (2019 sessions from 2
            // sources in the paper).
            make(
                b,
                &mut built,
                ToolProfile::caida_ark(),
                true,
                1000,
                // Single-traceroute probes per prefix: Ark is session-heavy
                // but packet-light (2019 sessions, tiny packet share).
                2,
                false,
                Some(format!("node{i}.ark.caida.org")),
            );
        }
        for _ in 0..monitors {
            make(
                b,
                &mut built,
                ToolProfile::random_bytes(),
                false,
                8,
                6,
                true,
                None,
            );
        }
        while built < total {
            let periodic = b.rng.bool(0.45);
            make(
                b,
                &mut built,
                ToolProfile::random_bytes(),
                periodic,
                25,
                6,
                false,
                None,
            );
        }
    }

    /// Returning single-prefix scanners: the bulk of the paper's periodic
    /// (1750) and intermittent (1832) source counts — light sessions on one
    /// announced prefix at a time, appearing throughout the experiment.
    fn build_revisitors(&self, b: &mut Builder, s: f64) {
        let count = scaled(2300, s);
        let hosting = b.as_pool(NetworkType::Hosting, "hosting-rev", 8);
        let isp = b.as_pool(NetworkType::Isp, "isp-rev", 4);
        for i in 0..count {
            let asn = if b.rng.bool(0.5) {
                hosting[(i % hosting.len() as u64) as usize]
            } else {
                isp[(i % isp.len() as u64) as usize]
            };
            let subnet = scanner_subnet(asn.get() - 64_512, 55_000 + i as u32);
            let addr = scanner_addr(subnet, 0x7000 + i);
            let start = b.random_time();
            let periodic = b.rng.bool(0.55);
            let temporal = if periodic {
                TemporalModel::Periodic {
                    start,
                    period: SimDuration::hours(*b.rng.choose(&[48u64, 96, 168, 336])),
                    jitter: SimDuration::hours(1),
                    until: b.layout.end,
                }
            } else {
                TemporalModel::Intermittent {
                    start,
                    until: b.layout.end,
                    mean_gap: SimDuration::days(10),
                    max_sessions: 15,
                }
            };
            let tool = if b.rng.bool(0.5) {
                ToolProfile::web_syn()
            } else {
                ToolProfile::random_bytes()
            };
            let id = b.new_id();
            b.push(ScannerSpec {
                id,
                source: SourceModel::Fixed(addr),
                asn,
                temporal,
                network: NetworkStrategy::PinnedPrefix { salt: 0x7000 + i },
                address: AddressStrategy::LowByte { max: 4 },
                tool,
                packets_per_prefix: 4,
                pps: 1.0,
                reactive: None,
                tga_followups: None,
            });
        }
    }

    /// The 64 inconsistent scanners: short-period heavyweights that produce
    /// almost half of all T1 sessions.
    fn build_inconsistent(&self, b: &mut Builder, s: f64) {
        let count = scaled(64, s);
        let pool = b.as_pool(NetworkType::Isp, "isp-inc", 4);
        for i in 0..count {
            let asn = pool[(i % pool.len() as u64) as usize];
            let subnet = scanner_subnet(asn.get() - 64_512, 50_000 + i as u32);
            let addr = scanner_addr(subnet, 0xb000 + i);
            let start = b.random_time();
            let period = SimDuration::hours(*b.rng.choose(&[6u64, 8, 12]));
            let id = b.new_id();
            b.push(ScannerSpec {
                id,
                source: SourceModel::Fixed(addr),
                asn,
                temporal: TemporalModel::Periodic {
                    start,
                    period,
                    jitter: SimDuration::mins(20),
                    until: b.layout.end,
                },
                network: NetworkStrategy::Alternating,
                address: AddressStrategy::RandomIid,
                // Mixed ICMP + TCP probing: their session mass is what puts
                // TCP into 92.8% of all sessions (Table 2).
                tool: ToolProfile {
                    name: "inconsistent-mix",
                    payload: crate::tools::Payload::Random { len: 24 },
                    mix: crate::tools::ProtocolMix {
                        choices: vec![
                            (crate::tools::ProbeKindTemplate::Icmp, 0.3),
                            (
                                crate::tools::ProbeKindTemplate::TcpPorts(&crate::tools::WEB_PORTS),
                                0.7,
                            ),
                        ],
                    },
                },
                // Session-heavy, packet-light: these 64 sources carry ~48%
                // of sessions but a modest packet share.
                packets_per_prefix: 2,
                pps: 2.0,
                reactive: None,
                tga_followups: None,
            });
        }
    }

    /// The 24 size-dependent scanners: coarse sweeps preferring large
    /// prefixes.
    fn build_size_dependent(&self, b: &mut Builder, s: f64) {
        let count = scaled(24, s);
        let pool = b.as_pool(NetworkType::Hosting, "hosting-sd", 2);
        for i in 0..count {
            let asn = pool[(i % pool.len() as u64) as usize];
            let subnet = scanner_subnet(asn.get() - 64_512, 60_000 + i as u32);
            let addr = scanner_addr(subnet, 0xc000 + i);
            let start = b.layout.start + SimDuration::days(b.rng.below(20));
            let id = b.new_id();
            b.push(ScannerSpec {
                id,
                source: SourceModel::Fixed(addr),
                asn,
                temporal: TemporalModel::Intermittent {
                    start,
                    until: b.layout.end,
                    mean_gap: SimDuration::days(4),
                    max_sessions: 60,
                },
                network: NetworkStrategy::SizeProportional { draws: 4 },
                address: AddressStrategy::LowByte { max: 6 },
                tool: ToolProfile::random_bytes(),
                packets_per_prefix: 6,
                pps: 1.0,
                reactive: None,
                tga_followups: None,
            });
        }
    }

    /// The ten heavy hitters (73% of packets, 0.04% of sessions).
    fn build_heavy_hitters(&self, b: &mut Builder, s: f64) {
        // Per-source packet budgets at paper scale, scaled linearly.
        let budget = |paper: u64| scaled(paper, s);
        let edu = b.add_as(NetworkType::Education, "research-university");
        let hosting1 = b.add_as(NetworkType::Hosting, "bulk-host-1");
        let hosting2 = b.add_as(NetworkType::Hosting, "bulletproof-host");
        let hosting3 = b.add_as(NetworkType::Hosting, "bulk-host-2");

        // HH1: 6Sense research campaign — T2, periodic over the whole
        // period, ICMPv6 toward random IIDs in T2.
        let subnet = scanner_subnet(edu.get() - 64_512, 1);
        let addr = scanner_addr(subnet, 0x6);
        b.rdns
            .insert(addr, "scan.6sense.example-research.edu".into());
        let id = b.new_id();
        let t2 = b.layout.t2;
        b.push(ScannerSpec {
            id,
            source: SourceModel::Fixed(addr),
            asn: edu,
            temporal: TemporalModel::Periodic {
                start: b.layout.start + SimDuration::days(2),
                period: SimDuration::days(3),
                jitter: SimDuration::hours(1),
                until: b.layout.end,
            },
            network: NetworkStrategy::CoveringRandom(t2),
            // Random subnet + random IID: stays clear of the (excluded)
            // productive /56 for 255 of 256 targets.
            address: AddressStrategy::RandomFull,
            tool: ToolProfile::yarrp6(),
            packets_per_prefix: budget(5_000_000) / 103, // spread over ~103 sessions
            pps: 200.0,
            reactive: None,
            tga_followups: None,
        });

        // HH2: the DNS blaster — 85% of all UDP packets, single scanner,
        // few very large sessions at T2.
        let subnet = scanner_subnet(edu.get() - 64_512, 2);
        let addr = scanner_addr(subnet, 0x53);
        let id = b.new_id();
        b.push(ScannerSpec {
            id,
            source: SourceModel::Fixed(addr),
            asn: edu,
            temporal: TemporalModel::Intermittent {
                start: b.layout.start + SimDuration::weeks(14),
                until: b.layout.end,
                mean_gap: SimDuration::weeks(8),
                max_sessions: 4,
            },
            network: NetworkStrategy::CoveringRandom(t2),
            address: AddressStrategy::RandomFull,
            tool: ToolProfile::dns_blaster(),
            packets_per_prefix: budget(10_000_000) / 4,
            pps: 400.0,
            reactive: None,
            tga_followups: None,
        });

        // HH3: shared T2+T4 hitter (hosting): alternating burst scans.
        let subnet = scanner_subnet(hosting1.get() - 64_512, 3);
        let addr = scanner_addr(subnet, 0x24);
        let id = b.new_id();
        let t4 = b.layout.t4;
        b.push(ScannerSpec {
            id,
            source: SourceModel::Fixed(addr),
            asn: hosting1,
            temporal: TemporalModel::Intermittent {
                start: b.layout.start + SimDuration::weeks(20),
                until: b.layout.end,
                mean_gap: SimDuration::weeks(6),
                max_sessions: 3,
            },
            network: NetworkStrategy::FixedTargets(
                // Bursts aimed at random T2 addresses plus T4 low-bytes.
                {
                    let mut rng = Xoshiro256pp::seed_from_u64(self.seed ^ 0x55);
                    let mut v: Vec<Ipv6Addr> = AddressStrategy::RandomFull
                        .generate(t2, 97, &mut rng, &[])
                        .into_iter()
                        .collect();
                    v.extend(AddressStrategy::LowByte { max: 3 }.generate(t4, 3, &mut rng, &[]));
                    v
                },
            ),
            address: AddressStrategy::RandomIid,
            tool: ToolProfile::random_bytes(),
            packets_per_prefix: (budget(2_000_000) / 300).max(1),
            pps: 300.0,
            reactive: None,
            tga_followups: None,
        });

        // HH4–HH7: four T1 heavy hitters (three hosting + one
        // "bulletproof"). Three probe random IIDs *per announced prefix* —
        // BGP-aware bulk scanning that multiplies with each split (the
        // +286% mechanism); the fourth sprays the covering /32 uniformly.
        // One of the four T1 heavies sits in a research (education)
        // network — Table 8's education row is dominated by it.
        for (i, (asn, paper_budget)) in [
            (hosting1, 8_000_000u64),
            (edu, 6_000_000),
            (hosting3, 3_000_000),
            (hosting2, 2_000_000),
        ]
        .iter()
        .enumerate()
        {
            let subnet = scanner_subnet(asn.get() - 64_512, 10 + i as u32);
            let addr = scanner_addr(subnet, 0xff00 + i as u64);
            // Heavy hitters send "large amounts of packets in very few
            // sessions" (§4.2): a handful of bursts weeks apart, so they
            // classify intermittent, never one-off.
            let start = b.layout.start + SimDuration::weeks(2 + 8 * i as u64);
            // HH4/HH5 probe random IIDs per announced prefix (BGP-aware
            // bulk scans, randomized targets); HH6 sweeps low-bytes per
            // announced prefix; HH7 runs a dense /48 ::1 grid over the /32.
            // The low-byte pair supplies Table 3's low-byte packet mass.
            let (network, address, divisor) = match i {
                // HH4 starts during the baseline when only the /32 is
                // announced: a smaller divisor keeps its burst size
                // realistic there.
                0 => (
                    NetworkStrategy::AllAnnounced,
                    AddressStrategy::RandomIid,
                    10u64,
                ),
                1 => (
                    NetworkStrategy::AllAnnounced,
                    AddressStrategy::RandomIid,
                    30,
                ),
                2 => (
                    NetworkStrategy::AllAnnounced,
                    AddressStrategy::LowByte { max: 100_000 },
                    30,
                ),
                // HH7 grids the /48s *of each announced prefix* — a
                // BGP-aware structured sweep.
                _ => (
                    NetworkStrategy::AllAnnounced,
                    AddressStrategy::SequentialSubnets { sub_len: 48 },
                    30,
                ),
            };
            let id = b.new_id();
            b.push(ScannerSpec {
                id,
                source: SourceModel::Fixed(addr),
                asn: *asn,
                temporal: TemporalModel::Intermittent {
                    start,
                    until: b.layout.end,
                    mean_gap: SimDuration::weeks(3),
                    max_sessions: 3,
                },
                network,
                address,
                tool: ToolProfile::random_bytes(),
                packets_per_prefix: (budget(*paper_budget) / divisor).max(1),
                pps: 500.0,
                reactive: None,
                tga_followups: None,
            });
        }

        // HH8–HH9: T3 heavy hitters — tiny absolute volumes, but >10% of
        // the silent telescope's trickle. They sweep the covering /29 grid.
        let t3 = b.layout.t3;
        for i in 0..2u32 {
            let subnet = scanner_subnet(hosting2.get() - 64_512, 20 + i);
            let addr = scanner_addr(subnet, 0x3300 + i as u64);
            let start = b.layout.start + SimDuration::weeks(2 + 20 * i as u64);
            let id = b.new_id();
            b.push(ScannerSpec {
                id,
                source: SourceModel::Fixed(addr),
                asn: hosting2,
                temporal: TemporalModel::Intermittent {
                    start,
                    until: b.layout.end,
                    mean_gap: SimDuration::weeks(12),
                    max_sessions: 2,
                },
                network: NetworkStrategy::FixedTargets(vec![
                    t3.low_byte_address(),
                    t3.subnet_router_anycast(),
                ]),
                address: AddressStrategy::LowByteOne,
                tool: ToolProfile::random_bytes(),
                packets_per_prefix: 5,
                pps: 0.2,
                reactive: None,
                tga_followups: None,
            });
        }

        // HH10: T4 heavy hitter — one burst campaign against the reactive
        // /48 (the paper's single October peak).
        let subnet = scanner_subnet(hosting3.get() - 64_512, 30);
        let addr = scanner_addr(subnet, 0x4400);
        let id = b.new_id();
        b.push(ScannerSpec {
            id,
            source: SourceModel::Fixed(addr),
            asn: hosting3,
            temporal: TemporalModel::OneOff {
                at: b.layout.start + SimDuration::weeks(9),
            },
            network: NetworkStrategy::CoveringRandom(t4),
            address: AddressStrategy::LowByte { max: 2000 },
            tool: ToolProfile::web_syn(),
            packets_per_prefix: scaled(2000, s.max(0.02)),
            pps: 10.0,
            reactive: None,
            tga_followups: None,
        });
    }

    /// T2's special classes: DNS-attracted scanners, /64 rotators, and the
    /// web-knocker mass that drives TCP session shares.
    fn build_t2_classes(&self, b: &mut Builder, s: f64) {
        let dns_attracted = scaled(3300, s);
        let rotators = scaled(800, s);
        let knockers = scaled(6000, s);
        let isp = b.as_pool(NetworkType::Isp, "isp-dns", 20);
        let hosting = b.as_pool(NetworkType::Hosting, "hosting-t2", 12);
        let dns_target = b.layout.t2_dns_exposed;

        for i in 0..dns_attracted {
            let asn = isp[(i % isp.len() as u64) as usize];
            let subnet = scanner_subnet(asn.get() - 64_512, 70_000 + i as u32);
            let addr = scanner_addr(subnet, 0xd000 + i);
            // Recurring DNS visitors are stationary too; pure one-offs keep
            // arriving uniformly (fresh actors discovering the name).
            let recurring = b.rng.bool(0.35);
            let at = if recurring {
                let first = b.rng.exponential(1.0 / (86_400.0 * 14.0)) as u64;
                b.layout.start + SimDuration::secs(first)
            } else {
                b.random_time()
            };
            let id = b.new_id();
            b.push(ScannerSpec {
                id,
                source: SourceModel::Fixed(addr),
                asn,
                temporal: if recurring {
                    TemporalModel::Intermittent {
                        start: at,
                        until: b.layout.end,
                        mean_gap: SimDuration::weeks(4),
                        max_sessions: 5,
                    }
                } else {
                    TemporalModel::OneOff { at }
                },
                network: NetworkStrategy::FixedTargets(vec![dns_target]),
                address: AddressStrategy::LowByteOne,
                // T2 sources probe multiple protocols (Table 5b: TCP 80%,
                // ICMPv6 62%): ping the name, then knock on its web ports.
                tool: ToolProfile {
                    name: "dns-visitor",
                    payload: crate::tools::Payload::Empty,
                    mix: crate::tools::ProtocolMix {
                        choices: vec![
                            (crate::tools::ProbeKindTemplate::Icmp, 0.3),
                            (
                                crate::tools::ProbeKindTemplate::TcpPorts(&crate::tools::WEB_PORTS),
                                0.7,
                            ),
                        ],
                    },
                },
                packets_per_prefix: 4,
                pps: 0.5,
                reactive: None,
                tga_followups: None,
            });
        }

        // Rotators: per-probe IID rotation inside their /64, targeting the
        // DNS-exposed address's /56 neighborhood (active services draw
        // scanners to neighboring space, §8).
        let exposed56 = Ipv6Prefix::new(b.layout.t2_dns_exposed, 56).expect("/56 valid");
        for i in 0..rotators {
            let asn = hosting[(i % hosting.len() as u64) as usize];
            let subnet = scanner_subnet(asn.get() - 64_512, 80_000 + i as u32);
            let start = b.random_time();
            let id = b.new_id();
            b.push(ScannerSpec {
                id,
                source: SourceModel::RotatingIid {
                    subnet,
                    per_probe: true,
                },
                asn,
                temporal: TemporalModel::Intermittent {
                    start,
                    until: b.layout.end,
                    mean_gap: SimDuration::weeks(8),
                    max_sessions: 2,
                },
                network: NetworkStrategy::CoveringRandom(exposed56),
                address: AddressStrategy::LowByte { max: 12 },
                tool: ToolProfile::broad_tcp(),
                packets_per_prefix: 6,
                pps: 0.3,
                reactive: None,
                tga_followups: None,
            });
        }

        // Web knockers: the TCP-session mass (92.8% of sessions include
        // TCP; port 80 appears in 87% of them).
        for i in 0..knockers {
            let asn = hosting[(i % hosting.len() as u64) as usize];
            let subnet = scanner_subnet(asn.get() - 64_512, 90_000 + i as u32);
            let addr = scanner_addr(subnet, 0xe000 + i);
            // The knocker population was scanning T2 long before the
            // experiment: revisit rates are heterogeneous (1–30 day gaps)
            // and the first visit is a stationary-renewal draw, which
            // yields Fig. 3's declining new-source discovery curve.
            let gap_days = 1 + b.rng.below(30);
            let first = b.rng.exponential(1.0 / (gap_days as f64 * 86_400.0)) as u64;
            let start = b.layout.start + SimDuration::secs(first);
            let id = b.new_id();
            let broad = b.rng.bool(0.1);
            b.push(ScannerSpec {
                id,
                source: SourceModel::Fixed(addr),
                asn,
                temporal: TemporalModel::Intermittent {
                    start,
                    until: b.layout.end,
                    mean_gap: SimDuration::days(gap_days),
                    max_sessions: 60,
                },
                network: NetworkStrategy::CoveringRandom(exposed56),
                address: AddressStrategy::LowByte { max: 2 },
                // Most knockers ping first, then knock on web ports; a
                // tenth sweeps a broad port list (the 72-port tail).
                tool: if broad {
                    ToolProfile::broad_tcp()
                } else {
                    ToolProfile {
                        name: "ping-then-knock",
                        payload: crate::tools::Payload::Empty,
                        mix: crate::tools::ProtocolMix {
                            choices: vec![
                                // One ping every dozen knocks: the source
                                // counts as an ICMPv6 prober, but most of
                                // its sessions stay TCP-only (Table 2's
                                // 92.8% TCP vs 20.1% ICMPv6 sessions).
                                (crate::tools::ProbeKindTemplate::Icmp, 0.08),
                                (
                                    crate::tools::ProbeKindTemplate::TcpPorts(
                                        &crate::tools::WEB_PORTS,
                                    ),
                                    0.92,
                                ),
                            ],
                        },
                    }
                },
                packets_per_prefix: 6,
                pps: 0.5,
                reactive: None,
                tga_followups: None,
            });
        }

        // UDP service probers: DNS/SNMP/ISAKMP/NTP knocks against announced
        // prefixes (Table 4's non-traceroute UDP rows).
        let udp_probers = scaled(800, s);
        for i in 0..udp_probers {
            let asn = isp[(i % isp.len() as u64) as usize];
            let subnet = scanner_subnet(asn.get() - 64_512, 99_000 + i as u32);
            let addr = scanner_addr(subnet, 0xf000 + i);
            let start = b.random_time();
            let id = b.new_id();
            b.push(ScannerSpec {
                id,
                source: SourceModel::Fixed(addr),
                asn,
                temporal: TemporalModel::Intermittent {
                    start,
                    until: b.layout.end,
                    mean_gap: SimDuration::weeks(3),
                    max_sessions: 5,
                },
                network: NetworkStrategy::PinnedPrefix { salt: 0xf000 + i },
                address: AddressStrategy::LowByte { max: 4 },
                tool: ToolProfile::udp_services(i as usize),
                packets_per_prefix: 4,
                pps: 0.5,
                reactive: None,
                tga_followups: None,
            });
        }
    }

    /// Scanners of the covering /29: the structured grid sweeps that give
    /// T3 its trickle, and the reactive hunters that find T4.
    fn build_covering_and_t4(&self, b: &mut Builder, s: f64) {
        let grid = scaled(14, s.max(0.5)); // T3 saw 7 sources; keep the class alive
        let hunters = scaled(900, s);
        let pool = b.as_pool(NetworkType::Hosting, "hosting-cov", 4);
        let covering = b.layout.covering;
        for i in 0..grid {
            let asn = pool[(i % pool.len() as u64) as usize];
            let subnet = scanner_subnet(asn.get() - 64_512, 95_000 + i as u32);
            let addr = scanner_addr(subnet, 0x2900 + i);
            let start = b.random_time();
            let id = b.new_id();
            b.push(ScannerSpec {
                id,
                source: SourceModel::Fixed(addr),
                asn,
                temporal: TemporalModel::Intermittent {
                    start,
                    until: b.layout.end,
                    mean_gap: SimDuration::weeks(10),
                    max_sessions: 3,
                },
                network: NetworkStrategy::CoveringRandom(covering),
                // A dense sequential /48 sweep from the base of the /29:
                // hits every early /48's ::1 including T3's and T4's.
                address: AddressStrategy::SequentialSubnets { sub_len: 48 },
                tool: ToolProfile::random_bytes(),
                packets_per_prefix: 4096,
                pps: 20.0,
                reactive: None,
                tga_followups: None,
            });
        }
        // Reactive hunters: ICMP probing of hitlist/grid targets with
        // dynamic-TGA follow-ups — concentrating on the responsive T4.
        let t4 = b.layout.t4;
        for i in 0..hunters {
            let asn = pool[(i % pool.len() as u64) as usize];
            let subnet = scanner_subnet(asn.get() - 64_512, 97_000 + i as u32);
            let addr = scanner_addr(subnet, 0x4000 + i);
            let at = b.random_time();
            let id = b.new_id();
            b.push(ScannerSpec {
                id,
                source: SourceModel::Fixed(addr),
                asn,
                temporal: TemporalModel::OneOff { at },
                network: NetworkStrategy::FixedTargets(
                    AddressStrategy::LowByte { max: 4 }.generate(
                        t4,
                        4,
                        &mut Xoshiro256pp::seed_from_u64(self.seed ^ (0x44 + i)),
                        &[],
                    ),
                ),
                address: AddressStrategy::LowByte { max: 4 },
                tool: ToolProfile::random_bytes(),
                packets_per_prefix: 3,
                pps: 0.5,
                reactive: None,
                tga_followups: Some(6),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> ExperimentLayout {
        ExperimentLayout::default_plan()
    }

    #[test]
    fn default_plan_has_disjoint_telescopes_and_correct_covering() {
        let l = layout();
        assert!(!l.t1.overlaps(&l.t2));
        assert!(!l.t1.overlaps(&l.covering));
        assert!(!l.t2.overlaps(&l.covering), "T2 must be outside the /29");
        assert!(l.covering.covers(&l.t3));
        assert!(l.covering.covers(&l.t4));
        assert!(!l.t3.overlaps(&l.t4));
        assert!(l.t2.contains(l.t2_dns_exposed));
        // T2's DNS attractor is outside its productive /56, so T2 captures
        // the traffic it draws.
        assert!(sixscope_telescope::TelescopeConfig::t2(l.t2).captures(l.t2_dns_exposed));
    }

    #[test]
    fn build_is_deterministic() {
        let spec = PopulationSpec::tiny(7);
        let a = spec.build(&layout());
        let b = spec.build(&layout());
        assert_eq!(a.scanners, b.scanners);
        assert_eq!(a.ases, b.ases);
    }

    #[test]
    fn population_has_all_classes() {
        let pop = PopulationSpec::tiny(1).build(&layout());
        let names: std::collections::HashSet<&str> =
            pop.scanners.iter().map(|s| s.tool.name).collect();
        for expect in [
            "RIPEAtlasProbe",
            "web-syn",
            "Yarrp6",
            "Traceroute",
            "CAIDA Ark",
            "random-bytes",
        ] {
            assert!(names.contains(expect), "missing tool class {expect}");
        }
        // Heavy hitters exist (exactly 10 regardless of scale).
        let heavies = pop
            .scanners
            .iter()
            .filter(|s| s.packets_per_prefix >= 1000 || matches!(s.tool.name, "dns-blaster"))
            .count();
        assert!(heavies >= 3, "heavy hitters missing");
    }

    #[test]
    fn scanner_ids_are_unique() {
        let pop = PopulationSpec::tiny(2).build(&layout());
        let mut ids: Vec<u32> = pop.scanners.iter().map(|s| s.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn every_scanner_asn_has_metadata() {
        let pop = PopulationSpec::tiny(3).build(&layout());
        for s in &pop.scanners {
            assert!(
                pop.as_info(s.asn).is_some(),
                "scanner {} has unknown AS {}",
                s.id,
                s.asn
            );
        }
    }

    #[test]
    fn atlas_probes_have_rdns() {
        let pop = PopulationSpec::tiny(4).build(&layout());
        let atlas_rdns = pop
            .rdns
            .values()
            .filter(|v| v.ends_with(".probes.atlas.ripe.net"))
            .count();
        assert!(atlas_rdns > 0);
    }

    #[test]
    fn scale_changes_population_size_roughly_linearly() {
        let small = PopulationSpec {
            seed: 5,
            scale: 0.01,
        }
        .build(&layout());
        let large = PopulationSpec {
            seed: 5,
            scale: 0.04,
        }
        .build(&layout());
        let ratio = large.scanners.len() as f64 / small.scanners.len() as f64;
        assert!(
            (2.5..6.0).contains(&ratio),
            "scaling ratio was {ratio} ({} vs {})",
            large.scanners.len(),
            small.scanners.len()
        );
    }

    #[test]
    fn source_subnets_are_unique_per_scanner() {
        let pop = PopulationSpec::tiny(6).build(&layout());
        let mut subnets: Vec<Ipv6Prefix> = pop.scanners.iter().map(|s| s.source.subnet()).collect();
        let n = subnets.len();
        subnets.sort();
        subnets.dedup();
        assert_eq!(subnets.len(), n, "duplicate scanner source subnets");
    }
}
