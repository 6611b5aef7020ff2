//! The columnar corpus index: per-packet derived columns built once, so
//! every table and figure becomes a slice-and-count.
//!
//! The report layer used to re-derive the same per-packet facts — source
//! keys, RFC 7707 address class, port label, week/day bucket, AS metadata —
//! once per table and once per figure, walking every capture up to twenty
//! times. [`CorpusIndex::build`] runs once per corpus, over the finished
//! captures and their sessions: it walks each capture twice (in parallel
//! per telescope through [`map_indexed`]), once to give its sources local
//! ids and once to fill the packet columns, and materializes a handful of
//! session-level caches; the consumers in [`crate::tables`] and
//! [`crate::figures`] then reduce over integer columns. Every /64 fact
//! comes from the /128 one: a /64 id is looked up by /128 id, and a
//! session's source id is its first packet's. Every column is a fact of
//! the captured packet alone — none consults a routing view.
//!
//! # Determinism obligations
//!
//! The byte-identical-output contract of DESIGN.md §6 extends to this
//! layer (§7): every column is a pure function of its capture, source ids
//! are assigned in ascending key order (so iterating ids ≡ iterating a
//! `BTreeMap` keyed by the underlying value), and all parallel stages go
//! through the order-preserving [`map_indexed`] over deterministic job
//! lists. Captures are time-sorted by construction, which makes every time
//! window a `partition_point` slice.

use sixscope_analysis::addrtype::classify;
use sixscope_analysis::classify::{
    addr_selection, profile_scanners, AddrSelection, ScannerProfile,
};
use sixscope_analysis::heavy::{heavy_hitters_from_counts, HeavyHitter, HEAVY_HITTER_SHARE};
use sixscope_scanners::population::Population;
use sixscope_sim::ExperimentResult;
use sixscope_telescope::{AggLevel, Capture, Protocol, ScanSession, SourceKey, TelescopeId};
use sixscope_types::ports::PortLabel;
use sixscope_types::{
    chunk_ranges, map_indexed, num_threads, FxBuildHasher, Ipv6Prefix, PrefixTrie, SimTime,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv6Addr;
use std::ops::Range;
use std::sync::Mutex;

/// Sentinel id for "no value" (unresolved AS, absent country metadata).
pub const NO_ID: u32 = u32::MAX;

/// Protocol code of [`Protocol::Icmpv6`].
pub const PROTO_ICMPV6: u8 = 0;
/// Protocol code of [`Protocol::Tcp`].
pub const PROTO_TCP: u8 = 1;
/// Protocol code of [`Protocol::Udp`].
pub const PROTO_UDP: u8 = 2;
/// Protocol code of [`Protocol::Other`].
pub const PROTO_OTHER: u8 = 3;

/// Dense protocol code (bit position for session protocol masks).
pub fn proto_code(p: Protocol) -> u8 {
    match p {
        Protocol::Icmpv6 => PROTO_ICMPV6,
        Protocol::Tcp => PROTO_TCP,
        Protocol::Udp => PROTO_UDP,
        Protocol::Other => PROTO_OTHER,
    }
}

/// Port-column code for "no classified destination port".
pub const PORT_NONE: u32 = 0;

/// Encodes a [`PortLabel`] as a dense `u32`. Code order equals
/// [`PortLabel`]'s `Ord` (`Traceroute` sorts before any `Port`), so sorting
/// codes sorts labels.
pub fn encode_port(label: PortLabel) -> u32 {
    match label {
        PortLabel::Traceroute => 1,
        PortLabel::Port(p) => p as u32 + 2,
    }
}

/// Inverse of [`encode_port`]; `None` for [`PORT_NONE`].
pub fn decode_port(code: u32) -> Option<PortLabel> {
    match code {
        PORT_NONE => None,
        1 => Some(PortLabel::Traceroute),
        p => Some(PortLabel::Port((p - 2) as u16)),
    }
}

/// The interned source universe: every /128 and /64 source observed at any
/// telescope, with per-source metadata resolved once.
///
/// Ids are assigned in ascending [`SourceKey`] order, so walking ids
/// `0..len` visits sources exactly as a `BTreeSet<SourceKey>` would, and a
/// key's id is its position in the sorted key list.
#[derive(Debug, Clone)]
pub struct SourceTable {
    keys128: Vec<SourceKey>,
    keys64: Vec<SourceKey>,
    /// Origin AS per /128 source via the routing-data join (`NO_ID` when
    /// the source's subnet has no mapping).
    asn128: Vec<u32>,
    /// Origin AS per /128 source, only where full AS *metadata* resolves.
    info_asn128: Vec<u32>,
    /// Country id per /128 source (index into `countries`; `NO_ID` when
    /// metadata is absent).
    country128: Vec<u32>,
    countries: Vec<String>,
}

impl SourceTable {
    /// Number of distinct /128 sources.
    pub fn len128(&self) -> usize {
        self.keys128.len()
    }

    /// Number of distinct /64 sources.
    pub fn len64(&self) -> usize {
        self.keys64.len()
    }

    /// The /128 source key of an id.
    pub fn key128(&self, id: u32) -> SourceKey {
        self.keys128[id as usize]
    }

    /// Id of a /128 source key, if interned (a binary search).
    pub fn id128(&self, key: &SourceKey) -> Option<u32> {
        self.keys128.binary_search(key).ok().map(|id| id as u32)
    }

    /// Origin AS number of a /128 source id (`NO_ID` when unresolved).
    pub fn asn(&self, id: u32) -> u32 {
        self.asn128[id as usize]
    }

    /// Origin AS of a /128 source id where AS metadata exists.
    pub fn info_asn(&self, id: u32) -> u32 {
        self.info_asn128[id as usize]
    }

    /// Country id of a /128 source id (`NO_ID` when metadata is absent).
    pub fn country(&self, id: u32) -> u32 {
        self.country128[id as usize]
    }

    /// The interned country strings (ascending).
    pub fn countries(&self) -> &[String] {
        &self.countries
    }
}

/// Dense per-packet columns of one telescope's capture, index-aligned with
/// [`Capture::packets`]. The capture is time-sorted, so `ts` is
/// non-decreasing and any `[from, until)` window is a `partition_point`
/// slice. Week and day buckets are not stored: `ts[i].week()` and
/// `ts[i].day()` derive them.
#[derive(Debug, Clone)]
pub struct PacketColumns {
    /// Arrival time (non-decreasing).
    pub ts: Vec<SimTime>,
    /// Interned /128 source id.
    pub src128: Vec<u32>,
    /// Interned /64 source id.
    pub src64: Vec<u32>,
    /// RFC 7707 class of the destination ([`sixscope_analysis::addrtype::AddressType::code`]).
    pub class: Vec<u8>,
    /// Transport protocol code ([`proto_code`]).
    pub proto: Vec<u8>,
    /// Classified destination-port code ([`encode_port`]; [`PORT_NONE`]
    /// for ICMPv6/other or missing ports).
    pub port: Vec<u32>,
    /// Destination address bits. Lets per-session consumers (Fig. 14/17)
    /// assemble target-bit sequences straight from the column instead of
    /// re-walking the capture's packet structs.
    pub dst: Vec<u128>,
}

impl PacketColumns {
    /// Derives the columns of one capture from its final /128 id column
    /// and the /128 → /64 id map — the only code that writes packet
    /// columns.
    ///
    /// # Panics
    /// Panics when the capture's packet times decrease: the corpus index
    /// requires time-sorted captures (simulated and shard-gathered ones are
    /// by construction; pcap input is sorted when read).
    fn build(capture: &Capture, src128: Vec<u32>, up64: &[u32]) -> PacketColumns {
        let n = capture.len();
        let mut cols = PacketColumns {
            ts: Vec::with_capacity(n),
            src64: src128.iter().map(|&id| up64[id as usize]).collect(),
            src128,
            class: Vec::with_capacity(n),
            proto: Vec::with_capacity(n),
            port: Vec::with_capacity(n),
            dst: Vec::with_capacity(n),
        };
        for p in capture.packets() {
            assert!(
                cols.ts.last().is_none_or(|&t| t <= p.ts),
                "corpus index requires non-decreasing packet times"
            );
            cols.ts.push(p.ts);
            cols.class.push(classify(p.dst).code());
            cols.proto.push(proto_code(p.protocol));
            cols.port.push(match (p.protocol, p.dst_port) {
                (Protocol::Tcp, Some(port)) => encode_port(PortLabel::classify_tcp(port)),
                (Protocol::Udp, Some(port)) => encode_port(PortLabel::classify_udp(port)),
                _ => PORT_NONE,
            });
            cols.dst.push(u128::from(p.dst));
        }
        cols
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when the capture was empty.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Index range of packets with `from <= ts < until`.
    pub fn range(&self, from: SimTime, until: SimTime) -> Range<usize> {
        let lo = self.ts.partition_point(|&t| t < from);
        let hi = self.ts.partition_point(|&t| t < until);
        lo..hi
    }

    /// Index range of packets with `ts < until`.
    pub fn range_until(&self, until: SimTime) -> Range<usize> {
        0..self.ts.partition_point(|&t| t < until)
    }

    /// Index range of packets with `ts >= from`.
    pub fn range_from(&self, from: SimTime) -> Range<usize> {
        self.ts.partition_point(|&t| t < from)..self.ts.len()
    }
}

/// One capture's source addresses in first-encounter order, and each
/// packet's index into that list (its local id): one hash operation per
/// packet. The map's iteration order never reaches an id.
fn local_sources(capture: &Capture) -> (Vec<Ipv6Addr>, Vec<u32>) {
    let mut ids: HashMap<Ipv6Addr, u32, FxBuildHasher> = HashMap::default();
    let mut addrs = Vec::new();
    let column = capture
        .packets()
        .iter()
        .map(|p| {
            *ids.entry(p.src).or_insert_with(|| {
                addrs.push(p.src);
                addrs.len() as u32 - 1
            })
        })
        .collect();
    (addrs, column)
}

/// Dense per-session columns, index-aligned with the session vector they
/// were built from. Session starts are non-decreasing (sessions are created
/// at first-packet time from time-sorted captures), so start-time windows
/// are `partition_point` slices too.
#[derive(Debug, Clone)]
pub struct SessionColumns {
    /// First-packet time (non-decreasing).
    pub start: Vec<SimTime>,
    /// Interned source id (at the session's aggregation level).
    pub source: Vec<u32>,
    /// Packet count.
    pub packets: Vec<u32>,
    /// Bitmask of protocol codes present (`1 << proto_code`).
    pub proto_mask: Vec<u8>,
}

impl SessionColumns {
    /// Derives the columns for one telescope's session list. A session's
    /// source id is its first packet's entry in `src`, the packet column
    /// at the sessions' aggregation level.
    fn build(sessions: &[ScanSession], src: &[u32], packets: &PacketColumns) -> SessionColumns {
        let mut cols = SessionColumns {
            start: Vec::with_capacity(sessions.len()),
            source: Vec::with_capacity(sessions.len()),
            packets: Vec::with_capacity(sessions.len()),
            proto_mask: Vec::with_capacity(sessions.len()),
        };
        for s in sessions {
            cols.start.push(s.start);
            cols.source.push(src[s.packet_indices[0] as usize]);
            cols.packets.push(s.packet_indices.len() as u32);
            let mut mask = 0u8;
            for &pi in &s.packet_indices {
                mask |= 1 << packets.proto[pi as usize];
            }
            cols.proto_mask.push(mask);
        }
        assert!(
            cols.start.windows(2).all(|w| w[0] <= w[1]),
            "session starts must be non-decreasing"
        );
        cols
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.start.len()
    }

    /// True when no sessions exist.
    pub fn is_empty(&self) -> bool {
        self.start.is_empty()
    }

    /// Index range of sessions with `from <= start < until`.
    pub fn range(&self, from: SimTime, until: SimTime) -> Range<usize> {
        let lo = self.start.partition_point(|&t| t < from);
        let hi = self.start.partition_point(|&t| t < until);
        lo..hi
    }
}

/// A contiguous window of one telescope's /128 sessions together with its
/// temporal scanner profiles. `profiles[*].session_indices` are relative to
/// the window (add `range.start` for capture-level session indices).
#[derive(Debug, Clone)]
pub struct ProfiledWindow {
    /// Window into the telescope's /128 session vector.
    pub range: Range<usize>,
    /// Temporal profiles of the window's scanners.
    pub profiles: Vec<ScannerProfile>,
}

/// Caches for the T1 split period: the profiled window plus per-session
/// announcement-cycle attribution.
#[derive(Debug, Clone)]
pub struct SplitCache {
    /// All T1 /128 sessions starting at or after the split boundary.
    pub window: ProfiledWindow,
    /// The same window clipped to the layout end (what Fig. 15 profiles);
    /// `None` when no session starts past the layout end and the unbounded
    /// window is identical.
    pub bounded: Option<ProfiledWindow>,
    /// `SplitSchedule::cycle_at` of each window session's start.
    pub cycles: Vec<Option<u32>>,
    /// Most-specific announced prefixes each window session probed,
    /// evaluated against the announced set of its cycle (the final set for
    /// sessions at or past the final cycle start). Sorted ascending.
    pub prefix_hits: Vec<Vec<Ipv6Prefix>>,
}

/// The full corpus index carried on [`crate::Analyzed`].
#[derive(Debug, Clone)]
pub struct CorpusIndex {
    /// The interned source universe.
    pub sources: SourceTable,
    packets: BTreeMap<TelescopeId, PacketColumns>,
    sess128: BTreeMap<TelescopeId, SessionColumns>,
    sess64: BTreeMap<TelescopeId, SessionColumns>,
    /// Cached address-selection per /128 session: all sessions for T1,
    /// the initial window for the other telescopes.
    addr_sel: BTreeMap<TelescopeId, Vec<AddrSelection>>,
    initial: BTreeMap<TelescopeId, ProfiledWindow>,
    split: SplitCache,
    heavy: BTreeMap<TelescopeId, Vec<HeavyHitter>>,
}

impl CorpusIndex {
    /// Builds the index from a finished experiment and its session lists.
    ///
    /// All stages fan out through [`map_indexed`] over deterministic job
    /// lists (per telescope, or contiguous [`chunk_ranges`] shards), so the
    /// index — and everything derived from it — is identical at any
    /// `SIXSCOPE_THREADS`.
    ///
    /// # Panics
    /// Panics when a capture's packet times decrease.
    pub fn build(
        result: &ExperimentResult,
        sessions128: &BTreeMap<TelescopeId, Vec<ScanSession>>,
        sessions64: &BTreeMap<TelescopeId, Vec<ScanSession>>,
    ) -> CorpusIndex {
        Self::build_with_threads(result, sessions128, sessions64, num_threads(None))
    }

    /// [`CorpusIndex::build`] on `threads` workers.
    pub(crate) fn build_with_threads(
        result: &ExperimentResult,
        sessions128: &BTreeMap<TelescopeId, Vec<ScanSession>>,
        sessions64: &BTreeMap<TelescopeId, Vec<ScanSession>>,
        threads: usize,
    ) -> CorpusIndex {
        // Stage A: the source universe. Each capture's walk gives its
        // sources local ids and fills a local id column; the union of the
        // local sources, sorted, fixes the final ids in ascending key
        // order; then per-source metadata.
        let local = map_indexed(threads, &TelescopeId::ALL, |_, id| {
            local_sources(&result.captures[id])
        });
        let mut addrs: Vec<Ipv6Addr> = local
            .iter()
            .flat_map(|(addrs, _)| addrs.iter().copied())
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        let (sources, up64) = Self::build_source_table(&result.population, addrs);

        // Stage B: per-telescope packet columns. Each job takes its
        // telescope's local column, remaps it to final ids in place and
        // reads the /64 column off it.
        let local: Vec<Mutex<(Vec<Ipv6Addr>, Vec<u32>)>> =
            local.into_iter().map(Mutex::new).collect();
        let built = map_indexed(threads, &TelescopeId::ALL, |i, id| {
            let mut slot = local[i]
                .lock()
                .expect("each slot is taken once, by its job");
            let (addrs, mut src128) = std::mem::take(&mut *slot);
            let remap: Vec<u32> = addrs
                .iter()
                .map(|&addr| {
                    let key = SourceKey::new(addr, AggLevel::Addr128);
                    sources.id128(&key).expect("every source in the union")
                })
                .collect();
            for src in &mut src128 {
                *src = remap[*src as usize];
            }
            PacketColumns::build(&result.captures[id], src128, &up64)
        });
        let packets: BTreeMap<TelescopeId, PacketColumns> =
            TelescopeId::ALL.into_iter().zip(built).collect();

        // Stage C: session columns (four telescopes × two levels).
        let jobs: Vec<(TelescopeId, AggLevel)> = TelescopeId::ALL
            .into_iter()
            .flat_map(|id| [(id, AggLevel::Addr128), (id, AggLevel::Subnet64)])
            .collect();
        let built = map_indexed(threads, &jobs, |_, &(id, level)| {
            let cols = &packets[&id];
            match level {
                AggLevel::Addr128 => SessionColumns::build(&sessions128[&id], &cols.src128, cols),
                _ => SessionColumns::build(&sessions64[&id], &cols.src64, cols),
            }
        });
        let mut sess128: BTreeMap<TelescopeId, SessionColumns> = BTreeMap::new();
        let mut sess64: BTreeMap<TelescopeId, SessionColumns> = BTreeMap::new();
        for ((id, level), cols) in jobs.iter().copied().zip(built) {
            match level {
                AggLevel::Addr128 => sess128.insert(id, cols),
                _ => sess64.insert(id, cols),
            };
        }

        // Stage D: address selection. T1 needs full coverage (Fig. 12/15);
        // the other telescopes only their initial window (Fig. 7b).
        let boundary = result.schedule.cycle_start(1);
        let sel_jobs: Vec<(TelescopeId, Range<usize>)> = TelescopeId::ALL
            .into_iter()
            .flat_map(|id| {
                let covered = if id == TelescopeId::T1 {
                    sess128[&id].len()
                } else {
                    sess128[&id].range(SimTime::EPOCH, boundary).end
                };
                chunk_ranges(covered, threads)
                    .into_iter()
                    .map(move |r| (id, r))
            })
            .collect();
        let built = map_indexed(threads, &sel_jobs, |_, (id, r)| {
            let capture = &result.captures[id];
            sessions128[id][r.clone()]
                .iter()
                .map(|s| addr_selection(s, capture))
                .collect::<Vec<AddrSelection>>()
        });
        let mut addr_sel: BTreeMap<TelescopeId, Vec<AddrSelection>> = TelescopeId::ALL
            .into_iter()
            .map(|id| (id, Vec::new()))
            .collect();
        for ((id, _), shard) in sel_jobs.iter().zip(built) {
            addr_sel.get_mut(id).expect("all telescopes").extend(shard);
        }

        // Stage E: profiled windows (initial per telescope, T1 split).
        let mut initial = BTreeMap::new();
        for id in TelescopeId::ALL {
            let range = sess128[&id].range(SimTime::EPOCH, boundary);
            let profiles = profile_scanners(&sessions128[&id][range.clone()]);
            initial.insert(id, ProfiledWindow { range, profiles });
        }
        let t1 = &sessions128[&TelescopeId::T1];
        let t1_cols = &sess128[&TelescopeId::T1];
        let lo = t1_cols.range(SimTime::EPOCH, boundary).end;
        let window = ProfiledWindow {
            range: lo..t1.len(),
            profiles: profile_scanners(&t1[lo..]),
        };
        let hi_end = t1_cols.range(SimTime::EPOCH, result.layout.end).end;
        let bounded = (hi_end != t1.len()).then(|| ProfiledWindow {
            range: lo..hi_end,
            profiles: profile_scanners(&t1[lo..hi_end]),
        });

        // Stage F: per-session cycle attribution for the split window.
        let schedule = &result.schedule;
        let cycles: Vec<Option<u32>> = t1[lo..]
            .iter()
            .map(|s| schedule.cycle_at(s.start))
            .collect();
        let final_cycle = schedule.cycles;
        let final_start = schedule.cycle_start(final_cycle);
        let sets: Vec<Vec<Ipv6Prefix>> = (1..=final_cycle)
            .map(|c| schedule.announced_set(c))
            .collect();
        let capture = &result.captures[&TelescopeId::T1];
        let hit_jobs = chunk_ranges(t1.len() - lo, threads);
        let built = map_indexed(threads, &hit_jobs, |_, r| {
            r.clone()
                .map(|i| {
                    let s = &t1[lo + i];
                    let announced: &[Ipv6Prefix] = if s.start >= final_start {
                        match final_cycle {
                            0 => &[],
                            c => &sets[c as usize - 1],
                        }
                    } else {
                        match cycles[i] {
                            Some(c) if c >= 1 => &sets[c as usize - 1],
                            _ => &[],
                        }
                    };
                    session_prefix_hits(s, capture, announced)
                })
                .collect::<Vec<Vec<Ipv6Prefix>>>()
        });
        let prefix_hits: Vec<Vec<Ipv6Prefix>> = built.into_iter().flatten().collect();
        let split = SplitCache {
            window,
            bounded,
            cycles,
            prefix_hits,
        };

        // Stage G: heavy hitters from the interned per-source counts.
        let heavy = TelescopeId::ALL
            .into_iter()
            .map(|id| {
                let col = &packets[&id];
                let mut counts = vec![0u64; sources.len128()];
                for &src in &col.src128 {
                    counts[src as usize] += 1;
                }
                let hitters = heavy_hitters_from_counts(
                    id,
                    col.len() as u64,
                    counts
                        .iter()
                        .enumerate()
                        .filter(|&(_, &c)| c > 0)
                        .map(|(i, &c)| (sources.key128(i as u32), c)),
                    HEAVY_HITTER_SHARE,
                );
                (id, hitters)
            })
            .collect();

        CorpusIndex {
            sources,
            packets,
            sess128,
            sess64,
            addr_sel,
            initial,
            split,
            heavy,
        }
    }

    /// Assigns the final source ids (ascending key order) to `addrs`,
    /// sorted and distinct, and resolves the per-source AS and country
    /// metadata against `population`. Also returns each /128 id's /64 id:
    /// masking keeps sorted /128 keys sorted, so one walk lists the /64
    /// keys in ascending order (DESIGN.md §7, stage A).
    fn build_source_table(
        population: &Population,
        addrs: Vec<Ipv6Addr>,
    ) -> (SourceTable, Vec<u32>) {
        let mut asn_by_subnet: PrefixTrie<u32> = PrefixTrie::new();
        for scanner in &population.scanners {
            asn_by_subnet.insert(scanner.source.subnet(), scanner.asn.get());
        }
        let keys128: Vec<SourceKey> = addrs
            .into_iter()
            .map(|addr| SourceKey::new(addr, AggLevel::Addr128))
            .collect();
        let mut keys64: Vec<SourceKey> = Vec::new();
        let up64: Vec<u32> = keys128
            .iter()
            .map(|key| {
                let key64 = SourceKey::new(key.prefix.network(), AggLevel::Subnet64);
                if keys64.last() != Some(&key64) {
                    keys64.push(key64);
                }
                keys64.len() as u32 - 1
            })
            .collect();
        let mut asn128 = Vec::with_capacity(keys128.len());
        let mut info_asn128 = Vec::with_capacity(keys128.len());
        let mut country_names = Vec::with_capacity(keys128.len());
        let mut country_set: BTreeSet<String> = BTreeSet::new();
        for key in &keys128 {
            let addr = key.prefix.network();
            let asn = asn_by_subnet.lookup(addr).map(|(_, &a)| a);
            asn128.push(asn.unwrap_or(NO_ID));
            let info = asn.and_then(|a| population.as_info(sixscope_types::Asn(a)));
            match info {
                Some(info) => {
                    info_asn128.push(info.asn.get());
                    let country = info.country.to_string();
                    country_set.insert(country.clone());
                    country_names.push(Some(country));
                }
                None => {
                    info_asn128.push(NO_ID);
                    country_names.push(None);
                }
            }
        }
        let countries: Vec<String> = country_set.into_iter().collect();
        let country128 = country_names
            .into_iter()
            .map(|name| match name {
                Some(name) => countries.binary_search(&name).expect("interned") as u32,
                None => NO_ID,
            })
            .collect();
        let table = SourceTable {
            keys128,
            keys64,
            asn128,
            info_asn128,
            country128,
            countries,
        };
        (table, up64)
    }

    /// One telescope's packet columns.
    pub fn telescope(&self, id: TelescopeId) -> &PacketColumns {
        &self.packets[&id]
    }

    /// One telescope's /128 session columns.
    pub fn sessions128(&self, id: TelescopeId) -> &SessionColumns {
        &self.sess128[&id]
    }

    /// One telescope's /64 session columns.
    pub fn sessions64(&self, id: TelescopeId) -> &SessionColumns {
        &self.sess64[&id]
    }

    /// Cached address selection per /128 session. Valid for indices below
    /// the vector length: all of T1, the initial window elsewhere.
    pub fn addr_sel(&self, id: TelescopeId) -> &[AddrSelection] {
        &self.addr_sel[&id]
    }

    /// The profiled initial-period window of one telescope.
    pub fn initial(&self, id: TelescopeId) -> &ProfiledWindow {
        &self.initial[&id]
    }

    /// The T1 split-period caches.
    pub fn split(&self) -> &SplitCache {
        &self.split
    }

    /// The split window clipped to the layout end (Fig. 15's population).
    pub fn split_bounded(&self) -> &ProfiledWindow {
        self.split.bounded.as_ref().unwrap_or(&self.split.window)
    }

    /// Heavy hitters of one telescope (descending packets).
    pub fn heavy(&self, id: TelescopeId) -> &[HeavyHitter] {
        &self.heavy[&id]
    }
}

/// The most-specific announced prefixes a session probed, one entry per
/// prefix, ascending. Mirrors the per-packet attribution of Table 6 /
/// Fig. 10: each packet counts toward the longest announced prefix
/// containing its destination.
pub fn session_prefix_hits(
    session: &ScanSession,
    capture: &Capture,
    announced: &[Ipv6Prefix],
) -> Vec<Ipv6Prefix> {
    if announced.is_empty() {
        return Vec::new();
    }
    let mut hit: BTreeSet<Ipv6Prefix> = BTreeSet::new();
    for p in session.packets(capture) {
        let best = announced
            .iter()
            .filter(|pre| pre.contains(p.dst))
            .max_by_key(|pre| pre.len());
        if let Some(pre) = best {
            hit.insert(*pre);
        }
    }
    hit.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_codes_round_trip_and_order_like_labels() {
        assert_eq!(decode_port(PORT_NONE), None);
        let labels = [
            PortLabel::Traceroute,
            PortLabel::Port(0),
            PortLabel::Port(80),
            PortLabel::Port(443),
            PortLabel::Port(u16::MAX),
        ];
        for &l in &labels {
            assert_eq!(decode_port(encode_port(l)), Some(l));
        }
        // Code order ≡ label order.
        for w in labels.windows(2) {
            assert!(encode_port(w[0]) < encode_port(w[1]));
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing packet times")]
    fn column_build_panics_on_out_of_order_packets() {
        let packet = |t: u64| sixscope_telescope::CapturedPacket {
            ts: SimTime::from_secs(t),
            src: "2001:db8::1".parse().unwrap(),
            dst: "2001:db8:1::2".parse().unwrap(),
            protocol: Protocol::Icmpv6,
            src_port: None,
            dst_port: None,
            payload: Default::default(),
        };
        let capture = Capture::restore(
            crate::ingest::passive_config(Ipv6Prefix::default_route()),
            vec![packet(0), packet(10), packet(9)],
            0,
            0,
        );
        let (addrs, src128) = local_sources(&capture);
        let population = Population {
            scanners: Vec::new(),
            ases: Vec::new(),
            rdns: BTreeMap::new(),
        };
        let (_, up64) = CorpusIndex::build_source_table(&population, addrs);
        // The third packet arrives before the second.
        PacketColumns::build(&capture, src128, &up64);
    }

    #[test]
    fn proto_codes_are_dense_and_distinct() {
        let all = [
            Protocol::Icmpv6,
            Protocol::Tcp,
            Protocol::Udp,
            Protocol::Other,
        ];
        let codes: Vec<u8> = all.iter().map(|&p| proto_code(p)).collect();
        assert_eq!(codes, vec![0, 1, 2, 3]);
    }
}
