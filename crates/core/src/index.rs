//! The columnar corpus index: per-packet derived columns built once, so
//! every table and figure becomes a slice-and-count.
//!
//! The report layer used to re-derive the same per-packet facts — source
//! keys, RFC 7707 address class, port label, week/day bucket, AS metadata —
//! once per table and once per figure, walking every capture up to twenty
//! times. [`CorpusIndex::build`] walks each capture exactly once (in
//! parallel per telescope through [`map_indexed`]) and materializes dense
//! columns plus a handful of session-level caches; the consumers in
//! [`crate::tables`] and [`crate::figures`] then reduce over integer
//! columns.
//!
//! # Determinism obligations
//!
//! The byte-identical-output contract of DESIGN.md §6 extends to this
//! layer (§7): every column is a pure function of its capture, interning
//! assigns ids in ascending key order (so iterating ids ≡ iterating a
//! `BTreeMap` keyed by the underlying value), and all parallel stages go
//! through the order-preserving [`map_indexed`] over deterministic job
//! lists. Captures are time-sorted by construction, which makes every time
//! window a `partition_point` slice.

use sixscope_analysis::addrtype::classify;
use sixscope_analysis::classify::{
    addr_selection, profile_scanners, AddrSelection, ScannerProfile,
};
use sixscope_analysis::heavy::{heavy_hitters_from_counts, HeavyHitter, HEAVY_HITTER_SHARE};
use sixscope_sim::{CompiledVisibility, ExperimentResult};
use sixscope_telescope::{AggLevel, Capture, Protocol, ScanSession, SourceKey, TelescopeId};
use sixscope_types::ports::PortLabel;
use sixscope_types::{
    chunk_ranges, map_indexed, num_threads, InternTable, Ipv6Prefix, PrefixTrie, SimTime,
};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Sentinel id for "no value" (unresolved AS, unrouted destination, …).
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
/// `0..len` visits sources exactly as a `BTreeSet<SourceKey>` would.
#[derive(Debug, Clone)]
pub struct SourceTable {
    keys128: Vec<SourceKey>,
    keys64: Vec<SourceKey>,
    /// Hash lookup key → sorted id. Built by inserting the sorted key
    /// vectors in order, so arena ids coincide with sorted ids and a `get`
    /// is O(1) instead of a binary search per packet.
    lookup128: InternTable<SourceKey>,
    lookup64: InternTable<SourceKey>,
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

    /// Id of a /128 source key, if interned.
    pub fn id128(&self, key: &SourceKey) -> Option<u32> {
        self.lookup128.get(key)
    }

    /// Id of a /64 source key, if interned.
    pub fn id64(&self, key: &SourceKey) -> Option<u32> {
        self.lookup64.get(key)
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
/// [`Capture::packets`] — finalized from an [`IndexShard`]. The capture is
/// time-sorted, so `ts` is non-decreasing and any `[from, until)` window is
/// a `partition_point` slice.
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
    /// Zero-based week bucket of the arrival time.
    pub week: Vec<u32>,
    /// Zero-based day bucket of the arrival time.
    pub day: Vec<u32>,
    /// Destination address bits. Lets per-session consumers (Fig. 14/17)
    /// assemble target-bit sequences straight from the column instead of
    /// re-walking the capture's packet structs.
    pub dst: Vec<u128>,
    /// Announced-prefix id covering the destination at arrival time
    /// (longest match through [`CompiledVisibility`]; `NO_ID` when
    /// unrouted). Ids index [`PacketColumns::prefixes`].
    pub prefix: Vec<u32>,
    prefixes: Vec<Ipv6Prefix>,
}

impl PacketColumns {
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

    /// The interned announced prefixes (id = index).
    pub fn prefixes(&self) -> &[Ipv6Prefix] {
        &self.prefixes
    }
}

/// Append-only partial packet columns of one telescope — the mergeable
/// unit of the streaming pipeline (DESIGN.md §10).
///
/// A shard accumulates exactly the per-packet facts [`PacketColumns`]
/// stores, except that source addresses stay raw (`u128`): global source
/// ids cannot be assigned until every chunk has been seen. The streaming
/// pipeline appends one chunk at a time with [`IndexShard::push_range`] —
/// the only code that writes index columns — and finally
/// [`CorpusIndex::from_shards`] interns the union of the shard source sets
/// and resolves the raw columns to ids, producing the same columns
/// whatever the chunking.
#[derive(Debug, Clone, Default)]
pub struct IndexShard {
    /// Shard-local source interning. Arena order is first-encounter; the
    /// merge sorts the union, so final ids still land in ascending key
    /// order exactly as the old `BTreeSet` union assigned them.
    sources128: InternTable<SourceKey>,
    sources64: InternTable<SourceKey>,
    ts: Vec<SimTime>,
    /// Raw source address per packet (resolved to ids at merge time).
    src: Vec<u128>,
    class: Vec<u8>,
    proto: Vec<u8>,
    port: Vec<u32>,
    week: Vec<u32>,
    day: Vec<u32>,
    dst: Vec<u128>,
    prefix: Vec<u32>,
    /// Shard-local announced-prefix interning (first-encounter order; only
    /// the id→prefix direction is consumed).
    prefix_ids: InternTable<Ipv6Prefix>,
}

impl IndexShard {
    /// An empty shard.
    pub fn new() -> Self {
        IndexShard::default()
    }

    /// Number of packets appended so far.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True before the first packet.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Appends one contiguous chunk of `capture`'s packets.
    ///
    /// # Panics
    /// Panics when the chunk's packets are not in non-decreasing time order
    /// relative to what the shard already holds: the corpus index requires
    /// time-sorted captures (simulated captures are by construction;
    /// replayed ones must be sorted first).
    pub fn push_range(
        &mut self,
        capture: &Capture,
        range: Range<usize>,
        visibility: &CompiledVisibility,
    ) {
        let packets = &capture.packets()[range];
        // Every column grows by the chunk up front, so a one-chunk feed
        // allocates each column once, at its final size.
        let n = packets.len();
        self.ts.reserve(n);
        self.src.reserve(n);
        self.class.reserve(n);
        self.proto.reserve(n);
        self.port.reserve(n);
        self.week.reserve(n);
        self.day.reserve(n);
        self.dst.reserve(n);
        self.prefix.reserve(n);
        // Packets are non-decreasing in time (asserted below), so the
        // epoch lookup rides a monotone cursor instead of a binary search
        // per packet.
        let epoch_cursor = std::cell::Cell::new(0);
        for p in packets {
            assert!(
                self.ts.last().is_none_or(|&t| t <= p.ts),
                "index shard requires non-decreasing packet times"
            );
            self.ts.push(p.ts);
            self.sources128
                .insert(SourceKey::new(p.src, AggLevel::Addr128));
            self.sources64
                .insert(SourceKey::new(p.src, AggLevel::Subnet64));
            // (InternTable::insert is idempotent, like the set insert it
            // replaced — one hash probe instead of an ordered-tree walk.)
            self.src.push(u128::from(p.src));
            self.class.push(classify(p.dst).code());
            self.proto.push(proto_code(p.protocol));
            let port = match (p.protocol, p.dst_port) {
                (Protocol::Tcp, Some(port)) => encode_port(PortLabel::classify_tcp(port)),
                (Protocol::Udp, Some(port)) => encode_port(PortLabel::classify_udp(port)),
                _ => PORT_NONE,
            };
            self.port.push(port);
            self.week.push(p.ts.week() as u32);
            self.day.push(p.ts.day() as u32);
            self.dst.push(u128::from(p.dst));
            let prefix = match visibility.lpm_cached(p.dst, p.ts, &epoch_cursor) {
                Some(pre) => self.prefix_ids.insert(pre).id,
                None => NO_ID,
            };
            self.prefix.push(prefix);
        }
    }

    /// Resolves the raw source column against the final interned source
    /// table, consuming the shard into finished [`PacketColumns`].
    fn finalize(self, sources: &SourceTable) -> PacketColumns {
        let mut src128 = Vec::with_capacity(self.src.len());
        let mut src64 = Vec::with_capacity(self.src.len());
        for &raw in &self.src {
            let addr = std::net::Ipv6Addr::from(raw);
            let k128 = SourceKey::new(addr, AggLevel::Addr128);
            let k64 = SourceKey::new(addr, AggLevel::Subnet64);
            // O(1) hash lookups against the final table — this loop runs
            // twice per packet and used to binary-search a sorted vector.
            src128.push(sources.id128(&k128).expect("every packet source interned"));
            src64.push(sources.id64(&k64).expect("interned /64"));
        }
        PacketColumns {
            ts: self.ts,
            src128,
            src64,
            class: self.class,
            proto: self.proto,
            port: self.port,
            week: self.week,
            day: self.day,
            dst: self.dst,
            prefix: self.prefix,
            prefixes: self.prefix_ids.into_keys(),
        }
    }
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
    /// Derives the columns for one telescope's session list.
    pub fn build(
        sessions: &[ScanSession],
        level: AggLevel,
        sources: &SourceTable,
        packets: &PacketColumns,
    ) -> SessionColumns {
        let mut cols = SessionColumns {
            start: Vec::with_capacity(sessions.len()),
            source: Vec::with_capacity(sessions.len()),
            packets: Vec::with_capacity(sessions.len()),
            proto_mask: Vec::with_capacity(sessions.len()),
        };
        for s in sessions {
            cols.start.push(s.start);
            let id = match level {
                AggLevel::Addr128 => sources.id128(&s.source).expect("session source interned"),
                _ => sources.id64(&s.source).expect("interned /64"),
            };
            cols.source.push(id);
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
    pub fn build(
        result: &ExperimentResult,
        sessions128: &BTreeMap<TelescopeId, Vec<ScanSession>>,
        sessions64: &BTreeMap<TelescopeId, Vec<ScanSession>>,
    ) -> CorpusIndex {
        let threads = num_threads(None);
        // Batch is one-big-chunk streaming: build one shard per telescope
        // in a single push, then merge. One code path, byte-identical
        // output either way (DESIGN.md §10).
        let compiled = CompiledVisibility::compile(&result.visibility);
        let built = map_indexed(threads, &TelescopeId::ALL, |_, id| {
            let capture = &result.captures[id];
            let mut shard = IndexShard::new();
            shard.push_range(capture, 0..capture.len(), &compiled);
            shard
        });
        let shards: BTreeMap<TelescopeId, IndexShard> =
            TelescopeId::ALL.into_iter().zip(built).collect();
        Self::from_shards(result, shards, sessions128, sessions64, threads)
    }

    /// Assembles the index from per-telescope [`IndexShard`]s the streaming
    /// pipeline accumulated. Every telescope must have a shard (empty is
    /// fine) whose length matches its capture in `result`.
    ///
    /// The merge is deterministic: the source universe is the union of the
    /// shard key sets (an intern-table union *sorted* before id
    /// assignment, so ids land in ascending key order exactly as the old
    /// `BTreeSet` union assigned them), raw source columns resolve to ids
    /// by O(1) hash lookup, and all downstream stages reduce over those
    /// columns through order-preserving [`map_indexed`].
    pub fn from_shards(
        result: &ExperimentResult,
        shards: BTreeMap<TelescopeId, IndexShard>,
        sessions128: &BTreeMap<TelescopeId, Vec<ScanSession>>,
        sessions64: &BTreeMap<TelescopeId, Vec<ScanSession>>,
        threads: usize,
    ) -> CorpusIndex {
        // Stage A: the source universe (union of shard key sets), then
        // per-source metadata.
        let mut all128: InternTable<SourceKey> = InternTable::new();
        let mut all64: InternTable<SourceKey> = InternTable::new();
        for id in TelescopeId::ALL {
            let shard = shards.get(&id).expect("a shard per telescope");
            assert_eq!(
                shard.len(),
                result.captures[&id].len(),
                "shard/capture length mismatch at {id}"
            );
            all128.absorb(&shard.sources128);
            all64.absorb(&shard.sources64);
        }
        let sources = Self::build_source_table(result, all128, all64);

        // Stage B: finalize per-telescope packet columns (resolve the raw
        // source columns against the final table). `map_indexed` hands out
        // references, so each shard is moved through a take-once cell.
        let cells: Vec<(TelescopeId, std::sync::Mutex<Option<IndexShard>>)> = shards
            .into_iter()
            .map(|(id, shard)| (id, std::sync::Mutex::new(Some(shard))))
            .collect();
        let built = map_indexed(threads, &cells, |_, (id, cell)| {
            let shard = cell
                .lock()
                .expect("no panics while holding the cell")
                .take()
                .expect("each shard finalized exactly once");
            (*id, shard.finalize(&sources))
        });
        let packets: BTreeMap<TelescopeId, PacketColumns> = built.into_iter().collect();

        // Stage C: session columns (four telescopes × two levels).
        let jobs: Vec<(TelescopeId, AggLevel)> = TelescopeId::ALL
            .into_iter()
            .flat_map(|id| [(id, AggLevel::Addr128), (id, AggLevel::Subnet64)])
            .collect();
        let built = map_indexed(threads, &jobs, |_, &(id, level)| {
            let sessions = match level {
                AggLevel::Addr128 => &sessions128[&id],
                _ => &sessions64[&id],
            };
            SessionColumns::build(sessions, level, &sources, &packets[&id])
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
            let prefix_len = capture.config().prefix.len();
            sessions128[id][r.clone()]
                .iter()
                .map(|s| addr_selection(s, capture, prefix_len))
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

    fn build_source_table(
        result: &ExperimentResult,
        all128: InternTable<SourceKey>,
        all64: InternTable<SourceKey>,
    ) -> SourceTable {
        let mut asn_by_subnet: PrefixTrie<u32> = PrefixTrie::new();
        for scanner in &result.population.scanners {
            asn_by_subnet.insert(scanner.source.subnet(), scanner.asn.get());
        }
        // Deterministic final id assignment: ascending key order, exactly
        // the order a `BTreeSet` union would have yielded (DESIGN.md §11).
        let (keys128, _) = all128.sorted_remap();
        let (keys64, _) = all64.sorted_remap();
        // Re-intern the sorted keys so hash lookups return sorted ids.
        let mut lookup128 = InternTable::with_capacity(keys128.len());
        for &k in &keys128 {
            lookup128.insert(k);
        }
        let mut lookup64 = InternTable::with_capacity(keys64.len());
        for &k in &keys64 {
            lookup64.insert(k);
        }
        let mut asn128 = Vec::with_capacity(keys128.len());
        let mut info_asn128 = Vec::with_capacity(keys128.len());
        let mut country_names = Vec::with_capacity(keys128.len());
        let mut country_set: BTreeSet<String> = BTreeSet::new();
        for key in &keys128 {
            let addr = key.prefix.network();
            let asn = asn_by_subnet.lookup(addr).map(|(_, &a)| a);
            asn128.push(asn.unwrap_or(NO_ID));
            let info = asn.and_then(|a| result.population.as_info(sixscope_types::Asn(a)));
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
        SourceTable {
            keys128,
            keys64,
            lookup128,
            lookup64,
            asn128,
            info_asn128,
            country128,
            countries,
        }
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
    fn push_range_panics_on_out_of_order_chunks() {
        let packet = |t: u64| sixscope_telescope::CapturedPacket {
            ts: SimTime::from_secs(t),
            telescope: TelescopeId::T1,
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
        let compiled = CompiledVisibility::compile(&sixscope_sim::Visibility::from_events(&[]));
        let mut shard = IndexShard::new();
        shard.push_range(&capture, 0..2, &compiled);
        assert_eq!(shard.len(), 2);
        // The next chunk starts before the shard's last packet.
        shard.push_range(&capture, 2..3, &compiled);
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
