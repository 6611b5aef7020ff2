//! The `.sixshard` wire format — federated scatter/gather for the corpus
//! (DESIGN.md §13).
//!
//! One shard file carries everything one worker learned from one
//! telescope's packets: the capture itself, ingest statistics, both
//! session lists and the [`IndexShard`] columns, so a coordinator can
//! [`merge_experiment`] N files into the exact corpus a single process
//! would have built. The format is sectioned (magic + version + section
//! table), little-endian throughout, and canonical: encoding a shard twice
//! yields identical bytes.
//!
//! Shard files are **untrusted input**, like pcaps. Every length prefix is
//! bounds-checked against the bytes actually present before anything is
//! allocated (mirroring the pcap reader's [`MAX_RECORD_LEN`] discipline),
//! and every derived column is validated against recomputation from the
//! embedded capture, so a decoded shard upholds the same invariants as one
//! built in-process — downstream analysis cannot be driven into a panic by
//! a damaged or hostile file. All violations surface as [`ShardError`]
//! wrapped in [`Error::Shard`] (CLI exit code 7).
//!
//! # Id-remap contract
//!
//! Interned *source* tables are written in [`InternTable::sorted_keys`]
//! order — canonical, and safe because the final merge re-sorts the union
//! before assigning global ids. The interned *prefix* table is written in
//! first-encounter order instead: the prefix column stores ids into that
//! table, and [`IndexShard::try_absorb`] remaps them on merge, which
//! reproduces the global first-encounter order only if each shard preserves
//! its local one. The decoder enforces this (ids must first appear in
//! ascending order and cover the table), which also makes the encoding
//! canonical.

use crate::corpus::{Analyzed, StreamSettings};
use crate::error::Error;
use crate::index::{encode_port, proto_code, IndexShard, NO_ID, PORT_NONE};
use crate::pipeline::{ConsumedFeed, FeedConsumer};
use sixscope_analysis::addrtype::classify;
use sixscope_packet::MAX_RECORD_LEN;
use sixscope_sim::{CompiledVisibility, ExperimentResult};
use sixscope_telescope::{
    AggLevel, Bytes, Capture, CapturedPacket, IngestStats, Protocol, ScanSession, SessionStitcher,
    SourceKey, TelescopeConfig, TelescopeId, TelescopeKind, SESSION_TIMEOUT,
};
use sixscope_types::{chunk_ranges, num_threads, InternTable, Ipv6Prefix, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// File magic: the first eight bytes of every `.sixshard` file.
pub const MAGIC: [u8; 8] = *b"SIXSHARD";

/// Current format version. Decoders reject other versions outright
/// (DESIGN.md §13 versioning rule: the format is rewritten, never patched
/// in place — a version bump is a new format).
pub const FORMAT_VERSION: u32 = 1;

/// Section tags, in the exact order they must appear in the section table.
const SECTION_TAGS: [(u32, &str); 9] = [
    (1, "config"),
    (2, "stats"),
    (3, "capture"),
    (4, "sources128"),
    (5, "sources64"),
    (6, "prefixes"),
    (7, "columns"),
    (8, "sessions128"),
    (9, "sessions64"),
];

/// Why a `.sixshard` file failed to decode.
#[derive(Debug)]
pub enum ShardError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// A section needed more bytes than the file holds.
    Truncated {
        /// The section being decoded.
        section: &'static str,
        /// Bytes the decoder needed.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// A count field implies more elements than the remaining bytes can
    /// possibly hold (rejected *before* allocating).
    Oversized {
        /// The section being decoded.
        section: &'static str,
        /// The claimed element count.
        count: u64,
        /// The maximum the remaining bytes could hold.
        limit: u64,
    },
    /// A structural invariant of the format is violated.
    Corrupt {
        /// The section being decoded.
        section: &'static str,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::BadMagic => write!(f, "not a sixshard file (bad magic)"),
            ShardError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported shard format version {v} (expected {FORMAT_VERSION})"
                )
            }
            ShardError::Truncated {
                section,
                needed,
                available,
            } => write!(
                f,
                "truncated {section} section: needed {needed} bytes, {available} available"
            ),
            ShardError::Oversized {
                section,
                count,
                limit,
            } => write!(
                f,
                "oversized {section} section: claims {count} elements, at most {limit} fit"
            ),
            ShardError::Corrupt { section, detail } => {
                write!(f, "corrupt {section} section: {detail}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// One telescope's complete shard: the decoded (or to-be-encoded) contents
/// of a `.sixshard` file.
#[derive(Debug)]
pub struct TelescopeShard {
    /// The capture — config, packets in time order, filter counters.
    pub capture: Capture,
    /// The session timeout the sessions below were built with; every shard
    /// of a merge must agree.
    pub session_timeout: SimDuration,
    /// Ingest recovery statistics of the worker's pcap reads.
    pub stats: IngestStats,
    /// Scan sessions at /128 over this shard's packets (local indices).
    pub sessions128: Vec<ScanSession>,
    /// Scan sessions at /64 over this shard's packets (local indices).
    pub sessions64: Vec<ScanSession>,
    /// The columnar index piece over this shard's packets.
    pub index: IndexShard,
}

// ---------------------------------------------------------------------------
// Encoding

/// Little-endian byte sink with the format's primitive writers.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn prefix(&mut self, p: Ipv6Prefix) {
        self.u128(p.bits());
        self.u8(p.len());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

fn telescope_code(id: TelescopeId) -> u8 {
    match id {
        TelescopeId::T1 => 0,
        TelescopeId::T2 => 1,
        TelescopeId::T3 => 2,
        TelescopeId::T4 => 3,
    }
}

fn kind_code(kind: TelescopeKind) -> u8 {
    match kind {
        TelescopeKind::Passive => 0,
        TelescopeKind::PartiallyProductive => 1,
        TelescopeKind::Silent => 2,
        TelescopeKind::Reactive => 3,
    }
}

fn encode_config(shard: &TelescopeShard) -> Vec<u8> {
    let config = shard.capture.config();
    let mut e = Enc::default();
    e.u8(telescope_code(config.id));
    e.u8(kind_code(config.kind));
    e.prefix(config.prefix);
    e.u8(config.separately_announced as u8);
    match config.dns_exposed {
        Some(addr) => {
            e.u8(1);
            e.u128(u128::from(addr));
        }
        None => e.u8(0),
    }
    match config.productive_subnet {
        Some(p) => {
            e.u8(1);
            e.prefix(p);
        }
        None => e.u8(0),
    }
    e.u64(shard.session_timeout.as_secs());
    e.buf
}

fn encode_stats(shard: &TelescopeShard) -> Vec<u8> {
    let s = &shard.stats;
    let mut e = Enc::default();
    e.u64(s.records_read);
    e.u64(s.parsed);
    e.u64(s.filtered);
    e.u64(s.malformed_packets);
    e.u32(s.skipped.len() as u32);
    for &n in &s.skipped {
        e.u64(n);
    }
    e.u8(s.truncated_tail as u8);
    e.u64(shard.capture.filtered());
    e.u64(shard.capture.malformed());
    e.buf
}

fn encode_capture(shard: &TelescopeShard) -> Vec<u8> {
    let mut e = Enc::default();
    let packets = shard.capture.packets();
    e.u64(packets.len() as u64);
    for p in packets {
        e.u64(p.ts.as_secs());
        e.u128(u128::from(p.src));
        e.u128(u128::from(p.dst));
        e.u8(proto_code(p.protocol));
        match p.src_port {
            Some(port) => {
                e.u8(1);
                e.u16(port);
            }
            None => e.u8(0),
        }
        match p.dst_port {
            Some(port) => {
                e.u8(1);
                e.u16(port);
            }
            None => e.u8(0),
        }
        e.u32(p.payload.len() as u32);
        e.bytes(&p.payload);
    }
    e.buf
}

fn encode_sources(keys: Vec<SourceKey>) -> Vec<u8> {
    let mut e = Enc::default();
    e.u64(keys.len() as u64);
    for key in keys {
        e.prefix(key.prefix);
    }
    e.buf
}

fn encode_prefixes(table: &InternTable<Ipv6Prefix>) -> Vec<u8> {
    let mut e = Enc::default();
    e.u64(table.len() as u64);
    for &p in table.keys() {
        e.prefix(p);
    }
    e.buf
}

fn encode_columns(index: &IndexShard) -> Vec<u8> {
    let n = index.ts.len();
    let mut e = Enc::default();
    e.u64(n as u64);
    // Each column is length-prefixed in bytes so a reader can skip or
    // bounds-check it without knowing the element layout.
    e.u64((n * 8) as u64);
    for &t in &index.ts {
        e.u64(t.as_secs());
    }
    e.u64((n * 16) as u64);
    for &s in &index.src {
        e.u128(s);
    }
    e.u64(n as u64);
    e.bytes(&index.class);
    e.u64(n as u64);
    e.bytes(&index.proto);
    e.u64((n * 4) as u64);
    for &p in &index.port {
        e.u32(p);
    }
    e.u64((n * 4) as u64);
    for &w in &index.week {
        e.u32(w);
    }
    e.u64((n * 4) as u64);
    for &d in &index.day {
        e.u32(d);
    }
    e.u64((n * 16) as u64);
    for &d in &index.dst {
        e.u128(d);
    }
    e.u64((n * 4) as u64);
    for &p in &index.prefix {
        e.u32(p);
    }
    e.buf
}

fn encode_sessions(sessions: &[ScanSession]) -> Vec<u8> {
    let mut e = Enc::default();
    e.u64(sessions.len() as u64);
    for s in sessions {
        e.prefix(s.source.prefix);
        e.u64(s.start.as_secs());
        e.u64(s.end.as_secs());
        e.u32(s.packet_indices.len() as u32);
        for &i in &s.packet_indices {
            e.u32(i);
        }
    }
    e.buf
}

/// Encodes a shard into the canonical `.sixshard` byte representation.
pub fn encode_shard(shard: &TelescopeShard) -> Vec<u8> {
    let sections = [
        encode_config(shard),
        encode_stats(shard),
        encode_capture(shard),
        encode_sources(shard.index.sources128.sorted_keys()),
        encode_sources(shard.index.sources64.sorted_keys()),
        encode_prefixes(&shard.index.prefix_ids),
        encode_columns(&shard.index),
        encode_sessions(&shard.sessions128),
        encode_sessions(&shard.sessions64),
    ];
    let mut out = Enc::default();
    out.bytes(&MAGIC);
    out.u32(FORMAT_VERSION);
    out.u32(sections.len() as u32);
    for ((tag, _), body) in SECTION_TAGS.iter().zip(&sections) {
        out.u32(*tag);
        out.u64(body.len() as u64);
    }
    for body in &sections {
        out.bytes(body);
    }
    out.buf
}

// ---------------------------------------------------------------------------
// Decoding

/// Bounds-checked little-endian reader over one section's bytes. Every
/// read goes through [`Cursor::take`], which fails with
/// [`ShardError::Truncated`] instead of slicing out of range.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], section: &'static str) -> Self {
        Cursor {
            buf,
            pos: 0,
            section,
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ShardError> {
        if n > self.remaining() {
            return Err(ShardError::Truncated {
                section: self.section,
                needed: n as u64,
                available: self.remaining() as u64,
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ShardError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, ShardError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, ShardError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, ShardError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn u128(&mut self) -> Result<u128, ShardError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    fn flag(&mut self, what: &str) -> Result<bool, ShardError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.corrupt(format!("{what} flag must be 0 or 1, got {other}"))),
        }
    }

    /// Canonical prefix: host bits below the mask must already be zero.
    fn prefix(&mut self) -> Result<Ipv6Prefix, ShardError> {
        let bits = self.u128()?;
        let len = self.u8()?;
        let p = Ipv6Prefix::from_bits(bits, len)
            .map_err(|e| self.corrupt(format!("bad prefix: {e}")))?;
        if p.bits() != bits {
            return Err(self.corrupt(format!("prefix {p} has nonzero host bits")));
        }
        Ok(p)
    }

    /// Reads a `u64` element count and rejects it *before allocation* if
    /// the remaining bytes cannot hold `count * min_elem` bytes.
    fn count(&mut self, min_elem: usize) -> Result<usize, ShardError> {
        let count = self.u64()?;
        let limit = (self.remaining() / min_elem.max(1)) as u64;
        if count > limit {
            return Err(ShardError::Oversized {
                section: self.section,
                count,
                limit,
            });
        }
        Ok(count as usize)
    }

    fn corrupt(&self, detail: String) -> ShardError {
        ShardError::Corrupt {
            section: self.section,
            detail,
        }
    }

    /// Canonical encodings leave no trailing bytes in a section.
    fn done(&self) -> Result<(), ShardError> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format!(
                "{} trailing bytes after the last field",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn decode_telescope(code: u8, c: &Cursor<'_>) -> Result<TelescopeId, ShardError> {
    match code {
        0 => Ok(TelescopeId::T1),
        1 => Ok(TelescopeId::T2),
        2 => Ok(TelescopeId::T3),
        3 => Ok(TelescopeId::T4),
        other => Err(c.corrupt(format!("unknown telescope id code {other}"))),
    }
}

fn decode_kind(code: u8, c: &Cursor<'_>) -> Result<TelescopeKind, ShardError> {
    match code {
        0 => Ok(TelescopeKind::Passive),
        1 => Ok(TelescopeKind::PartiallyProductive),
        2 => Ok(TelescopeKind::Silent),
        3 => Ok(TelescopeKind::Reactive),
        other => Err(c.corrupt(format!("unknown telescope kind code {other}"))),
    }
}

fn decode_protocol(code: u8, c: &Cursor<'_>) -> Result<Protocol, ShardError> {
    match code {
        0 => Ok(Protocol::Icmpv6),
        1 => Ok(Protocol::Tcp),
        2 => Ok(Protocol::Udp),
        3 => Ok(Protocol::Other),
        other => Err(c.corrupt(format!("unknown protocol code {other}"))),
    }
}

fn decode_config(buf: &[u8]) -> Result<(TelescopeConfig, SimDuration), ShardError> {
    let mut c = Cursor::new(buf, "config");
    let id = decode_telescope(c.u8()?, &c)?;
    let kind = decode_kind(c.u8()?, &c)?;
    let prefix = c.prefix()?;
    let separately_announced = c.flag("separately_announced")?;
    let dns_exposed = if c.flag("dns_exposed")? {
        Some(Ipv6Addr::from(c.u128()?))
    } else {
        None
    };
    let productive_subnet = if c.flag("productive_subnet")? {
        Some(c.prefix()?)
    } else {
        None
    };
    let timeout = SimDuration::secs(c.u64()?);
    c.done()?;
    Ok((
        TelescopeConfig {
            id,
            kind,
            prefix,
            separately_announced,
            dns_exposed,
            productive_subnet,
        },
        timeout,
    ))
}

/// Capture-level counters riding in the stats section.
struct CaptureCounters {
    filtered: u64,
    malformed: u64,
}

fn decode_stats(buf: &[u8]) -> Result<(IngestStats, CaptureCounters), ShardError> {
    let mut c = Cursor::new(buf, "stats");
    let mut stats = IngestStats {
        records_read: c.u64()?,
        parsed: c.u64()?,
        filtered: c.u64()?,
        malformed_packets: c.u64()?,
        ..IngestStats::default()
    };
    let reasons = c.u32()? as usize;
    if reasons != stats.skipped.len() {
        return Err(c.corrupt(format!(
            "expected {} skip reasons, got {reasons}",
            stats.skipped.len()
        )));
    }
    for slot in stats.skipped.iter_mut() {
        *slot = c.u64()?;
    }
    stats.truncated_tail = c.flag("truncated_tail")?;
    let counters = CaptureCounters {
        filtered: c.u64()?,
        malformed: c.u64()?,
    };
    c.done()?;
    Ok((stats, counters))
}

/// Minimum encoded size of one capture packet (empty payload).
const MIN_PACKET_LEN: usize = 8 + 16 + 16 + 1 + 1 + 1 + 4;

fn decode_capture(buf: &[u8], id: TelescopeId) -> Result<Vec<CapturedPacket>, ShardError> {
    let mut c = Cursor::new(buf, "capture");
    let n = c.count(MIN_PACKET_LEN)?;
    let mut packets = Vec::with_capacity(n);
    let mut last = SimTime::EPOCH;
    for i in 0..n {
        let ts = SimTime::from_secs(c.u64()?);
        if ts < last {
            return Err(c.corrupt(format!(
                "packet {i} at t={} precedes its predecessor at t={}",
                ts.as_secs(),
                last.as_secs()
            )));
        }
        last = ts;
        let src = Ipv6Addr::from(c.u128()?);
        let dst = Ipv6Addr::from(c.u128()?);
        let protocol = decode_protocol(c.u8()?, &c)?;
        let src_port = if c.flag("src_port")? {
            Some(c.u16()?)
        } else {
            None
        };
        let dst_port = if c.flag("dst_port")? {
            Some(c.u16()?)
        } else {
            None
        };
        let payload_len = c.u32()?;
        if payload_len > MAX_RECORD_LEN {
            return Err(c.corrupt(format!(
                "packet {i} payload of {payload_len} bytes exceeds the {MAX_RECORD_LEN}-byte cap"
            )));
        }
        let payload = Bytes::copy_from_slice(c.take(payload_len as usize)?);
        packets.push(CapturedPacket {
            ts,
            telescope: id,
            src,
            dst,
            protocol,
            src_port,
            dst_port,
            payload,
        });
    }
    c.done()?;
    Ok(packets)
}

/// Encoded size of one source entry (prefix bits + length).
const SOURCE_ENTRY_LEN: usize = 17;

fn decode_sources(
    buf: &[u8],
    section: &'static str,
    level: AggLevel,
) -> Result<Vec<SourceKey>, ShardError> {
    let mut c = Cursor::new(buf, section);
    let n = c.count(SOURCE_ENTRY_LEN)?;
    let mut keys: Vec<SourceKey> = Vec::with_capacity(n);
    for i in 0..n {
        let prefix = c.prefix()?;
        if prefix.len() != level.bits() {
            return Err(c.corrupt(format!(
                "source {i} has length /{}, expected /{}",
                prefix.len(),
                level.bits()
            )));
        }
        let key = SourceKey { prefix };
        if let Some(prev) = keys.last() {
            if *prev >= key {
                return Err(c.corrupt(format!("source {i} breaks strict ascending order")));
            }
        }
        keys.push(key);
    }
    c.done()?;
    Ok(keys)
}

fn decode_prefixes(buf: &[u8]) -> Result<Vec<Ipv6Prefix>, ShardError> {
    let mut c = Cursor::new(buf, "prefixes");
    let n = c.count(SOURCE_ENTRY_LEN)?;
    let mut prefixes = Vec::with_capacity(n);
    for _ in 0..n {
        prefixes.push(c.prefix()?);
    }
    let mut sorted = prefixes.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != prefixes.len() {
        return Err(c.corrupt("duplicate entries in the prefix table".into()));
    }
    c.done()?;
    Ok(prefixes)
}

/// The decoded columns section, still unvalidated against the capture.
struct RawColumns {
    ts: Vec<SimTime>,
    src: Vec<u128>,
    class: Vec<u8>,
    proto: Vec<u8>,
    port: Vec<u32>,
    week: Vec<u32>,
    day: Vec<u32>,
    dst: Vec<u128>,
    prefix: Vec<u32>,
}

fn column_bytes<'a>(
    c: &mut Cursor<'a>,
    n: usize,
    elem: usize,
    name: &str,
) -> Result<&'a [u8], ShardError> {
    let len = c.u64()?;
    let expected = (n * elem) as u64;
    if len != expected {
        return Err(c.corrupt(format!(
            "{name} column claims {len} bytes, expected {expected} ({n} × {elem})"
        )));
    }
    c.take(len as usize)
}

fn decode_columns(buf: &[u8], packets: usize) -> Result<RawColumns, ShardError> {
    let mut c = Cursor::new(buf, "columns");
    let n = c.u64()? as usize;
    if n != packets {
        return Err(c.corrupt(format!(
            "column length {n} disagrees with the capture's {packets} packets"
        )));
    }
    let ts = column_bytes(&mut c, n, 8, "ts")?
        .chunks_exact(8)
        .map(|b| SimTime::from_secs(u64::from_le_bytes(b.try_into().unwrap())))
        .collect();
    let src = column_bytes(&mut c, n, 16, "src")?
        .chunks_exact(16)
        .map(|b| u128::from_le_bytes(b.try_into().unwrap()))
        .collect();
    let class = column_bytes(&mut c, n, 1, "class")?.to_vec();
    let proto = column_bytes(&mut c, n, 1, "proto")?.to_vec();
    let u32s = |b: &[u8]| -> Vec<u32> {
        b.chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .collect()
    };
    let port = u32s(column_bytes(&mut c, n, 4, "port")?);
    let week = u32s(column_bytes(&mut c, n, 4, "week")?);
    let day = u32s(column_bytes(&mut c, n, 4, "day")?);
    let dst = column_bytes(&mut c, n, 16, "dst")?
        .chunks_exact(16)
        .map(|b| u128::from_le_bytes(b.try_into().unwrap()))
        .collect();
    let prefix = u32s(column_bytes(&mut c, n, 4, "prefix")?);
    c.done()?;
    Ok(RawColumns {
        ts,
        src,
        class,
        proto,
        port,
        week,
        day,
        dst,
        prefix,
    })
}

/// Minimum encoded size of one session (one packet index).
const MIN_SESSION_LEN: usize = 17 + 8 + 8 + 4 + 4;

fn decode_sessions(
    buf: &[u8],
    section: &'static str,
    level: AggLevel,
    id: TelescopeId,
    ts: &[SimTime],
    sources: &InternTable<SourceKey>,
) -> Result<Vec<ScanSession>, ShardError> {
    let mut c = Cursor::new(buf, section);
    let n = c.count(MIN_SESSION_LEN)?;
    let mut sessions: Vec<ScanSession> = Vec::with_capacity(n);
    for i in 0..n {
        let prefix = c.prefix()?;
        if prefix.len() != level.bits() {
            return Err(c.corrupt(format!(
                "session {i} source has length /{}, expected /{}",
                prefix.len(),
                level.bits()
            )));
        }
        let source = SourceKey { prefix };
        if sources.get(&source).is_none() {
            return Err(c.corrupt(format!(
                "session {i} source {source} does not appear in the capture"
            )));
        }
        let start = SimTime::from_secs(c.u64()?);
        let end = SimTime::from_secs(c.u64()?);
        if let Some(prev) = sessions.last() {
            if start < prev.start {
                return Err(c.corrupt(format!(
                    "session {i} starts before its predecessor (sessions must be \
                     in start order)"
                )));
            }
        }
        let npkts = c.u32()? as usize;
        if npkts == 0 {
            return Err(c.corrupt(format!("session {i} has no packets")));
        }
        if npkts > c.remaining() / 4 {
            return Err(ShardError::Oversized {
                section,
                count: npkts as u64,
                limit: (c.remaining() / 4) as u64,
            });
        }
        let mut packet_indices = Vec::with_capacity(npkts);
        for _ in 0..npkts {
            let idx = c.u32()?;
            if idx as usize >= ts.len() {
                return Err(c.corrupt(format!(
                    "session {i} references packet {idx} of a {}-packet capture",
                    ts.len()
                )));
            }
            if let Some(&prev) = packet_indices.last() {
                if idx <= prev {
                    return Err(c.corrupt(format!(
                        "session {i} packet indices are not strictly increasing"
                    )));
                }
            }
            packet_indices.push(idx);
        }
        if start != ts[packet_indices[0] as usize] {
            return Err(c.corrupt(format!(
                "session {i} start does not match its first packet's timestamp"
            )));
        }
        if end != ts[*packet_indices.last().expect("npkts >= 1") as usize] {
            return Err(c.corrupt(format!(
                "session {i} end does not match its last packet's timestamp"
            )));
        }
        sessions.push(ScanSession {
            source,
            telescope: id,
            start,
            end,
            packet_indices,
        });
    }
    c.done()?;
    Ok(sessions)
}

/// Rebuilds the index shard from the validated capture and wire data, and
/// cross-checks every derived column against recomputation — the decoded
/// shard is exactly what [`IndexShard::push_range`] would have produced,
/// so downstream merge/finalize invariants hold unconditionally.
fn rebuild_index(
    packets: &[CapturedPacket],
    cols: RawColumns,
    prefixes: Vec<Ipv6Prefix>,
    wire128: &[SourceKey],
    wire64: &[SourceKey],
) -> Result<IndexShard, ShardError> {
    let c = Cursor::new(&[], "columns");
    let mut sources128: InternTable<SourceKey> = InternTable::new();
    let mut sources64: InternTable<SourceKey> = InternTable::new();
    for (i, p) in packets.iter().enumerate() {
        sources128.insert(SourceKey::new(p.src, AggLevel::Addr128));
        sources64.insert(SourceKey::new(p.src, AggLevel::Subnet64));
        if cols.ts[i] != p.ts {
            return Err(c.corrupt(format!("ts column disagrees with packet {i}")));
        }
        if cols.src[i] != u128::from(p.src) {
            return Err(c.corrupt(format!("src column disagrees with packet {i}")));
        }
        if cols.class[i] != classify(p.dst).code() {
            return Err(c.corrupt(format!("class column disagrees with packet {i}")));
        }
        if cols.proto[i] != proto_code(p.protocol) {
            return Err(c.corrupt(format!("proto column disagrees with packet {i}")));
        }
        let port = match (p.protocol, p.dst_port) {
            (Protocol::Tcp, Some(port)) => {
                encode_port(sixscope_types::ports::PortLabel::classify_tcp(port))
            }
            (Protocol::Udp, Some(port)) => {
                encode_port(sixscope_types::ports::PortLabel::classify_udp(port))
            }
            _ => PORT_NONE,
        };
        if cols.port[i] != port {
            return Err(c.corrupt(format!("port column disagrees with packet {i}")));
        }
        if cols.week[i] != p.ts.week() as u32 {
            return Err(c.corrupt(format!("week column disagrees with packet {i}")));
        }
        if cols.day[i] != p.ts.day() as u32 {
            return Err(c.corrupt(format!("day column disagrees with packet {i}")));
        }
        if cols.dst[i] != u128::from(p.dst) {
            return Err(c.corrupt(format!("dst column disagrees with packet {i}")));
        }
    }
    // The wire source tables (sorted) must be exactly the packet key sets.
    if sources128.sorted_keys() != wire128 {
        return Err(c.corrupt("sources128 table disagrees with the capture's source set".into()));
    }
    if sources64.sorted_keys() != wire64 {
        return Err(c.corrupt("sources64 table disagrees with the capture's source set".into()));
    }
    // The prefix column is the one non-recomputable column (it encodes the
    // writer's visibility LPM): bounds-check every id and require ids to
    // first appear in ascending order covering the table — the
    // first-encounter discipline [`IndexShard::try_absorb`]'s remap relies
    // on, and the property that makes the encoding canonical.
    let mut seen = vec![false; prefixes.len()];
    let mut next = 0u32;
    for (i, &id) in cols.prefix.iter().enumerate() {
        if id == NO_ID {
            continue;
        }
        if id as usize >= prefixes.len() {
            return Err(c.corrupt(format!(
                "prefix column entry {i} references id {id} of a {}-entry table",
                prefixes.len()
            )));
        }
        if !seen[id as usize] {
            if id != next {
                return Err(c.corrupt(format!(
                    "prefix id {id} first appears out of first-encounter order"
                )));
            }
            seen[id as usize] = true;
            next += 1;
        }
    }
    if (next as usize) != prefixes.len() {
        return Err(c.corrupt(format!(
            "{} prefix table entries are never referenced",
            prefixes.len() - next as usize
        )));
    }
    Ok(IndexShard {
        sources128,
        sources64,
        ts: cols.ts,
        src: cols.src,
        class: cols.class,
        proto: cols.proto,
        port: cols.port,
        week: cols.week,
        day: cols.day,
        dst: cols.dst,
        prefix: cols.prefix,
        prefix_ids: InternTable::from_keys(prefixes),
    })
}

/// Decodes a `.sixshard` byte buffer into a fully validated shard.
pub fn decode_shard(bytes: &[u8]) -> Result<TelescopeShard, ShardError> {
    let mut header = Cursor::new(bytes, "header");
    if header.take(MAGIC.len()).map_err(|_| ShardError::BadMagic)? != MAGIC {
        return Err(ShardError::BadMagic);
    }
    let version = header.u32()?;
    if version != FORMAT_VERSION {
        return Err(ShardError::UnsupportedVersion(version));
    }
    let count = header.u32()? as usize;
    if count != SECTION_TAGS.len() {
        return Err(header.corrupt(format!(
            "expected {} sections, got {count}",
            SECTION_TAGS.len()
        )));
    }
    let mut lens = [0u64; SECTION_TAGS.len()];
    for (i, (tag, name)) in SECTION_TAGS.iter().enumerate() {
        let got = header.u32()?;
        if got != *tag {
            return Err(header.corrupt(format!(
                "section {i} has tag {got}, expected {tag} ({name})"
            )));
        }
        lens[i] = header.u64()?;
    }
    let mut total: u64 = 0;
    for &len in &lens {
        total = total
            .checked_add(len)
            .ok_or_else(|| header.corrupt("section lengths overflow".into()))?;
    }
    if total != header.remaining() as u64 {
        return Err(ShardError::Truncated {
            section: "payload",
            needed: total,
            available: header.remaining() as u64,
        });
    }
    let mut bodies: Vec<&[u8]> = Vec::with_capacity(SECTION_TAGS.len());
    for &len in &lens {
        bodies.push(header.take(len as usize)?);
    }

    let (config, session_timeout) = decode_config(bodies[0])?;
    let (stats, counters) = decode_stats(bodies[1])?;
    let packets = decode_capture(bodies[2], config.id)?;
    let wire128 = decode_sources(bodies[3], "sources128", AggLevel::Addr128)?;
    let wire64 = decode_sources(bodies[4], "sources64", AggLevel::Subnet64)?;
    let prefixes = decode_prefixes(bodies[5])?;
    let cols = decode_columns(bodies[6], packets.len())?;
    let index = rebuild_index(&packets, cols, prefixes, &wire128, &wire64)?;
    let sessions128 = decode_sessions(
        bodies[7],
        "sessions128",
        AggLevel::Addr128,
        config.id,
        &index.ts,
        &index.sources128,
    )?;
    let sessions64 = decode_sessions(
        bodies[8],
        "sessions64",
        AggLevel::Subnet64,
        config.id,
        &index.ts,
        &index.sources64,
    )?;
    let capture = Capture::restore(config, packets, counters.filtered, counters.malformed);
    Ok(TelescopeShard {
        capture,
        session_timeout,
        stats,
        sessions128,
        sessions64,
        index,
    })
}

// ---------------------------------------------------------------------------
// File I/O

/// Reads and validates one shard file.
pub fn read_shard<P: AsRef<Path>>(path: P) -> Result<TelescopeShard, Error> {
    let path = path.as_ref();
    let display = path.display().to_string();
    let bytes = std::fs::read(path).map_err(|source| Error::Io {
        path: display.clone(),
        source,
    })?;
    decode_shard(&bytes).map_err(|source| Error::Shard {
        path: display,
        source,
    })
}

/// Writes one shard file.
pub fn write_shard<P: AsRef<Path>>(path: P, shard: &TelescopeShard) -> Result<(), Error> {
    let path = path.as_ref();
    std::fs::write(path, encode_shard(shard)).map_err(|source| Error::Io {
        path: path.display().to_string(),
        source,
    })
}

// ---------------------------------------------------------------------------
// Scatter / gather

/// Shard files grouped by telescope, each group in path order, with every
/// file labelled by its path.
type ShardGroups = BTreeMap<TelescopeId, Vec<(String, TelescopeShard)>>;

/// Reads shard files and groups them by telescope, each group in path
/// order. Also returns each file's ingest statistics, in path order.
pub(crate) fn read_shard_groups(
    paths: &[PathBuf],
) -> Result<(ShardGroups, Vec<(String, IngestStats)>), Error> {
    let mut groups = ShardGroups::new();
    let mut file_stats = Vec::with_capacity(paths.len());
    for path in paths {
        let display = path.display().to_string();
        let shard = read_shard(path)?;
        file_stats.push((display.clone(), shard.stats.clone()));
        groups
            .entry(shard.capture.config().id)
            .or_default()
            .push((display, shard));
    }
    Ok((groups, file_stats))
}

/// One telescope's shards merged back together.
#[derive(Debug)]
pub(crate) struct MergedTelescope {
    pub capture: Capture,
    pub stats: IngestStats,
    pub feed: ConsumedFeed,
}

/// Merges one telescope's shards, in the order given (which must be
/// capture order). Configs and session timeouts must agree across the
/// group; out-of-order shards yield [`Error::Analysis`].
pub(crate) fn merge_group(shards: Vec<(String, TelescopeShard)>) -> Result<MergedTelescope, Error> {
    let first = &shards.first().expect("merge_group requires shards").1;
    let config = first.capture.config().clone();
    let timeout = first.session_timeout;
    for (name, shard) in &shards {
        if *shard.capture.config() != config {
            return Err(Error::Analysis(format!(
                "shard {name} was captured under a different telescope \
                 configuration than the group's first shard"
            )));
        }
        if shard.session_timeout != timeout {
            return Err(Error::Analysis(format!(
                "shard {name} was sessionized with timeout {} but the group \
                 uses {}",
                shard.session_timeout, timeout
            )));
        }
    }
    let mut index = IndexShard::new();
    let mut stats = IngestStats::default();
    let mut st128 = SessionStitcher::new(timeout);
    let mut st64 = SessionStitcher::new(timeout);
    let mut packets = Vec::new();
    let mut filtered = 0u64;
    let mut malformed = 0u64;
    for (name, shard) in shards {
        index.try_absorb(shard.index).map_err(|e| match e {
            Error::Analysis(msg) => Error::Analysis(format!("{msg} (at {name})")),
            other => other,
        })?;
        let piece = shard.capture.len() as u32;
        st128.absorb(shard.sessions128, piece);
        st64.absorb(shard.sessions64, piece);
        stats.absorb(&shard.stats);
        filtered += shard.capture.filtered();
        malformed += shard.capture.malformed();
        packets.extend(shard.capture.into_packets());
    }
    Ok(MergedTelescope {
        capture: Capture::restore(config, packets, filtered, malformed),
        stats,
        feed: ConsumedFeed {
            sessions128: st128.finish(),
            sessions64: st64.finish(),
            shard: index,
            ..ConsumedFeed::default()
        },
    })
}

/// Scatters a finished experiment into `pieces` shard files per telescope
/// under `dir`, named `{telescope}-{piece}.sixshard`. Returns the written
/// paths in merge order (telescopes in [`TelescopeId::ALL`] order, pieces
/// in capture order). The inverse of [`merge_experiment`]: merging the
/// returned files reproduces the corpus a single process builds from
/// `result`, byte for byte.
pub fn write_experiment_shards(
    result: &ExperimentResult,
    pieces: usize,
    dir: &Path,
) -> Result<Vec<PathBuf>, Error> {
    std::fs::create_dir_all(dir).map_err(|source| Error::Io {
        path: dir.display().to_string(),
        source,
    })?;
    let compiled = CompiledVisibility::compile(&result.visibility);
    let mut paths = Vec::new();
    for id in TelescopeId::ALL {
        let capture = &result.captures[&id];
        let mut ranges = chunk_ranges(capture.len(), pieces);
        if ranges.is_empty() {
            // Every telescope gets at least one (possibly empty) shard so
            // the merge sees its configuration.
            ranges.push(0..0);
        }
        for (k, range) in ranges.into_iter().enumerate() {
            // Capture-level counters ride on piece 0 only, so the merged
            // sums equal the original capture's counters.
            let (filtered, malformed) = if k == 0 {
                (capture.filtered(), capture.malformed())
            } else {
                (0, 0)
            };
            let mut piece = Capture::restore(
                capture.config().clone(),
                capture.packets()[range].to_vec(),
                filtered,
                malformed,
            );
            let mut consumer = FeedConsumer::new(0, &StreamSettings::default());
            consumer.consume(&piece, 0..piece.len(), &compiled);
            let fed = consumer.finish(&mut piece, &compiled);
            let shard = TelescopeShard {
                capture: piece,
                session_timeout: SESSION_TIMEOUT,
                stats: IngestStats::default(),
                sessions128: fed.sessions128,
                sessions64: fed.sessions64,
                index: fed.shard,
            };
            let path = dir.join(format!("{id}-{k}.sixshard"));
            write_shard(&path, &shard)?;
            paths.push(path);
        }
    }
    Ok(paths)
}

/// Gathers shard files back into an analyzed corpus, using `result` for
/// the simulation-side metadata (layout, schedule, population, hitlist,
/// visibility) and replacing its captures with the shard contents. All
/// four telescopes must be covered and each group's shards must arrive in
/// capture order. The corpus's `streaming` time is the read and merge of
/// the files.
pub fn merge_experiment(
    mut result: ExperimentResult,
    paths: &[PathBuf],
    threads: Option<usize>,
) -> Result<Analyzed, Error> {
    let merge_start = Instant::now();
    let (mut groups, _) = read_shard_groups(paths)?;
    let mut fed = BTreeMap::new();
    for id in TelescopeId::ALL {
        let group = groups
            .remove(&id)
            .ok_or_else(|| Error::Analysis(format!("no shard file covers telescope {id}")))?;
        let merged = merge_group(group)?;
        if *merged.capture.config() != *result.captures[&id].config() {
            return Err(Error::Analysis(format!(
                "telescope {id}'s shards disagree with the experiment's \
                 configuration"
            )));
        }
        result.captures.insert(id, merged.capture);
        fed.insert(id, merged.feed);
    }
    let streaming = merge_start.elapsed().as_secs_f64();
    Ok(Analyzed::gather(
        result,
        fed,
        num_threads(threads),
        streaming,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::passive_config;
    use sixscope_sim::Visibility;

    fn pkt(
        t: u64,
        src: &str,
        dst: &str,
        protocol: Protocol,
        dst_port: Option<u16>,
    ) -> CapturedPacket {
        CapturedPacket {
            ts: SimTime::from_secs(t),
            telescope: TelescopeId::T1,
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            protocol,
            src_port: dst_port.map(|p| p.wrapping_add(1000)),
            dst_port,
            payload: Bytes::copy_from_slice(&[0xab, t as u8]),
        }
    }

    /// Builds a shard from packets exactly as the ingest path does: one
    /// feed consumer over the whole capture.
    fn build(packets: Vec<CapturedPacket>) -> TelescopeShard {
        let capture = Capture::restore(passive_config(Ipv6Prefix::default_route()), packets, 2, 1);
        let compiled = CompiledVisibility::compile(&Visibility::from_events(&[]));
        let mut consumer = FeedConsumer::new(0, &StreamSettings::default());
        consumer.consume(&capture, 0..capture.len(), &compiled);
        let fed = consumer.finish_in_order();
        let stats = IngestStats {
            records_read: capture.len() as u64 + 3,
            parsed: capture.len() as u64,
            filtered: 2,
            malformed_packets: 1,
            truncated_tail: true,
            ..IngestStats::default()
        };
        TelescopeShard {
            capture,
            session_timeout: SESSION_TIMEOUT,
            stats,
            sessions128: fed.sessions128,
            sessions64: fed.sessions64,
            index: fed.shard,
        }
    }

    fn sample_packets() -> Vec<CapturedPacket> {
        vec![
            pkt(5, "2001:db8::1", "2400:1:2::9", Protocol::Icmpv6, None),
            pkt(100, "2001:db8::1", "2400:1:2::10", Protocol::Tcp, Some(443)),
            pkt(
                200,
                "2001:db8:0:2::1",
                "2400:1:2::11",
                Protocol::Udp,
                Some(53),
            ),
            pkt(5000, "2001:db8::1", "2400:1:2::12", Protocol::Other, None),
        ]
    }

    /// Byte offset of section `index` (0-based) in an encoded shard.
    fn section_offset(bytes: &[u8], index: usize) -> usize {
        let mut off = 16 + SECTION_TAGS.len() * 12;
        for i in 0..index {
            let at = 16 + i * 12 + 4;
            off += u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        }
        off
    }

    #[test]
    fn round_trip_preserves_everything_and_is_canonical() {
        let shard = build(sample_packets());
        let bytes = encode_shard(&shard);
        let decoded = decode_shard(&bytes).unwrap();
        assert_eq!(decoded.capture.config(), shard.capture.config());
        assert_eq!(decoded.capture.packets(), shard.capture.packets());
        assert_eq!(decoded.capture.filtered(), 2);
        assert_eq!(decoded.capture.malformed(), 1);
        assert_eq!(decoded.session_timeout, SESSION_TIMEOUT);
        assert_eq!(decoded.stats, shard.stats);
        assert_eq!(decoded.sessions128, shard.sessions128);
        assert_eq!(decoded.sessions64, shard.sessions64);
        // Canonical: re-encoding the decoded shard reproduces the bytes,
        // which also pins every index column (the encoding is injective).
        assert_eq!(encode_shard(&decoded), bytes);
    }

    #[test]
    fn empty_shard_round_trips() {
        let shard = build(Vec::new());
        let bytes = encode_shard(&shard);
        let decoded = decode_shard(&bytes).unwrap();
        assert_eq!(decoded.capture.len(), 0);
        assert_eq!(encode_shard(&decoded), bytes);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let bytes = encode_shard(&build(sample_packets()));
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(decode_shard(&bad), Err(ShardError::BadMagic)));
        let mut bumped = bytes;
        bumped[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            decode_shard(&bumped),
            Err(ShardError::UnsupportedVersion(2))
        ));
    }

    #[test]
    fn every_truncation_is_a_structured_error() {
        let bytes = encode_shard(&build(sample_packets()));
        for len in 0..bytes.len() {
            assert!(
                decode_shard(&bytes[..len]).is_err(),
                "a {len}-byte prefix of a {}-byte shard must not decode",
                bytes.len()
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_shard(&build(sample_packets()));
        bytes.push(0);
        assert!(decode_shard(&bytes).is_err());
    }

    #[test]
    fn oversized_counts_are_rejected_before_allocation() {
        let mut bytes = encode_shard(&build(sample_packets()));
        // The capture section (index 2) starts with its packet count;
        // claiming u64::MAX packets must fail before any allocation.
        let off = section_offset(&bytes, 2);
        bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_shard(&bytes),
            Err(ShardError::Oversized {
                section: "capture",
                ..
            })
        ));
    }

    #[test]
    fn out_of_order_packets_are_rejected() {
        let mut bytes = encode_shard(&build(sample_packets()));
        // Move the first packet's timestamp past the second's.
        let off = section_offset(&bytes, 2) + 8;
        bytes[off..off + 8].copy_from_slice(&9999u64.to_le_bytes());
        assert!(matches!(
            decode_shard(&bytes),
            Err(ShardError::Corrupt {
                section: "capture",
                ..
            })
        ));
    }

    #[test]
    fn merge_group_equals_single_process() {
        let packets = sample_packets();
        let whole = build(packets.clone());
        let first = build(packets[..2].to_vec());
        let second = build(packets[2..].to_vec());
        let merged = merge_group(vec![
            ("a.sixshard".into(), first),
            ("b.sixshard".into(), second),
        ])
        .unwrap();
        assert_eq!(merged.capture.packets(), whole.capture.packets());
        assert_eq!(merged.capture.filtered(), 4, "counters are summed");
        assert_eq!(merged.feed.sessions128, whole.sessions128);
        assert_eq!(merged.feed.sessions64, whole.sessions64);
        assert_eq!(
            encode_columns(&merged.feed.shard),
            encode_columns(&whole.index),
            "merged index columns must equal the single-process build"
        );
    }

    #[test]
    fn merge_group_rejects_out_of_order_and_mismatched_shards() {
        let packets = sample_packets();
        let first = build(packets[..2].to_vec());
        let second = build(packets[2..].to_vec());
        let err = merge_group(vec![
            ("b.sixshard".into(), second),
            ("a.sixshard".into(), first),
        ])
        .unwrap_err();
        assert!(matches!(err, Error::Analysis(_)));
        let msg = err.to_string();
        assert!(msg.contains("a.sixshard"), "{msg}");

        let first = build(packets[..2].to_vec());
        let mut second = build(packets[2..].to_vec());
        second.session_timeout = SimDuration::secs(1);
        let err = merge_group(vec![
            ("a.sixshard".into(), first),
            ("b.sixshard".into(), second),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("timeout"), "{err}");
    }
}
