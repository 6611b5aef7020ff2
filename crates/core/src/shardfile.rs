//! The `.sixshard` wire format — federated scatter/gather for the corpus
//! (DESIGN.md §13).
//!
//! One shard file carries what one worker read from one telescope's
//! packets: the telescope configuration, the ingest statistics and the
//! capture itself. Nothing derived from the packets is stored: the gather
//! concatenates each telescope's captures and builds sessions and index
//! columns through `Analyzed::stream`, the same feed consumer every
//! other input goes through, so a coordinator can [`merge_experiment`] N
//! files into the exact corpus a single process would have built. The
//! format is sectioned (magic + version + section table), little-endian
//! throughout, and canonical: encoding a shard twice yields identical
//! bytes.
//!
//! Shard files are **untrusted input**, like pcaps. Every length prefix is
//! bounds-checked against the bytes actually present before anything is
//! allocated (mirroring the pcap reader's [`MAX_RECORD_LEN`] discipline),
//! and every field is validated — known codes, canonical prefixes,
//! time-ordered packets — so downstream analysis cannot be driven into a
//! panic by a damaged or hostile file. All violations surface as
//! [`ShardError`] wrapped in [`Error::Shard`] (CLI exit code 7).

use crate::corpus::{Analyzed, StreamSettings};
use crate::error::Error;
use crate::index::proto_code;
use sixscope_packet::MAX_RECORD_LEN;
use sixscope_sim::ExperimentResult;
use sixscope_telescope::{
    Bytes, Capture, CapturedPacket, IngestStats, Protocol, TelescopeConfig, TelescopeId,
    TelescopeKind,
};
use sixscope_types::{chunk_ranges, Ipv6Prefix, SimTime};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// File magic: the first eight bytes of every `.sixshard` file.
pub const MAGIC: [u8; 8] = *b"SIXSHARD";

/// Current format version. Decoders reject other versions outright
/// (DESIGN.md §13 versioning rule: the format is rewritten, never patched
/// in place — a version bump is a new format).
pub const FORMAT_VERSION: u32 = 2;

/// Section tags, in the exact order they must appear in the section table.
const SECTION_TAGS: [(u32, &str); 3] = [(1, "config"), (2, "stats"), (3, "capture")];

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

/// One telescope's shard: the decoded (or to-be-encoded) contents of a
/// `.sixshard` file.
#[derive(Debug)]
pub struct TelescopeShard {
    /// The capture — config, packets in time order, filter counters.
    pub capture: Capture,
    /// Ingest recovery statistics of the worker's pcap reads.
    pub stats: IngestStats,
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

/// Encodes a shard into the canonical `.sixshard` byte representation.
pub fn encode_shard(shard: &TelescopeShard) -> Vec<u8> {
    let sections = [
        encode_config(shard),
        encode_stats(shard),
        encode_capture(shard),
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

fn decode_config(buf: &[u8]) -> Result<TelescopeConfig, ShardError> {
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
    c.done()?;
    Ok(TelescopeConfig {
        id,
        kind,
        prefix,
        separately_announced,
        dns_exposed,
        productive_subnet,
    })
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

    let config = decode_config(bodies[0])?;
    let (stats, counters) = decode_stats(bodies[1])?;
    let packets = decode_capture(bodies[2], config.id)?;
    let capture = Capture::restore(config, packets, counters.filtered, counters.malformed);
    Ok(TelescopeShard { capture, stats })
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

/// Every telescope covered by a set of shard files, gathered: one
/// concatenated capture per telescope, plus the ingest statistics summed
/// over all files and listed per file (in path order).
pub(crate) struct GatheredShards {
    pub captures: BTreeMap<TelescopeId, Capture>,
    pub stats: IngestStats,
    pub file_stats: Vec<(String, IngestStats)>,
}

/// Reads shard files, groups them by telescope in path order and joins
/// each group with [`merge_group`].
pub(crate) fn gather_shards(paths: &[PathBuf]) -> Result<GatheredShards, Error> {
    let mut groups: BTreeMap<TelescopeId, Vec<(String, TelescopeShard)>> = BTreeMap::new();
    let mut stats = IngestStats::default();
    let mut file_stats = Vec::with_capacity(paths.len());
    for path in paths {
        let display = path.display().to_string();
        let shard = read_shard(path)?;
        stats.absorb(&shard.stats);
        file_stats.push((display.clone(), shard.stats.clone()));
        groups
            .entry(shard.capture.config().id)
            .or_default()
            .push((display, shard));
    }
    let mut captures = BTreeMap::new();
    for (id, group) in groups {
        captures.insert(id, merge_group(group)?);
    }
    Ok(GatheredShards {
        captures,
        stats,
        file_stats,
    })
}

/// Joins one telescope's shards, in the order given, into one capture.
/// Every shard must share the first one's configuration and start no
/// earlier than the previous non-empty shard ends (seam order), so the
/// joined capture is time-sorted; a violation is [`Error::Analysis`]
/// (CLI exit code 6) naming the offending file.
fn merge_group(shards: Vec<(String, TelescopeShard)>) -> Result<Capture, Error> {
    let config = shards
        .first()
        .expect("merge_group requires shards")
        .1
        .capture
        .config()
        .clone();
    let mut end = SimTime::EPOCH;
    for (name, shard) in &shards {
        if *shard.capture.config() != config {
            return Err(Error::Analysis(format!(
                "shard {name} was captured under a different telescope \
                 configuration than the group's first shard"
            )));
        }
        let packets = shard.capture.packets();
        if let (Some(first), Some(last)) = (packets.first(), packets.last()) {
            if first.ts < end {
                return Err(Error::Analysis(format!(
                    "out-of-order shard {name}: it starts at t={} but the previous \
                     shard ends at t={} — pass shard files in capture order",
                    first.ts.as_secs(),
                    end.as_secs()
                )));
            }
            end = last.ts;
        }
    }
    let total = shards.iter().map(|(_, shard)| shard.capture.len()).sum();
    let mut capture = Capture::restore(config, Vec::with_capacity(total), 0, 0);
    for (_, shard) in shards {
        capture.absorb(shard.capture);
    }
    Ok(capture)
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
            let shard = TelescopeShard {
                capture: Capture::restore(
                    capture.config().clone(),
                    capture.packets()[range].to_vec(),
                    filtered,
                    malformed,
                ),
                stats: IngestStats::default(),
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
/// capture order. Sessions and the index are built by
/// `Analyzed::stream`; the corpus's `streaming` time is the read and
/// decode of the files plus that feed.
pub fn merge_experiment(
    mut result: ExperimentResult,
    paths: &[PathBuf],
    threads: Option<usize>,
) -> Result<Analyzed, Error> {
    let read_start = Instant::now();
    let mut gathered = gather_shards(paths)?;
    for id in TelescopeId::ALL {
        let capture = gathered
            .captures
            .remove(&id)
            .ok_or_else(|| Error::Analysis(format!("no shard file covers telescope {id}")))?;
        if *capture.config() != *result.captures[&id].config() {
            return Err(Error::Analysis(format!(
                "telescope {id}'s shards disagree with the experiment's \
                 configuration"
            )));
        }
        result.captures.insert(id, capture);
    }
    let read = read_start.elapsed().as_secs_f64();
    let settings = StreamSettings {
        threads,
        ..StreamSettings::default()
    };
    let mut analyzed = Analyzed::stream(result, &settings);
    analyzed.timings.streaming += read;
    Ok(analyzed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::passive_config;

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

    /// A shard over `packets` as a worker writes one: capture counters
    /// and ingest statistics set.
    fn build(packets: Vec<CapturedPacket>) -> TelescopeShard {
        let capture = Capture::restore(passive_config(Ipv6Prefix::default_route()), packets, 2, 1);
        let stats = IngestStats {
            records_read: capture.len() as u64 + 3,
            parsed: capture.len() as u64,
            filtered: 2,
            malformed_packets: 1,
            truncated_tail: true,
            ..IngestStats::default()
        };
        TelescopeShard { capture, stats }
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
        assert_eq!(decoded.stats, shard.stats);
        // Canonical: re-encoding the decoded shard reproduces the bytes.
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
        // Version 1 files (which stored sessions and index columns) and
        // any later version are rejected before their sections are read.
        for version in [1u32, FORMAT_VERSION + 1] {
            let mut other = bytes.clone();
            other[8..12].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                decode_shard(&other),
                Err(ShardError::UnsupportedVersion(v)) if v == version
            ));
        }
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
        // An empty shard may sit anywhere in the group.
        let merged = merge_group(vec![
            ("a.sixshard".into(), build(packets[..2].to_vec())),
            ("e.sixshard".into(), build(Vec::new())),
            ("b.sixshard".into(), build(packets[2..].to_vec())),
        ])
        .unwrap();
        assert_eq!(merged.config(), whole.capture.config());
        assert_eq!(merged.packets(), whole.capture.packets());
        assert_eq!(
            (merged.filtered(), merged.malformed()),
            (6, 3),
            "capture counters are summed"
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
        assert_eq!(err.exit_code(), 6, "`sixscope merge` exits 6");
        let msg = err.to_string();
        assert!(msg.contains("a.sixshard"), "{msg}");

        let first = build(packets[..2].to_vec());
        let mut second = build(packets[2..].to_vec());
        second.capture = Capture::restore(
            passive_config("2001:db8::/32".parse().unwrap()),
            second.capture.into_packets(),
            0,
            0,
        );
        let err = merge_group(vec![
            ("a.sixshard".into(), first),
            ("b.sixshard".into(), second),
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 6);
        assert!(err.to_string().contains("b.sixshard"), "{err}");
    }
}
