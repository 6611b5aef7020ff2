//! Structure-aware mutation harness for the `.sixshard` decoder.
//!
//! A shard file produced by the real scatter path (`Pipeline::to_shard`
//! over a generated pcap) is mutated ≥10k times with seeded byte flips,
//! field splices, truncations and version bumps, and every mutant is
//! pushed through [`decode_shard`]. The contract under test
//! (DESIGN.md §13):
//!
//! * every input returns `Ok` or a typed `ShardError` — never a panic,
//! * no count field drives an allocation past the bytes actually present
//!   (the test completing in bounded memory is the proof),
//! * the outcome is a pure function of the bytes: the same seed produces
//!   the same aggregate outcome on every run,
//! * the untouched file round-trips canonically: decode → encode
//!   reproduces the input bytes,
//! * every value of every config-section byte, with and without a
//!   productive subnet, decodes canonically or fails inside that section.
//!
//! The gather side is pinned here too: statistics a hostile but
//! decodable shard carries saturate instead of overflowing, and a merge
//! sessionizes with the pipeline's own session timeout.

mod common;

use common::ScratchDir;
use sixscope::serve::analysis_report;
use sixscope::shardfile::{decode_shard, encode_shard, write_shard, ShardError, TelescopeShard};
use sixscope::{Pipeline, PipelineOutput};
use sixscope_packet::{PacketBuilder, PcapRecord, PcapWriter};
use sixscope_telescope::{Capture, TelescopeConfig, TelescopeId};
use sixscope_types::{SimTime, Xoshiro256pp};
use std::path::PathBuf;

const MUTATIONS: usize = 12_000;
const SEED: u64 = 0x5ead_f11e;

/// A small but structurally diverse pcap: all three transports, repeat
/// sources (multi-packet sessions), a timeout-straddling gap, payloads.
fn base_pcap() -> Vec<u8> {
    let a = PacketBuilder::new(
        "2a0a::bad:1".parse().unwrap(),
        "2001:db8:3::42".parse().unwrap(),
    );
    let b = PacketBuilder::new(
        "2a0a::bad:2".parse().unwrap(),
        "2001:db8:3::7".parse().unwrap(),
    );
    pcap_image(&[
        (100, a.icmpv6_echo_request(7, 1, b"yarrp")),
        (150, a.tcp_syn(40_000, 443, 0xdead_beef, &[])),
        (200, b.udp(40_001, 33_434, &[0xab; 64])),
        (260, a.icmpv6_echo_request(7, 2, &[])),
        // Past the 1 h session timeout: a second session per source.
        (8_000, a.tcp_syn(40_002, 80, 1, b"GET / HTTP/1.1")),
        (8_050, b.udp(40_003, 53, b"probe")),
    ])
}

/// A classic pcap image of `(ts, packet)` records.
fn pcap_image(records: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for (ts, data) in records {
        w.write_record(&PcapRecord {
            ts: SimTime::from_secs(*ts),
            ts_micros: 0,
            data: data.clone(),
        })
        .unwrap();
    }
    w.into_inner().unwrap()
}

/// Writes the base pcap, shards it through the real scatter path, and
/// returns the `.sixshard` bytes.
fn base_shard_bytes() -> Vec<u8> {
    let dir = ScratchDir::new("shard-mutation");
    let pcap = dir.join("base.pcap");
    std::fs::write(&pcap, base_pcap()).unwrap();
    let out = dir.join("base.sixshard");
    Pipeline::from_pcaps([&pcap])
        .to_shard(&out)
        .expect("sharding a clean pcap cannot fail");
    std::fs::read(&out).unwrap()
}

/// Applies one seeded mutation to `buf`.
fn mutate(rng: &mut Xoshiro256pp, buf: &mut Vec<u8>) {
    match rng.below(6) {
        // Flip a random byte.
        0 => {
            let i = rng.below(buf.len() as u64) as usize;
            buf[i] ^= rng.next_u32() as u8 | 1;
        }
        // Overwrite a 4-byte field with an extreme value (targets tags,
        // counts and flag bytes when it lands there).
        1 if buf.len() >= 4 => {
            let i = rng.below((buf.len() - 4) as u64 + 1) as usize;
            let v: u32 = *rng.choose(&[0, 1, 0xffff, 65_536, u32::MAX]);
            buf[i..i + 4].copy_from_slice(&v.to_le_bytes());
        }
        // Overwrite an 8-byte field with an extreme value (targets the
        // section lengths and element counts when it lands there).
        2 if buf.len() >= 8 => {
            let i = rng.below((buf.len() - 8) as u64 + 1) as usize;
            let v: u64 = *rng.choose(&[0, 1, u64::from(u32::MAX), u64::MAX, 1 << 40]);
            buf[i..i + 8].copy_from_slice(&v.to_le_bytes());
        }
        // Truncate at a random point (killed-transfer simulation).
        3 => {
            let at = rng.below(buf.len() as u64 + 1) as usize;
            buf.truncate(at);
        }
        // Duplicate a random slice onto the tail (desynchronizes the
        // section table against the payload bytes).
        4 => {
            let start = rng.below(buf.len() as u64) as usize;
            let len = rng.below((buf.len() - start) as u64 + 1) as usize;
            let slice = buf[start..start + len].to_vec();
            buf.extend_from_slice(&slice);
        }
        // Bump the format version field.
        _ => {
            if buf.len() >= 12 {
                let v = rng.next_u32();
                buf[8..12].copy_from_slice(&v.to_le_bytes());
            }
        }
    }
}

/// Aggregate outcome of one full run; equality pins determinism.
#[derive(Debug, PartialEq, Eq)]
struct RunSummary {
    decoded: u64,
    bad_magic: u64,
    bad_version: u64,
    truncated: u64,
    oversized: u64,
    corrupt: u64,
    fingerprint: u64,
}

fn run(seed: u64, mutations: usize) -> RunSummary {
    let base = base_shard_bytes();
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut s = RunSummary {
        decoded: 0,
        bad_magic: 0,
        bad_version: 0,
        truncated: 0,
        oversized: 0,
        corrupt: 0,
        fingerprint: 0,
    };
    let mix = |s: &mut RunSummary, v: u64| {
        s.fingerprint = s.fingerprint.rotate_left(7) ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    };
    for _ in 0..mutations {
        let mut buf = base.clone();
        // One to three stacked mutations per input.
        for _ in 0..=rng.below(3) {
            if buf.is_empty() {
                break;
            }
            mutate(&mut rng, &mut buf);
        }
        match decode_shard(&buf) {
            Ok(shard) => {
                // A mutant that still decodes must uphold the round-trip
                // contract like any valid shard.
                assert_eq!(
                    encode_shard(&shard),
                    buf,
                    "a decodable mutant must re-encode canonically"
                );
                s.decoded += 1;
                mix(&mut s, shard.capture.len() as u64);
            }
            Err(e) => {
                match &e {
                    ShardError::BadMagic => s.bad_magic += 1,
                    ShardError::UnsupportedVersion(_) => s.bad_version += 1,
                    ShardError::Truncated { .. } => s.truncated += 1,
                    ShardError::Oversized { .. } => s.oversized += 1,
                    ShardError::Corrupt { .. } => s.corrupt += 1,
                }
                // The rendered message is part of the deterministic
                // outcome (it names the section and the violation).
                let text = e.to_string();
                let mut h = 0u64;
                for b in text.bytes() {
                    h = h.rotate_left(5) ^ u64::from(b);
                }
                mix(&mut s, h);
            }
        }
    }
    s
}

#[test]
fn untouched_shard_decodes_and_round_trips() {
    let bytes = base_shard_bytes();
    let shard = decode_shard(&bytes).expect("the scatter path writes valid shards");
    assert_eq!(shard.capture.len(), 6);
    assert_eq!(encode_shard(&shard), bytes, "encoding must be canonical");
}

#[test]
fn mutated_shards_never_panic_and_errors_are_structured() {
    let s = run(SEED, MUTATIONS);
    let total = s.decoded + s.bad_magic + s.bad_version + s.truncated + s.oversized + s.corrupt;
    assert_eq!(
        total, MUTATIONS as u64,
        "every mutant must be accounted for"
    );
    // The mutation mix must actually exercise the error taxonomy: a run
    // where whole categories never fire means the harness went blind.
    assert!(s.bad_magic > 0, "no mutant hit the magic: {s:?}");
    assert!(s.bad_version > 0, "no mutant hit the version: {s:?}");
    assert!(s.truncated > 0, "no mutant truncated a section: {s:?}");
    assert!(s.corrupt > 0, "no mutant corrupted a section: {s:?}");
}

#[test]
fn every_config_byte_value_decodes_canonically_or_fails_in_config() {
    let passive = base_shard_bytes();
    let shard = decode_shard(&passive).unwrap();
    let t2 = encode_shard(&TelescopeShard {
        capture: Capture::restore(
            TelescopeConfig::t2("2001:db8:2::/48".parse().unwrap()),
            shard.capture.packets().to_vec(),
            0,
            0,
        ),
        stats: shard.stats.clone(),
    });
    let mut decoded = 0;
    for bytes in [passive, t2] {
        // The config section comes first, after the 16-byte header and
        // the three 12-byte section table entries; its length is the
        // first entry's `u64`.
        let start = 16 + 3 * 12;
        let len = u64::from_le_bytes(bytes[20..28].try_into().unwrap()) as usize;
        for at in start..start + len {
            for value in 0..=u8::MAX {
                let mut mutant = bytes.clone();
                mutant[at] = value;
                match decode_shard(&mutant) {
                    Ok(shard) => {
                        assert_eq!(encode_shard(&shard), mutant, "byte {at} = {value}");
                        decoded += 1;
                    }
                    Err(
                        ShardError::Corrupt { section, .. } | ShardError::Truncated { section, .. },
                    ) => assert_eq!(section, "config", "byte {at} = {value}"),
                    Err(e) => panic!("byte {at} = {value}: {e}"),
                }
            }
        }
    }
    // Other telescope ids and other canonical prefixes still decode.
    assert!(decoded > 2, "no config mutant decoded");
}

#[test]
fn mutation_outcome_is_deterministic_per_seed() {
    let a = run(SEED ^ 1, 1_500);
    let b = run(SEED ^ 1, 1_500);
    assert_eq!(a, b, "the same seed must reproduce the same outcome");
    let c = run(SEED ^ 2, 1_500);
    assert_ne!(
        a.fingerprint, c.fingerprint,
        "different seeds should explore different mutants"
    );
}

/// Gathers `shards` and renders everything a `sixscope merge` prints: the
/// per-file and total statistics lines and the text and JSON reports.
fn merge_and_report(shards: &[PathBuf]) -> PipelineOutput {
    let out = Pipeline::from_shards(shards)
        .run_detailed()
        .expect("decodable shards in capture order merge");
    for (_, stats) in &out.file_stats {
        assert!(!stats.to_string().is_empty());
    }
    assert!(!out.stats.to_string().is_empty());
    for json in [false, true] {
        assert!(!analysis_report(&out.analyzed, &out.stats, json).is_empty());
    }
    out
}

#[test]
fn hostile_shard_statistics_saturate_through_the_merge() {
    let dir = ScratchDir::new("shard-hostile-stats");
    let bytes = base_shard_bytes();
    // One shard whose skip reasons sum past u64::MAX.
    let mut shard = decode_shard(&bytes).unwrap();
    shard.stats.skipped[0] = u64::MAX;
    shard.stats.skipped[1] = 1;
    let one = dir.join("skips.sixshard");
    write_shard(&one, &shard).unwrap();
    let out = merge_and_report(std::slice::from_ref(&one));
    assert_eq!(out.stats.skipped_total(), u64::MAX);

    // Two shards in seam order whose record counts and capture counters
    // sum past u64::MAX.
    let base = decode_shard(&bytes).unwrap();
    let config = base.capture.config().clone();
    let packets = base.capture.into_packets();
    let (head, tail) = packets.split_at(3);
    let mut paths = Vec::new();
    for (k, piece) in [head, tail].into_iter().enumerate() {
        let mut stats = base.stats.clone();
        stats.records_read = u64::MAX - 1;
        let shard = TelescopeShard {
            capture: Capture::restore(config.clone(), piece.to_vec(), u64::MAX, 1),
            stats,
        };
        let path = dir.join(format!("half-{k}.sixshard"));
        write_shard(&path, &shard).unwrap();
        paths.push(path);
    }
    let out = merge_and_report(&paths);
    assert_eq!(out.stats.records_read, u64::MAX);
    let capture = out.analyzed.capture(TelescopeId::T1);
    assert_eq!(capture.len(), packets.len());
    assert_eq!((capture.filtered(), capture.malformed()), (u64::MAX, 2));
}

#[test]
fn merge_sessionizes_with_the_pipelines_session_timeout() {
    let dir = ScratchDir::new("shard-timeout");
    let a = PacketBuilder::new(
        "2a0a::bad:1".parse().unwrap(),
        "2001:db8:3::42".parse().unwrap(),
    );
    let b = PacketBuilder::new(
        "2a0a::bad:2".parse().unwrap(),
        "2001:db8:3::7".parse().unwrap(),
    );
    // Gaps of 1.5 to 5 hours and a few below the 1-hour timeout, with a
    // /64 session (both sources share 2a0a::/64) that straddles the file
    // seam.
    let times = [
        0u64, 720, 6_120, 16_920, 34_920, 36_000, 52_200, 70_200, 70_560,
    ];
    let records: Vec<(u64, Vec<u8>)> = times
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let builder = if i % 3 == 2 { &b } else { &a };
            (t, builder.icmpv6_echo_request(9, i as u16, b"gap"))
        })
        .collect();
    let (first, second) = records.split_at(5);
    let pcaps = [dir.join("day0.pcap"), dir.join("day1.pcap")];
    let shards = [dir.join("day0.sixshard"), dir.join("day1.sixshard")];
    for ((pcap, shard), part) in pcaps.iter().zip(&shards).zip([first, second]) {
        std::fs::write(pcap, pcap_image(part)).unwrap();
        // Workers scatter with the default pipeline: the shard stores no
        // timeout.
        Pipeline::from_pcaps([pcap]).to_shard(shard).unwrap();
    }
    let merged = Pipeline::from_shards(&shards).run_detailed().unwrap();
    let direct = Pipeline::from_pcaps(&pcaps).run_detailed().unwrap();
    let (m, d) = (&merged.analyzed, &direct.analyzed);
    assert_eq!(
        m.sessions128(TelescopeId::T1),
        d.sessions128(TelescopeId::T1)
    );
    assert_eq!(m.sessions64(TelescopeId::T1), d.sessions64(TelescopeId::T1));
    for json in [false, true] {
        assert_eq!(
            analysis_report(m, &merged.stats, json),
            analysis_report(d, &direct.stats, json)
        );
    }
    // The gaps split the /128 sources into 8 sessions and the shared /64
    // into 6, one of which holds the last packet of the first file and the
    // first of the second.
    let sessions64 = m.sessions64(TelescopeId::T1);
    assert_eq!(
        (m.sessions128(TelescopeId::T1).len(), sessions64.len()),
        (8, 6),
        "the fixture must straddle the timeout at both levels"
    );
    assert!(
        sessions64.iter().any(|s| s.packet_indices == [4, 5]),
        "a /64 session must straddle the file seam"
    );
}
