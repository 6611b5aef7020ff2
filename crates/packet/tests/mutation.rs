//! Structure-aware mutation harness for the hardened pcap reader.
//!
//! A generated corpus of well-formed records is mutated ≥10k times with
//! seeded byte flips, field corruptions and truncations, and every mutant
//! is pushed through the recovering reader and the packet parser. The
//! contract under test (DESIGN.md §8):
//!
//! * every input returns `Ok` or a typed `Err` — never a panic,
//! * no returned record exceeds the [`MAX_RECORD_LEN`] allocation cap,
//! * the walk always terminates (the test finishing is the proof),
//! * the outcome is a pure function of the bytes: the same seed produces
//!   the same aggregate statistics on every run,
//! * [`SliceReader`] agrees outcome-for-outcome with [`Oracle`], an
//!   independent streaming walk over `std::io::Read`, on every mutant, on
//!   every prefix of the corpus and on a fixed damage catalog.

use sixscope_packet::{
    MalformedRecord, PacketBuilder, ParsedPacket, PcapRecord, PcapWriter, SliceReader, ViewOutcome,
    MAX_RECORD_LEN,
};
use sixscope_types::{SimTime, Xoshiro256pp};

mod oracle;
use oracle::{Oracle, Outcome, LINKTYPE_RAW, MAGIC_NS};

const MUTATIONS: usize = 12_000;
const SEED: u64 = 0x51c_5c09e;

/// A small but structurally diverse corpus: all three transports, an
/// extension-headered probe, empty and large payloads.
fn base_corpus() -> Vec<u8> {
    let b = PacketBuilder::new(
        "2a0a::bad:1".parse().unwrap(),
        "2001:db8:3::42".parse().unwrap(),
    );
    let mut records: Vec<Vec<u8>> = vec![
        b.icmpv6_echo_request(7, 1, b"yarrp"),
        b.tcp_syn(40_000, 443, 0xdead_beef, &[]),
        b.udp(40_001, 33_434, &[0xab; 600]),
        b.icmpv6_echo_request(7, 2, &[]),
        b.tcp_syn(40_002, 80, 1, b"GET / HTTP/1.1"),
    ];
    // A hop-by-hop + TCP probe, hand-assembled.
    let mut ext = Vec::new();
    let tcp = &b.tcp_syn(1, 2, 3, b"x")[40..];
    let hbh = [6u8, 0, 1, 4, 0, 0, 0, 0];
    let hdr = sixscope_packet::Ipv6Header::new(
        "2a0a::bad:2".parse().unwrap(),
        "2001:db8:3::7".parse().unwrap(),
        sixscope_packet::NextHeader::Other(0),
        (hbh.len() + tcp.len()) as u16,
    );
    hdr.encode(&mut ext);
    ext.extend_from_slice(&hbh);
    ext.extend_from_slice(tcp);
    records.push(ext);

    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for (i, data) in records.into_iter().enumerate() {
        w.write_record(&PcapRecord {
            ts: SimTime::from_secs(100 + i as u64),
            ts_micros: (i as u32) * 7,
            data,
        })
        .unwrap();
    }
    w.into_inner().unwrap()
}

/// Applies one seeded mutation to `buf`.
fn mutate(rng: &mut Xoshiro256pp, buf: &mut Vec<u8>) {
    match rng.below(5) {
        // Flip a random byte.
        0 => {
            let i = rng.below(buf.len() as u64) as usize;
            buf[i] ^= rng.next_u32() as u8 | 1;
        }
        // Overwrite a 4-byte field with an extreme value (targets the
        // length/timestamp fields of record headers when it lands there).
        1 if buf.len() >= 4 => {
            let i = rng.below((buf.len() - 4) as u64 + 1) as usize;
            let v: u32 = *rng.choose(&[0, 1, 0xffff, 65_536, u32::MAX, MAX_RECORD_LEN + 1]);
            buf[i..i + 4].copy_from_slice(&v.to_le_bytes());
        }
        // Truncate at a random point (killed-capture simulation).
        2 => {
            let at = rng.below(buf.len() as u64 + 1) as usize;
            buf.truncate(at);
        }
        // Duplicate a random slice onto the tail (desynchronizes framing).
        3 => {
            let start = rng.below(buf.len() as u64) as usize;
            let len = rng.below((buf.len() - start) as u64 + 1) as usize;
            let slice = buf[start..start + len].to_vec();
            buf.extend_from_slice(&slice);
        }
        // Flip a bit in the global header (magic, snaplen, linktype).
        _ => {
            let i = rng.below(24.min(buf.len() as u64).max(1)) as usize;
            buf[i] ^= 1 << rng.below(8);
        }
    }
}

/// Aggregate outcome of one full run; equality pins determinism.
#[derive(Debug, Default, PartialEq, Eq)]
struct RunSummary {
    records: u64,
    skipped: u64,
    truncated_tails: u64,
    header_rejected: u64,
    packets_parsed: u64,
    packets_rejected: u64,
    fingerprint: u64,
}

impl RunSummary {
    fn mix(&mut self, v: u64) {
        self.fingerprint = self.fingerprint.rotate_left(7) ^ v.wrapping_mul(0x9e3779b97f4a7c15);
    }
}

/// Walks `buf` with the slice reader and the oracle in lockstep, asserting
/// identical header verdicts and outcome sequences, and folds the walk
/// into `s`.
fn lockstep(buf: &[u8], s: &mut RunSummary) {
    let Some(mut oracle) = Oracle::new(buf) else {
        assert!(
            SliceReader::new(buf).is_err(),
            "slice reader accepted a header the oracle rejected"
        );
        s.header_rejected += 1;
        s.mix(1);
        return;
    };
    let mut reader = SliceReader::new(buf).expect("slice reader rejected a header the oracle took");
    loop {
        let view = reader.read_record_recovering();
        assert_eq!(view.map(Outcome::from), oracle.next(), "reader divergence");
        match view {
            None => break,
            Some(ViewOutcome::Record(rec)) => {
                assert!(
                    rec.data.len() as u32 <= MAX_RECORD_LEN,
                    "allocation cap violated: {} bytes",
                    rec.data.len()
                );
                s.records += 1;
                s.mix(rec.data.len() as u64);
                match ParsedPacket::parse(rec.data) {
                    Ok(p) => {
                        s.packets_parsed += 1;
                        s.mix(u64::from(p.ext_headers) << 32 | p.payload.len() as u64);
                    }
                    Err(_) => s.packets_rejected += 1,
                }
            }
            Some(ViewOutcome::Skipped(m)) => {
                s.skipped += 1;
                s.mix(m.reason_index() as u64);
            }
            Some(ViewOutcome::TruncatedTail(m)) => {
                s.truncated_tails += 1;
                s.mix(0x100 | m.reason_index() as u64);
            }
        }
    }
}

/// Appends a raw little-endian record header (+ body) to `bytes`.
fn push_record(bytes: &mut Vec<u8>, incl: u32, orig: u32, body: &[u8]) {
    for v in [1, 0, incl, orig] {
        bytes.extend_from_slice(&u32::to_le_bytes(v));
    }
    bytes.extend_from_slice(body);
}

/// `clean` rewritten as a big-endian, nanosecond-resolution file.
fn big_endian_nanos(clean: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for v in [MAGIC_NS, 0x0002_0004, 0, 0, 65_535, LINKTYPE_RAW] {
        out.extend_from_slice(&v.to_be_bytes());
    }
    for outcome in SliceReader::new(clean).unwrap() {
        let ViewOutcome::Record(rec) = outcome else {
            panic!("the clean corpus has no damage");
        };
        let len = rec.data.len() as u32;
        for v in [rec.ts.as_secs() as u32, rec.ts_micros * 1000, len, len] {
            out.extend_from_slice(&v.to_be_bytes());
        }
        out.extend_from_slice(rec.data);
    }
    out
}

/// Fixed inputs walked before the mutants: the clean corpus, a skip that
/// re-synchronizes, a skip that runs into EOF, a header and a body cut by
/// EOF, and the other byte order and timestamp resolution.
fn damage_catalog(clean: &[u8]) -> Vec<Vec<u8>> {
    let mut resync = clean.to_vec();
    push_record(&mut resync, 8, 4, &[0xee; 8]);
    push_record(&mut resync, 3, 3, &[1, 2, 3]);
    let mut skip_to_eof = clean.to_vec();
    push_record(&mut skip_to_eof, 100, 50, &[0; 5]);
    let mut cut_header = clean.to_vec();
    cut_header.extend_from_slice(&[0; 7]);
    let cut_body = clean[..clean.len() - 2].to_vec();
    vec![
        clean.to_vec(),
        resync,
        skip_to_eof,
        cut_header,
        cut_body,
        big_endian_nanos(clean),
    ]
}

fn run(seed: u64, mutations: usize) -> RunSummary {
    let base = base_corpus();
    let mut s = RunSummary::default();
    for case in damage_catalog(&base) {
        lockstep(&case, &mut s);
    }
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    for _ in 0..mutations {
        let mut buf = base.clone();
        // One to three stacked mutations per input.
        for _ in 0..=rng.below(3) {
            if buf.is_empty() {
                break;
            }
            mutate(&mut rng, &mut buf);
        }
        lockstep(&buf, &mut s);
    }
    s
}

#[test]
fn mutated_captures_never_panic_overallocate_or_diverge() {
    let first = run(SEED, MUTATIONS);
    // The harness must actually exercise every path of the contract.
    assert!(first.records > 0, "no mutant yielded records: {first:?}");
    assert!(first.skipped > 0, "no mutant was skipped: {first:?}");
    assert!(first.truncated_tails > 0, "no truncated tail: {first:?}");
    assert!(first.header_rejected > 0, "no header reject: {first:?}");
    assert!(first.packets_parsed > 0 && first.packets_rejected > 0);
    // Same seed ⇒ identical aggregate statistics (determinism pin).
    let second = run(SEED, MUTATIONS);
    assert_eq!(first, second);
}

#[test]
fn sliced_corpus_prefixes_never_panic() {
    // Every prefix of the clean corpus: EOF at each possible byte offset,
    // walked in lockstep with the oracle.
    let base = base_corpus();
    let mut s = RunSummary::default();
    for end in 0..base.len() {
        lockstep(&base[..end], &mut s);
    }
    assert_eq!(
        s.header_rejected, 24,
        "every prefix shorter than the header"
    );
    // A fully truncated tail at every record boundary flags as such.
    let saw_tail = SliceReader::new(&base[..base.len() - 1])
        .unwrap()
        .any(|outcome| matches!(outcome, ViewOutcome::TruncatedTail(m) if m.is_truncation()));
    assert!(saw_tail);
}

#[test]
fn malformed_reason_labels_are_stable() {
    // The per-reason labels are a public contract (`analyze` stderr, the
    // JSON `skip_reasons` keys, CI greps); pin them.
    assert_eq!(
        MalformedRecord::REASONS,
        [
            "snaplen-exceeded",
            "cap-exceeded",
            "length-inconsistent",
            "truncated-header",
            "truncated-body",
        ]
    );
}
