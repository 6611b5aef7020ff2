//! The zero-copy ingest contract (DESIGN.md §11): the chunk size of the
//! record walk must be invisible, and the mmap backing must be a pure
//! residency optimization.
//!
//! * Chunk invisibility: every corpus file — and thousands of
//!   proptest-mutated variants — fed through `Capture::extend_from_views`
//!   at chunk sizes 1, 3 and unbounded yields the [`IngestStats`] and
//!   per-packet fields of the one-shot `Capture::ingest_pcap_recovering`
//!   walk.
//! * Fallback: `MappedPcap::open_buffered` (the no-mmap path) produces the
//!   same bytes, records and statistics as `MappedPcap::open` — the
//!   backing changes memory residency, never observable output.

mod common;

use common::ScratchDir;
use proptest::prelude::*;
use sixscope::ingest::passive_config;
use sixscope_packet::{MappedPcap, SliceReader, ViewOutcome};
use sixscope_telescope::{Capture, IngestStats};
use sixscope_types::Ipv6Prefix;
use std::path::PathBuf;

const CORPUS: [&str; 4] = [
    "clean.pcap",
    "lying_lengths.pcap",
    "mixed.pcap",
    "truncated_header.pcap",
];

fn corpus_path(name: &str) -> PathBuf {
    PathBuf::from(format!("{}/corpus/{name}", env!("CARGO_MANIFEST_DIR")))
}

fn telescope_prefix() -> Ipv6Prefix {
    "2001:db8::/32".parse().unwrap()
}

/// Ingests `bytes` through the one-shot `ingest_pcap_recovering` walk.
fn ingest_whole(bytes: &[u8]) -> Option<(Capture, IngestStats)> {
    let mut capture = Capture::new(passive_config(telescope_prefix()));
    let stats = capture.ingest_pcap_recovering(bytes).ok()?;
    Some((capture, stats))
}

/// Ingests `bytes` through borrowed views and the batched
/// `extend_from_views` feed at chunk size `chunk`.
fn ingest_views(bytes: &[u8], chunk: usize) -> Option<(Capture, IngestStats)> {
    let mut reader = SliceReader::new(bytes).ok()?;
    let mut capture = Capture::new(passive_config(telescope_prefix()));
    let mut stats = IngestStats::default();
    let mut views: Vec<ViewOutcome<'_>> = Vec::new();
    while reader.next_chunk(chunk, &mut views) {
        capture.extend_from_views(&views, &mut stats);
    }
    Some((capture, stats))
}

/// Asserts every chunk size agrees with the one-shot walk on every
/// observable: header acceptance, the ingest statistics, and every
/// per-packet field.
fn assert_paths_agree(bytes: &[u8], label: &str) {
    let whole = ingest_whole(bytes);
    for chunk in [1usize, 3, usize::MAX] {
        let views = ingest_views(bytes, chunk);
        match (&whole, views) {
            (None, None) => {}
            (Some((wcap, wstats)), Some((vcap, vstats))) => {
                assert_eq!(wstats, &vstats, "{label}: stats diverged at chunk {chunk}");
                assert_eq!(
                    wcap.packets(),
                    vcap.packets(),
                    "{label}: packets diverged at chunk {chunk}"
                );
                assert_eq!(wcap.filtered(), vcap.filtered(), "{label}: filtered count");
            }
            (w, v) => panic!(
                "{label}: header acceptance diverged: one-shot={} chunked={}",
                w.is_some(),
                v.is_some()
            ),
        }
    }
}

#[test]
fn corpus_files_ingest_identically_borrowed_and_owned() {
    for name in CORPUS {
        let bytes = std::fs::read(corpus_path(name)).unwrap();
        assert_paths_agree(&bytes, name);
    }
}

#[test]
fn mmap_and_buffered_backings_are_observably_identical() {
    for name in CORPUS {
        let path = corpus_path(name);
        let mapped = MappedPcap::open(&path).unwrap();
        let buffered = MappedPcap::open_buffered(&path).unwrap();
        assert!(!buffered.used_mmap());
        assert_eq!(mapped.data(), buffered.data(), "{name}: backing bytes");
        let (mcap, mstats) = ingest_whole(mapped.data()).unwrap();
        let (bcap, bstats) = ingest_whole(buffered.data()).unwrap();
        assert_eq!(mstats, bstats, "{name}: stats diverged across backings");
        assert_eq!(mcap.packets(), bcap.packets(), "{name}: packets");
    }
}

#[test]
fn empty_and_missing_files_degrade_gracefully() {
    // Zero-length file: mmap(2) rejects len 0, so open() must fall back to
    // the buffered read and then fail header validation like any short read.
    let dir = ScratchDir::new("zero-copy");
    let path = dir.join("empty.pcap");
    std::fs::write(&path, b"").unwrap();
    let mapped = MappedPcap::open(&path).unwrap();
    assert!(!mapped.used_mmap(), "zero-length mmap must fall back");
    assert!(mapped.reader().is_err(), "empty file has no pcap header");

    // A missing file errors instead of panicking, on both constructors.
    let missing = dir.join("does-not-exist.pcap");
    assert!(MappedPcap::open(&missing).is_err());
    assert!(MappedPcap::open_buffered(&missing).is_err());
}

proptest! {
    /// Mutated corpus bytes (truncations, byte flips) ingest identically
    /// at every chunk size.
    #[test]
    fn mutated_corpora_ingest_identically(
        file in 0usize..CORPUS.len(),
        cut in 0usize..4096,
        flip_at in 0usize..4096,
        flip_bits in 0u8..=255,
    ) {
        let mut bytes = std::fs::read(corpus_path(CORPUS[file])).unwrap();
        if !bytes.is_empty() {
            let at = flip_at % bytes.len();
            bytes[at] ^= flip_bits;
            bytes.truncate(bytes.len() - cut % bytes.len().max(1));
        }
        assert_paths_agree(&bytes, CORPUS[file]);
    }
}
