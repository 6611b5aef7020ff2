//! The streaming contract (DESIGN.md §10), pinned end to end: the chunked
//! bounded-memory pipeline must produce byte-identical output to the batch
//! path at every chunk size and thread count, even with damaged records
//! straddling chunk boundaries, and its open-session table must stay
//! bounded by the eviction horizon rather than by the corpus size.

mod common;

use common::ScratchDir;
use sixscope::{Pipeline, PipelineOutput};
use sixscope_packet::{PacketBuilder, PcapRecord, PcapWriter};
use sixscope_telescope::TelescopeId;
use sixscope_types::SimTime;
use std::net::Ipv6Addr;
use std::path::PathBuf;

const HOUR: u64 = 3600;
/// Distinct /64-separated sources in the synthetic corpus.
const SOURCES: u64 = 4;
/// Activity bursts per source, separated by 3 h (> the 1 h timeout), so
/// each burst opens a fresh session.
const BURSTS: u64 = 3;

fn source(s: u64) -> Ipv6Addr {
    Ipv6Addr::from((0x2a0a_u128 << 112) | ((s as u128) << 64) | 1)
}

/// One burst's records: every source interleaved, 6 packets each, with a
/// protocol mix so the report exercises all render paths.
fn burst_records(burst: u64) -> Vec<PcapRecord> {
    let base = 1_000 + burst * 3 * HOUR;
    let mut records = Vec::new();
    for j in 0..6u64 {
        for s in 0..SOURCES {
            let b = PacketBuilder::new(source(s), "2001:db8::1".parse().unwrap());
            let data = match (s + j) % 3 {
                0 => b.icmpv6_echo_request(1, j as u16, b"yarrp"),
                1 => b.tcp_syn(40_000, 443, j as u32, &[]),
                _ => b.udp(40_001, 33_434, b"probe"),
            };
            records.push(PcapRecord {
                ts: SimTime::from_secs(base + j * 60 + s * 10),
                ts_micros: 0,
                data,
            });
        }
    }
    records
}

/// A recoverable damaged record: `incl_len` (8) exceeds `orig_len` (2),
/// so the reader skips its 8 junk bytes and re-synchronizes.
fn damaged_record(ts: u32) -> Vec<u8> {
    let mut v = Vec::new();
    v.extend_from_slice(&ts.to_le_bytes());
    v.extend_from_slice(&0u32.to_le_bytes());
    v.extend_from_slice(&8u32.to_le_bytes());
    v.extend_from_slice(&2u32.to_le_bytes());
    v.extend_from_slice(&[0xde; 8]);
    v
}

fn pcap_with(records: &[PcapRecord]) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for r in records {
        w.write_record(r).unwrap();
    }
    w.into_inner().unwrap()
}

/// Writes the two-file corpus: file A holds bursts 0 and 1 with a damaged
/// record between them (so damage lands mid-file, straddling chunk
/// boundaries at small chunk sizes); file B holds burst 2.
fn write_corpus() -> (ScratchDir, Vec<PathBuf>) {
    let dir = ScratchDir::new("stream-eq");

    let mut a = pcap_with(&burst_records(0));
    a.extend_from_slice(&damaged_record(2_000));
    // Strip the second writer's 24-byte global header to splice records.
    a.extend_from_slice(&pcap_with(&burst_records(1))[24..]);
    let b = pcap_with(&burst_records(2));

    let path_a = dir.join("a.pcap");
    let path_b = dir.join("b.pcap");
    std::fs::write(&path_a, a).unwrap();
    std::fs::write(&path_b, b).unwrap();
    (dir, vec![path_a, path_b])
}

fn run(paths: &[PathBuf], chunk: Option<usize>, threads: usize) -> PipelineOutput {
    let mut p = Pipeline::from_pcaps(paths.to_vec()).threads(threads);
    if let Some(n) = chunk {
        p = p.chunk_records(n);
    }
    p.run_detailed().expect("corpus must stream")
}

fn report(out: &PipelineOutput) -> String {
    sixscope::serve::analysis_report(&out.analyzed, &out.stats, true)
}

#[test]
fn chunked_streaming_is_byte_identical_to_batch() {
    let (_dir, paths) = write_corpus();
    let reference = run(&paths, None, 1);
    assert_eq!(
        reference.stats.skipped_total(),
        1,
        "the damaged record must be skip-counted"
    );
    let expected_sessions = (SOURCES * BURSTS) as usize;
    assert_eq!(
        reference.analyzed.sessions128(TelescopeId::T1).len(),
        expected_sessions
    );
    let reference_report = report(&reference);
    for chunk in [1usize, 7, 10_000] {
        for threads in [1usize, 8] {
            let out = run(&paths, Some(chunk), threads);
            assert_eq!(
                report(&out),
                reference_report,
                "report bytes diverged at chunk={chunk} threads={threads}"
            );
            assert_eq!(
                out.analyzed.sessions128(TelescopeId::T1),
                reference.analyzed.sessions128(TelescopeId::T1),
                "/128 sessions diverged at chunk={chunk} threads={threads}"
            );
            assert_eq!(
                out.analyzed.sessions64(TelescopeId::T1),
                reference.analyzed.sessions64(TelescopeId::T1),
                "/64 sessions diverged at chunk={chunk} threads={threads}"
            );
            assert_eq!(out.stats, reference.stats);
        }
    }
}

#[test]
fn open_session_table_is_bounded_by_the_eviction_horizon() {
    let (_dir, paths) = write_corpus();
    let out = run(&paths, Some(7), 1);
    // 12 sessions total, but only SOURCES of them are ever live at once:
    // the 3 h inter-burst gap exceeds the 1 h eviction horizon, so each
    // burst's sessions are evicted before the next burst opens.
    let total = out.analyzed.sessions128(TelescopeId::T1).len();
    assert_eq!(total, (SOURCES * BURSTS) as usize);
    assert!(
        out.analyzed.peak_open_sessions <= SOURCES as usize,
        "peak open sessions {} exceeds the live-source bound {SOURCES}",
        out.analyzed.peak_open_sessions
    );
    assert!(out.analyzed.peak_open_sessions > 0);
    assert!(out.analyzed.peak_open_sessions < total);
}
