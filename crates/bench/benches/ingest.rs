//! Zero-copy ingest benchmark: the recovering slice reader feeding a
//! capture over an in-memory pcap image, the loop `PcapFeed` runs for every
//! pcap input. Throughput is reported in records/sec — the single-core
//! target for `view_parse` is ≥1M records/s.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sixscope::ingest::passive_config;
use sixscope::packet::{SliceReader, ViewOutcome};
use sixscope_bench::bench_corpus;
use sixscope_telescope::{Capture, IngestStats, TelescopeId, READ_STEP_RECORDS};
use sixscope_types::Ipv6Prefix;
use std::hint::black_box;

/// Renders the bench corpus's T1 capture into an in-memory classic pcap
/// image, so every bench below reads identical bytes.
fn pcap_image() -> (Vec<u8>, usize) {
    let a = bench_corpus();
    let capture = a.capture(TelescopeId::T1);
    let image = capture.write_pcap(Vec::new()).expect("write bench pcap");
    (image, capture.len())
}

/// Reads the whole image into a fresh `::/0` capture: borrowed record views
/// cut in chunks, each parsed, filtered and retained by
/// `Capture::extend_from_views`.
fn ingest_image<'a>(image: &'a [u8], views: &mut Vec<ViewOutcome<'a>>) -> (Capture, IngestStats) {
    let mut reader = SliceReader::new(image).expect("valid header");
    let mut capture = Capture::new(passive_config(Ipv6Prefix::default_route()));
    let mut stats = IngestStats::default();
    while reader.next_chunk(READ_STEP_RECORDS, views) {
        capture.extend_from_views(views, &mut stats);
    }
    (capture, stats)
}

fn bench_ingest(c: &mut Criterion) {
    let (image, records) = pcap_image();
    // The timed loop must retain every record, or it measures failures.
    let (capture, stats) = ingest_image(&image, &mut Vec::new());
    assert_eq!(
        (capture.len(), stats.parsed, stats.records_read),
        (records, records as u64, records as u64),
        "the bench image did not ingest cleanly: {stats}"
    );

    let mut group = c.benchmark_group("ingest");
    group.throughput(Throughput::Elements(records as u64));
    group.bench_function("view_parse", |b| {
        let mut views = Vec::new();
        b.iter(|| {
            let (capture, stats) = ingest_image(&image, &mut views);
            black_box((capture.len(), stats.parsed))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = bench_ingest
}
criterion_main!(benches);
