//! Feed-abstraction benchmark: the unified [`Feed`] pull loop over a pcap
//! file. `ingest/view_parse` (`benches/ingest.rs`) times the raw zero-copy
//! loop this feed wraps, on the same image and at the same read step;
//! compare the two. The trait adds per-chunk dispatch, file mapping and
//! per-file statistics; the target is to stay within a few percent of the
//! direct path.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sixscope::ingest::passive_config;
use sixscope_bench::bench_corpus;
use sixscope_telescope::{Capture, Feed, PcapFeed, TelescopeId, READ_STEP_RECORDS};
use sixscope_types::Ipv6Prefix;
use std::hint::black_box;
use std::path::PathBuf;

/// Renders the bench corpus's T1 capture into an in-memory classic pcap
/// image, the bytes `ingest/view_parse` reads too.
fn pcap_image() -> (Vec<u8>, usize) {
    let a = bench_corpus();
    let capture = a.capture(TelescopeId::T1);
    let image = capture.write_pcap(Vec::new()).expect("write bench pcap");
    (image, capture.len())
}

fn bench_feed(c: &mut Criterion) {
    let (image, records) = pcap_image();
    let path: PathBuf =
        std::env::temp_dir().join(format!("sixscope-bench-feed-{}.pcap", std::process::id()));
    std::fs::write(&path, &image).expect("write bench pcap");

    let mut group = c.benchmark_group("feed");
    group.throughput(Throughput::Elements(records as u64));

    // The unified pull loop: chunked PcapFeed into a capture, with
    // watermark tracking and per-file statistics.
    group.bench_function("pcap_feed", |b| {
        b.iter(|| {
            let capture = Capture::new(passive_config(Ipv6Prefix::default_route()));
            let mut feed = PcapFeed::new(capture, [&path], READ_STEP_RECORDS);
            loop {
                let chunk = feed.next_chunk().expect("bench file is readable");
                if chunk.end_of_feed {
                    break;
                }
            }
            let (capture, stats, _) = feed.finish();
            black_box((capture.len(), stats.parsed))
        })
    });

    group.finish();

    std::fs::remove_file(&path).ok();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = bench_feed
}
criterion_main!(benches);
