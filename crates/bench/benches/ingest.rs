//! Zero-copy ingest benchmark: the recovering slice reader plus the batched
//! parse kernel over an in-memory pcap image. Throughput is reported in
//! records/sec — the single-core target for `view_parse` is ≥1M pkt/s.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sixscope::packet::{parse_run, SliceReader, ViewOutcome};
use sixscope_bench::bench_corpus;
use sixscope_telescope::TelescopeId;
use std::hint::black_box;

/// Renders the bench corpus's T1 capture into an in-memory classic pcap
/// image, so every bench below reads identical bytes.
fn pcap_image() -> (Vec<u8>, usize) {
    let a = bench_corpus();
    let capture = a.capture(TelescopeId::T1);
    let image = capture.write_pcap(Vec::new()).expect("write bench pcap");
    (image, capture.len())
}

fn bench_ingest(c: &mut Criterion) {
    let (image, records) = pcap_image();
    let mut group = c.benchmark_group("ingest");
    group.throughput(Throughput::Elements(records as u64));

    // The zero-copy path: borrowed record views cut in chunks, parsed by
    // the batched kernel. No per-record allocation anywhere.
    group.bench_function("view_parse", |b| {
        let mut views: Vec<ViewOutcome<'_>> = Vec::new();
        let mut parsed = Vec::new();
        let mut run = Vec::new();
        b.iter(|| {
            let mut reader = SliceReader::new(&image).expect("valid header");
            let mut ok = 0usize;
            while reader.next_chunk(1 << 14, &mut views) {
                run.clear();
                run.extend(views.iter().filter_map(|v| match v {
                    ViewOutcome::Record(r) => Some(*r),
                    _ => None,
                }));
                let failed = parse_run(&run, &mut parsed);
                ok += parsed.len();
                black_box(failed);
            }
            black_box(ok)
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
