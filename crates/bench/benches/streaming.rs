//! Streaming-pipeline benchmark: the chunked pcap pipeline at several
//! chunk sizes (whose outputs are byte-identical — only memory and
//! wall-clock move). The sessionizer alone is `sessionizer/sessionize_t1_128`
//! in `benches/pipeline.rs`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sixscope::Pipeline;
use sixscope_bench::bench_corpus;
use sixscope_telescope::TelescopeId;
use std::hint::black_box;
use std::path::PathBuf;

/// Writes the bench corpus's T1 capture to a temp pcap once, then times
/// the full streaming pipeline over it at different chunk sizes.
fn bench_chunked_pipeline(c: &mut Criterion) {
    let a = bench_corpus();
    let capture = a.capture(TelescopeId::T1);
    let path: PathBuf =
        std::env::temp_dir().join(format!("sixscope-bench-stream-{}.pcap", std::process::id()));
    let file = std::fs::File::create(&path).expect("create bench pcap");
    capture.write_pcap(file).expect("write bench pcap");

    let mut group = c.benchmark_group("streaming_pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(capture.len() as u64));
    for chunk in [1usize << 12, usize::MAX] {
        let label = if chunk == usize::MAX {
            "unchunked".to_string()
        } else {
            format!("chunk_{chunk}")
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let out = Pipeline::from_pcaps([path.clone()])
                    .chunk_records(chunk)
                    .run_detailed()
                    .expect("bench pcap must stream");
                black_box(out.analyzed.peak_open_sessions)
            })
        });
    }
    group.finish();
    let _ = std::fs::remove_file(&path);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = bench_chunked_pipeline
}
criterion_main!(benches);
