//! End-to-end pipeline benchmarks: how fast the substrate itself runs —
//! packet codecs, BGP propagation, sessionization, the full experiment.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sixscope::sim::ScenarioConfig;
use sixscope::{scanners::ExperimentLayout, scanners::PopulationSpec, Pipeline};
use sixscope_bench::bench_corpus;
use sixscope_telescope::{AggLevel, Sessionizer, TelescopeId};
use std::hint::black_box;

fn bench_packet_codec(c: &mut Criterion) {
    use sixscope::packet::{PacketBuilder, ParsedView};
    let builder = PacketBuilder::new("2a0a::1".parse().unwrap(), "2001:db8::1".parse().unwrap());
    let bytes = builder.icmpv6_echo_request(7, 9, b"yrp6-0000000042");
    let mut group = c.benchmark_group("packet_codec");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("build_echo_request", |b| {
        b.iter(|| black_box(builder.icmpv6_echo_request(7, 9, b"yrp6-0000000042")))
    });
    group.bench_function("parse_echo_request", |b| {
        b.iter(|| black_box(ParsedView::parse(&bytes).unwrap()))
    });
    group.finish();
}

fn bench_bgp_propagation(c: &mut Criterion) {
    use sixscope::bgp::topology::standard_topology;
    use sixscope::types::{Asn, SimDuration, SimTime};
    c.bench_function("bgp_announce_withdraw_cycle", |b| {
        b.iter_batched(
            || standard_topology(Asn(64500), Asn(64510), Asn(64999), SimTime::EPOCH),
            |mut topo| {
                let prefix = "2001:db8::/32".parse().unwrap();
                let t0 = SimTime::from_secs(1000);
                topo.announce(Asn(64500), prefix, t0);
                topo.run_until(t0 + SimDuration::mins(5));
                topo.withdraw(Asn(64500), prefix, t0 + SimDuration::hours(1));
                topo.run_until(t0 + SimDuration::hours(2));
                black_box(topo.global_table())
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_sessionizer(c: &mut Criterion) {
    let a = bench_corpus();
    let capture = a.capture(TelescopeId::T1);
    let mut group = c.benchmark_group("sessionizer");
    group.throughput(Throughput::Elements(capture.len() as u64));
    group.bench_function("sessionize_t1_128", |b| {
        b.iter(|| black_box(Sessionizer::paper(AggLevel::Addr128).sessionize(capture)))
    });
    group.finish();
}

fn bench_population_build(c: &mut Criterion) {
    let layout = ExperimentLayout::default_plan();
    c.bench_function("population_build_tiny", |b| {
        b.iter(|| black_box(PopulationSpec::tiny(7).build(&layout)))
    });
}

fn bench_full_experiment(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiment");
    group.sample_size(10);
    group.bench_function("full_run_tiny_scale", |b| {
        b.iter(|| {
            let a = Pipeline::simulate(ScenarioConfig::new(42, 0.002))
                .run()
                .expect("simulated runs cannot fail");
            black_box(a.result.total_packets())
        })
    });
    group.finish();
}

/// Serial vs. parallel execution engine on the same scenario. The outputs
/// are byte-identical (see `parallel_determinism`); only wall-clock moves.
fn bench_engine_threads(c: &mut Criterion) {
    use sixscope::sim::{Scenario, ScenarioConfig};
    use sixscope::types::num_threads;

    let run = |threads: usize| {
        let mut config = ScenarioConfig::new(42, 0.008);
        config.threads = Some(threads);
        Scenario::new(config).run().total_packets()
    };
    let mut group = c.benchmark_group("engine_threads");
    group.sample_size(10);
    group.bench_function("serial_1_thread", |b| b.iter(|| black_box(run(1))));
    let n = num_threads(None).max(2);
    group.bench_function(format!("parallel_{n}_threads"), |b| {
        b.iter(|| black_box(run(n)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = bench_packet_codec, bench_bgp_propagation, bench_sessionizer,
              bench_population_build, bench_full_experiment, bench_engine_threads
}
criterion_main!(benches);
