//! Simulation-half benchmarks: batched columnar probe generation and the
//! fused generate+deliver scenario run. The `simulate` group backs the CI
//! bench-smoke gate for the hot half of `repro`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sixscope::scanners::scanner::StaticContext;
use sixscope::scanners::{ExperimentLayout, GenScratch, PopulationSpec, ProbeBatch};
use sixscope::sim::{Scenario, ScenarioConfig};
use sixscope_bench::{BENCH_SCALE, SEED};
use sixscope_types::Xoshiro256pp;
use std::hint::black_box;

/// A bench-scale population plus a static world view: every layout prefix
/// announced for the whole horizon, so generation exercises the full
/// session/address machinery without control-plane noise.
fn gen_fixture() -> (
    Vec<sixscope::scanners::ScannerSpec>,
    Vec<Xoshiro256pp>,
    StaticContext,
) {
    let layout = ExperimentLayout::default_plan();
    let population = PopulationSpec {
        seed: SEED,
        scale: BENCH_SCALE,
    }
    .build(&layout);
    let mut master = Xoshiro256pp::seed_from_u64(SEED ^ 0x5ca_0b0e5);
    let streams: Vec<Xoshiro256pp> = population
        .scanners
        .iter()
        .map(|spec| master.split(&format!("scanner-{}", spec.id)))
        .collect();
    let ctx = StaticContext {
        announced: vec![layout.t1, layout.t2, layout.covering],
        events: vec![(layout.start, layout.t1)],
        hitlist: vec![layout.t1.low_byte_address(), layout.t2_dns_exposed],
        responsive: Some(layout.t4),
        end: layout.end,
    };
    (population.scanners, streams, ctx)
}

fn bench_probe_generation(c: &mut Criterion) {
    let (scanners, streams, ctx) = gen_fixture();
    let mut scratch = GenScratch::new();
    let mut batch = ProbeBatch::new();
    let mut generate_all = || {
        let mut n = 0usize;
        for (spec, stream) in scanners.iter().zip(&streams) {
            spec.generate_into(&ctx, &mut stream.clone(), &mut scratch, &mut batch);
            batch.sort_by_ts();
            n += batch.len();
        }
        n
    };
    // Probe count for throughput: one untimed pass.
    let total = generate_all() as u64;
    let mut group = c.benchmark_group("simulate");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total));
    group.bench_function("probe_gen_batched", |b| {
        b.iter(|| black_box(generate_all()))
    });
    group.finish();
}

fn bench_scenario_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate");
    group.sample_size(10);
    group.bench_function("fused_run", |b| {
        b.iter(|| {
            let (result, _) = Scenario::new(ScenarioConfig::new(SEED, BENCH_SCALE)).run_timed();
            black_box(result.total_packets())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_probe_generation, bench_scenario_runs);
criterion_main!(benches);
