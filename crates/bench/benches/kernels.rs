//! The `kernels` group: packed analysis kernels against their retained
//! naive references, on synthetic inputs sized like the hot paths.
//!
//! Three pairs: the word-packed NIST battery vs the bit-vector reference,
//! the Wiener–Khinchin period detector vs the O(n·lag) ACF scan, and the
//! sorted-projection DBSCAN vs the O(n²) neighbor scan. Each pair asserts
//! equal outputs before timing, so a divergence fails the bench run rather
//! than timing the wrong kernel.

use criterion::{criterion_group, criterion_main, Criterion};
use sixscope_analysis::autocorr::{Period, PeriodDetector};
use sixscope_analysis::dbscan::{dbscan, dbscan_indexed};
use sixscope_analysis::nist::{BitSequence, NistTest, Twiddles};
use sixscope_analysis::special::{erfc, normal_cdf};
use sixscope_types::{SimTime, Xoshiro256pp};
use std::hint::black_box;

/// The NIST `&[bool]` oracle the analysis crate's tests use.
#[path = "../../analysis/tests/nist_oracle/mod.rs"]
mod nist_oracle;

/// The O(n·lag) period-detector oracle the analysis crate's tests use.
#[path = "../../analysis/tests/autocorr_oracle/mod.rs"]
mod autocorr_oracle;

/// A random bit sequence about as long as a large Fig. 17 IID train.
fn random_bits(n: usize, seed: u64) -> BitSequence {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut seq = BitSequence::new();
    for _ in 0..n / 64 {
        seq.push_bits(rng.next_u64() as u128, 64);
    }
    seq
}

fn bench_nist(c: &mut Criterion) {
    let seq = random_bits(1 << 18, 7);
    let bits = seq.to_bools();
    // Packed and reference kernels agree bit-for-bit.
    for outcome in seq.run_all() {
        let want = match outcome.test {
            NistTest::Frequency => nist_oracle::frequency_p(&bits),
            NistTest::Runs => nist_oracle::runs_p(&bits),
            NistTest::Fft => nist_oracle::fft_p(&bits),
            NistTest::CusumForward => nist_oracle::cusum_p(&bits, false),
            NistTest::CusumBackward => nist_oracle::cusum_p(&bits, true),
        };
        assert_eq!(
            outcome.p_value.to_bits(),
            want.to_bits(),
            "{:?}",
            outcome.test
        );
    }
    let twiddles = Twiddles::new();
    // Warm the twiddle table so the packed bench times the transform.
    black_box(seq.run_all_with(&twiddles));
    c.bench_function("kernels_nist_packed", |b| {
        b.iter(|| black_box(seq.run_all_with(&twiddles)))
    });
    c.bench_function("kernels_nist_reference", |b| {
        b.iter(|| {
            black_box(nist_oracle::frequency_p(&bits));
            black_box(nist_oracle::runs_p(&bits));
            black_box(nist_oracle::fft_p(&bits));
            black_box(nist_oracle::cusum_p(&bits, false));
            black_box(nist_oracle::cusum_p(&bits, true));
        })
    });
}

/// A session-start train with alternating 4h/7h gaps: the inter-arrival
/// fast path rejects it (7h is no multiple of the 4h median gap), but the
/// hourly activity series repeats every 11 buckets, so detection has to go
/// through the ACF — the path the FFT rewrite targets.
fn periodic_starts(pairs: u64) -> Vec<SimTime> {
    (0..pairs)
        .flat_map(|i| {
            let base = i * 11 * 3600;
            [
                SimTime::from_secs(base),
                SimTime::from_secs(base + 4 * 3600),
            ]
        })
        .collect()
}

fn bench_autocorr(c: &mut Criterion) {
    let det = PeriodDetector::default();
    let starts = periodic_starts(140);
    let fast = det.detect(&starts);
    let slow = autocorr_oracle::detect(&det, &starts);
    assert_eq!(
        fast.as_ref().map(|p| p.period),
        slow.as_ref().map(|p| p.period)
    );
    assert!(fast.is_some(), "the synthetic train must have a period");
    c.bench_function("kernels_autocorr_fft", |b| {
        b.iter(|| black_box(det.detect(&starts)))
    });
    c.bench_function("kernels_autocorr_reference", |b| {
        b.iter(|| black_box(autocorr_oracle::detect(&det, &starts)))
    });
}

fn bench_dbscan(c: &mut Criterion) {
    let mut rng = Xoshiro256pp::seed_from_u64(13);
    // Forty narrow clumps plus uniform noise, like per-scanner session
    // gaps: the projection window prunes almost every candidate pair.
    let points: Vec<f64> = (0..4000)
        .map(|i| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            if i % 4 == 3 {
                u * 1000.0
            } else {
                12.5 + (i % 40) as f64 * 25.0 + u
            }
        })
        .collect();
    let dist = |a: &f64, b: &f64| (a - b).abs();
    assert_eq!(
        dbscan(&points, 0.5, 4, dist),
        dbscan_indexed(&points, 0.5, 4, |&p| p, dist)
    );
    c.bench_function("kernels_dbscan_indexed", |b| {
        b.iter(|| black_box(dbscan_indexed(&points, 0.5, 4, |&p| p, dist)))
    });
    c.bench_function("kernels_dbscan_scan", |b| {
        b.iter(|| black_box(dbscan(&points, 0.5, 4, dist)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = bench_nist, bench_autocorr, bench_dbscan
}
criterion_main!(benches);
