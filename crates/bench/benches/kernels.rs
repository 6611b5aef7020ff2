//! The `kernels` group: packed analysis kernels against their retained
//! naive references, on synthetic inputs sized like the hot paths.
//!
//! The word-packed NIST battery vs the bit-vector reference; the exact
//! integer period detector on three trains (60 sessions over 44 weeks,
//! 3 000 dense sessions that take the one-transform path, and 3 sessions
//! over 127 years) and the O(n·lag) scan oracle on the first; and the
//! sorted-projection DBSCAN vs the textbook O(n²) scan. Every kernel's
//! output is asserted equal to its reference before timing (the period
//! detector's wherever the oracle is tractable: the whole result, score
//! bits included), so a divergence fails the bench run rather than timing
//! the wrong kernel.

use criterion::{criterion_group, criterion_main, Criterion};
use sixscope_analysis::autocorr::{Period, PeriodDetector};
use sixscope_analysis::dbscan::{dbscan_indexed, Assignment};
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

/// The textbook O(n²) DBSCAN the analysis crate's tests use.
#[path = "../../analysis/tests/dbscan_oracle/mod.rs"]
mod dbscan_oracle;

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

/// Session-start pairs 4 h apart, one pair every `every` hours: the
/// inter-arrival fast path rejects the train (the other gap is no multiple
/// of the 4 h median), so the ACF decides it.
fn paired_starts(pairs: u64, every: u64) -> Vec<SimTime> {
    (0..pairs)
        .flat_map(|i| [i * every, i * every + 4].map(|h| SimTime::from_secs(h * 3600)))
        .collect()
}

fn bench_autocorr(c: &mut Criterion) {
    let det = PeriodDetector::default();
    let trains = [
        // 60 sessions over 44 weeks: the sparse path enumerates 1 290
        // pairs.
        ("sparse_44w", paired_starts(30, 254), true),
        // 3 000 sessions, alternating 4 h / 7 h gaps over 16 500 hours:
        // 3.4 M pairs, so one 32 768-point transform counts them.
        ("dense_3000", paired_starts(1500, 11), true),
        // 3 sessions over 127 years (1.1 M hourly buckets): one pair.
        (
            "long_span",
            [0, 1_000_000_000, 4_000_000_000]
                .map(SimTime::from_secs)
                .to_vec(),
            false,
        ),
    ];
    for (name, starts, tractable) in &trains {
        let got = det.detect(starts);
        if *tractable {
            let want = autocorr_oracle::detect(&det, starts);
            assert_eq!(got, want, "{name}");
            assert_eq!(
                got.map(|p| p.score.to_bits()),
                want.map(|p| p.score.to_bits()),
                "{name}"
            );
        }
        c.bench_function(format!("kernels_autocorr_{name}"), |b| {
            b.iter(|| black_box(det.detect(black_box(starts))))
        });
    }
    let sparse = &trains[0].1;
    c.bench_function("kernels_autocorr_reference", |b| {
        b.iter(|| black_box(autocorr_oracle::detect(&det, black_box(sparse))))
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
        dbscan_oracle::dbscan(&points, 0.5, 4, dist),
        dbscan_indexed(&points, 0.5, 4, |&p| p, dist)
    );
    c.bench_function("kernels_dbscan_indexed", |b| {
        b.iter(|| black_box(dbscan_indexed(&points, 0.5, 4, |&p| p, dist)))
    });
    c.bench_function("kernels_dbscan_scan", |b| {
        b.iter(|| black_box(dbscan_oracle::dbscan(&points, 0.5, 4, dist)))
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
