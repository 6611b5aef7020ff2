//! The definition of `autocorr::PeriodDetector::detect`: the inter-arrival
//! fast path, then the ACF of the binary activity series evaluated as one
//! O(n) scan per lag, in `i128` over `y_t = n·x_t − K` (`n` buckets, `K`
//! occupied), so every numerator and the denominator are exact integers.
//!
//! Test-only, and tractable only for short series: it allocates the whole
//! series and its quotients are correctly rounded only below 2^53 (both
//! asserted). It is shared by the `autocorr` unit tests (`src/autocorr.rs`),
//! the property tests (`tests/prop.rs`) and the `kernels` bench; each
//! includer brings `Period` and `PeriodDetector` into the parent scope, so
//! this file names them through `super`.

use super::{Period, PeriodDetector};
use sixscope_types::{SimDuration, SimTime};

/// Detects a stable period in session start times, or `None`.
pub fn detect(det: &PeriodDetector, starts: &[SimTime]) -> Option<Period> {
    if starts.len() < det.min_sessions {
        return None;
    }
    let mut times: Vec<u64> = starts.iter().map(|t| t.as_secs()).collect();
    times.sort_unstable();
    let t0 = times[0];
    let span = times[times.len() - 1] - t0;
    if span == 0 {
        return None;
    }
    let gaps: Vec<f64> = times.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
    let mut sorted_gaps = gaps.clone();
    sorted_gaps.sort_by(|a, b| a.partial_cmp(b).expect("gaps are finite"));
    let median = sorted_gaps[sorted_gaps.len() / 2];
    if median > 0.0 && gaps.len() >= 2 {
        let consistent = gaps
            .iter()
            .filter(|&&g| {
                let k = (g / median).round().max(1.0);
                (g - k * median).abs() <= 0.2 * median
            })
            .count();
        let share = consistent as f64 / gaps.len() as f64;
        if share >= 0.7 {
            return Some(Period {
                period: SimDuration::secs(median.round() as u64),
                score: share,
            });
        }
    }
    // General path: binary activity series + autocorrelation.
    let bucket = det.bucket.as_secs().max(1);
    let n = (span / bucket + 1) as usize;
    if n < 8 {
        return None;
    }
    let mut x = vec![0i128; n];
    for t in &times {
        x[((t - t0) / bucket) as usize] = 1;
    }
    let k: i128 = x.iter().sum();
    let y: Vec<i128> = x.iter().map(|&v| n as i128 * v - k).collect();
    let den: i128 = y.iter().map(|v| v * v).sum();
    if den == 0 {
        return None;
    }
    // |numerator| ≤ den (Cauchy–Schwarz): below 2^53 both convert exactly,
    // so one division rounds the quotient correctly.
    assert!(
        den < 1 << 53,
        "series of {n} buckets is too long for the oracle"
    );
    let score = |num: i128| num as f64 / den as f64;
    let max_lag = n / 2;
    let acf: Vec<i128> = (0..=max_lag)
        .map(|lag| (0..n - lag).map(|i| y[i] * y[i + lag]).sum())
        .collect();
    // Find the best local-max lag.
    let mut best: Option<(usize, i128)> = None;
    for lag in 2..max_lag {
        let c = acf[lag];
        if score(c) >= det.min_score
            && c > acf[lag - 1]
            && c >= acf[lag + 1]
            && best.is_none_or(|(_, bc)| c > bc)
        {
            best = Some((lag, c));
        }
    }
    let (lag, c) = best?;
    // Validate: the doubled lag must also correlate (a repeating
    // pattern, not a one-off coincidence).
    if 2 * lag < max_lag && score(acf[2 * lag]) < det.min_score * 0.5 {
        return None;
    }
    Some(Period {
        period: SimDuration::secs(lag as u64 * bucket),
        score: score(c),
    })
}
