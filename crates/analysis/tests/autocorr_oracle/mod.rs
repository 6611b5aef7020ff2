//! The period detector before its Wiener–Khinchin rewrite, kept as the
//! ground truth for `autocorr::PeriodDetector::detect`: the same
//! inter-arrival fast path, but the general path evaluates the ACF as one
//! O(n) scan per candidate lag.
//!
//! Test-only. It is shared by the `autocorr` unit tests
//! (`src/autocorr.rs`), the property tests (`tests/prop.rs`) and the
//! `kernels` bench; each includer brings `Period` and `PeriodDetector`
//! into the parent scope, so this file names them through `super`.

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
    let n_buckets = (span / bucket + 1) as usize;
    if n_buckets < 8 {
        return None;
    }
    let mut series = vec![0.0f64; n_buckets];
    for t in &times {
        series[((t - t0) / bucket) as usize] = 1.0;
    }
    let mean = series.iter().sum::<f64>() / n_buckets as f64;
    for v in &mut series {
        *v -= mean;
    }
    let denom: f64 = series.iter().map(|v| v * v).sum();
    if denom == 0.0 {
        return None;
    }
    let max_lag = n_buckets / 2;
    let acf = |lag: usize| -> f64 {
        let num: f64 = (0..n_buckets - lag)
            .map(|i| series[i] * series[i + lag])
            .sum();
        num / denom
    };
    // Find the best local-max lag.
    let mut best: Option<(usize, f64)> = None;
    for lag in 2..max_lag {
        let c = acf(lag);
        if c >= det.min_score
            && c > acf(lag - 1)
            && c >= acf(lag + 1)
            && best.is_none_or(|(_, bc)| c > bc)
        {
            best = Some((lag, c));
        }
    }
    let (lag, score) = best?;
    // Validate: the doubled lag must also correlate (a repeating
    // pattern, not a one-off coincidence).
    if 2 * lag < max_lag && acf(2 * lag) < det.min_score * 0.5 {
        return None;
    }
    Some(Period {
        period: SimDuration::secs(lag as u64 * bucket),
        score,
    })
}
