//! Period detection by autocorrelation (after Breitenbach et al.).
//!
//! The temporal taxonomy (§5.1) calls a recurrent scanner *periodic* when a
//! stable period exists between its scan sessions, and *intermittent*
//! otherwise. We detect periods by (1) bucketizing session start times into
//! a binary activity series, (2) computing the normalized autocorrelation
//! function, and (3) looking for a dominant lag whose multiples also
//! correlate — the "repeating pattern" criterion of that method.
//!
//! Step (2) is exact integer arithmetic over the occupied buckets alone:
//! its cost follows a train's session count rather than its observation
//! span, and the decision is a function of the start times alone.

use crate::nist::{fft_error_bound, fft_in_place};
use sixscope_types::{SimDuration, SimTime};

/// Result of period detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Period {
    /// The detected period.
    pub period: SimDuration,
    /// Autocorrelation score at that lag, in `[0, 1]`.
    pub score: f64,
}

/// Configuration for the detector.
#[derive(Debug, Clone, Copy)]
pub struct PeriodDetector {
    /// Bucket width for the activity series (default: 1 hour).
    pub bucket: SimDuration,
    /// Minimum autocorrelation score to accept a period.
    pub min_score: f64,
    /// Minimum number of sessions to even attempt detection; the paper
    /// requires periodic scanners to "appear more than twice".
    pub min_sessions: usize,
}

impl Default for PeriodDetector {
    fn default() -> Self {
        PeriodDetector {
            bucket: SimDuration::hours(1),
            min_score: 0.5,
            min_sessions: 3,
        }
    }
}

impl PeriodDetector {
    /// Detects a stable period in session start times, or `None`.
    pub fn detect(&self, starts: &[SimTime]) -> Option<Period> {
        if starts.len() < self.min_sessions {
            return None;
        }
        let mut times: Vec<u64> = starts.iter().map(|t| t.as_secs()).collect();
        times.sort_unstable();
        let t0 = times[0];
        let span = times[times.len() - 1] - t0;
        if span == 0 {
            return None;
        }
        // Fast path on inter-arrival gaps: a periodic scanner's gaps are
        // (near-)integer multiples of a base period — exact multiples
        // whenever sessions drop out (withdrawal days, single-prefix picks
        // that miss the telescope). Take the median gap as the period
        // candidate and require most gaps to sit within 20% of *some*
        // multiple of it; exponential/intermittent gap trains fail this
        // overwhelmingly.
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
        // General path: the ACF of the binary activity series, exactly, from
        // the sorted occupied buckets (see `Acf`). Every comparison below is
        // between integers, or between one correctly rounded quotient and a
        // constant, so the decision depends on the start times alone.
        let bucket = self.bucket.as_secs().max(1);
        let n = u128::from(span / bucket) + 1;
        if n < 8 {
            return None;
        }
        let mut occupied: Vec<u64> = times.iter().map(|t| (t - t0) / bucket).collect();
        occupied.dedup();
        let acf = Acf::new(occupied, n)?;
        let max_lag = acf.n / 2;
        // Find the best local-max lag.
        let mut best: Option<(u64, i128)> = None;
        let mut consider = |lag: u64| {
            let c = acf.numerator(lag);
            if c > acf.numerator(lag - 1)
                && c >= acf.numerator(lag + 1)
                && best.is_none_or(|(_, bc)| c > bc)
                && acf.score(c) >= self.min_score
            {
                best = Some((lag, c));
            }
        };
        if self.min_score > 0.0 {
            // A lag that no pair spans has a negative ACF (see `Acf`), so
            // only the lags in `pairs` can pass a positive threshold.
            for &(lag, _) in &acf.pairs {
                if (2..max_lag).contains(&lag) {
                    consider(lag);
                }
            }
        } else {
            (2..max_lag).for_each(consider);
        }
        let (lag, c) = best?;
        // Validate: the doubled lag must also correlate (a repeating
        // pattern, not a one-off coincidence).
        if 2 * lag < max_lag && acf.score(acf.numerator(2 * lag)) < self.min_score * 0.5 {
            return None;
        }
        Some(Period {
            period: SimDuration::secs(lag * bucket),
            score: acf.score(c),
        })
    }
}

/// The exact autocorrelation of a binary activity series of `n` buckets,
/// `K` of them occupied.
///
/// With `y_t = n·x_t − K` (`n` times the mean-centred series), the ACF at
/// lag `L` is `Σ_{t<n−L} y_t·y_{t+L} / Σ_t y_t²`. The numerator is
/// `n²·C(L) − n·K·(A(L) + B(L)) + K²·(n − L)` and the denominator
/// `n·K·(n − K)`, where `C(L)` counts occupied pairs `L` apart, `A(L)` the
/// occupied buckets before `n − L` and `B(L)` those from `L` on. Below
/// `n/2` the two ranges cover the series, so `A + B ≥ K`, and a lag with
/// `C(L) = 0` has a numerator of at most `−K²·L < 0`.
///
/// `C(L)` comes from enumerating the `P` pairs at most `n/2` apart (O(P)
/// memory, never O(n)) or, when `P > n·⌈log2 n⌉` and the transform's
/// error is bounded at its length, from one transform of the series; both
/// give the same integers.
struct Acf {
    n: u64,
    k: u64,
    /// `n·K·(n − K)`.
    den: i128,
    /// The occupied buckets, ascending.
    occupied: Vec<u64>,
    /// `(L, C(L))` for every lag `1 ≤ L ≤ n/2` with `C(L) > 0`, ascending.
    pairs: Vec<(u64, u64)>,
}

impl Acf {
    /// `None` for a constant series (every bucket occupied), or when the
    /// numerators could leave `i128`: they stay within `±4·n²·K`, which
    /// fits for any `u64` span at hourly buckets (`n < 2^52.2`) with up to
    /// 2^20 occupied buckets.
    fn new(occupied: Vec<u64>, n: u128) -> Option<Acf> {
        let k = occupied.len() as u128;
        let magnitude = n.checked_mul(n)?.checked_mul(4 * k)?;
        if k == n || magnitude > i128::MAX as u128 {
            return None;
        }
        // The bound keeps n below 2^62.
        let (n, k) = (n as u64, k as u64);
        let max_lag = n / 2;
        let total = pair_count(&occupied, max_lag);
        let log2_n = u64::BITS - (n - 1).leading_zeros();
        let dense = (total > u128::from(n) * u128::from(log2_n))
            .then(|| dense_pair_counts(&occupied, n, max_lag))
            .flatten();
        let pairs = dense.unwrap_or_else(|| sparse_pair_counts(&occupied, max_lag, total));
        let den = i128::from(n) * i128::from(k) * i128::from(n - k);
        Some(Acf {
            n,
            k,
            den,
            occupied,
            pairs,
        })
    }

    /// The ACF numerator `Σ_{t<n−L} y_t·y_{t+L}` at lag `L ≤ n`.
    fn numerator(&self, lag: u64) -> i128 {
        let before = |b: u64| self.occupied.partition_point(|&p| p < b) as i128;
        let c = self
            .pairs
            .binary_search_by_key(&lag, |&(l, _)| l)
            .map_or(0, |i| self.pairs[i].1);
        let (n, k, l) = (i128::from(self.n), i128::from(self.k), i128::from(lag));
        let a = before(self.n - lag);
        let b = k - before(lag);
        n * n * i128::from(c) - n * k * (a + b) + k * k * (n - l)
    }

    /// The ACF for a numerator, correctly rounded.
    fn score(&self, numerator: i128) -> f64 {
        quotient(numerator, self.den)
    }
}

/// The number of occupied pairs at most `max_lag` apart, in O(K).
fn pair_count(occupied: &[u64], max_lag: u64) -> u128 {
    let mut end = 0;
    occupied
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            end = end.max(i + 1);
            while end < occupied.len() && occupied[end] - p <= max_lag {
                end += 1;
            }
            (end - i - 1) as u128
        })
        .sum()
}

/// `(L, C(L))` for every lag `1 ≤ L ≤ max_lag` with `C(L) > 0`: the
/// `pairs` differences at most `max_lag`, sorted and counted.
fn sparse_pair_counts(occupied: &[u64], max_lag: u64, pairs: u128) -> Vec<(u64, u64)> {
    let mut lags = Vec::with_capacity(usize::try_from(pairs).expect("pairs fit in memory"));
    for (i, &p) in occupied.iter().enumerate() {
        lags.extend(
            occupied[i + 1..]
                .iter()
                .map(|&q| q - p)
                .take_while(|&lag| lag <= max_lag),
        );
    }
    lags.sort_unstable();
    lags.chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len() as u64))
        .collect()
}

/// The same counts from one transform: `C(L)` is the linear
/// autocorrelation of the 0/1 series, which the circular one of a copy
/// zero-padded to at least `n + max_lag` points equals at every lag up to
/// `max_lag`. Each value is rounded to the nearest integer, which is exact
/// because the transforms' error stays below ½ (asserted). `None` past
/// the lengths whose error [`fft_error_bound`] bounds.
fn dense_pair_counts(occupied: &[u64], n: u64, max_lag: u64) -> Option<Vec<(u64, u64)>> {
    let nfft = usize::try_from(n + max_lag)
        .ok()?
        .checked_next_power_of_two()?;
    let err = dense_error(nfft, occupied.len())?;
    assert!(err < 0.5, "C(L) error bound {err} at {nfft} points");
    let mut re = vec![0.0f64; nfft];
    let mut im = vec![0.0f64; nfft];
    for &p in occupied {
        re[p as usize] = 1.0;
    }
    fft_in_place(&mut re, &mut im);
    for (r, i) in re.iter_mut().zip(&mut im) {
        *r = *r * *r + *i * *i;
        *i = 0.0;
    }
    // The power spectrum is real and even, so a forward transform is its
    // own inverse up to the 1/nfft scale.
    fft_in_place(&mut re, &mut im);
    let inv = 1.0 / nfft as f64;
    Some(
        (1..=max_lag)
            .filter_map(|lag| {
                let c = (re[lag as usize] * inv).round();
                (c >= 1.0).then_some((lag, c as u64))
            })
            .collect(),
    )
}

/// Bound on `|Ĉ(L) − C(L)|` in [`dense_pair_counts`] for `k` occupied
/// buckets among `nfft` points. The first transform's error `e` (in
/// 2-norm, with `‖x‖₂ = √K` and `‖X‖₂ = √(N·K)`) and the squaring leave
/// the power spectrum within `d = e·(2‖X‖ + e) + γ₂·(‖X‖ + e)²` in 1-norm,
/// which bounds its effect on every output of the second transform; that
/// transform adds its own error on an input of 2-norm at most
/// `‖P̂‖₁ ≤ N·K + d`; and the 1/N scale is exact.
fn dense_error(nfft: usize, k: usize) -> Option<f64> {
    let (nf, kf) = (nfft as f64, k as f64);
    let x = (nf * kf).sqrt();
    let e = fft_error_bound(nfft, kf.sqrt())?;
    let d = e * (2.0 * x + e) + 1.01 * f64::EPSILON * (x + e) * (x + e);
    Some((d + fft_error_bound(nfft, nf * kf + d)?) / nf * (1.0 + 1e-6))
}

/// `num / den` correctly rounded to the nearest `f64` (ties to even), for
/// `den > 0`: long division to at least 56 significant bits, with a
/// nonzero remainder folded into the last bit (round to odd, which
/// double rounding cannot disturb), then one conversion.
fn quotient(num: i128, den: i128) -> f64 {
    debug_assert!(den > 0);
    let d = den.unsigned_abs();
    let (mut q, mut r) = (num.unsigned_abs() / d, num.unsigned_abs() % d);
    if q == 0 && r == 0 {
        return 0.0;
    }
    let mut shift = 0u64;
    while q < 1 << 55 {
        // r < d < 2^127, so doubling it cannot overflow.
        r <<= 1;
        q = q << 1 | u128::from(r >= d);
        if r >= d {
            r -= d;
        }
        shift += 1;
    }
    // 2^-shift, exactly: shift ≤ 55 + 127 stays far inside the normal range.
    let scale = f64::from_bits((1023 - shift) << 52);
    let magnitude = (q | u128::from(r != 0)) as f64 * scale;
    if num < 0 {
        -magnitude
    } else {
        magnitude
    }
}

/// The O(n·lag) ACF scan, shared with `tests/prop.rs` and the `kernels`
/// bench.
#[cfg(test)]
#[path = "../tests/autocorr_oracle/mod.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn t(h: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::hours(h)
    }

    #[test]
    fn perfectly_periodic_daily_scanner() {
        let starts: Vec<SimTime> = (0..20).map(|d| t(d * 24)).collect();
        let p = PeriodDetector::default()
            .detect(&starts)
            .expect("period found");
        assert_eq!(p.period, SimDuration::hours(24));
        assert!(p.score > 0.8);
    }

    #[test]
    fn jittered_period_still_detected() {
        // Daily with ±30 min jitter.
        let jitter = [13i64, -25, 7, 30, -12, 4, -28, 19, 0, 11, -6, 22, -17, 9, 3];
        let starts: Vec<SimTime> = jitter
            .iter()
            .enumerate()
            .map(|(d, j)| SimTime::from_secs((d as i64 * 86_400 + j * 60).max(0) as u64))
            .collect();
        let p = PeriodDetector::default()
            .detect(&starts)
            .expect("period found");
        let hours = p.period.as_secs() as f64 / 3600.0;
        assert!((hours - 24.0).abs() < 1.5, "period was {hours} h");
    }

    #[test]
    fn irregular_sessions_have_no_period() {
        // Gaps drawn to be wildly irregular.
        let hours = [0u64, 3, 50, 51, 200, 310, 311, 700, 1100, 1111];
        let starts: Vec<SimTime> = hours.iter().map(|&h| t(h)).collect();
        assert!(PeriodDetector::default().detect(&starts).is_none());
    }

    #[test]
    fn too_few_sessions_is_never_periodic() {
        // Two sessions exactly 24 h apart: paper requires > 2 appearances.
        let starts = vec![t(0), t(24)];
        assert!(PeriodDetector::default().detect(&starts).is_none());
    }

    #[test]
    fn identical_timestamps_are_not_periodic() {
        let starts = vec![t(5); 10];
        assert!(PeriodDetector::default().detect(&starts).is_none());
    }

    #[test]
    fn weekly_period() {
        let starts: Vec<SimTime> = (0..12).map(|w| t(w * 24 * 7)).collect();
        let p = PeriodDetector::default().detect(&starts).expect("period");
        assert_eq!(p.period, SimDuration::weeks(1));
    }

    #[test]
    fn hourly_period_with_fine_buckets() {
        let det = PeriodDetector {
            bucket: SimDuration::mins(10),
            ..Default::default()
        };
        let starts: Vec<SimTime> = (0..30).map(|i| SimTime::from_secs(i * 3600)).collect();
        let p = det.detect(&starts).expect("period");
        assert_eq!(p.period, SimDuration::hours(1));
    }

    #[test]
    fn decisions_match_the_scan_oracle() {
        // Alternating 4 h / 7 h gaps defeat the inter-arrival fast path,
        // so that train is decided by the ACF; the others take the fast
        // path or an early exit.
        let alternating: Vec<SimTime> = (0..40).flat_map(|i| [t(i * 11), t(i * 11 + 4)]).collect();
        let det = PeriodDetector::default();
        assert_eq!(
            det.detect(&alternating).map(|p| p.period),
            Some(SimDuration::hours(11))
        );
        let trains: [Vec<SimTime>; 5] = [
            alternating,
            (0..20).map(|d| t(d * 24)).collect(),
            [0u64, 3, 50, 51, 200, 310, 311, 700, 1100, 1111]
                .map(t)
                .to_vec(),
            vec![t(0), t(24)],
            vec![t(5); 10],
        ];
        for starts in &trains {
            let (got, want) = (det.detect(starts), oracle::detect(&det, starts));
            assert_eq!(got, want, "{starts:?}");
            assert_eq!(
                got.map(|p| p.score.to_bits()),
                want.map(|p| p.score.to_bits())
            );
        }
    }

    /// The occupied hourly buckets of `starts`, counted from the first one,
    /// and the series length `n`.
    fn occupied(starts: &[SimTime]) -> (Vec<u64>, u64) {
        let mut b: Vec<u64> = starts.iter().map(|s| s.as_secs() / 3600).collect();
        b.sort_unstable();
        b.dedup();
        let n = b[b.len() - 1] - b[0] + 1;
        (b.iter().map(|&p| p - b[0]).collect(), n)
    }

    #[test]
    fn both_counting_paths_give_identical_pair_counts() {
        let mut rng = sixscope_types::Xoshiro256pp::seed_from_u64(11);
        let random: Vec<SimTime> = (0..900).map(|_| t(rng.below(3000))).collect();
        let trains: [(Vec<SimTime>, bool); 4] = [
            // Alternating 4 h / 7 h gaps: 600 starts, dense.
            (
                (0..300).flat_map(|i| [t(i * 11), t(i * 11 + 4)]).collect(),
                true,
            ),
            // Random hours, about a quarter of 3 000 occupied: dense.
            (random, true),
            // The 44-week train with 60 sessions: sparse.
            (
                (0..30).flat_map(|i| [t(i * 254), t(i * 254 + 4)]).collect(),
                false,
            ),
            // Three starts over 127 years: sparse.
            (vec![t(0), t(277_777), t(1_111_111)], false),
        ];
        for (starts, dense) in &trains {
            let (pos, n) = occupied(starts);
            let max_lag = n / 2;
            let total = pair_count(&pos, max_lag);
            let log2_n = u64::BITS - (n - 1).leading_zeros();
            assert_eq!(total > u128::from(n * u64::from(log2_n)), *dense, "n = {n}");
            let sparse = sparse_pair_counts(&pos, max_lag, total);
            assert_eq!(
                sparse.iter().map(|&(_, c)| u128::from(c)).sum::<u128>(),
                total
            );
            let transformed = dense_pair_counts(&pos, n, max_lag).expect("certified length");
            assert_eq!(sparse, transformed, "n = {n}, K = {}", pos.len());
        }
    }

    #[test]
    fn quotients_are_correctly_rounded() {
        // Below 2^53 both operands convert exactly, so IEEE division is
        // the correctly rounded reference; scaling both by 2^70 keeps the
        // value and must keep the result.
        let mut rng = sixscope_types::Xoshiro256pp::seed_from_u64(5);
        for _ in 0..10_000 {
            let den = (rng.next_u64() >> 11).max(1) as i128;
            let num = (rng.below(den as u64 + 1) as i128) * if rng.bool(0.5) { -1 } else { 1 };
            let want = num as f64 / den as f64;
            assert_eq!(quotient(num, den).to_bits(), want.to_bits(), "{num}/{den}");
            assert_eq!(
                quotient(num << 70, den << 70).to_bits(),
                want.to_bits(),
                "{num}/{den} scaled"
            );
        }
        // Ties round to even, and a remainder breaks the tie upward.
        let big = 1i128 << 53;
        assert_eq!(quotient(big + 1, 1), big as f64);
        assert_eq!(quotient(big + 3, 1), (big + 4) as f64);
        assert_eq!(quotient(((big + 1) << 40) + 1, 1 << 40), (big + 2) as f64);
        assert_eq!(quotient(1, 3 << 100), 1.0 / 3.0 / 2f64.powi(100));
        assert_eq!(quotient(0, 7), 0.0);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let mut starts: Vec<SimTime> = (0..15).map(|d| t(d * 24)).collect();
        starts.reverse();
        assert!(PeriodDetector::default().detect(&starts).is_some());
    }
}
