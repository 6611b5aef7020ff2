//! The four NIST SP 800-22 randomness tests used in Appendix B.
//!
//! The paper tests each scan session's target addresses — the 64-bit IIDs
//! and the 32 subnet bits after the telescope's fixed prefix separately —
//! with the frequency (monobit), runs, spectral (FFT) and cumulative-sums
//! tests, at significance level α = 0.01, on sessions of ≥ 100 packets.
//!
//! Implementation notes:
//! * p-values follow SP 800-22 rev. 1a exactly for frequency, runs and
//!   cusum;
//! * the spectral test processes the largest power-of-two prefix of the
//!   sequence (the reference code's DFT is also applied to fixed-size
//!   blocks; thresholding constants follow the revised 0.95·n/2 form);
//! * bits are stored packed, 64 per `u64` word, MSB first. Frequency is a
//!   popcount, runs counting is an XOR against the shifted word, cusum
//!   walks the words through a per-byte prefix-extreme table without
//!   allocating, and the spectral test runs a real-input split FFT over
//!   per-transform buffers, with twiddles from one read-only table per
//!   transform size shared across a batch ([`Twiddles`]). The statistics
//!   they feed into the p-value formulas (bit counts, run counts, peak
//!   partial sums, below-threshold bin counts) are integers, so the packed
//!   kernels reproduce the scalar [`mod@reference`] p-values bit for bit —
//!   which the property tests in `tests/prop.rs` pin.

use crate::special::{erfc, normal_cdf};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The tests the paper applies (Appendix B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NistTest {
    /// Frequency (monobit).
    Frequency,
    /// Runs.
    Runs,
    /// Discrete Fourier transform (spectral).
    Fft,
    /// Cumulative sums, forward.
    CusumForward,
    /// Cumulative sums, backward.
    CusumBackward,
}

impl NistTest {
    /// The tests in the order of Fig. 17.
    pub const ALL: [NistTest; 5] = [
        NistTest::Frequency,
        NistTest::Runs,
        NistTest::Fft,
        NistTest::CusumForward,
        NistTest::CusumBackward,
    ];

    /// Short label for report rows.
    pub fn name(self) -> &'static str {
        match self {
            NistTest::Frequency => "frequency",
            NistTest::Runs => "runs",
            NistTest::Fft => "fft",
            NistTest::CusumForward => "cusum0",
            NistTest::CusumBackward => "cusum1",
        }
    }
}

/// Outcome of one test on one bit sequence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NistOutcome {
    /// Which test ran.
    pub test: NistTest,
    /// The computed p-value in `[0, 1]`.
    pub p_value: f64,
}

impl NistOutcome {
    /// Success at the paper's significance level (p ≥ 0.01 means the
    /// sequence is consistent with randomness).
    pub fn passes(&self) -> bool {
        self.p_value >= 0.01
    }
}

/// A packed bit sequence under test: 64 bits per word, MSB first, so
/// sequence bit `i` lives at bit `63 - i % 64` of `words[i / 64]`.
/// Unused low bits of the last word are always zero.
#[derive(Debug, Clone, Default)]
pub struct BitSequence {
    words: Vec<u64>,
    len: usize,
}

impl BitSequence {
    /// Empty sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the `count` least significant bits of `value`, MSB first.
    pub fn push_bits(&mut self, value: u128, count: u32) {
        assert!(count <= 128);
        let mut remaining = count;
        while remaining > 0 {
            let used = (self.len % 64) as u32;
            if used == 0 {
                self.words.push(0);
            }
            let avail = 64 - used;
            let take = remaining.min(avail);
            let chunk = (value >> (remaining - take)) as u64 & mask_low(take);
            let last = self.words.last_mut().expect("word pushed above");
            *last |= chunk << (avail - take);
            self.len += take as usize;
            remaining -= take;
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw packed words (MSB-first; trailing bits of the last word zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The `i`-th bit of the sequence.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len);
        (self.words[i / 64] >> (63 - i % 64)) & 1 == 1
    }

    /// Unpacks to a `bool` vector (for the [`mod@reference`] kernels/tests).
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.bit(i)).collect()
    }

    /// Runs one test, building any twiddle table it needs for this call.
    pub fn run(&self, test: NistTest) -> NistOutcome {
        self.run_with(test, &Twiddles::new())
    }

    /// Runs one test with the spectral twiddles of the caller's batch.
    pub fn run_with(&self, test: NistTest, twiddles: &Twiddles) -> NistOutcome {
        let p_value = match test {
            NistTest::Frequency => frequency_p(&self.words, self.len),
            NistTest::Runs => runs_p(&self.words, self.len),
            NistTest::Fft => fft_p(&self.words, self.len, twiddles),
            NistTest::CusumForward => cusum_p(&self.words, self.len, false),
            NistTest::CusumBackward => cusum_p(&self.words, self.len, true),
        };
        // The rational erfc approximation can overshoot 1 by ~1e-7.
        NistOutcome {
            test,
            p_value: p_value.clamp(0.0, 1.0),
        }
    }

    /// Runs all five tests.
    pub fn run_all(&self) -> Vec<NistOutcome> {
        self.run_all_with(&Twiddles::new())
    }

    /// Runs all five tests with the spectral twiddles of the caller's batch.
    pub fn run_all_with(&self, twiddles: &Twiddles) -> Vec<NistOutcome> {
        NistTest::ALL
            .iter()
            .map(|&t| self.run_with(t, twiddles))
            .collect()
    }
}

fn mask_low(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// SP 800-22 §2.1 — frequency (monobit), via popcount.
fn frequency_p(words: &[u64], len: usize) -> f64 {
    if len == 0 {
        return 0.0;
    }
    let ones: i64 = words.iter().map(|w| w.count_ones() as i64).sum();
    // Σ(±1) = ones - zeros.
    let s = 2 * ones - len as i64;
    let s_obs = (s.abs() as f64) / (len as f64).sqrt();
    erfc(s_obs / std::f64::consts::SQRT_2)
}

/// Number of adjacent unequal bit pairs, via XOR against the 1-shifted word.
fn transitions(words: &[u64], len: usize) -> u64 {
    let mut trans = 0u64;
    let mut prev_last: Option<u64> = None;
    for (wi, &w) in words.iter().enumerate() {
        let m = if wi + 1 == words.len() {
            (len - wi * 64) as u32
        } else {
            64
        };
        if m >= 2 {
            // Bit v of w ^ (w << 1) is bit v xor bit v+1 of w; the pairs
            // internal to this word sit in the top m-1 value bits.
            let d = w ^ (w << 1);
            trans += (d & (!0u64 << (65 - m))).count_ones() as u64;
        }
        if let Some(p) = prev_last {
            trans += (p ^ (w >> 63)) & 1;
        }
        prev_last = Some((w >> (64 - m)) & 1);
    }
    trans
}

/// SP 800-22 §2.3 — runs.
fn runs_p(words: &[u64], len: usize) -> f64 {
    if len < 2 {
        return 0.0;
    }
    let ones: u64 = words.iter().map(|w| w.count_ones() as u64).sum();
    let pi = ones as f64 / len as f64;
    // Prerequisite frequency check.
    if (pi - 0.5).abs() >= 2.0 / (len as f64).sqrt() {
        return 0.0;
    }
    let v_obs = 1 + transitions(words, len);
    let n = len as f64;
    let num = (v_obs as f64 - 2.0 * n * pi * (1.0 - pi)).abs();
    let den = 2.0 * (2.0 * n).sqrt() * pi * (1.0 - pi);
    erfc(num / den)
}

/// SP 800-22 §2.6 — discrete Fourier transform (spectral).
///
/// The ±1 samples are real, so the largest power-of-two prefix `n2` is
/// packed even/odd into a complex array of length `n2/2`, transformed once,
/// and the first `n2/2` bins of the full DFT reconstructed — half the
/// butterflies of the complex transform the [`reference`] kernel runs. The
/// p-value depends only on the *count* of bins below the (irrational)
/// threshold, so the ~1e-12 relative drift this reordering introduces in
/// the magnitudes never reaches the p-value bits.
fn fft_p(words: &[u64], len: usize, twiddles: &Twiddles) -> f64 {
    if len < 16 {
        return 0.0;
    }
    let n2 = 1usize << (usize::BITS - 1 - len.leading_zeros());
    let m = n2 / 2;
    // The ping-pong buffers belong to this one transform and are freed on
    // return; only the twiddle table outlives it.
    let (mut re, mut im) = even_odd_samples(words, n2);
    let (mut re2, mut im2) = (vec![0.0; m], vec![0.0; m]);
    let table = twiddles.table(m);
    let in_first = stockham_fft(&mut re, &mut im, &mut re2, &mut im2, table);
    let n = n2 as f64;
    let threshold = ((1.0 / 0.05f64).ln() * n).sqrt();
    let (re, im) = if in_first { (&re, &im) } else { (&re2, &im2) };
    let n1 = if wide_lanes_available() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `wide_lanes_available` checked for AVX support.
        unsafe {
            spectral_count_avx(re, im, table, threshold)
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!()
    } else {
        spectral_count(re, im, table, threshold)
    };
    let n1 = n1 as f64;
    let n0 = 0.95 * m as f64;
    let d = (n1 - n0) / (n * 0.95 * 0.05 / 4.0).sqrt();
    erfc(d.abs() / std::f64::consts::SQRT_2)
}

/// Splits the first `n2` bits into ±1 samples, even positions into the
/// first vector, odd into the second (`n2` is a power of two ≥ 16, so
/// pairs never straddle a word).
fn even_odd_samples(words: &[u64], n2: usize) -> (Vec<f64>, Vec<f64>) {
    let m = n2 / 2;
    let (mut re, mut im) = (Vec::with_capacity(m), Vec::with_capacity(m));
    for &w in &words[..n2 / 64] {
        for j in 0..32 {
            re.push(pm1(w >> (63 - 2 * j)));
            im.push(pm1(w >> (62 - 2 * j)));
        }
    }
    let rem = n2 % 64;
    if rem > 0 {
        let w = words[n2 / 64];
        for j in 0..rem / 2 {
            re.push(pm1(w >> (63 - 2 * j)));
            im.push(pm1(w >> (62 - 2 * j)));
        }
    }
    (re, im)
}

fn pm1(bit: u64) -> f64 {
    if bit & 1 == 1 {
        1.0
    } else {
        -1.0
    }
}

/// Spectral-test twiddles for a batch of sequences: one read-only stage
/// table per transform size, built on first use and shared by every thread
/// that borrows the batch. Dropping it frees every table, so the spectral
/// test's memory is the in-flight transforms' buffers plus one table per
/// size the batch has met.
#[derive(Debug)]
pub struct Twiddles {
    tables: [OnceLock<StageTable>; usize::BITS as usize],
}

impl Twiddles {
    /// No tables yet.
    pub fn new() -> Self {
        Twiddles {
            tables: [const { OnceLock::new() }; usize::BITS as usize],
        }
    }

    /// The table for transform size `m` (a power of two).
    fn table(&self, m: usize) -> &StageTable {
        assert!(m.is_power_of_two(), "FFT length {m} is not a power of two");
        self.tables[m.trailing_zeros() as usize].get_or_init(|| StageTable::new(m))
    }
}

impl Default for Twiddles {
    fn default() -> Self {
        Self::new()
    }
}

/// Twiddle factors of one transform size `m`: the per-stage factors
/// `e^{-2πip/len}` for `len = 2, 4, …, m`, packed contiguously (`m - 1`
/// entries; the table for length `len` starts at `len/2 - 1`).
///
/// Every entry comes from size `m`'s *reconstruction recurrence*: the
/// factors `r[k] = e^{-2πik/2m}`, `k < m`, generated by repeated
/// multiplication with `w = e^{-2πi/2m}` and resynchronized against
/// `sin_cos` at every multiple of 32. The length-`m` stage holds the even
/// entries `r[2j]`, and each smaller stage every other entry of the next
/// larger one. The spectral test needs the whole of `r` to rebuild the
/// real-input spectrum; it regenerates the odd entries on the fly as
/// `r[2j+1] = r[2j]·w` ([`StageTable::recon_pairs`]), which is exactly the
/// recurrence step that produced them (32 is even, so no odd `k` is a
/// resynchronization point). So the table fixes every twiddle bit of the
/// transform and of the reconstruction without storing `r`.
#[derive(Debug)]
struct StageTable {
    re: Vec<f64>,
    im: Vec<f64>,
    /// The recurrence step `w = e^{-2πi/2m}` as `(re, im)`.
    step: (f64, f64),
}

impl StageTable {
    fn new(m: usize) -> Self {
        let ang = -std::f64::consts::TAU / (2 * m) as f64;
        let (w_im, w_re) = ang.sin_cos();
        let stages = m.saturating_sub(1);
        let step = (w_re, w_im);
        let mut t = StageTable {
            re: vec![0.0; stages],
            im: vec![0.0; stages],
            step,
        };
        if m < 2 {
            return t;
        }
        // The length-m stage: the even entries of the recurrence.
        let (top_re, top_im) = (&mut t.re[m / 2 - 1..], &mut t.im[m / 2 - 1..]);
        let mut k = 0;
        while k < m {
            let (s, c) = (ang * k as f64).sin_cos();
            let (mut cur_re, mut cur_im) = (c, s);
            let end = (k + 32).min(m);
            for j in k..end {
                if j % 2 == 0 {
                    top_re[j / 2] = cur_re;
                    top_im[j / 2] = cur_im;
                }
                (cur_re, cur_im) = rotate((cur_re, cur_im), step);
            }
            k = end;
        }
        // Each smaller stage from the next larger one (stride 2), so every
        // copy streams instead of striding across the whole table.
        let mut l = m;
        while l >= 4 {
            // The table for length l/2 (offset l/4 - 1) is every other
            // entry of the table for length l (offset l/2 - 1).
            let (lo_re, hi_re) = t.re.split_at_mut(l / 2 - 1);
            let (lo_im, hi_im) = t.im.split_at_mut(l / 2 - 1);
            for j in 0..l / 4 {
                lo_re[l / 4 - 1 + j] = hi_re[2 * j];
                lo_im[l / 4 - 1 + j] = hi_im[2 * j];
            }
            l /= 2;
        }
        t
    }

    /// The `len/2` stage factors `e^{-2πip/len}` for transform length `len`.
    fn stage(&self, len: usize) -> (&[f64], &[f64]) {
        let off = len / 2 - 1;
        (&self.re[off..off + len / 2], &self.im[off..off + len / 2])
    }

    /// The reconstruction factors `r[k]`, `k < m`, in pairs
    /// `(r[2j], r[2j+1])`: the stored length-`m` stage entry `j` and one
    /// recurrence step from it (`m ≥ 2`).
    fn recon_pairs(&self) -> impl Iterator<Item = ((f64, f64), (f64, f64))> + '_ {
        let (re, im) = self.stage(self.re.len() + 1);
        re.iter()
            .zip(im)
            .map(|(&c, &s)| ((c, s), rotate((c, s), self.step)))
    }
}

/// One step of a reconstruction recurrence, `z·w`, on `(re, im)` pairs.
/// The table build and [`StageTable::recon_pairs`] both step through it,
/// so they perform the same floating-point operations.
#[inline(always)]
fn rotate((re, im): (f64, f64), (w_re, w_im): (f64, f64)) -> (f64, f64) {
    (re * w_re - im * w_im, re * w_im + im * w_re)
}

/// Iterative radix-2 FFT (length must be a power of two).
///
/// Builds its twiddle table and ping-pong buffer on every call.
pub fn fft_in_place(re: &mut [f64], im: &mut [f64]) {
    let twiddles = Twiddles::new();
    let mut re2 = vec![0.0; re.len()];
    let mut im2 = vec![0.0; im.len()];
    if !stockham_fft(re, im, &mut re2, &mut im2, twiddles.table(re.len())) {
        re.copy_from_slice(&re2);
        im.copy_from_slice(&im2);
    }
}

/// Stockham autosort radix-2 FFT (decimation in frequency): natural-order
/// input and output, no bit-reversal pass, contiguous reads/writes in the
/// inner loop with a loop-invariant twiddle, so it vectorizes. Ping-pongs
/// between the `x` and `y` buffers each stage; returns true when the
/// result ends in `x`.
///
/// Stage with transform length `l` (halving from `n` to 2) and stride
/// `s = n/l` computes, for `p < l/2`, `q < s`:
/// `y[q + s·2p] = a + b` and `y[q + s·(2p+1)] = (a − b)·e^{-2πip/l}` with
/// `a = x[q + s·p]`, `b = x[q + s·(p + l/2)]`.
fn stockham_fft<'a>(
    mut x_re: &'a mut [f64],
    mut x_im: &'a mut [f64],
    mut y_re: &'a mut [f64],
    mut y_im: &'a mut [f64],
    table: &StageTable,
) -> bool {
    let n = x_re.len();
    debug_assert!(n.is_power_of_two());
    let wide = wide_lanes_available();
    let mut in_x = true;
    let mut l = n;
    let mut s = 1usize;
    if n.trailing_zeros() % 2 == 1 && l >= 2 {
        // Odd power of two: one radix-2 stage, then pure radix-4.
        let (tr, ti) = table.stage(l);
        if wide {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `wide_lanes_available` checked for AVX support.
            unsafe {
                stockham_stage2_avx(x_re, x_im, y_re, y_im, tr, ti, s)
            };
        } else {
            stockham_stage2(x_re, x_im, y_re, y_im, tr, ti, s);
        }
        std::mem::swap(&mut x_re, &mut y_re);
        std::mem::swap(&mut x_im, &mut y_im);
        in_x = !in_x;
        l /= 2;
        s *= 2;
    }
    while l >= 4 {
        let m = l / 4;
        // e^{-2πip/l}, and e^{-2πip/(l/2)} = e^{-2πi·2p/l}, for p < l/4.
        let (t1r, t1i) = table.stage(l);
        let (t1r, t1i) = (&t1r[..m], &t1i[..m]);
        let (t2r, t2i) = table.stage(l / 2);
        if wide {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `wide_lanes_available` checked for AVX support.
            unsafe {
                stockham_stage4_avx(x_re, x_im, y_re, y_im, t1r, t1i, t2r, t2i, s)
            };
        } else {
            stockham_stage4(x_re, x_im, y_re, y_im, t1r, t1i, t2r, t2i, s);
        }
        std::mem::swap(&mut x_re, &mut y_re);
        std::mem::swap(&mut x_im, &mut y_im);
        in_x = !in_x;
        l /= 4;
        s *= 4;
    }
    in_x
}

/// Reconstructs the first `n2/2` bins of the full real-input DFT from the
/// half-size transform `Z` and counts magnitudes below `threshold`:
/// `X[k] = E[k] + r[k] · O[k]` with `E[k] = (Z[k] + conj(Z[m-k]))/2`,
/// `O[k] = (Z[k] - conj(Z[m-k]))/(2i)` and `r[k] = e^{-2πik/n2}`, rebuilt
/// from size `m`'s stage table ([`StageTable::recon_pairs`]).
#[inline(always)]
fn spectral_count(re: &[f64], im: &[f64], table: &StageTable, t: f64) -> usize {
    let m = re.len();
    let below = |k: usize, (c, s): (f64, f64)| -> usize {
        let mk = (m - k) & (m - 1);
        let (zr, zi) = (re[k], im[k]);
        let (yr, yi) = (re[mk], -im[mk]);
        let (er, ei) = ((zr + yr) / 2.0, (zi + yi) / 2.0);
        let (or, oi) = ((zi - yi) / 2.0, -(zr - yr) / 2.0);
        let xr = er + c * or - s * oi;
        let xi = ei + c * oi + s * or;
        usize::from((xr * xr + xi * xi).sqrt() < t)
    };
    let mut n1 = 0usize;
    for (j, (even, odd)) in table.recon_pairs().enumerate() {
        n1 += below(2 * j, even);
        n1 += below(2 * j + 1, odd);
    }
    n1
}

/// [`spectral_count`] compiled with 256-bit lanes; same operations, same
/// results (see [`wide_lanes_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn spectral_count_avx(re: &[f64], im: &[f64], table: &StageTable, t: f64) -> usize {
    spectral_count(re, im, table, t)
}

/// Whether 256-bit float lanes are available at runtime. AVX widens the
/// auto-vectorized loops without changing any individual IEEE operation
/// (no FMA contraction is enabled), so results are bit-identical to the
/// baseline path and the choice cannot perturb the determinism contract.
fn wide_lanes_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVX.get_or_init(|| std::arch::is_x86_feature_detected!("avx"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One radix-2 Stockham stage: `m` butterfly groups of contiguous width
/// `s`.
#[inline(always)]
fn stockham_stage2(
    x_re: &[f64],
    x_im: &[f64],
    y_re: &mut [f64],
    y_im: &mut [f64],
    tr: &[f64],
    ti: &[f64],
    s: usize,
) {
    let m = tr.len();
    if s == 1 {
        // First-stage special case: one butterfly per group, so skip the
        // per-group slice setup (same operations in the same order, so the
        // results are bit-identical to the general path).
        for p in 0..m {
            let (wr, wi) = (tr[p], ti[p]);
            let (ar, ai) = (x_re[p], x_im[p]);
            let (br, bi) = (x_re[p + m], x_im[p + m]);
            y_re[2 * p] = ar + br;
            y_im[2 * p] = ai + bi;
            let (dr, di) = (ar - br, ai - bi);
            y_re[2 * p + 1] = dr * wr - di * wi;
            y_im[2 * p + 1] = dr * wi + di * wr;
        }
        return;
    }
    for p in 0..m {
        let (wr, wi) = (tr[p], ti[p]);
        let xa_re = &x_re[s * p..s * p + s];
        let xa_im = &x_im[s * p..s * p + s];
        let xb_re = &x_re[s * (p + m)..s * (p + m) + s];
        let xb_im = &x_im[s * (p + m)..s * (p + m) + s];
        let (ya_re, yb_re) = y_re[s * 2 * p..s * 2 * p + 2 * s].split_at_mut(s);
        let (ya_im, yb_im) = y_im[s * 2 * p..s * 2 * p + 2 * s].split_at_mut(s);
        for q in 0..s {
            let (ar, ai) = (xa_re[q], xa_im[q]);
            let (br, bi) = (xb_re[q], xb_im[q]);
            ya_re[q] = ar + br;
            ya_im[q] = ai + bi;
            let (dr, di) = (ar - br, ai - bi);
            yb_re[q] = dr * wr - di * wi;
            yb_im[q] = dr * wi + di * wr;
        }
    }
}

/// [`stockham_stage2`] compiled with 256-bit lanes; same operations, same
/// results (see [`wide_lanes_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn stockham_stage2_avx(
    x_re: &[f64],
    x_im: &[f64],
    y_re: &mut [f64],
    y_im: &mut [f64],
    tr: &[f64],
    ti: &[f64],
    s: usize,
) {
    stockham_stage2(x_re, x_im, y_re, y_im, tr, ti, s);
}

/// One radix-4 Stockham stage (`m = l/4` groups of width `s`): for
/// `a, b, c, d = x[s(p + km)]`, `k = 0..4`,
/// `y[s·4p]     = (a+c) + (b+d)`,
/// `y[s(4p+1)]  = w¹ₚ·((a−c) − i(b−d))`,
/// `y[s(4p+2)]  = w²ₚ·((a+c) − (b+d))`,
/// `y[s(4p+3)]  = w³ₚ·((a−c) + i(b−d))`, with `wₚ = e^{-2πip/l}`.
/// `w¹` and `w²` come straight from the packed stage tables (`w²ₚ` is the
/// length-`l/2` table entry); `w³ = w¹·w²` is formed per group.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stockham_stage4(
    x_re: &[f64],
    x_im: &[f64],
    y_re: &mut [f64],
    y_im: &mut [f64],
    t1r: &[f64],
    t1i: &[f64],
    t2r: &[f64],
    t2i: &[f64],
    s: usize,
) {
    let m = t1r.len();
    if s == 1 {
        // First-stage special case: one butterfly per group, so skip the
        // per-group slice setup (same operations in the same order, so the
        // results are bit-identical to the general path).
        for p in 0..m {
            let (w1r, w1i) = (t1r[p], t1i[p]);
            let (w2r, w2i) = (t2r[p], t2i[p]);
            let (w3r, w3i) = (w1r * w2r - w1i * w2i, w1r * w2i + w1i * w2r);
            let (ar, ai) = (x_re[p], x_im[p]);
            let (br, bi) = (x_re[p + m], x_im[p + m]);
            let (cr, ci) = (x_re[p + 2 * m], x_im[p + 2 * m]);
            let (dr, di) = (x_re[p + 3 * m], x_im[p + 3 * m]);
            let (apcr, apci) = (ar + cr, ai + ci);
            let (amcr, amci) = (ar - cr, ai - ci);
            let (bpdr, bpdi) = (br + dr, bi + di);
            let (bmdr, bmdi) = (br - dr, bi - di);
            y_re[4 * p] = apcr + bpdr;
            y_im[4 * p] = apci + bpdi;
            let (t1re, t1im) = (amcr + bmdi, amci - bmdr);
            y_re[4 * p + 1] = t1re * w1r - t1im * w1i;
            y_im[4 * p + 1] = t1re * w1i + t1im * w1r;
            let (t2re, t2im) = (apcr - bpdr, apci - bpdi);
            y_re[4 * p + 2] = t2re * w2r - t2im * w2i;
            y_im[4 * p + 2] = t2re * w2i + t2im * w2r;
            let (t3re, t3im) = (amcr - bmdi, amci + bmdr);
            y_re[4 * p + 3] = t3re * w3r - t3im * w3i;
            y_im[4 * p + 3] = t3re * w3i + t3im * w3r;
        }
        return;
    }
    // Narrow groups (the second/third stages) spend more time on slice
    // bookkeeping than arithmetic; a compile-time width lets the q-loop
    // unroll completely. Same operations in the same order either way.
    match s {
        2 => return stockham_stage4_fixed::<2>(x_re, x_im, y_re, y_im, t1r, t1i, t2r, t2i),
        4 => return stockham_stage4_fixed::<4>(x_re, x_im, y_re, y_im, t1r, t1i, t2r, t2i),
        8 => return stockham_stage4_fixed::<8>(x_re, x_im, y_re, y_im, t1r, t1i, t2r, t2i),
        _ => {}
    }
    for p in 0..m {
        let (w1r, w1i) = (t1r[p], t1i[p]);
        let (w2r, w2i) = (t2r[p], t2i[p]);
        let (w3r, w3i) = (w1r * w2r - w1i * w2i, w1r * w2i + w1i * w2r);
        let xa_re = &x_re[s * p..s * p + s];
        let xa_im = &x_im[s * p..s * p + s];
        let xb_re = &x_re[s * (p + m)..s * (p + m) + s];
        let xb_im = &x_im[s * (p + m)..s * (p + m) + s];
        let xc_re = &x_re[s * (p + 2 * m)..s * (p + 2 * m) + s];
        let xc_im = &x_im[s * (p + 2 * m)..s * (p + 2 * m) + s];
        let xd_re = &x_re[s * (p + 3 * m)..s * (p + 3 * m) + s];
        let xd_im = &x_im[s * (p + 3 * m)..s * (p + 3 * m) + s];
        let (y01_re, y23_re) = y_re[s * 4 * p..s * 4 * p + 4 * s].split_at_mut(2 * s);
        let (y0_re, y1_re) = y01_re.split_at_mut(s);
        let (y2_re, y3_re) = y23_re.split_at_mut(s);
        let (y01_im, y23_im) = y_im[s * 4 * p..s * 4 * p + 4 * s].split_at_mut(2 * s);
        let (y0_im, y1_im) = y01_im.split_at_mut(s);
        let (y2_im, y3_im) = y23_im.split_at_mut(s);
        for q in 0..s {
            let (ar, ai) = (xa_re[q], xa_im[q]);
            let (br, bi) = (xb_re[q], xb_im[q]);
            let (cr, ci) = (xc_re[q], xc_im[q]);
            let (dr, di) = (xd_re[q], xd_im[q]);
            let (apcr, apci) = (ar + cr, ai + ci);
            let (amcr, amci) = (ar - cr, ai - ci);
            let (bpdr, bpdi) = (br + dr, bi + di);
            let (bmdr, bmdi) = (br - dr, bi - di);
            y0_re[q] = apcr + bpdr;
            y0_im[q] = apci + bpdi;
            let (t1re, t1im) = (amcr + bmdi, amci - bmdr);
            y1_re[q] = t1re * w1r - t1im * w1i;
            y1_im[q] = t1re * w1i + t1im * w1r;
            let (t2re, t2im) = (apcr - bpdr, apci - bpdi);
            y2_re[q] = t2re * w2r - t2im * w2i;
            y2_im[q] = t2re * w2i + t2im * w2r;
            let (t3re, t3im) = (amcr - bmdi, amci + bmdr);
            y3_re[q] = t3re * w3r - t3im * w3i;
            y3_im[q] = t3re * w3i + t3im * w3r;
        }
    }
}

/// [`stockham_stage4`] with the group width `S` fixed at compile time so
/// the inner loop unrolls; identical operations and order, so identical
/// results.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stockham_stage4_fixed<const S: usize>(
    x_re: &[f64],
    x_im: &[f64],
    y_re: &mut [f64],
    y_im: &mut [f64],
    t1r: &[f64],
    t1i: &[f64],
    t2r: &[f64],
    t2i: &[f64],
) {
    let m = t1r.len();
    let at = |v: &[f64], off: usize| -> [f64; S] { v[off..off + S].try_into().unwrap() };
    for p in 0..m {
        let (w1r, w1i) = (t1r[p], t1i[p]);
        let (w2r, w2i) = (t2r[p], t2i[p]);
        let (w3r, w3i) = (w1r * w2r - w1i * w2i, w1r * w2i + w1i * w2r);
        let xa_re = at(x_re, S * p);
        let xa_im = at(x_im, S * p);
        let xb_re = at(x_re, S * (p + m));
        let xb_im = at(x_im, S * (p + m));
        let xc_re = at(x_re, S * (p + 2 * m));
        let xc_im = at(x_im, S * (p + 2 * m));
        let xd_re = at(x_re, S * (p + 3 * m));
        let xd_im = at(x_im, S * (p + 3 * m));
        let (y01_re, y23_re) = y_re[S * 4 * p..S * 4 * p + 4 * S].split_at_mut(2 * S);
        let (y0_re, y1_re) = y01_re.split_at_mut(S);
        let (y2_re, y3_re) = y23_re.split_at_mut(S);
        let (y01_im, y23_im) = y_im[S * 4 * p..S * 4 * p + 4 * S].split_at_mut(2 * S);
        let (y0_im, y1_im) = y01_im.split_at_mut(S);
        let (y2_im, y3_im) = y23_im.split_at_mut(S);
        for q in 0..S {
            let (ar, ai) = (xa_re[q], xa_im[q]);
            let (br, bi) = (xb_re[q], xb_im[q]);
            let (cr, ci) = (xc_re[q], xc_im[q]);
            let (dr, di) = (xd_re[q], xd_im[q]);
            let (apcr, apci) = (ar + cr, ai + ci);
            let (amcr, amci) = (ar - cr, ai - ci);
            let (bpdr, bpdi) = (br + dr, bi + di);
            let (bmdr, bmdi) = (br - dr, bi - di);
            y0_re[q] = apcr + bpdr;
            y0_im[q] = apci + bpdi;
            let (t1re, t1im) = (amcr + bmdi, amci - bmdr);
            y1_re[q] = t1re * w1r - t1im * w1i;
            y1_im[q] = t1re * w1i + t1im * w1r;
            let (t2re, t2im) = (apcr - bpdr, apci - bpdi);
            y2_re[q] = t2re * w2r - t2im * w2i;
            y2_im[q] = t2re * w2i + t2im * w2r;
            let (t3re, t3im) = (amcr - bmdi, amci + bmdr);
            y3_re[q] = t3re * w3r - t3im * w3i;
            y3_im[q] = t3re * w3i + t3im * w3r;
        }
    }
}

/// [`stockham_stage4`] compiled with 256-bit lanes; same operations, same
/// results (see [`wide_lanes_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)]
unsafe fn stockham_stage4_avx(
    x_re: &[f64],
    x_im: &[f64],
    y_re: &mut [f64],
    y_im: &mut [f64],
    t1r: &[f64],
    t1i: &[f64],
    t2r: &[f64],
    t2i: &[f64],
    s: usize,
) {
    stockham_stage4(x_re, x_im, y_re, y_im, t1r, t1i, t2r, t2i, s);
}

/// Per-byte cusum steps: net ±1 total plus the prefix-sum extremes,
/// MSB-first within the byte.
#[derive(Clone, Copy)]
struct ByteCusum {
    total: i8,
    min: i8,
    max: i8,
}

static CUSUM_LUT: [ByteCusum; 256] = build_cusum_lut();

const fn build_cusum_lut() -> [ByteCusum; 256] {
    let mut t = [ByteCusum {
        total: 0,
        min: 0,
        max: 0,
    }; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut sum = 0i8;
        let mut min = 0i8;
        let mut max = 0i8;
        let mut i = 0;
        while i < 8 {
            sum += if (b >> (7 - i)) & 1 == 1 { 1 } else { -1 };
            if sum < min {
                min = sum;
            }
            if sum > max {
                max = sum;
            }
            i += 1;
        }
        t[b] = ByteCusum {
            total: sum,
            min,
            max,
        };
        b += 1;
    }
    t
}

/// SP 800-22 §2.13 — cumulative sums, allocation-free.
///
/// The partial sums of ±1 steps are small integers, so the peak |sum| is
/// tracked in `i64` by walking the packed words a byte at a time through
/// [`CUSUM_LUT`] (in reverse, via `reverse_bits`, for the backward
/// variant); `|sum + p|` over a byte's prefixes peaks at one of the two
/// prefix extremes.
fn cusum_step_byte(b: u8, sum: &mut i64, z: &mut i64) {
    let e = CUSUM_LUT[b as usize];
    *z = (*z)
        .max((*sum + e.max as i64).abs())
        .max((*sum + e.min as i64).abs());
    *sum += e.total as i64;
}

fn cusum_step_bit(bit: u64, sum: &mut i64, z: &mut i64) {
    *sum += if bit & 1 == 1 { 1 } else { -1 };
    *z = (*z).max(sum.abs());
}

fn cusum_p(words: &[u64], len: usize, backward: bool) -> f64 {
    if len == 0 {
        return 0.0;
    }
    let mut sum = 0i64;
    let mut z = 0i64;
    let last_m = len - (words.len() - 1) * 64;
    if backward {
        // The last word's valid bits, last bit first.
        let w = words[words.len() - 1];
        for i in (0..last_m).rev() {
            cusum_step_bit(w >> (63 - i), &mut sum, &mut z);
        }
        for &w in words[..words.len() - 1].iter().rev() {
            let r = w.reverse_bits();
            for j in 0..8 {
                cusum_step_byte((r >> (56 - 8 * j)) as u8, &mut sum, &mut z);
            }
        }
    } else {
        for &w in &words[..words.len() - 1] {
            for j in 0..8 {
                cusum_step_byte((w >> (56 - 8 * j)) as u8, &mut sum, &mut z);
            }
        }
        let w = words[words.len() - 1];
        let full_bytes = last_m / 8;
        for j in 0..full_bytes {
            cusum_step_byte((w >> (56 - 8 * j)) as u8, &mut sum, &mut z);
        }
        for i in full_bytes * 8..last_m {
            cusum_step_bit(w >> (63 - i), &mut sum, &mut z);
        }
    }
    if z == 0 {
        return 0.0;
    }
    let n = len as f64;
    let z = z as f64;
    let sqrt_n = n.sqrt();
    let mut p = 1.0;
    let k_lo = (((-n / z) + 1.0) / 4.0).floor() as i64;
    let k_hi = (((n / z) - 1.0) / 4.0).floor() as i64;
    for k in k_lo..=k_hi {
        let k = k as f64;
        p -= normal_cdf((4.0 * k + 1.0) * z / sqrt_n) - normal_cdf((4.0 * k - 1.0) * z / sqrt_n);
    }
    let k_lo = (((-n / z) - 3.0) / 4.0).floor() as i64;
    let k_hi = (((n / z) - 1.0) / 4.0).floor() as i64;
    for k in k_lo..=k_hi {
        let k = k as f64;
        p += normal_cdf((4.0 * k + 3.0) * z / sqrt_n) - normal_cdf((4.0 * k + 1.0) * z / sqrt_n);
    }
    p.clamp(0.0, 1.0)
}

/// The scalar `Vec<bool>` kernels the packed implementations replaced,
/// retained verbatim as the ground truth for property tests and the
/// `kernels` criterion group.
pub mod reference {
    use crate::special::{erfc, normal_cdf};

    /// SP 800-22 §2.1 — frequency (monobit).
    pub fn frequency_p(bits: &[bool]) -> f64 {
        let n = bits.len();
        if n == 0 {
            return 0.0;
        }
        let s: i64 = bits.iter().map(|&b| if b { 1i64 } else { -1 }).sum();
        let s_obs = (s.abs() as f64) / (n as f64).sqrt();
        erfc(s_obs / std::f64::consts::SQRT_2)
    }

    /// SP 800-22 §2.3 — runs.
    pub fn runs_p(bits: &[bool]) -> f64 {
        let n = bits.len();
        if n < 2 {
            return 0.0;
        }
        let pi = bits.iter().filter(|&&b| b).count() as f64 / n as f64;
        // Prerequisite frequency check.
        if (pi - 0.5).abs() >= 2.0 / (n as f64).sqrt() {
            return 0.0;
        }
        let v_obs = 1 + bits.windows(2).filter(|w| w[0] != w[1]).count();
        let n = n as f64;
        let num = (v_obs as f64 - 2.0 * n * pi * (1.0 - pi)).abs();
        let den = 2.0 * (2.0 * n).sqrt() * pi * (1.0 - pi);
        erfc(num / den)
    }

    /// SP 800-22 §2.6 — discrete Fourier transform (spectral).
    pub fn fft_p(bits: &[bool]) -> f64 {
        // Use the largest power-of-two prefix (see module docs).
        let n = bits.len();
        if n < 16 {
            return 0.0;
        }
        let n2 = 1usize << (usize::BITS - 1 - n.leading_zeros());
        let mut re: Vec<f64> = bits[..n2]
            .iter()
            .map(|&b| if b { 1.0 } else { -1.0 })
            .collect();
        let mut im = vec![0.0f64; n2];
        fft_in_place(&mut re, &mut im);
        let n = n2 as f64;
        let threshold = ((1.0 / 0.05f64).ln() * n).sqrt();
        let half = n2 / 2;
        let n1 = (0..half)
            .filter(|&k| (re[k] * re[k] + im[k] * im[k]).sqrt() < threshold)
            .count() as f64;
        let n0 = 0.95 * half as f64;
        let d = (n1 - n0) / (n * 0.95 * 0.05 / 4.0).sqrt();
        erfc(d.abs() / std::f64::consts::SQRT_2)
    }

    /// Iterative radix-2 FFT with the per-block twiddle recurrence
    /// (length must be a power of two).
    pub fn fft_in_place(re: &mut [f64], im: &mut [f64]) {
        let n = re.len();
        debug_assert!(n.is_power_of_two());
        // Bit-reversal permutation.
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                re.swap(i, j);
                im.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let ang = -std::f64::consts::TAU / len as f64;
            let (w_re, w_im) = (ang.cos(), ang.sin());
            let mut i = 0;
            while i < n {
                let (mut cur_re, mut cur_im) = (1.0f64, 0.0f64);
                for k in 0..len / 2 {
                    let (u_re, u_im) = (re[i + k], im[i + k]);
                    let (v_re, v_im) = (
                        re[i + k + len / 2] * cur_re - im[i + k + len / 2] * cur_im,
                        re[i + k + len / 2] * cur_im + im[i + k + len / 2] * cur_re,
                    );
                    re[i + k] = u_re + v_re;
                    im[i + k] = u_im + v_im;
                    re[i + k + len / 2] = u_re - v_re;
                    im[i + k + len / 2] = u_im - v_im;
                    let next_re = cur_re * w_re - cur_im * w_im;
                    cur_im = cur_re * w_im + cur_im * w_re;
                    cur_re = next_re;
                }
                i += len;
            }
            len <<= 1;
        }
    }

    /// SP 800-22 §2.13 — cumulative sums.
    pub fn cusum_p(bits: &[bool], backward: bool) -> f64 {
        let n = bits.len();
        if n == 0 {
            return 0.0;
        }
        let xs: Vec<f64> = if backward {
            bits.iter()
                .rev()
                .map(|&b| if b { 1.0 } else { -1.0 })
                .collect()
        } else {
            bits.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect()
        };
        let mut sum = 0.0f64;
        let mut z: f64 = 0.0;
        for x in xs {
            sum += x;
            z = z.max(sum.abs());
        }
        if z == 0.0 {
            return 0.0;
        }
        let n = n as f64;
        let sqrt_n = n.sqrt();
        let mut p = 1.0;
        let k_lo = (((-n / z) + 1.0) / 4.0).floor() as i64;
        let k_hi = (((n / z) - 1.0) / 4.0).floor() as i64;
        for k in k_lo..=k_hi {
            let k = k as f64;
            p -=
                normal_cdf((4.0 * k + 1.0) * z / sqrt_n) - normal_cdf((4.0 * k - 1.0) * z / sqrt_n);
        }
        let k_lo = (((-n / z) - 3.0) / 4.0).floor() as i64;
        let k_hi = (((n / z) - 1.0) / 4.0).floor() as i64;
        for k in k_lo..=k_hi {
            let k = k as f64;
            p +=
                normal_cdf((4.0 * k + 3.0) * z / sqrt_n) - normal_cdf((4.0 * k + 1.0) * z / sqrt_n);
        }
        p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixscope_types::Xoshiro256pp;

    fn from_bits(s: &str) -> BitSequence {
        let mut seq = BitSequence::new();
        for c in s.chars() {
            seq.push_bits(if c == '1' { 1 } else { 0 }, 1);
        }
        seq
    }

    #[test]
    fn frequency_sp80022_example() {
        // SP 800-22 §2.1.8: ε = 1100100100001111110110101010001000,
        // n = 100-digit example is longer; use the documented 10-bit case:
        // ε = 1011010101, S = 2, p-value = 0.527089.
        let seq = from_bits("1011010101");
        let out = seq.run(NistTest::Frequency);
        assert!((out.p_value - 0.527089).abs() < 1e-4, "p = {}", out.p_value);
        assert!(out.passes());
    }

    #[test]
    fn runs_sp80022_example() {
        // SP 800-22 §2.3.8: ε = 1001101011, n = 10, p-value = 0.147232.
        let seq = from_bits("1001101011");
        let out = seq.run(NistTest::Runs);
        assert!((out.p_value - 0.147232).abs() < 1e-4, "p = {}", out.p_value);
    }

    #[test]
    fn cusum_sp80022_example() {
        // SP 800-22 §2.13.8: ε = 1011010111, n = 10, z = 4 (forward),
        // p-value = 0.4116588.
        let seq = from_bits("1011010111");
        let out = seq.run(NistTest::CusumForward);
        assert!(
            (out.p_value - 0.4116588).abs() < 1e-3,
            "p = {}",
            out.p_value
        );
    }

    #[test]
    fn constant_sequence_fails_everything() {
        let mut seq = BitSequence::new();
        seq.push_bits(0, 128);
        seq.push_bits(0, 128);
        for out in seq.run_all() {
            assert!(!out.passes(), "{:?} unexpectedly passed", out.test);
        }
    }

    #[test]
    fn alternating_sequence_fails_runs_and_fft() {
        let mut seq = BitSequence::new();
        for _ in 0..256 {
            seq.push_bits(0b10, 2);
        }
        // Perfectly balanced, so frequency passes...
        assert!(seq.run(NistTest::Frequency).passes());
        // ...but the oscillation is wildly non-random.
        assert!(!seq.run(NistTest::Runs).passes());
        assert!(!seq.run(NistTest::Fft).passes());
    }

    #[test]
    fn prng_output_passes_all_tests() {
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        let mut seq = BitSequence::new();
        for _ in 0..64 {
            seq.push_bits(rng.next_u64() as u128, 64);
        }
        for out in seq.run_all() {
            assert!(
                out.passes(),
                "{} failed on PRNG output with p = {}",
                out.test.name(),
                out.p_value
            );
        }
    }

    #[test]
    fn structured_iid_bits_fail_frequency() {
        // Low-byte scanning: targets ::1 .. ::200 — IIDs almost all zero.
        let mut seq = BitSequence::new();
        for i in 1u128..=200 {
            seq.push_bits(i, 64);
        }
        assert!(!seq.run(NistTest::Frequency).passes());
        assert!(!seq.run(NistTest::CusumForward).passes());
    }

    #[test]
    fn random_iid_bits_pass_frequency() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut seq = BitSequence::new();
        for _ in 0..200 {
            seq.push_bits(rng.next_u64() as u128, 64);
        }
        assert!(seq.run(NistTest::Frequency).passes());
    }

    #[test]
    fn empty_sequence_fails_gracefully() {
        let seq = BitSequence::new();
        for out in seq.run_all() {
            assert!(!out.passes());
            assert!(out.p_value.is_finite());
        }
    }

    #[test]
    fn push_bits_is_msb_first() {
        let mut seq = BitSequence::new();
        seq.push_bits(0b101, 3);
        assert_eq!(seq.to_bools(), vec![true, false, true]);
        assert_eq!(seq.len(), 3);
        assert!(seq.bit(0) && !seq.bit(1) && seq.bit(2));
        assert_eq!(seq.words(), &[0b101u64 << 61]);
    }

    #[test]
    fn push_bits_straddles_words() {
        let mut seq = BitSequence::new();
        seq.push_bits(0, 60);
        seq.push_bits(0xff, 8); // 4 bits in word 0, 4 in word 1
        assert_eq!(seq.len(), 68);
        assert_eq!(seq.words(), &[0xf, 0xf << 60]);
        let mut bools = vec![false; 60];
        bools.extend([true; 8]);
        assert_eq!(seq.to_bools(), bools);
    }

    #[test]
    fn packed_matches_reference_on_awkward_lengths() {
        // Word-boundary straddles, partial bytes, and a non-power-of-two
        // tail all at once; the FFT prefix logic sees several sizes.
        let mut rng = Xoshiro256pp::seed_from_u64(99);
        for len in [1usize, 7, 8, 9, 63, 64, 65, 100, 127, 128, 200, 515] {
            let mut seq = BitSequence::new();
            for _ in 0..len {
                seq.push_bits(rng.next_u64() as u128 & 1, 1);
            }
            assert_eq!(seq.len(), len);
            let bools = seq.to_bools();
            assert_eq!(
                seq.run(NistTest::Frequency).p_value,
                reference::frequency_p(&bools).clamp(0.0, 1.0),
                "frequency, len {len}"
            );
            assert_eq!(
                seq.run(NistTest::Runs).p_value,
                reference::runs_p(&bools).clamp(0.0, 1.0),
                "runs, len {len}"
            );
            assert_eq!(
                seq.run(NistTest::Fft).p_value,
                reference::fft_p(&bools).clamp(0.0, 1.0),
                "fft, len {len}"
            );
            for backward in [false, true] {
                let test = if backward {
                    NistTest::CusumBackward
                } else {
                    NistTest::CusumForward
                };
                assert_eq!(
                    seq.run(test).p_value,
                    reference::cusum_p(&bools, backward).clamp(0.0, 1.0),
                    "cusum backward={backward}, len {len}"
                );
            }
        }
    }

    #[test]
    fn spectral_matches_reference_at_fig17_sizes() {
        // Fig. 17's sessions have at least 100 packets of 32 or 64 bits, so
        // its half-transforms start at 2^10 points; these lengths reach
        // 2^11 to 2^15 points (odd and even log2), cross many 32-entry
        // resynchronization blocks, and end mid-word.
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        for len in [
            (1usize << 12) + 37,
            (1 << 13) + 61,
            (1 << 15) + 3,
            (1 << 16) + 101,
            (1 << 17) - 45,
        ] {
            let mut seq = BitSequence::new();
            while seq.len() + 64 <= len {
                seq.push_bits(rng.next_u64() as u128, 64);
            }
            let tail = (len - seq.len()) as u32;
            seq.push_bits(rng.next_u64() as u128, tail);
            assert_eq!(seq.len(), len);
            assert_eq!(
                seq.run(NistTest::Fft).p_value.to_bits(),
                reference::fft_p(&seq.to_bools()).clamp(0.0, 1.0).to_bits(),
                "fft, len {len}"
            );
        }
    }

    /// Size `m`'s twiddles with every reconstruction factor `r[k]` stored
    /// and each stage factor `e^{-2πip/len}` read as `r[p·2m/len]`.
    fn stored_twiddles(m: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let ang = -std::f64::consts::TAU / (2 * m) as f64;
        let (w_im, w_re) = ang.sin_cos();
        let (mut recon_re, mut recon_im) = (vec![0.0; m], vec![0.0; m]);
        let mut k = 0;
        while k < m {
            let (s, c) = (ang * k as f64).sin_cos();
            let (mut cur_re, mut cur_im) = (c, s);
            let end = (k + 32).min(m);
            for j in k..end {
                recon_re[j] = cur_re;
                recon_im[j] = cur_im;
                let next_re = cur_re * w_re - cur_im * w_im;
                cur_im = cur_re * w_im + cur_im * w_re;
                cur_re = next_re;
            }
            k = end;
        }
        let (mut stage_re, mut stage_im) = (Vec::new(), Vec::new());
        let mut len = 2;
        while len <= m {
            for p in 0..len / 2 {
                stage_re.push(recon_re[p * 2 * m / len]);
                stage_im.push(recon_im[p * 2 * m / len]);
            }
            len *= 2;
        }
        (stage_re, stage_im, recon_re, recon_im)
    }

    #[test]
    fn stage_tables_match_stored_twiddles_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for log2 in 0..=15 {
            let m = 1usize << log2;
            let table = StageTable::new(m);
            let (stage_re, stage_im, recon_re, recon_im) = stored_twiddles(m);
            assert_eq!(bits(&table.re), bits(&stage_re), "stage re, m = {m}");
            assert_eq!(bits(&table.im), bits(&stage_im), "stage im, m = {m}");
            if m < 2 {
                continue;
            }
            // The reconstruction factors spectral_count rebuilds.
            let (mut got_re, mut got_im) = (Vec::new(), Vec::new());
            for (even, odd) in table.recon_pairs() {
                for (c, s) in [even, odd] {
                    got_re.push(c);
                    got_im.push(s);
                }
            }
            assert_eq!(bits(&got_re), bits(&recon_re), "recon re, m = {m}");
            assert_eq!(bits(&got_im), bits(&recon_im), "recon im, m = {m}");
        }
    }

    #[test]
    fn fft_identity_check() {
        // DFT of an impulse is flat with magnitude 1.
        let mut re = vec![0.0; 8];
        let mut im = vec![0.0; 8];
        re[0] = 1.0;
        fft_in_place(&mut re, &mut im);
        for k in 0..8 {
            let mag = (re[k] * re[k] + im[k] * im[k]).sqrt();
            assert!((mag - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_constant_concentrates_at_dc() {
        let mut re = vec![1.0; 16];
        let mut im = vec![0.0; 16];
        fft_in_place(&mut re, &mut im);
        assert!((re[0] - 16.0).abs() < 1e-9);
        for k in 1..16 {
            assert!(re[k].abs() < 1e-9 && im[k].abs() < 1e-9);
        }
    }

    #[test]
    fn fft_matches_reference_fft() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut re: Vec<f64> = (0..256).map(|_| pm1(rng.next_u64())).collect();
        let mut im: Vec<f64> = (0..256).map(|_| pm1(rng.next_u64())).collect();
        let mut re2 = re.clone();
        let mut im2 = im.clone();
        fft_in_place(&mut re, &mut im);
        reference::fft_in_place(&mut re2, &mut im2);
        for k in 0..256 {
            assert!((re[k] - re2[k]).abs() < 1e-9 && (im[k] - im2[k]).abs() < 1e-9);
        }
    }
}
