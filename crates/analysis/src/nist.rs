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
//!   popcount, runs counting is an XOR against the shifted word, and cusum
//!   walks the words through a per-byte prefix-extreme table without
//!   allocating. The statistics these feed into the p-value formulas (bit
//!   counts, run counts, peak partial sums) are integers, so the packed
//!   kernels reproduce the scalar `&[bool]` oracle's p-values bit for bit
//!   (the oracle lives with the tests, in `tests/nist_oracle`);
//! * the spectral test evaluates the DFT one output residue class at a
//!   time ([`SpectralColumns`]): each class is a cache-sized FFT whose
//!   input comes from byte-table lookups on a column transpose of the
//!   bits, so its memory is bounded at any sequence length and the classes
//!   of one sequence are independent jobs. Its statistic, the number of
//!   bins below the threshold, is *certified*: a runtime bound on every
//!   bin's rounding error decides most bins, a compensated direct
//!   evaluation decides the rest, and a bin that stays within that
//!   evaluation's own bound is counted as undecided instead of being
//!   guessed. The count, and so the p-value, therefore does not depend on
//!   the transform's algorithm, operation order or thread count.

use crate::special::{erfc, normal_cdf};
use serde::{Deserialize, Serialize};
use std::f64::consts::SQRT_2;
use std::ops::Range;
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
    /// sequence is consistent with randomness). False when undecided.
    pub fn passes(&self) -> bool {
        self.p_value >= 0.01
    }

    /// False when the spectral test could not certify its bin count (one
    /// bin's magnitude is within rounding of the threshold); `p_value` is
    /// then NaN, and the outcome is neither a pass nor a fail.
    pub fn decided(&self) -> bool {
        !self.p_value.is_nan()
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

    /// Unpacks to a `bool` vector, one entry per bit.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.bit(i)).collect()
    }

    /// The spectral test's view of this sequence, its largest power-of-two
    /// prefix as residue-class columns, or `None` below 16 bits: for
    /// batches that run the test as class jobs.
    pub fn spectral_columns(&self) -> Option<SpectralColumns> {
        SpectralColumns::new(&self.words, self.len)
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

/// SP 800-22 §2.6 — discrete Fourier transform (spectral), on the largest
/// power-of-two prefix: 0 below 16 bits, NaN when the bin count stays
/// undecided (see [`SpectralColumns`]).
fn fft_p(words: &[u64], len: usize, twiddles: &Twiddles) -> f64 {
    match SpectralColumns::new(words, len) {
        None => 0.0,
        Some(cols) => cols.p_value(cols.count(0..cols.classes(), twiddles)),
    }
}

/// Unit roundoff of `f64`.
const U: f64 = f64::EPSILON / 2.0;

/// Largest residue-class transform, in points. Two workers' class buffers
/// (32 B a point each) and the shared stage table (16 B a point) then stay
/// at 160 MiB at any sequence length.
const MAX_CLASS_SIZE: usize = 1 << 21;

/// Bound on `|ŵ − w|` for every stage-table twiddle of every table size up
/// to [`MAX_CLASS_SIZE`]: the reconstruction recurrence drifts for up to 31
/// steps between resynchronizations. A unit test measures it against
/// `sin_cos`.
const STAGE_TWIDDLE_ERR: f64 = 64.0 * U;

/// Bound on `|ŵ − w|` for [`root`]: `TAU` is within 0.4u of 2π and the
/// product `τ·(e/n)` (`e/n` exact) adds u, so the angle is off by at most
/// 1.4u·2π < 9u; `sin_cos` adds at most one ulp (u) to each part, and
/// √2·10u < 16u.
const ROOT_ERR: f64 = 16.0 * U;

/// Bound on a byte-table entry's error: eight roots, and seven rounded
/// additions per part of terms of modulus at most 1.
const TABLE_ERR: f64 = 8.0 * ROOT_ERR + SQRT_2 * 8.0 * 7.01 * U;

/// Bound on the relative error of a class input `ω_n^{ar}·c̃_a` given `c̃_a`:
/// the twiddle is a product of two roots, then one complex product.
const INPUT_REL_ERR: f64 = 2.0 * ROOT_ERR + 6.0 * U;

/// Points of class transform a spectral job should cover at least: small
/// sequences run several classes per job, large ones one.
const JOB_POINTS: usize = 1 << 15;

/// The class count `F` for an `n`-bit transform (`n = 2^l ≥ 16`).
///
/// Classes of `2^13` points while `F` grows from 8 to 32 (`l` = 16 to 18),
/// then `F = 32` up to `2^22` bits. Past that, `F` doubles every second
/// doubling of `n`, so table lookups (`F/8` a point) and class length
/// share the growth, and never lets a class exceed [`MAX_CLASS_SIZE`].
fn class_count(n: usize) -> usize {
    let l = n.trailing_zeros();
    let shared = l.saturating_sub(13).clamp(3, 5) + l.saturating_sub(21) / 2;
    1 << shared
        .max(l.saturating_sub(MAX_CLASS_SIZE.trailing_zeros()))
        .min(l - 1)
}

/// `ω_n^e = e^{-2πie/n}` as `(re, im)`, for `e < n` (`n` a power of two).
fn root(e: usize, n: usize) -> (f64, f64) {
    let (s, c) = (-std::f64::consts::TAU * (e as f64 / n as f64)).sin_cos();
    (c, s)
}

/// The spectral test's bin count over some residue classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpectralCount {
    /// Bins proven to lie below the threshold (`|X_k| < T`, `k < n/2`).
    pub below: usize,
    /// Bins the transform's error bound could not decide, so a compensated
    /// direct evaluation re-decided them (whatever the outcome).
    pub rechecked: usize,
    /// Rechecked bins that stayed within the direct evaluation's own error
    /// bound of the threshold.
    pub undecided: usize,
}

impl std::ops::AddAssign for SpectralCount {
    fn add_assign(&mut self, other: SpectralCount) {
        self.below += other.below;
        self.rechecked += other.rechecked;
        self.undecided += other.undecided;
    }
}

/// The spectral test on one sequence, evaluated one output residue class
/// at a time.
///
/// For the largest power-of-two prefix `x_0 … x_{n−1}` (bits as ±1) and `F`
/// classes of `M = n/F` points, write `j = a + bM` and `k = Fq + r`. Then
/// `X[Fq + r] = Σ_a ω_M^{aq} · ω_n^{ar} · c_r[a]`, with
/// `c_r[a] = Σ_b x_{a+bM} ω_F^{br}`: class `r` is one `M`-point FFT.
/// `c_r[a]` is `F/8` lookups in byte tables that depend only on `(F, r)`
/// ([`Twiddles`]), indexed by column `a` of the `F × M` bit matrix whose
/// row `b` holds bits `bM … bM + M − 1`; this type stores that matrix
/// column by column, `F/8` bytes per column. The samples are real, so
/// `|X[n − k]| = |X[k]|` and classes `0 … F/2` cover every bin `k < n/2`:
/// `q < M/2` for `r ∈ {0, F/2}` and every `q` otherwise.
///
/// `N1 = #{k < n/2 : |X_k| < T}` is certified per class: a runtime bound
/// on every bin's rounding error (Higham, *Accuracy and Stability of
/// Numerical Algorithms*, ch. 24, from the class input's 2-norm, plus the
/// table, twiddle-product and stage-table twiddle errors) decides the bins
/// farther than it from `T`; a double-double direct evaluation re-decides
/// the rest, and a bin within that evaluation's own bound of `T` is
/// counted as undecided.
#[derive(Debug)]
pub struct SpectralColumns {
    n: usize,
    f: usize,
    /// Column `a`'s byte `g` at `a·F/8 + g`; its bit `7 − i` is row `8g + i`.
    cols: Vec<u8>,
}

impl SpectralColumns {
    /// The columns of a packed sequence's largest power-of-two prefix, or
    /// `None` below 16 bits.
    fn new(words: &[u64], len: usize) -> Option<Self> {
        (len >= 16).then(|| {
            let n = 1usize << len.ilog2();
            Self::with_classes(words, n, class_count(n))
        })
    }

    /// The first `n` bits as `f` classes (`f` a power of two, `8 ≤ f ≤ n/2`).
    fn with_classes(words: &[u64], n: usize, f: usize) -> Self {
        let (m, g) = (n / f, f / 8);
        let mut cols = vec![0u8; n / 8];
        if m % 64 == 0 {
            // Rows start on word boundaries: transpose 8 rows × 8 columns
            // at a time.
            let row_words = m / 64;
            for grp in 0..g {
                for w in 0..row_words {
                    let rows: [u64; 8] =
                        std::array::from_fn(|i| words[(8 * grp + i) * row_words + w]);
                    for t in 0..8 {
                        let block = rows.iter().enumerate().fold(0u64, |x, (i, row)| {
                            x | ((row >> (56 - 8 * t)) & 0xff) << (56 - 8 * i)
                        });
                        let block = transpose8(block);
                        for j in 0..8 {
                            cols[(64 * w + 8 * t + j) * g + grp] = (block >> (56 - 8 * j)) as u8;
                        }
                    }
                }
            }
        } else {
            for b in 0..f {
                for a in 0..m {
                    let i = b * m + a;
                    if (words[i / 64] >> (63 - i % 64)) & 1 == 1 {
                        cols[a * g + b / 8] |= 0x80 >> (b % 8);
                    }
                }
            }
        }
        SpectralColumns { n, f, cols }
    }

    /// Number of residue classes the test evaluates, `F/2 + 1`.
    pub fn classes(&self) -> usize {
        self.f / 2 + 1
    }

    /// Points per class transform, `M = n/F`.
    pub fn class_size(&self) -> usize {
        self.n / self.f
    }

    /// The classes in consecutive blocks of at least 2^15 points
    /// (one class each for large sequences): the unit of work a batch hands
    /// out.
    pub fn class_blocks(&self) -> impl Iterator<Item = Range<usize>> {
        let (classes, per) = (self.classes(), (JOB_POINTS / self.class_size()).max(1));
        (0..classes)
            .step_by(per)
            .map(move |r| r..(r + per).min(classes))
    }

    /// Certified count of the bins `k < n/2` of `classes` below the
    /// test's threshold `T = √(ln 20 · n)`. Allocates the class buffers for
    /// this call (32 B per class point) and frees them on return.
    pub fn count(&self, classes: Range<usize>, twiddles: &Twiddles) -> SpectralCount {
        self.count_below(classes, twiddles, self.threshold())
    }

    /// The spectral p-value from the count over every class, NaN when any
    /// bin is undecided.
    pub fn p_value(&self, count: SpectralCount) -> f64 {
        if count.undecided > 0 {
            return f64::NAN;
        }
        let n = self.n as f64;
        let n0 = 0.95 * (self.n / 2) as f64;
        let d = (count.below as f64 - n0) / (n * 0.95 * 0.05 / 4.0).sqrt();
        erfc(d.abs() / SQRT_2)
    }

    fn threshold(&self) -> f64 {
        ((1.0 / 0.05f64).ln() * self.n as f64).sqrt()
    }

    /// [`Self::count`] against any threshold `t`.
    fn count_below(&self, classes: Range<usize>, twiddles: &Twiddles, t: f64) -> SpectralCount {
        let mut bufs = ClassBuffers::new(self.class_size());
        let mut count = SpectralCount::default();
        for r in classes {
            let (re, im, bound) = self.class_spectrum(r, twiddles, &mut bufs);
            // Bins k = Fq + r < n/2; the other half of classes 0 and F/2
            // mirrors their first half.
            let bins = if r == 0 || 2 * r == self.f {
                re.len() / 2
            } else {
                re.len()
            };
            count += self.decide(r, &re[..bins], &im[..bins], bound, t);
        }
        count
    }

    /// Class `r`'s bins `X̂[Fq + r]`, `q < M`, and a bound on each one's
    /// error.
    fn class_spectrum<'a>(
        &self,
        r: usize,
        twiddles: &Twiddles,
        bufs: &'a mut ClassBuffers,
    ) -> (&'a [f64], &'a [f64], f64) {
        let m = self.class_size();
        let table = twiddles.class_tables(self.f).class(r);
        let sumsq = self.class_input(r, table, &mut bufs.re, &mut bufs.im);
        let in_first = {
            let ClassBuffers { re, im, re2, im2 } = &mut *bufs;
            stockham_fft(re, im, re2, im2, twiddles.table(m))
        };
        let bufs: &'a ClassBuffers = bufs;
        let (re, im) = if in_first {
            (&bufs.re, &bufs.im)
        } else {
            (&bufs.re2, &bufs.im2)
        };
        (re, im, class_bound(m, self.f / 8, sumsq))
    }

    /// Writes class `r`'s transform input `ω_n^{ar} · c_r[a]` into `re`/`im`
    /// and returns its sum of squares.
    fn class_input(&self, r: usize, table: &[ByteTable], re: &mut [f64], im: &mut [f64]) -> f64 {
        match table.len() {
            1 => self.class_input_by::<1>(r, table, re, im),
            2 => self.class_input_by::<2>(r, table, re, im),
            4 => self.class_input_by::<4>(r, table, re, im),
            _ => self.class_input_by::<8>(r, table, re, im),
        }
    }

    /// [`Self::class_input`], summing `c_r[a]`'s lookups `K` groups at a
    /// time as a tree (any order keeps the `γ_{F/8−1}` bound).
    #[inline(always)]
    fn class_input_by<const K: usize>(
        &self,
        r: usize,
        table: &[ByteTable],
        re: &mut [f64],
        im: &mut [f64],
    ) -> f64 {
        let (n, g) = (self.n, table.len());
        // ω_n^{ar} = ω_n^{r·span·h} · ω_n^{r·l} for a = span·h + l.
        let span = 1usize << re.len().trailing_zeros().div_ceil(2);
        let low: Vec<(f64, f64)> = (0..span).map(|l| root(r * l % n, n)).collect();
        let mut sumsq = 0.0;
        let rows = re
            .chunks_mut(span)
            .zip(im.chunks_mut(span))
            .zip(self.cols.chunks(span * g));
        for (h, ((re, im), cols)) in rows.enumerate() {
            let (hr, hi) = root(r * span * h % n, n);
            for (((re, im), col), &(lr, li)) in
                re.iter_mut().zip(im).zip(cols.chunks_exact(g)).zip(&low)
            {
                let (mut cr, mut ci) = (0.0, 0.0);
                for (tables, bytes) in table.chunks_exact(K).zip(col.chunks_exact(K)) {
                    let tables: &[ByteTable; K] = tables.try_into().expect("K groups");
                    let mut v: [[f64; 2]; K] =
                        std::array::from_fn(|i| tables[i][bytes[i] as usize]);
                    let mut w = K;
                    while w > 1 {
                        w /= 2;
                        for i in 0..w {
                            v[i] = [v[i][0] + v[i + w][0], v[i][1] + v[i + w][1]];
                        }
                    }
                    cr += v[0][0];
                    ci += v[0][1];
                }
                let (wr, wi) = (hr * lr - hi * li, hr * li + hi * lr);
                let (yr, yi) = (wr * cr - wi * ci, wr * ci + wi * cr);
                *re = yr;
                *im = yi;
                sumsq += yr * yr + yi * yi;
            }
        }
        sumsq
    }

    /// Counts class `r`'s computed bins (`X̂[Fq + r]` for `q < re.len()`)
    /// below `t`, re-deciding those within `bound` of it.
    fn decide(&self, r: usize, re: &[f64], im: &[f64], bound: f64, t: f64) -> SpectralCount {
        let (lo2, hi2) = cutoffs(t, bound);
        let (mut below, mut near) = (0usize, 0usize);
        for (&x, &y) in re.iter().zip(im) {
            let m2 = x * x + y * y;
            below += usize::from(m2 < lo2);
            near += usize::from(m2 <= hi2);
        }
        let mut count = SpectralCount {
            below,
            ..SpectralCount::default()
        };
        if near > below {
            let qs: Vec<usize> = (0..re.len())
                .filter(|&q| (lo2..=hi2).contains(&(re[q] * re[q] + im[q] * im[q])))
                .collect();
            count += self.recheck(r, &qs, t);
        }
        count
    }

    /// Re-decides bins `k = Fq + r`, `q ∈ qs`, by evaluating
    /// `X_k = Σ_a ω_n^{ak} c_r[a]` in double-double arithmetic, with every
    /// root of unity from [`dd_root`].
    fn recheck(&self, r: usize, qs: &[usize], t: f64) -> SpectralCount {
        let (n, f, m, g) = (self.n, self.f, self.class_size(), self.f / 8);
        let class_roots: Vec<Cdd> = (0..f).map(|b| dd_root(b * r % f, f)).collect();
        // ω_n^e = ω_n^{span·(e / span)} · ω_n^{e % span}.
        let span = 1usize << n.trailing_zeros().div_ceil(2);
        let low: Vec<Cdd> = (0..span).map(|e| dd_root(e, n)).collect();
        let high: Vec<Cdd> = (0..n / span).map(|h| dd_root(h * span, n)).collect();
        let mut sums = vec![CDD_ZERO; qs.len()];
        for (a, col) in self.cols.chunks(g).enumerate() {
            let mut c = CDD_ZERO;
            for (b, w) in class_roots.iter().enumerate() {
                let w = if (col[b / 8] >> (7 - b % 8)) & 1 == 1 {
                    *w
                } else {
                    cdd_neg(*w)
                };
                c = cdd_add(c, w);
            }
            for (sum, &q) in sums.iter_mut().zip(qs) {
                let e = a * (f * q + r) % n;
                *sum = cdd_add(*sum, cdd_mul(cdd_mul(high[e / span], low[e % span]), c));
            }
        }
        // Error of each sum: the roots and their products (n terms of
        // modulus ≤ 1, error ≤ 2^-96 each), and the double-double
        // roundings of F- and M-term sums.
        let err = n as f64 * (2f64.powi(-90) + (f + m) as f64 * 2f64.powi(-100));
        let t2 = (t * t, t.mul_add(t, -(t * t)));
        let mut count = SpectralCount {
            rechecked: qs.len(),
            ..SpectralCount::default()
        };
        for (re, im) in sums {
            let mag2 = dd_add(dd_mul(re, re), dd_mul(im, im));
            let d = dd_add(mag2, dd_neg(t2));
            let margin =
                ((2.0 * mag2.0.sqrt() + err) * err + (mag2.0 + t2.0) * 2f64.powi(-96)) * 1.01;
            if d.0 + d.1 < -margin {
                count.below += 1;
            } else if d.0 + d.1 <= margin {
                count.undecided += 1;
            }
        }
        count
    }
}

/// Transposes an 8 × 8 bit matrix held row-major, MSB first (row 0 in the
/// top byte, column 0 in each byte's top bit).
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// Bound on every bin of one class transform: Higham's FFT bound (ch. 24)
/// for `log2 M` radix-2 levels, each with twiddle error
/// [`STAGE_TWIDDLE_ERR`] and at most 8u of rounding (the radix-4 stages
/// count as two levels), from the input's 2-norm; plus the input's own
/// error, in 1-norm: [`INPUT_REL_ERR`] relative to `|c̃_a|`, and `F/8` table
/// errors and `F/8 − 1` rounded additions of terms of modulus ≤ 8 per
/// `c̃_a`.
fn class_bound(m: usize, g: usize, sumsq: f64) -> f64 {
    // M terms of two products and a sum each.
    let norm = (sumsq * (1.0 + 2.02 * (2 * m + 2) as f64 * U)).sqrt();
    let levels = m.trailing_zeros() as i32;
    let fft = (1.0 + 8.0 * U + STAGE_TWIDDLE_ERR).powi(levels) - 1.0;
    let sum_err = g as f64 * TABLE_ERR + SQRT_2 * 1.01 * U * (g - 1) as f64 * 8.0 * g as f64;
    let sqrt_m = (m as f64).sqrt();
    // ‖c̃‖₁ ≤ √M·‖c̃‖₂, and ‖c̃‖₂ exceeds ‖ŷ‖₂ by less than the slack.
    (sqrt_m * norm * (fft + INPUT_REL_ERR) + m as f64 * sum_err) * (1.0 + 1e-6)
}

/// Squared-magnitude cut-offs for threshold `t` and bin error bound `b`: a
/// computed `|X̂|²` below the first proves `|X| < t`, one above the second
/// proves `|X| ≥ t`. The 4u factors absorb the rounding of `|X̂|²` and of
/// these products.
fn cutoffs(t: f64, b: f64) -> (f64, f64) {
    let lo = if b < t {
        let lo = (t - b) * (1.0 - 4.0 * U);
        lo * lo * (1.0 - 4.0 * U)
    } else {
        0.0
    };
    let hi = (t + b) * (1.0 + 4.0 * U);
    (lo, hi * hi * (1.0 + 4.0 * U))
}

/// One job's class transform buffers: the input and the ping-pong half.
struct ClassBuffers {
    re: Vec<f64>,
    im: Vec<f64>,
    re2: Vec<f64>,
    im2: Vec<f64>,
}

impl ClassBuffers {
    fn new(m: usize) -> Self {
        ClassBuffers {
            re: vec![0.0; m],
            im: vec![0.0; m],
            re2: vec![0.0; m],
            im2: vec![0.0; m],
        }
    }
}

/// A double-double value `hi + lo` (`|lo| ≤ ulp(hi)/2`), about 106
/// significant bits.
type Dd = (f64, f64);
/// A complex double-double `(re, im)`.
type Cdd = (Dd, Dd);

const CDD_ZERO: Cdd = ((0.0, 0.0), (0.0, 0.0));

fn two_sum(a: f64, b: f64) -> Dd {
    let s = a + b;
    let v = s - a;
    (s, (a - (s - v)) + (b - v))
}

fn fast_two_sum(a: f64, b: f64) -> Dd {
    let s = a + b;
    (s, b - (s - a))
}

fn dd_add(a: Dd, b: Dd) -> Dd {
    let (s, e) = two_sum(a.0, b.0);
    let (t, f) = two_sum(a.1, b.1);
    let (s, e) = fast_two_sum(s, e + t);
    fast_two_sum(s, e + f)
}

fn dd_neg(a: Dd) -> Dd {
    (-a.0, -a.1)
}

fn dd_mul(a: Dd, b: Dd) -> Dd {
    let p = a.0 * b.0;
    fast_two_sum(p, a.0.mul_add(b.0, -p) + (a.0 * b.1 + a.1 * b.0))
}

fn dd_div(a: Dd, b: f64) -> Dd {
    let q = a.0 / b;
    let p = q * b;
    // a.0 − p is exact (Sterbenz), and the remainder is one ulp or so.
    let rem = ((a.0 - p) - q.mul_add(b, -p)) + a.1;
    fast_two_sum(q, rem / b)
}

fn cdd_add(a: Cdd, b: Cdd) -> Cdd {
    (dd_add(a.0, b.0), dd_add(a.1, b.1))
}

fn cdd_neg(a: Cdd) -> Cdd {
    (dd_neg(a.0), dd_neg(a.1))
}

fn cdd_mul(a: Cdd, b: Cdd) -> Cdd {
    (
        dd_add(dd_mul(a.0, b.0), dd_neg(dd_mul(a.1, b.1))),
        dd_add(dd_mul(a.0, b.1), dd_mul(a.1, b.0)),
    )
}

/// `ω_n^e` in double-double (`n` a power of two): the angle is reduced to
/// `[0, π/4]` exactly, by octant, then evaluated by Taylor series.
fn dd_root(e: usize, n: usize) -> Cdd {
    const FRAC_PI_4: Dd = (std::f64::consts::FRAC_PI_4, 3.061616997868383e-17);
    // 2πe/n = (π/4)·(octant + rest/n).
    let e8 = (e & (n - 1)) * 8;
    let (octant, rest) = (e8 / n, e8 % n);
    let x = if octant % 2 == 0 { rest } else { n - rest };
    let (c, s) = dd_sin_cos(dd_mul(FRAC_PI_4, (x as f64 / n as f64, 0.0)));
    // cos and sin of the angle within its quadrant.
    let (c, s) = if octant % 2 == 0 { (c, s) } else { (s, c) };
    let (c, s) = match octant / 2 {
        0 => (c, s),
        1 => (dd_neg(s), c),
        2 => (dd_neg(c), dd_neg(s)),
        _ => (s, dd_neg(c)),
    };
    (c, dd_neg(s))
}

/// `(cos a, sin a)` for `0 ≤ a ≤ π/4`, by Horner-form Taylor series to
/// `a^29` (truncation below 1e-35).
fn dd_sin_cos(a: Dd) -> (Dd, Dd) {
    let a2 = dd_mul(a, a);
    let (mut c, mut s) = ((1.0, 0.0), (1.0, 0.0));
    for k in (1..=14).rev() {
        let k = f64::from(k);
        c = dd_add(
            (1.0, 0.0),
            dd_neg(dd_div(dd_mul(a2, c), (2.0 * k - 1.0) * 2.0 * k)),
        );
        s = dd_add(
            (1.0, 0.0),
            dd_neg(dd_div(dd_mul(a2, s), 2.0 * k * (2.0 * k + 1.0))),
        );
    }
    (c, dd_mul(a, s))
}

/// Spectral-test tables for a batch of sequences: the FFT stage table of
/// each class size, and the byte tables of each class count `F`, built on
/// first use and shared by every thread that borrows the batch. Dropping
/// it frees every table, so the spectral test's memory is the in-flight
/// jobs' class buffers and the sequences' columns plus one table of each
/// kind per size the batch has met.
#[derive(Debug)]
pub struct Twiddles {
    tables: [OnceLock<StageTable>; usize::BITS as usize],
    classes: [OnceLock<ClassTables>; usize::BITS as usize],
}

impl Twiddles {
    /// No tables yet.
    pub fn new() -> Self {
        Twiddles {
            tables: [const { OnceLock::new() }; usize::BITS as usize],
            classes: [const { OnceLock::new() }; usize::BITS as usize],
        }
    }

    /// The stage table for transform size `m` (a power of two).
    fn table(&self, m: usize) -> &StageTable {
        assert!(m.is_power_of_two(), "FFT length {m} is not a power of two");
        self.tables[m.trailing_zeros() as usize].get_or_init(|| StageTable::new(m))
    }

    /// The byte tables for `f` classes.
    fn class_tables(&self, f: usize) -> &ClassTables {
        self.classes[f.trailing_zeros() as usize].get_or_init(|| ClassTables::new(f))
    }
}

impl Default for Twiddles {
    fn default() -> Self {
        Self::new()
    }
}

/// The byte tables of `F` classes: for class `r ≤ F/2`, byte group `g` and
/// byte `β`, `Σ_{i<8} ±ω_F^{(8g+i)r}` with `+` where bit `7 − i` of `β` is
/// set. `F/8` groups of 256 entries per class, 16 B an entry.
#[derive(Debug)]
struct ClassTables {
    per_class: usize,
    groups: Vec<ByteTable>,
}

/// One byte group's 256 entries `[re, im]`.
type ByteTable = [[f64; 2]; 256];

impl ClassTables {
    fn new(f: usize) -> Self {
        let per_class = f / 8;
        let mut groups = Vec::with_capacity((f / 2 + 1) * per_class);
        for r in 0..=f / 2 {
            for grp in 0..per_class {
                let w: [(f64, f64); 8] = std::array::from_fn(|i| root((8 * grp + i) * r % f, f));
                groups.push(std::array::from_fn(|byte| {
                    let (mut re, mut im) = (0.0, 0.0);
                    for (i, &(c, s)) in w.iter().enumerate() {
                        if (byte >> (7 - i)) & 1 == 1 {
                            re += c;
                            im += s;
                        } else {
                            re -= c;
                            im -= s;
                        }
                    }
                    [re, im]
                }));
            }
        }
        ClassTables { per_class, groups }
    }

    fn class(&self, r: usize) -> &[ByteTable] {
        &self.groups[r * self.per_class..(r + 1) * self.per_class]
    }
}

/// Twiddle factors of one transform size `m`: the per-stage factors
/// `e^{-2πip/len}` for `len = 2, 4, …, m`, packed contiguously (`m - 1`
/// entries; the table for length `len` starts at `len/2 - 1`).
///
/// Every entry comes from size `m`'s reconstruction recurrence: the
/// factors `r[k] = e^{-2πik/2m}`, `k < m`, generated by repeated
/// multiplication with `w = e^{-2πi/2m}` and resynchronized against
/// `sin_cos` at every multiple of 32. The length-`m` stage holds the even
/// entries `r[2j]`, and each smaller stage every other entry of the next
/// larger one. No caller depends on the resulting bits: the spectral test
/// and the period detector's dense path (which rounds
/// [`fft_in_place`]'s output to integers) need only the entries' error
/// bound, [`STAGE_TWIDDLE_ERR`].
#[derive(Debug)]
struct StageTable {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl StageTable {
    fn new(m: usize) -> Self {
        let ang = -std::f64::consts::TAU / (2 * m) as f64;
        let (w_im, w_re) = ang.sin_cos();
        let stages = m.saturating_sub(1);
        let mut t = StageTable {
            re: vec![0.0; stages],
            im: vec![0.0; stages],
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
                (cur_re, cur_im) = (cur_re * w_re - cur_im * w_im, cur_re * w_im + cur_im * w_re);
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
}

/// Bound on the 2-norm of [`fft_in_place`]'s output error (and so on every
/// output's) for an input of 2-norm `norm` held exactly, at a length up to
/// [`MAX_CLASS_SIZE`], whose stage twiddles [`STAGE_TWIDDLE_ERR`] bounds;
/// `None` above it. Higham's bound (ch. 24) as in `class_bound`: `log2
/// len` radix-2 levels of twiddle error plus 8u of rounding each.
pub(crate) fn fft_error_bound(len: usize, norm: f64) -> Option<f64> {
    if len > MAX_CLASS_SIZE {
        return None;
    }
    let levels = len.trailing_zeros() as i32;
    let rel = (1.0 + 8.0 * U + STAGE_TWIDDLE_ERR).powi(levels) - 1.0;
    Some((len as f64).sqrt() * norm * rel * (1.0 + 1e-6))
}

/// Stockham autosort FFT (radix 4, with one radix-2 stage for odd powers
/// of two), in place for a power-of-two length.
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

/// The scalar `&[bool]` oracle, shared with `tests/prop.rs` and the
/// `kernels` bench.
#[cfg(test)]
#[path = "../tests/nist_oracle/mod.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use sixscope_types::Xoshiro256pp;
    use std::collections::BTreeSet;

    fn from_bits(s: &str) -> BitSequence {
        let mut seq = BitSequence::new();
        for c in s.chars() {
            seq.push_bits(if c == '1' { 1 } else { 0 }, 1);
        }
        seq
    }

    fn from_fn(len: usize, mut bit: impl FnMut(usize) -> bool) -> BitSequence {
        let mut seq = BitSequence::new();
        for i in 0..len {
            seq.push_bits(u128::from(bit(i)), 1);
        }
        seq
    }

    /// Sequences whose spectra have exact zeros, huge peaks and integer
    /// bins, next to a random one: constant, low-byte counter IIDs,
    /// alternating, and period-2^k patterns.
    fn test_sequences(len: usize, seed: u64) -> Vec<(&'static str, BitSequence)> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let random: Vec<bool> = (0..len).map(|_| rng.next_u64() & 1 == 1).collect();
        let pattern: Vec<bool> = (0..32).map(|_| rng.next_u64() & 1 == 1).collect();
        vec![
            ("random", from_fn(len, |i| random[i])),
            ("ones", from_fn(len, |_| true)),
            ("zeros", from_fn(len, |_| false)),
            (
                "low-byte",
                from_fn(len, |i| ((i / 64 % 200 + 1) >> (63 - i % 64)) & 1 == 1),
            ),
            ("alternating", from_fn(len, |i| i % 2 == 0)),
            ("period-8", from_fn(len, |i| pattern[i % 8])),
            ("period-32", from_fn(len, |i| pattern[i % 32])),
        ]
    }

    /// The DFT of the first `n` bits as ±1 samples, in double-double: a
    /// direct sum over a table of every root of unity.
    fn dd_dft(seq: &BitSequence, n: usize) -> Vec<Cdd> {
        let roots: Vec<Cdd> = (0..n).map(|e| dd_root(e, n)).collect();
        (0..n)
            .map(|k| {
                (0..n).fold(CDD_ZERO, |sum, j| {
                    let w = roots[j * k % n];
                    cdd_add(sum, if seq.bit(j) { w } else { cdd_neg(w) })
                })
            })
            .collect()
    }

    fn dd_abs2(x: Cdd) -> Dd {
        dd_add(dd_mul(x.0, x.0), dd_mul(x.1, x.1))
    }

    fn dd_abs(x: Cdd) -> f64 {
        dd_abs2(x).0.sqrt()
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
        // its transforms start at 2^11 bits. Lengths on both sides of every
        // change of the class count up to 2^18 bits, each ending mid-word,
        // random and structured.
        let mut checked = BTreeSet::new();
        for l in 11..=18u32 {
            let len = (1usize << l) + 37 + 8 * l as usize;
            for (name, seq) in test_sequences(len, u64::from(l)) {
                let n = 1usize << l;
                checked.insert(class_count(n));
                assert_eq!(
                    seq.run(NistTest::Fft).p_value.to_bits(),
                    reference::fft_p(&seq.to_bools()).clamp(0.0, 1.0).to_bits(),
                    "fft, {name}, len {len}"
                );
            }
        }
        assert_eq!(checked.len(), 3, "class counts covered: {checked:?}");
    }

    #[test]
    fn class_count_changes_inside_the_reference_sizes_and_caps_the_class() {
        let count = |l: u32| class_count(1 << l);
        for l in 4..=48 {
            let m = (1usize << l) / count(l);
            assert!(
                count(l) >= 8 && (2..=MAX_CLASS_SIZE).contains(&m),
                "2^{l} bits"
            );
            // Up to 2^22 bits, every change of F is one the reference
            // comparison above crosses (2^11 … 2^18).
            if l > 4 && l <= 22 && count(l) != count(l - 1) {
                assert!((12..=18).contains(&l), "F changes at 2^{l} bits");
            }
        }
    }

    #[test]
    fn transpose8_swaps_rows_and_columns() {
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let bit = |x: u64, row: usize, col: usize| (x >> (63 - 8 * row - col)) & 1;
        for _ in 0..64 {
            let x = rng.next_u64();
            let t = transpose8(x);
            for row in 0..8 {
                for col in 0..8 {
                    assert_eq!(bit(t, row, col), bit(x, col, row));
                }
            }
        }
    }

    #[test]
    fn columns_hold_the_bit_matrix() {
        // Both transposes: word-aligned rows (M ≥ 64) and the bitwise one.
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let seq = from_fn(1 << 12, |_| rng.next_u64() & 1 == 1);
        for (n, f) in [
            (1usize << 12, 8usize),
            (1 << 12, 64),
            (1 << 9, 16),
            (256, 64),
        ] {
            let cols = SpectralColumns::with_classes(seq.words(), n, f);
            let (m, g) = (n / f, f / 8);
            for b in 0..f {
                for a in 0..m {
                    let got = (cols.cols[a * g + b / 8] >> (7 - b % 8)) & 1 == 1;
                    assert_eq!(got, seq.bit(b * m + a), "n {n}, F {f}, row {b}, col {a}");
                }
            }
        }
    }

    #[test]
    fn dd_roots_are_accurate() {
        // ω_8 = (1 − i)/√2, to double-double precision.
        const FRAC_1_SQRT_2: Dd = (std::f64::consts::FRAC_1_SQRT_2, -4.833646656726457e-17);
        let (c, s) = dd_root(1, 8);
        for (got, want) in [(c, FRAC_1_SQRT_2), (dd_neg(s), FRAC_1_SQRT_2)] {
            let diff = dd_add(got, dd_neg(want));
            assert!((diff.0 + diff.1).abs() < 1e-31, "{got:?} vs {want:?}");
        }
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        for _ in 0..200 {
            let n = 1usize << (3 + rng.next_u64() % 27);
            let (a, b) = ((rng.next_u64() as usize) % n, (rng.next_u64() as usize) % n);
            let (wa, wb, wab) = (dd_root(a, n), dd_root(b, n), dd_root((a + b) % n, n));
            // On the unit circle, multiplicative, and next to sin_cos.
            let norm = dd_add(dd_mul(wa.0, wa.0), dd_mul(wa.1, wa.1));
            assert!((norm.0 - 1.0 + norm.1).abs() < 2f64.powi(-100), "{a}/{n}");
            let prod = cdd_add(cdd_mul(wa, wb), cdd_neg(wab));
            assert!(
                (prod.0 .0.abs() + prod.1 .0.abs()) < 2f64.powi(-99),
                "{a}+{b}/{n}"
            );
            let (c, s) = root(a, n);
            assert!((wa.0 .0 - c).hypot(wa.1 .0 - s) <= ROOT_ERR, "{a}/{n}");
        }
    }

    #[test]
    fn class_bins_lie_within_the_runtime_bound() {
        // Every class count that fits the size, on random and structured
        // inputs: each computed bin against a double-double direct DFT.
        let twiddles = Twiddles::new();
        for l in [4u32, 7, 9] {
            let n = 1usize << l;
            for (name, seq) in test_sequences(n + 13, u64::from(l)) {
                let dft = dd_dft(&seq, n);
                for f in (3..l).map(|k| 1usize << k).filter(|&f| f <= 64) {
                    let cols = SpectralColumns::with_classes(seq.words(), n, f);
                    let mut bufs = ClassBuffers::new(n / f);
                    for r in 0..cols.classes() {
                        let (re, im, bound) = cols.class_spectrum(r, &twiddles, &mut bufs);
                        assert!(bound > 0.0 && bound < 1e-9 * n as f64);
                        for q in 0..n / f {
                            let x = dft[f * q + r];
                            let err = dd_abs(cdd_add(x, cdd_neg(((re[q], 0.0), (im[q], 0.0)))));
                            assert!(
                                err <= bound,
                                "{name}, n {n}, F {f}, bin {}: error {err:e} > bound {bound:e}",
                                f * q + r
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bound_stays_far_below_the_threshold_at_2_23_bits() {
        // The worst case over all inputs: |c_r[a]| ≤ F, so ‖ŷ‖₂² ≤ M·F².
        let n = 1usize << 23;
        let (f, m) = (class_count(n), n / class_count(n));
        let worst = (m * f * f) as f64 * (1.0 + INPUT_REL_ERR).powi(2);
        let bound = class_bound(m, f / 8, worst);
        let t = ((1.0 / 0.05f64).ln() * n as f64).sqrt();
        assert!(bound < 1e-9 * t, "bound {bound:e} vs threshold {t}");
    }

    #[test]
    fn stage_twiddle_error_constant_holds_up_to_the_largest_class() {
        // Against sin_cos of the rounded angle, whose own error is at most
        // 1.5u·π in the angle and one ulp per part: 8.1u in modulus.
        let reference_err = 9.0 * U;
        let mut m = 2;
        while m <= MAX_CLASS_SIZE {
            let table = StageTable::new(m);
            let mut worst = 0.0f64;
            let mut len = 2;
            while len <= m {
                let (tr, ti) = table.stage(len);
                for p in 0..len / 2 {
                    let (s, c) = (-std::f64::consts::TAU * (p as f64 / len as f64)).sin_cos();
                    worst = worst.max((tr[p] - c).hypot(ti[p] - s));
                }
                len *= 2;
            }
            assert!(
                worst + reference_err <= STAGE_TWIDDLE_ERR,
                "m = {m}: {:.1}u",
                worst / U
            );
            m *= 2;
        }
    }

    #[test]
    fn threshold_at_a_bin_magnitude_is_rechecked_or_left_undecided() {
        let twiddles = Twiddles::new();
        let n = 1usize << 10;
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        let seq = from_fn(n, |_| rng.next_u64() & 1 == 1);
        let cols = SpectralColumns::new(seq.words(), n).unwrap();
        let all = 0..cols.classes();
        let dft = dd_dft(&seq, n);
        // A computed bin's magnitude: the transform's bound cannot tell it
        // from the threshold, the direct evaluation can.
        for k in [1usize, 77, 300] {
            let t = dd_abs(dft[k]);
            let t2 = (t * t, t.mul_add(t, -(t * t)));
            let want = dft[..n / 2].iter().filter(|&&x| {
                let d = dd_add(dd_abs2(x), dd_neg(t2));
                d.0 + d.1 < 0.0
            });
            let count = cols.count_below(all.clone(), &twiddles, t);
            assert_eq!(count.undecided, 0, "bin {k}");
            assert!(count.rechecked >= 1, "bin {k}: nothing rechecked");
            assert_eq!(count.below, want.count(), "bin {k}");
        }
        // Integer bins: X_0 = Σ ±1 exactly, and every other bin of a
        // constant sequence is exactly 0. A threshold at such a magnitude
        // stays undecided.
        let x0 = seq
            .words()
            .iter()
            .map(|w| w.count_ones() as i64)
            .sum::<i64>()
            * 2
            - n as i64;
        assert_ne!(x0, 0);
        let count = cols.count_below(all.clone(), &twiddles, x0.abs() as f64);
        assert_eq!(count.undecided, 1, "X_0 = {x0}");
        let outcome = NistOutcome {
            test: NistTest::Fft,
            p_value: cols.p_value(count),
        };
        assert!(!outcome.decided() && !outcome.passes(), "{outcome:?}");
        let ones = from_fn(n, |_| true);
        let ones = SpectralColumns::new(ones.words(), n).unwrap();
        let count = ones.count_below(all.clone(), &twiddles, n as f64);
        assert_eq!((count.below, count.undecided), (n / 2 - 1, 1));
        let count = ones.count_below(all, &twiddles, 0.0);
        assert_eq!((count.below, count.undecided), (0, n / 2 - 1));
    }

    /// Size `m`'s stage twiddles, each factor `e^{-2πip/len}` read from the
    /// stored reconstruction recurrence as `r[p·2m/len]`.
    fn stored_stage_twiddles(m: usize) -> (Vec<f64>, Vec<f64>) {
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
        (stage_re, stage_im)
    }

    #[test]
    fn stage_tables_match_stored_twiddles_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for log2 in 0..=15 {
            let m = 1usize << log2;
            let table = StageTable::new(m);
            let (stage_re, stage_im) = stored_stage_twiddles(m);
            assert_eq!(bits(&table.re), bits(&stage_re), "stage re, m = {m}");
            assert_eq!(bits(&table.im), bits(&stage_im), "stage im, m = {m}");
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
        let pm1 = |x: u64| if x & 1 == 1 { 1.0 } else { -1.0 };
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
