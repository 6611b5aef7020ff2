//! The scalar `&[bool]` NIST kernels that the packed implementations in
//! `nist` replaced, kept as the ground truth for the property tests and
//! the `kernels` criterion group.
//!
//! Test-only. It is shared by the `nist` unit tests (`src/nist.rs`), the
//! property tests (`tests/prop.rs`) and the `kernels` bench; each includer
//! brings `erfc` and `normal_cdf` from `sixscope_analysis::special` into
//! the parent scope, so this file names them through `super`.

use super::{erfc, normal_cdf};

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
