//! Deterministic, splittable pseudo-random number generation.
//!
//! Reproducibility is a hard requirement: a whole 11-month experiment must be
//! re-runnable bit-for-bit from one `u64` seed so that every table and figure
//! in EXPERIMENTS.md can be regenerated. External RNG crates do not guarantee
//! stream stability across versions, so the simulation uses an in-tree
//! xoshiro256++ (public domain, Blackman & Vigna) seeded through SplitMix64.
//!
//! [`SplitMix64`] additionally serves as the *splitter*: every subsystem
//! (population generator, each scanner, the BGP jitter model, …) receives its
//! own independent stream derived from the master seed plus a stable label,
//! so adding a scanner never perturbs the draws of another.

/// SplitMix64 — a tiny 64-bit generator used for seeding and stream splitting.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — the workhorse generator for all simulation draws.
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the generator through SplitMix64 as recommended by the authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = sm.next_u64();
        }
        // An all-zero state is invalid; SplitMix64 cannot produce four zero
        // outputs in a row from any seed, but guard anyway.
        if s == [0; 4] {
            s[0] = 1;
        }
        Xoshiro256pp { s }
    }

    /// Derives an independent stream for a labelled subsystem.
    ///
    /// The label is hashed with FNV-1a and mixed with the next state draw, so
    /// `split("scanner-17")` and `split("scanner-18")` are uncorrelated.
    pub fn split(&mut self, label: &str) -> Xoshiro256pp {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        Xoshiro256pp::seed_from_u64(self.next_u64() ^ h)
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns the next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns 128 random bits (two draws).
    pub fn next_u128(&mut self) -> u128 {
        ((self.next_u64() as u128) << 64) | self.next_u64() as u128
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift rejection.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Rejection sampling keeps the distribution exactly uniform.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Samples an index according to non-negative `weights`.
    ///
    /// # Panics
    /// Panics if the weights are empty or sum to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must have positive sum");
        let mut x = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Exponential variate with the given `rate` (mean `1/rate`).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive");
        // Use 1 - f64() to avoid ln(0).
        -(1.0 - self.f64()).ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain C code.
        let mut sm = SplitMix64::new(1234567);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism: same seed, same stream.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        let mut c = Xoshiro256pp::seed_from_u64(43);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn split_streams_are_label_sensitive() {
        let mut root1 = Xoshiro256pp::seed_from_u64(7);
        let mut root2 = Xoshiro256pp::seed_from_u64(7);
        let mut s1 = root1.split("alpha");
        let mut s2 = root2.split("beta");
        let v1: Vec<u64> = (0..4).map(|_| s1.next_u64()).collect();
        let v2: Vec<u64> = (0..4).map(|_| s2.next_u64()).collect();
        assert_ne!(v1, v2);
    }

    #[test]
    fn below_stays_in_bounds_and_covers_support() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x = rng.below(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval_with_plausible_mean() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean was {mean}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.weighted_index(&[1.0, 2.0, 7.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let share2 = counts[2] as f64 / 30_000.0;
        assert!((share2 - 0.7).abs() < 0.03, "share was {share2}");
    }

    #[test]
    fn exponential_has_matching_mean() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean was {mean}");
    }
}
