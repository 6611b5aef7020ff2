//! Fast deterministic hashing for the hash maps on hot paths: the
//! sessionizer's open-session table, the /64 session derivation, the
//! corpus index's source-id pass and the report memos.
//!
//! [`FxHasher`] is the rustc-compiler hash (a multiply-and-rotate mixer):
//! 3–4 arithmetic ops per 8-byte word, no per-process random state, so a
//! hash value is a *deterministic* pure function of the key bytes — safe to
//! use anywhere the byte-identical-output contract (DESIGN.md §6) applies.
//! No output depends on a map's iteration order either way (DESIGN.md
//! §11).

use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit Fx multiplier (golden-ratio derived, as in rustc's FxHash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Deterministic multiply-rotate hasher (FxHash).
///
/// Not DoS-resistant — use only on keys an attacker cannot choose freely,
/// or where a flooded bucket costs time, not correctness. All sixscope
/// inputs are measurement data; worst case is a slow run, never a wrong
/// one.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add_to_hash(v as u64);
        self.add_to_hash((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`] — drop-in replacement for
/// `RandomState` in `HashMap`/`HashSet` type parameters.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fxhash_is_deterministic_across_instances() {
        let hash = |v: u128| {
            let mut h = FxHasher::default();
            h.write_u128(v);
            h.finish()
        };
        assert_eq!(hash(0x1234_5678), hash(0x1234_5678));
        let mut a = FxHasher::default();
        a.write(b"sixscope");
        let mut b = FxHasher::default();
        b.write(b"sixscope");
        assert_eq!(a.finish(), b.finish());
        assert_ne!(hash(1), hash(2));
    }
}
