//! Network-selection strategies: which announced prefixes a session probes
//! (the generator side of §5.2).

use sixscope_types::{Ipv6Prefix, Xoshiro256pp};
use std::net::Ipv6Addr;

/// How a scanner picks target networks from the announced-prefix view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkStrategy {
    /// One announced prefix per session (the choice may vary between
    /// sessions) — RIPE Atlas and Alpha Strike style.
    SinglePrefix,
    /// One announced prefix per *announcement period*: the choice is a
    /// deterministic function of the announced set, so it stays fixed while
    /// the set is stable and may change when the set changes — the paper's
    /// single-prefix scanners whose "chosen (arbitrary) prefix may vary
    /// between periods" (§5.2).
    PinnedPrefix {
        /// Per-scanner salt so different scanners pin different prefixes.
        salt: u64,
    },
    /// Every announced prefix, once per session — size-independent.
    AllAnnounced,
    /// Prefixes drawn with probability proportional to their address count
    /// — a coarse sweep that hits larger prefixes more often
    /// (size-dependent).
    SizeProportional {
        /// Prefixes drawn per session.
        draws: u32,
    },
    /// Alternates between [`NetworkStrategy::AllAnnounced`]-like and
    /// [`NetworkStrategy::SinglePrefix`]-like behavior across *announcement
    /// periods* (keyed on the announced set, like
    /// [`NetworkStrategy::PinnedPrefix`]) — the paper's "inconsistent"
    /// scanners: consistent within a cycle, changing between cycles
    /// (64 sources, 48% of sessions).
    Alternating,
    /// Fixed literal targets regardless of announcements (the DNS-exposed
    /// address of T2 is reached this way).
    FixedTargets(Vec<Ipv6Addr>),
    /// Random sampling in one fixed covering prefix (how silent subnets
    /// like T3 receive their rare packets).
    CoveringRandom(Ipv6Prefix),
}

impl NetworkStrategy {
    /// Selects the prefixes this session will probe.
    ///
    /// [`NetworkStrategy::FixedTargets`] and
    /// [`NetworkStrategy::CoveringRandom`] do not select announced
    /// prefixes; they return their own scope.
    pub fn select(&self, announced: &[Ipv6Prefix], rng: &mut Xoshiro256pp) -> Vec<Ipv6Prefix> {
        let mut out = Vec::new();
        let mut weights = Vec::new();
        self.select_into(announced, rng, &mut weights, &mut out);
        out
    }

    /// Fills `out` (cleared first) with the session's prefixes. `weights` is
    /// scratch for the size-proportional draw so a burst reuses one buffer.
    /// Selections and RNG draws are identical to [`NetworkStrategy::select`].
    pub fn select_into(
        &self,
        announced: &[Ipv6Prefix],
        rng: &mut Xoshiro256pp,
        weights: &mut Vec<f64>,
        out: &mut Vec<Ipv6Prefix>,
    ) {
        out.clear();
        match self {
            NetworkStrategy::SinglePrefix => {
                if !announced.is_empty() {
                    out.push(*rng.choose(announced));
                }
            }
            NetworkStrategy::PinnedPrefix { salt } => {
                if announced.is_empty() {
                    return;
                }
                let h = set_hash(announced, *salt);
                out.push(announced[(h % announced.len() as u64) as usize]);
            }
            NetworkStrategy::AllAnnounced => out.extend_from_slice(announced),
            NetworkStrategy::SizeProportional { draws } => {
                if announced.is_empty() {
                    return;
                }
                // Weights ∝ address count; use the prefix-length exponent
                // directly to avoid astronomically large floats.
                weights.clear();
                weights.extend(
                    announced
                        .iter()
                        .map(|p| 2f64.powi((64 - p.len().min(64)) as i32)),
                );
                for _ in 0..*draws {
                    let pick = announced[rng.weighted_index(weights)];
                    if !out.contains(&pick) {
                        out.push(pick);
                    }
                }
            }
            NetworkStrategy::Alternating => {
                // The announced set grows by one prefix per cycle, so its
                // size parity flips every announcement period — a clean
                // "changes behavior between periods" signal.
                if announced.len() % 2 == 0 {
                    NetworkStrategy::AllAnnounced.select_into(announced, rng, weights, out)
                } else {
                    NetworkStrategy::PinnedPrefix {
                        salt: set_hash(announced, 1),
                    }
                    .select_into(announced, rng, weights, out)
                }
            }
            NetworkStrategy::FixedTargets(_) => {}
            NetworkStrategy::CoveringRandom(covering) => out.push(*covering),
        }
    }
}

/// FNV-style fold of an announced set plus a salt: stable within an
/// announcement period, fresh across periods.
fn set_hash(announced: &[Ipv6Prefix], salt: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325 ^ salt;
    for p in announced {
        h ^= p.bits() as u64 ^ (p.len() as u64) << 56;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    fn announced() -> Vec<Ipv6Prefix> {
        vec![
            p("2001:db8::/33"),
            p("2001:db8:8000::/34"),
            p("2001:db8:c000::/34"),
        ]
    }

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(3)
    }

    #[test]
    fn single_prefix_picks_exactly_one() {
        let mut r = rng();
        for _ in 0..20 {
            let sel = NetworkStrategy::SinglePrefix.select(&announced(), &mut r);
            assert_eq!(sel.len(), 1);
            assert!(announced().contains(&sel[0]));
        }
    }

    #[test]
    fn all_announced_returns_everything() {
        let sel = NetworkStrategy::AllAnnounced.select(&announced(), &mut rng());
        assert_eq!(sel, announced());
    }

    #[test]
    fn size_proportional_prefers_larger_prefixes() {
        let mut r = rng();
        let mut hits = [0u32; 3];
        for _ in 0..3000 {
            let sel = NetworkStrategy::SizeProportional { draws: 1 }.select(&announced(), &mut r);
            let idx = announced().iter().position(|p| *p == sel[0]).unwrap();
            hits[idx] += 1;
        }
        // The /33 holds half the space; each /34 a quarter.
        assert!(hits[0] > hits[1] && hits[0] > hits[2]);
        let share = hits[0] as f64 / 3000.0;
        assert!((share - 0.5).abs() < 0.05, "share of /33 was {share}");
    }

    #[test]
    fn alternating_is_stable_within_a_period_and_varies_across() {
        let mut r = rng();
        // Within one announced set the behavior is fixed.
        let a = NetworkStrategy::Alternating.select(&announced(), &mut r);
        let b = NetworkStrategy::Alternating.select(&announced(), &mut r);
        assert_eq!(a.len(), b.len());
        // Across many different sets, both modes occur.
        let base: Ipv6Prefix = p("2001:db8::/32");
        let mut saw_all = false;
        let mut saw_single = false;
        let mut current = base;
        let mut set = vec![base];
        for _ in 0..12 {
            let (lo, hi) = current.split().unwrap();
            set.pop();
            set.push(lo);
            set.push(hi);
            current = hi;
            let sel = NetworkStrategy::Alternating.select(&set, &mut r);
            if sel.len() == set.len() {
                saw_all = true;
            } else if sel.len() == 1 {
                saw_single = true;
            }
        }
        assert!(saw_all && saw_single, "alternation never switched modes");
    }

    #[test]
    fn pinned_prefix_is_deterministic_per_period() {
        let mut r = rng();
        let strat = NetworkStrategy::PinnedPrefix { salt: 99 };
        let a = strat.select(&announced(), &mut r);
        let b = strat.select(&announced(), &mut r);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        // Different salts spread across prefixes.
        let picks: std::collections::BTreeSet<Ipv6Prefix> = (0..32u64)
            .map(|salt| NetworkStrategy::PinnedPrefix { salt }.select(&announced(), &mut r)[0])
            .collect();
        assert!(picks.len() > 1, "all salts pinned the same prefix");
    }

    #[test]
    fn empty_announcement_view() {
        let mut r = rng();
        assert!(NetworkStrategy::SinglePrefix.select(&[], &mut r).is_empty());
        assert!(NetworkStrategy::AllAnnounced.select(&[], &mut r).is_empty());
        assert!(NetworkStrategy::SizeProportional { draws: 3 }
            .select(&[], &mut r)
            .is_empty());
    }

    #[test]
    fn covering_random_ignores_announcements() {
        let covering = p("2001:db8::/29");
        let sel = NetworkStrategy::CoveringRandom(covering).select(&announced(), &mut rng());
        assert_eq!(sel, vec![covering]);
    }

    #[test]
    fn fixed_targets_select_no_prefixes() {
        let strat = NetworkStrategy::FixedTargets(vec!["2001:db8::1".parse().unwrap()]);
        assert!(strat.select(&announced(), &mut rng()).is_empty());
    }
}
