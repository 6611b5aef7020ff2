//! UpSet-style intersection analysis across telescopes (Fig. 8).
//!
//! For a universe of items (source ASNs, /128 sources) each observed at a
//! subset of the four telescopes, the UpSet view reports (a) the
//! *non-exclusive* per-telescope totals and (b) the count of items per
//! *exact* telescope combination — e.g. "seen at T1 and T2 but nowhere
//! else".

use sixscope_telescope::TelescopeId;
use std::collections::BTreeMap;

/// A set of telescopes as a 4-bit mask (bit i = `TelescopeId::ALL[i]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TelescopeSet(pub u8);

impl TelescopeSet {
    /// The empty set.
    pub const EMPTY: TelescopeSet = TelescopeSet(0);

    /// Adds a telescope.
    pub fn insert(&mut self, t: TelescopeId) {
        self.0 |= 1 << Self::index(t);
    }

    /// Membership test.
    pub fn contains(&self, t: TelescopeId) -> bool {
        self.0 & (1 << Self::index(t)) != 0
    }

    /// Number of telescopes in the set.
    pub fn len(&self) -> u32 {
        self.0.count_ones()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// The member telescopes in order.
    pub fn members(&self) -> Vec<TelescopeId> {
        TelescopeId::ALL
            .iter()
            .filter(|&&t| self.contains(t))
            .copied()
            .collect()
    }

    fn index(t: TelescopeId) -> u8 {
        TelescopeId::ALL.iter().position(|&x| x == t).unwrap() as u8
    }
}

impl std::fmt::Display for TelescopeSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return f.write_str("∅");
        }
        let names: Vec<String> = self.members().iter().map(|t| t.to_string()).collect();
        f.write_str(&names.join("+"))
    }
}

/// The UpSet decomposition of item observations.
#[derive(Debug, Clone, Default)]
pub struct UpSet {
    /// Count of items per exact telescope combination.
    pub exclusive: BTreeMap<TelescopeSet, u64>,
    /// Total items per telescope (non-exclusive, the left bars of Fig. 8).
    pub totals: BTreeMap<TelescopeId, u64>,
    /// Total distinct items.
    pub universe: u64,
}

impl UpSet {
    /// Builds the decomposition from per-item observation sets.
    pub fn from_observations<I: Ord>(observations: &BTreeMap<I, TelescopeSet>) -> UpSet {
        Self::from_sets(observations.values().copied())
    }

    /// Builds the decomposition from bare per-item telescope sets.
    ///
    /// The corpus index stores each source's membership as a
    /// [`TelescopeSet`] keyed by interned id; iterating those in id order
    /// yields the same multiset of sets as a `BTreeMap` of keys, so both
    /// constructors produce identical decompositions.
    pub fn from_sets(sets: impl IntoIterator<Item = TelescopeSet>) -> UpSet {
        let mut upset = UpSet::default();
        for set in sets {
            if set.is_empty() {
                continue;
            }
            *upset.exclusive.entry(set).or_default() += 1;
            for t in set.members() {
                *upset.totals.entry(t).or_default() += 1;
            }
            upset.universe += 1;
        }
        upset
    }

    /// Share of the universe observed at exactly one telescope.
    pub fn exclusive_share(&self) -> f64 {
        if self.universe == 0 {
            return 0.0;
        }
        let solo: u64 = self
            .exclusive
            .iter()
            .filter(|(set, _)| set.len() == 1)
            .map(|(_, c)| c)
            .sum();
        solo as f64 / self.universe as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[TelescopeId]) -> TelescopeSet {
        let mut s = TelescopeSet::EMPTY;
        for &t in ids {
            s.insert(t);
        }
        s
    }

    #[test]
    fn set_basics() {
        let mut s = TelescopeSet::EMPTY;
        assert!(s.is_empty());
        s.insert(TelescopeId::T2);
        s.insert(TelescopeId::T4);
        assert_eq!(s.len(), 2);
        assert!(s.contains(TelescopeId::T2));
        assert!(!s.contains(TelescopeId::T1));
        assert_eq!(s.members(), vec![TelescopeId::T2, TelescopeId::T4]);
        assert_eq!(s.to_string(), "T2+T4");
        // Idempotent insertion.
        s.insert(TelescopeId::T2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn upset_decomposition() {
        use TelescopeId::*;
        let mut obs: BTreeMap<&str, TelescopeSet> = BTreeMap::new();
        obs.insert("a", set(&[T1]));
        obs.insert("b", set(&[T1]));
        obs.insert("c", set(&[T1, T2]));
        obs.insert("d", set(&[T1, T2, T3, T4]));
        obs.insert("e", set(&[])); // never observed: excluded
        let upset = UpSet::from_observations(&obs);
        assert_eq!(upset.universe, 4);
        assert_eq!(upset.exclusive.get(&set(&[T1])), Some(&2));
        assert_eq!(upset.exclusive.get(&set(&[T2])), None);
        assert_eq!(upset.exclusive.get(&set(&TelescopeId::ALL)), Some(&1));
        // Non-exclusive totals.
        assert_eq!(upset.totals[&T1], 4);
        assert_eq!(upset.totals[&T2], 2);
        assert_eq!(upset.totals[&T3], 1);
        // Exclusive share: items at exactly one telescope = 2 of 4.
        assert!((upset.exclusive_share() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_universe() {
        let obs: BTreeMap<u32, TelescopeSet> = BTreeMap::new();
        let upset = UpSet::from_observations(&obs);
        assert_eq!(upset.universe, 0);
        assert_eq!(upset.exclusive_share(), 0.0);
        assert!(upset.exclusive.is_empty());
    }

    #[test]
    fn combination_counts_are_exact() {
        use TelescopeId::*;
        let mut obs: BTreeMap<u32, TelescopeSet> = BTreeMap::new();
        for i in 0..5 {
            obs.insert(i, set(&[T1, T3]));
        }
        let upset = UpSet::from_observations(&obs);
        assert_eq!(upset.exclusive[&set(&[T1, T3])], 5);
        assert_eq!(upset.exclusive.get(&set(&[T1])), None);
        assert_eq!(upset.exclusive.get(&set(&[T3])), None);
    }
}
