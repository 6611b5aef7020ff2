//! Property-based tests for the prefix algebra and the radix trie.

use proptest::prelude::*;
use sixscope_types::{Ipv6Prefix, PrefixTrie};
use std::net::Ipv6Addr;

fn arb_prefix() -> impl Strategy<Value = Ipv6Prefix> {
    (any::<u128>(), 0u8..=128).prop_map(|(bits, len)| Ipv6Prefix::from_bits(bits, len).unwrap())
}

proptest! {
    #[test]
    fn display_parse_round_trip(p in arb_prefix()) {
        let s = p.to_string();
        let back: Ipv6Prefix = s.parse().unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn canonical_form_has_no_host_bits(bits in any::<u128>(), len in 0u8..=128) {
        let p = Ipv6Prefix::from_bits(bits, len).unwrap();
        prop_assert_eq!(p.bits() & !Ipv6Prefix::mask(len), 0);
    }

    #[test]
    fn split_halves_partition_parent(p in arb_prefix()) {
        prop_assume!(p.len() < 128);
        let (lo, hi) = p.split().unwrap();
        prop_assert!(p.covers(&lo) && p.covers(&hi));
        prop_assert!(!lo.overlaps(&hi));
        prop_assert_eq!(lo.parent().unwrap(), p);
        prop_assert_eq!(hi.parent().unwrap(), p);
        // Address counts add up.
        prop_assert_eq!(lo.address_count(), hi.address_count());
        if !p.is_empty() {
            prop_assert_eq!(lo.address_count() + hi.address_count(), p.address_count());
        }
    }

    #[test]
    fn contains_agrees_with_covers_for_host_routes(p in arb_prefix(), addr in any::<u128>()) {
        let host = Ipv6Prefix::from_bits(addr, 128).unwrap();
        prop_assert_eq!(p.contains(Ipv6Addr::from(addr)), p.covers(&host));
    }

    #[test]
    fn trie_lookup_matches_linear_scan(
        entries in proptest::collection::vec((any::<u128>(), 0u8..=64), 1..40),
        probe in any::<u128>(),
    ) {
        let mut trie = PrefixTrie::new();
        let mut list: Vec<Ipv6Prefix> = Vec::new();
        for (bits, len) in entries {
            let p = Ipv6Prefix::from_bits(bits, len).unwrap();
            trie.insert(p, p.len());
            if !list.contains(&p) {
                list.push(p);
            }
        }
        let addr = Ipv6Addr::from(probe);
        let expect = list
            .iter()
            .filter(|p| p.contains(addr))
            .max_by_key(|p| p.len())
            .copied();
        let got = trie.lookup(addr).map(|(p, _)| *p);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn trie_insert_remove_leaves_no_trace(
        keep in proptest::collection::vec((any::<u128>(), 0u8..=64), 0..10),
        gone in proptest::collection::vec((any::<u128>(), 0u8..=64), 1..10),
        probe in any::<u128>(),
    ) {
        let mk = |(bits, len): (u128, u8)| Ipv6Prefix::from_bits(bits, len).unwrap();
        let keep: Vec<_> = keep.into_iter().map(mk).collect();
        let gone: Vec<_> = gone.into_iter().map(mk).filter(|g| !keep.contains(g)).collect();

        let mut reference = PrefixTrie::new();
        for p in &keep {
            reference.insert(*p, ());
        }
        let mut trie = PrefixTrie::new();
        for p in keep.iter().chain(&gone) {
            trie.insert(*p, ());
        }
        for p in &gone {
            trie.remove(p);
        }
        let addr = Ipv6Addr::from(probe);
        prop_assert_eq!(
            trie.lookup(addr).map(|(p, _)| *p),
            reference.lookup(addr).map(|(p, _)| *p)
        );
        prop_assert_eq!(trie.len(), reference.len());
    }

    #[test]
    fn nth_address_stays_inside_prefix(p in arb_prefix(), n in any::<u128>()) {
        prop_assert!(p.contains(p.nth_address(n)));
    }
}
