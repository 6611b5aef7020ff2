//! Property tests for the scanner models: targets stay inside their scope,
//! probes always encode to parseable wire bytes, schedules respect bounds,
//! and generation is deterministic per seed.

use proptest::prelude::*;
use sixscope_packet::ParsedView;
use sixscope_scanners::scanner::StaticContext;
use sixscope_scanners::{
    AddressStrategy, GenScratch, NetworkStrategy, ProbeBatch, ScannerSpec, SourceModel,
    TemporalModel, ToolProfile,
};
use sixscope_types::{Asn, Ipv6Prefix, SimDuration, SimTime, Xoshiro256pp};

fn arb_strategy() -> impl Strategy<Value = AddressStrategy> {
    prop_oneof![
        (1u64..64).prop_map(|max| AddressStrategy::LowByte { max }),
        Just(AddressStrategy::LowByteOne),
        Just(AddressStrategy::SubnetAnycast),
        Just(AddressStrategy::ServicePorts),
        any::<u32>().prop_map(|base| AddressStrategy::EmbeddedIpv4 { base }),
        any::<[u8; 3]>().prop_map(|oui| AddressStrategy::Eui64 { oui }),
        Just(AddressStrategy::PatternWords),
        Just(AddressStrategy::RandomIid),
        Just(AddressStrategy::RandomFull),
        (1u8..24).prop_map(|stride_bits| AddressStrategy::SortedTraversal { stride_bits }),
        (33u8..64).prop_map(|sub_len| AddressStrategy::SequentialSubnets { sub_len }),
    ]
}

fn arb_prefix() -> impl Strategy<Value = Ipv6Prefix> {
    (any::<u128>(), 16u8..=64).prop_map(|(bits, len)| Ipv6Prefix::from_bits(bits, len).unwrap())
}

proptest! {
    /// Every strategy's targets stay inside the prefix it was given.
    #[test]
    fn targets_stay_in_prefix(
        strategy in arb_strategy(),
        prefix in arb_prefix(),
        count in 1u64..64,
        seed in any::<u64>(),
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let hitlist = vec![prefix.low_byte_address()];
        for t in strategy.generate(prefix, count, &mut rng, &hitlist) {
            prop_assert!(prefix.contains(t), "{strategy:?} produced {t} outside {prefix}");
        }
    }

    /// Every probe a scanner emits encodes to valid, parseable IPv6 bytes
    /// whose header matches the probe.
    #[test]
    fn probes_always_parse(seed in any::<u64>(), strategy in arb_strategy()) {
        let prefix: Ipv6Prefix = "2001:db8::/32".parse().unwrap();
        let ctx = StaticContext {
            announced: vec![prefix],
            events: vec![],
            hitlist: vec![prefix.low_byte_address()],
            responsive: None,
            end: SimTime::EPOCH + SimDuration::weeks(8),
        };
        let spec = ScannerSpec {
            id: 1,
            source: SourceModel::Fixed("2a0a::1".parse().unwrap()),
            asn: Asn(64500),
            temporal: TemporalModel::OneOff {
                at: SimTime::from_secs(100),
            },
            network: NetworkStrategy::AllAnnounced,
            address: strategy,
            tool: ToolProfile::yarrp6(),
            packets_per_prefix: 16,
            pps: 1.0,
            reactive: None,
            tga_followups: None,
        };
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut wire = Vec::new();
        for probe in spec.generate(&ctx, &mut rng) {
            probe.encode_into(&mut wire);
            let parsed = ParsedView::parse(&wire).unwrap();
            prop_assert_eq!(parsed.header.src, probe.src);
            prop_assert_eq!(parsed.header.dst, probe.dst);
        }
    }

    /// The batched columnar generation path emits exactly the reference
    /// per-probe stream for any address strategy and seed — including
    /// reactive session triggers and announce events at split-cycle
    /// boundaries, which both perturb the RNG draw sequence.
    #[test]
    fn batched_generation_equals_reference(seed in any::<u64>(), strategy in arb_strategy()) {
        let split_a: Ipv6Prefix = "2001:db8::/33".parse().unwrap();
        let split_b: Ipv6Prefix = "2001:db8:8000::/33".parse().unwrap();
        let ctx = StaticContext {
            announced: vec![split_a, split_b],
            events: vec![
                (SimTime::from_secs(500), "2001:db8::/32".parse().unwrap()),
                (SimTime::EPOCH + SimDuration::weeks(2), split_a),
                (SimTime::EPOCH + SimDuration::weeks(2), split_b),
            ],
            hitlist: vec![split_a.low_byte_address()],
            responsive: Some("2001:db8:4200::/48".parse().unwrap()),
            end: SimTime::EPOCH + SimDuration::weeks(6),
        };
        let spec = ScannerSpec {
            id: 7,
            source: SourceModel::RotatingIid {
                subnet: "2a0a::/64".parse().unwrap(),
                per_probe: true,
            },
            asn: Asn(64502),
            temporal: TemporalModel::Periodic {
                start: SimTime::from_secs(100),
                period: SimDuration::days(5),
                jitter: SimDuration::mins(30),
                until: ctx.end,
            },
            network: NetworkStrategy::Alternating,
            address: strategy,
            tool: ToolProfile::yarrp6(),
            packets_per_prefix: 8,
            pps: 2.0,
            reactive: Some(sixscope_scanners::scanner::Reactivity {
                delay: SimDuration::mins(5),
                probability: 0.5,
            }),
            tga_followups: Some(4),
        };
        let reference = spec.generate(&ctx, &mut Xoshiro256pp::seed_from_u64(seed));
        let mut batch = ProbeBatch::new();
        let mut scratch = GenScratch::new();
        spec.generate_into(&ctx, &mut Xoshiro256pp::seed_from_u64(seed), &mut scratch, &mut batch);
        batch.sort_by_ts();
        prop_assert_eq!(batch.len(), reference.len());
        for (pos, &row) in batch.sorted().iter().enumerate() {
            prop_assert_eq!(&batch.probe(row as usize), &reference[pos], "position {}", pos);
        }
    }

    /// Temporal models respect their bounds and never panic.
    #[test]
    fn temporal_models_respect_bounds(
        seed in any::<u64>(),
        period_h in 1u64..200,
        jitter_m in 0u64..59,
        span_w in 1u64..44,
        gap_d in 1u64..20,
        max_sessions in 2u32..40,
    ) {
        let until = SimTime::EPOCH + SimDuration::weeks(span_w);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let periodic = TemporalModel::Periodic {
            start: SimTime::EPOCH,
            period: SimDuration::hours(period_h),
            jitter: SimDuration::mins(jitter_m),
            until,
        };
        let starts = periodic.session_starts(&mut rng);
        prop_assert!(!starts.is_empty());
        // Jitter can push a start slightly past `until`, but never further
        // than the jitter half-width.
        for s in &starts {
            prop_assert!(s.as_secs() <= until.as_secs() + jitter_m * 60);
        }
        let intermittent = TemporalModel::Intermittent {
            start: SimTime::EPOCH,
            until,
            mean_gap: SimDuration::days(gap_d),
            max_sessions,
        };
        let starts = intermittent.session_starts(&mut rng);
        prop_assert!(starts.len() as u32 <= max_sessions);
        prop_assert!(starts.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(starts.iter().all(|s| *s < until));
    }

    /// Scanner generation is a pure function of (spec, context, seed).
    #[test]
    fn generation_is_deterministic(seed in any::<u64>()) {
        let prefix: Ipv6Prefix = "2001:db8::/32".parse().unwrap();
        let ctx = StaticContext {
            announced: vec![prefix],
            events: vec![(SimTime::from_secs(500), prefix)],
            hitlist: vec![],
            responsive: None,
            end: SimTime::EPOCH + SimDuration::weeks(4),
        };
        let spec = ScannerSpec {
            id: 9,
            source: SourceModel::RotatingIid {
                subnet: "2a0a::/64".parse().unwrap(),
                per_probe: true,
            },
            asn: Asn(64501),
            temporal: TemporalModel::Intermittent {
                start: SimTime::from_secs(50),
                until: ctx.end,
                mean_gap: SimDuration::days(2),
                max_sessions: 6,
            },
            network: NetworkStrategy::SinglePrefix,
            address: AddressStrategy::RandomIid,
            tool: ToolProfile::random_bytes(),
            packets_per_prefix: 10,
            pps: 1.0,
            reactive: Some(sixscope_scanners::scanner::Reactivity {
                delay: SimDuration::mins(10),
                probability: 0.5,
            }),
            tga_followups: None,
        };
        let a = spec.generate(&ctx, &mut Xoshiro256pp::seed_from_u64(seed));
        let b = spec.generate(&ctx, &mut Xoshiro256pp::seed_from_u64(seed));
        prop_assert_eq!(a, b);
    }

    /// Network strategies only ever select announced prefixes (or their own
    /// fixed scope).
    #[test]
    fn selection_subset_of_announced(
        prefixes in proptest::collection::vec(arb_prefix(), 1..12),
        session_index in any::<u64>(),
        salt in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for strategy in [
            NetworkStrategy::SinglePrefix,
            NetworkStrategy::PinnedPrefix { salt },
            NetworkStrategy::AllAnnounced,
            NetworkStrategy::SizeProportional { draws: 3 },
            NetworkStrategy::Alternating,
        ] {
            for sel in strategy.select(&prefixes, session_index, &mut rng) {
                prop_assert!(prefixes.contains(&sel), "{strategy:?} selected {sel}");
            }
        }
    }
}
