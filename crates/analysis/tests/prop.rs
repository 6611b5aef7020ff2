//! Property tests for the analysis toolkit: NIST p-value sanity, DBSCAN
//! label validity and determinism, address-classifier totality, statistics
//! invariants, tool matching, and packed-kernel equivalence against the
//! retained naive references.

use proptest::prelude::*;
use sixscope_analysis::addrtype::{classify, AddressType};
use sixscope_analysis::autocorr::{self, PeriodDetector};
use sixscope_analysis::classify::{
    profile_scanners, ScannerProfile, ScannerProfiler, TemporalClass,
};
use sixscope_analysis::dbscan::{cluster_count, dbscan, dbscan_indexed, Assignment};
use sixscope_analysis::fingerprint::{identify, match_tool, KnownTool, ToolMatch};
use sixscope_analysis::nist::{self, BitSequence, NistTest};
use sixscope_analysis::special::{erfc, normal_cdf};
use sixscope_analysis::stats::{ecdf, percent_change, rank_descending};
use sixscope_telescope::{AggLevel, ScanSession, SourceKey, TelescopeId};
use sixscope_types::SimTime;
use std::net::Ipv6Addr;

proptest! {
    /// The word-packed NIST kernels reproduce the naive bit-vector
    /// references bit-for-bit, including sequences that end mid-word.
    #[test]
    fn nist_packed_matches_reference(
        words in proptest::collection::vec(any::<u64>(), 0..40),
        tail in any::<u64>(),
        tail_len in 0u32..64,
    ) {
        let mut seq = BitSequence::new();
        for w in &words {
            seq.push_bits(*w as u128, 64);
        }
        if tail_len > 0 {
            seq.push_bits((tail & ((1u64 << tail_len) - 1)) as u128, tail_len);
        }
        let bits = seq.to_bools();
        prop_assert_eq!(bits.len(), words.len() * 64 + tail_len as usize);
        for out in seq.run_all() {
            let want = match out.test {
                NistTest::Frequency => nist::reference::frequency_p(&bits),
                NistTest::Runs => nist::reference::runs_p(&bits),
                NistTest::Fft => nist::reference::fft_p(&bits),
                NistTest::CusumForward => nist::reference::cusum_p(&bits, false),
                NistTest::CusumBackward => nist::reference::cusum_p(&bits, true),
            };
            prop_assert_eq!(
                out.p_value.to_bits(),
                want.to_bits(),
                "{:?}: packed {} vs reference {}",
                out.test,
                out.p_value,
                want
            );
        }
    }

    /// Table 7's shortcut: `match_tool` names a tool exactly when
    /// `identify` does. Payloads are random bytes, a tool signature followed
    /// by random bytes, or a signature after 1–7 leading bytes; the rDNS
    /// name is absent, an Atlas probe, an Ark monitor, or another host.
    #[test]
    fn match_tool_agrees_with_identify(
        tool in 0usize..KnownTool::ALL.len(),
        shape in 0u8..3,
        lead in proptest::collection::vec(any::<u8>(), 1..8),
        rest in proptest::collection::vec(any::<u8>(), 0..80),
        rdns in 0usize..4,
    ) {
        let signature = KnownTool::ALL[tool].signature();
        let payload = match shape {
            0 => rest.clone(),
            1 => [signature, &rest].concat(),
            _ => [&lead, signature, &rest].concat(),
        };
        let rdns = [
            None,
            Some("p6012.probes.atlas.ripe.net"),
            Some("ams-nl.ark.caida.org"),
            Some("scanner.example.net"),
        ][rdns];
        let matched = match_tool(&payload, rdns);
        match identify(&payload, rdns) {
            ToolMatch::Tool(t) => prop_assert_eq!(matched, Some(t)),
            _ => prop_assert_eq!(matched, None),
        }
    }

    /// The Wiener–Khinchin period detector makes the same discrete decision
    /// (detected or not, and which period) as the O(n·lag) ACF reference on
    /// arbitrary session-start trains.
    #[test]
    fn autocorr_fft_matches_reference(
        offsets in proptest::collection::vec(0u64..3_000_000, 0..80),
        stretch in 1u64..40,
    ) {
        let starts: Vec<SimTime> = offsets
            .iter()
            .map(|&o| SimTime::from_secs(o * stretch % 10_000_000))
            .collect();
        let det = PeriodDetector::default();
        let fast = det.detect(&starts);
        let slow = autocorr::reference::detect(&det, &starts);
        prop_assert_eq!(fast.is_some(), slow.is_some());
        if let (Some(f), Some(s)) = (fast, slow) {
            prop_assert_eq!(f.period, s.period);
        }
    }

    /// The sorted-projection DBSCAN labels every random 1-D point set
    /// exactly like the O(n²) scan.
    #[test]
    fn dbscan_indexed_matches_scan(
        points in proptest::collection::vec(-100.0f64..100.0, 0..80),
        eps in 0.1f64..10.0,
        min_pts in 1usize..5,
    ) {
        let d = |a: &f64, b: &f64| (a - b).abs();
        prop_assert_eq!(
            dbscan(&points, eps, min_pts, d),
            dbscan_indexed(&points, eps, min_pts, |&p| p, d)
        );
    }

    /// Every NIST test returns a finite p-value in [0, 1] on any input.
    #[test]
    fn nist_p_values_are_sane(words in proptest::collection::vec(any::<u64>(), 0..64)) {
        let mut seq = BitSequence::new();
        for w in &words {
            seq.push_bits(*w as u128, 64);
        }
        for test in NistTest::ALL {
            let out = seq.run(test);
            prop_assert!(out.p_value.is_finite());
            prop_assert!((0.0..=1.0).contains(&out.p_value), "{:?} p={}", test, out.p_value);
        }
    }

    /// The classifier is total and deterministic over the address space.
    #[test]
    fn addrtype_total_and_deterministic(bits in any::<u128>()) {
        let addr = Ipv6Addr::from(bits);
        let a = classify(addr);
        let b = classify(addr);
        prop_assert_eq!(a, b);
        prop_assert!(AddressType::ALL.contains(&a));
        // Classification only depends on the IID.
        let other_prefix = Ipv6Addr::from((bits & 0xffff_ffff_ffff_ffff) | (0x3fff_u128 << 112));
        prop_assert_eq!(classify(other_prefix), a);
    }

    /// DBSCAN: deterministic, labels contiguous from zero, core points of
    /// the same dense blob share a cluster.
    #[test]
    fn dbscan_label_validity(
        points in proptest::collection::vec(-100.0f64..100.0, 0..60),
        eps in 0.1f64..10.0,
        min_pts in 1usize..5,
    ) {
        let d = |a: &f64, b: &f64| (a - b).abs();
        let out1 = dbscan(&points, eps, min_pts, d);
        let out2 = dbscan(&points, eps, min_pts, d);
        prop_assert_eq!(&out1, &out2);
        let k = cluster_count(&out1);
        for a in &out1 {
            if let Assignment::Cluster(c) = a {
                prop_assert!(*c < k);
            }
        }
        // Every cluster id below k is used by at least one point.
        for c in 0..k {
            prop_assert!(out1.iter().any(|a| a.cluster() == Some(c)));
        }
        // A noise point has fewer than min_pts neighbors OR borders no core;
        // at minimum it must not be density-core itself only if isolated:
        for (i, a) in out1.iter().enumerate() {
            if *a == Assignment::Noise {
                let neighbors = points
                    .iter()
                    .filter(|p| (*p - points[i]).abs() <= eps)
                    .count();
                prop_assert!(neighbors < min_pts, "core point marked noise");
            }
        }
    }

    /// erfc is monotone decreasing and bounded in (0, 2).
    #[test]
    fn erfc_monotone(x in -5.0f64..5.0, dx in 0.001f64..2.0) {
        prop_assert!(erfc(x) > erfc(x + dx));
        prop_assert!(erfc(x) > 0.0 && erfc(x) < 2.0);
    }

    /// Φ is a CDF: monotone, in [0,1], symmetric around zero.
    #[test]
    fn normal_cdf_properties(x in -6.0f64..6.0) {
        let v = normal_cdf(x);
        prop_assert!((0.0..=1.0).contains(&v));
        prop_assert!((normal_cdf(x) + normal_cdf(-x) - 1.0).abs() < 1e-6);
    }

    /// ecdf ends at exactly 1 and is monotone in both coordinates.
    #[test]
    fn ecdf_invariants(values in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let pts = ecdf(values.clone());
        prop_assert_eq!(pts.len(), values.len());
        prop_assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
        prop_assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
    }

    /// rank_descending is a sorted permutation.
    #[test]
    fn rank_descending_permutes(values in proptest::collection::vec(any::<u64>(), 0..100)) {
        let ranked = rank_descending(values.clone());
        prop_assert!(ranked.windows(2).all(|w| w[0] >= w[1]));
        let mut a = values;
        let mut b = ranked;
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// percent_change round-trips: applying the change recovers `after`.
    #[test]
    fn percent_change_roundtrip(before in 0.001f64..1e9, after in 0.0f64..1e9) {
        let pct = percent_change(before, after);
        let recovered = before * (1.0 + pct / 100.0);
        prop_assert!((recovered - after).abs() < 1e-6 * after.max(1.0));
    }

    /// A `ScannerProfiler` reused over growing prefixes of a session list,
    /// whose last sessions keep gaining packets in between (how an
    /// incremental sessionizer's list evolves), equals one-shot
    /// `profile_scanners` on every prefix. Up to 100 sources cross the
    /// parallel-classification threshold, so running the suite under
    /// different `SIXSCOPE_THREADS` values checks thread-count invariance.
    #[test]
    fn scanner_profiler_matches_one_shot_profiling(
        specs in proptest::collection::vec((0u64..100, 0u64..40, 0u64..600, 1usize..6), 1..300),
        cuts in proptest::collection::vec(0usize..300, 0..6),
        growth in proptest::collection::vec((0usize..4, 1usize..50), 6),
    ) {
        // Sources scan in daily slots (some with a stable period, most
        // not), and the list is in start order like a sessionizer's.
        let mut all: Vec<ScanSession> = specs
            .iter()
            .map(|&(src, day, jitter, packets)| ScanSession {
                source: SourceKey::new(
                    Ipv6Addr::from((0x2a0a_u128 << 112) | u128::from(src)),
                    AggLevel::Addr128,
                ),
                telescope: TelescopeId::T1,
                start: SimTime::from_secs(day * 86_400 + src * 37 + jitter),
                end: SimTime::from_secs(day * 86_400 + src * 37 + jitter),
                packet_indices: vec![0; packets],
            })
            .collect();
        all.sort_by_key(|s| s.start);
        let mut lens: Vec<usize> = cuts.iter().map(|&c| c % (all.len() + 1)).collect();
        lens.push(all.len());
        lens.sort_unstable();

        let mut profiler = ScannerProfiler::default();
        let mut live: Vec<ScanSession> = Vec::new();
        for (step, &len) in lens.iter().enumerate() {
            live.extend_from_slice(&all[live.len()..len]);
            // The newest sessions are the open ones: they gain packets.
            let (last, extra) = growth[step % growth.len()];
            let from = live.len().saturating_sub(last);
            for s in &mut live[from..] {
                s.packet_indices.extend(std::iter::repeat_n(0, extra));
            }
            prop_assert_eq!(
                summary(&profiler.profile(&live)),
                summary(&profile_scanners(&live)),
                "step {}",
                step
            );
        }
    }
}

/// The comparable content of a profile list.
fn summary(profiles: &[ScannerProfile]) -> Vec<(SourceKey, TemporalClass, Vec<usize>, u64)> {
    profiles
        .iter()
        .map(|p| (p.source, p.temporal, p.session_indices.clone(), p.packets))
        .collect()
}
