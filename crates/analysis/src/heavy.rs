//! Heavy-hitter detection (§4.2).
//!
//! A heavy hitter is an individual source (/128) contributing more than 10%
//! of one telescope's packets. The paper found ten across the four
//! telescopes, together carrying 73% of all packets in only 0.04% of the
//! sessions — which is why all session-centric statistics keep them in.

use serde::{Deserialize, Serialize};
use sixscope_telescope::{AggLevel, Capture, SourceKey, TelescopeId};
use std::collections::BTreeMap;

/// The paper's heavy-hitter threshold: 10% of a telescope's packets.
pub const HEAVY_HITTER_SHARE: f64 = 0.10;

/// One detected heavy hitter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeavyHitter {
    /// The telescope where the source dominates.
    pub telescope: TelescopeId,
    /// The /128 source.
    pub source: SourceKey,
    /// Packets from this source at this telescope.
    pub packets: u64,
    /// Share of the telescope's total packets.
    pub share: f64,
}

/// Detects heavy hitters in one telescope's capture.
pub fn heavy_hitters(capture: &Capture) -> Vec<HeavyHitter> {
    heavy_hitters_with_threshold(capture, HEAVY_HITTER_SHARE)
}

/// Detection with an explicit share threshold (for ablations).
pub fn heavy_hitters_with_threshold(capture: &Capture, threshold: f64) -> Vec<HeavyHitter> {
    let mut counts: BTreeMap<SourceKey, u64> = BTreeMap::new();
    for p in capture.packets() {
        *counts
            .entry(SourceKey::new(p.src, AggLevel::Addr128))
            .or_default() += 1;
    }
    heavy_hitters_from_counts(capture.config().id, capture.len() as u64, counts, threshold)
}

/// Detection from pre-aggregated per-source packet counts — the corpus
/// index already holds these, so re-walking the capture is unnecessary.
///
/// `counts` must yield sources in ascending [`SourceKey`] order (a
/// `BTreeMap` iteration, or interned ids walked in id order) so the output
/// order — descending packets, key order on ties — matches
/// [`heavy_hitters`] exactly.
pub fn heavy_hitters_from_counts(
    telescope: TelescopeId,
    total: u64,
    counts: impl IntoIterator<Item = (SourceKey, u64)>,
    threshold: f64,
) -> Vec<HeavyHitter> {
    if total == 0 {
        return Vec::new();
    }
    let mut out: Vec<HeavyHitter> = counts
        .into_iter()
        .filter(|&(_, c)| c as f64 / total as f64 > threshold)
        .map(|(source, packets)| HeavyHitter {
            telescope,
            source,
            packets,
            share: packets as f64 / total as f64,
        })
        .collect();
    out.sort_by_key(|h| std::cmp::Reverse(h.packets));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use sixscope_telescope::{CapturedPacket, Protocol, TelescopeConfig};
    use sixscope_types::SimTime;

    fn capture(counts: &[(&str, u64)]) -> Capture {
        let mut cap = Capture::new(TelescopeConfig::t3("2001:db8:3::/48".parse().unwrap()));
        let mut ts = 0;
        for (src, n) in counts {
            for _ in 0..*n {
                cap.push(CapturedPacket {
                    ts: SimTime::from_secs(ts),
                    src: src.parse().unwrap(),
                    dst: "2001:db8:3::1".parse().unwrap(),
                    protocol: Protocol::Icmpv6,
                    src_port: None,
                    dst_port: None,
                    payload: Bytes::new(),
                });
                ts += 1;
            }
        }
        cap
    }

    #[test]
    fn dominant_source_is_detected() {
        let cap = capture(&[("2001:db8:f00::1", 80), ("2001:db8:f00::2", 20)]);
        let hh = heavy_hitters(&cap);
        assert_eq!(hh.len(), 2, "both exceed 10%");
        assert_eq!(hh[0].packets, 80);
        assert!((hh[0].share - 0.8).abs() < 1e-9);
        assert_eq!(hh[0].telescope, TelescopeId::T3);
    }

    #[test]
    fn threshold_is_strict_greater_than() {
        // 10 sources with exactly 10% each: none qualifies.
        let sources: Vec<(String, u64)> = (0..10)
            .map(|i| (format!("2001:db8:f00::{i:x}"), 10u64))
            .collect();
        let refs: Vec<(&str, u64)> = sources.iter().map(|(s, n)| (s.as_str(), *n)).collect();
        let cap = capture(&refs);
        assert!(heavy_hitters(&cap).is_empty());
    }

    #[test]
    fn empty_capture_has_no_hitters() {
        let cap = capture(&[]);
        assert!(heavy_hitters(&cap).is_empty());
    }

    #[test]
    fn results_sorted_by_volume() {
        let cap = capture(&[
            ("2001:db8:f00::1", 30),
            ("2001:db8:f00::2", 50),
            ("2001:db8:f00::3", 20),
        ]);
        let hh = heavy_hitters(&cap);
        assert!(hh.windows(2).all(|w| w[0].packets >= w[1].packets));
        assert_eq!(hh[0].packets, 50);
    }

    #[test]
    fn custom_threshold() {
        let cap = capture(&[("2001:db8:f00::1", 60), ("2001:db8:f00::2", 40)]);
        assert_eq!(heavy_hitters_with_threshold(&cap, 0.5).len(), 1);
        assert_eq!(heavy_hitters_with_threshold(&cap, 0.3).len(), 2);
    }
}
