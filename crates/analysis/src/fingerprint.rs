//! Scan-tool identification from payload fingerprints and reverse DNS (§5.4).
//!
//! Probes sent by public measurement tools carry tool-specific payloads;
//! the paper clusters payload byte representations with DBSCAN and matches
//! clusters against public tools, then labels sources via rDNS. The
//! signature bytes below are the "public knowledge" every operator has from
//! reading the tools' source code; the simulation's tool models emit the
//! same bytes, exactly as the real tools do.

use crate::dbscan::{dbscan_indexed, Assignment};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Canonical payload signatures of the public tools the paper identifies
/// (Table 7). Byte patterns are stand-ins with the same discriminative
/// power as the real tools' formats.
pub mod signatures {
    /// RIPE Atlas probe measurement payload prefix.
    pub const RIPE_ATLAS: &[u8] = b"RA-msm:";
    /// Yarrp6 probe magic (the tool encodes state in its payloads).
    pub const YARRP6: &[u8] = b"yrp6";
    /// Classic traceroute6 filler bytes (`@ABCDEF…`).
    pub const TRACEROUTE: &[u8] = b"@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_";
    /// Htrace6 probe magic.
    pub const HTRACE6: &[u8] = b"htr6";
    /// 6Seeks probe magic.
    pub const SIX_SEEKS: &[u8] = b"6SKS";
    /// 6Scan probe magic (region encoding follows).
    pub const SIX_SCAN: &[u8] = b"6SCN";
    /// CAIDA Ark / scamper probe magic.
    pub const CAIDA_ARK: &[u8] = b"scamper-ark";
}

/// The public tools of Table 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum KnownTool {
    /// RIPE Atlas probes (55% of T1's sources).
    RipeAtlasProbe,
    /// Yarrp6 topology scanner.
    Yarrp6,
    /// Classic traceroute6.
    Traceroute,
    /// Htrace6 (published Jan 2024, observed Dec 2023).
    Htrace6,
    /// 6Seeks.
    SixSeeks,
    /// 6Scan.
    SixScan,
    /// CAIDA Ark / scamper.
    CaidaArk,
}

impl KnownTool {
    /// Table-7 row order.
    pub const ALL: [KnownTool; 7] = [
        KnownTool::RipeAtlasProbe,
        KnownTool::Yarrp6,
        KnownTool::Traceroute,
        KnownTool::Htrace6,
        KnownTool::SixSeeks,
        KnownTool::SixScan,
        KnownTool::CaidaArk,
    ];

    /// The payload signature of the tool.
    pub fn signature(self) -> &'static [u8] {
        match self {
            KnownTool::RipeAtlasProbe => signatures::RIPE_ATLAS,
            KnownTool::Yarrp6 => signatures::YARRP6,
            KnownTool::Traceroute => signatures::TRACEROUTE,
            KnownTool::Htrace6 => signatures::HTRACE6,
            KnownTool::SixSeeks => signatures::SIX_SEEKS,
            KnownTool::SixScan => signatures::SIX_SCAN,
            KnownTool::CaidaArk => signatures::CAIDA_ARK,
        }
    }

    /// An rDNS suffix that also identifies the tool's operator, if one is
    /// publicly known.
    pub fn rdns_suffix(self) -> Option<&'static str> {
        match self {
            KnownTool::RipeAtlasProbe => Some(".probes.atlas.ripe.net"),
            KnownTool::CaidaArk => Some(".ark.caida.org"),
            _ => None,
        }
    }
}

impl fmt::Display for KnownTool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KnownTool::RipeAtlasProbe => "RIPEAtlasProbe",
            KnownTool::Yarrp6 => "Yarrp6",
            KnownTool::Traceroute => "Traceroute",
            KnownTool::Htrace6 => "Htrace6",
            KnownTool::SixSeeks => "6Seeks",
            KnownTool::SixScan => "6Scan",
            KnownTool::CaidaArk => "CAIDA Ark",
        };
        f.write_str(s)
    }
}

/// Outcome of identifying one payload / source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ToolMatch {
    /// A public tool was identified.
    Tool(KnownTool),
    /// No tool identified; payload is high-entropy random bytes.
    RandomBytes,
    /// No tool identified; payload empty or unrecognized.
    Unidentified,
}

impl fmt::Display for ToolMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToolMatch::Tool(t) => t.fmt(f),
            ToolMatch::RandomBytes => f.write_str("random-bytes"),
            ToolMatch::Unidentified => f.write_str("unidentified"),
        }
    }
}

/// Matches a payload (and optional rDNS name) against the tools' payload
/// signatures and rDNS suffixes only, in Table-7 row order: the first tool
/// whose signature starts the payload or whose suffix ends the name wins.
pub fn match_tool(payload: &[u8], rdns: Option<&str>) -> Option<KnownTool> {
    for tool in KnownTool::ALL {
        if !payload.is_empty() && payload.starts_with(tool.signature()) {
            return Some(tool);
        }
        if let (Some(name), Some(suffix)) = (rdns, tool.rdns_suffix()) {
            if name.ends_with(suffix) {
                return Some(tool);
            }
        }
    }
    None
}

/// Identifies a payload (and optional rDNS name) against the tool database:
/// [`match_tool`] first, then the payload's byte entropy.
pub fn identify(payload: &[u8], rdns: Option<&str>) -> ToolMatch {
    if let Some(tool) = match_tool(payload, rdns) {
        return ToolMatch::Tool(tool);
    }
    // Entropy is compared against the maximum achievable for the payload's
    // length (a 32-byte payload can reach at most log2(32)/8 normalized
    // entropy), so short random fillers are still recognized.
    let max_h = ((payload.len().min(256)) as f64).log2() / 8.0;
    if payload.len() >= 8 && byte_entropy(payload) > 0.75 * max_h {
        return ToolMatch::RandomBytes;
    }
    ToolMatch::Unidentified
}

/// Normalized byte entropy in `[0, 1]` (Shannon entropy / 8 bits).
pub fn byte_entropy(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut counts = [0usize; 256];
    for &b in data {
        counts[b as usize] += 1;
    }
    let n = data.len() as f64;
    let h: f64 = counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum();
    h / 8.0
}

/// Feature vector for payload clustering: normalized 16-bin byte histogram
/// plus a length feature — the "hex-byte representation" clustering of §5.4.
pub fn payload_features(payload: &[u8]) -> [f64; 17] {
    let mut f = [0.0f64; 17];
    if payload.is_empty() {
        return f;
    }
    for &b in payload {
        f[(b >> 4) as usize] += 1.0;
    }
    let n = payload.len() as f64;
    for v in f.iter_mut().take(16) {
        *v /= n;
    }
    // Length feature, log-compressed so big payloads don't dominate.
    f[16] = (n.ln() / 10.0).min(1.0);
    f
}

/// Clusters payloads by feature distance with DBSCAN — groups probes of the
/// same (possibly unknown) tool across sources.
pub fn cluster_payloads(payloads: &[&[u8]], eps: f64, min_pts: usize) -> Vec<Assignment> {
    let features: Vec<[f64; 17]> = payloads.iter().map(|p| payload_features(p)).collect();
    // Any single coordinate of a Euclidean feature vector is 1-Lipschitz;
    // the length feature spreads payloads of different sizes apart, which is
    // exactly what narrows the candidate window here.
    dbscan_indexed(
        &features,
        eps,
        min_pts,
        |f| f[16],
        |a, b| {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signatures_identify_their_tools() {
        for tool in KnownTool::ALL {
            let mut payload = tool.signature().to_vec();
            payload.extend_from_slice(b"-extra-state-1234");
            assert_eq!(identify(&payload, None), ToolMatch::Tool(tool));
        }
    }

    #[test]
    fn rdns_identifies_atlas_without_payload() {
        assert_eq!(
            identify(&[], Some("p1234.probes.atlas.ripe.net")),
            ToolMatch::Tool(KnownTool::RipeAtlasProbe)
        );
        assert_eq!(
            identify(&[], Some("host.example.org")),
            ToolMatch::Unidentified
        );
    }

    #[test]
    fn high_entropy_payload_is_random_bytes() {
        let payload: Vec<u8> = (0..128u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        assert_eq!(identify(&payload, None), ToolMatch::RandomBytes);
    }

    #[test]
    fn low_entropy_unknown_payload_is_unidentified() {
        assert_eq!(identify(b"aaaaaaaaaaaa", None), ToolMatch::Unidentified);
        assert_eq!(identify(&[], None), ToolMatch::Unidentified);
    }

    #[test]
    fn entropy_bounds() {
        assert_eq!(byte_entropy(&[]), 0.0);
        assert_eq!(byte_entropy(&[7; 100]), 0.0);
        let all: Vec<u8> = (0..=255).collect();
        assert!((byte_entropy(&all) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_groups_same_tool_payloads() {
        let yarrp1 = [signatures::YARRP6, b"-state-000001".as_slice()].concat();
        let yarrp2 = [signatures::YARRP6, b"-state-000002".as_slice()].concat();
        let yarrp3 = [signatures::YARRP6, b"-state-000099".as_slice()].concat();
        let atlas1 = [signatures::RIPE_ATLAS, b"1000123".as_slice()].concat();
        let atlas2 = [signatures::RIPE_ATLAS, b"1000124".as_slice()].concat();
        let payloads: Vec<&[u8]> = vec![&yarrp1, &yarrp2, &yarrp3, &atlas1, &atlas2];
        let out = cluster_payloads(&payloads, 0.12, 2);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[1], out[2]);
        assert_eq!(out[3], out[4]);
        assert_ne!(out[0], out[3]);
    }

    #[test]
    fn tool_display_matches_table7() {
        assert_eq!(KnownTool::RipeAtlasProbe.to_string(), "RIPEAtlasProbe");
        assert_eq!(KnownTool::SixScan.to_string(), "6Scan");
        assert_eq!(ToolMatch::RandomBytes.to_string(), "random-bytes");
    }

    #[test]
    fn signature_prefix_must_be_at_start() {
        let mut payload = b"prefix-".to_vec();
        payload.extend_from_slice(signatures::YARRP6);
        // Signature not at the start → not a match (yarrp never indents).
        assert_ne!(identify(&payload, None), ToolMatch::Tool(KnownTool::Yarrp6));
    }
}
