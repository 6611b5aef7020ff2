//! The three-axis scanner taxonomy of §5.
//!
//! * **Temporal behavior** (§5.1): one-off / periodic / intermittent, with
//!   period detection by autocorrelation,
//! * **Network selection** (§5.2): single-prefix / size-independent /
//!   size-dependent / inconsistent, evaluated per announcement cycle over
//!   the set of prefixes announced in T1 (DBSCAN groups per-prefix session
//!   counts),
//! * **Address selection** (§5.3): structured / random / unknown per scan
//!   session, using the RFC 7707 classifier and the NIST frequency test
//!   (sessions of ≥ 100 packets, α = 0.01).

use crate::addrtype;
use crate::autocorr::PeriodDetector;
use crate::dbscan::{cluster_count, dbscan_indexed};
use crate::nist::{BitSequence, NistTest};
use serde::{Deserialize, Serialize};
use sixscope_telescope::{Capture, ScanSession, SourceKey};
use sixscope_types::{FxBuildHasher, Ipv6Prefix, SimTime};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Temporal behavior classes (§5.1, Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TemporalClass {
    /// A single scan session over the whole observation.
    OneOff,
    /// Recurrent with a detectable stable period.
    Periodic,
    /// Recurrent without a detectable period.
    Intermittent,
}

impl TemporalClass {
    /// Table-6 row order.
    pub const ALL: [TemporalClass; 3] = [
        TemporalClass::OneOff,
        TemporalClass::Intermittent,
        TemporalClass::Periodic,
    ];
}

impl fmt::Display for TemporalClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TemporalClass::OneOff => "One-off",
            TemporalClass::Periodic => "Periodic",
            TemporalClass::Intermittent => "Intermittent",
        };
        f.write_str(s)
    }
}

/// Network-selection classes (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NetworkSelection {
    /// Exactly one announced prefix probed per announcement period.
    SinglePrefix,
    /// All announced prefixes hit with roughly equal session counts.
    SizeIndependent,
    /// Session counts scale with prefix size.
    SizeDependent,
    /// Behavior changes between announcement periods.
    Inconsistent,
}

impl fmt::Display for NetworkSelection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NetworkSelection::SinglePrefix => "Single-prefix scanning",
            NetworkSelection::SizeIndependent => "Network-size independent",
            NetworkSelection::SizeDependent => "Network-size dependent",
            NetworkSelection::Inconsistent => "Inconsistent behavior",
        };
        f.write_str(s)
    }
}

/// Address-selection classes (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AddrSelection {
    /// Detectable pattern or strong tendency toward known structures.
    Structured,
    /// Statistically random target generation (NIST frequency, p ≥ 0.01).
    Random,
    /// Neither detectable structure nor confirmed randomness.
    Unknown,
}

impl fmt::Display for AddrSelection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AddrSelection::Structured => "structured",
            AddrSelection::Random => "random",
            AddrSelection::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

/// A classified scanner (one source at the chosen aggregation level).
#[derive(Debug, Clone)]
pub struct ScannerProfile {
    /// The scanner's source key.
    pub source: SourceKey,
    /// Temporal class across the observation.
    pub temporal: TemporalClass,
    /// Indices into the session list this profile was built from.
    pub session_indices: Vec<usize>,
    /// Total packets across all sessions.
    pub packets: u64,
}

/// Classifies temporal behavior from session start times.
pub fn temporal_class(starts: &[SimTime], detector: &PeriodDetector) -> TemporalClass {
    match starts.len() {
        0 | 1 => TemporalClass::OneOff,
        2 => TemporalClass::Intermittent, // periodic requires > 2 appearances
        _ => {
            if detector.detect(starts).is_some() {
                TemporalClass::Periodic
            } else {
                TemporalClass::Intermittent
            }
        }
    }
}

/// Groups sessions by source and classifies each scanner's temporal
/// behavior — a one-shot [`ScannerProfiler`].
pub fn profile_scanners(sessions: &[ScanSession]) -> Vec<ScannerProfile> {
    ScannerProfiler::default().profile(sessions)
}

/// Scanner profiling that remembers its classifications across calls over
/// a growing session list.
///
/// The input must be *append-only* between calls: new sessions are only
/// ever appended, and an existing session may gain packets but never
/// changes its source or start. That is exactly how an incremental
/// sessionizer's session list evolves. A source's temporal class is a pure
/// function of its session starts, so under that contract an unchanged
/// session count means unchanged input: each call reclassifies only the
/// sources whose count changed, and recomputes the rest of the profile
/// (indices, packet totals) in one pass over the sessions.
///
/// Profiling is serial: period detection costs a few microseconds per
/// source, less than a worker thread's start. Grouping uses a `BTreeMap`,
/// so the output is in source order.
#[derive(Debug, Clone, Default)]
pub struct ScannerProfiler {
    /// Per source: the session count its class was computed from, and the
    /// class.
    memo: HashMap<SourceKey, (usize, TemporalClass), FxBuildHasher>,
}

impl ScannerProfiler {
    /// Profiles `sessions`, which must extend the list passed to the
    /// previous call (see the type docs).
    pub fn profile(&mut self, sessions: &[ScanSession]) -> Vec<ScannerProfile> {
        let mut by_source: BTreeMap<SourceKey, Vec<usize>> = BTreeMap::new();
        for (i, s) in sessions.iter().enumerate() {
            by_source.entry(s.source).or_default().push(i);
        }
        let detector = PeriodDetector::default();
        by_source
            .into_iter()
            .map(|(source, session_indices)| {
                let temporal = match self.memo.get(&source) {
                    Some(&(count, class)) if count == session_indices.len() => class,
                    _ => {
                        let starts: Vec<SimTime> =
                            session_indices.iter().map(|&i| sessions[i].start).collect();
                        let class = temporal_class(&starts, &detector);
                        self.memo.insert(source, (session_indices.len(), class));
                        class
                    }
                };
                ScannerProfile {
                    source,
                    temporal,
                    packets: session_indices
                        .iter()
                        .map(|&i| sessions[i].packet_count() as u64)
                        .sum(),
                    session_indices,
                }
            })
            .collect()
    }
}

/// The minimum session size for statistical randomness testing (paper: 100).
pub const NIST_MIN_PACKETS: usize = 100;

/// Share of structured-typed targets above which a session counts as
/// structured outright.
const STRUCTURED_SHARE: f64 = 0.5;

/// Fraction of non-decreasing consecutive target pairs above which the
/// session counts as an iterative prefix traversal (structured).
const MONOTONE_SHARE: f64 = 0.9;

/// Classifies the address-selection strategy of one session (§5.3).
///
/// A session is structured when at least half its targets have a
/// structured RFC 7707 type, or when at least 90 % of its consecutive
/// target pairs are non-decreasing (an iterative traversal). Otherwise a
/// session of at least [`NIST_MIN_PACKETS`] targets is random when the 64
/// IID bits of its targets pass the NIST frequency test. Every other
/// session is unknown.
pub fn addr_selection(session: &ScanSession, capture: &Capture) -> AddrSelection {
    let targets: Vec<u128> = session
        .packets(capture)
        .map(|p| u128::from(p.dst))
        .collect();
    if targets.is_empty() {
        return AddrSelection::Unknown;
    }
    // Structure test 1: RFC 7707 address types.
    let structured = targets
        .iter()
        .filter(|&&t| addrtype::classify(t.into()).is_structured())
        .count();
    if structured as f64 / targets.len() as f64 >= STRUCTURED_SHARE {
        return AddrSelection::Structured;
    }
    // Structure test 2: iterative traversal (mostly sorted targets).
    if targets.len() >= 3 {
        let non_decreasing = targets.windows(2).filter(|w| w[0] <= w[1]).count();
        if non_decreasing as f64 / (targets.len() - 1) as f64 >= MONOTONE_SHARE {
            return AddrSelection::Structured;
        }
    }
    // Randomness test: NIST frequency over the IID bits.
    if targets.len() >= NIST_MIN_PACKETS {
        let mut iid_bits = BitSequence::new();
        for t in &targets {
            iid_bits.push_bits(*t & 0xffff_ffff_ffff_ffff, 64);
        }
        if iid_bits.run(NistTest::Frequency).passes() {
            return AddrSelection::Random;
        }
        // A scanner may iterate subnets structurally but fill IIDs randomly
        // — the paper still calls the *session* random only if the IID part
        // passes, so a failing IID test falls through.
    }
    AddrSelection::Unknown
}

/// Per-prefix session counts of one scanner during one announcement cycle.
#[derive(Debug, Clone)]
pub struct CycleCounts {
    /// The prefixes announced during the cycle.
    pub announced: Vec<Ipv6Prefix>,
    /// Session count per announced prefix (same order).
    pub sessions: Vec<u64>,
}

/// The default DBSCAN neighborhood for size-independence testing, as a
/// fraction of the mean per-prefix session count. The ε ablation bench
/// sweeps this factor.
pub const NETSEL_EPS_FACTOR: f64 = 0.5;

impl CycleCounts {
    /// Classifies the scanner's behavior within this single cycle; `None`
    /// when the scanner was absent.
    pub fn classify(&self) -> Option<NetworkSelection> {
        self.classify_with(NETSEL_EPS_FACTOR)
    }

    /// Classification with an explicit DBSCAN ε factor (for ablations).
    pub fn classify_with(&self, eps_factor: f64) -> Option<NetworkSelection> {
        assert_eq!(self.announced.len(), self.sessions.len());
        let hit: Vec<usize> = (0..self.sessions.len())
            .filter(|&i| self.sessions[i] > 0)
            .collect();
        if hit.is_empty() {
            return None;
        }
        if hit.len() == 1 {
            return Some(NetworkSelection::SinglePrefix);
        }
        // Size-independence: DBSCAN over the per-prefix counts must yield a
        // single dense cluster containing every announced prefix.
        let counts: Vec<f64> = self.sessions.iter().map(|&c| c as f64).collect();
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        let eps = (mean * eps_factor).max(1.0);
        // 1-D counts with |a - b| distance: the identity projection makes
        // the sorted-projection index exact.
        let assignment = dbscan_indexed(&counts, eps, 2, |&c| c, |a, b| (a - b).abs());
        let all_hit = hit.len() == self.announced.len();
        if all_hit
            && cluster_count(&assignment) == 1
            && assignment.iter().all(|a| a.cluster().is_some())
        {
            return Some(NetworkSelection::SizeIndependent);
        }
        // Size-dependence: counts correlate with prefix size (more
        // addresses → more sessions).
        let sizes: Vec<f64> = self
            .announced
            .iter()
            .map(|p| (128 - p.len()) as f64) // log2 of address count
            .collect();
        if pearson(&sizes, &counts) >= 0.7 {
            return Some(NetworkSelection::SizeDependent);
        }
        // Within-cycle behavior matches none of the pure classes.
        Some(NetworkSelection::Inconsistent)
    }
}

/// Combines per-cycle classifications into the scanner's overall network
/// selection (§5.2: behavior changing across periods is inconsistent).
pub fn network_selection(cycles: &[CycleCounts]) -> Option<NetworkSelection> {
    let mut per_cycle: Vec<NetworkSelection> = cycles.iter().filter_map(|c| c.classify()).collect();
    per_cycle.dedup();
    match per_cycle.as_slice() {
        [] => None,
        [single] => Some(*single),
        _ => Some(NetworkSelection::Inconsistent),
    }
}

/// Pearson correlation coefficient (0 when degenerate).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use sixscope_telescope::{AggLevel, CapturedPacket, Protocol, Sessionizer, TelescopeConfig};
    use sixscope_types::{SimDuration, Xoshiro256pp};
    use std::net::Ipv6Addr;

    fn capture_with_targets(targets: &[Ipv6Addr]) -> (Capture, Vec<ScanSession>) {
        let mut cap = Capture::new(TelescopeConfig::t1("2001:db8::/32".parse().unwrap()));
        for (i, &dst) in targets.iter().enumerate() {
            cap.push(CapturedPacket {
                ts: SimTime::from_secs(i as u64),
                src: "2001:db8:f00::1".parse().unwrap(),
                dst,
                protocol: Protocol::Icmpv6,
                src_port: None,
                dst_port: None,
                payload: Bytes::new(),
            });
        }
        let sessions = Sessionizer::paper(AggLevel::Addr128).sessionize(&cap);
        (cap, sessions)
    }

    #[test]
    fn temporal_single_session_is_one_off() {
        let d = PeriodDetector::default();
        assert_eq!(temporal_class(&[SimTime::EPOCH], &d), TemporalClass::OneOff);
        assert_eq!(temporal_class(&[], &d), TemporalClass::OneOff);
    }

    #[test]
    fn temporal_two_sessions_is_intermittent() {
        let d = PeriodDetector::default();
        let starts = [SimTime::EPOCH, SimTime::EPOCH + SimDuration::days(1)];
        assert_eq!(temporal_class(&starts, &d), TemporalClass::Intermittent);
    }

    #[test]
    fn temporal_daily_scanner_is_periodic() {
        let d = PeriodDetector::default();
        let starts: Vec<SimTime> = (0..15)
            .map(|i| SimTime::EPOCH + SimDuration::days(i))
            .collect();
        assert_eq!(temporal_class(&starts, &d), TemporalClass::Periodic);
    }

    #[test]
    fn temporal_irregular_scanner_is_intermittent() {
        let d = PeriodDetector::default();
        let hours = [0u64, 5, 100, 101, 450, 700, 701, 1500];
        let starts: Vec<SimTime> = hours
            .iter()
            .map(|&h| SimTime::EPOCH + SimDuration::hours(h))
            .collect();
        assert_eq!(temporal_class(&starts, &d), TemporalClass::Intermittent);
    }

    #[test]
    fn addr_selection_low_byte_is_structured() {
        let targets: Vec<Ipv6Addr> = (1..50u32)
            .map(|i| format!("2001:db8:{:x}::1", i).parse().unwrap())
            .collect();
        let (cap, sessions) = capture_with_targets(&targets);
        assert_eq!(
            addr_selection(&sessions[0], &cap),
            AddrSelection::Structured
        );
    }

    #[test]
    fn addr_selection_random_iids_pass_nist() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let base: u128 = u128::from("2001:db8::".parse::<Ipv6Addr>().unwrap());
        let targets: Vec<Ipv6Addr> = (0..150)
            .map(|_| Ipv6Addr::from(base | rng.next_u64() as u128))
            .collect();
        let (cap, sessions) = capture_with_targets(&targets);
        assert_eq!(addr_selection(&sessions[0], &cap), AddrSelection::Random);
    }

    #[test]
    fn addr_selection_small_unstructured_session_is_unknown() {
        // 10 targets, none structured, too few for NIST.
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let base: u128 = u128::from("2001:db8::".parse::<Ipv6Addr>().unwrap());
        let targets: Vec<Ipv6Addr> = (0..10)
            .map(|_| Ipv6Addr::from(base | rng.next_u64() as u128))
            .collect();
        let (cap, sessions) = capture_with_targets(&targets);
        // Random draws are unsorted with overwhelming probability.
        assert_eq!(addr_selection(&sessions[0], &cap), AddrSelection::Unknown);
    }

    #[test]
    fn addr_selection_sorted_traversal_is_structured() {
        // Random-looking IIDs but in sorted order: an iterative traversal.
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let base: u128 = u128::from("2001:db8::".parse::<Ipv6Addr>().unwrap());
        let mut iids: Vec<u64> = (0..50).map(|_| rng.next_u64()).collect();
        iids.sort_unstable();
        let targets: Vec<Ipv6Addr> = iids
            .into_iter()
            .map(|iid| Ipv6Addr::from(base | iid as u128))
            .collect();
        let (cap, sessions) = capture_with_targets(&targets);
        assert_eq!(
            addr_selection(&sessions[0], &cap),
            AddrSelection::Structured
        );
    }

    #[test]
    fn profile_scanners_groups_and_counts() {
        let mut targets = Vec::new();
        for _ in 0..5 {
            targets.push("2001:db8::1".parse().unwrap());
        }
        let (_, sessions) = capture_with_targets(&targets);
        let profiles = profile_scanners(&sessions);
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].temporal, TemporalClass::OneOff);
        assert_eq!(profiles[0].packets, 5);
    }

    fn cycle(announced: &[&str], sessions: &[u64]) -> CycleCounts {
        CycleCounts {
            announced: announced.iter().map(|s| s.parse().unwrap()).collect(),
            sessions: sessions.to_vec(),
        }
    }

    #[test]
    fn netsel_single_prefix() {
        let c = cycle(&["2001:db8::/33", "2001:db8:8000::/33"], &[3, 0]);
        assert_eq!(c.classify(), Some(NetworkSelection::SinglePrefix));
    }

    #[test]
    fn netsel_size_independent() {
        let c = cycle(
            &["2001:db8::/33", "2001:db8:8000::/34", "2001:db8:c000::/34"],
            &[5, 5, 6],
        );
        assert_eq!(c.classify(), Some(NetworkSelection::SizeIndependent));
    }

    #[test]
    fn netsel_size_dependent() {
        // Counts proportional to address count: /33 twice the /34s.
        let c = cycle(
            &["2001:db8::/33", "2001:db8:8000::/34", "2001:db8:c000::/34"],
            &[20, 10, 11],
        );
        assert_eq!(c.classify(), Some(NetworkSelection::SizeDependent));
    }

    #[test]
    fn netsel_absent_scanner_is_none() {
        let c = cycle(&["2001:db8::/33"], &[0]);
        assert_eq!(c.classify(), None);
    }

    #[test]
    fn netsel_inconsistent_across_cycles() {
        let c1 = cycle(&["2001:db8::/33", "2001:db8:8000::/33"], &[3, 0]);
        let c2 = cycle(
            &["2001:db8::/33", "2001:db8:8000::/34", "2001:db8:c000::/34"],
            &[4, 4, 4],
        );
        assert_eq!(
            network_selection(&[c1, c2]),
            Some(NetworkSelection::Inconsistent)
        );
    }

    #[test]
    fn netsel_consistent_across_cycles() {
        let c1 = cycle(&["2001:db8::/33", "2001:db8:8000::/33"], &[4, 4]);
        let c2 = cycle(
            &["2001:db8::/33", "2001:db8:8000::/34", "2001:db8:c000::/34"],
            &[5, 4, 5],
        );
        assert_eq!(
            network_selection(&[c1, c2]),
            Some(NetworkSelection::SizeIndependent)
        );
    }

    #[test]
    fn netsel_no_cycles_is_none() {
        assert_eq!(network_selection(&[]), None);
        let absent = cycle(&["2001:db8::/33"], &[0]);
        assert_eq!(network_selection(&[absent]), None);
    }

    #[test]
    fn pearson_basics() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }
}
