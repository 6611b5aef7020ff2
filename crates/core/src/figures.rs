//! Regenerates the data series behind every figure of the paper.
//!
//! Each function returns the plotted numbers (series, matrices, ranks) as
//! plain structs — the same values the paper's plotting scripts consumed.

use crate::corpus::Analyzed;
use crate::index::{ProfiledWindow, NO_ID};
use sixscope_analysis::classify::{AddrSelection, TemporalClass};
use sixscope_analysis::intersect::{TelescopeSet, UpSet};
use sixscope_analysis::nist::{BitSequence, NistOutcome, NistTest, SpectralCount, Twiddles};
use sixscope_analysis::stats::bucket_counts;
use sixscope_telescope::{ScanSession, SourceKey, TelescopeId};
use sixscope_types::{map_indexed, nibble, num_threads, Ipv6Prefix, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Fig. 3: number of new /64 source prefixes first seen per week during
/// the initial observation period.
pub fn fig3(a: &Analyzed) -> Vec<(u64, u64)> {
    let boundary = a.split_start();
    let idx = &a.index;
    let mut per_week: BTreeMap<u64, u64> = BTreeMap::new();
    // Iterate all telescopes in time order (/64 ids order like their keys,
    // so the sort tie-break matches the key-based one).
    let mut events: Vec<(SimTime, u32)> = Vec::new();
    for id in TelescopeId::ALL {
        let col = idx.telescope(id);
        for i in col.range_until(boundary) {
            events.push((col.ts[i], col.src64[i]));
        }
    }
    events.sort();
    let mut seen = vec![false; idx.sources.len64()];
    for (ts, key) in events {
        if !seen[key as usize] {
            seen[key as usize] = true;
            *per_week.entry(ts.week()).or_default() += 1;
        }
    }
    per_week.into_iter().collect()
}

/// One curve of Fig. 4 (cumulative, normalized to its final value).
#[derive(Debug, Clone, PartialEq)]
pub struct GrowthCurve {
    /// Curve label.
    pub label: &'static str,
    /// `(time, relative value in [0,1])` points, weekly resolution.
    pub points: Vec<(SimTime, f64)>,
}

/// Fig. 4: relative growth of packets, ASes, sources (/128, /64) and
/// sessions (/128, /64) over the full period, aggregated over telescopes.
pub fn fig4(a: &Analyzed) -> Vec<GrowthCurve> {
    let week = SimDuration::weeks(1);
    let week_secs = week.as_secs();
    let mut curves = Vec::new();

    let idx = &a.index;
    // One fused pass per telescope: weekly packet counts plus the
    // first-seen week of every AS, /128 and /64 source. Walk order
    // (telescope order, arrival order within) decides which occurrence is
    // "first", exactly like the per-curve event vectors this replaces. An
    // AS's first packet always coincides with the first sighting of one of
    // its /128 sources (sources don't change AS), so the AS check only
    // runs on source first-sightings.
    const UNSEEN: u32 = u32::MAX;
    let mut per_week: BTreeMap<u64, u64> = BTreeMap::new();
    let mut first128 = vec![UNSEEN; idx.sources.len128()];
    let mut first64 = vec![UNSEEN; idx.sources.len64()];
    let mut as_first: BTreeMap<u32, u32> = BTreeMap::new();
    for id in TelescopeId::ALL {
        let col = idx.telescope(id);
        for i in 0..col.len() {
            *per_week.entry(col.ts[i].week()).or_default() += 1;
            let src = col.src128[i];
            if first128[src as usize] == UNSEEN {
                let bucket = (col.ts[i].as_secs() / week_secs) as u32;
                first128[src as usize] = bucket;
                let asn = idx.sources.asn(src);
                if asn != NO_ID {
                    as_first.entry(asn).or_insert(bucket);
                }
            }
            let s64 = col.src64[i];
            if first64[s64 as usize] == UNSEEN {
                first64[s64 as usize] = (col.ts[i].as_secs() / week_secs) as u32;
            }
        }
    }
    let mut cum = 0u64;
    let packet_pts: Vec<(SimTime, u64)> = per_week
        .into_iter()
        .map(|(w, n)| {
            cum += n;
            (SimTime::from_secs(w * week_secs), cum)
        })
        .collect();
    curves.push(normalize("packets", packet_pts));
    curves.push(normalize(
        "ASes",
        first_seen_curve(as_first.values().copied(), week_secs),
    ));
    curves.push(normalize(
        "sources /128",
        first_seen_curve(first128.into_iter(), week_secs),
    ));
    curves.push(normalize(
        "sources /64",
        first_seen_curve(first64.into_iter(), week_secs),
    ));

    // Sessions at both aggregation levels.
    for (label, sel) in [("sessions /128", true), ("sessions /64", false)] {
        let mut per_week: BTreeMap<u64, u64> = BTreeMap::new();
        for id in TelescopeId::ALL {
            let cols = if sel {
                idx.sessions128(id)
            } else {
                idx.sessions64(id)
            };
            for &start in &cols.start {
                *per_week.entry(start.week()).or_default() += 1;
            }
        }
        let mut cum = 0u64;
        let pts: Vec<(SimTime, u64)> = per_week
            .into_iter()
            .map(|(w, n)| {
                cum += n;
                (SimTime::from_secs(w * week.as_secs()), cum)
            })
            .collect();
        curves.push(normalize(label, pts));
    }
    curves
}

/// Cumulative count of items by first-seen week bucket (`u32::MAX` marks
/// never-seen entries): one point per bucket in which a new item appears,
/// at the bucket's start, holding the number of items seen so far.
fn first_seen_curve(firsts: impl Iterator<Item = u32>, week_secs: u64) -> Vec<(SimTime, u64)> {
    let mut per_bucket: BTreeMap<u64, u64> = BTreeMap::new();
    for b in firsts {
        if b != u32::MAX {
            *per_bucket.entry(b as u64).or_default() += 1;
        }
    }
    let mut total = 0u64;
    per_bucket
        .into_iter()
        .map(|(b, n)| {
            total += n;
            (SimTime::from_secs(b * week_secs), total)
        })
        .collect()
}

fn normalize(label: &'static str, pts: Vec<(SimTime, u64)>) -> GrowthCurve {
    let max = pts.last().map_or(1, |(_, v)| *v).max(1) as f64;
    GrowthCurve {
        label,
        points: pts.into_iter().map(|(t, v)| (t, v as f64 / max)).collect(),
    }
}

/// One bubble of Fig. 5 / Fig. 16(a): daily activity of a source.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityBubble {
    /// The source.
    pub source: SourceKey,
    /// The telescope.
    pub telescope: TelescopeId,
    /// Day index.
    pub day: u64,
    /// Packets on that day.
    pub packets: u64,
}

/// Fig. 5: daily activity of the heavy hitters across telescopes.
pub fn fig5(a: &Analyzed) -> Vec<ActivityBubble> {
    let mut member = vec![false; a.index.sources.len128()];
    for id in TelescopeId::ALL {
        for h in a.index.heavy(id) {
            let src = a.index.sources.id128(&h.source).expect("interned");
            member[src as usize] = true;
        }
    }
    daily_activity(a, &member)
}

/// Daily (source, telescope, day) packet counts for the sources whose id
/// is flagged in `member`. Id-keyed grouping iterates exactly like the
/// key-based map it replaces.
fn daily_activity(a: &Analyzed, member: &[bool]) -> Vec<ActivityBubble> {
    let mut counts: BTreeMap<(u32, TelescopeId, u64), u64> = BTreeMap::new();
    for id in TelescopeId::ALL {
        let col = a.index.telescope(id);
        for i in 0..col.len() {
            let src = col.src128[i];
            if member[src as usize] {
                *counts.entry((src, id, col.ts[i].day())).or_default() += 1;
            }
        }
    }
    counts
        .into_iter()
        .map(|((source, telescope, day), packets)| ActivityBubble {
            source: a.index.sources.key128(source),
            telescope,
            day,
            packets,
        })
        .collect()
}

/// Fig. 7(a): hourly packet counts per telescope during the initial period.
pub fn fig7a(a: &Analyzed) -> BTreeMap<TelescopeId, Vec<(u64, u64)>> {
    let boundary = a.split_start();
    TelescopeId::ALL
        .into_iter()
        .map(|id| {
            let col = a.index.telescope(id);
            let times = col.ts[col.range_until(boundary)].iter().copied();
            (id, bucket_counts(times, SimDuration::hours(1)))
        })
        .collect()
}

/// One cell of Fig. 7(b)/15: session count for a (temporal, address
/// selection) pair at one telescope.
#[derive(Debug, Clone, PartialEq)]
pub struct TaxonomyCell {
    /// The telescope.
    pub telescope: TelescopeId,
    /// Temporal class of the scanner.
    pub temporal: TemporalClass,
    /// Address selection of the session.
    pub addr_selection: AddrSelection,
    /// Number of sessions in the cell.
    pub sessions: u64,
}

/// Fig. 7(b): taxonomy classification of all telescopes, initial period.
pub fn fig7b(a: &Analyzed) -> Vec<TaxonomyCell> {
    let mut cells: BTreeMap<(TelescopeId, TemporalClass, AddrSelection), u64> = BTreeMap::new();
    for id in TelescopeId::ALL {
        window_cells(a, id, a.index.initial(id), &mut cells);
    }
    collect_cells(cells)
}

/// Fig. 15: taxonomy classification of T1 during the split period.
pub fn fig15(a: &Analyzed) -> Vec<TaxonomyCell> {
    let mut cells: BTreeMap<(TelescopeId, TemporalClass, AddrSelection), u64> = BTreeMap::new();
    window_cells(a, TelescopeId::T1, a.index.split_bounded(), &mut cells);
    collect_cells(cells)
}

/// Accumulates one profiled window's (temporal, address selection) cells
/// from the cached per-session address selections.
fn window_cells(
    a: &Analyzed,
    id: TelescopeId,
    window: &ProfiledWindow,
    cells: &mut BTreeMap<(TelescopeId, TemporalClass, AddrSelection), u64>,
) {
    let sel = a.index.addr_sel(id);
    for profile in &window.profiles {
        for &idx in &profile.session_indices {
            let sel = sel[window.range.start + idx];
            *cells.entry((id, profile.temporal, sel)).or_default() += 1;
        }
    }
}

fn collect_cells(
    cells: BTreeMap<(TelescopeId, TemporalClass, AddrSelection), u64>,
) -> Vec<TaxonomyCell> {
    cells
        .into_iter()
        .map(|((telescope, temporal, sel), sessions)| TaxonomyCell {
            telescope,
            temporal,
            addr_selection: sel,
            sessions,
        })
        .collect()
}

/// Fig. 8: UpSet intersections of (a) origin ASes and (b) /128 sources
/// across the four telescopes, over the initial period.
pub fn fig8(a: &Analyzed) -> (UpSet, UpSet) {
    let boundary = a.split_start();
    let idx = &a.index;
    let mut as_obs: BTreeMap<u32, TelescopeSet> = BTreeMap::new();
    let mut src_obs: Vec<TelescopeSet> = vec![TelescopeSet::default(); idx.sources.len128()];
    for id in TelescopeId::ALL {
        let col = idx.telescope(id);
        for i in col.range_until(boundary) {
            let src = col.src128[i];
            let asn = idx.sources.asn(src);
            if asn != NO_ID {
                as_obs.entry(asn).or_default().insert(id);
            }
            src_obs[src as usize].insert(id);
        }
    }
    (UpSet::from_observations(&as_obs), UpSet::from_sets(src_obs))
}

/// Fig. 9: weekly scan sessions per telescope (full period).
pub fn fig9(a: &Analyzed) -> BTreeMap<TelescopeId, Vec<(u64, u64)>> {
    TelescopeId::ALL
        .into_iter()
        .map(|id| {
            let times = a.index.sessions128(id).start.iter().copied();
            (id, bucket_counts(times, SimDuration::weeks(1)))
        })
        .collect()
}

/// One curve of Fig. 10: cumulative sessions hitting a most-specific prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixGrowth {
    /// The prefix.
    pub prefix: Ipv6Prefix,
    /// `(week, cumulative sessions)` from the prefix's first announcement.
    pub points: Vec<(u64, u64)>,
}

/// Fig. 10: cumulative number of scan sessions per target prefix of the
/// T1 experiment (most-specific attribution).
pub fn fig10(a: &Analyzed) -> Vec<PrefixGrowth> {
    let schedule = &a.result.schedule;
    let capture = a.capture(TelescopeId::T1);
    // All prefixes that ever appear (companions of all levels + final pair).
    let mut prefixes: Vec<Ipv6Prefix> = schedule.announced_set(schedule.cycles);
    prefixes.push(a.result.layout.t1);
    let mut per_prefix_week: BTreeMap<Ipv6Prefix, BTreeMap<u64, u64>> = BTreeMap::new();
    for s in a.sessions128(TelescopeId::T1) {
        // Attribute the session to the most specific prefix containing its
        // first target.
        let Some(first) = s.packets(capture).next() else {
            continue;
        };
        let best = prefixes
            .iter()
            .filter(|p| p.contains(first.dst))
            .max_by_key(|p| p.len());
        if let Some(prefix) = best {
            *per_prefix_week
                .entry(*prefix)
                .or_default()
                .entry(s.start.week())
                .or_default() += 1;
        }
    }
    per_prefix_week
        .into_iter()
        .map(|(prefix, weeks)| {
            let mut cum = 0;
            PrefixGrowth {
                prefix,
                points: weeks
                    .into_iter()
                    .map(|(w, n)| {
                        cum += n;
                        (w, cum)
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Fig. 11: bi-weekly sessions and /128 sources, T1 vs. the aggregated
/// other telescopes, over the split period.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BiweeklySeries {
    /// `(bi-week index, sessions, distinct sources)` for T1.
    pub t1: Vec<(u64, u64, u64)>,
    /// Same for T2–T4 combined.
    pub others: Vec<(u64, u64, u64)>,
}

/// Computes Fig. 11.
pub fn fig11(a: &Analyzed) -> BiweeklySeries {
    let two_weeks = SimDuration::weeks(2).as_secs();
    let mut out = BiweeklySeries::default();
    for (ids, slot) in [
        (&[TelescopeId::T1][..], 0),
        (&[TelescopeId::T2, TelescopeId::T3, TelescopeId::T4][..], 1),
    ] {
        let mut sessions: BTreeMap<u64, u64> = BTreeMap::new();
        let mut sources: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
        for &id in ids {
            let cols = a.index.sessions128(id);
            for i in 0..cols.len() {
                let bucket = cols.start[i].as_secs() / two_weeks;
                *sessions.entry(bucket).or_default() += 1;
                sources.entry(bucket).or_default().insert(cols.source[i]);
            }
        }
        let series: Vec<(u64, u64, u64)> = sessions
            .iter()
            .map(|(&b, &n)| (b, n, sources.get(&b).map_or(0, |s| s.len() as u64)))
            .collect();
        if slot == 0 {
            out.t1 = series;
        } else {
            out.others = series;
        }
    }
    out
}

/// A nibble matrix of one session (Fig. 12/13): per target, the 32 hex
/// digits of the destination address, in a chosen order.
#[derive(Debug, Clone, PartialEq)]
pub struct NibbleMatrix {
    /// The session's source.
    pub source: SourceKey,
    /// One row of 32 nibbles per target.
    pub rows: Vec<[u8; 32]>,
}

/// Fig. 12: nibble matrices of (a) the largest structured and (b) the
/// largest random session at T1, targets in arrival order.
pub fn fig12(a: &Analyzed) -> (Option<NibbleMatrix>, Option<NibbleMatrix>) {
    let cols = a.index.sessions128(TelescopeId::T1);
    let sel = a.index.addr_sel(TelescopeId::T1);
    let mut best_structured: Option<usize> = None;
    let mut best_random: Option<usize> = None;
    for (i, &selection) in sel.iter().enumerate() {
        if cols.packets[i] < 100 {
            continue;
        }
        match selection {
            AddrSelection::Structured => {
                if best_structured.is_none_or(|b| cols.packets[i] > cols.packets[b]) {
                    best_structured = Some(i);
                }
            }
            AddrSelection::Random => {
                if best_random.is_none_or(|b| cols.packets[i] > cols.packets[b]) {
                    best_random = Some(i);
                }
            }
            AddrSelection::Unknown => {}
        }
    }
    let matrix = |i: usize| matrix_of(&a.sessions128(TelescopeId::T1)[i], a);
    (best_structured.map(matrix), best_random.map(matrix))
}

fn matrix_of(s: &ScanSession, a: &Analyzed) -> NibbleMatrix {
    let capture = a.capture(TelescopeId::T1);
    NibbleMatrix {
        source: s.source,
        rows: s
            .packets(capture)
            .map(|p| {
                let bits = u128::from(p.dst);
                std::array::from_fn(|i| nibble(bits, i))
            })
            .collect(),
    }
}

/// Fig. 13: the structured matrix of Fig. 12(a) with rows sorted
/// lexicographically (numerically by address).
pub fn fig13(a: &Analyzed) -> Option<NibbleMatrix> {
    let (structured, _) = fig12(a);
    fig13_from(structured)
}

/// Fig. 13 from an already-computed Fig. 12(a) matrix — lets the report
/// layer reuse one `fig12` evaluation for both figures.
pub fn fig13_from(structured: Option<NibbleMatrix>) -> Option<NibbleMatrix> {
    structured.map(|mut m| {
        m.rows.sort();
        m
    })
}

/// Fig. 14: packets per temporal scanner class across the /48 subnets of
/// T1, subnets ranked by packet count per class.
pub fn fig14(a: &Analyzed) -> BTreeMap<TemporalClass, Vec<u64>> {
    let (sessions, profiles) = a.t1_split_profiles();
    let dst = &a.index.telescope(TelescopeId::T1).dst;
    let mut per_class_subnet: BTreeMap<TemporalClass, BTreeMap<u16, u64>> = BTreeMap::new();
    let t1 = a.result.layout.t1;
    for profile in profiles {
        let class_map = per_class_subnet.entry(profile.temporal).or_default();
        for &idx in &profile.session_indices {
            for &pi in &sessions[idx].packet_indices {
                let bits = dst[pi as usize];
                if t1.contains(std::net::Ipv6Addr::from(bits)) {
                    // The /48 subnet index: bits 32..48 of the address.
                    let sub = (bits >> 80) as u16;
                    *class_map.entry(sub).or_default() += 1;
                }
            }
        }
    }
    per_class_subnet
        .into_iter()
        .map(|(class, subs)| {
            let mut counts: Vec<u64> = subs.into_values().collect();
            counts.sort_unstable_by(|x, y| y.cmp(x));
            (class, counts)
        })
        .collect()
}

/// Fig. 16(a): daily activity of the /128 sources observed at *all four*
/// telescopes over the full period.
pub fn fig16a(a: &Analyzed) -> Vec<ActivityBubble> {
    let idx = &a.index;
    let mut obs: Vec<TelescopeSet> = vec![TelescopeSet::default(); idx.sources.len128()];
    for id in TelescopeId::ALL {
        for &src in &idx.telescope(id).src128 {
            obs[src as usize].insert(id);
        }
    }
    let member: Vec<bool> = obs.iter().map(|set| set.len() == 4).collect();
    daily_activity(a, &member)
}

/// Fig. 16(b): cumulative share of T1∩T2 sources first co-observed on the
/// same day vs. on different days.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapShares {
    /// Total overlapping /128 sources.
    pub total: u64,
    /// `(day, cumulative same-day count, cumulative different-day count)`.
    pub points: Vec<(u64, u64, u64)>,
}

/// Computes Fig. 16(b).
pub fn fig16b(a: &Analyzed) -> OverlapShares {
    let idx = &a.index;
    let days = |id: TelescopeId| -> Vec<BTreeSet<u64>> {
        let mut m: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); idx.sources.len128()];
        let col = idx.telescope(id);
        for i in 0..col.len() {
            m[col.src128[i] as usize].insert(col.ts[i].day());
        }
        m
    };
    let d1 = days(TelescopeId::T1);
    let d2 = days(TelescopeId::T2);
    // For each overlapping source (ascending id ≡ ascending key): the
    // first day it was seen at both, and whether any day is shared.
    let mut events: Vec<(u64, bool)> = Vec::new();
    for (i, days1) in d1.iter().enumerate() {
        if days1.is_empty() || d2[i].is_empty() {
            continue;
        }
        let days2 = &d2[i];
        let same_day = days1.intersection(days2).next().is_some();
        let first_both = (*days1.iter().next().unwrap()).max(*days2.iter().next().unwrap());
        events.push((first_both, same_day));
    }
    events.sort();
    let mut same = 0u64;
    let mut diff = 0u64;
    let points = events
        .iter()
        .map(|&(day, is_same)| {
            if is_same {
                same += 1;
            } else {
                diff += 1;
            }
            (day, same, diff)
        })
        .collect();
    OverlapShares {
        total: events.len() as u64,
        points,
    }
}

/// One bar group of Fig. 17: NIST pass/fail for one test, one address
/// part, one temporal class.
#[derive(Debug, Clone, PartialEq)]
pub struct NistFigureCell {
    /// The test.
    pub test: NistTest,
    /// `true` for the IID part, `false` for the subnet part.
    pub iid_part: bool,
    /// Temporal class of the session's scanner.
    pub temporal: TemporalClass,
    /// Sessions passing (p ≥ 0.01).
    pub pass: u64,
    /// Sessions failing.
    pub fail: u64,
    /// Sessions whose spectral bin count stayed undecided (neither pass
    /// nor fail; always 0 for the other tests).
    pub undecided: u64,
}

/// Fig. 17: NIST test outcomes for T1 sessions with ≥ 100 packets, testing
/// the subnet bits (32 bits after the /32) and the IID separately.
///
/// Every (session, address part) sequence is first assembled from the
/// destination column, put through the four word-level tests, and
/// transposed into its spectral columns (one job per sequence, longest
/// first; the packed bits are freed when the job ends). The spectral test
/// then runs as (sequence, class block) jobs ([`SpectralColumns`]), the
/// largest class transforms first, handed out one at a time by
/// [`map_indexed`]'s shared cursor, so both workers share the longest
/// sequence instead of one worker carrying it. Each job allocates its
/// class buffers and frees them when it ends; the workers share one
/// [`Twiddles`] set, freed when the figure is done. Cell counts and the
/// certified bin counts are sums over jobs, so they are identical at any
/// thread count and in any job order.
///
/// [`SpectralColumns`]: sixscope_analysis::nist::SpectralColumns
pub fn fig17(a: &Analyzed) -> Vec<NistFigureCell> {
    let (sessions, profiles) = a.t1_split_profiles();
    let dst = &a.index.telescope(TelescopeId::T1).dst;
    let mut seqs: Vec<(usize, bool, TemporalClass)> = profiles
        .iter()
        .flat_map(|p| {
            p.session_indices
                .iter()
                .filter(|&&idx| sessions[idx].packet_count() >= 100)
                .flat_map(move |&idx| [(idx, true, p.temporal), (idx, false, p.temporal)])
        })
        .collect();
    // 64 bits per packet for the IID, 32 for the subnet.
    let bits = |&(idx, is_iid, _): &(usize, bool, TemporalClass)| {
        sessions[idx].packet_count() * if is_iid { 64 } else { 32 }
    };
    seqs.sort_by_key(|seq| std::cmp::Reverse(bits(seq)));
    let threads = num_threads(None);
    let twiddles = Twiddles::new();
    let word_tests = [
        NistTest::Frequency,
        NistTest::Runs,
        NistTest::CusumForward,
        NistTest::CusumBackward,
    ];
    let prepared = map_indexed(threads, &seqs, |_, &(idx, is_iid, _)| {
        let mut seq = BitSequence::new();
        for &pi in &sessions[idx].packet_indices {
            let bits = dst[pi as usize];
            if is_iid {
                seq.push_bits(bits & u64::MAX as u128, 64);
            } else {
                // The 32 bits after the fixed /32.
                seq.push_bits((bits >> 64) & 0xffff_ffff, 32);
            }
        }
        let outcomes = word_tests.map(|test| seq.run_with(test, &twiddles));
        (outcomes, seq.spectral_columns())
    });
    let mut jobs: Vec<(usize, std::ops::Range<usize>)> = prepared
        .iter()
        .enumerate()
        .filter_map(|(i, (_, cols))| Some((i, cols.as_ref()?)))
        .flat_map(|(i, cols)| cols.class_blocks().map(move |block| (i, block)))
        .collect();
    // Largest class transforms first: points times log2 of the class size.
    jobs.sort_by_key(|(i, block)| {
        let cols = prepared[*i].1.as_ref().expect("jobs have columns");
        let m = cols.class_size();
        std::cmp::Reverse(block.len() * m * m.ilog2() as usize)
    });
    let counts = map_indexed(threads, &jobs, |_, (i, block)| {
        let cols = prepared[*i].1.as_ref().expect("jobs have columns");
        cols.count(block.clone(), &twiddles)
    });
    let mut spectral = vec![SpectralCount::default(); seqs.len()];
    for ((i, _), count) in jobs.iter().zip(counts) {
        spectral[*i] += count;
    }
    let mut cells: BTreeMap<(NistTest, bool, TemporalClass), [u64; 3]> = BTreeMap::new();
    for ((&(_, is_iid, temporal), (outcomes, cols)), count) in
        seqs.iter().zip(&prepared).zip(spectral)
    {
        let fft = NistOutcome {
            test: NistTest::Fft,
            p_value: cols.as_ref().map_or(0.0, |cols| cols.p_value(count)),
        };
        for outcome in outcomes.iter().chain([&fft]) {
            let cell = cells.entry((outcome.test, is_iid, temporal)).or_default();
            // [pass, fail, undecided]
            cell[if !outcome.decided() {
                2
            } else if outcome.passes() {
                0
            } else {
                1
            }] += 1;
        }
    }
    cells
        .into_iter()
        .map(
            |((test, iid_part, temporal), [pass, fail, undecided])| NistFigureCell {
                test,
                iid_part,
                temporal,
                pass,
                fail,
                undecided,
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Analyzed;
    use sixscope_sim::ScenarioConfig;
    use std::sync::OnceLock;

    fn analyzed() -> &'static Analyzed {
        static CELL: OnceLock<Analyzed> = OnceLock::new();
        CELL.get_or_init(|| {
            crate::Pipeline::simulate(ScenarioConfig::new(1234, 0.02))
                .run()
                .expect("simulated runs cannot fail")
        })
    }

    #[test]
    fn fig3_covers_baseline_weeks_only() {
        let series = fig3(analyzed());
        assert!(!series.is_empty());
        assert!(series.iter().all(|&(w, _)| w < 13));
        assert!(series.iter().map(|&(_, n)| n).sum::<u64>() > 10);
    }

    #[test]
    fn fig4_curves_are_normalized_and_monotone() {
        let curves = fig4(analyzed());
        assert_eq!(curves.len(), 6);
        for c in &curves {
            assert!(!c.points.is_empty(), "{} empty", c.label);
            assert!(c.points.windows(2).all(|w| w[0].1 <= w[1].1));
            let last = c.points.last().unwrap().1;
            assert!((last - 1.0).abs() < 1e-9, "{} ends at {last}", c.label);
        }
    }

    #[test]
    fn fig5_has_heavy_hitter_bubbles() {
        let bubbles = fig5(analyzed());
        assert!(!bubbles.is_empty());
        // Bubbles only for heavy sources, so packets should be substantial
        // somewhere.
        assert!(bubbles.iter().any(|b| b.packets > 100));
    }

    #[test]
    fn fig7a_t1_and_t2_dwarf_t3() {
        let series = fig7a(analyzed());
        let sum = |id| series[&id].iter().map(|&(_, n)| n).sum::<u64>();
        assert!(sum(TelescopeId::T1) > 20 * sum(TelescopeId::T3).max(1));
    }

    #[test]
    fn fig7b_structured_dominates() {
        let cells = fig7b(analyzed());
        let structured: u64 = cells
            .iter()
            .filter(|c| c.addr_selection == AddrSelection::Structured)
            .map(|c| c.sessions)
            .sum();
        let total: u64 = cells.iter().map(|c| c.sessions).sum();
        assert!(structured as f64 / total as f64 > 0.5);
    }

    #[test]
    fn fig8_majority_of_sources_are_exclusive() {
        let (as_upset, src_upset) = fig8(analyzed());
        assert!(as_upset.universe > 0);
        // ≈90% of /128 sources are seen at exactly one telescope.
        assert!(
            src_upset.exclusive_share() > 0.6,
            "exclusive share {}",
            src_upset.exclusive_share()
        );
    }

    #[test]
    fn fig9_t1_sessions_grow_after_split() {
        let series = fig9(analyzed());
        let t1 = &series[&TelescopeId::T1];
        let early: u64 = t1.iter().filter(|&&(w, _)| w < 13).map(|&(_, n)| n).sum();
        let late: u64 = t1.iter().filter(|&&(w, _)| w >= 13).map(|&(_, n)| n).sum();
        // Split period is longer *and* more intense.
        assert!(late > early);
    }

    #[test]
    fn fig10_more_specific_prefixes_gain_sessions() {
        let growth = fig10(analyzed());
        assert!(
            growth.len() > 3,
            "only {} prefixes saw sessions",
            growth.len()
        );
        // Some /48 eventually receives sessions.
        assert!(growth.iter().any(|g| g.prefix.len() >= 40));
    }

    #[test]
    fn fig11_t1_grows_others_stay_stable() {
        let series = fig11(analyzed());
        assert!(!series.t1.is_empty());
        assert!(!series.others.is_empty());
    }

    #[test]
    fn fig12_13_matrices_exist_and_sorting_works() {
        let (structured, random) = fig12(analyzed());
        let structured = structured.expect("a structured ≥100-packet session exists");
        assert!(structured.rows.len() >= 100);
        let sorted = fig13(analyzed()).unwrap();
        assert!(sorted.rows.windows(2).all(|w| w[0] <= w[1]));
        if let Some(random) = random {
            assert!(random.rows.len() >= 100);
        }
    }

    #[test]
    fn fig14_rank_curves_are_descending() {
        let curves = fig14(analyzed());
        assert!(!curves.is_empty());
        for counts in curves.values() {
            assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        }
    }

    #[test]
    fn fig15_t1_split_cells_nonempty() {
        let a = analyzed();
        let cells = fig15(a);
        assert!(!cells.is_empty());
        let total: u64 = cells.iter().map(|c| c.sessions).sum();
        let boundary = a.split_start();
        let split = a
            .sessions128(TelescopeId::T1)
            .iter()
            .filter(|s| s.start >= boundary);
        assert_eq!(total, split.count() as u64);
    }

    #[test]
    fn fig16b_overlap_declines_or_exists() {
        let overlap = fig16b(analyzed());
        assert!(overlap.total > 0, "no T1∩T2 source overlap");
        let (_, same, diff) = *overlap.points.last().unwrap();
        assert_eq!(same + diff, overlap.total);
    }

    #[test]
    fn fig17_subnet_fails_more_than_iid() {
        let cells = fig17(analyzed());
        assert!(!cells.is_empty());
        let pass_rate = |iid: bool| {
            let (p, f) = cells
                .iter()
                .filter(|c| c.iid_part == iid)
                .fold((0u64, 0u64), |(p, f), c| (p + c.pass, f + c.fail));
            p as f64 / (p + f).max(1) as f64
        };
        // Scanners structure subnets but randomize IIDs more often.
        assert!(
            pass_rate(true) >= pass_rate(false),
            "IID pass rate {} < subnet pass rate {}",
            pass_rate(true),
            pass_rate(false)
        );
    }
}
