//! Aggregate statistics helpers for the figures: cumulative first-seen
//! curves (Fig. 4), time-bucket series (Figs. 7a, 9, 11), rank curves
//! (Fig. 14) and top-k tables (Table 4).

use sixscope_types::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::hash::Hash;

/// A cumulative "distinct items seen so far" curve: for each event
/// `(time, item)`, counts how many distinct items appeared up to each
/// bucket boundary. This is the machinery behind Fig. 4's relative-growth
/// curves.
pub fn cumulative_distinct<T: Eq + Hash + Clone>(
    events: impl IntoIterator<Item = (SimTime, T)>,
    bucket: SimDuration,
) -> Vec<(SimTime, u64)> {
    let mut firsts: BTreeMap<u64, u64> = BTreeMap::new(); // bucket -> new items
    let mut seen = std::collections::HashSet::new();
    for (ts, item) in events {
        if seen.insert(item) {
            *firsts
                .entry(ts.as_secs() / bucket.as_secs().max(1))
                .or_default() += 1;
        }
    }
    let mut out = Vec::with_capacity(firsts.len());
    let mut total = 0;
    for (b, n) in firsts {
        total += n;
        out.push((SimTime::from_secs(b * bucket.as_secs()), total));
    }
    out
}

/// Counts events per time bucket (hourly traffic of Fig. 7a, weekly
/// sessions of Fig. 9, …). Returns a dense series from the first to the
/// last non-empty bucket.
pub fn bucket_counts(
    times: impl IntoIterator<Item = SimTime>,
    bucket: SimDuration,
) -> Vec<(u64, u64)> {
    let width = bucket.as_secs().max(1);
    let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
    for t in times {
        *counts.entry(t.as_secs() / width).or_default() += 1;
    }
    let (Some(&lo), Some(&hi)) = (counts.keys().next(), counts.keys().next_back()) else {
        return Vec::new();
    };
    (lo..=hi)
        .map(|b| (b, counts.get(&b).copied().unwrap_or(0)))
        .collect()
}

/// Ranks values descending — Fig. 14's "subnets ranked by packets" curves.
pub fn rank_descending(mut values: Vec<u64>) -> Vec<u64> {
    values.sort_unstable_by(|a, b| b.cmp(a));
    values
}

/// Empirical CDF evaluation points `(value, P(X <= value))`.
pub fn ecdf(mut values: Vec<f64>) -> Vec<(f64, f64)> {
    if values.is_empty() {
        return Vec::new();
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in ecdf input"));
    let n = values.len() as f64;
    values
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n))
        .collect()
}

/// Percentage change from `before` to `after` (the paper's "+286%" style).
pub fn percent_change(before: f64, after: f64) -> f64 {
    if before == 0.0 {
        return if after == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (after - before) / before * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_distinct_counts_first_appearances() {
        let events = vec![
            (SimTime::from_secs(10), "a"),
            (SimTime::from_secs(20), "a"), // repeat: not counted
            (SimTime::from_secs(3700), "b"),
            (SimTime::from_secs(3800), "c"),
        ];
        let curve = cumulative_distinct(events, SimDuration::hours(1));
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[0], (SimTime::from_secs(0), 1));
        assert_eq!(curve[1], (SimTime::from_secs(3600), 3));
    }

    #[test]
    fn bucket_counts_fill_gaps() {
        let times = vec![
            SimTime::from_secs(0),
            SimTime::from_secs(1),
            SimTime::from_secs(7300), // bucket 2, bucket 1 empty
        ];
        let series = bucket_counts(times, SimDuration::hours(1));
        assert_eq!(series, vec![(0, 2), (1, 0), (2, 1)]);
    }

    #[test]
    fn bucket_counts_empty_input() {
        assert!(bucket_counts(Vec::<SimTime>::new(), SimDuration::hours(1)).is_empty());
    }

    #[test]
    fn rank_descending_sorts() {
        assert_eq!(rank_descending(vec![3, 9, 1, 9]), vec![9, 9, 3, 1]);
    }

    #[test]
    fn ecdf_is_monotone_and_ends_at_one() {
        let points = ecdf(vec![3.0, 1.0, 2.0, 2.0]);
        assert_eq!(points.len(), 4);
        assert!((points.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!(points
            .windows(2)
            .all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
    }

    #[test]
    fn percent_change_matches_paper_style() {
        assert!((percent_change(100.0, 386.0) - 286.0).abs() < 1e-9);
        assert!((percent_change(200.0, 100.0) + 50.0).abs() < 1e-9);
        assert_eq!(percent_change(0.0, 5.0), f64::INFINITY);
        assert_eq!(percent_change(0.0, 0.0), 0.0);
    }
}
