//! Aggregate statistics helpers for the figures and tables: time-bucket
//! series (Figs. 7a, 9) and the percentage changes of the §7.1
//! headline.

use sixscope_types::{SimDuration, SimTime};
use std::collections::BTreeMap;

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
    fn percent_change_matches_paper_style() {
        assert!((percent_change(100.0, 386.0) - 286.0).abs() < 1e-9);
        assert!((percent_change(200.0, 100.0) + 50.0).abs() < 1e-9);
        assert_eq!(percent_change(0.0, 5.0), f64::INFINITY);
        assert_eq!(percent_change(0.0, 0.0), 0.0);
    }
}
