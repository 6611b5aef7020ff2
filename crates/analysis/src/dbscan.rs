//! DBSCAN — density-based clustering (Ester et al., KDD'96).
//!
//! Used twice in the paper: clustering payload byte-representations to group
//! scan tools (§5.4), and grouping per-prefix session counts for the
//! network-selection taxonomy (§5.2). The implementation is generic over a
//! point type and a distance function and deterministic (iteration order is
//! input order); region queries go through a sorted-projection index. The
//! O(n²) textbook scan it is checked against lives in
//! `tests/dbscan_oracle`.

/// Cluster assignment of one point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// Noise: not density-reachable from any core point.
    Noise,
    /// Member of the cluster with this id (0-based).
    Cluster(usize),
}

impl Assignment {
    /// The cluster id, if clustered.
    pub fn cluster(self) -> Option<usize> {
        match self {
            Assignment::Cluster(c) => Some(c),
            Assignment::Noise => None,
        }
    }
}

/// Runs DBSCAN over `points` with neighborhood radius `eps` and core-point
/// threshold `min_pts` (the point itself counts toward `min_pts`, matching
/// the original formulation), through a sorted-projection neighbor index.
/// Returns one [`Assignment`] per input point.
///
/// `proj` maps each point to a scalar key that must be 1-Lipschitz with
/// respect to `dist` — `|proj(a) - proj(b)| <= dist(a, b)` for all pairs —
/// so every `eps`-neighbor of a point lies within `eps` of its key. Region
/// queries then binary-search the sorted key array and verify `dist` only
/// inside that window, instead of scanning all n points. For 1-D data with
/// absolute-difference distance the identity projection is exact and the
/// window *is* the neighborhood; for higher-dimensional Euclidean points any
/// single coordinate works as the projection.
///
/// Labels are those of the textbook algorithm with full-scan region
/// queries: neighbor sets are the same point sets, returned in ascending
/// index order.
pub fn dbscan_indexed<P>(
    points: &[P],
    eps: f64,
    min_pts: usize,
    proj: impl Fn(&P) -> f64,
    dist: impl Fn(&P, &P) -> f64,
) -> Vec<Assignment> {
    let n = points.len();
    // Point indices sorted by projection key (index-tiebreak keeps the sort
    // fully deterministic under equal keys).
    let mut order: Vec<usize> = (0..n).collect();
    let keys: Vec<f64> = points.iter().map(&proj).collect();
    order.sort_unstable_by(|&a, &b| keys[a].total_cmp(&keys[b]).then(a.cmp(&b)));
    let sorted_keys: Vec<f64> = order.iter().map(|&i| keys[i]).collect();
    expand_clusters(n, min_pts, |i| {
        let lo = sorted_keys.partition_point(|&k| k < keys[i] - eps);
        let hi = sorted_keys.partition_point(|&k| k <= keys[i] + eps);
        let mut nbrs: Vec<usize> = order[lo..hi]
            .iter()
            .copied()
            .filter(|&j| dist(&points[i], &points[j]) <= eps)
            .collect();
        // The window is in key order; a full scan yields ascending
        // indices, and label assignment depends on that order.
        nbrs.sort_unstable();
        nbrs
    })
}

/// The worklist expansion: visits points in input order, grows each
/// core point's cluster breadth-first. `neighbors(i)` must return the indices
/// of all points within `eps` of point `i` (including `i`), ascending.
///
/// An `enqueued` bitset keeps the worklist duplicate-free: without it,
/// `queue.extend(jn)` re-pushes already-labeled indices and the queue can
/// grow O(n²) on dense clusters. Filtering is behavior-preserving — a
/// duplicate entry is always labeled by the time it would be popped, so the
/// original loop skipped it anyway.
fn expand_clusters(
    n: usize,
    min_pts: usize,
    mut neighbors: impl FnMut(usize) -> Vec<usize>,
) -> Vec<Assignment> {
    const UNVISITED: usize = usize::MAX;
    const NOISE: usize = usize::MAX - 1;
    let mut labels = vec![UNVISITED; n];
    let mut enqueued = vec![false; n];
    let mut next_cluster = 0usize;
    for i in 0..n {
        if labels[i] != UNVISITED {
            continue;
        }
        let nbrs = neighbors(i);
        if nbrs.len() < min_pts {
            labels[i] = NOISE;
            continue;
        }
        let cluster = next_cluster;
        next_cluster += 1;
        labels[i] = cluster;
        // Expand the cluster via a worklist.
        let mut queue: Vec<usize> = Vec::with_capacity(nbrs.len());
        for x in nbrs {
            if !enqueued[x] {
                enqueued[x] = true;
                queue.push(x);
            }
        }
        let mut qi = 0;
        while qi < queue.len() {
            let j = queue[qi];
            qi += 1;
            if labels[j] == NOISE {
                labels[j] = cluster; // border point
            }
            if labels[j] != UNVISITED {
                continue;
            }
            labels[j] = cluster;
            let jn = neighbors(j);
            if jn.len() >= min_pts {
                for x in jn {
                    if !enqueued[x] {
                        enqueued[x] = true;
                        queue.push(x);
                    }
                }
            }
        }
    }
    labels
        .into_iter()
        .map(|l| {
            if l == NOISE || l == UNVISITED {
                Assignment::Noise
            } else {
                Assignment::Cluster(l)
            }
        })
        .collect()
}

/// Number of clusters in an assignment vector.
pub fn cluster_count(assignments: &[Assignment]) -> usize {
    assignments
        .iter()
        .filter_map(|a| a.cluster())
        .max()
        .map_or(0, |m| m + 1)
}

/// The textbook scan `dbscan_indexed` is checked against, shared with
/// the property tests and the `kernels` bench.
#[cfg(test)]
#[path = "../tests/dbscan_oracle/mod.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn d1(a: &f64, b: &f64) -> f64 {
        (a - b).abs()
    }

    /// DBSCAN over 1-D points with the identity projection.
    fn dbscan_1d(points: &[f64], eps: f64, min_pts: usize) -> Vec<Assignment> {
        dbscan_indexed(points, eps, min_pts, |&x| x, d1)
    }

    #[test]
    fn two_well_separated_blobs() {
        let points = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2];
        let out = dbscan_1d(&points, 0.5, 2);
        assert_eq!(cluster_count(&out), 2);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[1], out[2]);
        assert_eq!(out[3], out[4]);
        assert_ne!(out[0], out[3]);
    }

    #[test]
    fn isolated_point_is_noise() {
        let points = [0.0, 0.1, 5.0];
        let out = dbscan_1d(&points, 0.5, 2);
        assert_eq!(out[2], Assignment::Noise);
        assert!(out[0].cluster().is_some());
    }

    #[test]
    fn chain_connectivity_merges() {
        // Points spaced 0.4 apart chain into a single cluster at eps 0.5.
        let points: Vec<f64> = (0..10).map(|i| i as f64 * 0.4).collect();
        let out = dbscan_1d(&points, 0.5, 2);
        assert_eq!(cluster_count(&out), 1);
        assert!(out.iter().all(|a| a.cluster() == Some(0)));
    }

    #[test]
    fn min_pts_one_clusters_everything() {
        let points = [0.0, 100.0, 200.0];
        let out = dbscan_1d(&points, 0.5, 1);
        assert_eq!(cluster_count(&out), 3);
        assert!(out.iter().all(|a| a.cluster().is_some()));
    }

    #[test]
    fn empty_input() {
        let points: [f64; 0] = [];
        assert!(dbscan_1d(&points, 1.0, 2).is_empty());
    }

    #[test]
    fn border_point_joins_cluster() {
        // 0.0 and 0.4 are core (each has 3 neighbors incl. self at eps 0.5
        // with min_pts 3 via 0.0,0.4,0.8 chain); 0.9 is border.
        let points = [0.0, 0.4, 0.8, 1.2];
        let out = dbscan_1d(&points, 0.5, 3);
        // All should end in the same cluster (1.2 as border of 0.8).
        assert_eq!(cluster_count(&out), 1);
        assert!(out.iter().all(|a| a.cluster() == Some(0)));
    }

    #[test]
    fn determinism() {
        let points = [0.0, 0.1, 0.2, 10.0, 10.1, 3.0];
        let a = dbscan_1d(&points, 0.5, 2);
        let b = dbscan_1d(&points, 0.5, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn indexed_matches_scan_on_1d() {
        let cases: [&[f64]; 4] = [
            &[0.0, 0.1, 0.2, 10.0, 10.1, 3.0],
            &[0.0, 0.4, 0.8, 1.2],
            &[5.0, 5.0, 5.0, 5.0], // equal keys
            &[],
        ];
        for points in cases {
            for min_pts in [1, 2, 3] {
                let scan = oracle::dbscan(points, 0.5, min_pts, d1);
                let indexed = dbscan_indexed(points, 0.5, min_pts, |&x| x, d1);
                assert_eq!(scan, indexed);
            }
        }
    }

    #[test]
    fn indexed_matches_scan_with_coordinate_projection() {
        let points = vec![[0.0, 0.0], [0.0, 0.1], [5.0, 5.0], [5.0, 5.1], [0.1, 0.05]];
        let dist = |a: &[f64; 2], b: &[f64; 2]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        };
        let scan = oracle::dbscan(&points, 0.5, 2, dist);
        let indexed = dbscan_indexed(&points, 0.5, 2, |p| p[1], dist);
        assert_eq!(scan, indexed);
    }

    #[test]
    fn works_with_vector_points() {
        let points = vec![
            vec![0.0, 0.0],
            vec![0.0, 0.1],
            vec![5.0, 5.0],
            vec![5.0, 5.1],
        ];
        let dist = |a: &Vec<f64>, b: &Vec<f64>| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        };
        let out = dbscan_indexed(&points, 0.5, 2, |p| p[0], dist);
        assert_eq!(cluster_count(&out), 2);
    }
}
