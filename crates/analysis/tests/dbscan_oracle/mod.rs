//! The definition of `dbscan::dbscan_indexed`: textbook DBSCAN (Ester et
//! al., KDD'96), whose region queries scan every point (O(n²) distance
//! calls) and whose seed list keeps duplicates, so it shares neither the
//! neighbour index nor the deduplicated worklist it checks.
//!
//! Test-only. It is shared by the `dbscan` unit tests (`src/dbscan.rs`),
//! the property tests (`tests/prop.rs`) and the `kernels` bench; each
//! includer brings `Assignment` into the parent scope, so this file names
//! it through `super`.

use super::Assignment;

/// Runs DBSCAN over `points` with neighbourhood radius `eps` and
/// core-point threshold `min_pts` (the point itself counts). Points are
/// visited in input order; each unlabelled core point starts a cluster,
/// which grows through a seed list that every core point it reaches
/// appends its whole neighbourhood to. A noise point reached from a
/// cluster becomes its border point and is not expanded. Returns one
/// [`Assignment`] per point.
pub fn dbscan<P>(
    points: &[P],
    eps: f64,
    min_pts: usize,
    dist: impl Fn(&P, &P) -> f64,
) -> Vec<Assignment> {
    let region = |i: usize| -> Vec<usize> {
        (0..points.len())
            .filter(|&j| dist(&points[i], &points[j]) <= eps)
            .collect()
    };
    // `None`: not yet visited.
    let mut labels: Vec<Option<Assignment>> = vec![None; points.len()];
    let mut clusters = 0;
    for p in 0..points.len() {
        if labels[p].is_some() {
            continue;
        }
        let mut seeds = region(p);
        if seeds.len() < min_pts {
            labels[p] = Some(Assignment::Noise);
            continue;
        }
        let cluster = Assignment::Cluster(clusters);
        clusters += 1;
        labels[p] = Some(cluster);
        let mut next = 0;
        while next < seeds.len() {
            let q = seeds[next];
            next += 1;
            match labels[q] {
                Some(Assignment::Noise) => labels[q] = Some(cluster),
                Some(Assignment::Cluster(_)) => {}
                None => {
                    labels[q] = Some(cluster);
                    let neighbours = region(q);
                    if neighbours.len() >= min_pts {
                        seeds.extend(neighbours);
                    }
                }
            }
        }
    }
    labels
        .into_iter()
        .map(|label| label.expect("every point is visited"))
        .collect()
}
