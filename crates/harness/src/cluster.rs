//! Deterministic k-means phase clustering (the SimPoint step).
//!
//! SimPoint-style sampling slices a long execution into fixed-size
//! intervals, summarises each as a basic-block frequency vector, clusters
//! the vectors, and then simulates only one representative interval per
//! cluster, weighting its result by the cluster's share of the run. This
//! module supplies the clustering step with the same reproducibility
//! contract as everything else in the workspace: the outcome is a pure
//! function of `(points, k, seed)`.
//!
//! Determinism is engineered, not hoped for:
//!
//! * seeding routes through the pinned [`crate::rng`] streams
//!   (splitmix64-expanded xoshiro256\*\*), so the k-means++ draws are
//!   byte-stable across platforms and releases;
//! * the iteration cadence is fixed — at most [`MAX_ITERS`] Lloyd rounds,
//!   stopping early only on an exactly unchanged assignment vector;
//! * every tie (nearest centre, representative choice, farthest point for
//!   empty-cluster repair) breaks toward the lowest stable index;
//! * the returned clusters are canonically ordered by representative
//!   interval index, so two runs can be compared field-for-field.

use crate::rng::Xoshiro256StarStar;
use crate::span;

/// Upper bound on Lloyd iterations. Part of the determinism contract:
/// convergence tolerance thresholds would make the outcome sensitive to
/// floating-point noise, a fixed cadence with an exact-equality early
/// exit is not.
pub const MAX_ITERS: usize = 32;

/// The result of clustering `n` interval points into `k` phases: which
/// cluster each point landed in and which member represents each cluster.
/// A representative's whole-run weight is its cluster's share of the
/// run's events, which the caller computes from the assignments.
///
/// Clusters are canonically ordered by ascending representative index.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Per input point, the cluster it was assigned to (`0..k`).
    pub assignments: Vec<usize>,
    /// Per cluster, the index of the member closest to the cluster
    /// centroid — the interval a sampled simulation actually runs.
    pub representatives: Vec<usize>,
}

impl Clustering {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.representatives.len()
    }

    /// The members of cluster `c`, in ascending point order.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignments.iter().enumerate().filter_map(|(i, &a)| (a == c).then_some(i)).collect()
    }
}

/// Squared Euclidean distance between two equal-length points.
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Index of the centre nearest to `p` (strict `<` comparison walks the
/// centres in order, so ties break toward the lowest centre index).
fn nearest(centers: &[Vec<f64>], p: &[f64]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, center) in centers.iter().enumerate() {
        let d = dist2(center, p);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// k-means++ seeding: the first centre is drawn uniformly, each later
/// centre with probability proportional to its squared distance from the
/// nearest existing centre. All draws come from the seeded xoshiro
/// stream; when every remaining point coincides with an existing centre
/// (zero total distance), the lowest-index non-centre point is taken.
fn seed_centers(points: &[Vec<f64>], k: usize, rng: &mut Xoshiro256StarStar) -> Vec<Vec<f64>> {
    let mut centers: Vec<Vec<f64>> = Vec::with_capacity(k);
    let mut chosen = vec![false; points.len()];
    let first = rng.below_usize(points.len());
    chosen[first] = true;
    centers.push(points[first].clone());
    while centers.len() < k {
        let d2: Vec<f64> =
            points.iter().map(|p| dist2(&centers[nearest(&centers, p)], p)).collect();
        let total: f64 = d2.iter().sum();
        let pick = if total > 0.0 {
            let mut r = rng.gen_f64() * total;
            let mut pick = None;
            for (i, &d) in d2.iter().enumerate() {
                if d > 0.0 {
                    r -= d;
                    if r < 0.0 {
                        pick = Some(i);
                        break;
                    }
                }
            }
            // Floating-point shortfall at the very end of the prefix walk:
            // take the last positive-distance point.
            pick.unwrap_or_else(|| {
                d2.iter().rposition(|&d| d > 0.0).expect("total > 0 implies a positive entry")
            })
        } else {
            match chosen.iter().position(|&c| !c) {
                Some(i) => i,
                None => break, // fewer distinct points than k
            }
        };
        chosen[pick] = true;
        centers.push(points[pick].clone());
    }
    centers
}

/// Clusters `points` into (at most) `k` phases with seeded k-means++ and
/// a fixed Lloyd cadence. The outcome is a pure function of
/// `(points, k, seed)` — see the [module docs](self) for the full
/// determinism contract.
///
/// `k` is clamped to the number of points; `k >= points.len()` therefore
/// degenerates to the identity clustering (every point its own
/// representative), which is what full-fidelity pipeline mode relies on.
///
/// # Panics
///
/// Panics if `k` is zero while `points` is non-empty, or if points have
/// unequal dimensionality.
pub fn kmeans(points: &[Vec<f64>], k: usize, seed: u64) -> Clustering {
    let _span = span::enter("cluster");
    let n = points.len();
    if n == 0 {
        return Clustering { assignments: Vec::new(), representatives: Vec::new() };
    }
    assert!(k > 0, "cannot cluster into zero phases");
    if let Some(first) = points.first() {
        assert!(
            points.iter().all(|p| p.len() == first.len()),
            "all points must share one dimensionality"
        );
    }
    if k >= n {
        // Full-fidelity mode: every point is its own phase, even when
        // points coincide — K = all intervals must reproduce the
        // unsampled measurement exactly, not collapse duplicates.
        return Clustering { assignments: (0..n).collect(), representatives: (0..n).collect() };
    }

    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut centers = seed_centers(points, k, &mut rng);
    let k = centers.len(); // may be fewer than requested for duplicate-heavy inputs
    let mut assignments: Vec<usize> = points.iter().map(|p| nearest(&centers, p)).collect();

    for _ in 0..MAX_ITERS {
        // Recompute centroids in index order (fixed summation order).
        let dim = points[0].len();
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (p, &a) in points.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, &x) in sums[a].iter_mut().zip(p) {
                *s += x;
            }
        }
        for (c, (sum, &count)) in sums.iter().zip(&counts).enumerate() {
            if count > 0 {
                centers[c] = sum.iter().map(|s| s / count as f64).collect();
            } else {
                // Empty-cluster repair: steal the point farthest from its
                // current centre (strict `>` breaks ties low).
                let mut far = 0;
                let mut far_d = -1.0;
                for (i, p) in points.iter().enumerate() {
                    let d = dist2(&centers[assignments[i]], p);
                    if d > far_d {
                        far_d = d;
                        far = i;
                    }
                }
                centers[c] = points[far].clone();
            }
        }
        let next: Vec<usize> = points.iter().map(|p| nearest(&centers, p)).collect();
        if next == assignments {
            break;
        }
        assignments = next;
    }

    // Representative per cluster: the member nearest its centroid, ties
    // toward the lowest point index. A cluster left empty by the final
    // assignment pass is dropped below.
    let mut reps: Vec<Option<usize>> = vec![None; k];
    let mut rep_d = vec![f64::INFINITY; k];
    for (i, (p, &a)) in points.iter().zip(&assignments).enumerate() {
        let d = dist2(&centers[a], p);
        if d < rep_d[a] {
            rep_d[a] = d;
            reps[a] = Some(i);
        }
    }

    // Canonical order: clusters sorted by representative index.
    let mut order: Vec<(usize, usize)> =
        reps.iter().enumerate().filter_map(|(c, r)| r.map(|r| (r, c))).collect();
    order.sort_unstable();
    let mut remap = vec![usize::MAX; k];
    for (new_c, &(_, old_c)) in order.iter().enumerate() {
        remap[old_c] = new_c;
    }
    let assignments: Vec<usize> = assignments.into_iter().map(|a| remap[a]).collect();
    let representatives: Vec<usize> = order.iter().map(|&(r, _)| r).collect();
    Clustering { assignments, representatives }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<f64>> {
        // Three well-separated groups in 2-D, interleaved in index order.
        let mut pts = Vec::new();
        for i in 0..30 {
            let (cx, cy) = match i % 3 {
                0 => (0.0, 0.0),
                1 => (10.0, 0.0),
                _ => (0.0, 10.0),
            };
            let jitter = (i / 3) as f64 * 0.01;
            pts.push(vec![cx + jitter, cy - jitter]);
        }
        pts
    }

    #[test]
    fn recovers_separated_blobs() {
        let pts = blobs();
        let c = kmeans(&pts, 3, 42);
        assert_eq!(c.k(), 3);
        // Every member of a blob shares its cluster with the blob's other
        // members and nothing else.
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                assert_eq!(
                    c.assignments[i] == c.assignments[j],
                    i % 3 == j % 3,
                    "points {i} and {j}"
                );
            }
        }
        assert!((0..3).all(|cl| c.members(cl).len() == 10));
    }

    #[test]
    fn is_a_pure_function_of_inputs() {
        let pts = blobs();
        let a = kmeans(&pts, 3, 7);
        let b = kmeans(&pts, 3, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn clusters_are_canonically_ordered() {
        let c = kmeans(&blobs(), 3, 123);
        let mut sorted = c.representatives.clone();
        sorted.sort_unstable();
        assert_eq!(c.representatives, sorted, "representatives ascend");
        assert_eq!(c.assignments[c.representatives[0]], 0, "first rep is in cluster 0");
    }

    #[test]
    fn weights_sum_to_one_and_match_members() {
        // The clusters' member lists partition the points, so their point
        // shares sum to one, and each cluster contains its representative.
        let pts = blobs();
        let c = kmeans(&pts, 4, 9);
        let mut seen: Vec<usize> = (0..c.k()).flat_map(|cl| c.members(cl)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..pts.len()).collect::<Vec<_>>(), "every point in exactly one cluster");
        for cl in 0..c.k() {
            assert!(c.members(cl).contains(&c.representatives[cl]));
        }
    }

    #[test]
    fn k_at_least_n_is_the_identity_clustering() {
        let pts: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let c = kmeans(&pts, 99, 1);
        assert_eq!(c.k(), 5);
        assert_eq!(c.representatives, vec![0, 1, 2, 3, 4]);
        for (i, &a) in c.assignments.iter().enumerate() {
            assert_eq!(c.representatives[a], i, "every point represents itself");
        }
    }

    #[test]
    fn duplicate_points_collapse_gracefully() {
        let pts = vec![vec![1.0, 2.0]; 8];
        let c = kmeans(&pts, 3, 5);
        assert!(c.assignments.iter().filter(|&&a| a == 0).count() > 0);
        let members: usize = (0..c.k()).map(|cl| c.members(cl).len()).sum();
        assert_eq!(members, pts.len(), "the clusters partition the points");
    }

    #[test]
    fn empty_input_yields_empty_clustering() {
        let c = kmeans(&[], 3, 0);
        assert_eq!(c.k(), 0);
        assert!(c.assignments.is_empty());
    }
}
