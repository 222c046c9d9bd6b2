//! K-means clustering with k-means++ initialization.
//!
//! Kodan partitions the representative dataset into geospatial contexts by
//! clustering per-tile label vectors (paper Section 3.2), sweeping cluster
//! count and distance metric. This module implements the clustering; the
//! sweep lives in the Kodan core.

use crate::metrics::DistanceMetric;
use kodan_wire::{Dec, Decode, Enc, Encode, WireError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// A fitted k-means model.
///
/// # Example
///
/// ```
/// use kodan_ml::kmeans::KMeans;
/// use kodan_ml::metrics::DistanceMetric;
///
/// let points = vec![
///     vec![0.0, 0.0], vec![0.1, 0.0], vec![0.0, 0.1],
///     vec![5.0, 5.0], vec![5.1, 5.0], vec![5.0, 5.1],
/// ];
/// let km = KMeans::fit(&points, 2, DistanceMetric::Euclidean, 42);
/// assert_eq!(km.k(), 2);
/// assert_eq!(km.assign(&[0.05, 0.05]), km.assign(&[0.02, 0.08]));
/// assert_ne!(km.assign(&[0.05, 0.05]), km.assign(&[5.05, 5.05]));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeans {
    centroids: Vec<Vec<f64>>,
    metric: DistanceMetric,
    inertia: f64,
    assignments: Vec<usize>,
}

/// Maximum Lloyd iterations; convergence is typically much earlier.
const MAX_ITERATIONS: usize = 100;

impl KMeans {
    /// Fits k-means to `points` with `k` clusters under `metric`.
    ///
    /// Uses k-means++ seeding (with squared-distance weighting) and
    /// Lloyd's algorithm with mean centroid updates. Deterministic for a
    /// given seed.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, `k` is zero, or `k > points.len()`.
    pub fn fit(points: &[Vec<f64>], k: usize, metric: DistanceMetric, seed: u64) -> KMeans {
        assert!(!points.is_empty(), "k-means needs points");
        assert!(k > 0, "k must be positive");
        assert!(k <= points.len(), "k exceeds point count");
        let dim = points[0].len();
        assert!(points.iter().all(|p| p.len() == dim), "ragged points");

        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x6EA5);
        let mut centroids = plus_plus_init(points, k, metric, &mut rng);
        let mut assignments = vec![0usize; points.len()];

        let mut assigned_d = vec![0.0f64; points.len()];

        for _ in 0..MAX_ITERATIONS {
            // Assignment step: one distance pass per point per iteration;
            // each point's distance to its chosen centroid is cached for
            // the empty-cluster re-seed below instead of being recomputed.
            let mut changed = false;
            for (i, p) in points.iter().enumerate() {
                let (nearest, d) = nearest_centroid_with_distance(p, &centroids, metric);
                assigned_d[i] = d;
                if assignments[i] != nearest {
                    assignments[i] = nearest;
                    changed = true;
                }
            }
            // Update step: mean of members; empty clusters re-seed to the
            // point that was farthest from its centroid at assignment
            // time (the cached distances, so ranking is against a
            // consistent set of centroids rather than a half-updated mix).
            let mut sums = vec![vec![0.0; dim]; k];
            let mut counts = vec![0usize; k];
            for (p, &a) in points.iter().zip(&assignments) {
                counts[a] += 1;
                for (s, v) in sums[a].iter_mut().zip(p) {
                    *s += v;
                }
            }
            for c in 0..k {
                if counts[c] == 0 {
                    let far_idx = (0..points.len())
                        .max_by(|&i, &j| assigned_d[i].total_cmp(&assigned_d[j]))
                        .unwrap_or(0);
                    centroids[c] = points[far_idx].clone();
                    changed = true;
                } else {
                    for (d, s) in centroids[c].iter_mut().zip(&sums[c]) {
                        *d = s / counts[c] as f64;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let inertia = points
            .iter()
            .zip(&assignments)
            .map(|(p, &a)| metric.distance(p, &centroids[a]).powi(2))
            .sum();

        KMeans {
            centroids,
            metric,
            inertia,
            assignments,
        }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// The metric this model was fitted under.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// Cluster assignment of each training point.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Assigns a new point to its nearest centroid.
    ///
    /// # Panics
    ///
    /// Panics if the point's dimension differs from the training data.
    pub fn assign(&self, point: &[f64]) -> usize {
        nearest_centroid(point, &self.centroids, self.metric)
    }
}

/// K-means++ seeding: first centroid uniform, subsequent centroids chosen
/// with probability proportional to squared distance from the nearest
/// chosen centroid.
fn plus_plus_init(
    points: &[Vec<f64>],
    k: usize,
    metric: DistanceMetric,
    rng: &mut ChaCha12Rng,
) -> Vec<Vec<f64>> {
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.random_range(0..points.len())].clone());
    let mut dist_sq: Vec<f64> = points
        .iter()
        .map(|p| metric.distance(p, &centroids[0]).powi(2))
        .collect();
    while centroids.len() < k {
        let total: f64 = dist_sq.iter().sum();
        let next = if total <= 1e-18 {
            // All points coincide with existing centroids; pick uniformly.
            rng.random_range(0..points.len())
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut chosen = points.len() - 1;
            for (i, &d) in dist_sq.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        let chosen_point = &points[next];
        for (d, p) in dist_sq.iter_mut().zip(points) {
            let nd = metric.distance(p, chosen_point).powi(2);
            if nd < *d {
                *d = nd;
            }
        }
        centroids.push(chosen_point.clone());
    }
    centroids
}

fn nearest_centroid(point: &[f64], centroids: &[Vec<f64>], metric: DistanceMetric) -> usize {
    nearest_centroid_with_distance(point, centroids, metric).0
}

fn nearest_centroid_with_distance(
    point: &[f64],
    centroids: &[Vec<f64>],
    metric: DistanceMetric,
) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = metric.distance(point, c);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    (best, best_d)
}

/// Mean silhouette score of a clustering in `[-1, 1]`; higher is better.
/// Used when sweeping cluster counts. Only defined for `k >= 2`; returns
/// 0.0 for degenerate single-cluster fits.
pub fn silhouette(points: &[Vec<f64>], model: &KMeans) -> f64 {
    if model.k() < 2 {
        return 0.0;
    }
    let assignments = model.assignments();
    let n = points.len();
    let mut total = 0.0;
    for i in 0..n {
        let own = assignments[i];
        let mut intra_sum = 0.0;
        let mut intra_n = 0.0;
        let mut inter: Vec<(f64, f64)> = vec![(0.0, 0.0); model.k()];
        for j in 0..n {
            if i == j {
                continue;
            }
            let d = model.metric().distance(&points[i], &points[j]);
            if assignments[j] == own {
                intra_sum += d;
                intra_n += 1.0;
            } else {
                inter[assignments[j]].0 += d;
                inter[assignments[j]].1 += 1.0;
            }
        }
        let a = if intra_n > 0.0 { intra_sum / intra_n } else { 0.0 };
        let b = inter
            .iter()
            .filter(|(_, n)| *n > 0.0)
            .map(|(s, n)| s / n)
            .fold(f64::INFINITY, f64::min);
        if b.is_finite() {
            let denom = a.max(b);
            if denom > 0.0 {
                total += (b - a) / denom;
            }
        }
    }
    total / n as f64
}

impl Encode for KMeans {
    fn encode(&self, enc: &mut Enc) {
        self.centroids.encode(enc);
        self.metric.encode(enc);
        enc.f64(self.inertia);
        self.assignments.encode(enc);
    }
}

impl Decode for KMeans {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        let centroids = Vec::<Vec<f64>>::decode(dec)?;
        let metric = DistanceMetric::decode(dec)?;
        let inertia = dec.f64()?;
        let assignments = Vec::<usize>::decode(dec)?;
        if centroids.is_empty() {
            return Err(WireError::InvalidValue("kmeans without centroids"));
        }
        let dim = centroids[0].len();
        if centroids.iter().any(|c| c.len() != dim) {
            return Err(WireError::InvalidValue("ragged kmeans centroids"));
        }
        if assignments.iter().any(|&a| a >= centroids.len()) {
            return Err(WireError::InvalidValue("kmeans assignment out of range"));
        }
        Ok(KMeans {
            centroids,
            metric,
            inertia,
            assignments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..20 {
            let e = (i as f64) * 0.01;
            pts.push(vec![0.0 + e, 0.0 - e]);
            pts.push(vec![10.0 - e, 10.0 + e]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let pts = two_blobs();
        let km = KMeans::fit(&pts, 2, DistanceMetric::Euclidean, 1);
        let a = km.assign(&[0.05, 0.05]);
        let b = km.assign(&[9.95, 9.95]);
        assert_ne!(a, b);
        // Centroids land near the blob centers.
        let near_origin = km
            .centroids
            .iter()
            .any(|c| c[0].abs() < 0.5 && c[1].abs() < 0.5);
        assert!(near_origin, "centroids: {:?}", km.centroids);
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = two_blobs();
        let a = KMeans::fit(&pts, 2, DistanceMetric::Euclidean, 7);
        let b = KMeans::fit(&pts, 2, DistanceMetric::Euclidean, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn inertia_decreases_with_k() {
        let pts = two_blobs();
        let k1 = KMeans::fit(&pts, 1, DistanceMetric::Euclidean, 3).inertia;
        let k2 = KMeans::fit(&pts, 2, DistanceMetric::Euclidean, 3).inertia;
        let k4 = KMeans::fit(&pts, 4, DistanceMetric::Euclidean, 3).inertia;
        assert!(k2 < k1);
        assert!(k4 <= k2 + 1e-9);
    }

    #[test]
    fn works_with_every_metric() {
        let pts = two_blobs();
        for m in DistanceMetric::ALL {
            let km = KMeans::fit(&pts, 2, m, 11);
            assert_eq!(km.k(), 2);
            assert_eq!(km.assignments().len(), pts.len());
        }
    }

    #[test]
    fn silhouette_favors_true_k() {
        let pts = two_blobs();
        let s2 = silhouette(&pts, &KMeans::fit(&pts, 2, DistanceMetric::Euclidean, 1));
        let s4 = silhouette(&pts, &KMeans::fit(&pts, 4, DistanceMetric::Euclidean, 1));
        assert!(s2 > 0.8, "silhouette(2) = {s2}");
        assert!(s2 > s4, "silhouette(2)={s2} vs silhouette(4)={s4}");
    }

    #[test]
    fn handles_duplicate_points() {
        let pts = vec![vec![1.0, 1.0]; 10];
        let km = KMeans::fit(&pts, 3, DistanceMetric::Euclidean, 1);
        assert_eq!(km.k(), 3);
        assert!(km.inertia < 1e-12);
    }

    #[test]
    #[should_panic(expected = "k exceeds")]
    fn rejects_k_larger_than_n() {
        let _ = KMeans::fit(&[vec![1.0]], 2, DistanceMetric::Euclidean, 1);
    }
}
