//! K-Means clustering, including the label-constrained "fused" variant.
//!
//! Flux clusters non-tuning experts per layer before merging them (§5.2).
//! To avoid per-layer overhead it fuses all layers into a single clustering
//! problem: every centroid carries a layer label and experts may only be
//! assigned to centroids of their own layer. [`KMeans::fit_constrained`]
//! implements that scheme; [`KMeans::fit`] is the plain algorithm used for
//! comparison (and by the Fig. 16 cost benchmark).

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;
use crate::rng::SeededRng;
use crate::stats;
use crate::{Result, TensorError};

/// Distance metric used for assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Distance {
    /// Euclidean (L2) distance.
    Euclidean,
    /// Cosine distance `1 - cos(a, b)`, the metric the paper uses for
    /// expert similarity.
    Cosine,
}

impl Distance {
    /// Evaluates the metric between two vectors.
    pub fn eval(self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Distance::Euclidean => stats::euclidean_distance(a, b),
            Distance::Cosine => stats::cosine_distance(a, b),
        }
    }
}

/// Result of a K-Means clustering run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KMeansResult {
    /// Cluster index assigned to each input point.
    pub assignments: Vec<usize>,
    /// Cluster centroids, one per row.
    pub centroids: Matrix,
    /// Total within-cluster distance at convergence.
    pub inertia: f32,
    /// Number of Lloyd iterations performed.
    pub iterations: usize,
}

impl KMeansResult {
    /// Returns the members of each cluster as index lists.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let k = self.centroids.rows();
        let mut groups = vec![Vec::new(); k];
        for (point, &c) in self.assignments.iter().enumerate() {
            groups[c].push(point);
        }
        groups
    }
}

/// K-Means clustering configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Maximum number of Lloyd iterations.
    pub max_iterations: usize,
    /// Convergence threshold on centroid movement.
    pub tolerance: f32,
    /// Distance metric.
    pub distance: Distance,
}

impl KMeans {
    /// Creates a configuration with `k` clusters and sensible defaults
    /// (50 iterations, 1e-4 tolerance, cosine distance).
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iterations: 50,
            tolerance: 1e-4,
            distance: Distance::Cosine,
        }
    }

    /// Uses Euclidean distance instead of the default cosine distance.
    pub fn with_euclidean(mut self) -> Self {
        self.distance = Distance::Euclidean;
        self
    }

    /// Clusters `data` (points in rows) into `k` groups.
    ///
    /// Initialization uses k-means++ seeding. Empty clusters are re-seeded
    /// with the point farthest from its centroid so every cluster ends up
    /// non-empty whenever `k <= n`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] when `k == 0` or the data is
    /// empty.
    pub fn fit(&self, data: &Matrix, rng: &mut SeededRng) -> Result<KMeansResult> {
        let n = data.rows();
        if self.k == 0 {
            return Err(TensorError::InvalidArgument("k must be positive".into()));
        }
        if n == 0 {
            return Err(TensorError::InvalidArgument(
                "cannot cluster an empty data matrix".into(),
            ));
        }
        let k = self.k.min(n);
        let mut centroids = self.init_plus_plus(data, k, rng);
        let mut assignments = vec![0usize; n];
        let mut iterations = 0;

        for iter in 0..self.max_iterations {
            iterations = iter + 1;
            // Assignment step.
            for (p, a) in assignments.iter_mut().enumerate() {
                *a = self.nearest_centroid(data.row(p), &centroids, None).0;
            }
            // Update step.
            let new_centroids = self.recompute_centroids(data, &assignments, k, &centroids, None);
            let movement = centroid_movement(&centroids, &new_centroids);
            centroids = new_centroids;
            if movement < self.tolerance {
                break;
            }
        }
        for (p, a) in assignments.iter_mut().enumerate() {
            *a = self.nearest_centroid(data.row(p), &centroids, None).0;
        }
        let inertia = self.inertia(data, &assignments, &centroids);
        Ok(KMeansResult {
            assignments,
            centroids,
            inertia,
            iterations,
        })
    }

    /// Clusters points subject to a label constraint (Flux cross-layer fusion).
    ///
    /// `point_labels[i]` gives the layer of point `i`; `centroid_labels[c]`
    /// gives the layer of centroid `c`. A point may only be assigned to a
    /// centroid carrying the same label, which is exactly the paper's trick
    /// of zeroing similarities across layers while still running a single
    /// K-Means instance over all layers.
    ///
    /// The total number of clusters is `centroid_labels.len()`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] when inputs are empty, label
    /// lists are inconsistent with the data, or some point's label has no
    /// centroid at all.
    pub fn fit_constrained(
        &self,
        data: &Matrix,
        point_labels: &[usize],
        centroid_labels: &[usize],
        rng: &mut SeededRng,
    ) -> Result<KMeansResult> {
        let n = data.rows();
        if n == 0 || centroid_labels.is_empty() {
            return Err(TensorError::InvalidArgument(
                "constrained clustering needs points and centroids".into(),
            ));
        }
        if point_labels.len() != n {
            return Err(TensorError::InvalidArgument(format!(
                "{} point labels for {} points",
                point_labels.len(),
                n
            )));
        }
        for &label in point_labels {
            if !centroid_labels.contains(&label) {
                return Err(TensorError::InvalidArgument(format!(
                    "point label {label} has no centroid"
                )));
            }
        }

        let k = centroid_labels.len();
        // Initialize each centroid from a random point of the matching label.
        let mut centroids = Matrix::zeros(k, data.cols());
        for (c, &label) in centroid_labels.iter().enumerate() {
            let candidates: Vec<usize> = (0..n).filter(|&p| point_labels[p] == label).collect();
            let pick = candidates[rng.below(candidates.len())];
            centroids.row_mut(c).copy_from_slice(data.row(pick));
        }

        let mut assignments = vec![0usize; n];
        let mut iterations = 0;
        for iter in 0..self.max_iterations {
            iterations = iter + 1;
            for p in 0..n {
                assignments[p] = self
                    .nearest_centroid(
                        data.row(p),
                        &centroids,
                        Some((point_labels[p], centroid_labels)),
                    )
                    .0;
            }
            let new_centroids = self.recompute_centroids(
                data,
                &assignments,
                k,
                &centroids,
                Some((point_labels, centroid_labels)),
            );
            let movement = centroid_movement(&centroids, &new_centroids);
            centroids = new_centroids;
            if movement < self.tolerance {
                break;
            }
        }
        for p in 0..n {
            assignments[p] = self
                .nearest_centroid(
                    data.row(p),
                    &centroids,
                    Some((point_labels[p], centroid_labels)),
                )
                .0;
        }
        let inertia = self.inertia(data, &assignments, &centroids);
        Ok(KMeansResult {
            assignments,
            centroids,
            inertia,
            iterations,
        })
    }

    /// k-means++ seeding.
    fn init_plus_plus(&self, data: &Matrix, k: usize, rng: &mut SeededRng) -> Matrix {
        let n = data.rows();
        let mut centroids = Matrix::zeros(k, data.cols());
        let first = rng.below(n);
        centroids.row_mut(0).copy_from_slice(data.row(first));
        for c in 1..k {
            // Distance from each point to its nearest already-chosen centroid.
            let weights: Vec<f32> = (0..n)
                .map(|p| {
                    (0..c)
                        .map(|existing| self.distance.eval(data.row(p), centroids.row(existing)))
                        .fold(f32::INFINITY, f32::min)
                        .powi(2)
                })
                .collect();
            let pick = rng.weighted_index(&weights);
            centroids.row_mut(c).copy_from_slice(data.row(pick));
        }
        centroids
    }

    /// Finds the closest admissible centroid for a point.
    fn nearest_centroid(
        &self,
        point: &[f32],
        centroids: &Matrix,
        constraint: Option<(usize, &[usize])>,
    ) -> (usize, f32) {
        let mut best = (0usize, f32::INFINITY);
        for c in 0..centroids.rows() {
            if let Some((label, centroid_labels)) = constraint {
                if centroid_labels[c] != label {
                    continue;
                }
            }
            let d = self.distance.eval(point, centroids.row(c));
            if d < best.1 {
                best = (c, d);
            }
        }
        best
    }

    fn recompute_centroids(
        &self,
        data: &Matrix,
        assignments: &[usize],
        k: usize,
        previous: &Matrix,
        constraint: Option<(&[usize], &[usize])>,
    ) -> Matrix {
        let d = data.cols();
        let mut sums = Matrix::zeros(k, d);
        let mut counts = vec![0usize; k];
        for (p, &c) in assignments.iter().enumerate() {
            counts[c] += 1;
            for (s, &x) in sums.row_mut(c).iter_mut().zip(data.row(p)) {
                *s += x;
            }
        }
        let mut centroids = Matrix::zeros(k, d);
        for (c, &count) in counts.iter().enumerate() {
            if count == 0 {
                // Keep the previous centroid; an empty admissible set can
                // occur in the constrained variant when one layer has fewer
                // points than clusters.
                centroids.row_mut(c).copy_from_slice(previous.row(c));
                // In the unconstrained case, re-seed with the farthest point
                // to avoid permanently dead clusters.
                if constraint.is_none() {
                    if let Some((far_point, _)) = (0..data.rows())
                        .map(|p| {
                            let cur = assignments[p];
                            (p, self.distance.eval(data.row(p), previous.row(cur)))
                        })
                        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                    {
                        centroids.row_mut(c).copy_from_slice(data.row(far_point));
                    }
                }
                continue;
            }
            for (out, &s) in centroids.row_mut(c).iter_mut().zip(sums.row(c)) {
                *out = s / counts[c] as f32;
            }
        }
        centroids
    }

    fn inertia(&self, data: &Matrix, assignments: &[usize], centroids: &Matrix) -> f32 {
        assignments
            .iter()
            .enumerate()
            .map(|(p, &c)| self.distance.eval(data.row(p), centroids.row(c)))
            .sum()
    }
}

fn centroid_movement(old: &Matrix, new: &Matrix) -> f32 {
    old.as_slice()
        .iter()
        .zip(new.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated Gaussian blobs.
    fn blobs(rng: &mut SeededRng) -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for i in 0..40 {
            let center = if i % 2 == 0 { 10.0 } else { -10.0 };
            truth.push(i % 2);
            rows.push(vec![
                center + rng.normal() * 0.5,
                center + rng.normal() * 0.5,
            ]);
        }
        (Matrix::from_rows(&rows), truth)
    }

    #[test]
    fn separates_two_blobs() {
        let mut rng = SeededRng::new(1);
        let (data, truth) = blobs(&mut rng);
        let result = KMeans::new(2)
            .with_euclidean()
            .fit(&data, &mut rng)
            .unwrap();
        // All points with the same true label must share a cluster.
        let cluster_of_first_even = result.assignments[0];
        let cluster_of_first_odd = result.assignments[1];
        assert_ne!(cluster_of_first_even, cluster_of_first_odd);
        for (i, &t) in truth.iter().enumerate() {
            let expected = if t == 0 {
                cluster_of_first_even
            } else {
                cluster_of_first_odd
            };
            assert_eq!(result.assignments[i], expected, "point {i}");
        }
    }

    #[test]
    fn cosine_metric_clusters_by_direction() {
        let mut rng = SeededRng::new(2);
        // Two direction families with very different magnitudes; cosine
        // clustering should group by direction, not magnitude.
        let mut rows = Vec::new();
        for i in 0..20 {
            let scale = 1.0 + (i % 5) as f32;
            if i % 2 == 0 {
                rows.push(vec![scale, 0.05 * scale]);
            } else {
                rows.push(vec![0.05 * scale, scale]);
            }
        }
        let data = Matrix::from_rows(&rows);
        let result = KMeans::new(2).fit(&data, &mut rng).unwrap();
        let c0 = result.assignments[0];
        for i in (0..20).step_by(2) {
            assert_eq!(result.assignments[i], c0);
        }
        for i in (1..20).step_by(2) {
            assert_ne!(result.assignments[i], c0);
        }
    }

    #[test]
    fn respects_k_greater_than_n() {
        let mut rng = SeededRng::new(3);
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]);
        let result = KMeans::new(5)
            .with_euclidean()
            .fit(&data, &mut rng)
            .unwrap();
        assert_eq!(result.centroids.rows(), 2);
    }

    #[test]
    fn rejects_invalid_arguments() {
        let mut rng = SeededRng::new(4);
        let data = Matrix::zeros(0, 2);
        assert!(KMeans::new(2).fit(&data, &mut rng).is_err());
        let data = Matrix::zeros(3, 2);
        assert!(KMeans::new(0).fit(&data, &mut rng).is_err());
    }

    #[test]
    fn clusters_listing_covers_all_points() {
        let mut rng = SeededRng::new(5);
        let (data, _) = blobs(&mut rng);
        let result = KMeans::new(4)
            .with_euclidean()
            .fit(&data, &mut rng)
            .unwrap();
        let total: usize = result.clusters().iter().map(Vec::len).sum();
        assert_eq!(total, data.rows());
    }

    #[test]
    fn constrained_assignment_respects_labels() {
        let mut rng = SeededRng::new(6);
        // Points from two "layers"; each layer gets 2 centroids.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let layer = i / 20;
            labels.push(layer);
            let center = if i % 2 == 0 { 5.0 } else { -5.0 };
            rows.push(vec![center + rng.normal() * 0.2, layer as f32 * 100.0]);
        }
        let data = Matrix::from_rows(&rows);
        let centroid_labels = vec![0, 0, 1, 1];
        let result = KMeans::new(4)
            .with_euclidean()
            .fit_constrained(&data, &labels, &centroid_labels, &mut rng)
            .unwrap();
        for (p, &c) in result.assignments.iter().enumerate() {
            assert_eq!(
                centroid_labels[c], labels[p],
                "point {p} assigned across layers"
            );
        }
    }

    #[test]
    fn constrained_errors_when_label_missing() {
        let mut rng = SeededRng::new(7);
        let data = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let err = KMeans::new(1).fit_constrained(&data, &[0, 3], &[0], &mut rng);
        assert!(err.is_err());
    }

    #[test]
    fn constrained_errors_on_length_mismatch() {
        let mut rng = SeededRng::new(8);
        let data = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        assert!(KMeans::new(1)
            .fit_constrained(&data, &[0], &[0], &mut rng)
            .is_err());
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let mut rng = SeededRng::new(9);
        let data = Matrix::random_normal(60, 4, 1.0, &mut rng);
        let few = KMeans::new(2)
            .with_euclidean()
            .fit(&data, &mut rng)
            .unwrap();
        let many = KMeans::new(12)
            .with_euclidean()
            .fit(&data, &mut rng)
            .unwrap();
        assert!(many.inertia < few.inertia);
    }

    #[test]
    fn deterministic_given_same_seed() {
        let data = Matrix::random_normal(30, 3, 1.0, &mut SeededRng::new(100));
        let a = KMeans::new(3).fit(&data, &mut SeededRng::new(42)).unwrap();
        let b = KMeans::new(3).fit(&data, &mut SeededRng::new(42)).unwrap();
        assert_eq!(a.assignments, b.assignments);
    }
}
