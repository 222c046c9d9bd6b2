//! Label-vector transformations for the clustering sweep.
//!
//! Alongside distance metrics, the paper sweeps "label vector
//! transformations, including translations, rotations, and projections
//! based on per-dimension covariance properties" (Section 3.2). This
//! module provides standardization (translation + per-dimension scaling)
//! and PCA projection (rotation + covariance-based projection), both
//! fitted on training data and applicable to new vectors.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// A fitted, invertible-enough feature transformation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FittedTransform {
    /// Pass-through.
    Identity,
    /// Per-dimension centering and scaling to unit variance.
    Standardize {
        /// Column means subtracted from inputs.
        means: Vec<f64>,
        /// Column standard deviations (zeros replaced by 1).
        stds: Vec<f64>,
    },
    /// Projection onto the top principal components (computed after
    /// standardization for scale invariance).
    Pca {
        /// Column means.
        means: Vec<f64>,
        /// Column standard deviations.
        stds: Vec<f64>,
        /// Principal axes, one row per retained component.
        components: Vec<Vec<f64>>,
    },
}

/// A transformation specification, fit with [`TransformKind::fit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransformKind {
    /// No transformation.
    Identity,
    /// Standardize each dimension.
    Standardize,
    /// Standardize then project to `n` principal components.
    Pca(usize),
}

impl TransformKind {
    /// Transformations enumerated in context-generation sweeps.
    pub fn sweep_candidates(dim: usize) -> Vec<TransformKind> {
        let mut v = vec![TransformKind::Identity, TransformKind::Standardize];
        if dim >= 4 {
            v.push(TransformKind::Pca(dim / 2));
            v.push(TransformKind::Pca(3.min(dim)));
        }
        v
    }

    /// Fits this transformation on training vectors.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, ragged, or a PCA component count is zero
    /// or exceeds the dimension.
    pub fn fit(&self, data: &[Vec<f64>]) -> FittedTransform {
        assert!(!data.is_empty(), "transform needs data");
        let dim = data.first().map(Vec::len).unwrap_or(0);
        match self {
            TransformKind::Identity => FittedTransform::Identity,
            TransformKind::Standardize => {
                let m = Matrix::from_rows(data);
                FittedTransform::Standardize {
                    means: m.column_means(),
                    stds: safe_stds(m.column_stds()),
                }
            }
            TransformKind::Pca(n) => {
                assert!(*n > 0 && *n <= dim, "PCA components out of range");
                let m = Matrix::from_rows(data);
                let means = m.column_means();
                let stds = safe_stds(m.column_stds());
                let standardized: Vec<Vec<f64>> = data
                    .iter()
                    .map(|row| {
                        row.iter()
                            .zip(&means)
                            .zip(&stds)
                            .map(|((v, m), s)| (v - m) / s)
                            .collect()
                    })
                    .collect();
                let cov = Matrix::from_rows(&standardized).covariance();
                let components = top_components(&cov, *n);
                FittedTransform::Pca {
                    means,
                    stds,
                    components,
                }
            }
        }
    }
}

impl FittedTransform {
    /// Applies the transformation to one vector.
    ///
    /// # Panics
    ///
    /// Panics if the vector's dimension differs from the training data.
    pub fn apply(&self, v: &[f64]) -> Vec<f64> {
        match self {
            FittedTransform::Identity => v.to_vec(),
            FittedTransform::Standardize { means, stds } => {
                assert_eq!(v.len(), means.len(), "dimension mismatch");
                v.iter()
                    .zip(means)
                    .zip(stds)
                    .map(|((x, m), s)| (x - m) / s)
                    .collect()
            }
            FittedTransform::Pca {
                means,
                stds,
                components,
            } => {
                assert_eq!(v.len(), means.len(), "dimension mismatch");
                let standardized: Vec<f64> = v
                    .iter()
                    .zip(means)
                    .zip(stds)
                    .map(|((x, m), s)| (x - m) / s)
                    .collect();
                components
                    .iter()
                    .map(|c| c.iter().zip(&standardized).map(|(a, b)| a * b).sum())
                    .collect()
            }
        }
    }

    /// Applies the transformation to many vectors.
    pub fn apply_all(&self, data: &[Vec<f64>]) -> Vec<Vec<f64>> {
        data.iter().map(|v| self.apply(v)).collect()
    }
}

/// Replaces zero standard deviations with 1 to avoid division by zero for
/// constant columns.
fn safe_stds(stds: Vec<f64>) -> Vec<f64> {
    stds.into_iter()
        .map(|s| if s < 1e-12 { 1.0 } else { s })
        .collect()
}

/// Extracts the top `n` eigenvectors of a symmetric matrix by power
/// iteration with deflation.
fn top_components(cov: &Matrix, n: usize) -> Vec<Vec<f64>> {
    let dim = cov.cols();
    let mut work = cov.clone();
    let mut components = Vec::with_capacity(n);
    for comp in 0..n {
        // Deterministic non-degenerate start vector.
        let mut v: Vec<f64> = (0..dim)
            .map(|i| 1.0 + ((i + comp * 7) % 5) as f64 * 0.1)
            .collect();
        normalize(&mut v);
        let mut eigenvalue = 0.0;
        for _ in 0..200 {
            let mut next = work.matvec(&v);
            let norm = normalize(&mut next);
            // Element-order loop: max is order-insensitive for finite
            // values, but the explicit serial form keeps the reduction
            // order textually pinned (and NaN-propagation obvious).
            let mut delta = 0.0f64;
            for (a, b) in next.iter().zip(&v) {
                delta = delta.max((a - b).abs());
            }
            v = next;
            eigenvalue = norm;
            if delta < 1e-12 {
                break;
            }
        }
        // Deflate: work -= lambda v v^T.
        for i in 0..dim {
            for j in 0..dim {
                work[(i, j)] -= eigenvalue * v[i] * v[j];
            }
        }
        components.push(v);
    }
    components
}

fn normalize(v: &mut [f64]) -> f64 {
    // Serial left-to-right accumulation in element order pins the
    // (non-associative) f64 reduction order.
    let mut sq_sum = 0.0;
    for x in v.iter() {
        sq_sum += x * x;
    }
    let norm = sq_sum.sqrt();
    if norm > 1e-18 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> Vec<Vec<f64>> {
        (0..50)
            .map(|i| {
                let t = i as f64 / 10.0;
                vec![t, 2.0 * t + 1.0, (i % 3) as f64 * 0.01 + 5.0]
            })
            .collect()
    }

    #[test]
    fn identity_passes_through() {
        let data = sample_data();
        let t = TransformKind::Identity.fit(&data);
        assert_eq!(t.apply(&data[3]), data[3]);
    }

    #[test]
    fn standardize_centers_and_scales() {
        let data = sample_data();
        let t = TransformKind::Standardize.fit(&data);
        let transformed = t.apply_all(&data);
        let m = Matrix::from_rows(&transformed);
        for mean in m.column_means() {
            assert!(mean.abs() < 1e-9, "mean = {mean}");
        }
        for std in m.column_stds() {
            assert!((std - 1.0).abs() < 1e-6, "std = {std}");
        }
    }

    #[test]
    fn standardize_tolerates_constant_columns() {
        let data = vec![vec![1.0, 5.0]; 10];
        let t = TransformKind::Standardize.fit(&data);
        let out = t.apply(&[1.0, 5.0]);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn pca_reduces_dimension_and_captures_variance() {
        let data = sample_data();
        let t = TransformKind::Pca(1).fit(&data);
        let out = t.apply_all(&data);
        assert!(out.iter().all(|v| v.len() == 1));
        // Columns 0 and 1 are perfectly correlated, so one component
        // captures nearly all standardized variance (2 of ~2).
        let m = Matrix::from_rows(&out);
        let var = m.column_stds()[0].powi(2);
        assert!(var > 1.8, "captured variance = {var}");
    }

    #[test]
    fn pca_components_are_orthonormal() {
        let data = sample_data();
        if let FittedTransform::Pca { components, .. } = TransformKind::Pca(2).fit(&data) {
            let dot: f64 = components[0]
                .iter()
                .zip(&components[1])
                .map(|(a, b)| a * b)
                .sum();
            assert!(dot.abs() < 1e-6, "dot = {dot}");
            for c in &components {
                let norm: f64 = c.iter().map(|x| x * x).sum::<f64>().sqrt();
                assert!((norm - 1.0).abs() < 1e-9);
            }
        } else {
            panic!("expected PCA transform");
        }
    }

    #[test]
    fn sweep_candidates_cover_the_family() {
        let c = TransformKind::sweep_candidates(12);
        assert!(c.contains(&TransformKind::Identity));
        assert!(c.contains(&TransformKind::Standardize));
        assert!(c.iter().any(|t| matches!(t, TransformKind::Pca(_))));
    }

    #[test]
    #[should_panic(expected = "components out of range")]
    fn rejects_oversized_pca() {
        let _ = TransformKind::Pca(5).fit(&[vec![1.0, 2.0]]);
    }
}
