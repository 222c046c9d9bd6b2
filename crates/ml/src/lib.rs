//! # kodan-ml
//!
//! A small, dependency-light machine-learning substrate for the Kodan
//! (ASPLOS '23) reproduction. It stands in for the PyTorch semantic
//! segmentation stack the paper uses, providing everything the Kodan
//! pipeline needs:
//!
//! - [`matrix`] — dense row-major matrices,
//! - [`metrics`] — the distance metrics the paper sweeps when clustering
//!   label vectors (Euclidean, Hamming, Cosine, ...),
//! - [`kmeans`] — k-means++ clustering for automatic context generation,
//! - [`transform`] — label-vector transformations (standardization, PCA
//!   via power iteration) swept alongside the metrics,
//! - [`mlp`] — the binary per-pixel classifier, a one-hidden-layer
//!   perceptron trained with mini-batch SGD,
//! - [`eval`] — confusion matrices, accuracy, precision, recall, F1, IoU,
//! - [`quant`] — i16/i32 fixed-point quantized inference kernels, the
//!   bit-exact fast path flight hardware would actually run,
//! - [`zoo`] — the seven benchmark model architectures of the paper's
//!   Table 1, as capacity/input-resolution descriptors.
//!
//! All training is deterministic given a seed.
//!
//! ## Example
//!
//! ```
//! use kodan_ml::mlp::Mlp;
//! use kodan_ml::train::TrainConfig;
//! use kodan_ml::PixelClassifier;
//!
//! // Learn y = x0 > 0.5 with four hidden units.
//! let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![(i % 100) as f64 / 100.0]).collect();
//! let ys: Vec<bool> = xs.iter().map(|x| x[0] > 0.5).collect();
//! let model = Mlp::fit(&xs, &ys, 4, &TrainConfig::fast(7));
//! assert!(model.predict(&[0.9]));
//! assert!(!model.predict(&[0.1]));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod eval;
pub mod kmeans;
pub mod matrix;
pub mod metrics;
pub mod mlp;
pub mod optimizer;
pub mod quant;
pub mod train;
pub mod transform;
pub mod wire;
pub mod zoo;

pub use eval::ConfusionMatrix;
pub use kmeans::KMeans;
pub use metrics::DistanceMetric;
pub use mlp::Mlp;
pub use quant::QuantizedMlp;
pub use train::TrainConfig;
pub use zoo::ModelArch;

/// A binary classifier over fixed-length feature vectors.
///
/// [`Mlp`] and its fixed-point form [`QuantizedMlp`] implement this. The
/// Kodan core holds each specialized model as a concrete `Mlp`, plus an
/// optional `QuantizedMlp` companion, not as a trait object.
pub trait PixelClassifier: Send + Sync {
    /// Probability that the sample is positive (high-value / clear).
    fn predict_proba(&self, features: &[f64]) -> f64;

    /// Number of input features this classifier expects.
    fn input_dim(&self) -> usize;

    /// Hard decision at the 0.5 threshold.
    fn predict(&self, features: &[f64]) -> bool {
        self.predict_proba(features) >= 0.5
    }
}
