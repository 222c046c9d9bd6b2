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
//! - [`eval`] — confusion matrices, accuracy, precision and recall,
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
