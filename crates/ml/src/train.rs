//! Training configuration, sigmoid and loss of the classifier.

use crate::optimizer::OptimizerKind;
use serde::{Deserialize, Serialize};

/// Hyperparameters for mini-batch SGD training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Momentum coefficient in `[0, 1)`.
    pub momentum: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// RNG seed for shuffling and initialization.
    pub seed: u64,
    /// Update rule.
    pub optimizer: OptimizerKind,
    /// Early stopping: abort when the epoch training loss has not
    /// improved for this many epochs. `None` trains for all epochs.
    pub patience: Option<usize>,
}

impl TrainConfig {
    /// A fast configuration for tests and small models.
    pub fn fast(seed: u64) -> TrainConfig {
        TrainConfig {
            epochs: 30,
            batch_size: 32,
            learning_rate: 0.5,
            momentum: 0.8,
            l2: 1e-5,
            seed,
            optimizer: OptimizerKind::SgdMomentum,
            patience: None,
        }
    }

    /// The configuration used when training deployment models in the
    /// evaluation pipeline.
    pub fn evaluation(seed: u64) -> TrainConfig {
        TrainConfig {
            epochs: 60,
            batch_size: 64,
            learning_rate: 0.3,
            momentum: 0.9,
            l2: 1e-5,
            seed,
            optimizer: OptimizerKind::SgdMomentum,
            patience: Some(12),
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on non-positive epochs/batch/learning-rate or momentum
    /// outside `[0, 1)`.
    pub fn validate(&self) {
        assert!(self.epochs > 0, "epochs must be positive");
        assert!(self.batch_size > 0, "batch size must be positive");
        assert!(self.learning_rate > 0.0, "learning rate must be positive");
        assert!(
            (0.0..1.0).contains(&self.momentum),
            "momentum must be in [0, 1)"
        );
        assert!(self.l2 >= 0.0, "l2 must be non-negative");
        if let Some(patience) = self.patience {
            assert!(patience > 0, "patience must be positive");
        }
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig::evaluation(0)
    }
}

/// The logistic sigmoid.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Binary cross-entropy loss for a probability and a boolean label.
pub fn bce_loss(p: f64, y: bool) -> f64 {
    let p = p.clamp(1e-12, 1.0 - 1e-12);
    if y {
        -p.ln()
    } else {
        -(1.0 - p).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_endpoints_and_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(50.0) > 0.999_999);
        assert!(sigmoid(-50.0) < 1e-6);
        for z in [-3.0, -0.5, 0.7, 4.0] {
            assert!((sigmoid(z) + sigmoid(-z) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sigmoid_is_numerically_stable() {
        assert_eq!(sigmoid(-1000.0), 0.0);
        assert_eq!(sigmoid(1000.0), 1.0);
        assert!(!sigmoid(-1000.0).is_nan());
    }

    #[test]
    fn bce_rewards_confident_correct_predictions() {
        assert!(bce_loss(0.99, true) < bce_loss(0.6, true));
        assert!(bce_loss(0.01, false) < bce_loss(0.4, false));
        assert!(bce_loss(0.01, true) > 4.0);
        // Extreme probabilities do not produce infinities.
        assert!(bce_loss(1.0, false).is_finite());
        assert!(bce_loss(0.0, true).is_finite());
    }

    #[test]
    fn configs_validate() {
        TrainConfig::fast(0).validate();
        TrainConfig::evaluation(0).validate();
        TrainConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn rejects_bad_momentum() {
        let mut c = TrainConfig::fast(0);
        c.momentum = 1.5;
        c.validate();
    }
}
