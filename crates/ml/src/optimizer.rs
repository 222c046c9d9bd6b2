//! First-order optimizers shared by the trainers.
//!
//! The classifier trains with mini-batch gradients; this module supplies
//! the update rule: classic SGD with momentum (the default — cheap and
//! well-behaved on the small models here) or Adam (faster convergence on
//! badly-scaled features, useful when the feature pipeline changes).

use serde::{Deserialize, Serialize};

/// The optimizer family and its hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Stochastic gradient descent with momentum (read from
    /// [`crate::train::TrainConfig::momentum`]).
    SgdMomentum,
    /// Adam with the standard defaults (beta1 = 0.9, beta2 = 0.999).
    Adam,
}

/// Per-parameter-group optimizer state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Optimizer {
    kind: OptimizerKind,
    momentum: f64,
    /// First-moment buffer (velocity for SGD, m for Adam).
    m: Vec<f64>,
    /// Second-moment buffer (Adam only).
    v: Vec<f64>,
    /// Step counter for Adam bias correction.
    t: u64,
}

const ADAM_BETA1: f64 = 0.9;
const ADAM_BETA2: f64 = 0.999;
const ADAM_EPSILON: f64 = 1e-8;

impl Optimizer {
    /// Creates an optimizer for a parameter group of `len` values.
    pub fn new(kind: OptimizerKind, momentum: f64, len: usize) -> Optimizer {
        Optimizer {
            kind,
            momentum,
            m: vec![0.0; len],
            v: if kind == OptimizerKind::Adam {
                vec![0.0; len]
            } else {
                Vec::new()
            },
            t: 0,
        }
    }

    /// Applies one update: `grads` are summed batch gradients, `scale`
    /// is `1 / batch_size`, `l2` is the weight-decay strength.
    ///
    /// # Panics
    ///
    /// Panics if the gradient length differs from the parameter length.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64], scale: f64, lr: f64, l2: f64) {
        assert_eq!(params.len(), grads.len(), "gradient length mismatch");
        assert_eq!(params.len(), self.m.len(), "optimizer state mismatch");
        self.t += 1;
        match self.kind {
            OptimizerKind::SgdMomentum => {
                for ((p, m), g) in params.iter_mut().zip(&mut self.m).zip(grads) {
                    *m = self.momentum * *m - lr * (g * scale + l2 * *p);
                    *p += *m;
                }
            }
            OptimizerKind::Adam => {
                let bias1 = 1.0 - ADAM_BETA1.powi(self.t as i32);
                let bias2 = 1.0 - ADAM_BETA2.powi(self.t as i32);
                for (((p, m), v), g) in params
                    .iter_mut()
                    .zip(&mut self.m)
                    .zip(&mut self.v)
                    .zip(grads)
                {
                    let grad = g * scale + l2 * *p;
                    *m = ADAM_BETA1 * *m + (1.0 - ADAM_BETA1) * grad;
                    *v = ADAM_BETA2 * *v + (1.0 - ADAM_BETA2) * grad * grad;
                    let m_hat = *m / bias1;
                    let v_hat = *v / bias2;
                    *p -= lr * m_hat / (v_hat.sqrt() + ADAM_EPSILON);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = (x - 3)^2 and checks convergence.
    fn minimize(kind: OptimizerKind, lr: f64, steps: usize) -> f64 {
        let mut params = vec![0.0f64];
        let mut opt = Optimizer::new(kind, 0.9, 1);
        for _ in 0..steps {
            let grad = 2.0 * (params[0] - 3.0);
            opt.step(&mut params, &[grad], 1.0, lr, 0.0);
        }
        params[0]
    }

    #[test]
    fn sgd_converges_on_a_quadratic() {
        let x = minimize(OptimizerKind::SgdMomentum, 0.05, 200);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn adam_converges_on_a_quadratic() {
        let x = minimize(OptimizerKind::Adam, 0.1, 500);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn adam_handles_badly_scaled_gradients() {
        // Two parameters with gradients differing by 1e4 in scale; Adam's
        // per-parameter normalization handles it in few steps.
        let mut params = vec![0.0f64, 0.0];
        let mut opt = Optimizer::new(OptimizerKind::Adam, 0.9, 2);
        for _ in 0..800 {
            let grads = [2.0 * (params[0] - 1.0) * 1e4, 2.0 * (params[1] - 1.0) * 1e-2];
            opt.step(&mut params, &grads, 1.0, 0.05, 0.0);
        }
        assert!((params[0] - 1.0).abs() < 0.05, "fast axis {}", params[0]);
        assert!((params[1] - 1.0).abs() < 0.2, "slow axis {}", params[1]);
    }

    #[test]
    fn l2_pulls_parameters_toward_zero() {
        let mut params = vec![5.0f64];
        let mut opt = Optimizer::new(OptimizerKind::SgdMomentum, 0.0, 1);
        for _ in 0..100 {
            opt.step(&mut params, &[0.0], 1.0, 0.1, 0.5);
        }
        assert!(params[0].abs() < 0.1, "param {}", params[0]);
    }

    #[test]
    #[should_panic(expected = "gradient length")]
    fn rejects_mismatched_gradients() {
        let mut opt = Optimizer::new(OptimizerKind::SgdMomentum, 0.9, 2);
        let mut params = vec![0.0; 2];
        opt.step(&mut params, &[1.0], 1.0, 0.1, 0.0);
    }
}
