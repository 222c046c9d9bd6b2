//! A one-hidden-layer multilayer perceptron for per-pixel classification.
//!
//! The model zoo maps each of the paper's segmentation architectures to an
//! MLP of a given hidden width over the pixel feature set: wider networks
//! stand in for deeper backbones. Training is plain mini-batch SGD with
//! momentum; ReLU hidden units; sigmoid output.

use crate::matrix::Matrix;
use crate::optimizer::Optimizer;
use crate::train::{bce_loss, sigmoid, TrainConfig};
use crate::PixelClassifier;
use kodan_wire::{Dec, Decode, Enc, Encode, WireError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// A binary MLP classifier with one ReLU hidden layer.
///
/// # Example
///
/// ```
/// use kodan_ml::mlp::Mlp;
/// use kodan_ml::train::TrainConfig;
/// use kodan_ml::PixelClassifier;
///
/// // XOR-ish: not linearly separable.
/// let xs = vec![
///     vec![0.0, 0.0], vec![1.0, 1.0], // negative
///     vec![0.0, 1.0], vec![1.0, 0.0], // positive
/// ];
/// let ys = vec![false, false, true, true];
/// let mut config = TrainConfig::fast(3);
/// config.epochs = 3000;
/// let model = Mlp::fit(&xs, &ys, 8, &config);
/// assert!(model.predict(&[0.0, 1.0]));
/// assert!(!model.predict(&[1.0, 1.0]));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    input_dim: usize,
    hidden: usize,
    /// Hidden weights, `hidden x input_dim`; a [`Matrix`] so the forward
    /// pass reuses the shared allocation-free matvec kernel.
    w1: Matrix,
    b1: Vec<f64>,
    /// Output weights, `hidden` long.
    w2: Vec<f64>,
    b2: f64,
}

impl Mlp {
    /// Trains an MLP with `hidden` ReLU units.
    ///
    /// # Panics
    ///
    /// Panics if the data is empty/ragged/mismatched, `hidden` is zero, or
    /// the config is invalid.
    pub fn fit(xs: &[Vec<f64>], ys: &[bool], hidden: usize, config: &TrainConfig) -> Mlp {
        assert!(!xs.is_empty(), "training data required");
        assert_eq!(xs.len(), ys.len(), "label count mismatch");
        let dim = xs[0].len();
        let mut x = Vec::with_capacity(xs.len() * dim);
        for row in xs {
            assert_eq!(row.len(), dim, "ragged rows");
            x.extend_from_slice(row);
        }
        Mlp::fit_flat(&x, dim, ys, hidden, config)
    }

    /// Trains on a flat row-major feature buffer (`rows * dim` long). This
    /// is the allocation-friendly entry point the Kodan pipeline uses,
    /// where features come straight out of the image feature extractor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches, zero `hidden`, or an invalid config.
    pub fn fit_flat(
        x: &[f64],
        dim: usize,
        y: &[bool],
        hidden: usize,
        config: &TrainConfig,
    ) -> Mlp {
        config.validate();
        assert!(hidden > 0, "hidden units required");
        assert!(dim > 0, "features required");
        assert!(!x.is_empty(), "training data required");
        assert_eq!(x.len() % dim, 0, "buffer not a multiple of dim");
        let n = x.len() / dim;
        assert_eq!(n, y.len(), "label count mismatch");

        let mut rng = ChaCha12Rng::seed_from_u64(config.seed ^ 0x371F);
        // He-style initialization for ReLU.
        let scale = (2.0 / dim as f64).sqrt();
        let mut w1: Vec<f64> = (0..hidden * dim)
            .map(|_| rng.random_range(-scale..scale))
            .collect();
        let mut b1 = vec![0.0f64; hidden];
        let out_scale = (1.0 / hidden as f64).sqrt();
        let mut w2: Vec<f64> = (0..hidden)
            .map(|_| rng.random_range(-out_scale..out_scale))
            .collect();
        let b2 = 0.0f64;

        let mut opt_w1 = Optimizer::new(config.optimizer, config.momentum, hidden * dim);
        let mut opt_b1 = Optimizer::new(config.optimizer, config.momentum, hidden);
        let mut opt_w2 = Optimizer::new(config.optimizer, config.momentum, hidden);
        let mut opt_b2 = Optimizer::new(config.optimizer, config.momentum, 1);
        let mut b2_group = vec![b2];

        let mut order: Vec<usize> = (0..n).collect();
        let mut act = vec![0.0f64; hidden];
        let mut best_loss = f64::INFINITY;
        let mut stale_epochs = 0usize;
        for _ in 0..config.epochs {
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0;
            for batch in order.chunks(config.batch_size) {
                let mut g_w1 = vec![0.0; hidden * dim];
                let mut g_b1 = vec![0.0; hidden];
                let mut g_w2 = vec![0.0; hidden];
                let mut g_b2 = 0.0;
                for &i in batch {
                    let row = &x[i * dim..(i + 1) * dim];
                    // Forward.
                    for h in 0..hidden {
                        let z = b1[h]
                            + w1[h * dim..(h + 1) * dim]
                                .iter()
                                .zip(row)
                                .map(|(w, v)| w * v)
                                .sum::<f64>();
                        act[h] = z.max(0.0);
                    }
                    let z_out =
                        b2_group[0] + w2.iter().zip(&act).map(|(w, a)| w * a).sum::<f64>();
                    let p = sigmoid(z_out);
                    epoch_loss += bce_loss(p, y[i]);
                    // Backward.
                    let err = p - if y[i] { 1.0 } else { 0.0 };
                    g_b2 += err;
                    for h in 0..hidden {
                        g_w2[h] += err * act[h];
                        if act[h] > 0.0 {
                            let delta = err * w2[h];
                            g_b1[h] += delta;
                            let g_row = &mut g_w1[h * dim..(h + 1) * dim];
                            for (g, v) in g_row.iter_mut().zip(row) {
                                *g += delta * v;
                            }
                        }
                    }
                }
                let scale = 1.0 / batch.len() as f64;
                opt_w1.step(&mut w1, &g_w1, scale, config.learning_rate, config.l2);
                opt_b1.step(&mut b1, &g_b1, scale, config.learning_rate, 0.0);
                opt_w2.step(&mut w2, &g_w2, scale, config.learning_rate, config.l2);
                opt_b2.step(&mut b2_group, &[g_b2], scale, config.learning_rate, 0.0);
            }
            if let Some(patience) = config.patience {
                if epoch_loss < best_loss - 1e-9 {
                    best_loss = epoch_loss;
                    stale_epochs = 0;
                } else {
                    stale_epochs += 1;
                    if stale_epochs >= patience {
                        break;
                    }
                }
            }
        }

        Mlp {
            input_dim: dim,
            hidden,
            w1: Matrix::from_flat(hidden, dim, w1),
            b1,
            w2,
            b2: b2_group[0],
        }
    }

    /// Fused batch forward pass: classifies every `row_stride`-strided
    /// feature row of `x` (only the first `input_dim` features of each
    /// row are read) and fills `out` with the probabilities, reusing one
    /// hidden-activation scratch buffer across the whole batch instead
    /// of allocating per prediction. Results are bit-identical to
    /// calling [`PixelClassifier::predict_proba`] row by row.
    ///
    /// # Panics
    ///
    /// Panics if `row_stride < input_dim` or `x.len()` is not a multiple
    /// of `row_stride`.
    pub fn predict_proba_batch_into(&self, x: &[f64], row_stride: usize, out: &mut Vec<f64>) {
        assert!(
            row_stride >= self.input_dim,
            "row stride {} below input dim {}",
            row_stride,
            self.input_dim
        );
        assert_eq!(x.len() % row_stride, 0, "buffer not a multiple of stride");
        let n = x.len() / row_stride;
        out.clear();
        out.reserve(n);
        let mut act = vec![0.0f64; self.hidden];
        for i in 0..n {
            let row = &x[i * row_stride..i * row_stride + self.input_dim];
            self.w1.matvec_into(row, &mut act);
            let mut z_out = self.b2;
            for h in 0..self.hidden {
                // b1[h] + dot keeps the operand order of the per-row
                // path, so z (and the probability) match bitwise.
                let z = self.b1[h] + act[h];
                if z > 0.0 {
                    z_out += self.w2[h] * z;
                }
            }
            out.push(sigmoid(z_out));
        }
    }

    /// Number of hidden units.
    pub fn hidden_units(&self) -> usize {
        self.hidden
    }

    /// Approximate f64 multiply-accumulate count per prediction, used by
    /// the hardware latency model to scale specialized-model cost. The
    /// quantized counterpart is
    /// [`crate::quant::QuantizedMlp::int_ops_per_prediction`].
    pub fn ops_per_prediction(&self) -> usize {
        self.hidden * self.input_dim + self.hidden
    }

    /// Per-prediction `(float_ops, int_ops)` split; the reference
    /// network is all-float. Keeps DVD/latency accounting honest about
    /// which kernel kind actually runs — compare
    /// [`crate::quant::QuantizedMlp::ops_split`].
    pub fn ops_split(&self) -> (usize, usize) {
        (self.ops_per_prediction(), 0)
    }

    /// Quantizes this network into its i16/i32 fixed-point inference
    /// form (see [`crate::quant`]). The result carries this model's
    /// [`Mlp::weight_checksum`] as its provenance tag so a deployed
    /// f64/quantized pair can be re-verified as belonging together.
    pub fn quantize(&self) -> crate::quant::QuantizedMlp {
        crate::quant::QuantizedMlp::from_f64_parts(
            &self.w1,
            &self.b1,
            &self.w2,
            self.b2,
            self.weight_checksum(),
        )
    }

    /// Total trainable parameters: `w1`, `b1`, `w2` and `b2`.
    pub fn param_count(&self) -> usize {
        self.hidden * self.input_dim + self.hidden + self.hidden + 1
    }

    /// FNV-1a checksum over the exact bit patterns of every parameter, in
    /// the fixed order `w1` (row-major), `b1`, `w2`, `b2`.
    ///
    /// This is the integrity tag the runtime's degradation policy checks
    /// before trusting a specialized model: any single flipped weight bit
    /// changes the checksum, and the sum itself depends only on the
    /// weights, never on wall time or layout.
    pub fn weight_checksum(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: f64| {
            h ^= v.to_bits();
            h = h.wrapping_mul(FNV_PRIME);
        };
        for r in 0..self.hidden {
            for c in 0..self.input_dim {
                mix(self.w1[(r, c)]);
            }
        }
        for &v in &self.b1 {
            mix(v);
        }
        for &v in &self.w2 {
            mix(v);
        }
        mix(self.b2);
        h
    }

    /// Flips one bit of one parameter — a modeled single-event upset.
    ///
    /// `index` addresses the flattened parameter vector in the same order
    /// as [`Mlp::weight_checksum`] and is reduced modulo
    /// [`Mlp::param_count`]; `bit` is reduced modulo 64. Deliberately
    /// total: fault injection must never panic, whatever the raw fault
    /// coordinates drawn by the plan.
    pub fn flip_weight_bit(&mut self, index: u64, bit: u32) {
        let index = (index % self.param_count() as u64) as usize;
        let mask = 1u64 << (bit % 64);
        let flip = |v: &mut f64| *v = f64::from_bits(v.to_bits() ^ mask);
        let w1_len = self.hidden * self.input_dim;
        if index < w1_len {
            let (r, c) = (index / self.input_dim, index % self.input_dim);
            flip(&mut self.w1[(r, c)]);
        } else if index < w1_len + self.hidden {
            flip(&mut self.b1[index - w1_len]);
        } else if index < w1_len + 2 * self.hidden {
            flip(&mut self.w2[index - w1_len - self.hidden]);
        } else {
            flip(&mut self.b2);
        }
    }
}

impl PixelClassifier for Mlp {
    fn predict_proba(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.input_dim, "dimension mismatch");
        let mut z_out = self.b2;
        for h in 0..self.hidden {
            let z = self.b1[h]
                + self
                    .w1
                    .row(h)
                    .iter()
                    .zip(features)
                    .map(|(w, v)| w * v)
                    .sum::<f64>();
            if z > 0.0 {
                z_out += self.w2[h] * z;
            }
        }
        sigmoid(z_out)
    }

    fn input_dim(&self) -> usize {
        self.input_dim
    }
}

impl Encode for Mlp {
    fn encode(&self, enc: &mut Enc) {
        enc.usize(self.input_dim);
        enc.usize(self.hidden);
        self.w1.encode(enc);
        self.b1.encode(enc);
        self.w2.encode(enc);
        enc.f64(self.b2);
    }
}

impl Decode for Mlp {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        let input_dim = dec.usize()?;
        let hidden = dec.usize()?;
        if input_dim == 0 || hidden == 0 {
            return Err(WireError::InvalidValue("mlp dimension zero"));
        }
        let w1 = Matrix::decode(dec)?;
        let b1 = Vec::<f64>::decode(dec)?;
        let w2 = Vec::<f64>::decode(dec)?;
        let b2 = dec.f64()?;
        // Shape invariants keep every later forward pass panic-free.
        if w1.rows() != hidden || w1.cols() != input_dim || b1.len() != hidden
            || w2.len() != hidden
        {
            return Err(WireError::InvalidValue("mlp layer shape mismatch"));
        }
        Ok(Mlp {
            input_dim,
            hidden,
            w1,
            b1,
            w2,
            b2,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn circle_data(n: usize) -> (Vec<Vec<f64>>, Vec<bool>) {
        // Positive inside a circle — not linearly separable.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let a = (i % 20) as f64 / 10.0 - 1.0;
            let b = ((i / 20) % 20) as f64 / 10.0 - 1.0;
            xs.push(vec![a, b]);
            ys.push(a * a + b * b < 0.5);
        }
        (xs, ys)
    }

    #[test]
    fn learns_nonlinear_boundary() {
        let (xs, ys) = circle_data(400);
        let mut config = TrainConfig::fast(1);
        config.epochs = 300;
        config.learning_rate = 0.3;
        let model = Mlp::fit(&xs, &ys, 16, &config);
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| model.predict(x) == y)
            .count();
        assert!(
            correct as f64 / xs.len() as f64 > 0.9,
            "accuracy {correct}/400"
        );
        // Deep inside each class the probability is extreme.
        assert!(model.predict_proba(&[0.0, 0.0]) > 0.9);
        assert!(model.predict_proba(&[-1.0, -1.0]) < 0.1);
    }

    fn accuracy(model: &Mlp, xs: &[Vec<f64>], ys: &[bool]) -> f64 {
        let correct = xs
            .iter()
            .zip(ys)
            .filter(|(x, &y)| model.predict(x) == y)
            .count();
        correct as f64 / xs.len() as f64
    }

    #[test]
    fn flat_entry_point_matches_nested() {
        let (xs, ys) = circle_data(100);
        let nested = Mlp::fit(&xs, &ys, 8, &TrainConfig::fast(3));
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        assert_eq!(
            nested,
            Mlp::fit_flat(&flat, 2, &ys, 8, &TrainConfig::fast(3))
        );
    }

    #[test]
    fn l2_shrinks_weights() {
        let (xs, ys) = circle_data(100);
        let fit = |l2: f64| {
            let config = TrainConfig {
                l2,
                ..TrainConfig::fast(1)
            };
            Mlp::fit(&xs, &ys, 8, &config)
        };
        let norm = |m: &Mlp| {
            m.w1.as_slice()
                .iter()
                .chain(&m.w2)
                .map(|w| w * w)
                .sum::<f64>()
        };
        assert!(norm(&fit(0.1)) < norm(&fit(0.0)));
    }

    #[test]
    fn adam_also_learns_the_data() {
        let (xs, ys) = circle_data(400);
        let config = TrainConfig {
            optimizer: crate::optimizer::OptimizerKind::Adam,
            learning_rate: 0.05,
            epochs: 300,
            ..TrainConfig::fast(1)
        };
        let acc = accuracy(&Mlp::fit(&xs, &ys, 16, &config), &xs, &ys);
        assert!(acc > 0.9, "adam accuracy {acc}");
    }

    #[test]
    fn patience_stops_training_without_breaking_the_model() {
        let (xs, ys) = circle_data(400);
        let config = |epochs: usize| TrainConfig {
            epochs,
            patience: Some(3),
            ..TrainConfig::fast(1)
        };
        let stopped = Mlp::fit(&xs, &ys, 16, &config(2000));
        // Training stopped early: a longer budget trains the same model.
        assert_eq!(stopped, Mlp::fit(&xs, &ys, 16, &config(4000)));
        // Still a working classifier.
        assert!(accuracy(&stopped, &xs, &ys) > 0.9);
    }

    #[test]
    #[should_panic(expected = "label count mismatch")]
    fn rejects_mismatched_labels() {
        let _ = Mlp::fit(&[vec![1.0]], &[true, false], 4, &TrainConfig::fast(0));
    }

    #[test]
    fn deterministic_for_seed() {
        let (xs, ys) = circle_data(100);
        let config = TrainConfig::fast(9);
        assert_eq!(Mlp::fit(&xs, &ys, 8, &config), Mlp::fit(&xs, &ys, 8, &config));
        assert_ne!(
            Mlp::fit(&xs, &ys, 8, &config),
            Mlp::fit(&xs, &ys, 8, &TrainConfig::fast(10))
        );
    }

    #[test]
    fn ops_scale_with_width() {
        let (xs, ys) = circle_data(40);
        let config = TrainConfig::fast(1);
        let small = Mlp::fit(&xs, &ys, 4, &config);
        let large = Mlp::fit(&xs, &ys, 16, &config);
        assert_eq!(small.ops_per_prediction() * 4, large.ops_per_prediction());
        assert_eq!(small.hidden_units(), 4);
    }

    #[test]
    fn probabilities_valid() {
        let (xs, ys) = circle_data(100);
        let model = Mlp::fit(&xs, &ys, 8, &TrainConfig::fast(1));
        for x in &xs {
            let p = model.predict_proba(x);
            assert!((0.0..=1.0).contains(&p), "p = {p}");
        }
        assert_eq!(model.input_dim(), 2);
    }

    #[test]
    #[should_panic(expected = "hidden units")]
    fn rejects_zero_hidden() {
        let _ = Mlp::fit(&[vec![1.0]], &[true], 0, &TrainConfig::fast(0));
    }

    #[test]
    fn batch_forward_matches_per_row_bitwise() {
        let (xs, ys) = circle_data(120);
        let model = Mlp::fit(&xs, &ys, 8, &TrainConfig::fast(5));
        // Exact stride: rows laid out back to back.
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let mut batch = Vec::new();
        model.predict_proba_batch_into(&flat, 2, &mut batch);
        assert_eq!(batch.len(), xs.len());
        for (x, p) in xs.iter().zip(&batch) {
            assert_eq!(model.predict_proba(x), *p, "bitwise mismatch at {x:?}");
        }
        // Wider stride: only the first input_dim features of each row are
        // read, as when a feature budget trims a fixed-width buffer.
        let padded: Vec<f64> = xs
            .iter()
            .flat_map(|x| [x[0], x[1], 99.0, -99.0])
            .collect();
        let mut strided = Vec::new();
        model.predict_proba_batch_into(&padded, 4, &mut strided);
        assert_eq!(batch, strided);
        // The output buffer is reused, not appended to.
        model.predict_proba_batch_into(&flat, 2, &mut strided);
        assert_eq!(batch, strided);
    }

    #[test]
    fn checksum_detects_every_single_bit_flip() {
        let (xs, ys) = circle_data(60);
        let model = Mlp::fit(&xs, &ys, 4, &TrainConfig::fast(3));
        let clean = model.weight_checksum();
        // Deterministic: recomputing never drifts.
        assert_eq!(clean, model.weight_checksum());
        assert_eq!(model.param_count(), 4 * 2 + 4 + 4 + 1);
        // Flip any parameter's bit anywhere: checksum must change, and
        // flipping it back must restore the original sum exactly.
        for index in 0..model.param_count() as u64 {
            let mut corrupt = model.clone();
            corrupt.flip_weight_bit(index, (index % 64) as u32);
            assert_ne!(
                corrupt.weight_checksum(),
                clean,
                "flip at {index} went undetected"
            );
            corrupt.flip_weight_bit(index, (index % 64) as u32);
            assert_eq!(corrupt.weight_checksum(), clean);
        }
        // Out-of-range fault coordinates reduce instead of panicking.
        let mut wrapped = model.clone();
        wrapped.flip_weight_bit(u64::MAX, 200);
        assert_ne!(wrapped.weight_checksum(), clean);
    }

    #[test]
    fn batch_forward_handles_empty_input() {
        let (xs, ys) = circle_data(40);
        let model = Mlp::fit(&xs, &ys, 4, &TrainConfig::fast(5));
        let mut out = vec![0.5; 3];
        model.predict_proba_batch_into(&[], 2, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "row stride")]
    fn batch_forward_rejects_narrow_stride() {
        let (xs, ys) = circle_data(40);
        let model = Mlp::fit(&xs, &ys, 4, &TrainConfig::fast(5));
        let mut out = Vec::new();
        model.predict_proba_batch_into(&[1.0], 1, &mut out);
    }
}
