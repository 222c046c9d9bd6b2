//! A one-hidden-layer multilayer perceptron for per-pixel classification.
//!
//! The model zoo maps each of the paper's segmentation architectures to an
//! MLP of a given hidden width over the pixel feature set: wider networks
//! stand in for deeper backbones. Training is plain mini-batch SGD with
//! momentum; ReLU hidden units; sigmoid output.
//!
//! # The blocked f64 kernel
//!
//! Every f64 forward pass (tile inference, mask prediction and the
//! training minibatches) runs one blocked hidden-layer kernel, the f64
//! twin of [`crate::quant::QuantizedMlp`]'s integer one. Rows are staged
//! `BLOCK` (8) at a time and transposed (`xt[c * BLOCK + p]`), so the
//! multiply-adds run across independent rows and vectorize, while each
//! row's dot product still folds `c = 0..dim` from `-0.0`, exactly as
//! `Iterator::sum::<f64>` does, before `b1[h] + dot`. The feature count
//! is dispatched as a literal for the zoo's budgets, like the integer
//! kernel's. Staging, activation and gradient buffers are allocated once
//! per call or fit. Blocking only interleaves independent rows, and four
//! rules keep every probability, mask and trained weight bit-identical
//! to the per-row forms the kernel replaced:
//!
//! - **Inference output layer.** The logit starts at `b2` and adds
//!   `w2[h] * z` for ascending `h` only where `z > 0`. The branch-free
//!   form *selects* the unchanged sum for an inactive unit: adding
//!   `w2[h] * 0` instead would turn an infinite weight (one flipped
//!   exponent bit) into NaN, and adding `+0.0` would flip a `-0.0` sum.
//! - **Mask path.** [`Mlp::predict_mask_batch_into`] decides most rows
//!   from the logit's sign and evaluates the sigmoid only in a sliver
//!   below zero (see `logit_mask` for the proof).
//! - **Training output layer.** Training keeps its own form,
//!   `b2 + sum_h w2[h] * act[h]` with `act = z.max(0.0)`: a sum from
//!   `-0.0` over every unit. It differs from inference in the last bits,
//!   so the two stay separate.
//! - **Training backward pass.** Each gradient element accumulates over
//!   the minibatch's rows in batch order. An inactive unit leaves its
//!   `g_b1`/`g_w1` entries untouched by selecting the old value, never
//!   by adding a masked delta (`0 * inf` is NaN).

use crate::matrix::Matrix;
use crate::optimizer::Optimizer;
use crate::train::{bce_loss, sigmoid, TrainConfig};
use kodan_wire::{Dec, Decode, Enc, Encode, WireError};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// Rows per block in the blocked kernel. Inner loops run across this
/// many independent rows at once, which is what lets the f64
/// multiply-adds vectorize.
const BLOCK: usize = 8;

/// Below zero, the logits whose mask still evaluates the sigmoid (see
/// [`logit_mask`]).
const MASK_BAND: f64 = 1e-9;

/// `sigmoid(z) >= 0.5`, the [`Mlp::predict`] threshold,
/// with the sigmoid evaluated only for `z` in `[-MASK_BAND, 0)` or NaN.
/// The proof assumes only that libm's `exp` is faithfully rounded.
///
/// - `z >= 0`: `sigmoid` computes `1 / (1 + exp(-z))` with
///   `exp(-z) <= 1`, so the denominator rounds to at most 2 and the
///   quotient to at least 0.5. True.
/// - `z < 0`: it computes `e / (1 + e)` with `e = exp(z)`, and the
///   quotient rounds below 0.5 whenever `e < 1`. For `e <= 1 - 2^-52`
///   the denominator `fl(1 + e)` is below 2 and at least `1 + e - 2^-53`,
///   so the exact quotient lies more than `2^-55` (half an ulp) under
///   0.5. For `e = 1 - 2^-53`, `1 + e` rounds to 2 (ties to even) and
///   the quotient is exactly `0.5 - 2^-54`. So the mask is true only when
///   `exp(z)` rounds to exactly 1, which happens for `z` within about
///   `2^-54` of zero.
/// - `z < -MASK_BAND`: `exp(z) < 1 - 9e-10`, tens of millions of ulps
///   below 1, so `e < 1`. False.
///
/// The band between, and NaN (which `sigmoid` maps to NaN, hence
/// false), take the sigmoid itself, so every mask bit equals
/// thresholding the probability.
#[inline]
fn logit_mask(z: f64) -> bool {
    let positive = z >= 0.0;
    if positive || z < -MASK_BAND {
        positive
    } else {
        sigmoid(z) >= 0.5
    }
}

/// Copies `rows` (the first `dim` features of each) into `xt`
/// transposed, `xt[c * BLOCK + p]` for row `p`. Lanes past the last row
/// keep what the previous block left; their results are never read.
#[inline(always)]
fn stage<'a>(dim: usize, rows: impl Iterator<Item = &'a [f64]>, xt: &mut [f64]) {
    for (p, row) in rows.enumerate() {
        for (c, &v) in row[..dim].iter().enumerate() {
            xt[c * BLOCK + p] = v;
        }
    }
}

/// The blocked hidden layer for one staged block:
/// `z[h * BLOCK + p] = b1[h] + sum_c w1[h * dim + c] * xt[c * BLOCK + p]`,
/// the dot folded from `-0.0` in column order before the bias is added.
/// `dim` is a literal at every call site that matters (see
/// [`Mlp::predict_logits`]).
#[inline(always)]
fn hidden_layer(dim: usize, w1: &[f64], b1: &[f64], xt: &[f64], z: &mut [f64]) {
    let columns = &xt[..dim * BLOCK];
    for ((w_row, &bias), lanes) in w1.chunks_exact(dim).zip(b1).zip(z.chunks_exact_mut(BLOCK)) {
        let mut dot = [-0.0f64; BLOCK];
        for (&w, col) in w_row.iter().zip(columns.chunks_exact(BLOCK)) {
            for (d, &v) in dot.iter_mut().zip(col) {
                *d += w * v;
            }
        }
        for (slot, d) in lanes.iter_mut().zip(dot) {
            *slot = bias + d;
        }
    }
}

/// A binary MLP classifier with one ReLU hidden layer.
///
/// # Example
///
/// ```
/// use kodan_ml::mlp::Mlp;
/// use kodan_ml::train::TrainConfig;
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
    /// Hidden weights, `hidden x input_dim`, row-major: the blocked
    /// kernel reads row `h` as one contiguous slice.
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
    /// Each minibatch's forward pass runs the blocked kernel (see the
    /// module docs); the trained weights are bit-identical to a
    /// row-at-a-time pass.
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
        assert_eq!(x.len() / dim, y.len(), "label count mismatch");
        // The zoo's feature budgets as literals, as in `predict_logits`.
        match dim {
            6 => Mlp::fit_blocked(6, x, y, hidden, config),
            8 => Mlp::fit_blocked(8, x, y, hidden, config),
            9 => Mlp::fit_blocked(9, x, y, hidden, config),
            10 => Mlp::fit_blocked(10, x, y, hidden, config),
            11 => Mlp::fit_blocked(11, x, y, hidden, config),
            12 => Mlp::fit_blocked(12, x, y, hidden, config),
            d => Mlp::fit_blocked(d, x, y, hidden, config),
        }
    }

    /// The body of [`Mlp::fit_flat`], with `dim` pinned to a literal by
    /// the dispatch there.
    #[inline(always)]
    fn fit_blocked(dim: usize, x: &[f64], y: &[bool], hidden: usize, config: &TrainConfig) -> Mlp {
        let n = y.len();
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
        // Staging and gradient buffers, reused by every minibatch.
        let mut xt = vec![0.0f64; dim * BLOCK];
        let mut act = vec![0.0f64; hidden * BLOCK];
        let mut err = [0.0f64; BLOCK];
        let mut g_w1 = vec![0.0f64; hidden * dim];
        let mut g_b1 = vec![0.0f64; hidden];
        let mut g_w2 = vec![0.0f64; hidden];
        let row = |i: usize| &x[i * dim..(i + 1) * dim];
        let mut best_loss = f64::INFINITY;
        let mut stale_epochs = 0usize;
        for _ in 0..config.epochs {
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0;
            for batch in order.chunks(config.batch_size) {
                g_w1.fill(0.0);
                g_b1.fill(0.0);
                g_w2.fill(0.0);
                let mut g_b2 = 0.0;
                for block in batch.chunks(BLOCK) {
                    // Forward: the training output layer sums every
                    // unit's `w2[h] * act[h]` from -0.0, then adds b2.
                    stage(dim, block.iter().map(|&i| row(i)), &mut xt);
                    hidden_layer(dim, &w1, &b1, &xt, &mut act);
                    for a in act.iter_mut() {
                        *a = a.max(0.0);
                    }
                    let mut sums = [-0.0f64; BLOCK];
                    for (&w, lanes) in w2.iter().zip(act.chunks_exact(BLOCK)) {
                        for (s, &a) in sums.iter_mut().zip(lanes) {
                            *s += w * a;
                        }
                    }
                    for ((e, &s), &i) in err.iter_mut().zip(&sums).zip(block) {
                        let p = sigmoid(b2_group[0] + s);
                        epoch_loss += bce_loss(p, y[i]);
                        *e = p - if y[i] { 1.0 } else { 0.0 };
                    }
                    // Backward, row by row in batch order.
                    for (p, (&e, &i)) in err.iter().zip(block).enumerate() {
                        let v_row = row(i);
                        g_b2 += e;
                        for (h, g_row) in g_w1.chunks_exact_mut(dim).enumerate() {
                            let a = act[h * BLOCK + p];
                            g_w2[h] += e * a;
                            let active = a > 0.0;
                            let delta = e * w2[h];
                            let g = g_b1[h] + delta;
                            g_b1[h] = if active { g } else { g_b1[h] };
                            for (g, &v) in g_row.iter_mut().zip(v_row) {
                                let next = *g + delta * v;
                                *g = if active { next } else { *g };
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
    /// row are read) and fills `out` with the probabilities. Rows run
    /// through the blocked kernel eight at a time, with one staging
    /// buffer for the whole call. Results are bit-identical to calling
    /// [`Mlp::predict_proba`] row by row.
    ///
    /// # Panics
    ///
    /// Panics if `row_stride < input_dim` or `x.len()` is not a multiple
    /// of `row_stride`.
    pub fn predict_proba_batch_into(&self, x: &[f64], row_stride: usize, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.batch_check(x, row_stride));
        self.predict_logits(x, row_stride, |logits| {
            out.extend(logits.iter().map(|&z| sigmoid(z)));
        });
    }

    /// Fused batch *mask* forward pass: like
    /// [`Mlp::predict_proba_batch_into`], but fills `out` with the
    /// thresholded `p >= 0.5` decision. It evaluates the sigmoid only
    /// for the rare logits just below zero (see the module docs), and its
    /// output is bit-identical to thresholding the probabilities. This
    /// is the kernel f64 tile prediction runs.
    ///
    /// # Panics
    ///
    /// Panics if `row_stride < input_dim` or `x.len()` is not a multiple
    /// of `row_stride`.
    pub fn predict_mask_batch_into(&self, x: &[f64], row_stride: usize, out: &mut Vec<bool>) {
        out.clear();
        out.reserve(self.batch_check(x, row_stride));
        self.predict_logits(x, row_stride, |logits| {
            out.extend(logits.iter().map(|&z| logit_mask(z)));
        });
    }

    /// Shared batch-entry validation; returns the row count.
    fn batch_check(&self, x: &[f64], row_stride: usize) -> usize {
        assert!(
            row_stride >= self.input_dim,
            "row stride {} below input dim {}",
            row_stride,
            self.input_dim
        );
        assert_eq!(x.len() % row_stride, 0, "buffer not a multiple of stride");
        x.len() / row_stride
    }

    /// The inference forward pass every f64 prediction runs: computes
    /// the output logit of each `row_stride`-strided row of `x` and
    /// hands each block of them to `emit`, in row order. Callers have
    /// checked the shape (`row_stride >= input_dim`, whole rows).
    fn predict_logits<E: FnMut(&[f64])>(&self, x: &[f64], row_stride: usize, emit: E) {
        // The blocked loops unroll fully when the feature count is a
        // compile-time constant: ~8 % off a batch of app-4
        // probabilities and ~4 % off training on the 2-vCPU x86-64 host.
        // Dispatching a literal into an always-inlined body
        // monomorphizes each width without duplicating the kernel. The
        // arms are the model zoo's widths: a specialized model's input
        // width is its architecture's `ModelArch::feature_budget`, and a
        // test holds every budget to these arms. Any other width runs
        // the same code with a runtime count, bit-identically.
        match self.input_dim {
            6 => self.predict_logits_blocked(6, x, row_stride, emit),
            8 => self.predict_logits_blocked(8, x, row_stride, emit),
            9 => self.predict_logits_blocked(9, x, row_stride, emit),
            10 => self.predict_logits_blocked(10, x, row_stride, emit),
            11 => self.predict_logits_blocked(11, x, row_stride, emit),
            12 => self.predict_logits_blocked(12, x, row_stride, emit),
            d => self.predict_logits_blocked(d, x, row_stride, emit),
        }
    }

    /// The body of [`Mlp::predict_logits`]; `dim` is always
    /// `self.input_dim`, passed separately so the dispatch can pin it to
    /// a literal.
    #[inline(always)]
    fn predict_logits_blocked<E: FnMut(&[f64])>(
        &self,
        dim: usize,
        x: &[f64],
        row_stride: usize,
        mut emit: E,
    ) {
        let mut xt = vec![0.0f64; dim * BLOCK];
        let mut z = vec![0.0f64; self.hidden * BLOCK];
        for block in x.chunks(BLOCK * row_stride) {
            stage(dim, block.chunks_exact(row_stride), &mut xt);
            hidden_layer(dim, self.w1.as_slice(), &self.b1, &xt, &mut z);
            // The inference output layer: from b2, add `w2[h] * z` for
            // ascending h only where `z > 0`, selecting the unchanged
            // sum otherwise (see the module docs).
            let mut logits = [self.b2; BLOCK];
            for (&w, lanes) in self.w2.iter().zip(z.chunks_exact(BLOCK)) {
                for (l, &zv) in logits.iter_mut().zip(lanes) {
                    let sum = *l + w * zv;
                    *l = if zv > 0.0 { sum } else { *l };
                }
            }
            emit(&logits[..block.len() / row_stride]);
        }
    }

    /// Probability that one sample is positive (high-value / clear).
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` is not [`Mlp::input_dim`].
    pub fn predict_proba(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.input_dim, "dimension mismatch");
        let mut p = f64::NAN;
        self.predict_logits(features, self.input_dim, |logits| {
            if let [z] = logits {
                p = sigmoid(*z);
            }
        });
        p
    }

    /// Hard decision at the 0.5 threshold.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` is not [`Mlp::input_dim`].
    pub fn predict(&self, features: &[f64]) -> bool {
        self.predict_proba(features) >= 0.5
    }

    /// Number of input features.
    pub fn input_dim(&self) -> usize {
        self.input_dim
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
    /// network is all-float.
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
    use crate::optimizer::OptimizerKind;
    use proptest::prelude::*;

    /// The per-row batch forward pass the blocked kernel replaced, kept
    /// as the reference it must match bit for bit: one matvec per row,
    /// then the inference output layer with a branch per unit.
    fn reference_probabilities(model: &Mlp, x: &[f64], row_stride: usize) -> Vec<f64> {
        let mut act = vec![0.0f64; model.hidden];
        x.chunks_exact(row_stride)
            .map(|row| {
                model.w1.matvec_into(&row[..model.input_dim], &mut act);
                let mut z_out = model.b2;
                for h in 0..model.hidden {
                    let z = model.b1[h] + act[h];
                    if z > 0.0 {
                        z_out += model.w2[h] * z;
                    }
                }
                sigmoid(z_out)
            })
            .collect()
    }

    /// The per-row trainer the blocked kernel replaced, kept as the
    /// reference it must match bit for bit: a scalar forward and
    /// backward pass per row, and fresh gradient buffers per minibatch.
    fn reference_fit_flat(
        x: &[f64],
        dim: usize,
        y: &[bool],
        hidden: usize,
        config: &TrainConfig,
    ) -> Mlp {
        let n = x.len() / dim;
        let mut rng = ChaCha12Rng::seed_from_u64(config.seed ^ 0x371F);
        let scale = (2.0 / dim as f64).sqrt();
        let mut w1: Vec<f64> = (0..hidden * dim)
            .map(|_| rng.random_range(-scale..scale))
            .collect();
        let mut b1 = vec![0.0f64; hidden];
        let out_scale = (1.0 / hidden as f64).sqrt();
        let mut w2: Vec<f64> = (0..hidden)
            .map(|_| rng.random_range(-out_scale..out_scale))
            .collect();
        let mut opt_w1 = Optimizer::new(config.optimizer, config.momentum, hidden * dim);
        let mut opt_b1 = Optimizer::new(config.optimizer, config.momentum, hidden);
        let mut opt_w2 = Optimizer::new(config.optimizer, config.momentum, hidden);
        let mut opt_b2 = Optimizer::new(config.optimizer, config.momentum, 1);
        let mut b2_group = vec![0.0f64];
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
                    for h in 0..hidden {
                        let z = b1[h]
                            + w1[h * dim..(h + 1) * dim]
                                .iter()
                                .zip(row)
                                .map(|(w, v)| w * v)
                                .sum::<f64>();
                        act[h] = z.max(0.0);
                    }
                    let z_out = b2_group[0] + w2.iter().zip(&act).map(|(w, a)| w * a).sum::<f64>();
                    let p = sigmoid(z_out);
                    epoch_loss += bce_loss(p, y[i]);
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

    /// The values `stress_values` mixes in: ±0, subnormals, ±inf, NaN.
    const SPECIALS: [f64; 8] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 16.0,
        -f64::MIN_POSITIVE / 3.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        0.0,
    ];

    /// Deterministic values: mostly in `[-scale, scale)`, and with
    /// `specials` one in eight drawn from [`SPECIALS`].
    fn stress_values(seed: u64, n: usize, scale: f64, specials: bool) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                if specials && state >> 61 == 0 {
                    SPECIALS[(state >> 8) as usize % SPECIALS.len()]
                } else {
                    ((state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * scale
                }
            })
            .collect()
    }

    /// Bit equality, except that every NaN equals every other: Rust
    /// leaves the payload of a NaN result unspecified.
    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x.is_nan() && y.is_nan()) || x.to_bits() == y.to_bits())
    }

    /// Every parameter, in [`Mlp::weight_checksum`] order.
    fn params(model: &Mlp) -> Vec<f64> {
        let mut all = model.w1.as_slice().to_vec();
        all.extend(&model.b1);
        all.extend(&model.w2);
        all.push(model.b2);
        all
    }

    /// A model with pseudo-random weights; some are exactly ±0, and the
    /// output bias is ±0 on every fourth seed. On every fourth seed the
    /// output weights also take ±inf and NaN, as a flipped exponent bit
    /// would leave them, so an inactive unit must be skipped rather
    /// than added as `w2[h] * 0`.
    fn random_model(seed: u64, dim: usize, hidden: usize) -> Mlp {
        let mut w1 = stress_values(seed, hidden * dim, 1.5, false);
        for w in w1.iter_mut().step_by(7) {
            *w = if seed.is_multiple_of(2) { 0.0 } else { -0.0 };
        }
        let b2 = match seed % 8 {
            0 => 0.0,
            4 => -0.0,
            _ => stress_values(seed + 3, 1, 0.5, false)[0],
        };
        Mlp {
            input_dim: dim,
            hidden,
            w1: Matrix::from_flat(hidden, dim, w1),
            b1: stress_values(seed + 1, hidden, 0.5, false),
            w2: stress_values(seed + 2, hidden, 1.5, seed % 4 == 1),
            b2,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn blocked_inference_matches_the_per_row_reference_bitwise(
            seed in 0u64..u64::MAX,
            dim in 1usize..=16,
            hidden in 1usize..=24,
            rows in 0usize..=70,
            pad in 0usize..=3,
        ) {
            let model = random_model(seed, dim, hidden);
            let stride = dim + pad;
            let x = stress_values(seed ^ 0xF00D, rows * stride, 3.0, true);
            let reference = reference_probabilities(&model, &x, stride);
            let mut probs = Vec::new();
            model.predict_proba_batch_into(&x, stride, &mut probs);
            prop_assert!(same_bits(&probs, &reference), "{dim}x{hidden}, {rows} rows");
            let mut mask = Vec::new();
            model.predict_mask_batch_into(&x, stride, &mut mask);
            let thresholded: Vec<bool> = reference.iter().map(|&p| p >= 0.5).collect();
            prop_assert_eq!(mask, thresholded);
            let per_row: Vec<f64> = x
                .chunks_exact(stride)
                .map(|row| model.predict_proba(&row[..dim]))
                .collect();
            prop_assert!(same_bits(&per_row, &reference));
        }

        #[test]
        fn blocked_training_matches_the_per_row_reference_bitwise(
            seed in 0u64..u64::MAX,
            dim in 1usize..=16,
            hidden in 1usize..=24,
            rows in 1usize..=70,
            batch_size in 1usize..=40,
            epochs in 1usize..=4,
        ) {
            let sgd = seed.is_multiple_of(2);
            let config = TrainConfig {
                epochs,
                batch_size,
                optimizer: if sgd { OptimizerKind::SgdMomentum } else { OptimizerKind::Adam },
                learning_rate: if sgd { 0.5 } else { 0.05 },
                patience: if seed.is_multiple_of(3) { Some(1) } else { None },
                ..TrainConfig::fast(seed)
            };
            // Every other case trains on finite rows only (±0 and
            // subnormals still included), so NaN does not swamp the
            // comparison; the rest also see ±inf and NaN.
            let x = stress_values(seed ^ 0xBEEF, rows * dim, 2.0, seed % 4 < 2);
            let y: Vec<bool> = (0..rows).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
            let blocked = Mlp::fit_flat(&x, dim, &y, hidden, &config);
            let reference = reference_fit_flat(&x, dim, &y, hidden, &config);
            prop_assert!(same_bits(&params(&blocked), &params(&reference)), "{dim}x{hidden}");
            if !params(&reference).iter().any(|v| v.is_nan()) {
                prop_assert_eq!(blocked.weight_checksum(), reference.weight_checksum());
            }
        }
    }

    #[test]
    fn mask_rule_matches_the_sigmoid_threshold_at_the_edges() {
        let band = -MASK_BAND;
        let ulp_up = |z: f64| f64::from_bits(z.to_bits() - 1);
        let ulp_down = |z: f64| f64::from_bits(z.to_bits() + 1);
        let edges = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            -(2.0f64.powi(-54)),
            -(2.0f64.powi(-53)),
            ulp_up(-(2.0f64.powi(-54))),
            ulp_down(-(2.0f64.powi(-53))),
            band,
            ulp_up(band),
            ulp_down(band),
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for z in edges {
            assert_eq!(logit_mask(z), sigmoid(z) >= 0.5, "z = {z:e}");
        }
        // Exact zeros of either sign are positive, NaN is not, and the
        // band's far edge is already well clear of rounding to 0.5.
        assert!(logit_mask(-0.0) && logit_mask(0.0) && !logit_mask(f64::NAN));
        assert!(!logit_mask(band) && sigmoid(band) < 0.5 - 1e-10);
    }

    #[test]
    fn every_zoo_width_runs_a_compiled_kernel() {
        // The literal arms of `predict_logits` and `fit_flat`.
        const COMPILED_WIDTHS: [usize; 6] = [6, 8, 9, 10, 11, 12];
        for arch in crate::zoo::ModelArch::ALL {
            assert!(COMPILED_WIDTHS.contains(&arch.feature_budget()), "{arch}");
        }
    }

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
        assert_eq!(batch, reference_probabilities(&model, &flat, 2));
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
