//! Fixed-point quantized inference: the i16/i32 fast path.
//!
//! The mission hot path is MLP inference. The f64 kernels in
//! [`crate::matrix`]/[`crate::mlp`] are the *reference* implementation;
//! this module is what flight hardware would actually execute: i16
//! weights, i32 accumulators, power-of-two scales, no floating point
//! anywhere between the quantized inputs and the output logit.
//!
//! # Number format
//!
//! Every quantity is a signed fixed-point integer with a power-of-two
//! scale, written `Q(shift)`: the integer `q` represents the real value
//! `q / 2^shift`.
//!
//! - **Inputs** are quantized at [`INPUT_SHIFT`] (round-to-nearest,
//!   ties to even — IEEE's default rounding, computed by mantissa
//!   alignment against `1.5 * 2^52` so the hot loop is one float add
//!   and a bit reinterpretation, with no libm call and no
//!   float-to-int saturation; see [`quantize_signed`]) and clamped to
//!   ±[`INPUT_CLAMP`]. The pixel feature set is bounded (channels and
//!   luminance in `[0, 1]`, indices in `[-2, 8]`), so the clamp —
//!   ±16.0 in real terms — is never active on in-range features and
//!   makes out-of-range ones total rather than undefined.
//! - **Hidden weights** use a per-row shift chosen at quantize time:
//!   the largest `shift <= `[`MAX_WEIGHT_SHIFT`] such that the row's
//!   largest-magnitude weight still rounds into `±32767`. Rows with
//!   small weights therefore keep more fractional precision.
//! - **Hidden biases** are pre-scaled to `Q(row_shift + INPUT_SHIFT)`
//!   so they add directly onto the matvec accumulator.
//! - **Activations** are requantized to `Q(`[`ACT_SHIFT`]`)` by an
//!   arithmetic right shift (round toward negative infinity) and
//!   clamped to [`ACT_CLAMP`]; the ReLU gate is `z > 0`, matching the
//!   reference path's `z > 0.0`.
//! - **Output weights** share one shift (`w2_shift`); the output bias
//!   is pre-scaled to `Q(w2_shift + ACT_SHIFT)` to match the second
//!   accumulator.
//!
//! # Saturation and overflow semantics
//!
//! Quantization saturates (weights to ±32767, biases to ±2^28, inputs
//! and activations to their clamps). Accumulation is `wrapping_*`:
//! for every architecture in the model zoo the accumulators provably
//! cannot wrap (see `accumulator_envelope_holds_for_zoo_shapes`), and
//! wrapping arithmetic documents that even outside that envelope the
//! kernel stays total and bit-deterministic — accuracy may degrade,
//! determinism and panic-freedom never do. Bias addition saturates
//! rather than wraps so a pathological bias cannot flip the ReLU gate
//! sign through wraparound. The batch kernel additionally proves, per
//! model, when the bias add cannot overflow at all
//! ([`QuantizedMlp::bias_add_wrap_free`]) and then runs it as a plain
//! add — bit-identical by construction, and much kinder to the
//! vectorizer than the saturating form.
//!
//! # Determinism
//!
//! Integer addition is associative, so these kernels are bit-exact by
//! construction: no operand-ordering concerns, no worker-count
//! sensitivity, nothing for the float-reduction lint to police. The
//! only float operations are the input quantization (elementwise,
//! order-free) and the final `sigmoid(logit / 2^shift)` when a caller
//! asks for probabilities; mask prediction skips the sigmoid entirely
//! because `sigmoid(z) >= 0.5  <=>  z >= 0`.
//!
//! The batch entry points process [`BATCH_BLOCK`] predictions per
//! block so the integer MACs vectorize across the batch dimension.
//! Blocking only interleaves *independent* accumulator chains — within
//! one prediction the accumulation order (inputs in column order,
//! hidden units in row order) is exactly the scalar path's — so the
//! blocked kernels are bit-identical to row-at-a-time inference.

use crate::matrix::Matrix;
use crate::train::sigmoid;
use crate::PixelClassifier;
use kodan_wire::{Dec, Decode, Enc, Encode, WireError};
use serde::{Deserialize, Serialize};

/// Fixed-point shift of quantized input features: `Q(8)`, i.e. a
/// resolution of 1/256 on feature values.
pub const INPUT_SHIFT: u32 = 8;

/// Fixed-point shift of requantized hidden activations: `Q(6)`.
pub const ACT_SHIFT: u32 = 6;

/// Upper bound on any weight shift chosen at quantize time. Keeps every
/// requantization shift in `(0, 32)` by construction.
pub const MAX_WEIGHT_SHIFT: u32 = 14;

/// Magnitude clamp on quantized inputs (±16.0 in real terms at
/// [`INPUT_SHIFT`]).
pub const INPUT_CLAMP: i32 = 4095;

/// Magnitude clamp on requantized hidden activations (±32.0 in real
/// terms at [`ACT_SHIFT`]).
pub const ACT_CLAMP: i32 = 2047;

/// Modeled relative cost of one integer MAC against one f64 MAC on the
/// flight-class targets the latency model prices. The
/// `quantized_inference` bench pins the measured speedup; 4x is the
/// conservative figure the DVD/latency accounting uses.
pub const INT_OP_COST: f64 = 0.25;

/// Saturation bound for pre-scaled biases: leaves headroom above the
/// worst-case matvec magnitude so `acc + bias` stays within i32.
const BIAS_CLAMP: i64 = 1 << 28;

/// Symmetric weight clamp (±`i16::MAX`; `i16::MIN` is never produced so
/// negation stays closed).
const WEIGHT_CLAMP: i64 = 32767;

/// Predictions per block in the fused batch kernels. Inner loops run
/// across this many independent predictions at once, which is what lets
/// the compiler vectorize the integer MACs (see the module docs for why
/// blocking is bit-invisible).
const BATCH_BLOCK: usize = 16;

/// `2^shift` as an f64; total for every shift this module constructs
/// (all are `< 32`).
fn pow2(shift: u32) -> f64 {
    (1i64 << shift) as f64
}

/// `1.5 * 2^52`. Adding this to a double in `(-2^51, 2^51)` fixes the
/// sum's exponent at `2^52` (one ulp = 1.0), so IEEE round-to-nearest-
/// even performs the integer rounding and the result sits in the low
/// mantissa bits in two's complement. The classic branch-free
/// round-to-int: one add plus a bit reinterpretation, vectorizable on
/// every target (float-to-int casts and `round()` are not).
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// Rounds `v * 2^shift` to the nearest integer (ties to even, IEEE's
/// default), saturating to `±clamp`. Total: NaN maps to 0, infinities
/// to the clamp. The clamp runs in the f64 domain *before* rounding —
/// every clamp this module uses is an exact f64 well inside `2^51`, so
/// the [`ROUND_MAGIC`] trick is always in range and the endpoints
/// round to themselves.
fn quantize_signed(v: f64, shift: u32, clamp: i64) -> i64 {
    // `v == v` is false only for NaN, which must not reach the bit
    // trick below (its payload would leak into the mantissa bits).
    let v = if v == v { v } else { 0.0 };
    let scaled = (v * pow2(shift)).clamp(-(clamp as f64), clamp as f64);
    i64::from((scaled + ROUND_MAGIC).to_bits() as i32)
}

/// The largest shift `<=` [`MAX_WEIGHT_SHIFT`] under which `max_abs`
/// still rounds into the symmetric i16 range.
fn shift_for_max_abs(max_abs: f64) -> u32 {
    if !max_abs.is_finite() || max_abs <= 0.0 {
        return MAX_WEIGHT_SHIFT;
    }
    let mut shift = 0;
    while shift < MAX_WEIGHT_SHIFT && (max_abs * pow2(shift + 1) + 0.5).trunc() <= WEIGHT_CLAMP as f64
    {
        shift += 1;
    }
    shift
}

/// Quantizes one feature row into the shared input buffer: each value
/// becomes a Q[`INPUT_SHIFT`] fixed-point integer clamped to
/// ±[`INPUT_CLAMP`]. Public so benchmarks can drive the raw
/// [`QuantizedMatrix::matvec_into`] kernel with realistic inputs.
pub fn quantize_input_into(row: &[f64], xq: &mut [i32]) {
    for (q, &v) in xq.iter_mut().zip(row) {
        *q = quantize_signed(v, INPUT_SHIFT, i64::from(INPUT_CLAMP)) as i32;
    }
}

/// A row-major i16 weight matrix with one power-of-two scale per row.
///
/// The integer counterpart of [`Matrix`]: row `r` of the real-valued
/// matrix is `data[r] / 2^shifts[r]`. Rows carry independent shifts so
/// a row of small weights is not crushed to zero by one large outlier
/// elsewhere in the matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    /// Per-row scale exponents, `rows` long; each `<=` [`MAX_WEIGHT_SHIFT`].
    shifts: Vec<u8>,
    /// Row-major weights, `rows * cols` long.
    data: Vec<i16>,
}

impl QuantizedMatrix {
    /// Quantizes an f64 matrix, choosing each row's shift via
    /// [`MAX_WEIGHT_SHIFT`]-bounded best fit (see the module docs).
    pub fn from_f64(m: &Matrix) -> QuantizedMatrix {
        let mut shifts = Vec::with_capacity(m.rows());
        let mut data = Vec::with_capacity(m.rows() * m.cols());
        for row in m.iter_rows() {
            let mut max_abs = 0.0f64;
            for &w in row {
                // f64::max drops NaN operands, so NaN weights (which
                // quantize to 0) cannot poison the row shift.
                max_abs = max_abs.max(w.abs());
            }
            let shift = shift_for_max_abs(max_abs);
            shifts.push(shift as u8);
            for &w in row {
                data.push(quantize_signed(w, shift, WEIGHT_CLAMP) as i16);
            }
        }
        QuantizedMatrix {
            rows: m.rows(),
            cols: m.cols(),
            shifts,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The per-row scale exponents.
    pub fn shifts(&self) -> &[u8] {
        &self.shifts
    }

    /// Allocation-free integer matvec: `out[r] = sum_c data[r][c] * xq[c]`
    /// with wrapping i32 accumulation (see the module docs for why
    /// wrapping is the right totality contract here). The matrix is tiny
    /// (hidden x input_dim, at most 20 x 12 in the zoo) so the whole
    /// working set sits in L1 and the fused batch loop in
    /// [`QuantizedMlp`] provides the cache blocking.
    ///
    /// # Panics
    ///
    /// Panics if `xq.len() != cols` or `out.len() != rows`.
    pub fn matvec_into(&self, xq: &[i32], out: &mut [i32]) {
        assert_eq!(xq.len(), self.cols, "input length != cols");
        assert_eq!(out.len(), self.rows, "output length != rows");
        for (slot, row) in out.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            let mut acc = 0i32;
            for (&w, &x) in row.iter().zip(xq) {
                acc = acc.wrapping_add(i32::from(w).wrapping_mul(x));
            }
            *slot = acc;
        }
    }
}

impl Encode for QuantizedMatrix {
    fn encode(&self, enc: &mut Enc) {
        enc.usize(self.rows);
        enc.usize(self.cols);
        for &s in &self.shifts {
            enc.u8(s);
        }
        for &w in &self.data {
            enc.u16(w as u16);
        }
    }
}

impl Decode for QuantizedMatrix {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        let rows = dec.usize()?;
        let cols = dec.usize()?;
        if rows == 0 || cols == 0 {
            return Err(WireError::InvalidValue("quantized matrix dimension zero"));
        }
        // Bound allocations by the bytes actually present: a corrupt
        // header cannot request more memory than the payload could fill.
        let len = match rows.checked_mul(cols) {
            Some(len) => len,
            None => return Err(WireError::Truncated),
        };
        if len
            .checked_mul(2)
            .and_then(|b| b.checked_add(rows))
            .is_none_or(|bytes| bytes > dec.remaining())
        {
            return Err(WireError::Truncated);
        }
        let mut shifts = Vec::with_capacity(rows);
        for _ in 0..rows {
            let s = dec.u8()?;
            if u32::from(s) > MAX_WEIGHT_SHIFT {
                return Err(WireError::InvalidValue("weight shift out of range"));
            }
            shifts.push(s);
        }
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(dec.u16()? as i16);
        }
        Ok(QuantizedMatrix {
            rows,
            cols,
            shifts,
            data,
        })
    }
}

/// The quantized form of a trained [`crate::mlp::Mlp`]: one ReLU hidden
/// layer, sigmoid output, every parameter an integer.
///
/// Built by [`crate::mlp::Mlp::quantize`]; carries the source model's
/// [`crate::mlp::Mlp::weight_checksum`] so a deployed f64/quantized
/// pair can be re-verified as belonging together.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantizedMlp {
    input_dim: usize,
    hidden: usize,
    /// Hidden weights at per-row shifts.
    w1: QuantizedMatrix,
    /// Hidden biases, pre-scaled to `Q(w1.shifts[h] + INPUT_SHIFT)`.
    b1: Vec<i32>,
    /// Output weights at `Q(w2_shift)`.
    w2: Vec<i16>,
    /// Shared scale exponent of `w2`.
    w2_shift: u8,
    /// Output bias, pre-scaled to `Q(w2_shift + ACT_SHIFT)`.
    b2: i32,
    /// `weight_checksum()` of the f64 model this was quantized from.
    source_checksum: u64,
}

impl QuantizedMlp {
    /// Quantizes the raw layers of an f64 MLP. Called by
    /// [`crate::mlp::Mlp::quantize`], which owns the private fields.
    ///
    /// # Panics
    ///
    /// Panics if the layer shapes are inconsistent.
    pub(crate) fn from_f64_parts(
        w1: &Matrix,
        b1: &[f64],
        w2: &[f64],
        b2: f64,
        source_checksum: u64,
    ) -> QuantizedMlp {
        assert_eq!(w1.rows(), b1.len(), "hidden bias shape mismatch");
        assert_eq!(w1.rows(), w2.len(), "output weight shape mismatch");
        assert!(w1.rows() > 0 && w1.cols() > 0, "empty layer");
        let qw1 = QuantizedMatrix::from_f64(w1);
        let qb1: Vec<i32> = b1
            .iter()
            .zip(&qw1.shifts)
            .map(|(&b, &s)| quantize_signed(b, u32::from(s) + INPUT_SHIFT, BIAS_CLAMP) as i32)
            .collect();
        let mut w2_max = 0.0f64;
        for &w in w2 {
            w2_max = w2_max.max(w.abs());
        }
        let w2_shift = shift_for_max_abs(w2_max);
        let qw2: Vec<i16> = w2
            .iter()
            .map(|&w| quantize_signed(w, w2_shift, WEIGHT_CLAMP) as i16)
            .collect();
        let qb2 = quantize_signed(b2, w2_shift + ACT_SHIFT, BIAS_CLAMP) as i32;
        QuantizedMlp {
            input_dim: w1.cols(),
            hidden: w1.rows(),
            w1: qw1,
            b1: qb1,
            w2: qw2,
            w2_shift: w2_shift as u8,
            b2: qb2,
            source_checksum,
        }
    }

    /// Number of input features.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of hidden units.
    pub fn hidden_units(&self) -> usize {
        self.hidden
    }

    /// `weight_checksum()` of the f64 model this was quantized from —
    /// the pairing tag artifact loading verifies before attaching this
    /// model to its reference copy.
    pub fn source_checksum(&self) -> u64 {
        self.source_checksum
    }

    /// `2^(w2_shift + ACT_SHIFT)`: divide the integer output logit by
    /// this to recover the real-valued logit the sigmoid consumes.
    pub fn output_scale(&self) -> f64 {
        pow2(u32::from(self.w2_shift) + ACT_SHIFT)
    }

    /// Integer multiply-accumulate count per prediction — the same MAC
    /// structure as [`crate::mlp::Mlp::ops_per_prediction`], executed in
    /// i16/i32 at [`INT_OP_COST`] relative cost.
    pub fn int_ops_per_prediction(&self) -> usize {
        self.hidden * self.input_dim + self.hidden
    }

    /// Per-prediction `(float_ops, int_ops)` split; the quantized
    /// network is all-integer. Counterpart of
    /// [`crate::mlp::Mlp::ops_split`].
    pub fn ops_split(&self) -> (usize, usize) {
        (0, self.int_ops_per_prediction())
    }

    /// Total parameters addressable by fault injection: `w1` (i16),
    /// `b1` (i32), `w2` (i16) and `b2` (i32), in checksum order.
    pub fn param_count(&self) -> usize {
        self.hidden * self.input_dim + self.hidden + self.hidden + 1
    }

    /// The fused integer forward pass for one pre-quantized input row:
    /// matvec accumulate, saturating bias add, ReLU gate, requantize,
    /// output accumulate. Returns the integer logit at
    /// `Q(w2_shift + ACT_SHIFT)`.
    fn forward_logit(&self, xq: &[i32], acc: &mut [i32]) -> i32 {
        self.w1.matvec_into(xq, acc);
        let mut out = self.b2;
        for (((&a, &shift), &bias), &w) in acc
            .iter()
            .zip(&self.w1.shifts)
            .zip(&self.b1)
            .zip(&self.w2)
        {
            let z = a.saturating_add(bias);
            // Requantize Q(shift + INPUT_SHIFT) -> Q(ACT_SHIFT); the
            // exponent is in [2, 16], so the shift is total. A
            // non-positive `z` shifts to a non-positive value, so the
            // lower clamp IS the ReLU gate (`z > 0.0` on the reference
            // path) — branchless, no data-dependent jumps.
            let act = (z >> (u32::from(shift) + INPUT_SHIFT - ACT_SHIFT)).clamp(0, ACT_CLAMP);
            out = out.wrapping_add(i32::from(w).wrapping_mul(act));
        }
        out
    }

    /// The fused, blocked batch forward pass both batch entry points
    /// share: computes one integer logit per feature row of `x`, at
    /// `Q(w2_shift + ACT_SHIFT)`, and hands each finished block of
    /// logits to `emit` while it is still cache-hot (the callers map it
    /// to probabilities or mask bits in place, without a second pass
    /// over a batch-sized buffer). Rows are processed [`BATCH_BLOCK`]
    /// at a time with every inner loop running across the block, so
    /// the integer MACs vectorize; results are bit-identical to
    /// [`QuantizedMlp::forward_logit`] per row (see the module docs).
    /// Pad lanes of a final partial block reuse whatever the previous
    /// block left behind — wrapping arithmetic keeps them total, and
    /// their logits are never emitted.
    fn forward_logits_into<E: FnMut(&[i32])>(&self, x: &[f64], row_stride: usize, emit: E) {
        // The blocked kernel is ~2.5x faster when the feature count is
        // a compile-time constant (the vectorizer's unroll and
        // interleave decisions hinge on known trip counts). Dispatching
        // a literal into an always-inlined body monomorphizes each
        // width without duplicating the kernel. The arms are the model
        // zoo's widths: a specialized model's input width is its
        // architecture's `ModelArch::feature_budget`, and a test holds
        // every budget to these arms. Any other width runs the same
        // code with a runtime count, bit-identically.
        match self.input_dim {
            6 => self.forward_logits_blocked(6, x, row_stride, emit),
            8 => self.forward_logits_blocked(8, x, row_stride, emit),
            9 => self.forward_logits_blocked(9, x, row_stride, emit),
            10 => self.forward_logits_blocked(10, x, row_stride, emit),
            11 => self.forward_logits_blocked(11, x, row_stride, emit),
            12 => self.forward_logits_blocked(12, x, row_stride, emit),
            d => self.forward_logits_blocked(d, x, row_stride, emit),
        }
    }

    /// The body of [`QuantizedMlp::forward_logits_into`]; `c_dim` is
    /// always `self.input_dim`, passed separately so callsites can pin
    /// it to a literal (see the dispatch above).
    #[inline(always)]
    fn forward_logits_blocked<E: FnMut(&[i32])>(
        &self,
        c_dim: usize,
        x: &[f64],
        row_stride: usize,
        mut emit: E,
    ) {
        debug_assert_eq!(c_dim, self.input_dim);
        let n = self.batch_check(x, row_stride);
        const B: usize = BATCH_BLOCK;
        // Per-block staging, all L1-resident: quantized rows in input
        // order (`xq_rows[p * input_dim + c]`), then transposed lanes
        // (`xqt[c * B + p]`) so the hidden layer reads one contiguous
        // i16 lane per feature and the MACs widen pairwise.
        let mut xq_rows = vec![0i16; c_dim * B];
        let mut xqt = vec![0i16; c_dim * B];
        let mut acc = vec![0i32; self.hidden * B];
        let mut block = [0i32; B];
        // Identical to `quantize_signed` at `INPUT_SHIFT` /
        // `INPUT_CLAMP`, inlined so the whole lane (NaN gate, scale,
        // f64-domain clamp, magic rounding, lossless narrowing — the
        // rounded value is in ±INPUT_CLAMP, well inside i16) stays
        // branch-free and vectorizes.
        let clamp_f = f64::from(INPUT_CLAMP);
        let quantize_lane = |v: f64| -> i16 {
            let v = if v == v { v } else { 0.0 };
            let scaled = (v * pow2(INPUT_SHIFT)).clamp(-clamp_f, clamp_f);
            (scaled + ROUND_MAGIC).to_bits() as i32 as i16
        };
        let wrap_free = self.bias_add_wrap_free();
        let mut base = 0;
        while base < n {
            let width = (n - base).min(B);
            if row_stride == c_dim {
                // Dense batch: quantize the whole block as one flat
                // contiguous pass — this is the vectorized fast path.
                let flat = &x[base * c_dim..(base + width) * c_dim];
                for (q, &v) in xq_rows[..width * c_dim].iter_mut().zip(flat) {
                    *q = quantize_lane(v);
                }
            } else {
                for p in 0..width {
                    let start = (base + p) * row_stride;
                    let row = &x[start..start + c_dim];
                    let out = &mut xq_rows[p * c_dim..(p + 1) * c_dim];
                    for (q, &v) in out.iter_mut().zip(row) {
                        *q = quantize_lane(v);
                    }
                }
            }
            for p in 0..width {
                for c in 0..c_dim {
                    xqt[c * B + p] = xq_rows[p * c_dim + c];
                }
            }
            for (h, row) in self.w1.data.chunks_exact(c_dim).enumerate() {
                let lanes = &mut acc[h * B..h * B + B];
                lanes.fill(0);
                for (c, &w) in row.iter().enumerate() {
                    let wv = i32::from(w);
                    let col = &xqt[c * B..c * B + B];
                    for p in 0..B {
                        lanes[p] = lanes[p].wrapping_add(wv.wrapping_mul(i32::from(col[p])));
                    }
                }
            }
            if wrap_free {
                self.output_stage::<false>(&acc, &mut block);
            } else {
                self.output_stage::<true>(&acc, &mut block);
            }
            emit(&block[..width]);
            base += width;
        }
    }

    /// True when, for every hidden row, `|dot| + |bias|` provably fits
    /// i32: `|xq| <= INPUT_CLAMP` after quantization, so the matvec
    /// accumulator is bounded by the row's absolute weight mass times
    /// the clamp. Under this envelope the bias add can never saturate,
    /// and the batch kernel swaps `saturating_add` for the plain
    /// wrapping add the vectorizer handles far better — bit-identically,
    /// because an add that cannot overflow is its own saturation.
    /// Recomputed per batch call (it is ~`hidden * input_dim` integer
    /// ops against tens of thousands of predictions), which keeps it
    /// honest under SEU weight flips with no cached state to
    /// invalidate.
    fn bias_add_wrap_free(&self) -> bool {
        let clamp = i64::from(INPUT_CLAMP);
        self.w1
            .data
            .chunks_exact(self.input_dim)
            .zip(&self.b1)
            .all(|(row, &bias)| {
                let mass: i64 = row.iter().map(|&w| i64::from(w).abs()).sum();
                mass * clamp + i64::from(bias).abs() <= i64::from(i32::MAX)
            })
    }

    /// The second layer of the blocked kernel: bias, requantize, ReLU
    /// gate, output accumulate, for one block of [`BATCH_BLOCK`]
    /// predictions. `SATURATE` selects the bias-add flavor; see
    /// [`QuantizedMlp::bias_add_wrap_free`] for why the non-saturating
    /// variant is only reachable when it is exact.
    #[inline(always)]
    fn output_stage<const SATURATE: bool>(&self, acc: &[i32], block: &mut [i32; BATCH_BLOCK]) {
        const B: usize = BATCH_BLOCK;
        block.fill(self.b2);
        for h in 0..self.hidden {
            let bias = self.b1[h];
            let shift = u32::from(self.w1.shifts[h]) + INPUT_SHIFT - ACT_SHIFT;
            let wv = i32::from(self.w2[h]);
            let lanes = &acc[h * B..h * B + B];
            for p in 0..B {
                let z = if SATURATE {
                    lanes[p].saturating_add(bias)
                } else {
                    lanes[p].wrapping_add(bias)
                };
                // `ACT_CLAMP` fits i16, so the narrowing cast is
                // lossless and tells the codegen both multiplicands
                // are 16-bit.
                let act = (z >> shift).clamp(0, ACT_CLAMP) as i16;
                block[p] = block[p].wrapping_add(wv.wrapping_mul(i32::from(act)));
            }
        }
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

    /// Fused batch forward pass with the same contract as
    /// [`crate::mlp::Mlp::predict_proba_batch_into`]: classifies every
    /// `row_stride`-strided feature row of `x` (only the first
    /// `input_dim` features of each row are read) and fills `out` with
    /// probabilities, running the blocked integer kernel across the
    /// batch. Results are bit-identical to calling
    /// [`PixelClassifier::predict_proba`] row by row.
    ///
    /// # Panics
    ///
    /// Panics if `row_stride < input_dim` or `x.len()` is not a
    /// multiple of `row_stride`.
    pub fn predict_proba_batch_into(&self, x: &[f64], row_stride: usize, out: &mut Vec<f64>) {
        let scale = self.output_scale();
        out.clear();
        out.reserve(self.batch_check(x, row_stride));
        self.forward_logits_into(x, row_stride, |block| {
            out.extend(block.iter().map(|&l| sigmoid(f64::from(l) / scale)));
        });
    }

    /// Fused batch *mask* forward pass: like
    /// [`QuantizedMlp::predict_proba_batch_into`] but produces the
    /// thresholded `p >= 0.5` decision directly by comparing the integer
    /// logit against zero (`sigmoid` is monotone and `sigmoid(0) = 0.5`,
    /// so `p >= 0.5  <=>  logit >= 0`), skipping the sigmoid entirely.
    /// This is the kernel the tile-prediction hot path runs: its output
    /// is bit-identical to thresholding the probabilities, without a
    /// single float operation past input quantization.
    ///
    /// # Panics
    ///
    /// Panics if `row_stride < input_dim` or `x.len()` is not a
    /// multiple of `row_stride`.
    pub fn predict_mask_batch_into(&self, x: &[f64], row_stride: usize, out: &mut Vec<bool>) {
        out.clear();
        out.reserve(self.batch_check(x, row_stride));
        self.forward_logits_into(x, row_stride, |block| {
            out.extend(block.iter().map(|&l| l >= 0));
        });
    }

    /// FNV-1a checksum over the exact bit patterns of every quantized
    /// parameter and scale, in the fixed order `w1` (row-major), `w1`
    /// shifts, `b1`, `w2`, `w2_shift`, `b2`. The integrity tag the
    /// runtime's degradation policy checks before trusting the deployed
    /// quantized tables; the provenance `source_checksum` is metadata
    /// and deliberately not mixed in.
    pub fn weight_checksum(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(FNV_PRIME);
        };
        for &w in &self.w1.data {
            mix(u64::from(w as u16));
        }
        for &s in &self.w1.shifts {
            mix(u64::from(s));
        }
        for &v in &self.b1 {
            mix(u64::from(v as u32));
        }
        for &w in &self.w2 {
            mix(u64::from(w as u16));
        }
        mix(u64::from(self.w2_shift));
        mix(u64::from(self.b2 as u32));
        h
    }

    /// Flips one bit of one quantized parameter — a modeled single-event
    /// upset in the deployed weight tables.
    ///
    /// `index` addresses the flattened parameter vector in
    /// [`QuantizedMlp::weight_checksum`] order and is reduced modulo
    /// [`QuantizedMlp::param_count`]; `bit` is reduced modulo the
    /// victim's width (16 for i16 entries, 32 for i32 entries).
    /// Deliberately total, like [`crate::mlp::Mlp::flip_weight_bit`].
    pub fn flip_weight_bit(&mut self, index: u64, bit: u32) {
        let index = (index % self.param_count() as u64) as usize;
        let w1_len = self.hidden * self.input_dim;
        if index < w1_len {
            let w = &mut self.w1.data[index];
            *w = (*w as u16 ^ (1u16 << (bit % 16))) as i16;
        } else if index < w1_len + self.hidden {
            let v = &mut self.b1[index - w1_len];
            *v = (*v as u32 ^ (1u32 << (bit % 32))) as i32;
        } else if index < w1_len + 2 * self.hidden {
            let w = &mut self.w2[index - w1_len - self.hidden];
            *w = (*w as u16 ^ (1u16 << (bit % 16))) as i16;
        } else {
            self.b2 = (self.b2 as u32 ^ (1u32 << (bit % 32))) as i32;
        }
    }
}

impl PixelClassifier for QuantizedMlp {
    fn predict_proba(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.input_dim, "dimension mismatch");
        let mut xq = vec![0i32; self.input_dim];
        let mut acc = vec![0i32; self.hidden];
        quantize_input_into(features, &mut xq);
        sigmoid(f64::from(self.forward_logit(&xq, &mut acc)) / self.output_scale())
    }

    fn input_dim(&self) -> usize {
        self.input_dim
    }
}

impl Encode for QuantizedMlp {
    fn encode(&self, enc: &mut Enc) {
        enc.usize(self.input_dim);
        enc.usize(self.hidden);
        self.w1.encode(enc);
        for &b in &self.b1 {
            enc.u32(b as u32);
        }
        for &w in &self.w2 {
            enc.u16(w as u16);
        }
        enc.u8(self.w2_shift);
        enc.u32(self.b2 as u32);
        enc.u64(self.source_checksum);
    }
}

impl Decode for QuantizedMlp {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        let input_dim = dec.usize()?;
        let hidden = dec.usize()?;
        if input_dim == 0 || hidden == 0 {
            return Err(WireError::InvalidValue("quantized mlp dimension zero"));
        }
        let w1 = QuantizedMatrix::decode(dec)?;
        // Shape invariants keep every later forward pass panic-free.
        if w1.rows() != hidden || w1.cols() != input_dim {
            return Err(WireError::InvalidValue("quantized mlp layer shape mismatch"));
        }
        // b1 (4 bytes each) and w2 (2 bytes each) must fit the payload.
        if hidden
            .checked_mul(6)
            .is_none_or(|bytes| bytes > dec.remaining())
        {
            return Err(WireError::Truncated);
        }
        let mut b1 = Vec::with_capacity(hidden);
        for _ in 0..hidden {
            b1.push(dec.u32()? as i32);
        }
        let mut w2 = Vec::with_capacity(hidden);
        for _ in 0..hidden {
            w2.push(dec.u16()? as i16);
        }
        let w2_shift = dec.u8()?;
        if u32::from(w2_shift) > MAX_WEIGHT_SHIFT {
            return Err(WireError::InvalidValue("weight shift out of range"));
        }
        let b2 = dec.u32()? as i32;
        let source_checksum = dec.u64()?;
        Ok(QuantizedMlp {
            input_dim,
            hidden,
            w1,
            b1,
            w2,
            w2_shift,
            b2,
            source_checksum,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Mlp;
    use crate::train::TrainConfig;
    use crate::zoo::ModelArch;

    fn circle_data(n: usize) -> (Vec<Vec<f64>>, Vec<bool>) {
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

    fn trained_pair(n: usize, hidden: usize, seed: u64) -> (Mlp, QuantizedMlp, Vec<Vec<f64>>, Vec<bool>) {
        let (xs, ys) = circle_data(n);
        let mut config = TrainConfig::fast(seed);
        config.epochs = 300;
        config.learning_rate = 0.3;
        let model = Mlp::fit(&xs, &ys, hidden, &config);
        let quantized = model.quantize();
        (model, quantized, xs, ys)
    }

    /// The widths `QuantizedMlp::forward_logits_into` compiles, one
    /// literal arm each.
    const COMPILED_WIDTHS: [usize; 6] = [6, 8, 9, 10, 11, 12];

    /// The feature row stride of the tile pipeline (`kodan-geodata`'s
    /// `FEATURE_DIM`): models read a prefix of each row.
    const PIPELINE_STRIDE: usize = 12;

    /// Rows per batch in the shape tests: three full blocks and a
    /// partial one.
    const SHAPE_ROWS: usize = 3 * BATCH_BLOCK + 5;

    /// Deterministic pseudo-random values in `[-scale, scale)`.
    fn lcg_values(seed: u64, n: usize, scale: f64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * scale
            })
            .collect()
    }

    /// Every (input width, hidden width) the zoo ships, plus one width
    /// outside the zoo, which runs the runtime-width body.
    fn kernel_shapes() -> Vec<(usize, usize)> {
        let mut shapes: Vec<(usize, usize)> = ModelArch::ALL
            .iter()
            .map(|arch| (arch.feature_budget(), arch.hidden_units()))
            .collect();
        shapes.push((7, 5));
        shapes
    }

    /// A quantized model of one shape with pseudo-random weights, and
    /// [`SHAPE_ROWS`] feature rows for it at [`PIPELINE_STRIDE`]: feature
    /// values span the pipeline's range, a few pass the input clamp or
    /// are NaN, and the padding past the model's width is garbage the
    /// kernel must not read.
    fn shaped_case(input_dim: usize, hidden: usize) -> (QuantizedMlp, Vec<f64>) {
        let seed = (input_dim * 31 + hidden) as u64;
        let w1 = Matrix::from_flat(hidden, input_dim, lcg_values(seed, hidden * input_dim, 2.0));
        let b1 = lcg_values(seed + 1, hidden, 1.0);
        let w2 = lcg_values(seed + 2, hidden, 2.0);
        let model = QuantizedMlp::from_f64_parts(&w1, &b1, &w2, 0.1, seed);
        let mut x = lcg_values(seed + 3, SHAPE_ROWS * PIPELINE_STRIDE, 5.0);
        for (i, row) in x.chunks_exact_mut(PIPELINE_STRIDE).enumerate() {
            match i % 9 {
                0 => row[i % input_dim] = 40.0,
                1 => row[i % input_dim] = f64::NAN,
                _ => {}
            }
            row[input_dim..].fill(99.0);
        }
        (model, x)
    }

    /// The first `width` features of each `stride`-strided row, packed.
    fn dense(x: &[f64], stride: usize, width: usize) -> Vec<f64> {
        x.chunks_exact(stride)
            .flat_map(|row| &row[..width])
            .copied()
            .collect()
    }

    #[test]
    fn every_zoo_width_runs_a_compiled_kernel() {
        for arch in ModelArch::ALL {
            assert!(
                COMPILED_WIDTHS.contains(&arch.feature_budget()),
                "{arch}: width {} has no compiled arm",
                arch.feature_budget()
            );
        }
    }

    #[test]
    fn quantization_is_deterministic_and_tagged() {
        let (model, quantized, _, _) = trained_pair(200, 8, 11);
        assert_eq!(quantized, model.quantize());
        assert_eq!(quantized.source_checksum(), model.weight_checksum());
        assert_eq!(quantized.input_dim(), model.input_dim());
        assert_eq!(quantized.hidden_units(), model.hidden_units());
    }

    #[test]
    fn quantized_tracks_the_f64_model() {
        let (model, quantized, xs, ys) = trained_pair(400, 16, 1);
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let mut f64_probs = Vec::new();
        model.predict_proba_batch_into(&flat, 2, &mut f64_probs);
        let mut q_mask = Vec::new();
        quantized.predict_mask_batch_into(&flat, 2, &mut q_mask);
        let f64_mask: Vec<bool> = f64_probs.iter().map(|&p| p >= 0.5).collect();
        let f64_cm = crate::eval::ConfusionMatrix::from_predictions(&f64_mask, &ys);
        let q_cm = crate::eval::ConfusionMatrix::from_predictions(&q_mask, &ys);
        let retention = crate::eval::accuracy_retention(&f64_cm, &q_cm);
        assert!(
            retention >= 0.99,
            "accuracy retention {retention} (f64 {}, quantized {})",
            f64_cm.accuracy(),
            q_cm.accuracy()
        );
    }

    #[test]
    fn batch_forward_matches_per_row_bitwise() {
        let (_, quantized, xs, _) = trained_pair(120, 8, 5);
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let mut batch = Vec::new();
        quantized.predict_proba_batch_into(&flat, 2, &mut batch);
        assert_eq!(batch.len(), xs.len());
        for (x, p) in xs.iter().zip(&batch) {
            assert_eq!(quantized.predict_proba(x), *p, "bitwise mismatch at {x:?}");
        }
        // Wider stride reads only the first input_dim features per row.
        let padded: Vec<f64> = xs.iter().flat_map(|x| [x[0], x[1], 99.0, -99.0]).collect();
        let mut strided = Vec::new();
        quantized.predict_proba_batch_into(&padded, 4, &mut strided);
        assert_eq!(batch, strided);
        // Every zoo shape, compiled or not, dense and at the pipeline's
        // stride, over a partial final block.
        for (input_dim, hidden) in kernel_shapes() {
            let (model, x) = shaped_case(input_dim, hidden);
            let packed = dense(&x, PIPELINE_STRIDE, input_dim);
            let mut strided = Vec::new();
            model.predict_proba_batch_into(&x, PIPELINE_STRIDE, &mut strided);
            let mut batch = Vec::new();
            model.predict_proba_batch_into(&packed, input_dim, &mut batch);
            assert_eq!(batch.len(), SHAPE_ROWS);
            for (row, (p, q)) in packed
                .chunks_exact(input_dim)
                .zip(batch.iter().zip(&strided))
            {
                let scalar = model.predict_proba(row).to_bits();
                assert_eq!(
                    scalar,
                    p.to_bits(),
                    "width {input_dim}: dense batch drifted"
                );
                assert_eq!(
                    scalar,
                    q.to_bits(),
                    "width {input_dim}: strided batch drifted"
                );
            }
        }
    }

    #[test]
    fn saturating_fallback_matches_scalar_bitwise() {
        // Sixteen clamp-saturated weights per row overflow the
        // wrap-free envelope (16 * 32767 * 4095 + BIAS_CLAMP exceeds
        // i32::MAX), forcing the batch kernel onto the saturating bias
        // add — which must still match the scalar path bit for bit.
        let cols = 16;
        let hidden = 3;
        let data: Vec<f64> = (0..hidden * cols)
            .map(|i| if i % 2 == 0 { 40_000.0 } else { -40_000.0 })
            .collect();
        let w1 = Matrix::from_flat(hidden, cols, data);
        let b1 = vec![1e12, -1e12, 0.0];
        let w2 = vec![3.0, -2.0, 1.0];
        let q = QuantizedMlp::from_f64_parts(&w1, &b1, &w2, 0.5, 0xABCD);
        assert!(!q.bias_add_wrap_free(), "extreme model should overflow the envelope");
        let (_, trained, _, _) = trained_pair(100, 6, 9);
        assert!(trained.bias_add_wrap_free(), "trained models stay inside the envelope");
        // One full block plus a tail, inputs spanning past the clamp in
        // both directions.
        let n = 18;
        let flat: Vec<f64> = (0..n * cols)
            .map(|i| ((i * 29 % 41) as f64 - 20.0) * 1.3)
            .collect();
        let mut batch = Vec::new();
        q.predict_proba_batch_into(&flat, cols, &mut batch);
        assert_eq!(batch.len(), n);
        for (row, p) in flat.chunks_exact(cols).zip(&batch) {
            assert_eq!(q.predict_proba(row), *p, "bitwise mismatch on saturating path");
        }
    }

    #[test]
    fn mask_path_equals_thresholded_probabilities() {
        let (_, quantized, xs, _) = trained_pair(400, 12, 3);
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let mut probs = Vec::new();
        quantized.predict_proba_batch_into(&flat, 2, &mut probs);
        let mut mask = Vec::new();
        quantized.predict_mask_batch_into(&flat, 2, &mut mask);
        let thresholded: Vec<bool> = probs.iter().map(|&p| p >= 0.5).collect();
        assert_eq!(mask, thresholded);
        for (input_dim, hidden) in kernel_shapes() {
            let (model, x) = shaped_case(input_dim, hidden);
            let packed = dense(&x, PIPELINE_STRIDE, input_dim);
            let mut probs = Vec::new();
            model.predict_proba_batch_into(&packed, input_dim, &mut probs);
            let thresholded: Vec<bool> = probs.iter().map(|&p| p >= 0.5).collect();
            assert!(thresholded.contains(&true) && thresholded.contains(&false));
            let mut mask = Vec::new();
            model.predict_mask_batch_into(&packed, input_dim, &mut mask);
            assert_eq!(mask, thresholded, "width {input_dim}: dense mask drifted");
            model.predict_mask_batch_into(&x, PIPELINE_STRIDE, &mut mask);
            assert_eq!(mask, thresholded, "width {input_dim}: strided mask drifted");
        }
    }

    #[test]
    fn ops_accounting_mirrors_the_f64_network() {
        let (model, quantized, _, _) = trained_pair(60, 4, 7);
        assert_eq!(quantized.int_ops_per_prediction(), model.ops_per_prediction());
        assert_eq!(quantized.ops_split(), (0, model.ops_per_prediction()));
        assert_eq!(model.ops_split(), (model.ops_per_prediction(), 0));
        assert_eq!(quantized.param_count(), model.param_count());
    }

    #[test]
    fn checksum_detects_every_single_bit_flip() {
        let (_, quantized, _, _) = trained_pair(60, 4, 3);
        let clean = quantized.weight_checksum();
        assert_eq!(clean, quantized.weight_checksum());
        assert_eq!(quantized.param_count(), 4 * 2 + 4 + 4 + 1);
        for index in 0..quantized.param_count() as u64 {
            let mut corrupt = quantized.clone();
            corrupt.flip_weight_bit(index, (index % 32) as u32);
            assert_ne!(
                corrupt.weight_checksum(),
                clean,
                "flip at {index} went undetected"
            );
            corrupt.flip_weight_bit(index, (index % 32) as u32);
            assert_eq!(corrupt.weight_checksum(), clean);
        }
        // Out-of-range fault coordinates reduce instead of panicking.
        let mut wrapped = quantized.clone();
        wrapped.flip_weight_bit(u64::MAX, 200);
        assert_ne!(wrapped.weight_checksum(), clean);
    }

    #[test]
    fn wire_roundtrip_is_byte_identical() {
        let (_, quantized, _, _) = trained_pair(100, 8, 9);
        let bytes = quantized.to_wire();
        let back = QuantizedMlp::from_wire(&bytes).expect("decode");
        assert_eq!(back, quantized);
        assert_eq!(back.to_wire(), bytes);
    }

    #[test]
    fn truncated_and_corrupt_encodings_are_rejected() {
        let (_, quantized, _, _) = trained_pair(100, 8, 9);
        let bytes = quantized.to_wire();
        for cut in 0..bytes.len() {
            assert!(
                QuantizedMlp::from_wire(&bytes[..cut]).is_err(),
                "cut at {cut} went undetected"
            );
        }
        // A huge row count must fail on the allocation bound, fast.
        let mut enc = Enc::new();
        enc.usize(3);
        enc.usize(usize::MAX / 2);
        enc.usize(usize::MAX / 2);
        assert!(QuantizedMlp::from_wire(enc.as_bytes()).is_err());
        // An out-of-range shift is invalid even if the payload parses.
        let mut tampered = quantized.clone();
        tampered.w2_shift = (MAX_WEIGHT_SHIFT + 1) as u8;
        assert_eq!(
            QuantizedMlp::from_wire(&tampered.to_wire()),
            Err(WireError::InvalidValue("weight shift out of range"))
        );
    }

    #[test]
    fn accumulator_envelope_holds_for_zoo_shapes() {
        // Worst-case |dot| for the wide layer, then the output layer,
        // must clear i32 even with the saturated bias added. This is the
        // no-wrap proof the module docs lean on.
        for arch in ModelArch::ALL {
            let dot = arch.feature_budget() as i64 * WEIGHT_CLAMP * i64::from(INPUT_CLAMP);
            assert!(dot + BIAS_CLAMP < i64::from(i32::MAX), "{arch}: hidden layer");
            let out = arch.hidden_units() as i64 * WEIGHT_CLAMP * i64::from(ACT_CLAMP);
            assert!(out + BIAS_CLAMP < i64::from(i32::MAX), "{arch}: output layer");
        }
    }

    #[test]
    fn degenerate_weights_quantize_totally() {
        let m = Matrix::from_flat(2, 2, vec![f64::NAN, f64::INFINITY, -0.0, 1e300]);
        let q = QuantizedMatrix::from_f64(&m);
        assert_eq!(q.rows(), 2);
        // NaN rows fall back to the max shift; huge weights saturate.
        assert_eq!(q.shifts().len(), 2);
        let mut out = vec![0i32; 2];
        q.matvec_into(&[1, 1], &mut out);
    }

    #[test]
    fn batch_forward_handles_empty_input() {
        let (_, quantized, _, _) = trained_pair(40, 4, 5);
        let mut out = vec![0.5; 3];
        quantized.predict_proba_batch_into(&[], 2, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "row stride")]
    fn batch_forward_rejects_narrow_stride() {
        let (_, quantized, _, _) = trained_pair(40, 4, 5);
        let mut out = Vec::new();
        quantized.predict_proba_batch_into(&[1.0], 1, &mut out);
    }
}
