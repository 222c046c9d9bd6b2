//! Context-based model specialization.
//!
//! Rather than executing the original datacenter-scale reference
//! application, Kodan trains and runs models specialized to contexts
//! (paper Section 3.3). Specialized models are *smaller* — here, an MLP
//! with a third of the reference width — because each serves a narrower
//! slice of the data distribution, and they retain or improve accuracy on
//! their own context while executing faster.
//!
//! The module also implements the reference ("direct deploy") model: the
//! full-capacity network trained on all contexts, whose execution time on
//! each target is the paper's Table 1.

use crate::context::ContextId;
use kodan_geodata::features::{pixel_features, pixel_features_at, FEATURE_DIM};
use kodan_geodata::pixel::CHANNELS;
use kodan_geodata::resize::{resize_channels, resize_mask, NearestPicks};
use kodan_geodata::tile::TileImage;
use kodan_ml::eval::ConfusionMatrix;
use kodan_ml::mlp::Mlp;
use kodan_ml::quant::{QuantizedMlp, INT_OP_COST};
use kodan_ml::train::TrainConfig;
use kodan_ml::zoo::ModelArch;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// What slice of the data a model serves.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelScope {
    /// Trained on every context: the reference/direct-deploy model.
    Global,
    /// Trained on a single context's tiles.
    Context(ContextId),
    /// Trained across several contexts' tiles (paper Section 3.3:
    /// "specialized across multiple contexts").
    Multi(Vec<ContextId>),
}

impl ModelScope {
    /// True if this scope covers the given context.
    pub fn covers(&self, context: ContextId) -> bool {
        match self {
            ModelScope::Global => true,
            ModelScope::Context(c) => *c == context,
            ModelScope::Multi(cs) => cs.contains(&context),
        }
    }
}

/// A trained per-pixel cloud/clear classifier plus the metadata the
/// selection logic and latency model need.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecializedModel {
    arch: ModelArch,
    scope: ModelScope,
    classifier: Mlp,
    feature_budget: usize,
    input_resolution: usize,
    /// Op count relative to the full reference architecture, in `(0, 1]`.
    ops_ratio: f64,
    /// The i16/i32 fixed-point companion of `classifier`, when deployed.
    ///
    /// Not part of the model's wire encoding: quantized blobs live in
    /// their own `KIND_QMODEL` artifacts and are attached at load time,
    /// so a freshly-trained in-memory model always carries `None` and a
    /// corrupt quantized blob degrades this slot to the f64 reference
    /// path instead of quarantining it.
    quantized: Option<QuantizedMlp>,
}

impl SpecializedModel {
    /// Trains the model of one slot: `scope`'s model on (a sample of)
    /// `tiles`. The global scope is the full-capacity reference model
    /// direct deployment runs; context scopes get reduced-capacity models
    /// specialized to their contexts' tiles.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is empty, `max_train_pixels` is zero, or a
    /// multi-context scope lists no contexts.
    pub fn train(
        tiles: &[TileImage],
        arch: ModelArch,
        scope: ModelScope,
        max_train_pixels: usize,
        config: &TrainConfig,
    ) -> SpecializedModel {
        assert!(!tiles.is_empty(), "training needs tiles");
        assert!(max_train_pixels > 0, "training needs a pixel budget");
        assert!(
            !matches!(&scope, ModelScope::Multi(cs) if cs.is_empty()),
            "multi-context scope needs contexts"
        );
        let full_hidden = arch.hidden_units();
        let hidden = match &scope {
            ModelScope::Global => full_hidden,
            // Specialized models are smaller: a third of the reference
            // width for single contexts, half for multi-context scopes
            // (paper Section 3.3: "smaller and simpler").
            ModelScope::Context(_) => (full_hidden / 3).max(3),
            ModelScope::Multi(_) => (full_hidden / 2).max(4),
        };
        let budget = arch.feature_budget();
        let resolution = arch.input_resolution();

        let (x, y) = sample_training_pixels(tiles, resolution, budget, max_train_pixels, config.seed);
        let classifier = Mlp::fit_flat(&x, budget, &y, hidden, config);
        SpecializedModel {
            arch,
            scope,
            classifier,
            feature_budget: budget,
            input_resolution: resolution,
            ops_ratio: hidden as f64 / full_hidden as f64,
            quantized: None,
        }
    }

    /// The model's scope.
    pub fn scope(&self) -> &ModelScope {
        &self.scope
    }

    /// Relative op count versus the full reference architecture, as if
    /// every MAC were an f64 MAC (the structural ratio the
    /// transformation computed at training time).
    pub fn ops_ratio(&self) -> f64 {
        self.ops_ratio
    }

    /// Relative op *cost* of the kernels this model actually runs: the
    /// structural [`SpecializedModel::ops_ratio`], discounted by
    /// [`INT_OP_COST`] when the quantized fast path is attached. This is
    /// what the latency model should price; it stays in `(0, 1]`.
    pub fn effective_ops_ratio(&self) -> f64 {
        if self.quantized.is_some() {
            self.ops_ratio * INT_OP_COST
        } else {
            self.ops_ratio
        }
    }

    /// The attached quantized fast path, if this model flies one.
    pub fn quantized(&self) -> Option<&QuantizedMlp> {
        self.quantized.as_ref()
    }

    /// True when tile prediction will run the i16/i32 kernels.
    pub fn is_quantized(&self) -> bool {
        self.quantized.is_some()
    }

    /// The quantized form of this model's classifier, built on demand.
    /// The artifact save path encodes this into the slot's companion
    /// `KIND_QMODEL` blob.
    pub fn quantize_classifier(&self) -> QuantizedMlp {
        self.classifier.quantize()
    }

    /// Builds and attaches the quantized fast path directly from the
    /// in-memory classifier (tests and benches use this to exercise the
    /// integer kernels without a round-trip through an artifact store).
    pub fn quantize_in_place(&mut self) {
        self.quantized = Some(self.classifier.quantize());
    }

    /// Attaches a quantized fast path loaded from a `KIND_QMODEL`
    /// artifact. Returns `false` — leaving the model on the f64
    /// reference path — unless the blob's provenance tag matches this
    /// classifier's weight checksum and its shape matches the
    /// classifier's, so a stale or mispaired quantized blob can never
    /// silently fly against the wrong reference weights.
    pub fn attach_quantized(&mut self, quantized: QuantizedMlp) -> bool {
        if quantized.source_checksum() != self.classifier.weight_checksum()
            || quantized.input_dim() != self.classifier.input_dim()
        {
            return false;
        }
        self.quantized = Some(quantized);
        true
    }

    /// The model's input resolution (pixels per side).
    pub fn input_resolution(&self) -> usize {
        self.input_resolution
    }

    /// Predicts the per-pixel high-value mask of a tile *at the tile's
    /// native resolution* (predictions are made at the model input
    /// resolution and carried back by nearest-neighbor resampling —
    /// exactly where decimation error enters).
    ///
    /// Only the model pixels the resampling reads are featurized and
    /// classified: all r*r when the tile has at least r px, and n*n of
    /// them when an n-px tile is upscaled. The mask equals that of a
    /// pass over every pixel, bit for bit: a pixel's features read only
    /// its own resized channels and its 3x3 luminance window, and both
    /// mask kernels decide each row independently of the rest of its
    /// block. Both read the first `feature_budget` features of each
    /// FEATURE_DIM-strided row and decide from the logit, so each
    /// path's mask is bit-identical to thresholding its own
    /// probabilities at the [`Mlp::predict`] threshold of 0.5. The
    /// quantized kernel never touches the sigmoid; the f64 one only for
    /// logits just below zero.
    pub fn predict_tile(&self, tile: &TileImage) -> Vec<bool> {
        let r = self.input_resolution;
        let picks = NearestPicks::new(r, tile.size());
        let resized = resize_channels(tile.channels(), tile.size(), CHANNELS, r);
        let feats = pixel_features_at(&resized, r, picks.picks());
        let mut kept = Vec::new();
        match &self.quantized {
            Some(q) => q.predict_mask_batch_into(&feats, FEATURE_DIM, &mut kept),
            None => self
                .classifier
                .predict_mask_batch_into(&feats, FEATURE_DIM, &mut kept),
        }
        picks.expand(&kept)
    }

    /// Evaluates the model on one tile against native-resolution truth.
    /// Positive class = high-value (clear) pixel.
    pub fn evaluate_tile(&self, tile: &TileImage) -> ConfusionMatrix {
        let pred = self.predict_tile(tile);
        let truth_hv: Vec<bool> = tile.truth_cloudy().iter().map(|&c| !c).collect();
        ConfusionMatrix::from_predictions(&pred, &truth_hv)
    }

    /// Evaluates the model over many tiles.
    pub fn evaluate<'a, I>(&self, tiles: I) -> ConfusionMatrix
    where
        I: IntoIterator<Item = &'a TileImage>,
    {
        tiles.into_iter().map(|t| self.evaluate_tile(t)).sum()
    }

    /// Integrity checksum over every weight table this model would
    /// actually run: the f64 classifier's (see [`Mlp::weight_checksum`])
    /// alone on the reference path, FNV-combined with the quantized
    /// tables' checksum when the fast path is attached. The runtime
    /// compares this against the value recorded at deployment time
    /// before trusting a specialized model on orbit — so an upset in
    /// the deployed quantized tables is caught exactly like one in the
    /// f64 master copy.
    pub fn weight_checksum(&self) -> u64 {
        let base = self.classifier.weight_checksum();
        match &self.quantized {
            None => base,
            Some(quantized) => {
                const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
                const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
                let mut h = FNV_OFFSET;
                for v in [base, quantized.weight_checksum()] {
                    h ^= v;
                    h = h.wrapping_mul(FNV_PRIME);
                }
                h
            }
        }
    }

    /// Flips one weight bit — a modeled single-event upset. Total for
    /// any coordinates.
    ///
    /// The fault index addresses the combined parameter space: first
    /// the f64 classifier's parameters (see [`Mlp::flip_weight_bit`]),
    /// then — when the quantized fast path is attached — the deployed
    /// i16/i32 tables, so injection campaigns exercise the weights
    /// inference actually reads. Without a quantized attachment the
    /// behavior is exactly the historical f64-only reduction.
    pub fn corrupt_weight_bit(&mut self, index: u64, bit: u32) {
        match &mut self.quantized {
            None => self.classifier.flip_weight_bit(index, bit),
            Some(quantized) => {
                let f64_params = self.classifier.param_count() as u64;
                let slot = index
                    .checked_rem(f64_params + quantized.param_count() as u64)
                    .unwrap_or(0);
                if slot < f64_params {
                    self.classifier.flip_weight_bit(slot, bit);
                } else {
                    quantized.flip_weight_bit(slot - f64_params, bit);
                }
            }
        }
    }

    /// A copy of this model re-labelled with a different scope. Used by
    /// the artifact loader to stand a grid's global model in for a
    /// corrupted specialized model while keeping the original slot's
    /// scope (so action routing is unchanged).
    pub(crate) fn rescoped(&self, scope: ModelScope) -> SpecializedModel {
        let mut clone = self.clone();
        clone.scope = scope;
        clone
    }
}

impl kodan_wire::Encode for ModelScope {
    fn encode(&self, enc: &mut kodan_wire::Enc) {
        match self {
            ModelScope::Global => enc.u16(0),
            ModelScope::Context(c) => {
                enc.u16(1);
                c.encode(enc);
            }
            ModelScope::Multi(cs) => {
                enc.u16(2);
                cs.encode(enc);
            }
        }
    }
}

impl kodan_wire::Decode for ModelScope {
    fn decode(dec: &mut kodan_wire::Dec<'_>) -> Result<Self, kodan_wire::WireError> {
        match dec.u16()? {
            0 => Ok(ModelScope::Global),
            1 => Ok(ModelScope::Context(ContextId::decode(dec)?)),
            2 => {
                let cs = Vec::<ContextId>::decode(dec)?;
                if cs.is_empty() {
                    return Err(kodan_wire::WireError::InvalidValue(
                        "multi-context scope without contexts",
                    ));
                }
                Ok(ModelScope::Multi(cs))
            }
            tag => Err(kodan_wire::WireError::BadTag {
                what: "ModelScope",
                tag: u32::from(tag),
            }),
        }
    }
}

impl kodan_wire::Encode for SpecializedModel {
    fn encode(&self, enc: &mut kodan_wire::Enc) {
        self.arch.encode(enc);
        self.scope.encode(enc);
        self.classifier.encode(enc);
        enc.usize(self.feature_budget);
        enc.usize(self.input_resolution);
        enc.f64(self.ops_ratio);
    }
}

impl kodan_wire::Decode for SpecializedModel {
    fn decode(dec: &mut kodan_wire::Dec<'_>) -> Result<Self, kodan_wire::WireError> {
        let arch = ModelArch::decode(dec)?;
        let scope = ModelScope::decode(dec)?;
        let classifier = Mlp::decode(dec)?;
        let feature_budget = dec.usize()?;
        let input_resolution = dec.usize()?;
        let ops_ratio = dec.f64()?;
        // `predict_tile` slices `feature_budget` features out of each
        // FEATURE_DIM-strided row and resizes to `input_resolution`;
        // these bounds make the loaded model panic-free to run.
        if feature_budget == 0
            || feature_budget > FEATURE_DIM
            || classifier.input_dim() != feature_budget
            || input_resolution == 0
            || !(ops_ratio.is_finite() && ops_ratio > 0.0 && ops_ratio <= 1.0)
        {
            return Err(kodan_wire::WireError::InvalidValue(
                "specialized model metadata out of bounds",
            ));
        }
        Ok(SpecializedModel {
            arch,
            scope,
            classifier,
            feature_budget,
            input_resolution,
            ops_ratio,
            // Quantized companions travel as separate KIND_QMODEL
            // artifacts and are attached (checksum-verified) after load.
            quantized: None,
        })
    }
}

/// Extracts the full per-pixel feature matrix of a tile at a given model
/// input resolution.
pub fn tile_features(tile: &TileImage, resolution: usize) -> Vec<f64> {
    let resized = resize_channels(tile.channels(), tile.size(), CHANNELS, resolution);
    pixel_features(&resized, resolution)
}

/// Truth labels (high-value = true) of a tile at a model input
/// resolution.
pub fn tile_labels(tile: &TileImage, resolution: usize) -> Vec<bool> {
    let truth_hv: Vec<bool> = tile.truth_cloudy().iter().map(|&c| !c).collect();
    resize_mask(&truth_hv, tile.size(), resolution)
}

/// The maximum number of distinct tiles visited when sampling training
/// pixels. Spreading the budget over many tiles keeps the sample's class
/// balance close to the population's even though cloud cover is heavily
/// frame-correlated; the cap bounds the featurization cost at large tile
/// grids.
const MAX_SAMPLE_TILES: usize = 32;

/// Samples up to `max_pixels` (feature, label) rows from tiles,
/// deterministically. Tiles are visited in shuffled order and the pixel
/// budget is spread evenly across up to [`MAX_SAMPLE_TILES`] of them
/// (strided within each tile), so the sample spans many frames. Taking
/// whole tiles instead is tempting but degenerate: cloud cover is
/// frame-correlated, and a budget-sized run of tiles from a few clear
/// (or overcast) frames yields a single-class sample and a
/// constant-output model.
fn sample_training_pixels(
    tiles: &[TileImage],
    resolution: usize,
    feature_budget: usize,
    max_pixels: usize,
    seed: u64,
) -> (Vec<f64>, Vec<bool>) {
    let mut order: Vec<usize> = (0..tiles.len()).collect();
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x7A11);
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    let visit = order.len().min(MAX_SAMPLE_TILES).max(1);
    let per_tile = max_pixels.div_ceil(visit).max(1);
    let mut x = Vec::new();
    let mut y = Vec::new();
    for &idx in order.iter().take(visit) {
        if y.len() >= max_pixels {
            break;
        }
        let tile = match tiles.get(idx) {
            Some(tile) => tile,
            None => continue,
        };
        let feats = tile_features(tile, resolution);
        let labels = tile_labels(tile, resolution);
        let total = labels.len();
        let take = per_tile.min(total).min(max_pixels - y.len());
        let stride = (total / take.max(1)).max(1);
        let mut taken = 0;
        let mut i = 0;
        while taken < take && i < total {
            let start = i * FEATURE_DIM;
            match (feats.get(start..start + feature_budget), labels.get(i)) {
                (Some(row), Some(&label)) => {
                    x.extend_from_slice(row);
                    y.push(label);
                }
                _ => break,
            }
            taken += 1;
            i += stride;
        }
    }
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kodan_geodata::tile::tile_frame;
    use kodan_geodata::{Dataset, DatasetConfig, World};
    use kodan_ml::train::TrainConfig;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn tiles() -> Vec<TileImage> {
        let world = World::new(42);
        let mut cfg = DatasetConfig::small(1);
        cfg.frame_count = 10;
        Dataset::sample(&world, &cfg).tiles(3)
    }

    fn fast_config() -> TrainConfig {
        TrainConfig::fast(1)
    }

    /// The dense prediction path the kept-pixel path replaced: every
    /// model pixel featurized and classified, then carried back by
    /// [`resize_mask`]. Kept as the reference [`SpecializedModel::predict_tile`]
    /// must match bit for bit.
    fn reference_predict_tile(model: &SpecializedModel, tile: &TileImage) -> Vec<bool> {
        let feats = tile_features(tile, model.input_resolution);
        let r = model.input_resolution;
        let mut pred_at_r = Vec::new();
        match &model.quantized {
            Some(q) => q.predict_mask_batch_into(&feats, FEATURE_DIM, &mut pred_at_r),
            None => model
                .classifier
                .predict_mask_batch_into(&feats, FEATURE_DIM, &mut pred_at_r),
        }
        resize_mask(&pred_at_r, r, tile.size())
    }

    /// A global f64 model and its quantized copy for every
    /// architecture, trained once.
    fn zoo_models() -> &'static [SpecializedModel] {
        static MODELS: OnceLock<Vec<SpecializedModel>> = OnceLock::new();
        MODELS.get_or_init(|| {
            let tiles = tiles();
            ModelArch::ALL
                .iter()
                .flat_map(|&arch| {
                    let model = SpecializedModel::train(
                        &tiles,
                        arch,
                        ModelScope::Global,
                        1_000,
                        &fast_config(),
                    );
                    let mut quantized = model.clone();
                    quantized.quantize_in_place();
                    [model, quantized]
                })
                .collect()
        })
    }

    /// `tile` with about one channel value in eight replaced by NaN,
    /// ±inf, ±0 or a subnormal.
    fn with_special_values(tile: &TileImage, seed: u64) -> TileImage {
        const SPECIAL: [f32; 8] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 8.0,
            -f32::MIN_POSITIVE / 8.0,
            f32::from_bits(1),
        ];
        let mut state = seed;
        let channels = tile
            .channels()
            .iter()
            .map(|&v| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let bits = state >> 32;
                if bits.is_multiple_of(8) {
                    SPECIAL[(bits >> 3) as usize % SPECIAL.len()]
                } else {
                    v
                }
            })
            .collect();
        tile.with_channels(channels)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn kept_pixel_prediction_matches_the_dense_reference_bitwise(
            world_seed in 0u64..1_000,
            grid in 1usize..=3,
            lat in -70.0f64..70.0,
            lon in -180.0f64..180.0,
            pick in 0usize..9,
        ) {
            let world = World::new(world_seed);
            // Tiles of 1 to 32 px sit on both sides of every zoo input
            // resolution (16-28 px): upscaled, copied and downscaled.
            for n in 1..=32usize {
                let frame = world.render_frame(lat, lon, 0.0, n * grid, 150.0);
                let tiles = tile_frame(&frame, grid);
                let tile = &tiles[pick % tiles.len()];
                let special = with_special_values(tile, world_seed ^ ((n as u64) << 32));
                for model in zoo_models() {
                    for t in [tile, &special] {
                        prop_assert_eq!(
                            model.predict_tile(t),
                            reference_predict_tile(model, t),
                            "{:?} (quantized: {}) drifted on a {n}-px tile",
                            model.arch,
                            model.is_quantized()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn global_model_beats_chance_substantially() {
        let tiles = tiles();
        let model = SpecializedModel::train(
            &tiles,
            ModelArch::ResNet50DilatedPpm,
            ModelScope::Global,
            2_000,
            &fast_config(),
        );
        let cm = model.evaluate(tiles.iter());
        // The cirrus band makes cloud masking learnable: expect well
        // above the majority-class baseline.
        assert!(cm.accuracy() > 0.75, "accuracy = {}", cm.accuracy());
        assert!(cm.precision() > 0.7, "precision = {}", cm.precision());
    }

    #[test]
    fn specialized_model_is_smaller_and_scoped() {
        let tiles = tiles();
        let ctx = ContextId(0);
        let model = SpecializedModel::train(
            &tiles,
            ModelArch::ResNet101UperNet,
            ModelScope::Context(ctx),
            1_000,
            &fast_config(),
        );
        assert_eq!(model.scope(), &ModelScope::Context(ctx));
        assert!(model.ops_ratio() < 0.5, "ops ratio = {}", model.ops_ratio());
        assert!(model.ops_ratio() > 0.0);
    }

    #[test]
    fn prediction_has_native_resolution() {
        let tiles = tiles();
        let model = SpecializedModel::train(
            &tiles,
            ModelArch::MobileNetV2DilatedC1,
            ModelScope::Global,
            1_000,
            &fast_config(),
        );
        let pred = model.predict_tile(&tiles[0]);
        assert_eq!(pred.len(), tiles[0].size() * tiles[0].size());
    }

    #[test]
    fn evaluation_counts_every_native_pixel() {
        let tiles = tiles();
        let model = SpecializedModel::train(
            &tiles,
            ModelArch::MobileNetV2DilatedC1,
            ModelScope::Global,
            1_000,
            &fast_config(),
        );
        let cm = model.evaluate_tile(&tiles[0]);
        assert_eq!(cm.total() as usize, tiles[0].size() * tiles[0].size());
    }

    #[test]
    fn training_is_deterministic() {
        let tiles = tiles();
        let a = SpecializedModel::train(
            &tiles,
            ModelArch::HrNetV2C1,
            ModelScope::Global,
            1_000,
            &fast_config(),
        );
        let b = SpecializedModel::train(
            &tiles,
            ModelArch::HrNetV2C1,
            ModelScope::Global,
            1_000,
            &fast_config(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn quantized_path_attaches_and_tracks_the_reference() {
        let tiles = tiles();
        let mut model = SpecializedModel::train(
            &tiles,
            ModelArch::ResNet50DilatedPpm,
            ModelScope::Global,
            2_000,
            &fast_config(),
        );
        let f64_checksum = model.weight_checksum();
        let f64_ratio = model.effective_ops_ratio();
        let blob = model.quantize_classifier();
        assert!(model.attach_quantized(blob), "provenance must match");
        assert!(model.is_quantized());
        // The combined checksum covers the deployed tables too.
        assert_ne!(model.weight_checksum(), f64_checksum);
        // The latency accounting prices the cheaper kernels.
        assert!(model.effective_ops_ratio() < f64_ratio);
        assert!(model.effective_ops_ratio() > 0.0);
        // Quantized tile masks agree with the reference path almost
        // everywhere — the decision only moves for near-threshold pixels.
        let mut reference = model.clone();
        reference.quantized = None;
        let mut agree = 0usize;
        let mut total = 0usize;
        for tile in tiles.iter().take(6) {
            let q = model.predict_tile(tile);
            let f = reference.predict_tile(tile);
            total += q.len();
            agree += q.iter().zip(&f).filter(|(a, b)| a == b).count();
        }
        assert!(
            agree as f64 >= total as f64 * 0.99,
            "agreement {agree}/{total}"
        );
    }

    #[test]
    fn mispaired_quantized_blob_is_refused() {
        let tiles = tiles();
        let mut a = SpecializedModel::train(
            &tiles,
            ModelArch::HrNetV2C1,
            ModelScope::Global,
            1_000,
            &fast_config(),
        );
        let mut other_config = fast_config();
        other_config.seed = 99;
        let b = SpecializedModel::train(
            &tiles,
            ModelArch::HrNetV2C1,
            ModelScope::Global,
            1_000,
            &other_config,
        );
        assert!(!a.attach_quantized(b.quantize_classifier()));
        assert!(!a.is_quantized());
        assert!(a.quantized().is_none());
    }

    #[test]
    fn fault_injection_reaches_the_quantized_tables() {
        let tiles = tiles();
        let mut model = SpecializedModel::train(
            &tiles,
            ModelArch::MobileNetV2DilatedC1,
            ModelScope::Global,
            1_000,
            &fast_config(),
        );
        model.quantize_in_place();
        let clean = model.weight_checksum();
        let f64_params = match model.quantized() {
            Some(q) => {
                // The combined fault space covers both tables.
                let _ = q.param_count();
                model.classifier.param_count() as u64
            }
            None => unreachable!("just attached"),
        };
        // An index past the f64 parameters lands in the deployed
        // quantized tables and must be caught by the combined checksum.
        let mut hit_quantized = model.clone();
        hit_quantized.corrupt_weight_bit(f64_params, 3);
        assert_eq!(
            hit_quantized.classifier.weight_checksum(),
            model.classifier.weight_checksum(),
            "f64 master copy must be untouched"
        );
        assert_ne!(hit_quantized.weight_checksum(), clean);
        // A low index still hits the f64 copy, as before.
        let mut hit_f64 = model.clone();
        hit_f64.corrupt_weight_bit(0, 3);
        assert_ne!(hit_f64.classifier.weight_checksum(), model.classifier.weight_checksum());
    }

    #[test]
    fn feature_and_label_extraction_shapes() {
        let tiles = tiles();
        let feats = tile_features(&tiles[0], 16);
        assert_eq!(feats.len(), 16 * 16 * FEATURE_DIM);
        let labels = tile_labels(&tiles[0], 16);
        assert_eq!(labels.len(), 16 * 16);
    }

    #[test]
    fn pixel_budget_caps_training_set() {
        let tiles = tiles();
        let (x, y) = sample_training_pixels(&tiles, 16, 6, 500, 1);
        assert_eq!(y.len(), 500);
        assert_eq!(x.len(), 500 * 6);
    }
}
