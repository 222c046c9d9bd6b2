//! The context engine: on-orbit tile-to-context classification.
//!
//! Before deployment, contexts are defined over *truth* label vectors
//! (surface fractions, cloud cover) that a satellite does not have for a
//! fresh observation. The context engine closes that gap: a lightweight
//! classifier over *observable* tile statistics (channel means, texture,
//! latitude) trained to reproduce the context partition. Its output "is
//! considered ground truth" by the rest of the runtime (paper
//! Section 3.2) — misclassifications simply route a tile to a model
//! trained for a sibling context, a cost the evaluation captures.

use crate::context::{ContextId, ContextSet};
use crate::dvd::ratio;
use crate::KodanError;
use kodan_geodata::tile::TileImage;
use kodan_ml::metrics::DistanceMetric;
use kodan_ml::transform::{FittedTransform, TransformKind};
use kodan_telemetry::{CounterId, Recorder, TelemetryEvent};
use serde::{Deserialize, Serialize};

/// Dimension of the observable runtime feature vector: 5 channel means +
/// luminance std + cirrus-excess + |latitude|/90.
pub const RUNTIME_FEATURE_DIM: usize = 8;

/// Computes the observable features of a tile available on orbit.
pub fn runtime_features(tile: &TileImage) -> [f64; RUNTIME_FEATURE_DIM] {
    let means = tile.channel_means();
    let (lum_mean, lum_std) = tile.luminance_stats();
    [
        means[0],
        means[1],
        means[2],
        means[3],
        means[4],
        lum_std,
        means[4] - 0.05 * lum_mean,
        tile.center_lat_deg().abs() / 90.0,
    ]
}

/// The deployed context engine: nearest-centroid over standardized
/// runtime features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContextEngine {
    scaler: FittedTransform,
    centroids: Vec<Vec<f64>>,
    /// Training agreement with the truth partition, in `[0, 1]`.
    train_agreement: f64,
}

impl ContextEngine {
    /// Trains a context engine to reproduce `contexts` on the training
    /// tiles.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is empty.
    pub fn train(tiles: &[TileImage], contexts: &ContextSet) -> ContextEngine {
        assert!(!tiles.is_empty(), "engine needs training tiles");
        let features: Vec<Vec<f64>> = tiles
            .iter()
            .map(|t| runtime_features(t).to_vec())
            .collect();
        let scaler = TransformKind::Standardize.fit(&features);
        let scaled = scaler.apply_all(&features);

        let k = contexts.len();
        let mut sums = vec![vec![0.0; RUNTIME_FEATURE_DIM]; k];
        let mut counts = vec![0usize; k];
        for (tile, f) in tiles.iter().zip(&scaled) {
            let c = contexts.classify_truth(tile).0;
            if let (Some(count), Some(sum)) = (counts.get_mut(c), sums.get_mut(c)) {
                *count += 1;
                for (s, v) in sum.iter_mut().zip(f) {
                    *s += v;
                }
            }
        }
        let centroids: Vec<Vec<f64>> = sums
            .into_iter()
            .zip(&counts)
            .map(|(s, &n)| {
                if n == 0 {
                    // Empty context: park its centroid far away so it never
                    // wins a nearest-centroid vote.
                    vec![1e6; RUNTIME_FEATURE_DIM]
                } else {
                    s.into_iter().map(|v| v / n as f64).collect()
                }
            })
            .collect();

        let mut engine = ContextEngine {
            scaler,
            centroids,
            train_agreement: 0.0,
        };
        engine.train_agreement = engine.agreement_on(tiles, contexts);
        engine
    }

    /// Classifies an observed tile into a context.
    pub fn classify(&self, tile: &TileImage) -> ContextId {
        let features = self.scaler.apply(&runtime_features(tile));
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, c) in self.centroids.iter().enumerate() {
            let d = DistanceMetric::Euclidean.distance(&features, c);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        ContextId(best)
    }

    /// Agreement with the truth partition on held-out tiles.
    pub fn agreement_on(&self, tiles: &[TileImage], contexts: &ContextSet) -> f64 {
        agreement(tiles, contexts, |t| self.classify(t))
    }
}

/// The fraction of `tiles` that `classify` routes to their truth
/// context; 0.0 for no tiles.
fn agreement(
    tiles: &[TileImage],
    contexts: &ContextSet,
    classify: impl Fn(&TileImage) -> ContextId,
) -> f64 {
    let agree = tiles
        .iter()
        .filter(|t| classify(t) == contexts.classify_truth(t))
        .count();
    ratio(agree as f64, tiles.len() as f64)
}

/// The expert (map-based) context engine: classifies a tile from the
/// satellite's knowledge of *where it is looking* rather than from pixel
/// content.
///
/// The paper notes that expert contexts "can be determined from satellite
/// position and orientation, a geographic map, and a projection of the
/// expected satellite view onto this map" — cheaply, or even precomputed
/// from the orbit. Here the geographic map is the world's surface map and
/// the projection is the tile's ground footprint center.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExpertMapEngine {
    map: kodan_geodata::surface::SurfaceMap,
    surface_to_context: [usize; 8],
}

impl ExpertMapEngine {
    /// Builds a map engine for an expert-generated context set.
    ///
    /// # Errors
    ///
    /// Returns [`KodanError::NotExpertGenerated`] if `contexts` was not
    /// expert-generated (auto-clustered contexts carry no surface map).
    pub fn new(
        map: kodan_geodata::surface::SurfaceMap,
        contexts: &ContextSet,
    ) -> Result<ExpertMapEngine, KodanError> {
        let surface_to_context = *contexts
            .expert_surface_map()
            .ok_or(KodanError::NotExpertGenerated)?;
        Ok(ExpertMapEngine {
            map,
            surface_to_context,
        })
    }

    /// Classifies a tile by looking up the surface under its center.
    pub fn classify(&self, tile: &TileImage) -> ContextId {
        let surface = self.map.classify(tile.center_lat_deg(), tile.center_lon_deg());
        let idx = self
            .surface_to_context
            .get(surface.index())
            .copied()
            .unwrap_or(usize::MAX);
        ContextId(if idx == usize::MAX { 0 } else { idx })
    }

    /// Agreement with the truth partition on a tile set.
    pub fn agreement_on(&self, tiles: &[TileImage], contexts: &ContextSet) -> f64 {
        agreement(tiles, contexts, |t| self.classify(t))
    }
}

/// Any deployed context engine: the learned nearest-centroid engine or
/// the expert map engine. The runtime is agnostic to which one routes its
/// tiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EngineKind {
    /// Nearest-centroid over observable tile statistics.
    Learned(ContextEngine),
    /// Geographic-map lookup from satellite position.
    ExpertMap(ExpertMapEngine),
}

impl EngineKind {
    /// Classifies a tile and reports the assignment to `recorder`: a
    /// [`TelemetryEvent::TileClassified`] journal entry plus a counter
    /// attributing the classification to the learned or expert engine.
    /// `tile_index` is the tile's raster position within its frame.
    pub fn classify_recorded(
        &self,
        tile: &TileImage,
        tile_index: u32,
        recorder: &mut dyn Recorder,
    ) -> ContextId {
        let context = match self {
            EngineKind::Learned(engine) => {
                recorder.count(CounterId::LearnedClassifications, 1);
                engine.classify(tile)
            }
            EngineKind::ExpertMap(engine) => {
                recorder.count(CounterId::ExpertClassifications, 1);
                engine.classify(tile)
            }
        };
        recorder.event(TelemetryEvent::TileClassified {
            tile: tile_index,
            context: context.0 as u32,
        });
        context
    }
}

impl kodan_wire::Encode for ContextEngine {
    fn encode(&self, enc: &mut kodan_wire::Enc) {
        self.scaler.encode(enc);
        self.centroids.encode(enc);
        enc.f64(self.train_agreement);
    }
}

impl kodan_wire::Decode for ContextEngine {
    fn decode(dec: &mut kodan_wire::Dec<'_>) -> Result<Self, kodan_wire::WireError> {
        let scaler = FittedTransform::decode(dec)?;
        let centroids = Vec::<Vec<f64>>::decode(dec)?;
        let train_agreement = dec.f64()?;
        if centroids.is_empty()
            || centroids.iter().any(|c| c.len() != RUNTIME_FEATURE_DIM)
        {
            return Err(kodan_wire::WireError::InvalidValue(
                "context engine centroid shape",
            ));
        }
        Ok(ContextEngine {
            scaler,
            centroids,
            train_agreement,
        })
    }
}

impl From<ContextEngine> for EngineKind {
    fn from(engine: ContextEngine) -> EngineKind {
        EngineKind::Learned(engine)
    }
}

impl From<ExpertMapEngine> for EngineKind {
    fn from(engine: ExpertMapEngine) -> EngineKind {
        EngineKind::ExpertMap(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kodan_ml::transform::TransformKind;
    use kodan_geodata::{Dataset, DatasetConfig, World};

    fn setup() -> (Vec<TileImage>, Vec<TileImage>, ContextSet) {
        let world = World::new(42);
        let mut cfg = DatasetConfig::small(1);
        cfg.frame_count = 16;
        let dataset = Dataset::sample(&world, &cfg);
        let (train, val) = dataset.split(0.7, 3);
        let train_tiles = train.tiles(3);
        let val_tiles = val.tiles(3);
        let contexts = ContextSet::generate_auto(
            &train_tiles,
            3,
            DistanceMetric::Euclidean,
            TransformKind::Standardize,
            1,
        );
        (train_tiles, val_tiles, contexts)
    }

    #[test]
    fn engine_agrees_with_truth_on_training_data() {
        let (train_tiles, _, contexts) = setup();
        let engine = ContextEngine::train(&train_tiles, &contexts);
        assert!(
            engine.train_agreement > 0.6,
            "train agreement = {}",
            engine.train_agreement
        );
        assert_eq!(engine.centroids.len(), 3);
    }

    #[test]
    fn engine_generalizes_to_validation_tiles() {
        let (train_tiles, val_tiles, contexts) = setup();
        let engine = ContextEngine::train(&train_tiles, &contexts);
        let val_agreement = engine.agreement_on(&val_tiles, &contexts);
        // Far better than the 1/3 chance baseline.
        assert!(val_agreement > 0.5, "val agreement = {val_agreement}");
    }

    #[test]
    fn engine_outputs_valid_ids() {
        let (train_tiles, val_tiles, contexts) = setup();
        let engine = ContextEngine::train(&train_tiles, &contexts);
        for t in &val_tiles {
            assert!(engine.classify(t).0 < contexts.len());
        }
    }

    #[test]
    fn runtime_features_are_observable_and_bounded() {
        let (train_tiles, _, _) = setup();
        for t in train_tiles.iter().take(20) {
            let f = runtime_features(t);
            for v in f {
                assert!(v.is_finite());
            }
            assert!((0.0..=1.0).contains(&f[7]), "latitude feature {}", f[7]);
        }
    }

    #[test]
    fn deterministic_training() {
        let (train_tiles, _, contexts) = setup();
        let a = ContextEngine::train(&train_tiles, &contexts);
        let b = ContextEngine::train(&train_tiles, &contexts);
        assert_eq!(a, b);
    }

    #[test]
    fn expert_map_engine_matches_truth_well() {
        // With expert contexts the truth partition IS the surface map, so
        // the map engine should agree almost perfectly (residual
        // disagreement: tile centers vs. dominant-pixel votes).
        let world = World::new(42);
        let mut cfg = DatasetConfig::small(1);
        cfg.frame_count = 10;
        let dataset = Dataset::sample(&world, &cfg);
        let tiles = dataset.tiles(3);
        let contexts = ContextSet::generate_expert(&tiles);
        let engine =
            ExpertMapEngine::new(*world.surface(), &contexts).expect("contexts are expert");
        let agreement = engine.agreement_on(&tiles, &contexts);
        assert!(agreement > 0.75, "map-engine agreement {agreement}");
    }

    #[test]
    fn engine_kind_dispatches_to_both_engines() {
        let (train_tiles, _, contexts) = setup();
        let learned = ContextEngine::train(&train_tiles, &contexts);
        let expert_contexts = ContextSet::generate_expert(&train_tiles);
        let expert = ExpertMapEngine::new(*World::new(42).surface(), &expert_contexts)
            .expect("contexts are expert");
        let learned_kind: EngineKind = learned.clone().into();
        let expert_kind: EngineKind = expert.into();
        let mut null = kodan_telemetry::NullRecorder;
        for (i, t) in train_tiles.iter().take(10).enumerate() {
            let index = i as u32;
            assert_eq!(
                learned_kind.classify_recorded(t, index, &mut null),
                learned.classify(t)
            );
            assert_eq!(
                expert_kind.classify_recorded(t, index, &mut null),
                expert.classify(t)
            );
        }
    }

    #[test]
    fn recorded_classification_matches_and_attributes() {
        let (train_tiles, _, contexts) = setup();
        let learned = ContextEngine::train(&train_tiles, &contexts);
        let kind: EngineKind = learned.clone().into();
        let mut recorder = kodan_telemetry::SummaryRecorder::new();
        for (i, t) in train_tiles.iter().take(12).enumerate() {
            let plain = learned.classify(t);
            let recorded = kind.classify_recorded(t, i as u32, &mut recorder);
            assert_eq!(plain, recorded);
        }
        let snap = recorder.snapshot();
        assert_eq!(snap.counter(CounterId::LearnedClassifications), 12);
        assert_eq!(snap.counter(CounterId::ExpertClassifications), 0);
        assert_eq!(snap.context_tiles.values().sum::<u64>(), 12);
    }

    #[test]
    fn expert_map_engine_rejects_auto_contexts() {
        let (_, _, contexts) = setup();
        let world = World::new(42);
        assert_eq!(
            ExpertMapEngine::new(*world.surface(), &contexts).unwrap_err(),
            KodanError::NotExpertGenerated
        );
    }
}
