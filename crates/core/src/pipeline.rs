//! The one-time transformation step (paper Figure 7, left).
//!
//! Before deployment, Kodan takes a reference application (here: a cloud
//! filter at one of the Table 1 architectures) and a representative
//! dataset, and produces everything the satellite will carry:
//!
//! 1. a partition of the dataset into geospatial **contexts**,
//! 2. a **context engine** that classifies observed tiles into contexts,
//! 3. per tile grid, a **model table**: the global reference model and
//!    the context-specialized models, one slot each, trained from one
//!    slot-ordered task list,
//! 4. per tile grid, one **validation table** `evals[slot][context]`
//!    parallel to the model table, from which the
//!    [`crate::selection::SelectionLogic`] for any hardware target can
//!    be derived.
//!
//! The artifacts are target-independent; deriving a selection logic for a
//! target is cheap and can be repeated for every platform (the paper
//! deploys the same seven applications to three targets). Only the
//! artifact store's bundle skeleton maps the validation table to the
//! bundle's scope-keyed wire layout.

use crate::config::{ContextGenerationKind, KodanConfig};
use crate::context::{ContextId, ContextSet};
use crate::engine::ContextEngine;
use crate::selection::SelectionLogic;
use crate::specialize::{ModelScope, SpecializedModel};
use crate::KodanError;
use kodan_cote::time::Duration;
use kodan_geodata::dataset::Dataset;
use kodan_geodata::par::{par_map_indexed, resolve_workers};
use kodan_geodata::tile::TileImage;
use kodan_hw::targets::HwTarget;
use kodan_ml::eval::ConfusionMatrix;
use kodan_ml::zoo::ModelArch;
use kodan_telemetry::{CounterId, NullRecorder, Recorder, StageId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Minimum training tiles required to specialize a model to a context;
/// below this the context falls back to the global model.
const MIN_CONTEXT_TILES: usize = 5;

/// Per-tile-grid artifacts: the grid's model table and its validation
/// table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridArtifacts {
    /// Grid dimension (tiles per frame = `grid * grid`).
    pub grid: usize,
    /// The grid's model table, in the order the runtime flies it: slot 0
    /// is the full-capacity reference model ([`ModelScope::Global`]),
    /// then the single-context models by context id (contexts with too
    /// few training tiles have none), then the multi-context ("merged")
    /// models in pairing order (paper Section 3.3 considers single- and
    /// multi-context specializations in the selection logic). Each
    /// model's scope says which slot it fills. Selection policies index
    /// this table, the artifact store saves and loads it slot by slot,
    /// and the runtime's fault fallback is its slot 0.
    pub models: Vec<SpecializedModel>,
    /// The validation table, parallel to `models`: `evals[slot][c]` is
    /// the slot's validation confusion on the tiles the engine assigns
    /// to context `c`. The global row (slot 0) is total, an empty
    /// context holding the zero matrix; every other entry is `Some`
    /// exactly where the slot's scope covers a context with validation
    /// tiles. Selection offers each context every slot its column
    /// holds; the artifact store's bundle skeleton alone maps the table
    /// to and from the bundle's wire layout.
    pub evals: Vec<Vec<Option<ConfusionMatrix>>>,
    /// Fraction of validation tiles the engine assigns to each context.
    pub context_weights: Vec<f64>,
    /// Mean high-value pixel fraction of each context's validation tiles.
    pub context_hv: Vec<f64>,
}

impl GridArtifacts {
    /// The single-context model of `context`, if that context had enough
    /// training tiles to specialize one.
    pub fn context_model(&self, context: ContextId) -> Option<&SpecializedModel> {
        self.models
            .iter()
            .find(|m| *m.scope() == ModelScope::Context(context))
    }

    /// `evals[slot][context]`: `None` where the slot's scope does not
    /// cover the context, the context has no validation tiles, or either
    /// index is outside the table.
    pub fn eval(&self, slot: usize, context: usize) -> Option<ConfusionMatrix> {
        self.evals.get(slot)?.get(context).copied().flatten()
    }

    /// Validation confusion of the global model (slot 0) on `context`'s
    /// tiles: the zero matrix for a context without validation tiles.
    pub fn global_eval(&self, context: usize) -> ConfusionMatrix {
        self.eval(0, context).unwrap_or_default()
    }

    /// Validation confusion of `context`'s single-context model on the
    /// context's tiles, if it has a model and validation tiles.
    pub(crate) fn own_eval(&self, context: usize) -> Option<ConfusionMatrix> {
        let own = ModelScope::Context(ContextId(context));
        let slot = self.models.iter().position(|m| *m.scope() == own)?;
        self.eval(slot, context)
    }

    /// Validation confusion of the global model over all tiles (the
    /// direct-deploy statistic, and Figure 13's tiling data).
    pub fn global_eval_all(&self) -> ConfusionMatrix {
        (0..self.context_weights.len())
            .map(|c| self.global_eval(c))
            .sum()
    }

    /// Validation confusion of the context-specialized composite: each
    /// context routed to its own model where that has statistics, to the
    /// global model elsewhere. This is Figure 12's "geospatial contexts"
    /// statistic.
    pub fn composite_eval_all(&self) -> ConfusionMatrix {
        (0..self.context_weights.len())
            .map(|c| self.own_eval(c).unwrap_or_else(|| self.global_eval(c)))
            .sum()
    }
}

/// Everything the transformation step produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransformationArtifacts {
    /// The configuration that produced these artifacts.
    pub config: KodanConfig,
    /// The reference application's architecture.
    pub arch: ModelArch,
    /// The context partition.
    pub contexts: ContextSet,
    /// The deployed context engine.
    pub engine: ContextEngine,
    /// Engine agreement with the truth partition on validation tiles.
    pub engine_val_agreement: f64,
    /// Per-grid artifacts, in the order of `config.tile_grids`.
    pub grids: Vec<GridArtifacts>,
}

impl TransformationArtifacts {
    /// Derives the selection logic with an explicit capacity fraction
    /// (downlink capacity / observed data volume).
    pub fn select_with_capacity(
        &self,
        target: HwTarget,
        deadline: Duration,
        capacity_fraction: f64,
    ) -> SelectionLogic {
        SelectionLogic::build(self, target, deadline, capacity_fraction)
    }

    /// The artifacts for a specific grid dimension.
    ///
    /// # Errors
    ///
    /// Returns [`KodanError::UnknownGrid`] if the grid was not part of
    /// the sweep.
    pub fn grid_artifacts(&self, grid: usize) -> Result<&GridArtifacts, KodanError> {
        self.grids
            .iter()
            .find(|g| g.grid == grid)
            .ok_or(KodanError::UnknownGrid(grid))
    }
}

/// The transformation step runner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transformation {
    config: KodanConfig,
}

impl Transformation {
    /// Creates a transformation with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: KodanConfig) -> Transformation {
        config.validate();
        Transformation { config }
    }

    /// Runs the one-time transformation for a reference application.
    ///
    /// # Errors
    ///
    /// Returns [`KodanError::DatasetTooSmall`] if `dataset` holds fewer
    /// than two frames, and [`KodanError::NoGrids`] if the configuration
    /// lists no tile grids to sweep.
    pub fn run(
        &self,
        dataset: &Dataset,
        arch: ModelArch,
    ) -> Result<TransformationArtifacts, KodanError> {
        self.run_recorded(dataset, arch, &mut NullRecorder)
    }

    /// [`Transformation::run`] with telemetry: context generation, engine
    /// training, per-grid specialization and validation report spans and
    /// counters to `recorder`. Transformation runs on the ground where
    /// the latency model does not apply, so these spans carry zero
    /// modeled seconds and use their item counts (tiles, models) as the
    /// magnitude.
    ///
    /// # Errors
    ///
    /// Returns [`KodanError::DatasetTooSmall`] if `dataset` holds fewer
    /// than two frames, and [`KodanError::NoGrids`] if the configuration
    /// lists no tile grids to sweep.
    pub fn run_recorded(
        &self,
        dataset: &Dataset,
        arch: ModelArch,
        recorder: &mut dyn Recorder,
    ) -> Result<TransformationArtifacts, KodanError> {
        let config = &self.config;
        // Each side of the split needs a frame of its own.
        if dataset.len() < 2 {
            return Err(KodanError::DatasetTooSmall(dataset.len()));
        }
        let (train, val) = dataset.split(config.train_fraction, config.seed);

        // Contexts and engine are generated at the grid closest to the
        // paper's 36-tiles-per-frame working point.
        let context_grid = *config
            .tile_grids
            .iter()
            .min_by_key(|&&g| (g as i64 - 6).unsigned_abs())
            .ok_or(KodanError::NoGrids)?;
        let context_train_tiles = train.tiles(context_grid);
        let contexts = match config.generation {
            ContextGenerationKind::Auto => ContextSet::generate_auto(
                &context_train_tiles,
                config.context_count.min(context_train_tiles.len()),
                config.metric,
                config.transform,
                config.seed,
            ),
            ContextGenerationKind::Expert => {
                ContextSet::generate_expert(&context_train_tiles)
            }
            ContextGenerationKind::AutoSweep { max_contexts } => {
                let k = sweep_cluster_count(
                    &context_train_tiles,
                    max_contexts,
                    config.metric,
                    config.transform,
                    config.seed,
                );
                ContextSet::generate_auto(
                    &context_train_tiles,
                    k,
                    config.metric,
                    config.transform,
                    config.seed,
                )
            }
        };
        recorder.span(StageId::ContextGeneration, 0.0, context_train_tiles.len() as u64);
        recorder.count(CounterId::ContextsGenerated, contexts.len() as u64);
        let engine = ContextEngine::train(&context_train_tiles, &contexts);
        recorder.span(StageId::EngineTraining, 0.0, context_train_tiles.len() as u64);
        let context_val_tiles = val.tiles(context_grid);
        let engine_val_agreement = engine.agreement_on(&context_val_tiles, &contexts);

        let mut grids = Vec::with_capacity(config.tile_grids.len());
        for (i, &grid) in config.tile_grids.iter().enumerate() {
            grids.push(self.build_grid_artifacts(
                &train,
                &val,
                grid,
                arch,
                &contexts,
                &engine,
                crate::par::stream_seed(config.seed, i as u64 * 101),
                recorder,
            ));
        }
        recorder.span(StageId::Transformation, 0.0, grids.len() as u64);

        Ok(TransformationArtifacts {
            config: *config,
            arch,
            contexts,
            engine,
            engine_val_agreement,
            grids,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn build_grid_artifacts(
        &self,
        train: &Dataset,
        val: &Dataset,
        grid: usize,
        arch: ModelArch,
        contexts: &ContextSet,
        engine: &ContextEngine,
        seed: u64,
        recorder: &mut dyn Recorder,
    ) -> GridArtifacts {
        let config = &self.config;
        let k = contexts.len();
        let mut train_tiles = train.tiles(grid);
        if config.augment {
            // Paper Section 4: augmentation improves accuracy and avoids
            // over-fitting. Variants join the pool before model training.
            let extra = kodan_geodata::augment::augment_tiles(&train_tiles, seed);
            train_tiles.extend(extra);
        }
        let val_tiles = sample_tiles(val.tiles(grid), config.max_eval_tiles, seed);

        // Specialized models are trained on *engine-assigned* tile
        // subsets: the runtime routes tiles by the deployed engine, so
        // each specialized model should be trained on exactly the
        // distribution the engine will hand it (including the engine's
        // systematic confusions).
        let mut engine_subsets: Vec<Vec<TileImage>> = vec![Vec::new(); k];
        for t in &train_tiles {
            // Engine assignments are data-driven (expert maps decode from
            // artifacts), so bounds-check rather than trust the context id.
            if let Some(subset) = engine_subsets.get_mut(engine.classify(t).0) {
                subset.push(t.clone());
            }
        }

        // One training task per slot of the model table, in table order
        // (global, contexts ascending, merged pairs in value-profile
        // order): the slot's scope, its tiles and its seed. Training is
        // embarrassingly parallel across tasks: every seed derives from
        // the grid seed and the slot's scope, never from worker or
        // completion order, and results come back index-keyed in task
        // order, so they *are* the grid's model table, bit-identical to a
        // serial run.
        let mut tasks: Vec<(ModelScope, Cow<'_, [TileImage]>, u64)> =
            vec![(ModelScope::Global, Cow::Borrowed(&train_tiles), seed)];
        for (c, subset) in engine_subsets.iter().enumerate() {
            if subset.len() >= MIN_CONTEXT_TILES {
                let scope = ModelScope::Context(ContextId(c));
                let task_seed = crate::par::stream_seed(seed, c as u64 + 1);
                tasks.push((scope, Cow::Borrowed(subset), task_seed));
            }
        }
        // Multi-context models: pair contexts with adjacent value
        // profiles and specialize across each pair.
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| {
            let ha = contexts.context(ContextId(a)).high_value_fraction;
            let hb = contexts.context(ContextId(b)).high_value_fraction;
            ha.total_cmp(&hb)
        });
        for pair in order.chunks_exact(2) {
            let (a, b) = match *pair {
                [a, b] => (a, b),
                _ => continue,
            };
            let (Some(tiles_a), Some(tiles_b)) = (engine_subsets.get(a), engine_subsets.get(b))
            else {
                continue;
            };
            let union = [tiles_a.as_slice(), tiles_b.as_slice()].concat();
            if union.len() >= MIN_CONTEXT_TILES {
                let scope = ModelScope::Multi(vec![ContextId(a), ContextId(b)]);
                let task_seed = crate::par::stream_seed(seed, 1000 + a as u64 * 31 + b as u64);
                tasks.push((scope, Cow::Owned(union), task_seed));
            }
        }

        let workers = resolve_workers(config.workers);
        let models = par_map_indexed(workers, &tasks, |_, (scope, tiles, task_seed)| {
            let mut train_cfg = config.train;
            train_cfg.seed = *task_seed;
            SpecializedModel::train(
                tiles,
                arch,
                scope.clone(),
                config.max_train_pixels,
                &train_cfg,
            )
        });

        let merged = tasks
            .iter()
            .filter(|(scope, ..)| matches!(scope, ModelScope::Multi(_)))
            .count();
        recorder.count(CounterId::ModelsTrained, models.len() as u64);
        recorder.count(CounterId::MergedModelsTrained, merged as u64);
        recorder.span(StageId::Specialization, 0.0, models.len() as u64);
        recorder.span(StageId::Validation, 0.0, val_tiles.len() as u64);

        // Validation statistics are gathered under *engine* assignment,
        // matching what the runtime will experience.
        let mut groups: Vec<Vec<&TileImage>> = vec![Vec::new(); k];
        for t in &val_tiles {
            if let Some(group) = groups.get_mut(engine.classify(t).0) {
                group.push(t);
            }
        }
        let total_val = val_tiles.len().max(1) as f64;

        let mut context_weights = Vec::with_capacity(k);
        let mut context_hv = Vec::with_capacity(k);
        for (c, group) in groups.iter().enumerate() {
            context_weights.push(group.len() as f64 / total_val);
            let hv = if group.is_empty() {
                contexts.context(ContextId(c)).high_value_fraction
            } else {
                // Serial left-to-right accumulation in group order pins the
                // (non-associative) f64 reduction order.
                let mut hv_sum = 0.0;
                for t in group.iter() {
                    hv_sum += t.high_value_fraction();
                }
                hv_sum / group.len() as f64
            };
            context_hv.push(hv);
        }

        // Each slot is validated on the contexts its scope covers that have
        // validation tiles, and the global row on every context (an empty
        // one evaluates to the zero matrix).
        let evals = models
            .iter()
            .map(|model| {
                let global = *model.scope() == ModelScope::Global;
                groups
                    .iter()
                    .enumerate()
                    .map(|(c, group)| {
                        let covered =
                            global || (model.scope().covers(ContextId(c)) && !group.is_empty());
                        covered.then(|| model.evaluate(group.iter().copied()))
                    })
                    .collect()
            })
            .collect();

        GridArtifacts {
            grid,
            models,
            evals,
            context_weights,
            context_hv,
        }
    }
}

/// Chooses a cluster count in `2..=max_contexts` by silhouette score
/// over (a sample of) the training tiles' transformed label vectors —
/// the cluster-count sweep of paper Section 3.2.
fn sweep_cluster_count(
    tiles: &[TileImage],
    max_contexts: usize,
    metric: kodan_ml::metrics::DistanceMetric,
    transform: kodan_ml::transform::TransformKind,
    seed: u64,
) -> usize {
    let labels: Vec<Vec<f64>> = tiles
        .iter()
        .take(400) // silhouette is O(n^2); a sample is plenty
        .map(|t| t.label_vector().to_vec())
        .collect();
    let fitted = transform.fit(&labels);
    let transformed = fitted.apply_all(&labels);
    let mut best_k = 2;
    let mut best_score = f64::NEG_INFINITY;
    for k in 2..=max_contexts.min(transformed.len()) {
        let km = kodan_ml::kmeans::KMeans::fit(&transformed, k, metric, seed);
        let score = kodan_ml::kmeans::silhouette(&transformed, &km);
        if score > best_score {
            best_score = score;
            best_k = k;
        }
    }
    best_k
}

/// Deterministically samples up to `cap` tiles.
fn sample_tiles(mut tiles: Vec<TileImage>, cap: usize, seed: u64) -> Vec<TileImage> {
    if tiles.len() <= cap {
        return tiles;
    }
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0xEA71);
    for i in (1..tiles.len()).rev() {
        let j = rng.random_range(0..=i);
        tiles.swap(i, j);
    }
    tiles.truncate(cap);
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;
    use kodan_geodata::{DatasetConfig, World};

    fn artifacts() -> TransformationArtifacts {
        let world = World::new(42);
        let mut ds_cfg = DatasetConfig::small(1);
        ds_cfg.frame_count = 14;
        ds_cfg.frame_px = 132;
        let dataset = Dataset::sample(&world, &ds_cfg);
        Transformation::new(KodanConfig::fast(7))
            .run(&dataset, ModelArch::ResNet50DilatedPpm)
            .expect("transformation succeeds")
    }

    #[test]
    fn transformation_produces_all_grids() {
        let a = artifacts();
        assert_eq!(a.grids.len(), 4);
        let grids: Vec<usize> = a.grids.iter().map(|g| g.grid).collect();
        assert_eq!(grids, vec![3, 4, 6, 11]);
        assert_eq!(a.contexts.len(), 3);
    }

    #[test]
    fn per_grid_statistics_are_consistent() {
        let a = artifacts();
        for ga in &a.grids {
            let weight_sum: f64 = ga.context_weights.iter().sum();
            assert!((weight_sum - 1.0).abs() < 1e-9, "weights sum {weight_sum}");
            assert_eq!(ga.models.first().map(|m| m.scope()), Some(&ModelScope::Global));
            assert_eq!(ga.evals.first().map(Vec::len), Some(a.contexts.len()));
            for hv in &ga.context_hv {
                assert!((0.0..=1.0).contains(hv));
            }
            // Per-context evals sum to the overall eval.
            let mut summed = ConfusionMatrix::new();
            for c in 0..a.contexts.len() {
                summed += ga.global_eval(c);
            }
            assert_eq!(summed, ga.global_eval_all());
        }
    }

    #[test]
    fn every_slot_is_validated_on_exactly_the_contexts_it_covers() {
        let mut ds_cfg = DatasetConfig::small(1);
        ds_cfg.frame_count = 10;
        ds_cfg.frame_px = 132;
        let mut config = KodanConfig::fast(7);
        config.generation = crate::config::ContextGenerationKind::Expert;
        // A small validation sample leaves some contexts without tiles.
        config.max_eval_tiles = 6;
        let expert = Transformation::new(config)
            .run(
                &Dataset::sample(&World::new(42), &ds_cfg),
                ModelArch::MobileNetV2DilatedC1,
            )
            .expect("transformation succeeds");
        let mut empty_contexts = 0;
        for a in [artifacts(), expert] {
            let k = a.contexts.len();
            for ga in &a.grids {
                assert_eq!(ga.evals.len(), ga.models.len(), "grid {}", ga.grid);
                for (slot, (model, row)) in ga.models.iter().zip(&ga.evals).enumerate() {
                    assert_eq!(row.len(), k, "grid {} slot {slot}", ga.grid);
                    for (c, entry) in row.iter().enumerate() {
                        // A context has validation tiles iff its weight is
                        // positive; the global row covers every context.
                        let has_tiles = ga.context_weights[c] > 0.0;
                        let covered =
                            slot == 0 || (model.scope().covers(ContextId(c)) && has_tiles);
                        let at = format!("grid {} slot {slot} ctx {c}", ga.grid);
                        assert_eq!(entry.is_some(), covered, "{at}");
                        if let Some(cm) = entry {
                            assert_eq!(cm.total() > 0, has_tiles, "{at}");
                        }
                        empty_contexts += usize::from(slot == 0 && !has_tiles);
                    }
                }
            }
        }
        // The fixtures exercise the zero-matrix rule of the global row.
        assert!(empty_contexts > 0);
    }

    #[test]
    fn models_learn_something() {
        let a = artifacts();
        for ga in &a.grids {
            assert!(
                ga.global_eval_all().accuracy() > 0.6,
                "grid {}: accuracy {}",
                ga.grid,
                ga.global_eval_all().accuracy()
            );
        }
    }

    #[test]
    fn selection_logic_derivable_for_every_target() {
        let a = artifacts();
        for target in HwTarget::ALL {
            let logic = a.select_with_capacity(target, Duration::from_seconds(22.0), 0.21);
            assert!(logic.tiles_per_frame() >= 9);
            assert_eq!(logic.actions().len(), a.contexts.len());
            assert!(logic.estimate().dvd > 0.0);
        }
    }

    #[test]
    fn constrained_target_picks_cheaper_configuration() {
        let a = artifacts();
        let deadline = Duration::from_seconds(22.0);
        let orin = a.select_with_capacity(HwTarget::OrinAgx15W, deadline, 0.21);
        let gpu = a.select_with_capacity(HwTarget::Gtx1070Ti, deadline, 0.21);
        // The Orin must be at or below the GPU's frame time in relative
        // terms: its selected configuration cannot be *more* aggressive
        // than the GPU's in tile count when compute is the bottleneck.
        assert!(
            orin.tiles_per_frame() <= gpu.tiles_per_frame(),
            "orin {} tiles vs gpu {} tiles",
            orin.tiles_per_frame(),
            gpu.tiles_per_frame()
        );
    }

    #[test]
    fn recorded_transformation_matches_and_reports_stages() {
        let world = World::new(42);
        let mut ds_cfg = DatasetConfig::small(1);
        ds_cfg.frame_count = 10;
        ds_cfg.frame_px = 132;
        let dataset = Dataset::sample(&world, &ds_cfg);
        let t = Transformation::new(KodanConfig::fast(7));
        let plain = t
            .run(&dataset, ModelArch::MobileNetV2DilatedC1)
            .expect("transformation succeeds");
        let mut recorder = kodan_telemetry::SummaryRecorder::new();
        let recorded = t
            .run_recorded(&dataset, ModelArch::MobileNetV2DilatedC1, &mut recorder)
            .expect("transformation succeeds");
        assert_eq!(plain, recorded);
        let snap = recorder.snapshot();
        assert_eq!(
            snap.counter(CounterId::ContextsGenerated) as usize,
            recorded.contexts.len()
        );
        assert_eq!(
            snap.span(StageId::Transformation).items as usize,
            recorded.grids.len()
        );
        // One specialization span per swept grid, each training at least
        // the global model.
        assert_eq!(
            snap.span(StageId::Specialization).calls as usize,
            recorded.grids.len()
        );
        assert!(snap.counter(CounterId::ModelsTrained) >= recorded.grids.len() as u64);
        assert!(snap.span(StageId::ContextGeneration).items > 0);
        assert!(snap.span(StageId::Validation).items > 0);
    }

    #[test]
    fn grid_artifacts_lookup_errors_for_unknown_grid() {
        let a = artifacts();
        assert_eq!(a.grid_artifacts(11).expect("grid 11 swept").grid, 11);
        assert_eq!(a.grid_artifacts(5), Err(KodanError::UnknownGrid(5)));
    }

    #[test]
    fn engine_agreement_is_reported() {
        let a = artifacts();
        assert!(a.engine_val_agreement > 0.4, "{}", a.engine_val_agreement);
    }

    #[test]
    fn expert_generation_runs_end_to_end() {
        let world = World::new(42);
        let mut ds_cfg = DatasetConfig::small(1);
        ds_cfg.frame_count = 10;
        ds_cfg.frame_px = 132;
        let dataset = Dataset::sample(&world, &ds_cfg);
        let mut config = KodanConfig::fast(7);
        config.generation = crate::config::ContextGenerationKind::Expert;
        let a = Transformation::new(config)
            .run(&dataset, ModelArch::MobileNetV2DilatedC1)
            .expect("transformation succeeds");
        assert!(a.contexts.expert_surface_map().is_some());
        assert!(a.contexts.len() >= 2);
        let logic =
            a.select_with_capacity(HwTarget::OrinAgx15W, Duration::from_seconds(22.0), 0.21);
        assert_eq!(logic.actions().len(), a.contexts.len());
    }

    #[test]
    fn auto_sweep_selects_a_cluster_count_in_range() {
        let world = World::new(42);
        let mut ds_cfg = DatasetConfig::small(1);
        ds_cfg.frame_count = 10;
        ds_cfg.frame_px = 132;
        let dataset = Dataset::sample(&world, &ds_cfg);
        let mut config = KodanConfig::fast(7);
        config.generation = crate::config::ContextGenerationKind::AutoSweep { max_contexts: 5 };
        let a = Transformation::new(config)
            .run(&dataset, ModelArch::MobileNetV2DilatedC1)
            .expect("transformation succeeds");
        assert!((2..=5).contains(&a.contexts.len()), "k = {}", a.contexts.len());
    }
}
