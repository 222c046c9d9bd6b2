//! The one-time transformation step (paper Figure 7, left).
//!
//! Before deployment, Kodan takes a reference application (here: a cloud
//! filter at one of the Table 1 architectures) and a representative
//! dataset, and produces everything the satellite will carry:
//!
//! 1. a partition of the dataset into geospatial **contexts**,
//! 2. a **context engine** that classifies observed tiles into contexts,
//! 3. **specialized models** (plus the global reference model) trained
//!    and validated per tile grid,
//! 4. per-grid, per-context **validation statistics** from which the
//!    [`crate::selection::SelectionLogic`] for any hardware target can
//!    be derived.
//!
//! The artifacts are target-independent; deriving a selection logic for a
//! target is cheap and can be repeated for every platform (the paper
//! deploys the same seven applications to three targets).

use crate::config::{ContextGenerationKind, KodanConfig};
use crate::context::{ContextId, ContextSet};
use crate::engine::ContextEngine;
use crate::selection::{SelectionLogic, DEFAULT_CAPACITY_FRACTION};
use crate::specialize::{ModelScope, SpecializedModel};
use crate::KodanError;
use kodan_cote::time::Duration;
use kodan_geodata::dataset::Dataset;
use kodan_geodata::tile::TileImage;
use kodan_hw::targets::HwTarget;
use kodan_ml::eval::ConfusionMatrix;
use kodan_ml::zoo::ModelArch;
use kodan_telemetry::{CounterId, NullRecorder, Recorder, StageId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// Minimum training tiles required to specialize a model to a context;
/// below this the context falls back to the global model.
const MIN_CONTEXT_TILES: usize = 5;

/// Per-tile-grid artifacts: the grid's model table and validation
/// statistics.
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
    /// Validation confusion of the global model restricted to each
    /// engine-assigned context.
    pub global_eval_per_context: Vec<ConfusionMatrix>,
    /// Validation confusion of each context's own model on its
    /// engine-assigned tiles (None when the context has no model or no
    /// tiles).
    pub context_model_eval: Vec<Option<ConfusionMatrix>>,
    /// Fraction of validation tiles the engine assigns to each context.
    pub context_weights: Vec<f64>,
    /// Mean high-value pixel fraction of each context's validation tiles.
    pub context_hv: Vec<f64>,
    /// `merged_eval[m][c]`: validation confusion of the `m`-th merged
    /// model in the table on context `c`'s engine-assigned tiles (None
    /// where not covered or no tiles).
    pub merged_eval: Vec<Vec<Option<ConfusionMatrix>>>,
    /// Validation confusion of the global model over all tiles (the
    /// direct-deploy statistic, and Figure 13's tiling data).
    pub global_eval_all: ConfusionMatrix,
    /// Validation confusion of the context-specialized composite: each
    /// tile routed by the engine to its context model (global fallback).
    /// This is Figure 12's "geospatial contexts" statistic.
    pub composite_eval_all: ConfusionMatrix,
}

impl GridArtifacts {
    /// The single-context model of `context`, if that context had enough
    /// training tiles to specialize one.
    pub fn context_model(&self, context: ContextId) -> Option<&SpecializedModel> {
        self.models
            .iter()
            .find(|m| *m.scope() == ModelScope::Context(context))
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
    /// Derives the selection logic for a hardware target using the
    /// default Landsat-like downlink capacity fraction.
    pub fn select_for_target(&self, target: HwTarget, deadline: Duration) -> SelectionLogic {
        SelectionLogic::build(self, target, deadline, DEFAULT_CAPACITY_FRACTION)
    }

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

    /// The configuration.
    pub fn config(&self) -> &KodanConfig {
        &self.config
    }

    /// Runs the one-time transformation for a reference application.
    ///
    /// # Errors
    ///
    /// Returns [`KodanError::NoGrids`] if the configuration lists no
    /// tile grids to sweep.
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
    /// Returns [`KodanError::NoGrids`] if the configuration lists no
    /// tile grids to sweep.
    pub fn run_recorded(
        &self,
        dataset: &Dataset,
        arch: ModelArch,
        recorder: &mut dyn Recorder,
    ) -> Result<TransformationArtifacts, KodanError> {
        let config = &self.config;
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

        let mut train_cfg = config.train;
        train_cfg.seed = seed;

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

        // Training is embarrassingly parallel across models: every task's
        // RNG stream is derived from the grid seed and the task's stable
        // identity (context id, merged pair), never from worker or
        // completion order, so the trained weights are bit-identical to a
        // serial run. The task list is built in table order (global,
        // contexts ascending, merged pairs in value-profile order) and
        // results come back index-keyed in that same order, so they *are*
        // the grid's model table.
        enum TrainTask<'t> {
            Global,
            Context(usize, &'t [TileImage]),
            Merged(usize, usize, Vec<TileImage>),
        }
        let mut tasks: Vec<TrainTask<'_>> = vec![TrainTask::Global];
        for (c, subset) in engine_subsets.iter().enumerate() {
            if subset.len() >= MIN_CONTEXT_TILES {
                tasks.push(TrainTask::Context(c, subset));
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
            let mut union: Vec<TileImage> =
                engine_subsets.get(a).cloned().unwrap_or_default();
            union.extend(engine_subsets.get(b).into_iter().flatten().cloned());
            if union.len() >= MIN_CONTEXT_TILES {
                tasks.push(TrainTask::Merged(a, b, union));
            }
        }

        let workers = crate::par::resolve_workers(config.workers);
        let models = crate::par::par_map_indexed(workers, &tasks, |_, task| match task {
            TrainTask::Global => SpecializedModel::train_global(
                &train_tiles,
                arch,
                config.max_train_pixels,
                &train_cfg,
            ),
            TrainTask::Context(c, subset) => {
                let mut cfg = train_cfg;
                cfg.seed = crate::par::stream_seed(seed, *c as u64 + 1);
                SpecializedModel::train_for_context(
                    subset,
                    arch,
                    ContextId(*c),
                    config.max_train_pixels,
                    &cfg,
                )
            }
            TrainTask::Merged(a, b, union) => {
                let mut cfg = train_cfg;
                cfg.seed = crate::par::stream_seed(seed, 1000 + *a as u64 * 31 + *b as u64);
                SpecializedModel::train_for_contexts(
                    union,
                    arch,
                    vec![ContextId(*a), ContextId(*b)],
                    config.max_train_pixels,
                    &cfg,
                )
            }
        });

        let merged = tasks
            .iter()
            .filter(|t| matches!(t, TrainTask::Merged(..)))
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

        // Every slot is validated on the non-empty contexts its scope
        // covers; an empty context evaluates to the zero matrix.
        let mut global_eval_per_context = vec![ConfusionMatrix::new(); k];
        let mut context_model_eval: Vec<Option<ConfusionMatrix>> = vec![None; k];
        let mut merged_eval: Vec<Vec<Option<ConfusionMatrix>>> = Vec::new();
        for model in &models {
            let evals: Vec<Option<ConfusionMatrix>> = groups
                .iter()
                .enumerate()
                .map(|(c, group)| {
                    let covered = model.scope().covers(ContextId(c)) && !group.is_empty();
                    covered.then(|| model.evaluate(group.iter().copied()))
                })
                .collect();
            match model.scope() {
                ModelScope::Global => {
                    global_eval_per_context =
                        evals.into_iter().map(Option::unwrap_or_default).collect();
                }
                ModelScope::Context(c) => {
                    if let Some(slot) = context_model_eval.get_mut(c.0) {
                        *slot = evals.get(c.0).copied().flatten();
                    }
                }
                ModelScope::Multi(_) => merged_eval.push(evals),
            }
        }
        // The composite routes each context to its own model's tiles, or
        // to the global model where the context has no model (a context
        // with a model but no tiles adds the zero matrix either way).
        let mut global_eval_all = ConfusionMatrix::new();
        let mut composite_eval_all = ConfusionMatrix::new();
        for (global_cm, own_cm) in global_eval_per_context.iter().zip(&context_model_eval) {
            global_eval_all += *global_cm;
            composite_eval_all += own_cm.unwrap_or(*global_cm);
        }

        GridArtifacts {
            grid,
            models,
            global_eval_per_context,
            context_model_eval,
            context_weights,
            context_hv,
            merged_eval,
            global_eval_all,
            composite_eval_all,
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
            assert_eq!(ga.global_eval_per_context.len(), a.contexts.len());
            for hv in &ga.context_hv {
                assert!((0.0..=1.0).contains(hv));
            }
            // Per-context evals sum to the overall eval.
            let mut summed = ConfusionMatrix::new();
            for cm in &ga.global_eval_per_context {
                summed += *cm;
            }
            assert_eq!(summed, ga.global_eval_all);
        }
    }

    #[test]
    fn models_learn_something() {
        let a = artifacts();
        for ga in &a.grids {
            assert!(
                ga.global_eval_all.accuracy() > 0.6,
                "grid {}: accuracy {}",
                ga.grid,
                ga.global_eval_all.accuracy()
            );
        }
    }

    #[test]
    fn selection_logic_derivable_for_every_target() {
        let a = artifacts();
        for target in HwTarget::ALL {
            let logic = a.select_for_target(target, Duration::from_seconds(22.0));
            assert!(logic.tiles_per_frame() >= 9);
            assert_eq!(logic.actions().len(), a.contexts.len());
            assert!(logic.estimate().dvd > 0.0);
        }
    }

    #[test]
    fn constrained_target_picks_cheaper_configuration() {
        let a = artifacts();
        let deadline = Duration::from_seconds(22.0);
        let orin = a.select_for_target(HwTarget::OrinAgx15W, deadline);
        let gpu = a.select_for_target(HwTarget::Gtx1070Ti, deadline);
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
        let logic = a.select_for_target(HwTarget::OrinAgx15W, Duration::from_seconds(22.0));
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
