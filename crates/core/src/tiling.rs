//! Frame-tiling analysis: the accuracy/precision/time trade (Figures 6,
//! 13 and 14).
//!
//! Tile count per frame determines both the decimation each tile suffers
//! on its way to the model input and the total frame processing time.
//! This module reads the per-grid validation statistics out of the
//! transformation artifacts and prices each tiling on a target.

use crate::pipeline::TransformationArtifacts;
use crate::selection::{best_by, global_model_estimate, SelectionEstimate};
use kodan_cote::time::Duration;
use kodan_hw::latency::LatencyModel;
use kodan_hw::targets::HwTarget;
use serde::{Deserialize, Serialize};

/// One point of a tiling sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TilingPoint {
    /// Grid dimension.
    pub grid: usize,
    /// Tiles per frame (`grid * grid`).
    pub tiles_per_frame: usize,
    /// Validation accuracy of the global model at this tiling.
    pub accuracy: f64,
    /// Validation precision of the global model at this tiling.
    pub precision: f64,
    /// Frame processing time on the target (global model everywhere).
    pub frame_time: Duration,
    /// Estimated behavior of the tiles-only policy on the target.
    pub estimate: SelectionEstimate,
}

/// Sweeps every grid in the artifacts for a target, pricing the
/// global-model-everywhere policy (the tiling ablation of Figures 13-14:
/// no contexts, no elision) exactly as the fixed baselines of
/// [`crate::selection::SelectionLogic`] price it.
pub fn tiling_sweep(
    artifacts: &TransformationArtifacts,
    target: HwTarget,
    deadline: Duration,
    capacity_fraction: f64,
) -> Vec<TilingPoint> {
    let latency = LatencyModel::new(target);
    artifacts
        .grids
        .iter()
        .map(|ga| {
            let estimate =
                global_model_estimate(artifacts, ga, &latency, deadline, capacity_fraction);
            TilingPoint {
                grid: ga.grid,
                tiles_per_frame: ga.grid * ga.grid,
                accuracy: ga.global_eval_all.accuracy(),
                precision: ga.global_eval_all.precision(),
                frame_time: estimate.frame_time,
                estimate,
            }
        })
        .collect()
}

/// The grid of the point with the highest `key`. Points with a
/// non-finite key rank last and ties go to the later point; an empty
/// sweep has no grid and returns 0.
fn optimal_grid(points: &[TilingPoint], key: impl Fn(&TilingPoint) -> f64) -> usize {
    best_by(points, key).map_or(0, |p| p.grid)
}

/// The grid that maximizes validation accuracy (0 for an empty sweep).
pub fn accuracy_optimal_grid(points: &[TilingPoint]) -> usize {
    optimal_grid(points, |p| p.accuracy)
}

/// The grid that maximizes validation precision (0 for an empty sweep).
pub fn precision_optimal_grid(points: &[TilingPoint]) -> usize {
    optimal_grid(points, |p| p.precision)
}

/// The grid that maximizes estimated DVD on the target (0 for an empty
/// sweep).
pub fn dvd_optimal_grid(points: &[TilingPoint]) -> usize {
    optimal_grid(points, |p| p.estimate.dvd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KodanConfig;
    use crate::pipeline::Transformation;
    use kodan_geodata::{Dataset, DatasetConfig, World};
    use kodan_ml::zoo::ModelArch;

    fn sweep(target: HwTarget) -> Vec<TilingPoint> {
        let world = World::new(42);
        let mut ds_cfg = DatasetConfig::small(1);
        ds_cfg.frame_count = 12;
        ds_cfg.frame_px = 132;
        let dataset = Dataset::sample(&world, &ds_cfg);
        let artifacts = Transformation::new(KodanConfig::fast(3))
            .run(&dataset, ModelArch::ResNet50DilatedPpm)
            .expect("transformation succeeds");
        tiling_sweep(
            &artifacts,
            target,
            Duration::from_seconds(22.0),
            0.21,
        )
    }

    #[test]
    fn sweep_covers_all_grids_with_valid_stats() {
        let points = sweep(HwTarget::OrinAgx15W);
        assert_eq!(points.len(), 4);
        for p in &points {
            assert_eq!(p.tiles_per_frame, p.grid * p.grid);
            assert!((0.0..=1.0).contains(&p.accuracy));
            assert!((0.0..=1.0).contains(&p.precision));
            assert!(p.frame_time.as_seconds() > 0.0);
        }
    }

    #[test]
    fn frame_time_scales_with_tile_count() {
        let points = sweep(HwTarget::OrinAgx15W);
        let by_grid = |g: usize| {
            points
                .iter()
                .find(|p| p.grid == g)
                .expect("grid present")
                .frame_time
                .as_seconds()
        };
        assert!(by_grid(11) > by_grid(6));
        assert!(by_grid(6) > by_grid(4));
        assert!(by_grid(4) > by_grid(3));
        // 121 tiles vs 9 tiles: ~13.4x.
        let ratio = by_grid(11) / by_grid(3);
        assert!((12.0..15.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn constrained_target_prefers_coarser_tiling_than_unconstrained() {
        let orin = dvd_optimal_grid(&sweep(HwTarget::OrinAgx15W));
        let gpu = dvd_optimal_grid(&sweep(HwTarget::Gtx1070Ti));
        assert!(
            orin <= gpu,
            "orin prefers grid {orin}, gpu prefers grid {gpu}"
        );
        // On the Orin, dense tiling is unaffordable.
        assert!(orin <= 4, "orin picked grid {orin}");
    }

    #[test]
    fn optimal_grid_selectors_survive_nan_keys_and_empty_sweeps() {
        let mut points = sweep(HwTarget::Gtx1070Ti);
        let (first, last) = (points[0].grid, points[points.len() - 1].grid);
        // Corrupted statistics on every point but the first: the NaN
        // keys rank last, so the one finite point wins each ranking.
        for p in points.iter_mut().skip(1) {
            p.accuracy = f64::NAN;
            p.precision = f64::NAN;
            p.estimate.dvd = f64::NAN;
        }
        assert_eq!(accuracy_optimal_grid(&points), first);
        assert_eq!(precision_optimal_grid(&points), first);
        assert_eq!(dvd_optimal_grid(&points), first);
        // All keys non-finite: they tie, and the later point wins.
        points[0].accuracy = f64::INFINITY;
        assert_eq!(accuracy_optimal_grid(&points), last);
        assert_eq!(accuracy_optimal_grid(&[]), 0);
        assert_eq!(precision_optimal_grid(&[]), 0);
        assert_eq!(dvd_optimal_grid(&[]), 0);
    }

    #[test]
    fn optimal_grid_selectors_agree_with_manual_scan() {
        let points = sweep(HwTarget::Gtx1070Ti);
        let acc = accuracy_optimal_grid(&points);
        for p in &points {
            let best = points.iter().find(|q| q.grid == acc).expect("present");
            assert!(p.accuracy <= best.accuracy + 1e-12);
        }
        let prec = precision_optimal_grid(&points);
        for p in &points {
            let best = points.iter().find(|q| q.grid == prec).expect("present");
            assert!(p.precision <= best.precision + 1e-12);
        }
    }
}
