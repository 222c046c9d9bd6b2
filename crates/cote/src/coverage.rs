//! Constellation coverage analysis over the WRS scene grid.
//!
//! Answers the paper's Figure 3 question: how many satellites does it take
//! to *observe* every frame of Earth each day? Observation is counted on
//! the WRS-style grid of [`crate::wrs`]; a scene is observed when any
//! satellite's ground track passes through it during the horizon.

use crate::constellation::Constellation;
use crate::propagate::ground_track_point;
use crate::sensor::Imager;
use crate::time::Duration;
use crate::wrs::{SceneId, WorldReferenceSystem};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Result of a coverage analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageReport {
    /// Number of satellites analyzed.
    pub satellite_count: usize,
    /// Unique scenes observed during the horizon.
    pub unique_scenes: usize,
    /// Total scenes in the grid.
    pub total_scenes: u32,
    /// Total (non-unique) frame observations.
    pub total_observations: u64,
}

impl CoverageReport {
    /// Fraction of the grid observed, in `[0, 1]`.
    pub fn coverage_fraction(&self) -> f64 {
        self.unique_scenes as f64 / f64::from(self.total_scenes)
    }
}

/// Computes the unique-scene coverage of a constellation over `horizon`.
///
/// Each satellite contributes one ground-track sample per frame deadline
/// (i.e., one per captured frame). Scenes poleward of the grid limit clamp
/// into the boundary rows, mirroring how WRS-2 handles near-polar scenes.
pub fn coverage(
    constellation: &Constellation,
    imager: &Imager,
    wrs: &WorldReferenceSystem,
    horizon: Duration,
) -> CoverageReport {
    let mut scenes: BTreeSet<SceneId> = BTreeSet::new();
    let mut observations: u64 = 0;
    for orbit in constellation {
        let deadline = imager.frame_deadline(orbit);
        let count = (horizon / deadline).floor() as u64;
        for i in 0..count {
            let t = orbit.epoch() + deadline * (i as f64);
            let point = ground_track_point(orbit, t);
            scenes.insert(wrs.scene_of(&point));
            observations += 1;
        }
    }
    CoverageReport {
        satellite_count: constellation.len(),
        unique_scenes: scenes.len(),
        total_scenes: wrs.scene_count(),
        total_observations: observations,
    }
}

/// Sweeps constellation sizes and reports coverage for each, using the
/// spread (multi-plane) layout. Returns one report per entry in `counts`.
pub fn coverage_sweep(
    base: crate::orbit::Orbit,
    counts: &[usize],
    imager: &Imager,
    wrs: &WorldReferenceSystem,
    horizon: Duration,
) -> Vec<CoverageReport> {
    counts
        .iter()
        .map(|&n| {
            let constellation = Constellation::spread(base, n);
            coverage(&constellation, imager, wrs, horizon)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orbit::Orbit;

    fn landsat_coverage(n: usize, hours: f64) -> CoverageReport {
        let base = Orbit::sun_synchronous(705_000.0);
        coverage(
            &Constellation::spread(base, n),
            &Imager::landsat_oli(),
            &WorldReferenceSystem::wrs2_like(),
            Duration::from_hours(hours),
        )
    }

    #[test]
    fn single_satellite_covers_small_fraction_daily() {
        let report = landsat_coverage(1, 24.0);
        // One satellite revisits the full WRS-2 grid only every 16 days.
        let frac = report.coverage_fraction();
        assert!(
            (0.01..0.25).contains(&frac),
            "single-satellite daily coverage = {frac}"
        );
    }

    #[test]
    fn coverage_increases_with_satellite_count() {
        let c1 = landsat_coverage(1, 12.0);
        let c8 = landsat_coverage(8, 12.0);
        assert!(c8.unique_scenes > c1.unique_scenes);
        assert_eq!(c8.satellite_count, 8);
    }

    #[test]
    fn observations_scale_linearly_with_satellites() {
        let c1 = landsat_coverage(1, 6.0);
        let c4 = landsat_coverage(4, 6.0);
        assert_eq!(c4.total_observations, 4 * c1.total_observations);
    }

    #[test]
    fn sweep_returns_one_report_per_count() {
        let base = Orbit::sun_synchronous(705_000.0);
        let reports = coverage_sweep(
            base,
            &[1, 2, 4],
            &Imager::landsat_oli(),
            &WorldReferenceSystem::wrs2_like(),
            Duration::from_hours(3.0),
        );
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].satellite_count, 1);
        assert_eq!(reports[2].satellite_count, 4);
    }
}
