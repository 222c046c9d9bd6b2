//! Constellation sizing for full ground-track coverage (Figure 11).
//!
//! For continuous ground-track processing coverage every frame must be
//! processed within the frame deadline. When an application's per-frame
//! time exceeds the deadline, prior OEC work distributes tiles across a
//! pipeline of satellites — requiring `ceil(frame_time / deadline)`
//! devices. Kodan shrinks per-frame time below the deadline instead,
//! reducing the required constellation size by up to ~12x.

use crate::pipeline::TransformationArtifacts;
use crate::selection::SelectionLogic;
use kodan_cote::time::Duration;
use kodan_hw::targets::HwTarget;
use serde::{Deserialize, Serialize};

/// Number of pipeline satellites needed to cover the full ground track
/// when one frame takes `frame_time` against `deadline`.
///
/// # Panics
///
/// Panics if the deadline is not positive.
pub fn satellites_required(frame_time: Duration, deadline: Duration) -> usize {
    assert!(deadline.as_seconds() > 0.0, "deadline must be positive");
    (frame_time.as_seconds() / deadline.as_seconds()).ceil().max(1.0) as usize
}

/// Satellite counts required under each deployment strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageComparison {
    /// Direct deployment: densest tiling, full model.
    pub direct_deploy: usize,
    /// The best-precision tiling with the full model (prior-work OEC
    /// tuning without Kodan's context techniques).
    pub max_precision_tiling: usize,
    /// The full Kodan selection logic.
    pub kodan: usize,
}

impl CoverageComparison {
    /// Constellation-size reduction factor of Kodan over direct
    /// deployment.
    pub fn reduction_vs_direct(&self) -> f64 {
        self.direct_deploy as f64 / self.kodan as f64
    }
}

/// Compares constellation sizing for one application on one target.
pub fn coverage_comparison(
    artifacts: &TransformationArtifacts,
    target: HwTarget,
    deadline: Duration,
    capacity_fraction: f64,
) -> CoverageComparison {
    let direct = SelectionLogic::direct_deploy(artifacts, target, deadline, capacity_fraction);
    let max_prec =
        SelectionLogic::max_precision_tiling(artifacts, target, deadline, capacity_fraction);
    let kodan = SelectionLogic::build(artifacts, target, deadline, capacity_fraction);
    CoverageComparison {
        direct_deploy: satellites_required(direct.estimate().frame_time, deadline),
        max_precision_tiling: satellites_required(max_prec.estimate().frame_time, deadline),
        kodan: satellites_required(kodan.estimate().frame_time, deadline),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KodanConfig;
    use crate::pipeline::Transformation;
    use kodan_geodata::{Dataset, DatasetConfig, World};
    use kodan_ml::zoo::ModelArch;

    #[test]
    fn satellites_required_is_ceiling() {
        let d = Duration::from_seconds(22.0);
        assert_eq!(satellites_required(Duration::from_seconds(10.0), d), 1);
        assert_eq!(satellites_required(Duration::from_seconds(22.0), d), 1);
        assert_eq!(satellites_required(Duration::from_seconds(23.0), d), 2);
        assert_eq!(satellites_required(Duration::from_seconds(247.0), d), 12);
    }

    #[test]
    fn kodan_needs_fewer_satellites_than_direct_deploy() {
        let world = World::new(42);
        let mut ds_cfg = DatasetConfig::small(1);
        ds_cfg.frame_count = 12;
        ds_cfg.frame_px = 132;
        let dataset = Dataset::sample(&world, &ds_cfg);
        let artifacts = Transformation::new(KodanConfig::fast(3))
            .run(&dataset, ModelArch::ResNet101DilatedPpm)
            .expect("transformation succeeds");
        let cmp = coverage_comparison(
            &artifacts,
            HwTarget::OrinAgx15W,
            Duration::from_seconds(22.0),
            0.21,
        );
        // Direct deploy of App 7 on the Orin: 121 x ~2 s >> 22 s.
        assert!(cmp.direct_deploy >= 10, "direct {}", cmp.direct_deploy);
        assert_eq!(cmp.kodan, 1, "kodan should meet the deadline");
        assert!(cmp.reduction_vs_direct() >= 10.0);
        assert!(cmp.max_precision_tiling >= cmp.kodan);
    }

    #[test]
    #[should_panic(expected = "deadline")]
    fn rejects_zero_deadline() {
        let _ = satellites_required(Duration::from_seconds(1.0), Duration::ZERO);
    }
}
