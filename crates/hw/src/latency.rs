//! The latency model: per-tile execution times on each deployment target.
//!
//! For the seven full reference architectures the model returns the
//! paper's measured Table 1 values exactly. Kodan's context-specialized
//! models are *smaller* networks, so their cost scales with their op
//! count relative to the full architecture, with a floor that accounts
//! for the fixed per-tile overheads (resize, memory traffic, kernel
//! launch) that do not shrink with the model.

use kodan_cote::time::Duration;
use kodan_ml::zoo::ModelArch;
use serde::{Deserialize, Serialize};

use crate::table1::per_tile_ms;
use crate::targets::HwTarget;

/// Fraction of a full model's per-tile time that remains even for an
/// arbitrarily small specialized model (pre/post-processing, memory).
pub const SPECIALIZATION_TIME_FLOOR: f64 = 0.12;

/// The latency model for one deployment target.
///
/// # Example
///
/// ```
/// use kodan_hw::latency::LatencyModel;
/// use kodan_hw::targets::HwTarget;
/// use kodan_ml::zoo::ModelArch;
///
/// let model = LatencyModel::new(HwTarget::Gtx1070Ti);
/// let full = model.full_model_tile_time(ModelArch::ResNet50DilatedPpm);
/// let specialized = model.specialized_tile_time(ModelArch::ResNet50DilatedPpm, 0.4);
/// assert!(specialized < full);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    target: HwTarget,
}

impl LatencyModel {
    /// Creates a latency model for a target.
    pub fn new(target: HwTarget) -> LatencyModel {
        LatencyModel { target }
    }

    /// Per-tile time of the full reference architecture (Table 1).
    pub fn full_model_tile_time(&self, arch: ModelArch) -> Duration {
        Duration::from_seconds(per_tile_ms(arch, self.target) / 1000.0)
    }

    /// Per-tile time of a specialized variant whose op count is
    /// `ops_ratio` times the full architecture's (`0 < ops_ratio <= 1`).
    ///
    /// The cost scales linearly with ops down to
    /// [`SPECIALIZATION_TIME_FLOOR`].
    ///
    /// # Panics
    ///
    /// Panics if `ops_ratio` is not in `(0, 1]`.
    pub fn specialized_tile_time(&self, arch: ModelArch, ops_ratio: f64) -> Duration {
        assert!(
            ops_ratio > 0.0 && ops_ratio <= 1.0,
            "ops ratio must be in (0, 1]"
        );
        let scale = ops_ratio.max(SPECIALIZATION_TIME_FLOOR);
        self.full_model_tile_time(arch) * scale
    }

    /// Per-tile cost of the context engine: a nearest-centroid lookup on
    /// cheap tile statistics. Modeled as a small platform-dependent
    /// constant — milliseconds, not seconds.
    pub fn context_engine_tile_time(&self) -> Duration {
        let ms = match self.target {
            HwTarget::Gtx1070Ti => 2.0,
            HwTarget::CoreI7_7800X => 5.0,
            HwTarget::OrinAgx15W => 9.0,
        };
        Duration::from_seconds(ms / 1000.0)
    }

    /// Per-tile cost of splitting and resizing to the model input — paid
    /// for every tile regardless of the action taken on it.
    pub fn resize_tile_time(&self) -> Duration {
        let ms = match self.target {
            HwTarget::Gtx1070Ti => 1.0,
            HwTarget::CoreI7_7800X => 2.5,
            HwTarget::OrinAgx15W => 4.0,
        };
        Duration::from_seconds(ms / 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_model_times_match_table_1() {
        let m = LatencyModel::new(HwTarget::OrinAgx15W);
        let t = m.full_model_tile_time(ModelArch::ResNet18DilatedPpm);
        assert!((t.as_seconds() - 0.9356).abs() < 1e-12);
    }

    #[test]
    fn specialization_scales_linearly_above_floor() {
        let m = LatencyModel::new(HwTarget::CoreI7_7800X);
        let full = m.full_model_tile_time(ModelArch::HrNetV2C1);
        let half = m.specialized_tile_time(ModelArch::HrNetV2C1, 0.5);
        assert!((half.as_seconds() - full.as_seconds() * 0.5).abs() < 1e-12);
    }

    #[test]
    fn specialization_respects_the_floor() {
        let m = LatencyModel::new(HwTarget::Gtx1070Ti);
        let tiny = m.specialized_tile_time(ModelArch::ResNet101UperNet, 0.01);
        let floor = m.full_model_tile_time(ModelArch::ResNet101UperNet)
            * SPECIALIZATION_TIME_FLOOR;
        assert!((tiny.as_seconds() - floor.as_seconds()).abs() < 1e-12);
    }

    #[test]
    fn engine_and_resize_are_cheap_relative_to_inference() {
        for target in HwTarget::ALL {
            let m = LatencyModel::new(target);
            let cheapest = m.full_model_tile_time(ModelArch::MobileNetV2DilatedC1);
            assert!(m.context_engine_tile_time() < cheapest * 0.06);
            assert!(m.resize_tile_time() < cheapest * 0.03);
        }
    }

    /// A 121-tile frame with the full model on every tile.
    fn full_model_frame_time(m: &LatencyModel, arch: ModelArch) -> Duration {
        (m.full_model_tile_time(arch) + m.resize_tile_time()) * 121.0
    }

    #[test]
    fn direct_deploy_at_121_tiles_busts_the_deadline_on_the_orin() {
        let m = LatencyModel::new(HwTarget::OrinAgx15W);
        let frame = full_model_frame_time(&m, ModelArch::MobileNetV2DilatedC1);
        // The paper's computational bottleneck: ~75 s against a ~22 s
        // deadline for the lightest app on flight hardware.
        assert!(frame.as_seconds() > 70.0, "{}", frame.as_seconds());
    }

    #[test]
    fn app1_at_121_tiles_roughly_meets_deadline_on_the_1070ti() {
        let m = LatencyModel::new(HwTarget::Gtx1070Ti);
        let frame = full_model_frame_time(&m, ModelArch::MobileNetV2DilatedC1);
        assert!(
            (20.0..24.0).contains(&frame.as_seconds()),
            "{}",
            frame.as_seconds()
        );
    }

    #[test]
    #[should_panic(expected = "ops ratio")]
    fn rejects_bad_ops_ratio() {
        let _ = LatencyModel::new(HwTarget::Gtx1070Ti)
            .specialized_tile_time(ModelArch::HrNetV2C1, 1.5);
    }
}
