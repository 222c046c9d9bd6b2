//! The benchmark model zoo: the seven semantic-segmentation architectures
//! of the paper's Table 1, as capacity descriptors.
//!
//! The paper's applications are ADE20K segmentation networks (MobileNetV2,
//! ResNet-18/50/101 backbones with dilated/PPM/UPerNet heads) customized
//! to produce per-pixel cloud masks. This reproduction cannot run the
//! original CUDA models, so each architecture is represented by what the
//! Kodan pipeline actually consumes:
//!
//! - an **input resolution** the tile is resized to (deeper nets use
//!   larger crops),
//! - a **feature budget** and **hidden width** for the stand-in MLP
//!   (deeper nets learn richer functions),
//! - a **relative op count** that, combined with the measured Table 1
//!   latencies in `kodan-hw`, prices specialized (smaller) variants.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One of the seven benchmark architectures (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ModelArch {
    /// App 1: `mobilenetv2dilated-c1-deepsup`.
    MobileNetV2DilatedC1,
    /// App 2: `resnet18dilated-ppm-deepsup`.
    ResNet18DilatedPpm,
    /// App 3: `hrnetv2-c1`.
    HrNetV2C1,
    /// App 4: `resnet50dilated-ppm-deepsup`.
    ResNet50DilatedPpm,
    /// App 5: `resnet50-upernet`.
    ResNet50UperNet,
    /// App 6: `resnet101-upernet`.
    ResNet101UperNet,
    /// App 7: `resnet101dilated-ppm-deepsup`.
    ResNet101DilatedPpm,
}

impl ModelArch {
    /// All architectures in application order (App 1 through App 7).
    pub const ALL: [ModelArch; 7] = [
        ModelArch::MobileNetV2DilatedC1,
        ModelArch::ResNet18DilatedPpm,
        ModelArch::HrNetV2C1,
        ModelArch::ResNet50DilatedPpm,
        ModelArch::ResNet50UperNet,
        ModelArch::ResNet101UperNet,
        ModelArch::ResNet101DilatedPpm,
    ];

    /// 1-based application number as used in the paper ("App 1" ... "App 7").
    pub fn app_number(self) -> usize {
        self.index() + 1
    }

    /// 0-based index within [`ModelArch::ALL`].
    pub fn index(self) -> usize {
        // Exhaustive match keeps this total: adding a variant without
        // updating ALL is a compile error here, not a runtime panic.
        match self {
            ModelArch::MobileNetV2DilatedC1 => 0,
            ModelArch::ResNet18DilatedPpm => 1,
            ModelArch::HrNetV2C1 => 2,
            ModelArch::ResNet50DilatedPpm => 3,
            ModelArch::ResNet50UperNet => 4,
            ModelArch::ResNet101UperNet => 5,
            ModelArch::ResNet101DilatedPpm => 6,
        }
    }

    /// The architecture string as printed in Table 1.
    pub fn paper_name(self) -> &'static str {
        match self {
            ModelArch::MobileNetV2DilatedC1 => "mobilenetv2dilated-c1-deepsup",
            ModelArch::ResNet18DilatedPpm => "resnet18dilated-ppm-deepsup",
            ModelArch::HrNetV2C1 => "hrnetv2-c1",
            ModelArch::ResNet50DilatedPpm => "resnet50dilated-ppm-deepsup",
            ModelArch::ResNet50UperNet => "resnet50-upernet",
            ModelArch::ResNet101UperNet => "resnet101-upernet",
            ModelArch::ResNet101DilatedPpm => "resnet101dilated-ppm-deepsup",
        }
    }

    /// Tile input resolution (pixels per side) the architecture expects.
    ///
    /// Deeper backbones use larger inputs; the values interact with the
    /// native tile sizes of the paper's tile grids (12/22/33/44 px at a
    /// 132 px frame) to give each application its own accuracy-optimal
    /// tiling, as in Figure 13.
    pub fn input_resolution(self) -> usize {
        match self {
            ModelArch::MobileNetV2DilatedC1 => 16,
            ModelArch::ResNet18DilatedPpm => 18,
            ModelArch::HrNetV2C1 => 20,
            ModelArch::ResNet50DilatedPpm => 22,
            ModelArch::ResNet50UperNet => 24,
            ModelArch::ResNet101UperNet => 26,
            ModelArch::ResNet101DilatedPpm => 28,
        }
    }

    /// Number of pixel features the stand-in classifier consumes (a prefix
    /// of [`kodan-geodata`'s feature set](https://docs.rs) ordered from
    /// cheap radiometry to rich texture/indices).
    pub fn feature_budget(self) -> usize {
        match self {
            ModelArch::MobileNetV2DilatedC1 => 6,
            ModelArch::ResNet18DilatedPpm => 8,
            ModelArch::HrNetV2C1 => 9,
            ModelArch::ResNet50DilatedPpm => 10,
            ModelArch::ResNet50UperNet => 11,
            ModelArch::ResNet101UperNet => 12,
            ModelArch::ResNet101DilatedPpm => 12,
        }
    }

    /// Hidden width of the stand-in MLP.
    pub fn hidden_units(self) -> usize {
        match self {
            ModelArch::MobileNetV2DilatedC1 => 6,
            ModelArch::ResNet18DilatedPpm => 8,
            ModelArch::HrNetV2C1 => 10,
            ModelArch::ResNet50DilatedPpm => 12,
            ModelArch::ResNet50UperNet => 14,
            ModelArch::ResNet101UperNet => 16,
            ModelArch::ResNet101DilatedPpm => 20,
        }
    }
}

impl fmt::Display for ModelArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "App {} ({})", self.app_number(), self.paper_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_apps_in_order() {
        assert_eq!(ModelArch::ALL.len(), 7);
        for (i, arch) in ModelArch::ALL.iter().enumerate() {
            assert_eq!(arch.index(), i);
            assert_eq!(arch.app_number(), i + 1);
        }
    }

    #[test]
    fn capacity_grows_with_app_number() {
        for pair in ModelArch::ALL.windows(2) {
            assert!(pair[1].hidden_units() >= pair[0].hidden_units());
            assert!(pair[1].feature_budget() >= pair[0].feature_budget());
            assert!(pair[1].input_resolution() > pair[0].input_resolution());
        }
    }

    #[test]
    fn names_match_table_1() {
        assert_eq!(
            ModelArch::MobileNetV2DilatedC1.paper_name(),
            "mobilenetv2dilated-c1-deepsup"
        );
        assert_eq!(
            ModelArch::ResNet101DilatedPpm.paper_name(),
            "resnet101dilated-ppm-deepsup"
        );
        assert_eq!(ModelArch::HrNetV2C1.to_string(), "App 3 (hrnetv2-c1)");
    }

    #[test]
    fn feature_budgets_fit_the_feature_set() {
        for arch in ModelArch::ALL {
            assert!(arch.feature_budget() <= 12);
            assert!(arch.feature_budget() >= 1);
        }
    }
}
