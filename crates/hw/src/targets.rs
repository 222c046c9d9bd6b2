//! The hardware deployment targets of the paper's evaluation.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A compute platform a Kodan application can be deployed to.
///
/// The three targets span the paper's design space: the Orin 15 W is "near
/// the maximum reasonable power draw for a 3U cubesat subsystem", while
/// the i7 and 1070 Ti "represent forward-looking computational hardware
/// for the space edge" (paper Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HwTarget {
    /// NVIDIA GeForce GTX 1070 Ti discrete GPU (~180 W).
    Gtx1070Ti,
    /// Intel Core i7-7800X, 12 threads at 3.5 GHz (~140 W).
    CoreI7_7800X,
    /// NVIDIA Jetson AGX Orin embedded GPU in its 15 W power mode.
    OrinAgx15W,
}

impl HwTarget {
    /// All targets, in the paper's column order (1070 Ti, i7-7800, Orin
    /// 15W).
    pub const ALL: [HwTarget; 3] = [
        HwTarget::Gtx1070Ti,
        HwTarget::CoreI7_7800X,
        HwTarget::OrinAgx15W,
    ];

    /// 0-based index within [`HwTarget::ALL`].
    pub fn index(self) -> usize {
        // Exhaustive match keeps this total: adding a variant without
        // updating ALL is a compile error here, not a runtime panic.
        match self {
            HwTarget::Gtx1070Ti => 0,
            HwTarget::CoreI7_7800X => 1,
            HwTarget::OrinAgx15W => 2,
        }
    }

    /// Short display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            HwTarget::Gtx1070Ti => "1070 Ti",
            HwTarget::CoreI7_7800X => "i7-7800",
            HwTarget::OrinAgx15W => "Orin 15W",
        }
    }

    /// Nominal power draw, watts.
    pub fn power_watts(self) -> f64 {
        match self {
            HwTarget::Gtx1070Ti => 180.0,
            HwTarget::CoreI7_7800X => 140.0,
            HwTarget::OrinAgx15W => 15.0,
        }
    }
}

impl fmt::Display for HwTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_targets_in_paper_order() {
        assert_eq!(HwTarget::ALL.len(), 3);
        for (i, target) in HwTarget::ALL.iter().enumerate() {
            assert_eq!(target.index(), i);
        }
        assert_eq!(HwTarget::CoreI7_7800X.name(), "i7-7800");
    }
}
