//! The global surface-type map: what kind of terrain is under each pixel.
//!
//! Surface types are the backbone of *geospatial contexts* (paper
//! Section 3.2): images of ocean look alike, images of desert look alike,
//! and the difficulty of cloud masking differs between them. The map is
//! procedural — continents from low-frequency fBm elevation, biomes from
//! latitude-driven temperature and noise-driven moisture — but its
//! statistics are tuned to Earth-like values (about two-thirds ocean).

use crate::noise::{FbmCursor, Memo, NoiseField};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A terrain class, as would be recorded in a dataset's classification
/// label vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SurfaceType {
    /// Open water.
    Ocean,
    /// Closed-canopy forest.
    Forest,
    /// Grassland and cropland.
    Grassland,
    /// Sand and bare rock deserts.
    Desert,
    /// Built-up areas.
    Urban,
    /// Permanent snow and ice.
    Snow,
    /// High-latitude barren tundra.
    Tundra,
    /// Coastal wetlands and marshes.
    Wetland,
}

impl SurfaceType {
    /// All surface types, in a fixed order used for label vectors.
    pub const ALL: [SurfaceType; 8] = [
        SurfaceType::Ocean,
        SurfaceType::Forest,
        SurfaceType::Grassland,
        SurfaceType::Desert,
        SurfaceType::Urban,
        SurfaceType::Snow,
        SurfaceType::Tundra,
        SurfaceType::Wetland,
    ];

    /// Index of this type within [`SurfaceType::ALL`].
    pub fn index(self) -> usize {
        // Exhaustive match keeps this total: adding a variant without
        // updating ALL is a compile error here, not a runtime panic.
        match self {
            SurfaceType::Ocean => 0,
            SurfaceType::Forest => 1,
            SurfaceType::Grassland => 2,
            SurfaceType::Desert => 3,
            SurfaceType::Urban => 4,
            SurfaceType::Snow => 5,
            SurfaceType::Tundra => 6,
            SurfaceType::Wetland => 7,
        }
    }

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SurfaceType::Ocean => "ocean",
            SurfaceType::Forest => "forest",
            SurfaceType::Grassland => "grassland",
            SurfaceType::Desert => "desert",
            SurfaceType::Urban => "urban",
            SurfaceType::Snow => "snow",
            SurfaceType::Tundra => "tundra",
            SurfaceType::Wetland => "wetland",
        }
    }

    /// Top-of-atmosphere reflectance of this surface in each spectral
    /// channel (see [`crate::pixel`] for channel definitions). Values are
    /// representative of real remote-sensing albedos: ocean is dark, snow
    /// and desert are bright, vegetation peaks in the near-infrared.
    pub fn albedo(self) -> [f64; crate::pixel::CHANNELS] {
        match self {
            //                     blue   green  red    nir    cirrus
            SurfaceType::Ocean => [0.06, 0.05, 0.04, 0.02, 0.010],
            SurfaceType::Forest => [0.04, 0.07, 0.05, 0.35, 0.015],
            SurfaceType::Grassland => [0.08, 0.12, 0.10, 0.30, 0.015],
            SurfaceType::Desert => [0.25, 0.30, 0.36, 0.42, 0.030],
            SurfaceType::Urban => [0.15, 0.17, 0.18, 0.22, 0.025],
            SurfaceType::Snow => [0.85, 0.84, 0.80, 0.62, 0.080],
            SurfaceType::Tundra => [0.12, 0.14, 0.13, 0.20, 0.020],
            SurfaceType::Wetland => [0.05, 0.08, 0.06, 0.15, 0.012],
        }
    }
}

impl fmt::Display for SurfaceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The procedural global surface map.
///
/// # Example
///
/// ```
/// use kodan_geodata::surface::SurfaceMap;
/// let map = SurfaceMap::new(42);
/// let t = map.classify(35.0, -40.0); // mid-Atlantic-ish
/// assert_eq!(t, map.classify(35.0, -40.0)); // deterministic
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SurfaceMap {
    elevation: NoiseField,
    moisture: NoiseField,
    urban: NoiseField,
    /// Elevation threshold separating ocean from land; tuned so roughly
    /// two-thirds of the globe is ocean.
    sea_level: f64,
}

/// Spatial frequency of continents, cycles per degree.
const CONTINENT_SCALE: f64 = 1.0 / 40.0;
/// Spatial frequency of moisture bands.
const MOISTURE_SCALE: f64 = 1.0 / 25.0;
/// Spatial frequency of urban patches (small).
const URBAN_SCALE: f64 = 1.0 / 2.0;

impl SurfaceMap {
    /// Creates a surface map from a seed.
    pub fn new(seed: u64) -> SurfaceMap {
        SurfaceMap {
            elevation: NoiseField::new(seed ^ 0x5EA5),
            moisture: NoiseField::new(seed ^ 0x3017),
            urban: NoiseField::new(seed ^ 0x0B01),
            sea_level: 0.55,
        }
    }

    /// Raw elevation value in `[0, 1]` at a geodetic point (degrees).
    fn elevation_with(&self, cursor: &mut SurfaceCursor, lat_deg: f64, lon_deg: f64) -> f64 {
        let (x, y) = wrap_coords(cursor.cos_lat(lat_deg), lat_deg, lon_deg, CONTINENT_SCALE);
        cursor.elevation.fbm5(&self.elevation, x, y, 0.0)
    }

    /// Classifies the surface at a geodetic point (degrees).
    pub fn classify(&self, lat_deg: f64, lon_deg: f64) -> SurfaceType {
        self.classify_with(&mut SurfaceCursor::default(), lat_deg, lon_deg)
    }

    /// [`SurfaceMap::classify`] through a cursor that remembers the last
    /// latitude's cosine and each noise stream's last lattice cells.
    pub(crate) fn classify_with(
        &self,
        cursor: &mut SurfaceCursor,
        lat_deg: f64,
        lon_deg: f64,
    ) -> SurfaceType {
        let elevation = self.elevation_with(cursor, lat_deg, lon_deg);
        if elevation < self.sea_level {
            return SurfaceType::Ocean;
        }

        // Temperature falls with |latitude| and altitude; a little noise
        // keeps biome boundaries organic.
        let cos_lat = cursor.cos_lat(lat_deg);
        let (mx, my) = wrap_coords(cos_lat, lat_deg, lon_deg, MOISTURE_SCALE);
        let moisture = cursor.moisture.fbm5(&self.moisture, mx, my, 0.0);
        let temp_noise = (cursor
            .temperature
            .value(&self.moisture, mx * 3.0, my * 3.0, 1.0)
            - 0.5)
            * 0.15;
        let temperature =
            (cos_lat - (elevation - self.sea_level) * 0.8 + temp_noise).clamp(0.0, 1.0);

        if temperature < 0.28 {
            return SurfaceType::Snow;
        }
        if temperature < 0.42 {
            return SurfaceType::Tundra;
        }

        // Sparse urban patches on temperate land.
        let (ux, uy) = wrap_coords(cos_lat, lat_deg, lon_deg, URBAN_SCALE);
        if cursor.urban.value(&self.urban, ux, uy, 0.0) > 0.965 {
            return SurfaceType::Urban;
        }

        if moisture < 0.38 && temperature > 0.7 {
            return SurfaceType::Desert;
        }
        // Wetlands hug the coast: just-above-sea-level with high moisture.
        if elevation < self.sea_level + 0.02 && moisture > 0.6 {
            return SurfaceType::Wetland;
        }
        if moisture > 0.55 {
            return SurfaceType::Forest;
        }
        SurfaceType::Grassland
    }
}

/// Per-frame memo state for [`SurfaceMap::classify_with`]: a lattice
/// cursor per noise stream and the last latitude's cosine.
#[derive(Debug, Clone, Default)]
pub(crate) struct SurfaceCursor {
    elevation: FbmCursor,
    moisture: FbmCursor,
    temperature: FbmCursor,
    urban: FbmCursor,
    cos_lat: Memo<u64, f64>,
}

impl SurfaceCursor {
    fn cos_lat(&mut self, lat_deg: f64) -> f64 {
        self.cos_lat
            .get(lat_deg.to_bits(), || lat_deg.to_radians().cos())
    }
}

/// Maps (lat, lon) in degrees into noise-space coordinates at a given
/// spatial scale, compressing longitude by `cos_lat` (the cosine of the
/// latitude) so features have roughly isotropic ground dimensions.
fn wrap_coords(cos_lat: f64, lat_deg: f64, lon_deg: f64, scale: f64) -> (f64, f64) {
    let x = lon_deg * cos_lat / scale.recip();
    let y = lat_deg / scale.recip();
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::oracle;
    use proptest::prelude::*;

    /// Elevation and surface type as the scalar code computed them, every
    /// noise sample drawn from the oracle.
    fn oracle_classify(map: &SurfaceMap, lat: f64, lon: f64) -> (f64, SurfaceType) {
        let fbm5 = |field: &NoiseField, x, y| oracle::fbm(field.seed(), x, y, 0.0, 5, 2.0, 0.5);
        let wrap = |scale: f64| {
            (
                lon * lat.to_radians().cos() / scale.recip(),
                lat / scale.recip(),
            )
        };
        let (x, y) = wrap(CONTINENT_SCALE);
        let elevation = fbm5(&map.elevation, x, y);
        if elevation < map.sea_level {
            return (elevation, SurfaceType::Ocean);
        }
        let (mx, my) = wrap(MOISTURE_SCALE);
        let moisture = fbm5(&map.moisture, mx, my);
        let temp_noise = (oracle::value(map.moisture.seed(), mx * 3.0, my * 3.0, 1.0) - 0.5) * 0.15;
        let temperature = (lat.to_radians().cos() - (elevation - map.sea_level) * 0.8 + temp_noise)
            .clamp(0.0, 1.0);
        let (ux, uy) = wrap(URBAN_SCALE);
        let surface = if temperature < 0.28 {
            SurfaceType::Snow
        } else if temperature < 0.42 {
            SurfaceType::Tundra
        } else if oracle::value(map.urban.seed(), ux, uy, 0.0) > 0.965 {
            SurfaceType::Urban
        } else if moisture < 0.38 && temperature > 0.7 {
            SurfaceType::Desert
        } else if elevation < map.sea_level + 0.02 && moisture > 0.6 {
            SurfaceType::Wetland
        } else if moisture > 0.55 {
            SurfaceType::Forest
        } else {
            SurfaceType::Grassland
        };
        (elevation, surface)
    }

    /// The global fraction of each surface type on a latitude-weighted
    /// grid of `resolution` points per axis, indexed by
    /// [`SurfaceType::index`].
    fn global_fractions(map: &SurfaceMap, resolution: usize) -> [f64; 8] {
        let mut weights = [0.0f64; 8];
        let mut total = 0.0;
        for i in 0..resolution {
            let lat = -90.0 + 180.0 * (i as f64 + 0.5) / resolution as f64;
            let w = lat.to_radians().cos(); // area weight
            for j in 0..resolution {
                let lon = -180.0 + 360.0 * (j as f64 + 0.5) / resolution as f64;
                weights[map.classify(lat, lon).index()] += w;
                total += w;
            }
        }
        for w in &mut weights {
            *w /= total;
        }
        weights
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn a_reused_cursor_classifies_like_the_oracle(
            seed in 0u64..1_000,
            steps in prop::collection::vec((0u8..3, -89.0f64..89.0, -180.0f64..180.0), 1..48),
        ) {
            // The walk reuses one cursor across scan lines, row changes
            // and unrelated points.
            let map = SurfaceMap::new(seed);
            let mut cursor = SurfaceCursor::default();
            for (lat, lon) in oracle::scan_walk(&steps) {
                let (elevation, surface) = oracle_classify(&map, lat, lon);
                prop_assert_eq!(map.elevation_with(&mut cursor, lat, lon).to_bits(), elevation.to_bits());
                prop_assert_eq!(map.classify(lat, lon), surface);
                prop_assert_eq!(map.classify_with(&mut cursor, lat, lon), surface);
            }
        }
    }

    #[test]
    fn ocean_fraction_is_earth_like() {
        let map = SurfaceMap::new(42);
        let fractions = global_fractions(&map, 60);
        let ocean = fractions[SurfaceType::Ocean.index()];
        assert!(
            (0.45..0.8).contains(&ocean),
            "ocean fraction = {ocean:.3}"
        );
    }

    #[test]
    fn high_latitudes_are_frozen() {
        let map = SurfaceMap::new(42);
        let mut snow_or_tundra_or_ocean = 0;
        let mut total = 0;
        for lon in (-180..180).step_by(10) {
            for &lat in &[84.0, -84.0] {
                let t = map.classify(lat, lon as f64);
                total += 1;
                if matches!(
                    t,
                    SurfaceType::Snow | SurfaceType::Tundra | SurfaceType::Ocean
                ) {
                    snow_or_tundra_or_ocean += 1;
                }
            }
        }
        assert!(
            snow_or_tundra_or_ocean as f64 / total as f64 > 0.9,
            "{snow_or_tundra_or_ocean}/{total}"
        );
    }

    #[test]
    fn all_types_occur_somewhere() {
        let map = SurfaceMap::new(42);
        let fractions = global_fractions(&map, 120);
        for t in SurfaceType::ALL {
            assert!(
                fractions[t.index()] > 0.0,
                "surface type {t} never occurs"
            );
        }
    }

    #[test]
    fn classification_is_deterministic() {
        let a = SurfaceMap::new(9).classify(12.3, 45.6);
        let b = SurfaceMap::new(9).classify(12.3, 45.6);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_move_the_continents() {
        let m1 = SurfaceMap::new(1);
        let m2 = SurfaceMap::new(2);
        let mut differ = 0;
        for i in 0..100 {
            let lat = -60.0 + (i as f64) * 1.2;
            let lon = (i as f64) * 3.6 - 180.0;
            if m1.classify(lat, lon) != m2.classify(lat, lon) {
                differ += 1;
            }
        }
        assert!(differ > 10, "only {differ} points differ");
    }

    #[test]
    fn surface_is_spatially_coherent() {
        // Neighboring points (0.1 degrees apart) should usually share a
        // surface type; that coherence is what makes tile contexts
        // meaningful.
        let map = SurfaceMap::new(42);
        let mut same = 0;
        let mut total = 0;
        for i in 0..200 {
            let lat = -80.0 + (i as f64) * 0.8;
            let lon = (i as f64) * 1.7 - 170.0;
            if map.classify(lat, lon) == map.classify(lat + 0.1, lon + 0.1) {
                same += 1;
            }
            total += 1;
        }
        assert!(
            same as f64 / total as f64 > 0.8,
            "coherence = {same}/{total}"
        );
    }

    #[test]
    fn index_round_trips() {
        for (i, t) in SurfaceType::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
        }
    }

    #[test]
    fn albedos_are_physical() {
        for t in SurfaceType::ALL {
            for a in t.albedo() {
                assert!((0.0..=1.0).contains(&a), "{t} albedo {a}");
            }
        }
        // Vegetation has the classic red-edge: NIR much brighter than red.
        let forest = SurfaceType::Forest.albedo();
        assert!(forest[3] > 3.0 * forest[2]);
        // Ocean is dark everywhere.
        assert!(SurfaceType::Ocean.albedo().iter().all(|&a| a < 0.1));
    }
}
