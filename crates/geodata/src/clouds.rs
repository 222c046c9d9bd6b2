//! Cloud fields: spatially and temporally correlated cloud cover.
//!
//! Cloud cover is the *value signal* of the paper's evaluation: every
//! benchmark application filters cloudy (low-value) pixels from clear
//! (high-value) ones. The field is fBm-driven so clouds form coherent
//! systems with fractal edges, and a latitude climatology concentrates
//! cover in the tropics (ITCZ) and the mid-latitude storm belts, leaving
//! the subtropical deserts comparatively clear — as on Earth.

use crate::noise::{FbmCursor, Memo, NoiseField};
use serde::{Deserialize, Serialize};

/// A seeded, time-evolving cloud field.
///
/// # Example
///
/// ```
/// use kodan_geodata::clouds::CloudField;
/// let clouds = CloudField::new(7, 0.52);
/// let tau = clouds.optical_depth(10.0, 20.0, 0.0);
/// assert!((0.0..=1.0).contains(&tau));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CloudField {
    field: NoiseField,
    /// Bias added to the raw noise before thresholding; higher means
    /// cloudier. Calibrated from the target coverage at construction.
    bias: f64,
}

/// Spatial frequency of synoptic cloud systems, cycles per degree.
const CLOUD_SCALE: f64 = 1.0 / 8.0;
/// Temporal frequency: systems evolve over a few days.
const CLOUD_TIME_SCALE: f64 = 1.0 / 2.5;
/// Optical depth above which a pixel is "cloudy" in the truth mask.
pub const CLOUD_TRUTH_THRESHOLD: f64 = 0.5;

impl CloudField {
    /// Creates a cloud field with the given seed and target global cloud
    /// coverage fraction.
    ///
    /// The paper's representative dataset is 52 % cloudy; the global
    /// climatology used for the motivation figures is 67 % (the paper's
    /// reference 23).
    ///
    /// # Panics
    ///
    /// Panics if `target_coverage` is outside `(0, 1)`.
    pub fn new(seed: u64, target_coverage: f64) -> CloudField {
        assert!(
            (0.0..1.0).contains(&target_coverage) && target_coverage > 0.0,
            "cloud coverage must be in (0, 1)"
        );
        // Calibrate the bias by bisection so the realized global coverage
        // matches the target. A coarse latitude-weighted sample is enough:
        // the residual error is a couple of percent.
        let mut field = CloudField {
            field: NoiseField::new(seed ^ 0xC10D),
            bias: 0.0,
        };
        let mut lo = -0.6;
        let mut hi = 0.6;
        for _ in 0..20 {
            let mid = (lo + hi) / 2.0;
            field.bias = mid;
            if field.measured_coverage(0.0, 48) < target_coverage {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        field.bias = (lo + hi) / 2.0;
        field
    }

    /// Cloud optical depth in `[0, 1]` at a geodetic point (degrees) and
    /// time (days). Values above [`CLOUD_TRUTH_THRESHOLD`] are cloudy in
    /// the truth mask.
    pub fn optical_depth(&self, lat_deg: f64, lon_deg: f64, t_days: f64) -> f64 {
        self.optical_depth_with(&mut CloudCursor::default(), lat_deg, lon_deg, t_days)
    }

    /// [`CloudField::optical_depth`] through a cursor that remembers the
    /// last latitude's terms and the field's last lattice cells.
    pub(crate) fn optical_depth_with(
        &self,
        cursor: &mut CloudCursor,
        lat_deg: f64,
        lon_deg: f64,
        t_days: f64,
    ) -> f64 {
        let (cos_lat, climate) = cursor.latitude.get(lat_deg.to_bits(), || {
            (lat_deg.to_radians().cos(), latitude_climatology(lat_deg))
        });
        let x = lon_deg * cos_lat * CLOUD_SCALE;
        let y = lat_deg * CLOUD_SCALE;
        let raw = cursor
            .field
            .fbm(&self.field, x, y, t_days * CLOUD_TIME_SCALE, 6, 2.1, 0.55);
        (raw + self.bias + climate).clamp(0.0, 1.0)
    }

    /// True if the point is cloudy (truth label).
    pub fn is_cloudy(&self, lat_deg: f64, lon_deg: f64, t_days: f64) -> bool {
        self.optical_depth(lat_deg, lon_deg, t_days) > CLOUD_TRUTH_THRESHOLD
    }

    /// Measures the realized cloud fraction over a latitude-weighted
    /// global sample at time `t_days`.
    pub fn measured_coverage(&self, t_days: f64, resolution: usize) -> f64 {
        let mut cloudy = 0.0;
        let mut total = 0.0;
        for i in 0..resolution {
            let lat = -90.0 + 180.0 * (i as f64 + 0.5) / resolution as f64;
            let w = lat.to_radians().cos();
            for j in 0..resolution {
                let lon = -180.0 + 360.0 * (j as f64 + 0.5) / resolution as f64;
                if self.is_cloudy(lat, lon, t_days) {
                    cloudy += w;
                }
                total += w;
            }
        }
        cloudy / total
    }
}

/// Per-frame memo state for [`CloudField::optical_depth_with`]: the
/// field's lattice cursor and the last latitude's `(cos(lat),
/// latitude_climatology(lat))`.
#[derive(Debug, Clone, Default)]
pub(crate) struct CloudCursor {
    field: FbmCursor,
    latitude: Memo<u64, (f64, f64)>,
}

/// Latitude-dependent cloudiness bias: positive in the ITCZ (equator) and
/// mid-latitude storm belts (~55 deg), negative over the subtropical dry
/// zones (~25 deg).
fn latitude_climatology(lat_deg: f64) -> f64 {
    let itcz = 0.05 * (-(lat_deg / 12.0).powi(2)).exp();
    let storm_n = 0.04 * (-((lat_deg - 55.0) / 15.0).powi(2)).exp();
    let storm_s = 0.04 * (-((lat_deg + 55.0) / 15.0).powi(2)).exp();
    let dry_n = -0.045 * (-((lat_deg - 25.0) / 10.0).powi(2)).exp();
    let dry_s = -0.045 * (-((lat_deg + 25.0) / 10.0).powi(2)).exp();
    itcz + storm_n + storm_s + dry_n + dry_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::oracle;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn a_reused_cursor_matches_the_oracle_optical_depth(
            seed in 0u64..1_000,
            bias in -0.2f64..0.2,
            t_days in prop::sample::select(vec![0.0, 0.37, 3.5]),
            steps in prop::collection::vec((0u8..3, -89.0f64..89.0, -180.0f64..180.0), 1..48),
        ) {
            let clouds = CloudField {
                field: NoiseField::new(seed),
                bias,
            };
            let mut cursor = CloudCursor::default();
            for (lat, lon) in oracle::scan_walk(&steps) {
                let x = lon * lat.to_radians().cos() * CLOUD_SCALE;
                let raw = oracle::fbm(seed, x, lat * CLOUD_SCALE, t_days * CLOUD_TIME_SCALE, 6, 2.1, 0.55);
                let want = (raw + bias + latitude_climatology(lat)).clamp(0.0, 1.0).to_bits();
                prop_assert_eq!(clouds.optical_depth(lat, lon, t_days).to_bits(), want);
                prop_assert_eq!(
                    clouds.optical_depth_with(&mut cursor, lat, lon, t_days).to_bits(),
                    want
                );
            }
        }
    }

    #[test]
    fn coverage_calibration_is_close() {
        for &target in &[0.4, 0.52, 0.67] {
            let field = CloudField::new(11, target);
            let measured = field.measured_coverage(0.0, 80);
            assert!(
                (measured - target).abs() < 0.04,
                "target {target}, measured {measured}"
            );
        }
    }

    #[test]
    fn higher_target_means_more_clouds() {
        let dry = CloudField::new(11, 0.3).measured_coverage(0.0, 60);
        let wet = CloudField::new(11, 0.7).measured_coverage(0.0, 60);
        assert!(wet > dry + 0.2, "dry {dry}, wet {wet}");
    }

    #[test]
    fn clouds_evolve_over_days() {
        let field = CloudField::new(3, 0.5);
        let mut changed = 0;
        for i in 0..100 {
            let lat = -60.0 + i as f64;
            let lon = i as f64 * 3.0;
            let a = field.is_cloudy(lat, lon, 0.0);
            let b = field.is_cloudy(lat, lon, 10.0);
            if a != b {
                changed += 1;
            }
        }
        assert!(changed > 15, "only {changed} points changed in 10 days");
    }

    #[test]
    fn clouds_are_spatially_coherent() {
        // Points 10 km apart should usually share cloud state; fractal
        // edges make some boundary flips expected.
        let field = CloudField::new(3, 0.5);
        let mut same = 0;
        for i in 0..300 {
            let lat = -75.0 + i as f64 * 0.5;
            let lon = i as f64 * 1.1;
            if field.is_cloudy(lat, lon, 0.0) == field.is_cloudy(lat + 0.09, lon, 0.0) {
                same += 1;
            }
        }
        assert!(same > 240, "coherence {same}/300");
    }

    #[test]
    fn subtropics_are_clearer_than_storm_belts() {
        let field = CloudField::new(17, 0.55);
        let band_coverage = |lat: f64| -> f64 {
            let mut cloudy = 0;
            let n = 720;
            for j in 0..n {
                let lon = -180.0 + 360.0 * j as f64 / n as f64;
                if field.is_cloudy(lat, lon, 0.0) {
                    cloudy += 1;
                }
            }
            cloudy as f64 / n as f64
        };
        // Average both hemispheres to damp noise.
        let dry = (band_coverage(25.0) + band_coverage(-25.0)) / 2.0;
        let stormy = (band_coverage(55.0) + band_coverage(-55.0)) / 2.0;
        assert!(stormy > dry, "storm belt {stormy} vs subtropics {dry}");
    }

    #[test]
    fn optical_depth_in_unit_range() {
        let field = CloudField::new(23, 0.52);
        for i in 0..500 {
            let tau = field.optical_depth(-80.0 + i as f64 * 0.3, i as f64 * 0.7, 0.5);
            assert!((0.0..=1.0).contains(&tau));
        }
    }

    #[test]
    #[should_panic(expected = "coverage")]
    fn rejects_degenerate_coverage() {
        let _ = CloudField::new(1, 1.0);
    }
}
