//! Coordinate frames and conversions: ECI, ECEF and geodetic coordinates.
//!
//! The simulator uses three frames:
//!
//! - **ECI** (Earth-centered inertial): orbit propagation output.
//! - **ECEF** (Earth-centered, Earth-fixed): ground geometry. Obtained from
//!   ECI by rotating through the Greenwich Mean Sidereal Time angle.
//! - **Geodetic** latitude/longitude/altitude over the WGS84 ellipsoid.

use crate::bodies::{EARTH_E2, EARTH_RADIUS_EQ};
use crate::time::{Epoch, SECONDS_PER_DAY};
use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};
use std::f64::consts::{PI, TAU};
use std::fmt;

/// A geodetic position over the WGS84 ellipsoid.
///
/// # Example
///
/// ```
/// use kodan_cote::coords::Geodetic;
/// let p = Geodetic::from_degrees(47.6, -122.3, 0.0); // Seattle
/// assert!((p.latitude_deg() - 47.6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Geodetic {
    /// Geodetic latitude, radians, in `[-pi/2, pi/2]`.
    pub latitude: f64,
    /// Longitude, radians, normalized to `(-pi, pi]`.
    pub longitude: f64,
    /// Height above the ellipsoid, meters.
    pub altitude: f64,
}

impl Geodetic {
    /// Creates a geodetic position from radians and meters.
    pub fn new(latitude: f64, longitude: f64, altitude: f64) -> Geodetic {
        Geodetic {
            latitude,
            longitude: normalize_longitude(longitude),
            altitude,
        }
    }

    /// Creates a geodetic position from degrees and meters.
    pub fn from_degrees(lat_deg: f64, lon_deg: f64, altitude_m: f64) -> Geodetic {
        Geodetic::new(lat_deg.to_radians(), lon_deg.to_radians(), altitude_m)
    }

    /// Latitude in degrees.
    pub fn latitude_deg(&self) -> f64 {
        self.latitude.to_degrees()
    }

    /// Longitude in degrees.
    pub fn longitude_deg(&self) -> f64 {
        self.longitude.to_degrees()
    }

    /// Converts to an ECEF position vector in meters.
    pub fn to_ecef(&self) -> Vec3 {
        let (slat, clat) = self.latitude.sin_cos();
        let (slon, clon) = self.longitude.sin_cos();
        // Prime-vertical radius of curvature.
        let n = EARTH_RADIUS_EQ / (1.0 - EARTH_E2 * slat * slat).sqrt();
        Vec3 {
            x: (n + self.altitude) * clat * clon,
            y: (n + self.altitude) * clat * slon,
            z: (n * (1.0 - EARTH_E2) + self.altitude) * slat,
        }
    }

    /// Local "up" unit vector (ellipsoid normal) in ECEF.
    pub fn up(&self) -> Vec3 {
        let (slat, clat) = self.latitude.sin_cos();
        let (slon, clon) = self.longitude.sin_cos();
        Vec3::new(clat * clon, clat * slon, slat)
    }

    /// Great-circle distance to another geodetic point over the mean sphere,
    /// in meters. Uses the haversine formula; adequate for frame-grid and
    /// coverage bookkeeping.
    pub fn great_circle_distance(&self, other: &Geodetic) -> f64 {
        let dlat = other.latitude - self.latitude;
        let dlon = other.longitude - self.longitude;
        let a = (dlat / 2.0).sin().powi(2)
            + self.latitude.cos() * other.latitude.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * crate::bodies::EARTH_RADIUS_MEAN * a.sqrt().clamp(-1.0, 1.0).asin()
    }
}

impl fmt::Display for Geodetic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({:+.3} deg, {:+.3} deg, {:.0} m)",
            self.latitude_deg(),
            self.longitude_deg(),
            self.altitude
        )
    }
}

/// Normalizes a longitude in radians to `(-pi, pi]`.
pub fn normalize_longitude(lon: f64) -> f64 {
    let mut l = lon % TAU;
    if l > PI {
        l -= TAU;
    } else if l <= -PI {
        l += TAU;
    }
    l
}

/// [`gmst`]'s rate, radians per day since J2000.
const GMST_RATE_PER_DAY: f64 = 6.300_388_098_984_894;

/// [`gmst`]'s rate, radians per second: how fast ECEF turns against ECI.
pub(crate) const GMST_RATE: f64 = GMST_RATE_PER_DAY / SECONDS_PER_DAY;

/// Greenwich Mean Sidereal Time angle, radians, at the given epoch.
///
/// Linear-rate approximation referenced to J2000; accurate to well under a
/// degree over the multi-year spans this simulator covers, which is ample
/// for contact-window and coverage statistics.
pub fn gmst(epoch: Epoch) -> f64 {
    let d = epoch.days_since_j2000();
    let theta = 4.894_961_212_823_059 + GMST_RATE_PER_DAY * d;
    theta.rem_euclid(TAU)
}

/// Rotates an ECI position (meters) into ECEF at the given epoch.
pub fn eci_to_ecef(r_eci: Vec3, epoch: Epoch) -> Vec3 {
    r_eci.rotated_z(-gmst(epoch))
}

/// Rotates an ECEF position (meters) into ECI at the given epoch.
pub fn ecef_to_eci(r_ecef: Vec3, epoch: Epoch) -> Vec3 {
    r_ecef.rotated_z(gmst(epoch))
}

/// Converts an ECEF position in meters to geodetic coordinates.
///
/// Uses Bowring-style fixed-point iteration; converges to sub-millimeter in
/// a handful of iterations for LEO geometries.
pub fn ecef_to_geodetic(r: Vec3) -> Geodetic {
    let p = (r.x * r.x + r.y * r.y).sqrt();
    let longitude = r.y.atan2(r.x);
    if p < 1e-9 {
        // On the polar axis.
        let lat = if r.z >= 0.0 { PI / 2.0 } else { -PI / 2.0 };
        let alt = r.z.abs() - crate::bodies::EARTH_RADIUS_POLAR;
        return Geodetic::new(lat, longitude, alt);
    }
    let mut lat = (r.z / (p * (1.0 - EARTH_E2))).atan();
    let mut alt = 0.0;
    for _ in 0..8 {
        let slat = lat.sin();
        let n = EARTH_RADIUS_EQ / (1.0 - EARTH_E2 * slat * slat).sqrt();
        alt = p / lat.cos() - n;
        lat = (r.z / (p * (1.0 - EARTH_E2 * n / (n + alt)))).atan();
    }
    Geodetic::new(lat, longitude, alt)
}

/// Elevation angle, radians, of a target (ECEF, meters) as seen from a
/// site at `site_ecef` with local `up` vector, positive above the local
/// horizon, and the slant range (meters) it divides by.
pub(crate) fn elevation_from(site_ecef: Vec3, up: Vec3, target_ecef: Vec3) -> (f64, f64) {
    let range = target_ecef - site_ecef;
    let slant = range.norm();
    ((range.dot(up) / slant).clamp(-1.0, 1.0).asin(), slant)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bodies::{EARTH_RADIUS_EQ, EARTH_RADIUS_POLAR};

    #[test]
    fn equator_ecef_round_trip() {
        let g = Geodetic::from_degrees(0.0, 0.0, 0.0);
        let r = g.to_ecef();
        assert!((r.x - EARTH_RADIUS_EQ).abs() < 1e-6);
        assert!(r.y.abs() < 1e-6);
        assert!(r.z.abs() < 1e-6);
        let back = ecef_to_geodetic(r);
        assert!(back.latitude.abs() < 1e-9);
        assert!(back.longitude.abs() < 1e-9);
        assert!(back.altitude.abs() < 1e-3);
    }

    #[test]
    fn pole_ecef_round_trip() {
        let g = Geodetic::from_degrees(90.0, 0.0, 0.0);
        let r = g.to_ecef();
        assert!((r.z - EARTH_RADIUS_POLAR).abs() < 1e-6);
        let back = ecef_to_geodetic(r);
        assert!((back.latitude_deg() - 90.0).abs() < 1e-6);
        assert!(back.altitude.abs() < 1e-3);
    }

    #[test]
    fn mid_latitude_round_trip_with_altitude() {
        let g = Geodetic::from_degrees(47.65, -122.3, 705_000.0);
        let back = ecef_to_geodetic(g.to_ecef());
        assert!((back.latitude_deg() - 47.65).abs() < 1e-6);
        assert!((back.longitude_deg() - (-122.3)).abs() < 1e-9);
        assert!((back.altitude - 705_000.0).abs() < 0.01);
    }

    #[test]
    fn longitude_normalization() {
        assert!((normalize_longitude(3.0 * PI) - PI).abs() < 1e-12);
        assert!((normalize_longitude(-3.0 * PI) - PI).abs() < 1e-12);
        assert_eq!(normalize_longitude(0.5), 0.5);
    }

    #[test]
    fn gmst_advances_slightly_faster_than_solar_time() {
        let t0 = Epoch::mission_start();
        let t1 = t0 + crate::time::Duration::from_days(1.0);
        // One solar day advances GMST by slightly more than one full turn:
        // ~0.9856 degrees extra.
        let advance = (gmst(t1) - gmst(t0)).rem_euclid(TAU);
        let extra_deg = advance.to_degrees();
        assert!(
            (extra_deg - 0.9856).abs() < 0.01,
            "extra advance = {extra_deg} deg"
        );
    }

    #[test]
    fn eci_ecef_round_trip() {
        let epoch = Epoch::mission_start() + crate::time::Duration::from_hours(5.3);
        let r = Vec3::new(7.0e6, -1.0e6, 2.0e6);
        let back = ecef_to_eci(eci_to_ecef(r, epoch), epoch);
        assert!((r - back).norm() < 1e-6);
    }

    #[test]
    fn elevation_straight_up_is_90_degrees() {
        let site = Geodetic::from_degrees(45.0, 10.0, 0.0);
        let overhead = site.to_ecef() + site.up() * 705_000.0;
        let (el, _) = elevation_from(site.to_ecef(), site.up(), overhead);
        assert!((el.to_degrees() - 90.0).abs() < 1e-6);
    }

    #[test]
    fn elevation_below_horizon_is_negative() {
        let site = Geodetic::from_degrees(0.0, 0.0, 0.0);
        // A point on the opposite side of Earth.
        let antipode = Geodetic::from_degrees(0.0, 180.0, 705_000.0).to_ecef();
        assert!(elevation_from(site.to_ecef(), site.up(), antipode).0 < 0.0);
    }

    #[test]
    fn great_circle_distance_quarter_turn() {
        let a = Geodetic::from_degrees(0.0, 0.0, 0.0);
        let b = Geodetic::from_degrees(0.0, 90.0, 0.0);
        let expected = crate::bodies::EARTH_RADIUS_MEAN * PI / 2.0;
        assert!((a.great_circle_distance(&b) - expected).abs() < 1.0);
    }
}
