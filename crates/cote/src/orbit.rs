//! Keplerian orbits and sun-synchronous orbit design.

use crate::bodies::{sun_synchronous_node_rate, EARTH_J2, EARTH_MU, EARTH_RADIUS_EQ};
use crate::time::{Duration, Epoch};
use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;
use std::fmt;

/// Classical Keplerian orbital elements at a reference epoch.
///
/// Angles are in radians; the semi-major axis is in meters. Together with
/// [`crate::propagate::propagate`] this fully determines satellite position
/// at any simulated time.
///
/// # Example
///
/// ```
/// use kodan_cote::orbit::Orbit;
/// let orbit = Orbit::sun_synchronous(705_000.0);
/// // Landsat-8's published inclination is ~98.2 degrees.
/// assert!((orbit.elements().inclination.to_degrees() - 98.2).abs() < 0.2);
/// assert!((orbit.period().as_minutes() - 98.8).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KeplerianElements {
    /// Semi-major axis, meters.
    pub semi_major_axis: f64,
    /// Eccentricity (0 = circular).
    pub eccentricity: f64,
    /// Inclination, radians.
    pub inclination: f64,
    /// Right ascension of the ascending node, radians.
    pub raan: f64,
    /// Argument of perigee, radians.
    pub arg_perigee: f64,
    /// Mean anomaly at the reference epoch, radians.
    pub mean_anomaly: f64,
}

/// An orbit: Keplerian elements pinned to a reference epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Orbit {
    elements: KeplerianElements,
    epoch: Epoch,
}

impl Orbit {
    /// Creates an orbit from explicit elements at a reference epoch.
    ///
    /// # Panics
    ///
    /// Panics if the semi-major axis is not strictly positive or the
    /// eccentricity is outside `[0, 1)`.
    pub fn new(elements: KeplerianElements, epoch: Epoch) -> Orbit {
        assert!(
            elements.semi_major_axis > 0.0,
            "semi-major axis must be positive"
        );
        assert!(
            (0.0..1.0).contains(&elements.eccentricity),
            "eccentricity must be in [0, 1) for a closed orbit"
        );
        Orbit { elements, epoch }
    }

    /// A circular sun-synchronous orbit at the given altitude (meters above
    /// the equatorial radius), starting at the default mission epoch.
    ///
    /// The inclination is solved so that J2 nodal regression matches one
    /// revolution per tropical year. Landsat 8 (705 km) yields ~98.2 deg.
    pub fn sun_synchronous(altitude_m: f64) -> Orbit {
        Orbit::sun_synchronous_at(altitude_m, Epoch::mission_start())
    }

    /// Like [`Orbit::sun_synchronous`] with an explicit reference epoch.
    ///
    /// # Panics
    ///
    /// Panics if no sun-synchronous inclination exists at this altitude
    /// (altitudes above roughly 6000 km).
    pub fn sun_synchronous_at(altitude_m: f64, epoch: Epoch) -> Orbit {
        let a = EARTH_RADIUS_EQ + altitude_m;
        let cos_i = -sun_synchronous_node_rate() * 2.0 * a.powf(3.5)
            / (3.0 * EARTH_J2 * EARTH_MU.sqrt() * EARTH_RADIUS_EQ * EARTH_RADIUS_EQ);
        assert!(
            cos_i.abs() <= 1.0,
            "no sun-synchronous inclination exists at altitude {altitude_m} m"
        );
        Orbit::new(
            KeplerianElements {
                semi_major_axis: a,
                eccentricity: 0.0,
                inclination: cos_i.acos(),
                raan: 0.0,
                arg_perigee: 0.0,
                mean_anomaly: 0.0,
            },
            epoch,
        )
    }

    /// A circular orbit at a given altitude and inclination (radians).
    pub fn circular(altitude_m: f64, inclination: f64, epoch: Epoch) -> Orbit {
        Orbit::new(
            KeplerianElements {
                semi_major_axis: EARTH_RADIUS_EQ + altitude_m,
                eccentricity: 0.0,
                inclination,
                raan: 0.0,
                arg_perigee: 0.0,
                mean_anomaly: 0.0,
            },
            epoch,
        )
    }

    /// The orbital elements at the reference epoch.
    pub fn elements(&self) -> &KeplerianElements {
        &self.elements
    }

    /// The reference epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Returns a copy with the RAAN shifted by `delta` radians. Used to
    /// spread constellation planes.
    pub fn with_raan(mut self, raan: f64) -> Orbit {
        self.elements.raan = raan.rem_euclid(TAU);
        self
    }

    /// Returns a copy with the mean anomaly shifted to `m` radians. Used to
    /// phase satellites within a plane.
    pub fn with_mean_anomaly(mut self, m: f64) -> Orbit {
        self.elements.mean_anomaly = m.rem_euclid(TAU);
        self
    }

    /// Mean motion, rad/s (two-body).
    pub fn mean_motion(&self) -> f64 {
        (EARTH_MU / self.elements.semi_major_axis.powi(3)).sqrt()
    }

    /// Orbital period (two-body Keplerian).
    pub fn period(&self) -> Duration {
        Duration::from_seconds(TAU / self.mean_motion())
    }

    /// Inertial orbital speed for a circular orbit, m/s.
    pub fn orbital_speed(&self) -> f64 {
        (EARTH_MU / self.elements.semi_major_axis).sqrt()
    }

    /// Speed of the sub-satellite point over the ground, m/s.
    ///
    /// For a circular LEO orbit the ground-track point sweeps the mean
    /// Earth radius at the orbital angular rate; Earth's own rotation is a
    /// second-order correction for near-polar orbits and is neglected.
    pub fn ground_speed(&self) -> f64 {
        self.mean_motion() * crate::bodies::EARTH_RADIUS_MEAN
    }
}

impl fmt::Display for Orbit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "orbit(a={:.1} km, e={:.4}, i={:.2} deg, raan={:.2} deg)",
            self.elements.semi_major_axis / 1000.0,
            self.elements.eccentricity,
            self.elements.inclination.to_degrees(),
            self.elements.raan.to_degrees()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn landsat_like_period_and_inclination() {
        let orbit = Orbit::sun_synchronous(705_000.0);
        assert!((orbit.period().as_minutes() - 98.8).abs() < 0.5);
        assert!((orbit.elements().inclination.to_degrees() - 98.2).abs() < 0.2);
    }

    #[test]
    fn iss_like_period() {
        let orbit = Orbit::circular(420_000.0, 51.6f64.to_radians(), Epoch::mission_start());
        assert!((orbit.period().as_minutes() - 92.8).abs() < 0.6);
    }

    #[test]
    fn ground_speed_for_landsat_altitude() {
        let orbit = Orbit::sun_synchronous(705_000.0);
        // Published Landsat-8 ground velocity is ~6.7-6.8 km/s.
        let gs = orbit.ground_speed();
        assert!((6500.0..7000.0).contains(&gs), "ground speed = {gs}");
    }

    #[test]
    fn raan_and_phase_builders_normalize() {
        let orbit = Orbit::sun_synchronous(705_000.0)
            .with_raan(3.0 * TAU + 0.5)
            .with_mean_anomaly(-0.5);
        assert!((orbit.elements().raan - 0.5).abs() < 1e-12);
        assert!((orbit.elements().mean_anomaly - (TAU - 0.5)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "eccentricity")]
    fn rejects_hyperbolic_orbits() {
        let mut el = *Orbit::sun_synchronous(705_000.0).elements();
        el.eccentricity = 1.5;
        let _ = Orbit::new(el, Epoch::mission_start());
    }
}
