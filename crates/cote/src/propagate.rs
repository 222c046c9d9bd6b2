//! Orbit propagation: two-body motion with J2 secular perturbations.
//!
//! The propagator applies the standard first-order secular J2 drift rates to
//! the node, argument of perigee and mean anomaly, solves Kepler's equation,
//! and rotates the perifocal state into ECI. This captures the effects that
//! matter at day scale for Earth observation — nodal regression (which makes
//! sun-synchronous orbits work) and the ground-track walk — without the
//! complexity of a full SGP4 implementation.

use crate::bodies::{EARTH_J2, EARTH_RADIUS_EQ};
use crate::coords::{ecef_to_geodetic, eci_to_ecef, Geodetic};
use crate::orbit::Orbit;
use crate::time::Epoch;
use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;

/// Position and velocity in the ECI frame, meters and meters/second.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StateVector {
    /// ECI position, meters.
    pub position: Vec3,
    /// ECI velocity, meters/second.
    pub velocity: Vec3,
}

/// Solves Kepler's equation `E - e sin E = M` for the eccentric anomaly
/// using Newton iteration.
///
/// Converges quadratically for elliptical orbits; for the near-circular
/// orbits this simulator deals in, 3-4 iterations reach machine precision.
pub fn solve_kepler(mean_anomaly: f64, eccentricity: f64) -> f64 {
    let m = mean_anomaly.rem_euclid(TAU);
    let mut e_anom = if eccentricity < 0.8 { m } else { std::f64::consts::PI };
    for _ in 0..30 {
        let f = e_anom - eccentricity * e_anom.sin() - m;
        let fp = 1.0 - eccentricity * e_anom.cos();
        let delta = f / fp;
        e_anom -= delta;
        if delta.abs() < 1e-14 {
            break;
        }
    }
    e_anom
}

/// J2 secular rates (radians/second) for an orbit: `(raan_dot,
/// arg_perigee_dot, mean_anomaly_dot_correction)`.
pub fn j2_secular_rates(orbit: &Orbit) -> (f64, f64, f64) {
    let el = orbit.elements();
    let n = orbit.mean_motion();
    let p = el.semi_major_axis * (1.0 - el.eccentricity * el.eccentricity);
    let factor = 1.5 * EARTH_J2 * (EARTH_RADIUS_EQ / p).powi(2) * n;
    let cos_i = el.inclination.cos();
    let sin2_i = el.inclination.sin().powi(2);
    let sqrt_1me2 = (1.0 - el.eccentricity * el.eccentricity).sqrt();
    let raan_dot = -factor * cos_i;
    let argp_dot = factor * (2.0 - 2.5 * sin2_i);
    let m_dot_corr = factor * sqrt_1me2 * (1.0 - 1.5 * sin2_i);
    (raan_dot, argp_dot, m_dot_corr)
}

/// Propagates an orbit to `epoch`, returning the ECI state vector.
pub fn propagate(orbit: &Orbit, epoch: Epoch) -> StateVector {
    let p = Perifocal::at(orbit, epoch);
    let r_mag = p.a * (1.0 - p.ecc * p.cos_e);

    // Perifocal velocity.
    let vx = -(p.n * p.a * p.a / r_mag) * p.sin_e;
    let vy = (p.n * p.a * p.a / r_mag) * p.sqrt_1me2 * p.cos_e;

    StateVector {
        position: p.position(),
        velocity: p.to_eci(Vec3::new(vx, vy, 0.0)),
    }
}

/// An orbit's state at one epoch in its perifocal frame: the shared
/// first half of [`propagate`] and [`position_ecef`].
struct Perifocal {
    a: f64,
    ecc: f64,
    n: f64,
    sqrt_1me2: f64,
    sin_e: f64,
    cos_e: f64,
    raan: f64,
    inclination: f64,
    argp: f64,
}

impl Perifocal {
    fn at(orbit: &Orbit, epoch: Epoch) -> Perifocal {
        let el = orbit.elements();
        let dt = (epoch - orbit.epoch()).as_seconds();
        let n = orbit.mean_motion();
        let (raan_dot, argp_dot, m_dot_corr) = j2_secular_rates(orbit);

        let raan = el.raan + raan_dot * dt;
        let argp = el.arg_perigee + argp_dot * dt;
        let m = el.mean_anomaly + (n + m_dot_corr) * dt;

        let e_anom = solve_kepler(m, el.eccentricity);
        let (sin_e, cos_e) = e_anom.sin_cos();
        let ecc = el.eccentricity;
        Perifocal {
            a: el.semi_major_axis,
            ecc,
            n,
            sqrt_1me2: (1.0 - ecc * ecc).sqrt(),
            sin_e,
            cos_e,
            raan,
            inclination: el.inclination,
            argp,
        }
    }

    /// ECI position, meters.
    fn position(&self) -> Vec3 {
        let x_p = self.a * (self.cos_e - self.ecc);
        let y_p = self.a * self.sqrt_1me2 * self.sin_e;
        self.to_eci(Vec3::new(x_p, y_p, 0.0))
    }

    fn to_eci(&self, v: Vec3) -> Vec3 {
        perifocal_to_eci(v, self.raan, self.inclination, self.argp)
    }
}

/// Rotates a perifocal-frame vector into ECI through the classical 3-1-3
/// rotation (RAAN about Z, inclination about X, argument of perigee about Z).
fn perifocal_to_eci(v: Vec3, raan: f64, inclination: f64, arg_perigee: f64) -> Vec3 {
    v.rotated_z(arg_perigee)
        .rotated_x(inclination)
        .rotated_z(raan)
}

/// The sub-satellite (ground-track) point at `epoch`.
pub fn ground_track_point(orbit: &Orbit, epoch: Epoch) -> Geodetic {
    let state = propagate(orbit, epoch);
    let ecef = eci_to_ecef(state.position, epoch);
    ecef_to_geodetic(ecef)
}

/// Satellite ECEF position in meters at `epoch`. Equals
/// `eci_to_ecef(propagate(orbit, epoch).position, epoch)` without
/// computing the velocity.
pub fn position_ecef(orbit: &Orbit, epoch: Epoch) -> Vec3 {
    eci_to_ecef(Perifocal::at(orbit, epoch).position(), epoch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn landsat() -> Orbit {
        Orbit::sun_synchronous(705_000.0)
    }

    #[test]
    fn kepler_solver_circular_is_identity() {
        for m in [0.0, 0.5, 1.0, 3.0, 6.0] {
            assert!((solve_kepler(m, 0.0) - m.rem_euclid(TAU)).abs() < 1e-12);
        }
    }

    #[test]
    fn kepler_solver_satisfies_equation() {
        for &(m, e) in &[(0.3, 0.1), (2.0, 0.5), (5.5, 0.8), (1.0, 0.95)] {
            let ea = solve_kepler(m, e);
            let recovered = ea - e * ea.sin();
            assert!(
                (recovered - m.rem_euclid(TAU)).abs() < 1e-10,
                "m={m} e={e}"
            );
        }
    }

    #[test]
    fn propagated_radius_matches_semi_major_axis() {
        let orbit = landsat();
        for h in [0.0, 0.3, 1.7, 12.0] {
            let state = propagate(&orbit, orbit.epoch() + Duration::from_hours(h));
            let r = state.position.norm();
            assert!(
                (r - orbit.elements().semi_major_axis).abs() < 1.0,
                "radius {r} at {h} h"
            );
        }
    }

    #[test]
    fn velocity_is_orthogonal_to_position_for_circular_orbit() {
        let orbit = landsat();
        let state = propagate(&orbit, orbit.epoch() + Duration::from_minutes(17.0));
        let cos_angle =
            state.position.dot(state.velocity) / (state.position.norm() * state.velocity.norm());
        assert!(cos_angle.abs() < 1e-6);
    }

    #[test]
    fn speed_matches_circular_orbit_speed() {
        let orbit = landsat();
        let state = propagate(&orbit, orbit.epoch() + Duration::from_minutes(42.0));
        assert!((state.velocity.norm() - orbit.orbital_speed()).abs() < 1.0);
    }

    #[test]
    fn orbit_returns_to_start_after_one_period() {
        let orbit = landsat();
        let s0 = propagate(&orbit, orbit.epoch());
        let s1 = propagate(&orbit, orbit.epoch() + orbit.period());
        // J2 drifts the node, perigee and mean anomaly during one
        // revolution; the combined displacement is tens of kilometers —
        // small relative to the 7000 km orbit radius.
        let drift = s0.position.distance(s1.position);
        assert!(drift < 150_000.0, "drift = {drift} m");
        assert!(drift < 0.03 * orbit.elements().semi_major_axis);
    }

    #[test]
    fn sun_sync_node_precesses_about_one_degree_per_day() {
        let orbit = landsat();
        let (raan_dot, _, _) = j2_secular_rates(&orbit);
        let deg_per_day = raan_dot.to_degrees() * 86_400.0;
        assert!(
            (deg_per_day - 0.9856).abs() < 0.02,
            "node rate = {deg_per_day} deg/day"
        );
    }

    #[test]
    fn ground_track_latitude_bounded_by_inclination() {
        let orbit = landsat();
        let max_lat = std::f64::consts::PI - orbit.elements().inclination; // retrograde
        let mut seen_max: f64 = 0.0;
        for i in 0..200 {
            let t = orbit.epoch() + Duration::from_minutes(i as f64);
            let g = ground_track_point(&orbit, t);
            seen_max = seen_max.max(g.latitude.abs());
            assert!(g.latitude.abs() <= max_lat + 0.05);
        }
        // A polar orbit must actually reach high latitudes.
        assert!(seen_max.to_degrees() > 75.0);
    }

    #[test]
    fn ground_track_covers_many_longitudes_per_day() {
        let orbit = landsat();
        let mut buckets = [false; 24];
        for i in 0..1440 {
            let t = orbit.epoch() + Duration::from_minutes(i as f64);
            let g = ground_track_point(&orbit, t);
            let idx = (((g.longitude_deg() + 180.0) / 15.0) as usize).min(23);
            buckets[idx] = true;
        }
        let covered = buckets.iter().filter(|b| **b).count();
        assert!(covered >= 20, "covered {covered}/24 longitude buckets");
    }

    #[test]
    fn position_ecef_equals_rotated_propagated_position() {
        let base = landsat();
        let eccentric = Orbit::new(
            crate::orbit::KeplerianElements {
                eccentricity: 0.3,
                arg_perigee: 1.1,
                ..*base.elements()
            },
            base.epoch(),
        );
        for orbit in [base, base.with_mean_anomaly(2.5), eccentric] {
            for i in 0..500 {
                let t = orbit.epoch() + Duration::from_seconds(i as f64 * 173.3);
                let full = eci_to_ecef(propagate(&orbit, t).position, t);
                let fast = position_ecef(&orbit, t);
                assert_eq!(
                    (fast.x.to_bits(), fast.y.to_bits(), fast.z.to_bits()),
                    (full.x.to_bits(), full.y.to_bits(), full.z.to_bits()),
                    "position at step {i}"
                );
            }
        }
    }

    #[test]
    fn altitude_stays_near_nominal() {
        let orbit = landsat();
        for i in 0..50 {
            let t = orbit.epoch() + Duration::from_minutes(i as f64 * 3.0);
            let g = ground_track_point(&orbit, t);
            // Geodetic altitude varies with Earth oblateness (up to ~21 km).
            assert!(
                (680_000.0..=730_000.0).contains(&g.altitude),
                "altitude {} at step {i}",
                g.altitude
            );
        }
    }
}
