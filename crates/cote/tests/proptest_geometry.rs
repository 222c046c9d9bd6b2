//! Property-based tests for the orbital-geometry substrate: coordinate
//! round trips, Kepler-solver residuals, rotation invariants and time
//! arithmetic must hold for *all* inputs in their domains, not just the
//! hand-picked cases of the unit tests.

use kodan_cote::bodies::EARTH_MU;
use kodan_cote::coords::{ecef_to_geodetic, eci_to_ecef, ecef_to_eci, Geodetic};
use kodan_cote::orbit::Orbit;
use kodan_cote::propagate::{propagate, solve_kepler};
use kodan_cote::time::{Duration, Epoch};
use kodan_cote::vec3::Vec3;
use proptest::prelude::*;

proptest! {
    #[test]
    fn geodetic_ecef_round_trip(
        lat in -89.9f64..89.9,
        lon in -179.9f64..179.9,
        alt in 0.0f64..2_000_000.0,
    ) {
        let g = Geodetic::from_degrees(lat, lon, alt);
        let back = ecef_to_geodetic(g.to_ecef());
        prop_assert!((back.latitude_deg() - lat).abs() < 1e-6);
        prop_assert!((back.longitude_deg() - lon).abs() < 1e-6);
        prop_assert!((back.altitude - alt).abs() < 0.01);
    }

    #[test]
    fn eci_ecef_rotation_preserves_norm(
        x in -1e7f64..1e7,
        y in -1e7f64..1e7,
        z in -1e7f64..1e7,
        hours in 0.0f64..48.0,
    ) {
        let epoch = Epoch::mission_start() + Duration::from_hours(hours);
        let r = Vec3::new(x, y, z);
        let rotated = eci_to_ecef(r, epoch);
        prop_assert!((rotated.norm() - r.norm()).abs() < 1e-6);
        let back = ecef_to_eci(rotated, epoch);
        prop_assert!((back - r).norm() < 1e-5);
    }

    #[test]
    fn kepler_solver_residual_is_tiny(
        mean_anomaly in 0.0f64..std::f64::consts::TAU,
        eccentricity in 0.0f64..0.95,
    ) {
        let e_anom = solve_kepler(mean_anomaly, eccentricity);
        let residual = e_anom - eccentricity * e_anom.sin() - mean_anomaly;
        prop_assert!(residual.rem_euclid(std::f64::consts::TAU).min(
            (std::f64::consts::TAU - residual.rem_euclid(std::f64::consts::TAU)).abs()
        ) < 1e-9);
    }

    #[test]
    fn propagation_conserves_energy_for_circular_orbits(
        altitude in 300_000.0f64..2_000_000.0,
        inclination_deg in 0.0f64..179.0,
        minutes in 0.0f64..600.0,
    ) {
        let orbit = Orbit::circular(
            altitude,
            inclination_deg.to_radians(),
            Epoch::mission_start(),
        );
        let state = propagate(&orbit, orbit.epoch() + Duration::from_minutes(minutes));
        let r = state.position.norm();
        let v = state.velocity.norm();
        // Specific orbital energy: v^2/2 - mu/r = -mu/(2a).
        let energy = v * v / 2.0 - EARTH_MU / r;
        let expected = -EARTH_MU / (2.0 * orbit.elements().semi_major_axis);
        prop_assert!(
            ((energy - expected) / expected).abs() < 1e-3,
            "energy {} vs expected {}", energy, expected
        );
    }

    #[test]
    fn duration_arithmetic_is_consistent(
        a in -1e6f64..1e6,
        b in -1e6f64..1e6,
    ) {
        let da = Duration::from_seconds(a);
        let db = Duration::from_seconds(b);
        prop_assert!(((da + db) - db - da).as_seconds().abs() < 1e-6);
    }

    #[test]
    fn epoch_ordering_matches_offsets(
        s1 in 0.0f64..1e6,
        s2 in 0.0f64..1e6,
    ) {
        let t0 = Epoch::mission_start();
        let a = t0 + Duration::from_seconds(s1);
        let b = t0 + Duration::from_seconds(s2);
        prop_assert_eq!(a < b, s1 < s2);
        prop_assert!(((a - b).as_seconds() - (s1 - s2)).abs() < 1e-9);
    }
}
