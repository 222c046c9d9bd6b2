//! Constellations: groups of satellites on related orbits.

use crate::orbit::Orbit;
use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;

/// A constellation of satellites.
///
/// Two layouts cover the paper's experiments:
///
/// - [`Constellation::same_plane`]: all satellites share one orbital plane,
///   evenly phased (the configuration behind Figure 2, where additional
///   satellites claim idle ground-station time until the downlink
///   saturates).
/// - [`Constellation::spread`]: one plane per satellite with staggered
///   phases (used for the coverage analysis behind Figure 3).
///
/// # Example
///
/// ```
/// use kodan_cote::constellation::Constellation;
/// use kodan_cote::orbit::Orbit;
/// let c = Constellation::same_plane(Orbit::sun_synchronous(705_000.0), 8);
/// assert_eq!(c.len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constellation {
    satellites: Vec<Orbit>,
}

impl Constellation {
    /// A single-satellite "constellation".
    pub fn single(orbit: Orbit) -> Constellation {
        Constellation {
            satellites: vec![orbit],
        }
    }

    /// `count` satellites evenly phased within one orbital plane.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn same_plane(base: Orbit, count: usize) -> Constellation {
        assert!(count > 0, "a constellation needs at least one satellite");
        let satellites = (0..count)
            .map(|i| {
                let phase = TAU * (i as f64) / (count as f64);
                base.with_mean_anomaly(base.elements().mean_anomaly + phase)
            })
            .collect();
        Constellation { satellites }
    }

    /// `count` satellites spread to maximize coverage: as many planes as
    /// satellites, with staggered phases. This approximates how commercial
    /// imaging constellations (Planet's "Dove" flocks) distribute over
    /// sun-synchronous planes for daily coverage.
    pub fn spread(base: Orbit, count: usize) -> Constellation {
        assert!(count > 0, "a constellation needs at least one satellite");
        let satellites = (0..count)
            .map(|i| {
                // Golden-angle RAAN spreading avoids clustering for any count.
                let golden = TAU * 0.381_966_011_250_105;
                let raan = base.elements().raan + (i as f64) * golden;
                let phase = TAU * (i as f64) / (count as f64);
                base.with_raan(raan)
                    .with_mean_anomaly(base.elements().mean_anomaly + phase)
            })
            .collect();
        Constellation { satellites }
    }

    /// The satellites' orbits.
    pub fn orbits(&self) -> &[Orbit] {
        &self.satellites
    }

    /// Number of satellites.
    pub fn len(&self) -> usize {
        self.satellites.len()
    }

    /// True if the constellation has no satellites (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.satellites.is_empty()
    }
}

impl<'a> IntoIterator for &'a Constellation {
    type Item = &'a Orbit;
    type IntoIter = std::slice::Iter<'a, Orbit>;
    fn into_iter(self) -> Self::IntoIter {
        self.satellites.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::propagate;

    fn base() -> Orbit {
        Orbit::sun_synchronous(705_000.0)
    }

    #[test]
    fn same_plane_shares_raan_and_spreads_phase() {
        let c = Constellation::same_plane(base(), 4);
        let raan0 = c.orbits()[0].elements().raan;
        for orbit in &c {
            assert_eq!(orbit.elements().raan, raan0);
        }
        let phases: Vec<f64> = c
            .orbits()
            .iter()
            .map(|o| o.elements().mean_anomaly)
            .collect();
        for pair in phases.windows(2) {
            let gap = (pair[1] - pair[0]).rem_euclid(TAU);
            assert!((gap - TAU / 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn same_plane_satellites_are_separated_in_space() {
        let c = Constellation::same_plane(base(), 4);
        let t = base().epoch();
        let p0 = propagate(&c.orbits()[0], t).position;
        let p1 = propagate(&c.orbits()[1], t).position;
        // Quarter-orbit separation at LEO is thousands of km.
        assert!((p0 - p1).norm() > 1.0e6);
    }

    #[test]
    fn spread_uses_distinct_planes() {
        let c = Constellation::spread(base(), 10);
        assert_eq!(c.len(), 10);
        let mut raans: Vec<f64> = c.orbits().iter().map(|o| o.elements().raan).collect();
        raans.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for pair in raans.windows(2) {
            assert!((pair[1] - pair[0]).abs() > 1e-6, "planes collide");
        }
    }

    #[test]
    #[should_panic(expected = "at least one satellite")]
    fn rejects_empty_same_plane() {
        let _ = Constellation::same_plane(base(), 0);
    }
}
