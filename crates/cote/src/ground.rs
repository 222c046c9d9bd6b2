//! Ground stations and the ground segment.

use crate::coords::{elevation_from, Geodetic};
use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A downlink ground station.
///
/// # Example
///
/// ```
/// use kodan_cote::ground::GroundStation;
/// let gs = GroundStation::new("Svalbard", 78.23, 15.39, 5.0, 384.0e6);
/// assert_eq!(gs.downlink_rate_bps(), 384.0e6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundStation {
    name: String,
    location: Geodetic,
    /// `location` in ECEF and its local up vector, computed once here
    /// rather than on every elevation query.
    site_ecef: Vec3,
    up: Vec3,
    min_elevation: f64,
    downlink_rate_bps: f64,
}

impl GroundStation {
    /// Creates a ground station.
    ///
    /// `min_elevation_deg` is the mask angle below which no contact is
    /// possible; `downlink_rate_bps` is the sustained space-to-ground rate.
    ///
    /// # Panics
    ///
    /// Panics if the downlink rate is not positive or the mask angle is
    /// outside `[0, 90)` degrees.
    pub fn new(
        name: impl Into<String>,
        lat_deg: f64,
        lon_deg: f64,
        min_elevation_deg: f64,
        downlink_rate_bps: f64,
    ) -> GroundStation {
        assert!(downlink_rate_bps > 0.0, "downlink rate must be positive");
        assert!(
            (0.0..90.0).contains(&min_elevation_deg),
            "mask angle must be in [0, 90) degrees"
        );
        let location = Geodetic::from_degrees(lat_deg, lon_deg, 0.0);
        GroundStation {
            name: name.into(),
            location,
            site_ecef: location.to_ecef(),
            up: location.up(),
            min_elevation: min_elevation_deg.to_radians(),
            downlink_rate_bps,
        }
    }

    /// Station location.
    pub fn location(&self) -> &Geodetic {
        &self.location
    }

    /// Elevation mask angle, radians.
    pub fn min_elevation(&self) -> f64 {
        self.min_elevation
    }

    /// Sustained downlink rate, bits/second.
    pub fn downlink_rate_bps(&self) -> f64 {
        self.downlink_rate_bps
    }

    /// Elevation of the satellite above this station's horizon, radians.
    pub fn elevation_of(&self, sat_ecef: Vec3) -> f64 {
        self.look_at(sat_ecef).elevation
    }

    /// The satellite's elevation and slant range from this station.
    pub(crate) fn look_at(&self, sat_ecef: Vec3) -> Look {
        let (elevation, range) = elevation_from(self.site_ecef, self.up, sat_ecef);
        Look { elevation, range }
    }
}

/// Where a station sees a satellite at one instant.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Look {
    /// Elevation above the station's horizon, radians.
    pub(crate) elevation: f64,
    /// Slant range from the station, meters.
    pub(crate) range: f64,
}

impl fmt::Display for GroundStation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.name, self.location)
    }
}

/// A set of ground stations serving a constellation.
///
/// Each station serves at most one satellite at a time; the simulator
/// resolves contention in [`crate::sim`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundSegment {
    stations: Vec<GroundStation>,
}

impl GroundSegment {
    /// Creates a ground segment from a list of stations.
    ///
    /// # Panics
    ///
    /// Panics if `stations` is empty.
    pub fn new(stations: Vec<GroundStation>) -> GroundSegment {
        assert!(!stations.is_empty(), "a ground segment needs stations");
        GroundSegment { stations }
    }

    /// The Landsat-8 ground segment: the primary Landsat Ground Network
    /// stations (Sioux Falls, Fairbanks, Svalbard, Alice Springs,
    /// Neustrelitz) with an X-band class 384 Mb/s downlink and a 5 degree
    /// mask, following the published Landsat network description.
    pub fn landsat() -> GroundSegment {
        const RATE: f64 = 384.0e6;
        const MASK: f64 = 5.0;
        GroundSegment::new(vec![
            GroundStation::new("Sioux Falls", 43.74, -96.62, MASK, RATE),
            GroundStation::new("Fairbanks", 64.86, -147.85, MASK, RATE),
            GroundStation::new("Svalbard", 78.23, 15.39, MASK, RATE),
            GroundStation::new("Alice Springs", -23.70, 133.88, MASK, RATE),
            GroundStation::new("Neustrelitz", 53.33, 13.07, MASK, RATE),
        ])
    }

    /// The stations in this segment.
    pub fn stations(&self) -> &[GroundStation] {
        &self.stations
    }

    /// Number of stations.
    pub fn len(&self) -> usize {
        self.stations.len()
    }

    /// Always false: construction requires at least one station.
    pub fn is_empty(&self) -> bool {
        self.stations.is_empty()
    }

    /// Iterates over stations.
    pub fn iter(&self) -> std::slice::Iter<'_, GroundStation> {
        self.stations.iter()
    }
}

impl<'a> IntoIterator for &'a GroundSegment {
    type Item = &'a GroundStation;
    type IntoIter = std::slice::Iter<'a, GroundStation>;
    fn into_iter(self) -> Self::IntoIter {
        self.stations.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn station_sees_overhead_satellite() {
        let gs = GroundStation::new("Test", 40.0, -100.0, 5.0, 1e8);
        let overhead = gs.location().to_ecef() + gs.location().up() * 705_000.0;
        assert!((gs.elevation_of(overhead).to_degrees() - 90.0).abs() < 1e-6);
    }

    #[test]
    fn station_does_not_see_antipodal_satellite() {
        let gs = GroundStation::new("Test", 40.0, -100.0, 5.0, 1e8);
        let antipode = Geodetic::from_degrees(-40.0, 80.0, 705_000.0).to_ecef();
        assert!(gs.elevation_of(antipode) < gs.min_elevation());
    }

    #[test]
    fn landsat_segment_has_five_stations() {
        let seg = GroundSegment::landsat();
        assert_eq!(seg.len(), 5);
        assert!(!seg.is_empty());
        assert!(seg.iter().any(|s| s.name == "Svalbard"));
    }

    #[test]
    #[should_panic(expected = "downlink rate")]
    fn rejects_zero_rate() {
        let _ = GroundStation::new("Bad", 0.0, 0.0, 5.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "stations")]
    fn rejects_empty_segment() {
        let _ = GroundSegment::new(vec![]);
    }
}
