//! Imaging sensors, frame capture and the frame deadline.
//!
//! An Earth-observation satellite captures an image *frame* each time its
//! ground track sweeps one frame length. The time between captures is the
//! **frame deadline**: an on-orbit data processing system must finish one
//! frame before the next arrives or fall behind (the paper's computational
//! bottleneck, Section 2).

use crate::orbit::Orbit;
use crate::propagate::ground_track_point;
use crate::time::{Duration, Epoch};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An imaging payload.
///
/// # Example
///
/// ```
/// use kodan_cote::sensor::Imager;
/// use kodan_cote::orbit::Orbit;
/// let imager = Imager::landsat_oli();
/// let orbit = Orbit::sun_synchronous(705_000.0);
/// let deadline = imager.frame_deadline(&orbit);
/// // Landsat-class frames arrive every ~20-30 s.
/// assert!((15.0..35.0).contains(&deadline.as_seconds()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Imager {
    /// Along-track frame length on the ground, meters.
    frame_length_m: f64,
    /// Cross-track swath width, meters.
    swath_m: f64,
    /// Frame dimension in pixels (frames are square: `px` x `px`).
    frame_px: u32,
    /// Bits per pixel across all spectral bands.
    bits_per_pixel: u32,
}

impl Imager {
    /// Creates an imager.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or negative.
    pub fn new(frame_length_m: f64, swath_m: f64, frame_px: u32, bits_per_pixel: u32) -> Imager {
        assert!(frame_length_m > 0.0, "frame length must be positive");
        assert!(swath_m > 0.0, "swath must be positive");
        assert!(frame_px > 0, "frame must have pixels");
        assert!(bits_per_pixel > 0, "pixels must have bits");
        Imager {
            frame_length_m,
            swath_m,
            frame_px,
            bits_per_pixel,
        }
    }

    /// A Landsat-8 OLI-like imager: 185 km x 180 km scenes, ~10K x 10K
    /// pixels, 11 bands at 12 bits packed into 132 bits/pixel. This yields
    /// the paper's "hyperspectral, 10K image frames" and a ~22 s frame
    /// deadline at the Landsat orbit.
    pub fn landsat_oli() -> Imager {
        Imager::new(150_000.0, 185_000.0, 10_000, 132)
    }

    /// Ground sample distance, meters/pixel (along-track).
    pub fn gsd_m(&self) -> f64 {
        self.frame_length_m / f64::from(self.frame_px)
    }

    /// Raw size of one frame in bits.
    pub fn frame_bits(&self) -> f64 {
        f64::from(self.frame_px) * f64::from(self.frame_px) * f64::from(self.bits_per_pixel)
    }

    /// The frame deadline for this imager on a given orbit: the time for
    /// the sub-satellite point to sweep one frame length.
    pub fn frame_deadline(&self, orbit: &Orbit) -> Duration {
        Duration::from_seconds(self.frame_length_m / orbit.ground_speed())
    }

    /// Number of frames captured over `span` on a given orbit, assuming
    /// continuous imaging.
    pub fn frames_in(&self, orbit: &Orbit, span: Duration) -> u64 {
        (span / self.frame_deadline(orbit)).floor() as u64
    }
}

impl fmt::Display for Imager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "imager({:.0} km frames, {} px, {:.1} m GSD)",
            self.frame_length_m / 1000.0,
            self.frame_px,
            self.gsd_m()
        )
    }
}

/// A captured frame: when and where a satellite imaged the ground.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameCapture {
    /// Index of the capturing satellite within its constellation.
    pub satellite: usize,
    /// Capture time.
    pub epoch: Epoch,
    /// Sub-satellite point at capture time.
    pub center: crate::coords::Geodetic,
    /// Frame sequence number for this satellite (0-based).
    pub sequence: u64,
}

/// Generates the frame-capture schedule for one satellite over a horizon:
/// one capture per frame deadline, tagged with the ground-track point.
pub fn capture_schedule(
    orbit: &Orbit,
    imager: &Imager,
    satellite: usize,
    horizon: Duration,
) -> Vec<FrameCapture> {
    let deadline = imager.frame_deadline(orbit);
    let count = (horizon / deadline).floor() as u64;
    (0..count)
        .map(|i| {
            let epoch = orbit.epoch() + deadline * (i as f64);
            FrameCapture {
                satellite,
                epoch,
                center: ground_track_point(orbit, epoch),
                sequence: i,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn landsat_deadline_is_about_22_seconds() {
        let imager = Imager::landsat_oli();
        let orbit = Orbit::sun_synchronous(705_000.0);
        let d = imager.frame_deadline(&orbit).as_seconds();
        assert!((20.0..26.0).contains(&d), "deadline = {d} s");
    }

    #[test]
    fn landsat_gsd_is_15m_class() {
        let imager = Imager::landsat_oli();
        assert!((10.0..20.0).contains(&imager.gsd_m()));
    }

    #[test]
    fn frame_bits_are_gigabit_class() {
        let imager = Imager::landsat_oli();
        let gbits = imager.frame_bits() / 1e9;
        assert!((1.0..30.0).contains(&gbits), "frame = {gbits} Gbit");
    }

    #[test]
    fn frames_per_day_near_3600() {
        let imager = Imager::landsat_oli();
        let orbit = Orbit::sun_synchronous(705_000.0);
        let frames = imager.frames_in(&orbit, Duration::from_days(1.0));
        // The paper quotes "nearly 3600 observable frames" per day.
        assert!(
            (3200..4400).contains(&frames),
            "frames per day = {frames}"
        );
    }

    #[test]
    fn capture_schedule_is_uniformly_spaced() {
        let imager = Imager::landsat_oli();
        let orbit = Orbit::sun_synchronous(705_000.0);
        let schedule = capture_schedule(&orbit, &imager, 0, Duration::from_hours(1.0));
        assert!(schedule.len() > 100);
        let deadline = imager.frame_deadline(&orbit);
        for pair in schedule.windows(2) {
            let gap = pair[1].epoch - pair[0].epoch;
            assert!((gap.as_seconds() - deadline.as_seconds()).abs() < 1e-9);
            assert_eq!(pair[1].sequence, pair[0].sequence + 1);
        }
    }

    #[test]
    fn capture_centers_move_along_track() {
        let imager = Imager::landsat_oli();
        let orbit = Orbit::sun_synchronous(705_000.0);
        let schedule = capture_schedule(&orbit, &imager, 0, Duration::from_minutes(10.0));
        for pair in schedule.windows(2) {
            let d = pair[0].center.great_circle_distance(&pair[1].center);
            // Should be about one frame length apart.
            assert!(
                (d - imager.frame_length_m).abs() < 0.15 * imager.frame_length_m,
                "consecutive centers {d} m apart"
            );
        }
    }

    #[test]
    #[should_panic(expected = "frame length")]
    fn rejects_zero_frame() {
        let _ = Imager::new(0.0, 1.0, 1, 1);
    }
}
