//! Whole-frame rendering: the `World` generator and the `FrameImage` type.
//!
//! A frame is what the satellite's imager captures at one ground-track
//! point: a square raster of multispectral pixels with, for evaluation
//! purposes, the per-pixel truth (cloud mask and surface type) that a real
//! dataset would provide as annotations.
//!
//! [`World::render_frame`] walks the raster in scan order through one set
//! of lattice cursors (see [`crate::noise`]) for the surface, cloud and
//! confuser fields. The cursors live on its stack for one frame, so
//! frames rendered concurrently share no state, and every pixel equals
//! what the scalar [`SurfaceMap::classify`], [`CloudField::optical_depth`]
//! and [`crate::pixel::synthesize_pixel`] return for it.

use crate::clouds::{CloudCursor, CloudField, CLOUD_TRUTH_THRESHOLD};
use crate::noise::FbmCursor;
use crate::pixel::{synthesize_pixel_with, Confusers, PixelEnvironment, CHANNELS};
use crate::surface::{SurfaceCursor, SurfaceMap, SurfaceType};
use serde::{Deserialize, Serialize};

/// The procedural world: surface map + cloud field + confusers, all from
/// one seed.
///
/// # Example
///
/// ```
/// use kodan_geodata::frame::World;
/// let world = World::new(42);
/// let frame = world.render_frame(45.0, 10.0, 0.0, 33, 150.0);
/// assert_eq!(frame.width() * frame.height(), frame.pixel_count());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct World {
    seed: u64,
    surface: SurfaceMap,
    clouds: CloudField,
    confusers: Confusers,
}

impl World {
    /// Creates a world with the representative-dataset cloud coverage
    /// (52 % cloudy, as in the paper's Sentinel-2 dataset).
    pub fn new(seed: u64) -> World {
        World::with_cloud_coverage(seed, 0.52)
    }

    /// Creates a world with a specific target cloud coverage — e.g. 0.67
    /// for the global climatology used in the motivation figures.
    pub fn with_cloud_coverage(seed: u64, coverage: f64) -> World {
        World {
            seed,
            surface: SurfaceMap::new(seed),
            clouds: CloudField::new(seed, coverage),
            confusers: Confusers::new(seed),
        }
    }

    /// The world seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The surface map.
    pub fn surface(&self) -> &SurfaceMap {
        &self.surface
    }

    /// The cloud field.
    pub fn clouds(&self) -> &CloudField {
        &self.clouds
    }

    /// Renders a square frame of `px` x `px` pixels centered at
    /// (`lat_deg`, `lon_deg`) covering `frame_km` kilometers on a side, at
    /// simulation time `t_days`.
    ///
    /// # Panics
    ///
    /// Panics if `px` is zero or `frame_km` is not positive.
    pub fn render_frame(
        &self,
        lat_deg: f64,
        lon_deg: f64,
        t_days: f64,
        px: usize,
        frame_km: f64,
    ) -> FrameImage {
        assert!(px > 0, "frame must have pixels");
        assert!(frame_km > 0.0, "frame must have extent");
        let deg_per_km = 1.0 / 111.32;
        let half = frame_km / 2.0;
        let cos_lat = lat_deg.to_radians().cos().max(0.05);

        let mut channels = vec![0.0f32; px * px * CHANNELS];
        let mut truth_cloudy = vec![false; px * px];
        let mut surface = Vec::with_capacity(px * px);
        // This frame's lattice memos, in scan order (see `noise`). They
        // live on this stack, so concurrent renders share nothing.
        let mut surface_cursor = SurfaceCursor::default();
        let mut cloud_cursor = CloudCursor::default();
        let mut confuser_cursor = FbmCursor::default();

        for row in 0..px {
            // Row 0 at the north edge.
            let dy_km = half - frame_km * (row as f64 + 0.5) / px as f64;
            let p_lat = lat_deg + dy_km * deg_per_km;
            for col in 0..px {
                let dx_km = -half + frame_km * (col as f64 + 0.5) / px as f64;
                let p_lon = lon_deg + dx_km * deg_per_km / cos_lat;

                let s = self
                    .surface
                    .classify_with(&mut surface_cursor, p_lat, p_lon);
                let depth = self
                    .clouds
                    .optical_depth_with(&mut cloud_cursor, p_lat, p_lon, t_days);
                let env = PixelEnvironment {
                    surface: s,
                    cloud_depth: depth,
                    lat_deg: p_lat,
                    lon_deg: p_lon,
                    t_days,
                };
                let values = synthesize_pixel_with(
                    &mut confuser_cursor,
                    &env,
                    &self.confusers,
                    self.seed,
                    col as i64,
                    row as i64,
                );
                let idx = row * px + col;
                channels[idx * CHANNELS..(idx + 1) * CHANNELS]
                    .copy_from_slice(&values);
                truth_cloudy[idx] = depth > CLOUD_TRUTH_THRESHOLD;
                surface.push(s);
            }
        }

        FrameImage {
            px,
            channels,
            truth_cloudy,
            surface,
            center_lat_deg: lat_deg,
            center_lon_deg: lon_deg,
            t_days,
            frame_km,
        }
    }
}

/// A rendered frame: pixels plus ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameImage {
    px: usize,
    /// Interleaved channel data, `px * px * CHANNELS` long.
    channels: Vec<f32>,
    /// Per-pixel cloud truth.
    truth_cloudy: Vec<bool>,
    /// Per-pixel surface truth.
    surface: Vec<SurfaceType>,
    center_lat_deg: f64,
    center_lon_deg: f64,
    t_days: f64,
    frame_km: f64,
}

impl FrameImage {
    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.px
    }

    /// Frame height in pixels (frames are square).
    pub fn height(&self) -> usize {
        self.px
    }

    /// Total pixel count.
    pub fn pixel_count(&self) -> usize {
        self.px * self.px
    }

    /// Ground extent of the frame, kilometers on a side.
    pub fn frame_km(&self) -> f64 {
        self.frame_km
    }

    /// Frame center latitude, degrees.
    pub fn center_lat_deg(&self) -> f64 {
        self.center_lat_deg
    }

    /// Frame center longitude, degrees.
    pub fn center_lon_deg(&self) -> f64 {
        self.center_lon_deg
    }

    /// Capture time, days.
    pub fn t_days(&self) -> f64 {
        self.t_days
    }

    /// The interleaved channel buffer (`CHANNELS` floats per pixel).
    pub fn channels(&self) -> &[f32] {
        &self.channels
    }

    /// Reflectance of one pixel in one channel.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates or channel are out of range.
    pub fn at(&self, row: usize, col: usize, channel: usize) -> f32 {
        assert!(row < self.px && col < self.px && channel < CHANNELS);
        self.channels[(row * self.px + col) * CHANNELS + channel]
    }

    /// Per-pixel cloud truth mask (row-major).
    pub fn truth_cloudy(&self) -> &[bool] {
        &self.truth_cloudy
    }

    /// Per-pixel surface truth (row-major).
    pub fn surface(&self) -> &[SurfaceType] {
        &self.surface
    }

    /// Fraction of pixels that are cloudy.
    pub fn cloud_fraction(&self) -> f64 {
        self.truth_cloudy.iter().filter(|&&c| c).count() as f64 / self.pixel_count() as f64
    }

    /// Fraction of pixels that are high-value (clear).
    pub fn high_value_fraction(&self) -> f64 {
        1.0 - self.cloud_fraction()
    }

    /// Fraction of pixels of each surface type, indexed by
    /// [`SurfaceType::index`].
    pub fn surface_fractions(&self) -> [f64; 8] {
        let mut counts = [0.0f64; 8];
        for s in &self.surface {
            counts[s.index()] += 1.0;
        }
        let n = self.pixel_count() as f64;
        for c in &mut counts {
            *c /= n;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_dimensions_and_buffers_agree() {
        let world = World::new(1);
        let frame = world.render_frame(30.0, 50.0, 0.0, 24, 150.0);
        assert_eq!(frame.width(), 24);
        assert_eq!(frame.pixel_count(), 576);
        assert_eq!(frame.channels().len(), 576 * CHANNELS);
        assert_eq!(frame.truth_cloudy().len(), 576);
        assert_eq!(frame.surface().len(), 576);
    }

    #[test]
    fn rendering_is_deterministic() {
        let world = World::new(11);
        let a = world.render_frame(-5.0, 100.0, 1.5, 16, 150.0);
        let b = world.render_frame(-5.0, 100.0, 1.5, 16, 150.0);
        assert_eq!(a, b);
    }

    #[test]
    fn different_locations_differ() {
        let world = World::new(11);
        let a = world.render_frame(-5.0, 100.0, 0.0, 16, 150.0);
        let b = world.render_frame(40.0, -80.0, 0.0, 16, 150.0);
        assert_ne!(a.channels(), b.channels());
    }

    #[test]
    fn cloud_fraction_matches_truth_mask() {
        let world = World::new(11);
        let frame = world.render_frame(50.0, 10.0, 0.0, 20, 150.0);
        let manual =
            frame.truth_cloudy().iter().filter(|&&c| c).count() as f64 / 400.0;
        assert!((frame.cloud_fraction() - manual).abs() < 1e-12);
        assert!((frame.high_value_fraction() + frame.cloud_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn surface_fractions_sum_to_one() {
        let world = World::new(11);
        let frame = world.render_frame(10.0, 30.0, 0.0, 20, 150.0);
        let sum: f64 = frame.surface_fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ocean_frames_are_mostly_ocean() {
        // Find an ocean-dominated frame by scanning; the map is seeded so
        // this is stable.
        let world = World::new(42);
        let mut found = false;
        for lon in (-180..180).step_by(20) {
            let frame = world.render_frame(-20.0, lon as f64, 0.0, 12, 150.0);
            let ocean = frame.surface_fractions()[SurfaceType::Ocean.index()];
            if ocean > 0.95 {
                found = true;
                break;
            }
        }
        assert!(found, "no open-ocean frame found along -20 deg latitude");
    }

    #[test]
    fn cloudy_pixels_are_brighter_on_average() {
        let world = World::new(42);
        // Average over several frames to smooth confuser noise.
        let mut clear_sum = 0.0;
        let mut clear_n = 0.0;
        let mut cloud_sum = 0.0;
        let mut cloud_n = 0.0;
        for lon in (-180..180).step_by(45) {
            let frame = world.render_frame(0.0, lon as f64, 0.0, 16, 150.0);
            for row in 0..16 {
                for col in 0..16 {
                    let lum = (frame.at(row, col, 0)
                        + frame.at(row, col, 1)
                        + frame.at(row, col, 2)) as f64;
                    if frame.truth_cloudy()[row * 16 + col] {
                        cloud_sum += lum;
                        cloud_n += 1.0;
                    } else {
                        clear_sum += lum;
                        clear_n += 1.0;
                    }
                }
            }
        }
        assert!(clear_n > 0.0 && cloud_n > 0.0);
        assert!(cloud_sum / cloud_n > clear_sum / clear_n);
    }

    #[test]
    #[should_panic(expected = "pixels")]
    fn rejects_zero_pixel_frame() {
        let _ = World::new(1).render_frame(0.0, 0.0, 0.0, 0, 150.0);
    }
}
