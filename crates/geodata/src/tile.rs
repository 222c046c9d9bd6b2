//! Frame tiling and per-tile labels.
//!
//! Geospatial applications split each frame into a grid of tiles and
//! process tiles independently (paper Section 2, Figure 1). A tile carries
//! its pixels, its truth masks, and the *classification label vector* that
//! the representative dataset provides for clustering into contexts.

use crate::frame::FrameImage;
use crate::pixel::CHANNELS;
use crate::surface::SurfaceType;
use serde::{Deserialize, Serialize};

/// Dimension of a tile's label vector: 8 surface fractions + cloud
/// fraction + mean luminance + luminance standard deviation + mean cirrus.
pub const LABEL_DIM: usize = 12;

/// One tile cut from a frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileImage {
    size: usize,
    channels: Vec<f32>,
    truth_cloudy: Vec<bool>,
    surface_fractions: [f64; 8],
    cloud_fraction: f64,
    /// (row, col) of this tile within its frame's grid.
    grid_pos: (usize, usize),
    center_lat_deg: f64,
    center_lon_deg: f64,
}

impl TileImage {
    /// Tile edge length in native pixels.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Interleaved channel data at native resolution.
    pub fn channels(&self) -> &[f32] {
        &self.channels
    }

    /// Per-pixel cloud truth at native resolution (row-major).
    pub fn truth_cloudy(&self) -> &[bool] {
        &self.truth_cloudy
    }

    /// Fraction of pixels of each surface type.
    pub fn surface_fractions(&self) -> &[f64; 8] {
        &self.surface_fractions
    }

    /// Fraction of cloudy pixels (low-value data).
    pub fn cloud_fraction(&self) -> f64 {
        self.cloud_fraction
    }

    /// Fraction of clear pixels (high-value data).
    pub fn high_value_fraction(&self) -> f64 {
        1.0 - self.cloud_fraction
    }

    /// Position of this tile within the frame grid, `(row, col)`.
    pub fn grid_pos(&self) -> (usize, usize) {
        self.grid_pos
    }

    /// Approximate tile center latitude, degrees.
    pub fn center_lat_deg(&self) -> f64 {
        self.center_lat_deg
    }

    /// Approximate tile center longitude, degrees.
    pub fn center_lon_deg(&self) -> f64 {
        self.center_lon_deg
    }

    /// The dominant surface type of the tile.
    pub fn dominant_surface(&self) -> SurfaceType {
        let mut best = SurfaceType::Ocean;
        let mut best_frac = -1.0;
        for t in SurfaceType::ALL {
            let f = self.surface_fractions[t.index()];
            if f > best_frac {
                best_frac = f;
                best = t;
            }
        }
        best
    }

    /// Mean reflectance per channel.
    pub fn channel_means(&self) -> [f64; CHANNELS] {
        let mut means = [0.0f64; CHANNELS];
        let n = (self.size * self.size) as f64;
        for px in self.channels.chunks_exact(CHANNELS) {
            for (c, v) in px.iter().enumerate() {
                means[c] += f64::from(*v);
            }
        }
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Mean and standard deviation of visible luminance.
    pub fn luminance_stats(&self) -> (f64, f64) {
        let n = (self.size * self.size) as f64;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for px in self.channels.chunks_exact(CHANNELS) {
            let lum = (f64::from(px[0]) + f64::from(px[1]) + f64::from(px[2])) / 3.0;
            sum += lum;
            sum_sq += lum * lum;
        }
        let mean = sum / n;
        let var = (sum_sq / n - mean * mean).max(0.0);
        (mean, var.sqrt())
    }

    /// Returns a copy of this tile with replaced channel data (same
    /// truth and metadata). Used by radiometric augmentation.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length does not match this tile's shape.
    pub fn with_channels(&self, channels: Vec<f32>) -> TileImage {
        assert_eq!(
            channels.len(),
            self.size * self.size * CHANNELS,
            "channel buffer length mismatch"
        );
        TileImage {
            channels,
            ..self.clone()
        }
    }

    /// Returns a copy of this tile with replaced channels and truth mask
    /// (cloud fraction is recomputed). Used by geometric augmentation.
    ///
    /// # Panics
    ///
    /// Panics if either buffer length does not match this tile's shape.
    pub fn with_channels_and_truth(
        &self,
        channels: Vec<f32>,
        truth_cloudy: Vec<bool>,
    ) -> TileImage {
        assert_eq!(
            channels.len(),
            self.size * self.size * CHANNELS,
            "channel buffer length mismatch"
        );
        assert_eq!(
            truth_cloudy.len(),
            self.size * self.size,
            "truth buffer length mismatch"
        );
        let cloud_fraction =
            truth_cloudy.iter().filter(|&&b| b).count() as f64 / truth_cloudy.len() as f64;
        TileImage {
            channels,
            truth_cloudy,
            cloud_fraction,
            ..self.clone()
        }
    }

    /// The tile's classification label vector, as the representative
    /// dataset would annotate it: surface fractions, cloud fraction, and
    /// radiometric summary statistics. These drive automatic context
    /// generation (paper Section 3.2).
    pub fn label_vector(&self) -> [f64; LABEL_DIM] {
        let (lum_mean, lum_std) = self.luminance_stats();
        let means = self.channel_means();
        let mut v = [0.0f64; LABEL_DIM];
        v[..8].copy_from_slice(&self.surface_fractions);
        v[8] = self.cloud_fraction;
        v[9] = lum_mean;
        v[10] = lum_std;
        v[11] = means[4]; // cirrus band mean
        v
    }
}

/// Splits a frame into a `grid` x `grid` lattice of tiles.
///
/// # Panics
///
/// Panics if `grid` is zero or does not evenly divide the frame dimension.
pub fn tile_frame(frame: &FrameImage, grid: usize) -> Vec<TileImage> {
    assert!(grid > 0, "grid must be positive");
    let px = frame.width();
    assert_eq!(
        px % grid,
        0,
        "grid {grid} must evenly divide frame dimension {px}"
    );
    let tile_px = px / grid;
    let deg_per_km = 1.0 / 111.32;
    let tile_km = frame.frame_km() / grid as f64;
    let cos_lat = frame.center_lat_deg().to_radians().cos().max(0.05);

    let mut tiles = Vec::with_capacity(grid * grid);
    for tr in 0..grid {
        for tc in 0..grid {
            let mut channels = Vec::with_capacity(tile_px * tile_px * CHANNELS);
            let mut truth = Vec::with_capacity(tile_px * tile_px);
            let mut surf_counts = [0usize; 8];
            for r in 0..tile_px {
                let start = (tr * tile_px + r) * px + tc * tile_px;
                let row = start..start + tile_px;
                channels
                    .extend_from_slice(&frame.channels()[row.start * CHANNELS..row.end * CHANNELS]);
                truth.extend_from_slice(&frame.truth_cloudy()[row.clone()]);
                for surface in &frame.surface()[row] {
                    surf_counts[surface.index()] += 1;
                }
            }
            let n = (tile_px * tile_px) as f64;
            let surface_fractions = surf_counts.map(|count| count as f64 / n);
            let cloud_fraction = truth.iter().filter(|&&b| b).count() as f64 / n;

            // Tile center offset from frame center, in km then degrees.
            let half = frame.frame_km() / 2.0;
            let cy_km = half - tile_km * (tr as f64 + 0.5);
            let cx_km = -half + tile_km * (tc as f64 + 0.5);

            tiles.push(TileImage {
                size: tile_px,
                channels,
                truth_cloudy: truth,
                surface_fractions,
                cloud_fraction,
                grid_pos: (tr, tc),
                center_lat_deg: frame.center_lat_deg() + cy_km * deg_per_km,
                center_lon_deg: frame.center_lon_deg() + cx_km * deg_per_km / cos_lat,
            });
        }
    }
    tiles
}

/// The tile grids evaluated in the paper: 121, 36, 16 and 9 tiles per
/// frame correspond to 11x11, 6x6, 4x4 and 3x3 lattices.
pub const PAPER_TILE_GRIDS: [usize; 4] = [11, 6, 4, 3];

/// Converts a grid dimension to tiles per frame.
pub fn tiles_per_frame(grid: usize) -> usize {
    grid * grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::World;

    fn test_frame() -> FrameImage {
        World::new(42).render_frame(20.0, 30.0, 0.0, 66, 150.0)
    }

    #[test]
    fn tiling_produces_grid_squared_tiles() {
        let frame = test_frame();
        for grid in [3, 6, 11] {
            let tiles = tile_frame(&frame, grid);
            assert_eq!(tiles.len(), grid * grid);
            for t in &tiles {
                assert_eq!(t.size(), 66 / grid);
                assert_eq!(t.channels().len(), t.size() * t.size() * CHANNELS);
            }
        }
    }

    #[test]
    fn tiles_partition_the_frame_exactly() {
        let frame = test_frame();
        let tiles = tile_frame(&frame, 3);
        // Cloud fraction of the frame equals the tile-average.
        let tile_avg: f64 =
            tiles.iter().map(TileImage::cloud_fraction).sum::<f64>() / tiles.len() as f64;
        assert!((tile_avg - frame.cloud_fraction()).abs() < 1e-9);
        // Pixel counts match.
        let total: usize = tiles.iter().map(|t| t.size() * t.size()).sum();
        assert_eq!(total, frame.pixel_count());
    }

    #[test]
    fn tile_pixels_match_frame_pixels() {
        let frame = test_frame();
        let tiles = tile_frame(&frame, 6);
        let tile_px = 11;
        let t = &tiles[7]; // grid (1,1)
        assert_eq!(t.grid_pos(), (1, 1));
        for r in 0..tile_px {
            for c in 0..tile_px {
                for ch in 0..CHANNELS {
                    let from_tile = t.channels()[(r * tile_px + c) * CHANNELS + ch];
                    let from_frame = frame.at(tile_px + r, tile_px + c, ch);
                    assert_eq!(from_tile, from_frame);
                }
            }
        }
    }

    #[test]
    fn label_vector_is_consistent() {
        let frame = test_frame();
        let tiles = tile_frame(&frame, 3);
        for t in &tiles {
            let v = t.label_vector();
            let surf_sum: f64 = v[..8].iter().sum();
            assert!((surf_sum - 1.0).abs() < 1e-9);
            assert!((v[8] - t.cloud_fraction()).abs() < 1e-12);
            assert!(v[9] >= 0.0 && v[9] <= 1.0);
            assert!(v[10] >= 0.0);
        }
    }

    #[test]
    fn dominant_surface_has_the_largest_fraction() {
        let frame = test_frame();
        for t in tile_frame(&frame, 6) {
            let dom = t.dominant_surface();
            let dom_frac = t.surface_fractions()[dom.index()];
            for s in SurfaceType::ALL {
                assert!(t.surface_fractions()[s.index()] <= dom_frac);
            }
        }
    }

    #[test]
    fn tile_centers_spread_across_the_frame() {
        let frame = test_frame();
        let tiles = tile_frame(&frame, 3);
        let lat_span = tiles
            .iter()
            .map(|t| t.center_lat_deg())
            .fold(f64::NEG_INFINITY, f64::max)
            - tiles
                .iter()
                .map(|t| t.center_lat_deg())
                .fold(f64::INFINITY, f64::min);
        // 150 km frame: tile centers span ~2/3 of ~1.35 degrees.
        assert!(lat_span > 0.5, "lat span = {lat_span}");
    }

    #[test]
    fn paper_grids_yield_paper_tile_counts() {
        let counts: Vec<usize> = PAPER_TILE_GRIDS.iter().map(|&g| tiles_per_frame(g)).collect();
        assert_eq!(counts, vec![121, 36, 16, 9]);
    }

    #[test]
    #[should_panic(expected = "evenly divide")]
    fn rejects_non_dividing_grid() {
        let frame = test_frame();
        let _ = tile_frame(&frame, 5);
    }
}
