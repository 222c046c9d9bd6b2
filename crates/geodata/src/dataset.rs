//! Representative dataset assembly and train/validation splits.
//!
//! The paper's one-time transformation step starts from "a representative
//! dataset" of satellite imagery with classification vector labels and
//! per-pixel masks (Section 4). This module assembles the procedural
//! equivalent: frames sampled along polar ground-track latitudes, carrying
//! per-pixel truth, to be tiled and labeled on demand.

use crate::frame::{FrameImage, World};
use crate::par::{par_map_indexed, resolve_workers};
use crate::tile::{tile_frame, TileImage};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// Configuration for dataset generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Seed for frame placement (the world has its own seed).
    pub seed: u64,
    /// Number of frames to sample.
    pub frame_count: usize,
    /// Native frame resolution in pixels. Must be divisible by every tile
    /// grid that will be evaluated (132 covers the paper's 3/4/6/11).
    pub frame_px: usize,
    /// Frame ground extent, kilometers.
    pub frame_km: f64,
    /// Maximum |latitude| sampled (matches the WRS grid limit).
    pub max_latitude_deg: f64,
    /// Time span (days) over which frames are spread.
    pub time_span_days: f64,
}

impl DatasetConfig {
    /// A small, fast configuration for unit tests.
    pub fn small(seed: u64) -> DatasetConfig {
        DatasetConfig {
            seed,
            frame_count: 12,
            frame_px: 66,
            frame_km: 150.0,
            max_latitude_deg: 82.6,
            time_span_days: 4.0,
        }
    }

    /// The default evaluation configuration: enough frames for stable
    /// accuracy/precision statistics at the paper's tile grids.
    pub fn evaluation(seed: u64) -> DatasetConfig {
        DatasetConfig {
            seed,
            frame_count: 64,
            frame_px: 132,
            frame_km: 150.0,
            max_latitude_deg: 82.6,
            time_span_days: 16.0,
        }
    }
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig::evaluation(0)
    }
}

/// A set of frames with ground truth: the representative dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    frames: Vec<FrameImage>,
}

impl Dataset {
    /// Samples a representative dataset from a world.
    ///
    /// Frame centers follow polar-orbit statistics: the latitude of a
    /// ground-track point is `arcsin(sin(u))`-distributed (denser near the
    /// turning latitudes), and longitudes are uniform. Capture times are
    /// spread over the configured span so cloud systems vary. Frames
    /// render on the [`crate::par`] executor at the auto worker count,
    /// which changes only how fast they arrive.
    ///
    /// # Panics
    ///
    /// Panics if `frame_count` is zero.
    pub fn sample(world: &World, config: &DatasetConfig) -> Dataset {
        assert!(config.frame_count > 0, "dataset needs frames");
        let mut rng = ChaCha12Rng::seed_from_u64(config.seed ^ 0xDA7A);
        let max_lat = config.max_latitude_deg.to_radians();
        // Draw frame placements sequentially (determinism), render in
        // parallel (frames are independent).
        let placements: Vec<(f64, f64, f64)> = (0..config.frame_count)
            .map(|_| {
                // Uniform argument-of-latitude -> arcsine latitude density.
                let u: f64 = rng.random_range(0.0..std::f64::consts::TAU);
                let lat = (u.sin() * max_lat.sin()).asin().to_degrees();
                let lon: f64 = rng.random_range(-180.0..180.0);
                let t: f64 = rng.random_range(0.0..config.time_span_days);
                (lat, lon, t)
            })
            .collect();
        let frames = par_map_indexed(resolve_workers(0), &placements, |_, &(lat, lon, t)| {
            world.render_frame(lat, lon, t, config.frame_px, config.frame_km)
        });
        Dataset { frames }
    }

    /// The frames in this dataset.
    pub fn frames(&self) -> &[FrameImage] {
        &self.frames
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Always false (construction requires frames).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Tiles every frame on a `grid` x `grid` lattice and returns all
    /// tiles.
    pub fn tiles(&self, grid: usize) -> Vec<TileImage> {
        self.frames
            .iter()
            .flat_map(|f| tile_frame(f, grid))
            .collect()
    }

    /// Dataset-wide cloud (low-value) pixel fraction.
    pub fn cloud_fraction(&self) -> f64 {
        // Serial left-to-right accumulation in frame order pins the
        // (non-associative) f64 reduction order.
        let mut total = 0.0;
        for frame in &self.frames {
            total += frame.cloud_fraction();
        }
        total / self.frames.len() as f64
    }

    /// Splits frames into train and validation subsets.
    ///
    /// Splitting at frame granularity avoids leaking pixels of one frame
    /// into both sides (tiles of a frame share cloud systems).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < train_fraction < 1`, or if either side would be
    /// empty.
    pub fn split(&self, train_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train fraction must be in (0, 1)"
        );
        let mut indices: Vec<usize> = (0..self.frames.len()).collect();
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x5917);
        // Fisher-Yates shuffle.
        for i in (1..indices.len()).rev() {
            let j = rng.random_range(0..=i);
            indices.swap(i, j);
        }
        let n_train = ((self.frames.len() as f64) * train_fraction).round() as usize;
        let n_train = n_train.clamp(1, self.frames.len() - 1);
        let (train_idx, val_idx) = indices.split_at(n_train.min(indices.len()));
        let train = train_idx
            .iter()
            .filter_map(|&i| self.frames.get(i).cloned())
            .collect();
        let val = val_idx
            .iter()
            .filter_map(|&i| self.frames.get(i).cloned())
            .collect();
        (Dataset { frames: train }, Dataset { frames: val })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dataset() -> Dataset {
        let world = World::new(42);
        Dataset::sample(&world, &DatasetConfig::small(1))
    }

    #[test]
    fn sampling_honors_frame_count_and_size() {
        let ds = small_dataset();
        assert_eq!(ds.len(), 12);
        for f in ds.frames() {
            assert_eq!(f.width(), 66);
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let world = World::new(42);
        let a = Dataset::sample(&world, &DatasetConfig::small(1));
        let b = Dataset::sample(&world, &DatasetConfig::small(1));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_sample_different_frames() {
        let world = World::new(42);
        let a = Dataset::sample(&world, &DatasetConfig::small(1));
        let b = Dataset::sample(&world, &DatasetConfig::small(2));
        assert_ne!(a, b);
    }

    #[test]
    fn latitudes_stay_within_grid_limit() {
        let ds = small_dataset();
        for f in ds.frames() {
            assert!(f.center_lat_deg().abs() <= 82.6 + 1e-9);
        }
    }

    #[test]
    fn cloud_fraction_near_target() {
        let world = World::new(42); // default 52% target
        let mut config = DatasetConfig::small(3);
        config.frame_count = 48;
        let ds = Dataset::sample(&world, &config);
        let cf = ds.cloud_fraction();
        assert!((0.3..0.75).contains(&cf), "cloud fraction = {cf}");
    }

    #[test]
    fn tiles_cover_all_frames() {
        let ds = small_dataset();
        let tiles = ds.tiles(3);
        assert_eq!(tiles.len(), 12 * 9);
    }

    #[test]
    fn split_partitions_frames() {
        let ds = small_dataset();
        let (train, val) = ds.split(0.75, 7);
        assert_eq!(train.len() + val.len(), ds.len());
        assert_eq!(train.len(), 9);
        // No frame appears on both sides.
        for tf in train.frames() {
            assert!(!val.frames().contains(tf));
        }
    }

    #[test]
    fn split_is_deterministic() {
        let ds = small_dataset();
        let (a_train, _) = ds.split(0.5, 9);
        let (b_train, _) = ds.split(0.5, 9);
        assert_eq!(a_train, b_train);
    }

    #[test]
    #[should_panic(expected = "train fraction")]
    fn rejects_degenerate_split() {
        let _ = small_dataset().split(1.0, 0);
    }
}
