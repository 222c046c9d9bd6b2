//! # kodan-geodata
//!
//! A procedural geospatial dataset, built as the data substrate for the
//! Kodan (ASPLOS '23) reproduction. It stands in for the Sentinel-2 Cloud
//! Mask Catalogue used by the paper: multispectral satellite image tiles
//! with per-pixel cloud truth masks and per-tile classification label
//! vectors.
//!
//! Everything is generated deterministically from a seed:
//!
//! - [`noise`] — seeded value noise and fractal Brownian motion,
//! - [`surface`] — a global surface-type map (ocean, forest, desert, ...),
//! - [`clouds`] — spatially and temporally correlated cloud fields with
//!   latitude-dependent climatology,
//! - [`pixel`] — multispectral radiance synthesis, including the classic
//!   cloud-masking confusers (ocean sun glint, desert dust, snow),
//! - [`frame`] — whole-frame rendering at a ground-track point,
//! - [`tile`] — frame tiling and per-tile labels,
//! - [`resize`] — the decimation/interpolation pipeline that couples frame
//!   tiling to model input resolution (paper Section 3, Figure 6),
//! - [`features`] — per-pixel feature extraction for the ML substrate,
//! - [`dataset`] — representative dataset assembly and train/validation
//!   splits,
//! - [`par`] — the workspace's deterministic data-parallel executor.
//!
//! The generator is designed so the phenomena Kodan exploits *emerge* from
//! the data rather than being hard-coded: cloud/surface separability varies
//! by surface context, tiles are spatially coherent, and cloud edges carry
//! fine structure that decimation destroys.
//!
//! ## Example
//!
//! ```
//! use kodan_geodata::frame::World;
//!
//! let world = World::new(7);
//! let frame = world.render_frame(12.0, -71.0, 0.0, 66, 150.0);
//! assert_eq!(frame.width(), 66);
//! let cloudy = frame.cloud_fraction();
//! assert!((0.0..=1.0).contains(&cloudy));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod augment;
pub mod clouds;
pub mod dataset;
pub mod features;
pub mod frame;
pub mod noise;
pub mod par;
pub mod pixel;
pub mod resize;
pub mod stats;
pub mod surface;
pub mod tile;

pub use dataset::{Dataset, DatasetConfig};
pub use frame::{FrameImage, World};
pub use surface::SurfaceType;
pub use tile::TileImage;
