//! # kodan
//!
//! A reproduction of **Kodan** (Denby et al., ASPLOS '23): an orbital edge
//! computing system that maximizes the *data value density* (DVD) of a
//! saturated satellite downlink while mitigating the computational
//! bottleneck of space-grade hardware.
//!
//! Kodan adjusts a geospatial analysis application to each deployment
//! target with three techniques:
//!
//! 1. **Context-specialized models** ([`context`], [`specialize`]) —
//!    cluster the representative dataset into geospatial contexts and
//!    train smaller, more precise models per context.
//! 2. **Frame tiling** ([`tiling`]) — sweep tiles-per-frame to trade
//!    decimation error against per-frame execution time.
//! 3. **Context-based elision** ([`elide`]) — downlink tiles from
//!    overwhelmingly high-value contexts and discard tiles from
//!    overwhelmingly low-value ones without running inference.
//!
//! A one-time transformation step ([`pipeline`]) combines these into a
//! **selection logic** ([`selection`]) for a specific hardware target;
//! the on-orbit runtime ([`runtime`]) executes it per tile, and
//! [`mission`] simulates full day-scale deployments against the `cote`
//! space-segment model to measure DVD ([`dvd`]) and constellation sizing
//! ([`coverage`]). The [`artifact`] module seals the deployable set —
//! context map, engine, models, selection logic — into `kodan-wire`
//! sections for the modeled ground→space uplink and loads them back
//! without retraining.
//!
//! ## Quickstart
//!
//! ```no_run
//! use kodan::config::KodanConfig;
//! use kodan::pipeline::Transformation;
//! use kodan_geodata::{Dataset, DatasetConfig, World};
//! use kodan_hw::HwTarget;
//! use kodan_ml::ModelArch;
//!
//! let world = World::new(42);
//! let dataset = Dataset::sample(&world, &DatasetConfig::small(1));
//! let config = KodanConfig::fast(7);
//! let artifacts = Transformation::new(config)
//!     .run(&dataset, ModelArch::MobileNetV2DilatedC1)
//!     .expect("transformation succeeds");
//! let logic = artifacts.select_for_target(
//!     HwTarget::OrinAgx15W,
//!     kodan_cote::time::Duration::from_seconds(22.0),
//! );
//! println!("selected {} tiles/frame", logic.tiles_per_frame());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt;

pub mod artifact;
pub mod config;
pub mod context;
pub mod coverage;
pub mod dvd;
pub mod elide;
pub mod engine;
pub mod fleet;
pub mod mission;
pub mod par;
pub mod pipeline;
pub mod plan;
pub mod queue;
pub mod replay;
pub mod runtime;
pub mod selection;
pub mod specialize;
pub mod tiling;

pub use config::KodanConfig;
pub use context::{Context, ContextId, ContextSet};
pub use engine::ContextEngine;
pub use pipeline::{Transformation, TransformationArtifacts};
pub use plan::{ExecutionPlanner, PlanConfig, PlanMode};
pub use selection::SelectionLogic;

/// Errors surfaced by the transformation and runtime paths.
///
/// On-orbit code must not panic — there is no operator to restart a
/// crashed pipeline — so conditions that used to `panic!`/`expect` are
/// reported through this enum instead and handled by the caller (retry,
/// fall back to direct deployment, or abort the transformation on the
/// ground where it is cheap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KodanError {
    /// A grid dimension was requested that the transformation never
    /// swept; carries the offending grid.
    UnknownGrid(usize),
    /// The configuration lists no tile grids, so no models can be
    /// trained and no selection logic derived.
    NoGrids,
    /// An expert map engine was requested for a context set that was
    /// not expert-generated (auto-clustered contexts carry no surface
    /// map to look tiles up in).
    NotExpertGenerated,
    /// A downlink-queue entry had a negative, non-finite or inconsistent
    /// size (value exceeding size). Such entries come from corrupted
    /// accounting — the mission drops the entry and continues rather
    /// than aborting on orbit.
    InvalidQueueEntry,
    /// A day replay was asked for non-positive (or NaN) on-board storage
    /// or bits per pixel; no queue or pass budget can be built from that.
    InvalidReplay,
}

impl fmt::Display for KodanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KodanError::UnknownGrid(grid) => {
                write!(f, "grid {grid} was not swept by the transformation")
            }
            KodanError::NoGrids => write!(f, "configuration lists no tile grids"),
            KodanError::NotExpertGenerated => {
                write!(f, "expert map engine requires expert-generated contexts")
            }
            KodanError::InvalidQueueEntry => {
                write!(f, "queue entry has a negative, non-finite or inconsistent size")
            }
            KodanError::InvalidReplay => {
                write!(f, "day replay needs positive storage and bits per pixel")
            }
        }
    }
}

impl std::error::Error for KodanError {}
