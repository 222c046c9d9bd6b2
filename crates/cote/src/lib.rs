//! # kodan-cote
//!
//! An orbital-mechanics and space-segment simulator, built as the substrate
//! for the Kodan (ASPLOS '23) reproduction. It stands in for the `cote`
//! simulator used by the paper ("computing on the edge", Denby & Lucia,
//! ASPLOS '20) and models:
//!
//! - time systems and simulated epochs ([`time`]),
//! - Earth constants and coordinate frames — ECI, ECEF, geodetic
//!   ([`bodies`], [`coords`]),
//! - Keplerian orbits with J2 secular perturbations and sun-synchronous
//!   design helpers ([`orbit`], [`propagate`]),
//! - ground stations, elevation geometry and contact windows ([`ground`],
//!   [`link`]),
//! - imaging sensors, ground tracks, frame capture and the frame deadline
//!   ([`sensor`]),
//! - the Landsat-style Worldwide Reference System frame grid ([`wrs`]),
//! - constellations ([`constellation`]) and day-scale space-segment
//!   simulation with ground-station contention ([`sim`], [`coverage`]).
//!
//! Everything is deterministic and uses simulated time only; there is no
//! wall-clock or I/O dependence, which makes day-scale sweeps cheap and
//! reproducible.
//!
//! ## Example
//!
//! ```
//! use kodan_cote::orbit::Orbit;
//! use kodan_cote::ground::GroundSegment;
//! use kodan_cote::link::contact_windows;
//! use kodan_cote::time::Duration;
//!
//! let orbit = Orbit::sun_synchronous(705_000.0); // Landsat-8-like
//! let segment = GroundSegment::landsat();
//! let windows = contact_windows(&orbit, &segment, Duration::from_hours(24.0));
//! assert!(!windows.is_empty());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bodies;
pub mod constellation;
pub mod coords;
pub mod coverage;
pub mod ground;
pub mod link;
pub mod orbit;
pub mod propagate;
pub mod sensor;
pub mod sim;
pub mod time;
pub mod vec3;
pub mod wrs;

pub use orbit::Orbit;
pub use sensor::Imager;
pub use time::{Duration, Epoch};
pub use vec3::Vec3;
