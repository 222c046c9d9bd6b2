//! Data value density accounting for a saturated downlink.
//!
//! **Data value density (DVD)** is "the fraction of a saturated downlink
//! composed of high-value bits" (paper Sections 1-3). The denominator is
//! the downlink *capacity*: sending low-value data pollutes it, and
//! producing less data than the link can carry wastes it. Both failure
//! modes lower DVD, which is what makes it the right objective for both
//! the bottlenecked and the idle-compute regimes.

use kodan_cote::time::Duration;
use serde::{Deserialize, Serialize};

/// The day's compute rule, shared by the selection estimate, the
/// mission's aggregate report and the pass-level replay: frames that take
/// longer than the deadline on average are skipped, so only
/// `deadline / frame_time` of them are processed; a frame time within
/// the deadline processes them all.
pub(crate) fn processed_fraction(frame_time: Duration, deadline: Duration) -> f64 {
    if frame_time <= deadline {
        1.0
    } else {
        deadline / frame_time
    }
}

/// `num / den`, or 0.0 when the denominator is not positive (NaN
/// included): the guarded ratio of the day's densities and coverage.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Downlink accounting over some horizon, in pixel units (a pixel is the
/// atomic unit of data value; multiply by bits/pixel to get link units).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DownlinkAccounting {
    /// Downlink capacity over the horizon.
    pub capacity_px: f64,
    /// Pixels produced for downlink (before capacity thinning).
    pub produced_px: f64,
    /// Of the produced pixels, how many are genuinely high-value.
    pub produced_value_px: f64,
    /// Pixels observed by the sensor over the horizon.
    pub observed_px: f64,
    /// Of the observed pixels, how many are genuinely high-value.
    pub observed_value_px: f64,
}

impl DownlinkAccounting {
    /// Pixels actually downlinked: production clipped by capacity.
    pub fn downlinked_px(&self) -> f64 {
        self.produced_px.min(self.capacity_px)
    }

    /// High-value pixels actually downlinked. When production exceeds
    /// capacity the queue is thinned uniformly (produced data from one
    /// policy is statistically homogeneous).
    pub fn downlinked_value_px(&self) -> f64 {
        if self.produced_px <= 0.0 {
            return 0.0;
        }
        self.produced_value_px * (self.downlinked_px() / self.produced_px)
    }

    /// Data value density: high-value pixels downlinked per unit of
    /// downlink capacity. Idle capacity counts as zero-value.
    ///
    /// # Panics
    ///
    /// Panics if capacity is not positive.
    pub fn dvd(&self) -> f64 {
        assert!(self.capacity_px > 0.0, "capacity must be positive");
        self.downlinked_value_px() / self.capacity_px
    }

    /// Fraction of *observed high-value data* that reaches the ground —
    /// the metric of the paper's Figure 5.
    pub fn observed_hv_downlinked(&self) -> f64 {
        ratio(self.downlinked_value_px(), self.observed_value_px)
    }

    /// Fraction of the downlink capacity actually used. A degenerate
    /// zero-capacity link reports 0.0 rather than NaN so the ratio stays
    /// safe to aggregate and serialize.
    pub fn capacity_utilization(&self) -> f64 {
        ratio(self.downlinked_px(), self.capacity_px)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> DownlinkAccounting {
        DownlinkAccounting {
            capacity_px: 100.0,
            produced_px: 0.0,
            produced_value_px: 0.0,
            observed_px: 1000.0,
            observed_value_px: 480.0,
        }
    }

    #[test]
    fn bent_pipe_dvd_equals_prevalence() {
        // Producing all observed data at 48% value, way over capacity:
        // DVD = prevalence.
        let mut a = base();
        a.produced_px = 1000.0;
        a.produced_value_px = 480.0;
        assert!((a.dvd() - 0.48).abs() < 1e-12);
        assert_eq!(a.downlinked_px(), 100.0);
        assert_eq!(a.capacity_utilization(), 1.0);
        // 48 of 480 observed high-value pixels land.
        assert!((a.observed_hv_downlinked() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn precise_filter_saturating_link_has_high_dvd() {
        let mut a = base();
        a.produced_px = 200.0; // still above capacity
        a.produced_value_px = 186.0; // 93% precision
        assert!((a.dvd() - 0.93).abs() < 1e-12);
    }

    #[test]
    fn underproduction_wastes_capacity() {
        // Produce only 50 px at perfect precision: DVD capped at 0.5.
        let mut a = base();
        a.produced_px = 50.0;
        a.produced_value_px = 50.0;
        assert!((a.dvd() - 0.5).abs() < 1e-12);
        assert!((a.capacity_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_production_is_zero_dvd() {
        let a = base();
        assert_eq!(a.dvd(), 0.0);
        assert_eq!(a.observed_hv_downlinked(), 0.0);
    }

    #[test]
    fn thinning_preserves_value_ratio() {
        let mut a = base();
        a.produced_px = 400.0;
        a.produced_value_px = 300.0;
        let kept = a.downlinked_value_px() / a.downlinked_px();
        assert!((kept - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ratio_accessors_guard_zero_denominators() {
        // Every ratio accessor must return a finite 0.0 — never NaN —
        // when its denominator degenerates, so downstream aggregation
        // and JSON serialization stay well-defined.
        let mut a = base();
        a.capacity_px = 0.0;
        a.produced_px = 0.0;
        a.observed_value_px = 0.0;
        assert_eq!(a.capacity_utilization(), 0.0);
        assert_eq!(a.downlinked_value_px(), 0.0);
        assert_eq!(a.observed_hv_downlinked(), 0.0);
        assert!(a.capacity_utilization().is_finite());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_zero_capacity() {
        let mut a = base();
        a.capacity_px = 0.0;
        let _ = a.dvd();
    }
}
