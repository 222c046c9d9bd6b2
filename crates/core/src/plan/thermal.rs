//! Deterministic thermal duty-cycle model for sustained on-orbit compute.
//!
//! `kodan-faults` models thermal *episodes* probabilistically (a seeded
//! coin per frame). This module graduates that into a deterministic
//! accumulator: compute deposits heat in proportion to the energy it
//! dissipates, the passive radiator leaks a fixed fraction of the stored
//! heat per second, and a payload that stays above the throttle onset
//! runs its next frame at a derated clock. The planner consults the
//! accumulator to duty-cycle compute *before* it throttles, which is the
//! whole point of placement planning.
//!
//! The update rule is rational arithmetic only (no transcendentals), so
//! it is bit-reproducible everywhere:
//!
//! ```text
//! temp' = (temp + heat_per_joule_k * work_j) / (1 + cooling_per_second * period_s)
//! ```
//!
//! The fixed point of that recurrence under repeated work `W` every
//! period `P` is `heat(W) / (cooling * P)`, which is how the default
//! constants were chosen: continuous Orin-class frames settle well above
//! the onset, a ~50-65% duty cycle settles below it.

use serde::{Deserialize, Serialize};

/// Thermal constants for one payload/radiator pairing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalConfig {
    /// Kelvin of payload temperature rise per joule dissipated.
    pub heat_per_joule_k: f64,
    /// Fraction of stored heat the radiator leaks per second.
    pub cooling_per_second: f64,
    /// Temperature rise above ambient, kelvin, at which the payload
    /// derates its clock.
    pub throttle_onset_k: f64,
    /// Multiplier applied to every modeled compute time while the
    /// payload is at or above the onset. Passively-cooled flight
    /// hardware derates hard: a sustained-hot payload runs its frames
    /// several times slower, which is what makes duty-cycling *before*
    /// the onset worth planning for.
    pub throttle_factor: f64,
}

impl ThermalConfig {
    /// Constants tuned for the flight-representative Orin 15 W mode on a
    /// 3U bus flying Landsat-geometry frames (~7 s of compute every
    /// ~22 s deadline, ~105 J/frame): back-to-back frames settle ~60%
    /// above the throttle onset, while a half duty cycle that
    /// interleaves scan-only frames peaks below it.
    pub fn orin_default() -> ThermalConfig {
        ThermalConfig {
            heat_per_joule_k: 0.04,
            cooling_per_second: 0.01,
            throttle_onset_k: 12.0,
            // Jetson-class silicon derates its clocks by an order of
            // magnitude at the thermal limit: 1.3 GHz down to ~115 MHz
            // on the GPU, an 11.3x ratio, which pins the end-to-end
            // slowdown of a GPU-bound frame.
            throttle_factor: 11.0,
        }
    }
}

/// The deterministic heat accumulator. One instance is advanced once per
/// frame, in frame-index order, by the planner — never concurrently —
/// which is what keeps planned missions byte-identical at any worker
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ThermalState {
    temperature_k: f64,
    peak_k: f64,
}

impl ThermalState {
    /// A payload at ambient temperature.
    pub fn new() -> ThermalState {
        ThermalState {
            temperature_k: 0.0,
            peak_k: 0.0,
        }
    }

    /// Highest temperature rise seen so far, kelvin.
    pub fn peak_k(&self) -> f64 {
        self.peak_k
    }

    /// The compute-time multiplier the payload would run its *next*
    /// frame at: `config.throttle_factor` at or above the onset, `1.0`
    /// below it. Never less than `1.0`.
    pub fn throttle(&self, config: &ThermalConfig) -> f64 {
        if self.temperature_k >= config.throttle_onset_k {
            config.throttle_factor.max(1.0)
        } else {
            1.0
        }
    }

    /// Deposits the heat of `work_j` joules dissipated over one frame
    /// period of `period_s` seconds, then applies radiator leak for the
    /// same period. Heat is charged on the *unthrottled* work energy —
    /// throttled silicon is slower, not cooler — which keeps the
    /// recurrence work-proportional and rules out thermal runaway from
    /// the throttle itself.
    pub fn advance(&mut self, config: &ThermalConfig, work_j: f64, period_s: f64) {
        let heat = config.heat_per_joule_k.max(0.0) * work_j.max(0.0);
        // `leak >= 1.0` by construction, so the division is always safe
        // and never amplifies heat.
        let leak = 1.0 + config.cooling_per_second.max(0.0) * period_s.max(0.0);
        self.temperature_k = (self.temperature_k + heat) / leak;
        if self.temperature_k > self.peak_k {
            self.peak_k = self.temperature_k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Joules of a flight-representative Orin frame: ~7 s of compute at
    /// 15 W, captured every ~22 s (the Landsat frame deadline).
    const FRAME_J: f64 = 105.0;
    const PERIOD_S: f64 = 22.0;

    #[test]
    fn continuous_compute_crosses_the_onset_and_throttles() {
        let cfg = ThermalConfig::orin_default();
        let mut state = ThermalState::new();
        assert_eq!(state.throttle(&cfg), 1.0, "cold start runs full speed");
        for _ in 0..48 {
            state.advance(&cfg, FRAME_J, PERIOD_S);
        }
        assert!(
            state.temperature_k > cfg.throttle_onset_k,
            "sustained frames settle above onset: {} K",
            state.temperature_k
        );
        assert_eq!(state.throttle(&cfg), cfg.throttle_factor);
        assert!(state.peak_k() >= state.temperature_k);
    }

    #[test]
    fn half_duty_cycle_stays_below_the_onset() {
        let cfg = ThermalConfig::orin_default();
        let mut state = ThermalState::new();
        let mut throttled = 0u32;
        for i in 0..96 {
            // Alternate a full compute frame with a scan-only frame (the
            // planner's raw-downlink placement: ~36 tiles * 2 ms * 15 W).
            let work = if i % 2 == 0 { FRAME_J } else { 1.1 };
            if state.throttle(&cfg) > 1.0 {
                throttled += 1;
            }
            state.advance(&cfg, work, PERIOD_S);
        }
        assert_eq!(
            throttled, 0,
            "a 50% duty cycle must never throttle: peak {} K vs onset {} K",
            state.peak_k(),
            cfg.throttle_onset_k
        );
    }

    #[test]
    fn idle_frames_cool_the_payload() {
        let cfg = ThermalConfig::orin_default();
        let mut state = ThermalState::new();
        for _ in 0..48 {
            state.advance(&cfg, FRAME_J, PERIOD_S);
        }
        let hot = state.temperature_k;
        for _ in 0..8 {
            state.advance(&cfg, 0.0, PERIOD_S);
        }
        assert!(state.temperature_k < hot, "idle periods must cool");
        assert!(state.temperature_k > 0.0, "decay is asymptotic, not a reset");
    }

    #[test]
    fn degenerate_constants_never_heat_or_amplify() {
        let cfg = ThermalConfig {
            heat_per_joule_k: -1.0,
            cooling_per_second: -1.0,
            throttle_onset_k: 5.0,
            throttle_factor: 0.5,
        };
        let mut state = ThermalState::new();
        state.advance(&cfg, 1000.0, -10.0);
        assert_eq!(state.temperature_k, 0.0, "negative constants clamp to inert");
        // A sub-1.0 throttle factor can never speed compute up.
        let hot = ThermalState {
            temperature_k: 10.0,
            peak_k: 10.0,
        };
        assert_eq!(hot.throttle(&cfg), 1.0);
    }
}
