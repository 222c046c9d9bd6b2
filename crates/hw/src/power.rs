//! Energy accounting for orbit-scale power budgets.
//!
//! Volume, mass, energy and cost constrain the space edge (paper
//! Sections 2-3). This module turns the latency model's compute times
//! into energy figures so deployments can be checked against a
//! solar-panel harvest budget — the reason the Orin's 15 W mode is the
//! flight-representative configuration.

use kodan_cote::time::Duration;
use serde::{Deserialize, Serialize};

use crate::targets::HwTarget;

/// An orbit-average energy budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyBudget {
    /// Orbit-average power available to the compute payload, watts.
    pub orbit_average_watts: f64,
}

impl EnergyBudget {
    /// A 3U-cubesat-class budget: deployable panels harvest ~20-30 W
    /// orbit-average; roughly 17 W is available to the payload after bus
    /// loads.
    pub fn cubesat_3u() -> EnergyBudget {
        EnergyBudget {
            orbit_average_watts: 17.0,
        }
    }

    /// A small-satellite budget with generous panels.
    pub fn smallsat() -> EnergyBudget {
        EnergyBudget {
            orbit_average_watts: 200.0,
        }
    }

    /// Maximum duty cycle (fraction of time the payload may compute)
    /// sustainable on this budget, in `[0, 1]`.
    ///
    /// A non-positive payload draw or a non-positive budget yields 0.0:
    /// a dead bus sustains no compute, and the division is never
    /// performed against a zero-power target.
    pub fn max_duty_cycle(&self, target: HwTarget) -> f64 {
        let draw = target.power_watts();
        if !(draw > 0.0) || !(self.orbit_average_watts > 0.0) {
            return 0.0;
        }
        (self.orbit_average_watts / draw).min(1.0)
    }

    /// True if the target can compute continuously on this budget.
    pub fn supports_continuous(&self, target: HwTarget) -> bool {
        self.max_duty_cycle(target) >= 1.0
    }

    /// Energy available over a horizon, joules. Zero or negative
    /// horizons (and non-positive budgets) harvest nothing: the result
    /// is clamped to `0.0`, never a negative joule figure.
    pub fn energy_over(&self, horizon: Duration) -> f64 {
        let seconds = horizon.as_seconds();
        if !(seconds > 0.0) || !(self.orbit_average_watts > 0.0) {
            return 0.0;
        }
        self.orbit_average_watts * seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cubesat_budget_supports_only_the_orin() {
        let budget = EnergyBudget::cubesat_3u();
        assert!(budget.supports_continuous(HwTarget::OrinAgx15W));
        assert!(!budget.supports_continuous(HwTarget::Gtx1070Ti));
        assert!(!budget.supports_continuous(HwTarget::CoreI7_7800X));
    }

    #[test]
    fn duty_cycle_scales_with_power() {
        let budget = EnergyBudget::cubesat_3u();
        let gpu_duty = budget.max_duty_cycle(HwTarget::Gtx1070Ti);
        assert!((gpu_duty - 17.0 / 180.0).abs() < 1e-12);
        let orin_duty = budget.max_duty_cycle(HwTarget::OrinAgx15W);
        assert_eq!(orin_duty, 1.0);
    }

    #[test]
    fn smallsat_budget_supports_everything() {
        let budget = EnergyBudget::smallsat();
        for target in HwTarget::ALL {
            assert!(budget.supports_continuous(target), "{target}");
        }
    }

    #[test]
    fn energy_over_horizon() {
        let budget = EnergyBudget::cubesat_3u();
        let day = budget.energy_over(Duration::from_days(1.0));
        assert!((day - 17.0 * 86_400.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_budgets_yield_zero_duty_cycle() {
        // A dead or negative bus budget sustains no compute on any
        // target — and never divides by the target draw.
        for watts in [0.0, -5.0, f64::NAN] {
            let budget = EnergyBudget {
                orbit_average_watts: watts,
            };
            for target in HwTarget::ALL {
                assert_eq!(budget.max_duty_cycle(target), 0.0, "{watts} W, {target}");
                assert!(!budget.supports_continuous(target), "{watts} W, {target}");
            }
        }
    }

    #[test]
    fn degenerate_horizons_harvest_zero_energy() {
        let budget = EnergyBudget::cubesat_3u();
        assert_eq!(budget.energy_over(Duration::ZERO), 0.0);
        assert_eq!(budget.energy_over(Duration::from_seconds(-60.0)), 0.0);
        let dead = EnergyBudget {
            orbit_average_watts: 0.0,
        };
        assert_eq!(dead.energy_over(Duration::from_days(1.0)), 0.0);
    }
}
