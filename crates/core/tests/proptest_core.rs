//! Property-based tests for the Kodan core's accounting invariants:
//! DVD bounds, action-outcome consistency, constellation sizing, and
//! placement-planner canonicalization.

use kodan::coverage::satellites_required;
use kodan::dvd::DownlinkAccounting;
use kodan::elide::ActionOutcome;
use kodan::plan::{FrameEstimate, TileEstimate};
use kodan::{ExecutionPlanner, PlanConfig};
use kodan_cote::time::Duration;
use kodan_hw::HwTarget;
use kodan_ml::eval::ConfusionMatrix;
use proptest::prelude::*;

proptest! {
    #[test]
    fn dvd_accounting_invariants(
        capacity in 1.0f64..1e6,
        produced in 0.0f64..1e6,
        value_ratio in 0.0f64..1.0,
        observed_extra in 0.0f64..1e6,
        prevalence in 0.0f64..1.0,
    ) {
        let observed = produced + observed_extra + 1.0;
        let accounting = DownlinkAccounting {
            capacity_px: capacity,
            produced_px: produced,
            produced_value_px: produced * value_ratio,
            observed_px: observed,
            observed_value_px: observed * prevalence,
        };
        // Downlinked never exceeds capacity or production.
        prop_assert!(accounting.downlinked_px() <= capacity + 1e-9);
        prop_assert!(accounting.downlinked_px() <= produced + 1e-9);
        // Value never exceeds volume.
        prop_assert!(
            accounting.downlinked_value_px() <= accounting.downlinked_px() + 1e-9
        );
        // DVD in [0, 1].
        let dvd = accounting.dvd();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&dvd), "dvd {}", dvd);
        // Thinning preserves the value ratio.
        if produced > 0.0 {
            let kept_ratio = accounting.downlinked_value_px()
                / accounting.downlinked_px().max(1e-12);
            prop_assert!((kept_ratio - value_ratio).abs() < 1e-6);
        }
        prop_assert!((0.0..=1.0 + 1e-9).contains(&accounting.capacity_utilization()));
    }

    #[test]
    fn action_outcomes_are_consistent(
        tp in 0u64..1000,
        fp in 0u64..1000,
        tn in 0u64..1000,
        fn_ in 0u64..1000,
        time_s in 0.0f64..10.0,
        hv in 0.0f64..1.0,
    ) {
        let cm = ConfusionMatrix { tp, fp, tn, fn_ };
        let process = ActionOutcome::process(0, &cm, Duration::from_seconds(time_s));
        prop_assert!(process.value_fraction <= process.sent_fraction + 1e-12);
        prop_assert!((0.0..=1.0).contains(&process.sent_fraction));
        prop_assert!((0.0..=1.0).contains(&process.value_fraction));
        prop_assert!((0.0..=1.0).contains(&process.precision()));
        // Process precision equals the confusion matrix's.
        if tp + fp > 0 && cm.total() > 0 {
            prop_assert!((process.precision() - cm.precision()).abs() < 1e-9);
        }

        let downlink = ActionOutcome::downlink(hv);
        prop_assert_eq!(downlink.sent_fraction, 1.0);
        prop_assert!((downlink.precision() - hv).abs() < 1e-12);

        let discard = ActionOutcome::discard();
        prop_assert_eq!(discard.sent_fraction, 0.0);
        prop_assert_eq!(discard.value_fraction, 0.0);
    }

    #[test]
    fn planner_decisions_are_invariant_to_tile_order(
        frames in proptest::collection::vec(
            (
                0.5f64..40.0,                                        // busy seconds
                proptest::collection::vec(
                    (64u64..4096, 0.0f64..1.0),                      // (tile px, clear ratio)
                    1..12,
                ),
            ),
            1..8,
        ),
        rotate in 0usize..16,
        contacts in 1usize..6,
    ) {
        // The planner promises decisions depend only on the *set* of
        // tile estimates, never the order the estimate pass emitted
        // them in — that is what makes planned missions byte-identical
        // at any worker count. Feed it the same day with every frame's
        // tile list rotated and reversed and demand an identical plan.
        let build = |permute: bool| -> Vec<FrameEstimate> {
            frames
                .iter()
                .map(|(busy, tiles)| {
                    let mut tile_estimates: Vec<TileEstimate> = tiles
                        .iter()
                        .enumerate()
                        .map(|(i, (px, clear))| TileEstimate {
                            index: i as u32,
                            px: *px,
                            clear_px: (clear * *px as f64) as u64,
                        })
                        .collect();
                    if permute {
                        tile_estimates.reverse();
                        let k = rotate % tile_estimates.len().max(1);
                        tile_estimates.rotate_left(k);
                    }
                    let observed_px: u64 = tile_estimates.iter().map(|t| t.px).sum();
                    let clear_px: u64 = tile_estimates.iter().map(|t| t.clear_px).sum();
                    FrameEstimate {
                        busy_seconds: *busy,
                        sent_px: clear_px,
                        observed_px,
                        tiles: tile_estimates,
                    }
                })
                .collect()
        };
        let mut config = PlanConfig::default_plan();
        config.contacts = contacts;
        let planner = ExecutionPlanner::new(
            config,
            HwTarget::OrinAgx15W,
            Duration::from_seconds(21.0),
            0.2,
        );
        let canonical = planner.plan_day(&build(false));
        let permuted = planner.plan_day(&build(true));
        prop_assert_eq!(canonical, permuted);
    }

    #[test]
    fn satellites_required_is_monotone_and_tight(
        frame_s in 0.1f64..10_000.0,
        deadline_s in 0.1f64..100.0,
    ) {
        let frame = Duration::from_seconds(frame_s);
        let deadline = Duration::from_seconds(deadline_s);
        let n = satellites_required(frame, deadline);
        prop_assert!(n >= 1);
        // n satellites suffice; n-1 would not (when n > 1).
        prop_assert!(n as f64 * deadline_s + 1e-9 >= frame_s);
        if n > 1 {
            prop_assert!((n - 1) as f64 * deadline_s < frame_s + 1e-9);
        }
        // Monotone in frame time.
        let n2 = satellites_required(frame + deadline, deadline);
        prop_assert!(n2 >= n);
    }
}
