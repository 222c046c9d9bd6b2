//! Per-context actions: process, downlink without processing, or discard.
//!
//! Context-based elision (paper Section 3) skips costly inference for
//! tiles whose context is overwhelmingly high-value (downlink them raw)
//! or overwhelmingly low-value (discard them). The selection logic
//! chooses among these actions and the available models per context; this
//! module defines the action vocabulary and the per-action outcome
//! estimates the optimizer consumes.

use crate::dvd::ratio;
use kodan_cote::time::Duration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What the runtime does with a tile of a given context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Action {
    /// Elide processing and drop the tile entirely.
    Discard,
    /// Elide processing and enqueue the whole tile for downlink.
    Downlink,
    /// Run the model at `model_index` within the selection logic's model
    /// table and downlink the pixels it labels high-value.
    Process {
        /// Index into [`crate::selection::SelectionLogic::models`].
        model_index: usize,
    },
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Discard => f.write_str("discard"),
            Action::Downlink => f.write_str("downlink"),
            Action::Process { model_index } => write!(f, "model#{model_index}"),
        }
    }
}

/// Expected per-tile outcome of taking an action in a context, estimated
/// from validation statistics during the transformation step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActionOutcome {
    /// The action.
    pub action: Action,
    /// Inference time added on top of the per-tile base cost (context
    /// engine + resize). Zero for elision actions.
    pub extra_time: Duration,
    /// Expected fraction of the tile's pixels that get downlinked.
    pub sent_fraction: f64,
    /// Expected fraction of the tile's pixels that get downlinked *and*
    /// are genuinely high-value.
    pub value_fraction: f64,
}

impl ActionOutcome {
    /// Outcome of discarding tiles of a context.
    pub fn discard() -> ActionOutcome {
        ActionOutcome {
            action: Action::Discard,
            extra_time: Duration::ZERO,
            sent_fraction: 0.0,
            value_fraction: 0.0,
        }
    }

    /// Outcome of downlinking tiles of a context raw, where
    /// `high_value_fraction` is the context's expected clear-pixel share.
    ///
    /// # Panics
    ///
    /// Panics if `high_value_fraction` is outside `[0, 1]`.
    pub fn downlink(high_value_fraction: f64) -> ActionOutcome {
        assert!(
            (0.0..=1.0).contains(&high_value_fraction),
            "high-value fraction must be in [0, 1]"
        );
        ActionOutcome {
            action: Action::Downlink,
            extra_time: Duration::ZERO,
            sent_fraction: 1.0,
            value_fraction: high_value_fraction,
        }
    }

    /// Outcome of processing with a model whose validation confusion
    /// matrix on this context is `cm` and whose per-tile inference time is
    /// `time` (positive class = high-value pixel).
    pub fn process(
        model_index: usize,
        cm: &kodan_ml::eval::ConfusionMatrix,
        time: Duration,
    ) -> ActionOutcome {
        let total = cm.total() as f64;
        ActionOutcome {
            action: Action::Process { model_index },
            extra_time: time,
            sent_fraction: ratio((cm.tp + cm.fp) as f64, total),
            value_fraction: ratio(cm.tp as f64, total),
        }
    }

    /// Expected precision of what this action downlinks (value per sent
    /// bit); 0 if nothing is sent.
    pub fn precision(&self) -> f64 {
        ratio(self.value_fraction, self.sent_fraction)
    }
}

impl kodan_wire::Encode for Action {
    fn encode(&self, enc: &mut kodan_wire::Enc) {
        match self {
            Action::Discard => enc.u16(0),
            Action::Downlink => enc.u16(1),
            Action::Process { model_index } => {
                enc.u16(2);
                enc.usize(*model_index);
            }
        }
    }
}

impl kodan_wire::Decode for Action {
    fn decode(dec: &mut kodan_wire::Dec<'_>) -> Result<Self, kodan_wire::WireError> {
        match dec.u16()? {
            0 => Ok(Action::Discard),
            1 => Ok(Action::Downlink),
            2 => Ok(Action::Process {
                model_index: dec.usize()?,
            }),
            tag => Err(kodan_wire::WireError::BadTag {
                what: "Action",
                tag: u32::from(tag),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kodan_ml::eval::ConfusionMatrix;

    #[test]
    fn discard_sends_nothing() {
        let o = ActionOutcome::discard();
        assert_eq!(o.sent_fraction, 0.0);
        assert_eq!(o.value_fraction, 0.0);
        assert_eq!(o.extra_time, Duration::ZERO);
        assert_eq!(o.precision(), 0.0);
    }

    #[test]
    fn downlink_sends_everything_at_context_prevalence() {
        let o = ActionOutcome::downlink(0.9);
        assert_eq!(o.sent_fraction, 1.0);
        assert_eq!(o.value_fraction, 0.9);
        assert_eq!(o.precision(), 0.9);
    }

    #[test]
    fn process_outcome_reflects_confusion_matrix() {
        let cm = ConfusionMatrix {
            tp: 60,
            fp: 10,
            tn: 25,
            fn_: 5,
        };
        let o = ActionOutcome::process(2, &cm, Duration::from_seconds(0.5));
        assert_eq!(o.action, Action::Process { model_index: 2 });
        assert!((o.sent_fraction - 0.7).abs() < 1e-12);
        assert!((o.value_fraction - 0.6).abs() < 1e-12);
        assert!((o.precision() - 6.0 / 7.0).abs() < 1e-12);
        assert_eq!(o.extra_time.as_seconds(), 0.5);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Action::Discard.to_string(), "discard");
        assert_eq!(Action::Downlink.to_string(), "downlink");
        assert_eq!(Action::Process { model_index: 3 }.to_string(), "model#3");
    }

    #[test]
    #[should_panic(expected = "high-value fraction")]
    fn rejects_bad_prevalence() {
        let _ = ActionOutcome::downlink(1.5);
    }
}
