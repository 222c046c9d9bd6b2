//! Classifier evaluation: confusion matrices and derived scores.
//!
//! Throughout the reproduction, **positive = high-value (clear) pixel**,
//! matching the paper's framing: precision `TP / (TP + FP)` is then the
//! fraction of downlinked pixels that are genuinely high-value — the
//! quantity that becomes data value density when the downlink is
//! saturated (Section 5.3).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::AddAssign;

/// Binary confusion counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    /// Predicted positive, actually positive.
    pub tp: u64,
    /// Predicted positive, actually negative.
    pub fp: u64,
    /// Predicted negative, actually negative.
    pub tn: u64,
    /// Predicted negative, actually positive.
    pub fn_: u64,
}

impl ConfusionMatrix {
    /// An empty confusion matrix.
    pub fn new() -> ConfusionMatrix {
        ConfusionMatrix::default()
    }

    /// Builds a confusion matrix from parallel prediction/truth slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn from_predictions(predicted: &[bool], truth: &[bool]) -> ConfusionMatrix {
        assert_eq!(predicted.len(), truth.len(), "length mismatch");
        let mut cm = ConfusionMatrix::new();
        for (&p, &t) in predicted.iter().zip(truth) {
            cm.record(p, t);
        }
        cm
    }

    /// Records one prediction.
    pub fn record(&mut self, predicted: bool, truth: bool) {
        match (predicted, truth) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, false) => self.tn += 1,
            (false, true) => self.fn_ += 1,
        }
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Fraction of labels correct. Returns 0 for an empty matrix.
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.tp + self.tn) as f64 / self.total() as f64
    }

    /// `TP / (TP + FP)`: the data value density of what was kept. Returns
    /// 0 when nothing was predicted positive.
    pub fn precision(&self) -> f64 {
        let denom = self.tp + self.fp;
        if denom == 0 {
            return 0.0;
        }
        self.tp as f64 / denom as f64
    }

    /// `TP / (TP + FN)`: the fraction of high-value data retained.
    pub fn recall(&self) -> f64 {
        let denom = self.tp + self.fn_;
        if denom == 0 {
            return 0.0;
        }
        self.tp as f64 / denom as f64
    }
}

/// Accuracy retained by a candidate classifier relative to a reference
/// evaluated on the same data: `candidate.accuracy() /
/// reference.accuracy()`.
///
/// The quantization harness uses this to validate that the fixed-point
/// fast path keeps (at least) 99% of the f64 model's accuracy. Returns
/// `1.0` when the reference accuracy is zero — with nothing to retain,
/// retention is vacuously perfect rather than a division by zero.
pub fn accuracy_retention(reference: &ConfusionMatrix, candidate: &ConfusionMatrix) -> f64 {
    let reference_accuracy = reference.accuracy();
    if reference_accuracy == 0.0 {
        return 1.0;
    }
    candidate.accuracy() / reference_accuracy
}

impl AddAssign for ConfusionMatrix {
    fn add_assign(&mut self, rhs: ConfusionMatrix) {
        self.tp += rhs.tp;
        self.fp += rhs.fp;
        self.tn += rhs.tn;
        self.fn_ += rhs.fn_;
    }
}

impl Sum for ConfusionMatrix {
    fn sum<I: Iterator<Item = ConfusionMatrix>>(iter: I) -> ConfusionMatrix {
        let mut total = ConfusionMatrix::new();
        for cm in iter {
            total += cm;
        }
        total
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tp={} fp={} tn={} fn={} (acc {:.3}, prec {:.3}, rec {:.3})",
            self.tp,
            self.fp,
            self.tn,
            self.fn_,
            self.accuracy(),
            self.precision(),
            self.recall()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let truth = [true, false, true, false];
        let cm = ConfusionMatrix::from_predictions(&truth, &truth);
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.precision(), 1.0);
        assert_eq!(cm.recall(), 1.0);
    }

    #[test]
    fn known_counts() {
        // 3 TP, 1 FP, 2 TN, 2 FN.
        let predicted = [true, true, true, true, false, false, false, false];
        let truth = [true, true, true, false, false, false, true, true];
        let cm = ConfusionMatrix::from_predictions(&predicted, &truth);
        assert_eq!(cm.tp, 3);
        assert_eq!(cm.fp, 1);
        assert_eq!(cm.tn, 2);
        assert_eq!(cm.fn_, 2);
        assert_eq!(cm.accuracy(), 5.0 / 8.0);
        assert_eq!(cm.precision(), 3.0 / 4.0);
        assert_eq!(cm.recall(), 3.0 / 5.0);
    }

    #[test]
    fn empty_matrix_is_safe() {
        let cm = ConfusionMatrix::new();
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.precision(), 0.0);
        assert_eq!(cm.recall(), 0.0);
    }

    #[test]
    fn accumulation_matches_batch() {
        let predicted = [true, false, true, false, true];
        let truth = [true, true, false, false, true];
        let batch = ConfusionMatrix::from_predictions(&predicted, &truth);
        let mut acc = ConfusionMatrix::new();
        acc += ConfusionMatrix::from_predictions(&predicted[..2], &truth[..2]);
        acc += ConfusionMatrix::from_predictions(&predicted[2..], &truth[2..]);
        assert_eq!(acc, batch);
    }

    #[test]
    fn retention_compares_accuracies() {
        let truth = [true, false, true, false];
        let reference = ConfusionMatrix::from_predictions(&truth, &truth);
        let candidate =
            ConfusionMatrix::from_predictions(&[true, false, true, true], &truth);
        assert_eq!(accuracy_retention(&reference, &reference), 1.0);
        assert_eq!(accuracy_retention(&reference, &candidate), 0.75);
        // Zero-accuracy reference: vacuously perfect, never a NaN.
        let hopeless = ConfusionMatrix::from_predictions(&[false; 4], &[true; 4]);
        assert_eq!(accuracy_retention(&hopeless, &candidate), 1.0);
    }

    #[test]
    fn all_negative_predictions_have_zero_precision() {
        let cm = ConfusionMatrix::from_predictions(&[false, false], &[true, false]);
        assert_eq!(cm.precision(), 0.0);
        assert_eq!(cm.recall(), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_slices() {
        let _ = ConfusionMatrix::from_predictions(&[true], &[true, false]);
    }
}
