//! The selection logic: Kodan's one-time, per-target optimization.
//!
//! Given the transformation artifacts (contexts, models, per-grid
//! validation statistics) and a deployment target, the selection step
//! sweeps frame tile count and per-context action — discard, downlink, or
//! one of the candidate models — to maximize the estimated data value
//! density of the saturated downlink (paper Section 3.4).
//!
//! The estimator shares the day's processed-fraction rule with the
//! mission and the replay ([`crate::dvd`]): when the chosen configuration
//! misses the frame deadline only a fraction of frames get processed. And
//! when it produces less data than the downlink can carry, the idle
//! capacity counts for nothing. Those two pressures reproduce the paper's
//! regimes — trade precision for time under a computational bottleneck,
//! spend idle time on precision otherwise.

use crate::dvd::processed_fraction;
use crate::elide::{Action, ActionOutcome};
use crate::pipeline::{GridArtifacts, TransformationArtifacts};
use crate::specialize::{ModelScope, SpecializedModel};
use kodan_cote::time::Duration;
use kodan_hw::latency::LatencyModel;
use kodan_hw::targets::HwTarget;
use kodan_ml::zoo::ModelArch;
use kodan_wire::{Dec, Decode, Enc, Encode, WireError};
use serde::{Deserialize, Serialize};

/// Downlink capacity as a fraction of observed data, used when the
/// caller does not supply a mission-specific value. Matches the paper's
/// Landsat analysis (a bent pipe downlinks ~21 % of observations).
pub const DEFAULT_CAPACITY_FRACTION: f64 = 0.21;

/// Minimum high-value fraction for a context to be eligible for
/// downlink elision. The paper elides only for contexts "almost
/// entirely" high-value; gating also keeps the optimizer from
/// cherry-picking one clean context and starving the downlink when the
/// on-orbit context mix shifts from the validation mix.
pub const ELIDE_DOWNLINK_THRESHOLD: f64 = 0.85;

/// Maximum high-value fraction for a context to be eligible for discard
/// elision.
pub const ELIDE_DISCARD_THRESHOLD: f64 = 0.15;

/// Which of Kodan's three techniques the optimizer may use. Restricting
/// the set yields the paper's per-technique ablations: tiling-only
/// (Figure 14) and elision-only (Figure 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TechniqueSet {
    /// Sweep tile count per frame.
    pub tiling: bool,
    /// Allow context-specialized models.
    pub specialization: bool,
    /// Allow per-context downlink/discard elision.
    pub elision: bool,
}

impl TechniqueSet {
    /// All three techniques (full Kodan).
    pub fn all() -> TechniqueSet {
        TechniqueSet {
            tiling: true,
            specialization: true,
            elision: true,
        }
    }

    /// Only frame tiling (Figure 14's ablation).
    pub fn tiling_only() -> TechniqueSet {
        TechniqueSet {
            tiling: true,
            specialization: false,
            elision: false,
        }
    }

    /// Only context-based elision at the direct-deploy tiling
    /// (Figure 15's ablation).
    pub fn elision_only() -> TechniqueSet {
        TechniqueSet {
            tiling: false,
            specialization: false,
            elision: true,
        }
    }

    /// Only context-specialized models at the direct-deploy tiling.
    pub fn specialization_only() -> TechniqueSet {
        TechniqueSet {
            tiling: false,
            specialization: true,
            elision: false,
        }
    }
}

/// The optimizer's prediction of a configuration's behavior.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectionEstimate {
    /// Expected time to process one frame.
    pub frame_time: Duration,
    /// Fraction of frames processed within the deadline (1.0 when the
    /// deadline is met on average).
    pub processed_fraction: f64,
    /// Expected fraction of observed pixels downlinked.
    pub sent_fraction: f64,
    /// Expected fraction of observed pixels downlinked and high-value.
    pub value_fraction: f64,
    /// Estimated data value density of the saturated downlink.
    pub dvd: f64,
}

/// A deployable policy: tile count, per-context actions, and the models
/// those actions reference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectionLogic {
    arch: ModelArch,
    target: HwTarget,
    grid: usize,
    actions: Vec<Action>,
    models: Vec<SpecializedModel>,
    deadline: Duration,
    capacity_fraction: f64,
    estimate: SelectionEstimate,
}

impl SelectionLogic {
    /// Builds the DVD-maximizing selection logic for a target.
    ///
    /// `capacity_fraction` is the downlink capacity divided by the data
    /// volume observed over the same period.
    ///
    /// # Panics
    ///
    /// Panics if the artifacts contain no grids, the deadline is not
    /// positive, or `capacity_fraction` is not in `(0, 1]`.
    pub fn build(
        artifacts: &TransformationArtifacts,
        target: HwTarget,
        deadline: Duration,
        capacity_fraction: f64,
    ) -> SelectionLogic {
        Self::build_restricted(
            artifacts,
            target,
            deadline,
            capacity_fraction,
            TechniqueSet::all(),
        )
    }

    /// Like [`SelectionLogic::build`] but with a restricted technique set
    /// — used for the paper's per-technique ablations (Figures 14-15).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SelectionLogic::build`].
    pub fn build_restricted(
        artifacts: &TransformationArtifacts,
        target: HwTarget,
        deadline: Duration,
        capacity_fraction: f64,
        techniques: TechniqueSet,
    ) -> SelectionLogic {
        assert!(deadline.as_seconds() > 0.0, "deadline must be positive");
        assert!(
            capacity_fraction > 0.0 && capacity_fraction <= 1.0,
            "capacity fraction must be in (0, 1]"
        );
        assert!(!artifacts.grids.is_empty(), "artifacts contain no grids");

        let latency = LatencyModel::new(target);
        let mut best: Option<(&GridArtifacts, Vec<Action>, SelectionEstimate)> = None;

        // Without the tiling technique the application keeps the
        // direct-deploy tiling (the densest grid).
        let densest = artifacts
            .grids
            .iter()
            .map(|g| g.grid)
            .max()
            .expect("artifacts contain grids");

        for ga in &artifacts.grids {
            if !techniques.tiling && ga.grid != densest {
                continue;
            }
            let k = artifacts.contexts.len();

            // Per-context action options, filtered by the technique set:
            // the global model (slot 0), the elision actions, then every
            // specialized slot whose scope covers the context, in slot
            // order. Option order breaks the optimizer's ties.
            let options: Vec<Vec<ActionOutcome>> = (0..k)
                .map(|c| {
                    let mut opts = vec![ActionOutcome::process(
                        0,
                        &ga.global_eval_per_context[c],
                        latency.full_model_tile_time(artifacts.arch),
                    )];
                    if techniques.elision {
                        if ga.context_hv[c] <= ELIDE_DISCARD_THRESHOLD {
                            opts.push(ActionOutcome::discard());
                        }
                        if ga.context_hv[c] >= ELIDE_DOWNLINK_THRESHOLD {
                            opts.push(ActionOutcome::downlink(ga.context_hv[c]));
                        }
                    }
                    if techniques.specialization {
                        let mut merged_eval = ga.merged_eval.iter();
                        for (slot, model) in ga.models.iter().enumerate() {
                            let eval = match model.scope() {
                                ModelScope::Global => None,
                                ModelScope::Context(own) if own.0 == c => {
                                    ga.context_model_eval[c].as_ref()
                                }
                                ModelScope::Context(_) => None,
                                ModelScope::Multi(_) => {
                                    merged_eval.next().and_then(|evals| evals[c].as_ref())
                                }
                            };
                            if let Some(cm) = eval {
                                opts.push(ActionOutcome::process(
                                    slot,
                                    cm,
                                    latency.specialized_tile_time(
                                        artifacts.arch,
                                        model.ops_ratio(),
                                    ),
                                ));
                            }
                        }
                    }
                    opts
                })
                .collect();

            let chosen = optimize_actions(
                &options,
                &ga.context_weights,
                ga.grid * ga.grid,
                &latency,
                deadline,
                capacity_fraction,
            );
            let estimate = estimate_policy(
                &chosen.iter().map(|&(c, o)| (c, options[c][o])).collect::<Vec<_>>(),
                &ga.context_weights,
                ga.grid * ga.grid,
                &latency,
                deadline,
                capacity_fraction,
            );
            let better = match &best {
                None => true,
                Some((_, _, b)) => selection_score(&estimate) > selection_score(b),
            };
            if better {
                let actions = chosen.iter().map(|&(c, o)| options[c][o].action).collect();
                best = Some((ga, actions, estimate));
            }
        }
        let (ga, actions, estimate) = best.expect("at least one grid was evaluated");
        SelectionLogic {
            arch: artifacts.arch,
            target,
            grid: ga.grid,
            actions,
            models: ga.models.clone(),
            deadline,
            capacity_fraction,
            estimate,
        }
    }

    /// The direct-deployment policy the paper compares against: the
    /// accuracy-maximal tiling from prior work (the densest grid, 121
    /// tiles) with the full reference model on every tile and no elision.
    pub fn direct_deploy(
        artifacts: &TransformationArtifacts,
        target: HwTarget,
        deadline: Duration,
        capacity_fraction: f64,
    ) -> SelectionLogic {
        let ga = artifacts
            .grids
            .iter()
            .max_by_key(|g| g.grid)
            .expect("artifacts contain grids");
        Self::fixed_policy(artifacts, ga, target, deadline, capacity_fraction)
    }

    /// The "maximum-precision tiling" baseline of Figure 11: the grid
    /// whose global model scores the highest validation precision, full
    /// model everywhere, no elision.
    pub fn max_precision_tiling(
        artifacts: &TransformationArtifacts,
        target: HwTarget,
        deadline: Duration,
        capacity_fraction: f64,
    ) -> SelectionLogic {
        let ga = best_by(&artifacts.grids, |g| g.global_eval_all.precision())
            .expect("artifacts contain grids");
        Self::fixed_policy(artifacts, ga, target, deadline, capacity_fraction)
    }

    /// The global model on every tile of `ga`, no elision.
    fn fixed_policy(
        artifacts: &TransformationArtifacts,
        ga: &GridArtifacts,
        target: HwTarget,
        deadline: Duration,
        capacity_fraction: f64,
    ) -> SelectionLogic {
        SelectionLogic {
            arch: artifacts.arch,
            target,
            grid: ga.grid,
            actions: vec![Action::Process { model_index: 0 }; artifacts.contexts.len()],
            models: ga.models.iter().take(1).cloned().collect(),
            deadline,
            capacity_fraction,
            estimate: global_model_estimate(
                artifacts,
                ga,
                &LatencyModel::new(target),
                deadline,
                capacity_fraction,
            ),
        }
    }

    /// The selected tile-grid dimension.
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// Tiles per frame under the selected grid.
    pub fn tiles_per_frame(&self) -> usize {
        self.grid * self.grid
    }

    /// The action for a context. An out-of-range context id (possible
    /// only for a hand-built policy; decoded and synthesized policies
    /// are validated) degrades to the bent-pipe `Downlink` action
    /// rather than aborting the pipeline.
    pub fn action_for(&self, context: crate::context::ContextId) -> Action {
        self.actions
            .get(context.0)
            .copied()
            .unwrap_or(Action::Downlink)
    }

    /// All per-context actions, indexed by context id.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// The model table referenced by `Action::Process`.
    pub fn models(&self) -> &[SpecializedModel] {
        &self.models
    }

    /// The architecture being deployed.
    pub fn arch(&self) -> ModelArch {
        self.arch
    }

    /// The deployment target.
    pub fn target(&self) -> HwTarget {
        self.target
    }

    /// The frame deadline the logic was optimized for.
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// The optimizer's estimate of deployed behavior.
    pub fn estimate(&self) -> &SelectionEstimate {
        &self.estimate
    }

    /// Encodes everything except the model table. Models ship as
    /// separate content-addressed artifacts (see [`crate::artifact`]);
    /// the policy references them only by table position, so at load
    /// time the loaded grid's [`GridArtifacts::models`] is passed to
    /// [`SelectionLogic::decode_policy`].
    pub(crate) fn encode_policy(&self, enc: &mut Enc) {
        self.arch.encode(enc);
        enc.u16(self.target.index() as u16);
        enc.usize(self.grid);
        self.actions.encode(enc);
        enc.usize(self.models.len());
        enc.f64(self.deadline.as_seconds());
        enc.f64(self.capacity_fraction);
        self.estimate.encode(enc);
    }

    /// Decodes a policy encoded by [`SelectionLogic::encode_policy`],
    /// re-attaching its grid's loaded model table. Validates everything
    /// the runtime indexes into, so a decoded policy is panic-free to
    /// run: the table length must match the encoded one and every
    /// `Process` action must point inside it.
    pub(crate) fn decode_policy(
        dec: &mut Dec<'_>,
        models: Vec<SpecializedModel>,
    ) -> Result<SelectionLogic, WireError> {
        let arch = ModelArch::decode(dec)?;
        let target_tag = dec.u16()?;
        let target = HwTarget::ALL
            .get(usize::from(target_tag))
            .copied()
            .ok_or(WireError::BadTag {
                what: "HwTarget",
                tag: u32::from(target_tag),
            })?;
        let grid = dec.usize()?;
        let actions = Vec::<Action>::decode(dec)?;
        let model_count = dec.usize()?;
        let deadline = Duration::from_seconds(dec.f64()?);
        let capacity_fraction = dec.f64()?;
        let estimate = SelectionEstimate::decode(dec)?;
        if grid == 0 || actions.is_empty() {
            return Err(WireError::InvalidValue("selection logic without a policy"));
        }
        if model_count != models.len() {
            return Err(WireError::InvalidValue(
                "selection logic model table size mismatch",
            ));
        }
        if actions.iter().any(|a| {
            matches!(a, Action::Process { model_index } if *model_index >= models.len())
        }) {
            return Err(WireError::InvalidValue(
                "selection action references a missing model",
            ));
        }
        if !(deadline.as_seconds().is_finite() && deadline.as_seconds() > 0.0) {
            return Err(WireError::InvalidValue("selection deadline not positive"));
        }
        if !(capacity_fraction.is_finite()
            && capacity_fraction > 0.0
            && capacity_fraction <= 1.0)
        {
            return Err(WireError::InvalidValue(
                "selection capacity fraction out of range",
            ));
        }
        Ok(SelectionLogic {
            arch,
            target,
            grid,
            actions,
            models,
            deadline,
            capacity_fraction,
            estimate,
        })
    }
}

impl Encode for SelectionEstimate {
    fn encode(&self, enc: &mut Enc) {
        enc.f64(self.frame_time.as_seconds());
        enc.f64(self.processed_fraction);
        enc.f64(self.sent_fraction);
        enc.f64(self.value_fraction);
        enc.f64(self.dvd);
    }
}

impl Decode for SelectionEstimate {
    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(SelectionEstimate {
            frame_time: Duration::from_seconds(dec.f64()?),
            processed_fraction: dec.f64()?,
            sent_fraction: dec.f64()?,
            value_fraction: dec.f64()?,
            dvd: dec.f64()?,
        })
    }
}

/// Exhaustively (or greedily, for very large search spaces) picks the
/// per-context option indices maximizing estimated DVD. Returns
/// `(context, option_index)` pairs in context order.
fn optimize_actions(
    options: &[Vec<ActionOutcome>],
    weights: &[f64],
    tiles_per_frame: usize,
    latency: &LatencyModel,
    deadline: Duration,
    capacity_fraction: f64,
) -> Vec<(usize, usize)> {
    let k = options.len();
    let space: f64 = options.iter().map(|o| o.len() as f64).product();
    let score = |choice: &[usize]| -> (bool, i64, f64, f64) {
        let outcomes: Vec<(usize, ActionOutcome)> = choice
            .iter()
            .enumerate()
            .map(|(c, &o)| (c, options[c][o]))
            .collect();
        let est = estimate_policy(
            &outcomes,
            weights,
            tiles_per_frame,
            latency,
            deadline,
            capacity_fraction,
        );
        selection_score(&est)
    };

    let mut best_choice: Vec<usize> = vec![0; k];
    if space <= 600_000.0 {
        // Odometer enumeration.
        let mut choice = vec![0usize; k];
        let mut best_score = score(&choice);
        loop {
            // Advance odometer.
            let mut pos = 0;
            loop {
                if pos == k {
                    return best_choice.into_iter().enumerate().collect();
                }
                choice[pos] += 1;
                if choice[pos] < options[pos].len() {
                    break;
                }
                choice[pos] = 0;
                pos += 1;
            }
            let s = score(&choice);
            if s > best_score {
                best_score = s;
                best_choice.copy_from_slice(&choice);
            }
        }
    } else {
        // Coordinate ascent from the all-global-model start (option 0).
        let mut choice: Vec<usize> = vec![0; k];
        let mut best_score = score(&choice);
        for _ in 0..8 {
            let mut improved = false;
            for c in 0..k {
                let original = choice[c];
                for o in 0..options[c].len() {
                    if o == original {
                        continue;
                    }
                    choice[c] = o;
                    let s = score(&choice);
                    if s > best_score {
                        best_score = s;
                        improved = true;
                    } else {
                        choice[c] = original;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        best_choice = choice;
        best_choice.into_iter().enumerate().collect()
    }
}

/// DVD quantum used when comparing candidate policies. Differences below
/// this are statistical noise of the validation estimates, so the
/// optimizer resolves them toward deadline-meeting, higher-value,
/// cheaper configurations instead (the paper's "meeting the soft
/// deadline" behavior, Section 3.4).
const DVD_COMPARE_QUANTUM: f64 = 0.005;

/// The item with the highest `key`, the later one on a tie; `None` for
/// no items. Non-finite keys rank below every finite one: evaluation
/// statistics are zero-guarded today, but corrupted data (an injected
/// fault upstream, say) can route NaN here, and the ranking degrades
/// instead of panicking. Every grid ranking — the maximum-precision
/// baseline and the tiling sweep's optimal grids — goes through this.
pub(crate) fn best_by<T>(items: &[T], key: impl Fn(&T) -> f64) -> Option<&T> {
    let rank = |item: &T| {
        let k = key(item);
        if k.is_finite() {
            k
        } else {
            f64::NEG_INFINITY
        }
    };
    items.iter().max_by(|a, b| rank(a).total_cmp(&rank(b)))
}

/// Lexicographic policy score: meeting the frame deadline first — the
/// paper's runtime "executes the most precise models that support average
/// frame processing times less than the frame deadline" — then quantized
/// DVD, then total value downlinked, then cheapness.
fn selection_score(est: &SelectionEstimate) -> (bool, i64, f64, f64) {
    (
        est.processed_fraction >= 1.0,
        (est.dvd / DVD_COMPARE_QUANTUM).round() as i64,
        est.value_fraction,
        -est.frame_time.as_seconds(),
    )
}

/// The shared estimator: predicts frame time, processed fraction, sent
/// and value fractions, and DVD for a per-context policy.
pub(crate) fn estimate_policy(
    outcomes: &[(usize, ActionOutcome)],
    weights: &[f64],
    tiles_per_frame: usize,
    latency: &LatencyModel,
    deadline: Duration,
    capacity_fraction: f64,
) -> SelectionEstimate {
    let base_per_tile = latency.context_engine_tile_time() + latency.resize_tile_time();
    let mut extra = Duration::ZERO;
    let mut sent = 0.0;
    let mut value = 0.0;
    for &(c, outcome) in outcomes {
        let w = weights[c];
        extra += outcome.extra_time * w;
        sent += w * outcome.sent_fraction;
        value += w * outcome.value_fraction;
    }
    let frame_time = (base_per_tile + extra) * tiles_per_frame as f64;
    let processed_fraction = processed_fraction(frame_time, deadline);
    let eff_sent = processed_fraction * sent;
    let eff_value = processed_fraction * value;
    let dvd = if eff_sent <= 0.0 {
        0.0
    } else {
        eff_value / eff_sent.max(capacity_fraction)
    };
    SelectionEstimate {
        frame_time,
        processed_fraction,
        sent_fraction: eff_sent,
        value_fraction: eff_value,
        dvd,
    }
}

/// The price of the global model on every tile of `ga`, no elision: the
/// fixed baselines' estimate and each point of the tiling sweep.
pub(crate) fn global_model_estimate(
    artifacts: &TransformationArtifacts,
    ga: &GridArtifacts,
    latency: &LatencyModel,
    deadline: Duration,
    capacity_fraction: f64,
) -> SelectionEstimate {
    let tile_time = latency.full_model_tile_time(artifacts.arch);
    let outcomes: Vec<(usize, ActionOutcome)> = (0..artifacts.contexts.len())
        .map(|c| {
            (
                c,
                ActionOutcome::process(0, &ga.global_eval_per_context[c], tile_time),
            )
        })
        .collect();
    estimate_policy(
        &outcomes,
        &ga.context_weights,
        ga.grid * ga.grid,
        latency,
        deadline,
        capacity_fraction,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use kodan_ml::eval::ConfusionMatrix;

    fn latency() -> LatencyModel {
        LatencyModel::new(HwTarget::OrinAgx15W)
    }

    #[test]
    fn non_finite_precision_ranks_worst() {
        // Regression for the `.expect("precision is finite")` panic: the
        // grid ranking must order NaN/inf below every real precision
        // instead of aborting.
        let id = |p: &f64| *p;
        assert_eq!(
            best_by(&[f64::NAN, 0.2, 0.9, f64::INFINITY, 0.0], id),
            Some(&0.9)
        );
        assert_eq!(best_by(&[0.1, f64::NAN], id), Some(&0.1));
        assert_eq!(best_by(&[f64::NEG_INFINITY, 0.0], id), Some(&0.0));
        // Only non-finite keys: they tie, and the later item wins.
        let all_bad = [f64::NAN, f64::INFINITY];
        assert!(std::ptr::eq(
            best_by(&all_bad, id).expect("non-empty"),
            &all_bad[1]
        ));
        // Finite ties go to the later item too, as `Iterator::max_by` does.
        let tied = [(0.5, 'a'), (0.5, 'b'), (0.2, 'c')];
        assert_eq!(best_by(&tied, |t| t.0), Some(&(0.5, 'b')));
        assert_eq!(best_by(&[] as &[f64], id), None);
    }

    fn process_outcome(prec: f64, recall: f64, prevalence: f64, time_s: f64) -> ActionOutcome {
        // Build a confusion matrix with the requested statistics over
        // 1000 pixels.
        let pos = (1000.0 * prevalence) as u64;
        let tp = (pos as f64 * recall) as u64;
        let fp = ((tp as f64 / prec) - tp as f64).round() as u64;
        let cm = ConfusionMatrix {
            tp,
            fp,
            tn: 1000 - pos - fp,
            fn_: pos - tp,
        };
        ActionOutcome::process(0, &cm, Duration::from_seconds(time_s))
    }

    #[test]
    fn estimator_meets_deadline_at_low_cost() {
        let outcomes = vec![(0usize, ActionOutcome::downlink(0.9))];
        let est = estimate_policy(
            &outcomes,
            &[1.0],
            9,
            &latency(),
            Duration::from_seconds(22.0),
            0.2,
        );
        assert_eq!(est.processed_fraction, 1.0);
        assert!(est.frame_time.as_seconds() < 1.0);
        // Everything sent at 90% value, saturating: DVD = 0.9.
        assert!((est.dvd - 0.9).abs() < 1e-9);
    }

    #[test]
    fn estimator_penalizes_missed_deadline() {
        let slow = process_outcome(0.95, 0.95, 0.5, 2.0);
        let outcomes = vec![(0usize, slow)];
        let est = estimate_policy(
            &outcomes,
            &[1.0],
            121,
            &latency(),
            Duration::from_seconds(22.0),
            0.2,
        );
        assert!(est.processed_fraction < 0.15);
        // Produces less than capacity: idle downlink dilutes DVD.
        assert!(est.sent_fraction < 0.2);
        assert!(est.dvd < 0.5, "dvd = {}", est.dvd);
    }

    #[test]
    fn estimator_thins_when_oversending() {
        // Send everything (bent-pipe-like): DVD equals prevalence.
        let outcomes = vec![(0usize, ActionOutcome::downlink(0.48))];
        let est = estimate_policy(
            &outcomes,
            &[1.0],
            9,
            &latency(),
            Duration::from_seconds(22.0),
            0.2,
        );
        assert!((est.dvd - 0.48).abs() < 1e-9);
    }

    #[test]
    fn optimizer_prefers_elision_for_extreme_contexts() {
        // Context 0: 97% high-value; context 1: 3% high-value; context 2:
        // mixed. A modestly-precise model is available. The optimizer
        // should downlink context 0, discard context 1 under pressure.
        let model_mixed = process_outcome(0.93, 0.9, 0.5, 1.6);
        let options = vec![
            vec![
                ActionOutcome::discard(),
                ActionOutcome::downlink(0.97),
                process_outcome(0.98, 0.9, 0.97, 1.6),
            ],
            vec![
                ActionOutcome::discard(),
                ActionOutcome::downlink(0.03),
                process_outcome(0.6, 0.9, 0.03, 1.6),
            ],
            vec![
                ActionOutcome::discard(),
                ActionOutcome::downlink(0.5),
                model_mixed,
            ],
        ];
        let weights = vec![0.4, 0.3, 0.3];
        let chosen = optimize_actions(
            &options,
            &weights,
            121,
            &latency(),
            Duration::from_seconds(22.0),
            0.2,
        );
        let picks: Vec<usize> = chosen.iter().map(|&(_, o)| o).collect();
        // Context 1 (low value) must not be downlinked raw.
        assert_ne!(picks[1], 1, "low-value context downlinked raw: {picks:?}");
        // Context 0 should be elided (downlink) — processing 121 tiles of
        // a 1.6 s model busts the deadline hard.
        assert_eq!(picks[0], 1, "high-value context not elided: {picks:?}");
    }

    #[test]
    fn optimizer_is_exhaustive_for_small_spaces() {
        // One context, options where the best is the last: make sure the
        // odometer reaches it.
        let options = vec![vec![
            ActionOutcome::discard(),
            ActionOutcome::downlink(0.2),
            ActionOutcome::downlink(0.95),
        ]];
        let chosen = optimize_actions(
            &options,
            &[1.0],
            9,
            &latency(),
            Duration::from_seconds(22.0),
            0.2,
        );
        assert_eq!(chosen[0].1, 2);
    }
}
