//! The on-orbit runtime (paper Figure 7, right).
//!
//! For each captured frame the runtime tiles the image at the selected
//! grid, classifies every tile into a context with the context engine,
//! and executes the selection logic's action: discard, downlink raw, or
//! run a specialized model and keep the pixels it labels high-value.
//!
//! Execution *time* is modeled (via `kodan-hw`'s Table 1 calibration —
//! this machine is not a Jetson), but the data path is real: tiles are
//! actually resized, featurized and classified, and the value accounting
//! compares predictions against ground truth pixel by pixel.
//!
//! [`Runtime::process_frame_indexed`] flies every frame; an installed
//! [`DayPlan`] only picks its tile loop: the one above, or shipping the
//! plan's chosen tiles raw. [`Runtime::process_frames`] is the batch entry.
//! The selection logic's model table is the grid's slot table (see
//! [`crate::pipeline::GridArtifacts::models`]); its slot 0, the global
//! model, is the fallback for any slot an armed [`FaultPlan`] corrupts.
//!
//! Every decision narrates itself through the [`Recorder`] passed to
//! `process_frames`. The event/span stream this module emits is
//! an observability *contract*: the flight recorder's black-box windows,
//! the Chrome trace export and the health monitor's counters (all in
//! `kodan-telemetry`) are built from exactly these calls, and the
//! determinism suite pins their byte-identity across worker counts — so
//! reordering, dropping or duplicating an emission here is a visible
//! regression, not a cosmetic change. Per-frame streams are captured on
//! tapes by [`par_map_recorded`] and replayed in frame order, which
//! is what makes any recorder (summary, tape, trace, flight) see the
//! serial event order regardless of `workers`.

use crate::dvd::ratio;
use crate::elide::Action;
use crate::engine::EngineKind;
use crate::par::par_map_recorded;
use crate::plan::{DayPlan, Placement};
use crate::selection::SelectionLogic;
use kodan_cote::time::Duration;
use kodan_faults::{FaultPlan, FrameFaults, SeuUpset};
use kodan_geodata::frame::FrameImage;
use kodan_geodata::par::resolve_workers;
use kodan_geodata::tile::{tile_frame, TileImage};
use kodan_hw::latency::LatencyModel;
use kodan_telemetry::{
    ActionKind, CounterId, FaultKind, HistogramId, PlacementKind, Recorder, RecoveryKind, StageId,
    TelemetryEvent,
};
use serde::{Deserialize, Serialize};

/// The telemetry vocabulary's mirror of [`Action`].
fn action_kind(action: Action) -> ActionKind {
    match action {
        Action::Discard => ActionKind::Discard,
        Action::Downlink => ActionKind::Downlink,
        Action::Process { model_index } => ActionKind::Process {
            model_index: model_index as u32,
        },
    }
}

/// Result of processing one frame.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FrameOutcome {
    /// Modeled compute time spent on the frame.
    pub compute: Duration,
    /// Pixels enqueued for downlink.
    pub sent_px: u64,
    /// Of those, pixels that are genuinely high-value.
    pub value_px: u64,
    /// Total pixels observed in the frame.
    pub observed_px: u64,
    /// Of those, pixels that are genuinely high-value.
    pub observed_value_px: u64,
    /// Tiles elided (downlinked raw or discarded without inference).
    pub tiles_elided: usize,
    /// Tiles processed by a model.
    pub tiles_processed: usize,
}

impl FrameOutcome {
    /// Precision of what this frame contributed to the downlink queue.
    pub fn precision(&self) -> f64 {
        ratio(self.value_px as f64, self.sent_px as f64)
    }

    /// Fraction of tiles resolved without model inference; `0.0` when no
    /// tiles were seen (empty or untiled frame).
    pub fn elision_fraction(&self) -> f64 {
        let total_tiles = self.tiles_elided + self.tiles_processed;
        ratio(self.tiles_elided as f64, total_tiles as f64)
    }

    /// Folds `other` into this aggregate. Callers must absorb outcomes
    /// in frame-index order: the pixel/tile fields are order-independent
    /// `u64`/`usize` sums, but `compute` accumulates `f64` seconds, and
    /// a fixed fold order is what keeps parallel runs bit-identical to
    /// serial.
    pub fn absorb(&mut self, other: &FrameOutcome) {
        self.compute += other.compute;
        self.sent_px += other.sent_px;
        self.value_px += other.value_px;
        self.observed_px += other.observed_px;
        self.observed_value_px += other.observed_value_px;
        self.tiles_elided += other.tiles_elided;
        self.tiles_processed += other.tiles_processed;
    }

    /// Folds per-frame `outcomes` with [`FrameOutcome::absorb`] in the
    /// order given — frame order for [`Runtime::process_frames`]'
    /// output — and returns the aggregate plus the mean modeled compute
    /// time per frame (zero for no frames).
    pub fn total_and_mean(outcomes: &[FrameOutcome]) -> (FrameOutcome, Duration) {
        let mut total = FrameOutcome::default();
        for o in outcomes {
            total.absorb(o);
        }
        let mean = if outcomes.is_empty() {
            Duration::ZERO
        } else {
            total.compute / outcomes.len() as f64
        };
        (total, mean)
    }
}

/// A fault plan armed against a runtime, plus the known-good checksum of
/// every model-table slot, captured at arm time, that the degradation
/// policy detects corruption against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultInjection {
    plan: FaultPlan,
    reference: Vec<u64>,
}

/// The deployed Kodan runtime for one (application, target) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Runtime {
    logic: SelectionLogic,
    engine: EngineKind,
    latency: LatencyModel,
    workers: usize,
    faults: Option<FaultInjection>,
    /// Model-table slots whose artifact was corrupted on load and
    /// replaced by the global fallback (see [`crate::artifact`]). The
    /// substitution already happened in the table; this list only drives
    /// the per-frame fallback telemetry.
    quarantined: Vec<usize>,
    /// Per-frame placement decisions from the execution planner; `None`
    /// (the default) leaves every frame on the ordinary on-orbit path,
    /// byte-identical to a runtime that predates the planner.
    plan: Option<DayPlan>,
}

impl Runtime {
    /// Assembles a runtime from a selection logic and the context engine
    /// it was built against (learned or expert map-based). Frame batches
    /// are processed with the auto-detected worker count; use
    /// [`Runtime::with_workers`] to pin it.
    pub fn new(logic: SelectionLogic, engine: impl Into<EngineKind>) -> Runtime {
        let latency = LatencyModel::new(logic.target());
        Runtime {
            logic,
            engine: engine.into(),
            latency,
            workers: resolve_workers(0),
            faults: None,
            quarantined: Vec::new(),
            plan: None,
        }
    }

    /// Installs a [`DayPlan`] from [`crate::plan::ExecutionPlanner`]:
    /// frames the plan routes to `DownlinkRaw` or `Defer` skip inference
    /// and ship their chosen tiles raw; `OnOrbit` frames run the normal
    /// path with the plan's thermal/energy throttle multiplying modeled
    /// stage costs (a factor of `1.0` is bit-exact, so an all-clear plan
    /// changes nothing).
    pub fn with_plan(mut self, plan: DayPlan) -> Runtime {
        self.plan = Some(plan);
        self
    }

    /// The installed placement plan, if any.
    pub fn plan(&self) -> Option<&DayPlan> {
        self.plan.as_ref()
    }

    /// Marks model-table slots that the artifact loader already replaced
    /// with the global fallback after load-time corruption (see
    /// [`crate::artifact::LoadedArtifacts::quarantined_slots`]). Each
    /// frame reports one `ModelFallbacks` count and one
    /// `FaultRecovered(ModelFallback)` event per quarantined slot —
    /// exactly what a runtime-detected SEU corruption of that slot would
    /// report. An empty list (the clean-load path) changes nothing.
    pub fn with_quarantined_models(mut self, mut slots: Vec<usize>) -> Runtime {
        slots.sort_unstable();
        slots.dedup();
        slots.retain(|&s| s < self.logic.models().len());
        self.quarantined = slots;
        self
    }

    /// Arms a fault plan against this runtime. When an injected upset
    /// corrupts a model, the degradation policy swaps in the table's own
    /// slot 0 — the global model, the one model that covers every
    /// context. Known-good weight checksums of every slot are captured
    /// now, so corruption is detected by comparison rather than trust.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Runtime {
        let reference = self
            .logic
            .models()
            .iter()
            .map(|m| m.weight_checksum())
            .collect();
        self.faults = Some(FaultInjection { plan, reference });
        self
    }

    /// Pins the worker count used by [`Runtime::process_frames`]; `0`
    /// means auto-detect. Worker count only changes wall-clock time —
    /// outcomes and telemetry are bit-identical for any value.
    pub fn with_workers(mut self, workers: usize) -> Runtime {
        self.workers = resolve_workers(workers);
        self
    }

    /// The selection logic in force.
    pub fn logic(&self) -> &SelectionLogic {
        &self.logic
    }

    /// Processes one frame — tile, classify context, act — at
    /// `frame_index` in the mission's capture order. Every decision
    /// point (tiling, per-tile classification, the elision/process
    /// action, model invocation, and the frame's pixel accounting) is
    /// reported to `recorder`; with a `NullRecorder` this is the plain
    /// hot path.
    ///
    /// The index is the identity an installed [`DayPlan`] and an armed
    /// [`FaultPlan`] key their per-frame decisions on, so the same
    /// `(plan seed, frame index)` pair yields the same faults at any
    /// worker count. Without either plan the index is inert.
    ///
    /// The prologue (tiling, the fault draw, capture and placement
    /// telemetry) and epilogue (pixel accounting, spans, histograms) run
    /// once per frame; the placement picks the tile loop between them.
    /// `DownlinkRaw` and `Defer` frames run no model and ship the plan's
    /// chosen tiles raw. Every other frame takes the on-orbit loop, where
    /// the degradation policy handles each injected fault without
    /// panicking:
    ///
    /// - a throttling episode multiplies every modeled stage cost of the
    ///   frame (the data path is unaffected — throttled silicon is slow,
    ///   not wrong);
    /// - an upset is applied to a cloned victim model and detected by
    ///   comparing weight checksums against the values captured at arm
    ///   time; a corrupted model is replaced by the table's global model
    ///   (slot 0) for the rest of the frame;
    /// - transient classify failures are absorbed by bounded
    ///   retry-with-backoff in modeled time; a tile that exhausts its
    ///   retry budget degrades to a raw downlink (the bent-pipe action)
    ///   instead of being lost.
    ///
    /// # Panics
    ///
    /// Panics if the frame dimension is not divisible by the selected
    /// grid.
    pub fn process_frame_indexed(
        &self,
        frame: &FrameImage,
        frame_index: u64,
        recorder: &mut dyn Recorder,
    ) -> FrameOutcome {
        let placement = self.plan.as_ref().and_then(|p| p.placement(frame_index));
        let tiles = tile_frame(frame, self.logic.grid());
        let injection = self.faults.as_ref().filter(|f| f.plan.is_active());
        let frame_faults = match injection {
            Some(f) => f.plan.frame_faults(frame_index),
            None => FrameFaults::none(),
        };
        // The planner's thermal/energy throttle composes with injected
        // slowdowns the same way: a multiplied stage cost. Multiplying by
        // the 1.0 no-fault, no-throttle factor is bit-exact, so the
        // disarmed, unplanned path stays byte-identical to the pre-fault,
        // pre-planner runtime, and a raw frame (throttle 1.0) is stretched
        // by the injected slowdown alone.
        let plan_throttle = match placement {
            Some(Placement::OnOrbit { throttle }) => throttle.max(1.0),
            _ => 1.0,
        };
        let slow = frame_faults.slowdown * plan_throttle;

        recorder.event(TelemetryEvent::FrameCaptured {
            pixels: frame.pixel_count() as u64,
        });
        recorder.count(CounterId::FramesProcessed, 1);
        recorder.count(CounterId::TilesObserved, tiles.len() as u64);

        // Fault telemetry keys on the injected factor alone: a planner
        // throttle is a deliberate placement decision, not a fault.
        if frame_faults.slowdown > 1.0 {
            recorder.count(CounterId::FaultSlowdownFrames, 1);
            recorder.event(TelemetryEvent::FaultInjected {
                kind: FaultKind::Slowdown,
            });
        }

        let outcome = match announce_placement(placement, recorder) {
            Some(chosen) => self.ship_planned_raw_tiles(&tiles, chosen, slow, recorder),
            None => self.run_tiles_on_orbit(
                &tiles,
                frame_index,
                injection,
                frame_faults.seu,
                slow,
                recorder,
            ),
        };

        recorder.event(TelemetryEvent::PixelsAccounted {
            sent_px: outcome.sent_px,
            value_px: outcome.value_px,
            observed_px: outcome.observed_px,
        });
        recorder.count(CounterId::PixelsSent, outcome.sent_px);
        recorder.count(CounterId::PixelsValue, outcome.value_px);
        recorder.span(StageId::Accounting, 0.0, outcome.observed_px);
        recorder.span(StageId::Frame, outcome.compute.as_seconds(), 1);
        recorder.observe(HistogramId::FrameComputeSeconds, outcome.compute.as_seconds());
        recorder.observe(HistogramId::FramePrecision, outcome.precision());
        if outcome.tiles_elided + outcome.tiles_processed > 0 {
            recorder.observe(HistogramId::FrameElisionFraction, outcome.elision_fraction());
        }
        outcome
    }

    /// The on-orbit tile loop: classify each tile's context, then discard
    /// it, downlink it, or run its specialized model, every modeled stage
    /// cost multiplied by `slow`. An injected `seu` and classify
    /// transients are handled by the degradation policy described on
    /// [`Runtime::process_frame_indexed`].
    fn run_tiles_on_orbit(
        &self,
        tiles: &[TileImage],
        frame_index: u64,
        injection: Option<&FaultInjection>,
        seu: Option<SeuUpset>,
        slow: f64,
        recorder: &mut dyn Recorder,
    ) -> FrameOutcome {
        let engine_time = self.latency.context_engine_tile_time() * slow;
        let resize_time = self.latency.resize_tile_time() * slow;
        let base_per_tile = engine_time + resize_time;

        // Apply any upset to a cloned victim and checksum-validate it
        // once up front; a detected mismatch retires that model slot to
        // the global model in slot 0 for the whole frame.
        let mut fallback_slot: Option<usize> = None;
        if let (Some(f), Some(upset)) = (injection, seu) {
            let models = self.logic.models();
            let slot = upset
                .weight_index
                .checked_rem(models.len() as u64)
                .unwrap_or(0) as usize;
            // An empty model table yields no slot and no injection.
            if let Some(original) = models.get(slot) {
                recorder.count(CounterId::FaultSeuInjected, 1);
                recorder.event(TelemetryEvent::FaultInjected {
                    kind: FaultKind::Seu,
                });
                let mut victim = original.clone();
                victim.corrupt_weight_bit(upset.weight_index, upset.bit);
                if f.reference.get(slot) != Some(&victim.weight_checksum()) {
                    fallback_slot = Some(slot);
                    recorder.count(CounterId::ModelFallbacks, 1);
                    recorder.event(TelemetryEvent::FaultRecovered {
                        kind: RecoveryKind::ModelFallback,
                    });
                }
            }
        }
        // Load-time quarantined slots are already served by substituted
        // fallback models; account for them here the way the SEU path
        // above accounts for a runtime-detected corruption.
        for _ in &self.quarantined {
            recorder.count(CounterId::ModelFallbacks, 1);
            recorder.event(TelemetryEvent::FaultRecovered {
                kind: RecoveryKind::ModelFallback,
            });
        }

        let retry_budget = injection.map_or(0, |f| f.plan.config().classify_retries);
        let backoff_base_s = injection.map_or(0.0, |f| f.plan.config().retry_backoff_s);

        let mut outcome = FrameOutcome::default();
        for (i, tile) in tiles.iter().enumerate() {
            let tile_index = i as u32;
            let (px, clear_px) = tile_pixel_tally(tile);
            outcome.observed_px += px;
            outcome.observed_value_px += clear_px;
            outcome.compute += base_per_tile;
            recorder.span(StageId::Preprocess, resize_time.as_seconds(), 1);

            // Bounded retry-with-backoff for injected transient classify
            // failures: each retry costs exponentially growing modeled
            // time, charged to the Classification stage.
            let failures = match injection {
                Some(f) => f.plan.classify_failures(frame_index, i as u64),
                None => 0,
            };
            let retries = failures.min(retry_budget);
            let mut classify_seconds = engine_time.as_seconds();
            if failures > 0 {
                recorder.count(CounterId::FaultClassifyRetries, u64::from(retries));
                recorder.event(TelemetryEvent::FaultInjected {
                    kind: FaultKind::ClassifyTransient,
                });
                let backoff = backoff_base_s * (2f64.powi(retries as i32) - 1.0) * slow;
                outcome.compute += Duration::from_seconds(backoff);
                classify_seconds += backoff;
            }
            recorder.span(StageId::Classification, classify_seconds, 1);

            if failures > retry_budget {
                // Retry budget exhausted: rather than lose the tile, fall
                // back to the bent-pipe action and downlink it raw.
                recorder.count(CounterId::FaultClassifyExhausted, 1);
                recorder.event(TelemetryEvent::FaultRecovered {
                    kind: RecoveryKind::ClassifyGaveUp,
                });
                recorder.event(TelemetryEvent::ActionTaken {
                    tile: tile_index,
                    action: ActionKind::Downlink,
                });
                settle_unmodeled_tile(&mut outcome, recorder, px, clear_px, true, false);
                continue;
            }
            if retries > 0 {
                recorder.event(TelemetryEvent::FaultRecovered {
                    kind: RecoveryKind::ClassifyRetry,
                });
            }

            let context = self.engine.classify_recorded(tile, tile_index, recorder);
            let action = self.logic.action_for(context);
            recorder.event(TelemetryEvent::ActionTaken {
                tile: tile_index,
                action: action_kind(action),
            });
            let model_index = match action {
                Action::Discard => {
                    settle_unmodeled_tile(&mut outcome, recorder, px, clear_px, false, false);
                    continue;
                }
                Action::Downlink => {
                    settle_unmodeled_tile(&mut outcome, recorder, px, clear_px, true, false);
                    continue;
                }
                Action::Process { model_index } => model_index,
            };
            // A slot the upset corrupted is served by the global model in
            // slot 0 for the rest of the frame.
            let served = if fallback_slot == Some(model_index) {
                0
            } else {
                model_index
            };
            let Some(model) = self.logic.models().get(served) else {
                // A policy referencing a missing model slot must not abort
                // the frame: fall back to the bent-pipe action, like the
                // classify-exhausted path above.
                settle_unmodeled_tile(&mut outcome, recorder, px, clear_px, true, false);
                continue;
            };
            outcome.tiles_processed += 1;
            // `effective_ops_ratio` prices a quantized slot at the
            // integer-op discount; for f64-only models it is exactly
            // `ops_ratio`, so clean paths are unchanged.
            let inference = self
                .latency
                .specialized_tile_time(self.logic.arch(), model.effective_ops_ratio())
                * slow;
            outcome.compute += inference;
            recorder.count(CounterId::TilesProcessed, 1);
            recorder.count(CounterId::ModelInvocations, 1);
            recorder.span(StageId::ModelExecution, inference.as_seconds(), 1);
            recorder.observe(HistogramId::ModelLatencySeconds, inference.as_seconds());
            recorder.event(TelemetryEvent::ModelInvoked {
                tile: tile_index,
                model_index: model_index as u32,
                modeled_seconds: inference.as_seconds(),
            });
            let pred = model.predict_tile(tile);
            for (p, &cloudy) in pred.iter().zip(tile.truth_cloudy()) {
                if *p {
                    outcome.sent_px += 1;
                    if !cloudy {
                        outcome.value_px += 1;
                    }
                }
            }
        }
        outcome
    }

    /// The plan's raw tile loop: the installed [`DayPlan`] routed this
    /// frame to ground inference (immediately or deferred to a later
    /// contact), so no model runs on board. The context engine still
    /// scans every tile — that is the energy the planner budgeted for
    /// the frame, charged as `Classification` time with no resize — then
    /// the plan's `chosen` tiles ship raw and the rest are dropped on
    /// board. Raw frames draw no upset and no classify transient.
    /// `chosen` is strictly increasing (as every raw placement's tiles
    /// are), so membership is a binary search and nothing here indexes
    /// or panics.
    fn ship_planned_raw_tiles(
        &self,
        tiles: &[TileImage],
        chosen: &[u32],
        slow: f64,
        recorder: &mut dyn Recorder,
    ) -> FrameOutcome {
        let engine_time = self.latency.context_engine_tile_time() * slow;
        let mut outcome = FrameOutcome::default();
        for (i, tile) in tiles.iter().enumerate() {
            let tile_index = i as u32;
            let (px, clear_px) = tile_pixel_tally(tile);
            outcome.observed_px += px;
            outcome.observed_value_px += clear_px;
            outcome.compute += engine_time;
            recorder.span(StageId::Classification, engine_time.as_seconds(), 1);
            let ship = chosen.binary_search(&tile_index).is_ok();
            recorder.event(TelemetryEvent::ActionTaken {
                tile: tile_index,
                action: if ship {
                    ActionKind::Downlink
                } else {
                    ActionKind::Discard
                },
            });
            settle_unmodeled_tile(&mut outcome, recorder, px, clear_px, ship, true);
        }
        outcome
    }

    /// Processes `frames` (frame `i` at index `i`, see
    /// [`Runtime::process_frame_indexed`]) across the workers set by
    /// [`Runtime::with_workers`] and returns the outcomes in frame
    /// order. Per-worker telemetry tapes are replayed in the same order,
    /// so outcomes and `recorder` are bit-identical to a serial run; fold
    /// the outcomes with [`FrameOutcome::total_and_mean`].
    pub fn process_frames(
        &self,
        frames: &[FrameImage],
        recorder: &mut dyn Recorder,
    ) -> Vec<FrameOutcome> {
        par_map_recorded(self.workers, frames, recorder, |i, frame, rec| {
            self.process_frame_indexed(frame, i as u64, rec)
        })
    }
}

/// Reports a frame's placement to `recorder` and returns the tiles a
/// `DownlinkRaw` or `Defer` placement ships raw. `None` — an `OnOrbit`
/// placement or no plan at all — keeps the frame on the on-orbit loop.
fn announce_placement<'p>(
    placement: Option<&'p Placement>,
    recorder: &mut dyn Recorder,
) -> Option<&'p [u32]> {
    let (kind, chosen) = match placement? {
        Placement::OnOrbit { throttle } => {
            recorder.count(CounterId::FramesPlannedOnOrbit, 1);
            if *throttle > 1.0 {
                recorder.count(CounterId::PlannerThermalThrottledFrames, 1);
            }
            (PlacementKind::OnOrbit, None)
        }
        Placement::DownlinkRaw { tiles } => {
            recorder.count(CounterId::FramesPlannedDownlinkRaw, 1);
            (PlacementKind::DownlinkRaw, Some(tiles.as_slice()))
        }
        Placement::Defer { tiles } => {
            recorder.count(CounterId::FramesPlannedDeferred, 1);
            (PlacementKind::Deferred, Some(tiles.as_slice()))
        }
    };
    recorder.event(TelemetryEvent::FramePlanned {
        placement: kind,
        raw_tiles: chosen.map_or(0, |tiles| tiles.len() as u32),
    });
    chosen
}

/// A tile's pixel count and its clear (high-value) pixels: what a tile
/// adds to a frame's observation, and what it ships when sent raw.
pub(crate) fn tile_pixel_tally(tile: &TileImage) -> (u64, u64) {
    let px = (tile.size() * tile.size()) as u64;
    let clear_px = ((1.0 - tile.cloud_fraction()) * px as f64).round() as u64;
    (px, clear_px)
}

/// Settles a tile that runs no model: it counts as elided, and `ship`
/// downlinks its `px` pixels (`clear_px` of them high-value) raw, else
/// it is dropped on board. `planned` marks a tile the execution planner
/// placed, which also feeds the planner's raw-tile counters. The caller
/// reports the tile's `ActionTaken` event first.
fn settle_unmodeled_tile(
    outcome: &mut FrameOutcome,
    recorder: &mut dyn Recorder,
    px: u64,
    clear_px: u64,
    ship: bool,
    planned: bool,
) {
    outcome.tiles_elided += 1;
    if ship {
        outcome.sent_px += px;
        outcome.value_px += clear_px;
        recorder.count(CounterId::TilesDownlinked, 1);
        if planned {
            recorder.count(CounterId::TilesRawDownlinked, 1);
        }
    } else {
        recorder.count(CounterId::TilesDiscarded, 1);
        if planned {
            recorder.count(CounterId::TilesRawDropped, 1);
        }
    }
    recorder.span(StageId::Elision, 0.0, 1);
}

/// The bent-pipe "runtime": downlink everything, compute nothing.
pub fn bent_pipe_frame(frame: &FrameImage) -> FrameOutcome {
    let px = frame.pixel_count() as u64;
    let value = ((1.0 - frame.cloud_fraction()) * px as f64).round() as u64;
    FrameOutcome {
        compute: Duration::ZERO,
        sent_px: px,
        value_px: value,
        observed_px: px,
        observed_value_px: value,
        tiles_elided: 0,
        tiles_processed: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KodanConfig;
    use crate::pipeline::Transformation;
    use kodan_geodata::{Dataset, DatasetConfig, World};
    use kodan_hw::targets::HwTarget;
    use kodan_ml::zoo::ModelArch;
    use kodan_telemetry::NullRecorder;

    #[test]
    fn precision_guards_zero_denominator() {
        // A frame that sent nothing must report 0.0 precision, not NaN:
        // mission aggregation and telemetry histograms consume this value.
        let outcome = FrameOutcome::default();
        assert_eq!(outcome.sent_px, 0);
        assert_eq!(outcome.precision(), 0.0);
        assert!(outcome.precision().is_finite());
        let sent = FrameOutcome {
            sent_px: 100,
            value_px: 25,
            ..FrameOutcome::default()
        };
        assert!((sent.precision() - 0.25).abs() < 1e-12);
    }

    fn runtime_and_frames() -> (Runtime, Vec<FrameImage>) {
        let world = World::new(42);
        let mut ds_cfg = DatasetConfig::small(1);
        ds_cfg.frame_count = 12;
        ds_cfg.frame_px = 132;
        let dataset = Dataset::sample(&world, &ds_cfg);
        let artifacts = Transformation::new(KodanConfig::fast(3))
            .run(&dataset, ModelArch::MobileNetV2DilatedC1)
            .expect("transformation succeeds");
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            Duration::from_seconds(22.0),
            0.21,
        );
        let runtime = Runtime::new(logic, artifacts.engine.clone());
        let frames: Vec<FrameImage> = (0..4)
            .map(|i| world.render_frame(-30.0 + 20.0 * i as f64, 15.0 * i as f64, 0.5, 132, 150.0))
            .collect();
        (runtime, frames)
    }

    #[test]
    fn frame_outcome_accounting_is_conservative() {
        let (runtime, frames) = runtime_and_frames();
        for frame in &frames {
            let o = runtime.process_frame_indexed(frame, 0, &mut NullRecorder);
            assert!(o.sent_px <= o.observed_px);
            assert!(o.value_px <= o.sent_px);
            assert!(o.observed_value_px <= o.observed_px);
            assert_eq!(o.observed_px as usize, frame.pixel_count());
            assert_eq!(
                o.tiles_elided + o.tiles_processed,
                runtime.logic().tiles_per_frame()
            );
            assert!(o.compute.as_seconds() > 0.0);
        }
    }

    #[test]
    fn runtime_filters_better_than_bent_pipe() {
        let (runtime, frames) = runtime_and_frames();
        let outcomes = runtime.process_frames(&frames, &mut NullRecorder);
        let (total, _) = FrameOutcome::total_and_mean(&outcomes);
        let bent: u64 = frames.iter().map(|f| bent_pipe_frame(f).value_px).sum();
        let bent_sent: u64 = frames.iter().map(|f| bent_pipe_frame(f).sent_px).sum();
        let bent_precision = bent as f64 / bent_sent as f64;
        assert!(
            total.precision() > bent_precision,
            "kodan precision {} vs bent pipe {}",
            total.precision(),
            bent_precision
        );
    }

    #[test]
    fn mean_compute_is_average_of_frames() {
        let (runtime, frames) = runtime_and_frames();
        let outcomes = runtime.process_frames(&frames, &mut NullRecorder);
        let (total, mean) = FrameOutcome::total_and_mean(&outcomes);
        assert!(
            (mean.as_seconds() * frames.len() as f64 - total.compute.as_seconds()).abs() < 1e-9
        );
    }

    #[test]
    fn bent_pipe_sends_everything() {
        let world = World::new(7);
        let frame = world.render_frame(10.0, 10.0, 0.0, 66, 150.0);
        let o = bent_pipe_frame(&frame);
        assert_eq!(o.sent_px, frame.pixel_count() as u64);
        assert_eq!(o.compute, Duration::ZERO);
        let hv = 1.0 - frame.cloud_fraction();
        assert!((o.precision() - hv).abs() < 0.01);
    }

    #[test]
    fn recorded_path_matches_plain_path() {
        let (runtime, frames) = runtime_and_frames();
        let mut recorder = kodan_telemetry::SummaryRecorder::new();
        for frame in &frames {
            let plain = runtime.process_frame_indexed(frame, 0, &mut NullRecorder);
            let recorded = runtime.process_frame_indexed(frame, 0, &mut recorder);
            assert_eq!(plain, recorded);
        }
        let snap = recorder.snapshot();
        assert_eq!(snap.frames, frames.len() as u64);
        assert_eq!(snap.counter(CounterId::FramesProcessed), frames.len() as u64);
    }

    #[test]
    fn telemetry_agrees_with_outcome_accounting() {
        let (runtime, frames) = runtime_and_frames();
        let mut recorder = kodan_telemetry::SummaryRecorder::new();
        let outcomes = runtime.process_frames(&frames, &mut recorder);
        let (total, _) = FrameOutcome::total_and_mean(&outcomes);
        let snap = recorder.snapshot();
        assert_eq!(snap.counter(CounterId::PixelsSent), total.sent_px);
        assert_eq!(snap.counter(CounterId::PixelsValue), total.value_px);
        assert_eq!(
            snap.counter(CounterId::TilesProcessed) as usize,
            total.tiles_processed
        );
        assert_eq!(
            (snap.counter(CounterId::TilesDiscarded) + snap.counter(CounterId::TilesDownlinked))
                as usize,
            total.tiles_elided
        );
        assert_eq!(
            snap.counter(CounterId::ModelInvocations),
            snap.counter(CounterId::TilesProcessed)
        );
        // The per-context classification table covers every tile.
        let classified: u64 = snap.context_tiles.values().sum();
        assert_eq!(classified, snap.counter(CounterId::TilesObserved));
        // Span hierarchy: the frame total is the sum of its modeled
        // children (preprocess + classification + model execution).
        let children = snap.span(StageId::Preprocess).modeled_seconds
            + snap.span(StageId::Classification).modeled_seconds
            + snap.span(StageId::ModelExecution).modeled_seconds;
        let frame_total = snap.span(StageId::Frame).modeled_seconds;
        assert!(
            (children - frame_total).abs() < 1e-9,
            "children {children} vs frame {frame_total}"
        );
        assert!((frame_total - total.compute.as_seconds()).abs() < 1e-9);
    }

    #[test]
    fn processing_empty_iterator_is_safe() {
        let (runtime, _) = runtime_and_frames();
        let outcomes = runtime.process_frames(&[], &mut NullRecorder);
        assert!(outcomes.is_empty());
        let (total, mean) = FrameOutcome::total_and_mean(&outcomes);
        assert_eq!(total.sent_px, 0);
        assert_eq!(mean, Duration::ZERO);
    }

    #[test]
    fn ratio_helpers_guard_zero_denominators() {
        let empty = FrameOutcome::default();
        assert_eq!(empty.elision_fraction(), 0.0);
        assert!(empty.elision_fraction().is_finite());
        let busy = FrameOutcome {
            sent_px: 40,
            value_px: 30,
            observed_value_px: 60,
            tiles_elided: 3,
            tiles_processed: 1,
            ..FrameOutcome::default()
        };
        assert!((busy.elision_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn absorb_matches_field_by_field_addition() {
        let a = FrameOutcome {
            compute: Duration::from_seconds(0.125),
            sent_px: 10,
            value_px: 9,
            observed_px: 100,
            observed_value_px: 50,
            tiles_elided: 2,
            tiles_processed: 3,
        };
        let b = FrameOutcome {
            compute: Duration::from_seconds(0.25),
            sent_px: 1,
            value_px: 1,
            observed_px: 30,
            observed_value_px: 7,
            tiles_elided: 1,
            tiles_processed: 0,
        };
        let mut total = a;
        total.absorb(&b);
        assert_eq!(total.sent_px, 11);
        assert_eq!(total.value_px, 10);
        assert_eq!(total.observed_px, 130);
        assert_eq!(total.observed_value_px, 57);
        assert_eq!(total.tiles_elided, 3);
        assert_eq!(total.tiles_processed, 3);
        assert!((total.compute.as_seconds() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn parallel_frame_processing_matches_serial_exactly() {
        let (runtime, frames) = runtime_and_frames();
        let serial = runtime.clone().with_workers(1);
        let base_outcomes = serial.process_frames(&frames, &mut NullRecorder);
        let (base_total, base_mean) = FrameOutcome::total_and_mean(&base_outcomes);
        for workers in [2, 3, 4] {
            let parallel = runtime.clone().with_workers(workers);
            assert_eq!(parallel.workers, workers);
            let outcomes = parallel.process_frames(&frames, &mut NullRecorder);
            let (total, mean) = FrameOutcome::total_and_mean(&outcomes);
            // Bitwise equality, not epsilon: the index-ordered fold must
            // reproduce the serial f64 accumulation exactly.
            assert_eq!(base_total, total, "workers={workers}");
            assert_eq!(base_mean, mean, "workers={workers}");
            assert_eq!(base_outcomes, outcomes, "workers={workers}");
        }
    }

    #[test]
    fn parallel_telemetry_is_byte_identical_to_serial() {
        let (runtime, frames) = runtime_and_frames();
        let snapshot_json = |workers: usize| {
            let rt = runtime.clone().with_workers(workers);
            let mut recorder = kodan_telemetry::SummaryRecorder::new();
            let _ = rt.process_frames(&frames, &mut recorder);
            recorder.snapshot().to_json()
        };
        let serial = snapshot_json(1);
        for workers in [2, 4] {
            assert_eq!(serial, snapshot_json(workers), "workers={workers}");
        }
    }
}
