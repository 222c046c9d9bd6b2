//! Per-frame layer replays shared by every workload's traced run.
//!
//! [`replay_runtime`] re-measures a runtime surface layer by layer. It
//! times the whole runtime (`core.runtime`) over the surface's frames.
//! It then walks the same frames, tiles and models once more, timing
//! each call separately in the order the runtime makes them: tiling, the
//! context engine and tile prediction, and within prediction feature
//! extraction, inference and mask resizing. Tile by tile keeps one
//! tile's features in cache, as in the runtime, rather than holding
//! every tile's at once.

use crate::trace::{Kind, SpanId, Tracer};
use kodan::elide::Action;
use kodan::engine::ContextEngine;
use kodan::plan::Placement;
use kodan::runtime::{FrameOutcome, Runtime};
use kodan::specialize::{tile_features, ModelScope, SpecializedModel};
use kodan_geodata::features::FEATURE_DIM;
use kodan_geodata::frame::FrameImage;
use kodan_geodata::resize::resize_mask;
use kodan_geodata::tile::tile_frame;
use kodan_ml::{Mlp, ModelArch};
use kodan_telemetry::{NullRecorder, Recorder, SummaryRecorder};
use kodan_wire::{Dec, Decode, Enc, Encode};
use std::time::Instant;

/// The f64 classifier inside a specialized model. It is not exposed
/// directly, so it is read back out of the model's public wire encoding
/// (architecture, scope, classifier, ...). A layout change makes the
/// decode fail or the replayed masks disagree, and the traced run
/// reports it.
fn f64_classifier(model: &SpecializedModel) -> Result<Mlp, String> {
    let mut enc = Enc::new();
    model.encode(&mut enc);
    let bytes = enc.into_bytes();
    let mut dec = Dec::new(&bytes);
    ModelArch::decode(&mut dec)
        .and_then(|_| ModelScope::decode(&mut dec))
        .and_then(|_| Mlp::decode(&mut dec))
        .map_err(|e| format!("cannot read the f64 classifier back: {e}"))
}

/// The inference step of `SpecializedModel::predict_tile`: the quantized
/// mask kernel when attached, else the f64 batch thresholded at 0.5.
fn infer(model: &SpecializedModel, classifier: Option<&Mlp>, features: &[f64]) -> Vec<bool> {
    let mut mask = Vec::new();
    match (model.quantized(), classifier) {
        (Some(q), _) => q.predict_mask_batch_into(features, FEATURE_DIM, &mut mask),
        (None, Some(mlp)) => {
            let mut probs = Vec::new();
            mlp.predict_proba_batch_into(features, FEATURE_DIM, &mut probs);
            mask = probs.iter().map(|&p| p >= 0.5).collect();
        }
        (None, None) => {}
    }
    mask
}

/// True when the runtime's installed plan (if any) keeps the frame at
/// `index` on the on-orbit path; planned raw frames are only tiled.
fn runs_on_orbit(runtime: &Runtime, index: u64) -> bool {
    !matches!(
        runtime.plan().and_then(|p| p.placement(index)),
        Some(Placement::DownlinkRaw { .. } | Placement::Defer { .. })
    )
}

/// Summed wall time of one layer's calls.
#[derive(Debug, Default)]
struct Busy {
    seconds: f64,
    calls: usize,
}

impl Busy {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.seconds += start.elapsed().as_secs_f64();
        self.calls += 1;
        value
    }
}

/// Replays `runtime` over `frames` (frame `i` at capture index
/// `index(i)`) as children of `parent`. `recorded` says whether the
/// surface fed a telemetry recorder: the replay uses a
/// [`SummaryRecorder`] if so and a [`NullRecorder`] if not, and a probe
/// flies the same frames with the other one to price telemetry. Returns
/// the per-frame outcomes, which callers compare with the surface's.
///
/// # Errors
///
/// Fails when a model's classifier cannot be read back or the replayed
/// feature → inference → resize chain disagrees with `predict_tile`.
pub fn replay_runtime(
    tr: &mut Tracer,
    parent: SpanId,
    runtime: &Runtime,
    engine: &ContextEngine,
    frames: &[&FrameImage],
    index: impl Fn(usize) -> u64,
    recorded: bool,
) -> Result<Vec<FrameOutcome>, String> {
    let logic = runtime.logic();
    let models = logic.models();
    let classifiers = models
        .iter()
        .map(|m| {
            if m.is_quantized() {
                Ok(None)
            } else {
                f64_classifier(m).map(Some)
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let run = |recorder: &mut dyn Recorder| {
        frames
            .iter()
            .enumerate()
            .map(|(i, f)| runtime.process_frame_indexed(f, index(i), recorder))
            .collect::<Vec<_>>()
    };
    let with_recorder = |recorded: bool| {
        if recorded {
            run(&mut SummaryRecorder::new())
        } else {
            run(&mut NullRecorder)
        }
    };

    let (rt, outcomes) = tr.child(parent, "core.runtime", || with_recorder(recorded));
    tr.set_items(rt, frames.len());

    let start_s = tr.now_s();
    let (mut tile, mut engine_busy, mut predict) =
        (Busy::default(), Busy::default(), Busy::default());
    let (mut features, mut inference, mut resize) =
        (Busy::default(), Busy::default(), Busy::default());
    for (i, frame) in frames.iter().enumerate() {
        let tiles = tile.time(|| tile_frame(frame, logic.grid()));
        if !runs_on_orbit(runtime, index(i)) {
            continue;
        }
        for t in &tiles {
            let context = engine_busy.time(|| engine.classify(t));
            let Action::Process { model_index } = logic.action_for(context) else {
                continue;
            };
            let (Some(model), Some(classifier)) =
                (models.get(model_index), classifiers.get(model_index))
            else {
                continue;
            };
            let mask = predict.time(|| model.predict_tile(t));
            let r = model.input_resolution();
            let f = features.time(|| tile_features(t, r));
            let small = inference.time(|| infer(model, classifier.as_ref(), &f));
            let resized = resize.time(|| resize_mask(&small, r, t.size()));
            if resized != mask {
                return Err(
                    "replayed features → inference → resize disagrees with predict_tile".into(),
                );
            }
        }
    }
    for (name, busy) in [("geodata.tile", &tile), ("core.engine", &engine_busy)] {
        tr.accumulated(rt, name, start_s, busy.seconds, busy.calls);
    }
    let p = tr.accumulated(
        rt,
        "core.specialize.predict",
        start_s,
        predict.seconds,
        predict.calls,
    );
    for (name, busy) in [
        ("core.specialize.features", &features),
        ("ml.infer", &inference),
        ("geodata.resize", &resize),
    ] {
        tr.accumulated(p, name, start_s, busy.seconds, busy.calls);
    }

    for o in &outcomes {
        tr.add("core.elide.tiles_elided", o.tiles_elided as f64);
        tr.add(
            "core.elide.tiles_seen",
            (o.tiles_elided + o.tiles_processed) as f64,
        );
    }
    let (probe, _) = tr.root(Kind::Probe, "telemetry.probe", || with_recorder(!recorded));
    let (summary_s, null_s) = if recorded {
        (tr.seconds(rt), tr.seconds(probe))
    } else {
        (tr.seconds(probe), tr.seconds(rt))
    };
    tr.add("telemetry.summary_s", summary_s);
    tr.add("telemetry.null_s", null_s);
    Ok(outcomes)
}

/// The aggregate of `outcomes` and the mean modeled frame time, folded
/// in frame order exactly as `Runtime::process_frames_recorded` does.
pub fn fold(outcomes: &[FrameOutcome]) -> (FrameOutcome, kodan_cote::Duration) {
    let mut total = FrameOutcome::default();
    for o in outcomes {
        total.absorb(o);
    }
    let mean = if outcomes.is_empty() {
        kodan_cote::Duration::ZERO
    } else {
        total.compute / outcomes.len() as f64
    };
    (total, mean)
}
