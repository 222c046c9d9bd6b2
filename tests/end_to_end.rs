//! End-to-end integration: dataset -> transformation -> selection ->
//! runtime -> day-scale mission, asserting the paper-shape invariants
//! that the whole system exists to produce.

mod common;

use common::{test_artifacts, test_world};
use kodan::mission::{Mission, MissionParams, SpaceEnvironment, SystemKind};
use kodan::runtime::{FrameOutcome, Runtime};
use kodan::selection::SelectionLogic;
use kodan_hw::HwTarget;
use kodan_telemetry::NullRecorder;

fn mission_params() -> MissionParams {
    MissionParams {
        sample_frames: 8,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 2.0,
    }
}

#[test]
fn full_pipeline_beats_bent_pipe_on_every_target() {
    let artifacts = test_artifacts();
    let env = SpaceEnvironment::fixed(0.21);
    let world = test_world();
    let mission = Mission::new(&env, &world, mission_params());
    let bent = mission.run_bent_pipe();

    for target in HwTarget::ALL {
        let logic =
            artifacts.select_with_capacity(target, env.frame_deadline, env.capacity_fraction);
        let runtime = Runtime::new(logic, artifacts.engine.clone());
        let kodan = mission.run_with_runtime(&runtime, SystemKind::Kodan);
        assert!(
            kodan.dvd > bent.dvd * 1.3,
            "{target}: kodan {} vs bent {}",
            kodan.dvd,
            bent.dvd
        );
    }
}

#[test]
fn kodan_meets_the_deadline_everywhere() {
    let artifacts = test_artifacts();
    let env = SpaceEnvironment::fixed(0.21);
    for target in HwTarget::ALL {
        let logic =
            artifacts.select_with_capacity(target, env.frame_deadline, env.capacity_fraction);
        assert!(
            logic.estimate().frame_time <= env.frame_deadline,
            "{target}: selected {} s against {} s deadline",
            logic.estimate().frame_time.as_seconds(),
            env.frame_deadline.as_seconds()
        );
    }
}

#[test]
fn direct_deploy_busts_the_deadline_on_flight_hardware() {
    let artifacts = test_artifacts();
    let env = SpaceEnvironment::fixed(0.21);
    let logic = SelectionLogic::direct_deploy(
        artifacts,
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    // App 4 at 121 tiles on the Orin: ~194 s against ~22 s.
    assert!(logic.estimate().frame_time > env.frame_deadline * 5.0);
    assert!(logic.estimate().processed_fraction < 0.2);
}

#[test]
fn kodan_runtime_output_is_precise() {
    let artifacts = test_artifacts();
    let env = SpaceEnvironment::fixed(0.21);
    let world = test_world();
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let runtime = Runtime::new(logic, artifacts.engine.clone());
    let mission = Mission::new(&env, &world, mission_params());
    let frames = mission.sample_frames();
    let outcomes = runtime.process_frames(&frames, &mut NullRecorder);
    let (total, _) = FrameOutcome::total_and_mean(&outcomes);
    let observed_prevalence = total.observed_value_px as f64 / total.observed_px as f64;
    assert!(
        total.precision() > observed_prevalence + 0.2,
        "runtime precision {} vs prevalence {}",
        total.precision(),
        observed_prevalence
    );
}

#[test]
fn selection_estimate_predicts_mission_behavior() {
    // The optimizer's estimate and the measured mission should agree on
    // the deadline outcome and roughly on DVD.
    let artifacts = test_artifacts();
    let env = SpaceEnvironment::fixed(0.21);
    let world = test_world();
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let estimate = *logic.estimate();
    let runtime = Runtime::new(logic, artifacts.engine.clone());
    let mission = Mission::new(&env, &world, mission_params());
    let report = mission.run_with_runtime(&runtime, SystemKind::Kodan);
    assert_eq!(
        estimate.processed_fraction >= 1.0,
        report.processed_fraction >= 1.0,
        "deadline outcome mismatch"
    );
    assert!(
        (estimate.dvd - report.dvd).abs() < 0.25,
        "estimate {} vs measured {}",
        estimate.dvd,
        report.dvd
    );
}

/// An armed runtime for the fault-path tests: the selected logic, whose
/// slot 0 global model is the degradation fallback.
fn faulted_runtime(config: kodan_faults::FaultConfig) -> Runtime {
    use kodan_faults::FaultPlan;
    let artifacts = test_artifacts();
    let env = SpaceEnvironment::fixed(0.21);
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let plan = FaultPlan::new(config).expect("fault config is valid");
    Runtime::new(logic, artifacts.engine.clone()).with_fault_plan(plan)
}

#[test]
fn corrupted_models_fall_back_to_the_global_model() {
    // Force an SEU every frame. A bit flip always moves the weight
    // checksum, so every injected upset must be caught at validation and
    // answered with a global-model fallback — and the mission must still
    // produce a sane report rather than inferring through corrupt weights.
    use kodan_faults::FaultConfig;
    use kodan_telemetry::{CounterId, SummaryRecorder};

    let mut config = FaultConfig::nominal(7);
    config.seu_rate = 1.0;
    let runtime = faulted_runtime(config);
    let env = SpaceEnvironment::fixed(0.21);
    let world = test_world();
    let mut recorder = SummaryRecorder::new();
    let report = Mission::new(&env, &world, mission_params()).run_with_runtime_recorded(
        &runtime,
        SystemKind::Kodan,
        &mut recorder,
    );

    let snapshot = recorder.snapshot();
    let upsets = snapshot.counter(CounterId::FaultSeuInjected);
    assert!(upsets > 0, "seu_rate=1.0 must inject every frame");
    assert_eq!(
        snapshot.counter(CounterId::ModelFallbacks),
        upsets,
        "every detected upset must trigger a fallback"
    );
    assert!((0.0..=1.0).contains(&report.dvd), "dvd {}", report.dvd);
    assert!(report.processed_fraction > 0.0);
}

#[test]
fn dropped_passes_shed_queue_instead_of_overflowing() {
    // Kill most ground contacts. The mission must keep flying: dropped
    // passes are counted, the queue sheds its lowest-density entries to
    // absorb the lost capacity, and throughput lands strictly below the
    // clean run's.
    use kodan_cote::sim::ServedPass;
    use kodan_cote::time::{Duration, Epoch};
    use kodan_faults::{FaultConfig, FaultPlan};
    use kodan_telemetry::{CounterId, SummaryRecorder};

    let runtime = {
        let artifacts = test_artifacts();
        let env = SpaceEnvironment::fixed(0.21);
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        Runtime::new(logic, artifacts.engine.clone())
    };
    let env = SpaceEnvironment::fixed(0.21);
    let world = test_world();
    let mission = Mission::new(&env, &world, mission_params());
    let passes: Vec<ServedPass> = (0..10)
        .map(|i| {
            let start = Epoch::mission_start() + Duration::from_minutes(140.0 * i as f64);
            ServedPass {
                satellite: 0,
                station: 0,
                start,
                end: start + Duration::from_minutes(8.0),
                rate_bps: 2.0e8,
            }
        })
        .collect();

    let clean = mission
        .run_detailed_faulted(&runtime, &passes, 4.0e8, 100.0, None, &mut NullRecorder)
        .expect("valid replay inputs");

    let mut config = FaultConfig::nominal(11);
    config.contact_drop_rate = 0.7;
    config.contact_shorten_rate = 0.5;
    let plan = FaultPlan::new(config).expect("fault config is valid");
    let mut recorder = SummaryRecorder::new();
    let faulted = mission
        .run_detailed_faulted(&runtime, &passes, 4.0e8, 100.0, Some(&plan), &mut recorder)
        .expect("valid replay inputs");

    assert!(faulted.contacts_dropped > 0, "drop_rate=0.7 over 10 passes");
    assert!(
        faulted.sent_px < clean.sent_px,
        "lost contacts must cost throughput: {} vs {}",
        faulted.sent_px,
        clean.sent_px
    );
    assert!(faulted.shed_px >= 0.0 && faulted.shed_px.is_finite());
    let snapshot = recorder.snapshot();
    assert_eq!(
        snapshot.counter(CounterId::FaultContactsDropped),
        faulted.contacts_dropped,
        "report and telemetry must agree on dropped contacts"
    );
    assert_eq!(
        snapshot.counter(CounterId::FaultContactsShortened),
        faulted.contacts_shortened
    );
    // The same plan replayed is bit-identical — contact faults key on the
    // contact index, not on anything ambient.
    let replay = mission
        .run_detailed_faulted(&runtime, &passes, 4.0e8, 100.0, Some(&plan), &mut NullRecorder)
        .expect("valid replay inputs");
    assert_eq!(faulted, replay);
}

#[test]
fn invalid_replay_inputs_return_err() {
    // Zero, negative and NaN storage or bits per pixel are a typed error
    // from the day replay, checked before any frame is sampled — never
    // a panic on the mission path.
    use kodan::KodanError;

    let artifacts = test_artifacts();
    let env = SpaceEnvironment::fixed(0.21);
    let world = test_world();
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let runtime = Runtime::new(logic, artifacts.engine.clone());
    let mission = Mission::new(&env, &world, mission_params());
    for bad in [0.0, -1.0, f64::NAN] {
        for (storage_px, bits_per_px) in [(bad, 100.0), (4.0e8, bad)] {
            let result = mission.run_detailed_faulted(
                &runtime,
                &[],
                storage_px,
                bits_per_px,
                None,
                &mut NullRecorder,
            );
            assert_eq!(
                result,
                Err(KodanError::InvalidReplay),
                "storage {storage_px}, bits/px {bits_per_px}"
            );
        }
    }
}

#[test]
fn one_frame_datasets_return_err() {
    // The transformation splits its dataset at frame granularity, so a
    // dataset of one frame (`kodan transform --frames 1`) is a typed
    // error before any split — never a panic.
    use kodan::pipeline::Transformation;
    use kodan::{KodanConfig, KodanError};
    use kodan_geodata::{Dataset, DatasetConfig};
    use kodan_ml::ModelArch;

    let mut config = DatasetConfig::evaluation(42);
    config.frame_count = 1;
    let dataset = Dataset::sample(&test_world(), &config);
    let result =
        Transformation::new(KodanConfig::fast(7)).run(&dataset, ModelArch::ResNet50DilatedPpm);
    assert_eq!(result, Err(KodanError::DatasetTooSmall(1)));
}

#[test]
fn raw_placed_frames_ship_exactly_their_chosen_tiles() {
    // The raw placement contract. A frame the planner routes down raw
    // or defers runs no model: every tile is elided, exactly the plan's
    // chosen tiles ship whole, the frame observes what it would have
    // observed on orbit, and the planner counters agree with the plan's
    // ledger. Flown under a fault plan, which must not touch raw frames.
    use kodan::plan::Placement;
    use kodan::{ExecutionPlanner, PlanConfig};
    use kodan_faults::{FaultConfig, FaultPlan};
    use kodan_telemetry::{CounterId, SummaryRecorder};

    let artifacts = test_artifacts();
    let env = SpaceEnvironment::fixed(0.21);
    let world = test_world();
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let plan = FaultPlan::new(FaultConfig::nominal(4)).expect("fault config is valid");
    let runtime = Runtime::new(logic, artifacts.engine.clone()).with_fault_plan(plan);
    let params = MissionParams {
        sample_frames: 24,
        ..mission_params()
    };
    let mission = Mission::new(&env, &world, params);
    let frames = mission.sample_frames();
    let tiles_per_frame = runtime.logic().tiles_per_frame();
    let tile_side = (params.frame_px / runtime.logic().grid()) as u64;
    let tile_px = tile_side * tile_side;

    // The forced plan: no cool on-orbit path and two passes for 24
    // frames, so frames ship raw, defer, or fall back on-orbit.
    let mut config = PlanConfig::default_plan();
    config.thermal.throttle_onset_k = 0.0;
    config.contacts = 2;
    config.storage_px = 1.0e5;
    let planner = ExecutionPlanner::new(
        config,
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    // The estimates are the unplanned runtime's outcomes.
    let estimates = mission.estimate_frames(&runtime, &frames);
    let planned = runtime.with_plan(planner.plan_day(&estimates));
    let mut recorder = SummaryRecorder::new();
    let outcomes = planned.process_frames(&frames, &mut recorder);
    let day_plan = planned.plan().expect("plan installed");
    let ledger = &day_plan.ledger;
    assert_eq!(day_plan.frames().len(), frames.len());

    let mut raw_frames = 0u64;
    let mut chosen_tiles = 0u64;
    let flown = day_plan.frames().iter().zip(&outcomes).zip(&estimates);
    for (frame, ((placement, outcome), estimate)) in flown.enumerate() {
        let chosen = match placement {
            Placement::DownlinkRaw { tiles } | Placement::Defer { tiles } => tiles,
            Placement::OnOrbit { .. } => continue,
        };
        raw_frames += 1;
        chosen_tiles += chosen.len() as u64;
        assert_eq!(outcome.tiles_processed, 0, "frame {frame} ran a model");
        assert_eq!(outcome.tiles_elided, tiles_per_frame, "frame {frame}");
        assert_eq!(outcome.sent_px, chosen.len() as u64 * tile_px, "frame {frame}");
        assert!(outcome.value_px <= outcome.sent_px, "frame {frame}: {outcome:?}");
        assert_eq!(outcome.observed_px, estimate.observed_px, "frame {frame}");
    }
    assert!(ledger.frames_downlink_raw >= 1, "no raw frame: {ledger:?}");
    assert!(ledger.frames_deferred >= 1, "no deferred frame: {ledger:?}");
    assert_eq!(raw_frames, ledger.frames_downlink_raw + ledger.frames_deferred);

    let snapshot = recorder.snapshot();
    let raw_downlinked = snapshot.counter(CounterId::TilesRawDownlinked);
    assert_eq!(raw_downlinked, chosen_tiles);
    assert_eq!(
        raw_downlinked + snapshot.counter(CounterId::TilesRawDropped),
        raw_frames * tiles_per_frame as u64
    );
    assert_eq!(
        snapshot.counter(CounterId::FramesPlannedDownlinkRaw),
        ledger.frames_downlink_raw
    );
    assert_eq!(
        snapshot.counter(CounterId::FramesPlannedDeferred),
        ledger.frames_deferred
    );
}

#[test]
fn retry_exhaustion_degrades_tiles_to_raw_downlink() {
    // Make every classify attempt fail. The bounded retry policy must
    // exhaust on every tile, degrade each one to a raw downlink instead of
    // panicking or spinning, and still close out the mission with a
    // consistent report.
    use kodan_faults::FaultConfig;
    use kodan_telemetry::{CounterId, SummaryRecorder};

    let mut config = FaultConfig::nominal(23);
    config.classify_fault_rate = 1.0;
    let runtime = faulted_runtime(config);
    let env = SpaceEnvironment::fixed(0.21);
    let world = test_world();
    let mut recorder = SummaryRecorder::new();
    let report = Mission::new(&env, &world, mission_params()).run_with_runtime_recorded(
        &runtime,
        SystemKind::Kodan,
        &mut recorder,
    );

    let snapshot = recorder.snapshot();
    let exhausted = snapshot.counter(CounterId::FaultClassifyExhausted);
    let observed = snapshot.counter(CounterId::TilesObserved);
    assert!(exhausted > 0, "rate=1.0 must exhaust the retry budget");
    assert_eq!(
        exhausted, observed,
        "every observed tile must exhaust and degrade"
    );
    assert!(snapshot.counter(CounterId::FaultClassifyRetries) > 0);
    assert!((0.0..=1.0).contains(&report.dvd), "dvd {}", report.dvd);
    assert!(report.processed_fraction > 0.0);
}

#[test]
fn mission_reports_are_internally_consistent() {
    let artifacts = test_artifacts();
    let env = SpaceEnvironment::fixed(0.21);
    let world = test_world();
    let mission = Mission::new(&env, &world, mission_params());
    let logic = artifacts.select_with_capacity(
        HwTarget::CoreI7_7800X,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let runtime = Runtime::new(logic, artifacts.engine.clone());
    for report in [
        mission.run_bent_pipe(),
        mission.run_with_runtime(&runtime, SystemKind::Kodan),
    ] {
        let a = &report.accounting;
        assert!(a.produced_value_px <= a.produced_px + 1e-6);
        assert!(a.downlinked_px() <= a.capacity_px + 1e-6);
        assert!((0.0..=1.0).contains(&report.dvd), "dvd {}", report.dvd);
        assert!((0.0..=1.0).contains(&report.observed_hv_downlinked));
        assert!(report.processed_fraction > 0.0 && report.processed_fraction <= 1.0);
    }
}

#[test]
fn corrupted_artifact_store_degrades_to_the_global_model() {
    // The load-time mirror of the SEU fallback: flip one byte inside a
    // specialized-model blob on disk — a single-context model, then a
    // merged one — and the load must still succeed, substituting the
    // grid's global model for the corrupted slot, and the quarantined
    // mission must account a fallback on every frame, exactly like a
    // runtime-detected corruption. The global model itself has no
    // substitute: corrupting it fails the load.
    use kodan::artifact::{load_artifacts, save_artifacts};
    use kodan::specialize::ModelScope;
    use kodan_telemetry::{CounterId, SummaryRecorder};
    use std::path::Path;

    let artifacts = test_artifacts();
    let env = SpaceEnvironment::fixed(0.21);
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let grid = logic.grid();
    let slots = logic.models().iter().enumerate();
    let context_slot = slots
        .clone()
        .find_map(|(slot, m)| match m.scope() {
            ModelScope::Context(c) => Some((slot, format!("grid{grid}.ctx{}", c.0))),
            _ => None,
        })
        .expect("selected grid has a context model to corrupt");
    let merged_slot = slots
        .clone()
        .find_map(|(slot, m)| match m.scope() {
            ModelScope::Multi(_) => Some((slot, format!("grid{grid}.merged0"))),
            _ => None,
        })
        .expect("selected grid has a merged model to corrupt");

    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("end_to_end_corrupt_store");
    std::fs::remove_dir_all(&root).ok();
    let save_and_corrupt = |name: &str| {
        let dir = root.join(name);
        let report =
            save_artifacts(artifacts, &logic, &dir, &mut NullRecorder).expect("save succeeds");
        let entry = report.manifest.entry(name).expect("entry exists");
        let object = dir.join(format!("objects/{:016x}.bin", entry.digest));
        let mut bytes = std::fs::read(&object).expect("read object");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&object, &bytes).expect("write corrupted object");
        dir
    };

    for (slot, name) in [context_slot, merged_slot] {
        let dir = save_and_corrupt(&name);
        let mut recorder = SummaryRecorder::new();
        let loaded = load_artifacts(&dir, &mut recorder).expect("corrupted load still succeeds");
        assert_eq!(
            loaded.recovered.len(),
            1,
            "exactly the corrupted model recovers: {:?}",
            loaded.recovered
        );
        assert_eq!(loaded.recovered[0].name, name);
        assert_eq!(loaded.recovered[0].grid, grid);
        assert_eq!(loaded.recovered[0].slot, slot);
        assert_eq!(
            recorder.snapshot().counter(CounterId::ArtifactsRecovered),
            1,
            "{name}: recovery must be counted"
        );
        assert_eq!(
            loaded.quarantined_slots,
            vec![slot],
            "the recovered slot of the selected grid is quarantined"
        );
        // The substituted model serves the original slot's scope, and
        // slot 0 still flies the global model.
        assert_eq!(
            loaded.selection.models()[slot].scope(),
            logic.models()[slot].scope(),
            "{name}: fallback must preserve the corrupted slot's scope"
        );
        assert_eq!(
            loaded.selection.models().first().map(|m| m.scope()),
            Some(&ModelScope::Global),
            "{name}: the loaded selection flies the global model in slot 0"
        );

        let runtime = Runtime::new(loaded.selection, loaded.artifacts.engine.clone())
            .with_quarantined_models(loaded.quarantined_slots);
        let world = test_world();
        let mut mission_recorder = SummaryRecorder::new();
        let flown = Mission::new(&env, &world, mission_params()).run_with_runtime_recorded(
            &runtime,
            SystemKind::Kodan,
            &mut mission_recorder,
        );
        let snapshot = mission_recorder.snapshot();
        assert_eq!(
            snapshot.counter(CounterId::ModelFallbacks),
            snapshot.frames,
            "{name}: one quarantined slot must account one fallback per frame"
        );
        assert!((0.0..=1.0).contains(&flown.dvd), "dvd {}", flown.dvd);
        assert!(flown.processed_fraction > 0.0);
    }

    let dir = save_and_corrupt(&format!("grid{grid}.global"));
    assert!(
        load_artifacts(&dir, &mut NullRecorder).is_err(),
        "a corrupted global model has no substitute"
    );

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn corrupted_quantized_blob_degrades_to_the_f64_reference() {
    // The quantized companion is an optimization, never a single point
    // of failure: flip one byte inside a `.q` blob on disk and the load
    // must succeed with that one slot back on the f64 reference path —
    // counted as a recovery, but with no quarantine and no mission
    // fallbacks, because the f64 master copy is intact.
    use kodan::artifact::{load_artifacts, save_artifacts};
    use kodan_telemetry::{CounterId, SummaryRecorder};
    use std::path::Path;

    let mut artifacts = test_artifacts().clone();
    artifacts.config.quantize = true;
    let env = SpaceEnvironment::fixed(0.21);
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let grid = logic.grid();
    let ctx = logic
        .models()
        .iter()
        .find_map(|m| match m.scope() {
            kodan::specialize::ModelScope::Context(c) => Some(*c),
            _ => None,
        })
        .expect("selected grid has a context model");

    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("end_to_end_corrupt_qmodel");
    std::fs::remove_dir_all(&dir).ok();
    let report =
        save_artifacts(&artifacts, &logic, &dir, &mut NullRecorder).expect("save succeeds");
    assert!(report.quantized_models > 0, "quantize flag must write companions");

    let qname = format!("grid{grid}.ctx{}.q", ctx.0);
    let entry = report.manifest.entry(&qname).expect("companion entry exists");
    let object = dir.join(format!("objects/{:016x}.bin", entry.digest));
    let mut bytes = std::fs::read(&object).expect("read object");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&object, &bytes).expect("write corrupted object");

    let mut recorder = SummaryRecorder::new();
    let loaded = load_artifacts(&dir, &mut recorder).expect("corrupted load still succeeds");
    assert_eq!(
        loaded.degraded_quantized,
        vec![qname],
        "exactly the corrupted companion degrades"
    );
    assert_eq!(
        recorder.snapshot().counter(CounterId::ArtifactsRecovered),
        1,
        "the degradation must be counted"
    );
    assert!(
        loaded.recovered.is_empty(),
        "the f64 model itself is intact: {:?}",
        loaded.recovered
    );
    assert!(
        loaded.quarantined_slots.is_empty(),
        "a soft degradation never quarantines"
    );
    assert_eq!(
        loaded.quantized_attached,
        report.quantized_models - 1,
        "every other companion still attaches"
    );
    let degraded_slot = loaded
        .artifacts
        .grid_artifacts(grid)
        .expect("grid round-trips")
        .context_model(ctx)
        .expect("slot still populated");
    assert!(
        !degraded_slot.is_quantized(),
        "the degraded slot serves the f64 reference"
    );

    let runtime = Runtime::new(loaded.selection, loaded.artifacts.engine.clone())
        .with_quarantined_models(loaded.quarantined_slots);
    let world = test_world();
    let mut mission_recorder = SummaryRecorder::new();
    let flown = Mission::new(&env, &world, mission_params()).run_with_runtime_recorded(
        &runtime,
        SystemKind::Kodan,
        &mut mission_recorder,
    );
    assert_eq!(
        mission_recorder.snapshot().counter(CounterId::ModelFallbacks),
        0,
        "no quarantine means no per-frame fallbacks"
    );
    assert!((0.0..=1.0).contains(&flown.dvd), "dvd {}", flown.dvd);
    assert!(flown.processed_fraction > 0.0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn artifacts_inspect_reports_store_health() {
    // `kodan artifacts inspect` renders this report verbatim; lock the
    // load-bearing pieces: deployment coordinates, per-artifact status,
    // the uplink budget line, and corruption flagging.
    use kodan::artifact::save_artifacts;
    use std::path::Path;

    let artifacts = test_artifacts();
    let env = SpaceEnvironment::fixed(0.21);
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("end_to_end_inspect_store");
    std::fs::remove_dir_all(&dir).ok();
    let report =
        save_artifacts(artifacts, &logic, &dir, &mut NullRecorder).expect("save succeeds");

    let inspect = |dir: &Path| kodan_wire::store::verify(dir).map(|health| health.render(dir));
    let text = inspect(&dir).expect("inspect succeeds");
    assert!(text.contains("target orin_agx_15w"), "{text}");
    assert!(text.contains("selection"), "{text}");
    assert!(text.contains("contexts"), "{text}");
    assert!(text.contains(" ok"), "{text}");
    assert!(!text.contains("CORRUPT"), "{text}");
    assert!(text.contains("modeled uplink budget"), "{text}");

    // Corrupt one object; inspect must flag exactly that entry and keep
    // rendering the rest.
    let entry = &report.manifest.entries[0];
    let object = dir.join(format!("objects/{:016x}.bin", entry.digest));
    let mut bytes = std::fs::read(&object).expect("read object");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&object, &bytes).expect("write corrupted object");
    let text = inspect(&dir).expect("inspect still succeeds");
    assert_eq!(
        text.matches("CORRUPT").count(),
        1,
        "exactly one corrupted entry: {text}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
