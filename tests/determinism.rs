//! Determinism integration tests: the entire system — dataset,
//! transformation, selection and missions — must be bit-reproducible
//! from its seeds, because the paper-figure benches depend on it.

mod common;

use kodan::mission::{Mission, MissionParams, SpaceEnvironment, SystemKind};
use kodan::pipeline::Transformation;
use kodan::runtime::Runtime;
use kodan::KodanConfig;
use kodan_geodata::{Dataset, DatasetConfig, World};
use kodan_hw::HwTarget;
use kodan_ml::ModelArch;
use kodan_telemetry::SummaryRecorder;
use kodan_wire::digest::fnv1a64;

fn small_dataset(seed: u64) -> Dataset {
    let mut cfg = DatasetConfig::small(seed);
    cfg.frame_count = 8;
    cfg.frame_px = 132;
    Dataset::sample(&World::new(42), &cfg)
}

#[test]
fn transformation_is_reproducible() {
    let dataset = small_dataset(1);
    let a = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let b = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    assert_eq!(a, b);
}

#[test]
fn different_seeds_change_the_artifacts() {
    let dataset = small_dataset(1);
    let a = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let b = Transformation::new(KodanConfig::fast(10))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    assert_ne!(a, b);
}

#[test]
fn missions_are_reproducible() {
    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 4,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let run = || {
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, artifacts.engine.clone());
        Mission::new(&env, &world, params).run_with_runtime(&runtime, SystemKind::Kodan)
    };
    assert_eq!(run(), run());
}

#[test]
fn telemetry_snapshots_are_byte_identical() {
    // Two runs of the same seeded pipeline — transformation plus a kodan
    // mission, both instrumented — must serialize to byte-identical JSON.
    // This is the observability contract: a snapshot diff is a behavior
    // diff, never serialization noise.
    let dataset = small_dataset(1);
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 4,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let run = || {
        let mut recorder = SummaryRecorder::new();
        let artifacts = Transformation::new(KodanConfig::fast(9))
            .run_recorded(&dataset, ModelArch::MobileNetV2DilatedC1, &mut recorder)
            .expect("transformation succeeds");
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, artifacts.engine.clone());
        Mission::new(&env, &world, params).run_with_runtime_recorded(
            &runtime,
            SystemKind::Kodan,
            &mut recorder,
        );
        recorder.snapshot().to_json()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a.as_bytes(), b.as_bytes(), "snapshot JSON must be byte-stable");
}

#[test]
fn parallel_missions_match_serial_bitwise() {
    // The data-parallel render and frame paths must be pure wall-clock
    // optimizations: every MissionReport field — f64 aggregates included
    // — must be bit-identical whether one worker or many rendered and
    // processed the frames.
    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 8,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let run = |workers: usize| {
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, artifacts.engine.clone()).with_workers(workers);
        let mission = Mission::new(&env, &world, params).with_workers(workers);
        (
            mission.run_bent_pipe(),
            mission.run_with_runtime(&runtime, SystemKind::Kodan),
        )
    };
    let serial = run(1);
    for workers in [2, 4] {
        assert_eq!(serial, run(workers), "{workers}-worker mission diverged");
    }
}

#[test]
fn parallel_telemetry_snapshots_match_serial_byte_for_byte() {
    // Per-worker tape recorders replayed in frame-index order must
    // reproduce the serial telemetry stream exactly: same counters, same
    // span aggregates, same JSON bytes.
    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 6,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let run = |workers: usize| {
        let mut recorder = SummaryRecorder::new();
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, artifacts.engine.clone()).with_workers(workers);
        Mission::new(&env, &world, params).run_with_runtime_recorded(
            &runtime,
            SystemKind::Kodan,
            &mut recorder,
        );
        recorder.snapshot().to_json()
    };
    let serial = run(1);
    assert!(!serial.is_empty());
    for workers in [2, 4] {
        assert_eq!(
            serial.as_bytes(),
            run(workers).as_bytes(),
            "{workers}-worker telemetry diverged from serial"
        );
    }
}

#[test]
fn parallel_training_matches_serial_artifacts_and_selection() {
    // Specialized-model training fans out across workers with per-context
    // seed streams keyed on context identity, so the trained weights —
    // and everything selected from them — must not depend on the worker
    // count. Only the recorded `workers` knob itself may differ.
    let dataset = small_dataset(1);
    let run = |workers: usize| {
        let mut config = KodanConfig::fast(9);
        config.workers = workers;
        Transformation::new(config)
            .run(&dataset, ModelArch::MobileNetV2DilatedC1)
            .expect("transformation succeeds")
    };
    let serial = run(1);
    let env = SpaceEnvironment::fixed(0.21);
    let serial_logic = serial.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    for workers in [2, 4] {
        let mut parallel = run(workers);
        let logic = parallel.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        assert_eq!(serial_logic, logic, "{workers}-worker selection diverged");
        // The config records the requested worker count; normalize that
        // one knob and everything else must be bit-identical.
        parallel.config.workers = serial.config.workers;
        assert_eq!(serial, parallel, "{workers}-worker artifacts diverged");
    }
}

#[test]
fn fault_injected_missions_are_byte_identical_at_any_worker_count() {
    // The fault-injection contract: a mission flown under a fault plan is
    // just as reproducible as a clean one. Same fault seed => identical
    // MissionReport, identical detailed (queue-replay) report, and
    // byte-identical telemetry JSON, at 1, 2 and 4 workers — because every
    // fault decision is a pure function of (seed, site identity), never of
    // thread arrival order.
    use kodan_cote::sim::ServedPass;
    use kodan_cote::time::{Duration, Epoch};
    use kodan_faults::{FaultConfig, FaultPlan};

    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 6,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let passes: Vec<ServedPass> = (0..12)
        .map(|i| {
            let start = Epoch::mission_start() + Duration::from_minutes(90.0 * i as f64);
            ServedPass {
                satellite: 0,
                station: 0,
                start,
                end: start + Duration::from_minutes(8.0),
                rate_bps: 3.0e8,
            }
        })
        .collect();

    let run = |workers: usize| {
        let plan = FaultPlan::new(FaultConfig::nominal(99)).expect("nominal plan is valid");
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, artifacts.engine.clone())
            .with_workers(workers)
            .with_fault_plan(plan.clone());
        let mission = Mission::new(&env, &world, params);
        let mut recorder = SummaryRecorder::new();
        let report =
            mission.run_with_runtime_recorded(&runtime, SystemKind::Kodan, &mut recorder);
        let detailed = mission
            .run_detailed_faulted(&runtime, &passes, 1.0e9, 100.0, Some(&plan), &mut recorder)
            .expect("valid replay inputs");
        (report, detailed, recorder.snapshot().to_json())
    };

    let (report_1, detailed_1, json_1) = run(1);
    // The plan actually fired: this is a determinism test of the faulted
    // path, not the clean one.
    assert!(
        json_1.contains("fault_injected"),
        "nominal plan injected nothing over the mission"
    );
    // Pinned digests: the detailed replay and its telemetry are the same
    // bytes as before the day replay was unified.
    assert_eq!(
        fnv1a64(format!("{detailed_1:?}").as_bytes()),
        0x9641_f6a6_3b3d_d1a6,
        "faulted detailed report drifted: {detailed_1:?}"
    );
    assert_eq!(fnv1a64(json_1.as_bytes()), 0xd153_9d1b_7fd0_40ac);
    for workers in [2, 4] {
        let (report_n, detailed_n, json_n) = run(workers);
        assert_eq!(report_1, report_n, "{workers}-worker faulted mission diverged");
        assert_eq!(detailed_1, detailed_n, "{workers}-worker detailed replay diverged");
        assert_eq!(
            json_1.as_bytes(),
            json_n.as_bytes(),
            "{workers}-worker faulted telemetry diverged"
        );
    }
}

#[test]
fn saved_artifacts_reload_byte_identically() {
    // The uplink contract: what the ground seals is exactly what the
    // satellite unseals. A clean save→load round trip must reproduce the
    // full artifact set and selection logic with `==` — and saving twice
    // must produce byte-identical stores (canonical encoding leaves no
    // room for incidental variation). Auto and expert contexts and
    // quantized companions each take their own path through the store.
    use kodan::artifact::{load_artifacts, save_artifacts};
    use kodan::config::ContextGenerationKind;
    use kodan_telemetry::NullRecorder;
    use std::path::Path;

    // Pinned digests of `manifest.txt`, which lists every object's
    // content digest, size and CRC: the stores are the same bytes as
    // when each grid's models lived in three separate fields.
    let cases = [
        ("auto", KodanConfig::fast(9), 0x3184_95ca_b206_1d7f_u64),
        (
            "expert",
            KodanConfig {
                generation: ContextGenerationKind::Expert,
                ..KodanConfig::fast(9)
            },
            0x4865_5932_0c66_8076,
        ),
        (
            "quantized",
            KodanConfig {
                quantize: true,
                ..KodanConfig::fast(9)
            },
            0xa753_5619_f120_1341,
        ),
    ];
    let dataset = small_dataset(1);
    let env = SpaceEnvironment::fixed(0.21);
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("determinism_artifacts");
    std::fs::remove_dir_all(&root).ok();
    for (label, config, pinned_manifest) in cases {
        let artifacts = Transformation::new(config)
            .run(&dataset, ModelArch::MobileNetV2DilatedC1)
            .expect("transformation succeeds");
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );

        let dir_a = root.join(label).join("a");
        let dir_b = root.join(label).join("b");
        let report_a = save_artifacts(&artifacts, &logic, &dir_a, &mut NullRecorder)
            .expect("save succeeds");
        let report_b = save_artifacts(&artifacts, &logic, &dir_b, &mut NullRecorder)
            .expect("second save succeeds");
        assert_eq!(report_a, report_b, "{label}: re-saving must be byte-deterministic");
        assert!(report_a.total_bytes > 0);
        assert!(!report_a.over_budget, "{label}: test artifacts fit the uplink budget");

        // Every on-disk byte matches: manifest text and all objects.
        let read =
            |dir: &Path, name: &str| std::fs::read(dir.join(name)).expect("read store file");
        let manifest = read(&dir_a, "manifest.txt");
        assert_eq!(manifest, read(&dir_b, "manifest.txt"));
        for entry in &report_a.manifest.entries {
            let object = format!("objects/{:016x}.bin", entry.digest);
            assert_eq!(
                read(&dir_a, &object),
                read(&dir_b, &object),
                "{label}: {object} differs"
            );
        }
        assert_eq!(
            fnv1a64(&manifest),
            pinned_manifest,
            "{label} manifest drifted:\n{}",
            String::from_utf8_lossy(&manifest)
        );

        let loaded = load_artifacts(&dir_a, &mut NullRecorder).expect("load succeeds");
        assert!(loaded.recovered.is_empty(), "{label}: clean store needs no recovery");
        assert!(loaded.quarantined_slots.is_empty());
        if config.quantize {
            // Loaded models carry their verified fixed-point companions,
            // which the in-memory artifacts never had.
            assert_eq!(loaded.quantized_attached, report_a.quantized_models);
        } else {
            assert_eq!(loaded.artifacts, artifacts, "{label}: artifacts round-trip exactly");
            assert_eq!(loaded.selection, logic, "{label}: selection logic round-trips exactly");
        }
    }

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn missions_from_loaded_artifacts_match_in_memory_at_any_worker_count() {
    // Flying a mission from an unsealed artifact set is the same mission:
    // identical MissionReport and byte-identical telemetry JSON as the
    // in-memory path, at 1, 2 and 4 workers.
    use kodan::artifact::{load_artifacts, save_artifacts};
    use kodan_telemetry::NullRecorder;
    use std::path::Path;

    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 6,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("determinism_loaded_mission");
    std::fs::remove_dir_all(&dir).ok();
    save_artifacts(&artifacts, &logic, &dir, &mut NullRecorder).expect("save succeeds");
    let loaded = load_artifacts(&dir, &mut NullRecorder).expect("load succeeds");

    let fly = |logic: &kodan::SelectionLogic,
               engine: &kodan::ContextEngine,
               quarantined: &[usize],
               workers: usize| {
        let runtime = Runtime::new(logic.clone(), engine.clone())
            .with_workers(workers)
            .with_quarantined_models(quarantined.to_vec());
        let mut recorder = SummaryRecorder::new();
        let report = Mission::new(&env, &world, params).run_with_runtime_recorded(
            &runtime,
            SystemKind::Kodan,
            &mut recorder,
        );
        (report, recorder.snapshot().to_json())
    };

    for workers in [1, 2, 4] {
        let (memory_report, memory_json) = fly(&logic, &artifacts.engine, &[], workers);
        let (loaded_report, loaded_json) = fly(
            &loaded.selection,
            &loaded.artifacts.engine,
            &loaded.quarantined_slots,
            workers,
        );
        assert_eq!(
            memory_report, loaded_report,
            "{workers}-worker loaded-artifact mission diverged"
        );
        assert_eq!(
            memory_json.as_bytes(),
            loaded_json.as_bytes(),
            "{workers}-worker loaded-artifact telemetry diverged"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quantized_missions_from_loaded_artifacts_are_byte_identical_at_any_worker_count() {
    // With `config.quantize` set, every saved model slot carries an
    // i16/i32 companion blob; a loaded mission then flies the
    // fixed-point fast path. Integer kernels have no accumulation-order
    // sensitivity at all, so worker-count byte-identity must hold here
    // by construction: identical MissionReport and telemetry JSON at 1,
    // 2 and 4 workers.
    use kodan::artifact::{load_artifacts, save_artifacts};
    use kodan_telemetry::NullRecorder;
    use std::path::Path;

    let dataset = small_dataset(1);
    let mut config = KodanConfig::fast(9);
    config.quantize = true;
    let artifacts = Transformation::new(config)
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 6,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("determinism_quantized_mission");
    std::fs::remove_dir_all(&dir).ok();
    let report =
        save_artifacts(&artifacts, &logic, &dir, &mut NullRecorder).expect("save succeeds");
    assert!(
        report.quantized_models > 0,
        "config.quantize must write companion blobs"
    );
    let loaded = load_artifacts(&dir, &mut NullRecorder).expect("load succeeds");
    assert!(loaded.recovered.is_empty(), "clean store needs no recovery");
    assert!(loaded.degraded_quantized.is_empty());
    assert!(
        loaded.quantized_attached > 0,
        "quantized companions must attach on load"
    );
    assert!(
        loaded.selection.models().iter().any(|m| m.is_quantized()),
        "the flying model table must carry the fast path"
    );

    let fly = |workers: usize| {
        let runtime = Runtime::new(loaded.selection.clone(), loaded.artifacts.engine.clone())
            .with_workers(workers)
            .with_quarantined_models(loaded.quarantined_slots.clone());
        let mut recorder = SummaryRecorder::new();
        let report = Mission::new(&env, &world, params).run_with_runtime_recorded(
            &runtime,
            SystemKind::Kodan,
            &mut recorder,
        );
        (report, recorder.snapshot().to_json())
    };
    let (base_report, base_json) = fly(1);
    for workers in [2, 4] {
        let (mission_report, json) = fly(workers);
        assert_eq!(
            base_report, mission_report,
            "{workers}-worker quantized mission diverged"
        );
        assert_eq!(
            base_json.as_bytes(),
            json.as_bytes(),
            "{workers}-worker quantized telemetry diverged"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_reports_and_telemetry_are_byte_identical_at_any_worker_count() {
    // The constellation-scale acceptance gate: a 24-satellite fleet day
    // under a memtable budget small enough to force spilling must
    // produce an identical FleetReport and byte-identical telemetry
    // JSON at 1, 2 and 4 workers. Satellites fan out across workers but
    // their tapes replay in satellite order, and the spill combiner
    // ingests a globally (satellite, seq)-sorted journal stream, so
    // neither scheduling nor spill boundaries can reorder the fold.
    use kodan::fleet::{Fleet, FleetConfig};
    use kodan::PlanConfig;
    use kodan_wire::ArtifactStore;
    use std::path::Path;

    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 4,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 2.0,
    };
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("determinism_fleet");
    std::fs::remove_dir_all(&root).ok();
    let budget = 4 * kodan::fleet::combine::JournalRecord::ENCODED_BYTES;

    let fly = |satellites: usize, workers: usize, plan: Option<PlanConfig>, tag: &str| {
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, artifacts.engine.clone());
        let config = FleetConfig {
            satellites,
            memtable_budget: budget,
            workers,
            plan,
            ..FleetConfig::default_fleet()
        };
        let dir = root.join(tag);
        let store = ArtifactStore::create(&dir).expect("create spill store");
        let mut recorder = SummaryRecorder::new();
        let report = Fleet::new(&world, &runtime, params, config)
            .run_recorded(&store, &mut recorder)
            .expect("fleet run succeeds");
        (report, recorder.snapshot().to_json())
    };
    let run = |workers: usize| fly(24, workers, None, &format!("w{workers}"));

    let (report_1, json_1) = run(1);
    assert_eq!(report_1.satellites, 24);
    // Pinned digests: the fleet day is the same bytes as before the day
    // replay was unified, unplanned and planned.
    assert_eq!(
        fnv1a64(format!("{report_1:?}").as_bytes()),
        0x7782_7ea2_f5f4_7160,
        "fleet report drifted: {report_1:?}"
    );
    assert_eq!(fnv1a64(json_1.as_bytes()), 0x9d00_aa85_2b22_4540);
    let (planned, planned_json) = fly(3, 1, Some(PlanConfig::default_plan()), "planned");
    assert_eq!(
        fnv1a64(format!("{planned:?}").as_bytes()),
        0x8de9_25f4_fcf1_a1e9,
        "planned fleet report drifted: {planned:?}"
    );
    assert_eq!(fnv1a64(planned_json.as_bytes()), 0xc429_2887_9cbf_7658);
    assert!(report_1.spill.runs > 0, "budget must force spilling");
    assert!(report_1.spill.peak_memtable_bytes <= budget);
    assert!(
        report_1.spill.ingested_bytes > budget,
        "the fleet journal must exceed the memtable budget"
    );
    for workers in [2, 4] {
        let (report_n, json_n) = run(workers);
        assert_eq!(report_1, report_n, "{workers}-worker fleet report diverged");
        assert_eq!(
            json_1.as_bytes(),
            json_n.as_bytes(),
            "{workers}-worker fleet telemetry diverged"
        );
    }

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn planned_missions_are_byte_identical_at_any_worker_count() {
    // The execution planner's contract: placement decisions are made
    // once, in frame-index order, from worker-invariant estimates — so
    // a planned mission (estimate pass, plan, planned flight) must
    // produce an identical PlannedMissionReport and byte-identical
    // telemetry JSON at 1, 2 and 4 workers.
    use kodan::{ExecutionPlanner, PlanConfig};
    use kodan_faults::{FaultConfig, FaultPlan};
    use kodan_telemetry::CounterId;

    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 6,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let run = |workers: usize, params: MissionParams, config: PlanConfig, faults: Option<FaultConfig>| {
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let mut runtime = Runtime::new(logic, artifacts.engine.clone()).with_workers(workers);
        if let Some(faults) = faults {
            let plan = FaultPlan::new(faults).expect("fault config is valid");
            runtime = runtime.with_fault_plan(plan);
        }
        let planner = ExecutionPlanner::new(
            config,
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let mut recorder = SummaryRecorder::new();
        let planned =
            Mission::new(&env, &world, params).run_planned_recorded(&runtime, &planner, &mut recorder);
        (planned, recorder.snapshot())
    };

    let (planned_1, snapshot_1) = run(1, params, PlanConfig::default_plan(), None);
    let json_1 = snapshot_1.to_json();
    let placed = planned_1.ledger.frames_on_orbit
        + planned_1.ledger.frames_downlink_raw
        + planned_1.ledger.frames_deferred;
    assert_eq!(placed, 6, "every sampled frame gets exactly one placement");
    for workers in [2, 4] {
        let (planned_n, snapshot_n) = run(workers, params, PlanConfig::default_plan(), None);
        assert_eq!(planned_1, planned_n, "{workers}-worker planned mission diverged");
        assert_eq!(
            json_1.as_bytes(),
            snapshot_n.to_json().as_bytes(),
            "{workers}-worker planned telemetry diverged"
        );
    }

    // Every placement kind under faults: with the throttle onset at 0 K
    // the cool on-orbit path is impossible, and twelve frames over two
    // passes drain the first pass early. So frames ship raw, defer to
    // the second pass, or fall back on-orbit throttled once both are
    // full, all on a runtime armed with a fault plan.
    let mut forced = PlanConfig::default_plan();
    forced.thermal.throttle_onset_k = 0.0;
    forced.contacts = 2;
    forced.storage_px = 1.0e5;
    let forced_params = MissionParams {
        sample_frames: 12,
        ..params
    };
    let faults = FaultConfig::nominal(4);
    let (faulted_1, snapshot_1) = run(1, forced_params, forced, Some(faults));
    let ledger = &faulted_1.ledger;
    assert!(ledger.frames_on_orbit >= 1, "no on-orbit frame: {ledger:?}");
    assert!(ledger.frames_downlink_raw >= 1, "no raw frame: {ledger:?}");
    assert!(ledger.frames_deferred >= 1, "no deferred frame: {ledger:?}");
    assert!(
        snapshot_1.counter(CounterId::FaultSlowdownFrames) > 0,
        "the fault plan throttled no frame"
    );
    let faulted_json_1 = snapshot_1.to_json();
    // Pinned digests: the forced, faulted planned mission is the same
    // bytes as when raw placements had their own per-frame body.
    assert_eq!(
        fnv1a64(format!("{faulted_1:?}").as_bytes()),
        0x0e98_dbdc_cc48_5f74,
        "forced planned mission drifted: {faulted_1:?}"
    );
    assert_eq!(fnv1a64(faulted_json_1.as_bytes()), 0x8c43_bf77_388c_7119);
    for workers in [2, 4] {
        let (faulted_n, snapshot_n) = run(workers, forced_params, forced, Some(faults));
        assert_eq!(faulted_1, faulted_n, "{workers}-worker forced mission diverged");
        assert_eq!(
            faulted_json_1.as_bytes(),
            snapshot_n.to_json().as_bytes(),
            "{workers}-worker forced telemetry diverged"
        );
    }
}

#[test]
fn plan_off_missions_are_untouched_by_planner_availability() {
    // With no plan installed the runtime must fly the exact pre-planner
    // path: an ordinary mission produces identical reports and telemetry
    // bytes whether or not the same runtime was also used to drive a
    // planned mission beside it (`run_planned_recorded` clones before
    // installing the plan, so the caller's runtime stays plan-free).
    use kodan::{ExecutionPlanner, PlanConfig};

    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 6,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let mission = Mission::new(&env, &world, params);

    let baseline = |runtime: &Runtime| {
        let mut recorder = SummaryRecorder::new();
        let report = mission.run_with_runtime_recorded(runtime, SystemKind::Kodan, &mut recorder);
        (report, recorder.snapshot().to_json())
    };

    let fresh = Runtime::new(logic.clone(), artifacts.engine.clone());
    let (report_before, json_before) = baseline(&fresh);

    // Fly a planned mission on the same runtime, then the ordinary
    // mission again: the planner must leave no trace on the plan-off path.
    let planner = ExecutionPlanner::new(
        PlanConfig::default_plan(),
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let _ = mission.run_planned_recorded(&fresh, &planner, &mut kodan_telemetry::NullRecorder);
    let (report_after, json_after) = baseline(&fresh);

    assert_eq!(report_before, report_after, "plan-off mission drifted");
    assert_eq!(
        json_before.as_bytes(),
        json_after.as_bytes(),
        "plan-off telemetry drifted"
    );
}

#[test]
fn selection_is_reproducible_across_rederivations() {
    use kodan::selection::{SelectionLogic, TechniqueSet};
    use kodan::specialize::ModelScope;
    use kodan::tiling::{
        accuracy_optimal_grid, dvd_optimal_grid, precision_optimal_grid, tiling_sweep,
    };

    let dataset = small_dataset(1);
    let artifacts = &Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let (deadline, capacity) = (env.frame_deadline, env.capacity_fraction);
    let restricted = |techniques: TechniqueSet| {
        move |target| {
            SelectionLogic::build_restricted(artifacts, target, deadline, capacity, techniques)
        }
    };
    // Pinned digests of each constructor's `Debug` output on every target
    // (policy, estimate and model table): the same bytes as when the
    // optimizer rebuilt each grid's model table from three fields.
    let constructors: [(&str, &dyn Fn(HwTarget) -> SelectionLogic, u64); 6] = [
        (
            "build",
            &|target| SelectionLogic::build(artifacts, target, deadline, capacity),
            0xde87_f8f9_351b_83c4,
        ),
        ("tiling_only", &restricted(TechniqueSet::tiling_only()), 0xfef0_52d1_7262_60d1),
        ("elision_only", &restricted(TechniqueSet::elision_only()), 0xa540_08e0_4ce6_d530),
        (
            "specialization_only",
            &restricted(TechniqueSet::specialization_only()),
            0xc88b_a44b_d057_0112,
        ),
        (
            "direct_deploy",
            &|target| SelectionLogic::direct_deploy(artifacts, target, deadline, capacity),
            0xfba9_b028_c65c_d398,
        ),
        (
            "max_precision_tiling",
            &|target| {
                SelectionLogic::max_precision_tiling(artifacts, target, deadline, capacity)
            },
            0x9bec_f7bd_a627_b0ec,
        ),
    ];
    let mut observed = Vec::new();
    // The tiling sweep prices the same global-model-everywhere policy on
    // every grid; pinned with its three optimal-grid picks per target.
    let mut sweeps = String::new();
    for target in HwTarget::ALL {
        let sweep = tiling_sweep(artifacts, target, deadline, capacity);
        sweeps.push_str(&format!(
            "{sweep:?} {} {} {}\n",
            accuracy_optimal_grid(&sweep),
            precision_optimal_grid(&sweep),
            dvd_optimal_grid(&sweep)
        ));
    }
    observed.push((
        "tiling_sweep",
        fnv1a64(sweeps.as_bytes()),
        0x7c2d_3be5_a981_3f1c,
    ));
    for (name, derive, pinned) in constructors {
        let mut debug = String::new();
        for target in HwTarget::ALL {
            let a = derive(target);
            let b = derive(target);
            assert_eq!(a, b, "{name} selection for {target} not reproducible");
            assert_eq!(
                a.models().first().map(|m| m.scope()),
                Some(&ModelScope::Global),
                "{name} selection for {target} must fly the global model in slot 0"
            );
            debug.push_str(&format!("{a:?}"));
        }
        observed.push((name, fnv1a64(debug.as_bytes()), pinned));
    }
    for (name, digest, pinned) in &observed {
        assert_eq!(digest, pinned, "{name} selection drifted: {observed:x?}");
    }
}

#[test]
fn trace_export_is_byte_identical_at_any_worker_count() {
    // The trace exporter is just another Recorder fed through the same
    // tape-replay path as the summary recorder, so the Chrome trace JSON
    // — event order, modeled timestamps, thread lanes — must not depend
    // on the worker count.
    use kodan_telemetry::TraceBuilder;

    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 6,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let run = |workers: usize| {
        let mut tracer = TraceBuilder::new();
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, artifacts.engine.clone()).with_workers(workers);
        Mission::new(&env, &world, params).run_with_runtime_recorded(
            &runtime,
            SystemKind::Kodan,
            &mut tracer,
        );
        tracer.to_chrome_json()
    };
    let serial = run(1);
    assert!(serial.contains("\"traceEvents\""));
    assert!(serial.contains("\"cat\": \"runtime\""));
    // Pinned digest: the trace is the same bytes as when the mission,
    // planner and fleet each wrote their own frame path.
    assert_eq!(fnv1a64(serial.as_bytes()), 0x469c_57e0_dcfd_e03c, "trace drifted");
    for workers in [2, 4] {
        assert_eq!(
            serial.as_bytes(),
            run(workers).as_bytes(),
            "{workers}-worker trace diverged from serial"
        );
    }
}

#[test]
fn tape_replay_feeds_trace_export_identically() {
    // A TapeRecorder capture replayed into a TraceBuilder must produce
    // the same trace as recording live: the tape preserves the nested
    // span structure (frame -> classification/elision/model execution)
    // that the trace lanes are built from.
    use kodan_telemetry::{Recorder, TapeRecorder, TelemetryEvent, TraceBuilder};
    use kodan_telemetry::StageId;

    let mut live = TraceBuilder::new();
    let mut tape = TapeRecorder::new();
    for frame in 0..3u64 {
        for r in [&mut live as &mut dyn Recorder, &mut tape as &mut dyn Recorder] {
            r.event(TelemetryEvent::FrameCaptured { pixels: 100 + frame });
            r.span(StageId::Classification, 0.25, 36);
            r.span(StageId::ModelExecution, 0.5, 12);
            r.span(StageId::Frame, 1.0, 1);
        }
    }
    let mut replayed = TraceBuilder::new();
    tape.replay_into(&mut replayed);
    assert_eq!(
        live.to_chrome_json().as_bytes(),
        replayed.to_chrome_json().as_bytes(),
        "tape replay diverged from live trace capture"
    );
}

#[test]
fn black_box_reports_are_byte_identical_at_any_worker_count() {
    // Every degradation freezes a black-box window of the frames leading
    // up to it. Under a fault plan the set of degradations is a pure
    // function of (seed, site identity), so the whole black-box log —
    // report count, trigger kinds, captured event windows — must be
    // byte-identical at 1, 2 and 4 workers.
    use kodan_faults::{FaultConfig, FaultPlan};
    use kodan_telemetry::{open_blackbox, seal_blackbox, FlightRecorder};

    let dataset = small_dataset(1);
    let artifacts = Transformation::new(KodanConfig::fast(9))
        .run(&dataset, ModelArch::MobileNetV2DilatedC1)
        .expect("transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let world = World::new(42);
    let params = MissionParams {
        sample_frames: 6,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 1.0,
    };
    let run = |workers: usize| {
        let plan = FaultPlan::new(FaultConfig::nominal(99)).expect("nominal plan is valid");
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, artifacts.engine.clone())
            .with_workers(workers)
            .with_fault_plan(plan);
        let mut recorder = FlightRecorder::new(SummaryRecorder::new());
        Mission::new(&env, &world, params).run_with_runtime_recorded(
            &runtime,
            SystemKind::Kodan,
            &mut recorder,
        );
        (recorder.blackbox_json(), seal_blackbox(&recorder.log()))
    };
    let (json_1, wire_1) = run(1);
    // The plan actually fired, so the log is non-trivial.
    let log_1 = open_blackbox(&wire_1).expect("sealed log opens");
    assert!(
        !log_1.reports.is_empty(),
        "nominal plan produced no black-box reports over the mission"
    );
    // Pinned digest: the black-box log is the same bytes as when the
    // mission, planner and fleet each wrote their own frame path.
    assert_eq!(fnv1a64(json_1.as_bytes()), 0x723c_4f5f_d68b_2c38, "black-box log drifted");
    for workers in [2, 4] {
        let (json_n, wire_n) = run(workers);
        assert_eq!(
            json_1.as_bytes(),
            json_n.as_bytes(),
            "{workers}-worker black-box log diverged from serial"
        );
        assert_eq!(wire_1, wire_n, "{workers}-worker sealed black-box diverged");
    }
}

/// FNV-1a digest of every bit a frame carries: the channel values, the
/// truth cloud mask and the surface map.
fn frame_digest(frame: &kodan_geodata::FrameImage) -> u64 {
    let mut bytes = Vec::with_capacity(frame.channels().len() * 4 + frame.pixel_count() * 2);
    for value in frame.channels() {
        bytes.extend_from_slice(&value.to_bits().to_le_bytes());
    }
    bytes.extend(frame.truth_cloudy().iter().map(|&cloudy| u8::from(cloudy)));
    bytes.extend(frame.surface().iter().map(|s| s.index() as u8));
    fnv1a64(&bytes)
}

#[test]
fn rendered_frames_match_pinned_bits() {
    // The render kernel's output, pinned bit for bit: the default
    // 48-frame mission day at seed 42, plus 12 frames on each of three
    // phased orbits of the 24-satellite fleet. The set holds every
    // surface with a confuser branch (glint on ocean and wetland, dust
    // on desert, grain-size cirrus on snow), so a change to any noise
    // path shows here.
    use kodan_cote::constellation::Constellation;
    use kodan_geodata::SurfaceType;

    let world = World::new(42);
    let env = SpaceEnvironment::fixed(0.21);
    let mut frames = Mission::new(&env, &world, MissionParams::default_sampling()).sample_frames();
    let fleet = Constellation::same_plane(env.orbit, 24);
    let params = MissionParams {
        sample_frames: 12,
        ..MissionParams::default_sampling()
    };
    for sat in [5, 12, 19] {
        let phased = SpaceEnvironment {
            orbit: fleet.orbits()[sat],
            ..env.clone()
        };
        frames.extend(Mission::new(&phased, &world, params).sample_frames());
    }
    assert_eq!(frames.len(), 48 + 3 * 12);
    for surface in [
        SurfaceType::Ocean,
        SurfaceType::Wetland,
        SurfaceType::Desert,
        SurfaceType::Snow,
    ] {
        assert!(
            frames.iter().any(|f| f.surface().contains(&surface)),
            "no {surface} pixel in the pinned frames"
        );
    }
    let digests: Vec<u8> = frames
        .iter()
        .flat_map(|f| frame_digest(f).to_le_bytes())
        .collect();
    assert_eq!(
        fnv1a64(&digests),
        0xa9e5_d72c_25c8_0982,
        "rendered frames drifted"
    );
}

#[test]
fn space_segment_passes_match_pinned_bits() {
    // The contact kernel's output, pinned bit for bit: every served pass
    // and the total capacity of one day of the Landsat ground segment,
    // for a single satellite and for 24 same-plane satellites.
    use kodan_cote::constellation::Constellation;
    use kodan_cote::ground::GroundSegment;
    use kodan_cote::sim::simulate_space_segment;
    use kodan_cote::{Duration, Imager, Orbit};

    let digest = |satellites: usize| {
        let report = simulate_space_segment(
            &Constellation::same_plane(Orbit::sun_synchronous(705_000.0), satellites),
            &Imager::landsat_oli(),
            &GroundSegment::landsat(),
            Duration::from_days(1.0),
        );
        let mut text = format!("{:016x}\n", report.capacity_bits.to_bits());
        for pass in &report.passes {
            text.push_str(&format!(
                "{} {} {:016x} {:016x} {:016x}\n",
                pass.satellite,
                pass.station,
                pass.start.seconds_since_start().to_bits(),
                pass.end.seconds_since_start().to_bits(),
                pass.rate_bps.to_bits(),
            ));
        }
        (report.passes.len(), fnv1a64(text.as_bytes()))
    };
    assert_eq!(
        digest(1),
        (41, 0xe39f_84c5_882c_bf27),
        "single-satellite passes drifted"
    );
    assert_eq!(
        digest(24),
        (963, 0x6224_c10c_2807_797e),
        "24-satellite passes drifted"
    );
    // The environment a satellite derives from its share of that
    // segment: orbit, deadline, frames per day and capacity fraction.
    let environments =
        [1, 4, 24].map(|n| fnv1a64(format!("{:?}", SpaceEnvironment::landsat(n)).as_bytes()));
    assert_eq!(
        environments,
        [
            0xb530_5ded_fb56_a756,
            0x84d8_c3c3_1f86_0fb6,
            0x0175_3b20_e46a_44d0
        ],
        "Landsat environments drifted: {environments:x?}"
    );
}

#[test]
fn prediction_path_matches_pinned_bits() {
    // The tile -> resize -> features -> inference chain, pinned bit for
    // bit. Report pins see masks only as pixel counts, so a feature
    // change that flips no mask would pass them; this digest sees every
    // bit. Four frames of the default seed-42 mission day are tiled at
    // every paper grid (44, 33, 22 and 12 px tiles), featurized at every
    // zoo input resolution (the 2x and fractional area averages, the
    // copy and bilinear upscales), and classified by an f64 model and
    // its quantized copy of every architecture.
    use kodan::specialize::{tile_features, SpecializedModel};
    use kodan_geodata::tile::tile_frame;
    use kodan_ml::train::TrainConfig;

    let world = World::new(42);
    let env = SpaceEnvironment::fixed(0.21);
    let day = Mission::new(&env, &world, MissionParams::default_sampling()).sample_frames();
    let frames: Vec<_> = day.iter().step_by(12).take(4).collect();
    assert_eq!(frames.len(), 4);

    let mut digests: Vec<u8> = Vec::new();
    let mut push = |bytes: &[u8]| digests.extend_from_slice(&fnv1a64(bytes).to_le_bytes());
    let mut tiles = Vec::new();
    for frame in &frames {
        for grid in [3, 4, 6, 11] {
            tiles.extend(tile_frame(frame, grid));
        }
    }
    for tile in &tiles {
        let mut bytes: Vec<u8> = Vec::new();
        for value in tile.channels() {
            bytes.extend_from_slice(&value.to_bits().to_le_bytes());
        }
        bytes.extend(tile.truth_cloudy().iter().map(|&cloudy| u8::from(cloudy)));
        for fraction in tile.surface_fractions() {
            bytes.extend_from_slice(&fraction.to_bits().to_le_bytes());
        }
        bytes.extend_from_slice(&tile.cloud_fraction().to_bits().to_le_bytes());
        push(&bytes);
    }
    for tile in &tiles {
        for arch in ModelArch::ALL {
            let mut bytes: Vec<u8> = Vec::new();
            for value in tile_features(tile, arch.input_resolution()) {
                bytes.extend_from_slice(&value.to_bits().to_le_bytes());
            }
            push(&bytes);
        }
    }
    let train: Vec<_> = tiles.iter().filter(|t| t.size() == 33).cloned().collect();
    for arch in ModelArch::ALL {
        let model = SpecializedModel::train_global(&train, arch, 2_000, &TrainConfig::fast(7));
        let mut quantized = model.clone();
        quantized.quantize_in_place();
        for tile in &tiles {
            let mut bytes: Vec<u8> = model.predict_tile(tile).into_iter().map(u8::from).collect();
            bytes.extend(quantized.predict_tile(tile).into_iter().map(u8::from));
            push(&bytes);
        }
    }
    assert_eq!(
        fnv1a64(&digests),
        0x25b1_c796_1164_c467,
        "prediction path drifted"
    );
}
