//! Fault resilience: data value density under an increasingly hostile
//! fault environment.
//!
//! Sweeps [`FaultConfig::scaled`] intensity from 0 (clean) to 1 (the
//! nominal hostile regime) and flies the same mission day under each
//! plan, with the degradation policies armed: checksum-validated model
//! fallback, bounded classify retries with raw-downlink exhaustion, and
//! value-aware queue shedding when contacts shrink. Writes
//! `BENCH_fault_resilience.json` at the repo root.
//!
//! Two invariants are pinned alongside the DVD curve: an inactive plan is
//! bit-identical to a disarmed runtime, and the fully hostile mission is
//! byte-identical across worker counts (fault decisions key on frame and
//! contact indices, never thread order).

use kodan::mission::{Mission, SpaceEnvironment, SystemKind};
use kodan::runtime::Runtime;
use kodan_bench::{banner, bench_artifacts, bench_mission_params, bench_world, f, row, s};
use kodan_cote::sim::ServedPass;
use kodan_cote::time::{Duration, Epoch};
use kodan_faults::{FaultConfig, FaultPlan};
use kodan_hw::targets::HwTarget;
use kodan_ml::zoo::ModelArch;
use kodan_telemetry::{CounterId, SummaryRecorder};

/// Master seed for every fault plan in the sweep.
const FAULT_SEED: u64 = 42;

/// The swept fault intensities (0 = clean, 1 = nominal hostile).
const INTENSITIES: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

/// On-board storage for the queue replay, in pixels.
const STORAGE_PX: f64 = 4.0e8;

/// Encoded size of a queued pixel.
const BITS_PER_PX: f64 = 100.0;

/// A day of synthetic ground passes for the queue replay: one 8-minute
/// contact roughly every orbit.
fn day_of_passes() -> Vec<ServedPass> {
    (0..15)
        .map(|i| {
            let start = Epoch::mission_start() + Duration::from_minutes(95.0 * i as f64);
            ServedPass {
                satellite: 0,
                station: 0,
                start,
                end: start + Duration::from_minutes(8.0),
                rate_bps: 2.0e8,
            }
        })
        .collect()
}

struct Arm {
    intensity: f64,
    dvd: f64,
    sent_px: f64,
    shed_px: f64,
    contacts_dropped: u64,
    seu_injected: u64,
    model_fallbacks: u64,
    classify_exhausted: u64,
    slowdown_frames: u64,
}

fn main() {
    banner(
        "Fault resilience: DVD vs fault intensity",
        "Kodan mission day under FaultConfig::scaled sweeps (App 4, Orin 15W)",
    );
    let world = bench_world();
    let artifacts = bench_artifacts(ModelArch::ResNet50DilatedPpm);
    let env = SpaceEnvironment::landsat(1);
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let mission = Mission::new(&env, &world, bench_mission_params());
    let passes = day_of_passes();

    let fly = |intensity: f64, workers: usize| {
        let plan = FaultPlan::new(FaultConfig::scaled(FAULT_SEED, intensity))
            .expect("scaled config is valid");
        let runtime = Runtime::new(logic.clone(), artifacts.engine.clone())
            .with_workers(workers)
            .with_fault_plan(plan.clone());
        let mut recorder = SummaryRecorder::new();
        let report = mission.run_with_runtime_recorded(&runtime, SystemKind::Kodan, &mut recorder);
        let detailed = mission.run_detailed_faulted(
            &runtime,
            &passes,
            STORAGE_PX,
            BITS_PER_PX,
            Some(&plan),
            &mut recorder,
        )
        .expect("valid replay inputs");
        (report, detailed, recorder.snapshot())
    };

    // Invariant 1: an inactive plan is bit-identical to a disarmed runtime.
    let disarmed = Runtime::new(logic.clone(), artifacts.engine.clone());
    let clean_report = mission.run_with_runtime(&disarmed, SystemKind::Kodan);
    let (zero_report, _, _) = fly(0.0, 0);
    assert_eq!(
        clean_report, zero_report,
        "intensity-0 plan must not perturb the clean mission"
    );

    // Invariant 2: the hostile mission is byte-identical at any worker
    // count.
    let (hostile_report, hostile_detailed, hostile_snapshot) = fly(1.0, 1);
    let hostile_json = hostile_snapshot.to_json();
    let mut outputs_identical = true;
    for workers in [2usize, 4] {
        let (report, detailed, snapshot) = fly(1.0, workers);
        outputs_identical &= report == hostile_report
            && detailed == hostile_detailed
            && snapshot.to_json().as_bytes() == hostile_json.as_bytes();
    }
    assert!(outputs_identical, "faulted outputs diverged across workers");

    row(&[
        s("intensity"),
        s("dvd"),
        s("sent_Mpx"),
        s("shed_Mpx"),
        s("dropped"),
        s("seu"),
        s("fallbacks"),
        s("exhausted"),
    ]);
    let arms: Vec<Arm> = INTENSITIES
        .iter()
        .map(|&intensity| {
            let (report, detailed, snapshot) = fly(intensity, 0);
            let arm = Arm {
                intensity,
                dvd: report.dvd,
                sent_px: detailed.sent_px,
                shed_px: detailed.shed_px,
                contacts_dropped: detailed.contacts_dropped,
                seu_injected: snapshot.counter(CounterId::FaultSeuInjected),
                model_fallbacks: snapshot.counter(CounterId::ModelFallbacks),
                classify_exhausted: snapshot.counter(CounterId::FaultClassifyExhausted),
                slowdown_frames: snapshot.counter(CounterId::FaultSlowdownFrames),
            };
            row(&[
                f(arm.intensity),
                f(arm.dvd),
                f(arm.sent_px / 1e6),
                f(arm.shed_px / 1e6),
                arm.contacts_dropped.to_string(),
                arm.seu_injected.to_string(),
                arm.model_fallbacks.to_string(),
                arm.classify_exhausted.to_string(),
            ]);
            arm
        })
        .collect();

    let clean = &arms[0];
    let hostile = arms.last().expect("sweep is non-empty");
    assert!(
        hostile.seu_injected > 0 && hostile.model_fallbacks > 0,
        "the nominal regime must actually inject and recover"
    );
    for arm in &arms {
        assert!(
            (0.0..=1.0).contains(&arm.dvd),
            "dvd {} out of range at intensity {}",
            arm.dvd,
            arm.intensity
        );
    }

    let rows: Vec<String> = arms
        .iter()
        .map(|a| {
            format!(
                "    {{ \"intensity\": {:.2}, \"dvd\": {:.4}, \"sent_px\": {:.1}, \"shed_px\": {:.1}, \"contacts_dropped\": {}, \"seu_injected\": {}, \"model_fallbacks\": {}, \"classify_exhausted\": {}, \"slowdown_frames\": {} }}",
                a.intensity,
                a.dvd,
                a.sent_px,
                a.shed_px,
                a.contacts_dropped,
                a.seu_injected,
                a.model_fallbacks,
                a.classify_exhausted,
                a.slowdown_frames,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"fault_resilience\",\n  \"fault_seed\": {FAULT_SEED},\n  \"app\": \"app4_resnet50_dilated_ppm\",\n  \"target\": \"orin_agx_15w\",\n  \"clean_dvd\": {:.4},\n  \"hostile_dvd\": {:.4},\n  \"dvd_retained_fraction\": {:.4},\n  \"outputs_byte_identical_across_workers\": {outputs_identical},\n  \"sweep\": [\n{}\n  ],\n  \"note\": \"DVD of the same mission day as FaultConfig::scaled intensity rises from clean to the nominal hostile regime, with checksum fallback, bounded retries and value-aware shedding armed\"\n}}\n",
        clean.dvd,
        hostile.dvd,
        if clean.dvd > 0.0 { hostile.dvd / clean.dvd } else { 0.0 },
        rows.join(",\n"),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fault_resilience.json");
    std::fs::write(out, &json).expect("write BENCH_fault_resilience.json");
    println!();
    println!(
        "clean dvd {:.3} -> hostile dvd {:.3} ({} upsets, {} fallbacks, {} exhausted tiles, {} slow frames)",
        clean.dvd,
        hostile.dvd,
        hostile.seu_injected,
        hostile.model_fallbacks,
        hostile.classify_exhausted,
        hostile.slowdown_frames,
    );
    println!("baseline written to BENCH_fault_resilience.json");
    assert!(
        hostile.dvd > 0.0,
        "degradation policies must keep the mission producing value under nominal faults"
    );
}
