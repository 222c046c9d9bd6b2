//! Telemetry overhead baseline: `Runtime::process_frames` with the
//! no-op `NullRecorder` vs the accumulating `SummaryRecorder` vs the
//! black-box `FlightRecorder` armed on top of it.
//!
//! The recorder contract promises that instrumentation is effectively
//! free when disabled and cheap when enabled (the runtime's cost is
//! dominated by tile featurization and model inference, not counter
//! bumps). This bench pins that promise to numbers and writes
//! `BENCH_telemetry_overhead.json` at the repo root so future PRs have an
//! overhead budget to compare against.

use criterion::Criterion;
use kodan::mission::SpaceEnvironment;
use kodan::runtime::Runtime;
use kodan_bench::{banner, bench_artifacts, bench_world};
use kodan_geodata::frame::FrameImage;
use kodan_hw::targets::HwTarget;
use kodan_ml::zoo::ModelArch;
use kodan_telemetry::{FlightRecorder, NullRecorder, SummaryRecorder};
use std::hint::black_box;
use std::time::Instant;

/// Frames timed per batch; small enough to keep the bench fast, large
/// enough that per-call dispatch noise averages out.
const BATCH_FRAMES: usize = 8;

fn sample_frames(world: &kodan_geodata::World) -> Vec<FrameImage> {
    (0..BATCH_FRAMES)
        .map(|i| world.render_frame(12.0 + i as f64, -71.0, 0.0, 132, 150.0))
        .collect()
}

/// Mean wall-clock seconds per `process_frames` batch over `reps` runs.
fn time_batch<F: FnMut() -> R, R>(reps: u32, mut body: F) -> f64 {
    for _ in 0..2 {
        black_box(body());
    }
    let start = Instant::now();
    for _ in 0..reps {
        black_box(body());
    }
    start.elapsed().as_secs_f64() / f64::from(reps)
}

fn main() {
    banner(
        "Telemetry overhead: NullRecorder vs SummaryRecorder",
        "Runtime::process_frames wall time, 8-frame batches (App 4, Orin 15W)",
    );
    let world = bench_world();
    let artifacts = bench_artifacts(ModelArch::ResNet50DilatedPpm);
    let env = SpaceEnvironment::landsat(1);
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let runtime = Runtime::new(logic, artifacts.engine.clone());
    let frames = sample_frames(&world);

    let mut criterion = Criterion::default();
    criterion.bench_function("process_frames_null_recorder", |b| {
        b.iter(|| runtime.process_frames(black_box(&frames), &mut NullRecorder))
    });
    criterion.bench_function("process_frames_summary_recorder", |b| {
        b.iter(|| {
            let mut recorder = SummaryRecorder::new();
            runtime.process_frames(black_box(&frames), &mut recorder)
        })
    });
    criterion.bench_function("process_frames_flight_recorder", |b| {
        b.iter(|| {
            let mut recorder = FlightRecorder::new(SummaryRecorder::new());
            runtime.process_frames(black_box(&frames), &mut recorder)
        })
    });

    // An independent fixed-rep measurement for the committed baseline
    // (the criterion shim prints but does not expose its timings).
    const REPS: u32 = 20;
    let null_s =
        time_batch(REPS, || runtime.process_frames(&frames, &mut NullRecorder));
    let summary_s = time_batch(REPS, || {
        let mut recorder = SummaryRecorder::new();
        runtime.process_frames(&frames, &mut recorder)
    });
    // The flight recorder keeps the summary underneath and adds the
    // per-frame ring-buffer maintenance on top — the worst-case armed
    // configuration (`kodan mission` flies with exactly this stack).
    let flight_s = time_batch(REPS, || {
        let mut recorder = FlightRecorder::new(SummaryRecorder::new());
        runtime.process_frames(&frames, &mut recorder)
    });
    let ratio = if null_s > 0.0 { summary_s / null_s } else { 0.0 };
    let flight_ratio = if null_s > 0.0 { flight_s / null_s } else { 0.0 };

    // One recorded batch, so the baseline pins the event volume the
    // overhead pays for.
    let mut recorder = SummaryRecorder::new();
    runtime.process_frames(&frames, &mut recorder);
    let snapshot = recorder.snapshot();

    let json = format!(
        "{{\n  \"bench\": \"telemetry_overhead\",\n  \"unit\": \"seconds_per_{BATCH_FRAMES}_frame_batch\",\n  \"reps\": {REPS},\n  \"null_recorder_s\": {null_s:.6},\n  \"summary_recorder_s\": {summary_s:.6},\n  \"flight_recorder_s\": {flight_s:.6},\n  \"overhead_ratio\": {ratio:.4},\n  \"flight_overhead_ratio\": {flight_ratio:.4},\n  \"events_per_batch\": {},\n  \"frames_per_batch\": {},\n  \"budget_note\": \"future PRs should keep overhead_ratio and flight_overhead_ratio under 1.10\"\n}}\n",
        snapshot.events, snapshot.frames
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_telemetry_overhead.json");
    std::fs::write(out, &json).expect("write BENCH_telemetry_overhead.json");
    println!();
    println!(
        "null {:.3} ms  summary {:.3} ms  flight {:.3} ms  ratios {:.3}/{:.3}  ({} events/batch)",
        null_s * 1e3,
        summary_s * 1e3,
        flight_s * 1e3,
        ratio,
        flight_ratio,
        snapshot.events
    );
    println!("baseline written to BENCH_telemetry_overhead.json");
}
