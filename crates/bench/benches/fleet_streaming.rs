//! Constellation-scale fleet streaming: bounded-memory spill aggregation,
//! measured end to end.
//!
//! Two lanes, both committed to `BENCH_fleet_streaming.json`:
//!
//! 1. **Acceptance** — a 24-satellite fleet day under a memtable budget
//!    far below its journal volume must spill (peak memtable <= budget
//!    while ingested bytes exceed it) and produce an identical
//!    `FleetReport` plus byte-identical telemetry JSON at 1, 2 and 4
//!    workers.
//! 2. **Throughput** — fleet-day wall time at 6, 12 and 24 satellites
//!    under the same fixed budget, so constellation scaling has a
//!    committed baseline.
//!
//! The JSON also carries the queue-pressure before/after of the one-pass
//! sorted-front eviction in `DownlinkQueue::push` (4000 pushes into
//! ~200 entries of storage: re-sort plus `remove(0)` per victim, against
//! the sorted eviction). That lane was measured once, when the eviction
//! landed, and is retired; its figures are frozen constants here, and
//! `crates/core/src/queue.rs` cites them.
//!
//! The fleet lanes fly a fast-transform runtime (small dataset, fast
//! config): the subject is the streaming combine and queue replay, not
//! inference throughput — the inference benches own that axis.

use criterion::Criterion;
use kodan::fleet::combine::JournalRecord;
use kodan::fleet::{Fleet, FleetConfig};
use kodan::mission::{MissionParams, SpaceEnvironment};
use kodan::pipeline::Transformation;
use kodan::runtime::Runtime;
use kodan::KodanConfig;
use kodan_bench::{banner, f, n, row, s, BENCH_SEED};
use kodan_geodata::{Dataset, DatasetConfig, World};
use kodan_hw::targets::HwTarget;
use kodan_ml::zoo::ModelArch;
use kodan_telemetry::SummaryRecorder;
use kodan_wire::ArtifactStore;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Wall-clock reps per fleet lane (a fleet day is the expensive unit).
const REPS: u32 = 3;

/// Memtable budget for every fleet lane: 4 journal records — a 6-sat
/// day already ingests several times this, so every lane spills.
const BUDGET: u64 = 4 * JournalRecord::ENCODED_BYTES;

/// Frozen queue-pressure figures, seconds per 4000-push overflow day:
/// the retired sort-plus-`remove(0)` eviction and the sorted one-pass
/// eviction that replaced it, as measured when the fix landed.
const FROZEN_PRESSURE_PUSHES: usize = 4_000;
const FROZEN_LEGACY_PUSH_S: f64 = 0.011805;
const FROZEN_SORTED_PUSH_S: f64 = 0.001755;
const FROZEN_PUSH_SPEEDUP: f64 = 6.73;

fn scratch_store(tag: &str) -> (PathBuf, ArtifactStore) {
    let dir = std::env::temp_dir().join(format!("kodan-bench-fleet-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    let store = ArtifactStore::create(&dir).expect("create scratch store");
    (dir, store)
}

fn fleet_runtime(world: &World) -> Runtime {
    let mut ds_cfg = DatasetConfig::small(1);
    ds_cfg.frame_count = 12;
    ds_cfg.frame_px = 132;
    let dataset = Dataset::sample(world, &ds_cfg);
    let artifacts = Transformation::new(KodanConfig::fast(3))
        .run(&dataset, ModelArch::ResNet50DilatedPpm)
        .expect("bench transformation succeeds");
    let env = SpaceEnvironment::fixed(0.21);
    let logic = artifacts.select_with_capacity(
        HwTarget::OrinAgx15W,
        env.frame_deadline,
        env.capacity_fraction,
    );
    Runtime::new(logic, artifacts.engine.clone())
}

fn fleet_params() -> MissionParams {
    MissionParams {
        sample_frames: 8,
        frame_px: 132,
        frame_km: 150.0,
        sample_window_days: 2.0,
    }
}

/// Mean wall-clock seconds per call over `reps` runs (1 warmup call).
fn time_runs<F: FnMut() -> R, R>(reps: u32, mut body: F) -> f64 {
    black_box(body());
    let start = Instant::now();
    for _ in 0..reps {
        black_box(body());
    }
    start.elapsed().as_secs_f64() / f64::from(reps)
}

fn main() {
    banner(
        "Fleet streaming: spill aggregation and scaling",
        "24-sat byte-identity + spill, fleet-day wall time vs size",
    );
    let world = World::new(BENCH_SEED);
    let runtime = fleet_runtime(&world);
    let params = fleet_params();

    // Lane 1: acceptance. One fleet day per worker count, reports and
    // telemetry compared against the serial run.
    let fly = |satellites: usize, workers: usize, tag: &str| {
        let (dir, store) = scratch_store(tag);
        let config = FleetConfig {
            satellites,
            memtable_budget: BUDGET,
            workers,
            ..FleetConfig::default_fleet()
        };
        let mut recorder = SummaryRecorder::new();
        let report = Fleet::new(&world, &runtime, params, config)
            .run_recorded(&store, &mut recorder)
            .expect("fleet run succeeds");
        std::fs::remove_dir_all(&dir).ok();
        (report, recorder.snapshot().to_json())
    };
    let (report_1w, json_1w) = fly(24, 1, "acc-w1");
    let mut byte_identical = true;
    for workers in [2usize, 4] {
        let (report, json) = fly(24, workers, &format!("acc-w{workers}"));
        byte_identical &= report == report_1w && json.as_bytes() == json_1w.as_bytes();
    }
    assert!(byte_identical, "fleet outputs diverged across worker counts");
    assert!(report_1w.spill.runs > 0, "budget must force spilling");
    assert!(report_1w.spill.peak_memtable_bytes <= BUDGET);
    assert!(
        report_1w.spill.ingested_bytes > BUDGET,
        "journal volume must exceed the memtable budget"
    );

    // Lane 2: fleet-day wall time vs constellation size.
    let mut criterion = Criterion::default();
    let sizes = [6usize, 12, 24];
    let mut walls = [0.0f64; 3];
    let mut spill_runs = [0u64; 3];
    let mut spilled_bytes = [0u64; 3];
    let mut ingested = [0u64; 3];
    row(&[s("satellites"), s("wall s"), s("spill runs"), s("spilled B"), s("ingested B")]);
    for (lane, &satellites) in sizes.iter().enumerate() {
        criterion.bench_function(&format!("fleet_day_{satellites}sat"), |b| {
            b.iter(|| fly(black_box(satellites), 0, "crit"))
        });
        walls[lane] = time_runs(REPS, || fly(satellites, 0, "wall"));
        let (report, _) = fly(satellites, 0, "stats");
        spill_runs[lane] = report.spill.runs;
        spilled_bytes[lane] = report.spill.spilled_bytes;
        ingested[lane] = report.spill.ingested_bytes;
        row(&[
            n(satellites as u64),
            f(walls[lane]),
            n(spill_runs[lane]),
            n(spilled_bytes[lane]),
            n(ingested[lane]),
        ]);
    }

    let json = format!(
        "{{\n  \"bench\": \"fleet_streaming\",\n  \"unit\": \"seconds_per_fleet_day\",\n  \"reps\": {REPS},\n  \"memtable_budget_bytes\": {BUDGET},\n  \"outputs_byte_identical_1_2_4_workers\": {byte_identical},\n  \"spill_runs_24sat\": {},\n  \"spill_peak_memtable_bytes_24sat\": {},\n  \"spill_ingested_bytes_24sat\": {},\n  \"fleet_day_6sat_s\": {:.6},\n  \"fleet_day_12sat_s\": {:.6},\n  \"fleet_day_24sat_s\": {:.6},\n  \"spill_runs\": [{}, {}, {}],\n  \"spilled_bytes\": [{}, {}, {}],\n  \"ingested_bytes\": [{}, {}, {}],\n  \"queue_pressure_pushes\": {FROZEN_PRESSURE_PUSHES},\n  \"queue_pressure_legacy_push_s\": {FROZEN_LEGACY_PUSH_S:.6},\n  \"queue_pressure_sorted_push_s\": {FROZEN_SORTED_PUSH_S:.6},\n  \"queue_pressure_speedup\": {FROZEN_PUSH_SPEEDUP:.2},\n  \"queue_pressure_frozen\": true,\n  \"note\": \"fleet lanes fly a fast-transform runtime: the subject is the bounded-memory spill combine and queue replay, not inference throughput. queue_pressure_* are frozen figures, not re-measured: the pre-fix sort+remove(0) overflow eviction against the sorted one-pass eviction under sustained overflow, measured once when the fix landed; that lane is retired.\"\n}}\n",
        report_1w.spill.runs,
        report_1w.spill.peak_memtable_bytes,
        report_1w.spill.ingested_bytes,
        walls[0],
        walls[1],
        walls[2],
        spill_runs[0],
        spill_runs[1],
        spill_runs[2],
        spilled_bytes[0],
        spilled_bytes[1],
        spilled_bytes[2],
        ingested[0],
        ingested[1],
        ingested[2],
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet_streaming.json");
    std::fs::write(out, &json).expect("write BENCH_fleet_streaming.json");
    println!("baseline written to BENCH_fleet_streaming.json");
}
