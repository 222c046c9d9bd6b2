//! Constellation-scale fleet streaming: bounded-memory spill aggregation
//! and the downlink-queue eviction fix, measured end to end.
//!
//! Three lanes, all committed to `BENCH_fleet_streaming.json`:
//!
//! 1. **Acceptance** — a 24-satellite fleet day under a memtable budget
//!    far below its journal volume must spill (peak memtable <= budget
//!    while ingested bytes exceed it) and produce an identical
//!    `FleetReport` plus byte-identical telemetry JSON at 1, 2 and 4
//!    workers.
//! 2. **Throughput** — fleet-day wall time at 6, 12 and 24 satellites
//!    under the same fixed budget, so constellation scaling has a
//!    committed baseline.
//! 3. **Queue pressure** — the one-pass sorted-front eviction in
//!    `DownlinkQueue::push` against the previous implementation
//!    (re-sort the whole queue, then `remove(0)` per victim — O(n² log n)
//!    over a sustained-overflow day), reproduced here verbatim so the
//!    before/after is measured, not remembered. `crates/core/src/queue.rs`
//!    cites this lane.
//!
//! The fleet lanes fly a fast-transform runtime (small dataset, fast
//! config): the subject is the streaming combine and queue replay, not
//! inference throughput — the inference benches own that axis.

use criterion::Criterion;
use kodan::fleet::combine::JournalRecord;
use kodan::fleet::{Fleet, FleetConfig};
use kodan::mission::{MissionParams, SpaceEnvironment};
use kodan::pipeline::Transformation;
use kodan::queue::{DownlinkQueue, QueueEntry};
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

/// The pre-fix `DownlinkQueue::push`, reproduced for the before/after:
/// entries kept unsorted, every overflow re-sorts the whole queue and
/// `remove(0)`s per victim — O(n log n) sort plus O(n) shift per push
/// under sustained overflow.
struct LegacyQueue {
    storage_bits: f64,
    entries: Vec<QueueEntry>,
    occupied_bits: f64,
    dropped_bits: f64,
}

impl LegacyQueue {
    fn new(storage_bits: f64) -> LegacyQueue {
        LegacyQueue {
            storage_bits,
            entries: Vec::new(),
            occupied_bits: 0.0,
            dropped_bits: 0.0,
        }
    }

    fn push(&mut self, entry: QueueEntry) {
        if entry.bits <= 0.0 {
            return;
        }
        self.entries.push(entry);
        self.occupied_bits += entry.bits;
        if self.occupied_bits > self.storage_bits {
            self.entries
                .sort_by(|a, b| a.density().total_cmp(&b.density()));
            while self.occupied_bits > self.storage_bits && !self.entries.is_empty() {
                let victim = self.entries.remove(0);
                self.occupied_bits -= victim.bits;
                self.dropped_bits += victim.bits;
            }
        }
    }
}

/// A sustained-overflow workload: storage holds ~`capacity` entries and
/// `total` entries arrive, so almost every push evicts.
fn pressure_entries(total: usize) -> Vec<QueueEntry> {
    (0..total)
        .map(|i| {
            let bits = 60.0 + (i % 13) as f64 * 7.0;
            let density = 0.05 + 0.9 * ((i % 97) as f64 / 97.0);
            QueueEntry::new(bits, bits * density).expect("bench entry is valid")
        })
        .collect()
}

fn main() {
    banner(
        "Fleet streaming: spill aggregation, scaling and queue pressure",
        "24-sat byte-identity + spill, fleet-day wall time vs size, push eviction before/after",
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

    // Lane 3: queue pressure. Sustained overflow — storage holds ~200
    // entries, 4000 arrive — times the pre-fix sort+remove(0) push
    // against the sorted one-pass eviction now in DownlinkQueue.
    const PRESSURE_TOTAL: usize = 4_000;
    const PRESSURE_STORAGE: f64 = 200.0 * 90.0;
    let entries = pressure_entries(PRESSURE_TOTAL);
    let legacy_s = time_runs(REPS, || {
        let mut q = LegacyQueue::new(PRESSURE_STORAGE);
        for e in &entries {
            q.push(*e);
        }
        (q.occupied_bits, q.dropped_bits)
    });
    let sorted_s = time_runs(REPS, || {
        let mut q = DownlinkQueue::new(PRESSURE_STORAGE);
        for e in &entries {
            q.push(*e);
        }
        (q.occupied_bits(), q.dropped_bits())
    });
    let push_speedup = if sorted_s > 0.0 { legacy_s / sorted_s } else { 0.0 };
    println!();
    println!(
        "queue pressure ({PRESSURE_TOTAL} pushes, ~200-entry storage): \
         legacy {:.1} ms, sorted {:.1} ms ({push_speedup:.1}x)",
        legacy_s * 1e3,
        sorted_s * 1e3,
    );
    assert!(
        push_speedup > 1.0,
        "one-pass eviction must beat sort+remove(0), got {push_speedup:.2}x"
    );

    let json = format!(
        "{{\n  \"bench\": \"fleet_streaming\",\n  \"unit\": \"seconds_per_fleet_day\",\n  \"reps\": {REPS},\n  \"memtable_budget_bytes\": {BUDGET},\n  \"outputs_byte_identical_1_2_4_workers\": {byte_identical},\n  \"spill_runs_24sat\": {},\n  \"spill_peak_memtable_bytes_24sat\": {},\n  \"spill_ingested_bytes_24sat\": {},\n  \"fleet_day_6sat_s\": {:.6},\n  \"fleet_day_12sat_s\": {:.6},\n  \"fleet_day_24sat_s\": {:.6},\n  \"spill_runs\": [{}, {}, {}],\n  \"spilled_bytes\": [{}, {}, {}],\n  \"ingested_bytes\": [{}, {}, {}],\n  \"queue_pressure_pushes\": {PRESSURE_TOTAL},\n  \"queue_pressure_legacy_push_s\": {legacy_s:.6},\n  \"queue_pressure_sorted_push_s\": {sorted_s:.6},\n  \"queue_pressure_speedup\": {push_speedup:.2},\n  \"note\": \"fleet lanes fly a fast-transform runtime: the subject is the bounded-memory spill combine and queue replay, not inference throughput. queue_pressure compares the pre-fix sort+remove(0) overflow eviction (reproduced in this bench) against the sorted one-pass eviction under sustained overflow.\"\n}}\n",
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
