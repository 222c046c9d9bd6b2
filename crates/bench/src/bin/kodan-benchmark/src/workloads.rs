//! The four workloads: set-up, one timed iteration, and output checks.
//!
//! Each workload flies what one CLI surface does after the one-time
//! transformation, through the public API only:
//!
//! - `mission_day` — `kodan mission`: bent pipe, direct deploy and Kodan
//!   over one sampled day. Frame rendering dominates, so a frame
//!   synthesis change shows here and a runtime change should not.
//! - `planned_day` — `kodan plan`: the auto, all-on-orbit and
//!   all-downlink-raw placements. Same render load, but the runtime
//!   runs twice per frame and takes the planned raw path.
//! - `fleet_day` — `kodan fleet`: the space-segment simulation, the
//!   per-satellite parallel axis, queue replay and spill writes.
//! - `onorbit_stream` — the `--load-artifacts` path: quantized artifacts
//!   sealed and loaded once, then frames streamed through
//!   `Runtime::process_frame_indexed`. Nothing renders while timed, so
//!   this is the one workload where a runtime change shows.
//!
//! The artifacts are trained on [`TRAIN_SEED`] in every run: the
//! program under test is one deployed artifact set, and `--seed` changes
//! only what it observes. Day iteration `k` flies `World::new(seed + k)`,
//! so no result carries over from one iteration to the next. The stream
//! flies the day `kodan mission --load-artifacts` flies (the training
//! seed's world), starting at a seed-chosen capture: its per-frame cost
//! depends so much on frame content that a 48-frame day of a
//! seed-chosen world would measure the world, not the runtime.

use crate::replay::{fold, replay_runtime};
use crate::trace::{Kind, Tracer};
use kodan::artifact::{load_artifacts, save_artifacts};
use kodan::config::KodanConfig;
use kodan::dvd::DownlinkAccounting;
use kodan::engine::ContextEngine;
use kodan::fleet::{Fleet, FleetConfig};
use kodan::mission::{Mission, MissionParams, MissionReport, SpaceEnvironment, SystemKind};
use kodan::pipeline::{Transformation, TransformationArtifacts};
use kodan::runtime::{FrameOutcome, Runtime};
use kodan::selection::SelectionLogic;
use kodan::{ExecutionPlanner, PlanConfig, PlanMode};
use kodan_cote::constellation::Constellation;
use kodan_cote::ground::GroundSegment;
use kodan_cote::sim::simulate_space_segment;
use kodan_cote::{Duration, Imager, Orbit};
use kodan_geodata::tile::tile_frame;
use kodan_geodata::{Dataset, DatasetConfig, FrameImage, World};
use kodan_hw::HwTarget;
use kodan_ml::ModelArch;
use kodan_telemetry::{FlightRecorder, NullRecorder, Recorder, SummaryRecorder};
use kodan_wire::ArtifactStore;
use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["mission_day", "planned_day", "fleet_day", "onorbit_stream"];

/// The CLI defaults every workload flies: application 4 on the Orin,
/// trained on the default seed.
const APP: ModelArch = ModelArch::ResNet50DilatedPpm;
const TARGET: HwTarget = HwTarget::OrinAgx15W;
const TRAIN_SEED: u64 = 42;

/// Fleet combiner memtable budget: four 72-byte journal records, so a
/// 24-satellite day spills hundreds of runs through the store.
const MEMTABLE_BUDGET: u64 = 288;

/// Least share of pixels on which a quantized model's mask must agree
/// with its f64 reference: the repository's accuracy-retention budget
/// for the fixed-point path.
const MIN_MASK_AGREEMENT: f64 = 0.99;

/// One printed `name value unit` line.
pub type Line = (String, f64, &'static str);

/// The sizes a run flies at.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Representative-dataset frames the transformation trains on.
    pub dataset_frames: usize,
    /// Sampled frames of a mission or planned day.
    pub sample_frames: usize,
    /// Satellites of the fleet day.
    pub satellites: usize,
    /// Sampled frames per fleet satellite.
    pub fleet_frames: usize,
    /// Frames per on-orbit stream iteration.
    pub batch_frames: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Iterations every timed run makes however short `--seconds` is;
    /// `dvd` averages exactly these, so it repeats for a given seed.
    pub min_iters: usize,
}

impl Scale {
    /// The benchmark's sizes. The fleet flies 12 sampled frames per
    /// satellite (the CLI flies 48) so a run holds several fleet days;
    /// the space segment, passes and spill runs are those of the full
    /// 24-satellite day.
    pub const FULL: Scale = Scale {
        dataset_frames: 32,
        sample_frames: 48,
        satellites: 24,
        fleet_frames: 12,
        batch_frames: 1000,
        setups: 3,
        min_iters: 3,
    };
}

/// What one iteration produced.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Debug rendering of every report the iteration returned; the
    /// traced run must reproduce it bit for bit.
    pub digest: String,
    /// Operations attempted: 1, or one per frame call on the stream.
    pub ops: u64,
    /// Operations that failed an output check or panicked.
    pub failed: u64,
    /// Frames flown through the data path.
    pub frames: u64,
    /// The workload's headline data value density.
    pub dvd: f64,
    /// Output-check failures.
    pub violations: Vec<String>,
    /// Wall latency of each frame call, ms (stream only).
    pub frame_ms: Vec<f64>,
    /// Modeled mean Kodan frame time, s (mission day only).
    pub modeled_frame_s: Option<f64>,
}

impl Iteration {
    /// A one-operation iteration, failed when any check failed.
    fn single(digest: String, frames: u64, dvd: f64, violations: Vec<String>) -> Iteration {
        Iteration {
            digest,
            ops: 1,
            failed: u64::from(!violations.is_empty()),
            frames,
            dvd,
            violations,
            ..Iteration::default()
        }
    }
}

/// A benchmark workload after set-up.
pub trait Workload {
    /// Operations one iteration attempts.
    fn ops(&self) -> u64 {
        1
    }

    /// Worker threads the timed iterations use, given the host's.
    fn workers(&self, available: usize) -> usize {
        available
    }

    /// Flies iteration `k` with `workers` threads. With an enabled
    /// tracer, every public call is a surface span followed by its
    /// layer replays.
    ///
    /// # Errors
    ///
    /// Fails when a call returns an error or a layer replay disagrees
    /// with the surface it re-measures.
    fn iterate(&self, k: u64, workers: usize, tr: &mut Tracer) -> Result<Iteration, String>;

    /// Output checks made once, after the timed iterations; what they
    /// measure goes to `info`.
    fn final_checks(&self, _info: &mut Vec<Line>) -> Vec<String> {
        Vec::new()
    }
}

/// Builds workload `name`, recording set-up spans on `tr`.
///
/// # Errors
///
/// Fails for an unknown workload or when set-up fails.
pub fn setup(
    name: &str,
    seed: u64,
    scale: &Scale,
    scratch: &Path,
    tr: &mut Tracer,
) -> Result<Box<dyn Workload>, String> {
    let params = MissionParams {
        sample_frames: scale.sample_frames,
        ..MissionParams::default()
    };
    Ok(match name {
        "mission_day" => {
            let artifacts = transform(scale, false, tr)?;
            let env = landsat_env(tr);
            let (_, kodan) = tr.root(Kind::Setup, "core.selection", || {
                artifacts.select_with_capacity(TARGET, env.frame_deadline, env.capacity_fraction)
            });
            let (_, direct) = tr.root(Kind::Setup, "core.selection", || {
                SelectionLogic::direct_deploy(
                    &artifacts,
                    TARGET,
                    env.frame_deadline,
                    env.capacity_fraction,
                )
            });
            Box::new(MissionDay {
                seed,
                params,
                env,
                artifacts,
                kodan,
                direct,
            })
        }
        "planned_day" => {
            let artifacts = transform(scale, false, tr)?;
            let env = landsat_env(tr);
            let (_, logic) = tr.root(Kind::Setup, "core.selection", || {
                artifacts.select_with_capacity(TARGET, env.frame_deadline, env.capacity_fraction)
            });
            Box::new(PlannedDay {
                seed,
                params,
                env,
                artifacts,
                logic,
            })
        }
        "fleet_day" => Box::new(FleetDay {
            seed,
            params: MissionParams {
                sample_frames: scale.fleet_frames,
                ..MissionParams::default()
            },
            satellites: scale.satellites,
            artifacts: transform(scale, false, tr)?,
            spill: scratch.join("spill"),
        }),
        "onorbit_stream" => Box::new(Stream::setup(seed, scale, params, scratch, tr)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// The ground-side transformation as `kodan transform` runs it.
fn transform(
    scale: &Scale,
    quantize: bool,
    tr: &mut Tracer,
) -> Result<TransformationArtifacts, String> {
    let world = World::new(TRAIN_SEED);
    let mut dataset_config = DatasetConfig::evaluation(TRAIN_SEED);
    dataset_config.frame_count = scale.dataset_frames;
    let (id, dataset) = tr.root(Kind::Setup, "geodata.dataset", || {
        Dataset::sample(&world, &dataset_config)
    });
    tr.set_items(id, dataset.len());
    let mut config = KodanConfig::evaluation(TRAIN_SEED);
    config.max_train_pixels = 8_000;
    config.max_eval_tiles = 240;
    config.train.epochs = 40;
    config.quantize = quantize;
    let (_, artifacts) = tr.root(Kind::Setup, "core.pipeline", || {
        Transformation::new(config).run_recorded(&dataset, APP, &mut SummaryRecorder::new())
    });
    artifacts.map_err(|e| format!("transformation failed: {e}"))
}

/// The one-satellite Landsat environment (one space-segment simulation).
fn landsat_env(tr: &mut Tracer) -> SpaceEnvironment {
    tr.root(Kind::Setup, "cote.sim", || SpaceEnvironment::landsat(1))
        .1
}

/// `value ≤ sent ≤ observed` and a DVD in `[0, 1]`.
pub fn check_accounting(
    label: &str,
    value: f64,
    sent: f64,
    observed: f64,
    dvd: f64,
) -> Option<String> {
    let holds = (0.0..=sent).contains(&value) && sent <= observed && (0.0..=1.0).contains(&dvd);
    (!holds).then(|| {
        format!("{label}: expected value {value} ≤ sent {sent} ≤ observed {observed} and dvd {dvd} in [0, 1]")
    })
}

fn check_report(label: &str, r: &MissionReport) -> Option<String> {
    let a = &r.accounting;
    check_accounting(
        label,
        a.downlinked_value_px(),
        a.downlinked_px(),
        a.observed_px,
        r.dvd,
    )
}

/// Renders the frames a mission surface consumed and replays its
/// runtime on them (`recorded`: the surface fed a recorder); the
/// replayed mean modeled frame time must equal the report's.
fn replay_mission(
    tr: &mut Tracer,
    surface: usize,
    mission: &Mission<'_>,
    runtime: &Runtime,
    engine: &ContextEngine,
    report: &MissionReport,
    recorded: bool,
) -> Result<(), String> {
    let (id, frames) = tr.child(surface, "geodata.render", || mission.sample_frames());
    tr.set_items(id, frames.len());
    let refs: Vec<&FrameImage> = frames.iter().collect();
    let outcomes = replay_runtime(tr, surface, runtime, engine, &refs, |i| i as u64, recorded)?;
    if fold(&outcomes).1 != report.mean_frame_time {
        return Err(format!(
            "{} replay disagrees with its mission report",
            report.system
        ));
    }
    Ok(())
}

struct MissionDay {
    seed: u64,
    params: MissionParams,
    env: SpaceEnvironment,
    artifacts: TransformationArtifacts,
    kodan: SelectionLogic,
    direct: SelectionLogic,
}

impl Workload for MissionDay {
    fn iterate(&self, k: u64, workers: usize, tr: &mut Tracer) -> Result<Iteration, String> {
        let world = World::new(self.seed.wrapping_add(k));
        let mission = Mission::new(&self.env, &world, self.params);
        let engine = &self.artifacts.engine;

        let (id, bent) = tr.root(Kind::Surface, "Mission::run_bent_pipe", || {
            mission.run_bent_pipe()
        });
        if tr.enabled() {
            let (render, frames) = tr.child(id, "geodata.render", || mission.sample_frames());
            tr.set_items(render, frames.len());
        }

        let direct_rt = Runtime::new(self.direct.clone(), engine.clone()).with_workers(workers);
        let (id, direct) = tr.root(Kind::Surface, "Mission::run_with_runtime", || {
            mission.run_with_runtime(&direct_rt, SystemKind::DirectDeploy)
        });
        if tr.enabled() {
            replay_mission(tr, id, &mission, &direct_rt, engine, &direct, false)?;
        }

        let kodan_rt = Runtime::new(self.kodan.clone(), engine.clone()).with_workers(workers);
        let mut recorder = FlightRecorder::new(SummaryRecorder::new());
        let (id, kodan) = tr.root(Kind::Surface, "Mission::run_with_runtime_recorded", || {
            mission.run_with_runtime_recorded(&kodan_rt, SystemKind::Kodan, &mut recorder)
        });
        if tr.enabled() {
            replay_mission(tr, id, &mission, &kodan_rt, engine, &kodan, true)?;
        }

        let mut violations: Vec<String> = [
            check_report("bent pipe", &bent),
            check_report("direct deploy", &direct),
            check_report("kodan", &kodan),
        ]
        .into_iter()
        .flatten()
        .collect();
        if kodan.dvd <= bent.dvd {
            violations.push(format!(
                "kodan dvd {} does not beat bent pipe {}",
                kodan.dvd, bent.dvd
            ));
        }
        let frames = 3 * self.params.sample_frames as u64;
        let mut it = Iteration::single(
            format!("{bent:?}{direct:?}{kodan:?}"),
            frames,
            kodan.dvd,
            violations,
        );
        it.modeled_frame_s = Some(kodan.mean_frame_time.as_seconds());
        Ok(it)
    }
}

struct PlannedDay {
    seed: u64,
    params: MissionParams,
    env: SpaceEnvironment,
    artifacts: TransformationArtifacts,
    logic: SelectionLogic,
}

impl Workload for PlannedDay {
    fn iterate(&self, k: u64, workers: usize, tr: &mut Tracer) -> Result<Iteration, String> {
        let world = World::new(self.seed.wrapping_add(k));
        let mission = Mission::new(&self.env, &world, self.params);
        let engine = &self.artifacts.engine;
        let runtime = Runtime::new(self.logic.clone(), engine.clone()).with_workers(workers);

        let mut reports = Vec::new();
        for mode in [
            PlanMode::Auto,
            PlanMode::AllOnOrbit,
            PlanMode::AllDownlinkRaw,
        ] {
            let planner = ExecutionPlanner::new(
                PlanConfig {
                    mode,
                    ..PlanConfig::default_plan()
                },
                TARGET,
                self.env.frame_deadline,
                self.env.capacity_fraction,
            );
            // `kodan plan` records telemetry for the auto run only.
            let mut summary = SummaryRecorder::new();
            let recorder: &mut dyn Recorder = if mode == PlanMode::Auto {
                &mut summary
            } else {
                &mut NullRecorder
            };
            let (id, planned) = tr.root(Kind::Surface, "Mission::run_planned_recorded", || {
                mission.run_planned_recorded(&runtime, &planner, recorder)
            });
            if tr.enabled() {
                let (render, frames) = tr.child(id, "geodata.render", || mission.sample_frames());
                tr.set_items(render, frames.len());
                let (_, estimates) = tr.child(id, "core.mission.estimate", || {
                    mission.estimate_frames(&runtime, &frames)
                });
                let (plan_id, plan) = tr.child(id, "core.plan", || planner.plan_day(&estimates));
                tr.set_items(plan_id, plan.frames().len());
                if plan.ledger != planned.ledger {
                    return Err(format!("{mode} plan replay disagrees with its ledger"));
                }
                let runtime = runtime.clone().with_plan(plan);
                let refs: Vec<&FrameImage> = frames.iter().collect();
                let outcomes = replay_runtime(
                    tr,
                    id,
                    &runtime,
                    engine,
                    &refs,
                    |i| i as u64,
                    mode == PlanMode::Auto,
                )?;
                if fold(&outcomes).1 != planned.report.mean_frame_time {
                    return Err(format!("{mode} runtime replay disagrees with its report"));
                }
            }
            reports.push((mode, planned));
        }

        let mut violations: Vec<String> = reports
            .iter()
            .filter_map(|(mode, p)| check_report(&mode.to_string(), &p.report))
            .collect();
        let dvd = |m: PlanMode| {
            reports
                .iter()
                .find(|(mode, _)| *mode == m)
                .map_or(f64::NAN, |(_, p)| p.report.dvd)
        };
        let (auto, raw) = (dvd(PlanMode::Auto), dvd(PlanMode::AllDownlinkRaw));
        // A NaN DVD fails too.
        if auto.partial_cmp(&raw).is_none_or(Ordering::is_lt) {
            violations.push(format!("auto dvd {auto} below all-downlink-raw {raw}"));
        }
        let digest = format!("{reports:?}");
        Ok(Iteration::single(
            digest,
            3 * self.params.sample_frames as u64,
            auto,
            violations,
        ))
    }
}

struct FleetDay {
    seed: u64,
    params: MissionParams,
    satellites: usize,
    artifacts: TransformationArtifacts,
    spill: PathBuf,
}

impl FleetDay {
    /// The same-plane constellation `Fleet::run_recorded` flies.
    fn constellation(&self) -> Constellation {
        Constellation::same_plane(Orbit::sun_synchronous(705_000.0), self.satellites)
    }

    fn simulate(&self) -> kodan_cote::sim::SpaceSegmentReport {
        simulate_space_segment(
            &self.constellation(),
            &Imager::landsat_oli(),
            &GroundSegment::landsat(),
            Duration::from_days(1.0),
        )
    }

    /// Replays `Fleet::run_recorded`'s layers: its space-segment
    /// simulation, then each satellite's render and runtime. What is
    /// left of the surface — queue replay, spill combine and the join —
    /// is its self time.
    fn replay(
        &self,
        tr: &mut Tracer,
        surface: usize,
        world: &World,
        runtime: &Runtime,
    ) -> Result<(), String> {
        let (id, segment) = tr.child(surface, "cote.sim", || self.simulate());
        tr.set_items(id, segment.passes.len());
        for orbit in self.constellation().orbits() {
            let env = SpaceEnvironment {
                orbit: *orbit,
                imager: Imager::landsat_oli(),
                frame_deadline: segment.frame_deadline,
                frames_per_day: segment.frames_seen_per_satellite,
                capacity_fraction: 0.0,
            };
            let mission = Mission::new(&env, world, self.params);
            let (id, frames) = tr.child(surface, "geodata.render", || mission.sample_frames());
            tr.set_items(id, frames.len());
            let refs: Vec<&FrameImage> = frames.iter().collect();
            // Unplanned fleet satellites fly every frame at index 0.
            replay_runtime(
                tr,
                surface,
                runtime,
                &self.artifacts.engine,
                &refs,
                |_| 0,
                true,
            )?;
        }
        Ok(())
    }
}

impl Workload for FleetDay {
    fn iterate(&self, k: u64, workers: usize, tr: &mut Tracer) -> Result<Iteration, String> {
        let world = World::new(self.seed.wrapping_add(k));
        let (id, env) = tr.root(Kind::Surface, "SpaceEnvironment::landsat", || {
            SpaceEnvironment::landsat(self.satellites)
        });
        if tr.enabled() {
            let (sim, segment) = tr.child(id, "cote.sim", || self.simulate());
            tr.set_items(sim, segment.passes.len());
        }
        let select = || {
            self.artifacts
                .select_with_capacity(TARGET, env.frame_deadline, env.capacity_fraction)
        };
        let (id, logic) = tr.root(
            Kind::Surface,
            "TransformationArtifacts::select_with_capacity",
            select,
        );
        if tr.enabled() {
            tr.child(id, "core.selection", select);
        }
        let runtime = Runtime::new(logic, self.artifacts.engine.clone());

        // Like `kodan fleet`, the spill store is replaced on every run.
        std::fs::remove_dir_all(&self.spill).ok();
        let store = ArtifactStore::create(&self.spill).map_err(|e| format!("spill store: {e}"))?;
        let config = FleetConfig {
            satellites: self.satellites,
            memtable_budget: MEMTABLE_BUDGET,
            workers,
            ..FleetConfig::default_fleet()
        };
        let fleet = Fleet::new(&world, &runtime, self.params, config);
        let mut recorder = SummaryRecorder::new();
        let (id, report) = tr.root(Kind::Surface, "Fleet::run_recorded", || {
            fleet.run_recorded(&store, &mut recorder)
        });
        let report = report.map_err(|e| format!("fleet run failed: {e}"))?;
        if tr.enabled() {
            self.replay(tr, id, &world, &runtime)?;
            tr.add("core.fleet.spill_runs", report.spill.runs as f64);
            tr.add(
                "core.fleet.spilled_bytes",
                report.spill.spilled_bytes as f64,
            );
            tr.add(
                "core.fleet.peak_memtable_bytes",
                report.spill.peak_memtable_bytes as f64,
            );
            tr.add("core.queue.dropped_px", report.storage_dropped_px);
        }

        let mut violations: Vec<String> = check_accounting(
            "fleet",
            report.sent_value_px,
            report.sent_px,
            report.observed_px,
            report.fleet_dvd,
        )
        .into_iter()
        .collect();
        if report.spill.peak_memtable_bytes > MEMTABLE_BUDGET || report.spill.runs == 0 {
            violations.push(format!(
                "spill peak {} of {MEMTABLE_BUDGET} B budget over {} runs",
                report.spill.peak_memtable_bytes, report.spill.runs
            ));
        }
        let frames = (self.satellites * self.params.sample_frames) as u64;
        Ok(Iteration::single(
            format!("{report:?}"),
            frames,
            report.fleet_dvd,
            violations,
        ))
    }
}

struct Stream {
    /// Capture the stream starts at (`--seed`).
    offset: u64,
    batch: usize,
    runtime: Runtime,
    engine: ContextEngine,
    /// The in-memory f64 selection the sealed artifacts were made from.
    reference: SelectionLogic,
    quantized_attached: usize,
    pool: Vec<FrameImage>,
    capacity_fraction: f64,
}

impl Stream {
    fn setup(
        seed: u64,
        scale: &Scale,
        params: MissionParams,
        scratch: &Path,
        tr: &mut Tracer,
    ) -> Result<Stream, String> {
        let artifacts = transform(scale, true, tr)?;
        let env = landsat_env(tr);
        let (_, reference) = tr.root(Kind::Setup, "core.selection", || {
            artifacts.select_with_capacity(TARGET, env.frame_deadline, env.capacity_fraction)
        });
        let dir = scratch.join("artifacts");
        std::fs::remove_dir_all(&dir).ok();
        let (_, saved) = tr.root(Kind::Setup, "core.artifact.save", || {
            save_artifacts(&artifacts, &reference, &dir, &mut SummaryRecorder::new())
        });
        let saved = saved.map_err(|e| format!("saving artifacts failed: {e}"))?;
        tr.add("core.artifact.bytes", saved.total_bytes as f64);
        let (_, loaded) = tr.root(Kind::Setup, "core.artifact.load", || {
            load_artifacts(&dir, &mut SummaryRecorder::new())
        });
        let loaded = loaded.map_err(|e| format!("loading artifacts failed: {e}"))?;
        let engine = loaded.artifacts.engine.clone();
        let runtime = Runtime::new(loaded.selection, engine.clone())
            .with_quarantined_models(loaded.quarantined_slots);

        let world = World::new(TRAIN_SEED);
        let mission = Mission::new(&env, &world, params);
        let (id, pool) = tr.root(Kind::Setup, "geodata.render", || mission.sample_frames());
        tr.set_items(id, pool.len());
        if pool.is_empty() {
            return Err("the sampled day has no frames".into());
        }
        Ok(Stream {
            offset: seed,
            batch: scale.batch_frames,
            runtime,
            engine,
            reference,
            quantized_attached: loaded.quantized_attached,
            pool,
            capacity_fraction: env.capacity_fraction,
        })
    }
}

impl Workload for Stream {
    fn ops(&self) -> u64 {
        self.batch as u64
    }

    /// One caller streams frames; the runtime call itself is serial.
    fn workers(&self, _available: usize) -> usize {
        1
    }

    fn iterate(&self, k: u64, _workers: usize, tr: &mut Tracer) -> Result<Iteration, String> {
        let first = k * self.batch as u64;
        let n = self.pool.len() as u64;
        let frames: Vec<&FrameImage> = (first..first + self.batch as u64)
            .filter_map(|i| self.pool.get(((self.offset % n + i % n) % n) as usize))
            .collect();
        let mut recorder = SummaryRecorder::new();
        let mut results: Vec<Option<FrameOutcome>> = Vec::with_capacity(frames.len());
        let mut frame_ms = Vec::with_capacity(frames.len());
        let (id, ()) = tr.root(Kind::Surface, "Runtime::process_frame_indexed", || {
            for (j, frame) in frames.iter().enumerate() {
                let start = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    self.runtime
                        .process_frame_indexed(frame, first + j as u64, &mut recorder)
                }));
                frame_ms.push(start.elapsed().as_secs_f64() * 1e3);
                results.push(outcome.ok());
            }
        });

        let mut violations = Vec::new();
        let mut failed = 0;
        let mut ok = Vec::with_capacity(results.len());
        for (j, r) in results.iter().enumerate() {
            let bad = match r {
                None => Some(format!("frame {} panicked", first + j as u64)),
                Some(o) => check_accounting(
                    &format!("frame {}", first + j as u64),
                    o.value_px as f64,
                    o.sent_px as f64,
                    o.observed_px as f64,
                    o.precision(),
                ),
            };
            match (bad, r) {
                (Some(v), _) => {
                    failed += 1;
                    violations.push(v);
                }
                (None, Some(o)) => ok.push(*o),
                (None, None) => {}
            }
        }
        if tr.enabled() {
            let replayed = replay_runtime(
                tr,
                id,
                &self.runtime,
                &self.engine,
                &frames,
                |j| first + j as u64,
                true,
            )?;
            if replayed != ok {
                return Err("runtime replay disagrees with the streamed outcomes".into());
            }
        }

        // The stream's DVD at the Landsat downlink capacity.
        let (total, _) = fold(&ok);
        let observed = total.observed_px as f64;
        let accounting = DownlinkAccounting {
            capacity_px: self.capacity_fraction * observed,
            produced_px: total.sent_px as f64,
            produced_value_px: total.value_px as f64,
            observed_px: observed,
            observed_value_px: total.observed_value_px as f64,
        };
        let dvd = if accounting.capacity_px > 0.0 {
            accounting.dvd()
        } else {
            0.0
        };
        violations.extend(check_accounting(
            "stream",
            accounting.downlinked_value_px(),
            accounting.downlinked_px(),
            observed,
            dvd,
        ));
        Ok(Iteration {
            digest: format!("{results:?}"),
            ops: frames.len() as u64,
            failed,
            frames: ok.len() as u64,
            dvd,
            violations,
            frame_ms,
            modeled_frame_s: None,
        })
    }

    /// The quantized models fly, and on every pool tile each loaded
    /// model's mask agrees with its f64 reference's on at least
    /// [`MIN_MASK_AGREEMENT`] of the pixels. The fixed-point kernel is
    /// not bit-identical to the f64 one: about 0.1% of pixels near the
    /// 0.5 threshold flip, so exact equality would always fail.
    fn final_checks(&self, info: &mut Vec<Line>) -> Vec<String> {
        let mut violations = Vec::new();
        if self.quantized_attached == 0 {
            violations.push("no quantized model attached on load".to_string());
        }
        let flown = self.runtime.logic().models();
        let reference = self.reference.models();
        if flown.len() != reference.len() {
            violations.push("loaded model table differs in size from the reference".to_string());
            return violations;
        }
        let (mut pixels, mut agreeing) = (0usize, 0usize);
        for frame in &self.pool {
            for tile in tile_frame(frame, self.runtime.logic().grid()) {
                for (q, r) in flown.iter().zip(reference) {
                    let (q, r) = (q.predict_tile(&tile), r.predict_tile(&tile));
                    pixels += r.len();
                    agreeing += q.iter().zip(&r).filter(|(a, b)| a == b).count();
                }
            }
        }
        let agreement = agreeing as f64 / pixels.max(1) as f64;
        info.push(("quant.mask_agreement".to_string(), agreement, "ratio"));
        if agreement < MIN_MASK_AGREEMENT {
            violations.push(format!(
                "quantized masks agree with the f64 reference on {agreement} of pixels, below {MIN_MASK_AGREEMENT}"
            ));
        }
        violations
    }
}
