//! Constellation-scale fleet missions with bounded-memory aggregation.
//!
//! A fleet run flies every satellite of a same-plane constellation
//! through one shared day: `cote` simulates the whole space segment
//! once — contact windows for all satellites, contended ground stations
//! resolved deterministically (time-sorted, satellite-index tie-break,
//! see `kodan_cote::sim`) — and each satellite then replays its own day
//! against the shared [`Runtime`]: sampled frames through the inference
//! path, then its captures and served passes through the shared
//! [`DayReplay`].
//!
//! Two properties carry the design:
//!
//! - **Satellites are the parallel axis.** [`crate::par::par_map_recorded`]
//!   shards the fleet over workers; each satellite records telemetry
//!   onto a private tape that is replayed in satellite order after the
//!   join, so fleet snapshots are byte-identical at any `--workers`
//!   count. Per-satellite rendering and frame processing stay serial —
//!   no nested parallelism, no interleaving to reason about.
//! - **Results never accumulate unboundedly.** Each satellite emits a
//!   compact journal ([`combine::JournalRecord`]); journals stream
//!   through a [`combine::SpillCombiner`] that buffers up to a byte
//!   budget and spills sorted runs into the artifact store, then
//!   merge-reduces the runs straight into the [`FleetReport`]. Peak
//!   memory is the memtable budget, not the fleet size.

pub mod combine;

use crate::fleet::combine::{JournalRecord, SpillCombiner, SpillStats};
use crate::mission::{landsat_orbit, landsat_segment, Mission, MissionParams, SpaceEnvironment};
use crate::par::{par_map_recorded, resolve_workers};
use crate::plan::{ExecutionPlanner, PlanConfig};
use crate::replay::DayReplay;
use crate::runtime::Runtime;
use kodan_cote::constellation::Constellation;
use kodan_cote::orbit::Orbit;
use kodan_cote::sim::SpaceSegmentReport;
use kodan_geodata::frame::World;
use kodan_telemetry::{CounterId, Recorder};
use kodan_wire::{ArtifactStore, WireError};

/// On-board storage of every fleet satellite, pixels: ~23,000 frames
/// at the 132 px working resolution, several days of captures, so a
/// fleet day is bounded by its contacts, not by storage.
pub(crate) const SATELLITE_STORAGE_PX: f64 = 4.0e8;

/// Configuration of a fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Satellites in the same-plane constellation (at least 1).
    pub satellites: usize,
    /// Memtable byte budget of the spill combiner.
    pub memtable_budget: u64,
    /// Worker threads (0 = auto).
    pub workers: usize,
    /// Per-satellite execution planning. `None` (the default) flies the
    /// ordinary on-orbit path, byte-identical to a fleet that predates
    /// the planner.
    pub plan: Option<PlanConfig>,
}

impl FleetConfig {
    /// The default fleet: 24 satellites, an 8 KiB combiner memtable
    /// (small enough that a constellation day demonstrably spills), auto
    /// workers, and no placement planning.
    pub fn default_fleet() -> FleetConfig {
        FleetConfig {
            satellites: 24,
            memtable_budget: 8192,
            workers: 0,
            plan: None,
        }
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig::default_fleet()
    }
}

/// The merge-reduced result of a fleet day.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetReport {
    /// Satellites flown.
    pub satellites: u64,
    /// Ground passes served across the fleet.
    pub passes_served: u64,
    /// Pixels observed fleet-wide over the day.
    pub observed_px: f64,
    /// Pixels transmitted fleet-wide.
    pub sent_px: f64,
    /// High-value pixels transmitted fleet-wide.
    pub sent_value_px: f64,
    /// Pixels evicted on board under storage pressure.
    pub storage_dropped_px: f64,
    /// Pixels still queued at end of day.
    pub residual_px: f64,
    /// Pixels shed to absorb faulted contacts (zero on a nominal day).
    pub shed_px: f64,
    /// Tiles processed through specialized models, day-scale.
    pub tiles_processed: u64,
    /// Tiles elided before inference, day-scale.
    pub tiles_elided: u64,
    /// Frames the planner placed on-orbit fleet-wide (zero when
    /// planning is off).
    pub planned_on_orbit: u64,
    /// Frames the planner routed down raw fleet-wide.
    pub planned_raw: u64,
    /// Frames the planner deferred to a later pass fleet-wide.
    pub planned_deferred: u64,
    /// High-value fraction of everything observed that reached the
    /// ground: `sent_value_px / observed_px`.
    pub fleet_dvd: f64,
    /// Fraction of observed pixels that reached the ground.
    pub coverage: f64,
    /// Value density of the transmitted stream.
    pub transmitted_density: f64,
    /// Spill accounting of the bounded-memory combine.
    pub spill: SpillStats,
}

/// A fleet runner bound to a world, a shared runtime and sampling
/// parameters.
#[derive(Debug, Clone, Copy)]
pub struct Fleet<'a> {
    world: &'a World,
    runtime: &'a Runtime,
    params: MissionParams,
    config: FleetConfig,
}

impl<'a> Fleet<'a> {
    /// Creates a fleet runner. The runtime is shared: a constellation
    /// uplinks one artifact set fleet-wide.
    pub fn new(
        world: &'a World,
        runtime: &'a Runtime,
        params: MissionParams,
        config: FleetConfig,
    ) -> Fleet<'a> {
        Fleet {
            world,
            runtime,
            params,
            config,
        }
    }

    /// Runs the fleet day, spilling journals through `store` and
    /// recording telemetry.
    ///
    /// Satellites fan out across workers; tapes replay in satellite
    /// order after the join, so the recorder's snapshot — and the
    /// returned report — are byte-identical at any worker count.
    pub fn run_recorded(
        &self,
        store: &ArtifactStore,
        recorder: &mut dyn Recorder,
    ) -> Result<FleetReport, WireError> {
        let constellation =
            Constellation::same_plane(landsat_orbit(), self.config.satellites.max(1));
        let segment = landsat_segment(&constellation);

        // Satellites are the parallel axis: every satellite flies its
        // estimate and planned passes on one serial copy of the shared
        // runtime, so no satellite fans out threads of its own. Each
        // flies its own phased orbit, so ground tracks (and therefore
        // sampled frames) differ per satellite.
        let serial = self.runtime.clone().with_workers(1);
        let workers = resolve_workers(self.config.workers);
        let journals = par_map_recorded(
            workers,
            constellation.orbits(),
            recorder,
            |sat, orbit, rec| self.fly_one(&serial, sat, *orbit, &segment, rec),
        );

        // Serial combine in satellite-index order: the ingest sequence —
        // and with it every spill boundary and fold — is a pure function
        // of the fleet configuration, never of scheduling.
        let mut combiner = SpillCombiner::new(self.config.memtable_budget);
        for journal in &journals {
            for record in journal {
                combiner.ingest(store, *record)?;
            }
        }
        let report = combiner.finish(store)?;

        recorder.count(CounterId::FleetSatellitesFlown, report.satellites);
        recorder.count(CounterId::FleetSpillRuns, report.spill.runs);
        recorder.count(CounterId::FleetSpillBytes, report.spill.spilled_bytes);
        recorder.count(
            CounterId::FleetPeakMemtableBytes,
            report.spill.peak_memtable_bytes,
        );
        Ok(report)
    }

    /// Flies one satellite's day on `runtime` and returns its journal:
    /// the summary row (seq 0) then one row per served pass (seq k), in
    /// `(satellite, seq)` order so the fleet-wide ingest sequence is
    /// globally sorted and spill boundaries cannot reorder the fold.
    /// The satellite's environment is derived as
    /// [`SpaceEnvironment::landsat`] derives it, but credits the capacity
    /// this satellite won at the contended stations, not an equal share.
    fn fly_one(
        &self,
        runtime: &Runtime,
        sat: usize,
        orbit: Orbit,
        segment: &SpaceSegmentReport,
        rec: &mut dyn Recorder,
    ) -> Vec<JournalRecord> {
        let satellite = sat as u32;
        let env = SpaceEnvironment::from_segment(segment, orbit, segment.capacity_bits_for(sat));
        let px_per_frame = (self.params.frame_px * self.params.frame_px) as f64;
        let bits_per_px = env.imager.frame_bits() / px_per_frame.max(1.0);
        let replay = match DayReplay::new(
            &segment.passes,
            sat,
            env.frame_deadline,
            env.frames_per_day,
            bits_per_px,
            SATELLITE_STORAGE_PX,
            None,
        ) {
            Ok(replay) => replay,
            // An imager without bits: journal an empty day rather than
            // take the fleet down.
            Err(_) => {
                return vec![JournalRecord {
                    satellite,
                    seq: 0,
                    ..JournalRecord::default()
                }]
            }
        };

        let mut params = self.params;
        params.sample_frames = params.sample_frames.max(1);
        // Satellites are the parallel axis: each renders serially too.
        let mission = Mission::new(&env, self.world, params).with_workers(1);
        // With planning on, each satellite plans its own day against its
        // own contact share, then re-flies the frames under the plan.
        let planner = self.config.plan.map(|plan_config| {
            ExecutionPlanner::new(
                plan_config,
                runtime.logic().target(),
                env.frame_deadline,
                env.capacity_fraction,
            )
        });
        let flight = mission.fly_frames(runtime, planner.as_ref(), rec);

        let (passes, day) = replay.fly_day(&flight.outcomes, rec);
        let mut records = Vec::with_capacity(passes.len() + 1);
        records.push(JournalRecord {
            satellite,
            seq: 0,
            observed_px: env.frames_per_day as f64 * px_per_frame,
            storage_dropped_px: day.storage_dropped_px,
            residual_px: day.residual_px,
            shed_px: day.shed_px,
            tiles_processed: day.tiles_processed,
            tiles_elided: day.tiles_elided,
            planned_on_orbit: flight.ledger.frames_on_orbit,
            planned_raw: flight.ledger.frames_downlink_raw,
            planned_deferred: flight.ledger.frames_deferred,
            ..JournalRecord::default()
        });
        for (seq, pass) in (1u32..).zip(&passes) {
            records.push(JournalRecord {
                satellite,
                seq,
                sent_px: pass.sent_px,
                sent_value_px: pass.sent_value_px,
                ..JournalRecord::default()
            });
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KodanConfig;
    use crate::pipeline::Transformation;
    use kodan_geodata::{Dataset, DatasetConfig};
    use kodan_hw::targets::HwTarget;
    use kodan_ml::zoo::ModelArch;
    use kodan_telemetry::NullRecorder;
    use std::path::PathBuf;

    fn scratch_store(tag: &str) -> (PathBuf, ArtifactStore) {
        let dir = std::env::temp_dir().join(format!("kodan-fleet-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        let store = ArtifactStore::create(&dir).expect("create scratch store");
        (dir, store)
    }

    fn small_runtime(world: &World) -> Runtime {
        let mut ds_cfg = DatasetConfig::small(1);
        ds_cfg.frame_count = 12;
        ds_cfg.frame_px = 132;
        let dataset = Dataset::sample(world, &ds_cfg);
        let artifacts = Transformation::new(KodanConfig::fast(3))
            .run(&dataset, ModelArch::ResNet50DilatedPpm)
            .expect("transformation succeeds");
        let env = SpaceEnvironment::fixed(0.21);
        let logic = artifacts.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        Runtime::new(logic, artifacts.engine.clone())
    }

    fn small_params() -> MissionParams {
        MissionParams {
            sample_frames: 6,
            frame_px: 132,
            frame_km: 150.0,
            sample_window_days: 2.0,
        }
    }

    #[test]
    fn fleet_day_spills_and_accounts_every_satellite() {
        let world = World::new(42);
        let runtime = small_runtime(&world);
        let config = FleetConfig {
            satellites: 4,
            memtable_budget: 2 * JournalRecord::ENCODED_BYTES,
            workers: 1,
            ..FleetConfig::default_fleet()
        };
        let fleet = Fleet::new(&world, &runtime, small_params(), config);
        let (dir, store) = scratch_store("spills");
        let report = fleet.run_recorded(&store, &mut NullRecorder).expect("fleet run");
        assert_eq!(report.satellites, 4);
        assert!(report.passes_served > 0, "{report:?}");
        assert!(report.observed_px > 0.0);
        assert!(report.sent_px > 0.0);
        assert!(report.fleet_dvd > 0.0 && report.fleet_dvd <= 1.0);
        assert!(report.coverage > 0.0 && report.coverage <= 1.0);
        assert!(report.spill.runs > 0, "tiny budget must spill");
        assert!(report.spill.peak_memtable_bytes <= config.memtable_budget);
        assert!(report.spill.ingested_bytes > config.memtable_budget);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_count_and_budget_never_change_the_report() {
        let world = World::new(42);
        let runtime = small_runtime(&world);
        let baseline = {
            let (dir, store) = scratch_store("base");
            let config = FleetConfig {
                satellites: 3,
                memtable_budget: 1 << 20,
                workers: 1,
                ..FleetConfig::default_fleet()
            };
            let report = Fleet::new(&world, &runtime, small_params(), config)
                .run_recorded(&store, &mut NullRecorder)
                .expect("fleet run");
            std::fs::remove_dir_all(&dir).ok();
            report
        };
        for (workers, budget, tag) in
            [(2usize, 1u64 << 20, "w2"), (4, 1 << 20, "w4"), (1, 96, "tight")]
        {
            let (dir, store) = scratch_store(tag);
            let config = FleetConfig {
                satellites: 3,
                memtable_budget: budget,
                workers,
                ..FleetConfig::default_fleet()
            };
            let report = Fleet::new(&world, &runtime, small_params(), config)
                .run_recorded(&store, &mut NullRecorder)
                .expect("fleet run");
            std::fs::remove_dir_all(&dir).ok();
            assert_eq!(
                FleetReport {
                    spill: baseline.spill,
                    ..report
                },
                baseline,
                "divergence at workers={workers} budget={budget}"
            );
        }
    }

    #[test]
    fn planned_fleet_counts_placements_and_is_worker_invariant() {
        let world = World::new(42);
        let runtime = small_runtime(&world);
        let run = |workers: usize, tag: &str| {
            let (dir, store) = scratch_store(tag);
            let config = FleetConfig {
                satellites: 3,
                memtable_budget: 1 << 20,
                workers,
                plan: Some(PlanConfig::default_plan()),
                ..FleetConfig::default_fleet()
            };
            let report = Fleet::new(&world, &runtime, small_params(), config)
                .run_recorded(&store, &mut NullRecorder)
                .expect("fleet run");
            std::fs::remove_dir_all(&dir).ok();
            report
        };
        let base = run(1, "plan-w1");
        // Every sampled frame of every satellite gets exactly one
        // placement.
        assert_eq!(
            base.planned_on_orbit + base.planned_raw + base.planned_deferred,
            base.satellites * small_params().sample_frames as u64,
            "{base:?}"
        );
        for (workers, tag) in [(2usize, "plan-w2"), (4, "plan-w4")] {
            let other = run(workers, tag);
            assert_eq!(other, base, "planned fleet diverged at workers={workers}");
        }
    }

    #[test]
    fn contended_stations_serve_later_satellites_less() {
        // With many satellites sharing the Landsat ground segment,
        // per-satellite downlink shrinks; the fleet ledger must show a
        // coverage fraction strictly below a lone satellite's.
        let world = World::new(42);
        let runtime = small_runtime(&world);
        let run = |satellites: usize, tag: &str| {
            let (dir, store) = scratch_store(tag);
            let config = FleetConfig {
                satellites,
                memtable_budget: 1 << 20,
                workers: 1,
                ..FleetConfig::default_fleet()
            };
            let report = Fleet::new(&world, &runtime, small_params(), config)
                .run_recorded(&store, &mut NullRecorder)
                .expect("fleet run");
            std::fs::remove_dir_all(&dir).ok();
            report
        };
        let lone = run(1, "lone");
        let crowded = run(6, "crowded");
        assert_eq!(crowded.satellites, 6);
        assert!(crowded.observed_px > lone.observed_px * 5.0);
        assert!(
            crowded.coverage < lone.coverage,
            "contention must bite: lone {} vs crowded {}",
            lone.coverage,
            crowded.coverage
        );
    }
}
