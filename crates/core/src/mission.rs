//! End-to-end mission simulation: Kodan against the space segment.
//!
//! A mission couples four substrates: `cote` supplies the orbit, frame
//! deadline and (contention-resolved) downlink capacity; `geodata`
//! renders what the satellite actually sees along its ground track;
//! the runtime processes frames under the `hw` latency model; and the
//! DVD accounting scores what reaches the ground.
//!
//! Day-scale missions observe thousands of frames; rendering all of them
//! is unnecessary — value statistics converge with a few dozen sampled
//! frames spread along the ground track, and the compute/downlink
//! bookkeeping is exact arithmetic on top. `sample_frames` controls the
//! trade.
//!
//! Every system flown on one [`Mission`] observes the same sampled day,
//! as in the paper's evaluation, so a mission renders it once: the
//! first flight renders the frames in parallel through [`crate::par`]
//! ([`Mission::with_workers`]), and the bent pipe, direct deploy, Kodan,
//! planned flights and the pass-level replay all read that one copy.
//! Each frame is a pure function of the world and its capture, and
//! `par` keeps input order, so reports are byte-identical at any worker
//! count. [`Mission::sample_frames`] renders afresh on every call.

use crate::dvd::{processed_fraction, ratio, DownlinkAccounting};
use crate::par;
use crate::plan::{ExecutionPlanner, FrameEstimate, PlacementLedger, TileEstimate};
use crate::replay::DayReplay;
use crate::runtime::{bent_pipe_frame, tile_pixel_tally, FrameOutcome, Runtime};
use crate::KodanError;
use kodan_cote::constellation::Constellation;
use kodan_cote::ground::GroundSegment;
use kodan_cote::orbit::Orbit;
use kodan_cote::sensor::{capture_schedule, Imager};
use kodan_cote::sim::{simulate_space_segment, ServedPass, SpaceSegmentReport};
use kodan_cote::time::Duration;
use kodan_faults::FaultPlan;
use kodan_geodata::frame::{FrameImage, World};
use kodan_geodata::tile::tile_frame;
use kodan_telemetry::{CounterId, NullRecorder, Recorder, StageId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Which data-handling system a mission runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// Downlink raw observations indiscriminately.
    BentPipe,
    /// The reference application deployed unchanged (densest tiling,
    /// full model, no contexts).
    DirectDeploy,
    /// The full Kodan pipeline.
    Kodan,
    /// The Kodan pipeline under an [`ExecutionPlanner`] placement plan:
    /// per-frame hybrid space–ground execution.
    Planned,
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemKind::BentPipe => f.write_str("bent pipe"),
            SystemKind::DirectDeploy => f.write_str("direct deploy"),
            SystemKind::Kodan => f.write_str("kodan"),
            SystemKind::Planned => f.write_str("planned"),
        }
    }
}

/// The space-segment context of a mission: orbit, sensor, deadline and
/// downlink capacity, derived from a `cote` simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpaceEnvironment {
    /// The satellite's orbit.
    pub orbit: Orbit,
    /// The imaging payload.
    pub imager: Imager,
    /// Frame deadline for this orbit/sensor pair.
    pub frame_deadline: Duration,
    /// Frames observed per satellite per day.
    pub frames_per_day: u64,
    /// Downlink capacity per satellite per day divided by the raw data
    /// volume observed per satellite per day.
    pub capacity_fraction: f64,
}

/// The orbit of the paper's evaluation: Landsat's sun-synchronous
/// 705 km orbit.
pub(crate) fn landsat_orbit() -> Orbit {
    Orbit::sun_synchronous(705_000.0)
}

/// One day of `constellation` carrying OLI-class imagers over the
/// Landsat ground segment, contended stations resolved.
pub(crate) fn landsat_segment(constellation: &Constellation) -> SpaceSegmentReport {
    simulate_space_segment(
        constellation,
        &Imager::landsat_oli(),
        &GroundSegment::landsat(),
        Duration::from_days(1.0),
    )
}

impl SpaceEnvironment {
    /// Builds the Landsat-like environment used throughout the paper's
    /// evaluation: a sun-synchronous 705 km orbit, an OLI-class imager,
    /// and the Landsat ground segment shared among `satellite_count`
    /// same-plane satellites, each credited an equal share of it.
    pub fn landsat(satellite_count: usize) -> SpaceEnvironment {
        let orbit = landsat_orbit();
        let segment = landsat_segment(&Constellation::same_plane(orbit, satellite_count));
        let capacity_bits = segment.capacity_bits / satellite_count as f64;
        SpaceEnvironment::from_segment(&segment, orbit, capacity_bits)
    }

    /// The environment of one satellite flying `orbit` in a Landsat
    /// `segment`, credited `capacity_bits` of downlink over the day.
    ///
    /// A segment that observes no frames has no capacity fraction and
    /// gets 0.0. [`SpaceEnvironment::landsat`] never reaches that case:
    /// `Constellation::same_plane` panics on zero satellites first, and
    /// every Landsat satellite observes thousands of frames a day.
    pub(crate) fn from_segment(
        segment: &SpaceSegmentReport,
        orbit: Orbit,
        capacity_bits: f64,
    ) -> SpaceEnvironment {
        let frames_per_day = segment.frames_seen_per_satellite;
        let observed_bits = frames_per_day as f64 * segment.frame_bits;
        SpaceEnvironment {
            orbit,
            imager: Imager::landsat_oli(),
            frame_deadline: segment.frame_deadline,
            frames_per_day,
            capacity_fraction: ratio(capacity_bits, observed_bits).min(1.0),
        }
    }

    /// A fixed environment for tests: the Landsat geometry with a pinned
    /// capacity fraction, skipping the contact-window simulation.
    pub fn fixed(capacity_fraction: f64) -> SpaceEnvironment {
        let orbit = landsat_orbit();
        let imager = Imager::landsat_oli();
        let frame_deadline = imager.frame_deadline(&orbit);
        let frames_per_day = imager.frames_in(&orbit, Duration::from_days(1.0));
        SpaceEnvironment {
            orbit,
            imager,
            frame_deadline,
            frames_per_day,
            capacity_fraction,
        }
    }
}

/// Sampling parameters for a mission run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MissionParams {
    /// Number of frames rendered and actually pushed through the data
    /// path; statistics scale to the full day.
    pub sample_frames: usize,
    /// Native resolution of rendered frames (must be divisible by the
    /// runtime's tile grid).
    pub frame_px: usize,
    /// Rendered frame ground extent, km.
    pub frame_km: f64,
    /// Days of ground track the sampled frames are spread over. The
    /// capacity model is always per-day; a multi-day sampling window just
    /// averages out day-scale cloud-system variance in the statistics.
    pub sample_window_days: f64,
}

impl MissionParams {
    /// Default sampling: 48 frames at the 132 px working resolution,
    /// spread over four days of ground track.
    pub fn default_sampling() -> MissionParams {
        MissionParams {
            sample_frames: 48,
            frame_px: 132,
            frame_km: 150.0,
            sample_window_days: 4.0,
        }
    }
}

impl Default for MissionParams {
    fn default() -> Self {
        MissionParams::default_sampling()
    }
}

/// The result of a day-scale mission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissionReport {
    /// Which system ran.
    pub system: SystemKind,
    /// Frames observed over the day.
    pub frames_observed: u64,
    /// Mean modeled compute time per frame.
    pub mean_frame_time: Duration,
    /// Fraction of frames processed within the deadline.
    pub processed_fraction: f64,
    /// The downlink ledger (pixel units, scaled to the full day).
    pub accounting: DownlinkAccounting,
    /// Data value density of the saturated downlink.
    pub dvd: f64,
    /// Fraction of observed high-value data downlinked (Figure 5's
    /// metric).
    pub observed_hv_downlinked: f64,
}

/// The result of a planned mission: the usual day-scale report plus the
/// planner's placement ledger for the sampled window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedMissionReport {
    /// The mission report, scored like any other system.
    pub report: MissionReport,
    /// Placement classes, energy/thermal/contact totals and storage
    /// pressure for the planned window.
    pub ledger: PlacementLedger,
}

/// One flight of a mission's sampled frames (see [`Mission::fly_frames`]).
pub(crate) struct Flight {
    /// Per-frame outcomes, in frame order.
    pub(crate) outcomes: Vec<FrameOutcome>,
    /// Their in-order aggregate.
    pub(crate) total: FrameOutcome,
    /// Mean modeled compute time per frame.
    pub(crate) mean: Duration,
    /// The plan's ledger; all zero for an unplanned flight.
    pub(crate) ledger: PlacementLedger,
}

/// A mission runner bound to an environment and a world. It renders its
/// sampled day on first use and every flight reuses those frames.
#[derive(Debug, Clone)]
pub struct Mission<'a> {
    env: &'a SpaceEnvironment,
    world: &'a World,
    params: MissionParams,
    workers: usize,
    frames: OnceLock<Vec<FrameImage>>,
}

impl<'a> Mission<'a> {
    /// Creates a mission runner that renders on an auto-detected worker
    /// count (see [`Mission::with_workers`]).
    ///
    /// # Panics
    ///
    /// Panics if `sample_frames` is zero.
    pub fn new(env: &'a SpaceEnvironment, world: &'a World, params: MissionParams) -> Mission<'a> {
        assert!(params.sample_frames > 0, "mission needs sample frames");
        Mission {
            env,
            world,
            params,
            workers: par::resolve_workers(0),
            frames: OnceLock::new(),
        }
    }

    /// Pins the worker count that renders the sampled frames; `0` means
    /// auto-detect. Worker count only changes wall-clock time — frames
    /// and reports are bit-identical for any value.
    pub fn with_workers(mut self, workers: usize) -> Mission<'a> {
        self.workers = par::resolve_workers(workers);
        self
    }

    /// Renders the sampled frames along the day's ground track, afresh
    /// on every call.
    pub fn sample_frames(&self) -> Vec<FrameImage> {
        let schedule = capture_schedule(
            &self.env.orbit,
            &self.env.imager,
            0,
            Duration::from_days(self.params.sample_window_days.max(0.05)),
        );
        let n = self.params.sample_frames.min(schedule.len());
        let stride = (schedule.len() / n).max(1);
        let captures: Vec<_> = schedule.iter().step_by(stride).take(n).collect();
        par::par_map_indexed(self.workers, &captures, |_, cap| {
            let t_days = (cap.epoch - self.env.orbit.epoch()).as_days();
            self.world.render_frame(
                cap.center.latitude_deg(),
                cap.center.longitude_deg(),
                t_days,
                self.params.frame_px,
                self.params.frame_km,
            )
        })
    }

    /// The sampled frames every flight of this mission reads, rendered
    /// by the first one.
    fn frames(&self) -> &[FrameImage] {
        self.frames.get_or_init(|| self.sample_frames())
    }

    /// Runs the bent-pipe baseline.
    pub fn run_bent_pipe(&self) -> MissionReport {
        let mut total = FrameOutcome::default();
        for frame in self.frames() {
            total.absorb(&bent_pipe_frame(frame));
        }
        self.summarize(SystemKind::BentPipe, &total, Duration::ZERO)
    }

    /// Runs a mission with a prepared runtime (direct deploy or Kodan,
    /// depending on how the runtime's selection logic was built).
    pub fn run_with_runtime(&self, runtime: &Runtime, system: SystemKind) -> MissionReport {
        self.run_with_runtime_recorded(runtime, system, &mut NullRecorder)
    }

    /// [`Mission::run_with_runtime`] with telemetry: frame sampling and
    /// every per-frame runtime decision are reported to `recorder` (see
    /// [`Runtime::process_frame_indexed`]). Any `Recorder` works —
    /// summary, tape, trace builder, flight recorder — and each sees the
    /// same byte-identical stream at any worker count, which is what the
    /// `kodan trace` / `kodan health` surfaces are built on.
    pub fn run_with_runtime_recorded(
        &self,
        runtime: &Runtime,
        system: SystemKind,
        recorder: &mut dyn Recorder,
    ) -> MissionReport {
        let flight = self.fly_frames(runtime, None, recorder);
        self.summarize(system, &flight.total, flight.mean)
    }

    /// Builds the planner's view of each sampled frame: the unplanned
    /// runtime's per-frame outcome (compute time and downlink volume if
    /// the frame were processed on orbit) plus the raw per-tile pixel
    /// and clear-pixel counts the raw-fill rule ranks by.
    ///
    /// `runtime` should be the *unplanned* runtime — an installed plan
    /// would fold its own placements into the estimates it is supposed
    /// to inform.
    pub fn estimate_frames(
        &self,
        runtime: &Runtime,
        frames: &[FrameImage],
    ) -> Vec<FrameEstimate> {
        let outcomes = runtime.process_frames(frames, &mut NullRecorder);
        frames
            .iter()
            .zip(outcomes.iter())
            .map(|(frame, o)| {
                let tiles = tile_frame(frame, runtime.logic().grid());
                let tile_estimates = tiles
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let (px, clear_px) = tile_pixel_tally(t);
                        TileEstimate {
                            index: i as u32,
                            px,
                            clear_px,
                        }
                    })
                    .collect();
                FrameEstimate {
                    busy_seconds: o.compute.as_seconds(),
                    sent_px: o.sent_px,
                    observed_px: o.observed_px,
                    tiles: tile_estimates,
                }
            })
            .collect()
    }

    /// The one flight step behind every mission and every fleet
    /// satellite: take the sampled frames and record the `FrameSampling`
    /// span; with a `planner`, estimate the frames on the unplanned
    /// `runtime`, plan the day and record the `Planning` span; process
    /// the frames with [`Runtime::process_frames`] — on a copy of
    /// `runtime` carrying the plan, if any — and record the `Mission`
    /// span.
    pub(crate) fn fly_frames(
        &self,
        runtime: &Runtime,
        planner: Option<&ExecutionPlanner>,
        recorder: &mut dyn Recorder,
    ) -> Flight {
        let frames = self.frames();
        recorder.span(StageId::FrameSampling, 0.0, frames.len() as u64);
        let mut ledger = PlacementLedger::default();
        let planned = planner.map(|planner| {
            let plan = planner.plan_day(&self.estimate_frames(runtime, frames));
            recorder.span(StageId::Planning, 0.0, plan.frames().len() as u64);
            ledger = plan.ledger.clone();
            runtime.clone().with_plan(plan)
        });
        let runtime = planned.as_ref().unwrap_or(runtime);
        let outcomes = runtime.process_frames(frames, recorder);
        let (total, mean) = FrameOutcome::total_and_mean(&outcomes);
        recorder.span(StageId::Mission, total.compute.as_seconds(), frames.len() as u64);
        Flight {
            outcomes,
            total,
            mean,
            ledger,
        }
    }

    /// Runs a mission under an [`ExecutionPlanner`] in two passes.
    ///
    /// Pass one dry-runs the unplanned runtime over the sampled frames
    /// to build [`FrameEstimate`]s (worker-invariant — outcomes come
    /// back in frame order); the planner turns them into a
    /// [`crate::plan::DayPlan`]. Pass two re-processes the same frames
    /// with the plan installed, so `DownlinkRaw`/`Defer` frames skip
    /// inference and ship their chosen tiles raw while `OnOrbit` frames
    /// run normally.
    ///
    /// The report is scored exactly like any other mission; afterwards
    /// the `planner_dvd_shortfall_ppm` counter records how far (in parts
    /// per million, rounded up) the planned DVD fell *below* the
    /// all-downlink-raw baseline — zero for any plan that does its job,
    /// which is what the default `kodan health` floor checks.
    pub fn run_planned_recorded(
        &self,
        runtime: &Runtime,
        planner: &ExecutionPlanner,
        recorder: &mut dyn Recorder,
    ) -> PlannedMissionReport {
        let flight = self.fly_frames(runtime, Some(planner), recorder);
        let report = self.summarize(SystemKind::Planned, &flight.total, flight.mean);

        // The all-downlink-raw baseline's DVD is the high-value
        // prevalence of what was observed: shipping everything raw fills
        // the pipe with average-density data (uniform thinning cannot
        // change the density). A plan below that floor made things
        // worse, and the default health rules flag it.
        let baseline = ratio(
            report.accounting.observed_value_px,
            report.accounting.observed_px,
        );
        if baseline > 0.0 && report.dvd < baseline {
            let ppm = (((baseline - report.dvd) / baseline) * 1e6).ceil();
            recorder.count(CounterId::PlannerDvdShortfallPpm, ppm as u64);
        }

        PlannedMissionReport {
            report,
            ledger: flight.ledger,
        }
    }

    fn summarize(
        &self,
        system: SystemKind,
        total: &FrameOutcome,
        mean_frame_time: Duration,
    ) -> MissionReport {
        let sent_fraction = total.sent_px as f64 / total.observed_px.max(1) as f64;
        let value_fraction = total.value_px as f64 / total.observed_px.max(1) as f64;
        let hv_prevalence =
            total.observed_value_px as f64 / total.observed_px.max(1) as f64;

        let processed_fraction = if system == SystemKind::BentPipe {
            1.0
        } else {
            processed_fraction(mean_frame_time, self.env.frame_deadline)
        };

        // Scale to the full day in pixel units.
        let px_per_frame = (self.params.frame_px * self.params.frame_px) as f64;
        let day_observed = self.env.frames_per_day as f64 * px_per_frame;
        let accounting = DownlinkAccounting {
            capacity_px: self.env.capacity_fraction * day_observed,
            produced_px: processed_fraction * sent_fraction * day_observed,
            produced_value_px: processed_fraction * value_fraction * day_observed,
            observed_px: day_observed,
            observed_value_px: hv_prevalence * day_observed,
        };

        MissionReport {
            system,
            frames_observed: self.env.frames_per_day,
            mean_frame_time,
            processed_fraction,
            dvd: accounting.dvd(),
            observed_hv_downlinked: accounting.observed_hv_downlinked(),
            accounting,
        }
    }
}

/// Result of a pass-by-pass (queue-replay) mission: what the aggregate
/// capacity model abstracts away — on-board storage pressure and the
/// burstiness of ground contacts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetailedMissionReport {
    /// Pixels transmitted over the day's passes.
    pub sent_px: f64,
    /// High-value pixels transmitted.
    pub sent_value_px: f64,
    /// Pixels evicted on board because storage filled between contacts.
    pub storage_dropped_px: f64,
    /// Pixels still queued at the end of the day.
    pub residual_px: f64,
    /// Data value density of what was transmitted.
    pub transmitted_density: f64,
    /// Pixels shed from the queue to absorb contact capacity lost to
    /// injected faults (zero without a fault plan).
    pub shed_px: f64,
    /// Ground contacts dropped entirely by injected faults.
    pub contacts_dropped: u64,
    /// Ground contacts shortened by injected faults.
    pub contacts_shortened: u64,
}

impl<'a> Mission<'a> {
    /// Replays a full day pass-by-pass with [`DayReplay`]: captures every
    /// frame deadline enqueue the (cyclically reused) outcome of one
    /// sampled frame, scaled to pixel units, into a bounded value-aware
    /// downlink queue, and this satellite's passes (satellite index 0)
    /// drain it highest-value-density first. `storage_px` bounds on-board
    /// storage; `faults` degrades contacts (see [`crate::replay`]).
    ///
    /// Frame-level faults (upsets, throttling, classify failures) are not
    /// decided here: arm them on the runtime itself with
    /// [`Runtime::with_fault_plan`], keyed by sampled-frame index.
    ///
    /// Returns [`KodanError::InvalidReplay`], before any frame is
    /// sampled, unless `storage_px` and `bits_per_px` are positive.
    pub fn run_detailed_faulted(
        &self,
        runtime: &Runtime,
        passes: &[ServedPass],
        storage_px: f64,
        bits_per_px: f64,
        faults: Option<&FaultPlan>,
        recorder: &mut dyn Recorder,
    ) -> Result<DetailedMissionReport, KodanError> {
        let replay = DayReplay::new(
            passes,
            0,
            self.env.frame_deadline,
            self.env.frames_per_day,
            bits_per_px,
            storage_px,
            faults,
        )?;
        let outcomes = runtime.process_frames(self.frames(), &mut NullRecorder);
        let (_, day) = replay.fly_day(&outcomes, recorder);
        Ok(DetailedMissionReport {
            sent_px: day.sent_px,
            sent_value_px: day.sent_value_px,
            storage_dropped_px: day.storage_dropped_px,
            residual_px: day.residual_px,
            transmitted_density: ratio(day.sent_value_px, day.sent_px),
            shed_px: day.shed_px,
            contacts_dropped: day.contacts_dropped,
            contacts_shortened: day.contacts_shortened,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KodanConfig;
    use crate::pipeline::{Transformation, TransformationArtifacts};
    use crate::selection::SelectionLogic;
    use kodan_geodata::{Dataset, DatasetConfig};
    use kodan_hw::targets::HwTarget;
    use kodan_ml::zoo::ModelArch;

    fn artifacts(world: &World) -> TransformationArtifacts {
        let mut ds_cfg = DatasetConfig::small(1);
        ds_cfg.frame_count = 12;
        ds_cfg.frame_px = 132;
        let dataset = Dataset::sample(world, &ds_cfg);
        Transformation::new(KodanConfig::fast(3))
            .run(&dataset, ModelArch::ResNet50DilatedPpm)
            .expect("transformation succeeds")
    }

    fn params() -> MissionParams {
        MissionParams {
            sample_frames: 6,
            frame_px: 132,
            frame_km: 150.0,
            sample_window_days: 2.0,
        }
    }

    #[test]
    fn bent_pipe_dvd_tracks_prevalence() {
        let env = SpaceEnvironment::fixed(0.21);
        let world = World::new(42);
        let mission = Mission::new(&env, &world, params());
        let report = mission.run_bent_pipe();
        let prevalence =
            report.accounting.observed_value_px / report.accounting.observed_px;
        assert!((report.dvd - prevalence).abs() < 1e-9);
        assert_eq!(report.processed_fraction, 1.0);
        assert_eq!(report.system, SystemKind::BentPipe);
    }

    #[test]
    fn kodan_beats_bent_pipe_on_the_orin() {
        let env = SpaceEnvironment::fixed(0.21);
        let world = World::new(42);
        let a = artifacts(&world);
        let logic = a.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, a.engine.clone());
        let mission = Mission::new(&env, &world, params());
        let bent = mission.run_bent_pipe();
        let kodan = mission.run_with_runtime(&runtime, SystemKind::Kodan);
        assert!(
            kodan.dvd > bent.dvd,
            "kodan {} vs bent pipe {}",
            kodan.dvd,
            bent.dvd
        );
    }

    #[test]
    fn direct_deploy_misses_the_deadline_on_the_orin() {
        let env = SpaceEnvironment::fixed(0.21);
        let world = World::new(42);
        let a = artifacts(&world);
        let logic = SelectionLogic::direct_deploy(
            &a,
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, a.engine.clone());
        let mission = Mission::new(&env, &world, params());
        let report = mission.run_with_runtime(&runtime, SystemKind::DirectDeploy);
        assert!(report.processed_fraction < 0.2, "{}", report.processed_fraction);
        assert!(report.mean_frame_time > env.frame_deadline);
    }

    #[test]
    fn kodan_meets_the_deadline_on_the_orin() {
        let env = SpaceEnvironment::fixed(0.21);
        let world = World::new(42);
        let a = artifacts(&world);
        let logic = a.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, a.engine.clone());
        let mission = Mission::new(&env, &world, params());
        let report = mission.run_with_runtime(&runtime, SystemKind::Kodan);
        assert!(
            report.processed_fraction > 0.9,
            "processed fraction {}",
            report.processed_fraction
        );
    }

    #[test]
    fn recorded_mission_matches_plain_mission() {
        let env = SpaceEnvironment::fixed(0.21);
        let world = World::new(42);
        let a = artifacts(&world);
        let logic = a.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, a.engine.clone());
        let mission = Mission::new(&env, &world, params());
        let plain = mission.run_with_runtime(&runtime, SystemKind::Kodan);
        let mut recorder = kodan_telemetry::SummaryRecorder::new();
        let recorded =
            mission.run_with_runtime_recorded(&runtime, SystemKind::Kodan, &mut recorder);
        assert_eq!(plain, recorded);
        let snap = recorder.snapshot();
        assert_eq!(snap.frames, 6);
        assert_eq!(snap.span(kodan_telemetry::StageId::FrameSampling).items, 6);
        // Mission span totals are inclusive of their frame children.
        let mission_s = snap.span(kodan_telemetry::StageId::Mission).modeled_seconds;
        let frame_s = snap.span(kodan_telemetry::StageId::Frame).modeled_seconds;
        assert!((mission_s - frame_s).abs() < 1e-9);
    }

    /// Flies `flight` on `mission` and on a fresh twin: the results must
    /// match, and the twin's flight must have read (so rendered) its day.
    fn same_as_fresh<T: PartialEq + fmt::Debug>(
        mission: &Mission<'_>,
        flight: impl Fn(&Mission<'_>) -> T,
    ) {
        let twin = Mission::new(mission.env, mission.world, mission.params);
        assert_eq!(flight(mission), flight(&twin));
        assert!(twin.frames.get().is_some(), "the flight bypassed the rendered day");
    }

    #[test]
    fn one_mission_renders_its_day_once_for_every_flight() {
        let env = SpaceEnvironment::fixed(0.21);
        let world = World::new(42);
        let a = artifacts(&world);
        let direct = Runtime::new(
            SelectionLogic::direct_deploy(
                &a,
                HwTarget::OrinAgx15W,
                env.frame_deadline,
                env.capacity_fraction,
            ),
            a.engine.clone(),
        );
        let kodan = Runtime::new(
            a.select_with_capacity(HwTarget::OrinAgx15W, env.frame_deadline, env.capacity_fraction),
            a.engine.clone(),
        );
        let planner = ExecutionPlanner::new(
            crate::plan::PlanConfig::default_plan(),
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );

        let mission = Mission::new(&env, &world, params()).with_workers(2);
        same_as_fresh(&mission, |m| m.run_bent_pipe());
        let rendered = mission.frames().as_ptr();
        same_as_fresh(&mission, |m| m.run_with_runtime(&direct, SystemKind::DirectDeploy));
        same_as_fresh(&mission, |m| m.run_with_runtime(&kodan, SystemKind::Kodan));
        same_as_fresh(&mission, |m| {
            m.run_planned_recorded(&kodan, &planner, &mut NullRecorder)
        });
        assert_eq!(mission.frames().as_ptr(), rendered, "the day was rendered again");
        assert_eq!(mission.frames(), mission.sample_frames().as_slice());
    }

    #[test]
    fn sampled_frames_follow_the_ground_track() {
        let env = SpaceEnvironment::fixed(0.21);
        let world = World::new(42);
        let mission = Mission::new(&env, &world, params());
        let frames = mission.sample_frames();
        assert_eq!(frames.len(), 6);
        // Polar orbit: sampled frames span a wide latitude range.
        let lats: Vec<f64> = frames.iter().map(|f| f.center_lat_deg()).collect();
        let span = lats.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - lats.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(span > 30.0, "latitude span {span}");
    }

    #[test]
    fn detailed_mission_agrees_with_aggregate_model() {
        // The queue-replay and the aggregate capacity model should tell
        // the same story when storage is plentiful: similar transmitted
        // value density, transmitted volume within the passes' capacity.
        let world = World::new(42);
        let a = artifacts(&world);
        let report = landsat_segment(&Constellation::single(landsat_orbit()));
        let env = SpaceEnvironment::landsat(1);
        let logic = a.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, a.engine.clone());
        let mission = Mission::new(&env, &world, params());
        let aggregate = mission.run_with_runtime(&runtime, SystemKind::Kodan);

        let bits_per_px = env.imager.frame_bits() / (132.0 * 132.0);
        let detailed = mission
            .run_detailed_faulted(&runtime, &report.passes, 1e9, bits_per_px, None, &mut NullRecorder)
            .expect("valid replay inputs");
        assert!(detailed.sent_px > 0.0);
        assert!(
            (detailed.transmitted_density - aggregate.dvd).abs() < 0.2,
            "detailed density {} vs aggregate dvd {}",
            detailed.transmitted_density,
            aggregate.dvd
        );
        // Conservation: transmitted + dropped + residual is what was
        // produced (nothing is shed without a fault plan).
        let outcomes = runtime.process_frames(&mission.sample_frames(), &mut NullRecorder);
        let replay = DayReplay::new(
            &report.passes,
            0,
            env.frame_deadline,
            env.frames_per_day,
            bits_per_px,
            1e9,
            None,
        )
        .expect("valid replay inputs");
        let (_, day) = replay.fly_day(&outcomes, &mut NullRecorder);
        assert_eq!(day.sent_px, detailed.sent_px);
        assert_eq!(day.shed_px, 0.0);
        let accounted = detailed.sent_px + detailed.storage_dropped_px + detailed.residual_px;
        assert!(
            (accounted - day.enqueued_px).abs() <= 1e-9 * day.enqueued_px,
            "accounted {accounted} vs produced {}",
            day.enqueued_px
        );
    }

    #[test]
    fn tight_storage_drops_data_but_keeps_value() {
        let world = World::new(42);
        let a = artifacts(&world);
        let report = landsat_segment(&Constellation::single(landsat_orbit()));
        let env = SpaceEnvironment::landsat(1);
        let logic = a.select_with_capacity(
            HwTarget::OrinAgx15W,
            env.frame_deadline,
            env.capacity_fraction,
        );
        let runtime = Runtime::new(logic, a.engine.clone());
        let mission = Mission::new(&env, &world, params());
        let bits_per_px = env.imager.frame_bits() / (132.0 * 132.0);
        let detailed = |storage_px: f64| {
            mission
                .run_detailed_faulted(
                    &runtime,
                    &report.passes,
                    storage_px,
                    bits_per_px,
                    None,
                    &mut NullRecorder,
                )
                .expect("valid replay inputs")
        };
        let roomy = detailed(1e9);
        let tight = detailed(4.0e4);
        assert!(tight.storage_dropped_px > roomy.storage_dropped_px);
        // The value-aware queue preferentially keeps high-value data, so
        // transmitted density does not collapse under storage pressure.
        assert!(
            tight.transmitted_density >= roomy.transmitted_density - 0.1,
            "tight {} vs roomy {}",
            tight.transmitted_density,
            roomy.transmitted_density
        );
    }

    #[test]
    fn landsat_environment_is_sane() {
        let env = SpaceEnvironment::landsat(1);
        assert!((20.0..26.0).contains(&env.frame_deadline.as_seconds()));
        assert!(env.frames_per_day > 3000);
        assert!(
            (0.005..0.6).contains(&env.capacity_fraction),
            "capacity fraction {}",
            env.capacity_fraction
        );
    }
}
