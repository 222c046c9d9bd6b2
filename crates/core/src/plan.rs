//! The hybrid space–ground execution planner (`kodan-plan`).
//!
//! Kodan's selection logic decides *how* to process a frame on-orbit;
//! this subsystem decides *whether* it should be processed there at all.
//! For every frame of a mission day the [`ExecutionPlanner`] chooses one
//! of three placements by scoring value density against a cost triple:
//!
//! - **energy** — the [`EnergyBudget`]'s sustainable duty cycle and the
//!   joules each frame's modeled compute would dissipate;
//! - **thermal** — the deterministic [`ThermalState`] accumulator
//!   ([`plan::thermal`](crate::plan::thermal)), which derates sustained
//!   compute exactly where the probabilistic `kodan-faults` slowdown
//!   used to guess;
//! - **contact** — the per-pass downlink budgets of the
//!   [`ContactSchedule`] ([`plan::contact`](crate::plan::contact)),
//!   including deferral to a later pass bounded by on-board storage
//!   occupancy (modeled with the real [`DownlinkQueue`]).
//!
//! The output [`DayPlan`] is a pure function of the deterministic
//! per-frame estimates, computed serially in frame-index order, so a
//! planned mission is byte-identical at any worker count: workers only
//! *execute* the plan, they never change it.
//!
//! Planning happens in two passes. Pass one dry-runs the runtime to
//! collect a [`FrameEstimate`] per frame (compute seconds, downlink
//! volume, and each tile's clear-pixel count). The clear-pixel counts
//! are read from the tiles' ground-truth cloud masks
//! (`TileImage::cloud_fraction`), which a satellite cannot see; the
//! ROADMAP item "Plan only on what the satellite can see" replaces them
//! with an observable score. Pass two replays the frames under the
//! chosen placements: `ProcessOnOrbit` frames run the full Kodan
//! pipeline, `DownlinkRaw` and `Defer` frames skip inference and ship
//! their clearest raw tiles into the spare capacity of a contact pass.

pub mod contact;
pub mod thermal;

use crate::queue::{DownlinkQueue, QueueEntry};
use contact::ContactSchedule;
use kodan_cote::time::Duration;
use kodan_hw::latency::LatencyModel;
use kodan_hw::power::EnergyBudget;
use kodan_hw::targets::HwTarget;
use serde::{Deserialize, Serialize};
use thermal::{ThermalConfig, ThermalState};

/// Which decision rule the planner applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanMode {
    /// Score every frame against the energy/thermal/contact triple and
    /// pick the best placement (the real planner).
    Auto,
    /// Force every frame on-orbit, throttled by the thermal accumulator
    /// and stretched by the energy duty cycle — the "just compute in
    /// space" baseline.
    AllOnOrbit,
    /// Force every frame down raw with no tile selection — the
    /// contact-limited bent-pipe baseline.
    AllDownlinkRaw,
}

impl std::fmt::Display for PlanMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            PlanMode::Auto => "auto",
            PlanMode::AllOnOrbit => "all-on-orbit",
            PlanMode::AllDownlinkRaw => "all-downlink-raw",
        };
        f.write_str(name)
    }
}

/// Knobs for one planning run. `Copy`, so a fleet can stamp one config
/// across every satellite.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanConfig {
    /// Decision rule (see [`PlanMode`]).
    pub mode: PlanMode,
    /// Orbit-average power available to the payload.
    pub energy: EnergyBudget,
    /// Thermal accumulator constants.
    pub thermal: ThermalConfig,
    /// Ground-contact passes over the sampled window (at least 1).
    pub contacts: usize,
    /// How many passes ahead a frame may be deferred.
    pub defer_horizon: usize,
    /// On-board storage available to deferred raw tiles, pixels.
    pub storage_px: f64,
}

impl PlanConfig {
    /// The default scenario: a 3U-cubesat energy budget, Orin-tuned
    /// thermal constants, four passes per sampled window, deferral up to
    /// two passes ahead, and ~1.1 frames of deferred-tile storage.
    pub fn default_plan() -> PlanConfig {
        PlanConfig {
            mode: PlanMode::Auto,
            energy: EnergyBudget::cubesat_3u(),
            thermal: ThermalConfig::orin_default(),
            contacts: 4,
            defer_horizon: 2,
            storage_px: 2.0e4,
        }
    }
}

/// Raw per-tile facts the planner ranks tiles by: size and the clear
/// (non-cloud) pixels of the tile's ground-truth cloud mask.
/// `Mission::estimate_frames` fills them from each tile's
/// `TileImage::cloud_fraction`, not from anything observable on board
/// (see the ROADMAP item "Plan only on what the satellite can see").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileEstimate {
    /// Tile index within its frame's grid.
    pub index: u32,
    /// Tile size, pixels.
    pub px: u64,
    /// Clear (high-value) pixels in the tile.
    pub clear_px: u64,
}

/// Everything the planner knows about one frame before placing it: the
/// dry-run Kodan outcome plus each tile's [`TileEstimate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameEstimate {
    /// Modeled seconds the full Kodan pipeline spends on the frame.
    pub busy_seconds: f64,
    /// Pixels Kodan processing would enqueue for downlink.
    pub sent_px: u64,
    /// Total pixels in the frame.
    pub observed_px: u64,
    /// Per-tile raw facts, any order (the planner canonicalizes).
    pub tiles: Vec<TileEstimate>,
}

/// Where one frame's work lands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Placement {
    /// Run the full Kodan pipeline on the satellite. `throttle`
    /// multiplies every modeled stage time (1.0 = full speed; the
    /// thermal factor and/or energy duty-cycle stretch otherwise).
    OnOrbit {
        /// Compute-time multiplier the frame runs under.
        throttle: f64,
    },
    /// Skip inference; downlink the listed raw tiles at the frame's own
    /// contact pass for ground processing. Tile indices are sorted.
    DownlinkRaw {
        /// Serving pass.
        pass: u32,
        /// Sorted tile indices to ship raw.
        tiles: Vec<u32>,
    },
    /// Like `DownlinkRaw`, but the tiles wait in on-board storage for a
    /// later pass with spare capacity.
    Defer {
        /// Serving (later) pass.
        pass: u32,
        /// Sorted tile indices to ship raw.
        tiles: Vec<u32>,
    },
}

/// One frame's placement decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FramePlan {
    /// Frame index in mission capture order.
    pub frame_index: u64,
    /// The chosen placement.
    pub placement: Placement,
}

/// Aggregate accounting of a planning run: per-class counts plus the
/// energy, thermal and contact headroom the plan left on the table.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PlacementLedger {
    /// Frames placed on-orbit.
    pub frames_on_orbit: u64,
    /// Frames placed raw at their own pass.
    pub frames_downlink_raw: u64,
    /// Frames deferred to a later pass.
    pub frames_deferred: u64,
    /// On-orbit frames that ran with a throttle above 1.0.
    pub frames_throttled: u64,
    /// Raw tiles shipped (own-pass and deferred).
    pub tiles_raw_downlinked: u64,
    /// Tiles of raw/deferred frames dropped for lack of capacity.
    pub tiles_raw_dropped: u64,
    /// Joules the plan spends.
    pub energy_used_j: f64,
    /// Joules the budget harvests over the window.
    pub energy_available_j: f64,
    /// Peak thermal-accumulator temperature, kelvin above ambient.
    pub peak_temperature_k: f64,
    /// The throttle onset the plan duty-cycled against, kelvin.
    pub throttle_onset_k: f64,
    /// Total contact capacity across all passes, pixels.
    pub contact_capacity_px: f64,
    /// Contact capacity the plan committed, pixels.
    pub contact_used_px: f64,
    /// Pixels routed through deferral.
    pub deferred_px: f64,
    /// Peak on-board storage occupancy of deferred tiles, pixels.
    pub storage_peak_px: f64,
    /// On-board storage bound, pixels.
    pub storage_px: f64,
}

impl PlacementLedger {
    /// Fraction of the energy budget left unspent, in `[0, 1]`; `0.0`
    /// when no energy was available at all.
    pub fn energy_headroom(&self) -> f64 {
        if self.energy_available_j > 0.0 {
            ((self.energy_available_j - self.energy_used_j) / self.energy_available_j).max(0.0)
        } else {
            0.0
        }
    }

    /// Fraction of the contact capacity left unspent, in `[0, 1]`;
    /// `0.0` when no capacity existed.
    pub fn contact_headroom(&self) -> f64 {
        if self.contact_capacity_px > 0.0 {
            ((self.contact_capacity_px - self.contact_used_px) / self.contact_capacity_px).max(0.0)
        } else {
            0.0
        }
    }

    /// Kelvin of margin between the peak temperature and the throttle
    /// onset (negative when the plan ran hot).
    pub fn thermal_headroom_k(&self) -> f64 {
        self.throttle_onset_k - self.peak_temperature_k
    }
}

/// A full day's placements plus the ledger that justified them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DayPlan {
    frames: Vec<FramePlan>,
    /// Aggregate accounting of the planning run.
    pub ledger: PlacementLedger,
}

impl DayPlan {
    /// The placement for the frame at `frame_index` in capture order,
    /// or `None` past the planned window (unplanned frames process
    /// on-orbit at full speed).
    pub fn placement(&self, frame_index: u64) -> Option<&Placement> {
        let idx = usize::try_from(frame_index).ok()?;
        self.frames.get(idx).map(|f| &f.placement)
    }

    /// All placements, in frame order.
    pub fn frames(&self) -> &[FramePlan] {
        &self.frames
    }
}

/// Raw-fill frames may opportunistically claim a little more than their
/// fair share of a pass — the surplus goes to their *clearest* tiles, so
/// extra spare capacity is always spent at above-average value density.
const RAW_FILL_BOOST: f64 = 1.25;

/// A pass must have at least this fraction of a fair share spare before
/// a frame defers into it; scraps below that are not worth the storage.
const DEFER_WORTHWHILE_FRACTION: f64 = 0.5;

/// The planner: scores every frame of a window against the
/// energy/thermal/contact cost triple and emits a [`DayPlan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionPlanner {
    config: PlanConfig,
    target: HwTarget,
    frame_deadline: Duration,
    capacity_fraction: f64,
}

impl ExecutionPlanner {
    /// Builds a planner for `target` flying under `config`, with the
    /// environment's frame deadline and downlink capacity fraction.
    pub fn new(
        config: PlanConfig,
        target: HwTarget,
        frame_deadline: Duration,
        capacity_fraction: f64,
    ) -> ExecutionPlanner {
        ExecutionPlanner {
            config,
            target,
            frame_deadline,
            capacity_fraction,
        }
    }

    /// The config in force.
    pub fn config(&self) -> &PlanConfig {
        &self.config
    }

    /// Places every frame of a window. Decisions are made serially in
    /// frame-index order and tiles are canonicalized by index before
    /// ranking, so the result is invariant to both worker count and the
    /// order tiles appear in each estimate. This is a protected lint
    /// entry point: nothing reachable from here may panic.
    pub fn plan_day(&self, estimates: &[FrameEstimate]) -> DayPlan {
        let n = estimates.len();
        let deadline_s = self.frame_deadline.as_seconds().max(0.0);
        let power_w = self.target.power_watts().max(0.0);
        let latency = LatencyModel::new(self.target);
        let scan_tile_s = latency.context_engine_tile_time().as_seconds().max(0.0);

        let mut total_observed = 0.0;
        for est in estimates {
            total_observed += est.observed_px as f64;
        }
        let capacity_px = self.capacity_fraction.max(0.0) * total_observed;
        let mut schedule = ContactSchedule::evenly(capacity_px, self.config.contacts, n);
        let fair_share_px = if n > 0 { capacity_px / n as f64 } else { 0.0 };

        let duty = self.config.energy.max_duty_cycle(self.target);
        let mut thermal_state = ThermalState::new();
        // Deferred tiles live in the real downlink queue model until
        // their pass fires; its occupancy bound is what gates deferral.
        let mut storage = DownlinkQueue::new(self.config.storage_px.max(1.0));
        let mut deferred_to: Vec<f64> = vec![0.0; schedule.contacts()];
        let mut served_pass = 0usize;
        let mut energy_used_j = 0.0;

        let mut ledger = PlacementLedger {
            throttle_onset_k: self.config.thermal.throttle_onset_k,
            storage_px: self.config.storage_px.max(0.0),
            contact_capacity_px: capacity_px,
            ..PlacementLedger::default()
        };
        let mut frames = Vec::with_capacity(n);

        for (i, est) in estimates.iter().enumerate() {
            let pass = schedule.pass_for_frame(i);
            // Passes fire at segment boundaries: entering pass `p` means
            // every earlier pass was served, releasing its deferred
            // tiles from storage.
            while served_pass < pass {
                if let Some(px) = deferred_to.get(served_pass).copied() {
                    if px > 0.0 {
                        let _ = storage.drain(px);
                    }
                }
                served_pass = served_pass.saturating_add(1);
            }

            let throttle = thermal_state.throttle(&self.config.thermal);
            let busy_s = est.busy_seconds.max(0.0);
            let work_j = power_w * busy_s;
            let scan_work_j = power_w * scan_tile_s * est.tiles.len() as f64;
            let horizon = Duration::from_seconds(deadline_s * (i as f64 + 1.0));
            let energy_ok = energy_used_j + work_j <= self.config.energy.energy_over(horizon);
            let energy_stretch = if energy_ok || duty <= 0.0 {
                1.0
            } else {
                (1.0 / duty).max(1.0)
            };

            let placement = match self.config.mode {
                PlanMode::AllOnOrbit => {
                    energy_used_j += work_j;
                    thermal_state.advance(&self.config.thermal, work_j, deadline_s);
                    schedule.charge(pass, (est.sent_px as f64).min(schedule.spare(pass)));
                    Placement::OnOrbit {
                        throttle: throttle * energy_stretch,
                    }
                }
                PlanMode::AllDownlinkRaw => {
                    let mut tiles: Vec<u32> = est.tiles.iter().map(|t| t.index).collect();
                    tiles.sort_unstable();
                    tiles.dedup();
                    energy_used_j += scan_work_j;
                    thermal_state.advance(&self.config.thermal, scan_work_j, deadline_s);
                    schedule.charge(pass, (est.observed_px as f64).min(schedule.spare(pass)));
                    Placement::DownlinkRaw {
                        pass: pass as u32,
                        tiles,
                    }
                }
                PlanMode::Auto => self.place_auto(
                    est,
                    pass,
                    throttle,
                    energy_ok,
                    energy_stretch,
                    fair_share_px,
                    work_j,
                    scan_work_j,
                    deadline_s,
                    &mut schedule,
                    &mut thermal_state,
                    &mut storage,
                    &mut deferred_to,
                    &mut energy_used_j,
                ),
            };

            match &placement {
                Placement::OnOrbit { throttle } => {
                    ledger.frames_on_orbit += 1;
                    if *throttle > 1.0 {
                        ledger.frames_throttled += 1;
                    }
                }
                Placement::DownlinkRaw { tiles, .. } => {
                    ledger.frames_downlink_raw += 1;
                    ledger.tiles_raw_downlinked += tiles.len() as u64;
                    ledger.tiles_raw_dropped +=
                        (est.tiles.len() as u64).saturating_sub(tiles.len() as u64);
                }
                Placement::Defer { tiles, .. } => {
                    ledger.frames_deferred += 1;
                    ledger.tiles_raw_downlinked += tiles.len() as u64;
                    ledger.tiles_raw_dropped +=
                        (est.tiles.len() as u64).saturating_sub(tiles.len() as u64);
                }
            }
            if storage.occupied_bits() > ledger.storage_peak_px {
                ledger.storage_peak_px = storage.occupied_bits();
            }
            frames.push(FramePlan {
                frame_index: i as u64,
                placement,
            });
        }

        ledger.energy_used_j = energy_used_j;
        ledger.energy_available_j = self
            .config
            .energy
            .energy_over(Duration::from_seconds(deadline_s * n as f64));
        ledger.peak_temperature_k = thermal_state.peak_k();
        ledger.contact_used_px = schedule.used_px();
        for px in &deferred_to {
            ledger.deferred_px += px;
        }

        DayPlan { frames, ledger }
    }

    /// The `Auto` decision rule for one frame. Process on-orbit while
    /// the payload is cool, the energy budget holds and the frame's own
    /// pass has room for its processed pixels; otherwise raw-fill the
    /// clearest tiles into the best pass within the defer horizon; only
    /// if no contact or storage room exists at all, process anyway under
    /// whatever throttle applies.
    #[allow(clippy::too_many_arguments)]
    fn place_auto(
        &self,
        est: &FrameEstimate,
        pass: usize,
        throttle: f64,
        energy_ok: bool,
        energy_stretch: f64,
        fair_share_px: f64,
        work_j: f64,
        scan_work_j: f64,
        deadline_s: f64,
        schedule: &mut ContactSchedule,
        thermal_state: &mut ThermalState,
        storage: &mut DownlinkQueue,
        deferred_to: &mut [f64],
        energy_used_j: &mut f64,
    ) -> Placement {
        let sent_px = est.sent_px as f64;
        let cool = throttle <= 1.0;
        if cool && energy_ok && schedule.spare(pass) >= sent_px {
            *energy_used_j += work_j;
            thermal_state.advance(&self.config.thermal, work_j, deadline_s);
            schedule.charge(pass, sent_px);
            return Placement::OnOrbit { throttle: 1.0 };
        }

        // Raw fill: find the first pass within the defer horizon with a
        // worthwhile amount of spare capacity.
        let last_pass = schedule.contacts().saturating_sub(1);
        let horizon_pass = pass.saturating_add(self.config.defer_horizon).min(last_pass);
        let mut target_pass = pass;
        let mut worthwhile = false;
        let mut k = pass;
        while k <= horizon_pass {
            if schedule.spare(k) >= fair_share_px * DEFER_WORTHWHILE_FRACTION {
                target_pass = k;
                worthwhile = true;
                break;
            }
            k = k.saturating_add(1);
        }
        let quota = if worthwhile {
            schedule.spare(target_pass).min(fair_share_px * RAW_FILL_BOOST)
        } else {
            schedule.spare(pass)
        };
        let deferring = target_pass > pass;

        // Canonicalize tile order, then rank by clear pixels descending
        // (ties by index) so the fill is invariant to the order tiles
        // were estimated in.
        let mut ranked: Vec<TileEstimate> = est.tiles.clone();
        ranked.sort_unstable_by(|a, b| a.index.cmp(&b.index));
        ranked.dedup_by(|a, b| a.index == b.index);
        ranked.sort_by(|a, b| b.clear_px.cmp(&a.clear_px).then(a.index.cmp(&b.index)));

        let mut chosen: Vec<u32> = Vec::new();
        let mut fill_px = 0.0;
        for tile in &ranked {
            let tile_px = tile.px as f64;
            if tile_px <= 0.0 {
                continue;
            }
            if fill_px + tile_px > quota {
                break;
            }
            if deferring {
                if storage.occupied_bits() + tile_px > storage.storage_bits() {
                    break;
                }
                let value = (tile.clear_px as f64).min(tile_px);
                match QueueEntry::new(tile_px, value) {
                    Ok(entry) => storage.push(entry),
                    Err(_) => continue,
                }
            }
            fill_px += tile_px;
            chosen.push(tile.index);
        }

        if chosen.is_empty() {
            // No contact or storage room anywhere in the horizon:
            // process anyway under the applicable throttle and stretch —
            // progress beats a dropped frame.
            *energy_used_j += work_j;
            thermal_state.advance(&self.config.thermal, work_j, deadline_s);
            schedule.charge(pass, sent_px.min(schedule.spare(pass)));
            return Placement::OnOrbit {
                throttle: throttle * energy_stretch,
            };
        }

        chosen.sort_unstable();
        schedule.charge(target_pass, fill_px);
        *energy_used_j += scan_work_j;
        thermal_state.advance(&self.config.thermal, scan_work_j, deadline_s);
        if deferring {
            if let Some(px) = deferred_to.get_mut(target_pass) {
                *px += fill_px;
            }
            Placement::Defer {
                pass: target_pass as u32,
                tiles: chosen,
            }
        } else {
            Placement::DownlinkRaw {
                pass: target_pass as u32,
                tiles: chosen,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic window: every frame computes for `busy_s`, sends 21%
    /// of its pixels under Kodan, and carries 9 tiles of graded
    /// cloudiness (tile t has `90 - 10t`% clear pixels).
    fn synthetic_estimates(frames: usize, busy_s: f64) -> Vec<FrameEstimate> {
        (0..frames)
            .map(|_| {
                let tiles: Vec<TileEstimate> = (0..9u32)
                    .map(|t| TileEstimate {
                        index: t,
                        px: 1936,
                        clear_px: (1936.0 * (0.9 - 0.1 * t as f64)).round() as u64,
                    })
                    .collect();
                FrameEstimate {
                    busy_seconds: busy_s,
                    sent_px: (1936.0_f64 * 9.0 * 0.21).round() as u64,
                    observed_px: 1936 * 9,
                    tiles,
                }
            })
            .collect()
    }

    fn planner(config: PlanConfig) -> ExecutionPlanner {
        ExecutionPlanner::new(
            config,
            HwTarget::OrinAgx15W,
            Duration::from_seconds(21.0),
            0.21,
        )
    }

    #[test]
    fn auto_mode_duty_cycles_between_compute_and_raw_fill() {
        let estimates = synthetic_estimates(48, 15.0);
        let plan = planner(PlanConfig::default_plan()).plan_day(&estimates);
        let ledger = &plan.ledger;
        assert!(
            ledger.frames_on_orbit > 0,
            "some frames must process on-orbit: {ledger:?}"
        );
        assert!(
            ledger.frames_downlink_raw + ledger.frames_deferred > 0,
            "thermal pressure must push some frames to raw downlink: {ledger:?}"
        );
        assert_eq!(
            ledger.frames_on_orbit + ledger.frames_downlink_raw + ledger.frames_deferred,
            48
        );
        assert_eq!(
            ledger.frames_throttled, 0,
            "auto mode processes only while cool: {ledger:?}"
        );
        assert!(
            ledger.contact_used_px <= ledger.contact_capacity_px + 1e-6,
            "the plan never overfills the downlink: {ledger:?}"
        );
    }

    #[test]
    fn raw_fill_prefers_the_clearest_tiles() {
        let estimates = synthetic_estimates(48, 15.0);
        let plan = planner(PlanConfig::default_plan()).plan_day(&estimates);
        let raw_frame = plan.frames().iter().find_map(|f| match &f.placement {
            Placement::DownlinkRaw { tiles, .. } | Placement::Defer { tiles, .. } => {
                Some(tiles.clone())
            }
            _ => None,
        });
        let tiles = raw_frame.expect("at least one raw frame");
        assert!(!tiles.is_empty());
        assert!(
            tiles.len() < 9,
            "partial fill: a raw frame ships a subset, not everything"
        );
        // Tiles are graded clearest-first by index, so the chosen set
        // must be exactly the lowest indices.
        let expected: Vec<u32> = (0..tiles.len() as u32).collect();
        assert_eq!(tiles, expected, "fill must take the clearest tiles");
    }

    #[test]
    fn all_on_orbit_mode_throttles_sustained_compute() {
        let estimates = synthetic_estimates(48, 15.0);
        let mut config = PlanConfig::default_plan();
        config.mode = PlanMode::AllOnOrbit;
        let plan = planner(config).plan_day(&estimates);
        assert_eq!(plan.ledger.frames_on_orbit, 48);
        assert!(
            plan.ledger.frames_throttled > 30,
            "sustained compute must spend most of the window throttled: {:?}",
            plan.ledger
        );
        assert!(plan.ledger.peak_temperature_k > plan.ledger.throttle_onset_k);
    }

    #[test]
    fn all_downlink_mode_ships_every_tile_raw() {
        let estimates = synthetic_estimates(12, 15.0);
        let mut config = PlanConfig::default_plan();
        config.mode = PlanMode::AllDownlinkRaw;
        let plan = planner(config).plan_day(&estimates);
        assert_eq!(plan.ledger.frames_downlink_raw, 12);
        assert_eq!(plan.ledger.tiles_raw_downlinked, 12 * 9);
        assert_eq!(plan.ledger.tiles_raw_dropped, 0);
    }

    #[test]
    fn exhausted_passes_defer_frames_within_the_horizon() {
        // Frames too hot to process from the start (tiny onset) and a
        // pass budget half a fair share: early frames grab the whole
        // pass, later frames in the segment must defer forward.
        let estimates = synthetic_estimates(24, 15.0);
        let mut config = PlanConfig::default_plan();
        config.thermal.throttle_onset_k = 0.0;
        config.contacts = 2;
        config.storage_px = 1.0e5;
        let plan = planner(config).plan_day(&estimates);
        // Onset 0 forbids the cool process path; any on-orbit frames are
        // end-of-window fallbacks and carry a throttle marker.
        assert_eq!(
            plan.ledger.frames_on_orbit, plan.ledger.frames_throttled,
            "cool processing must be impossible at onset 0: {:?}",
            plan.ledger
        );
        assert!(
            plan.ledger.frames_deferred > 0,
            "drained passes must push frames to later contacts: {:?}",
            plan.ledger
        );
        assert!(plan.ledger.deferred_px > 0.0);
        assert!(plan.ledger.storage_peak_px > 0.0);
        assert!(plan.ledger.storage_peak_px <= plan.ledger.storage_px);
    }

    #[test]
    fn plans_are_invariant_to_tile_estimate_order() {
        let mut estimates = synthetic_estimates(24, 15.0);
        let planner = planner(PlanConfig::default_plan());
        let baseline = planner.plan_day(&estimates);
        for est in &mut estimates {
            est.tiles.reverse();
        }
        assert_eq!(
            baseline,
            planner.plan_day(&estimates),
            "tile evaluation order leaked into the plan"
        );
    }

    #[test]
    fn empty_windows_and_degenerate_configs_plan_cleanly() {
        let planner_default = planner(PlanConfig::default_plan());
        let empty = planner_default.plan_day(&[]);
        assert!(empty.frames().is_empty());
        assert_eq!(empty.placement(0), None);
        assert_eq!(empty.ledger.energy_used_j, 0.0);

        let mut config = PlanConfig::default_plan();
        config.contacts = 0;
        config.storage_px = -4.0;
        config.defer_horizon = 0;
        let plan = planner(config).plan_day(&synthetic_estimates(4, 15.0));
        assert_eq!(plan.frames().len(), 4);
        // With one implicit pass and no deferral the plan still places
        // every frame somewhere.
        assert_eq!(
            plan.ledger.frames_on_orbit
                + plan.ledger.frames_downlink_raw
                + plan.ledger.frames_deferred,
            4
        );
    }

    #[test]
    fn ledger_headroom_accessors_guard_zero_denominators() {
        let ledger = PlacementLedger::default();
        assert_eq!(ledger.energy_headroom(), 0.0);
        assert_eq!(ledger.contact_headroom(), 0.0);
        let busy = PlacementLedger {
            energy_used_j: 25.0,
            energy_available_j: 100.0,
            contact_capacity_px: 200.0,
            contact_used_px: 150.0,
            ..PlacementLedger::default()
        };
        assert!((busy.energy_headroom() - 0.75).abs() < 1e-12);
        assert!((busy.contact_headroom() - 0.25).abs() < 1e-12);
    }
}
