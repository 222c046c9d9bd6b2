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
//!   including deferral to a later pass bounded by on-board storage.
//!   Storage is one occupancy count: a deferral adds its tiles' pixels,
//!   and each pass, when it fires, releases the pixels deferred to it.
//!   Tile sizes are integer pixel counts, so the count is exact.
//!
//! The output [`DayPlan`] is a pure function of the deterministic
//! per-frame estimates, computed serially in frame-index order, so a
//! planned mission is byte-identical at any worker count: workers only
//! *execute* the plan, they never change it. Every placement commits
//! through one window state, by processing the frame on orbit or by
//! shipping its tiles raw; each commit spends energy and heat, charges a
//! contact pass and counts the [`PlacementLedger`].
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

use crate::dvd::ratio;
use contact::ContactSchedule;
use kodan_cote::time::Duration;
use kodan_hw::latency::LatencyModel;
use kodan_hw::power::EnergyBudget;
use kodan_hw::targets::HwTarget;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
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
/// (non-cloud) pixels of the tile's ground-truth cloud mask. Its tile
/// is its position in [`FrameEstimate::tiles`].
/// `Mission::estimate_frames` fills them from each tile's
/// `TileImage::cloud_fraction`, not from anything observable on board
/// (see the ROADMAP item "Plan only on what the satellite can see").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileEstimate {
    /// Tile size, pixels.
    pub px: u64,
    /// Clear (high-value) pixels in the tile.
    pub clear_px: u64,
}

/// Everything the planner knows about one frame before placing it: the
/// dry-run Kodan outcome plus one [`TileEstimate`] per tile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameEstimate {
    /// Modeled seconds the full Kodan pipeline spends on the frame.
    pub busy_seconds: f64,
    /// Pixels Kodan processing would enqueue for downlink.
    pub sent_px: u64,
    /// Total pixels in the frame.
    pub observed_px: u64,
    /// Per-tile raw facts, by position: `tiles[k]` is tile `k` of the
    /// frame's grid.
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
    /// contact pass for ground processing.
    DownlinkRaw {
        /// Indices of the tiles to ship raw, strictly increasing.
        tiles: Vec<u32>,
    },
    /// Like `DownlinkRaw`, but the tiles wait in on-board storage for a
    /// later pass with spare capacity.
    Defer {
        /// Indices of the tiles to ship raw, strictly increasing.
        tiles: Vec<u32>,
    },
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
        let left = self.energy_available_j - self.energy_used_j;
        ratio(left, self.energy_available_j).max(0.0)
    }

    /// Fraction of the contact capacity left unspent, in `[0, 1]`;
    /// `0.0` when no capacity existed.
    pub fn contact_headroom(&self) -> f64 {
        let left = self.contact_capacity_px - self.contact_used_px;
        ratio(left, self.contact_capacity_px).max(0.0)
    }
}

/// A full day's placements plus the ledger that justified them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DayPlan {
    frames: Vec<Placement>,
    /// Aggregate accounting of the planning run.
    pub ledger: PlacementLedger,
}

impl DayPlan {
    /// The placement for the frame at `frame_index` in capture order,
    /// or `None` past the planned window (unplanned frames process
    /// on-orbit at full speed).
    pub fn placement(&self, frame_index: u64) -> Option<&Placement> {
        self.frames.get(usize::try_from(frame_index).ok()?)
    }

    /// All placements, by position: `frames()[i]` places frame `i`.
    pub fn frames(&self) -> &[Placement] {
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

/// What one frame costs under each commit, priced when the frame is
/// captured.
struct FrameCosts {
    /// The pass that serves the frame's capture.
    pass: usize,
    /// Joules of the full Kodan pipeline.
    work_j: f64,
    /// Joules of the context-engine scan a raw frame still runs.
    scan_j: f64,
    /// The thermal throttle the frame would run under.
    throttle: f64,
    /// Whether the full pipeline fits the energy harvested so far.
    energy_ok: bool,
    /// The duty-cycle stretch when it does not fit; 1.0 when it does.
    stretch: f64,
    /// Pixels the full pipeline would send.
    sent_px: f64,
    /// Tiles in the frame.
    tiles: u64,
}

/// The planning window's state. Only its two commits change it,
/// [`Window::process_on_orbit`] and [`Window::ship_raw`], apart from
/// the passes that fire as frames are entered.
struct Window {
    thermal: ThermalConfig,
    period_s: f64,
    schedule: ContactSchedule,
    heat: ThermalState,
    /// Pixels of deferred tiles in on-board storage.
    stored_px: f64,
    /// Pixels deferred to each pass, released when the pass fires.
    deferred_to: Vec<f64>,
    /// Passes fired so far.
    fired: usize,
    /// The ledger, counted as placements commit; `energy_used_j` is
    /// the energy spent so far.
    ledger: PlacementLedger,
}

impl Window {
    fn open(config: &PlanConfig, capacity_px: f64, frames: usize, period_s: f64) -> Window {
        let schedule = ContactSchedule::evenly(capacity_px, config.contacts, frames);
        Window {
            thermal: config.thermal,
            period_s,
            deferred_to: vec![0.0; schedule.contacts()],
            schedule,
            heat: ThermalState::new(),
            stored_px: 0.0,
            fired: 0,
            ledger: PlacementLedger {
                throttle_onset_k: config.thermal.throttle_onset_k,
                storage_px: config.storage_px.max(0.0),
                contact_capacity_px: capacity_px,
                ..PlacementLedger::default()
            },
        }
    }

    /// Enters `frame` and returns the pass that serves it. Passes fire
    /// at segment boundaries: entering pass `p` means every earlier pass
    /// was served, releasing its deferred tiles from storage.
    fn enter(&mut self, frame: usize) -> usize {
        let pass = self.schedule.pass_for_frame(frame);
        while self.fired < pass {
            if let Some(px) = self.deferred_to.get(self.fired) {
                self.stored_px = (self.stored_px - px).max(0.0);
            }
            self.fired += 1;
        }
        pass
    }

    /// Spends `joules` of the energy budget and deposits their heat.
    fn spend(&mut self, joules: f64) {
        self.ledger.energy_used_j += joules;
        self.heat.advance(&self.thermal, joules, self.period_s);
    }

    /// Processes the frame on orbit: spends its full work, charges its
    /// own pass with what it sends (capped at the pass's spare
    /// capacity) and runs it under the thermal throttle times the
    /// energy stretch.
    fn process_on_orbit(&mut self, costs: &FrameCosts) -> Placement {
        self.spend(costs.work_j);
        let sent_px = costs.sent_px.min(self.schedule.spare(costs.pass));
        self.schedule.charge(costs.pass, sent_px);
        let throttle = costs.throttle * costs.stretch;
        self.ledger.frames_on_orbit += 1;
        if throttle > 1.0 {
            self.ledger.frames_throttled += 1;
        }
        Placement::OnOrbit { throttle }
    }

    /// Ships the frame's `tiles` raw at `pass`, charging it `px`: the
    /// frame's own pass, or a later one through on-board storage, which
    /// is a deferral. The frame still pays its context-engine scan.
    fn ship_raw(&mut self, costs: &FrameCosts, pass: usize, tiles: Vec<u32>, px: f64) -> Placement {
        self.spend(costs.scan_j);
        self.schedule.charge(pass, px);
        let shipped = tiles.len() as u64;
        self.ledger.tiles_raw_downlinked += shipped;
        self.ledger.tiles_raw_dropped += costs.tiles.saturating_sub(shipped);
        if pass == costs.pass {
            self.ledger.frames_downlink_raw += 1;
            return Placement::DownlinkRaw { tiles };
        }
        self.stored_px += px;
        if self.stored_px > self.ledger.storage_peak_px {
            self.ledger.storage_peak_px = self.stored_px;
        }
        if let Some(deferred) = self.deferred_to.get_mut(pass) {
            *deferred += px;
        }
        self.ledger.deferred_px += px;
        self.ledger.frames_deferred += 1;
        Placement::Defer { tiles }
    }
}

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

    /// Places every frame of a window, one placement per estimate.
    /// Decisions are made serially in frame-index order from positional
    /// estimates, so the result is invariant to worker count. This is a
    /// protected lint entry point: nothing reachable from here may
    /// panic.
    pub fn plan_day(&self, estimates: &[FrameEstimate]) -> DayPlan {
        let n = estimates.len();
        let deadline_s = self.frame_deadline.as_seconds().max(0.0);
        let power_w = self.target.power_watts().max(0.0);
        let latency = LatencyModel::new(self.target);
        let scan_tile_s = latency.context_engine_tile_time().as_seconds().max(0.0);
        let duty = self.config.energy.max_duty_cycle(self.target);

        let mut total_observed = 0.0;
        for est in estimates {
            total_observed += est.observed_px as f64;
        }
        let capacity_px = self.capacity_fraction.max(0.0) * total_observed;
        let fair_share_px = if n > 0 { capacity_px / n as f64 } else { 0.0 };
        let mut window = Window::open(&self.config, capacity_px, n, deadline_s);

        let mut frames = Vec::with_capacity(n);
        for (i, est) in estimates.iter().enumerate() {
            let work_j = power_w * est.busy_seconds.max(0.0);
            let horizon = Duration::from_seconds(deadline_s * (i as f64 + 1.0));
            let energy_ok =
                window.ledger.energy_used_j + work_j <= self.config.energy.energy_over(horizon);
            let costs = FrameCosts {
                pass: window.enter(i),
                work_j,
                scan_j: power_w * scan_tile_s * est.tiles.len() as f64,
                throttle: window.heat.throttle(&self.config.thermal),
                energy_ok,
                stretch: if energy_ok || duty <= 0.0 {
                    1.0
                } else {
                    (1.0 / duty).max(1.0)
                },
                sent_px: est.sent_px as f64,
                tiles: est.tiles.len() as u64,
            };
            frames.push(match self.config.mode {
                PlanMode::AllOnOrbit => window.process_on_orbit(&costs),
                PlanMode::AllDownlinkRaw => {
                    let px = (est.observed_px as f64).min(window.schedule.spare(costs.pass));
                    let tiles = (0..est.tiles.len() as u32).collect();
                    window.ship_raw(&costs, costs.pass, tiles, px)
                }
                PlanMode::Auto => self.place_auto(&mut window, &costs, &est.tiles, fair_share_px),
            });
        }

        let mut ledger = window.ledger;
        ledger.energy_available_j = self
            .config
            .energy
            .energy_over(Duration::from_seconds(deadline_s * n as f64));
        ledger.peak_temperature_k = window.heat.peak_k();
        ledger.contact_used_px = window.schedule.used_px();
        DayPlan { frames, ledger }
    }

    /// The `Auto` decision rule for one frame. Process on-orbit while
    /// the payload is cool, the energy budget holds and the frame's own
    /// pass has room for its processed pixels; otherwise raw-fill the
    /// clearest tiles into the best pass within the defer horizon; only
    /// if no contact or storage room exists at all, process anyway under
    /// whatever throttle applies.
    fn place_auto(
        &self,
        window: &mut Window,
        costs: &FrameCosts,
        tiles: &[TileEstimate],
        fair_share_px: f64,
    ) -> Placement {
        let pass = costs.pass;
        // Cool and within budget, the throttle and the stretch are both
        // exactly 1.0, so the frame runs at full speed.
        if costs.throttle <= 1.0 && costs.energy_ok && window.schedule.spare(pass) >= costs.sent_px
        {
            return window.process_on_orbit(costs);
        }

        // Raw fill: find the first pass within the defer horizon with a
        // worthwhile amount of spare capacity.
        let last_pass = window.schedule.contacts().saturating_sub(1);
        let horizon_pass = pass
            .saturating_add(self.config.defer_horizon)
            .min(last_pass);
        let worthwhile = (pass..=horizon_pass)
            .find(|&k| window.schedule.spare(k) >= fair_share_px * DEFER_WORTHWHILE_FRACTION);
        let (target_pass, quota) = match worthwhile {
            Some(k) => (
                k,
                window.schedule.spare(k).min(fair_share_px * RAW_FILL_BOOST),
            ),
            None => (pass, window.schedule.spare(pass)),
        };
        let deferring = target_pass > pass;
        let storage_px = self.config.storage_px.max(1.0);

        // Rank by clear pixels descending; the sort is stable, so ties
        // keep tile order.
        let mut ranked: Vec<(u32, &TileEstimate)> = (0..).zip(tiles).collect();
        ranked.sort_by_key(|&(_, tile)| Reverse(tile.clear_px));

        let mut chosen: Vec<u32> = Vec::new();
        let mut fill_px = 0.0;
        for (index, tile) in ranked {
            let tile_px = tile.px as f64;
            if tile_px <= 0.0 {
                continue;
            }
            if fill_px + tile_px > quota
                || (deferring && window.stored_px + fill_px + tile_px > storage_px)
            {
                break;
            }
            fill_px += tile_px;
            chosen.push(index);
        }

        if chosen.is_empty() {
            // No contact or storage room anywhere in the horizon:
            // process anyway under the applicable throttle and stretch —
            // progress beats a dropped frame.
            return window.process_on_orbit(costs);
        }
        chosen.sort_unstable();
        window.ship_raw(costs, target_pass, chosen, fill_px)
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
        let raw_frame = plan.frames().iter().find_map(|placement| match placement {
            Placement::DownlinkRaw { tiles } | Placement::Defer { tiles } => Some(tiles.clone()),
            Placement::OnOrbit { .. } => None,
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
