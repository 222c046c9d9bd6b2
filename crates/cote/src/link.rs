//! Contact windows and downlink capacity.
//!
//! A contact window is a maximal interval during which a satellite is above
//! a ground station's elevation mask. Windows are found by coarse time
//! stepping followed by bisection refinement of the rise and set edges.
//!
//! The coarse scan is shared by every station of a ground segment: each
//! scan instant, and the first grazing-probe midpoint of each step, is
//! propagated once per satellite, and every station advances its own
//! rise/set state from those positions. Deeper grazing probes and edge
//! bisection run per station. Each station's windows are exactly those a
//! single-station scan finds, so the result does not depend on how many
//! stations share the scan.
//!
//! For most of a day no station is near the satellite, and near a station
//! most instants are far from its mask. One bound, `Reach`, says how far
//! a station's elevation can move within `h` seconds of an instant whose
//! elevation and slant range are known, and the scan propagates nothing
//! that bound rules out:
//!
//! - a coarse-scan instant, while every station stays provably below its
//!   mask from the last propagated instant through that one (the scan
//!   resumes with a true elevation at the first instant of the next step
//!   it cannot rule out);
//! - a step's shared probe midpoint, unless some station's endpoints come
//!   within reach of its mask over half the step;
//! - a probe sub-interval, at any depth, whose midpoint is out of reach
//!   of the mask over half the sub-interval.
//!
//! Each prune discards only time in which no instant is visible, so the
//! left-first probe meets the same first visible midpoint, every bisection
//! starts from the same interval, and every window keeps its bits.

use crate::ground::{GroundSegment, GroundStation, Look};
use crate::orbit::Orbit;
use crate::propagate::{ecef_speed_bound, position_ecef};
use crate::time::{Duration, Epoch};
use crate::vec3::Vec3;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A single satellite-to-station contact opportunity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContactWindow {
    /// Index of the station within the ground segment that produced this
    /// window.
    pub station: usize,
    /// Rise time (first instant above the mask).
    pub start: Epoch,
    /// Set time (last instant above the mask).
    pub end: Epoch,
    /// Sustained downlink rate during the pass, bits/second.
    pub rate_bps: f64,
}

impl ContactWindow {
    /// Pass duration.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }

    /// True if `epoch` falls within the window.
    pub fn contains(&self, epoch: Epoch) -> bool {
        epoch >= self.start && epoch <= self.end
    }
}

impl fmt::Display for ContactWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "contact(station {}, {} for {})",
            self.station,
            self.start,
            self.duration()
        )
    }
}

/// Coarse step in seconds used when scanning for visibility transitions. A
/// typical LEO pass lasts several minutes, so 10 s cannot skip over one —
/// but a grazing pass that peaks just above the mask can fit entirely
/// between two samples, so invisible->invisible steps that come within
/// reach of the mask are probed recursively (see [`find_visible_between`]).
const SCAN_STEP_SECONDS: f64 = 10.0;

/// Smallest interval the grazing probe subdivides, seconds. Passes below
/// ~1 s are discarded when a window is recorded anyway, so probing a
/// finer grid buys nothing.
const PROBE_FLOOR_SECONDS: f64 = 0.5;

/// Added to every [`Reach`], radians. Evaluated elevations carry float
/// rounding: about 1e-9 rad from the rounding of GMST's rotation angle,
/// and up to 3e-8 rad from `asin` near the zenith. 1e-6 rad (0.2 arc
/// seconds) covers both with room to spare and costs no measurable
/// pruning.
const REACH_SLACK_RAD: f64 = 1e-6;

/// Computes all contact windows between one satellite and every station of
/// a ground segment over `[orbit.epoch(), orbit.epoch() + horizon]`.
///
/// Windows are returned sorted by start time; windows starting at the
/// same instant stay in station order. Edges are refined to ~100 ms by
/// bisection.
pub fn contact_windows(
    orbit: &Orbit,
    segment: &GroundSegment,
    horizon: Duration,
) -> Vec<ContactWindow> {
    let position = |t| position_ecef(orbit, t);
    scan(
        &position,
        ecef_speed_bound(orbit),
        segment,
        orbit.epoch(),
        horizon,
    )
}

/// [`contact_windows`] of a satellite at ECEF `position(t)` (meters) over
/// `[t0, t0 + horizon]`, given that it never moves faster than `speed`
/// m/s. Tests drive it with trajectories no orbit flies.
fn scan(
    position: &dyn Fn(Epoch) -> Vec3,
    speed: f64,
    segment: &GroundSegment,
    t0: Epoch,
    horizon: Duration,
) -> Vec<ContactWindow> {
    let t_end = t0 + horizon;
    let reach = Reach { speed };
    let start = position(t0);
    let mut scans: Vec<StationScan<'_>> = segment
        .iter()
        .enumerate()
        .map(|(index, station)| StationScan::new(position, &reach, index, station, t0, start))
        .collect();

    let step = Duration::from_seconds(SCAN_STEP_SECONDS);
    let mut t = t0;
    // The last propagated scan instant: every station's `look` is from it.
    let mut seen = t0;
    while t < t_end {
        let stepped = t + step;
        let t_next = if stepped < t_end { stepped } else { t_end };
        let since_seen = (t_next - seen).as_seconds();
        let blind = |scan: &StationScan<'_>| {
            reach.blind(scan.look, scan.station.min_elevation(), since_seen)
        };
        if scans.iter().all(blind) {
            // Every instant of the step lies within `since_seen` of
            // `seen`, and no station can see the satellite there.
            t = t_next;
            continue;
        }
        if seen != t {
            // Resuming after blind steps: this step's probe needs a true
            // elevation at its first instant.
            let at = position(t);
            for scan in &mut scans {
                scan.look = scan.station.look_at(at);
            }
        }
        let next = position(t_next);
        let mid = probe_midpoint(t, t_next);
        // Propagated on the first station that probes this step.
        let mut at_mid: Option<Vec3> = None;
        for scan in &mut scans {
            scan.step(t, t_next, next, mid, &mut at_mid);
        }
        t = t_next;
        seen = t_next;
    }

    let mut windows: Vec<ContactWindow> = scans
        .into_iter()
        .flat_map(|scan| scan.finish(t_end))
        .collect();
    // Stable and total (`total_cmp`): a corrupt epoch must not panic a
    // fleet run that reaches this sort from a protected entry point.
    windows.sort_by(|a, b| {
        a.start
            .seconds_since_start()
            .total_cmp(&b.start.seconds_since_start())
    });
    windows
}

/// How far a station's elevation can move, radians, within `h` seconds
/// of an instant where the satellite sits at slant range `ρ`:
/// `reach(ρ, h) = v h / (ρ − v h)`, or `+∞` once `ρ ≤ v h`, plus
/// [`REACH_SLACK_RAD`].
///
/// Derivation: the satellite moves at most `d = v h` meters in ECEF,
/// with `v` from [`ecef_speed_bound`]. The line of sight then turns by at
/// most `asin(d / ρ)`, the widest angle a ball of radius `d` subtends at
/// distance `ρ`. Elevation is 90° less the angle between the line of
/// sight and the station's up vector, so it moves no further than the
/// line of sight turns. And `asin x ≤ x / √(1 − x²) ≤ x / (1 − x)` for
/// `x = d / ρ` in `[0, 1)`.
struct Reach {
    /// Upper bound on the satellite's ECEF speed, m/s.
    speed: f64,
}

impl Reach {
    fn radians(&self, range: f64, h: f64) -> f64 {
        let travel = self.speed * h;
        if range <= travel {
            return f64::INFINITY;
        }
        travel / (range - travel) + REACH_SLACK_RAD
    }

    /// True if the satellite, seen at `look` at one instant, stays below
    /// `mask` throughout the `h` seconds either side of it.
    fn blind(&self, look: Look, mask: f64, h: f64) -> bool {
        look.elevation + self.radians(look.range, h) < mask
    }
}

/// One station's side of the shared coarse scan: its rise/set state and
/// the windows found so far.
struct StationScan<'a> {
    position: &'a dyn Fn(Epoch) -> Vec3,
    reach: &'a Reach,
    index: usize,
    station: &'a GroundStation,
    /// The satellite from this station at the last propagated instant.
    look: Look,
    /// The open window's rise: `Some` exactly while the satellite was
    /// visible at the last scan instant.
    rise: Option<Epoch>,
    windows: Vec<ContactWindow>,
}

impl<'a> StationScan<'a> {
    fn new(
        position: &'a dyn Fn(Epoch) -> Vec3,
        reach: &'a Reach,
        index: usize,
        station: &'a GroundStation,
        t0: Epoch,
        start: Vec3,
    ) -> StationScan<'a> {
        let look = station.look_at(start);
        StationScan {
            position,
            reach,
            index,
            station,
            look,
            rise: (look.elevation >= station.min_elevation()).then_some(t0),
            windows: Vec::new(),
        }
    }

    fn look_at(&self, t: Epoch) -> Look {
        self.station.look_at((self.position)(t))
    }

    fn visible(&self, t: Epoch) -> bool {
        self.look_at(t).elevation >= self.station.min_elevation()
    }

    /// Advances the scan over `(t, t_next]`, with the satellite at `next`
    /// at `t_next`. `mid` is the step's first grazing-probe midpoint and
    /// `at_mid` the satellite's position there, once propagated.
    fn step(
        &mut self,
        t: Epoch,
        t_next: Epoch,
        next: Vec3,
        mid: Option<Epoch>,
        at_mid: &mut Option<Vec3>,
    ) {
        let mask = self.station.min_elevation();
        let before = self.look;
        self.look = self.station.look_at(next);
        let was_visible = self.rise.is_some();
        let now_visible = self.look.elevation >= mask;
        if now_visible != was_visible {
            let edge = bisect_transition(&|e| self.visible(e), t, was_visible, t_next);
            if now_visible {
                self.rise = Some(edge);
            } else if let Some(r) = self.rise.take() {
                self.push(r, edge);
            }
        } else if !now_visible {
            // Both endpoints below the mask: a grazing pass shorter than
            // one scan step can still peak above it in between. Every
            // instant of the step lies within half a step of an endpoint,
            // so probe only when an endpoint comes within reach.
            let Some(mid) = mid else { return };
            let half = (t_next - t).as_seconds() * 0.5;
            if self.reach.blind(before, mask, half) && self.reach.blind(self.look, mask, half) {
                return;
            }
            let position = *at_mid.get_or_insert_with(|| (self.position)(mid));
            let look = |e| self.look_at(e);
            let at = self.station.look_at(position);
            if let Some(peak) = probe_from(&look, self.reach, mask, t, mid, t_next, at) {
                let visible = |e| self.visible(e);
                let rise_edge = bisect_transition(&visible, t, false, peak);
                let set_edge = bisect_transition(&visible, peak, true, t_next);
                self.push(rise_edge, set_edge);
            }
        }
    }

    /// Closes a window still open at the horizon and returns the windows.
    fn finish(mut self, t_end: Epoch) -> Vec<ContactWindow> {
        if let Some(r) = self.rise.take() {
            self.push(r, t_end);
        }
        self.windows
    }

    fn push(&mut self, start: Epoch, end: Epoch) {
        // Discard degenerate grazing passes shorter than a second.
        if (end - start).as_seconds() >= 1.0 {
            self.windows.push(ContactWindow {
                station: self.index,
                start,
                end,
                rate_bps: self.station.downlink_rate_bps(),
            });
        }
    }
}

/// The midpoint of `(lo, hi)`, or `None` once the interval is shorter
/// than [`PROBE_FLOOR_SECONDS`] and no longer worth probing.
fn probe_midpoint(lo: Epoch, hi: Epoch) -> Option<Epoch> {
    if (hi - lo).as_seconds() < PROBE_FLOOR_SECONDS {
        return None;
    }
    Some(lo + (hi - lo) * 0.5)
}

/// Hunts for a visible instant strictly inside `(lo, hi)` when both
/// endpoints are below the mask, by recursive midpoint halving, left half
/// first, down to [`PROBE_FLOOR_SECONDS`]. A sub-interval whose midpoint
/// is out of [`Reach`] of the mask over half its length holds no visible
/// instant and is pruned.
fn find_visible_between(
    look: &impl Fn(Epoch) -> Look,
    reach: &Reach,
    mask: f64,
    lo: Epoch,
    hi: Epoch,
) -> Option<Epoch> {
    let mid = probe_midpoint(lo, hi)?;
    probe_from(look, reach, mask, lo, mid, hi, look(mid))
}

/// [`find_visible_between`] once the satellite at the midpoint `mid` of
/// `(lo, hi)` is known to be seen at `at_mid`.
fn probe_from(
    look: &impl Fn(Epoch) -> Look,
    reach: &Reach,
    mask: f64,
    lo: Epoch,
    mid: Epoch,
    hi: Epoch,
    at_mid: Look,
) -> Option<Epoch> {
    if at_mid.elevation >= mask {
        return Some(mid);
    }
    if reach.blind(at_mid, mask, (hi - lo).as_seconds() * 0.5) {
        return None;
    }
    find_visible_between(look, reach, mask, lo, mid)
        .or_else(|| find_visible_between(look, reach, mask, mid, hi))
}

/// Bisects a visibility transition within `(lo, hi)` down to 100 ms,
/// given the visibility at `lo`.
fn bisect_transition(
    visible: &impl Fn(Epoch) -> bool,
    lo: Epoch,
    lo_state: bool,
    hi: Epoch,
) -> Epoch {
    let mut lo = lo;
    let mut hi = hi;
    while (hi - lo).as_seconds() > 0.1 {
        let mid = lo + (hi - lo) * 0.5;
        if visible(mid) == lo_state {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// The scan as it was before [`Reach`] pruned it: each station stepped on
/// its own through every scan instant, every invisible step probed, and a
/// fixed 8 degree margin below the mask the only probe prune. Tests hold
/// the pruned scan to its output, bit for bit.
#[cfg(test)]
mod reference {
    use super::*;

    /// How far below the mask a probe midpoint may sit and still be
    /// probed: a LEO satellite's elevation moves at most ~3 degrees over
    /// half a scan step.
    const GRAZING_MARGIN_RAD: f64 = 8.0 * std::f64::consts::PI / 180.0;

    pub(super) fn contact_windows(
        orbit: &Orbit,
        segment: &GroundSegment,
        horizon: Duration,
    ) -> Vec<ContactWindow> {
        scan(
            &|t| position_ecef(orbit, t),
            segment,
            orbit.epoch(),
            horizon,
        )
    }

    pub(super) fn scan(
        position: &dyn Fn(Epoch) -> Vec3,
        segment: &GroundSegment,
        t0: Epoch,
        horizon: Duration,
    ) -> Vec<ContactWindow> {
        let t_end = t0 + horizon;
        let step = Duration::from_seconds(SCAN_STEP_SECONDS);
        let mut windows = Vec::new();
        for (index, station) in segment.iter().enumerate() {
            let elevation = |t| station.elevation_of(position(t));
            let visible = |t| elevation(t) >= station.min_elevation();
            let mut spans = Vec::new();
            let mut rise = visible(t0).then_some(t0);
            let mut t = t0;
            while t < t_end {
                let stepped = t + step;
                let t_next = if stepped < t_end { stepped } else { t_end };
                let now_visible = visible(t_next);
                if now_visible != rise.is_some() {
                    let edge = bisect(&visible, t, t_next);
                    match rise.take() {
                        Some(r) => spans.push((r, edge)),
                        None => rise = Some(edge),
                    }
                } else if !now_visible {
                    let mask = station.min_elevation();
                    if let Some(peak) = find_visible_between(&elevation, mask, t, t_next) {
                        spans.push((bisect(&visible, t, peak), bisect(&visible, peak, t_next)));
                    }
                }
                t = t_next;
            }
            spans.extend(rise.map(|r| (r, t_end)));
            windows.extend(
                spans
                    .into_iter()
                    .filter(|&(start, end)| (end - start).as_seconds() >= 1.0)
                    .map(|(start, end)| ContactWindow {
                        station: index,
                        start,
                        end,
                        rate_bps: station.downlink_rate_bps(),
                    }),
            );
        }
        windows.sort_by(|a, b| {
            a.start
                .seconds_since_start()
                .total_cmp(&b.start.seconds_since_start())
        });
        windows
    }

    fn find_visible_between(
        elevation: &impl Fn(Epoch) -> f64,
        mask: f64,
        lo: Epoch,
        hi: Epoch,
    ) -> Option<Epoch> {
        let mid = probe_midpoint(lo, hi)?;
        let el = elevation(mid);
        if el >= mask {
            return Some(mid);
        }
        if el < mask - GRAZING_MARGIN_RAD {
            return None;
        }
        find_visible_between(elevation, mask, lo, mid)
            .or_else(|| find_visible_between(elevation, mask, mid, hi))
    }

    fn bisect(visible: &impl Fn(Epoch) -> bool, lo: Epoch, hi: Epoch) -> Epoch {
        let mut lo = lo;
        let mut hi = hi;
        let lo_state = visible(lo);
        while (hi - lo).as_seconds() > 0.1 {
            let mid = lo + (hi - lo) * 0.5;
            if visible(mid) == lo_state {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bodies::EARTH_RADIUS_EQ;
    use crate::orbit::KeplerianElements;
    use proptest::prelude::*;
    use std::f64::consts::TAU;

    fn landsat_day_windows() -> Vec<ContactWindow> {
        let orbit = Orbit::sun_synchronous(705_000.0);
        contact_windows(&orbit, &GroundSegment::landsat(), Duration::from_hours(24.0))
    }

    #[test]
    fn polar_orbit_contacts_polar_stations_often() {
        let windows = landsat_day_windows();
        // Svalbard (station 2) sees a polar orbiter on most of its ~14.5
        // revolutions per day.
        let svalbard = windows.iter().filter(|w| w.station == 2).count();
        assert!(
            (8..=16).contains(&svalbard),
            "Svalbard passes per day = {svalbard}"
        );
    }

    #[test]
    fn pass_durations_are_leo_scale() {
        let windows = landsat_day_windows();
        assert!(!windows.is_empty());
        for w in &windows {
            let mins = w.duration().as_minutes();
            assert!(
                (0.0..=16.0).contains(&mins),
                "pass duration {mins} min is not LEO-scale"
            );
        }
    }

    #[test]
    fn windows_sorted_and_within_horizon() {
        let orbit = Orbit::sun_synchronous(705_000.0);
        let horizon = Duration::from_hours(24.0);
        let windows = contact_windows(&orbit, &GroundSegment::landsat(), horizon);
        let t0 = orbit.epoch();
        for pair in windows.windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
        for w in &windows {
            assert!(w.start >= t0);
            assert!(w.end <= t0 + horizon + Duration::from_seconds(1.0));
            assert!(w.end > w.start);
        }
    }

    #[test]
    fn daily_contact_time_is_tens_of_minutes() {
        let windows = landsat_day_windows();
        let total = windows
            .iter()
            .fold(Duration::ZERO, |acc, w| acc + w.duration());
        // Five stations, a handful of passes each, minutes per pass.
        assert!(
            (20.0..=500.0).contains(&total.as_minutes()),
            "total contact = {total}"
        );
    }

    #[test]
    fn contains_respects_bounds() {
        let windows = landsat_day_windows();
        let w = &windows[0];
        assert!(w.contains(w.start));
        assert!(w.contains(w.end));
        assert!(!w.contains(w.end + Duration::from_seconds(5.0)));
    }

    /// A station that sees `orbit` for only ~5 s of `day`, with the whole
    /// pass between two coarse scan samples; returns it with the peak.
    ///
    /// Synthesis: find the orbit's peak elevation over the day at a probe
    /// site, then set the station mask just below that peak so the
    /// above-mask interval lasts only ~5 s. Probe sites are tried until
    /// the pass also sits *between* 10 s grid samples, which is exactly
    /// the geometry an endpoint-only scan cannot see.
    fn grazing_station(orbit: &Orbit, day: Duration) -> (GroundStation, Epoch) {
        let t0 = orbit.epoch();
        let sites = [
            (45.0, 8.0),
            (30.0, -100.0),
            (52.0, 151.0),
            (10.0, 35.0),
            (-33.0, -70.0),
            (60.0, -45.0),
        ];
        let mut synthesized = None;
        for (lat, lon) in sites {
            let probe = GroundStation::new("Probe", lat, lon, 5.0, 1e8);
            let elevation =
                |t: Epoch| probe.elevation_of(crate::propagate::position_ecef(orbit, t));
            // Coarse argmax at 1 s resolution.
            let mut best_t = t0;
            let mut best_el = f64::NEG_INFINITY;
            let mut t = t0;
            while t < t0 + day {
                let el = elevation(t);
                if el > best_el {
                    best_el = el;
                    best_t = t;
                }
                t += Duration::from_seconds(1.0);
            }
            // Mask at the elevation 2.5 s off-peak -> a ~5 s pass.
            let half = Duration::from_seconds(2.5);
            let thr = elevation(best_t - half).min(elevation(best_t + half));
            let mask_deg = thr.to_degrees();
            // Keep only geometries where the whole pass sits between two
            // 10 s grid samples (offset of the peak within the grid).
            let off = (best_t - t0).as_seconds() % SCAN_STEP_SECONDS;
            if (1.0..90.0).contains(&mask_deg) && (3.0..=7.0).contains(&off) {
                synthesized = Some((lat, lon, mask_deg, best_t));
                break;
            }
        }
        let (lat, lon, mask_deg, peak_t) =
            synthesized.expect("no probe site produced an off-grid grazing pass");
        (
            GroundStation::new("Grazing", lat, lon, mask_deg, 1e8),
            peak_t,
        )
    }

    #[test]
    fn grazing_passes_shorter_than_a_scan_step_are_found() {
        // Regression for the coarse-scan miss: a pass that rises and sets
        // entirely between two SCAN_STEP_SECONDS samples used to vanish.
        let orbit = Orbit::sun_synchronous(705_000.0);
        let day = Duration::from_hours(24.0);
        let t0 = orbit.epoch();
        let (station, peak_t) = grazing_station(&orbit, day);
        let seg = GroundSegment::new(vec![station.clone()]);
        let windows = contact_windows(&orbit, &seg, day);
        let hit = windows
            .iter()
            .find(|w| w.contains(peak_t))
            .expect("grazing pass missed by the scan");
        assert!(
            hit.duration().as_seconds() < SCAN_STEP_SECONDS,
            "synthesized pass lasts {} s, not grazing",
            hit.duration().as_seconds()
        );
        // Proof this is the regression geometry: every coarse grid sample
        // near the pass is below the mask, so the old endpoint-only scan
        // saw invisible -> invisible and skipped it.
        let mut k = ((hit.start - t0).as_seconds() / SCAN_STEP_SECONDS).floor() - 2.0;
        while k * SCAN_STEP_SECONDS < (hit.end - t0).as_seconds() + 2.0 * SCAN_STEP_SECONDS {
            let sample = t0 + Duration::from_seconds(k * SCAN_STEP_SECONDS);
            assert!(
                station.elevation_of(crate::propagate::position_ecef(&orbit, sample))
                    < station.min_elevation(),
                "a 10 s grid sample lands inside the pass; geometry is not grazing"
            );
            k += 1.0;
        }
    }

    /// `contact_windows` run on each station alone, relabeled with the
    /// station's index, concatenated in station order and stable-sorted.
    fn merged_single_station_windows(
        orbit: &Orbit,
        segment: &GroundSegment,
        horizon: Duration,
    ) -> Vec<ContactWindow> {
        let mut merged: Vec<ContactWindow> = Vec::new();
        for (index, station) in segment.iter().enumerate() {
            let alone = contact_windows(orbit, &GroundSegment::new(vec![station.clone()]), horizon);
            merged.extend(alone.into_iter().map(|w| ContactWindow {
                station: index,
                ..w
            }));
        }
        merged.sort_by(|a, b| {
            a.start
                .seconds_since_start()
                .total_cmp(&b.start.seconds_since_start())
        });
        merged
    }

    #[test]
    fn shared_scan_equals_single_station_scans() {
        // The shared scan must find, for every station, exactly the
        // windows a scan of that station alone finds: on the Landsat
        // segment over phased orbits, and on a segment whose fourth
        // station only sees a grazing pass between two scan samples, so
        // the shared first probe midpoint must serve a station other
        // than the first.
        let day = Duration::from_hours(24.0);
        let base = Orbit::sun_synchronous(705_000.0);
        let landsat = GroundSegment::landsat();
        let fleet = crate::constellation::Constellation::same_plane(base, 24);
        for orbit in fleet.orbits().iter().step_by(5) {
            let shared = contact_windows(orbit, &landsat, day);
            assert!(!shared.is_empty());
            assert_eq!(shared, merged_single_station_windows(orbit, &landsat, day));
        }

        let (grazing, peak_t) = grazing_station(&base, day);
        let mut stations = landsat.stations().to_vec();
        stations.insert(3, grazing);
        let segment = GroundSegment::new(stations);
        let shared = contact_windows(&base, &segment, day);
        assert!(shared.iter().any(|w| w.station == 3 && w.contains(peak_t)));
        assert_eq!(shared, merged_single_station_windows(&base, &segment, day));
    }

    #[test]
    fn equatorial_station_and_polar_orbit_still_meet() {
        let orbit = Orbit::sun_synchronous(705_000.0);
        let seg = GroundSegment::new(vec![crate::ground::GroundStation::new(
            "Equator", 0.0, 0.0, 5.0, 1e8,
        )]);
        let windows = contact_windows(&orbit, &seg, Duration::from_days(2.0));
        // An equatorial station sees a polar LEO a couple of times per day.
        assert!(!windows.is_empty());
    }

    /// Every field of every window, as bits.
    fn bits(windows: &[ContactWindow]) -> Vec<(usize, u64, u64, u64)> {
        windows
            .iter()
            .map(|w| {
                (
                    w.station,
                    w.start.seconds_since_start().to_bits(),
                    w.end.seconds_since_start().to_bits(),
                    w.rate_bps.to_bits(),
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn pruned_scan_matches_the_reference_bitwise(
            shape in (450.0f64..1200.0, 0.0f64..0.02, 0.0f64..std::f64::consts::PI),
            phases in (0.0f64..TAU, 0.0f64..TAU, 0.0f64..TAU),
            sites in prop::collection::vec((-85.0f64..85.0, -180.0f64..180.0, 0.0f64..30.0), 1..4),
            hours in 1.0f64..30.0,
        ) {
            let (altitude_km, eccentricity, inclination) = shape;
            let (raan, arg_perigee, mean_anomaly) = phases;
            let orbit = Orbit::new(
                KeplerianElements {
                    semi_major_axis: EARTH_RADIUS_EQ + altitude_km * 1e3,
                    eccentricity,
                    inclination,
                    raan,
                    arg_perigee,
                    mean_anomaly,
                },
                Epoch::mission_start(),
            );
            let segment = GroundSegment::new(
                sites
                    .iter()
                    .map(|&(lat, lon, mask)| GroundStation::new("Site", lat, lon, mask, 1e8))
                    .collect(),
            );
            let horizon = Duration::from_hours(hours);
            prop_assert_eq!(
                bits(&contact_windows(&orbit, &segment, horizon)),
                bits(&reference::contact_windows(&orbit, &segment, horizon))
            );
        }
    }

    #[test]
    fn a_pass_right_after_blind_steps_is_found() {
        // A trajectory no orbit flies, on which the reach bound is nearly
        // tight: 1000 km from the station, the satellite swings in
        // elevation at 1 mrad/s, exactly its speed bound. It starts 32
        // mrad below the mask, so the scan skips the steps to 30 s, and
        // peaks 1 mrad above the mask at 33 s: a 2 s pass in the first
        // half of the step the scan resumes with. Only a true elevation
        // at 30 s lets that step's probe run, and only the full speed
        // bound stops the scan skipping past the pass.
        let station = GroundStation::new("Probe", 0.0, 0.0, 10.0, 1e8);
        let site = station.location().to_ecef();
        let up = station.location().up();
        let north = Vec3::new(0.0, 0.0, 1.0);
        let mask = station.min_elevation();
        let (range, rate) = (1.0e6, 1.0e-3);
        let t0 = Epoch::mission_start();
        let position = |t: Epoch| {
            let elevation = mask + rate * (1.0 - ((t - t0).as_seconds() - 33.0).abs());
            site + (up * elevation.sin() + north * elevation.cos()) * range
        };
        let segment = GroundSegment::new(vec![station]);
        let horizon = Duration::from_seconds(100.0);
        let windows = scan(&position, range * rate, &segment, t0, horizon);
        assert_eq!(windows.len(), 1);
        assert!(windows[0].contains(t0 + Duration::from_seconds(33.0)));
        assert_eq!(
            bits(&windows),
            bits(&reference::scan(&position, &segment, t0, horizon))
        );
    }
}
