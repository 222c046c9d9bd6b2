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

use crate::ground::{GroundSegment, GroundStation};
use crate::orbit::Orbit;
use crate::propagate::position_ecef;
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

    /// Total bits that can be downlinked during this pass at the sustained
    /// rate.
    pub fn capacity_bits(&self) -> f64 {
        self.duration().as_seconds() * self.rate_bps
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
/// between two samples, so invisible->invisible steps whose midpoint is
/// near the horizon are probed recursively (see [`find_visible_between`]).
const SCAN_STEP_SECONDS: f64 = 10.0;

/// How far below the elevation mask (radians) the midpoint of a scan step
/// may sit while still being probed for an interior grazing pass. A LEO
/// satellite's elevation changes by at most ~3 degrees over half a scan
/// step, so 8 degrees conservatively bounds the probe to near-horizon
/// intervals — everything further below the mask provably cannot peak
/// above it within the step.
const GRAZING_MARGIN_RAD: f64 = 8.0 * std::f64::consts::PI / 180.0;

/// Smallest interval the grazing probe subdivides, seconds. Passes below
/// ~1 s are discarded when a window is recorded anyway, so probing a
/// finer grid buys nothing.
const PROBE_FLOOR_SECONDS: f64 = 0.5;

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
    let t0 = orbit.epoch();
    let t_end = t0 + horizon;
    let start = position_ecef(orbit, t0);
    let mut scans: Vec<StationScan<'_>> = segment
        .iter()
        .enumerate()
        .map(|(index, station)| StationScan::new(orbit, index, station, t0, start))
        .collect();

    let step = Duration::from_seconds(SCAN_STEP_SECONDS);
    let mut t = t0;
    while t < t_end {
        let stepped = t + step;
        let t_next = if stepped < t_end { stepped } else { t_end };
        let next = position_ecef(orbit, t_next);
        let mid = probe_midpoint(t, t_next);
        // Propagated on the first station that probes this step.
        let mut at_mid: Option<Vec3> = None;
        for scan in &mut scans {
            scan.step(t, t_next, next, mid, &mut at_mid);
        }
        t = t_next;
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

/// One station's side of the shared coarse scan: its rise/set state and
/// the windows found so far.
struct StationScan<'a> {
    orbit: &'a Orbit,
    index: usize,
    station: &'a GroundStation,
    was_visible: bool,
    rise: Option<Epoch>,
    windows: Vec<ContactWindow>,
}

impl<'a> StationScan<'a> {
    fn new(
        orbit: &'a Orbit,
        index: usize,
        station: &'a GroundStation,
        t0: Epoch,
        start: Vec3,
    ) -> StationScan<'a> {
        let was_visible = station.sees(start);
        StationScan {
            orbit,
            index,
            station,
            was_visible,
            rise: if was_visible { Some(t0) } else { None },
            windows: Vec::new(),
        }
    }

    fn elevation(&self, t: Epoch) -> f64 {
        self.station.elevation_of(position_ecef(self.orbit, t))
    }

    fn visible(&self, t: Epoch) -> bool {
        self.elevation(t) >= self.station.min_elevation()
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
        let now_visible = self.station.sees(next);
        if now_visible != self.was_visible {
            let edge = bisect_transition(&|e| self.visible(e), t, t_next);
            if now_visible {
                self.rise = Some(edge);
            } else if let Some(r) = self.rise.take() {
                self.push(r, edge);
            }
            self.was_visible = now_visible;
        } else if !now_visible {
            // Both endpoints below the mask: a grazing pass shorter than
            // one scan step can still peak above it in between. Probe the
            // interior, but only while the elevation stays near the
            // horizon, so the extra cost is confined to grazing geometry.
            if let Some(mid) = mid {
                let position = *at_mid.get_or_insert_with(|| position_ecef(self.orbit, mid));
                let el = self.station.elevation_of(position);
                let elevation = |e| self.elevation(e);
                let mask = self.station.min_elevation();
                if let Some(peak) = probe_from(&elevation, mask, t, mid, t_next, el) {
                    let visible = |e| self.visible(e);
                    let rise_edge = bisect_transition(&visible, t, peak);
                    let set_edge = bisect_transition(&visible, peak, t_next);
                    self.push(rise_edge, set_edge);
                }
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
/// endpoints are below the mask, by recursive midpoint halving down to
/// [`PROBE_FLOOR_SECONDS`]. Subtrees whose midpoint elevation is more
/// than [`GRAZING_MARGIN_RAD`] below the mask are pruned: the elevation
/// cannot climb that far within the sub-interval.
fn find_visible_between(
    elevation: &impl Fn(Epoch) -> f64,
    mask: f64,
    lo: Epoch,
    hi: Epoch,
) -> Option<Epoch> {
    let mid = probe_midpoint(lo, hi)?;
    probe_from(elevation, mask, lo, mid, hi, elevation(mid))
}

/// [`find_visible_between`] once the midpoint `mid` of `(lo, hi)` is
/// known to sit at elevation `el`.
fn probe_from(
    elevation: &impl Fn(Epoch) -> f64,
    mask: f64,
    lo: Epoch,
    mid: Epoch,
    hi: Epoch,
    el: f64,
) -> Option<Epoch> {
    if el >= mask {
        return Some(mid);
    }
    if el < mask - GRAZING_MARGIN_RAD {
        return None;
    }
    find_visible_between(elevation, mask, lo, mid)
        .or_else(|| find_visible_between(elevation, mask, mid, hi))
}

/// Bisects a visibility transition within `(lo, hi)` down to 100 ms.
fn bisect_transition(visible: &impl Fn(Epoch) -> bool, lo: Epoch, hi: Epoch) -> Epoch {
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

/// Total downlink capacity (bits) of a set of windows.
pub fn total_capacity_bits(windows: &[ContactWindow]) -> f64 {
    windows.iter().map(ContactWindow::capacity_bits).sum()
}

/// Total contact time of a set of windows.
pub fn total_contact_time(windows: &[ContactWindow]) -> Duration {
    windows
        .iter()
        .fold(Duration::ZERO, |acc, w| acc + w.duration())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::GroundSegment;

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
        let total = total_contact_time(&windows);
        // Five stations, a handful of passes each, minutes per pass.
        assert!(
            (20.0..=500.0).contains(&total.as_minutes()),
            "total contact = {total}"
        );
    }

    #[test]
    fn capacity_is_rate_times_duration() {
        let windows = landsat_day_windows();
        let w = &windows[0];
        assert!((w.capacity_bits() - w.duration().as_seconds() * w.rate_bps).abs() < 1.0);
        assert!(total_capacity_bits(&windows) > 0.0);
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
        let seg = GroundSegment::single(station.clone());
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
                !station.sees(crate::propagate::position_ecef(&orbit, sample)),
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
            let alone = contact_windows(orbit, &GroundSegment::single(station.clone()), horizon);
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
        let seg = GroundSegment::single(crate::ground::GroundStation::new(
            "Equator", 0.0, 0.0, 5.0, 1e8,
        ));
        let windows = contact_windows(&orbit, &seg, Duration::from_days(2.0));
        // An equatorial station sees a polar LEO a couple of times per day.
        assert!(!windows.is_empty());
    }
}
