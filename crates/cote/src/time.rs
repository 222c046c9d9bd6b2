//! Simulated time: epochs and durations.
//!
//! All simulation time is expressed as seconds relative to a mission start
//! epoch. An [`Epoch`] additionally carries an offset from the J2000 epoch so
//! that Earth-rotation angles (GMST) are well-defined.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Seconds in one Julian day.
pub const SECONDS_PER_DAY: f64 = 86_400.0;

/// A span of simulated time, stored as seconds.
///
/// Unlike `std::time::Duration`, this type is signed and fractional: orbit
/// propagation frequently needs negative offsets (e.g. bisection around a
/// contact-window edge) and sub-second resolution.
///
/// # Example
///
/// ```
/// use kodan_cote::time::Duration;
/// let d = Duration::from_minutes(90.0);
/// assert_eq!(d.as_seconds(), 5400.0);
/// assert!(d < Duration::from_hours(2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Duration(f64);

impl Duration {
    /// A zero-length duration.
    pub const ZERO: Duration = Duration(0.0);

    /// Creates a duration from seconds.
    pub fn from_seconds(seconds: f64) -> Self {
        Duration(seconds)
    }

    /// Creates a duration from minutes.
    pub fn from_minutes(minutes: f64) -> Self {
        Duration(minutes * 60.0)
    }

    /// Creates a duration from hours.
    pub fn from_hours(hours: f64) -> Self {
        Duration(hours * 3600.0)
    }

    /// Creates a duration from days (86 400 s each).
    pub fn from_days(days: f64) -> Self {
        Duration(days * SECONDS_PER_DAY)
    }

    /// This duration in seconds.
    pub fn as_seconds(self) -> f64 {
        self.0
    }

    /// This duration in minutes.
    pub fn as_minutes(self) -> f64 {
        self.0 / 60.0
    }

    /// This duration in hours.
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// This duration in days.
    pub fn as_days(self) -> f64 {
        self.0 / SECONDS_PER_DAY
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= SECONDS_PER_DAY {
            write!(f, "{:.2} d", self.as_days())
        } else if self.0.abs() >= 3600.0 {
            write!(f, "{:.2} h", self.as_hours())
        } else if self.0.abs() >= 60.0 {
            write!(f, "{:.2} min", self.as_minutes())
        } else {
            write!(f, "{:.2} s", self.0)
        }
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: f64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<f64> for Duration {
    type Output = Duration;
    fn div(self, rhs: f64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div<Duration> for Duration {
    type Output = f64;
    fn div(self, rhs: Duration) -> f64 {
        self.0 / rhs.0
    }
}

impl Neg for Duration {
    type Output = Duration;
    fn neg(self) -> Duration {
        Duration(-self.0)
    }
}

/// An instant of simulated time.
///
/// Stored as seconds since the mission start, together with the mission
/// start's offset from the J2000 epoch (2000-01-01 12:00 TT) in days. The
/// J2000 offset anchors Earth-rotation angles; the per-mission seconds keep
/// floating-point resolution high over day-scale simulations.
///
/// # Example
///
/// ```
/// use kodan_cote::time::{Duration, Epoch};
/// let t0 = Epoch::mission_start();
/// let t1 = t0 + Duration::from_minutes(99.0);
/// assert!((t1 - t0).as_minutes() - 99.0 < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Epoch {
    /// Days from J2000 to the mission start.
    j2000_offset_days: f64,
    /// Seconds since mission start.
    seconds: f64,
}

impl Epoch {
    /// The default mission start epoch (arbitrary but fixed: ~2023-03-25,
    /// the first day of ASPLOS '23).
    pub fn mission_start() -> Epoch {
        Epoch {
            j2000_offset_days: 8484.0,
            seconds: 0.0,
        }
    }

    /// Seconds since the mission start epoch.
    pub fn seconds_since_start(self) -> f64 {
        self.seconds
    }

    /// Days since the J2000 epoch, used for Earth-rotation angles.
    pub fn days_since_j2000(self) -> f64 {
        self.j2000_offset_days + self.seconds / SECONDS_PER_DAY
    }
}

impl Default for Epoch {
    fn default() -> Self {
        Epoch::mission_start()
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{:.2}s", self.seconds)
    }
}

impl Add<Duration> for Epoch {
    type Output = Epoch;
    fn add(self, rhs: Duration) -> Epoch {
        Epoch {
            j2000_offset_days: self.j2000_offset_days,
            seconds: self.seconds + rhs.as_seconds(),
        }
    }
}

impl AddAssign<Duration> for Epoch {
    fn add_assign(&mut self, rhs: Duration) {
        self.seconds += rhs.as_seconds();
    }
}

impl Sub<Duration> for Epoch {
    type Output = Epoch;
    fn sub(self, rhs: Duration) -> Epoch {
        Epoch {
            j2000_offset_days: self.j2000_offset_days,
            seconds: self.seconds - rhs.as_seconds(),
        }
    }
}

impl Sub for Epoch {
    type Output = Duration;
    fn sub(self, rhs: Epoch) -> Duration {
        let day_delta = (self.j2000_offset_days - rhs.j2000_offset_days) * SECONDS_PER_DAY;
        Duration::from_seconds(day_delta + self.seconds - rhs.seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions_round_trip() {
        let d = Duration::from_days(1.5);
        assert!((d.as_hours() - 36.0).abs() < 1e-12);
        assert!((d.as_minutes() - 2160.0).abs() < 1e-12);
        assert!((d.as_seconds() - 129_600.0).abs() < 1e-9);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_seconds(90.0);
        let b = Duration::from_seconds(30.0);
        assert_eq!((a + b).as_seconds(), 120.0);
        assert_eq!((a - b).as_seconds(), 60.0);
        assert_eq!((a * 2.0).as_seconds(), 180.0);
        assert_eq!((a / 3.0).as_seconds(), 30.0);
        assert_eq!(a / b, 3.0);
        assert_eq!((-a).as_seconds(), -90.0);
    }

    #[test]
    fn epoch_offsets_accumulate() {
        let t0 = Epoch::mission_start();
        let t1 = t0 + Duration::from_hours(2.0);
        let t2 = t1 - Duration::from_minutes(30.0);
        assert!(((t2 - t0).as_minutes() - 90.0).abs() < 1e-9);
    }

    /// An epoch `days` after J2000.
    fn j2000_days(days: f64) -> Epoch {
        Epoch {
            j2000_offset_days: days,
            seconds: 0.0,
        }
    }

    #[test]
    fn epoch_tracks_j2000_days() {
        let t0 = j2000_days(100.0);
        let t1 = t0 + Duration::from_days(2.0);
        assert!((t1.days_since_j2000() - 102.0).abs() < 1e-12);
    }

    #[test]
    fn epoch_difference_across_offsets() {
        let a = j2000_days(10.0);
        let b = j2000_days(11.0) + Duration::from_hours(12.0);
        assert!(((b - a).as_days() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_formats_scale() {
        assert_eq!(format!("{}", Duration::from_seconds(12.0)), "12.00 s");
        assert_eq!(format!("{}", Duration::from_minutes(5.0)), "5.00 min");
        assert_eq!(format!("{}", Duration::from_hours(3.0)), "3.00 h");
        assert_eq!(format!("{}", Duration::from_days(2.0)), "2.00 d");
    }
}
