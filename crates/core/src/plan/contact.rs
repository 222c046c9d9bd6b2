//! Per-pass contact capacity bookkeeping for the execution planner.
//!
//! The `cote` link model prices a mission day as a total downlink
//! capacity (the `capacity_fraction` of everything observed). The
//! planner needs that capacity *scheduled*: ground contact comes in K
//! discrete passes, a frame can only ride the first pass at or after its
//! capture, and deferring a frame to a later pass trades on-board
//! storage for spare capacity there. This module models the K passes as
//! evenly spaced, evenly sized budgets over the sampled window — the
//! same uniform-pass abstraction `SpaceEnvironment` itself uses — and
//! tracks how much of each pass the plan has committed.

use serde::{Deserialize, Serialize};

/// K evenly spaced downlink passes over a window of frames, each with an
/// equal share of the window's total capacity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContactSchedule {
    per_pass_px: f64,
    used_px: Vec<f64>,
    frames: usize,
}

impl ContactSchedule {
    /// Splits `total_capacity_px` evenly across `contacts` passes
    /// serving `frames` frames. At least one pass always exists, and a
    /// non-positive capacity yields zero-size passes rather than
    /// negative ones.
    pub fn evenly(total_capacity_px: f64, contacts: usize, frames: usize) -> ContactSchedule {
        let contacts = contacts.max(1);
        let per_pass_px = total_capacity_px.max(0.0) / contacts as f64;
        ContactSchedule {
            per_pass_px,
            used_px: vec![0.0; contacts],
            frames,
        }
    }

    /// Number of passes in the schedule (always at least 1).
    pub fn contacts(&self) -> usize {
        self.used_px.len()
    }

    /// The pass that serves `frame`: frames are split into K contiguous
    /// segments and segment k downlinks at pass k, the first contact
    /// after its capture. Out-of-range frames map to the last pass.
    pub fn pass_for_frame(&self, frame: usize) -> usize {
        let contacts = self.used_px.len() as u64;
        let segment = (frame as u64)
            .saturating_mul(contacts)
            .checked_div(self.frames as u64)
            .unwrap_or(0);
        (segment as usize).min(self.used_px.len().saturating_sub(1))
    }

    /// Capacity still unclaimed at `pass`, pixels; `0.0` for unknown
    /// passes or once the pass is fully committed.
    pub fn spare(&self, pass: usize) -> f64 {
        match self.used_px.get(pass) {
            Some(used) => (self.per_pass_px - used).max(0.0),
            None => 0.0,
        }
    }

    /// Commits `px` pixels of `pass`. Negative charges are ignored;
    /// unknown passes absorb nothing.
    pub fn charge(&mut self, pass: usize, px: f64) {
        if let Some(used) = self.used_px.get_mut(pass) {
            *used += px.max(0.0);
        }
    }

    /// Total committed across all passes, pixels.
    pub fn used_px(&self) -> f64 {
        let mut total = 0.0;
        for used in &self.used_px {
            total += used;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_map_to_contiguous_equal_segments() {
        let schedule = ContactSchedule::evenly(1200.0, 4, 48);
        assert_eq!(schedule.contacts(), 4);
        assert_eq!(schedule.pass_for_frame(0), 0);
        assert_eq!(schedule.pass_for_frame(11), 0);
        assert_eq!(schedule.pass_for_frame(12), 1);
        assert_eq!(schedule.pass_for_frame(47), 3);
        // Out-of-range frames clamp to the final pass.
        assert_eq!(schedule.pass_for_frame(480), 3);
    }

    #[test]
    fn charging_consumes_spare_per_pass() {
        let mut schedule = ContactSchedule::evenly(1000.0, 2, 10);
        assert_eq!(schedule.spare(0), 500.0);
        schedule.charge(0, 300.0);
        assert_eq!(schedule.spare(0), 200.0);
        assert_eq!(schedule.spare(1), 500.0);
        schedule.charge(0, 900.0);
        assert_eq!(schedule.spare(0), 0.0, "spare floors at zero");
        assert_eq!(schedule.used_px(), 1200.0, "overcommit is still recorded");
        assert_eq!(schedule.spare(1), 500.0, "pass 1 keeps its share");
    }

    #[test]
    fn degenerate_schedules_are_inert_not_panicky() {
        let mut empty = ContactSchedule::evenly(-5.0, 0, 0);
        assert_eq!(empty.contacts(), 1, "at least one pass always exists");
        assert_eq!(empty.spare(0), 0.0, "no negative-size pass");
        assert_eq!(empty.pass_for_frame(3), 0, "zero frames never divides by zero");
        assert_eq!(empty.spare(7), 0.0);
        empty.charge(7, 10.0);
        empty.charge(0, -10.0);
        assert_eq!(empty.used_px(), 0.0);
    }
}
