//! The one capture → queue → pass-drain day, shared by the detailed
//! mission (`Mission::run_detailed_faulted`) and every fleet satellite.
//!
//! A frame is captured every frame deadline and its (cyclically reused)
//! sampled outcome enters the bounded value-aware [`DownlinkQueue`];
//! each ground contact drains it highest-value-density first. Under a
//! [`FaultPlan`], the fault hitting a contact is a pure function of
//! `(plan seed, contact index)` in the time-sorted pass list: a dropped
//! contact drains nothing, a shortened or faded one drains less, and
//! the queue sheds its lowest-density entries by the lost capacity.

use crate::dvd::processed_fraction;
use crate::queue::{DownlinkQueue, QueueEntry};
use crate::runtime::FrameOutcome;
use crate::KodanError;
use kodan_cote::sim::ServedPass;
use kodan_cote::time::Duration;
use kodan_faults::{ContactFault, ContactOutcome, FaultPlan};
use kodan_telemetry::{CounterId, FaultKind, Recorder, RecoveryKind, TelemetryEvent};

/// What one ground contact transmitted, pixel units.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PassRow {
    /// Pixels transmitted during the contact (zero if it was dropped).
    pub sent_px: f64,
    /// High-value pixels transmitted during the contact.
    pub sent_value_px: f64,
}

/// Day-level totals of a replay, pixel units.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DaySummary {
    /// Pixels transmitted: the in-order fold of the pass rows.
    pub sent_px: f64,
    /// High-value pixels transmitted: the in-order fold of the pass rows.
    pub sent_value_px: f64,
    /// Pixels accepted into the queue over the day.
    pub enqueued_px: f64,
    /// Pixels evicted on board because storage filled between contacts.
    pub storage_dropped_px: f64,
    /// Pixels still queued at the end of the day.
    pub residual_px: f64,
    /// Pixels shed to absorb contact capacity lost to injected faults.
    pub shed_px: f64,
    /// Ground contacts dropped entirely by injected faults.
    pub contacts_dropped: u64,
    /// Ground contacts shortened by injected faults.
    pub contacts_shortened: u64,
    /// Tiles processed through specialized models, day-scale.
    pub tiles_processed: u64,
    /// Tiles elided before inference, day-scale.
    pub tiles_elided: u64,
}

/// One satellite's day of captures and contacts, validated and ready to
/// fly against a set of sampled frame outcomes.
#[derive(Debug, Clone)]
pub struct DayReplay<'a> {
    /// The satellite's own passes, sorted by start time.
    passes: Vec<ServedPass>,
    faults: Option<&'a FaultPlan>,
    frame_deadline: Duration,
    frames_per_day: u64,
    bits_per_px: f64,
    storage_px: f64,
}

impl<'a> DayReplay<'a> {
    /// Prepares the day of `satellite`: its passes are picked out of
    /// `passes` and time-sorted once. `storage_px` bounds on-board
    /// storage; `bits_per_px` converts pass capacity to pixels; `faults`
    /// degrades contacts (frame-level faults are armed on the runtime).
    ///
    /// Returns [`KodanError::InvalidReplay`] unless both `storage_px` and
    /// `bits_per_px` are positive (NaN is rejected).
    pub fn new(
        passes: &[ServedPass],
        satellite: usize,
        frame_deadline: Duration,
        frames_per_day: u64,
        bits_per_px: f64,
        storage_px: f64,
        faults: Option<&'a FaultPlan>,
    ) -> Result<DayReplay<'a>, KodanError> {
        // Written so that NaN, which fails every comparison, is rejected.
        if !(storage_px > 0.0 && bits_per_px > 0.0) {
            return Err(KodanError::InvalidReplay);
        }
        let mut own: Vec<ServedPass> = passes
            .iter()
            .filter(|p| p.satellite == satellite)
            .cloned()
            .collect();
        own.sort_by(|a, b| {
            a.start
                .seconds_since_start()
                .total_cmp(&b.start.seconds_since_start())
        });
        Ok(DayReplay {
            passes: own,
            faults,
            frame_deadline,
            frames_per_day,
            bits_per_px,
            storage_px,
        })
    }

    /// Flies the day: one [`PassRow`] per own contact, in time order,
    /// plus the day's [`DaySummary`]. Contact faults, shedding and
    /// rejected (corrupt) outcomes are reported to `recorder`; a
    /// fault-free day records nothing unless an outcome is corrupt.
    ///
    /// With no outcomes the contacts are still served and the queue
    /// stays empty.
    pub fn fly_day(
        &self,
        outcomes: &[FrameOutcome],
        recorder: &mut dyn Recorder,
    ) -> (Vec<PassRow>, DaySummary) {
        let contacts: Vec<ContactOutcome> = match self.faults {
            Some(plan) => plan.degrade_passes(&self.passes),
            None => self
                .passes
                .iter()
                .map(|p| ContactOutcome {
                    pass: Some(p.clone()),
                    fault: ContactFault::none(),
                    lost_bits: 0.0,
                })
                .collect(),
        };
        // The sampled frames' mean modeled compute time sets the share of
        // captures processed (all of them with no outcomes: a zero mean).
        let (_, mean_frame_time) = FrameOutcome::total_and_mean(outcomes);
        let processed_fraction = processed_fraction(mean_frame_time, self.frame_deadline);
        let deadline_s = self.frame_deadline.as_seconds();
        let mut queue = DownlinkQueue::new(self.storage_px);
        let mut rows = Vec::with_capacity(contacts.len());
        let mut day = DaySummary::default();

        let mut next_contact = 0usize;
        for i in 0..self.frames_per_day {
            let t = i as f64 * deadline_s;
            // Serve any contacts that started before this capture.
            while let (Some(contact), Some(pass)) =
                (contacts.get(next_contact), self.passes.get(next_contact))
            {
                if pass.start.seconds_since_start() <= t {
                    rows.push(self.serve(contact, &mut queue, &mut day, recorder));
                    next_contact += 1;
                } else {
                    break;
                }
            }
            // Frames beyond the compute budget are skipped before they
            // reach the queue: frame i is processed iff the cumulative
            // processed count advances at rate `processed_fraction`.
            let before = (i as f64 * processed_fraction).floor();
            let after = ((i as f64 + 1.0) * processed_fraction).floor();
            if after > before {
                let slot = (i as usize).checked_rem(outcomes.len()).unwrap_or(0);
                let outcome = match outcomes.get(slot) {
                    Some(o) => o,
                    None => continue,
                };
                day.tiles_processed += outcome.tiles_processed as u64;
                day.tiles_elided += outcome.tiles_elided as u64;
                if outcome.sent_px > 0 {
                    // A corrupt outcome (injected or numeric) must not
                    // take the day down: drop the entry, count it, and
                    // keep flying.
                    match QueueEntry::new(outcome.sent_px as f64, outcome.value_px as f64) {
                        Ok(entry) => {
                            day.enqueued_px += entry.bits;
                            queue.push(entry);
                        }
                        Err(_) => recorder.count(CounterId::QueueEntriesRejected, 1),
                    }
                }
            }
        }
        // Remaining contacts after the last capture.
        for contact in contacts.iter().skip(next_contact) {
            rows.push(self.serve(contact, &mut queue, &mut day, recorder));
        }

        day.storage_dropped_px = queue.dropped_bits();
        day.residual_px = queue.occupied_bits();
        (rows, day)
    }

    /// Serves one contact: drains what survived of it, reports its fault,
    /// and sheds the capacity the fault took away.
    fn serve(
        &self,
        contact: &ContactOutcome,
        queue: &mut DownlinkQueue,
        day: &mut DaySummary,
        recorder: &mut dyn Recorder,
    ) -> PassRow {
        let mut row = PassRow::default();
        if let Some(p) = &contact.pass {
            let drained = queue.drain(p.bits() / self.bits_per_px);
            row.sent_px = drained.sent_bits;
            row.sent_value_px = drained.sent_value_bits;
            day.sent_px += row.sent_px;
            day.sent_value_px += row.sent_value_px;
        }
        let fault = contact.fault;
        if fault.dropped {
            day.contacts_dropped += 1;
            recorder.count(CounterId::FaultContactsDropped, 1);
            recorder.event(TelemetryEvent::FaultInjected {
                kind: FaultKind::ContactDrop,
            });
        } else {
            if fault.keep_fraction < 1.0 {
                day.contacts_shortened += 1;
                recorder.count(CounterId::FaultContactsShortened, 1);
                recorder.event(TelemetryEvent::FaultInjected {
                    kind: FaultKind::ContactShorten,
                });
            }
            if fault.fade_db > 0.0 {
                recorder.event(TelemetryEvent::FaultInjected {
                    kind: FaultKind::RainFade,
                });
            }
        }
        if contact.lost_bits > 0.0 {
            let shed = queue.shed_lowest(contact.lost_bits / self.bits_per_px);
            if shed.entries_shed > 0 {
                day.shed_px += shed.shed_bits;
                recorder.count(CounterId::QueueEntriesShed, shed.entries_shed as u64);
                recorder.event(TelemetryEvent::FaultRecovered {
                    kind: RecoveryKind::QueueShed,
                });
            }
        }
        row
    }
}
