//! The on-board downlink queue (paper Figure 7: "Downlink Queue").
//!
//! Filtered tiles wait in bounded on-board storage until the next ground
//! contact. The queue is value-aware: entries drain highest
//! value-density first, and when storage fills, the lowest-density
//! entries are evicted — so a saturated downlink and finite storage both
//! preferentially preserve high-value data. The day that fills and
//! drains it pass by pass is [`crate::replay::DayReplay`].

use crate::dvd::ratio;
use crate::KodanError;
use serde::{Deserialize, Serialize};

/// One queued downlink entry (typically: the kept pixels of one tile).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueueEntry {
    /// Size of the entry, bits.
    pub bits: f64,
    /// High-value content of the entry, bits.
    pub value_bits: f64,
}

impl QueueEntry {
    /// Creates an entry.
    ///
    /// Sizes must be finite and non-negative with `value_bits <= bits`.
    /// Anything else — including NaN, which fails every comparison —
    /// returns [`KodanError::InvalidQueueEntry`] so a corrupted tile size
    /// degrades to a skipped entry instead of aborting the mission.
    pub fn new(bits: f64, value_bits: f64) -> Result<QueueEntry, KodanError> {
        let sizes_ok = bits >= 0.0 && bits.is_finite() && value_bits >= 0.0;
        if !sizes_ok || !(value_bits <= bits + 1e-9) {
            return Err(KodanError::InvalidQueueEntry);
        }
        Ok(QueueEntry { bits, value_bits })
    }

    /// Value density of the entry in `[0, 1]`.
    pub fn density(&self) -> f64 {
        ratio(self.value_bits, self.bits)
    }
}

/// Result of draining a queue through one or more passes.
///
/// `entries_sent` uses **completion attribution**: it counts entries
/// whose final bit left the queue during this drain. An entry split
/// across passes is invisible in the pass that starts it and counted by
/// the pass that finishes it, so summing reports over a pass sequence
/// counts every fully-transmitted entry exactly once and never
/// double-counts a split.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DrainReport {
    /// Bits transmitted.
    pub sent_bits: f64,
    /// High-value bits transmitted.
    pub sent_value_bits: f64,
    /// Entries fully transmitted (completion attribution: a split entry
    /// counts in the drain that transmits its last remainder).
    pub entries_sent: usize,
}

/// Splitting an entry this close to its full size would leave a sliver
/// remainder that float accounting can never reliably retire; such a
/// drain sends the entry whole instead (overshooting the budget by at
/// most this amount) so the entry is counted and the queue empties.
const SPLIT_EPSILON_BITS: f64 = 1e-9;

/// A bounded, value-aware downlink queue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DownlinkQueue {
    storage_bits: f64,
    /// Kept sorted ascending by value density at all times: overflow
    /// eviction and shedding walk the front, draining pops the back.
    entries: Vec<QueueEntry>,
    /// Always recomputed from `entries` after a mutation (never
    /// incrementally adjusted), so `occupied_bits` is *exactly* the
    /// in-order sum of entry sizes — rounding cannot drift it.
    occupied_bits: f64,
    /// Bits dropped because storage was full.
    dropped_bits: f64,
    /// High-value bits dropped because storage was full.
    dropped_value_bits: f64,
}

impl DownlinkQueue {
    /// Creates a queue with the given storage bound (bits).
    ///
    /// # Panics
    ///
    /// Panics if the bound is not positive.
    pub fn new(storage_bits: f64) -> DownlinkQueue {
        assert!(storage_bits > 0.0, "storage must be positive");
        DownlinkQueue {
            storage_bits,
            entries: Vec::new(),
            occupied_bits: 0.0,
            dropped_bits: 0.0,
            dropped_value_bits: 0.0,
        }
    }

    /// Current occupancy, bits.
    pub fn occupied_bits(&self) -> f64 {
        self.occupied_bits
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bits evicted so far due to storage pressure.
    pub fn dropped_bits(&self) -> f64 {
        self.dropped_bits
    }

    /// High-value bits evicted so far due to storage pressure.
    pub fn dropped_value_bits(&self) -> f64 {
        self.dropped_value_bits
    }

    /// Queued entries, lowest value density first.
    ///
    /// Exposed so invariant tests can check `occupied_bits` against the
    /// exact in-order sum of entry sizes.
    pub fn entries(&self) -> &[QueueEntry] {
        &self.entries
    }

    /// Re-derives `occupied_bits` from the entries. Called after every
    /// mutation so the occupancy invariant holds by construction: the
    /// field is always the serial in-order sum over `entries`, never the
    /// residue of incremental `+=`/`-=` updates (which drift under
    /// binary-float rounding and can even go slightly negative on an
    /// empty queue, causing spurious or missed evictions).
    fn recompute_occupied(&mut self) {
        let mut total = 0.0;
        for e in &self.entries {
            total += e.bits;
        }
        self.occupied_bits = total;
    }

    /// Inserts an entry at its sorted (ascending-density) position.
    /// Equal densities insert after existing equals, matching the stable
    /// sort order the queue historically used.
    fn insert_sorted(&mut self, entry: QueueEntry) {
        let key = entry.density();
        let at = self.entries.partition_point(|e| e.density() <= key);
        self.entries.insert(at, entry);
    }

    /// Enqueues an entry, evicting the lowest-density entries if storage
    /// overflows. The new entry itself is evicted if it is the least
    /// dense.
    ///
    /// The queue keeps its entries density-sorted, so overflow eviction
    /// is one walk over the sorted front plus one `Vec::drain` — the
    /// earlier implementation re-sorted the whole queue and `remove(0)`d
    /// per victim, O(n² log n) over a sustained-overflow mission day.
    /// `BENCH_fleet_streaming.json` keeps the before/after measured when
    /// this landed (0.011805 s vs 0.001755 s for 4000 pushes, 6.73×) as
    /// frozen figures; the legacy lane that measured them is retired.
    pub fn push(&mut self, entry: QueueEntry) {
        if entry.bits <= 0.0 {
            return;
        }
        self.insert_sorted(entry);
        self.recompute_occupied();
        if self.occupied_bits > self.storage_bits {
            let mut over = self.occupied_bits - self.storage_bits;
            let mut evicted = 0usize;
            for e in &self.entries {
                if over <= 0.0 {
                    break;
                }
                over -= e.bits;
                self.dropped_bits += e.bits;
                self.dropped_value_bits += e.value_bits;
                evicted += 1;
            }
            self.entries.drain(..evicted);
            self.recompute_occupied();
        }
    }

    /// Drains up to `budget_bits` in highest-value-density order.
    /// Entries are transmitted whole except possibly the last, which is
    /// split (a tile can straddle two passes) — unless the would-be
    /// remainder is below `SPLIT_EPSILON_BITS` (1e-9), in which case the
    /// entry goes down whole so no untrackable sliver survives.
    ///
    /// `entries_sent` in the returned report uses completion
    /// attribution — see [`DrainReport`].
    pub fn drain(&mut self, budget_bits: f64) -> DrainReport {
        let mut report = DrainReport::default();
        if budget_bits <= 0.0 {
            return report;
        }
        // Entries are kept density-sorted, so the highest-density entry
        // is always at the back: no per-drain sort.
        let mut remaining = budget_bits;
        while remaining > 0.0 {
            let Some(entry) = self.entries.pop() else {
                break;
            };
            if entry.bits <= remaining + SPLIT_EPSILON_BITS {
                remaining -= entry.bits;
                report.sent_bits += entry.bits;
                report.sent_value_bits += entry.value_bits;
                report.entries_sent += 1;
            } else {
                // Partial transmit: split the entry. Both halves inherit
                // the invariants of the validated parent by construction
                // (fraction is in (0, 1), so sizes stay non-negative and
                // value never exceeds size). The remainder keeps its
                // density and is counted by whichever later drain
                // finishes it.
                let fraction = remaining / entry.bits;
                let sent = QueueEntry {
                    bits: remaining,
                    value_bits: entry.value_bits * fraction,
                };
                let leftover = QueueEntry {
                    bits: entry.bits - sent.bits,
                    value_bits: entry.value_bits - sent.value_bits,
                };
                self.insert_sorted(leftover);
                report.sent_bits += sent.bits;
                report.sent_value_bits += sent.value_bits;
                remaining = 0.0;
            }
        }
        self.recompute_occupied();
        report
    }

    /// Sheds whole entries in *lowest*-value-density order until at least
    /// `bits` have been removed (or the queue empties).
    ///
    /// This is the degradation policy for a shrunk downlink: when a
    /// ground contact drops, the capacity that contact would have carried
    /// is given up from the least valuable data first, preserving the
    /// queue's value density for the passes that remain.
    pub fn shed_lowest(&mut self, bits: f64) -> ShedReport {
        let mut report = ShedReport::default();
        if bits <= 0.0 {
            return report;
        }
        // Lowest density first: the sorted front, removed in one pass.
        let mut count = 0usize;
        for e in &self.entries {
            if report.shed_bits >= bits {
                break;
            }
            report.shed_bits += e.bits;
            report.shed_value_bits += e.value_bits;
            report.entries_shed += 1;
            count += 1;
        }
        self.entries.drain(..count);
        self.recompute_occupied();
        report
    }
}

/// Result of shedding queue entries after a lost or shrunk contact.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ShedReport {
    /// Bits removed from the queue.
    pub shed_bits: f64,
    /// High-value bits removed from the queue.
    pub shed_value_bits: f64,
    /// Entries removed.
    pub entries_shed: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(bits: f64, density: f64) -> QueueEntry {
        QueueEntry::new(bits, bits * density).expect("test entry is valid")
    }

    #[test]
    fn drains_highest_density_first() {
        let mut q = DownlinkQueue::new(1000.0);
        q.push(entry(100.0, 0.2));
        q.push(entry(100.0, 0.9));
        q.push(entry(100.0, 0.5));
        let r = q.drain(100.0);
        assert_eq!(r.entries_sent, 1);
        assert!((r.sent_value_bits - 90.0).abs() < 1e-9);
        // Next drain gets the 0.5-density entry.
        let r2 = q.drain(100.0);
        assert!((r2.sent_value_bits - 50.0).abs() < 1e-9);
    }

    #[test]
    fn partial_transmit_splits_entries() {
        let mut q = DownlinkQueue::new(1000.0);
        q.push(entry(100.0, 0.8));
        let r = q.drain(40.0);
        assert_eq!(r.entries_sent, 0);
        assert!((r.sent_bits - 40.0).abs() < 1e-9);
        assert!((r.sent_value_bits - 32.0).abs() < 1e-9);
        assert!((q.occupied_bits() - 60.0).abs() < 1e-9);
        // The remainder keeps its density.
        let r2 = q.drain(100.0);
        assert!((r2.sent_value_bits - 48.0).abs() < 1e-9);
        assert!(q.is_empty());
    }

    #[test]
    fn storage_pressure_evicts_low_density() {
        let mut q = DownlinkQueue::new(250.0);
        q.push(entry(100.0, 0.9));
        q.push(entry(100.0, 0.1));
        q.push(entry(100.0, 0.8)); // overflows by 50
        assert!(q.occupied_bits() <= 250.0);
        assert!(q.dropped_bits() >= 50.0);
        // The dropped data is the low-density entry.
        assert!(q.dropped_value_bits() / q.dropped_bits() < 0.2);
        // High-density entries survive.
        let r = q.drain(1e9);
        assert!(r.sent_value_bits / r.sent_bits > 0.5);
    }

    #[test]
    fn conservation_of_bits() {
        let mut q = DownlinkQueue::new(500.0);
        let mut pushed = 0.0;
        for i in 0..10 {
            let e = entry(80.0, 0.1 * i as f64 / 10.0 + 0.3);
            pushed += e.bits;
            q.push(e);
        }
        let r = q.drain(1e9);
        let accounted = r.sent_bits + q.dropped_bits() + q.occupied_bits();
        assert!((accounted - pushed).abs() < 1e-6);
        assert!(q.is_empty());
    }

    #[test]
    fn zero_budget_and_empty_queue_are_safe() {
        let mut q = DownlinkQueue::new(100.0);
        assert_eq!(q.drain(0.0), DrainReport::default());
        assert_eq!(q.drain(50.0), DrainReport::default());
        q.push(QueueEntry::new(0.0, 0.0).expect("zero entry is valid")); // no-op
        assert!(q.is_empty());
        assert_eq!(q.shed_lowest(10.0), ShedReport::default());
    }

    #[test]
    fn shed_lowest_removes_least_dense_first() {
        let mut q = DownlinkQueue::new(1000.0);
        q.push(entry(100.0, 0.9));
        q.push(entry(100.0, 0.1));
        q.push(entry(100.0, 0.5));
        let r = q.shed_lowest(150.0);
        // Whole entries: the 0.1 and 0.5 density ones go.
        assert_eq!(r.entries_shed, 2);
        assert!((r.shed_bits - 200.0).abs() < 1e-9);
        assert!((r.shed_value_bits - 60.0).abs() < 1e-9);
        assert!((q.occupied_bits() - 100.0).abs() < 1e-9);
        // The high-density entry survives.
        let drained = q.drain(1e9);
        assert!((drained.sent_value_bits - 90.0).abs() < 1e-9);
    }

    #[test]
    fn drain_over_real_passes() {
        use kodan_cote::constellation::Constellation;
        use kodan_cote::ground::GroundSegment;
        use kodan_cote::orbit::Orbit;
        use kodan_cote::sensor::Imager;
        use kodan_cote::sim::simulate_space_segment;
        use kodan_cote::time::Duration;

        let report = simulate_space_segment(
            &Constellation::single(Orbit::sun_synchronous(705_000.0)),
            &Imager::landsat_oli(),
            &GroundSegment::landsat(),
            Duration::from_hours(6.0),
        );
        let mut q = DownlinkQueue::new(1e12);
        for i in 0..1000 {
            q.push(entry(1e8, 0.3 + 0.6 * (i % 7) as f64 / 7.0));
        }
        let mut drained = DrainReport::default();
        for pass in &report.passes {
            let r = q.drain(pass.bits());
            drained.sent_bits += r.sent_bits;
            drained.sent_value_bits += r.sent_value_bits;
        }
        assert!(drained.sent_bits > 0.0);
        assert!(drained.sent_bits <= report.capacity_bits + 1e-3);
        // Value density of what went down exceeds the queue average
        // (priority ordering).
        if !q.is_empty() {
            let avg_density = drained.sent_value_bits / drained.sent_bits;
            assert!(avg_density > 0.5, "drained density {avg_density}");
        }
    }

    #[test]
    fn occupied_bits_is_exactly_the_entry_sum_after_heavy_churn() {
        // Regression for the incremental +=/-= occupancy accounting:
        // sizes like 0.1 and 0.7 are inexact in binary, so hundreds of
        // push/drain/shed cycles used to drift `occupied_bits` away from
        // the true entry sum (measurably non-zero on an empty queue).
        // Post-fix the field is recomputed from the entries, so equality
        // here is *bitwise*, not approximate.
        let mut q = DownlinkQueue::new(50.0);
        for round in 0..400 {
            q.push(entry(0.1, 0.3));
            q.push(entry(0.3, 0.7));
            q.push(entry(0.7, 0.9));
            q.drain(0.55); // usually splits an entry
            if round % 3 == 0 {
                q.shed_lowest(0.2);
            }
            let mut sum = 0.0;
            for e in q.entries() {
                sum += e.bits;
            }
            assert_eq!(
                q.occupied_bits().to_bits(),
                sum.to_bits(),
                "round {round}: occupied {} != entry sum {}",
                q.occupied_bits(),
                sum,
            );
        }
        q.drain(1e9);
        assert!(q.is_empty());
        assert_eq!(
            q.occupied_bits().to_bits(),
            0.0f64.to_bits(),
            "empty queue must report exactly zero occupancy, got {}",
            q.occupied_bits(),
        );
    }

    #[test]
    fn near_whole_partial_sends_count_the_entry() {
        // A budget within SPLIT_EPSILON_BITS of the entry size must not
        // strand a sliver remainder: the entry goes down whole and is
        // counted in this pass's report.
        let mut q = DownlinkQueue::new(1000.0);
        q.push(entry(100.0, 0.8));
        let r = q.drain(100.0 - 1e-10);
        assert_eq!(r.entries_sent, 1);
        assert!((r.sent_bits - 100.0).abs() < 1e-9);
        assert!(q.is_empty());
    }

    #[test]
    fn split_entries_are_attributed_to_the_completing_pass() {
        // Completion attribution: the pass that starts a split reports
        // zero entries; the pass that transmits the final remainder
        // reports one. Over any pass sequence each entry is counted
        // exactly once.
        let mut q = DownlinkQueue::new(1000.0);
        q.push(entry(100.0, 0.8));
        q.push(entry(50.0, 0.4));
        let first = q.drain(40.0); // splits the 100-bit entry
        assert_eq!(first.entries_sent, 0);
        let second = q.drain(30.0); // splits it again
        assert_eq!(second.entries_sent, 0);
        let third = q.drain(1e9); // finishes both entries
        assert_eq!(third.entries_sent, 2);
        assert_eq!(first.entries_sent + second.entries_sent + third.entries_sent, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn rejects_corrupt_entries_without_panicking() {
        // Regression: these used to `assert!` and abort the mission; a
        // corrupted tile size must surface as an error the caller can
        // drop.
        for (bits, value) in [
            (10.0, 20.0),              // value exceeds size
            (-1.0, 0.0),               // negative size
            (10.0, -1.0),              // negative value
            (f64::NAN, 1.0),           // NaN size
            (10.0, f64::NAN),          // NaN value
            (f64::INFINITY, 1.0),      // non-finite size
        ] {
            assert_eq!(
                QueueEntry::new(bits, value),
                Err(KodanError::InvalidQueueEntry),
                "({bits}, {value}) should be rejected"
            );
        }
        assert!(QueueEntry::new(10.0, 10.0).is_ok());
    }
}
