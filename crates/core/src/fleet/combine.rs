//! The fleet combiner: a deterministic memtable + spill-to-store
//! aggregation pipeline (modeled on the memtable/spill split of
//! streaming dataflow runtimes).
//!
//! Per-satellite mission journals must not accumulate in memory — a
//! constellation day is millions of tiles, and the combiner's whole
//! contract is a fixed byte budget. Journal records buffer in an
//! in-memory *memtable* until adding one more would cross the budget;
//! the memtable is then sorted by `(satellite, seq)` and *spilled* as
//! one sorted run through a [`kodan_wire`] envelope
//! ([`KIND_FLEET_RUN`]) into the content-addressed artifact store — the
//! sanctioned filesystem boundary (this module never touches `std::fs`;
//! the `io-discipline` lint rule enforces that). Finishing the combine
//! *merge-reduces*: each spilled run is read back (digest-verified),
//! decoded, and folded into the [`FleetReport`] in spill order, followed
//! by the memtable remainder, so the result is byte-identical at any
//! worker count and any budget.

use crate::dvd::ratio;
use crate::fleet::FleetReport;
use kodan_wire::envelope::{open, seal, KIND_FLEET_RUN};
use kodan_wire::{ArtifactStore, Dec, Enc, ManifestEntry, WireError};

/// One row of a satellite's mission journal.
///
/// `seq 0` is the satellite's summary row (observations, storage
/// pressure, residuals, tile counts); `seq k > 0` is the satellite's
/// k-th served ground pass (transmitted bits). Each field is owned by
/// exactly one row kind, so folding every field over every row
/// double-counts nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JournalRecord {
    /// Satellite index within the constellation.
    pub satellite: u32,
    /// Row kind: 0 = summary, k > 0 = k-th served pass.
    pub seq: u32,
    /// Pixels observed over the day (summary row).
    pub observed_px: f64,
    /// Pixels transmitted during this pass (pass rows).
    pub sent_px: f64,
    /// High-value pixels transmitted during this pass (pass rows).
    pub sent_value_px: f64,
    /// Pixels evicted on board under storage pressure (summary row).
    pub storage_dropped_px: f64,
    /// Pixels still queued at end of day (summary row).
    pub residual_px: f64,
    /// Pixels shed to absorb faulted contacts (summary row; zero on a
    /// nominal fleet day).
    pub shed_px: f64,
    /// Tiles processed through specialized models (summary row,
    /// day-scale).
    pub tiles_processed: u64,
    /// Tiles elided before inference (summary row, day-scale).
    pub tiles_elided: u64,
    /// Frames the execution planner placed on-orbit (summary row; zero
    /// on an unplanned fleet day).
    pub planned_on_orbit: u64,
    /// Frames the planner routed down raw at their own pass (summary
    /// row).
    pub planned_raw: u64,
    /// Frames the planner deferred to a later pass (summary row).
    pub planned_deferred: u64,
}

impl JournalRecord {
    /// Canonical encoded size of one record, bytes — the unit of
    /// memtable accounting.
    pub const ENCODED_BYTES: u64 = 4 + 4 + 6 * 8 + 2 * 8 + 3 * 8;

    fn encode_into(&self, enc: &mut Enc) {
        enc.u32(self.satellite);
        enc.u32(self.seq);
        enc.f64(self.observed_px);
        enc.f64(self.sent_px);
        enc.f64(self.sent_value_px);
        enc.f64(self.storage_dropped_px);
        enc.f64(self.residual_px);
        enc.f64(self.shed_px);
        enc.u64(self.tiles_processed);
        enc.u64(self.tiles_elided);
        enc.u64(self.planned_on_orbit);
        enc.u64(self.planned_raw);
        enc.u64(self.planned_deferred);
    }

    fn decode_from(dec: &mut Dec<'_>) -> Result<JournalRecord, WireError> {
        Ok(JournalRecord {
            satellite: dec.u32()?,
            seq: dec.u32()?,
            observed_px: dec.f64()?,
            sent_px: dec.f64()?,
            sent_value_px: dec.f64()?,
            storage_dropped_px: dec.f64()?,
            residual_px: dec.f64()?,
            shed_px: dec.f64()?,
            tiles_processed: dec.u64()?,
            tiles_elided: dec.u64()?,
            planned_on_orbit: dec.u64()?,
            planned_raw: dec.u64()?,
            planned_deferred: dec.u64()?,
        })
    }
}

impl FleetReport {
    /// Folds one journal row into the totals.
    fn fold(&mut self, r: &JournalRecord) {
        if r.seq == 0 {
            self.satellites += 1;
        } else {
            self.passes_served += 1;
        }
        self.observed_px += r.observed_px;
        self.sent_px += r.sent_px;
        self.sent_value_px += r.sent_value_px;
        self.storage_dropped_px += r.storage_dropped_px;
        self.residual_px += r.residual_px;
        self.shed_px += r.shed_px;
        self.tiles_processed += r.tiles_processed;
        self.tiles_elided += r.tiles_elided;
        self.planned_on_orbit += r.planned_on_orbit;
        self.planned_raw += r.planned_raw;
        self.planned_deferred += r.planned_deferred;
    }
}

/// Spill accounting for one combine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpillStats {
    /// Sorted runs spilled through the store.
    pub runs: u64,
    /// Sealed bytes written through the store across all runs.
    pub spilled_bytes: u64,
    /// High-water mark of the memtable, bytes. Never exceeds the budget
    /// when the budget holds at least one record.
    pub peak_memtable_bytes: u64,
    /// Total record bytes ingested (spilled or resident).
    pub ingested_bytes: u64,
}

/// The bounded-memory combiner: ingest journal records, spill sorted
/// runs at the byte budget, merge-reduce at the end.
#[derive(Debug)]
pub struct SpillCombiner {
    budget_bytes: u64,
    memtable: Vec<JournalRecord>,
    memtable_bytes: u64,
    runs: Vec<ManifestEntry>,
    stats: SpillStats,
}

impl SpillCombiner {
    /// Creates a combiner with the given memtable byte budget. A budget
    /// below one record degrades gracefully to one-record runs.
    pub fn new(budget_bytes: u64) -> SpillCombiner {
        SpillCombiner {
            budget_bytes,
            memtable: Vec::new(),
            memtable_bytes: 0,
            runs: Vec::new(),
            stats: SpillStats::default(),
        }
    }

    /// Buffers one record, spilling the memtable first if the record
    /// would push it past the budget (spill-before-exceed, so the peak
    /// never crosses the budget).
    pub fn ingest(
        &mut self,
        store: &ArtifactStore,
        record: JournalRecord,
    ) -> Result<(), WireError> {
        if !self.memtable.is_empty()
            && self.memtable_bytes + JournalRecord::ENCODED_BYTES > self.budget_bytes
        {
            self.spill(store)?;
        }
        self.memtable.push(record);
        self.memtable_bytes += JournalRecord::ENCODED_BYTES;
        self.stats.ingested_bytes += JournalRecord::ENCODED_BYTES;
        self.stats.peak_memtable_bytes = self.stats.peak_memtable_bytes.max(self.memtable_bytes);
        Ok(())
    }

    /// Sorts the memtable into one run, seals it as a
    /// [`KIND_FLEET_RUN`] envelope and writes it through the store.
    fn spill(&mut self, store: &ArtifactStore) -> Result<(), WireError> {
        // Records arrive in (satellite, seq) order when satellites are
        // ingested in index order, but the run contract (sorted) must
        // not depend on the caller's discipline.
        self.memtable
            .sort_by(|a, b| (a.satellite, a.seq).cmp(&(b.satellite, b.seq)));
        let mut enc = Enc::new();
        enc.u32(self.memtable.len() as u32);
        for r in &self.memtable {
            r.encode_into(&mut enc);
        }
        let sealed = seal(KIND_FLEET_RUN, enc.as_bytes());
        let name = format!("fleet-run-{:04}", self.runs.len());
        let entry = store.put(&name, &sealed)?;
        self.stats.runs += 1;
        self.stats.spilled_bytes += sealed.len() as u64;
        self.runs.push(entry);
        self.memtable.clear();
        self.memtable_bytes = 0;
        Ok(())
    }

    /// Merge-reduces every spilled run (read back through the store,
    /// digest- and checksum-verified) plus the memtable remainder into
    /// the fleet report, derives its ratios and attaches the spill
    /// accounting. Fold order — runs in spill order, records in run
    /// order, remainder last — is a pure function of the ingest
    /// sequence, so the report is byte-identical at any worker count.
    pub fn finish(mut self, store: &ArtifactStore) -> Result<FleetReport, WireError> {
        let mut report = FleetReport::default();
        for entry in &self.runs {
            let sealed = store.read(entry)?;
            let payload = open(&sealed, KIND_FLEET_RUN)?;
            let mut dec = Dec::new(payload);
            let count = dec.u32()?;
            for _ in 0..count {
                report.fold(&JournalRecord::decode_from(&mut dec)?);
            }
            dec.finish()?;
        }
        // The remainder spills nothing: it folds straight from memory.
        self.memtable
            .sort_by(|a, b| (a.satellite, a.seq).cmp(&(b.satellite, b.seq)));
        for r in &self.memtable {
            report.fold(r);
        }
        report.fleet_dvd = ratio(report.sent_value_px, report.observed_px);
        report.coverage = ratio(report.sent_px, report.observed_px);
        report.transmitted_density = ratio(report.sent_value_px, report.sent_px);
        report.spill = self.stats;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch_store(tag: &str) -> (PathBuf, ArtifactStore) {
        let dir = std::env::temp_dir().join(format!("kodan-combine-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        let store = ArtifactStore::create(&dir).expect("create scratch store");
        (dir, store)
    }

    fn record(satellite: u32, seq: u32, sent: f64) -> JournalRecord {
        JournalRecord {
            satellite,
            seq,
            sent_px: sent,
            sent_value_px: sent * 0.5,
            tiles_processed: if seq == 0 { 10 } else { 0 },
            ..JournalRecord::default()
        }
    }

    #[test]
    fn encoded_size_constant_matches_the_codec() {
        let mut enc = Enc::new();
        record(3, 1, 9.0).encode_into(&mut enc);
        assert_eq!(enc.len() as u64, JournalRecord::ENCODED_BYTES);
    }

    #[test]
    fn records_roundtrip_through_the_codec() {
        let r = record(7, 2, 123.5);
        let mut enc = Enc::new();
        r.encode_into(&mut enc);
        let mut dec = Dec::new(enc.as_bytes());
        assert_eq!(JournalRecord::decode_from(&mut dec).expect("decode"), r);
        dec.finish().expect("nothing left over");
    }

    #[test]
    fn spill_engages_at_the_budget_and_totals_survive() {
        let (dir, store) = scratch_store("budget");
        // Budget holds exactly 3 records.
        let mut combiner = SpillCombiner::new(3 * JournalRecord::ENCODED_BYTES);
        for sat in 0..4u32 {
            combiner
                .ingest(&store, record(sat, 0, 0.0))
                .expect("ingest summary");
            combiner
                .ingest(&store, record(sat, 1, 100.0))
                .expect("ingest pass");
        }
        let report = combiner.finish(&store).expect("finish");
        assert_eq!(report.satellites, 4);
        assert_eq!(report.passes_served, 4);
        assert!((report.sent_px - 400.0).abs() < 1e-9);
        assert_eq!(report.tiles_processed, 40);
        let stats = report.spill;
        assert!(stats.runs >= 2, "budget must force spills, got {stats:?}");
        assert!(stats.peak_memtable_bytes <= 3 * JournalRecord::ENCODED_BYTES);
        assert_eq!(stats.ingested_bytes, 8 * JournalRecord::ENCODED_BYTES);
        assert!(stats.spilled_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn totals_are_independent_of_the_budget() {
        let fold_at = |budget: u64, tag: &str| {
            let (dir, store) = scratch_store(tag);
            let mut combiner = SpillCombiner::new(budget);
            for sat in 0..6u32 {
                for seq in 0..3u32 {
                    combiner
                        .ingest(&store, record(sat, seq, f64::from(sat * 7 + seq)))
                        .expect("ingest");
                }
            }
            let out = combiner.finish(&store).expect("finish");
            std::fs::remove_dir_all(&dir).ok();
            out
        };
        let tight = fold_at(JournalRecord::ENCODED_BYTES, "tight");
        let roomy = fold_at(1 << 20, "roomy");
        assert_eq!(
            FleetReport {
                spill: roomy.spill,
                ..tight
            },
            roomy
        );
        assert!(tight.spill.runs > roomy.spill.runs);
        assert_eq!(roomy.spill.runs, 0, "a roomy memtable never spills");
    }

    #[test]
    fn sub_record_budgets_degrade_to_single_record_runs() {
        let (dir, store) = scratch_store("tiny");
        let mut combiner = SpillCombiner::new(1);
        for sat in 0..3u32 {
            combiner.ingest(&store, record(sat, 0, 1.0)).expect("ingest");
        }
        let report = combiner.finish(&store).expect("finish");
        assert_eq!(report.satellites, 3);
        assert_eq!(report.spill.runs, 2, "all but the resident record spill");
        assert_eq!(
            report.spill.peak_memtable_bytes,
            JournalRecord::ENCODED_BYTES
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
