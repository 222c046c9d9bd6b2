//! The rolled-up telemetry snapshot and its byte-stable JSON form.

use crate::event::{CounterId, HistogramId, StageId};
use crate::json::JsonWriter;
use std::collections::BTreeMap;

/// Schema version stamped into every serialized snapshot; bump when a
/// field is added, renamed or re-typed. Version 2 added the fault and
/// degradation counters; version 3 added the artifact uplink counters;
/// version 4 added the artifact inspection counters and derived
/// histogram statistics (`mean`/`p50`/`p90`/`p99`, `null` when empty);
/// version 5 added the fleet counters (satellites flown, spill runs,
/// spill bytes, peak memtable bytes); version 6 added the execution
/// planner counters (placement classes, raw-tile traffic, thermal
/// throttling, DVD shortfall).
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 6;

/// Accumulated totals for one span stage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanTotal {
    /// Total modeled time attributed to the stage, seconds. Zero for
    /// ground-side stages the latency model does not cover.
    pub modeled_seconds: f64,
    /// Work items the stage handled (tiles, frames, models — the stage's
    /// natural unit).
    pub items: u64,
    /// Number of span records folded into this total.
    pub calls: u64,
}

/// A frozen fixed-bucket histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bounds of the finite buckets (compiled into the
    /// [`HistogramId`]); an overflow bucket is implied above the last.
    pub bounds: &'static [f64],
    /// Per-bucket observation counts, `bounds.len() + 1` entries.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (0 when empty).
    pub min: f64,
    /// Largest observed value (0 when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// An empty histogram for the given id.
    pub fn empty(id: HistogramId) -> HistogramSnapshot {
        let bounds = id.bounds();
        HistogramSnapshot {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Mean observed value, `None` when the histogram is empty. The
    /// serialized form renders `None` as JSON `null` — never `NaN`,
    /// which is not valid JSON.
    pub fn mean_opt(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Estimated quantile (`q` in `[0, 1]`) from the bucket counts:
    /// the upper bound of the first bucket whose cumulative count
    /// reaches `q * count`, or the observed max for the overflow
    /// bucket. `None` when empty or `q` is not finite.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !q.is_finite() {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0);
        let mut cumulative = 0u64;
        for (i, bucket) in self.counts.iter().enumerate() {
            cumulative = cumulative.saturating_add(*bucket);
            if cumulative as f64 >= rank {
                // Buckets beyond the compiled bounds are the overflow
                // bucket; the observed max is its best estimate.
                return Some(self.bounds.get(i).copied().unwrap_or(self.max));
            }
        }
        Some(self.max)
    }
}

/// Everything a [`crate::SummaryRecorder`] learned, rolled up for
/// reporting: per-stage span totals, typed counters, per-action and
/// per-context tile counts, per-model invocation counts, fixed-bucket
/// histograms, and the (possibly truncated) per-frame event journal.
///
/// All maps are `BTreeMap`s and every enum-keyed table is emitted in
/// canonical declaration order, so [`TelemetrySnapshot::to_json`] is
/// byte-deterministic for a given recorded history.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Frames opened with `FrameCaptured`.
    pub frames: u64,
    /// Total events recorded (journaled or not).
    pub events: u64,
    /// Per-stage span totals, keyed by [`StageId::name`]. Every stage is
    /// present (zeroed when untouched) so the schema never shifts.
    pub spans: BTreeMap<String, SpanTotal>,
    /// Typed counters, keyed by [`CounterId::name`]; all present.
    pub counters: BTreeMap<String, u64>,
    /// Tiles per action (`discard` / `downlink` / `process`).
    pub actions: BTreeMap<String, u64>,
    /// Tiles classified into each context, keyed `c<ID>` zero-padded so
    /// lexicographic order equals numeric order.
    pub context_tiles: BTreeMap<String, u64>,
    /// Invocations of each model-table entry, keyed `m<ID>` zero-padded.
    pub model_invocations: BTreeMap<String, u64>,
    /// Fixed-bucket histograms, keyed by [`HistogramId::name`]; all
    /// present.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Journaled frames: each inner vec is one frame's events rendered in
    /// emission order (`TelemetryEvent`'s `Display` form).
    pub journal: Vec<Vec<String>>,
    /// Frames whose events were dropped from the journal under the
    /// recorder's frame cap (counted so truncation is never silent).
    pub journal_truncated_frames: u64,
}

impl TelemetrySnapshot {
    /// An empty snapshot with the full schema present.
    pub fn empty() -> TelemetrySnapshot {
        let spans = StageId::ALL
            .iter()
            .map(|s| (s.name().to_string(), SpanTotal::default()))
            .collect();
        let counters = CounterId::ALL
            .iter()
            .map(|c| (c.name().to_string(), 0u64))
            .collect();
        let actions = ["discard", "downlink", "process"]
            .iter()
            .map(|a| (a.to_string(), 0u64))
            .collect();
        let histograms = HistogramId::ALL
            .iter()
            .map(|&h| (h.name().to_string(), HistogramSnapshot::empty(h)))
            .collect();
        TelemetrySnapshot {
            frames: 0,
            events: 0,
            spans,
            counters,
            actions,
            context_tiles: BTreeMap::new(),
            model_invocations: BTreeMap::new(),
            histograms,
            journal: Vec::new(),
            journal_truncated_frames: 0,
        }
    }

    /// A counter's value by id (0 when absent, which cannot happen for
    /// snapshots built by this crate).
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters.get(id.name()).copied().unwrap_or(0)
    }

    /// A stage's span total by id.
    pub fn span(&self, id: StageId) -> SpanTotal {
        self.spans.get(id.name()).copied().unwrap_or_default()
    }

    /// Serializes the snapshot to pretty-printed, byte-deterministic
    /// JSON. Two snapshots that compare equal serialize identically.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object(None);
        w.uint(Some("schema_version"), u64::from(SNAPSHOT_SCHEMA_VERSION));
        w.uint(Some("frames"), self.frames);
        w.uint(Some("events"), self.events);

        w.open_object(Some("spans"));
        for (name, total) in &self.spans {
            w.open_object(Some(name));
            let parent = StageId::ALL
                .iter()
                .find(|s| s.name() == name)
                .and_then(|s| s.parent());
            match parent {
                Some(p) => w.string(Some("parent"), p.name()),
                None => w.string(Some("parent"), ""),
            }
            w.float(Some("modeled_seconds"), total.modeled_seconds);
            w.uint(Some("items"), total.items);
            w.uint(Some("calls"), total.calls);
            w.close_object();
        }
        w.close_object();

        w.open_object(Some("counters"));
        for (name, value) in &self.counters {
            w.uint(Some(name), *value);
        }
        w.close_object();

        w.open_object(Some("actions"));
        for (name, value) in &self.actions {
            w.uint(Some(name), *value);
        }
        w.close_object();

        w.open_object(Some("context_tiles"));
        for (name, value) in &self.context_tiles {
            w.uint(Some(name), *value);
        }
        w.close_object();

        w.open_object(Some("model_invocations"));
        for (name, value) in &self.model_invocations {
            w.uint(Some(name), *value);
        }
        w.close_object();

        w.open_object(Some("histograms"));
        for (name, h) in &self.histograms {
            w.open_object(Some(name));
            w.open_array(Some("bounds"));
            for b in h.bounds {
                w.float(None, *b);
            }
            w.close_array();
            w.open_array(Some("counts"));
            for c in &h.counts {
                w.uint(None, *c);
            }
            w.close_array();
            w.uint(Some("count"), h.count);
            w.float(Some("sum"), h.sum);
            w.float(Some("min"), h.min);
            w.float(Some("max"), h.max);
            // Derived statistics: `JsonWriter::float` renders the NaN
            // placeholder for an empty histogram as explicit `null`.
            w.float(Some("mean"), h.mean_opt().unwrap_or(f64::NAN));
            w.float(Some("p50"), h.percentile(0.5).unwrap_or(f64::NAN));
            w.float(Some("p90"), h.percentile(0.9).unwrap_or(f64::NAN));
            w.float(Some("p99"), h.percentile(0.99).unwrap_or(f64::NAN));
            w.close_object();
        }
        w.close_object();

        w.open_array(Some("journal"));
        for frame_events in &self.journal {
            w.open_array(None);
            for line in frame_events {
                w.string(None, line);
            }
            w.close_array();
        }
        w.close_array();
        w.uint(
            Some("journal_truncated_frames"),
            self.journal_truncated_frames,
        );

        w.close_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_has_full_schema() {
        let s = TelemetrySnapshot::empty();
        assert_eq!(s.spans.len(), StageId::ALL.len());
        assert_eq!(s.counters.len(), CounterId::ALL.len());
        assert_eq!(s.histograms.len(), HistogramId::ALL.len());
        assert_eq!(s.actions.len(), 3);
        assert_eq!(s.counter(CounterId::FramesProcessed), 0);
        assert_eq!(s.span(StageId::Frame).calls, 0);
    }

    #[test]
    fn json_is_byte_deterministic() {
        let mut a = TelemetrySnapshot::empty();
        a.frames = 2;
        a.context_tiles.insert("c00".to_string(), 7);
        a.journal.push(vec!["frame_captured pixels=4".to_string()]);
        let b = a.clone();
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("\"schema_version\": 6"));
        assert!(a.to_json().contains("\"c00\": 7"));
    }

    #[test]
    fn histogram_mean_guards_empty() {
        let h = HistogramSnapshot::empty(HistogramId::FramePrecision);
        assert_eq!(h.mean_opt(), None);
        assert_eq!(h.percentile(0.5), None);
    }

    #[test]
    fn empty_histogram_statistics_serialize_as_null() {
        let json = TelemetrySnapshot::empty().to_json();
        assert!(json.contains("\"mean\": null"), "json: {json}");
        assert!(json.contains("\"p50\": null"), "json: {json}");
        assert!(json.contains("\"p99\": null"), "json: {json}");
        assert!(!json.contains("NaN"), "json: {json}");
    }

    #[test]
    fn histogram_percentiles_follow_bucket_bounds() {
        let mut h = HistogramSnapshot::empty(HistogramId::FramePrecision);
        // 10 observations in the first bucket, 10 in the overflow.
        let first = h.counts.first_mut().expect("bucket");
        *first = 10;
        let last = h.counts.last_mut().expect("bucket");
        *last = 10;
        h.count = 20;
        h.sum = 12.0;
        h.max = 1.5;
        let lowest = h.bounds.first().copied().expect("bounds");
        assert_eq!(h.percentile(0.25), Some(lowest));
        assert_eq!(h.percentile(0.99), Some(1.5), "overflow uses max");
        assert_eq!(h.mean_opt(), Some(0.6));
    }

    #[test]
    fn span_parents_serialize() {
        let s = TelemetrySnapshot::empty();
        let json = s.to_json();
        // model_execution hangs off frame; mission is a root (empty
        // parent string).
        assert!(json.contains("\"model_execution\""));
        assert!(json.contains("\"parent\": \"frame\""));
        assert!(json.contains("\"parent\": \"\""));
    }
}
