//! The [`Recorder`] trait and its two implementations: the free
//! [`NullRecorder`] and the aggregating [`SummaryRecorder`].

use crate::event::{ActionKind, CounterId, HistogramId, StageId, TelemetryEvent};
use crate::snapshot::{HistogramSnapshot, SpanTotal, TelemetrySnapshot};
use std::collections::BTreeMap;

/// The instrumentation sink threaded through the deterministic pipeline.
///
/// Implementations must be deterministic functions of the call sequence:
/// no clocks, no entropy, no iteration-order dependence. The trait is
/// object-safe so call sites can take `&mut dyn Recorder` without
/// monomorphizing the whole pipeline per recorder type.
pub trait Recorder {
    /// Whether this recorder retains anything. Call sites may skip
    /// building expensive event payloads when this is `false`.
    fn enabled(&self) -> bool;

    /// Appends an event to the current frame's journal. Events between
    /// two [`TelemetryEvent::FrameCaptured`] markers belong to the frame
    /// the first marker opened.
    fn event(&mut self, event: TelemetryEvent);

    /// Adds modeled time and work items to a stage's span total.
    fn span(&mut self, stage: StageId, modeled_seconds: f64, items: u64);

    /// Increments a typed counter.
    fn count(&mut self, counter: CounterId, n: u64);

    /// Records one observation into a fixed-bucket histogram.
    fn observe(&mut self, histogram: HistogramId, value: f64);
}

/// The disabled recorder: every call is a no-op the optimizer can drop.
/// This is the default threaded through the un-instrumented entry points,
/// so turning telemetry off costs one virtual call per record site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn event(&mut self, _event: TelemetryEvent) {}

    fn span(&mut self, _stage: StageId, _modeled_seconds: f64, _items: u64) {}

    fn count(&mut self, _counter: CounterId, _n: u64) {}

    fn observe(&mut self, _histogram: HistogramId, _value: f64) {}
}

/// Default number of frames whose full event journal a
/// [`SummaryRecorder`] retains. Aggregates (spans, counters, histograms,
/// per-context and per-action tables) always cover *every* frame; the
/// cap only bounds the verbatim journal so day-scale missions do not
/// hold tens of thousands of rendered event lines.
pub const DEFAULT_JOURNAL_FRAME_LIMIT: usize = 8;

/// A recorder that folds the event stream into a [`TelemetrySnapshot`].
#[derive(Debug, Clone)]
pub struct SummaryRecorder {
    journal_frame_limit: usize,
    frames: u64,
    events: u64,
    spans: [SpanTotal; StageId::ALL.len()],
    counters: [u64; CounterId::ALL.len()],
    actions: [u64; 3],
    context_tiles: BTreeMap<u32, u64>,
    model_invocations: BTreeMap<u32, u64>,
    histograms: Vec<HistogramSnapshot>,
    journal: Vec<Vec<String>>,
    journal_truncated_frames: u64,
}

impl SummaryRecorder {
    /// A recorder with the default journal cap.
    pub fn new() -> SummaryRecorder {
        SummaryRecorder::with_journal_limit(DEFAULT_JOURNAL_FRAME_LIMIT)
    }

    /// A recorder that journals at most `journal_frame_limit` frames
    /// verbatim (0 disables the journal; aggregates are unaffected).
    pub fn with_journal_limit(journal_frame_limit: usize) -> SummaryRecorder {
        SummaryRecorder {
            journal_frame_limit,
            frames: 0,
            events: 0,
            spans: [SpanTotal::default(); StageId::ALL.len()],
            counters: [0; CounterId::ALL.len()],
            actions: [0; 3],
            context_tiles: BTreeMap::new(),
            model_invocations: BTreeMap::new(),
            histograms: HistogramId::ALL
                .iter()
                .map(|&h| HistogramSnapshot::empty(h))
                .collect(),
            journal: Vec::new(),
            journal_truncated_frames: 0,
        }
    }

    /// Freezes the current state into a snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::empty();
        snap.frames = self.frames;
        snap.events = self.events;
        for (i, stage) in StageId::ALL.iter().enumerate() {
            snap.spans.insert(stage.name().to_string(), self.spans[i]);
        }
        for (i, counter) in CounterId::ALL.iter().enumerate() {
            snap.counters
                .insert(counter.name().to_string(), self.counters[i]);
        }
        for (i, name) in ["discard", "downlink", "process"].iter().enumerate() {
            snap.actions.insert(name.to_string(), self.actions[i]);
        }
        for (&context, &n) in &self.context_tiles {
            snap.context_tiles.insert(format!("c{context:03}"), n);
        }
        for (&model, &n) in &self.model_invocations {
            snap.model_invocations.insert(format!("m{model:03}"), n);
        }
        for (i, hist) in HistogramId::ALL.iter().enumerate() {
            snap.histograms
                .insert(hist.name().to_string(), self.histograms[i].clone());
        }
        snap.journal = self.journal.clone();
        snap.journal_truncated_frames = self.journal_truncated_frames;
        snap
    }

    fn action_slot(action: ActionKind) -> usize {
        match action {
            ActionKind::Discard => 0,
            ActionKind::Downlink => 1,
            ActionKind::Process { .. } => 2,
        }
    }

    fn journal_line(&mut self, event: &TelemetryEvent) {
        if let TelemetryEvent::FrameCaptured { .. } = event {
            if self.journal.len() < self.journal_frame_limit {
                self.journal.push(Vec::new());
            } else {
                self.journal_truncated_frames += 1;
            }
        }
        let journaling = match event {
            TelemetryEvent::FrameCaptured { .. } => self.journal_truncated_frames == 0,
            // Follow-on events belong to the most recently opened frame;
            // once truncation starts, the open frame is a dropped one.
            _ => self.journal_truncated_frames == 0 && !self.journal.is_empty(),
        };
        if journaling {
            if let Some(frame) = self.journal.last_mut() {
                frame.push(event.to_string());
            }
        }
    }
}

impl Default for SummaryRecorder {
    fn default() -> Self {
        SummaryRecorder::new()
    }
}

impl Recorder for SummaryRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&mut self, event: TelemetryEvent) {
        self.events += 1;
        self.journal_line(&event);
        match event {
            TelemetryEvent::FrameCaptured { .. } => {
                self.frames += 1;
            }
            TelemetryEvent::TileClassified { context, .. } => {
                *self.context_tiles.entry(context).or_insert(0) += 1;
            }
            TelemetryEvent::ActionTaken { action, .. } => {
                self.actions[SummaryRecorder::action_slot(action)] += 1;
            }
            TelemetryEvent::ModelInvoked { model_index, .. } => {
                *self.model_invocations.entry(model_index).or_insert(0) += 1;
            }
            TelemetryEvent::PixelsAccounted { .. } => {}
            // Planner placements are aggregated through dedicated
            // counters by the runtime; here they are journal-only.
            TelemetryEvent::FramePlanned { .. } => {}
            // Fault traffic is aggregated through dedicated counters by
            // the injection sites; here it is journal-only.
            TelemetryEvent::FaultInjected { .. } => {}
            TelemetryEvent::FaultRecovered { .. } => {}
        }
    }

    fn span(&mut self, stage: StageId, modeled_seconds: f64, items: u64) {
        let total = &mut self.spans[stage.index()];
        total.modeled_seconds += modeled_seconds;
        total.items += items;
        total.calls += 1;
    }

    fn count(&mut self, counter: CounterId, n: u64) {
        self.counters[counter.index()] += n;
    }

    fn observe(&mut self, histogram: HistogramId, value: f64) {
        let h = &mut self.histograms[histogram.index()];
        let bucket = h
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(h.bounds.len());
        h.counts[bucket] += 1;
        if h.count == 0 {
            h.min = value;
            h.max = value;
        } else {
            if value < h.min {
                h.min = value;
            }
            if value > h.max {
                h.max = value;
            }
        }
        h.count += 1;
        h.sum += value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_free() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.event(TelemetryEvent::FrameCaptured { pixels: 1 });
        r.span(StageId::Frame, 1.0, 1);
        r.count(CounterId::FramesProcessed, 1);
        r.observe(HistogramId::FramePrecision, 0.5);
        // Nothing to assert on state — NullRecorder has none — but the
        // calls must be accepted through the trait object too.
        let dynr: &mut dyn Recorder = &mut r;
        dynr.event(TelemetryEvent::FrameCaptured { pixels: 1 });
        assert!(!dynr.enabled());
    }

    #[test]
    fn summary_recorder_folds_events() {
        let mut r = SummaryRecorder::new();
        r.event(TelemetryEvent::FrameCaptured { pixels: 100 });
        r.event(TelemetryEvent::TileClassified { tile: 0, context: 2 });
        r.event(TelemetryEvent::ActionTaken {
            tile: 0,
            action: ActionKind::Process { model_index: 1 },
        });
        r.event(TelemetryEvent::ModelInvoked {
            tile: 0,
            model_index: 1,
            modeled_seconds: 0.02,
        });
        r.event(TelemetryEvent::PixelsAccounted {
            sent_px: 10,
            value_px: 8,
            observed_px: 100,
        });
        let s = r.snapshot();
        assert_eq!(s.frames, 1);
        assert_eq!(s.events, 5);
        assert_eq!(s.actions["process"], 1);
        assert_eq!(s.context_tiles["c002"], 1);
        assert_eq!(s.model_invocations["m001"], 1);
        assert_eq!(s.journal.len(), 1);
        assert_eq!(s.journal[0].len(), 5);
    }

    #[test]
    fn spans_and_counters_accumulate() {
        let mut r = SummaryRecorder::new();
        r.span(StageId::ModelExecution, 0.5, 3);
        r.span(StageId::ModelExecution, 0.25, 1);
        r.count(CounterId::TilesProcessed, 4);
        let s = r.snapshot();
        let span = s.span(StageId::ModelExecution);
        assert_eq!(span.calls, 2);
        assert_eq!(span.items, 4);
        assert!((span.modeled_seconds - 0.75).abs() < 1e-12);
        assert_eq!(s.counter(CounterId::TilesProcessed), 4);
    }

    #[test]
    fn histogram_buckets_and_extrema() {
        let mut r = SummaryRecorder::new();
        r.observe(HistogramId::FramePrecision, 0.05);
        r.observe(HistogramId::FramePrecision, 0.95);
        r.observe(HistogramId::FramePrecision, 0.95);
        let s = r.snapshot();
        let h = &s.histograms[HistogramId::FramePrecision.name()];
        assert_eq!(h.count, 3);
        assert_eq!(h.counts[0], 1); // <= 0.1
        assert_eq!(h.counts[9], 2); // (0.9, 1.0]
        assert_eq!(h.min, 0.05);
        assert_eq!(h.max, 0.95);
        assert!((h.mean_opt().expect("observed") - 0.65).abs() < 1e-12);
    }

    #[test]
    fn overflow_bucket_catches_large_values() {
        let mut r = SummaryRecorder::new();
        r.observe(HistogramId::ModelLatencySeconds, 99.0);
        let s = r.snapshot();
        let h = &s.histograms[HistogramId::ModelLatencySeconds.name()];
        assert_eq!(*h.counts.last().expect("overflow bucket"), 1);
    }

    #[test]
    fn journal_cap_truncates_but_keeps_aggregates() {
        let mut r = SummaryRecorder::with_journal_limit(2);
        for _ in 0..5 {
            r.event(TelemetryEvent::FrameCaptured { pixels: 1 });
            r.event(TelemetryEvent::TileClassified { tile: 0, context: 0 });
        }
        let s = r.snapshot();
        assert_eq!(s.frames, 5);
        assert_eq!(s.journal.len(), 2);
        assert_eq!(s.journal_truncated_frames, 3);
        // The aggregate still saw every classification.
        assert_eq!(s.context_tiles["c000"], 5);
    }

    #[test]
    fn zero_journal_limit_disables_journaling() {
        let mut r = SummaryRecorder::with_journal_limit(0);
        r.event(TelemetryEvent::FrameCaptured { pixels: 1 });
        let s = r.snapshot();
        assert!(s.journal.is_empty());
        assert_eq!(s.journal_truncated_frames, 1);
        assert_eq!(s.frames, 1);
    }

    #[test]
    fn snapshot_roundtrips_to_identical_json() {
        let mut r = SummaryRecorder::new();
        r.event(TelemetryEvent::FrameCaptured { pixels: 64 });
        r.span(StageId::Frame, 1.5, 1);
        r.observe(HistogramId::FrameComputeSeconds, 1.5);
        let a = r.snapshot().to_json();
        let b = r.snapshot().to_json();
        assert_eq!(a, b);
    }
}
