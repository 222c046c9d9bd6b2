//! The [`TapeRecorder`]: a recorder that captures the exact call
//! sequence so it can be replayed later, in a chosen order, into another
//! recorder.
//!
//! This is the mergeable-recorder primitive behind deterministic
//! data-parallel execution. A [`crate::SummaryRecorder`] is *not* safely
//! mergeable: histogram sums are floating-point accumulations and the
//! journal is ordered, so folding two recorders together would make the
//! snapshot depend on worker interleaving. Instead, each parallel work
//! unit records onto its own tape, and the coordinator replays the tapes
//! in work-unit index order. The target recorder then observes exactly
//! the call sequence a serial run would have produced, which keeps
//! snapshot JSON byte-identical regardless of how many workers ran.

use crate::event::{CounterId, HistogramId, StageId, TelemetryEvent};
use crate::recorder::Recorder;

/// One captured recorder call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TapeEntry {
    /// A [`Recorder::event`] call.
    Event(TelemetryEvent),
    /// A [`Recorder::span`] call: stage, modeled seconds, items.
    Span(StageId, f64, u64),
    /// A [`Recorder::count`] call: counter, increment.
    Count(CounterId, u64),
    /// A [`Recorder::observe`] call: histogram, value.
    Observe(HistogramId, f64),
}

/// A recorder that stores every call verbatim for later replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TapeRecorder {
    entries: Vec<TapeEntry>,
}

impl TapeRecorder {
    /// An empty tape.
    pub fn new() -> TapeRecorder {
        TapeRecorder {
            entries: Vec::new(),
        }
    }

    /// Number of captured calls.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replays every captured call, in recording order, into `target`.
    /// Replaying tapes in work-unit index order reproduces the exact
    /// call sequence of a serial run.
    pub fn replay_into(&self, target: &mut dyn Recorder) {
        for entry in &self.entries {
            match *entry {
                TapeEntry::Event(event) => target.event(event),
                TapeEntry::Span(stage, seconds, items) => target.span(stage, seconds, items),
                TapeEntry::Count(counter, n) => target.count(counter, n),
                TapeEntry::Observe(histogram, value) => target.observe(histogram, value),
            }
        }
    }
}

impl Recorder for TapeRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&mut self, event: TelemetryEvent) {
        self.entries.push(TapeEntry::Event(event));
    }

    fn span(&mut self, stage: StageId, modeled_seconds: f64, items: u64) {
        self.entries.push(TapeEntry::Span(stage, modeled_seconds, items));
    }

    fn count(&mut self, counter: CounterId, n: u64) {
        self.entries.push(TapeEntry::Count(counter, n));
    }

    fn observe(&mut self, histogram: HistogramId, value: f64) {
        self.entries.push(TapeEntry::Observe(histogram, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::SummaryRecorder;

    fn record_workload(r: &mut dyn Recorder) {
        r.event(TelemetryEvent::FrameCaptured { pixels: 64 });
        r.count(CounterId::FramesProcessed, 1);
        r.span(StageId::Frame, 0.25, 1);
        r.observe(HistogramId::FramePrecision, 0.75);
        r.event(TelemetryEvent::PixelsAccounted {
            sent_px: 10,
            value_px: 9,
            observed_px: 64,
        });
    }

    #[test]
    fn replay_reproduces_direct_recording_exactly() {
        let mut direct = SummaryRecorder::new();
        record_workload(&mut direct);

        let mut tape = TapeRecorder::new();
        record_workload(&mut tape);
        assert_eq!(tape.len(), 5);
        let mut replayed = SummaryRecorder::new();
        tape.replay_into(&mut replayed);

        assert_eq!(
            direct.snapshot().to_json(),
            replayed.snapshot().to_json(),
            "replay must be byte-identical to direct recording"
        );
    }

    #[test]
    fn index_ordered_replay_is_interleaving_independent() {
        // Two "workers" record disjoint frames; replaying their tapes in
        // index order matches the serial recording no matter which worker
        // finished first.
        let serial = {
            let mut r = SummaryRecorder::new();
            r.event(TelemetryEvent::FrameCaptured { pixels: 1 });
            r.span(StageId::Frame, 0.1, 1);
            r.event(TelemetryEvent::FrameCaptured { pixels: 2 });
            r.span(StageId::Frame, 0.2, 1);
            r.snapshot().to_json()
        };
        let mut tape0 = TapeRecorder::new();
        let mut tape1 = TapeRecorder::new();
        // "Worker 1" records before "worker 0" — finish order reversed.
        tape1.event(TelemetryEvent::FrameCaptured { pixels: 2 });
        tape1.span(StageId::Frame, 0.2, 1);
        tape0.event(TelemetryEvent::FrameCaptured { pixels: 1 });
        tape0.span(StageId::Frame, 0.1, 1);
        let mut merged = SummaryRecorder::new();
        tape0.replay_into(&mut merged);
        tape1.replay_into(&mut merged);
        assert_eq!(serial, merged.snapshot().to_json());
    }

    #[test]
    fn tape_is_enabled_and_records_each_call() {
        let mut tape = TapeRecorder::new();
        assert!(tape.enabled());
        assert!(tape.is_empty());
        tape.count(CounterId::TilesProcessed, 3);
        assert_eq!(
            tape.entries,
            [TapeEntry::Count(CounterId::TilesProcessed, 3)]
        );
    }
}
