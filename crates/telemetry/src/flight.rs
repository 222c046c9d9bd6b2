//! The deterministic flight recorder.
//!
//! A [`FlightRecorder`] wraps any other [`Recorder`] and keeps a bounded
//! ring buffer of the most recent frames' events, rendered in their
//! journal `Display` form. Whenever a degradation fires — the runtime
//! falls back to the global model, a classify retry budget runs out,
//! the queue sheds entries, or artifact quarantine replaces a corrupted
//! model — the recorder freezes the ring into a [`BlackBoxReport`]: a
//! replayable causal window ending at the trigger, exactly like an
//! aircraft black box.
//!
//! Determinism: the recorder only observes the serial event sequence
//! (worker tapes are replayed in frame-index order before they reach
//! any recorder), so [`FlightRecorder::blackbox_json`] is byte-identical
//! at any worker count. Report capture is capped and the overflow is
//! counted, so a fault storm cannot grow the black box without bound.

use crate::event::{RecoveryKind, TelemetryEvent};
use crate::json::JsonWriter;
use crate::recorder::Recorder;
use crate::{CounterId, HistogramId, StageId};
use std::collections::VecDeque;

/// Default number of recent frames kept in the ring buffer.
pub const DEFAULT_WINDOW_FRAMES: usize = 4;

/// Default cap on captured black-box reports; triggers beyond the cap
/// are counted, not stored.
pub const DEFAULT_REPORT_LIMIT: usize = 32;

/// One frame's worth of rendered events inside a causal window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameWindow {
    /// 1-based frame number (0 for events seen before the first
    /// `FrameCaptured`, e.g. ground-side loading).
    pub frame: u64,
    /// The frame's events in emission order, `TelemetryEvent` `Display`
    /// form.
    pub events: Vec<String>,
}

/// A frozen causal window captured when a degradation fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlackBoxReport {
    /// 1-based trigger sequence number across the whole run (including
    /// triggers beyond the report cap).
    pub sequence: u64,
    /// The recovery that fired the capture.
    pub trigger: RecoveryKind,
    /// Frame number current at the trigger.
    pub frame: u64,
    /// The ring contents at the trigger, oldest frame first; the last
    /// window's last event is the trigger itself.
    pub window: Vec<FrameWindow>,
}

/// Everything the flight recorder captured over a run: the reports plus
/// the configuration needed to interpret them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightLog {
    /// Ring capacity in frames.
    pub window_frames: u64,
    /// Report cap the run was flown with.
    pub report_limit: u64,
    /// Captured reports, in trigger order.
    pub reports: Vec<BlackBoxReport>,
    /// Triggers that fired beyond the report cap.
    pub reports_truncated: u64,
}

impl FlightLog {
    /// Serializes the log to byte-deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object(None);
        w.uint(Some("blackbox_version"), 1);
        w.uint(Some("window_frames"), self.window_frames);
        w.uint(Some("report_limit"), self.report_limit);
        w.open_array(Some("reports"));
        for report in &self.reports {
            w.open_object(None);
            w.uint(Some("sequence"), report.sequence);
            w.string(Some("trigger"), report.trigger.name());
            w.uint(Some("frame"), report.frame);
            w.open_array(Some("window"));
            for fw in &report.window {
                w.open_object(None);
                w.uint(Some("frame"), fw.frame);
                w.open_array(Some("events"));
                for line in &fw.events {
                    w.string(None, line);
                }
                w.close_array();
                w.close_object();
            }
            w.close_array();
            w.close_object();
        }
        w.close_array();
        w.uint(Some("reports_truncated"), self.reports_truncated);
        w.close_object();
        w.finish()
    }
}

/// A [`Recorder`] decorator that forwards everything to an inner
/// recorder while maintaining the black-box ring (see the module docs).
#[derive(Debug, Clone)]
pub struct FlightRecorder<R> {
    inner: R,
    window_frames: usize,
    report_limit: usize,
    ring: VecDeque<FrameWindow>,
    frame: u64,
    sequence: u64,
    reports: Vec<BlackBoxReport>,
    reports_truncated: u64,
}

impl<R: Recorder> FlightRecorder<R> {
    /// Wraps `inner` with the default window and report cap.
    pub fn new(inner: R) -> FlightRecorder<R> {
        FlightRecorder::with_limits(inner, DEFAULT_WINDOW_FRAMES, DEFAULT_REPORT_LIMIT)
    }

    /// Wraps `inner` with explicit limits; both are clamped to at
    /// least 1 so a window can always hold its trigger.
    pub fn with_limits(
        inner: R,
        window_frames: usize,
        report_limit: usize,
    ) -> FlightRecorder<R> {
        FlightRecorder {
            inner,
            window_frames: window_frames.max(1),
            report_limit: report_limit.max(1),
            ring: VecDeque::new(),
            frame: 0,
            sequence: 0,
            reports: Vec::new(),
            reports_truncated: 0,
        }
    }

    /// The wrapped recorder.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Captured reports, in trigger order.
    pub fn reports(&self) -> &[BlackBoxReport] {
        &self.reports
    }

    /// Triggers that fired beyond the report cap.
    pub fn reports_truncated(&self) -> u64 {
        self.reports_truncated
    }

    /// Clones the captured state into a standalone [`FlightLog`].
    pub fn log(&self) -> FlightLog {
        FlightLog {
            window_frames: self.window_frames as u64,
            report_limit: self.report_limit as u64,
            reports: self.reports.clone(),
            reports_truncated: self.reports_truncated,
        }
    }

    /// The black-box report document as byte-deterministic JSON.
    pub fn blackbox_json(&self) -> String {
        self.log().to_json()
    }

    fn append_line(&mut self, line: String) {
        if self.ring.is_empty() {
            // Events before the first FrameCaptured (ground-side
            // loading, mission setup) land in a frame-0 window.
            self.ring.push_back(FrameWindow {
                frame: 0,
                events: Vec::new(),
            });
        }
        if let Some(window) = self.ring.back_mut() {
            window.events.push(line);
        }
    }
}

impl<R: Recorder> Recorder for FlightRecorder<R> {
    fn enabled(&self) -> bool {
        true
    }

    fn event(&mut self, event: TelemetryEvent) {
        if let TelemetryEvent::FrameCaptured { .. } = event {
            self.frame += 1;
            self.ring.push_back(FrameWindow {
                frame: self.frame,
                events: Vec::new(),
            });
            while self.ring.len() > self.window_frames {
                self.ring.pop_front();
            }
        }
        self.append_line(event.to_string());
        if let TelemetryEvent::FaultRecovered { kind } = event {
            self.sequence += 1;
            if self.reports.len() < self.report_limit {
                self.reports.push(BlackBoxReport {
                    sequence: self.sequence,
                    trigger: kind,
                    frame: self.frame,
                    window: self.ring.iter().cloned().collect(),
                });
            } else {
                self.reports_truncated += 1;
            }
        }
        self.inner.event(event);
    }

    fn span(&mut self, stage: StageId, modeled_seconds: f64, items: u64) {
        self.inner.span(stage, modeled_seconds, items);
    }

    fn count(&mut self, counter: CounterId, amount: u64) {
        self.inner.count(counter, amount);
    }

    fn observe(&mut self, histogram: HistogramId, value: f64) {
        self.inner.observe(histogram, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FaultKind;
    use crate::NullRecorder;

    fn fly(recorder: &mut dyn Recorder, frames: u64, recover_on: u64) {
        for f in 1..=frames {
            recorder.event(TelemetryEvent::FrameCaptured { pixels: 64 });
            recorder.event(TelemetryEvent::TileClassified {
                tile: 0,
                context: 1,
            });
            if f == recover_on {
                recorder.event(TelemetryEvent::FaultInjected {
                    kind: FaultKind::Seu,
                });
                recorder.event(TelemetryEvent::FaultRecovered {
                    kind: RecoveryKind::ModelFallback,
                });
            }
        }
    }

    #[test]
    fn trigger_freezes_the_causal_window() {
        let mut flight = FlightRecorder::with_limits(NullRecorder, 2, 8);
        fly(&mut flight, 5, 4);
        assert_eq!(flight.reports().len(), 1);
        let report = flight.reports().first().expect("report");
        assert_eq!(report.sequence, 1);
        assert_eq!(report.trigger, RecoveryKind::ModelFallback);
        assert_eq!(report.frame, 4);
        // Window holds frames 3 and 4; the trigger is the last line.
        assert_eq!(report.window.len(), 2);
        assert_eq!(report.window.first().map(|w| w.frame), Some(3));
        let last = report.window.last().expect("window");
        assert_eq!(
            last.events.last().map(String::as_str),
            Some("fault_recovered kind=model_fallback")
        );
        assert_eq!(flight.reports_truncated(), 0);
    }

    #[test]
    fn report_cap_counts_overflow_instead_of_growing() {
        let mut flight = FlightRecorder::with_limits(NullRecorder, 1, 2);
        for _ in 0..5 {
            flight.event(TelemetryEvent::FaultRecovered {
                kind: RecoveryKind::QueueShed,
            });
        }
        assert_eq!(flight.reports().len(), 2);
        assert_eq!(flight.reports_truncated(), 3);
        assert_eq!(flight.log().reports_truncated, 3);
    }

    #[test]
    fn pre_frame_events_land_in_frame_zero() {
        let mut flight = FlightRecorder::new(NullRecorder);
        flight.event(TelemetryEvent::FaultRecovered {
            kind: RecoveryKind::ModelFallback,
        });
        let report = flight.reports().first().expect("report");
        assert_eq!(report.frame, 0);
        assert_eq!(report.window.first().map(|w| w.frame), Some(0));
    }

    #[test]
    fn blackbox_json_is_byte_deterministic_and_valid() {
        let mut a = FlightRecorder::new(NullRecorder);
        let mut b = FlightRecorder::new(NullRecorder);
        fly(&mut a, 6, 2);
        fly(&mut b, 6, 2);
        let json = a.blackbox_json();
        assert_eq!(json, b.blackbox_json());
        assert!(json.contains("\"blackbox_version\": 1"));
        assert!(json.contains("\"trigger\": \"model_fallback\""));
        assert!(crate::parse::parse_json(&json).is_ok(), "json: {json}");
    }

    #[test]
    fn forwards_to_the_inner_recorder() {
        let mut flight = FlightRecorder::new(crate::SummaryRecorder::new());
        fly(&mut flight, 3, 0);
        assert_eq!(flight.inner().snapshot().frames, 3);
        flight.count(CounterId::FramesProcessed, 3);
        flight.span(StageId::Frame, 1.5, 3);
        flight.observe(HistogramId::FramePrecision, 0.5);
        let snapshot = flight.inner().snapshot();
        assert_eq!(snapshot.counter(CounterId::FramesProcessed), 3);
        assert_eq!(snapshot.span(StageId::Frame).calls, 1);
    }
}
