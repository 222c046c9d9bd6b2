//! Cross-run snapshot diffing for regression triage.
//!
//! [`diff_snapshots`] compares two [`TelemetrySnapshot`]s field by
//! field and reports every divergence as a `(field, before, after)`
//! triple, in a deterministic order (scalars first, then each table in
//! key order, then the journal). Two runs of the same seed and config
//! must produce an empty diff — `kodan diff` turns a non-empty one
//! into a non-zero exit code, which makes a byte-level regression
//! bisectable without reading two JSON files side by side.

use crate::json::format_f64;
use crate::snapshot::{HistogramSnapshot, SpanTotal, TelemetrySnapshot};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One diverging field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffEntry {
    /// Dotted field path, e.g. `counters.pixels_sent`.
    pub field: String,
    /// The first snapshot's rendering of the field.
    pub before: String,
    /// The second snapshot's rendering of the field.
    pub after: String,
}

/// Every divergence between two snapshots.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapshotDiff {
    /// Diverging fields, in deterministic order.
    pub entries: Vec<DiffEntry>,
}

impl SnapshotDiff {
    /// True when the snapshots were identical.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of diverging fields.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// A console rendering: one header line, one line per divergence.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            let _ = writeln!(out, "snapshots are identical");
            return out;
        }
        let _ = writeln!(out, "snapshot diff: {} field(s) differ", self.len());
        for e in &self.entries {
            let _ = writeln!(out, "  {}: {} -> {}", e.field, e.before, e.after);
        }
        out
    }
}

fn render_span(total: &SpanTotal) -> String {
    format!(
        "{}s items={} calls={}",
        format_f64(total.modeled_seconds),
        total.items,
        total.calls
    )
}

fn render_histogram(h: &HistogramSnapshot) -> String {
    let mut counts = String::new();
    for (i, c) in h.counts.iter().enumerate() {
        if i > 0 {
            counts.push(',');
        }
        let _ = write!(counts, "{c}");
    }
    format!(
        "count={} sum={} min={} max={} buckets=[{counts}]",
        h.count,
        format_f64(h.sum),
        format_f64(h.min),
        format_f64(h.max)
    )
}

/// Diffs two u64 tables under a dotted prefix; absent keys read as 0 so
/// a v3-era snapshot diffs cleanly against a v4 one.
fn diff_u64_table(
    out: &mut Vec<DiffEntry>,
    prefix: &str,
    a: &std::collections::BTreeMap<String, u64>,
    b: &std::collections::BTreeMap<String, u64>,
) {
    let keys: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for key in keys {
        let va = a.get(key).copied().unwrap_or(0);
        let vb = b.get(key).copied().unwrap_or(0);
        if va != vb {
            out.push(DiffEntry {
                field: format!("{prefix}.{key}"),
                before: va.to_string(),
                after: vb.to_string(),
            });
        }
    }
}

/// Compares two snapshots field by field (see the module docs).
pub fn diff_snapshots(a: &TelemetrySnapshot, b: &TelemetrySnapshot) -> SnapshotDiff {
    let mut entries = Vec::new();
    let mut scalar = |field: &str, va: u64, vb: u64| {
        if va != vb {
            entries.push(DiffEntry {
                field: field.to_string(),
                before: va.to_string(),
                after: vb.to_string(),
            });
        }
    };
    scalar("frames", a.frames, b.frames);
    scalar("events", a.events, b.events);
    scalar(
        "journal_truncated_frames",
        a.journal_truncated_frames,
        b.journal_truncated_frames,
    );

    let span_keys: BTreeSet<&String> = a.spans.keys().chain(b.spans.keys()).collect();
    for key in span_keys {
        let va = a.spans.get(key).copied().unwrap_or_default();
        let vb = b.spans.get(key).copied().unwrap_or_default();
        if va != vb {
            entries.push(DiffEntry {
                field: format!("spans.{key}"),
                before: render_span(&va),
                after: render_span(&vb),
            });
        }
    }

    diff_u64_table(&mut entries, "counters", &a.counters, &b.counters);
    diff_u64_table(&mut entries, "actions", &a.actions, &b.actions);
    diff_u64_table(&mut entries, "context_tiles", &a.context_tiles, &b.context_tiles);
    diff_u64_table(
        &mut entries,
        "model_invocations",
        &a.model_invocations,
        &b.model_invocations,
    );

    let hist_keys: BTreeSet<&String> =
        a.histograms.keys().chain(b.histograms.keys()).collect();
    for key in hist_keys {
        match (a.histograms.get(key), b.histograms.get(key)) {
            (Some(ha), Some(hb)) if ha == hb => {}
            (ha, hb) => {
                let render = |h: Option<&HistogramSnapshot>| {
                    h.map_or_else(|| "absent".to_string(), render_histogram)
                };
                entries.push(DiffEntry {
                    field: format!("histograms.{key}"),
                    before: render(ha),
                    after: render(hb),
                });
            }
        }
    }

    if a.journal != b.journal {
        let divergence = a
            .journal
            .iter()
            .zip(b.journal.iter())
            .position(|(fa, fb)| fa != fb);
        let describe = |j: &Vec<Vec<String>>| format!("{} journaled frame(s)", j.len());
        match divergence {
            Some(frame) => entries.push(DiffEntry {
                field: format!("journal[{frame}]"),
                before: a
                    .journal
                    .get(frame)
                    .map_or(0, |f| f.len())
                    .to_string()
                    + " event(s)",
                after: b
                    .journal
                    .get(frame)
                    .map_or(0, |f| f.len())
                    .to_string()
                    + " event(s)",
            }),
            None => entries.push(DiffEntry {
                field: "journal".to_string(),
                before: describe(&a.journal),
                after: describe(&b.journal),
            }),
        }
    }

    SnapshotDiff { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CounterId, StageId};

    #[test]
    fn identical_snapshots_diff_empty() {
        let a = TelemetrySnapshot::empty();
        let d = diff_snapshots(&a, &a.clone());
        assert!(d.is_empty());
        assert_eq!(d.to_text(), "snapshots are identical\n");
    }

    #[test]
    fn counter_divergence_is_named() {
        let a = TelemetrySnapshot::empty();
        let mut b = a.clone();
        b.counters
            .insert(CounterId::PixelsSent.name().to_string(), 90);
        let d = diff_snapshots(&a, &b);
        assert_eq!(d.len(), 1);
        let entry = d.entries.first().expect("entry");
        assert_eq!(entry.field, "counters.pixels_sent");
        assert_eq!(entry.before, "0");
        assert_eq!(entry.after, "90");
        assert!(d.to_text().contains("counters.pixels_sent: 0 -> 90"));
    }

    #[test]
    fn span_and_histogram_divergences_render_structured_values() {
        let a = TelemetrySnapshot::empty();
        let mut b = a.clone();
        if let Some(total) = b.spans.get_mut(StageId::Frame.name()) {
            total.modeled_seconds = 1.5;
            total.calls = 2;
        }
        if let Some(h) = b.histograms.get_mut("frame_precision") {
            h.count = 3;
            h.sum = 1.5;
        }
        let d = diff_snapshots(&a, &b);
        assert_eq!(d.len(), 2);
        let text = d.to_text();
        assert!(text.contains("spans.frame"), "{text}");
        assert!(text.contains("histograms.frame_precision"), "{text}");
        assert!(text.contains("1.5s items=0 calls=2"), "{text}");
    }

    #[test]
    fn journal_divergence_points_at_the_first_frame() {
        let mut a = TelemetrySnapshot::empty();
        let mut b = a.clone();
        a.journal = vec![vec!["x".to_string()], vec!["y".to_string()]];
        b.journal = vec![vec!["x".to_string()], vec!["z".to_string(), "w".to_string()]];
        let d = diff_snapshots(&a, &b);
        let entry = d.entries.first().expect("entry");
        assert_eq!(entry.field, "journal[1]");
        assert_eq!(entry.before, "1 event(s)");
        assert_eq!(entry.after, "2 event(s)");
    }
}
