//! The traced run's span recorder.
//!
//! Spans are kept in memory and written out as Chrome trace-event JSON
//! when the run ends. A disabled tracer only runs the closures it is
//! handed, so the timed iterations share their code with the traced one
//! at no cost.
//!
//! Layer internals are private, so a layer is measured by *replaying*
//! its public entry point on exactly the inputs the surface call
//! consumed. A replay span is recorded as a child of the span whose
//! work it re-measures, even though it runs after that span ends. A
//! replay timed call by call (one tile at a time, as the runtime works)
//! is one span whose duration is the summed time of its calls. A span's
//! self time is its duration minus its children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in the tracer.
pub type SpanId = usize;

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A set-up call (transformation, selection, artifact I/O).
    Setup,
    /// A public call the timed iteration makes.
    Surface,
    /// A layer entry point called again on a surface's inputs.
    Replay,
    /// A measurement outside the iteration's own work (recorder cost).
    Probe,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Setup => "setup",
            Kind::Surface => "surface",
            Kind::Replay => "replay",
            Kind::Probe => "probe",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or surface name.
    pub name: &'static str,
    /// What the span measures.
    pub kind: Kind,
    /// The span whose work this one re-measures.
    pub parent: Option<SpanId>,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    /// Wall-clock duration, seconds.
    pub seconds: f64,
    /// Work items the span processed (frames, tiles, passes).
    pub items: u64,
}

/// In-memory span and counter recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// True when spans are recorded (and replays should run).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` as a root span of `kind`.
    pub fn root<T>(
        &mut self,
        kind: Kind,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        self.record(kind, name, None, f)
    }

    /// Runs `f` as a replay span re-measuring part of `parent`'s work.
    pub fn child<T>(
        &mut self,
        parent: SpanId,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        self.record(Kind::Replay, name, Some(parent), f)
    }

    fn record<T>(
        &mut self,
        kind: Kind,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        if !self.enabled {
            return (usize::MAX, f());
        }
        let start_s = self.now_s();
        let value = f();
        let seconds = self.now_s() - start_s;
        self.spans.push(Span {
            name,
            kind,
            parent,
            start_s,
            seconds,
            items: 0,
        });
        (self.spans.len() - 1, value)
    }

    /// Seconds since the tracer was created.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Records a replay of `parent`'s work that was timed call by call:
    /// `seconds` summed over `items` calls, the first made at `start_s`.
    pub fn accumulated(
        &mut self,
        parent: SpanId,
        name: &'static str,
        start_s: f64,
        seconds: f64,
        items: usize,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            kind: Kind::Replay,
            parent: Some(parent),
            start_s,
            seconds,
            items: items as u64,
        });
        self.spans.len() - 1
    }

    /// Duration of span `id`, 0 for an unknown id.
    pub fn seconds(&self, id: SpanId) -> f64 {
        self.spans.get(id).map_or(0.0, |s| s.seconds)
    }

    /// Sets the work-item count of a recorded span.
    pub fn set_items(&mut self, id: SpanId, items: usize) {
        if let Some(span) = self.spans.get_mut(id) {
            span.items = items as u64;
        }
    }

    /// Adds `v` to a named counter (no-op when disabled).
    pub fn add(&mut self, counter: &'static str, v: f64) {
        if self.enabled {
            *self.counters.entry(counter).or_insert(0.0) += v;
        }
    }

    /// A counter's value, 0 when never added to.
    pub fn counter(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0.0)
    }

    /// Total seconds of the spans named `name`.
    pub fn busy(&self, name: &str) -> f64 {
        self.busy_where(|s| s.name == name)
    }

    /// Total work items of the spans named `name`.
    pub fn items(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.items).sum()
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.named(name).count() as u64
    }

    /// Total seconds of the spans `pick` selects.
    pub fn busy_where(&self, pick: impl Fn(&Span) -> bool) -> f64 {
        total(self.spans.iter().filter(|s| pick(s)).map(|s| s.seconds))
    }

    /// Total self time (span minus children) of the spans `pick` selects.
    pub fn self_time_where(&self, pick: impl Fn(&Span) -> bool) -> f64 {
        total(
            self.spans
                .iter()
                .enumerate()
                .filter(|(_, s)| pick(s))
                .map(|(id, s)| s.seconds - self.children_seconds(id)),
        )
    }

    /// Total self time of the spans named `name`.
    pub fn self_time(&self, name: &str) -> f64 {
        self.self_time_where(|s| s.name == name)
    }

    /// Share of the surfaces' wall time their child replays account for.
    pub fn coverage(&self) -> f64 {
        let mut surface = 0.0;
        let mut children = 0.0;
        for (id, s) in self.spans.iter().enumerate() {
            if s.kind == Kind::Surface {
                surface += s.seconds;
                children += self.children_seconds(id);
            }
        }
        ratio(children, surface)
    }

    fn children_seconds(&self, id: SpanId) -> f64 {
        total(
            self.spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| c.seconds),
        )
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    fn depth(&self, mut id: SpanId) -> usize {
        let mut depth = 0;
        while let Some(parent) = self.spans.get(id).and_then(|s| s.parent) {
            depth += 1;
            id = parent;
        }
        depth
    }

    /// The spans as Chrome trace-event JSON (open in Perfetto). Each
    /// span keeps its measured start and duration; its nesting depth is
    /// the thread id, and `args.parent` names the span it re-measures.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{id},\"parent\":{parent},\"items\":{}}}}}",
                s.name,
                s.kind.name(),
                s.start_s * 1e6,
                s.seconds * 1e6,
                self.depth(id),
                s.items
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The sum of `seconds`; +0 when empty (a float sum of nothing is -0).
fn total(seconds: impl Iterator<Item = f64>) -> f64 {
    seconds.fold(0.0, |acc, s| acc + s)
}

/// `num / den`, or 0 when the denominator is not positive.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let (_, v) = tr.root(Kind::Surface, "s", || 7);
        tr.add("c", 1.0);
        assert_eq!(v, 7);
        assert!(tr.spans.is_empty());
        assert_eq!(tr.counter("c"), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        let (root, _) = tr.root(Kind::Surface, "surface", || ());
        let (child, _) = tr.child(root, "layer", || ());
        tr.set_items(child, 3);
        // Pin durations so the arithmetic is exact.
        tr.spans[root].seconds = 1.0;
        tr.spans[child].seconds = 0.75;
        assert_eq!(tr.self_time("surface"), 0.25);
        assert_eq!(tr.busy("layer"), 0.75);
        assert_eq!(tr.items("layer"), 3);
        assert_eq!(tr.calls("layer"), 1);
        assert_eq!(tr.coverage(), 0.75);
        assert_eq!(tr.busy("missing").to_string(), "0");
        let json = tr.to_chrome_json();
        assert!(json.contains("\"name\":\"layer\""));
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\"parent\":0"));
    }
}
