//! A total JSON parser and snapshot deserialization.
//!
//! The workspace's `serde` is a no-op shim, so reading a snapshot back
//! (for `kodan diff` and `kodan health --snapshot`) needs its own
//! parser. It is the mirror of [`crate::json::JsonWriter`]: a minimal
//! recursive-descent RFC 8259 parser that is **total** — every
//! malformed input returns an error string, never a panic — with an
//! explicit nesting-depth cap so hostile input cannot overflow the
//! stack. Numbers keep their raw text so `u64` counters round-trip
//! exactly (no detour through `f64`).

use crate::event::HistogramId;
use crate::snapshot::{
    HistogramSnapshot, SpanTotal, TelemetrySnapshot, SNAPSHOT_SCHEMA_VERSION,
};
use std::collections::BTreeMap;

/// Maximum container nesting accepted before the parser gives up.
const MAX_DEPTH: u32 = 128;

/// A parsed JSON value. Object members keep their document order;
/// numbers keep their raw text (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as the raw token text.
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, members in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The members of an object value.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Looks up an object member by key (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The elements of an array value.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The text of a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// A number value as `u64`, exact (fails on floats and negatives).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse::<u64>().ok(),
            _ => None,
        }
    }

    /// A number value as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse::<f64>().ok(),
            _ => None,
        }
    }
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    // Method names deliberately avoid `peek`/`expect`: kodan-lint
    // resolves calls by name workspace-wide, so those would alias
    // `envelope::peek` and the `Option::expect` panic seed.
    fn look(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.look();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.look(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("json parse error at offset {}: {what}", self.pos))
    }

    fn eat(&mut self, want: char) -> Result<(), String> {
        match self.bump() {
            Some(c) if c == want => Ok(()),
            Some(c) => self.fail(&format!("expected `{want}`, found `{c}`")),
            None => self.fail(&format!("expected `{want}`, found end of input")),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        for want in word.chars() {
            match self.bump() {
                Some(c) if c == want => {}
                _ => return self.fail(&format!("malformed `{word}` literal")),
            }
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.bump().and_then(|c| c.to_digit(16)) {
                Some(d) => d,
                None => return self.fail("bad \\u escape"),
            };
            value = value * 16 + digit;
        }
        Ok(value)
    }

    fn string_body(&mut self) -> Result<String, String> {
        self.eat('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return self.fail("unterminated string"),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let hi = self.hex4()?;
                        let code = if (0xd800..=0xdbff).contains(&hi) {
                            // Surrogate pair: a second \uXXXX must follow.
                            self.eat('\\')?;
                            self.eat('u')?;
                            let lo = self.hex4()?;
                            if !(0xdc00..=0xdfff).contains(&lo) {
                                return self.fail("unpaired surrogate");
                            }
                            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                        } else if (0xdc00..=0xdfff).contains(&hi) {
                            return self.fail("unpaired surrogate");
                        } else {
                            hi
                        };
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return self.fail("invalid \\u code point"),
                        }
                    }
                    _ => return self.fail("bad escape"),
                },
                Some(c) if (c as u32) < 0x20 => {
                    return self.fail("raw control character in string")
                }
                Some(c) => out.push(c),
            }
        }
    }

    fn number_body(&mut self) -> Result<String, String> {
        let start = self.pos;
        while matches!(
            self.look(),
            Some('-' | '+' | '.' | 'e' | 'E' | '0'..='9')
        ) {
            self.pos += 1;
        }
        let raw: String = self.chars.get(start..self.pos).unwrap_or(&[]).iter().collect();
        match raw.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(raw),
            _ => self.fail("malformed number"),
        }
    }

    fn value(&mut self, depth: u32) -> Result<JsonValue, String> {
        if depth >= MAX_DEPTH {
            return self.fail("nesting too deep");
        }
        self.skip_ws();
        match self.look() {
            Some('{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.look() == Some('}') {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string_body()?;
                    self.skip_ws();
                    self.eat(':')?;
                    let value = self.value(depth + 1)?;
                    members.push((key, value));
                    self.skip_ws();
                    match self.bump() {
                        Some(',') => {}
                        Some('}') => return Ok(JsonValue::Object(members)),
                        _ => return self.fail("expected `,` or `}`"),
                    }
                }
            }
            Some('[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.look() == Some(']') {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bump() {
                        Some(',') => {}
                        Some(']') => return Ok(JsonValue::Array(items)),
                        _ => return self.fail("expected `,` or `]`"),
                    }
                }
            }
            Some('"') => Ok(JsonValue::String(self.string_body()?)),
            Some('t') => {
                self.literal("true")?;
                Ok(JsonValue::Bool(true))
            }
            Some('f') => {
                self.literal("false")?;
                Ok(JsonValue::Bool(false))
            }
            Some('n') => {
                self.literal("null")?;
                Ok(JsonValue::Null)
            }
            Some('-' | '0'..='9') => Ok(JsonValue::Number(self.number_body()?)),
            Some(c) => self.fail(&format!("unexpected `{c}`")),
            None => self.fail("unexpected end of input"),
        }
    }
}

/// Parses a complete JSON document. The whole input must be one value
/// (plus surrounding whitespace); trailing data is an error.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut parser = Parser {
        chars: text.chars().collect(),
        pos: 0,
    };
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.chars.len() {
        return parser.fail("trailing data after document");
    }
    Ok(value)
}

fn want<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    obj.get(key)
        .ok_or_else(|| format!("snapshot is missing `{key}`"))
}

fn want_u64(obj: &JsonValue, key: &str) -> Result<u64, String> {
    want(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("`{key}` is not a u64"))
}

fn want_f64(obj: &JsonValue, key: &str) -> Result<f64, String> {
    want(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("`{key}` is not a number"))
}

fn u64_table(obj: &JsonValue, key: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for (name, value) in want(obj, key)?
        .as_object()
        .ok_or_else(|| format!("`{key}` is not an object"))?
    {
        let v = value
            .as_u64()
            .ok_or_else(|| format!("`{key}.{name}` is not a u64"))?;
        out.insert(name.clone(), v);
    }
    Ok(out)
}

impl TelemetrySnapshot {
    /// Parses a snapshot previously produced by
    /// [`TelemetrySnapshot::to_json`] (any schema version up to the
    /// current one). Derived fields — span parents and histogram
    /// `mean`/`p50`/`p90`/`p99` — are ignored on input and recomputed
    /// on demand, so v3 files load cleanly.
    pub fn from_json(text: &str) -> Result<TelemetrySnapshot, String> {
        let root = parse_json(text)?;
        if root.as_object().is_none() {
            return Err("snapshot root is not an object".to_string());
        }
        let version = want_u64(&root, "schema_version")?;
        if version == 0 || version > u64::from(SNAPSHOT_SCHEMA_VERSION) {
            return Err(format!(
                "snapshot schema version {version} is not supported (this build reads up to {SNAPSHOT_SCHEMA_VERSION})"
            ));
        }

        let mut spans = BTreeMap::new();
        for (name, value) in want(&root, "spans")?
            .as_object()
            .ok_or_else(|| "`spans` is not an object".to_string())?
        {
            spans.insert(
                name.clone(),
                SpanTotal {
                    modeled_seconds: want_f64(value, "modeled_seconds")?,
                    items: want_u64(value, "items")?,
                    calls: want_u64(value, "calls")?,
                },
            );
        }

        let mut histograms = BTreeMap::new();
        for (name, value) in want(&root, "histograms")?
            .as_object()
            .ok_or_else(|| "`histograms` is not an object".to_string())?
        {
            let id = HistogramId::ALL
                .iter()
                .find(|h| h.name() == name)
                .copied()
                .ok_or_else(|| format!("unknown histogram `{name}`"))?;
            let bounds = id.bounds();
            let mut counts = Vec::new();
            for c in want(value, "counts")?
                .as_array()
                .ok_or_else(|| format!("`histograms.{name}.counts` is not an array"))?
            {
                counts.push(
                    c.as_u64()
                        .ok_or_else(|| format!("`histograms.{name}` has a bad count"))?,
                );
            }
            if counts.len() != bounds.len() + 1 {
                return Err(format!(
                    "`histograms.{name}` has {} buckets, expected {}",
                    counts.len(),
                    bounds.len() + 1
                ));
            }
            histograms.insert(
                name.clone(),
                HistogramSnapshot {
                    bounds,
                    counts,
                    count: want_u64(value, "count")?,
                    sum: want_f64(value, "sum")?,
                    min: want_f64(value, "min")?,
                    max: want_f64(value, "max")?,
                },
            );
        }

        let mut journal = Vec::new();
        for frame in want(&root, "journal")?
            .as_array()
            .ok_or_else(|| "`journal` is not an array".to_string())?
        {
            let mut lines = Vec::new();
            for line in frame
                .as_array()
                .ok_or_else(|| "journal frame is not an array".to_string())?
            {
                lines.push(
                    line.as_str()
                        .ok_or_else(|| "journal line is not a string".to_string())?
                        .to_string(),
                );
            }
            journal.push(lines);
        }

        Ok(TelemetrySnapshot {
            frames: want_u64(&root, "frames")?,
            events: want_u64(&root, "events")?,
            spans,
            counters: u64_table(&root, "counters")?,
            actions: u64_table(&root, "actions")?,
            context_tiles: u64_table(&root, "context_tiles")?,
            model_invocations: u64_table(&root, "model_invocations")?,
            histograms,
            journal,
            journal_truncated_frames: want_u64(&root, "journal_truncated_frames")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CounterId, HistogramId};
    use crate::{Recorder, SummaryRecorder, TelemetryEvent};

    #[test]
    fn empty_snapshot_roundtrips_exactly() {
        let snapshot = TelemetrySnapshot::empty();
        let back = TelemetrySnapshot::from_json(&snapshot.to_json()).expect("parse");
        assert_eq!(back, snapshot);
        assert_eq!(back.to_json(), snapshot.to_json());
    }

    #[test]
    fn recorded_snapshot_roundtrips_exactly() {
        let mut recorder = SummaryRecorder::new();
        recorder.event(TelemetryEvent::FrameCaptured { pixels: 1024 });
        recorder.event(TelemetryEvent::TileClassified { tile: 3, context: 1 });
        recorder.count(CounterId::PixelsSent, u64::MAX);
        recorder.observe(HistogramId::FramePrecision, 0.7);
        recorder.span(crate::StageId::Frame, 1.25, 1);
        let snapshot = recorder.snapshot();
        let back = TelemetrySnapshot::from_json(&snapshot.to_json()).expect("parse");
        assert_eq!(back, snapshot, "u64::MAX must round-trip exactly");
    }

    #[test]
    fn strings_with_escapes_roundtrip() {
        let doc = r#"{"a": "x\n\"y\" é 😀 z"}"#;
        let v = parse_json(doc).expect("parse");
        assert_eq!(v.get("a").and_then(JsonValue::as_str), Some("x\n\"y\" é 😀 z"));
    }

    #[test]
    fn malformed_documents_error_instead_of_panicking() {
        for doc in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "nul",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"lone \\ud800 surrogate\"",
            "1 2",
            "01e",
            "{\"a\": NaN}",
        ] {
            assert!(parse_json(doc).is_err(), "accepted: {doc:?}");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let err = parse_json(&deep).expect_err("must refuse");
        assert!(err.contains("nesting too deep"), "err: {err}");
    }

    #[test]
    fn newer_schema_versions_are_refused() {
        let json = TelemetrySnapshot::empty()
            .to_json()
            .replace("\"schema_version\": 6", "\"schema_version\": 99");
        let err = TelemetrySnapshot::from_json(&json).expect_err("must refuse");
        assert!(err.contains("99"), "err: {err}");
    }

    #[test]
    fn missing_fields_are_named_in_the_error() {
        let err = TelemetrySnapshot::from_json("{\"schema_version\": 5}")
            .expect_err("must refuse");
        assert!(err.contains('`'), "err: {err}");
    }
}
