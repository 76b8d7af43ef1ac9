//! Exporters: human-readable summary, machine-readable JSON, and Chrome
//! `trace_event` JSON (loadable in `chrome://tracing` or Perfetto).
//!
//! All JSON is emitted by hand — the workspace has no serde — through
//! one shared [`JsonWriter`] (single escaper, compact and pretty modes)
//! that every emitter in the workspace builds on. The Chrome output uses
//! the object form (`{"traceEvents": [...]}`) with complete-event
//! (`ph: "X"`) spans, one metadata (`ph: "M"`) process-name record, and
//! a final counter (`ph: "C"`) sample carrying every non-zero pipeline
//! counter.

use crate::metrics::Hist;
use crate::registry::Registry;
use crate::span::SpanRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` for inclusion inside a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The one JSON emitter every exporter in the workspace shares.
///
/// Hand-rolled emitters used to repeat the comma/escaping bookkeeping in
/// three places (the sweep, attribution, and Chrome-trace writers); the
/// writer centralizes it behind a small push API:
///
/// ```
/// use lp_obs::JsonWriter;
///
/// let mut w = JsonWriter::compact();
/// w.begin_object();
/// w.key("name");
/// w.string("demo");
/// w.key("values");
/// w.begin_array();
/// w.uint(1);
/// w.uint(2);
/// w.end_array();
/// w.end_object();
/// assert_eq!(w.finish(), "{\"name\":\"demo\",\"values\":[1,2]}");
/// ```
///
/// Compact mode emits no whitespace at all — byte-identical to the
/// historical hand-rolled documents — while pretty mode indents two
/// spaces per level for human inspection. Both validate against
/// [`validate_json`] as long as the begin/end calls balance.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    pretty: bool,
    /// Per open container: whether it already holds an entry (drives
    /// comma insertion and closing-bracket placement in pretty mode).
    has_entry: Vec<bool>,
    /// The next value completes a `key:` pair — suppress the comma logic
    /// the key already ran.
    expect_value: bool,
}

impl JsonWriter {
    /// A writer emitting no whitespace (the machine-readable default).
    #[must_use]
    pub fn compact() -> JsonWriter {
        JsonWriter {
            out: String::new(),
            pretty: false,
            has_entry: Vec::new(),
            expect_value: false,
        }
    }

    /// A writer indenting two spaces per nesting level.
    #[must_use]
    pub fn pretty() -> JsonWriter {
        JsonWriter {
            pretty: true,
            ..JsonWriter::compact()
        }
    }

    fn indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.has_entry.len() {
            self.out.push_str("  ");
        }
    }

    /// Comma/indent bookkeeping before an array element or object key.
    fn before_entry(&mut self) {
        if self.expect_value {
            self.expect_value = false;
            return;
        }
        if let Some(has) = self.has_entry.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
            if self.pretty {
                self.indent();
            }
        }
    }

    /// Closing-bracket bookkeeping: pretty mode drops the bracket to its
    /// own line unless the container stayed empty.
    fn close(&mut self, bracket: char) {
        let had_entry = self.has_entry.pop().unwrap_or(false);
        if self.pretty && had_entry {
            self.indent();
        }
        self.out.push(bracket);
    }

    /// Opens an object (`{`), as a value or array element.
    pub fn begin_object(&mut self) {
        self.before_entry();
        self.out.push('{');
        self.has_entry.push(false);
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Opens an array (`[`), as a value or array element.
    pub fn begin_array(&mut self) {
        self.before_entry();
        self.out.push('[');
        self.has_entry.push(false);
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Writes an object key; the next write supplies its value.
    pub fn key(&mut self, name: &str) {
        self.before_entry();
        let _ = write!(self.out, "\"{}\":", json_escape(name));
        if self.pretty {
            self.out.push(' ');
        }
        self.expect_value = true;
    }

    /// Writes an escaped string value.
    pub fn string(&mut self, value: &str) {
        self.before_entry();
        let _ = write!(self.out, "\"{}\"", json_escape(value));
    }

    /// Writes an unsigned integer value.
    pub fn uint(&mut self, value: u64) {
        self.before_entry();
        let _ = write!(self.out, "{value}");
    }

    /// Writes a signed integer value.
    pub fn int(&mut self, value: i64) {
        self.before_entry();
        let _ = write!(self.out, "{value}");
    }

    /// Writes a float with a fixed number of decimal places (the
    /// workspace convention: speedups `.6`, coverages `.3`, factors `.4`).
    pub fn fixed(&mut self, value: f64, decimals: usize) {
        self.before_entry();
        let _ = write!(self.out, "{value:.decimals$}");
    }

    /// Writes a float with the shortest round-trip `Display` form.
    pub fn float(&mut self, value: f64) {
        self.before_entry();
        let _ = write!(self.out, "{value}");
    }

    /// Writes a boolean value.
    pub fn boolean(&mut self, value: bool) {
        self.before_entry();
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// Writes a JSON `null`.
    pub fn null(&mut self) {
        self.before_entry();
        self.out.push_str("null");
    }

    /// Consumes the writer and returns the document.
    ///
    /// # Panics
    /// Panics if a container is still open — an unbalanced emitter is a
    /// bug, not a runtime condition.
    #[must_use]
    pub fn finish(self) -> String {
        assert!(
            self.has_entry.is_empty(),
            "JsonWriter finished with {} unclosed container(s)",
            self.has_entry.len()
        );
        self.out
    }
}

/// Strict JSON validation via a small recursive-descent parser — the
/// workspace has no serde, so every hand-rolled exporter is checked
/// against this in tests and in the binaries' `--explain-out` smoke
/// paths. Delegates to [`JsonValue::parse`] and discards the tree.
///
/// # Errors
/// Returns a short description of the first syntax error, or of trailing
/// garbage after the top-level value.
pub fn validate_json(text: &str) -> Result<(), String> {
    JsonValue::parse(text).map(|_| ())
}

/// A parsed JSON document — the read-side companion to [`JsonWriter`],
/// used by the snapshot/diff machinery to load documents the
/// workspace wrote in earlier runs.
///
/// Numbers keep their raw source token: `u64` counters round-trip
/// exactly ([`JsonValue::as_u64`] reparses the token as an integer)
/// instead of being squeezed through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw (validated) source token.
    Num(String),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, entries in source order (duplicate keys kept as-is).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON document.
    ///
    /// # Errors
    /// Returns a short description of the first syntax error, or of
    /// trailing garbage after the top-level value.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let (value, rest) = parse_value(text)?;
        let rest = skip_ws(rest);
        if rest.is_empty() {
            Ok(value)
        } else {
            Err(format!(
                "trailing garbage: {:?}",
                &rest[..rest.len().min(24)]
            ))
        }
    }

    /// Object field lookup (first entry wins); `None` for non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's entries, in source order.
    #[must_use]
    pub fn entries(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// The array's elements.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string's decoded text.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer, if its token is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as a float.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean's value.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

fn skip_ws(s: &str) -> &str {
    s.trim_start_matches([' ', '\t', '\n', '\r'])
}

fn parse_value(s: &str) -> Result<(JsonValue, &str), String> {
    let s = skip_ws(s);
    match s.chars().next() {
        Some('{') => parse_object(s),
        Some('[') => parse_array(s),
        Some('"') => {
            let (text, rest) = parse_string(s)?;
            Ok((JsonValue::Str(text), rest))
        }
        Some('t') => s
            .strip_prefix("true")
            .map(|rest| (JsonValue::Bool(true), rest))
            .ok_or_else(|| bad(s)),
        Some('f') => s
            .strip_prefix("false")
            .map(|rest| (JsonValue::Bool(false), rest))
            .ok_or_else(|| bad(s)),
        Some('n') => s
            .strip_prefix("null")
            .map(|rest| (JsonValue::Null, rest))
            .ok_or_else(|| bad(s)),
        Some(c) if c == '-' || c.is_ascii_digit() => parse_number(s),
        _ => Err(bad(s)),
    }
}

fn bad(s: &str) -> String {
    format!("unexpected input at {:?}", &s[..s.len().min(24)])
}

fn parse_string(s: &str) -> Result<(String, &str), String> {
    if !s.starts_with('"') {
        return Err(bad(s));
    }
    let mut out = String::new();
    let mut it = s.char_indices().skip(1);
    while let Some((i, c)) = it.next() {
        match c {
            '"' => return Ok((out, &s[i + 1..])),
            '\\' => {
                let (_, esc) = it.next().ok_or("truncated escape")?;
                match esc {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, h) = it.next().ok_or("truncated \\u escape")?;
                            let digit = h.to_digit(16).ok_or(format!("bad hex digit {h:?}"))?;
                            code = code * 16 + digit;
                        }
                        // Lone surrogates cannot form a char; emit the
                        // replacement character (the writer never emits
                        // surrogate escapes, so this is belt-and-braces).
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape \\{esc}")),
                }
            }
            c if (c as u32) < 0x20 => return Err("raw control char in string".into()),
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

fn parse_number(s: &str) -> Result<(JsonValue, &str), String> {
    let end = s
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(s.len());
    s[..end].parse::<f64>().map_err(|e| e.to_string())?;
    Ok((JsonValue::Num(s[..end].to_string()), &s[end..]))
}

fn parse_array(s: &str) -> Result<(JsonValue, &str), String> {
    let mut items = Vec::new();
    let mut s = skip_ws(&s[1..]);
    if let Some(rest) = s.strip_prefix(']') {
        return Ok((JsonValue::Arr(items), rest));
    }
    loop {
        let (value, rest) = parse_value(s)?;
        items.push(value);
        s = skip_ws(rest);
        if let Some(rest) = s.strip_prefix(',') {
            s = rest;
        } else {
            return s
                .strip_prefix(']')
                .map(|rest| (JsonValue::Arr(items), rest))
                .ok_or_else(|| bad(s));
        }
    }
}

fn parse_object(s: &str) -> Result<(JsonValue, &str), String> {
    let mut entries = Vec::new();
    let mut s = skip_ws(&s[1..]);
    if let Some(rest) = s.strip_prefix('}') {
        return Ok((JsonValue::Obj(entries), rest));
    }
    loop {
        s = skip_ws(s);
        let (key, rest) = parse_string(s)?;
        s = skip_ws(rest).strip_prefix(':').ok_or("missing colon")?;
        let (value, rest) = parse_value(s)?;
        entries.push((key, value));
        s = skip_ws(rest);
        if let Some(rest) = s.strip_prefix(',') {
            s = rest;
        } else {
            return s
                .strip_prefix('}')
                .map(|rest| (JsonValue::Obj(entries), rest))
                .ok_or_else(|| bad(s));
        }
    }
}

/// Per-name span aggregate used by [`summary`].
#[derive(Debug, Default, Clone)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

fn aggregate(spans: &[SpanRecord]) -> BTreeMap<&'static str, SpanAgg> {
    let mut by_name: BTreeMap<&'static str, SpanAgg> = BTreeMap::new();
    for s in spans {
        let agg = by_name.entry(s.name).or_default();
        agg.count += 1;
        agg.total_ns += s.duration_ns();
        agg.max_ns = agg.max_ns.max(s.duration_ns());
    }
    by_name
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// The human-readable run summary (what `--trace-out`-less binaries print
/// to stderr at exit when logging is enabled).
#[must_use]
pub fn summary(reg: &Registry) -> String {
    let spans = reg.spans();
    let mut out = String::from("== observability summary ==\n");
    if spans.is_empty() {
        out.push_str("(no spans recorded)\n");
    } else {
        let mut rows: Vec<(&'static str, SpanAgg)> = aggregate(&spans).into_iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.total_ns));
        out.push_str("phase spans (by total time):\n");
        for (name, agg) in rows {
            let mean = agg.total_ns / agg.count.max(1);
            let _ = writeln!(
                out,
                "  {name:<12} x{:<6} total {:>10}  mean {:>10}  max {:>10}",
                agg.count,
                fmt_ns(agg.total_ns),
                fmt_ns(mean),
                fmt_ns(agg.max_ns),
            );
        }
    }
    let counters = reg.counters().snapshot();
    if !counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in counters {
            let _ = writeln!(out, "  {name:<28} {value}");
        }
    }
    for (h, name) in Hist::ALL {
        let hist = reg.hist(h);
        if hist.count > 0 {
            let (p50, p90, p99) = hist.quantile_summary();
            let _ = writeln!(
                out,
                "hist {:<20} n={} mean={:.1} min={} max={} p50<={p50} p90<={p90} p99<={p99}",
                name,
                hist.count,
                hist.mean(),
                hist.min,
                hist.max,
            );
        }
    }
    out
}

/// Chrome `trace_event` JSON for the registry's spans and counters.
///
/// Timestamps are microseconds since the registry epoch; spans become
/// complete events (`ph: "X"`), and the snapshot of every non-zero
/// counter rides along both as a `ph: "C"` counter sample and inside
/// `otherData` for tools that read the object wrapper.
#[must_use]
pub fn chrome_trace(reg: &Registry, process_name: &str) -> String {
    let spans = reg.spans();
    let counters = reg.counters().snapshot();
    let counter_args = |w: &mut JsonWriter| {
        w.begin_object();
        for (name, value) in &counters {
            w.key(name);
            w.uint(*value);
        }
        w.end_object();
    };
    let mut w = JsonWriter::compact();
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    w.begin_object();
    w.key("name");
    w.string("process_name");
    w.key("ph");
    w.string("M");
    w.key("pid");
    w.uint(1);
    w.key("tid");
    w.uint(0);
    w.key("args");
    w.begin_object();
    w.key("name");
    w.string(process_name);
    w.end_object();
    w.end_object();
    let mut last_ts = 0.0f64;
    for s in &spans {
        last_ts = last_ts.max(s.end_ns as f64 / 1e3);
        w.begin_object();
        w.key("name");
        w.string(s.name);
        w.key("cat");
        w.string("phase");
        w.key("ph");
        w.string("X");
        w.key("ts");
        w.float(s.start_ns as f64 / 1e3);
        w.key("dur");
        w.float(s.duration_ns() as f64 / 1e3);
        w.key("pid");
        w.uint(1);
        w.key("tid");
        w.uint(s.tid);
        w.end_object();
    }
    if !counters.is_empty() {
        w.begin_object();
        w.key("name");
        w.string("lp_counters");
        w.key("ph");
        w.string("C");
        w.key("ts");
        w.float(last_ts);
        w.key("pid");
        w.uint(1);
        w.key("args");
        counter_args(&mut w);
        w.end_object();
    }
    w.end_array();
    w.key("displayTimeUnit");
    w.string("ms");
    w.key("otherData");
    counter_args(&mut w);
    w.end_object();
    w.finish()
}

/// Writes the global registry's Chrome trace to `path`.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_chrome_trace(path: &std::path::Path, process_name: &str) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace(crate::registry::global(), process_name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Counter;

    fn seeded() -> Registry {
        let reg = Registry::new();
        reg.record_span(SpanRecord {
            name: "parse",
            start_ns: 1_000,
            end_ns: 5_000,
            depth: 0,
            tid: 0,
        });
        reg.record_span(SpanRecord {
            name: "evaluate",
            start_ns: 6_000,
            end_ns: 9_000,
            depth: 1,
            tid: 0,
        });
        reg.counters().add(Counter::EvalsPerformed, 14);
        reg.record_hist(Hist::LoopIterations, 100);
        reg
    }

    #[test]
    fn writer_compact_matches_handwritten_form() {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.key("s");
        w.string("a\"b");
        w.key("n");
        w.uint(7);
        w.key("i");
        w.int(-3);
        w.key("f");
        w.fixed(1.5, 3);
        w.key("b");
        w.boolean(true);
        w.key("v");
        w.begin_array();
        w.uint(1);
        w.begin_object();
        w.end_object();
        w.begin_array();
        w.end_array();
        w.end_array();
        w.end_object();
        let json = w.finish();
        assert_eq!(
            json,
            "{\"s\":\"a\\\"b\",\"n\":7,\"i\":-3,\"f\":1.500,\"b\":true,\"v\":[1,{},[]]}"
        );
        validate_json(&json).unwrap();
    }

    #[test]
    fn writer_pretty_indents_and_validates() {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.key("a");
        w.uint(1);
        w.key("v");
        w.begin_array();
        w.uint(2);
        w.uint(3);
        w.end_array();
        w.key("empty");
        w.begin_object();
        w.end_object();
        w.end_object();
        let json = w.finish();
        assert_eq!(
            json,
            "{\n  \"a\": 1,\n  \"v\": [\n    2,\n    3\n  ],\n  \"empty\": {}\n}"
        );
        validate_json(&json).unwrap();
    }

    #[test]
    #[should_panic(expected = "unclosed container")]
    fn writer_panics_on_unbalanced_finish() {
        let mut w = JsonWriter::compact();
        w.begin_object();
        let _ = w.finish();
    }

    #[test]
    fn escape_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn summary_mentions_phases_and_counters() {
        let text = summary(&seeded());
        assert!(text.contains("parse"));
        assert!(text.contains("evaluate"));
        assert!(text.contains("evals_performed"));
        assert!(text.contains("loop_iterations"));
        // Percentile columns: one sample, so every quantile is exact.
        assert!(text.contains("p50<=100 p90<=100 p99<=100"), "{text}");
    }

    #[test]
    fn validator_accepts_exports_and_rejects_garbage() {
        let reg = seeded();
        validate_json(&chrome_trace(&reg, "t")).unwrap();
        validate_json("  {\"a\": [1, -2.5e3, \"x\\n\", true, null]} ").unwrap();
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[1,2").is_err());
        assert!(validate_json("{} trailing").is_err());
        assert!(validate_json("\"bad \\q escape\"").is_err());
        assert!(validate_json("").is_err());
    }

    #[test]
    fn json_value_parses_and_navigates() {
        let v = JsonValue::parse(
            "{\"s\":\"a\\n\\u0041\",\"n\":18446744073709551615,\"f\":-2.5e3,\
             \"b\":false,\"z\":null,\"arr\":[1,2,3]}",
        )
        .unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("a\nA"));
        // The full u64 range round-trips (raw-token numbers, not f64).
        assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(u64::MAX));
        assert_eq!(v.get("f").and_then(JsonValue::as_f64), Some(-2500.0));
        assert_eq!(v.get("b").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(v.get("z"), Some(&JsonValue::Null));
        assert_eq!(v.get("arr").and_then(JsonValue::as_array).unwrap().len(), 3);
        assert!(v.get("missing").is_none());
        assert_eq!(v.entries().unwrap().len(), 6);
        // Scalar accessors reject mismatched variants.
        assert!(v.get("s").unwrap().as_u64().is_none());
        assert!(v.get("n").unwrap().as_str().is_none());
    }

    #[test]
    fn json_value_round_trips_writer_output() {
        let v = JsonValue::parse(&chrome_trace(&seeded(), "t")).unwrap();
        assert_eq!(
            v.get("otherData")
                .and_then(|c| c.get("evals_performed"))
                .and_then(JsonValue::as_u64),
            Some(14)
        );
        let events = v.get("traceEvents").and_then(JsonValue::as_array).unwrap();
        let spans: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[0].get("name").and_then(JsonValue::as_str),
            Some("parse")
        );
        assert_eq!(spans[1].get("ts").and_then(JsonValue::as_f64), Some(6.0));
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let trace = chrome_trace(&seeded(), "test");
        assert!(trace.contains("\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"M\""));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"ph\":\"C\""));
        // ts/dur in microseconds: 1000ns span start = 1us.
        assert!(trace.contains("\"ts\":1,"));
        assert!(trace.contains("\"dur\":4,"));
        // Counters ride along in otherData too.
        assert!(trace.contains("\"otherData\":{\"evals_performed\":14}"));
    }
}
