//! Minimal JSON document model with deterministic rendering.
//!
//! The build environment has no serde, and the scenario engine needs a
//! stronger property than serde gives by default anyway: **byte-identical
//! output for identical inputs**. This module therefore models JSON with
//! order-preserving objects and integer-only numbers, and renders with a
//! fixed layout — no floats, no hash-map iteration order, no locale.

use std::fmt::Write as _;

/// A JSON value. Numbers are restricted to `u64`/`i64`: everything the
/// report format needs is a count, and integers render identically on
/// every platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object with **insertion-ordered** keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Parses a JSON document (the subset this module renders: integer
    /// numbers, strings, bools, null, arrays, insertion-ordered objects).
    /// The bench tooling uses this to read reports back — floats are
    /// rejected, matching the renderer's integers-only guarantee.
    ///
    /// Arrays and objects may nest at most [`MAX_DEPTH`] deep: the parser
    /// recurses once per level, and request frames come from the network.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut at = 0usize;
        let value = parse_value(text, &mut at, 0)?;
        skip_ws(bytes, &mut at);
        if at != bytes.len() {
            return Err(format!("trailing data at byte {at}"));
        }
        Ok(value)
    }

    /// Looks up a field of an object (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Appends a field to an object (panics on non-objects).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Object(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() requires an object"),
        }
        self
    }

    /// Renders with 2-space indentation and a trailing newline — the
    /// canonical report format (stable across runs and platforms).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out.push('\n');
        out
    }

    /// Renders compactly (no whitespace).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    fn write(&self, out: &mut String, indent: usize, pretty: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        out.push('\n');
                        push_indent(out, indent + 1);
                    }
                    item.write(out, indent + 1, pretty);
                }
                if pretty {
                    out.push('\n');
                    push_indent(out, indent);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        out.push('\n');
                        push_indent(out, indent + 1);
                    }
                    write_escaped(out, key);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    value.write(out, indent + 1, pretty);
                }
                if pretty {
                    out.push('\n');
                    push_indent(out, indent);
                }
                out.push('}');
            }
        }
    }
}

fn skip_ws(bytes: &[u8], at: &mut usize) {
    while *at < bytes.len() && matches!(bytes[*at], b' ' | b'\t' | b'\n' | b'\r') {
        *at += 1;
    }
}

fn expect(bytes: &[u8], at: &mut usize, token: &str) -> Result<(), String> {
    if bytes[*at..].starts_with(token.as_bytes()) {
        *at += token.len();
        Ok(())
    } else {
        Err(format!("expected {token:?} at byte {at}"))
    }
}

/// The deepest array/object nesting [`Json::parse`] accepts. The deepest
/// document the workspace renders (a sweep report's per-rung metrics)
/// nests 6 levels.
pub const MAX_DEPTH: usize = 128;

fn parse_value(text: &str, at: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, at);
    if matches!(bytes.get(*at), Some(b'[' | b'{')) && depth >= MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {at}"));
    }
    match bytes.get(*at) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(bytes, at, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, at, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, at, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(text, at).map(Json::Str),
        Some(b'[') => {
            *at += 1;
            let mut items = Vec::new();
            skip_ws(bytes, at);
            if bytes.get(*at) == Some(&b']') {
                *at += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(text, at, depth + 1)?);
                skip_ws(bytes, at);
                match bytes.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b']') => {
                        *at += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {at}")),
                }
            }
        }
        Some(b'{') => {
            *at += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, at);
            if bytes.get(*at) == Some(&b'}') {
                *at += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                skip_ws(bytes, at);
                let key = parse_string(text, at)?;
                skip_ws(bytes, at);
                expect(bytes, at, ":")?;
                fields.push((key, parse_value(text, at, depth + 1)?));
                skip_ws(bytes, at);
                match bytes.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b'}') => {
                        *at += 1;
                        return Ok(Json::Object(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {at}")),
                }
            }
        }
        Some(_) => parse_number(bytes, at),
    }
}

/// Parses the string starting at `text[*at]`, in time linear in its
/// length: each run of unescaped characters is copied as one slice.
fn parse_string(text: &str, at: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    if bytes.get(*at) != Some(&b'"') {
        return Err(format!("expected string at byte {at}"));
    }
    *at += 1;
    let mut out = String::new();
    loop {
        // A run ends at a quote, a backslash or the end of the text, all
        // of them character boundaries.
        let end = bytes[*at..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map_or(bytes.len(), |run| *at + run);
        out.push_str(&text[*at..end]);
        *at = end;
        match bytes.get(*at) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *at += 1;
                return Ok(out);
            }
            Some(_) => {
                *at += 1;
                match bytes.get(*at) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = text
                            .get(*at + 1..*at + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid \\u escape {code:#x}"))?,
                        );
                        *at += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *at += 1;
            }
        }
    }
}

fn parse_number(bytes: &[u8], at: &mut usize) -> Result<Json, String> {
    let start = *at;
    if bytes.get(*at) == Some(&b'-') {
        *at += 1;
    }
    while matches!(bytes.get(*at), Some(b'0'..=b'9')) {
        *at += 1;
    }
    if matches!(bytes.get(*at), Some(b'.') | Some(b'e') | Some(b'E')) {
        return Err(format!(
            "floating-point numbers are not part of the report format (byte {start})"
        ));
    }
    let text = std::str::from_utf8(&bytes[start..*at]).expect("digits are ASCII");
    if text.is_empty() || text == "-" {
        return Err(format!("expected a value at byte {start}"));
    }
    if text.starts_with('-') {
        text.parse::<i64>()
            .map(Json::I64)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    } else {
        text.parse::<u64>()
            .map(Json::U64)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::I64(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Array(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_deterministically() {
        let doc = Json::object()
            .field("name", "scenario \"x\"\n")
            .field("rounds", 42u64)
            .field("delta", -3i64)
            .field("pass", true)
            .field("tags", Json::Array(vec![Json::from("a"), Json::from("b")]))
            .field("empty", Json::object());
        let a = doc.render_pretty();
        let b = doc.render_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"scenario \\\"x\\\"\\n\""));
        assert!(a.ends_with('\n'));
        let compact = doc.render_compact();
        assert!(compact.contains("\"rounds\":42"));
        assert!(compact.contains("\"delta\":-3"));
        assert!(compact.contains("\"empty\":{}"));
    }

    #[test]
    fn control_chars_are_escaped() {
        let s = Json::Str("\u{1}".to_string()).render_compact();
        assert_eq!(s, "\"\\u0001\"");
    }

    #[test]
    fn parse_round_trips_renderings() {
        let doc = Json::object()
            .field("name", "scenario \"x\"\n\u{1}")
            .field("rounds", 42u64)
            .field("delta", -3i64)
            .field("pass", true)
            .field("nothing", Json::Null)
            .field(
                "tags",
                Json::Array(vec![Json::from("a"), Json::U64(7), Json::object()]),
            )
            .field("empty", Json::Array(vec![]));
        assert_eq!(Json::parse(&doc.render_pretty()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.render_compact()).unwrap(), doc);
    }

    /// A long string mixing plain runs, escapes, `\u` escapes and
    /// multi-byte characters round-trips. Escapes the renderer never
    /// writes parse too, and a truncated escape is an error.
    #[test]
    fn long_strings_round_trip() {
        let piece = "plain \"quoted\" back\\slash\ttab\nline\u{1}\u{1f}é→😀 ";
        let long = piece.repeat(20_000);
        let doc = Json::Array(vec![Json::from(long.as_str()), Json::from(piece)]);
        let rendered = doc.render_compact();
        assert!(rendered.contains("\\u0001") && rendered.contains("😀"));
        assert_eq!(Json::parse(&rendered).unwrap(), doc);
        let escaped = r#""\u00e9\/\u2192x""#;
        assert_eq!(Json::parse(escaped).unwrap(), Json::from("é/→x"));
        assert!(Json::parse(r#""\u00e""#).is_err());
        assert!(Json::parse("\"é\\").is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1.5").is_err(), "floats are not in the format");
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    /// Nesting is bounded: a megabyte of `[` is an error naming the byte,
    /// not a stack overflow, and the limit itself still parses.
    #[test]
    fn parse_rejects_nesting_past_the_limit() {
        let err = Json::parse(&"[".repeat(1 << 20)).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn accessors_navigate_parsed_documents() {
        let doc = Json::parse(r#"{"summary": {"passed": 3}, "entries": [{"n": 10, "ok": true}]}"#)
            .unwrap();
        assert_eq!(
            doc.get("summary")
                .and_then(|s| s.get("passed"))
                .and_then(Json::as_u64),
            Some(3)
        );
        let entries = doc.get("entries").and_then(Json::as_array).unwrap();
        assert_eq!(entries[0].get("n").and_then(Json::as_u64), Some(10));
        assert_eq!(entries[0].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::U64(1).get("x"), None);
    }
}
