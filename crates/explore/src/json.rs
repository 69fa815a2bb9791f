//! The workspace's one JSON module: the `dew serve` line protocol, the
//! `dew explore --json` report and the bench binaries' `BENCH_*.json`
//! files all build and read [`Json`] values, with no third-party
//! dependency (the workspace builds offline).
//!
//! Supports the full JSON grammar except scientific-notation emission;
//! parsing accepts any RFC 8259 number. Strings escape the mandatory set
//! (`"`, `\`, control characters) on output and understand the standard
//! escapes plus `\uXXXX` (surrogate pairs included) on input. [`Json::emit`]
//! writes one compact line (the protocol); [`Json::emit_pretty`] writes an
//! indented document (files). Non-finite numbers, which JSON cannot
//! represent, are written as `null`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so without a bound a single line of
/// `[`s overflows the stack and aborts the process; protocol documents
/// nest a few levels at most.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
///
/// Objects use a [`BTreeMap`], so emission order is deterministic — handy
/// for tests and for diffing server responses.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers up to 2^53 round-trip).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

/// Why a document failed to parse: a message and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the failure position on malformed input,
    /// including arrays and objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Sets member `key`, for objects built a field at a time.
    ///
    /// # Panics
    ///
    /// When `self` is not an object.
    pub fn insert(&mut self, key: &str, value: Json) {
        let Json::Obj(members) = self else {
            panic!("insert `{key}` into a JSON value that is not an object");
        };
        members.insert(key.to_owned(), value);
    }

    /// Member lookup; `None` for non-objects and missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer (rejects fractions, negatives
    /// and anything beyond 2^53).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n) {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialises compactly (no insignificant whitespace, keys sorted).
    #[must_use]
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out, None);
        out
    }

    /// Serialises for a file: one member or element per line, indented by
    /// two spaces per level, `": "` after keys, keys sorted, and a final
    /// newline. Nested arrays and objects holding only scalars stay on one
    /// line, `", "`-separated.
    #[must_use]
    pub fn emit_pretty(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// `depth` is the indent level of the line this value starts on, or
    /// `None` for compact output.
    fn emit_into(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => emit_str(s, out),
            Json::Arr(items) => emit_seq(out, depth, ['[', ']'], items.iter().map(|v| (None, v))),
            Json::Obj(map) => emit_seq(
                out,
                depth,
                ['{', '}'],
                map.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Writes an array (keys `None`) or an object between `brackets`. Pretty
/// output puts each member on its own line, except that a nested sequence
/// of scalars stays on one line (`{"name": "x", "steps_per_sec": 2}`).
fn emit_seq<'a>(
    out: &mut String,
    depth: Option<usize>,
    brackets: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) {
    let newline = |out: &mut String, depth: Option<usize>| {
        if let Some(depth) = depth {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
    };
    let flat = depth.is_some_and(|d| d > 0)
        && items
            .clone()
            .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
    let (inner, close) = if flat {
        (None, None)
    } else {
        (depth.map(|d| d + 1), depth)
    };
    out.push(brackets[0]);
    let mut empty = true;
    for (key, value) in items {
        if !empty {
            out.push_str(if flat { ", " } else { "," });
        }
        empty = false;
        newline(out, inner);
        if let Some(key) = key {
            emit_str(key, out);
            out.push_str(if depth.is_some() { ": " } else { ":" });
        }
        value.emit_into(out, inner);
    }
    if !empty {
        newline(out, close);
    }
    out.push(brackets[1]);
}

/// Builds a [`Json::Obj`] from `(key, value)` pairs.
pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Shorthand for a numeric member.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

/// Shorthand for a measured figure rounded to `places` decimals, so a
/// file carries no more digits than the measurement has.
#[must_use]
pub fn fixed(x: f64, places: i32) -> Json {
    let scale = 10f64.powi(places);
    Json::Num((x * scale).round() / scale)
}

/// Shorthand for a string member.
#[must_use]
pub fn str(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

fn emit_str(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("arrays and objects nest too deeply"));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected [")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected , or ] in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected {")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected : after object key")?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected , or } in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: \uXXXX\uXXXX.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.eat(b'u', "expected \\u for low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).expect("input was a &str");
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("bad number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_protocol_shapes() {
        let doc = r#"{"cmd":"submit","kind":"sweep","requests":50000,"deadline_ms":250,"chaos":true,"mix":"zipf"}"#;
        let v = Json::parse(doc).expect("parses");
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("submit"));
        assert_eq!(v.get("requests").and_then(Json::as_u64), Some(50_000));
        assert_eq!(v.get("chaos").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
        let emitted = v.emit();
        assert_eq!(Json::parse(&emitted).expect("re-parses"), v);
    }

    #[test]
    fn numbers_strings_arrays_and_escapes() {
        let v = Json::parse(r#"[-1.5, 2e3, 0, "a\"b\\c\nd", [true, false, null]]"#).expect("ok");
        let Json::Arr(items) = &v else { panic!() };
        assert_eq!(items[0].as_f64(), Some(-1.5));
        assert_eq!(items[1].as_f64(), Some(2000.0));
        assert_eq!(items[0].as_u64(), None, "negative/fractional rejected");
        assert_eq!(items[3].as_str(), Some("a\"b\\c\nd"));
        assert_eq!(Json::parse(&v.emit()).expect("round-trip"), v);

        let uni = Json::parse(r#""\u00e9\ud83d\ude00""#).expect("unicode escapes");
        assert_eq!(uni.as_str(), Some("é😀"));
    }

    #[test]
    fn malformed_documents_error_with_position() {
        for bad in [
            "{",
            "[1,",
            "tru",
            "\"abc",
            "{\"a\" 1}",
            "1 2",
            "{'a':1}",
            "\"\\q\"",
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(!err.to_string().is_empty());
        }
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        let err = Json::parse(&deep).expect_err("too deep");
        assert!(err.message.contains("nest"), "{err}");
        assert_eq!(err.at, MAX_DEPTH);
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok(), "the limit itself parses");
        let over = format!(
            "{{\"a\":{}{}}}",
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        );
        assert!(
            Json::parse(&over).is_err(),
            "objects count towards the depth"
        );
    }

    #[test]
    fn non_finite_numbers_emit_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let v = Json::Arr(vec![Json::Num(n)]);
            assert_eq!(v.emit(), "[null]");
            assert_eq!(
                Json::parse(&v.emit_pretty()),
                Ok(Json::Arr(vec![Json::Null]))
            );
        }
    }

    #[test]
    fn pretty_emission_indents_and_re_parses() {
        let v = obj([
            ("empty", Json::Arr(Vec::new())),
            (
                "points",
                Json::Arr(vec![obj([("a", num(1)), ("b", fixed(0.123_456_7, 3))])]),
            ),
            ("name", str("x")),
        ]);
        assert_eq!(
            v.emit_pretty(),
            "{\n  \"empty\": [],\n  \"name\": \"x\",\n  \"points\": [\n    \
             {\"a\": 1, \"b\": 0.123}\n  ]\n}\n"
        );
        assert_eq!(Json::parse(&v.emit_pretty()), Ok(v));
    }

    #[test]
    fn builders_compose() {
        let mut v = obj([("ok", Json::Bool(true)), ("id", num(7))]);
        v.insert("status", str("queued"));
        assert_eq!(v.emit(), r#"{"id":7,"ok":true,"status":"queued"}"#);
    }
}
